//! Allocation budget of the live ingest path.
//!
//! `LiveIngest::push_lines` owns one copy of each accepted sentence —
//! the admission buffer holds it until the watermark releases it — and
//! should allocate nothing else per line: admission appends to a buffer
//! the caller reuses and moves released items out instead of cloning
//! them, and the heap behind it allocates only when its capacity grows.
//! This test pins that down with a counting global allocator (the
//! `crates/ais/tests/no_alloc.rs` idiom).
//!
//! It lives in its own integration-test binary because it installs a
//! `#[global_allocator]`, which must not leak into other test binaries.

use std::alloc::{GlobalAlloc, Layout, System};

use maritime::serve::LineSpan;
use maritime::{LiveIngest, SurveillanceConfig};
use maritime_ais::nmea::encode_report;
use maritime_ais::{AisMessageType, Mmsi, PositionReport};
use maritime_geo::GeoPoint;
use maritime_stream::{Duration, SourceId, Timestamp};

struct CountingAlloc;

// Per-thread counter: the libtest harness thread allocates concurrently
// with the test thread, so a process-global count would be flaky.
std::thread_local! {
    static THREAD_ALLOCATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = THREAD_ALLOCATIONS.with(std::cell::Cell::get);
    let result = f();
    (
        THREAD_ALLOCATIONS.with(std::cell::Cell::get) - before,
        result,
    )
}

const VESSELS: u32 = 20;

/// One in-order position report per vessel per second over `secs`, as
/// batches of 64 lines laid out the way a socket reader sends them.
fn batches(secs: std::ops::RangeInclusive<i64>) -> Vec<(String, Vec<LineSpan>)> {
    let mut out = Vec::new();
    let mut text = String::new();
    let mut lines = Vec::new();
    for t in secs {
        for v in 0..VESSELS {
            let sentence = encode_report(&PositionReport {
                mmsi: Mmsi(237_000_001 + v),
                msg_type: AisMessageType::PositionReportClassA,
                position: GeoPoint::new(23.6 + f64::from(v) * 0.01 + t as f64 * 1e-4, 37.9),
                sog_knots: Some(12.0),
                cog_deg: Some(90.0),
                timestamp: Timestamp(t),
            });
            let start = text.len();
            text.push_str(&sentence);
            lines.push((Timestamp(t), start, text.len()));
            if lines.len() == 64 {
                out.push((std::mem::take(&mut text), std::mem::take(&mut lines)));
            }
        }
    }
    if !lines.is_empty() {
        out.push((text, lines));
    }
    out
}

#[test]
fn push_lines_allocates_once_per_accepted_line() {
    // A 5-minute tracking slide: every line below lands before the first
    // query boundary (300 s), so no window slides and no recognition runs.
    let config = SurveillanceConfig::default();
    assert_eq!(config.tracking_window.slide, Duration::minutes(5));
    let mut live = LiveIngest::new(
        &config,
        Vec::new(),
        Vec::new(),
        Duration::secs(120),
        Duration::secs(10),
    )
    .expect("default config is valid");

    // Warm up: fills the admission buffer to its steady size (120 s of
    // lines), registers the lazy metrics and grows the reused buffers.
    for (text, lines) in &batches(1..=150) {
        assert!(live.push_lines(SourceId(1), text, lines).is_empty());
    }
    let warm = live.stats();
    let released_before = live.admission_stats().released;

    let measured = batches(151..=300);
    let (allocs, events) = allocations(|| {
        let mut events = 0;
        for (text, lines) in &measured {
            events += live.push_lines(SourceId(1), text, lines).len();
        }
        events
    });

    let stats = live.stats();
    let accepted = (stats.accepted - warm.accepted) as usize;
    assert_eq!(accepted, 150 * VESSELS as usize, "every line is accepted");
    assert_eq!(
        (events, stats.slides),
        (0, 0),
        "no query boundary is crossed"
    );
    let released = live.admission_stats().released - released_before;
    assert!(
        released >= accepted as u64 * 9 / 10,
        "admission releases as fast as lines arrive: {released} of {accepted}"
    );
    // One owned sentence per accepted line, plus the amortized growth of
    // `Vec`/`HashMap` capacities: a logarithmic number of reallocations.
    let budget = accepted + 4 * accepted.ilog2() as usize;
    assert!(
        allocs <= budget,
        "{allocs} allocations for {accepted} accepted lines (budget {budget})"
    );
}
