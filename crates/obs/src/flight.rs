//! Crash-dump flight recorder.
//!
//! A fixed-capacity ring buffer of recent structured trace events —
//! decode errors, window slides, recognition deadline overruns — kept
//! continuously so that *when* something goes wrong the last N
//! interesting things the pipeline did are already in memory, like an
//! aircraft flight recorder. The ring dumps to JSON:
//!
//! * on an anomaly trigger ([`trigger_dump`]): recognition deadline
//!   overrun, chaos-oracle violation, or panic (see [`install_panic_hook`]),
//!   writing to the path registered with [`arm_dump`];
//! * on demand ([`dump_to`]): `surveil --flight-dump <path>`.
//!
//! Writers claim a slot with one `fetch_add` on the sequence counter —
//! the ring itself is lock-free and writers never wait on each other for
//! a slot; only the claimed slot's payload swap takes an (uncontended in
//! practice) per-slot lock, because event details are heap strings.
//! Recording is gated on the crate's global [`enabled`](crate::enabled)
//! switch and detail strings are built lazily, so a disabled pipeline
//! pays one load and a predicted branch per would-be event.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use crate::encode::json_str;

/// Events retained by the global recorder (the newest
/// [`DEFAULT_CAPACITY`] survive; older ones are overwritten).
pub const DEFAULT_CAPACITY: usize = 1024;

/// What kind of thing happened. The set mirrors the pipeline's known
/// trouble spots; `Note` is the escape hatch for ad-hoc annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// An AIS sentence failed to decode (malformed, bad checksum, …).
    DecodeError,
    /// A sliding-window advance (normal, but invaluable context).
    WindowSlide,
    /// A recognition query exceeded the configured deadline.
    RecognitionOverrun,
    /// A thread panicked (recorded by the panic hook).
    Panic,
    /// Anything else worth remembering.
    Note,
}

impl FlightKind {
    /// Stable lowercase identifier used in dumps.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::DecodeError => "decode_error",
            FlightKind::WindowSlide => "window_slide",
            FlightKind::RecognitionOverrun => "recognition_overrun",
            FlightKind::Panic => "panic",
            FlightKind::Note => "note",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (total events ever recorded, 0-based).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Event category.
    pub kind: FlightKind,
    /// Free-form, human-oriented detail line.
    pub detail: String,
}

/// A fixed-capacity ring of [`FlightEvent`]s. Most callers use the
/// process-global instance via [`record`]; owning one directly is for
/// tests.
pub struct FlightRecorder {
    epoch: Instant,
    next: AtomicU64,
    slots: Vec<Mutex<Option<FlightEvent>>>,
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` most recent events.
    ///
    /// # Panics
    /// If `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (≥ retained count).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Appends an event, overwriting the oldest once the ring is full.
    pub fn record(&self, kind: FlightKind, detail: String) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let at_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let slot = &self.slots[usize::try_from(seq).unwrap_or(usize::MAX) % self.slots.len()];
        *slot.lock().expect("flight slot poisoned") = Some(FlightEvent {
            seq,
            at_us,
            kind,
            detail,
        });
    }

    /// The retained events in sequence order (oldest first). Events being
    /// overwritten concurrently may be missing; order is still strict.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("flight slot poisoned").clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Serializes the retained events as a JSON document. `reason` names
    /// the trigger ("panic", "recognition-overrun", "on-demand", …).
    #[must_use]
    pub fn dump_json(&self, reason: &str) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(128 + events.len() * 96);
        out.push_str("{\"reason\":");
        out.push_str(&json_str(reason));
        out.push_str(&format!(
            ",\"recorded\":{},\"capacity\":{},\"events\":[",
            self.recorded(),
            self.capacity()
        ));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"seq\":{},\"at_us\":{},\"kind\":{},\"detail\":{}}}",
                e.seq,
                e.at_us,
                json_str(e.kind.as_str()),
                json_str(&e.detail)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
static ARMED: Mutex<Option<PathBuf>> = Mutex::new(None);
static PANIC_HOOK: Once = Once::new();

/// The process-global recorder ([`DEFAULT_CAPACITY`] slots).
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

/// Records an event on the global recorder. The detail string is only
/// built — and the recorder only touched — while recording is enabled.
pub fn record(kind: FlightKind, detail: impl FnOnce() -> String) {
    if !crate::enabled() {
        return;
    }
    recorder().record(kind, detail());
    crate::counter(crate::names::TRACE_FLIGHT_EVENTS).inc();
}

/// Registers the file anomaly triggers dump to. Until armed,
/// [`trigger_dump`] is a no-op, so ad-hoc tools cannot scribble files by
/// surprise.
pub fn arm_dump(path: impl Into<PathBuf>) {
    *ARMED.lock().expect("flight arm lock poisoned") = Some(path.into());
}

/// Dumps the global recorder to the armed path, if any. Returns the path
/// written. Called from anomaly sites (deadline overrun, chaos-oracle
/// violation, panic hook); IO errors are reported on stderr, never panicked
/// on — the recorder must stay harmless at its moment of glory.
pub fn trigger_dump(reason: &str) -> Option<PathBuf> {
    let path = ARMED.lock().expect("flight arm lock poisoned").clone()?;
    match dump_to(&path, reason) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("flight recorder: failed to dump to {}: {e}", path.display());
            None
        }
    }
}

/// Writes the global recorder's JSON dump to `path` (on-demand path,
/// `surveil --flight-dump`).
pub fn dump_to(path: &Path, reason: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, recorder().dump_json(reason))?;
    crate::counter(crate::names::TRACE_FLIGHT_DUMPS).inc();
    Ok(())
}

/// Chains a panic hook that records the panic and fires [`trigger_dump`]
/// before the default hook runs. Installing twice is a no-op.
pub fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            record(FlightKind::Panic, || info.to_string());
            trigger_dump("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(FlightKind::Note, format!("event {i}"));
        }
        let snap = r.snapshot();
        assert_eq!(r.recorded(), 10);
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest four retained, in order");
    }

    #[test]
    fn concurrent_records_all_land() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        r.record(FlightKind::WindowSlide, format!("t{t} i{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.recorded(), 64);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 64);
        // Every sequence number 0..64 present exactly once.
        let mut seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 64);
    }

    #[test]
    fn dump_json_shape() {
        let r = FlightRecorder::new(8);
        r.record(FlightKind::DecodeError, "bad \"checksum\"".to_string());
        r.record(FlightKind::RecognitionOverrun, "q=7200 took 12ms".to_string());
        let dump = r.dump_json("unit-test");
        assert!(dump.starts_with("{\"reason\":\"unit-test\""));
        assert!(dump.contains("\"recorded\":2,\"capacity\":8"));
        assert!(dump.contains("\"kind\":\"decode_error\""));
        assert!(dump.contains("bad \\\"checksum\\\""));
        assert!(dump.contains("\"kind\":\"recognition_overrun\""));
        assert!(dump.trim_end().ends_with("]}"));
    }

    #[test]
    fn armed_dump_fires_on_injected_recognition_overrun() {
        crate::set_enabled(true);
        let path = std::env::temp_dir().join("flight-overrun-injected.json");
        let _ = std::fs::remove_file(&path);
        arm_dump(&path);
        record(FlightKind::RecognitionOverrun, || {
            "q=7200 took 57ms (deadline 10ms)".to_string()
        });
        let written = trigger_dump("recognition-overrun").expect("armed dump must fire");
        assert_eq!(written, path);
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.starts_with("{\"reason\":\"recognition-overrun\""));
        assert!(dump.contains("\"kind\":\"recognition_overrun\""));
        assert!(dump.contains("deadline 10ms"));
        *ARMED.lock().unwrap() = None;
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trigger_dump_without_arming_is_noop() {
        // Other tests may arm the global path; this test only asserts the
        // free function is callable. The unarmed branch is covered by a
        // fresh process in the e2e suite.
        let r = FlightRecorder::new(2);
        assert_eq!(r.snapshot().len(), 0);
    }
}
