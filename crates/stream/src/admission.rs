//! Bounded-disorder admission for out-of-order streams.
//!
//! Real AIS feeds are not time-sorted: radio relays, satellite hops, and
//! store-and-forward base stations deliver sentences displaced from their
//! report timestamps. The pipeline's windowing, however, is cheapest on a
//! (mostly) sorted stream. [`AdmissionBuffer`] reconciles the two with the
//! classic watermark scheme: items are buffered and released in timestamp
//! order once the watermark (the maximum timestamp seen) has advanced past
//! them by more than the configured `skew`, while items arriving *later*
//! than the skew allows are admitted immediately, flagged as late, and
//! left for downstream consumers to handle (the tracker ignores stale
//! per-vessel fixes; the recognizer treats them as genuine late arrivals).
//!
//! The central guarantee, which the chaos harness's bounded-reorder oracle
//! is built on: **any arrival-order permutation whose timestamp
//! displacement is at most `skew` produces byte-identical output** — the
//! canonical `(timestamp, item)` order of the input multiset. Duplicates
//! are preserved (the buffer is a heap of entries, not a set), so
//! duplicate-idempotence is decided downstream, where it belongs.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use maritime_obs::{names, LazyCounter, LazyGauge, LazyHistogram};

use crate::time::{Duration, Timestamp};

/// Sentences admitted past the watermark (see `OBSERVABILITY.md`).
static OBS_LATE: LazyCounter = LazyCounter::new(names::STREAM_LATE_ADMISSIONS);
/// Event-time lag (watermark − timestamp) of each released item, in ns of
/// event time — the live watermark-lag distribution.
static OBS_LAG: LazyHistogram = LazyHistogram::new(names::STREAM_ADMISSION_LAG_NS);
/// Items currently held back waiting for the watermark.
static OBS_BUFFERED: LazyGauge = LazyGauge::new(names::STREAM_ADMISSION_BUFFERED);

/// Event-time seconds to nanoseconds, saturating (lag is never negative
/// by construction, but a clamp keeps hostile inputs harmless).
fn lag_ns(watermark: Timestamp, t: Timestamp) -> u64 {
    let secs = watermark.as_secs().saturating_sub(t.as_secs()).max(0);
    (secs as u64).saturating_mul(1_000_000_000)
}

/// Counters describing what the buffer saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Items pushed in.
    pub pushed: u64,
    /// Items released (in order or late); equals `pushed` after `flush`.
    pub released: u64,
    /// Items admitted immediately because they arrived later than the
    /// skew allows (their timestamp was below the watermark minus skew).
    pub late: u64,
    /// Largest number of items buffered at once.
    pub peak_buffered: usize,
}

/// Reorders a stream with bounded timestamp skew into canonical
/// `(timestamp, item)` order; see the module docs for the contract.
#[derive(Debug)]
pub struct AdmissionBuffer<T> {
    skew: Duration,
    /// Min-heap on `(timestamp, item)`. Identical pairs are separate
    /// entries, so duplicates survive admission untouched, and a released
    /// item is moved out, never cloned. Unlike a sorted map, the heap
    /// allocates only when its capacity grows.
    buffered: BinaryHeap<Reverse<(Timestamp, T)>>,
    watermark: Option<Timestamp>,
    stats: AdmissionStats,
}

impl<T: Ord> AdmissionBuffer<T> {
    /// A buffer tolerating arrival displacement up to `skew`.
    #[must_use]
    pub fn new(skew: Duration) -> Self {
        Self {
            skew,
            buffered: BinaryHeap::new(),
            watermark: None,
            stats: AdmissionStats::default(),
        }
    }

    /// The configured skew tolerance.
    #[must_use]
    pub fn skew(&self) -> Duration {
        self.skew
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Items currently held back.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Pushes one item, returning everything releasable now, in canonical
    /// order. A late item (timestamp strictly below watermark − skew) is
    /// returned immediately — out of order, by construction — and counted.
    pub fn push(&mut self, t: Timestamp, item: T) -> Vec<(Timestamp, T)> {
        let mut out = Vec::new();
        self.push_into(t, item, &mut out);
        out
    }

    /// [`AdmissionBuffer::push`] into a buffer the caller owns: appends
    /// whatever the push releases to `out`, so a caller that reuses `out`
    /// across pushes allocates nothing per item.
    pub fn push_into(&mut self, t: Timestamp, item: T, out: &mut Vec<(Timestamp, T)>) {
        self.stats.pushed += 1;
        if let Some(w) = self.watermark {
            if t < w - self.skew {
                self.stats.late += 1;
                self.stats.released += 1;
                OBS_LATE.inc();
                OBS_LAG.record(lag_ns(w, t));
                out.push((t, item));
                return;
            }
        }
        self.buffered.push(Reverse((t, item)));
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered.len());
        let w = self.watermark.map_or(t, |w| w.max(t));
        self.watermark = Some(w);
        let bound = w - self.skew;
        self.release_while(|t| t < bound, out);
    }

    /// Releases everything still buffered, in canonical order. Call at
    /// end of stream.
    pub fn flush(&mut self) -> Vec<(Timestamp, T)> {
        let mut out = Vec::with_capacity(self.buffered.len());
        self.release_while(|_| true, &mut out);
        out
    }

    /// Pops buffered entries in canonical order while their timestamp is
    /// `releasable`.
    fn release_while(
        &mut self,
        releasable: impl Fn(Timestamp) -> bool,
        out: &mut Vec<(Timestamp, T)>,
    ) {
        let Some(w) = self.watermark else {
            return; // nothing was ever buffered
        };
        while let Some(top) = self.buffered.peek_mut() {
            let Reverse((t, _)) = &*top;
            if !releasable(*t) {
                break;
            }
            let Reverse((t, item)) = PeekMut::pop(top);
            OBS_LAG.record(lag_ns(w, t));
            out.push((t, item));
            self.stats.released += 1;
        }
        OBS_BUFFERED.set(self.buffered.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(buf: &mut AdmissionBuffer<u32>, input: &[(i64, u32)]) -> Vec<(i64, u32)> {
        let mut out = Vec::new();
        for &(t, x) in input {
            out.extend(buf.push(Timestamp(t), x));
        }
        out.extend(buf.flush());
        out.into_iter().map(|(t, x)| (t.as_secs(), x)).collect()
    }

    #[test]
    fn sorted_stream_passes_through_in_order() {
        let mut buf = AdmissionBuffer::new(Duration::secs(60));
        let input: Vec<(i64, u32)> = (0..20).map(|i| (i * 10, i as u32)).collect();
        assert_eq!(drain(&mut buf, &input), input);
        assert_eq!(buf.stats().late, 0);
        assert_eq!(buf.stats().pushed, 20);
        assert_eq!(buf.stats().released, 20);
    }

    #[test]
    fn bounded_disorder_is_fully_repaired() {
        // Displacements of up to 60 s; skew 60 s: output must be the
        // canonical sort of the input multiset.
        let mut buf = AdmissionBuffer::new(Duration::secs(60));
        let input = vec![(30, 1u32), (0, 0), (60, 3), (40, 2), (100, 5), (70, 4)];
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(drain(&mut buf, &input), expect);
        assert_eq!(buf.stats().late, 0);
    }

    #[test]
    fn duplicates_are_preserved_with_multiplicity() {
        let mut buf = AdmissionBuffer::new(Duration::secs(10));
        let input = vec![(5, 7u32), (5, 7), (5, 7), (50, 1)];
        let out = drain(&mut buf, &input);
        assert_eq!(out, vec![(5, 7), (5, 7), (5, 7), (50, 1)]);
    }

    #[test]
    fn late_items_are_admitted_immediately_and_counted() {
        let mut buf = AdmissionBuffer::new(Duration::secs(30));
        assert!(buf.push(Timestamp(0), 0u32).is_empty());
        // Watermark 100: everything below 70 is now late.
        let released = buf.push(Timestamp(100), 1);
        assert_eq!(released, vec![(Timestamp(0), 0)]);
        let late = buf.push(Timestamp(10), 2);
        assert_eq!(late, vec![(Timestamp(10), 2)], "late item emitted at once");
        assert_eq!(buf.stats().late, 1);
        // A borderline item (exactly watermark − skew) is NOT late.
        assert!(buf.push(Timestamp(70), 3).is_empty());
        assert_eq!(buf.stats().late, 1);
        let rest = buf.flush();
        assert_eq!(rest, vec![(Timestamp(70), 3), (Timestamp(100), 1)]);
        assert_eq!(buf.stats().pushed, buf.stats().released);
    }

    #[test]
    fn watermark_never_regresses() {
        let mut buf = AdmissionBuffer::new(Duration::secs(10));
        buf.push(Timestamp(100), 0u32);
        buf.push(Timestamp(95), 1); // within skew: buffered, watermark stays 100
        let out = buf.push(Timestamp(101), 2);
        assert!(out.is_empty(), "nothing below 91 yet: {out:?}");
        let rest = buf.flush();
        assert_eq!(
            rest,
            vec![(Timestamp(95), 1), (Timestamp(100), 0), (Timestamp(101), 2)]
        );
    }

    #[test]
    fn peak_buffered_tracks_high_water_mark() {
        let mut buf = AdmissionBuffer::new(Duration::secs(1_000));
        for i in 0..50 {
            buf.push(Timestamp(i), i as u32);
        }
        assert_eq!(buf.buffered(), 50);
        assert_eq!(buf.stats().peak_buffered, 50);
        buf.flush();
        assert_eq!(buf.buffered(), 0);
    }
}
