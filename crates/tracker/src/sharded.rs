//! Sharded parallel operation of the trajectory detection component.
//!
//! The mobility tracker keeps *per-vessel* state machines with no
//! cross-vessel interaction (§3: every critical point is derived from one
//! vessel's own fixes), so the fleet partitions cleanly: hash each MMSI to
//! one of `n` shards and give every shard its own [`WindowedTracker`].
//! One shard is the serial tracker run on the calling thread. With more,
//! each slide routes the positional batch to the owning shards, runs them
//! on scoped threads (the last on the caller), and merges the per-shard
//! critical points, evicted deltas, and synopsis statistics back into a
//! single report.
//!
//! **Equivalence invariant.** A vessel's tuples always reach the same
//! shard, in stream order, so its critical-point subsequence is *bit
//! identical* to the serial tracker's. Whole-fleet outputs differ only in
//! the interleaving of independent vessels, which [`canonical_order`]
//! (stable sort by `(timestamp, mmsi)`) removes: every report is in that
//! order, at every shard count, so downstream consumers see the same
//! stream whatever the shard count. The differential harness in
//! `tests/sharded_equivalence.rs` enforces exactly this.

use std::time::{Duration as StdDuration, Instant};

use maritime_ais::PositionTuple;
use maritime_obs::{names, LazyCounter, LazyGauge};
use maritime_stream::{ShardRouter, Timestamp, WindowSpec};

use crate::events::CriticalPoint;
use crate::params::TrackerParams;
use crate::tracker::FleetStats;
use crate::window::{SlideReport, WindowedTracker};

/// Balance metrics for the sharded tracker (see `OBSERVABILITY.md`);
/// zero at one shard, where nothing is routed.
static OBS_BATCHES_ROUTED: LazyCounter = LazyCounter::new(names::SHARD_BATCHES_ROUTED);
static OBS_IMBALANCE: LazyGauge = LazyGauge::new(names::SHARD_BATCH_IMBALANCE);

/// Orders critical points canonically: stable sort by `(timestamp, mmsi)`.
///
/// Every shard emits each vessel's points in per-vessel time order, so a
/// *stable* sort on this key maps any shard count's merged stream to the
/// same sequence.
pub fn canonical_order(points: &mut [CriticalPoint]) {
    points.sort_by_key(|cp| (cp.timestamp, cp.mmsi.0));
}

/// What one sharded slide produced: the merged [`SlideReport`] plus the
/// per-shard wall-clock cost of the tracking phase.
#[derive(Debug, Clone)]
pub struct ShardedSlideReport {
    /// Merged report in canonical order (see [`canonical_order`]).
    pub merged: SlideReport,
    /// Tracking time spent by each shard this slide, in shard order.
    pub shard_elapsed: Vec<StdDuration>,
}

/// The fleet tracker, sharded by MMSI hash across `n ≥ 1`
/// [`WindowedTracker`]s.
///
/// Mirrors the [`WindowedTracker`] API (`slide`, `finish`, stats). Shards
/// are plain values: a slide borrows them into scoped threads, so no
/// thread outlives the call.
#[derive(Debug)]
pub struct ShardedTracker {
    router: ShardRouter,
    shards: Vec<WindowedTracker>,
}

impl ShardedTracker {
    /// Creates a sharded tracker with `shards ≥ 1` shards, each a
    /// [`WindowedTracker`] built from the same parameters and window.
    ///
    /// # Panics
    /// If `shards` is zero.
    #[must_use]
    pub fn new(params: TrackerParams, spec: WindowSpec, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded tracker needs at least one shard");
        Self {
            router: ShardRouter::new(shards),
            shards: (0..shards)
                .map(|_| WindowedTracker::new(params, spec))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a vessel.
    #[must_use]
    pub fn shard_of(&self, mmsi: maritime_ais::Mmsi) -> usize {
        self.router.route(u64::from(mmsi.0))
    }

    /// Processes one slide: routes the batch to the owning shards,
    /// advances *every* shard's window to `query_time` (a shard with no
    /// fresh tuples must still evict and sweep communication gaps), and
    /// merges the per-shard reports canonically. One shard takes the
    /// caller's batch as is, on the calling thread.
    pub fn slide(&mut self, query_time: Timestamp, batch: &[PositionTuple]) -> ShardedSlideReport {
        let timed = |shard: &mut WindowedTracker, tuples: &[PositionTuple]| {
            let t0 = Instant::now();
            let report = shard.slide(query_time, tuples);
            (report, t0.elapsed())
        };
        let reports: Vec<(SlideReport, StdDuration)> = match self.shards.as_mut_slice() {
            [only] => vec![timed(only, batch)],
            shards => {
                let mut routed: Vec<Vec<PositionTuple>> = vec![Vec::new(); shards.len()];
                for tuple in batch {
                    routed[self.router.route(u64::from(tuple.mmsi.0))].push(*tuple);
                }
                let largest = routed.iter().map(Vec::len).max().unwrap_or(0);
                let smallest = routed.iter().map(Vec::len).min().unwrap_or(0);
                OBS_IMBALANCE.set((largest - smallest) as i64);
                OBS_BATCHES_ROUTED.add(shards.len() as u64);
                let (last, others) = shards.split_last_mut().expect("at least one shard");
                let (last_tuples, other_tuples) = routed.split_last().expect("one batch a shard");
                std::thread::scope(|scope| {
                    let handles: Vec<_> = others
                        .iter_mut()
                        .zip(other_tuples)
                        .map(|(shard, tuples)| scope.spawn(move || timed(shard, tuples)))
                        .collect();
                    let last = timed(last, last_tuples);
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard thread panicked"))
                        .chain([last])
                        .collect()
                })
            }
        };

        let mut reports = reports.into_iter();
        let (mut merged, first_elapsed) = reports.next().expect("at least one shard");
        let mut shard_elapsed = vec![first_elapsed];
        for (report, elapsed) in reports {
            merged.admitted += report.admitted;
            merged.window_size += report.window_size;
            merged.fresh_critical.extend(report.fresh_critical);
            merged.evicted_delta.extend(report.evicted_delta);
            shard_elapsed.push(elapsed);
        }
        canonical_order(&mut merged.fresh_critical);
        canonical_order(&mut merged.evicted_delta);
        ShardedSlideReport {
            merged,
            shard_elapsed,
        }
    }

    /// Ends the stream on every shard and merges the results canonically.
    /// Returns `(final critical points, remaining window contents)`, the
    /// same shape as [`WindowedTracker::finish`].
    pub fn finish(&mut self) -> (Vec<CriticalPoint>, Vec<CriticalPoint>) {
        let mut final_critical = Vec::new();
        let mut residual = Vec::new();
        for shard in &mut self.shards {
            let (f, r) = shard.finish();
            final_critical.extend(f);
            residual.extend(r);
        }
        canonical_order(&mut final_critical);
        canonical_order(&mut residual);
        (final_critical, residual)
    }

    /// Fleet statistics summed across shards. Vessels are disjoint by
    /// construction (each MMSI lives on exactly one shard), so sums are
    /// exact, not estimates.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        let mut total = FleetStats::default();
        for s in self.shards.iter().map(|shard| shard.tracker().stats()) {
            total.vessels += s.vessels;
            total.raw += s.raw;
            total.critical += s.critical;
            total.outliers += s.outliers;
            total.stale += s.stale;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_ais::replay::to_tuple_stream;
    use maritime_ais::{FleetConfig, FleetSimulator};
    use maritime_stream::{Duration, SlideBatches};

    fn spec(range_h: i64, slide_min: i64) -> WindowSpec {
        WindowSpec::new(Duration::hours(range_h), Duration::minutes(slide_min)).unwrap()
    }

    fn run_serial(
        stream: Vec<(Timestamp, PositionTuple)>,
        w: WindowSpec,
    ) -> (Vec<CriticalPoint>, Vec<CriticalPoint>, FleetStats) {
        let mut wt = WindowedTracker::new(TrackerParams::default(), w);
        let mut fresh = Vec::new();
        let mut evicted = Vec::new();
        for batch in SlideBatches::new(stream.into_iter(), w, Timestamp::ZERO) {
            let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
            let report = wt.slide(batch.query_time, &tuples);
            let mut f = report.fresh_critical;
            canonical_order(&mut f);
            fresh.extend(f);
            let mut e = report.evicted_delta;
            canonical_order(&mut e);
            evicted.extend(e);
        }
        let (mut last, _) = wt.finish();
        canonical_order(&mut last);
        fresh.extend(last);
        (fresh, evicted, wt.tracker().stats())
    }

    fn run_sharded(
        stream: Vec<(Timestamp, PositionTuple)>,
        w: WindowSpec,
        shards: usize,
    ) -> (Vec<CriticalPoint>, Vec<CriticalPoint>, FleetStats) {
        let mut st = ShardedTracker::new(TrackerParams::default(), w, shards);
        let mut fresh = Vec::new();
        let mut evicted = Vec::new();
        for batch in SlideBatches::new(stream.into_iter(), w, Timestamp::ZERO) {
            let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
            let report = st.slide(batch.query_time, &tuples);
            fresh.extend(report.merged.fresh_critical);
            evicted.extend(report.merged.evicted_delta);
        }
        let (last, _) = st.finish();
        fresh.extend(last);
        let stats = st.stats();
        (fresh, evicted, stats)
    }

    #[test]
    fn two_shards_match_serial_critical_stream() {
        let sim = FleetSimulator::new(FleetConfig::tiny(41));
        let stream = to_tuple_stream(&sim.generate());
        let w = spec(1, 30);
        let (serial_fresh, serial_evicted, serial_stats) = run_serial(stream.clone(), w);
        let (sharded_fresh, sharded_evicted, sharded_stats) = run_sharded(stream, w, 2);
        assert_eq!(serial_fresh, sharded_fresh);
        assert_eq!(serial_evicted, sharded_evicted);
        assert_eq!(serial_stats.raw, sharded_stats.raw);
        assert_eq!(serial_stats.critical, sharded_stats.critical);
        assert_eq!(serial_stats.vessels, sharded_stats.vessels);
    }

    #[test]
    fn single_shard_is_the_serial_tracker() {
        let sim = FleetSimulator::new(FleetConfig::tiny(42));
        let stream = to_tuple_stream(&sim.generate());
        let w = spec(1, 30);
        let (serial_fresh, serial_evicted, _) = run_serial(stream.clone(), w);
        let (sharded_fresh, sharded_evicted, _) = run_sharded(stream, w, 1);
        assert_eq!(serial_fresh, sharded_fresh);
        assert_eq!(serial_evicted, sharded_evicted);
    }

    #[test]
    fn empty_slides_still_advance_all_shards() {
        // One vessel only: with 4 shards, 3 shards see no tuples, yet
        // their windows must advance and eviction must stay consistent.
        let sim = FleetSimulator::new(FleetConfig {
            vessels: 1,
            ..FleetConfig::tiny(43)
        });
        let stream = to_tuple_stream(&sim.generate());
        let w = spec(1, 30);
        let (serial_fresh, serial_evicted, _) = run_serial(stream.clone(), w);
        let (sharded_fresh, sharded_evicted, _) = run_sharded(stream, w, 4);
        assert_eq!(serial_fresh, sharded_fresh);
        assert_eq!(serial_evicted, sharded_evicted);
    }
}
