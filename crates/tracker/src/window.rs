//! Windowed operation of the trajectory detection component.
//!
//! Couples the [`MobilityTracker`] with a sliding window (§2): each slide
//! admits the fresh positional batch, detects trajectory events, retains
//! the resulting critical points in the window, and evicts expired "delta"
//! critical points toward the staging area (§3.2: "Once the window slides
//! forward, expiring critical points are transferred in an intermediate
//! staging table on disk").

use maritime_ais::PositionTuple;
use maritime_obs::{names, LazyCounter, LazyGauge};
use maritime_stream::{SlidingWindow, Timestamp, WindowSpec};

use crate::events::CriticalPoint;
use crate::params::TrackerParams;
use crate::tracker::MobilityTracker;

/// Windowed-tracking metrics (see `OBSERVABILITY.md`). Each instance
/// publishes its gauge levels as deltas, so under sharding the gauges sum
/// across shards to the serial level, as the counters do.
static OBS_EVICTED: LazyCounter = LazyCounter::new(names::TRACKER_EVICTED_POINTS);
static OBS_WINDOW_POINTS: LazyGauge = LazyGauge::new(names::TRACKER_WINDOW_POINTS);
static OBS_ACTIVE_VESSELS: LazyGauge = LazyGauge::new(names::TRACKER_ACTIVE_VESSELS);

/// What one window slide produced.
#[derive(Debug, Clone)]
pub struct SlideReport {
    /// The query time of this slide.
    pub query_time: Timestamp,
    /// Raw positions admitted in this slide.
    pub admitted: usize,
    /// Critical points detected in this slide (the CER input batch).
    pub fresh_critical: Vec<CriticalPoint>,
    /// "Delta" critical points evicted from the window toward staging.
    pub evicted_delta: Vec<CriticalPoint>,
    /// Critical points currently held in the window after this slide.
    pub window_size: usize,
}

/// The windowed trajectory detection component.
#[derive(Debug)]
pub struct WindowedTracker {
    tracker: MobilityTracker,
    window: SlidingWindow<CriticalPoint>,
    /// Levels last pushed to the global gauges, so this instance publishes
    /// *deltas*: the gauges then read as the sum over live instances (one
    /// per shard), matching the serial tracker's level exactly.
    obs_window_level: i64,
    obs_vessel_level: i64,
}

impl WindowedTracker {
    /// Creates a windowed tracker.
    #[must_use]
    pub fn new(params: TrackerParams, spec: WindowSpec) -> Self {
        Self {
            tracker: MobilityTracker::new(params),
            window: SlidingWindow::new(spec),
            obs_window_level: 0,
            obs_vessel_level: 0,
        }
    }

    /// Processes one slide: admit the batch (time-ordered positional tuples
    /// with timestamps ≤ `query_time`), detect events, sweep for vessels
    /// that fell silent (their gaps must be issued *when the silence
    /// exceeds ΔT*, not when — if ever — they reappear), and refresh the
    /// window.
    pub fn slide(&mut self, query_time: Timestamp, batch: &[PositionTuple]) -> SlideReport {
        let _span = maritime_obs::span!(names::TRACKER_SLIDE_NS);
        let mut fresh_critical = self.tracker.process_batch(batch.iter());
        fresh_critical.extend(self.tracker.sweep_gaps(query_time));
        for cp in &fresh_critical {
            self.window.insert(cp.timestamp, *cp);
        }
        let evicted_delta: Vec<CriticalPoint> = self
            .window
            .slide_to(query_time)
            .into_iter()
            .map(|(_, cp)| cp)
            .collect();
        OBS_EVICTED.add(evicted_delta.len() as u64);
        self.publish_levels();
        SlideReport {
            query_time,
            admitted: batch.len(),
            fresh_critical,
            evicted_delta,
            window_size: self.window.len(),
        }
    }

    /// Pushes this instance's window/vessel levels to the global gauges as
    /// deltas against what it last published.
    fn publish_levels(&mut self) {
        let window = self.window.len() as i64;
        OBS_WINDOW_POINTS.add(window - self.obs_window_level);
        self.obs_window_level = window;
        let vessels = self.tracker.vessel_count() as i64;
        OBS_ACTIVE_VESSELS.add(vessels - self.obs_vessel_level);
        self.obs_vessel_level = vessels;
    }

    /// Ends the stream: flush open durative states and drain the window.
    /// Returns `(final critical points, remaining window contents)`.
    pub fn finish(&mut self) -> (Vec<CriticalPoint>, Vec<CriticalPoint>) {
        let last = self.tracker.finish();
        let mut remaining: Vec<CriticalPoint> =
            self.window.iter().map(|(_, cp)| *cp).collect();
        remaining.extend(last.iter().copied());
        (last, remaining)
    }

    /// The underlying fleet tracker (stats, per-vessel access).
    #[must_use]
    pub fn tracker(&self) -> &MobilityTracker {
        &self.tracker
    }

    /// Critical points currently in the window.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

impl Drop for WindowedTracker {
    fn drop(&mut self) {
        // Retract this instance's gauge contributions so short-lived
        // trackers (tests, re-created shards) leave no residue.
        OBS_WINDOW_POINTS.add(-self.obs_window_level);
        OBS_ACTIVE_VESSELS.add(-self.obs_vessel_level);
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

    #[test]
    fn slides_admit_and_evict() {
        let sim = FleetSimulator::new(FleetConfig::tiny(31));
        let stream = to_tuple_stream(&sim.generate());
        let total = stream.len();
        let mut wt = WindowedTracker::new(TrackerParams::default(), spec(1, 30));
        let mut admitted = 0;
        let mut evicted = 0;
        let mut fresh = 0;
        for batch in SlideBatches::new(stream.into_iter(), spec(1, 30), Timestamp::ZERO) {
            let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
            let report = wt.slide(batch.query_time, &tuples);
            admitted += report.admitted;
            evicted += report.evicted_delta.len();
            fresh += report.fresh_critical.len();
        }
        assert_eq!(admitted, total);
        assert!(fresh > 0);
        assert!(evicted > 0, "a 6-hour stream must evict from a 1-hour window");
        // Conservation: every fresh critical point is either still in the
        // window or was evicted.
        assert_eq!(fresh, evicted + wt.window_len());
    }

    #[test]
    fn eviction_is_oldest_first_and_within_cutoff() {
        let sim = FleetSimulator::new(FleetConfig::tiny(32));
        let stream = to_tuple_stream(&sim.generate());
        let w = spec(1, 30);
        let mut wt = WindowedTracker::new(TrackerParams::default(), w);
        for batch in SlideBatches::new(stream.into_iter(), w, Timestamp::ZERO) {
            let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
            let report = wt.slide(batch.query_time, &tuples);
            let cutoff = batch.query_time - Duration::hours(1);
            for pair in report.evicted_delta.windows(2) {
                assert!(pair[0].timestamp <= pair[1].timestamp);
            }
            for cp in &report.evicted_delta {
                assert!(cp.timestamp <= cutoff);
            }
        }
    }

    #[test]
    fn finish_drains_window() {
        let sim = FleetSimulator::new(FleetConfig::tiny(33));
        let stream = to_tuple_stream(&sim.generate());
        let w = spec(2, 60);
        let mut wt = WindowedTracker::new(TrackerParams::default(), w);
        for batch in SlideBatches::new(stream.into_iter(), w, Timestamp::ZERO) {
            let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
            wt.slide(batch.query_time, &tuples);
        }
        let before = wt.window_len();
        let (_final_cps, remaining) = wt.finish();
        assert!(remaining.len() >= before);
    }
}
