//! The end-to-end surveillance pipeline (Figure 1).
//!
//! Every window slide performs the four phases whose costs Figure 10
//! breaks down — online tracking, staging of "delta" critical points,
//! trip reconstruction, archive loading — plus complex event recognition
//! at the recognizer's (coarser) cadence. Phase durations are measured
//! per slide so the benchmark harness can regenerate Figure 10 directly.

use std::time::{Duration as StdDuration, Instant};

use maritime_ais::PositionTuple;
use maritime_cer::{
    CeChain, CoordinatedRecognizer, EvalStrategy, GeoPartitioner, InputEvent, VesselInfo,
};
use maritime_geo::Area;
use maritime_modstore::{ArchiveStats, StagingArea, TrajectoryStore, TripReconstructor};
use maritime_obs::flight::{self, FlightKind};
use maritime_obs::{names, LazyCounter, LazyHistogram, SpanTimer};
use maritime_stream::{SlideBatches, Timestamp};
use maritime_tracker::tracker::FleetStats;
use maritime_tracker::{CriticalPoint, ShardedTracker, SlideReport, WindowedTracker};

use crate::alerts::{AlertLog, AlertRecord};
use crate::config::{ConfigError, MetricsMode, SurveillanceConfig, TraceMode};
use crate::trace::SentenceIndex;

/// Per-slide pipeline metrics (see `OBSERVABILITY.md`): one histogram per
/// Figure 10 phase plus the whole-slide wall time. Each phase is measured
/// by a [`SpanTimer`] stage, so the same clock-read pair feeds the
/// histogram, the [`PhaseTimings`] the benchmark harness consumes, and —
/// when the Chrome-trace collector is installed — a timeline slice.
static OBS_SLIDES: LazyCounter = LazyCounter::new(names::PIPELINE_SLIDES);
static OBS_SLIDE_NS: LazyHistogram = LazyHistogram::new(names::PIPELINE_SLIDE_NS);
static OBS_TRACKING_NS: LazyHistogram = LazyHistogram::new(names::PIPELINE_TRACKING_NS);
static OBS_STAGING_NS: LazyHistogram = LazyHistogram::new(names::PIPELINE_STAGING_NS);
static OBS_RECONSTRUCTION_NS: LazyHistogram =
    LazyHistogram::new(names::PIPELINE_RECONSTRUCTION_NS);
static OBS_LOADING_NS: LazyHistogram = LazyHistogram::new(names::PIPELINE_LOADING_NS);
static OBS_RECOGNITION_NS: LazyHistogram = LazyHistogram::new(names::PIPELINE_RECOGNITION_NS);
static OBS_DEADLINE_OVERRUNS: LazyCounter =
    LazyCounter::new(names::PIPELINE_DEADLINE_OVERRUNS);

/// Wall-clock cost of each pipeline phase in one slide (Figure 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Online mobility tracking (admit batch, detect events).
    pub tracking: StdDuration,
    /// Transfer of evicted deltas into the staging area.
    pub staging: StdDuration,
    /// Trip reconstruction over staged points.
    pub reconstruction: StdDuration,
    /// Loading reconstructed trips into the archive.
    pub loading: StdDuration,
    /// Complex event recognition (zero when not scheduled this slide).
    pub recognition: StdDuration,
}

impl PhaseTimings {
    /// Sum of the four trajectory-maintenance phases (Figure 10 stacks
    /// exactly these; recognition is reported separately in Figure 11).
    #[must_use]
    pub fn maintenance_total(&self) -> StdDuration {
        self.tracking + self.staging + self.reconstruction + self.loading
    }

    /// Element-wise sum.
    #[must_use]
    pub fn combined(self, other: PhaseTimings) -> PhaseTimings {
        PhaseTimings {
            tracking: self.tracking + other.tracking,
            staging: self.staging + other.staging,
            reconstruction: self.reconstruction + other.reconstruction,
            loading: self.loading + other.loading,
            recognition: self.recognition + other.recognition,
        }
    }
}

/// What one window slide produced.
#[derive(Debug, Clone)]
pub struct SlideOutcome {
    /// Query time of the slide.
    pub query_time: Timestamp,
    /// Raw positions admitted.
    pub admitted: usize,
    /// Critical points detected in this slide.
    pub fresh_critical: usize,
    /// Delta points evicted to staging.
    pub evicted: usize,
    /// Trips completed by reconstruction in this slide.
    pub trips_completed: usize,
    /// Complex events recognized, when recognition ran this slide.
    pub recognition: Option<maritime_cer::RecognitionSummary>,
    /// Provenance chains for the recognized CEs, with AIS sentence ids
    /// attached to the input leaves. Non-empty only when the pipeline
    /// runs under [`TraceMode::Full`] and recognition ran this slide.
    pub chains: Vec<CeChain>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Per-shard tracking cost when the sharded backend ran this slide
    /// (one entry per shard, `tracking` field only); empty when serial.
    pub shard_timings: Vec<PhaseTimings>,
}

/// Aggregate report of a complete run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Window slides executed.
    pub slides: usize,
    /// Raw positions consumed.
    pub raw_positions: u64,
    /// Critical points produced.
    pub critical_points: u64,
    /// `1 − critical/raw`.
    pub compression_ratio: f64,
    /// Unique alert records pushed to authorities.
    pub alerts: usize,
    /// Total CE count across recognition queries.
    pub ce_total: usize,
    /// Final archive statistics (Table 4).
    pub archive: ArchiveStats,
    /// Summed phase timings across the run.
    pub timings: PhaseTimings,
}

/// The mobility-tracking backend: in-thread serial, or MMSI-sharded
/// across worker threads (equivalent output up to the interleaving of
/// independent vessels — see `maritime_tracker::sharded`).
enum TrackerBackend {
    Serial(WindowedTracker),
    Sharded(ShardedTracker),
}

impl TrackerBackend {
    fn slide(
        &mut self,
        query_time: Timestamp,
        batch: &[PositionTuple],
    ) -> (SlideReport, Vec<PhaseTimings>) {
        match self {
            Self::Serial(wt) => (wt.slide(query_time, batch), Vec::new()),
            Self::Sharded(st) => {
                let report = st.slide(query_time, batch);
                let shard_timings = report
                    .shard_elapsed
                    .iter()
                    .map(|elapsed| PhaseTimings {
                        tracking: *elapsed,
                        ..PhaseTimings::default()
                    })
                    .collect();
                (report.merged, shard_timings)
            }
        }
    }

    fn finish(&mut self) -> (Vec<CriticalPoint>, Vec<CriticalPoint>) {
        match self {
            Self::Serial(wt) => wt.finish(),
            Self::Sharded(st) => st.finish(),
        }
    }

    fn fleet_stats(&self) -> FleetStats {
        match self {
            Self::Serial(wt) => wt.tracker().stats(),
            Self::Sharded(st) => st.stats(),
        }
    }
}

/// Longitude extent for uniform recognition bands: the monitored areas'
/// centroid span, padded so border areas do not sit on a band boundary.
/// Falls back to the full longitude range when there is nothing to span.
fn band_extent(areas: &[Area]) -> (f64, f64) {
    let lons: Vec<f64> = areas.iter().map(|a| a.polygon.centroid().lon).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for lon in lons {
        lo = lo.min(lon);
        hi = hi.max(lon);
    }
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return (-180.0, 180.0);
    }
    let pad = (hi - lo) * 0.05;
    (lo - pad, hi + pad)
}

/// The assembled surveillance system.
pub struct SurveillancePipeline {
    config: SurveillanceConfig,
    tracker: TrackerBackend,
    /// One recognizer per longitude band (§5.2's processors); at one band
    /// it is the serial engine.
    recognizer: CoordinatedRecognizer,
    staging: StagingArea,
    reconstructor: TripReconstructor,
    store: TrajectoryStore,
    alert_log: AlertLog,
    origin: Timestamp,
    /// Admission-ordinal index of AIS sentences, kept only under
    /// [`TraceMode::Full`] so untraced runs pay nothing.
    sentences: Option<SentenceIndex>,
    /// Static vessel facts and monitored areas, retained so the knowledge
    /// bases can be rebuilt when a recognizer checkpoint is restored
    /// (static configuration is deliberately not serialized).
    vessel_infos: Vec<VesselInfo>,
    areas: Vec<Area>,
}

impl SurveillancePipeline {
    /// Builds the pipeline from a validated configuration, the fleet's
    /// static vessel facts, and the geographic areas.
    pub fn new(
        config: &SurveillanceConfig,
        vessels: Vec<VesselInfo>,
        areas: Vec<Area>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        // Global switch: every counter/gauge/histogram/span in the
        // workspace becomes a no-op under `MetricsMode::Off`.
        maritime_obs::set_enabled(config.metrics == MetricsMode::On);
        let tracker = if config.parallelism.tracker_shards > 1 {
            TrackerBackend::Sharded(ShardedTracker::new(
                config.tracker,
                config.tracking_window,
                config.parallelism.tracker_shards,
            ))
        } else {
            TrackerBackend::Serial(WindowedTracker::new(config.tracker, config.tracking_window))
        };
        let strategy = if config.incremental_recognition {
            EvalStrategy::Incremental
        } else {
            EvalStrategy::FromScratch
        };
        let (lon_min, lon_max) = band_extent(&areas);
        let mut recognizer = CoordinatedRecognizer::with_strategy(
            GeoPartitioner::uniform(config.parallelism.recognition_bands, lon_min, lon_max),
            &vessels,
            &areas,
            config.close_threshold_m,
            config.spatial_mode,
            config.recognition_window,
            strategy,
        );
        let sentences = if config.trace == TraceMode::Full {
            recognizer.set_provenance(true);
            Some(SentenceIndex::new())
        } else {
            None
        };
        Ok(Self {
            config: config.clone(),
            tracker,
            recognizer,
            staging: StagingArea::new(),
            reconstructor: TripReconstructor::new(&areas),
            store: TrajectoryStore::new(),
            alert_log: AlertLog::new(),
            origin: Timestamp::ZERO,
            sentences,
            vessel_infos: vessels,
            areas,
        })
    }

    /// The alert log accumulated so far.
    #[must_use]
    pub fn alerts(&self) -> &AlertLog {
        &self.alert_log
    }

    /// The trajectory archive.
    #[must_use]
    pub fn archive(&self) -> &TrajectoryStore {
        &self.store
    }

    /// The staging area.
    #[must_use]
    pub fn staging(&self) -> &StagingArea {
        &self.staging
    }

    /// Current Table 4 statistics.
    #[must_use]
    pub fn archive_stats(&self) -> ArchiveStats {
        ArchiveStats::compute(&self.store, &self.staging)
    }

    /// How recognition queries have been evaluated so far (checkpointed
    /// delta path vs. full recompute), summed across recognition bands;
    /// all zeros unless incremental recognition is configured. Lets tests
    /// assert that a scenario actually exercised — or fell back from —
    /// the incremental path (e.g. the chaos harness's late-arrival
    /// coverage check).
    #[must_use]
    pub fn incremental_stats(&self) -> maritime_rtec::IncrementalStats {
        self.recognizer.incremental_stats()
    }

    /// Vessels migrated between recognition bands so far; always zero
    /// at one band.
    #[must_use]
    pub fn partition_migrations(&self) -> u64 {
        self.recognizer.migrations()
    }

    /// Serializes the recognizer — every band engine plus, with several
    /// bands, the coordinator's vessel/routing state — into one framed
    /// checkpoint. Static configuration (vessel facts, areas) is not
    /// included; [`Self::restore_recognizer`] rebuilds it from the live
    /// pipeline, which must therefore be configured identically.
    #[must_use]
    pub fn checkpoint_recognizer(&self) -> Vec<u8> {
        self.recognizer.checkpoint()
    }

    /// Drops the current recognizer and replaces it with the state
    /// captured by [`Self::checkpoint_recognizer`]. Knowledge bases are
    /// rebuilt from this pipeline's configuration; a checkpoint whose
    /// band boundaries, recognition window, evaluation strategy, spatial
    /// mode or close threshold differ from this pipeline's is rejected as
    /// corruption and leaves the pipeline untouched. Provenance capture
    /// is re-armed when the pipeline traces.
    pub fn restore_recognizer(&mut self, bytes: &[u8]) -> Result<(), maritime_rtec::CkptError> {
        let restored = CoordinatedRecognizer::restore(&self.vessel_infos, &self.areas, bytes)?;
        if !restored.same_configuration(&self.recognizer) {
            return Err(maritime_rtec::CkptError::Corrupt(
                "checkpoint configuration does not match the pipeline",
            ));
        }
        self.recognizer = restored;
        if self.sentences.is_some() {
            self.recognizer.set_provenance(true);
        }
        Ok(())
    }

    /// Crash-and-restore one recognition band in place (the chaos
    /// harness's `KillPartition` fault): the band engine round-trips
    /// through the checkpoint codec with no recognition-visible effect.
    /// `band` is taken modulo the band count, so at one band the whole
    /// engine restarts.
    ///
    /// # Errors
    /// Propagates [`maritime_rtec::CkptError`] if the serialized engine
    /// fails to decode — a checkpoint-format bug, not bad input.
    pub fn kill_partition(&mut self, band: u32) -> Result<(), maritime_rtec::CkptError> {
        self.recognizer.kill_band(band)?;
        if self.sentences.is_some() {
            self.recognizer.set_provenance(true);
        }
        Ok(())
    }

    /// Executes one window slide over a time-ordered positional batch
    /// (timestamps ≤ `query_time`).
    pub fn slide(&mut self, query_time: Timestamp, batch: &[PositionTuple]) -> SlideOutcome {
        let slide_span = SpanTimer::stage("slide", OBS_SLIDE_NS.get_ref());
        let mut timings = PhaseTimings::default();

        // Under tracing, assign each admitted tuple its sentence id (the
        // admission ordinal) before tracking consumes the batch.
        if let Some(index) = &mut self.sentences {
            index.index_batch(batch);
        }

        // Phase 1: online tracking (fanned out per shard when sharded;
        // `tracking` then measures the fan-out/merge wall time and
        // `shard_timings` the per-worker cost).
        let span = SpanTimer::stage("track", OBS_TRACKING_NS.get_ref());
        let (report, shard_timings) = self.tracker.slide(query_time, batch);
        timings.tracking = span.stop();

        // Feed fresh critical points to the recognizer (with spatial facts
        // attached when running in precomputed mode).
        self.recognizer
            .add_events(InputEvent::from_critical_batch(&report.fresh_critical));

        // Phase 2: staging of evicted deltas.
        let span = SpanTimer::stage("stage", OBS_STAGING_NS.get_ref());
        self.staging.stage_batch(&report.evicted_delta);
        timings.staging = span.stop();

        // Phase 3: trip reconstruction.
        let span = SpanTimer::stage("reconstruct", OBS_RECONSTRUCTION_NS.get_ref());
        let trips = self.reconstructor.reconstruct(&mut self.staging);
        timings.reconstruction = span.stop();
        let trips_completed = trips.len();

        // Phase 4: archive loading.
        let span = SpanTimer::stage("load", OBS_LOADING_NS.get_ref());
        self.store.load(trips);
        timings.loading = span.stop();

        // Complex event recognition on its own cadence.
        let rec_slide = self.config.recognition_window.slide.as_secs();
        let due = (query_time.as_secs() - self.origin.as_secs()) % rec_slide == 0;
        let (recognition, chains) = if due {
            let (summary, chains, elapsed) = self.run_recognition(query_time);
            timings.recognition = elapsed;
            (Some(summary), chains)
        } else {
            (None, Vec::new())
        };

        flight::record(FlightKind::WindowSlide, || {
            format!(
                "q={} admitted={} fresh={} evicted={} recognized={}",
                query_time.as_secs(),
                report.admitted,
                report.fresh_critical.len(),
                report.evicted_delta.len(),
                recognition.is_some(),
            )
        });
        OBS_SLIDES.inc();
        slide_span.finish();
        SlideOutcome {
            query_time,
            admitted: report.admitted,
            fresh_critical: report.fresh_critical.len(),
            evicted: report.evicted_delta.len(),
            trips_completed,
            recognition,
            chains,
            timings,
            shard_timings,
        }
    }

    /// One recognition query: measures it as the `recognize` stage,
    /// collects provenance chains when tracing, enforces the soft
    /// deadline, and logs the resulting alerts.
    fn run_recognition(
        &mut self,
        q: Timestamp,
    ) -> (maritime_cer::RecognitionSummary, Vec<CeChain>, StdDuration) {
        let span = SpanTimer::stage("recognize", OBS_RECOGNITION_NS.get_ref());
        let summary = self.recognizer.recognize_and_summarize(q);
        let elapsed = span.stop();

        let chains = match &self.sentences {
            Some(index) => {
                let mut chains = self.recognizer.take_chains();
                for chain in &mut chains {
                    index.attach(chain);
                }
                chains
            }
            None => Vec::new(),
        };

        if let Some(deadline_ms) = self.config.recognition_deadline_ms {
            if elapsed.as_millis() as u64 > deadline_ms {
                OBS_DEADLINE_OVERRUNS.inc();
                flight::record(FlightKind::RecognitionOverrun, || {
                    format!(
                        "q={} took_ms={} deadline_ms={} ces={}",
                        q.as_secs(),
                        elapsed.as_millis(),
                        deadline_ms,
                        summary.ce_count,
                    )
                });
                flight::trigger_dump("recognition-overrun");
            }
        }

        self.log_alerts(&summary);
        (summary, chains, elapsed)
    }

    /// Runs the pipeline over a complete, time-ordered tuple stream,
    /// slicing it into per-slide batches and flushing at the end.
    pub fn run(&mut self, stream: impl IntoIterator<Item = PositionTuple>) -> RunReport {
        self.run_with_observer(stream, |_| {})
    }

    /// [`Self::run`], invoking `observer` after every slide (including the
    /// final flush). Lets callers watch a live run — e.g. the `surveil`
    /// binary's periodic metrics output — without re-implementing the
    /// batching loop.
    pub fn run_with_observer(
        &mut self,
        stream: impl IntoIterator<Item = PositionTuple>,
        mut observer: impl FnMut(&SlideOutcome),
    ) -> RunReport {
        let keyed = stream.into_iter().map(|t| (t.timestamp, t));
        let batches = SlideBatches::new(keyed, self.config.tracking_window, self.origin);
        let mut slides = 0usize;
        let mut ce_total = 0usize;
        let mut timings = PhaseTimings::default();
        let mut last_q = self.origin;
        for batch in batches {
            let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
            let outcome = self.slide(batch.query_time, &tuples);
            slides += 1;
            ce_total += outcome.recognition.as_ref().map_or(0, |s| s.ce_count);
            timings = timings.combined(outcome.timings);
            last_q = batch.query_time;
            observer(&outcome);
        }
        let final_outcome = self.finish(last_q);
        observer(&final_outcome);
        ce_total += final_outcome.recognition.as_ref().map_or(0, |s| s.ce_count);
        timings = timings.combined(final_outcome.timings);

        let stats = self.tracker.fleet_stats();
        RunReport {
            slides,
            raw_positions: stats.raw,
            critical_points: stats.critical,
            compression_ratio: stats.compression_ratio(),
            alerts: self.alert_log.len(),
            ce_total,
            archive: self.archive_stats(),
            timings,
        }
    }

    /// Ends the stream: flushes open durative states, stages the residual
    /// window contents, reconstructs and loads the remaining trips, and
    /// runs one final recognition pass.
    pub fn finish(&mut self, at: Timestamp) -> SlideOutcome {
        let mut timings = PhaseTimings::default();

        let t0 = Instant::now();
        let (final_cps, remaining) = self.tracker.finish();
        timings.tracking = t0.elapsed();

        self.recognizer
            .add_events(InputEvent::from_critical_batch(&final_cps));

        let t1 = Instant::now();
        self.staging.stage_batch(&remaining);
        timings.staging = t1.elapsed();

        let t2 = Instant::now();
        let trips = self.reconstructor.reconstruct(&mut self.staging);
        timings.reconstruction = t2.elapsed();
        let trips_completed = trips.len();

        let t3 = Instant::now();
        self.store.load(trips);
        timings.loading = t3.elapsed();

        let (summary, chains, elapsed) = self.run_recognition(at);
        timings.recognition = elapsed;

        SlideOutcome {
            query_time: at,
            admitted: 0,
            fresh_critical: final_cps.len(),
            evicted: remaining.len(),
            trips_completed,
            recognition: Some(summary),
            chains,
            timings,
            shard_timings: Vec::new(),
        }
    }

    fn log_alerts(&mut self, summary: &maritime_cer::RecognitionSummary) {
        for (at, alert) in &summary.alerts {
            self.alert_log.push(AlertRecord::Instant {
                at: *at,
                alert: *alert,
            });
        }
        for (name, entries) in [
            ("suspicious", &summary.suspicious),
            ("illegalFishing", &summary.illegal_fishing),
        ] {
            for (area, intervals) in entries {
                for iv in intervals.intervals() {
                    self.alert_log.push(AlertRecord::CeStarted {
                        at: iv.since,
                        name,
                        area: *area,
                    });
                    if let Some(until) = iv.until {
                        self.alert_log.push(AlertRecord::CeEnded {
                            at: until,
                            name,
                            area: *area,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_ais::{FleetConfig, FleetSimulator};
    use maritime_cer::SpatialMode;
    use maritime_geo::aegean::{generate_areas, AreaGenConfig};

    fn run_tiny(seed: u64, mode: SpatialMode) -> (RunReport, usize) {
        let sim = FleetSimulator::new(FleetConfig::tiny(seed));
        let areas = generate_areas(&AreaGenConfig::default());
        let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
        let config = SurveillanceConfig {
            spatial_mode: mode,
            ..SurveillanceConfig::default()
        };
        let mut pipeline = SurveillancePipeline::new(&config, vessels, areas).unwrap();
        let report = pipeline.run(sim.generate().into_iter().map(PositionTuple::from));
        let alerts = pipeline.alerts().len();
        (report, alerts)
    }

    #[test]
    fn end_to_end_run_produces_consistent_report() {
        let (report, alerts) = run_tiny(5, SpatialMode::OnDemand);
        assert!(report.slides > 0);
        assert!(report.raw_positions > 1_000);
        assert!(report.critical_points > 0);
        assert!(
            report.compression_ratio > 0.6,
            "ratio {}",
            report.compression_ratio
        );
        assert_eq!(report.alerts, alerts);
        // Conservation: archived + staged = critical points that left the
        // window plus the residue (all critical points end up somewhere).
        let accounted =
            report.archive.points_in_trajectories + report.archive.points_in_staging;
        assert_eq!(accounted as u64, report.critical_points);
    }

    #[test]
    fn spatial_modes_recognize_equivalently() {
        let (on_demand, a1) = run_tiny(6, SpatialMode::OnDemand);
        let (precomputed, a2) = run_tiny(6, SpatialMode::Precomputed);
        assert_eq!(on_demand.raw_positions, precomputed.raw_positions);
        assert_eq!(on_demand.critical_points, precomputed.critical_points);
        assert_eq!(a1, a2, "alert sets must match across spatial modes");
    }

    #[test]
    fn archive_fills_with_trips_on_longer_runs() {
        let sim = FleetSimulator::new(FleetConfig {
            vessels: 20,
            duration: maritime_stream::Duration::hours(24),
            ..FleetConfig::tiny(7)
        });
        let areas = generate_areas(&AreaGenConfig::default());
        let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
        let mut pipeline =
            SurveillancePipeline::new(&SurveillanceConfig::default(), vessels, areas).unwrap();
        let report = pipeline.run(sim.generate().into_iter().map(PositionTuple::from));
        assert!(
            report.archive.trips > 0,
            "24h of 20 vessels should complete port-to-port trips: {:?}",
            report.archive
        );
    }

    #[test]
    fn sharded_backend_matches_serial_run_report() {
        let sim = FleetSimulator::new(FleetConfig::tiny(9));
        let areas = generate_areas(&AreaGenConfig::default());
        let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
        let run = |shards: usize| {
            let config = SurveillanceConfig {
                parallelism: crate::config::Parallelism {
                    tracker_shards: shards,
                    recognition_bands: 1,
                },
                ..SurveillanceConfig::default()
            };
            let mut pipeline =
                SurveillancePipeline::new(&config, vessels.clone(), areas.clone()).unwrap();
            let report = pipeline.run(sim.generate().into_iter().map(PositionTuple::from));
            let alerts: Vec<String> =
                pipeline.alerts().records().iter().map(|r| r.render()).collect();
            (report, alerts)
        };
        let (serial, serial_alerts) = run(1);
        let (sharded, sharded_alerts) = run(4);
        assert_eq!(serial.raw_positions, sharded.raw_positions);
        assert_eq!(serial.critical_points, sharded.critical_points);
        assert_eq!(serial.slides, sharded.slides);
        assert_eq!(serial.ce_total, sharded.ce_total);
        assert_eq!(serial_alerts, sharded_alerts);
        let accounted =
            sharded.archive.points_in_trajectories + sharded.archive.points_in_staging;
        assert_eq!(accounted as u64, sharded.critical_points);
    }

    #[test]
    fn sharded_slides_report_per_shard_timings() {
        let sim = FleetSimulator::new(FleetConfig::tiny(10));
        let areas = generate_areas(&AreaGenConfig::default());
        let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
        let config = SurveillanceConfig {
            parallelism: crate::config::Parallelism {
                tracker_shards: 3,
                recognition_bands: 2,
            },
            ..SurveillanceConfig::default()
        };
        let mut pipeline = SurveillancePipeline::new(&config, vessels, areas).unwrap();
        let stream: Vec<PositionTuple> =
            sim.generate().into_iter().map(PositionTuple::from).collect();
        let batches = SlideBatches::new(
            stream.into_iter().map(|t| (t.timestamp, t)),
            config.tracking_window,
            Timestamp::ZERO,
        );
        let mut saw_slide = false;
        for batch in batches {
            let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
            let outcome = pipeline.slide(batch.query_time, &tuples);
            assert_eq!(outcome.shard_timings.len(), 3);
            saw_slide = true;
        }
        assert!(saw_slide);
    }

    #[test]
    fn traced_run_yields_chains_with_resolvable_sentence_ids() {
        let sim = FleetSimulator::new(FleetConfig::tiny(77));
        let areas = generate_areas(&AreaGenConfig::default());
        let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
        let stream: Vec<PositionTuple> =
            sim.generate().into_iter().map(PositionTuple::from).collect();

        let run = |trace: crate::config::TraceMode| {
            let config = SurveillanceConfig {
                trace,
                ..SurveillanceConfig::default()
            };
            let mut pipeline =
                SurveillancePipeline::new(&config, vessels.clone(), areas.clone()).unwrap();
            let mut log = crate::trace::TraceLog::new();
            let report = pipeline
                .run_with_observer(stream.iter().copied(), |o| log.record(o.chains.clone()));
            let alerts: Vec<String> =
                pipeline.alerts().records().iter().map(|r| r.render()).collect();
            (report, alerts, log)
        };

        let (traced, traced_alerts, log) = run(crate::config::TraceMode::Full);
        let (plain, plain_alerts, empty_log) = run(crate::config::TraceMode::Off);

        // Tracing must not change what is recognized.
        assert_eq!(traced.ce_total, plain.ce_total);
        assert_eq!(traced_alerts, plain_alerts);
        assert!(empty_log.is_empty(), "untraced run must produce no chains");

        // This fleet produces CEs, and every CE gets a chain whose input
        // leaves cite sentence ids inside the admitted stream.
        assert!(traced.ce_total > 0, "seed no longer produces CEs");
        assert!(!log.is_empty());
        let n = stream.len() as u64;
        for chain in log.chains() {
            let id_label = chain.id.clone();
            let mut chain = chain.clone();
            maritime_cer::visit_input_leaves(&mut chain, &mut |leaf| {
                for &id in &leaf.sentences {
                    assert!(id < n, "sentence id {id} out of range in {id_label}");
                }
            });
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = SurveillanceConfig {
            close_threshold_m: -1.0,
            ..SurveillanceConfig::default()
        };
        assert!(SurveillancePipeline::new(&bad, Vec::new(), Vec::new()).is_err());
    }
}
