//! Chaos harness: runs perturbed sentence streams through the full
//! pipeline under every engine configuration and applies the metamorphic
//! oracles from `maritime-chaos`.
//!
//! The crate split keeps dependencies one-directional: `maritime-chaos`
//! knows how to perturb streams and compare [`CeObservation`]s but
//! nothing about pipelines; this module knows how to turn a sentence
//! stream into an observation. A chaos run is
//!
//! ```text
//! demo_sentences → ChaosPlan::apply → AdmissionBuffer → DataScanner
//!                → SurveillancePipeline (per engine) → CeObservation
//! ```
//!
//! and the oracle helpers ([`ChaosHarness::check_plan`] and friends) are
//! shared verbatim by the `surveil chaos` subcommand and the root-level
//! `chaos_*` integration tests, so a plan minimized in CI replays under
//! exactly the machinery the tests exercise.

use std::collections::BTreeSet;

use maritime_ais::{DataScanner, PositionTuple, ScanStats};
use maritime_cer::VesselInfo;
use maritime_chaos::oracle::{check_agreement, check_identical, check_vessel_projection};
use maritime_chaos::socket::{SocketPlan, SourcedLine};
use maritime_chaos::{
    demo_sentences, sourced_demo_sentences, CeObservation, ChaosPlan, OracleViolation, StreamLine,
};
use maritime_geo::aegean::{generate_areas, AreaGenConfig};
use maritime_geo::Area;
use maritime_rtec::IncrementalStats;
use maritime_stream::{
    AdmissionBuffer, AdmissionStats, Duration, SlideBatches, SourceId, SourceMux, SourceVerdict,
    Timestamp, WindowSpec,
};

use crate::config::{SurveillanceConfig, TraceMode};
use crate::pipeline::SurveillancePipeline;

/// The engine configurations the cross-engine agreement oracle compares.
/// All four must produce byte-identical [`CeObservation`]s on *any*
/// stream, perturbed or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEngine {
    /// Single-threaded tracker, from-scratch recognition.
    Serial,
    /// Sharded parallel tracker (4 shards).
    Sharded,
    /// Checkpointed incremental recognition.
    Incremental,
    /// Full provenance capture ([`TraceMode::Full`]).
    Traced,
}

impl ChaosEngine {
    /// Every engine configuration, in comparison order.
    pub const ALL: [ChaosEngine; 4] = [
        ChaosEngine::Serial,
        ChaosEngine::Sharded,
        ChaosEngine::Incremental,
        ChaosEngine::Traced,
    ];

    /// Stable label used in oracle violations and CI artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChaosEngine::Serial => "serial",
            ChaosEngine::Sharded => "sharded",
            ChaosEngine::Incremental => "incremental",
            ChaosEngine::Traced => "traced",
        }
    }

    fn configure(self, config: &mut SurveillanceConfig) {
        match self {
            ChaosEngine::Serial => {}
            ChaosEngine::Sharded => config.parallelism.tracker_shards = 4,
            ChaosEngine::Incremental => config.incremental_recognition = true,
            ChaosEngine::Traced => config.trace = TraceMode::Full,
        }
    }
}

/// Everything one engine produced from one (possibly perturbed) stream.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Recognized complex events, canonically rendered.
    pub observation: CeObservation,
    /// Decode-layer accounting (includes `fragments_truncated`).
    pub scan: ScanStats,
    /// Admission-layer accounting (includes strictly-late arrivals).
    pub admission: AdmissionStats,
    /// Incremental-evaluation accounting; the late-arrival coverage test
    /// asserts `full` grows when late events force a window recompute.
    pub incremental: IncrementalStats,
}

/// A self-contained chaos world: a deterministic fleet, its areas, and
/// the pipeline/window parameters every engine run shares.
#[derive(Debug, Clone)]
pub struct ChaosHarness {
    /// Fleet seed (also the default stream seed).
    pub seed: u64,
    /// Fleet size.
    pub vessels: usize,
    /// Simulated stream duration, hours.
    pub hours: i64,
    /// Admission-buffer skew bound, seconds. Reorders within this bound
    /// must be invisible ([`ChaosPlan::equivalence`] generates exactly
    /// such plans).
    pub admission_skew_secs: i64,
    /// Recognition bands (1 = single recognizer). The late-arrival
    /// coverage test raises this to check per-band fallback accounting.
    pub recognition_bands: usize,
    /// Cross-source duplicate-suppression window for sourced (socket)
    /// runs, seconds — mirrors `surveil serve --dedup-secs`. Zero
    /// disables; the plain single-source runner never dedups.
    pub dedup_window_secs: i64,
}

impl Default for ChaosHarness {
    fn default() -> Self {
        Self {
            // 40 rogue vessels over 12 hours: small enough that one
            // engine run takes ~0.1 s, large enough that the clean run
            // recognizes both durative CEs and instantaneous alerts —
            // the oracles are meaningless on a stream that recognizes
            // nothing.
            seed: 0xC4A05,
            vessels: 40,
            hours: 12,
            admission_skew_secs: 120,
            recognition_bands: 1,
            dedup_window_secs: 10,
        }
    }
}

impl ChaosHarness {
    /// A harness with the default world but a caller-chosen seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The deterministic baseline stream and the fleet's static facts.
    #[must_use]
    pub fn baseline(&self) -> (Vec<StreamLine>, Vec<VesselInfo>) {
        demo_sentences(self.seed, self.vessels, self.hours)
    }

    fn areas(&self) -> Vec<Area> {
        generate_areas(&AreaGenConfig::default())
    }

    /// The shared pipeline configuration: windows fast enough that a
    /// five-hour stream crosses several recognition boundaries, slides
    /// aligned per [`SurveillanceConfig::validate`].
    #[must_use]
    pub fn config(&self, engine: ChaosEngine) -> SurveillanceConfig {
        let mut config = SurveillanceConfig {
            tracking_window: WindowSpec::new(Duration::minutes(30), Duration::minutes(5))
                .expect("valid chaos tracking window"),
            recognition_window: WindowSpec::new(Duration::hours(2), Duration::minutes(30))
                .expect("valid chaos recognition window"),
            ..SurveillanceConfig::default()
        };
        config.parallelism.recognition_bands = self.recognition_bands;
        engine.configure(&mut config);
        config
    }

    /// Runs one sentence stream through one engine: admission reordering
    /// repair, decode, tracking, recognition. Scanner truncation and
    /// admission lateness are reported alongside the observation so tests
    /// can assert the fault actually reached the layer under test.
    ///
    /// # Panics
    /// If the pipeline configuration fails validation (a harness bug, not
    /// an input property).
    #[must_use]
    pub fn run(&self, lines: &[StreamLine], vessels: &[VesselInfo], engine: ChaosEngine) -> EngineRun {
        self.run_with_kills(lines, vessels, engine, &[])
    }

    /// [`Self::run`] under a crash schedule: before the first slide whose
    /// query time reaches each `(at_secs, band)`, the recognition band is
    /// checkpointed, dropped, and rebuilt from its own bytes in place
    /// ([`SurveillancePipeline::kill_partition`]). `KillPartition` is a
    /// *process* fault, not a stream perturbation — the stream passes
    /// through untouched and the harness interprets the schedule here, so
    /// the equivalence oracle directly proves crash/restore invisibility.
    /// Kills scheduled past the last slide fire before the final flush.
    ///
    /// # Panics
    /// If the pipeline configuration fails validation, or a kill's
    /// checkpoint round-trip fails to decode (a format bug, not an input
    /// property — the oracle suite must fail loudly on it).
    #[must_use]
    pub fn run_with_kills(
        &self,
        lines: &[StreamLine],
        vessels: &[VesselInfo],
        engine: ChaosEngine,
        kills: &[(i64, u32)],
    ) -> EngineRun {
        let config = self.config(engine);
        let mut pipeline = SurveillancePipeline::new(&config, vessels.to_vec(), self.areas())
            .expect("chaos harness config must validate");

        let mut admission: AdmissionBuffer<String> =
            AdmissionBuffer::new(Duration::secs(self.admission_skew_secs));
        let mut scanner = DataScanner::new();
        let mut tuples: Vec<PositionTuple> = Vec::new();
        let scan_admitted = |scanner: &mut DataScanner,
                             tuples: &mut Vec<PositionTuple>,
                             batch: Vec<(Timestamp, String)>| {
            for (t, line) in batch {
                if let Some(tuple) = scanner.scan(&line, t) {
                    tuples.push(tuple);
                }
            }
        };
        let mut last_t = Timestamp::ZERO;
        for (t, line) in lines {
            let t = Timestamp(*t);
            last_t = last_t.max(t);
            let released = admission.push(t, line.clone());
            scan_admitted(&mut scanner, &mut tuples, released);
        }
        scan_admitted(&mut scanner, &mut tuples, admission.flush());
        scanner.finish(last_t);

        let mut schedule: Vec<(i64, u32)> = kills.to_vec();
        schedule.sort_unstable();
        let mut next_kill = 0usize;
        let mut kill_due = |pipeline: &mut SurveillancePipeline, up_to: Option<i64>| {
            while next_kill < schedule.len()
                && up_to.is_none_or(|q| schedule[next_kill].0 <= q)
            {
                pipeline
                    .kill_partition(schedule[next_kill].1)
                    .expect("kill/restore checkpoint round-trip must decode");
                next_kill += 1;
            }
        };

        // Mirrors `SurveillancePipeline::run_with_observer` (same batcher,
        // same origin, same final flush) with kills interleaved between
        // slides — a crash can only land on a consistent state boundary,
        // which is exactly where a real checkpoint would be taken.
        let mut observation = CeObservation::new();
        let keyed = tuples.into_iter().map(|t| (t.timestamp, t));
        let batches = SlideBatches::new(keyed, config.tracking_window, Timestamp::ZERO);
        let mut last_q = Timestamp::ZERO;
        for batch in batches {
            kill_due(&mut pipeline, Some(batch.query_time.as_secs()));
            let batch_tuples: Vec<PositionTuple> =
                batch.items.into_iter().map(|(_, t)| t).collect();
            let outcome = pipeline.slide(batch.query_time, &batch_tuples);
            if let Some(summary) = &outcome.recognition {
                observation.record_summary(summary);
            }
            last_q = batch.query_time;
        }
        kill_due(&mut pipeline, None);
        let final_outcome = pipeline.finish(last_q);
        if let Some(summary) = &final_outcome.recognition {
            observation.record_summary(summary);
        }
        EngineRun {
            observation,
            scan: scanner.stats(),
            admission: admission.stats(),
            incremental: pipeline.incremental_stats(),
        }
    }

    /// The deterministic baseline stream observed through `n_sources`
    /// sockets (vessels distributed round-robin), plus the fleet facts
    /// and each source's MMSI set — the world socket plans perturb.
    #[must_use]
    pub fn sourced_baseline(
        &self,
        n_sources: u32,
    ) -> (Vec<SourcedLine>, Vec<VesselInfo>, Vec<BTreeSet<u32>>) {
        sourced_demo_sentences(self.seed, self.vessels, self.hours, n_sources)
    }

    /// Runs one *sourced* stream through one engine, mirroring the
    /// `surveil serve` data path exactly: per-source syntactic filtering
    /// and cross-source dedup ([`SourceMux`]), admission reordering repair
    /// over `(line, connection)` pairs, and per-connection defragmenter
    /// keying ([`DataScanner::scan_from`]). The batch runner and the live
    /// server must recognize identically — this is the harness half of
    /// that contract (the server half is the end-to-end serve test).
    ///
    /// # Panics
    /// If the pipeline configuration fails validation (a harness bug, not
    /// an input property).
    #[must_use]
    pub fn run_sourced(
        &self,
        lines: &[SourcedLine],
        vessels: &[VesselInfo],
        engine: ChaosEngine,
    ) -> EngineRun {
        let config = self.config(engine);
        let mut pipeline = SurveillancePipeline::new(&config, vessels.to_vec(), self.areas())
            .expect("chaos harness config must validate");

        let mut mux = SourceMux::new(Duration::secs(self.dedup_window_secs));
        let mut admission: AdmissionBuffer<(String, u32)> =
            AdmissionBuffer::new(Duration::secs(self.admission_skew_secs));
        let mut scanner = DataScanner::new();
        let mut tuples: Vec<PositionTuple> = Vec::new();
        let scan_admitted = |scanner: &mut DataScanner,
                             tuples: &mut Vec<PositionTuple>,
                             batch: Vec<(Timestamp, (String, u32))>| {
            for (t, (line, conn)) in batch {
                if let Some(tuple) = scanner.scan_from(conn, &line, t) {
                    tuples.push(tuple);
                }
            }
        };
        let mut last_t = Timestamp::ZERO;
        for (conn, t, line) in lines {
            let t = Timestamp(*t);
            if mux.admit(SourceId(*conn), t, line) != SourceVerdict::Accepted {
                continue;
            }
            last_t = last_t.max(t);
            let released = admission.push(t, (line.clone(), *conn));
            scan_admitted(&mut scanner, &mut tuples, released);
        }
        scan_admitted(&mut scanner, &mut tuples, admission.flush());
        scanner.finish(last_t);

        let mut observation = CeObservation::new();
        pipeline.run_with_observer(tuples, |outcome| {
            if let Some(summary) = &outcome.recognition {
                observation.record_summary(summary);
            }
        });
        EngineRun {
            observation,
            scan: scanner.stats(),
            admission: admission.stats(),
            incremental: pipeline.incremental_stats(),
        }
    }

    /// Applies every oracle a socket plan is eligible for, over the
    /// `n_sources`-socket world:
    ///
    /// * **equivalence** when every op is CE-preserving (reconnect storms,
    ///   bounded reorders) — the sourced run must match the plain
    ///   single-source baseline byte for byte;
    /// * **vessel projection** when the plan silences whole sources from
    ///   their first line — exactly those sources' vessels may disappear,
    ///   nothing may appear;
    /// * **cross-engine agreement** always — all four engines must degrade
    ///   identically through socket faults.
    ///
    /// # Errors
    /// The first violation found.
    pub fn check_socket_plan(
        &self,
        plan: &SocketPlan,
        n_sources: u32,
    ) -> Result<(), OracleViolation> {
        let (sourced, vessels, mmsis) = self.sourced_baseline(n_sources);
        let (perturbed, _) = plan.apply(&sourced);
        if plan.preserves_ces(self.admission_skew_secs) {
            let (plain, _) = self.baseline();
            let base = self.run(&plain, &vessels, ChaosEngine::Serial);
            let got = self.run_sourced(&perturbed, &vessels, ChaosEngine::Serial);
            check_identical("socket-equivalence", &base.observation, &got.observation)?;
        }
        let silenced = plan.silenced_sources();
        if !silenced.is_empty() {
            let dropped: BTreeSet<u32> = silenced
                .iter()
                .filter_map(|s| mmsis.get(*s as usize - 1))
                .flatten()
                .copied()
                .collect();
            let base = self.run_sourced(&sourced, &vessels, ChaosEngine::Serial);
            let got = self.run_sourced(&perturbed, &vessels, ChaosEngine::Serial);
            check_vessel_projection(&base.observation, &got.observation, &dropped)?;
        }
        let runs: Vec<(&'static str, EngineRun)> = ChaosEngine::ALL
            .iter()
            .map(|&e| (e.label(), self.run_sourced(&perturbed, &vessels, e)))
            .collect();
        let labelled: Vec<(&'static str, &CeObservation)> =
            runs.iter().map(|(l, r)| (*l, &r.observation)).collect();
        check_agreement(&labelled)
    }

    /// Oracle 1 & 2 — duplicate-idempotence / bounded-reorder
    /// equivalence: a CE-preserving plan (every op passes
    /// [`maritime_chaos::ChaosOp::preserves_ces`]) must leave the serial
    /// engine's observation byte-identical. `KillPartition` ops are
    /// interpreted as a crash schedule on the perturbed run only — the
    /// clean baseline never crashes, so the comparison proves the
    /// crash/restore cycle is recognition-invisible.
    ///
    /// # Errors
    /// The violation, when the perturbed observation differs.
    pub fn check_equivalence_plan(&self, plan: &ChaosPlan) -> Result<(), OracleViolation> {
        let (lines, vessels) = self.baseline();
        let base = self.run(&lines, &vessels, ChaosEngine::Serial);
        let (perturbed, _) = plan.apply(&lines);
        let got = self.run_with_kills(
            &perturbed,
            &vessels,
            ChaosEngine::Serial,
            &kill_schedule(plan),
        );
        check_identical(
            "stream-equivalence",
            &base.observation,
            &got.observation,
        )
    }

    /// Oracle 4 — cross-engine agreement: all four engines must agree on
    /// the plan's perturbed stream. Returns each engine's run (label,
    /// run) so callers can additionally inspect scan/admission stats.
    ///
    /// # Errors
    /// The violation naming the first disagreeing engine.
    pub fn check_agreement_plan(
        &self,
        plan: &ChaosPlan,
    ) -> Result<Vec<(&'static str, EngineRun)>, OracleViolation> {
        let (lines, vessels) = self.baseline();
        let (perturbed, _) = plan.apply(&lines);
        let kills = kill_schedule(plan);
        let runs: Vec<(&'static str, EngineRun)> = ChaosEngine::ALL
            .iter()
            .map(|&e| (e.label(), self.run_with_kills(&perturbed, &vessels, e, &kills)))
            .collect();
        let labelled: Vec<(&'static str, &CeObservation)> =
            runs.iter().map(|(l, r)| (*l, &r.observation)).collect();
        check_agreement(&labelled)?;
        Ok(runs)
    }

    /// Oracle 3 — gap-monotonicity: silencing vessels (a
    /// [`maritime_chaos::ChaosOp::DropVessels`] plan) never *creates* CE
    /// evidence — surviving vessels' alerts are exact, durative intervals
    /// only shrink.
    ///
    /// # Errors
    /// The violation, when dropping positions created or grew a CE.
    pub fn check_monotonicity_plan(&self, plan: &ChaosPlan) -> Result<(), OracleViolation> {
        let (lines, vessels) = self.baseline();
        let base = self.run(&lines, &vessels, ChaosEngine::Serial);
        let (thinned, stats) = plan.apply(&lines);
        let got = self.run(&thinned, &vessels, ChaosEngine::Serial);
        check_vessel_projection(&base.observation, &got.observation, &stats.dropped_vessels)
    }

    /// Applies every oracle the plan is eligible for: equivalence when
    /// all ops are CE-preserving, vessel projection when the plan drops
    /// vessels, and cross-engine agreement always. This is the predicate
    /// the shrinker minimizes against.
    ///
    /// # Errors
    /// The first violation found.
    pub fn check_plan(&self, plan: &ChaosPlan) -> Result<(), OracleViolation> {
        if plan
            .ops
            .iter()
            .all(|op| op.preserves_ces(self.admission_skew_secs))
        {
            self.check_equivalence_plan(plan)?;
        }
        if plan
            .ops
            .iter()
            .any(|op| matches!(op, maritime_chaos::ChaosOp::DropVessels { .. }))
        {
            self.check_monotonicity_plan(plan)?;
        }
        self.check_agreement_plan(plan).map(|_| ())
    }
}

/// The crash schedule a plan encodes: every
/// [`maritime_chaos::ChaosOp::KillPartition`] op as `(at_secs, band)`,
/// sorted by crash time. The op's stream perturbation is the identity;
/// [`ChaosHarness::run_with_kills`] interprets the schedule instead.
#[must_use]
pub fn kill_schedule(plan: &ChaosPlan) -> Vec<(i64, u32)> {
    let mut kills: Vec<(i64, u32)> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            maritime_chaos::ChaosOp::KillPartition { at_secs, band } => Some((*at_secs, *band)),
            _ => None,
        })
        .collect();
    kills.sort_unstable();
    kills
}
