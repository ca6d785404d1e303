//! The traced run: the serve data path composed in process from each
//! layer's public entry point, with a span around every call.
//!
//! ```text
//! SourceMux::admit → AdmissionBuffer::push/flush → DataScanner::scan_from
//!   → LiveBatcher::push → WindowedTracker::slide
//!   → StagingArea / TripReconstructor / TrajectoryStore
//!   → {Maritime,Coordinated}Recognizer add_events + recognize_and_summarize
//!   → WireEncoder::encode_outcome → BroadcastHub::broadcast
//! ```
//!
//! The composition mirrors `LiveIngest` and `SurveillancePipeline::slide`
//! step for step, and its wire output must equal the untraced output
//! byte for byte — a divergence fails the run. Spans nest: a layer's
//! *self* time excludes the spans it encloses (the batcher's push encloses
//! the slide it triggers), so the self times add up to the traced wall
//! time less the loop's own bookkeeping (`trace.unaccounted_pct`).
//!
//! Two side passes complete the picture: a `LiveIngest` replay that
//! checkpoints after every query (`LiveIngest::checkpoint`, as the
//! server's driver does under `--checkpoint-dir`), and the same
//! critical-movement event stream fed to one serial engine
//! (`cer.bands1_query_ms_p50`, the single-threaded baseline). Spans stay
//! in memory and are written at the end as a Chrome-trace JSON file
//! that Perfetto loads.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use maritime::serve::hub::EventReceiver;
use maritime::serve::{BroadcastHub, LiveBatcher};
use maritime::{SlideOutcome, WireEncoder};
use maritime_ais::{DataScanner, PositionTuple};
use maritime_cer::{
    CoordinatedRecognizer, EvalStrategy, GeoPartitioner, InputEvent, Knowledge, MaritimeRecognizer,
    RecognitionSummary, SpatialMode,
};
use maritime_chaos::StreamLine;
use maritime_geo::Area;
use maritime_modstore::{StagingArea, TrajectoryStore, TripReconstructor};
use maritime_obs::chrome::{self, TimelineSpan};
use maritime_stream::{AdmissionBuffer, SourceId, SourceMux, SourceVerdict, Timestamp};
use maritime_tracker::WindowedTracker;

use crate::reference::{PathSetup, Replay, SOURCE};
use crate::stats;
use crate::workloads::Workload;

/// Spans kept for the timeline file; per-line calls shorter than
/// [`LINE_SPAN_MIN_US`] are counted but not drawn.
const MAX_SPANS: usize = 200_000;
const LINE_SPAN_MIN_US: u64 = 100;

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Mux,
    Admission,
    Scan,
    Batcher,
    Tracker,
    Modstore,
    Cer,
    Wire,
    Hub,
    /// Draining the in-process subscriber queue: the work a subscriber
    /// writer thread does in the server. Accounted, not reported.
    Subscriber,
    Checkpoint,
}

const LAYERS: usize = 11;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Mux => "stream.mux",
            Layer::Admission => "stream.admission",
            Layer::Scan => "ais.scan",
            Layer::Batcher => "serve.batcher",
            Layer::Tracker => "tracker",
            Layer::Modstore => "modstore",
            Layer::Cer => "cer",
            Layer::Wire => "serve.wire",
            Layer::Hub => "serve.hub",
            Layer::Subscriber => "serve.subscriber",
            Layer::Checkpoint => "serve.ckpt",
        }
    }

    /// Called once per input line, so drawn only when unusually long.
    fn per_line(self) -> bool {
        matches!(
            self,
            Layer::Mux | Layer::Admission | Layer::Scan | Layer::Batcher | Layer::Subscriber
        )
    }
}

/// Nested span timer: self time per layer plus a bounded timeline.
struct Tracer {
    epoch: Instant,
    tid: u64,
    /// Open spans: layer, start, time spent in enclosed spans (ns).
    stack: RefCell<Vec<(Layer, Instant, u64)>>,
    self_ns: RefCell<[u64; LAYERS]>,
    spans: RefCell<Vec<TimelineSpan>>,
}

impl Tracer {
    fn new(epoch: Instant, tid: u64) -> Self {
        Self {
            epoch,
            tid,
            stack: RefCell::new(Vec::new()),
            self_ns: RefCell::new([0; LAYERS]),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        self.stack.borrow_mut().push((layer, start, 0));
        let out = f();
        let dur = start.elapsed();
        let dur_ns = dur.as_nanos() as u64;
        let (_, _, enclosed) = self.stack.borrow_mut().pop().expect("span stack");
        self.self_ns.borrow_mut()[layer as usize] += dur_ns.saturating_sub(enclosed);
        if let Some(parent) = self.stack.borrow_mut().last_mut() {
            parent.2 += dur_ns;
        }
        let dur_us = dur.as_micros() as u64;
        let mut spans = self.spans.borrow_mut();
        if (!layer.per_line() || dur_us >= LINE_SPAN_MIN_US) && spans.len() < MAX_SPANS {
            spans.push(TimelineSpan {
                name: layer.name(),
                tid: self.tid,
                ts_us: (start - self.epoch).as_micros() as u64,
                dur_us,
            });
        }
        out
    }

    fn busy_ms(&self, layer: Layer) -> f64 {
        self.self_ns.borrow()[layer as usize] as f64 / 1e6
    }

    fn total_ms(&self) -> f64 {
        self.self_ns.borrow().iter().sum::<u64>() as f64 / 1e6
    }
}

/// The recognition backend the server would build for this
/// configuration.
enum Recognizer {
    Single(Box<MaritimeRecognizer>),
    Coordinated(Box<CoordinatedRecognizer>),
}

/// One step of the critical-movement event stream the recognizer saw,
/// kept for the serial-engine baseline.
enum MeStep {
    Add(Vec<(Timestamp, InputEvent)>),
    Query(Timestamp),
}

/// Everything downstream of the batcher: `SurveillancePipeline::slide`
/// and `finish`, one layer call at a time.
struct Core<'t> {
    tracer: &'t Tracer,
    tracker: WindowedTracker,
    recognizer: Recognizer,
    staging: StagingArea,
    reconstructor: TripReconstructor,
    store: TrajectoryStore,
    recognition_slide: i64,
    query_ms: Vec<f64>,
    ce_count: u64,
    working_memory_max: usize,
    me_stream: Vec<MeStep>,
}

impl Core<'_> {
    fn add_critical(&mut self, fresh: &[maritime_tracker::CriticalPoint]) {
        let events = self.tracer.span(Layer::Cer, || {
            let mut events = InputEvent::from_critical_batch(fresh);
            if let Recognizer::Single(r) = &self.recognizer {
                if r.knowledge().spatial_mode == SpatialMode::Precomputed {
                    maritime_cer::spatial::annotate_with_spatial_facts(&mut events, r.knowledge());
                }
            }
            events
        });
        // Kept for the serial baseline; the copy is the benchmark's own
        // work, outside every span.
        self.me_stream.push(MeStep::Add(events.clone()));
        self.tracer.span(Layer::Cer, || match &mut self.recognizer {
            Recognizer::Single(r) => r.add_events(events),
            Recognizer::Coordinated(c) => c.add_events(events),
        });
    }

    fn maintain(&mut self, evicted: &[maritime_tracker::CriticalPoint]) -> usize {
        self.tracer.span(Layer::Modstore, || {
            self.staging.stage_batch(evicted);
            let trips = self.reconstructor.reconstruct(&mut self.staging);
            let n = trips.len();
            self.store.load(trips);
            n
        })
    }

    fn recognize(&mut self, q: Timestamp) -> RecognitionSummary {
        let started = Instant::now();
        let summary = self.tracer.span(Layer::Cer, || match &mut self.recognizer {
            Recognizer::Single(r) => r.recognize_and_summarize(q),
            Recognizer::Coordinated(c) => c.recognize_and_summarize(q),
        });
        self.query_ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.ce_count += summary.ce_count as u64;
        self.working_memory_max = self.working_memory_max.max(summary.working_memory);
        self.me_stream.push(MeStep::Query(q));
        summary
    }

    fn slide(&mut self, q: Timestamp, batch: &[PositionTuple]) -> SlideOutcome {
        let report = self
            .tracer
            .span(Layer::Tracker, || self.tracker.slide(q, batch));
        self.add_critical(&report.fresh_critical);
        let trips_completed = self.maintain(&report.evicted_delta);
        let recognition = (q.as_secs() % self.recognition_slide == 0).then(|| self.recognize(q));
        SlideOutcome {
            query_time: q,
            admitted: report.admitted,
            fresh_critical: report.fresh_critical.len(),
            evicted: report.evicted_delta.len(),
            trips_completed,
            recognition,
            chains: Vec::new(),
            timings: maritime::pipeline::PhaseTimings::default(),
            shard_timings: Vec::new(),
        }
    }

    fn finish(&mut self, at: Timestamp) -> SlideOutcome {
        let (final_cps, remaining) = self.tracer.span(Layer::Tracker, || self.tracker.finish());
        self.add_critical(&final_cps);
        let trips_completed = self.maintain(&remaining);
        let recognition = Some(self.recognize(at));
        SlideOutcome {
            query_time: at,
            admitted: 0,
            fresh_critical: final_cps.len(),
            evicted: remaining.len(),
            trips_completed,
            recognition,
            chains: Vec::new(),
            timings: maritime::pipeline::PhaseTimings::default(),
            shard_timings: Vec::new(),
        }
    }
}

/// The wire end: encoder, hub, and one in-process subscriber.
struct Wire<'t> {
    tracer: &'t Tracer,
    encoder: WireEncoder,
    hub: Arc<BroadcastHub>,
    rx: EventReceiver,
    received: Vec<String>,
    bytes: u64,
}

impl Wire<'_> {
    fn emit(&mut self, outcome: &SlideOutcome) {
        let events = self
            .tracer
            .span(Layer::Wire, || self.encoder.encode_outcome(outcome));
        for event in &events {
            self.bytes += event.len() as u64 + 1;
            self.tracer.span(Layer::Hub, || self.hub.broadcast(event));
        }
        self.tracer.span(Layer::Subscriber, || {
            while let Ok(event) = self.rx.try_recv() {
                self.received.push(event.to_string());
            }
        });
    }
}

/// What the traced run reports.
pub struct Traced {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Correctness problems found (traced output ≠ reference, …).
    pub problems: Vec<String>,
    /// The Chrome-trace JSON written.
    pub trace_file: PathBuf,
}

/// Longitude extent of the recognition bands, exactly as the pipeline
/// derives it: the areas' centroid span, padded by 5%.
fn band_extent(areas: &[Area]) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for a in areas {
        let lon = a.polygon.centroid().lon;
        lo = lo.min(lon);
        hi = hi.max(lon);
    }
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return (-180.0, 180.0);
    }
    let pad = (hi - lo) * 0.05;
    (lo - pad, hi + pad)
}

fn serial_engine(setup: &PathSetup) -> MaritimeRecognizer {
    let c = &setup.config;
    let knowledge = Knowledge::new(
        setup.vessels.clone(),
        setup.areas.clone(),
        c.close_threshold_m,
        c.spatial_mode,
    );
    MaritimeRecognizer::with_strategy(knowledge, c.recognition_window, strategy(setup))
}

fn strategy(setup: &PathSetup) -> EvalStrategy {
    if setup.config.incremental_recognition {
        EvalStrategy::Incremental
    } else {
        EvalStrategy::FromScratch
    }
}

/// Runs the traced composition and its side passes over `lines`.
///
/// # Errors
/// When the trace file cannot be written.
pub fn run(
    setup: &PathSetup,
    lines: &[StreamLine],
    w: &Workload,
    reference: &[String],
    untraced: &Replay,
    seed: u64,
) -> Result<Traced, String> {
    let c = &setup.config;
    let epoch = Instant::now();
    let tracer = Tracer::new(epoch, 1);
    let recognizer = if c.parallelism.recognition_bands > 1 {
        let (lo, hi) = band_extent(&setup.areas);
        Recognizer::Coordinated(Box::new(CoordinatedRecognizer::with_strategy(
            GeoPartitioner::uniform(c.parallelism.recognition_bands, lo, hi),
            &setup.vessels,
            &setup.areas,
            c.close_threshold_m,
            c.spatial_mode,
            c.recognition_window,
            strategy(setup),
        )))
    } else {
        Recognizer::Single(Box::new(serial_engine(setup)))
    };
    let mut core = Core {
        tracer: &tracer,
        tracker: WindowedTracker::new(c.tracker, c.tracking_window),
        recognizer,
        staging: StagingArea::new(),
        reconstructor: TripReconstructor::new(&setup.areas),
        store: TrajectoryStore::new(),
        recognition_slide: c.recognition_window.slide.as_secs(),
        query_ms: Vec::new(),
        ce_count: 0,
        working_memory_max: 0,
        me_stream: Vec::new(),
    };
    let hub = BroadcastHub::new(1 << 16);
    let (_, rx) = hub.subscribe();
    let mut wire = Wire {
        tracer: &tracer,
        encoder: WireEncoder::new(),
        hub,
        rx,
        received: Vec::new(),
        bytes: 0,
    };
    let mut mux = SourceMux::new(setup.dedup);
    let mut admission: AdmissionBuffer<(String, u32)> = AdmissionBuffer::new(setup.skew);
    let mut scanner = DataScanner::new();
    let mut batcher = LiveBatcher::new(c.tracking_window, Timestamp::ZERO);
    let (mut filtered, mut duplicates, mut slides) = (0u64, 0u64, 0u64);
    let mut last_t = Timestamp::ZERO;

    let mut released_into_path = |released: Vec<(Timestamp, (String, u32))>,
                                  scanner: &mut DataScanner,
                                  batcher: &mut LiveBatcher,
                                  core: &mut Core<'_>,
                                  wire: &mut Wire<'_>| {
        for (t, (line, source)) in released {
            // The scan consumes the line: its buffer is freed inside
            // the span, as `LiveIngest` frees it after scanning.
            let Some(tuple) = tracer.span(Layer::Scan, || {
                let tuple = scanner.scan_from(source, &line, t);
                drop(line);
                tuple
            }) else {
                continue;
            };
            let mut outcomes = Vec::new();
            tracer.span(Layer::Batcher, || {
                batcher.push(tuple, |q, batch| outcomes.push(core.slide(q, &batch)));
            });
            slides += outcomes.len() as u64;
            for outcome in &outcomes {
                wire.emit(outcome);
            }
        }
    };

    let started = Instant::now();
    for (t, line) in lines {
        let t = Timestamp(*t);
        match tracer.span(Layer::Mux, || mux.admit(SourceId(SOURCE), t, line)) {
            SourceVerdict::Filtered => {
                filtered += 1;
                continue;
            }
            SourceVerdict::Duplicate => {
                duplicates += 1;
                continue;
            }
            SourceVerdict::Accepted => {}
        }
        last_t = last_t.max(t);
        let released = tracer.span(Layer::Admission, || {
            admission.push(t, (line.to_string(), SOURCE))
        });
        released_into_path(released, &mut scanner, &mut batcher, &mut core, &mut wire);
    }
    // `#flush`: drain admission and the defragmenter, close the last
    // batch, run the final recognition.
    let released = tracer.span(Layer::Admission, || admission.flush());
    released_into_path(released, &mut scanner, &mut batcher, &mut core, &mut wire);
    tracer.span(Layer::Scan, || scanner.finish(last_t));
    let mut outcomes = Vec::new();
    let final_q = tracer.span(Layer::Batcher, || {
        batcher.finish(|q, batch| outcomes.push(core.slide(q, &batch)))
    });
    outcomes.push(core.finish(final_q));
    for outcome in &outcomes {
        wire.emit(outcome);
    }
    slides += outcomes.len() as u64;
    let traced_wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut problems = Vec::new();
    if wire.received != reference {
        problems.push(format!(
            "traced composition output differs from the batch reference \
             ({} events vs {})",
            wire.received.len(),
            reference.len()
        ));
    }

    let bands1_ms = serial_baseline(setup, &core.me_stream, core.ce_count, &mut problems);
    let ckpt_tracer = Tracer::new(epoch, 2);
    let ckpt = checkpoint_pass(setup, lines, &ckpt_tracer);
    // Only a server started with `--checkpoint-dir` writes checkpoints.
    let ckpt_written = if w.checkpoint { ckpt.total_bytes } else { 0 };

    let fleet = core.tracker.tracker().stats();
    let scan = scanner.stats();
    let adm = admission.stats();
    let migrations = match &core.recognizer {
        Recognizer::Single(_) => 0,
        Recognizer::Coordinated(r) => r.migrations(),
    };
    let tail = stats::tail_percentile(core.query_ms.len(), 90).unwrap_or(50);
    let rejected = scan.malformed + scan.bad_checksum + scan.bad_payload + scan.bad_position;
    let untraced_ms = untraced.wall.as_secs_f64() * 1e3;
    let busy = |l| tracer.busy_ms(l);
    let metrics = vec![
        ("ais.scan.busy_ms", busy(Layer::Scan), "ms"),
        ("ais.scan.accepted", scan.accepted as f64, "count"),
        ("ais.scan.rejected", rejected as f64, "count"),
        ("ais.scan.accept_ratio", scan.acceptance_ratio(), "ratio"),
        ("stream.mux.busy_ms", busy(Layer::Mux), "ms"),
        ("stream.mux.duplicates", duplicates as f64, "count"),
        ("stream.mux.filtered", filtered as f64, "count"),
        ("stream.admission.busy_ms", busy(Layer::Admission), "ms"),
        ("stream.admission.late", adm.late as f64, "count"),
        (
            "stream.admission.peak_buffered",
            adm.peak_buffered as f64,
            "count",
        ),
        ("serve.batcher.busy_ms", busy(Layer::Batcher), "ms"),
        ("serve.batcher.slides", slides as f64, "count"),
        ("tracker.busy_ms", busy(Layer::Tracker), "ms"),
        ("tracker.critical_points", fleet.critical as f64, "count"),
        (
            "tracker.compression_ratio",
            fleet.compression_ratio(),
            "ratio",
        ),
        (
            "tracker.vessels",
            core.tracker.tracker().vessel_count() as f64,
            "count",
        ),
        ("modstore.busy_ms", busy(Layer::Modstore), "ms"),
        ("modstore.trips", core.store.trip_count() as f64, "count"),
        ("cer.busy_ms", busy(Layer::Cer), "ms"),
        ("cer.queries", core.query_ms.len() as f64, "count"),
        (
            "cer.query_ms_p50",
            stats::median(&core.query_ms).unwrap_or(0.0),
            "ms",
        ),
        (
            "cer.query_ms_p90",
            stats::percentile(&core.query_ms, tail).unwrap_or(0.0),
            "ms",
        ),
        ("cer.ce_count", core.ce_count as f64, "count"),
        (
            "cer.working_memory_max",
            core.working_memory_max as f64,
            "count",
        ),
        ("cer.coordinator.migrations", migrations as f64, "count"),
        ("cer.bands1_query_ms_p50", bands1_ms, "ms"),
        ("serve.ckpt.bytes", ckpt_written as f64, "bytes"),
        ("serve.ckpt.ms", ckpt.median_ms, "ms"),
        ("serve.state_bytes", ckpt.largest as f64, "bytes"),
        ("serve.wire.busy_ms", busy(Layer::Wire), "ms"),
        ("serve.wire.bytes", wire.bytes as f64, "bytes"),
        ("serve.hub.busy_ms", busy(Layer::Hub), "ms"),
        (
            "serve.hub.evictions",
            wire.hub.evicted_count() as f64,
            "count",
        ),
        (
            "trace.unaccounted_pct",
            (traced_wall_ms - tracer.total_ms()) / traced_wall_ms * 100.0,
            "%",
        ),
        (
            "trace.overhead_pct",
            (traced_wall_ms - untraced_ms) / untraced_ms * 100.0,
            "%",
        ),
    ];
    eprintln!(
        "wirebench: traced {traced_wall_ms:.0} ms vs untraced replay {untraced_ms:.0} ms; \
         layer self times (ms): {}",
        [
            Layer::Mux,
            Layer::Admission,
            Layer::Scan,
            Layer::Batcher,
            Layer::Tracker,
            Layer::Modstore,
            Layer::Cer,
            Layer::Wire,
            Layer::Hub,
            Layer::Subscriber,
        ]
        .iter()
        .map(|&l| format!("{} {:.1}", l.name(), busy(l)))
        .collect::<Vec<_>>()
        .join(", ")
    );

    let mut spans = tracer.spans.into_inner();
    spans.extend(ckpt_tracer.spans.into_inner());
    spans.sort_by_key(|s| (s.ts_us, s.tid));
    let dir = PathBuf::from(crate::OUT_DIR).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_file = dir.join(format!("{}-seed{seed}.json", w.name));
    std::fs::write(&trace_file, chrome::encode(&spans))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(Traced {
        metrics,
        problems,
        trace_file,
    })
}

/// Feeds the recorded event stream to one serial engine and times each
/// query: the single-threaded baseline for the banded recognizer. Its CE
/// total must equal the composed run's (the coordinator is exact).
fn serial_baseline(
    setup: &PathSetup,
    me_stream: &[MeStep],
    ce_expected: u64,
    problems: &mut Vec<String>,
) -> f64 {
    let mut engine = serial_engine(setup);
    let mut query_ms = Vec::new();
    let mut ce_count = 0u64;
    for step in me_stream {
        match step {
            MeStep::Add(events) => {
                let mut events = events.clone();
                if engine.knowledge().spatial_mode == SpatialMode::Precomputed {
                    maritime_cer::spatial::annotate_with_spatial_facts(
                        &mut events,
                        engine.knowledge(),
                    );
                }
                engine.add_events(events);
            }
            MeStep::Query(q) => {
                let started = Instant::now();
                ce_count += engine.recognize_and_summarize(*q).ce_count as u64;
                query_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    if ce_count != ce_expected {
        problems.push(format!(
            "serial engine recognized {ce_count} CEs, the composed run {ce_expected}"
        ));
    }
    stats::median(&query_ms).unwrap_or(0.0)
}

/// What checkpointing after every query costs.
struct CheckpointCost {
    /// Bytes of all checkpoints together: what the server writes.
    total_bytes: usize,
    /// The largest checkpoint: the serialized recognition state.
    largest: usize,
    /// Median time to take one, ms.
    median_ms: f64,
}

/// Replays the lines through `LiveIngest`, checkpointing after every
/// recognition query as the server's driver does under
/// `--checkpoint-dir --checkpoint-every 1`, plus once after the flush.
fn checkpoint_pass(setup: &PathSetup, lines: &[StreamLine], tracer: &Tracer) -> CheckpointCost {
    let mut live = setup.live();
    let mut queries = 0;
    let mut cost = CheckpointCost {
        total_bytes: 0,
        largest: 0,
        median_ms: 0.0,
    };
    let mut took_ms = Vec::new();
    let mut take = |live: &maritime::LiveIngest| {
        let started = Instant::now();
        let bytes = tracer.span(Layer::Checkpoint, || live.checkpoint());
        took_ms.push(started.elapsed().as_secs_f64() * 1e3);
        cost.total_bytes += bytes.len();
        cost.largest = cost.largest.max(bytes.len());
    };
    for (t, line) in lines {
        live.push_line(SourceId(SOURCE), Timestamp(*t), line);
        if live.stats().queries > queries {
            queries = live.stats().queries;
            take(&live);
        }
    }
    live.flush();
    take(&live);
    cost.median_ms = stats::median(&took_ms).unwrap_or(0.0);
    cost
}
