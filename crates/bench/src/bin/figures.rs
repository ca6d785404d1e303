//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p maritime-bench --release --bin figures            # all
//! cargo run -p maritime-bench --release --bin figures -- fig6    # one
//! cargo run -p maritime-bench --release --bin figures -- --scale small
//! ```
//!
//! Experiments: `fig6` (tracking cost vs window), `fig7` (arrival-rate
//! stress), `fig8` (trajectory RMSE), `fig9` (compression), `fig10`
//! (maintenance cost split), `table4` (archive statistics), `fig11`
//! (CE recognition, 1 vs 2 processors, with/without spatial facts),
//! `sharded` (tracker throughput at 1-8 MMSI-hash shards).
//!
//! Absolute times will differ from the paper (different hardware, a
//! simulated dataset at reduced scale); the *shapes* — linear growth in
//! β and ω, who wins, crossovers — are the reproduction targets. Results
//! are also written as JSON under `bench-results/`.

use std::time::Instant;

use maritime::prelude::*;
use maritime_bench::{Scale, TextTable, Workload};
use maritime_cer::{partition, spatial, Knowledge, MaritimeRecognizer, SpatialMode};
use maritime_tracker::accuracy::evaluate_accuracy;
use maritime_tracker::compression::measure_compression;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Medium;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            let v = it.next().expect("--scale needs a value");
            scale = Scale::parse(v).unwrap_or_else(|| panic!("unknown scale {v}"));
        } else {
            selected.push(a.clone());
        }
    }
    let all = [
        "fig6", "fig7", "fig8", "fig9", "fig10", "table4", "fig11", "baselines", "sharded",
        "incremental", "chaos", "hotpath", "recognition", "ingest", "telemetry", "partition",
    ];
    let run_list: Vec<&str> = if selected.is_empty() {
        all.to_vec()
    } else {
        selected.iter().map(String::as_str).collect()
    };

    std::fs::create_dir_all("bench-results").ok();
    // Record every stage span on the Chrome-trace timeline so the run
    // ships with a Perfetto-loadable profile of itself.
    maritime_obs::chrome::install();
    println!("building workload at {scale:?} scale ...");
    let t = Instant::now();
    let workload = Workload::build(scale);
    println!(
        "  {} vessels, {} positions over {:.1} h (built in {:.1?})\n",
        workload.vessels.len(),
        workload.stream.len(),
        workload.span().as_hours_f64(),
        t.elapsed()
    );

    for exp in run_list {
        match exp {
            "fig6" => fig6(&workload),
            "fig7" => fig7(&workload),
            "fig8" => fig8(&workload),
            "fig9" => fig9(&workload),
            "fig10" => fig10(&workload),
            "table4" => table4(&workload),
            "fig11" => fig11(&workload),
            "baselines" => baselines(&workload),
            "sharded" => sharded(&workload),
            "incremental" => incremental(&workload),
            "chaos" => chaos(),
            "hotpath" => hotpath(&workload, scale),
            "recognition" => recognition(&workload, scale),
            "ingest" => ingest(scale),
            "telemetry" => telemetry(scale),
            "partition" => partition_scale(&workload, scale),
            other => eprintln!("unknown experiment: {other}"),
        }
    }

    // The experiments above exercised every pipeline stage; dump the
    // accumulated metrics registry (see OBSERVABILITY.md) alongside the
    // figure data so a run's operational profile ships with its results.
    let snapshot = maritime_obs::snapshot();
    let path = "bench-results/metrics.json";
    if let Err(e) = std::fs::write(path, maritime_obs::encode::json(&snapshot)) {
        eprintln!("  (could not write {path}: {e})");
    } else {
        println!("metrics registry snapshot written to {path}");
    }

    // Stage-span timeline of the whole run, Chrome Trace Event format.
    let path = "bench-results/trace.json";
    if let Err(e) = std::fs::write(path, maritime_obs::chrome::export_json()) {
        eprintln!("  (could not write {path}: {e})");
    } else {
        println!("Chrome-trace timeline written to {path} (load in Perfetto)");
    }

    // Forced flight-recorder dump: exercises the anomaly-dump path on
    // every figures run so the artifact is always available from CI.
    let path = std::path::Path::new("bench-results/flight-dump.json");
    if let Err(e) = maritime_obs::flight::dump_to(path, "figures-forced") {
        eprintln!("  (could not write {}: {e})", path.display());
    } else {
        println!("flight recorder dumped to {}", path.display());
    }
}

fn save_json(name: &str, value: &serde_json::Value) {
    let path = format!("bench-results/{name}.json");
    if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()) {
        eprintln!("  (could not write {path}: {e})");
    }
}

/// Average per-slide tracking cost for one window geometry.
fn tracking_cost_per_slide(
    stream: &[(Timestamp, PositionTuple)],
    spec: WindowSpec,
) -> (f64, usize) {
    let mut tracker = WindowedTracker::new(TrackerParams::default(), spec);
    let mut slides = 0usize;
    let t0 = Instant::now();
    for batch in SlideBatches::new(stream.iter().cloned(), spec, Timestamp::ZERO) {
        let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
        tracker.slide(batch.query_time, &tuples);
        slides += 1;
    }
    let total = t0.elapsed().as_secs_f64();
    (total / slides.max(1) as f64 * 1_000.0, slides)
}

/// Figure 6: online mobility tracking cost per window slide.
fn fig6(w: &Workload) {
    println!("== Figure 6: online tracking cost per window ==");
    let mut json = Vec::new();

    let mut small = TextTable::new(&["ω", "β (min)", "slides", "avg cost/slide (ms)"]);
    for range_h in [1i64, 2] {
        for slide_min in [5i64, 10, 15, 20, 30] {
            let spec =
                WindowSpec::new(Duration::hours(range_h), Duration::minutes(slide_min)).unwrap();
            let (ms, slides) = tracking_cost_per_slide(&w.stream, spec);
            small.row(vec![
                format!("{range_h}h"),
                slide_min.to_string(),
                slides.to_string(),
                format!("{ms:.3}"),
            ]);
            json.push(serde_json::json!({
                "panel": "a", "range_h": range_h, "slide_min": slide_min,
                "slides": slides, "avg_ms": ms
            }));
        }
    }
    println!("-- (a) small window ranges --\n{}", small.render());

    let mut large = TextTable::new(&["ω", "β (h)", "slides", "avg cost/slide (ms)"]);
    for range_h in [6i64, 24] {
        for slide_min in [30i64, 60, 90, 120, 240] {
            let spec =
                WindowSpec::new(Duration::hours(range_h), Duration::minutes(slide_min)).unwrap();
            let (ms, slides) = tracking_cost_per_slide(&w.stream, spec);
            large.row(vec![
                format!("{range_h}h"),
                format!("{:.1}", slide_min as f64 / 60.0),
                slides.to_string(),
                format!("{ms:.3}"),
            ]);
            json.push(serde_json::json!({
                "panel": "b", "range_h": range_h, "slide_min": slide_min,
                "slides": slides, "avg_ms": ms
            }));
        }
    }
    println!("-- (b) large window ranges --\n{}", large.render());
    println!("expected shape: cost grows ~linearly with β (more fresh positions per slide)\nand with ω; sub-second per slide at small ranges.\n");
    save_json("fig6", &serde_json::Value::Array(json));
}

/// Figure 7: tracking latency at increased arrival rates.
fn fig7(w: &Workload) {
    use maritime_ais::replay::at_rate;
    use maritime_bench::inflate_fleet;
    println!("== Figure 7: varying arrival rates (ω = 10 min, β = 1 min) ==");
    let spec = WindowSpec::new(Duration::minutes(10), Duration::minutes(1)).unwrap();
    let mut table = TextTable::new(&["ρ (pos/s)", "positions", "slides", "avg cost/slide (ms)"]);
    let mut json = Vec::new();
    for rate in [1_000.0, 2_000.0, 5_000.0, 10_000.0] {
        // Replicate the fleet so the rescaled stream still spans at least
        // ~10 slides of 1 minute at this rate (the paper compresses a
        // three-month stream; we compress a replicated multi-day one).
        let needed = (rate * 600.0) as usize;
        let factor = needed.div_ceil(w.stream.len()).max(1);
        let inflated = inflate_fleet(&w.stream, factor);
        let fast = at_rate(&inflated, rate);
        let (ms, slides) = tracking_cost_per_slide(&fast, spec);
        table.row(vec![
            format!("{rate}"),
            fast.len().to_string(),
            slides.to_string(),
            format!("{ms:.3}"),
        ]);
        json.push(serde_json::json!({
            "rate": rate, "positions": fast.len(), "slides": slides, "avg_ms": ms
        }));
    }
    println!("{}", table.render());
    println!("expected shape: latency grows with ρ but stays well below the 60 s slide.\n");
    save_json("fig7", &serde_json::Value::Array(json));
}

/// Figure 8: trajectory approximation RMSE vs Δθ.
fn fig8(w: &Workload) {
    println!("== Figure 8: trajectory approximation error ==");
    let tuples = w.tuples();
    let mut table = TextTable::new(&["Δθ (deg)", "avg RMSE (m)", "max RMSE (m)"]);
    let mut json = Vec::new();
    for dtheta in [5.0, 10.0, 15.0, 20.0] {
        let (_, critical) =
            measure_compression(&tuples, TrackerParams::with_turn_threshold(dtheta));
        let acc = evaluate_accuracy(&tuples, &critical);
        table.row(vec![
            format!("{dtheta}"),
            format!("{:.1}", acc.avg_rmse_m),
            format!("{:.1}", acc.max_rmse_m),
        ]);
        json.push(serde_json::json!({
            "dtheta": dtheta, "avg_rmse_m": acc.avg_rmse_m, "max_rmse_m": acc.max_rmse_m
        }));
    }
    println!("{}", table.render());
    println!("expected shape: both curves grow with Δθ (paper: avg ≤ 16 m, max 182 m on\nthe denser real dataset — our synthetic traces are sparser, so absolute\nerrors are larger, but the monotone trend must hold).\n");
    save_json("fig8", &serde_json::Value::Array(json));
}

/// Figure 9: compression ratio and critical-point counts vs Δθ.
fn fig9(w: &Workload) {
    println!("== Figure 9: compression for varying Δθ ==");
    let tuples = w.tuples();
    let mut table = TextTable::new(&["Δθ (deg)", "critical points", "compression ratio"]);
    let mut json = Vec::new();
    for dtheta in [5.0, 10.0, 15.0, 20.0] {
        let (rep, _) = measure_compression(&tuples, TrackerParams::with_turn_threshold(dtheta));
        table.row(vec![
            format!("{dtheta}"),
            rep.critical_points.to_string(),
            format!("{:.3}", rep.ratio),
        ]);
        json.push(serde_json::json!({
            "dtheta": dtheta, "critical": rep.critical_points, "ratio": rep.ratio
        }));
    }
    println!("{}", table.render());
    println!("expected shape: every +5° in Δθ drops the critical-point count; the ratio\nstays near ~94-97% (paper: ~94%).\n");
    save_json("fig9", &serde_json::Value::Array(json));
}

/// Figure 10: trajectory maintenance cost split by phase.
fn fig10(w: &Workload) {
    println!("== Figure 10: trajectory maintenance cost per slide ==");
    let mut table = TextTable::new(&[
        "window",
        "slides",
        "tracking (ms)",
        "staging (ms)",
        "reconstruction (ms)",
        "loading (ms)",
    ]);
    let mut json = Vec::new();
    for (range_h, slide_min, label) in
        [(1i64, 10i64, "ω=1h β=10min"), (6, 60, "ω=6h β=1h"), (24, 60, "ω=24h β=1h")]
    {
        let config = SurveillanceConfig {
            tracking_window: WindowSpec::new(Duration::hours(range_h), Duration::minutes(slide_min))
                .unwrap(),
            recognition_window: WindowSpec::new(
                Duration::hours(range_h.max(6)),
                Duration::minutes(slide_min.max(60)),
            )
            .unwrap(),
            ..SurveillanceConfig::default()
        };
        let mut pipeline =
            SurveillancePipeline::new(&config, w.vessels.clone(), w.areas.clone()).unwrap();
        let mut slides = 0usize;
        let mut sums = [0.0f64; 4];
        for batch in
            SlideBatches::new(w.stream.iter().cloned(), config.tracking_window, Timestamp::ZERO)
        {
            let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
            let outcome = pipeline.slide(batch.query_time, &tuples);
            sums[0] += outcome.timings.tracking.as_secs_f64();
            sums[1] += outcome.timings.staging.as_secs_f64();
            sums[2] += outcome.timings.reconstruction.as_secs_f64();
            sums[3] += outcome.timings.loading.as_secs_f64();
            slides += 1;
        }
        let avg = |s: f64| s / slides.max(1) as f64 * 1_000.0;
        table.row(vec![
            label.to_string(),
            slides.to_string(),
            format!("{:.3}", avg(sums[0])),
            format!("{:.3}", avg(sums[1])),
            format!("{:.3}", avg(sums[2])),
            format!("{:.3}", avg(sums[3])),
        ]);
        json.push(serde_json::json!({
            "label": label, "slides": slides,
            "tracking_ms": avg(sums[0]), "staging_ms": avg(sums[1]),
            "reconstruction_ms": avg(sums[2]), "loading_ms": avg(sums[3])
        }));
    }
    println!("{}", table.render());
    println!("expected shape: tracking dominates and grows with window size; staging,\nreconstruction and loading stay small and roughly flat (paper: ≤ 260 ms,\n163 ms and 390 ms respectively on their hardware).\n");
    save_json("fig10", &serde_json::Value::Array(json));
}

/// Table 4: statistics from compressed trajectories.
fn table4(w: &Workload) {
    println!("== Table 4: statistics from compressed trajectories ==");
    let config = SurveillanceConfig::default();
    let mut pipeline =
        SurveillancePipeline::new(&config, w.vessels.clone(), w.areas.clone()).unwrap();
    let report = pipeline.run(w.tuples());
    println!("{}", report.archive);
    println!(
        "(raw positions: {}, compression: {:.1}%)\n",
        report.raw_positions,
        report.compression_ratio * 100.0
    );
    let a = &report.archive;
    save_json(
        "table4",
        &serde_json::json!({
            "points_in_trajectories": a.points_in_trajectories,
            "points_in_staging": a.points_in_staging,
            "trips": a.trips,
            "avg_trips_per_vessel": a.avg_trips_per_vessel,
            "avg_points_per_trip": a.avg_points_per_trip,
            "avg_travel_time_secs": a.avg_travel_time.as_secs(),
            "avg_distance_km": a.avg_distance_km,
            "raw_positions": report.raw_positions,
            "compression_ratio": report.compression_ratio,
        }),
    );
}

/// Extension: compression-vs-accuracy frontier against the related-work
/// baselines of §6 (Douglas-Peucker error-bounded simplification, online
/// dead reckoning).
fn baselines(w: &Workload) {
    use maritime_tracker::baselines::compare_methods;
    println!("== Baselines: compression vs accuracy frontier (paper §6 related work) ==");
    let tuples = w.tuples();
    let mut table = TextTable::new(&[
        "method",
        "retained",
        "compression",
        "avg RMSE (m)",
        "max RMSE (m)",
        "annotated MEs",
    ]);
    let mut json = Vec::new();
    let results = compare_methods(&tuples, TrackerParams::default(), 100.0, 200.0);
    for r in &results {
        table.row(vec![
            r.method.to_string(),
            r.retained.to_string(),
            format!("{:.3}", r.compression_ratio),
            format!("{:.1}", r.accuracy.avg_rmse_m),
            format!("{:.1}", r.accuracy.max_rmse_m),
            if r.method == "critical_points" { "yes" } else { "no" }.to_string(),
        ]);
        json.push(serde_json::json!({
            "method": r.method, "retained": r.retained,
            "compression": r.compression_ratio,
            "avg_rmse_m": r.accuracy.avg_rmse_m, "max_rmse_m": r.accuracy.max_rmse_m,
        }));
    }
    println!("{}", table.render());
    println!(
        "note: only critical points carry movement-event annotations, which is what\n\
         the CE recognition stage consumes - the baselines reduce data but discard\n\
         the semantics (\"we annotate reduced representations according to\n\
         particular movement events\", section 6).\n"
    );
    save_json("baselines", &serde_json::Value::Array(json));
}

/// Extension: sharded-tracker scaling — the full windowed tracking run
/// at 1, 2, 4 and 8 MMSI-hash shards against the serial baseline.
fn sharded(w: &Workload) {
    use maritime_tracker::ShardedTracker;
    println!("== Sharded tracking: MMSI-hash fan-out (omega = 1 h, beta = 30 min) ==");
    let spec = WindowSpec::new(Duration::hours(1), Duration::minutes(30)).unwrap();

    let run_serial = || {
        let mut wt = WindowedTracker::new(TrackerParams::default(), spec);
        let t0 = Instant::now();
        let mut critical = 0usize;
        for batch in SlideBatches::new(w.stream.iter().cloned(), spec, Timestamp::ZERO) {
            let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
            critical += wt.slide(batch.query_time, &tuples).fresh_critical.len();
        }
        critical += wt.finish().0.len();
        (t0.elapsed().as_secs_f64(), critical)
    };
    let run_sharded = |shards: usize| {
        let mut st = ShardedTracker::new(TrackerParams::default(), spec, shards);
        let t0 = Instant::now();
        let mut critical = 0usize;
        for batch in SlideBatches::new(w.stream.iter().cloned(), spec, Timestamp::ZERO) {
            let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
            critical += st.slide(batch.query_time, &tuples).merged.fresh_critical.len();
        }
        critical += st.finish().0.len();
        (t0.elapsed().as_secs_f64(), critical)
    };

    // Warm-up pass so page faults and lazy allocation hit nobody's clock.
    let _ = run_serial();
    let (serial_secs, serial_critical) = run_serial();
    let positions = w.stream.len() as f64;

    let mut table = TextTable::new(&[
        "backend",
        "critical",
        "total (s)",
        "pos/s",
        "speedup",
    ]);
    table.row(vec![
        "serial".to_string(),
        serial_critical.to_string(),
        format!("{serial_secs:.3}"),
        format!("{:.0}", positions / serial_secs),
        "1.00x".to_string(),
    ]);
    let mut json = vec![serde_json::json!({
        "backend": "serial", "shards": 0, "critical": serial_critical,
        "secs": serial_secs, "pos_per_sec": positions / serial_secs, "speedup": 1.0,
    })];
    for shards in [1usize, 2, 4, 8] {
        let (secs, critical) = run_sharded(shards);
        assert_eq!(
            critical, serial_critical,
            "sharded backend diverged from serial at {shards} shard(s)"
        );
        table.row(vec![
            format!("{shards} shard(s)"),
            critical.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", positions / secs),
            format!("{:.2}x", serial_secs / secs),
        ]);
        json.push(serde_json::json!({
            "backend": "sharded", "shards": shards, "critical": critical,
            "secs": secs, "pos_per_sec": positions / secs,
            "speedup": serial_secs / secs,
        }));
    }
    println!("{}", table.render());
    println!("expected shape: one shard is the serial tracker plus a canonical sort per slide; the
critical-point count is identical everywhere (differential invariant); the
speedup climbs with shards until per-shard batches get too small.
");
    save_json("sharded", &serde_json::Value::Array(json));
}

/// Extension: checkpointed incremental recognition — per-query cost of
/// from-scratch vs delta evaluation over the same sliding queries, for
/// overlapping windows (where the prefix is redundant work) and the
/// tumbling window (where there is no prefix to reuse).
fn incremental(w: &Workload) {
    use maritime_cer::EvalStrategy;
    println!("== Incremental recognition: from-scratch vs checkpointed delta ==");
    // Replay in timestamp order: the tracker stamps a few MEs
    // retroactively (a communication-gap start carries the *last contact*
    // time), and feeding those after a query is a genuine late arrival,
    // which correctly — but uninformatively — forces a full recompute.
    // The differential tests cover that path; this experiment measures
    // the steady-state delta cost of an in-order stream.
    let mut me_stream = w.me_stream(TrackerParams::default());
    me_stream.sort_by_key(|(t, _)| *t);
    println!(
        "  ME stream: {} critical movement events from {} raw positions",
        me_stream.len(),
        w.stream.len()
    );
    let span_end = Timestamp::ZERO + w.span();

    // Streaming replay: feed each query only the MEs since the previous
    // one, then recognize — the cadence an online pipeline runs at.
    let run = |spec: WindowSpec, strategy: EvalStrategy| {
        let kb = Knowledge::standard(w.vessels.iter().copied(), w.areas.clone());
        let mut recognizer = MaritimeRecognizer::with_strategy(kb, spec, strategy);
        let queries = spec.query_times(Timestamp::ZERO, span_end);
        let mut fed = 0usize;
        let mut ces = 0usize;
        let t0 = Instant::now();
        for q in &queries {
            while fed < me_stream.len() && me_stream[fed].0 <= *q {
                recognizer.add_events([me_stream[fed].clone()]);
                fed += 1;
            }
            ces += recognizer.recognize_and_summarize(*q).ce_count;
        }
        let avg_ms = t0.elapsed().as_secs_f64() / queries.len().max(1) as f64 * 1_000.0;
        (avg_ms, ces, queries.len(), recognizer.incremental_stats())
    };

    let mut table = TextTable::new(&[
        "ω (h)",
        "β (h)",
        "queries",
        "CEs",
        "from-scratch (ms/q)",
        "incremental (ms/q)",
        "rules run",
        "fallbacks",
        "speedup",
    ]);
    let mut json = Vec::new();
    for (range_h, slide_h) in [(2i64, 1i64), (6, 1), (9, 1), (6, 6)] {
        let spec = WindowSpec::new(Duration::hours(range_h), Duration::hours(slide_h)).unwrap();
        let (full_ms, full_ces, queries, full_stats) = run(spec, EvalStrategy::FromScratch);
        let (inc_ms, inc_ces, _, stats) = run(spec, EvalStrategy::Incremental);
        assert_eq!(
            full_ces, inc_ces,
            "incremental recognition diverged at ω={range_h}h β={slide_h}h"
        );
        let speedup = full_ms / inc_ms.max(1e-9);
        table.row(vec![
            range_h.to_string(),
            slide_h.to_string(),
            queries.to_string(),
            full_ces.to_string(),
            format!("{full_ms:.3}"),
            format!("{inc_ms:.3}"),
            format!(
                "{}k vs {}k",
                full_stats.triggers_evaluated / 1_000,
                stats.triggers_evaluated / 1_000
            ),
            format!("{}/{}", stats.full, stats.full + stats.incremental),
            format!("{speedup:.2}x"),
        ]);
        json.push(serde_json::json!({
            "range_h": range_h, "slide_h": slide_h, "queries": queries,
            "ces": full_ces, "full_ms": full_ms, "incremental_ms": inc_ms,
            "full_rules_run": full_stats.triggers_evaluated,
            "incremental_rules_run": stats.triggers_evaluated,
            "entries_replayed": stats.triggers_reused,
            "fallback_queries": stats.full, "delta_queries": stats.incremental,
            "speedup": speedup,
        }));
    }
    println!("{}", table.render());
    println!("expected shape: the wider the overlap (ω ≫ β) the larger the speedup —\n≥2x at ω=6h β=1h; the tumbling window (ω=β) has no reusable prefix, so\nthe two modes should be within noise of each other.\n");
    save_json("incremental", &serde_json::Value::Array(json));
}

/// Figure 11: CE recognition times, 1 vs 2 processors, on-demand spatial
/// reasoning (a) vs precomputed spatial facts (b).
fn fig11(w: &Workload) {
    println!("== Figure 11: complex event recognition ==");
    let me_stream = w.me_stream(TrackerParams::default());
    println!(
        "  ME stream: {} critical movement events from {} raw positions",
        me_stream.len(),
        w.stream.len()
    );

    let span_end = Timestamp::ZERO + w.span();
    let mut json = Vec::new();

    for (panel, mode) in [
        ("a", SpatialMode::OnDemand),
        ("b", SpatialMode::Precomputed),
        ("c", SpatialMode::OnDemandIndexed),
    ] {
        let mut events = me_stream.clone();
        let facts = if mode == SpatialMode::Precomputed {
            let kb = Knowledge::standard(w.vessels.iter().copied(), w.areas.clone());
            spatial::annotate_with_spatial_facts(&mut events, &kb)
        } else {
            0
        };
        let label = match mode {
            SpatialMode::OnDemand => "on-demand spatial reasoning (paper: linear over areas)",
            SpatialMode::Precomputed => "precomputed spatial facts",
            SpatialMode::OnDemandIndexed => "on-demand with grid index (extension beyond the paper)",
        };
        println!("-- ({panel}) {label}{} --", if facts > 0 {
            format!(" ({facts} spatial facts)")
        } else {
            String::new()
        });

        let mut table = TextTable::new(&[
            "ω (h)",
            "MEs/window",
            "CEs",
            "1 proc (ms/query)",
            "2 procs (ms/query)",
            "speedup",
        ]);
        for range_h in [1i64, 2, 6, 9] {
            let spec = WindowSpec::new(Duration::hours(range_h), Duration::hours(1)).unwrap();
            let queries = spec.query_times(Timestamp::ZERO, span_end);

            // Single processor.
            let t0 = Instant::now();
            let kb = Knowledge::new(
                w.vessels.iter().copied(),
                w.areas.clone(),
                2_000.0,
                mode,
            );
            let mut single = MaritimeRecognizer::new(kb, spec);
            single.add_events(events.iter().cloned());
            let mut ce_single = 0usize;
            let mut wm_sum = 0usize;
            for q in &queries {
                let s = single.recognize_and_summarize(*q);
                ce_single += s.ce_count;
                wm_sum += s.working_memory;
            }
            let single_ms = t0.elapsed().as_secs_f64() / queries.len().max(1) as f64 * 1_000.0;

            // Two processors (geographic east/west partitioning).
            let t1 = Instant::now();
            let merged = partition::recognize_partitioned(
                &partition::GeoPartitioner::east_west(),
                &w.vessels,
                &w.areas,
                &events,
                spec,
                &queries,
                mode,
            );
            let ce_two: usize = merged.iter().map(partition::MergedSummary::ce_count).sum();
            let two_ms = t1.elapsed().as_secs_f64() / queries.len().max(1) as f64 * 1_000.0;

            table.row(vec![
                range_h.to_string(),
                (wm_sum / queries.len().max(1)).to_string(),
                format!("{ce_single}/{ce_two}"),
                format!("{single_ms:.3}"),
                format!("{two_ms:.3}"),
                format!("{:.2}x", single_ms / two_ms.max(1e-9)),
            ]);
            json.push(serde_json::json!({
                "panel": panel, "range_h": range_h,
                "avg_mes_per_window": wm_sum / queries.len().max(1),
                "ce_single": ce_single, "ce_two": ce_two,
                "single_ms": single_ms, "two_ms": two_ms,
            }));
        }
        println!("{}", table.render());
    }
    println!("expected shape: times grow with ω; two processors are faster (paper: ~1.6x);\nprecomputed facts (b) are faster than on-demand reasoning (a) despite the\nlarger input stream; CE counts match between 1 and 2 processors.\n");
    save_json("fig11", &serde_json::Value::Array(json));
}

/// Chaos overhead: pipeline throughput on the clean deterministic chaos
/// world vs the same world under hostile fault-injection plans. The
/// interesting number is the *relative* cost of absorbing a damaged
/// stream (admission repair, defragmenter churn, discarded sentences) —
/// recognition output itself is guarded by the oracle tests, not here.
fn chaos() {
    use maritime::chaos::{ChaosEngine, ChaosHarness};
    use maritime_chaos::ChaosPlan;

    println!("== Chaos: clean vs fault-injected stream throughput ==");
    let harness = ChaosHarness::default();
    let (lines, vessels) = harness.baseline();
    println!(
        "  world: {} vessels, {} h, {} sentences, admission skew {} s",
        harness.vessels,
        harness.hours,
        lines.len(),
        harness.admission_skew_secs
    );

    let mut table = TextTable::new(&[
        "stream", "sentences", "discarded", "late", "CEs", "ms", "Msent/s",
    ]);
    let mut json = Vec::new();
    let mut measure = |label: &str, stream: &[(i64, String)]| {
        let t0 = Instant::now();
        let run = harness.run(stream, &vessels, ChaosEngine::Serial);
        let ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let discarded = run.scan.malformed
            + run.scan.bad_checksum
            + run.scan.bad_payload
            + run.scan.bad_position
            + run.scan.fragments_truncated;
        table.row(vec![
            label.to_string(),
            run.scan.total.to_string(),
            discarded.to_string(),
            run.admission.late.to_string(),
            run.observation.ce_total.to_string(),
            format!("{ms:.1}"),
            format!("{:.3}", stream.len() as f64 / ms / 1_000.0),
        ]);
        json.push(serde_json::json!({
            "stream": label, "sentences": run.scan.total, "discarded": discarded,
            "late": run.admission.late, "ces": run.observation.ce_total, "ms": ms,
        }));
    };

    measure("clean", &lines);
    for seed in 0..3u64 {
        let plan = ChaosPlan::hostile(seed);
        let (perturbed, _) = plan.apply(&lines);
        measure(&format!("hostile[{seed}] ({} ops)", plan.ops.len()), &perturbed);
    }
    println!("{}", table.render());
    println!("expected shape: hostile streams cost within ~2x of clean — fault\nabsorption is bookkeeping, not recomputation; discarded/late counts are\nnonzero exactly on the perturbed rows.\n");
    save_json("chaos", &serde_json::Value::Array(json));
}

/// Extension: raw-speed measurement of the decode→track hot path — the
/// trajectory entry behind the `BENCH_hotpath.json` perf gate. Three
/// legs, each on the fixed workload at the selected scale:
///
/// * **decode** — the zero-copy batch scanner over a pre-rendered NMEA
///   buffer (table-driven six-bit cursor, no per-sentence allocation);
/// * **track** — the mobility tracker alone over the decoded tuples,
///   critical points appended to one reused buffer;
/// * **e2e** — the serial windowed run (ω = 1 h, β = 30 min), identical
///   to the `sharded` experiment's serial baseline so the speedup is
///   comparable against the EXPERIMENTS.md table.
fn hotpath(w: &Workload, scale: Scale) {
    use maritime_ais::nmea::encode_report;

    println!("== Hot path: decode / track / end-to-end throughput ==");
    let scale_label = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    };
    let positions = w.stream.len() as f64;

    // ---- decode-only: scanner over a pre-rendered sentence buffer ------
    let reports = w.sim.generate();
    let mut buf = String::new();
    for r in &reports {
        buf.push_str(&encode_report(r));
        buf.push('\n');
    }
    let run_decode = || {
        let mut scanner = DataScanner::new();
        let mut out = Vec::with_capacity(reports.len());
        let t0 = Instant::now();
        scanner.scan_buffer(&buf, |i| reports[i].timestamp, &mut out);
        scanner.finish(reports.last().map_or(Timestamp::ZERO, |r| r.timestamp));
        (t0.elapsed().as_secs_f64(), out.len())
    };
    let _ = run_decode(); // warm-up
    let (decode_secs, decoded) = run_decode();

    // ---- track-only: mobility tracker over decoded tuples --------------
    let tuples = w.tuples();
    let run_track = || {
        let mut tracker = MobilityTracker::new(TrackerParams::default());
        let mut out = Vec::new();
        let t0 = Instant::now();
        tracker.process_batch_into(tuples.iter(), &mut out);
        let critical = out.len() + tracker.finish().len();
        (t0.elapsed().as_secs_f64(), critical)
    };
    let _ = run_track();
    let (track_secs, track_critical) = run_track();

    // ---- end-to-end: serial windowed run (the EXPERIMENTS.md baseline) -
    let spec = WindowSpec::new(Duration::hours(1), Duration::minutes(30)).unwrap();
    let run_e2e = || {
        let mut wt = WindowedTracker::new(TrackerParams::default(), spec);
        let t0 = Instant::now();
        let mut critical = 0usize;
        for batch in SlideBatches::new(w.stream.iter().cloned(), spec, Timestamp::ZERO) {
            let tuples: Vec<PositionTuple> = batch.items.into_iter().map(|(_, t)| t).collect();
            critical += wt.slide(batch.query_time, &tuples).fresh_critical.len();
        }
        critical += wt.finish().0.len();
        (t0.elapsed().as_secs_f64(), critical)
    };
    let _ = run_e2e();
    let (e2e_secs, e2e_critical) = run_e2e();

    let mut table = TextTable::new(&["leg", "items", "total (s)", "pos/s"]);
    table.row(vec![
        "decode".to_string(),
        format!("{} sentences", reports.len()),
        format!("{decode_secs:.3}"),
        format!("{:.0}", decoded as f64 / decode_secs),
    ]);
    table.row(vec![
        "track".to_string(),
        format!("{} critical", track_critical),
        format!("{track_secs:.3}"),
        format!("{:.0}", positions / track_secs),
    ]);
    table.row(vec![
        "e2e".to_string(),
        format!("{} critical", e2e_critical),
        format!("{e2e_secs:.3}"),
        format!("{:.0}", positions / e2e_secs),
    ]);
    println!("{}", table.render());
    println!("expected shape: decode and track each run well above the e2e rate
(the e2e leg pays for both plus windowing); the critical-point counts are
workload invariants, so any drift there is a correctness bug, not noise.
");

    save_json(
        "hotpath",
        &serde_json::json!({
            "scale": scale_label,
            "positions": w.stream.len(),
            "decode": {
                "sentences": reports.len(),
                "accepted": decoded,
                "secs": decode_secs,
                "pos_per_sec": decoded as f64 / decode_secs,
            },
            "track": {
                "critical": track_critical,
                "secs": track_secs,
                "pos_per_sec": positions / track_secs,
            },
            "e2e": {
                "critical": e2e_critical,
                "secs": e2e_secs,
                "pos_per_sec": positions / e2e_secs,
            },
        }),
    );
}

/// Extension: raw-speed measurement of the CE recognition stage — the
/// trajectory entry behind the `BENCH_recognition.json` perf gate, the
/// recognition counterpart of [`hotpath`]. All legs replay the Figure 11
/// geometry (ω = 6 h, β = 1 h) as a streaming run: events are fed up to
/// each query time, then the window is recognized — the cadence an online
/// pipeline runs at.
///
/// * **ondemand / facts** — the Figure 11(a)/(b) spatial ablation,
///   each measured from scratch and incrementally;
/// * **bands1/2/4** — the Figure 11 parallel axis: longitude-band
///   partitioned recognition over balanced quantile boundaries.
///
/// Every leg reports an exact CE count next to its throughput; the perf
/// gate pins those counts, so a speedup that changes recognition output
/// fails CI even if it is faster.
fn recognition(w: &Workload, scale: Scale) {
    use maritime_cer::EvalStrategy;

    println!("== Recognition hot path: CE stage throughput ==");
    let scale_label = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    };
    // In-order replay, as in the `incremental` experiment: the tracker
    // stamps a few MEs retroactively, and feeding those after a query is
    // a genuine late arrival that would force uninformative fallbacks.
    let mut me_stream = w.me_stream(TrackerParams::default());
    me_stream.sort_by_key(|(t, _)| *t);
    let mes = me_stream.len();
    println!(
        "  ME stream: {mes} critical movement events from {} raw positions",
        w.stream.len()
    );
    let spec = WindowSpec::new(Duration::hours(6), Duration::hours(1)).unwrap();
    let span_end = Timestamp::ZERO + w.span();
    let queries = spec.query_times(Timestamp::ZERO, span_end);

    // Per-leg passes are a few tens of milliseconds, where scheduler noise
    // swings a single measurement by ±40%. Each leg therefore runs one
    // warm-up pass plus `FIG_REPS` timed passes (default 5) and reports
    // the fastest — the standard minimum-of-N estimator for the leg's
    // noise-free cost. The CE count must be identical across passes.
    let reps: usize = std::env::var("FIG_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    let best_of = move |run: &dyn Fn() -> (f64, usize)| {
        let _ = run(); // warm-up
        let (mut best, ces) = run();
        for _ in 1..reps {
            let (secs, c) = run();
            assert_eq!(c, ces, "CE count varied across timed passes");
            best = best.min(secs);
        }
        (best, ces)
    };

    // Streaming single-engine leg.
    let serial = |mode: SpatialMode, strategy: EvalStrategy| {
        let events = match mode {
            SpatialMode::Precomputed => {
                let kb = Knowledge::standard(w.vessels.iter().copied(), w.areas.clone());
                let mut annotated = me_stream.clone();
                spatial::annotate_with_spatial_facts(&mut annotated, &kb);
                annotated
            }
            _ => me_stream.clone(),
        };
        let run = || {
            let kb =
                Knowledge::new(w.vessels.iter().copied(), w.areas.clone(), 2_000.0, mode);
            let mut recognizer = MaritimeRecognizer::with_strategy(kb, spec, strategy);
            let mut fed = 0usize;
            let mut ces = 0usize;
            let t0 = Instant::now();
            for q in &queries {
                while fed < events.len() && events[fed].0 <= *q {
                    recognizer.add_events([events[fed].clone()]);
                    fed += 1;
                }
                ces += recognizer.recognize_and_summarize(*q).ce_count;
            }
            (t0.elapsed().as_secs_f64(), ces)
        };
        best_of(&run)
    };

    // Partitioned leg: n longitude bands over the whole stream, the
    // Figure 11 two-processor axis extended to four.
    let banded = |n: usize| {
        let partitioner = partition::GeoPartitioner::balanced(n, &me_stream);
        let run = || {
            let t0 = Instant::now();
            let merged = partition::recognize_partitioned(
                &partitioner,
                &w.vessels,
                &w.areas,
                &me_stream,
                spec,
                &queries,
                SpatialMode::OnDemand,
            );
            let ces: usize = merged.iter().map(partition::MergedSummary::ce_count).sum();
            (t0.elapsed().as_secs_f64(), ces)
        };
        best_of(&run)
    };

    let legs: Vec<(&str, f64, usize)> = vec![
        {
            let (s, c) = serial(SpatialMode::OnDemand, EvalStrategy::FromScratch);
            ("ondemand_scratch", s, c)
        },
        {
            let (s, c) = serial(SpatialMode::OnDemand, EvalStrategy::Incremental);
            ("ondemand_incremental", s, c)
        },
        {
            let (s, c) = serial(SpatialMode::Precomputed, EvalStrategy::FromScratch);
            ("facts_scratch", s, c)
        },
        {
            let (s, c) = serial(SpatialMode::Precomputed, EvalStrategy::Incremental);
            ("facts_incremental", s, c)
        },
        {
            let (s, c) = banded(1);
            ("bands1", s, c)
        },
        {
            let (s, c) = banded(2);
            ("bands2", s, c)
        },
        {
            let (s, c) = banded(4);
            ("bands4", s, c)
        },
    ];

    let mut table = TextTable::new(&["leg", "CEs", "total (s)", "ms/query", "ME/s"]);
    let mut json_legs: Vec<(String, serde_json::Value)> = Vec::new();
    for (name, secs, ces) in &legs {
        table.row(vec![
            (*name).to_string(),
            ces.to_string(),
            format!("{secs:.3}"),
            format!("{:.3}", secs / queries.len().max(1) as f64 * 1_000.0),
            format!("{:.0}", mes as f64 / secs),
        ]);
        json_legs.push((
            (*name).to_string(),
            serde_json::json!({
                "ce_count": ces,
                "secs": secs,
                "me_per_sec": mes as f64 / secs,
            }),
        ));
    }
    println!("{}", table.render());
    println!("expected shape: incremental beats from-scratch at this overlap (ω ≫ β);\nprecomputed facts beat on-demand; bands scale like Figure 11's processors.\nThe CE counts are workload invariants pinned by the perf gate.\n");

    save_json(
        "recognition",
        &serde_json::json!({
            "scale": scale_label,
            "mes": mes,
            "queries": queries.len(),
            "legs": serde_json::Value::Object(json_legs),
        }),
    );
}

/// Partition-coordination scale table: the `CoordinatedRecognizer`
/// (sticky homes + migration, border-strip replication) streamed over
/// the Figure 11 geometry at 1/2/4 longitude bands, plus the cost of a
/// whole-fleet checkpoint/restore round trip mid-stream. One trajectory
/// entry behind the `BENCH_partition.json` perf gate.
///
/// The coordinator's merge is exact by construction, so every band
/// count must recognize the serial engine's CE count to the event —
/// asserted here and pinned by the gate (`ce_count` is an exact
/// invariant). Migration counts and checkpoint size are informational;
/// `me_per_sec` / `roundtrips_per_sec` are gated throughput floors.
fn partition_scale(w: &Workload, scale: Scale) {
    use maritime_cer::CoordinatedRecognizer;

    println!("== Partition coordination: migration + checkpoint scale ==");
    let scale_label = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    };
    let mut me_stream = w.me_stream(TrackerParams::default());
    me_stream.sort_by_key(|(t, _)| *t);
    let mes = me_stream.len();
    let spec = WindowSpec::new(Duration::hours(6), Duration::hours(1)).unwrap();
    let span_end = Timestamp::ZERO + w.span();
    let queries = spec.query_times(Timestamp::ZERO, span_end);

    let reps: usize = std::env::var("FIG_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    let best_of = move |run: &dyn Fn() -> (f64, usize, u64)| {
        let _ = run(); // warm-up
        let (mut best, ces, migrations) = run();
        for _ in 1..reps {
            let (secs, c, m) = run();
            assert_eq!(c, ces, "CE count varied across timed passes");
            assert_eq!(m, migrations, "migration count varied across timed passes");
            best = best.min(secs);
        }
        (best, ces, migrations)
    };

    let coord_leg = |n: usize| {
        let partitioner = partition::GeoPartitioner::balanced(n, &me_stream);
        let run = || {
            let mut coord = CoordinatedRecognizer::new(
                partitioner.clone(),
                &w.vessels,
                &w.areas,
                2_000.0,
                SpatialMode::OnDemand,
                spec,
            );
            let mut fed = 0usize;
            let mut ces = 0usize;
            let t0 = Instant::now();
            for q in &queries {
                while fed < me_stream.len() && me_stream[fed].0 <= *q {
                    coord.add_events([me_stream[fed].clone()]);
                    fed += 1;
                }
                ces += coord.recognize_and_summarize(*q).ce_count;
            }
            (t0.elapsed().as_secs_f64(), ces, coord.migrations())
        };
        best_of(&run)
    };

    let legs: Vec<(String, f64, usize, u64)> = [1usize, 2, 4]
        .iter()
        .map(|&n| {
            let (secs, ces, migrations) = coord_leg(n);
            (format!("coord{n}"), secs, ces, migrations)
        })
        .collect();
    let serial_ces = legs[0].2;
    for (name, _, ces, _) in &legs {
        assert_eq!(
            *ces, serial_ces,
            "{name}: partitioned CE count diverged from 1-band — the merge is no longer exact"
        );
    }

    // Checkpoint round trip on the hardest configuration (4 bands), taken
    // mid-stream so the bytes carry real window state.
    let (ckpt_bytes, roundtrips_per_sec) = {
        let partitioner = partition::GeoPartitioner::balanced(4, &me_stream);
        let mut coord = CoordinatedRecognizer::new(
            partitioner,
            &w.vessels,
            &w.areas,
            2_000.0,
            SpatialMode::OnDemand,
            spec,
        );
        let half = &queries[..queries.len().div_ceil(2)];
        let mut fed = 0usize;
        for q in half {
            while fed < me_stream.len() && me_stream[fed].0 <= *q {
                coord.add_events([me_stream[fed].clone()]);
                fed += 1;
            }
            coord.recognize_and_summarize(*q);
        }
        let bytes = coord.checkpoint();
        const ROUNDS: usize = 20;
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            let b = coord.checkpoint();
            coord = CoordinatedRecognizer::restore(&w.vessels, &w.areas, &b)
                .expect("mid-stream checkpoint restores");
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(coord.checkpoint(), bytes, "restore drifted from the original state");
        (bytes.len(), ROUNDS as f64 / secs)
    };

    let mut table =
        TextTable::new(&["leg", "CEs", "migrations", "total (s)", "ms/query", "ME/s"]);
    let mut json_legs: Vec<(String, serde_json::Value)> = Vec::new();
    for (name, secs, ces, migrations) in &legs {
        table.row(vec![
            name.clone(),
            ces.to_string(),
            migrations.to_string(),
            format!("{secs:.3}"),
            format!("{:.3}", secs / queries.len().max(1) as f64 * 1_000.0),
            format!("{:.0}", mes as f64 / secs),
        ]);
        json_legs.push((
            name.clone(),
            serde_json::json!({
                "ce_count": ces,
                "migrations": migrations,
                "secs": secs,
                "me_per_sec": mes as f64 / secs,
            }),
        ));
    }
    json_legs.push((
        "ckpt".to_string(),
        serde_json::json!({
            "bytes": ckpt_bytes,
            "roundtrips_per_sec": roundtrips_per_sec,
        }),
    ));
    println!("{}", table.render());
    println!(
        "checkpoint: {ckpt_bytes} bytes at 4 bands mid-stream, {roundtrips_per_sec:.0} \
         checkpoint+restore round trips/s"
    );
    println!(
        "expected shape: CE counts identical at every band count (the merge is exact);\n\
         migrations grow with bands; per-query cost amortizes the handoffs.\n"
    );

    save_json(
        "partition",
        &serde_json::json!({
            "scale": scale_label,
            "mes": mes,
            "queries": queries.len(),
            "legs": serde_json::Value::Object(json_legs),
        }),
    );
}

/// Sustained live-ingestion throughput: the `surveil serve` driver path
/// (source mux → admission buffer → data scanner → live batcher →
/// pipeline → wire encoder) driven from raw NMEA lines as fast as one
/// thread can push them. This is the serve counterpart of `hotpath`:
/// where `hotpath` times the batch legs in isolation, `ingest` times the
/// resident server's whole per-line cost, sockets excluded.
///
/// Lines round-robin over three sources, and a slice of them is
/// re-offered on a second source to exercise the cross-source duplicate
/// suppression the server runs on every sentence. The wire event count
/// must be identical across timed passes — a throughput number that
/// changed recognition output is a bug, not a speedup.
fn ingest(scale: Scale) {
    use maritime::serve::LiveIngest;
    use maritime_chaos::demo_sentences;
    use maritime_stream::SourceId;

    println!("== Live ingestion: `surveil serve` driver-path throughput ==");
    let (scale_label, vessels_n, hours) = match scale {
        Scale::Small => ("small", 30, 8),
        Scale::Medium => ("medium", 40, 12),
        Scale::Large => ("large", 80, 24),
    };
    let (lines, vessels) = demo_sentences(0xC4A05, vessels_n, hours);
    let areas = generate_areas(&AreaGenConfig::default());
    // The serve end-to-end test's windows: fast enough that the log
    // crosses several recognition queries and emits CEs on the wire.
    let config = SurveillanceConfig {
        tracking_window: WindowSpec::new(Duration::minutes(30), Duration::minutes(5)).unwrap(),
        recognition_window: WindowSpec::new(Duration::hours(2), Duration::minutes(30)).unwrap(),
        ..SurveillanceConfig::default()
    };
    println!(
        "  demo log: {} sentences, {} vessels over {hours} h",
        lines.len(),
        vessels.len()
    );

    // Every 64th line is re-offered on another source: two receivers
    // relaying the same transponder, the dedup window's everyday case.
    let run = || {
        let mut live = LiveIngest::new(
            &config,
            vessels.clone(),
            areas.clone(),
            Duration::secs(120),
            Duration::secs(10),
        )
        .expect("serve config validates");
        let mut events = 0usize;
        let t0 = Instant::now();
        for (i, (t, line)) in lines.iter().enumerate() {
            let src = SourceId((i % 3) as u32);
            events += live.push_line(src, Timestamp(*t), line).len();
            if i % 64 == 0 {
                events += live.push_line(SourceId(3), Timestamp(*t), line).len();
            }
        }
        events += live.flush().len();
        let secs = t0.elapsed().as_secs_f64();
        (secs, events, live.stats())
    };

    let reps: usize = std::env::var("FIG_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    let _ = run(); // warm-up
    let (mut best, events, stats) = run();
    for _ in 1..reps {
        let (secs, e, _) = run();
        assert_eq!(e, events, "wire event count varied across timed passes");
        best = best.min(secs);
    }

    let fed = stats.lines;
    let lps = fed as f64 / best;
    let mut table = TextTable::new(&["fed", "accepted", "deduped", "wire events", "CEs", "total (s)", "lines/s"]);
    table.row(vec![
        fed.to_string(),
        stats.accepted.to_string(),
        stats.duplicates.to_string(),
        events.to_string(),
        stats.ce_total.to_string(),
        format!("{best:.3}"),
        format!("{lps:.0}"),
    ]);
    println!("{}", table.render());
    println!("expected shape: sustained lines/s far above any real AIS receiver's\nrate (the demo fleet averages a few lines/s of wall-clock time); every\nre-offered duplicate is dropped by the mux, and the wire event count is\na workload invariant across passes.\n");

    save_json(
        "ingest",
        &serde_json::json!({
            "scale": scale_label,
            "lines_fed": fed,
            "accepted": stats.accepted,
            "duplicates": stats.duplicates,
            "wire_events": events,
            "ce_count": stats.ce_total,
            "secs": best,
            "lines_per_sec": lps,
        }),
    );
}

/// Telemetry overhead: the `ingest` driver path with and without the
/// serve telemetry machinery running against it — a background sampler
/// snapshotting the whole registry into a `SampleRing`, evaluating the
/// SLO health engine, and bumping labeled family counters, at a 50 ms
/// cadence (40x the production 2 s default, so the measured cost
/// generously bounds the deployed one). The sampler runs off the driver
/// thread by design; the assertion here is that it stays that way:
/// the sampled leg must keep ≥ 99% of the quiet leg's throughput.
fn telemetry(scale: Scale) {
    use maritime::serve::{HealthEngine, LiveIngest, SloThresholds};
    use maritime_chaos::demo_sentences;
    use maritime_obs::timeseries::SampleRing;
    use maritime_obs::{names, MetricsRegistry};
    use maritime_stream::SourceId;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    println!("== Telemetry overhead: sampler + health engine vs the quiet driver path ==");
    let (scale_label, vessels_n, hours) = match scale {
        Scale::Small => ("small", 30, 8),
        Scale::Medium => ("medium", 40, 12),
        Scale::Large => ("large", 80, 24),
    };
    let (lines, vessels) = demo_sentences(0xC4A05, vessels_n, hours);
    let areas = generate_areas(&AreaGenConfig::default());
    let config = SurveillanceConfig {
        tracking_window: WindowSpec::new(Duration::minutes(30), Duration::minutes(5)).unwrap(),
        recognition_window: WindowSpec::new(Duration::hours(2), Duration::minutes(30)).unwrap(),
        ..SurveillanceConfig::default()
    };
    println!(
        "  demo log: {} sentences, {} vessels over {hours} h; sampler at 50 ms",
        lines.len(),
        vessels.len()
    );

    // The same per-line work as the `ingest` leg.
    let drive = || {
        let mut live = LiveIngest::new(
            &config,
            vessels.clone(),
            areas.clone(),
            Duration::secs(120),
            Duration::secs(10),
        )
        .expect("serve config validates");
        let mut events = 0usize;
        let t0 = Instant::now();
        for (i, (t, line)) in lines.iter().enumerate() {
            let src = SourceId((i % 3) as u32);
            events += live.push_line(src, Timestamp(*t), line).len();
        }
        events += live.flush().len();
        (t0.elapsed().as_secs_f64(), events, live.stats().ce_total)
    };

    // The serve sampler's tick, off-thread: full-registry snapshot into
    // the ring, SLO evaluation over the last two samples, and the
    // per-source family mirroring (four cached labeled counters).
    let sampled_run = |drive: &dyn Fn() -> (f64, usize, u64)| {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let ring = SampleRing::new(256);
            let mut engine = HealthEngine::new(SloThresholds::default());
            let registry = MetricsRegistry::global();
            let mirrored = [
                registry.labeled_counter(&names::SERVE_SOURCE_LINES, "bench"),
                registry.labeled_counter(&names::SERVE_SOURCE_ACCEPTED, "bench"),
                registry.labeled_counter(&names::SERVE_SOURCE_FILTERED, "bench"),
                registry.labeled_counter(&names::SERVE_SOURCE_DUPLICATES, "bench"),
            ];
            let mut prev = None;
            let mut ticks = 0u64;
            while !flag.load(Ordering::Relaxed) {
                for counter in &mirrored {
                    counter.add(1);
                }
                ring.record(maritime_obs::snapshot());
                let cur = ring.latest().expect("just recorded");
                if let Some(prev) = prev.replace(Arc::clone(&cur)) {
                    let _ = engine.evaluate(&prev, &cur);
                }
                ticks += 1;
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            ticks
        });
        let result = drive();
        stop.store(true, Ordering::Relaxed);
        let ticks = sampler.join().expect("sampler thread");
        (result, ticks)
    };

    let reps: usize = std::env::var("FIG_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    // Interleave the legs so slow machine drift hits both equally.
    let _ = drive(); // warm-up
    let (mut quiet_best, events, ces) = drive();
    let ((mut sampled_best, e, c), mut ticks) = sampled_run(&drive);
    assert_eq!((e, c), (events, ces), "telemetry must not change output");
    for _ in 1..reps {
        let (secs, e, c) = drive();
        assert_eq!((e, c), (events, ces), "wire output varied across passes");
        quiet_best = quiet_best.min(secs);
        let ((secs, e, c), t) = sampled_run(&drive);
        assert_eq!((e, c), (events, ces), "telemetry must not change output");
        sampled_best = sampled_best.min(secs);
        ticks = ticks.max(t);
    }

    let fed = lines.len() as f64;
    let quiet_lps = fed / quiet_best;
    let sampled_lps = fed / sampled_best;
    let overhead_pct = (1.0 - sampled_lps / quiet_lps) * 100.0;
    let mut table = TextTable::new(&["leg", "total (s)", "lines/s", "overhead"]);
    table.row(vec![
        "quiet".to_string(),
        format!("{quiet_best:.3}"),
        format!("{quiet_lps:.0}"),
        "—".to_string(),
    ]);
    table.row(vec![
        "sampled".to_string(),
        format!("{sampled_best:.3}"),
        format!("{sampled_lps:.0}"),
        format!("{overhead_pct:.2}%"),
    ]);
    println!("{}", table.render());
    println!("  ({ticks} sampler ticks in the longest sampled pass)");
    println!("expected shape: the sampler runs off the driver thread, so the sampled\nleg keeps ≥ 99% of quiet throughput even at a 40x-production cadence.\n");
    assert!(
        overhead_pct < 1.0,
        "telemetry overhead {overhead_pct:.2}% breaches the 1% budget \
         (quiet {quiet_lps:.0} lines/s, sampled {sampled_lps:.0} lines/s)"
    );

    save_json(
        "telemetry",
        &serde_json::json!({
            "scale": scale_label,
            "lines_fed": lines.len(),
            "ce_count": ces,
            "sampler_ticks": ticks,
            "overhead_pct": overhead_pct,
            "quiet": { "secs": quiet_best, "lines_per_sec": quiet_lps },
            "sampled": { "secs": sampled_best, "lines_per_sec": sampled_lps },
        }),
    );
}
