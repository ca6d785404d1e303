//! `wirebench`: the wire-to-alert benchmark of `surveil serve`.
//!
//! ```text
//! wirebench --surveil PATH --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! wirebench --compare RESULT.json...
//! ```
//!
//! One run generates a workload's fleet from the seed, computes the
//! batch reference and a closed-loop `LiveIngest` replay in process,
//! times the server's set-up, then streams the fleet into a real
//! `surveil serve` process on an open-loop schedule and reads every wire
//! event back on one subscriber. The subscriber's bytes must equal the
//! batch reference. `--trace 1` adds the in-process traced composition
//! and reports per-layer metrics instead of end-to-end ones.
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`
//! (expected recognition queries), `failed` (queries missing, wrong or
//! later than the lag limit) and `metrics`. Details and provenance go to
//! stderr and to `.wirebench/results/`. `README.md` explains each metric
//! and workload.

mod compare;
mod procfs;
mod provenance;
mod reference;
mod serve;
mod stats;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use reference::{is_query, PathSetup};
use workloads::Workload;

/// A query whose alert arrives later than this after its due line is
/// failed: the server's `--slo-max-lag-ms` default.
const MAX_LAG_MS: f64 = 5_000.0;

/// A run whose generator started writing its lines later than this (p90)
/// while the server was not pushing back is invalid: the benchmark, not
/// the program, fell behind.
const MAX_GEN_LAG_MS: f64 = 20.0;

/// Server spawns timed per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;

/// Closed-loop replays in a traced run; `replay.lines_per_s` counts the
/// fastest of them on each segment.
const REPLAYS: usize = 3;

/// Where run artefacts (fleet files, checkpoints, traces, results) go,
/// relative to the checkout root.
const OUT_DIR: &str = ".wirebench";

struct Args {
    surveil: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut surveil = None;
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--surveil" => surveil = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        surveil: surveil.ok_or("--surveil PATH is required")?,
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let files: Vec<PathBuf> = argv[1..].iter().map(PathBuf::from).collect();
        match compare::run(&files) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("wirebench: {e}");
                std::process::exit(1);
            }
        }
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wirebench: {e}");
        std::process::exit(2);
    });
    serve::start_watchdog(Duration::from_secs(170));
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            serve::kill_all();
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

/// One metric as reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = measure(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let (outcome, details) = result?;
    let results = out.join("results");
    let _ = std::fs::create_dir_all(&results);
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&file, format!("{details}\n"));
    eprintln!("wirebench: details in {}", file.display());
    Ok(outcome)
}

fn measure(args: &Args, scratch: &std::path::Path) -> Result<(Outcome, String), String> {
    let w = args.workload;
    let host = provenance::Provenance::collect(args.seed, w);
    eprintln!("wirebench: {}", host.summary());

    let clock = std::time::Instant::now();
    let phase = |name: &str| {
        eprintln!(
            "wirebench: {name} done at {:.1} s",
            clock.elapsed().as_secs_f64()
        )
    };
    let stream = w.generate(args.seed, args.seconds);
    phase("generate");
    let lines = &stream.lines;
    let fleet_file = scratch.join("fleet.json");
    std::fs::write(&fleet_file, workloads::fleet_json(&stream.vessels))
        .map_err(|e| format!("{}: {e}", fleet_file.display()))?;
    let mut flags = w.pipeline_flags();
    flags.push("--fleet".into());
    flags.push(fleet_file.display().to_string());
    let setup = PathSetup::from_flags(&flags, stream.vessels.clone())?;

    let reference = reference::batch_events(&setup, lines);
    let expected_queries = reference.iter().filter(|e| is_query(e)).count();
    let expected_ces = ce_total(&reference);
    phase("batch reference");
    // The dry run: attributes each query to its trigger line.
    let replay = reference::replay(&setup, lines);
    phase("replay");
    let mut problems = Vec::new();
    if replay.events != reference {
        problems.push("in-process LiveIngest replay differs from the batch reference".to_string());
    }
    eprintln!(
        "wirebench: {} lines, {} queries, {} CEs",
        lines.len(),
        expected_queries,
        expected_ces
    );

    // Set-up time: spawn to an accepted subscriber, several times.
    let ckpt_dir = |k: usize| w.checkpoint.then(|| scratch.join(format!("ckpt-{k}")));
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    for k in 1..SETUP_PROBES {
        setups.push(serve::probe_setup(&args.surveil, &flags, ckpt_dir(k))?.as_secs_f64());
    }
    phase("set-up probes");

    // The measured run.
    let (run, log) = measured_run(args, &flags, ckpt_dir(0), lines, &mut setups)?;
    phase("open-loop run");

    // Correctness: byte equality, then per-query latency.
    let (failed, latencies) = judge(w, &reference, &replay.triggers, &run, &mut problems);
    let got_ces = ce_total(&run.events);
    if got_ces != expected_ces {
        problems.push(format!("CE count {got_ces} != reference {expected_ces}"));
    }
    let got_queries = run.query_arrivals.len();
    if got_queries != expected_queries {
        problems.push(format!(
            "query count {got_queries} != reference {expected_queries}"
        ));
    }

    let lag_ms: Vec<f64> = run.lag_us.iter().map(|&us| f64::from(us) / 1e3).collect();
    let gen_lag_p90 = stats::percentile(&lag_ms, 90).unwrap_or(0.0);
    let blocked_ms = run.blocked.as_secs_f64() * 1e3;
    let wall = run.wall.as_secs_f64();
    if gen_lag_p90 > MAX_GEN_LAG_MS && blocked_ms / 1e3 < 0.1 * wall {
        problems.push(format!(
            "invalid run: the generator fell behind (lag p90 {gen_lag_p90:.1} ms > \
             {MAX_GEN_LAG_MS} ms) without server backpressure"
        ));
    }

    let n_lat = latencies.len();
    let tail = stats::tail_percentile(n_lat, 90).unwrap_or(50);
    let p50 = stats::median(&latencies).unwrap_or(0.0);
    let p_tail = stats::percentile(&latencies, tail).unwrap_or(0.0);
    let cpu_us_per_line = run.cpu_secs * 1e6 / lines.len() as f64;
    let setup_s = stats::median(&setups).unwrap_or(0.0);
    eprintln!(
        "wirebench: latency p50 {p50:.2} ms (n={n_lat}), p{tail} {p_tail:.2} ms (n={} beyond); \
         cpu {cpu_us_per_line:.3} us/line; rss {:.1} MB; setup {:.1} ms (n={}); \
         gen lag p90 {gen_lag_p90:.2} ms, blocked {blocked_ms:.0} ms; ops lines {}; \
         host steal {:.1}%",
        n_lat - stats::nearest_rank(n_lat, tail),
        run.peak_rss_mb,
        setup_s * 1e3,
        setups.len(),
        run.ops_lines,
        run.steal_share * 100.0,
    );

    let mut metrics = Vec::new();
    let mut push = |name, value, unit| metrics.push(Metric { name, value, unit });
    let mut trace_file = None;
    if args.trace {
        // Two more replays: the replay rate counts each segment's fastest.
        let mut segments = vec![replay.segments.clone()];
        for _ in 1..REPLAYS {
            segments.push(reference::replay(&setup, lines).segments);
        }
        let replay_rate = reference::fastest_segments_rate(lines.len(), &segments);
        let traced = traced::run(&setup, lines, w, &reference, &replay, args.seed)?;
        problems.extend(traced.problems.iter().cloned());
        push("alert_latency_p50_ms", p50, "ms");
        push("alert_latency_p90_ms", p_tail, "ms");
        push("replay.lines_per_s", replay_rate, "lines/s");
        push(
            "serve.transport_us_per_line",
            cpu_us_per_line - 1e6 / replay_rate,
            "us",
        );
        push(
            "serve.reader.busy_ratio",
            run.reader_cpu_secs / wall,
            "ratio",
        );
        push(
            "serve.driver.busy_ratio",
            run.driver_cpu_secs / wall,
            "ratio",
        );
        for &(name, value, unit) in &traced.metrics {
            push(name, value, unit);
        }
        push("gen.lag_ms_p90", gen_lag_p90, "ms");
        push("gen.blocked_ms", blocked_ms, "ms");
        trace_file = Some(traced.trace_file);
    } else {
        push("cpu_us_per_line", cpu_us_per_line, "us");
        push("peak_rss_mb", run.peak_rss_mb, "MB");
        push("setup_s", setup_s, "s");
    }
    for p in &problems {
        eprintln!("wirebench: FAIL {p}");
    }
    if !log.is_empty() {
        eprint!("{log}");
    }

    let outcome = Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted: expected_queries.max(1),
        failed,
        metrics,
    };
    let details = format!(
        "{{\"provenance\": {}, \"workload\": \"{}\", \"trace\": {}, \"lines\": {}, \
         \"queries\": {expected_queries}, \"latency_samples\": {n_lat}, \"tail_percentile\": {tail}, \
         \"alert_latency_p50_ms\": {}, \"alert_latency_tail_ms\": {}, \
         \"setup_samples\": {}, \"gen_lag_ms_p90\": {}, \"gen_blocked_ms\": {}, \"steal_share\": {}, \
         \"problems\": [{}], \"trace_file\": {:?}, \"result\": {}}}",
        host.json(),
        w.name,
        args.trace,
        lines.len(),
        json_number(p50),
        json_number(p_tail),
        setups.len(),
        json_number(gen_lag_p90),
        json_number(blocked_ms),
        json_number(run.steal_share),
        problems
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<Vec<_>>()
            .join(", "),
        trace_file.map_or_else(String::new, |f| f.display().to_string()),
        outcome.result_line(),
    );
    Ok((outcome, details))
}

/// Spawns the server, streams the lines into it and reads every event
/// back; adds the spawn-to-subscriber time to `setups`. Returns the run
/// and the server's stderr.
fn measured_run(
    args: &Args,
    flags: &[String],
    checkpoint_dir: Option<PathBuf>,
    lines: &[maritime_chaos::StreamLine],
    setups: &mut Vec<f64>,
) -> Result<(serve::WireRun, String), String> {
    let server = serve::Server::spawn(&args.surveil, flags, checkpoint_dir)?;
    let (sub, ready) = server.connect_subscriber()?;
    setups.push((ready - server.spawned).as_secs_f64());
    let run = server
        .wait_subscribers(1)
        .and_then(|()| server.connect_feed())
        .map(|feed| {
            let run = serve::open_loop(&server, &feed, sub, lines, f64::from(args.workload.rate));
            (run, feed)
        });
    let (run, log) = match run {
        Ok((run, feed)) => (run, server.stop(Some(feed))),
        Err(e) => {
            let log = server.stop(None);
            return Err(format!("{e}\nserver log:\n{log}"));
        }
    };
    let run = run.map_err(|e| format!("{e}\nserver log:\n{log}"))?;
    Ok((run, log))
}

/// Compares the subscriber's events with the reference and computes each
/// query's latency: from the due send time of the line that completed it
/// to the arrival of its `query` event. Returns the failed-query count
/// and the latencies (ms) of the queries that passed.
fn judge(
    w: &Workload,
    reference: &[String],
    triggers: &[usize],
    run: &serve::WireRun,
    problems: &mut Vec<String>,
) -> (usize, Vec<f64>) {
    if run.events != reference {
        let at = run
            .events
            .iter()
            .zip(reference)
            .position(|(a, b)| a != b)
            .unwrap_or(run.events.len().min(reference.len()));
        problems.push(format!(
            "wire output differs from the batch reference at event {at} \
             ({} received, {} expected)",
            run.events.len(),
            reference.len()
        ));
    }
    // Group each side's events by query: a query's alerts precede it.
    let groups = |events: &[String]| -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        for e in events {
            cur.push(e.clone());
            if is_query(e) {
                out.push(std::mem::take(&mut cur));
            }
        }
        out
    };
    let want = groups(reference);
    let got = groups(&run.events);
    let mut failed = 0;
    let mut latencies = Vec::with_capacity(want.len());
    for (j, expected) in want.iter().enumerate() {
        let (Some(received), Some(arrival), Some(&trigger)) =
            (got.get(j), run.query_arrivals.get(j), triggers.get(j))
        else {
            failed += 1;
            continue;
        };
        let due = trigger as f64 / f64::from(w.rate);
        let latency_ms = (arrival.as_secs_f64() - due) * 1e3;
        if received != expected || latency_ms > MAX_LAG_MS {
            failed += 1;
            continue;
        }
        latencies.push(latency_ms);
    }
    (failed, latencies)
}

/// Total CEs over every `query` event (its `ce_count` field).
fn ce_total(events: &[String]) -> u64 {
    events
        .iter()
        .filter(|e| is_query(e))
        .filter_map(|e| {
            let rest = e.split_once("\"ce_count\":")?.1;
            rest[..rest.find(',')?].parse::<u64>().ok()
        })
        .sum()
}
