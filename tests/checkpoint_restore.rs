//! Kill/restore determinism (`ISSUE` satellite: checkpoint suite): run
//! the pipeline to time T, serialize every partition engine, drop them,
//! restore into fresh engines, continue — the recognized-CE stream must
//! be byte-identical to an uninterrupted run, under both evaluation
//! strategies and several band counts, at hand-picked and at random kill
//! points. A serve leg proves the resident server's `--checkpoint-dir`
//! restore-on-boot path carries recognition state across a restart.

use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration as StdDuration, Instant};

use maritime::serve::{self, ServeOptions, WireEncoder};
use maritime::{SurveillanceConfig, SurveillancePipeline};
use maritime_ais::{DataScanner, PositionTuple};
use maritime_cer::VesselInfo;
use maritime_chaos::{demo_sentences, StreamLine};
use maritime_geo::aegean::{generate_areas, AreaGenConfig};
use maritime_geo::Area;
use maritime_rtec::CkptError;
use maritime_stream::{AdmissionBuffer, Duration, SlideBatches, Timestamp, WindowSpec};
use proptest::prelude::*;

/// The serve end-to-end world: badly behaved vessels whose stream raises
/// alerts as well as durative CEs.
fn world() -> &'static (Vec<StreamLine>, Vec<VesselInfo>) {
    static WORLD: OnceLock<(Vec<StreamLine>, Vec<VesselInfo>)> = OnceLock::new();
    WORLD.get_or_init(|| demo_sentences(0xC4A05, 30, 8))
}

fn areas() -> Vec<Area> {
    generate_areas(&AreaGenConfig::default())
}

/// Windows fast enough that 8 hours cross many recognition queries.
fn config(bands: usize, incremental: bool) -> SurveillanceConfig {
    let mut config = SurveillanceConfig {
        tracking_window: WindowSpec::new(Duration::minutes(30), Duration::minutes(5))
            .expect("valid tracking window"),
        recognition_window: WindowSpec::new(Duration::hours(2), Duration::minutes(30))
            .expect("valid recognition window"),
        incremental_recognition: incremental,
        ..SurveillanceConfig::default()
    };
    config.parallelism.recognition_bands = bands;
    config
}

/// Admission → decode, exactly the batch runner's preamble.
fn tuples(lines: &[StreamLine]) -> Vec<PositionTuple> {
    let mut admission: AdmissionBuffer<String> = AdmissionBuffer::new(Duration::secs(120));
    let mut scanner = DataScanner::new();
    let mut out: Vec<PositionTuple> = Vec::new();
    let drain = |scanner: &mut DataScanner,
                 out: &mut Vec<PositionTuple>,
                 batch: Vec<(Timestamp, String)>| {
        for (t, line) in batch {
            if let Some(tuple) = scanner.scan(&line, t) {
                out.push(tuple);
            }
        }
    };
    for (t, line) in lines {
        let released = admission.push(Timestamp(*t), line.clone());
        drain(&mut scanner, &mut out, released);
    }
    drain(&mut scanner, &mut out, admission.flush());
    out
}

/// Pre-sliced per-slide batches, mirroring `run_with_observer`'s batcher.
fn slide_batches(
    lines: &[StreamLine],
    cfg: &SurveillanceConfig,
) -> Vec<(Timestamp, Vec<PositionTuple>)> {
    let keyed = tuples(lines).into_iter().map(|t| (t.timestamp, t));
    SlideBatches::new(keyed, cfg.tracking_window, Timestamp::ZERO)
        .map(|b| (b.query_time, b.items.into_iter().map(|(_, t)| t).collect()))
        .collect()
}

/// Drives a fresh pipeline over the stream, producing the full wire event
/// sequence. Before every slide whose index is in `kills`: serialize the
/// recognition backend, drop it, restore from the bytes, and pin that the
/// restored backend re-checkpoints to identical bytes.
fn run_events(
    lines: &[StreamLine],
    vessels: &[VesselInfo],
    bands: usize,
    incremental: bool,
    kills: &[usize],
) -> Vec<String> {
    let cfg = config(bands, incremental);
    let mut pipeline =
        SurveillancePipeline::new(&cfg, vessels.to_vec(), areas()).expect("config validates");
    let mut encoder = WireEncoder::new();
    let mut events = Vec::new();
    let mut last_q = Timestamp::ZERO;
    for (i, (q, batch)) in slide_batches(lines, &cfg).iter().enumerate() {
        if kills.contains(&i) {
            let bytes = pipeline.checkpoint_recognizer();
            pipeline.restore_recognizer(&bytes).expect("restore from own checkpoint");
            assert_eq!(
                pipeline.checkpoint_recognizer(),
                bytes,
                "restored backend must re-checkpoint byte-identically \
                 (bands={bands} incremental={incremental} slide={i})"
            );
        }
        let outcome = pipeline.slide(*q, batch);
        events.extend(encoder.encode_outcome(&outcome));
        last_q = *q;
    }
    let final_outcome = pipeline.finish(last_q);
    events.extend(encoder.encode_outcome(&final_outcome));
    events
}

#[test]
fn kill_restore_is_byte_identical_across_bands_and_strategies() {
    let (lines, vessels) = world();
    let n = slide_batches(lines, &config(1, false)).len();
    assert!(n > 10, "world too small to place early/mid/late kills: {n} slides");
    // Early (before the first recognition boundary), mid-run, and on the
    // very last slide.
    let kills = [2, n / 2, n - 1];
    for bands in [1usize, 2, 4] {
        for incremental in [false, true] {
            let base = run_events(lines, vessels, bands, incremental, &[]);
            assert!(!base.is_empty(), "uninterrupted run produced no events");
            let got = run_events(lines, vessels, bands, incremental, &kills);
            assert_eq!(
                got, base,
                "kill/restore changed recognition (bands={bands} incremental={incremental})"
            );
        }
    }
}

/// The smaller proptest world and its cached uninterrupted baselines
/// (index 0 = from-scratch, 1 = incremental), so every random case pays
/// for one interrupted run only.
fn small_world() -> &'static (Vec<StreamLine>, Vec<VesselInfo>) {
    static WORLD: OnceLock<(Vec<StreamLine>, Vec<VesselInfo>)> = OnceLock::new();
    WORLD.get_or_init(|| demo_sentences(0x5EED, 12, 4))
}

fn small_baseline(incremental: bool) -> &'static Vec<String> {
    static BASE: [OnceLock<Vec<String>>; 2] = [OnceLock::new(), OnceLock::new()];
    BASE[usize::from(incremental)].get_or_init(|| {
        let (lines, vessels) = small_world();
        run_events(lines, vessels, 2, incremental, &[])
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Crash-at-arbitrary-slide: a kill at ANY point of a 2-band run,
    /// under either strategy, never changes the wire event sequence.
    #[test]
    fn random_kill_points_never_change_output(kill in 0usize..1_000, incremental in any::<bool>()) {
        let (lines, vessels) = small_world();
        let n = slide_batches(lines, &config(2, incremental)).len();
        let got = run_events(lines, vessels, 2, incremental, &[kill % n]);
        prop_assert_eq!(&got, small_baseline(incremental), "kill at slide {}", kill % n);
    }
}

/// A checkpoint carries its recognizer's band boundaries, window,
/// strategy, spatial mode and close threshold; a pipeline configured
/// differently must refuse it rather than silently run the checkpoint's
/// configuration, and the refusal must leave the pipeline untouched.
#[test]
fn mismatched_checkpoints_are_rejected_on_restore() {
    let (lines, vessels) = small_world();
    let pipeline = |bands: usize, incremental: bool| {
        SurveillancePipeline::new(&config(bands, incremental), vessels.clone(), areas())
            .expect("config validates")
    };
    let mut source = pipeline(2, true);
    let batches = slide_batches(lines, &config(2, true));
    for (q, batch) in &batches[..batches.len() / 2] {
        source.slide(*q, batch);
    }
    let bytes = source.checkpoint_recognizer();

    for (bands, incremental) in [(1, true), (4, true), (2, false)] {
        let mut other = pipeline(bands, incremental);
        let before = other.checkpoint_recognizer();
        assert!(
            matches!(other.restore_recognizer(&bytes), Err(CkptError::Corrupt(_))),
            "a 2-band incremental checkpoint restored into bands={bands} \
             incremental={incremental}"
        );
        assert_eq!(other.checkpoint_recognizer(), before, "rejection changed the pipeline");
    }

    let mut same = pipeline(2, true);
    same.restore_recognizer(&bytes).expect("own configuration restores");
    assert_eq!(same.checkpoint_recognizer(), bytes);
}

fn feed_lines(addr: std::net::SocketAddr, lines: &[StreamLine]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("feed connects");
    let mut buf = String::new();
    for (t, line) in lines {
        buf.push_str(&format!("{t} {line}\n"));
    }
    stream.write_all(buf.as_bytes()).expect("feed writes");
    stream.flush().expect("feed flushes");
    stream
}

fn poll(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

#[test]
fn serve_restores_recognition_state_from_checkpoint_dir() {
    let (lines, vessels) = world();
    let dir = std::env::temp_dir().join(format!("maritime_serve_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = |vessels: Vec<VesselInfo>| ServeOptions {
        // Partitioned + incremental: the hardest backend to carry across
        // a restart.
        config: config(2, true),
        vessels,
        areas: areas(),
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..ServeOptions::default()
    };

    // First server: feed half the stream, let it slide, shut down (the
    // driver writes a final checkpoint on the way out).
    let handle = serve::start(options(vessels.clone())).expect("server starts");
    let split = lines.len() / 2;
    let _feed = feed_lines(handle.nmea_tcp.unwrap(), &lines[..split]);
    poll("first half to be ingested and queried", || {
        let s = handle.ingest_stats();
        s.lines == split as u64 && s.queries > 0
    });
    let before = handle.ingest_stats();
    handle.shutdown();
    handle.join();
    assert!(
        dir.join(serve::CHECKPOINT_FILE).exists(),
        "shutdown must leave a final checkpoint"
    );

    // Second server, same directory: boots from the checkpoint with the
    // first server's recognition state, then serves the rest.
    let handle = serve::start(options(vessels.clone())).expect("server restarts");
    let restored = handle.ingest_stats();
    assert_eq!(restored.lines, before.lines, "restored line count");
    assert_eq!(restored.accepted, before.accepted, "restored accepted count");
    assert_eq!(restored.queries, before.queries, "restored query count");
    assert_eq!(restored.ce_total, before.ce_total, "restored CE count");

    let mut feed = feed_lines(handle.nmea_tcp.unwrap(), &lines[split..]);
    feed.write_all(b"#flush\n").expect("flush control");
    feed.flush().expect("feed flush");
    poll("second half to be ingested and flushed", || {
        let s = handle.ingest_stats();
        s.lines == lines.len() as u64 && s.queries > before.queries
    });
    let after = handle.ingest_stats();
    assert!(
        after.ce_total >= before.ce_total,
        "recognition continued across the restart"
    );
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
