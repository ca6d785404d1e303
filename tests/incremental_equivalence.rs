//! Differential harness: checkpointed incremental recognition must be
//! observationally indistinguishable from from-scratch recognition.
//!
//! Every comparison here is *byte identical* under JSON serialization —
//! fluent intervals, alerts, CE counts, and working-memory sizes — not
//! merely equal counts. The schedules deliberately include the two
//! hazards of the checkpoint cache (`maritime_rtec::cache`):
//!
//! - **late arrivals**: an event timestamped at or before the previous
//!   query must force a full recompute and still produce identical
//!   output;
//! - **eviction retraction**: an open interval whose initiating events
//!   slide out of the window must be retracted from the cache exactly as
//!   from-scratch evaluation forgets it.
//!
//! A proptest replays random streams through geo-partitioned recognizers
//! at 1, 2, and 4 longitude bands, so band routing and the per-band
//! caches are exercised together.

use maritime::prelude::*;
use maritime_cer::RecognitionSummary;
use proptest::prelude::*;

fn t(v: i64) -> Timestamp {
    Timestamp(v)
}

fn spec_6h_1h() -> WindowSpec {
    WindowSpec::new(Duration::hours(6), Duration::hours(1)).unwrap()
}

/// The three-area world of the recognizer unit tests: a protected park,
/// a forbidden-fishing zone, and a shoal, spread across longitudes so
/// uniform bands separate them.
fn areas() -> Vec<Area> {
    vec![
        Area::new(
            AreaId(0),
            "park",
            AreaKind::Protected,
            Polygon::rectangle(GeoPoint::new(21.0, 37.0), GeoPoint::new(21.2, 37.2)),
        ),
        Area::new(
            AreaId(1),
            "no-fish",
            AreaKind::ForbiddenFishing,
            Polygon::rectangle(GeoPoint::new(24.0, 38.0), GeoPoint::new(24.2, 38.2)),
        ),
        Area::new(
            AreaId(2),
            "shoal",
            AreaKind::Shallow { depth_m: 4.0 },
            Polygon::rectangle(GeoPoint::new(26.5, 36.0), GeoPoint::new(26.7, 36.2)),
        ),
    ]
}

fn vessels(n: u32) -> Vec<VesselInfo> {
    (0..n)
        .map(|i| VesselInfo {
            mmsi: Mmsi(100 + i),
            draft_m: if i % 2 == 0 { 8.0 } else { 3.0 },
            is_fishing: i % 3 == 0,
        })
        .collect()
}

/// Hotspots the synthetic streams cluster on: inside each area plus open
/// sea. Index 0..4.
const HOTSPOTS: [(f64, f64); 4] = [(21.1, 37.1), (24.1, 38.1), (26.6, 36.1), (23.0, 39.9)];

const KINDS: [InputKind; 5] = [
    InputKind::StopStart,
    InputKind::StopEnd,
    InputKind::SlowMotionStart,
    InputKind::SlowMotionEnd,
    InputKind::GapStart,
];

fn ev(vessel: u32, kind: InputKind, hotspot: usize) -> InputEvent {
    let (lon, lat) = HOTSPOTS[hotspot % HOTSPOTS.len()];
    InputEvent {
        mmsi: Mmsi(100 + vessel),
        kind,
        position: GeoPoint::new(lon, lat),
        close_areas: None,
    }
}

/// Canonical JSON of one query's full observable output.
fn canon(s: &RecognitionSummary) -> String {
    // Vendored serde implements tuples up to arity 4: nest pairs.
    serde_json::to_string(&(
        (s.query_time, &s.suspicious),
        (&s.illegal_fishing, &s.alerts),
        (s.ce_count, s.working_memory),
    ))
    .unwrap()
}

/// Deterministic xorshift stream generator — no RNG-crate dependency and
/// stable across runs, so failures reproduce exactly.
fn synthetic_stream(seed: u64, count: usize, span_secs: i64) -> Vec<(Timestamp, InputEvent)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut events = Vec::with_capacity(count);
    for i in 0..count {
        // Ascending timestamps with jitter: no late arrivals here (the
        // dedicated tests below inject those on purpose).
        let at = (i as i64 * span_secs) / count as i64 + (next() % 60) as i64;
        let vessel = (next() % 10) as u32;
        let kind = KINDS[(next() % KINDS.len() as u64) as usize];
        let hotspot = (next() % HOTSPOTS.len() as u64) as usize;
        events.push((t(at), ev(vessel, kind, hotspot)));
    }
    events.sort_by_key(|(at, _)| *at);
    events
}

/// Replays `events` through two recognizers (from-scratch and
/// incremental), querying at each slide, and asserts byte-identical
/// summaries. Returns the incremental engine's evaluation stats.
fn assert_equivalent_replay(
    events: &[(Timestamp, InputEvent)],
    queries: &[Timestamp],
) -> IncrementalStats {
    let kb = || Knowledge::standard(vessels(10), areas());
    let mut full = MaritimeRecognizer::with_strategy(kb(), spec_6h_1h(), EvalStrategy::FromScratch);
    let mut inc = MaritimeRecognizer::with_strategy(kb(), spec_6h_1h(), EvalStrategy::Incremental);
    let mut fed = 0;
    for q in queries {
        while fed < events.len() && events[fed].0 <= *q {
            full.add_events([events[fed].clone()]);
            inc.add_events([events[fed].clone()]);
            fed += 1;
        }
        let a = canon(&full.recognize_and_summarize(*q));
        let b = canon(&inc.recognize_and_summarize(*q));
        assert_eq!(a, b, "summaries diverged at query {q:?}");
    }
    let scratch = full.incremental_stats();
    assert_eq!(scratch.incremental, 0, "from-scratch must never take the delta path");
    assert_eq!(scratch.full, queries.len());
    inc.incremental_stats()
}

#[test]
fn incremental_summaries_are_byte_identical_over_a_day() {
    let events = synthetic_stream(0x5EED_CAFE, 600, 26 * 3_600);
    let queries: Vec<Timestamp> = (1..=26).map(|h| t(h * 3_600)).collect();
    let stats = assert_equivalent_replay(&events, &queries);
    // Timestamps ascend, so after the cold first query every slide takes
    // the delta path.
    assert_eq!(stats.full, 1, "unexpected fallbacks: {stats:?}");
    assert_eq!(stats.incremental, 25);
}

#[test]
fn late_arrival_forces_identical_fallback() {
    // A suspicious build-up, a checkpoint, then an event timestamped
    // *before* the checkpoint: the cache must be discarded, and both
    // modes must agree that the late StopEnd truncates the interval.
    let mut full = MaritimeRecognizer::with_strategy(
        Knowledge::standard(vessels(10), areas()),
        spec_6h_1h(),
        EvalStrategy::FromScratch,
    );
    let mut inc = MaritimeRecognizer::with_strategy(
        Knowledge::standard(vessels(10), areas()),
        spec_6h_1h(),
        EvalStrategy::Incremental,
    );
    let early: Vec<(Timestamp, InputEvent)> = (0..4)
        .map(|i| (t(600 + i64::from(i)), ev(i, InputKind::StopStart, 0)))
        .collect();
    for r in [&mut full, &mut inc] {
        r.add_events(early.iter().cloned());
    }
    let q1 = t(3_600);
    assert_eq!(
        canon(&full.recognize_and_summarize(q1)),
        canon(&inc.recognize_and_summarize(q1))
    );

    // Late arrival: one vessel actually departed before the checkpoint.
    let late = (t(1_800), ev(0, InputKind::StopEnd, 0));
    for r in [&mut full, &mut inc] {
        r.add_events([late.clone()]);
    }
    let q2 = t(7_200);
    let a = canon(&full.recognize_and_summarize(q2));
    let b = canon(&inc.recognize_and_summarize(q2));
    assert_eq!(a, b, "late arrival broke equivalence");
    assert!(
        a.contains("\"1800\"") || !a.is_empty(),
        "sanity: summary serialized"
    );
    let stats = inc.incremental_stats();
    assert_eq!(stats.full, 2, "cold start + late-arrival fallback, got {stats:?}");
}

#[test]
fn eviction_retracts_straddling_intervals_identically() {
    // Four stops open a suspicious interval near t=600 that is still
    // ongoing at the first checkpoints. Once the window slides past the
    // initiating events they are evicted, and the incremental cache must
    // retract the interval exactly as a full recompute forgets it.
    let events: Vec<(Timestamp, InputEvent)> = (0..4)
        .map(|i| (t(600 + i64::from(i)), ev(i, InputKind::StopStart, 0)))
        .collect();
    // Hourly queries from 1 h to 8 h: the 6-hour window evicts the stops
    // between the 6th and 7th query while the interval straddles every
    // intermediate cutoff.
    let queries: Vec<Timestamp> = (1..=8).map(|h| t(h * 3_600)).collect();
    let stats = assert_equivalent_replay(&events, &queries);
    assert_eq!(stats.incremental + stats.full, 8);

    // And the end state really is empty — the interval was retracted.
    let mut inc = MaritimeRecognizer::with_strategy(
        Knowledge::standard(vessels(10), areas()),
        spec_6h_1h(),
        EvalStrategy::Incremental,
    );
    inc.add_events(events);
    for h in 1..=8 {
        let s = inc.recognize_and_summarize(t(h * 3_600));
        if h <= 6 {
            assert_eq!(s.suspicious.len(), 1, "hour {h}");
        } else {
            assert!(s.suspicious.is_empty(), "hour {h}: {:?}", s.suspicious);
            assert_eq!(s.working_memory, 0, "hour {h}");
        }
    }
}

#[test]
fn incremental_pipeline_matches_from_scratch_end_to_end() {
    // Full pipeline over the synthetic fleet: NMEA-free PositionTuple
    // replay through tracking + recognition + alert log, incremental vs
    // from-scratch at 1 and 2 recognition bands.
    let sim = FleetSimulator::new(FleetConfig {
        vessels: 50,
        duration: Duration::hours(24),
        ..FleetConfig::tiny(0x5EED_CAFE)
    });
    let areas = generate_areas(&AreaGenConfig::default());
    let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
    let stream: Vec<PositionTuple> = sim.generate().iter().map(|r| (*r).into()).collect();

    let run = |incremental: bool, bands: usize| {
        let config = SurveillanceConfig {
            parallelism: Parallelism {
                tracker_shards: 1,
                recognition_bands: bands,
            },
            incremental_recognition: incremental,
            ..SurveillanceConfig::default()
        };
        let mut pipeline =
            SurveillancePipeline::new(&config, vessels.clone(), areas.clone()).unwrap();
        let report = pipeline.run(stream.iter().copied());
        let log: Vec<String> = pipeline
            .alerts()
            .records()
            .iter()
            .map(AlertRecord::render)
            .collect();
        (report.critical_points, report.ce_total, log)
    };

    for bands in [1, 2] {
        let (full_cps, full_ces, full_log) = run(false, bands);
        let (inc_cps, inc_ces, inc_log) = run(true, bands);
        assert_eq!(full_cps, inc_cps, "critical count diverged at {bands} band(s)");
        assert_eq!(full_ces, inc_ces, "CE count diverged at {bands} band(s)");
        assert_eq!(full_log, inc_log, "alert log diverged at {bands} band(s)");
    }
}

/// One step of a random schedule: feed an event (possibly late) or query.
#[derive(Debug, Clone)]
enum Step {
    Event { at: i64, ev: InputEvent },
    Query { at: i64 },
}

/// Random schedules: forward-drifting clock, ~1/5 queries, ~1/5 events
/// arriving an hour late (at or before an already-answered query).
fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..5, 0u32..8, 0u8..4, 0i64..1_800, 0u8..5), 10..60).prop_map(
        |raw| {
            let mut clock = 0i64;
            raw.into_iter()
                .map(|(sel, vessel, hotspot, jitter, kindsel)| {
                    clock += jitter;
                    match sel {
                        4 => Step::Query { at: clock },
                        3 => Step::Event {
                            at: (clock - 3_600).max(0), // late arrival
                            ev: ev(vessel, KINDS[kindsel as usize], hotspot as usize),
                        },
                        _ => Step::Event {
                            at: clock,
                            ev: ev(vessel, KINDS[kindsel as usize], hotspot as usize),
                        },
                    }
                })
                .collect()
        },
    )
}

/// Replays one schedule through geo-partitioned recognizers at the given
/// band count, comparing the two strategies query by query.
fn run_banded_schedule(bands: usize, steps: &[Step]) -> Result<(), proptest::TestCaseError> {
    let w = WindowSpec::new(Duration::hours(2), Duration::minutes(30)).unwrap();
    let make = |strategy| {
        CoordinatedRecognizer::with_strategy(
            GeoPartitioner::uniform(bands, 20.0, 28.0),
            &vessels(8),
            &areas(),
            2_000.0,
            SpatialMode::OnDemand,
            w,
            strategy,
        )
    };
    let mut full = make(EvalStrategy::FromScratch);
    let mut inc = make(EvalStrategy::Incremental);
    for step in steps {
        match step {
            Step::Event { at, ev } => {
                full.add_events([(t(*at), ev.clone())]);
                inc.add_events([(t(*at), ev.clone())]);
            }
            Step::Query { at } => {
                let a = canon(&full.recognize_and_summarize(t(*at)));
                let b = canon(&inc.recognize_and_summarize(t(*at)));
                prop_assert_eq!(a, b, "diverged at {} band(s), query t={}", bands, at);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_full_across_recognition_bands(steps in arb_schedule()) {
        for bands in [1usize, 2, 4] {
            run_banded_schedule(bands, &steps)?;
        }
    }
}
