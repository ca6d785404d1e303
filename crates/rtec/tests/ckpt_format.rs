//! Checkpoint-format tests: engine save/restore roundtrips (from-scratch
//! and incremental), hostile-input rejection, and a golden checkpoint
//! file pinning the on-disk layout. Re-bless the golden with
//! `CKPT_BLESS=1 cargo test -p maritime-rtec --test ckpt_format` (see
//! TESTING.md).

use std::collections::HashMap;

use maritime_rtec::ckpt::unframe;
use maritime_rtec::{
    Duration, Engine, EvalStrategy, EventDescription, FluentDef, Recognition, Timestamp, Trigger,
    TriggerKinds, WindowSpec,
};
use proptest::prelude::*;

/// Toy input event: `(0, id)` switches fluent `id` on, `(1, id)` off.
type Ev = (u8, u32);

fn description() -> EventDescription<(), Ev, u32, u64> {
    EventDescription::new()
        .fluent(
            FluentDef::new("switch")
                .initiated_on(TriggerKinds::INPUT, |_, _, trig: Trigger<'_, Ev, u32>, _| {
                    match trig.input() {
                        Some((0, id)) => vec![*id],
                        _ => vec![],
                    }
                })
                .terminated_on(TriggerKinds::INPUT, |_, _, trig: Trigger<'_, Ev, u32>, _| {
                    match trig.input() {
                        Some((1, id)) => vec![*id],
                        _ => vec![],
                    }
                }),
        )
        .fluent(
            // A probing stratum so incremental checkpoints carry real
            // cache entries (boundary triggers + probe logs).
            FluentDef::new("any_on")
                .initiated_on(TriggerKinds::START, |_, view, trig: Trigger<'_, Ev, u32>, t| {
                    match trig.started() {
                        Some(id) if *id < 1_000 => {
                            let probe = t + Duration::secs(1);
                            if view.count_holding_at(probe, |k: &u32| *k < 1_000) >= 1 {
                                vec![9_999]
                            } else {
                                vec![]
                            }
                        }
                        _ => vec![],
                    }
                })
                .terminated_on(TriggerKinds::END, |_, view, trig: Trigger<'_, Ev, u32>, t| {
                    match trig.ended() {
                        Some(id) if *id < 1_000 => {
                            let probe = t + Duration::secs(1);
                            if view.count_holding_at(probe, |k: &u32| *k < 1_000) == 0 {
                                vec![9_999]
                            } else {
                                vec![]
                            }
                        }
                        _ => vec![],
                    }
                }),
        )
}

fn spec() -> WindowSpec {
    WindowSpec::new(Duration::secs(600), Duration::secs(100)).unwrap()
}

fn engine(strategy: EvalStrategy) -> Engine<(), Ev, u32, u64> {
    Engine::new((), description(), spec()).with_strategy(strategy)
}

fn assert_same(a: &Recognition<u32, u64>, b: &Recognition<u32, u64>) {
    assert_eq!(a.query_time, b.query_time);
    assert_eq!(a.working_memory, b.working_memory);
    assert_eq!(a.events, b.events);
    let norm = |r: &Recognition<u32, u64>| {
        let mut v: Vec<_> = r.fluents.iter().map(|(k, il)| (*k, il.clone())).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    };
    assert_eq!(norm(a), norm(b));
}

/// Deterministic stream used by the unit tests and the golden fixture.
fn fixture_events() -> Vec<(Timestamp, Ev)> {
    let mut out = Vec::new();
    for i in 0..40i64 {
        let id = (i % 3) as u32;
        out.push((Timestamp(i * 37), (u8::from(i % 4 == 3), id)));
    }
    out
}

fn run_with_kill(
    strategy: EvalStrategy,
    events: &[(Timestamp, Ev)],
    queries: &[Timestamp],
    kill_after: usize,
) -> Vec<Recognition<u32, u64>> {
    let mut live = engine(strategy);
    let mut out = Vec::new();
    let mut fed = 0;
    for (qi, &q) in queries.iter().enumerate() {
        while fed < events.len() && events[fed].0 <= q {
            live.add_event(events[fed].0, events[fed].1);
            fed += 1;
        }
        out.push(live.recognize_at(q));
        if qi + 1 == kill_after {
            // Kill: serialize, drop, restore from bytes only.
            let bytes = live.checkpoint();
            drop(live);
            live = Engine::restore((), description(), &bytes).expect("restore");
        }
    }
    out
}

#[test]
fn kill_restore_is_byte_identical_both_strategies() {
    let events = fixture_events();
    let queries: Vec<Timestamp> = (1..=15).map(|i| Timestamp(i * 100)).collect();
    for strategy in [EvalStrategy::FromScratch, EvalStrategy::Incremental] {
        let baseline = run_with_kill(strategy, &events, &queries, usize::MAX);
        for kill_after in 1..queries.len() {
            let killed = run_with_kill(strategy, &events, &queries, kill_after);
            for (a, b) in baseline.iter().zip(&killed) {
                assert_same(a, b);
            }
        }
    }
}

#[test]
fn restored_incremental_engine_still_uses_cache() {
    let events = fixture_events();
    let mut live = engine(EvalStrategy::Incremental);
    for (t, e) in &events {
        live.add_event(*t, *e);
    }
    live.recognize_at(Timestamp(800));
    live.recognize_at(Timestamp(900));
    let bytes = live.checkpoint();
    let mut restored = Engine::restore((), description(), &bytes).expect("restore");
    let before = restored.incremental_stats();
    restored.recognize_at(Timestamp(1_000));
    let after = restored.incremental_stats();
    assert_eq!(
        after.incremental,
        before.incremental + 1,
        "a clean restored checkpoint must keep the delta path"
    );
}

#[test]
fn corrupting_any_byte_is_rejected_or_roundtrips_cleanly() {
    let mut live = engine(EvalStrategy::Incremental);
    for (t, e) in fixture_events() {
        live.add_event(t, e);
    }
    live.recognize_at(Timestamp(700));
    let bytes = live.checkpoint();

    // Every truncation: clean error, never a panic.
    for n in 0..bytes.len() {
        assert!(
            Engine::<(), Ev, u32, u64>::restore((), description(), &bytes[..n]).is_err(),
            "truncated prefix {n} accepted"
        );
    }
    // Every single-byte corruption: either rejected (checksum) or — for
    // the checksum field itself — a mismatch. Never a panic.
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        let _ = Engine::<(), Ev, u32, u64>::restore((), description(), &bad);
    }
}

#[test]
fn golden_checkpoint_is_stable() {
    let mut live = engine(EvalStrategy::Incremental);
    for (t, e) in fixture_events() {
        live.add_event(t, e);
    }
    live.recognize_at(Timestamp(700));
    live.recognize_at(Timestamp(800));
    let bytes = live.checkpoint();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine.ckpt");
    if std::env::var("CKPT_BLESS").as_deref() == Ok("1") {
        std::fs::write(path, &bytes).expect("bless golden checkpoint");
    }
    let golden = std::fs::read(path).expect(
        "golden checkpoint missing — bless with CKPT_BLESS=1 (see TESTING.md)",
    );
    assert_eq!(
        bytes, golden,
        "checkpoint bytes changed; if the format change is intended, bump \
         ckpt::VERSION and re-bless with CKPT_BLESS=1 (see TESTING.md)"
    );

    // The committed golden must also restore and keep producing the same
    // output as the live engine.
    let mut restored =
        Engine::<(), Ev, u32, u64>::restore((), description(), &golden).expect("restore golden");
    assert_same(
        &live.recognize_at(Timestamp(900)),
        &restored.recognize_at(Timestamp(900)),
    );
}

proptest! {
    /// Random streams, random kill points, both strategies: the killed-
    /// and-restored engine's outputs match the uninterrupted run exactly.
    #[test]
    fn prop_kill_restore_differential(
        raw in prop::collection::vec((0i64..1_500, 0u8..2, 0u32..4), 1..60),
        kill_after in 1usize..10,
        incremental in any::<bool>(),
    ) {
        let mut events: Vec<(Timestamp, Ev)> =
            raw.into_iter().map(|(t, k, id)| (Timestamp(t), (k, id))).collect();
        events.sort_by_key(|(t, _)| *t);
        let queries: Vec<Timestamp> = (1..=10).map(|i| Timestamp(i * 150)).collect();
        let strategy = if incremental {
            EvalStrategy::Incremental
        } else {
            EvalStrategy::FromScratch
        };
        let baseline = run_with_kill(strategy, &events, &queries, usize::MAX);
        let killed = run_with_kill(strategy, &events, &queries, kill_after);
        for (a, b) in baseline.iter().zip(&killed) {
            prop_assert_eq!(a.query_time, b.query_time);
            prop_assert_eq!(a.working_memory, b.working_memory);
            prop_assert_eq!(&a.events, &b.events);
            let norm = |r: &Recognition<u32, u64>| {
                let mut v: Vec<_> = r.fluents.iter().map(|(k, il)| (*k, il.clone())).collect();
                v.sort_by_key(|(k, _)| *k);
                v
            };
            prop_assert_eq!(norm(a), norm(b));
        }
    }

    /// The frame survives arbitrary payloads and rejects arbitrary bytes
    /// without panicking.
    #[test]
    fn prop_frame_roundtrip_and_rejection(payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let framed = maritime_rtec::ckpt::frame(&payload);
        prop_assert_eq!(unframe(&framed).unwrap(), &payload[..]);
        // Arbitrary junk (the payload itself) never panics the decoder.
        let _ = unframe(&payload);
    }
}

#[test]
fn recognition_default_compiles_with_nonstandard_keys() {
    // Regression guard: Recognition::default must not demand K: Default.
    let r: Recognition<u32, u64> = Recognition::default();
    assert_eq!(r.fluents, HashMap::default());
}
