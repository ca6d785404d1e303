//! Property-based tests for the windowing infrastructure.

use maritime_stream::{
    AdmissionBuffer, AdmissionStats, Duration, SlideBatches, SlidingWindow, Timestamp, WindowSpec,
};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WindowSpec> {
    (1i64..500, 1i64..500).prop_map(|(a, b)| {
        let (slide, range) = if a <= b { (a, b) } else { (b, a) };
        WindowSpec::new(Duration::secs(range), Duration::secs(slide)).unwrap()
    })
}

fn arb_stream() -> impl Strategy<Value = Vec<(Timestamp, u32)>> {
    prop::collection::vec((0i64..5_000, any::<u32>()), 0..200).prop_map(|mut v| {
        v.sort_by_key(|(t, _)| *t);
        v.into_iter().map(|(t, x)| (Timestamp(t), x)).collect()
    })
}

/// Arrival-order streams over few timestamps and few payloads, so exact
/// duplicates (multiplicity > 1) and items later than the skew both
/// occur.
fn arb_arrivals() -> impl Strategy<Value = Vec<(i64, u8)>> {
    prop::collection::vec((0i64..60, 0u8..3), 0..120)
}

/// The admission contract written out naively: buffer everything, and
/// after each push release, in sorted order, whatever fell more than
/// `skew` behind the watermark; late items pass through at once.
fn reference_admission(skew: i64, arrivals: &[(i64, u8)]) -> (Vec<(i64, u8)>, u64) {
    let mut buffered: Vec<(i64, u8)> = Vec::new();
    let mut out = Vec::new();
    let mut watermark: Option<i64> = None;
    let mut late = 0;
    for &(t, x) in arrivals {
        if watermark.is_some_and(|w| t < w - skew) {
            late += 1;
            out.push((t, x));
            continue;
        }
        buffered.push((t, x));
        let w = watermark.map_or(t, |w| w.max(t));
        watermark = Some(w);
        buffered.sort_unstable();
        let n = buffered.iter().take_while(|(t, _)| *t < w - skew).count();
        out.extend(buffered.drain(..n));
    }
    buffered.sort_unstable();
    out.extend(buffered);
    (out, late)
}

proptest! {
    /// `push_into` appending to one caller-owned buffer releases exactly
    /// what `push` returns call by call, with the same counters, and both
    /// match the naive model — duplicates released with their full
    /// multiplicity, each copy moved out once.
    #[test]
    fn admission_push_into_matches_push_and_the_model(
        arrivals in arb_arrivals(), skew in 0i64..20
    ) {
        let mut by_push = AdmissionBuffer::new(Duration::secs(skew));
        let mut by_push_into = AdmissionBuffer::new(Duration::secs(skew));
        let mut pushed: Vec<(Timestamp, u8)> = Vec::new();
        let mut appended: Vec<(Timestamp, u8)> = Vec::new();
        for &(t, x) in &arrivals {
            pushed.extend(by_push.push(Timestamp(t), x));
            let before = appended.len();
            by_push_into.push_into(Timestamp(t), x, &mut appended);
            prop_assert_eq!(&appended[before..], &pushed[before..]);
            prop_assert_eq!(by_push_into.stats(), by_push.stats());
            prop_assert_eq!(by_push_into.buffered(), by_push.buffered());
        }
        pushed.extend(by_push.flush());
        appended.extend(by_push_into.flush());
        prop_assert_eq!(&appended, &pushed);
        let stats: AdmissionStats = by_push.stats();
        prop_assert_eq!(by_push_into.stats(), stats);
        prop_assert_eq!(stats.pushed, arrivals.len() as u64);
        prop_assert_eq!(stats.released, stats.pushed);

        let (model, late) = reference_admission(skew, &arrivals);
        let released: Vec<(i64, u8)> = pushed.iter().map(|(t, x)| (t.as_secs(), *x)).collect();
        prop_assert_eq!(released, model);
        prop_assert_eq!(stats.late, late);
    }

    #[test]
    fn slide_batches_deliver_every_item_exactly_once(
        stream in arb_stream(), spec in arb_spec()
    ) {
        let expected: Vec<u32> = stream.iter().map(|(_, x)| *x).collect();
        let delivered: Vec<u32> =
            SlideBatches::new(stream.into_iter(), spec, Timestamp::ZERO)
                .flat_map(|b| b.items.into_iter().map(|(_, x)| x))
                .collect();
        prop_assert_eq!(delivered, expected);
    }

    #[test]
    fn batch_items_respect_query_time(stream in arb_stream(), spec in arb_spec()) {
        for batch in SlideBatches::new(stream.into_iter(), spec, Timestamp::ZERO) {
            for (t, _) in &batch.items {
                prop_assert!(*t <= batch.query_time);
            }
        }
    }

    #[test]
    fn window_iteration_is_sorted_after_random_insertion(
        mut items in prop::collection::vec(0i64..10_000, 0..100)
    ) {
        let spec = WindowSpec::new(Duration::secs(100_000), Duration::secs(1)).unwrap();
        let mut w = SlidingWindow::new(spec);
        for &t in &items {
            w.insert(Timestamp(t), t);
        }
        let order: Vec<i64> = w.iter().map(|(t, _)| t.as_secs()).collect();
        items.sort_unstable();
        prop_assert_eq!(order, items);
    }

    #[test]
    fn eviction_is_complete_and_exact(
        items in prop::collection::vec(0i64..10_000, 0..100),
        range in 1i64..5_000,
        q in 0i64..20_000,
    ) {
        let spec = WindowSpec::new(Duration::secs(range), Duration::secs(1)).unwrap();
        let mut w = SlidingWindow::new(spec);
        for &t in &items {
            w.insert(Timestamp(t), t);
        }
        let evicted = w.slide_to(Timestamp(q));
        let cutoff = q - range;
        // Everything evicted is at or before the cutoff...
        for (t, _) in &evicted {
            prop_assert!(t.as_secs() <= cutoff);
        }
        // ...everything retained is after it...
        for (t, _) in w.iter() {
            prop_assert!(t.as_secs() > cutoff);
        }
        // ...and nothing is lost.
        prop_assert_eq!(evicted.len() + w.len(), items.len());
    }

    #[test]
    fn query_times_are_exactly_slide_spaced(spec in arb_spec(), horizon in 0i64..10_000) {
        let qs = spec.query_times(Timestamp::ZERO, Timestamp(horizon));
        for (i, q) in qs.iter().enumerate() {
            prop_assert_eq!(q.as_secs(), (i as i64 + 1) * spec.slide.as_secs());
        }
        if let Some(last) = qs.last() {
            prop_assert!(last.as_secs() <= horizon);
            prop_assert!(last.as_secs() + spec.slide.as_secs() > horizon);
        }
    }

    #[test]
    fn rescale_preserves_length_and_order(
        stream in arb_stream().prop_filter("needs span", |s| {
            s.len() >= 2 && s.first().map(|f| f.0) != s.last().map(|l| l.0)
        }),
        target in 0.1f64..1_000.0,
    ) {
        let scaled = maritime_stream::rate::rescale_to_rate(&stream, target);
        prop_assert_eq!(scaled.len(), stream.len());
        for w in scaled.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        // Payloads untouched, in order.
        let orig: Vec<u32> = stream.iter().map(|(_, x)| *x).collect();
        let kept: Vec<u32> = scaled.iter().map(|(_, x)| *x).collect();
        prop_assert_eq!(orig, kept);
    }
}
