//! The maritime recognizer: RTEC engine + maritime event description.

use maritime_ais::Mmsi;
use maritime_geo::AreaId;
use maritime_obs::{names, LazyCounter};
use maritime_rtec::{
    Engine, EvalStrategy, IncrementalStats, IntervalList, Recognition, Timestamp, WindowSpec,
};
use maritime_tracker::CriticalPoint;

use crate::fluents::{maritime_description, Alert, FluentKey};
use crate::input::InputEvent;
use crate::knowledge::Knowledge;
use crate::provenance::{build_chains, CeChain};

/// Recognition metrics (see `OBSERVABILITY.md`). Under partitioned
/// recognition every band recognizer feeds the same counters; bands own
/// disjoint events and areas, so the sums equal the single-recognizer
/// figures.
static OBS_INPUT_EVENTS: LazyCounter = LazyCounter::new(names::CER_INPUT_EVENTS);
static OBS_CE_RECOGNIZED: LazyCounter = LazyCounter::new(names::CER_CE_RECOGNIZED);
static OBS_ALERTS: LazyCounter = LazyCounter::new(names::CER_ALERTS);
static OBS_CHAINS: LazyCounter = LazyCounter::new(names::TRACE_PROVENANCE_CHAINS);

/// Summary of one recognition query, for reporting and the Figure 11
/// experiments (which count recognized CEs per window).
#[derive(Debug, Clone)]
pub struct RecognitionSummary {
    /// Query time.
    pub query_time: Timestamp,
    /// `suspicious(Area)` maximal intervals.
    pub suspicious: Vec<(AreaId, IntervalList)>,
    /// `illegalFishing(Area)` maximal intervals.
    pub illegal_fishing: Vec<(AreaId, IntervalList)>,
    /// Instantaneous alerts (illegal/dangerous shipping), in time order.
    pub alerts: Vec<(Timestamp, Alert)>,
    /// Total complex events recognized: CE intervals plus alerts.
    pub ce_count: usize,
    /// Input events in the working memory for this query.
    pub working_memory: usize,
}

impl RecognitionSummary {
    /// Canonical JSON rendering of everything the query recognized,
    /// byte-stable across engine configurations: two summaries describe
    /// the same recognition result if and only if their canonical strings
    /// are equal. This is the equality the differential and metamorphic
    /// harnesses compare on (nested pairs keep every tuple within the
    /// serializer's arity).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(&(
            (self.query_time, &self.suspicious),
            (&self.illegal_fishing, &self.alerts),
            (self.ce_count, self.working_memory),
        ))
        .expect("summary serializes")
    }
}

/// The end-to-end maritime complex event recognizer.
///
/// ```
/// use maritime_ais::Mmsi;
/// use maritime_cer::{recognizer::stop_markers, Knowledge, MaritimeRecognizer, VesselInfo};
/// use maritime_geo::{Area, AreaId, AreaKind, GeoPoint, Polygon};
/// use maritime_rtec::{Duration, Timestamp, WindowSpec};
///
/// let areas = vec![Area::new(
///     AreaId(0),
///     "watch zone",
///     AreaKind::Watch,
///     Polygon::circle(GeoPoint::new(24.5, 38.5), 5_000.0, 16),
/// )];
/// let vessels = (1..=4).map(|i| VesselInfo {
///     mmsi: Mmsi(i), draft_m: 5.0, is_fishing: false,
/// });
/// let spec = WindowSpec::new(Duration::hours(6), Duration::hours(1)).unwrap();
/// let mut recognizer = MaritimeRecognizer::new(Knowledge::standard(vessels, areas), spec);
///
/// // Four vessels stop inside the watch zone: suspicious (rule-set 3).
/// for i in 1..=4 {
///     recognizer.add_events(stop_markers(
///         Mmsi(i),
///         GeoPoint::new(24.5, 38.5),
///         Timestamp(100 * i64::from(i)),
///         Timestamp(5_000),
///     ));
/// }
/// let summary = recognizer.recognize_and_summarize(Timestamp(3_600));
/// assert_eq!(summary.suspicious.len(), 1);
/// ```
pub struct MaritimeRecognizer {
    engine: Engine<Knowledge, InputEvent, FluentKey, Alert>,
    /// Chains assembled by the most recent traced query.
    chains: Vec<CeChain>,
    /// Reusable recognition buffer: on a steady stream the per-query maps
    /// and vectors keep their capacity instead of reallocating.
    scratch: Recognition<FluentKey, Alert>,
}

impl MaritimeRecognizer {
    /// Creates a recognizer over the knowledge base with the given window.
    #[must_use]
    pub fn new(knowledge: Knowledge, spec: WindowSpec) -> Self {
        Self::with_strategy(knowledge, spec, EvalStrategy::default())
    }

    /// Creates a recognizer with an explicit evaluation strategy
    /// (checkpointed incremental vs. from-scratch per query).
    #[must_use]
    pub fn with_strategy(knowledge: Knowledge, spec: WindowSpec, strategy: EvalStrategy) -> Self {
        Self {
            engine: Engine::new(knowledge, maritime_description(), spec).with_strategy(strategy),
            chains: Vec::new(),
            scratch: Recognition::default(),
        }
    }

    /// Turns per-CE provenance capture on or off. While on, each
    /// [`recognize_and_summarize`](Self::recognize_and_summarize) call
    /// additionally assembles one derivation chain per recognized CE
    /// ([`Self::take_chains`]), and the engine evaluates from scratch
    /// (the incremental replay path never re-runs rules, so there is
    /// nothing to trace on it).
    pub fn set_provenance(&mut self, on: bool) {
        self.engine.set_provenance(on);
        if !on {
            self.chains.clear();
        }
    }

    /// Whether provenance capture is on.
    #[must_use]
    pub fn provenance_enabled(&self) -> bool {
        self.engine.provenance_enabled()
    }

    /// Takes the chains assembled by the most recent traced query.
    pub fn take_chains(&mut self) -> Vec<CeChain> {
        std::mem::take(&mut self.chains)
    }

    /// How queries have been evaluated so far (delta path vs. full
    /// recompute); all zeros under the from-scratch strategy.
    #[must_use]
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.engine.incremental_stats()
    }

    /// The static knowledge.
    #[must_use]
    pub fn knowledge(&self) -> &Knowledge {
        self.engine.ctx()
    }

    /// Streams critical points from the trajectory detection component
    /// (non-ME annotations are dropped).
    pub fn add_critical_points(&mut self, cps: &[CriticalPoint]) {
        for cp in cps {
            if let Some((t, ev)) = InputEvent::from_critical(cp) {
                OBS_INPUT_EVENTS.inc();
                self.engine.add_event(t, ev);
            }
        }
    }

    /// Streams pre-built input events (e.g. with spatial facts attached).
    pub fn add_events(&mut self, events: impl IntoIterator<Item = (Timestamp, InputEvent)>) {
        let mut admitted = 0u64;
        self.engine
            .add_events(events.into_iter().inspect(|_| admitted += 1));
        OBS_INPUT_EVENTS.add(admitted);
    }

    /// Runs recognition at query time `q`, returning the raw RTEC result.
    pub fn recognize_at(&mut self, q: Timestamp) -> Recognition<FluentKey, Alert> {
        self.engine.recognize_at(q)
    }

    /// Serializes the engine state into a framed checkpoint (see
    /// [`maritime_rtec::ckpt`]). The knowledge base is static
    /// configuration and is *not* included — [`Self::restore_from`]
    /// takes it back as an argument.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        self.engine.checkpoint()
    }

    /// [`Self::checkpoint`] without the frame, for callers embedding
    /// several recognizers in one frame.
    pub fn checkpoint_into(&self, w: &mut maritime_rtec::Writer) {
        self.engine.checkpoint_into(w);
    }

    /// Restores a recognizer from a [`Self::checkpoint_into`] payload at
    /// the reader's position. `knowledge` must be the same static
    /// knowledge the checkpointed recognizer was built with. Provenance
    /// chains and the scratch buffer are per-query state and start empty.
    pub fn restore_from(
        knowledge: Knowledge,
        r: &mut maritime_rtec::Reader<'_>,
    ) -> Result<Self, maritime_rtec::CkptError> {
        Ok(Self {
            engine: Engine::restore_from(knowledge, maritime_description(), r)?,
            chains: Vec::new(),
            scratch: Recognition::default(),
        })
    }

    /// Runs recognition and summarizes the complex events. With
    /// provenance on, also rebuilds the per-CE chains.
    pub fn recognize_and_summarize(&mut self, q: Timestamp) -> RecognitionSummary {
        self.engine.recognize_into(q, &mut self.scratch);
        let summary = summarize(&self.scratch);
        OBS_CE_RECOGNIZED.add(summary.ce_count as u64);
        OBS_ALERTS.add(summary.alerts.len() as u64);
        if let Some(prov) = self.engine.take_provenance() {
            self.chains = build_chains(&summary, &prov);
            OBS_CHAINS.add(self.chains.len() as u64);
        }
        summary
    }
}

/// Extracts the complex events from a raw recognition result.
#[must_use]
pub fn summarize(recognition: &Recognition<FluentKey, Alert>) -> RecognitionSummary {
    let mut suspicious = Vec::new();
    let mut illegal_fishing = Vec::new();
    for (key, intervals) in &recognition.fluents {
        if intervals.is_empty() {
            continue;
        }
        match key {
            FluentKey::Suspicious(area) => suspicious.push((*area, intervals.clone())),
            FluentKey::IllegalFishing(area) => illegal_fishing.push((*area, intervals.clone())),
            _ => {}
        }
    }
    suspicious.sort_by_key(|(a, _)| *a);
    illegal_fishing.sort_by_key(|(a, _)| *a);
    let ce_count = suspicious.iter().map(|(_, il)| il.len()).sum::<usize>()
        + illegal_fishing.iter().map(|(_, il)| il.len()).sum::<usize>()
        + recognition.events.len();
    RecognitionSummary {
        query_time: recognition.query_time,
        suspicious,
        illegal_fishing,
        alerts: recognition.events.clone(),
        ce_count,
        working_memory: recognition.working_memory,
    }
}

/// Convenience for tests and examples: a minimal stop marker pair.
#[must_use]
pub fn stop_markers(
    mmsi: Mmsi,
    position: maritime_geo::GeoPoint,
    start: Timestamp,
    end: Timestamp,
) -> Vec<(Timestamp, InputEvent)> {
    use crate::input::InputKind;
    vec![
        (
            start,
            InputEvent {
                mmsi,
                kind: InputKind::StopStart,
                position,
                close_areas: None,
            },
        ),
        (
            end,
            InputEvent {
                mmsi,
                kind: InputKind::StopEnd,
                position,
                close_areas: None,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluents::AlertKind;
    use crate::input::InputKind;
    use crate::provenance::visit_input_leaves;
    use crate::knowledge::VesselInfo;
    use maritime_geo::{Area, AreaKind, GeoPoint, Polygon};
    use maritime_rtec::Duration;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn spec(range_h: i64, slide_h: i64) -> WindowSpec {
        WindowSpec::new(Duration::hours(range_h), Duration::hours(slide_h)).unwrap()
    }

    fn areas() -> Vec<Area> {
        vec![
            Area::new(
                AreaId(0),
                "park",
                AreaKind::Protected,
                Polygon::rectangle(GeoPoint::new(24.0, 37.0), GeoPoint::new(24.2, 37.2)),
            ),
            Area::new(
                AreaId(1),
                "no-fish",
                AreaKind::ForbiddenFishing,
                Polygon::rectangle(GeoPoint::new(25.0, 38.0), GeoPoint::new(25.2, 38.2)),
            ),
            Area::new(
                AreaId(2),
                "shoal",
                AreaKind::Shallow { depth_m: 4.0 },
                Polygon::rectangle(GeoPoint::new(26.0, 36.0), GeoPoint::new(26.2, 36.2)),
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

    fn recognizer() -> MaritimeRecognizer {
        MaritimeRecognizer::new(Knowledge::standard(vessels(10), areas()), spec(6, 1))
    }

    fn ev(mmsi: u32, kind: InputKind, lon: f64, lat: f64) -> InputEvent {
        InputEvent {
            mmsi: Mmsi(mmsi),
            kind,
            position: GeoPoint::new(lon, lat),
            close_areas: None,
        }
    }

    #[test]
    fn suspicious_area_needs_four_stopped_vessels() {
        let mut r = recognizer();
        // Three vessels stop inside the protected area: not suspicious.
        for (i, start) in [(0u32, 100i64), (1, 200), (2, 300)] {
            r.add_events(vec![(
                t(start),
                ev(100 + i, InputKind::StopStart, 24.1, 37.1),
            )]);
        }
        let s = r.recognize_and_summarize(t(3_600));
        assert!(s.suspicious.is_empty(), "{:?}", s.suspicious);

        // The fourth stops: suspicious from that moment.
        r.add_events(vec![(t(400), ev(103, InputKind::StopStart, 24.1, 37.1))]);
        let s = r.recognize_and_summarize(t(7_200));
        assert_eq!(s.suspicious.len(), 1);
        let (area, il) = &s.suspicious[0];
        assert_eq!(*area, AreaId(0));
        assert_eq!(il.intervals().len(), 1);
        assert_eq!(il.intervals()[0].since, t(400));
        assert_eq!(il.intervals()[0].until, None, "still ongoing");
    }

    #[test]
    fn suspicious_terminates_when_vessels_leave() {
        let mut r = recognizer();
        for i in 0..4u32 {
            r.add_events(vec![(
                t(100 + i64::from(i)),
                ev(100 + i, InputKind::StopStart, 24.1, 37.1),
            )]);
        }
        // One departs at t=1000: count falls to 3.
        r.add_events(vec![(t(1_000), ev(100, InputKind::StopEnd, 24.1, 37.1))]);
        let s = r.recognize_and_summarize(t(3_600));
        assert_eq!(s.suspicious.len(), 1);
        let il = &s.suspicious[0].1;
        assert_eq!(il.intervals().len(), 1);
        assert_eq!(il.intervals()[0].since, t(103));
        assert_eq!(il.intervals()[0].until, Some(t(1_000)));
    }

    #[test]
    fn stops_far_from_any_area_are_not_suspicious() {
        let mut r = recognizer();
        for i in 0..6u32 {
            r.add_events(vec![(
                t(100 + i64::from(i)),
                ev(100 + i, InputKind::StopStart, 22.0, 39.9), // open sea
            )]);
        }
        let s = r.recognize_and_summarize(t(3_600));
        assert!(s.suspicious.is_empty());
    }

    #[test]
    fn illegal_fishing_from_fishing_vessel_slow_motion() {
        let mut r = recognizer();
        // Vessel 100 is a fishing vessel (i % 3 == 0).
        r.add_events(vec![(
            t(500),
            ev(100, InputKind::SlowMotionStart, 25.1, 38.1),
        )]);
        let s = r.recognize_and_summarize(t(3_600));
        assert_eq!(s.illegal_fishing.len(), 1);
        assert_eq!(s.illegal_fishing[0].0, AreaId(1));
        // A non-fishing vessel doing the same is fine.
        let mut r2 = recognizer();
        r2.add_events(vec![(
            t(500),
            ev(101, InputKind::SlowMotionStart, 25.1, 38.1),
        )]);
        let s2 = r2.recognize_and_summarize(t(3_600));
        assert!(s2.illegal_fishing.is_empty());
    }

    #[test]
    fn illegal_fishing_ends_when_last_fishing_vessel_leaves() {
        let mut r = recognizer();
        // Two fishing vessels (100 and 103).
        r.add_events(vec![
            (t(100), ev(100, InputKind::StopStart, 25.1, 38.1)),
            (t(200), ev(103, InputKind::SlowMotionStart, 25.1, 38.1)),
            (t(1_000), ev(100, InputKind::StopEnd, 25.1, 38.1)),
        ]);
        let s = r.recognize_and_summarize(t(3_600));
        let il = &s.illegal_fishing[0].1;
        // Still ongoing: vessel 103 remains.
        assert_eq!(il.intervals().len(), 1);
        assert_eq!(il.intervals()[0].until, None);

        r.add_events(vec![(t(2_000), ev(103, InputKind::SlowMotionEnd, 25.1, 38.1))]);
        let s = r.recognize_and_summarize(t(7_000));
        let il = &s.illegal_fishing[0].1;
        assert_eq!(il.intervals()[0].until, Some(t(2_000)));
    }

    #[test]
    fn illegal_shipping_on_gap_near_protected_area() {
        let mut r = recognizer();
        r.add_events(vec![(t(700), ev(105, InputKind::GapStart, 24.1, 37.1))]);
        let s = r.recognize_and_summarize(t(3_600));
        assert_eq!(s.alerts.len(), 1);
        let (at, alert) = s.alerts[0];
        assert_eq!(at, t(700));
        assert_eq!(alert.kind, AlertKind::IllegalShipping);
        assert_eq!(alert.vessel, Mmsi(105));
        assert_eq!(alert.area, AreaId(0));
    }

    #[test]
    fn gap_far_from_protected_area_raises_nothing() {
        let mut r = recognizer();
        // Near the forbidden-fishing area, not the protected one.
        r.add_events(vec![(t(700), ev(105, InputKind::GapStart, 25.1, 38.1))]);
        let s = r.recognize_and_summarize(t(3_600));
        assert!(s.alerts.is_empty());
    }

    #[test]
    fn dangerous_shipping_depends_on_draft() {
        let mut r = recognizer();
        // Vessel 100: draft 8 m > 4 m depth - clearance -> dangerous.
        r.add_events(vec![(
            t(300),
            ev(100, InputKind::SlowMotionStart, 26.1, 36.1),
        )]);
        // Vessel 101: draft 3 m, 4 m depth is enough (3+1 <= 4 is not
        // strictly shallower) -> safe.
        r.add_events(vec![(
            t(400),
            ev(101, InputKind::SlowMotionStart, 26.1, 36.1),
        )]);
        let s = r.recognize_and_summarize(t(3_600));
        let dangerous: Vec<_> = s
            .alerts
            .iter()
            .filter(|(_, a)| a.kind == AlertKind::DangerousShipping)
            .collect();
        assert_eq!(dangerous.len(), 1);
        assert_eq!(dangerous[0].1.vessel, Mmsi(100));
        assert_eq!(dangerous[0].1.area, AreaId(2));
    }

    #[test]
    fn ce_count_sums_intervals_and_alerts() {
        let mut r = recognizer();
        for i in 0..4u32 {
            r.add_events(vec![(
                t(100 + i64::from(i)),
                ev(100 + i, InputKind::StopStart, 24.1, 37.1),
            )]);
        }
        r.add_events(vec![(t(700), ev(105, InputKind::GapStart, 24.1, 37.1))]);
        let s = r.recognize_and_summarize(t(3_600));
        assert_eq!(s.ce_count, 2); // 1 suspicious interval + 1 alert
    }

    #[test]
    fn window_eviction_forgets_old_activity() {
        let mut r = recognizer();
        for i in 0..4u32 {
            r.add_events(vec![(
                t(100 + i64::from(i)),
                ev(100 + i, InputKind::StopStart, 24.1, 37.1),
            )]);
        }
        // After the 6-hour window passes, nothing remains.
        let s = r.recognize_and_summarize(t(100 + 6 * 3_600 + 10));
        assert!(s.suspicious.is_empty());
        assert_eq!(s.working_memory, 0);
    }

    #[test]
    fn traced_query_yields_suspicious_chain_with_input_leaves() {
        let mut r = recognizer();
        r.set_provenance(true);
        for i in 0..4u32 {
            r.add_events(vec![(
                t(100 + i64::from(i)),
                ev(100 + i, InputKind::StopStart, 24.1, 37.1),
            )]);
        }
        r.add_events(vec![(t(700), ev(105, InputKind::GapStart, 24.1, 37.1))]);
        let s = r.recognize_and_summarize(t(3_600));
        assert_eq!(s.ce_count, 2);

        let chains = r.take_chains();
        assert_eq!(chains.len(), 2, "one chain per CE: {chains:#?}");
        let susp = chains
            .iter()
            .find(|c| c.ce.starts_with("suspicious"))
            .expect("suspicious chain");
        assert_eq!(susp.since, 103, "since = fourth vessel's stop");
        // The derivation must bottom out in raw input events.
        let mut leaves = 0;
        let mut susp = susp.clone();
        visit_input_leaves(&mut susp, &mut |_| leaves += 1);
        assert!(leaves >= 1, "no input leaves in {susp:#?}");
        // The alert chain names the gapped vessel.
        let alert = chains
            .iter()
            .find(|c| c.ce.starts_with("illegalShipping"))
            .expect("illegalShipping chain");
        assert!(alert.id.contains("v105"), "{}", alert.id);

        // take_chains is destructive; disabling tracing clears state.
        assert!(r.take_chains().is_empty());
        r.set_provenance(false);
        assert!(!r.provenance_enabled());
    }

    #[test]
    fn critical_point_ingestion_path() {
        use maritime_tracker::Annotation;
        let mut r = recognizer();
        let cps: Vec<CriticalPoint> = (0..4)
            .map(|i| CriticalPoint {
                mmsi: Mmsi(100 + i),
                position: GeoPoint::new(24.1, 37.1),
                timestamp: t(100 + i64::from(i)),
                annotation: Annotation::StopStart,
                speed_knots: 0.2,
                heading_deg: 0.0,
            })
            .collect();
        r.add_critical_points(&cps);
        let s = r.recognize_and_summarize(t(3_600));
        assert_eq!(s.suspicious.len(), 1);
    }
}
