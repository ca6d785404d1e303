//! Fleet-scale partition coordination: the one streaming recognizer for
//! any number of longitude bands, with vessel handoff between bands,
//! border-zone replication, and whole-fleet checkpoint/restore.
//!
//! [`crate::partition::recognize_partitioned`] (the paper's Figure 11
//! setup) routes each movement event to the band containing it and
//! silently assumes vessels never cross a band boundary. The
//! [`CoordinatedRecognizer`] drops that assumption:
//!
//! * **One band is the serial engine.** With a single band nothing is
//!   replicated or migrated, so the coordinator keeps no routing state:
//!   events go straight to the band engine, a query runs on the calling
//!   thread, and the checkpoint is the engine's plus a constant header.
//! * **Sticky homes + migration.** With several bands, every vessel is
//!   *homed* to one band (the band of its first event) and its events
//!   always reach that band's engine. When a vessel's latest position
//!   crosses into another band, the coordinator migrates it at the next
//!   query (a window boundary): the vessel's window-retained events are
//!   replayed into the destination engine. Replaying at-or-below an
//!   incremental engine's cache checkpoint marks it stale, forcing a full
//!   recompute whose output matches by the incremental-equivalence
//!   invariant.
//! * **Border-zone replication.** Each band owns the areas whose
//!   centroid falls inside it, but its rules fire on events *close to*
//!   those areas, which may lie across a boundary. Every band therefore
//!   has a *reach*: the union of its areas' bounding boxes dilated by
//!   the close threshold (converted to longitude degrees at the areas'
//!   latitude) plus a configurable border strip. Events inside a band's
//!   reach are replicated to it even when homed elsewhere. Closing
//!   events (stop/slow-motion end, gap start) are broadcast to all
//!   bands — a termination for a fluent that was never initiated is a
//!   no-op, so over-delivery is harmless, while under-delivery would
//!   leave intervals open forever.
//! * **Why the merge is exact.** The maritime rules initiate CEs only on
//!   events close to the area in question, and alerts are computed by
//!   the band owning the area; areas are disjoint across bands, so
//!   per-area results never collide and the union over bands equals the
//!   serial recognizer's output. Working memory is reported from the
//!   coordinator's own admission window — summing per-band figures would
//!   double-count replicated events.
//! * **Pairwise rules.** Loitering/rendezvous ([`crate::extensions`])
//!   straddle bands by nature: two vessels can meet exactly on a
//!   boundary. With [`CoordinatedRecognizer::with_extensions`] each band
//!   runs a loitering engine over the full area set (fed home-only, so a
//!   vessel's complete stream lives in its current home after
//!   migration), and the coordinator performs the pairwise spatial join
//!   globally — border rendezvous need no special casing.
//!
//! The whole coordinator — band engines, admission window, vessel logs,
//! extension engines and anchors — serializes into one framed checkpoint
//! ([`CoordinatedRecognizer::checkpoint`]); restoring it mid-stream
//! continues with byte-identical output.

use std::collections::HashMap;

use maritime_ais::Mmsi;
use maritime_geo::{haversine_distance_m, Area, GeoPoint};
use maritime_obs::{names, LazyCounter, LazyGauge};
use maritime_rtec::ckpt::unframe;
use maritime_rtec::{
    CkptError, Codec, Engine, EvalStrategy, IntervalList, Reader, Timestamp, WindowSpec, Writer,
};
use maritime_stream::SlidingWindow;

use crate::extensions::{extension_description, ExtensionReport, Loitering, Rendezvous};
use crate::fluents::Alert;
use crate::input::{InputEvent, InputKind};
use crate::knowledge::{Knowledge, SpatialMode, VesselInfo};
use crate::partition::GeoPartitioner;
use crate::recognizer::{MaritimeRecognizer, RecognitionSummary};

static OBS_MIGRATIONS: LazyCounter = LazyCounter::new(names::CER_PARTITION_MIGRATIONS);
static OBS_CKPT_BYTES: LazyGauge = LazyGauge::new(names::CER_CHECKPOINT_BYTES);

/// Band masks are single machine words.
const MAX_BANDS: usize = 64;

/// Default border-strip width, degrees of longitude (~5.5 km at the
/// equator). The close threshold is already converted to degrees per
/// area; the strip adds slack for bounding-box vs. polygon proximity
/// and boundary jitter. Wider strips only cost replicated deliveries.
pub const DEFAULT_BORDER_STRIP_DEG: f64 = 0.05;

/// Event kinds that terminate durative maritime fluents; broadcast to
/// every band so no interval is left open by under-delivery.
fn is_closing(kind: InputKind) -> bool {
    matches!(
        kind,
        InputKind::StopEnd | InputKind::SlowMotionEnd | InputKind::GapStart
    )
}

/// One window-retained event of a vessel, with the bands it has been
/// delivered to (core engines and extension engines separately).
struct LogEntry {
    t: Timestamp,
    event: InputEvent,
    core_mask: u64,
    ext_mask: u64,
}

/// Per-vessel coordination state.
struct VesselState {
    /// The band whose engine receives all of this vessel's events.
    home: usize,
    /// Longitude of the newest event seen (migration trigger).
    last_lon: f64,
    /// Timestamp of the newest event seen.
    last_t: Timestamp,
    /// Window-retained events, in arrival order.
    log: Vec<LogEntry>,
}

/// Cross-band state, present only with more than one band.
struct Routing {
    /// Per band: merged longitude intervals within rule reach of its areas.
    reach: Vec<Vec<(f64, f64)>>,
    vessels: HashMap<Mmsi, VesselState>,
    /// Every admitted event's timestamp, once — the distinct working
    /// memory (per-band sums would count replicated events twice).
    admitted: SlidingWindow<()>,
}

impl Routing {
    /// All bands an event at `lon` must reach because some band's areas
    /// have rule reach there.
    fn reach_mask(&self, lon: f64) -> u64 {
        let mut mask = 0u64;
        for (b, intervals) in self.reach.iter().enumerate() {
            if intervals.iter().any(|(lo, hi)| *lo <= lon && lon <= *hi) {
                mask |= 1 << b;
            }
        }
        mask
    }

    fn encode(&self, w: &mut Writer) {
        w.put_len(self.admitted.len());
        for (t, ()) in self.admitted.iter() {
            t.encode(w);
        }
        let mut mmsis: Vec<Mmsi> = self.vessels.keys().copied().collect();
        mmsis.sort();
        w.put_len(mmsis.len());
        for m in mmsis {
            let st = &self.vessels[&m];
            w.put_u32(m.0);
            w.put_u32(st.home as u32);
            w.put_f64(st.last_lon);
            st.last_t.encode(w);
            w.put_len(st.log.len());
            for e in &st.log {
                e.t.encode(w);
                e.event.encode(w);
                w.put_u64(e.core_mask);
                w.put_u64(e.ext_mask);
            }
        }
    }

    fn decode(
        r: &mut Reader<'_>,
        bands: usize,
        spec: WindowSpec,
        reach: Vec<Vec<(f64, f64)>>,
    ) -> Result<Self, CkptError> {
        let na = r.take_len()?;
        let mut admitted = SlidingWindow::new(spec);
        for _ in 0..na {
            admitted.insert(Timestamp::decode(r)?, ());
        }
        let nv = r.take_len()?;
        let mut vessels = HashMap::with_capacity(nv);
        for _ in 0..nv {
            let m = Mmsi(r.take_u32()?);
            let home = r.take_u32()? as usize;
            if home >= bands {
                return Err(CkptError::Corrupt("vessel home out of range"));
            }
            let last_lon = r.take_f64()?;
            let last_t = Timestamp::decode(r)?;
            let nl = r.take_len()?;
            let mut log = Vec::with_capacity(nl);
            for _ in 0..nl {
                log.push(LogEntry {
                    t: Timestamp::decode(r)?,
                    event: InputEvent::decode(r)?,
                    core_mask: r.take_u64()?,
                    ext_mask: r.take_u64()?,
                });
            }
            let state = VesselState {
                home,
                last_lon,
                last_t,
                log,
            };
            if vessels.insert(m, state).is_some() {
                return Err(CkptError::Corrupt("duplicate vessel state"));
            }
        }
        Ok(Self {
            reach,
            vessels,
            admitted,
        })
    }
}

/// Extension (loitering/rendezvous) state: one full-area engine per band
/// plus the global loiter anchors used by pairwise joins.
struct ExtCoordinator {
    engines: Vec<Engine<Knowledge, InputEvent, Loitering, Alert>>,
    anchors: HashMap<Mmsi, Vec<(Timestamp, GeoPoint)>>,
    rendezvous_radius_m: f64,
    min_overlap_secs: i64,
}

impl ExtCoordinator {
    /// Records a loiter anchor when `e` can initiate loitering.
    fn note_anchor(&mut self, t: Timestamp, e: &InputEvent) {
        if matches!(e.kind, InputKind::StopStart | InputKind::SlowMotionStart) {
            self.anchors
                .entry(e.mmsi)
                .or_default()
                .push((t, e.position));
        }
    }
}

/// A partitioned recognizer that survives vessels crossing band
/// boundaries and can be checkpointed/restored as a whole (module docs).
pub struct CoordinatedRecognizer {
    partitioner: GeoPartitioner,
    bands: Vec<MaritimeRecognizer>,
    /// `None` at one band, where the band engine alone is exact.
    routing: Option<Routing>,
    spec: WindowSpec,
    strategy: EvalStrategy,
    close_threshold_m: f64,
    mode: SpatialMode,
    border_strip_deg: f64,
    migrations: u64,
    /// Whether events have been streamed (or state restored);
    /// `with_extensions` and `with_border_strip_deg` must run before.
    streamed: bool,
    /// Static configuration, kept to build extension engines and to keep
    /// restore honest about what it was given.
    vessel_infos: Vec<VesselInfo>,
    areas: Vec<Area>,
    ext: Option<ExtCoordinator>,
}

impl CoordinatedRecognizer {
    /// Builds one recognizer per band (areas routed by centroid, all
    /// vessels known everywhere) plus the coordination state.
    #[must_use]
    pub fn new(
        partitioner: GeoPartitioner,
        vessels: &[VesselInfo],
        areas: &[Area],
        close_threshold_m: f64,
        mode: SpatialMode,
        spec: WindowSpec,
    ) -> Self {
        Self::with_strategy(
            partitioner,
            vessels,
            areas,
            close_threshold_m,
            mode,
            spec,
            EvalStrategy::default(),
        )
    }

    /// Like [`CoordinatedRecognizer::new`] with an explicit per-band
    /// engine evaluation strategy.
    ///
    /// # Panics
    /// If the partitioner has more than 64 bands.
    #[must_use]
    pub fn with_strategy(
        partitioner: GeoPartitioner,
        vessels: &[VesselInfo],
        areas: &[Area],
        close_threshold_m: f64,
        mode: SpatialMode,
        spec: WindowSpec,
        strategy: EvalStrategy,
    ) -> Self {
        assert!(
            partitioner.partitions() <= MAX_BANDS,
            "at most {MAX_BANDS} bands"
        );
        let routed = partitioner.route_areas(areas);
        let bands = routed
            .iter()
            .map(|band_areas| {
                let kb = Knowledge::new(
                    vessels.iter().copied(),
                    band_areas.clone(),
                    close_threshold_m,
                    mode,
                );
                MaritimeRecognizer::with_strategy(kb, spec, strategy)
            })
            .collect();
        let routing = (routed.len() > 1).then(|| Routing {
            reach: band_reach(&routed, close_threshold_m, DEFAULT_BORDER_STRIP_DEG),
            vessels: HashMap::new(),
            admitted: SlidingWindow::new(spec),
        });
        Self {
            partitioner,
            bands,
            routing,
            spec,
            strategy,
            close_threshold_m,
            mode,
            border_strip_deg: DEFAULT_BORDER_STRIP_DEG,
            migrations: 0,
            streamed: false,
            vessel_infos: vessels.to_vec(),
            areas: areas.to_vec(),
            ext: None,
        }
    }

    /// Enables the extension CEs (loitering + rendezvous): one full-area
    /// loitering engine per band, read for each vessel from its current
    /// home band, with the pairwise rendezvous join done globally.
    /// Extension engines use on-demand spatial reasoning regardless of
    /// the core mode — port proximity must consult the full area set.
    ///
    /// # Panics
    /// If events have already been streamed.
    #[must_use]
    pub fn with_extensions(mut self) -> Self {
        assert!(!self.streamed, "enable extensions before streaming events");
        let engines = (0..self.bands.len())
            .map(|_| {
                let kb = Knowledge::new(
                    self.vessel_infos.iter().copied(),
                    self.areas.clone(),
                    self.close_threshold_m,
                    SpatialMode::OnDemand,
                );
                Engine::new(kb, extension_description(), self.spec).with_strategy(self.strategy)
            })
            .collect();
        self.ext = Some(ExtCoordinator {
            engines,
            anchors: HashMap::new(),
            rendezvous_radius_m: 1_500.0,
            min_overlap_secs: 600,
        });
        self
    }

    /// Overrides the border-strip width (degrees of longitude) added to
    /// every band's reach.
    ///
    /// # Panics
    /// If `deg` is negative or not finite, or events have already been
    /// streamed (earlier events were replicated under the old reach).
    #[must_use]
    pub fn with_border_strip_deg(mut self, deg: f64) -> Self {
        assert!(deg.is_finite() && deg >= 0.0, "strip must be finite and >= 0");
        assert!(
            !self.streamed,
            "set the border strip before streaming events"
        );
        self.border_strip_deg = deg;
        if let Some(routing) = &mut self.routing {
            routing.reach = band_reach(
                &self.partitioner.route_areas(&self.areas),
                self.close_threshold_m,
                deg,
            );
        }
        self
    }

    /// Number of bands.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.bands.len()
    }

    /// The band partitioner.
    #[must_use]
    pub fn partitioner(&self) -> &GeoPartitioner {
        &self.partitioner
    }

    /// The knowledge base of one band.
    #[must_use]
    pub fn knowledge(&self, band: usize) -> &Knowledge {
        self.bands[band].knowledge()
    }

    /// Vessels handed off between bands so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The configured border-strip width, degrees.
    #[must_use]
    pub fn border_strip_deg(&self) -> f64 {
        self.border_strip_deg
    }

    /// Whether `other` has the configuration a checkpoint carries: band
    /// boundaries, window, evaluation strategy, spatial mode and close
    /// threshold. A checkpoint restores into a pipeline only when these
    /// match its own recognizer's.
    #[must_use]
    pub fn same_configuration(&self, other: &Self) -> bool {
        self.partitioner.boundaries() == other.partitioner.boundaries()
            && self.spec == other.spec
            && self.strategy == other.strategy
            && self.mode == other.mode
            && self.close_threshold_m.to_bits() == other.close_threshold_m.to_bits()
    }

    /// How queries have been evaluated so far, summed across bands.
    #[must_use]
    pub fn incremental_stats(&self) -> maritime_rtec::IncrementalStats {
        let mut sum = maritime_rtec::IncrementalStats::default();
        for r in &self.bands {
            let s = r.incremental_stats();
            sum.incremental += s.incremental;
            sum.full += s.full;
            sum.triggers_evaluated += s.triggers_evaluated;
            sum.triggers_reused += s.triggers_reused;
        }
        sum
    }

    /// Turns per-CE provenance capture on or off in every band. Alerts and
    /// durative CEs are area-owned and areas are band-disjoint, so each
    /// chain is assembled by exactly one band even where events are
    /// replicated into the border strip.
    pub fn set_provenance(&mut self, on: bool) {
        for r in &mut self.bands {
            r.set_provenance(on);
        }
    }

    /// Takes the chains assembled by the most recent traced query, merged
    /// across bands and sorted by id.
    pub fn take_chains(&mut self) -> Vec<crate::provenance::CeChain> {
        let mut chains: Vec<_> = self
            .bands
            .iter_mut()
            .flat_map(MaritimeRecognizer::take_chains)
            .collect();
        chains.sort_by(|a, b| a.id.cmp(&b.id));
        chains
    }

    /// Streams events. With one band they go straight to its engine;
    /// otherwise each is admitted once, logged against its vessel, and
    /// delivered to its home band, every band whose reach covers it,
    /// and — for closing events — all bands.
    pub fn add_events(&mut self, events: impl IntoIterator<Item = (Timestamp, InputEvent)>) {
        self.streamed = true;
        let Some(routing) = &mut self.routing else {
            let batch: Vec<_> = events.into_iter().collect();
            if let Some(ext) = &mut self.ext {
                for (t, e) in &batch {
                    ext.note_anchor(*t, e);
                }
                ext.engines[0].add_events(batch.iter().cloned());
            }
            deliver(&mut self.bands[0], batch);
            return;
        };
        let n = self.bands.len();
        let all = if n == MAX_BANDS {
            u64::MAX
        } else {
            (1u64 << n) - 1
        };
        let mut core_batches: Vec<Vec<(Timestamp, InputEvent)>> = vec![Vec::new(); n];
        let mut ext_batches: Vec<Vec<(Timestamp, InputEvent)>> = vec![Vec::new(); n];
        for (t, e) in events {
            routing.admitted.insert(t, ());
            let lon = e.position.lon;
            let reach = routing.reach_mask(lon);
            let home_default = self.partitioner.index_of(lon);
            let st = routing.vessels.entry(e.mmsi).or_insert_with(|| VesselState {
                home: home_default,
                last_lon: lon,
                last_t: t,
                log: Vec::new(),
            });
            let core_mask = if is_closing(e.kind) {
                all
            } else {
                (1u64 << st.home) | reach
            };
            let ext_mask = if self.ext.is_some() { 1u64 << st.home } else { 0 };
            if t >= st.last_t {
                st.last_t = t;
                st.last_lon = lon;
            }
            st.log.push(LogEntry {
                t,
                event: e.clone(),
                core_mask,
                ext_mask,
            });
            if let Some(ext) = &mut self.ext {
                ext.note_anchor(t, &e);
                ext_batches[st.home].push((t, e.clone()));
            }
            for (b, batch) in core_batches.iter_mut().enumerate() {
                if core_mask & (1 << b) != 0 {
                    batch.push((t, e.clone()));
                }
            }
        }
        for (band, batch) in self.bands.iter_mut().zip(core_batches) {
            if !batch.is_empty() {
                deliver(band, batch);
            }
        }
        if let Some(ext) = &mut self.ext {
            for (engine, batch) in ext.engines.iter_mut().zip(ext_batches) {
                if !batch.is_empty() {
                    engine.add_events(batch);
                }
            }
        }
    }

    /// Migrates every vessel whose newest position has left its home
    /// band: the vessel's window-retained events are replayed into the
    /// destination band's engines (entries already delivered there are
    /// skipped). Runs at the start of every query, i.e. at window
    /// boundaries; idempotent. A no-op at one band.
    fn migrate_due(&mut self, q: Timestamp) {
        let Some(routing) = &mut self.routing else {
            return;
        };
        let horizon = q - self.spec.range;
        let has_ext = self.ext.is_some();
        let mut mmsis: Vec<Mmsi> = routing.vessels.keys().copied().collect();
        mmsis.sort();
        for m in mmsis {
            let st = routing.vessels.get_mut(&m).expect("vessel state");
            // Events at or before q − ω are outside every engine's window.
            st.log.retain(|e| e.t > horizon);
            let new_home = self.partitioner.index_of(st.last_lon);
            if new_home == st.home {
                continue;
            }
            let bit = 1u64 << new_home;
            let core_payload: Vec<(Timestamp, InputEvent)> = st
                .log
                .iter()
                .filter(|e| e.core_mask & bit == 0)
                .map(|e| (e.t, e.event.clone()))
                .collect();
            let ext_payload: Vec<(Timestamp, InputEvent)> = if has_ext {
                st.log
                    .iter()
                    .filter(|e| e.ext_mask & bit == 0)
                    .map(|e| (e.t, e.event.clone()))
                    .collect()
            } else {
                Vec::new()
            };
            for e in &mut st.log {
                e.core_mask |= bit;
                if has_ext {
                    e.ext_mask |= bit;
                }
            }
            st.home = new_home;
            self.migrations += 1;
            OBS_MIGRATIONS.inc();
            if !core_payload.is_empty() {
                deliver(&mut self.bands[new_home], core_payload);
            }
            if !ext_payload.is_empty() {
                if let Some(ext) = self.ext.as_mut() {
                    ext.engines[new_home].add_events(ext_payload);
                }
            }
        }
    }

    /// Runs one query on every band and merges the results exactly as the
    /// serial recognizer would report them. Vessels due for migration are
    /// handed off first (window boundary). The last band runs on the
    /// calling thread, the others on scoped threads; one band is simply
    /// the serial engine's query.
    pub fn recognize_and_summarize(&mut self, q: Timestamp) -> RecognitionSummary {
        self.migrate_due(q);
        let Some(routing) = &mut self.routing else {
            return self.bands[0].recognize_and_summarize(q);
        };
        let (last, others) = self.bands.split_last_mut().expect("at least one band");
        let summaries: Vec<RecognitionSummary> = std::thread::scope(|scope| {
            let handles: Vec<_> = others
                .iter_mut()
                .map(|r| scope.spawn(move || r.recognize_and_summarize(q)))
                .collect();
            let last = last.recognize_and_summarize(q);
            handles
                .into_iter()
                .map(|h| h.join().expect("band thread panicked"))
                .chain([last])
                .collect()
        });
        let mut merged = merge_band_summaries(q, summaries);
        // Replication feeds one event to several bands; the distinct
        // working memory is the coordinator's own admission window.
        routing.admitted.slide_to_discarding(q);
        merged.working_memory = routing
            .admitted
            .contiguous()
            .partition_point(|(t, ())| *t <= q);
        merged
    }

    /// Recognizes the extension CEs (loitering + rendezvous) at `q`.
    /// Each vessel's loitering intervals are read from its *current*
    /// home band (which holds its complete window stream); the pairwise
    /// rendezvous join runs globally, so pairs meeting exactly on a band
    /// boundary are found.
    ///
    /// # Panics
    /// If extensions were not enabled
    /// ([`CoordinatedRecognizer::with_extensions`]).
    pub fn recognize_extensions(&mut self, q: Timestamp) -> ExtensionReport {
        self.migrate_due(q);
        let ext = self
            .ext
            .as_mut()
            .expect("extensions not enabled; call with_extensions()");
        let mut loitering: Vec<(Mmsi, IntervalList)> = Vec::new();
        for (band, engine) in ext.engines.iter_mut().enumerate() {
            for (Loitering(m), il) in engine.recognize_at(q).fluents {
                let home = self.routing.as_ref().map_or(0, |r| r.vessels[&m].home);
                if home == band && !il.is_empty() {
                    loitering.push((m, il));
                }
            }
        }
        loitering.sort_by_key(|(m, _)| *m);

        let mut rendezvous = Vec::new();
        for i in 0..loitering.len() {
            for j in (i + 1)..loitering.len() {
                let (ma, ila) = &loitering[i];
                let (mb, ilb) = &loitering[j];
                let overlap = ila.intersect(ilb);
                for iv in overlap.intervals() {
                    let long_enough = match iv.until {
                        Some(u) => u.as_secs() - iv.since.as_secs() >= ext.min_overlap_secs,
                        None => q.as_secs() - iv.since.as_secs() >= ext.min_overlap_secs,
                    };
                    if !long_enough {
                        continue;
                    }
                    let (Some(pa), Some(pb)) = (
                        anchor_before(&ext.anchors, *ma, iv.since),
                        anchor_before(&ext.anchors, *mb, iv.since),
                    ) else {
                        continue;
                    };
                    let d = haversine_distance_m(pa, pb);
                    if d <= ext.rendezvous_radius_m {
                        rendezvous.push(Rendezvous {
                            vessels: (*ma, *mb),
                            interval: *iv,
                            location: pa.midpoint(pb),
                            separation_m: d,
                        });
                    }
                }
            }
        }

        ExtensionReport {
            query_time: q,
            loitering,
            rendezvous,
        }
    }

    /// Serializes the whole coordinator — band engines, routing state
    /// (admission window and vessel logs, absent at one band), extension
    /// state — into one framed checkpoint.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        let _span = maritime_obs::span!(names::CER_CHECKPOINT_WRITE_NS);
        let mut w = Writer::new();
        let boundaries = self.partitioner.boundaries();
        w.put_len(boundaries.len());
        for b in boundaries {
            w.put_f64(*b);
        }
        self.spec.encode(&mut w);
        self.strategy.encode(&mut w);
        w.put_f64(self.close_threshold_m);
        w.put_u8(mode_tag(self.mode));
        w.put_f64(self.border_strip_deg);
        w.put_u64(self.migrations);
        w.put_len(self.bands.len());
        for band in &self.bands {
            band.checkpoint_into(&mut w);
        }
        if let Some(routing) = &self.routing {
            routing.encode(&mut w);
        }
        match &self.ext {
            None => w.put_u8(0),
            Some(ext) => {
                w.put_u8(1);
                for engine in &ext.engines {
                    engine.checkpoint_into(&mut w);
                }
                let mut anchor_mmsis: Vec<Mmsi> = ext.anchors.keys().copied().collect();
                anchor_mmsis.sort();
                w.put_len(anchor_mmsis.len());
                for m in anchor_mmsis {
                    w.put_u32(m.0);
                    let pts = &ext.anchors[&m];
                    w.put_len(pts.len());
                    for (t, p) in pts {
                        t.encode(&mut w);
                        w.put_f64(p.lon);
                        w.put_f64(p.lat);
                    }
                }
                w.put_f64(ext.rendezvous_radius_m);
                w.put_i64(ext.min_overlap_secs);
            }
        }
        let bytes = w.into_frame();
        OBS_CKPT_BYTES.set(bytes.len() as i64);
        bytes
    }

    /// Restores a coordinator from a [`CoordinatedRecognizer::checkpoint`].
    /// `vessels` and `areas` must be the same static configuration the
    /// checkpointed coordinator was built with — the checkpoint carries
    /// the dynamic state, not the knowledge base.
    pub fn restore(
        vessels: &[VesselInfo],
        areas: &[Area],
        bytes: &[u8],
    ) -> Result<Self, CkptError> {
        let _span = maritime_obs::span!(names::CER_CHECKPOINT_RESTORE_NS);
        let payload = unframe(bytes)?;
        let mut r = Reader::new(payload);

        let nb = r.take_len()?;
        let mut boundaries = Vec::with_capacity(nb);
        for _ in 0..nb {
            boundaries.push(r.take_f64()?);
        }
        if !(boundaries.iter().all(|b| b.is_finite())
            && boundaries.windows(2).all(|w| w[0] < w[1]))
        {
            return Err(CkptError::Corrupt("band boundaries not ascending"));
        }
        let spec = WindowSpec::decode(&mut r)?;
        let strategy = EvalStrategy::decode(&mut r)?;
        let close_threshold_m = r.take_f64()?;
        let mode = mode_from_tag(r.take_u8()?)?;
        let border_strip_deg = r.take_f64()?;
        if !(border_strip_deg.is_finite() && border_strip_deg >= 0.0) {
            return Err(CkptError::Corrupt("bad border strip"));
        }
        let migrations = r.take_u64()?;

        let partitioner = GeoPartitioner::from_boundaries(boundaries);
        let n = partitioner.partitions();
        if n > MAX_BANDS {
            return Err(CkptError::Corrupt("too many bands"));
        }
        let routed = partitioner.route_areas(areas);
        if r.take_len()? != n {
            return Err(CkptError::Corrupt("band count mismatch"));
        }
        let mut bands = Vec::with_capacity(n);
        for band_areas in &routed {
            let kb = Knowledge::new(
                vessels.iter().copied(),
                band_areas.clone(),
                close_threshold_m,
                mode,
            );
            bands.push(MaritimeRecognizer::restore_from(kb, &mut r)?);
        }
        let routing = if n > 1 {
            let reach = band_reach(&routed, close_threshold_m, border_strip_deg);
            Some(Routing::decode(&mut r, n, spec, reach)?)
        } else {
            None
        };

        let ext = match r.take_u8()? {
            0 => None,
            1 => {
                let mut engines = Vec::with_capacity(n);
                for _ in 0..n {
                    let kb = Knowledge::new(
                        vessels.iter().copied(),
                        areas.to_vec(),
                        close_threshold_m,
                        SpatialMode::OnDemand,
                    );
                    engines.push(Engine::restore_from(kb, extension_description(), &mut r)?);
                }
                let na = r.take_len()?;
                let mut anchors = HashMap::with_capacity(na);
                for _ in 0..na {
                    let m = Mmsi(r.take_u32()?);
                    let np = r.take_len()?;
                    let mut pts = Vec::with_capacity(np);
                    for _ in 0..np {
                        let t = Timestamp::decode(&mut r)?;
                        let lon = r.take_f64()?;
                        let lat = r.take_f64()?;
                        pts.push((t, GeoPoint { lon, lat }));
                    }
                    if anchors.insert(m, pts).is_some() {
                        return Err(CkptError::Corrupt("duplicate anchor vessel"));
                    }
                }
                let rendezvous_radius_m = r.take_f64()?;
                let min_overlap_secs = r.take_i64()?;
                Some(ExtCoordinator {
                    engines,
                    anchors,
                    rendezvous_radius_m,
                    min_overlap_secs,
                })
            }
            _ => return Err(CkptError::Corrupt("bad extensions tag")),
        };
        r.finish()?;

        Ok(Self {
            partitioner,
            bands,
            routing,
            spec,
            strategy,
            close_threshold_m,
            mode,
            border_strip_deg,
            migrations,
            streamed: true,
            vessel_infos: vessels.to_vec(),
            areas: areas.to_vec(),
            ext,
        })
    }

    /// Crash-and-restore one band in place: the band's engine (and its
    /// extension engine, when extensions are enabled) is serialized
    /// through the checkpoint codec, dropped, and rebuilt from the
    /// bytes. Recognition output must be unaffected — the chaos
    /// harness's `KillPartition` fault uses this to prove it.
    ///
    /// `band` is taken modulo the band count so schedules generated
    /// against one partitioning remain valid against another.
    ///
    /// # Errors
    /// Propagates [`CkptError`] if the serialized engine fails to decode
    /// — which would indicate a checkpoint-format bug, not bad input.
    pub fn kill_band(&mut self, band: u32) -> Result<(), CkptError> {
        let band = band as usize % self.bands.len();
        let mut w = Writer::new();
        self.bands[band].checkpoint_into(&mut w);
        if let Some(ext) = &self.ext {
            ext.engines[band].checkpoint_into(&mut w);
        }
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);

        let band_areas = self.partitioner.route_areas(&self.areas).swap_remove(band);
        let kb = Knowledge::new(
            self.vessel_infos.iter().copied(),
            band_areas,
            self.close_threshold_m,
            self.mode,
        );
        self.bands[band] = MaritimeRecognizer::restore_from(kb, &mut r)?;
        if let Some(ext) = &mut self.ext {
            let kb = Knowledge::new(
                self.vessel_infos.iter().copied(),
                self.areas.clone(),
                self.close_threshold_m,
                SpatialMode::OnDemand,
            );
            ext.engines[band] = Engine::restore_from(kb, extension_description(), &mut r)?;
        }
        r.finish()?;
        Ok(())
    }
}

/// Delivers a batch to one band's core engine, attaching band-local
/// spatial facts in precomputed mode (the same facts band-local
/// recognition would derive on demand).
fn deliver(recognizer: &mut MaritimeRecognizer, mut batch: Vec<(Timestamp, InputEvent)>) {
    if recognizer.knowledge().spatial_mode == SpatialMode::Precomputed {
        crate::spatial::annotate_with_spatial_facts(&mut batch, recognizer.knowledge());
    }
    recognizer.add_events(batch);
}

/// Merges per-band summaries of one query into a single summary. Bands
/// own disjoint area sets, so the per-area interval lists never collide;
/// they are concatenated and sorted by area for determinism.
fn merge_band_summaries(q: Timestamp, summaries: Vec<RecognitionSummary>) -> RecognitionSummary {
    let mut merged = RecognitionSummary {
        query_time: q,
        suspicious: Vec::new(),
        illegal_fishing: Vec::new(),
        alerts: Vec::new(),
        ce_count: 0,
        working_memory: 0,
    };
    for s in summaries {
        merged.suspicious.extend(s.suspicious);
        merged.illegal_fishing.extend(s.illegal_fishing);
        merged.alerts.extend(s.alerts);
        merged.ce_count += s.ce_count;
    }
    merged.suspicious.sort_by_key(|(area, _)| area.0);
    merged.illegal_fishing.sort_by_key(|(area, _)| area.0);
    merged.alerts.sort_by_key(|(t, _)| *t);
    merged
}

/// Latest loiter anchor of a vessel at or before `t` (mirrors
/// `ExtendedRecognizer::anchor_before`).
fn anchor_before(
    anchors: &HashMap<Mmsi, Vec<(Timestamp, GeoPoint)>>,
    mmsi: Mmsi,
    t: Timestamp,
) -> Option<GeoPoint> {
    anchors
        .get(&mmsi)?
        .iter()
        .rev()
        .find(|(at, _)| *at <= t)
        .map(|(_, p)| *p)
}

/// Per band: the merged longitude intervals within rule reach of its
/// areas — each area's bounding box dilated by the close threshold
/// (converted to degrees at the area's worst-case latitude) plus the
/// border strip.
fn band_reach(
    routed_areas: &[Vec<Area>],
    close_threshold_m: f64,
    strip_deg: f64,
) -> Vec<Vec<(f64, f64)>> {
    routed_areas
        .iter()
        .map(|areas| {
            let mut intervals: Vec<(f64, f64)> = areas
                .iter()
                .map(|a| {
                    let bb = a.polygon.bbox();
                    // Meters-per-degree shrinks with latitude; take the
                    // bbox's worst case, clamped away from the poles.
                    let lat = bb.min_lat.abs().max(bb.max_lat.abs()).min(89.0);
                    let margin =
                        close_threshold_m / (111_320.0 * lat.to_radians().cos()) + strip_deg;
                    (bb.min_lon - margin, bb.max_lon + margin)
                })
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite longitudes"));
            let mut merged: Vec<(f64, f64)> = Vec::new();
            for (lo, hi) in intervals {
                match merged.last_mut() {
                    Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                    _ => merged.push((lo, hi)),
                }
            }
            merged
        })
        .collect()
}

fn mode_tag(mode: SpatialMode) -> u8 {
    match mode {
        SpatialMode::OnDemand => 0,
        SpatialMode::Precomputed => 1,
        SpatialMode::OnDemandIndexed => 2,
    }
}

fn mode_from_tag(tag: u8) -> Result<SpatialMode, CkptError> {
    Ok(match tag {
        0 => SpatialMode::OnDemand,
        1 => SpatialMode::Precomputed,
        2 => SpatialMode::OnDemandIndexed,
        _ => return Err(CkptError::Corrupt("unknown SpatialMode tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_geo::{AreaId, AreaKind, Polygon};
    use maritime_rtec::Duration;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn spec() -> WindowSpec {
        WindowSpec::new(Duration::hours(6), Duration::hours(1)).unwrap()
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

    fn areas() -> Vec<Area> {
        vec![
            Area::new(
                AreaId(0),
                "west-park",
                AreaKind::Protected,
                Polygon::rectangle(GeoPoint::new(21.0, 37.0), GeoPoint::new(21.2, 37.2)),
            ),
            // Straddles the 24.0 boundary of a 2-band [20, 28] split; the
            // centroid (23.99) homes it to the west band.
            Area::new(
                AreaId(1),
                "border-park",
                AreaKind::Protected,
                Polygon::rectangle(GeoPoint::new(23.88, 38.0), GeoPoint::new(24.1, 38.2)),
            ),
            Area::new(
                AreaId(2),
                "east-no-fish",
                AreaKind::ForbiddenFishing,
                Polygon::rectangle(GeoPoint::new(26.0, 38.0), GeoPoint::new(26.2, 38.2)),
            ),
        ]
    }

    fn ev(mmsi: u32, kind: InputKind, lon: f64, lat: f64) -> InputEvent {
        InputEvent {
            mmsi: Mmsi(mmsi),
            kind,
            position: GeoPoint::new(lon, lat),
            close_areas: None,
        }
    }

    fn coordinator(bands: usize) -> CoordinatedRecognizer {
        CoordinatedRecognizer::new(
            GeoPartitioner::uniform(bands, 20.0, 28.0),
            &vessels(10),
            &areas(),
            2_000.0,
            SpatialMode::OnDemand,
            spec(),
        )
    }

    fn serial() -> MaritimeRecognizer {
        MaritimeRecognizer::new(
            Knowledge::new(vessels(10), areas(), 2_000.0, SpatialMode::OnDemand),
            spec(),
        )
    }

    /// A voyage that crosses the 24.0 boundary mid-stop sequence and
    /// raises an alert near the border-straddling area from the far side.
    fn crossing_events() -> Vec<(Timestamp, InputEvent)> {
        vec![
            // Fishing vessel 100 slows near the east no-fish zone.
            (t(100), ev(100, InputKind::SlowMotionStart, 26.1, 38.1)),
            // Vessel 101 stops just EAST of the boundary, close to the
            // west-homed border park: reach replication must deliver it.
            (t(200), ev(101, InputKind::StopStart, 24.05, 38.1)),
            // Vessels 102..104 stop inside the border park (west side).
            (t(300), ev(102, InputKind::StopStart, 23.95, 38.1)),
            (t(400), ev(103, InputKind::StopStart, 23.95, 38.1)),
            (t(500), ev(104, InputKind::StopStart, 23.95, 38.1)),
            // Vessel 100 crosses west mid-voyage, then its slow-motion
            // run ends on the west side (closing broadcast).
            (t(4_000), ev(100, InputKind::Turn, 23.0, 38.1)),
            (t(4_500), ev(100, InputKind::SlowMotionEnd, 22.9, 38.1)),
            // Gap near the border park from the east side of the line.
            (t(5_000), ev(105, InputKind::GapStart, 24.02, 38.1)),
            // Vessel 101 departs.
            (t(6_000), ev(101, InputKind::StopEnd, 24.05, 38.1)),
        ]
    }

    fn ce_set(s: &RecognitionSummary) -> String {
        s.canonical_json()
    }

    #[test]
    fn border_crossing_voyages_match_serial() {
        let events = crossing_events();
        let queries: Vec<Timestamp> = (1..=8).map(|i| t(i * 3_600)).collect();
        for bands in [1, 2, 4] {
            let mut coord = coordinator(bands);
            let mut base = serial();
            let mut fed = 0;
            let mut expected_migrations_seen = false;
            for q in &queries {
                let batch: Vec<_> = events
                    .iter()
                    .filter(|(et, _)| *et <= *q && {
                        let _ = fed;
                        true
                    })
                    .cloned()
                    .collect();
                // Feed incrementally: only events not yet fed.
                let new: Vec<_> = batch.into_iter().skip(fed).collect();
                fed += new.len();
                coord.add_events(new.iter().cloned());
                base.add_events(new.iter().cloned());
                let s = coord.recognize_and_summarize(*q);
                let b = base.recognize_and_summarize(*q);
                assert_eq!(ce_set(&s), ce_set(&b), "bands={bands} q={q:?}");
                expected_migrations_seen |= coord.migrations() > 0;
            }
            if bands > 1 {
                assert!(expected_migrations_seen, "vessel 100 must migrate");
            }
        }
    }

    #[test]
    fn one_band_checkpoint_is_the_serial_engine_plus_a_constant_header() {
        // One band keeps no per-vessel state: the checkpoint's overhead
        // over the serial engine's must not grow with the fleet.
        let overhead = |n: u32| {
            let fleet = vessels(n);
            let mut coord = CoordinatedRecognizer::new(
                GeoPartitioner::uniform(1, 20.0, 28.0),
                &fleet,
                &areas(),
                2_000.0,
                SpatialMode::OnDemand,
                spec(),
            );
            let mut base = MaritimeRecognizer::new(
                Knowledge::new(fleet, areas(), 2_000.0, SpatialMode::OnDemand),
                spec(),
            );
            let mut events: Vec<_> = (0..n)
                .flat_map(|i| {
                    let lon = 20.5 + 7.0 * f64::from(i) / f64::from(n);
                    let at = i64::from(i);
                    [
                        (t(100 + at), ev(100 + i, InputKind::StopStart, lon, 38.1)),
                        (t(2_000 + at), ev(100 + i, InputKind::StopEnd, lon, 38.1)),
                    ]
                })
                .collect();
            events.sort_by_key(|(at, _)| *at);
            coord.add_events(events.clone());
            base.add_events(events);
            assert_eq!(
                coord.recognize_and_summarize(t(3_600)).canonical_json(),
                base.recognize_and_summarize(t(3_600)).canonical_json()
            );
            coord.checkpoint().len() - base.checkpoint().len()
        };
        assert_eq!(overhead(1), overhead(100));
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let events = crossing_events();
        let queries: Vec<Timestamp> = (1..=8).map(|i| t(i * 3_600)).collect();
        for (bands, strategy) in [
            (1, EvalStrategy::FromScratch),
            (1, EvalStrategy::Incremental),
            (2, EvalStrategy::FromScratch),
            (2, EvalStrategy::Incremental),
        ] {
            let build = || {
                CoordinatedRecognizer::with_strategy(
                    GeoPartitioner::uniform(bands, 20.0, 28.0),
                    &vessels(10),
                    &areas(),
                    2_000.0,
                    SpatialMode::OnDemand,
                    spec(),
                    strategy,
                )
                .with_extensions()
            };
            let mut live = build();
            let mut killed = build();
            let mut fed_live = 0;
            let mut fed_killed = 0;
            for (qi, q) in queries.iter().enumerate() {
                let feed = |fed: &mut usize| {
                    let new: Vec<_> = events
                        .iter()
                        .filter(|(et, _)| *et <= *q)
                        .skip(*fed)
                        .cloned()
                        .collect();
                    *fed += new.len();
                    new
                };
                live.add_events(feed(&mut fed_live));
                killed.add_events(feed(&mut fed_killed));
                let a = live.recognize_and_summarize(*q);
                let b = killed.recognize_and_summarize(*q);
                assert_eq!(a.canonical_json(), b.canonical_json(), "bands={bands} q={q:?}");
                let ra = live.recognize_extensions(*q);
                let rb = killed.recognize_extensions(*q);
                assert_eq!(ra.loitering, rb.loitering);
                assert_eq!(ra.rendezvous.len(), rb.rendezvous.len());
                if qi == 3 {
                    // Kill & restore mid-stream.
                    let bytes = killed.checkpoint();
                    drop(killed);
                    killed = CoordinatedRecognizer::restore(&vessels(10), &areas(), &bytes)
                        .expect("restore");
                    // A restored coordinator checkpoints to identical bytes.
                    assert_eq!(killed.checkpoint(), bytes);
                }
            }
        }
    }

    #[test]
    fn kill_band_is_invisible_to_recognition() {
        let events = crossing_events();
        let queries: Vec<Timestamp> = (1..=8).map(|i| t(i * 3_600)).collect();
        for strategy in [EvalStrategy::FromScratch, EvalStrategy::Incremental] {
            let build = || {
                CoordinatedRecognizer::with_strategy(
                    GeoPartitioner::uniform(2, 20.0, 28.0),
                    &vessels(10),
                    &areas(),
                    2_000.0,
                    SpatialMode::OnDemand,
                    spec(),
                    strategy,
                )
                .with_extensions()
            };
            let mut live = build();
            let mut killed = build();
            let mut fed_live = 0;
            let mut fed_killed = 0;
            for (qi, q) in queries.iter().enumerate() {
                let feed = |fed: &mut usize| {
                    let new: Vec<_> = events
                        .iter()
                        .filter(|(et, _)| *et <= *q)
                        .skip(*fed)
                        .cloned()
                        .collect();
                    *fed += new.len();
                    new
                };
                live.add_events(feed(&mut fed_live));
                killed.add_events(feed(&mut fed_killed));
                // Crash a different band (modulo wraps band 2 -> 0)
                // between every feed and query.
                killed.kill_band(qi as u32).expect("kill_band");
                let a = live.recognize_and_summarize(*q);
                let b = killed.recognize_and_summarize(*q);
                assert_eq!(a.canonical_json(), b.canonical_json(), "q={q:?}");
                let ra = live.recognize_extensions(*q);
                let rb = killed.recognize_extensions(*q);
                assert_eq!(ra.loitering, rb.loitering);
                assert_eq!(ra.rendezvous.len(), rb.rendezvous.len());
            }
            // After a full sweep of kills the whole-fleet checkpoints
            // still agree byte-for-byte.
            assert_eq!(live.checkpoint(), killed.checkpoint());
        }
    }

    #[test]
    fn corrupt_coordinator_checkpoints_are_rejected() {
        let mut coord = coordinator(2);
        coord.add_events(crossing_events());
        coord.recognize_and_summarize(t(3_600));
        let bytes = coord.checkpoint();
        for n in 0..bytes.len().min(64) {
            assert!(
                CoordinatedRecognizer::restore(&vessels(10), &areas(), &bytes[..n]).is_err(),
                "truncated prefix {n} accepted"
            );
        }
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xA5;
        assert!(CoordinatedRecognizer::restore(&vessels(10), &areas(), &bad).is_err());
    }

    #[test]
    fn rendezvous_on_a_band_boundary_is_found() {
        for bands in [1, 2] {
            let mut coord = coordinator(bands).with_extensions();
            // Two vessels meet exactly astride the 24.0 boundary, ~440 m
            // apart, both offshore (no ports configured).
            coord.add_events(vec![
                (t(100), ev(106, InputKind::StopStart, 23.9975, 38.5)),
                (t(200), ev(107, InputKind::StopStart, 24.0025, 38.5)),
                (t(4_000), ev(106, InputKind::StopEnd, 23.9975, 38.5)),
                (t(4_200), ev(107, InputKind::StopEnd, 24.0025, 38.5)),
            ]);
            let report = coord.recognize_extensions(t(7_200));
            assert_eq!(report.loitering.len(), 2, "bands={bands}");
            assert_eq!(report.rendezvous.len(), 1, "{:?}", report.rendezvous);
            assert_eq!(report.rendezvous[0].vessels, (Mmsi(106), Mmsi(107)));
        }
    }

    #[test]
    fn reach_intervals_cover_dilated_bboxes() {
        let routed = GeoPartitioner::uniform(2, 20.0, 28.0).route_areas(&areas());
        let reach = band_reach(&routed, 2_000.0, 0.05);
        // The border park (west band) reaches east of 24.1.
        assert!(reach[0].iter().any(|(lo, hi)| *lo <= 24.1 && 24.1 <= *hi));
        // The west band's reach does not cover the east no-fish zone's
        // far side.
        assert!(!reach[0].iter().any(|(lo, hi)| *lo <= 27.0 && 27.0 <= *hi));
    }
}
