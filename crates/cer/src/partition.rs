//! Geographically partitioned, parallel recognition (§5.2, Figure 11).
//!
//! "One processor performed CE recognition for the areas located in, and
//! the vessels passing through the west part of the area under
//! surveillance. Similarly, the other processor performed CE recognition
//! for ... the east part. ... The input MEs are forwarded to the
//! appropriate processor (according to vessel location)."
//!
//! The partitioner splits the monitored region into `n` longitude bands
//! with (approximately) balanced event counts, builds one knowledge base
//! and one recognizer per band, routes each ME to its band by coordinates,
//! and runs the recognizers on OS threads.
//!
//! **Boundary effects.** Routing by event position means a vessel whose
//! trace crosses a band boundary has its MEs split across recognizers —
//! a durative fluent started on one side is then invisible to the other.
//! For physically continuous traces this is benign: the start and end
//! markers of a stop or slow-motion run are co-located, so marker pairs
//! always land in the same band, and only CEs *straddling* a boundary can
//! differ from single-recognizer output (the paper's setup shares this
//! property — MEs are "forwarded to the appropriate processor (according
//! to vessel location)"). Choose boundaries away from monitored areas to
//! eliminate the residual effect, or stream through
//! [`crate::coordinator::CoordinatedRecognizer`], which migrates vessels
//! across boundaries and matches the serial recognizer exactly.

use maritime_geo::Area;
use maritime_rtec::{Timestamp, WindowSpec};

use crate::input::InputEvent;
use crate::knowledge::{Knowledge, SpatialMode, VesselInfo};
use crate::recognizer::{MaritimeRecognizer, RecognitionSummary};

/// Longitude-band partitioner.
#[derive(Debug, Clone)]
pub struct GeoPartitioner {
    /// Interior boundaries, ascending. `n` partitions have `n − 1` entries.
    boundaries: Vec<f64>,
}

impl GeoPartitioner {
    /// The paper's two-way split of the Aegean at a fixed meridian.
    #[must_use]
    pub fn east_west() -> Self {
        Self {
            boundaries: vec![maritime_geo::aegean::EAST_WEST_SPLIT_LON],
        }
    }

    /// Splits into `n` bands balancing the given event sample: boundaries
    /// at the longitude quantiles of the events.
    #[must_use]
    pub fn balanced(n: usize, events: &[(Timestamp, InputEvent)]) -> Self {
        assert!(n >= 1);
        if n == 1 || events.is_empty() {
            return Self { boundaries: Vec::new() };
        }
        let mut lons: Vec<f64> = events.iter().map(|(_, e)| e.position.lon).collect();
        lons.sort_by(|a, b| a.partial_cmp(b).expect("finite longitudes"));
        let boundaries = (1..n)
            .map(|i| lons[i * lons.len() / n])
            .collect();
        Self { boundaries }
    }

    /// Splits `[lon_min, lon_max]` into `n` equal-width longitude bands.
    /// Unlike [`GeoPartitioner::balanced`] this needs no event sample, so
    /// it suits online operation where the stream is not known up front.
    ///
    /// # Panics
    /// If `n` is zero or the interval is not ascending and finite.
    #[must_use]
    pub fn uniform(n: usize, lon_min: f64, lon_max: f64) -> Self {
        assert!(n >= 1);
        assert!(
            lon_min.is_finite() && lon_max.is_finite() && lon_min < lon_max,
            "uniform bands need a finite ascending longitude interval"
        );
        let width = (lon_max - lon_min) / n as f64;
        Self {
            boundaries: (1..n).map(|i| lon_min + width * i as f64).collect(),
        }
    }

    /// Rebuilds a partitioner from saved interior boundaries (checkpoint
    /// restore path).
    ///
    /// # Panics
    /// If the boundaries are not finite and strictly ascending.
    #[must_use]
    pub fn from_boundaries(boundaries: Vec<f64>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1])
                && boundaries.iter().all(|b| b.is_finite()),
            "band boundaries must be finite and strictly ascending"
        );
        Self { boundaries }
    }

    /// Number of partitions.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Interior band boundaries, ascending (`partitions() − 1` entries).
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// The band index for a longitude.
    #[must_use]
    pub fn index_of(&self, lon: f64) -> usize {
        self.boundaries.partition_point(|b| *b <= lon)
    }

    /// Routes events into per-band vectors by vessel location.
    #[must_use]
    pub fn route_events(
        &self,
        events: &[(Timestamp, InputEvent)],
    ) -> Vec<Vec<(Timestamp, InputEvent)>> {
        let mut out = vec![Vec::new(); self.partitions()];
        for (t, e) in events {
            out[self.index_of(e.position.lon)].push((*t, e.clone()));
        }
        out
    }

    /// Routes areas into bands by centroid.
    #[must_use]
    pub fn route_areas(&self, areas: &[Area]) -> Vec<Vec<Area>> {
        let mut out = vec![Vec::new(); self.partitions()];
        for a in areas {
            out[self.index_of(a.polygon.centroid().lon)].push(a.clone());
        }
        out
    }
}

/// One query's merged result across partitions.
#[derive(Debug, Clone)]
pub struct MergedSummary {
    /// Query time.
    pub query_time: Timestamp,
    /// Per-partition summaries, in band order (west to east).
    pub per_partition: Vec<RecognitionSummary>,
}

impl MergedSummary {
    /// Total CE count across partitions.
    #[must_use]
    pub fn ce_count(&self) -> usize {
        self.per_partition.iter().map(|s| s.ce_count).sum()
    }

    /// Total working-memory size across partitions.
    #[must_use]
    pub fn working_memory(&self) -> usize {
        self.per_partition.iter().map(|s| s.working_memory).sum()
    }
}

/// Runs partitioned recognition: one recognizer per band on its own OS
/// thread, each processing all query times over its routed events.
/// Returns one [`MergedSummary`] per query time.
#[must_use]
pub fn recognize_partitioned(
    partitioner: &GeoPartitioner,
    vessels: &[VesselInfo],
    areas: &[Area],
    events: &[(Timestamp, InputEvent)],
    spec: WindowSpec,
    query_times: &[Timestamp],
    mode: SpatialMode,
) -> Vec<MergedSummary> {
    let routed_events = partitioner.route_events(events);
    let routed_areas = partitioner.route_areas(areas);

    let mut per_partition_results: Vec<Vec<RecognitionSummary>> =
        Vec::with_capacity(partitioner.partitions());

    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = routed_events
            .iter()
            .zip(&routed_areas)
            .map(|(band_events, band_areas)| {
                let band_areas = band_areas.clone();
                scope.spawn(move |_| {
                    let kb = Knowledge::new(
                        vessels.iter().copied(),
                        band_areas,
                        2_000.0,
                        mode,
                    );
                    let mut recognizer = MaritimeRecognizer::new(kb, spec);
                    recognizer.add_events(band_events.iter().cloned());
                    query_times
                        .iter()
                        .map(|q| recognizer.recognize_and_summarize(*q))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            per_partition_results.push(h.join().expect("partition thread panicked"));
        }
    })
    .expect("crossbeam scope");

    query_times
        .iter()
        .enumerate()
        .map(|(qi, q)| MergedSummary {
            query_time: *q,
            per_partition: per_partition_results
                .iter()
                .map(|r| r[qi].clone())
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputKind;
    use maritime_ais::Mmsi;
    use maritime_geo::{AreaId, AreaKind, GeoPoint, Polygon};
    use maritime_rtec::Duration;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn ev(mmsi: u32, kind: InputKind, lon: f64, lat: f64) -> (Timestamp, InputEvent) {
        (
            t(100 + i64::from(mmsi)),
            InputEvent {
                mmsi: Mmsi(mmsi),
                kind,
                position: GeoPoint::new(lon, lat),
                close_areas: None,
            },
        )
    }

    fn west_area() -> Area {
        Area::new(
            AreaId(0),
            "west-park",
            AreaKind::Protected,
            Polygon::rectangle(GeoPoint::new(21.0, 37.0), GeoPoint::new(21.2, 37.2)),
        )
    }

    fn east_area() -> Area {
        Area::new(
            AreaId(1),
            "east-park",
            AreaKind::Protected,
            Polygon::rectangle(GeoPoint::new(26.0, 38.0), GeoPoint::new(26.2, 38.2)),
        )
    }

    #[test]
    fn east_west_split_routes_by_longitude() {
        let p = GeoPartitioner::east_west();
        assert_eq!(p.partitions(), 2);
        assert_eq!(p.index_of(21.0), 0);
        assert_eq!(p.index_of(26.0), 1);
    }

    #[test]
    fn balanced_partitioner_equalizes_counts() {
        let events: Vec<_> = (0..100)
            .map(|i| ev(i, InputKind::Turn, 20.0 + 0.08 * f64::from(i), 38.0))
            .collect();
        let p = GeoPartitioner::balanced(4, &events);
        assert_eq!(p.partitions(), 4);
        let routed = p.route_events(&events);
        for band in &routed {
            assert!((20..=30).contains(&band.len()), "band size {}", band.len());
        }
        let total: usize = routed.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn single_partition_routes_everything_together() {
        let events = vec![ev(1, InputKind::Turn, 21.0, 38.0), ev(2, InputKind::Turn, 27.0, 38.0)];
        let p = GeoPartitioner::balanced(1, &events);
        let routed = p.route_events(&events);
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].len(), 2);
    }

    #[test]
    fn uniform_bands_are_equal_width() {
        let p = GeoPartitioner::uniform(4, 20.0, 28.0);
        assert_eq!(p.partitions(), 4);
        assert_eq!(p.index_of(20.5), 0);
        assert_eq!(p.index_of(22.5), 1);
        assert_eq!(p.index_of(24.5), 2);
        assert_eq!(p.index_of(27.9), 3);
        // Left-closed bands: a boundary longitude belongs to the right band.
        assert_eq!(p.index_of(22.0), 1);
    }

    #[test]
    fn partitioned_recognition_matches_single_recognizer() {
        let spec = WindowSpec::new(Duration::hours(6), Duration::hours(1)).unwrap();
        let vessels: Vec<VesselInfo> = (0..10)
            .map(|i| VesselInfo { mmsi: Mmsi(i), draft_m: 5.0, is_fishing: false })
            .collect();
        let areas = vec![west_area(), east_area()];
        // A gap near the west park and one near the east park.
        let events = vec![
            ev(1, InputKind::GapStart, 21.1, 37.1),
            ev(2, InputKind::GapStart, 26.1, 38.1),
        ];
        let queries = vec![t(3_600)];

        // Single recognizer.
        let mut single = MaritimeRecognizer::new(
            Knowledge::standard(vessels.iter().copied(), areas.clone()),
            spec,
        );
        single.add_events(events.iter().cloned());
        let s = single.recognize_and_summarize(t(3_600));

        // Two-way partitioned.
        let merged = recognize_partitioned(
            &GeoPartitioner::east_west(),
            &vessels,
            &areas,
            &events,
            spec,
            &queries,
            SpatialMode::OnDemand,
        );
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].ce_count(), s.ce_count);
        assert_eq!(merged[0].ce_count(), 2);
        // Each partition saw exactly its own event.
        assert_eq!(merged[0].per_partition[0].working_memory, 1);
        assert_eq!(merged[0].per_partition[1].working_memory, 1);
    }
}
