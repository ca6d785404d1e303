//! End-to-end maritime surveillance system (Patroumpas et al., EDBT 2015).
//!
//! This crate wires the full processing scheme of Figure 1:
//!
//! ```text
//! AIS stream ──> Data Scanner ──> Mobility Tracker ──> Compressor
//!                                        │ critical points
//!                 ┌──────────────────────┼─────────────────────┐
//!                 ▼                      ▼                     ▼
//!         Trajectory Exporter   Complex Event Recognition   Staging area
//!             (KML)              (RTEC: suspicious areas,       │ deltas
//!                                 illegal fishing/shipping,     ▼
//!                                 dangerous shipping)      Trip reconstruction
//!                                        │ alerts               │ trips
//!                                        ▼                      ▼
//!                                  Marine authorities     Trajectory archive
//!                                                         (Hermes MOD analogue)
//!
//!          every stage ──metrics──> maritime-obs registry ──> snapshots
//!                                   (counters / gauges / histograms;
//!                                    surveil --metrics-json, OBSERVABILITY.md)
//! ```
//!
//! See [`pipeline::SurveillancePipeline`] for the runtime, [`config`] for
//! the calibrated settings of Tables 2–3, and the component crates
//! (`maritime-tracker`, `maritime-rtec`, `maritime-cer`,
//! `maritime-modstore`, `maritime-ais`, `maritime-geo`,
//! `maritime-stream`, `maritime-obs`) for each subsystem. Every stage
//! publishes runtime metrics to the global `maritime-obs` registry —
//! `OBSERVABILITY.md` at the repository root is the operator's handbook
//! for reading them.
//!
//! # Quickstart
//!
//! ```
//! use maritime::prelude::*;
//!
//! // Simulate a small AIS fleet (stand-in for a live AIS feed).
//! let sim = FleetSimulator::new(FleetConfig::tiny(42));
//! let areas = generate_areas(&AreaGenConfig::default());
//! let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
//!
//! // Build and run the pipeline over the stream.
//! let config = SurveillanceConfig::default();
//! let mut pipeline = SurveillancePipeline::new(&config, vessels, areas).unwrap();
//! let report = pipeline.run(sim.generate().iter().map(|r| (*r).into()));
//!
//! assert!(report.raw_positions > 0);
//! assert!(report.compression_ratio > 0.5);
//! ```

#![warn(missing_docs)]

pub mod alerts;
pub mod chaos;
pub mod config;
pub mod pipeline;
pub mod serve;
pub mod trace;

pub use alerts::{AlertRecord, AlertLog};
pub use chaos::{kill_schedule, ChaosEngine, ChaosHarness, EngineRun};
pub use config::{MetricsMode, Parallelism, SurveillanceConfig, TraceMode};
pub use pipeline::{RunReport, SlideOutcome, SurveillancePipeline};
pub use serve::{BroadcastHub, LiveIngest, ServeOptions, ServerHandle, WireEncoder};
pub use trace::{SentenceIndex, TraceLog};

/// Convenient re-exports of the whole system surface.
pub mod prelude {
    pub use crate::alerts::{AlertLog, AlertRecord};
    pub use crate::config::{MetricsMode, Parallelism, SurveillanceConfig, TraceMode};
    pub use crate::pipeline::{RunReport, SlideOutcome, SurveillancePipeline};
    pub use crate::trace::{SentenceIndex, TraceLog};
    pub use maritime_ais::{
        DataScanner, FleetConfig, FleetSimulator, Mmsi, PositionReport, PositionTuple,
        VesselClass, VesselProfile,
    };
    pub use maritime_cer::{
        render_proof_tree, Alert, AlertKind, CeChain, CoordinatedRecognizer, EvalStrategy,
        GeoPartitioner, IncrementalStats, InputEvent, InputKind, Knowledge, MaritimeRecognizer,
        SpatialMode, VesselInfo,
    };
    pub use maritime_geo::aegean::{generate_areas, ports, AreaGenConfig};
    pub use maritime_geo::{Area, AreaId, AreaKind, BoundingBox, GeoPoint, Polygon};
    pub use maritime_modstore::{ArchiveStats, StagingArea, TrajectoryStore, Trip, TripReconstructor};
    pub use maritime_rtec::{Interval, IntervalList};
    pub use maritime_stream::{Duration, ShardRouter, SlideBatches, Timestamp, WindowSpec};
    pub use maritime_tracker::{
        canonical_order, Annotation, CriticalPoint, MobilityTracker, ShardedTracker,
        TrackerParams, WindowedTracker,
    };
}
