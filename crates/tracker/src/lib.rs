//! Trajectory detection component (§3 of the paper).
//!
//! Consumes the positional stream `⟨MMSI, Lon, Lat, τ⟩` and tracks major
//! changes along each vessel's movement, identifying annotated *critical
//! points* — a stop, a sudden or smooth turn, slow motion, a communication
//! gap, a speed change — while filtering off-course outliers as noise.
//! Retaining only critical points compresses the stream by ~94-95 % with
//! negligible loss in accuracy (§5.1).
//!
//! Layout:
//!
//! * [`params`] — the calibrated thresholds of Table 3;
//! * [`velocity`] — instantaneous velocity vectors from consecutive fixes;
//! * [`history`] — struct-of-arrays ring of recent fixes with cached pair
//!   distances (the hot-path layout behind the outlier test);
//! * [`events`] — critical-point annotations and movement events;
//! * [`vessel`] — the per-vessel detection state machine (instantaneous
//!   events, long-lasting events, outlier filtering);
//! * [`tracker`] — the fleet-level *Mobility Tracker* of Figure 1;
//! * [`window`] — windowed operation: per-slide batches, "delta" critical
//!   point eviction toward the staging area;
//! * [`sharded`] — MMSI-sharded parallel operation on scoped threads,
//!   differentially equivalent to the serial tracker;
//! * [`compression`] — compression-ratio accounting (Figure 9);
//! * [`accuracy`] — synchronized RMSE of reconstructed trajectories
//!   (Figure 8);
//! * [`synopsis`] — per-vessel trajectory synopses and reconstruction;
//! * [`baselines`] — Douglas–Peucker and dead-reckoning comparison
//!   baselines (the related work of §6).

#![warn(missing_docs)]

pub mod accuracy;
pub mod baselines;
pub mod compression;
pub mod events;
pub mod history;
pub mod params;
pub mod sharded;
pub mod synopsis;
pub mod tracker;
pub mod velocity;
pub mod vessel;
pub mod window;

pub use events::{Annotation, CriticalPoint, MovementEventKind};
pub use params::TrackerParams;
pub use sharded::{canonical_order, ShardedSlideReport, ShardedTracker};
pub use tracker::{MmsiHashBuilder, MobilityTracker};
pub use velocity::VelocityVector;
pub use window::{SlideReport, WindowedTracker};
