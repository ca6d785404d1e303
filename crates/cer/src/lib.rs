//! Maritime complex event recognition (§4 of the paper).
//!
//! Correlates the critical movement-event stream produced by the trajectory
//! detection component with static geographical and vessel knowledge to
//! recognize the four complex events of §4.1:
//!
//! 1. **Suspicious area** (rule-set 3) — at least four vessels stopped
//!    close to, or in, a monitored area;
//! 2. **Illegal fishing** (rule-set 4) — a fishing vessel stopped or moving
//!    too slowly close to a forbidden-fishing area;
//! 3. **Illegal shipping** (rule 5) — a vessel going silent (communication
//!    gap) close to a protected area;
//! 4. **Dangerous shipping** (rule 6) — a vessel moving slowly through
//!    waters too shallow for its draft.
//!
//! The durative CEs (1, 2) are fluents whose maximal intervals are computed
//! by the [`maritime_rtec`] engine; (3, 4) are instantaneous derived
//! events, pushed as [`Alert`]s.
//!
//! Two spatial-reasoning modes reproduce the ablation of Figure 11:
//! [`SpatialMode::OnDemand`] computes `close/3` during recognition via the
//! geographic grid index, while [`SpatialMode::Precomputed`] consumes
//! spatial facts attached to the input events (see [`spatial`]).
//! [`partition`] implements the geographic parallelisation of §5.2.

#![warn(missing_docs)]

pub mod ckpt;
pub mod coordinator;
pub mod extensions;
pub mod fluents;
pub mod input;
pub mod knowledge;
pub mod partition;
pub mod provenance;
pub mod recognizer;
pub mod spatial;

pub use coordinator::CoordinatedRecognizer;
pub use extensions::{ExtendedRecognizer, ExtensionReport, Rendezvous};
pub use fluents::{Alert, AlertKind, FluentKey};
pub use input::{InputEvent, InputKind};
pub use knowledge::{Knowledge, SpatialMode, VesselInfo};
pub use partition::GeoPartitioner;
pub use provenance::{alert_id, build_chains, render_proof_tree, visit_input_leaves, CeChain, ChainNode};
pub use maritime_rtec::{EvalStrategy, IncrementalStats};
pub use recognizer::{MaritimeRecognizer, RecognitionSummary};
