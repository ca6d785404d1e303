//! System configuration — the calibrated settings of Tables 2 and 3.

use maritime_cer::SpatialMode;
use maritime_stream::{Duration, WindowSpec, WindowSpecError};
use maritime_tracker::TrackerParams;
use serde::{Deserialize, Serialize};

/// Whether the pipeline publishes runtime metrics to the global
/// [`maritime_obs`] registry (see `OBSERVABILITY.md`).
///
/// Metric updates are lock-free atomic increments and cost well under 1%
/// of tracker throughput (`cargo bench --bench obs_overhead` asserts
/// this), so `On` is the default; `Off` flips every counter, gauge,
/// histogram, and span into a no-op for latency-critical deployments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricsMode {
    /// Publish metrics (the default).
    #[default]
    On,
    /// Disable every metric update; snapshots stay frozen.
    Off,
}

/// Whether recognition assembles per-CE provenance chains (see
/// `OBSERVABILITY.md`, "Tracing & provenance").
///
/// `Full` makes every emitted CE carry a serializable derivation — source
/// AIS sentence ids → critical-point annotations → contributing fluent
/// firings → rule id — at the cost of forcing from-scratch window
/// evaluation (the incremental fast path replays retained triggers
/// through cached interval maps without re-running rules, so there is
/// nothing to record on it). `Off` (the default) leaves recognition
/// byte-identical to an untraced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceMode {
    /// No provenance capture (the default).
    #[default]
    Off,
    /// Record a full derivation chain for every emitted CE.
    Full,
}

/// Degree of parallelism for each pipeline stage (§5.2 ran recognition on
/// two processors; tracking shards the same way by vessel).
///
/// `1` everywhere (the default) reproduces the serial pipeline exactly.
/// Tracking shards partition the fleet by MMSI hash and merge each slide
/// into one canonical order, so every shard count gives the same output,
/// while recognition bands partition the monitored region by longitude
/// under the partition coordinator, which migrates vessels across
/// boundaries and matches the serial output exactly (see
/// `maritime_cer::coordinator`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// MMSI-hash shards for the mobility tracker (1 = the serial tracker
    /// on the calling thread).
    pub tracker_shards: usize,
    /// Longitude bands for CE recognition (1 = the serial engine).
    pub recognition_bands: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self {
            tracker_shards: 1,
            recognition_bands: 1,
        }
    }
}

impl Parallelism {
    /// Largest accepted degree for either stage; beyond this, per-worker
    /// batches are too small for the fan-out cost to ever amortize.
    pub const MAX_DEGREE: usize = 256;

    /// Validates both degrees.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (stage, degree) in [
            ("tracker_shards", self.tracker_shards),
            ("recognition_bands", self.recognition_bands),
        ] {
            if degree == 0 || degree > Self::MAX_DEGREE {
                return Err(ConfigError::Parallelism {
                    stage,
                    degree,
                });
            }
        }
        Ok(())
    }
}

/// Complete pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurveillanceConfig {
    /// Mobility-tracking thresholds (Table 3).
    pub tracker: TrackerParams,
    /// Degree of parallelism per pipeline stage.
    pub parallelism: Parallelism,
    /// Sliding window of the trajectory detection component (Table 2
    /// defaults in bold: ω = 1 h, β = 5 min — the smallest setting that
    /// batches data meaningfully for online operation).
    pub tracking_window: WindowSpec,
    /// Sliding window of the CE recognition component (§5.2: slide of 1 h,
    /// range 1–9 h).
    pub recognition_window: WindowSpec,
    /// Proximity threshold of the `close/3` predicate, meters.
    pub close_threshold_m: f64,
    /// Spatial reasoning mode (Figure 11(a) vs 11(b)).
    pub spatial_mode: SpatialMode,
    /// Checkpointed incremental recognition: evaluate each query over the
    /// delta since the previous one instead of re-deriving the whole
    /// window (output is bit-identical; see `maritime_rtec::cache`).
    pub incremental_recognition: bool,
    /// Runtime metrics publication (see `OBSERVABILITY.md`). Applied
    /// globally when the pipeline is constructed.
    pub metrics: MetricsMode,
    /// Per-CE provenance capture (see [`TraceMode`]).
    pub trace: TraceMode,
    /// Soft deadline for one recognition query, in milliseconds. When a
    /// query overruns it, the pipeline bumps
    /// `pipeline_deadline_overruns_total` and records a
    /// `recognition_overrun` flight-recorder event (which triggers a dump
    /// if one is armed — see `maritime_obs::flight`). `None` disables the
    /// check.
    pub recognition_deadline_ms: Option<u64>,
}

impl Default for SurveillanceConfig {
    fn default() -> Self {
        Self {
            tracker: TrackerParams::default(),
            parallelism: Parallelism::default(),
            tracking_window: WindowSpec::new(Duration::hours(1), Duration::minutes(5))
                .expect("valid default window"),
            recognition_window: WindowSpec::new(Duration::hours(6), Duration::hours(1))
                .expect("valid default window"),
            close_threshold_m: 2_000.0,
            spatial_mode: SpatialMode::OnDemand,
            incremental_recognition: false,
            metrics: MetricsMode::default(),
            trace: TraceMode::default(),
            recognition_deadline_ms: None,
        }
    }
}

impl SurveillanceConfig {
    /// Validates every sub-configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.tracker.validate().map_err(ConfigError::Tracker)?;
        self.parallelism.validate()?;
        check_window(self.tracking_window)?;
        check_window(self.recognition_window)?;
        if self.close_threshold_m <= 0.0 {
            return Err(ConfigError::CloseThreshold(self.close_threshold_m));
        }
        // The recognizer runs on tracker slides: its cadence must be a
        // multiple of the tracking slide to align query times.
        let ts = self.tracking_window.slide.as_secs();
        let rs = self.recognition_window.slide.as_secs();
        if rs % ts != 0 {
            return Err(ConfigError::MisalignedSlides {
                tracking_secs: ts,
                recognition_secs: rs,
            });
        }
        if self.recognition_deadline_ms == Some(0) {
            return Err(ConfigError::ZeroDeadline);
        }
        Ok(())
    }
}

fn check_window(spec: WindowSpec) -> Result<(), ConfigError> {
    // Re-validate invariants (a deserialized spec bypasses the ctor).
    WindowSpec::new(spec.range, spec.slide)
        .map(|_| ())
        .map_err(ConfigError::Window)
}

/// Configuration validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Invalid tracker parameters.
    Tracker(String),
    /// Invalid window specification.
    Window(WindowSpecError),
    /// Non-positive proximity threshold.
    CloseThreshold(f64),
    /// A parallelism degree outside `1..=Parallelism::MAX_DEGREE`.
    Parallelism {
        /// Which stage was misconfigured.
        stage: &'static str,
        /// The rejected degree.
        degree: usize,
    },
    /// A recognition deadline of zero milliseconds (every query would
    /// overrun; use `None` to disable the check instead).
    ZeroDeadline,
    /// The recognition slide is not a multiple of the tracking slide.
    MisalignedSlides {
        /// Tracking slide in seconds.
        tracking_secs: i64,
        /// Recognition slide in seconds.
        recognition_secs: i64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tracker(msg) => write!(f, "tracker parameters: {msg}"),
            Self::Window(e) => write!(f, "window spec: {e}"),
            Self::CloseThreshold(v) => write!(f, "close threshold must be positive, got {v}"),
            Self::Parallelism { stage, degree } => write!(
                f,
                "{stage} must be in 1..={}, got {degree}",
                Parallelism::MAX_DEGREE
            ),
            Self::ZeroDeadline => write!(
                f,
                "recognition deadline must be at least 1 ms (use null to disable)"
            ),
            Self::MisalignedSlides { tracking_secs, recognition_secs } => write!(
                f,
                "recognition slide ({recognition_secs}s) must be a multiple of the tracking slide ({tracking_secs}s)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl PartialEq for SurveillanceConfig {
    fn eq(&self, other: &Self) -> bool {
        self.tracker == other.tracker
            && self.parallelism == other.parallelism
            && self.tracking_window == other.tracking_window
            && self.recognition_window == other.recognition_window
            && self.close_threshold_m == other.close_threshold_m
            && self.spatial_mode == other.spatial_mode
            && self.incremental_recognition == other.incremental_recognition
            && self.metrics == other.metrics
            && self.trace == other.trace
            && self.recognition_deadline_ms == other.recognition_deadline_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SurveillanceConfig::default().validate().unwrap();
    }

    #[test]
    fn misaligned_slides_rejected() {
        let cfg = SurveillanceConfig {
            tracking_window: WindowSpec::new(Duration::hours(1), Duration::minutes(7)).unwrap(),
            ..Default::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::MisalignedSlides { .. })
        ));
    }

    #[test]
    fn bad_threshold_rejected() {
        let cfg = SurveillanceConfig {
            close_threshold_m: 0.0,
            ..Default::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::CloseThreshold(_))));
    }

    #[test]
    fn bad_tracker_params_rejected() {
        let cfg = SurveillanceConfig {
            tracker: TrackerParams { m: 0, ..TrackerParams::default() },
            ..Default::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::Tracker(_))));
    }

    #[test]
    fn config_serializes_roundtrip() {
        let cfg = SurveillanceConfig {
            parallelism: Parallelism {
                tracker_shards: 4,
                recognition_bands: 2,
            },
            incremental_recognition: true,
            metrics: MetricsMode::Off,
            trace: TraceMode::Full,
            recognition_deadline_ms: Some(250),
            ..SurveillanceConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SurveillanceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn zero_deadline_rejected() {
        let cfg = SurveillanceConfig {
            recognition_deadline_ms: Some(0),
            ..Default::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroDeadline)));
        let ok = SurveillanceConfig {
            recognition_deadline_ms: Some(1),
            ..Default::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn zero_or_excessive_parallelism_rejected() {
        for parallelism in [
            Parallelism { tracker_shards: 0, recognition_bands: 1 },
            Parallelism { tracker_shards: 1, recognition_bands: 0 },
            Parallelism { tracker_shards: Parallelism::MAX_DEGREE + 1, recognition_bands: 1 },
        ] {
            let cfg = SurveillanceConfig { parallelism, ..Default::default() };
            assert!(matches!(cfg.validate(), Err(ConfigError::Parallelism { .. })));
        }
        let ok = SurveillanceConfig {
            parallelism: Parallelism { tracker_shards: 8, recognition_bands: 2 },
            ..Default::default()
        };
        ok.validate().unwrap();
    }
}
