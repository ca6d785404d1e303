//! The in-process sides of a run: the batch reference every wire output
//! is checked against, and the closed-loop `LiveIngest` replay that both
//! measures `replay_lines_per_s` and attributes each recognition query to
//! the input line that completed it.

use std::time::{Duration as StdDuration, Instant};

use maritime::serve::cli::ServeCli;
use maritime::serve::LiveIngest;
use maritime::{SurveillanceConfig, SurveillancePipeline, WireEncoder};
use maritime_ais::{DataScanner, PositionTuple};
use maritime_cer::VesselInfo;
use maritime_chaos::StreamLine;
use maritime_geo::aegean::{generate_areas, AreaGenConfig};
use maritime_geo::Area;
use maritime_stream::{AdmissionBuffer, Duration, SourceId, Timestamp};

/// The server's NMEA-in TCP listener numbers sources from 1, so the one
/// benchmark connection is source 1.
pub const SOURCE: u32 = 1;

/// Everything that configures the data path, parsed from the very flags
/// the server is started with.
pub struct PathSetup {
    /// Pipeline configuration.
    pub config: SurveillanceConfig,
    /// Knowledge base.
    pub vessels: Vec<VesselInfo>,
    /// Monitored areas (the server's built-in Aegean set).
    pub areas: Vec<Area>,
    /// Admission skew.
    pub skew: Duration,
    /// Mux duplicate window.
    pub dedup: Duration,
}

impl PathSetup {
    /// Parses `serve_flags` exactly as `surveil serve` does.
    ///
    /// # Errors
    /// The parser's message for a flag it rejects.
    pub fn from_flags(serve_flags: &[String], vessels: Vec<VesselInfo>) -> Result<Self, String> {
        let cli = ServeCli::parse(serve_flags)?;
        Ok(Self {
            config: cli.surveillance_config()?,
            vessels,
            areas: generate_areas(&AreaGenConfig::default()),
            skew: Duration::secs(cli.skew_secs),
            dedup: Duration::secs(cli.dedup_secs),
        })
    }

    /// A fresh live path.
    ///
    /// # Panics
    /// If the configuration does not validate (it parsed, so it does).
    #[must_use]
    pub fn live(&self) -> LiveIngest {
        LiveIngest::new(
            &self.config,
            self.vessels.clone(),
            self.areas.clone(),
            self.skew,
            self.dedup,
        )
        .expect("parsed configuration validates")
    }
}

/// Whether a wire event line is a recognition `query` event.
#[must_use]
pub fn is_query(event: &str) -> bool {
    event.starts_with("{\"type\":\"query\"")
}

/// Whether a wire event line is the end-of-stream marker.
#[must_use]
pub fn is_flushed(event: &str) -> bool {
    event.starts_with("{\"type\":\"flushed\"")
}

/// The batch side of the serve ≡ batch differential: admission →
/// `DataScanner` → `SurveillancePipeline::run_with_observer` →
/// `WireEncoder`, as `surveil` batch mode renders a log.
///
/// # Panics
/// If the configuration does not validate.
#[must_use]
pub fn batch_events(setup: &PathSetup, lines: &[StreamLine]) -> Vec<String> {
    let mut pipeline =
        SurveillancePipeline::new(&setup.config, setup.vessels.clone(), setup.areas.clone())
            .expect("parsed configuration validates");
    let mut admission: AdmissionBuffer<&str> = AdmissionBuffer::new(setup.skew);
    let mut scanner = DataScanner::new();
    let mut tuples: Vec<PositionTuple> = Vec::new();
    let mut drain = |released: Vec<(Timestamp, &str)>| {
        for (t, line) in released {
            tuples.extend(scanner.scan(line, t));
        }
    };
    for (t, line) in lines {
        drain(admission.push(Timestamp(*t), line.as_str()));
    }
    drain(admission.flush());
    let mut encoder = WireEncoder::new();
    let mut events = Vec::new();
    pipeline.run_with_observer(tuples, |outcome| {
        events.extend(encoder.encode_outcome(outcome));
    });
    events
}

/// Lines per timed segment of a replay.
pub const SEGMENT_LINES: usize = 50_000;

/// What one closed-loop replay through `LiveIngest` produced.
pub struct Replay {
    /// Every wire event, `flushed` marker excluded.
    pub events: Vec<String>,
    /// For each `query` event in order, the index of the input line whose
    /// `push_line` emitted it; `lines.len()` stands for the `#flush`.
    pub triggers: Vec<usize>,
    /// Wall time of the pushes and the flush.
    pub wall: StdDuration,
    /// Wall time of each [`SEGMENT_LINES`]-line segment in order; the
    /// flush counts in the last one.
    pub segments: Vec<StdDuration>,
}

/// Pushes every line through a fresh `LiveIngest` as one source, then
/// flushes, timing the whole pass and each segment of it.
#[must_use]
pub fn replay(setup: &PathSetup, lines: &[StreamLine]) -> Replay {
    let mut live = setup.live();
    let mut events = Vec::new();
    let mut triggers = Vec::new();
    let mut segments = Vec::with_capacity(lines.len() / SEGMENT_LINES + 1);
    let started = Instant::now();
    let mut segment = started;
    for (i, (t, line)) in lines.iter().enumerate() {
        let out = live.push_line(SourceId(SOURCE), Timestamp(*t), line);
        attribute(i, out, &mut events, &mut triggers);
        if (i + 1) % SEGMENT_LINES == 0 && i + 1 < lines.len() {
            let now = Instant::now();
            segments.push(now - segment);
            segment = now;
        }
    }
    attribute(lines.len(), live.flush(), &mut events, &mut triggers);
    let end = Instant::now();
    segments.push(end - segment);
    Replay {
        events,
        triggers,
        wall: end - started,
        segments,
    }
}

/// Replay throughput, lines per second, with interference filtered out:
/// each segment is timed on every replay and only its fastest time
/// counts. The same segment does the same work on every replay, so a
/// segment that ran slow because another tenant shared the core is
/// replaced by a run of it that did not.
#[must_use]
pub fn fastest_segments_rate(lines: usize, replays: &[Vec<StdDuration>]) -> f64 {
    let segments = replays.iter().map(Vec::len).min().unwrap_or(0);
    let total: StdDuration = (0..segments)
        .map(|k| replays.iter().map(|r| r[k]).min().unwrap_or_default())
        .sum();
    lines as f64 / total.as_secs_f64()
}

/// Appends the events input line `index` produced, noting `index` as the
/// trigger of every `query` among them.
fn attribute(index: usize, out: Vec<String>, events: &mut Vec<String>, triggers: &mut Vec<usize>) {
    for event in out {
        if is_flushed(&event) {
            continue;
        }
        if is_query(&event) {
            triggers.push(index);
        }
        events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_ais::nmea::encode_report;
    use maritime_ais::{AisMessageType, Mmsi, PositionReport};
    use maritime_geo::GeoPoint;

    fn flags() -> Vec<String> {
        ["--track-window", "10,5", "--recog-window", "10,5"]
            .map(String::from)
            .to_vec()
    }

    /// One vessel reporting every 60 s from t = 10 s.
    fn tiny_stream() -> Vec<StreamLine> {
        (0..20)
            .map(|i| {
                let t = 10 + 60 * i;
                let report = PositionReport {
                    mmsi: Mmsi(237_000_001),
                    msg_type: AisMessageType::PositionReportClassA,
                    position: GeoPoint::new(24.0 + 0.001 * i as f64, 37.5),
                    sog_knots: Some(10.0),
                    cog_deg: Some(90.0),
                    timestamp: Timestamp(t),
                };
                (t, encode_report(&report))
            })
            .collect()
    }

    /// The first query closes (0, 300 s]. The batcher closes it when the
    /// 310 s fix reaches it, and admission (skew 120 s) releases that fix
    /// only once a line newer than 430 s arrives: the 490 s line, index 8.
    #[test]
    fn query_is_attributed_to_the_line_that_released_its_boundary() {
        let lines = tiny_stream();
        let setup = PathSetup::from_flags(&flags(), Vec::new()).unwrap();
        let run = replay(&setup, &lines);
        assert_eq!(lines[8].0, 490);
        assert_eq!(run.triggers.first(), Some(&8));
        assert!(run.triggers.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            run.triggers.last(),
            Some(&lines.len()),
            "the flush runs the final query"
        );
        assert_eq!(
            run.triggers.len(),
            run.events.iter().filter(|e| is_query(e)).count()
        );
    }

    #[test]
    fn fastest_segment_of_each_replay_counts() {
        let ms = StdDuration::from_millis;
        let replays = vec![vec![ms(100), ms(300)], vec![ms(200), ms(100)]];
        assert!((fastest_segments_rate(1_000, &replays) - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn live_replay_matches_the_batch_reference() {
        let (lines, vessels) = maritime_chaos::demo_sentences(5, 12, 3);
        let setup = PathSetup::from_flags(&flags(), vessels).unwrap();
        assert_eq!(replay(&setup, &lines).events, batch_events(&setup, &lines));
    }
}
