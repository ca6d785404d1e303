//! Flag tables and parsers for `surveil serve` and `surveil feed`.
//!
//! The tables are the single source of truth for the serving CLI surface:
//! the binary parses from them, and the `SERVING.md` doc tests diff the
//! handbook's flags against them two-way — an undocumented flag or a
//! documented phantom both fail CI.

use maritime_cer::VesselInfo;
use maritime_stream::{Duration, WindowSpec};

use crate::config::{Parallelism, SurveillanceConfig};
use crate::serve::ServeOptions;

/// One CLI flag: name, value placeholder (`None` for boolean switches),
/// one-line help.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The flag, with leading dashes (`--nmea-tcp`).
    pub name: &'static str,
    /// Placeholder for the value, or `None` for a switch.
    pub value: Option<&'static str>,
    /// One-line help string.
    pub help: &'static str,
}

const fn flag(name: &'static str, value: Option<&'static str>, help: &'static str) -> FlagSpec {
    FlagSpec { name, value, help }
}

/// Every `surveil serve` flag.
pub const SERVE_FLAGS: &[FlagSpec] = &[
    flag("--bind", Some("ADDR"), "address every listener binds (default 127.0.0.1)"),
    flag("--nmea-tcp", Some("PORT"), "NMEA-in TCP port; 0 picks free, 'off' disables (default 10110)"),
    flag("--nmea-udp", Some("PORT"), "NMEA-in UDP port (default off)"),
    flag("--subscribe", Some("PORT"), "CE-out line-JSON TCP port; 'off' disables (default 10111)"),
    flag("--http", Some("PORT"), "HTTP port for /metrics, /sources, /healthz, /events (default 9090)"),
    flag("--queue", Some("N"), "per-subscriber event queue bound before eviction (default 1024)"),
    flag(
        "--ingest-queue",
        Some("N"),
        "raw-line backlog before sources block; lines queue in batches of up to 64, \
         so at most N + 63 wait (default 4096)",
    ),
    flag("--skew", Some("SECS"), "admission-buffer disorder bound (default 120)"),
    flag("--dedup-secs", Some("SECS"), "cross-source duplicate window; 0 disables (default 10)"),
    flag("--track-window", Some("RANGE,SLIDE"), "tracking window in minutes (default 60,5)"),
    flag("--recog-window", Some("RANGE,SLIDE"), "recognition window in minutes (default 360,60)"),
    flag("--shards", Some("N"), "tracker shards (default 1)"),
    flag("--bands", Some("N"), "recognition bands (default 1)"),
    flag("--incremental", None, "checkpointed incremental recognition"),
    flag("--demo-fleet", Some("N"), "vessel facts for the N-vessel demo fleet (matches 'surveil feed --demo N H')"),
    flag("--fleet", Some("FILE"), "vessel facts from a JSON array of {mmsi, draft_m, is_fishing}"),
    flag("--run-secs", Some("N"), "self-shutdown after N wall-clock seconds (default: run until #shutdown)"),
    flag("--checkpoint-dir", Some("DIR"), "write recognition-state checkpoints to DIR/serve.ckpt and restore from it on boot (default off)"),
    flag("--checkpoint-every", Some("N"), "recognition queries between checkpoint writes (default 1)"),
    flag("--sample-secs", Some("SECS"), "telemetry sampling interval for /metrics/history and SLO health (default 2)"),
    flag("--history-cap", Some("N"), "samples retained by the telemetry ring (default 256)"),
    flag("--slo-stale", Some("N"), "silent intervals with sources connected before rate_collapse breaches (default 3)"),
    flag("--slo-max-evictions", Some("N"), "subscriber evictions tolerated per interval (default 0)"),
    flag("--slo-error-ratio", Some("X"), "decode-error ratio tolerated per interval (default 0.5)"),
    flag("--slo-max-lag-ms", Some("MS"), "mean admission-to-alert latency tolerated (default 5000)"),
    flag("--slo-critical-after", Some("N"), "consecutive breaching evaluations before critical (default 5)"),
];

/// Every `surveil watch` flag.
pub const WATCH_FLAGS: &[FlagSpec] = &[
    flag("--http", Some("HOST:PORT"), "the server's HTTP address (required)"),
    flag("--interval-ms", Some("MS"), "poll interval (default 1000)"),
    flag("--samples", Some("N"), "stop after N polls; 0 runs until interrupted (default 0)"),
];

/// Every `surveil feed` flag.
pub const FEED_FLAGS: &[FlagSpec] = &[
    flag("--demo", Some("VESSELS HOURS"), "stream the deterministic demo log"),
    flag("--input", Some("FILE"), "stream a '<epoch> <sentence>' log file"),
    flag("--to", Some("HOST:PORT"), "the server's NMEA-in TCP address"),
    flag("--flush", None, "send #flush after the stream (end of stream)"),
    flag("--control", Some("NAME"), "send only a control line: 'flush' or 'shutdown'"),
    flag("--rate", Some("LINES/S"), "throttle the replay (default: full speed)"),
];

/// Parsed `surveil serve` invocation.
#[derive(Debug, Clone)]
pub struct ServeCli {
    /// Listener bind address.
    pub bind: String,
    /// NMEA-in TCP port (`None` = disabled).
    pub nmea_tcp: Option<u16>,
    /// NMEA-in UDP port.
    pub nmea_udp: Option<u16>,
    /// CE-out subscriber port.
    pub subscribe: Option<u16>,
    /// HTTP port.
    pub http: Option<u16>,
    /// Per-subscriber queue bound.
    pub queue: usize,
    /// Ingest channel bound.
    pub ingest_queue: usize,
    /// Admission skew, seconds.
    pub skew_secs: i64,
    /// Dedup window, seconds.
    pub dedup_secs: i64,
    /// Tracking window (range, slide) minutes.
    pub track_window_mins: (i64, i64),
    /// Recognition window (range, slide) minutes.
    pub recog_window_mins: (i64, i64),
    /// Tracker shards.
    pub shards: usize,
    /// Recognition bands.
    pub bands: usize,
    /// Incremental recognition.
    pub incremental: bool,
    /// Demo-fleet size for vessel facts.
    pub demo_fleet: Option<usize>,
    /// Vessel-facts JSON file.
    pub fleet: Option<String>,
    /// Self-shutdown deadline, seconds.
    pub run_secs: Option<u64>,
    /// Checkpoint directory (`None` = checkpointing off).
    pub checkpoint_dir: Option<String>,
    /// Recognition queries between checkpoint writes.
    pub checkpoint_every: u64,
    /// Telemetry sampling interval, seconds.
    pub sample_secs: u64,
    /// Telemetry ring capacity.
    pub history_cap: usize,
    /// SLO bounds for the health engine.
    pub slo: crate::serve::SloThresholds,
}

impl Default for ServeCli {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1".to_string(),
            nmea_tcp: Some(10110),
            nmea_udp: None,
            subscribe: Some(10111),
            http: Some(9090),
            queue: 1024,
            ingest_queue: 4096,
            skew_secs: 120,
            dedup_secs: 10,
            track_window_mins: (60, 5),
            recog_window_mins: (360, 60),
            shards: 1,
            bands: 1,
            incremental: false,
            demo_fleet: None,
            fleet: None,
            run_secs: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            sample_secs: 2,
            history_cap: 256,
            slo: crate::serve::SloThresholds::default(),
        }
    }
}

fn parse_port(v: &str) -> Result<Option<u16>, String> {
    if v == "off" {
        return Ok(None);
    }
    v.parse::<u16>()
        .map(Some)
        .map_err(|_| format!("not a port (or 'off'): {v}"))
}

fn parse_pair(v: &str) -> Result<(i64, i64), String> {
    let (a, b) = v
        .split_once(',')
        .ok_or_else(|| format!("expected RANGE,SLIDE: {v}"))?;
    let a = a.trim().parse::<i64>().map_err(|_| format!("not a number: {a}"))?;
    let b = b.trim().parse::<i64>().map_err(|_| format!("not a number: {b}"))?;
    Ok((a, b))
}

impl ServeCli {
    /// Parses `surveil serve` arguments (without the leading `serve`).
    ///
    /// # Errors
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut it = args.iter();
        let value = |name: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--bind" => cli.bind = value(a, &mut it)?,
                "--nmea-tcp" => cli.nmea_tcp = parse_port(&value(a, &mut it)?)?,
                "--nmea-udp" => cli.nmea_udp = parse_port(&value(a, &mut it)?)?,
                "--subscribe" => cli.subscribe = parse_port(&value(a, &mut it)?)?,
                "--http" => cli.http = parse_port(&value(a, &mut it)?)?,
                "--queue" => {
                    cli.queue = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--queue needs a positive integer".to_string())?;
                }
                "--ingest-queue" => {
                    cli.ingest_queue = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--ingest-queue needs a positive integer".to_string())?;
                }
                "--skew" => {
                    cli.skew_secs = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--skew needs seconds".to_string())?;
                }
                "--dedup-secs" => {
                    cli.dedup_secs = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--dedup-secs needs seconds".to_string())?;
                }
                "--track-window" => cli.track_window_mins = parse_pair(&value(a, &mut it)?)?,
                "--recog-window" => cli.recog_window_mins = parse_pair(&value(a, &mut it)?)?,
                "--shards" => {
                    cli.shards = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--shards needs a positive integer".to_string())?;
                }
                "--bands" => {
                    cli.bands = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--bands needs a positive integer".to_string())?;
                }
                "--incremental" => cli.incremental = true,
                "--demo-fleet" => {
                    cli.demo_fleet = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|_| "--demo-fleet needs a vessel count".to_string())?,
                    );
                }
                "--fleet" => cli.fleet = Some(value(a, &mut it)?),
                "--checkpoint-dir" => cli.checkpoint_dir = Some(value(a, &mut it)?),
                "--checkpoint-every" => {
                    cli.checkpoint_every = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--checkpoint-every needs a query count".to_string())?;
                }
                "--run-secs" => {
                    cli.run_secs = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|_| "--run-secs needs seconds".to_string())?,
                    );
                }
                "--sample-secs" => {
                    cli.sample_secs = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--sample-secs needs seconds".to_string())?;
                }
                "--history-cap" => {
                    cli.history_cap = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--history-cap needs a positive integer".to_string())?;
                }
                "--slo-stale" => {
                    cli.slo.stale_intervals = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--slo-stale needs an interval count".to_string())?;
                }
                "--slo-max-evictions" => {
                    cli.slo.max_evictions = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--slo-max-evictions needs a count".to_string())?;
                }
                "--slo-error-ratio" => {
                    cli.slo.error_ratio = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--slo-error-ratio needs a ratio in [0,1]".to_string())?;
                }
                "--slo-max-lag-ms" => {
                    cli.slo.max_lag_ms = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--slo-max-lag-ms needs milliseconds".to_string())?;
                }
                "--slo-critical-after" => {
                    cli.slo.critical_after = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--slo-critical-after needs a count".to_string())?;
                }
                other => return Err(format!("unknown serve flag: {other}")),
            }
        }
        Ok(cli)
    }

    /// Builds the pipeline configuration these flags describe.
    ///
    /// # Errors
    /// The window-spec message when a `--track-window`/`--recog-window`
    /// pair is invalid.
    pub fn surveillance_config(&self) -> Result<SurveillanceConfig, String> {
        let (tr, ts) = self.track_window_mins;
        let (rr, rs) = self.recog_window_mins;
        Ok(SurveillanceConfig {
            tracking_window: WindowSpec::new(Duration::minutes(tr), Duration::minutes(ts))
                .map_err(|e| format!("--track-window: {e}"))?,
            recognition_window: WindowSpec::new(Duration::minutes(rr), Duration::minutes(rs))
                .map_err(|e| format!("--recog-window: {e}"))?,
            parallelism: Parallelism {
                tracker_shards: self.shards,
                recognition_bands: self.bands,
            },
            incremental_recognition: self.incremental,
            ..SurveillanceConfig::default()
        })
    }

    /// Turns the parsed flags into full [`ServeOptions`] (vessels/areas
    /// supplied by the caller, who knows where the fleet facts come from).
    ///
    /// # Errors
    /// See [`ServeCli::surveillance_config`].
    pub fn serve_options(
        &self,
        vessels: Vec<VesselInfo>,
        areas: Vec<maritime_geo::Area>,
    ) -> Result<ServeOptions, String> {
        Ok(ServeOptions {
            config: self.surveillance_config()?,
            vessels,
            areas,
            bind: self.bind.clone(),
            nmea_tcp_port: self.nmea_tcp,
            nmea_udp_port: self.nmea_udp,
            subscribe_port: self.subscribe,
            http_port: self.http,
            skew: Duration::secs(self.skew_secs),
            dedup_window: Duration::secs(self.dedup_secs),
            queue_bound: self.queue,
            ingest_bound: self.ingest_queue,
            sample_interval: std::time::Duration::from_secs(self.sample_secs.max(1)),
            history_capacity: self.history_cap,
            slo: self.slo,
            checkpoint_dir: self.checkpoint_dir.clone().map(std::path::PathBuf::from),
            checkpoint_every: self.checkpoint_every.max(1),
        })
    }
}

/// Parsed `surveil watch` invocation.
#[derive(Debug, Clone)]
pub struct WatchCli {
    /// The server's HTTP address.
    pub http: String,
    /// Poll interval, milliseconds.
    pub interval_ms: u64,
    /// Polls before exiting (0 = until interrupted).
    pub samples: u64,
}

impl WatchCli {
    /// Parses `surveil watch` arguments (without the leading `watch`).
    ///
    /// # Errors
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut http = None;
        let mut interval_ms = 1000u64;
        let mut samples = 0u64;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--http" => http = it.next().cloned(),
                "--interval-ms" => {
                    interval_ms = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--interval-ms needs milliseconds")?;
                }
                "--samples" => {
                    samples = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--samples needs a count")?;
                }
                other => return Err(format!("unknown watch flag: {other}")),
            }
        }
        Ok(Self {
            http: http.ok_or("watch needs --http HOST:PORT")?,
            interval_ms: interval_ms.max(50),
            samples,
        })
    }
}

/// Parsed `surveil feed` invocation.
#[derive(Debug, Clone, Default)]
pub struct FeedCli {
    /// Demo stream: (vessels, hours).
    pub demo: Option<(usize, i64)>,
    /// Log file to stream.
    pub input: Option<String>,
    /// Server address.
    pub to: Option<String>,
    /// Send `#flush` after the stream.
    pub flush: bool,
    /// Send only a control line.
    pub control: Option<String>,
    /// Replay throttle, lines per second (0 = full speed).
    pub rate: u64,
}

impl FeedCli {
    /// Parses `surveil feed` arguments (without the leading `feed`).
    ///
    /// # Errors
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--demo" => {
                    let vessels = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--demo needs VESSELS HOURS")?;
                    let hours = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--demo needs VESSELS HOURS")?;
                    cli.demo = Some((vessels, hours));
                }
                "--input" => cli.input = it.next().cloned(),
                "--to" => cli.to = it.next().cloned(),
                "--flush" => cli.flush = true,
                "--control" => cli.control = it.next().cloned(),
                "--rate" => {
                    cli.rate = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--rate needs lines per second")?;
                }
                other => return Err(format!("unknown feed flag: {other}")),
            }
        }
        if cli.to.is_none() {
            return Err("feed needs --to HOST:PORT".to_string());
        }
        if cli.control.is_none() && cli.demo.is_none() && cli.input.is_none() {
            return Err("feed needs --demo, --input, or --control".to_string());
        }
        Ok(cli)
    }
}

/// The demo fleet's static vessel facts: the same profiles (seed
/// `0x5EAF00D`) that `surveil feed --demo N H` streams, so a server
/// started with `--demo-fleet N` recognizes against the right knowledge
/// base. Profile generation does not depend on the simulated duration.
#[must_use]
pub fn demo_fleet(vessels: usize) -> Vec<VesselInfo> {
    use maritime_ais::{FleetConfig, FleetSimulator};
    let sim = FleetSimulator::new(FleetConfig {
        vessels,
        duration: Duration::hours(1),
        seed: 0x5EAF00D,
        ..FleetConfig::default()
    });
    sim.profiles().iter().map(VesselInfo::from).collect()
}

/// Reads vessel facts from a JSON array of
/// `{"mmsi": N, "draft_m": X, "is_fishing": B}` objects.
///
/// # Errors
/// A message naming the first malformed entry.
pub fn parse_fleet_json(body: &str) -> Result<Vec<VesselInfo>, String> {
    use serde_json::Value;
    let v: Value = serde_json::from_str(body).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Array(rows) = v else {
        return Err("fleet file must be a JSON array".to_string());
    };
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let mmsi = match row.get("mmsi") {
                Some(Value::Int(n)) if *n >= 0 => u32::try_from(*n)
                    .map_err(|_| format!("entry {i}: mmsi out of range"))?,
                Some(Value::UInt(n)) => u32::try_from(*n)
                    .map_err(|_| format!("entry {i}: mmsi out of range"))?,
                _ => return Err(format!("entry {i}: missing mmsi")),
            };
            let draft_m = match row.get("draft_m") {
                Some(Value::Float(x)) => *x,
                #[allow(clippy::cast_precision_loss)]
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(format!("entry {i}: missing draft_m")),
            };
            let Some(Value::Bool(is_fishing)) = row.get("is_fishing") else {
                return Err(format!("entry {i}: missing is_fishing"));
            };
            Ok(VesselInfo {
                mmsi: maritime_ais::Mmsi(mmsi),
                draft_m,
                is_fishing: *is_fishing,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn every_serve_flag_is_parsed() {
        for f in SERVE_FLAGS {
            let args = match f.value {
                Some(_) => {
                    // A representative value each flag accepts.
                    let v = match f.name {
                        "--bind" => "0.0.0.0",
                        "--fleet" => "fleet.json",
                        "--track-window" | "--recog-window" => "60,10",
                        "--demo" => "20 6",
                        _ => "7",
                    };
                    argv(&[f.name, v])
                }
                None => argv(&[f.name]),
            };
            ServeCli::parse(&args).unwrap_or_else(|e| panic!("{} rejected: {e}", f.name));
        }
    }

    #[test]
    fn every_feed_flag_is_parsed() {
        for f in FEED_FLAGS {
            let mut parts: Vec<&str> = vec!["--to", "127.0.0.1:10110", "--demo", "5", "1"];
            match f.value {
                Some(_) => {
                    let v = match f.name {
                        "--to" => "127.0.0.1:10110",
                        "--input" => "ais.log",
                        "--control" => "flush",
                        "--demo" => "",
                        _ => "7",
                    };
                    if f.name != "--demo" && f.name != "--to" {
                        parts.extend([f.name, v]);
                    }
                }
                None => parts.push(f.name),
            }
            FeedCli::parse(&argv(&parts)).unwrap_or_else(|e| panic!("{} rejected: {e}", f.name));
        }
    }

    #[test]
    fn every_watch_flag_is_parsed() {
        for f in WATCH_FLAGS {
            let mut parts: Vec<&str> = vec!["--http", "127.0.0.1:9090"];
            if f.name != "--http" {
                parts.extend([f.name, "500"]);
            }
            WatchCli::parse(&argv(&parts)).unwrap_or_else(|e| panic!("{} rejected: {e}", f.name));
        }
        assert!(WatchCli::parse(&[]).is_err(), "--http is required");
        assert!(WatchCli::parse(&argv(&["--http", "x:1", "--bogus"])).is_err());
    }

    #[test]
    fn slo_flags_reach_the_thresholds() {
        let cli = ServeCli::parse(&argv(&[
            "--sample-secs", "1", "--history-cap", "32", "--slo-stale", "2",
            "--slo-max-evictions", "4", "--slo-error-ratio", "0.9",
            "--slo-max-lag-ms", "250", "--slo-critical-after", "3",
        ]))
        .unwrap();
        assert_eq!(cli.sample_secs, 1);
        assert_eq!(cli.history_cap, 32);
        assert_eq!(cli.slo.stale_intervals, 2);
        assert_eq!(cli.slo.max_evictions, 4);
        assert!((cli.slo.error_ratio - 0.9).abs() < 1e-9);
        assert_eq!(cli.slo.max_lag_ms, 250);
        assert_eq!(cli.slo.critical_after, 3);
        let opts = cli.serve_options(Vec::new(), Vec::new()).unwrap();
        assert_eq!(opts.sample_interval, std::time::Duration::from_secs(1));
        assert_eq!(opts.history_capacity, 32);
        assert_eq!(opts.slo.critical_after, 3);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(ServeCli::parse(&argv(&["--bogus"])).is_err());
        assert!(FeedCli::parse(&argv(&["--to", "x:1", "--bogus"])).is_err());
    }

    #[test]
    fn ports_accept_off() {
        let cli = ServeCli::parse(&argv(&["--nmea-udp", "4001", "--http", "off"])).unwrap();
        assert_eq!(cli.nmea_udp, Some(4001));
        assert_eq!(cli.http, None);
        assert_eq!(cli.nmea_tcp, Some(10110), "default untouched");
    }

    #[test]
    fn serve_config_validates_default_windows() {
        let cli = ServeCli::parse(&[]).unwrap();
        let config = cli.surveillance_config().unwrap();
        assert!(config.validate().is_ok());
    }

    #[test]
    fn fleet_json_round_trips() {
        let body = r#"[{"mmsi": 237000001, "draft_m": 5.5, "is_fishing": false},
                       {"mmsi": 237000002, "draft_m": 2.1, "is_fishing": true}]"#;
        let fleet = parse_fleet_json(body).unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[1].mmsi, maritime_ais::Mmsi(237_000_002));
        assert!(fleet[1].is_fishing);
        assert!(parse_fleet_json("{}").is_err());
        assert!(parse_fleet_json(r#"[{"mmsi": 1}]"#).is_err());
    }

    #[test]
    fn demo_fleet_matches_demo_log_profiles() {
        let a = demo_fleet(8);
        let b = demo_fleet(8);
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "deterministic");
    }
}
