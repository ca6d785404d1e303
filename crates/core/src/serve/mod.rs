//! `surveil serve`: the resident live-ingestion and alert fan-out server.
//!
//! ```text
//!  NMEA sources                    driver thread                subscribers
//!  ───────────                ─────────────────────             ───────────
//!  TCP conn ──┐                ┌─> SourceMux (filter/dedup)     TCP writer ──> nc
//!  TCP conn ──┼─> ingest ──────┤   AdmissionBuffer (skew)       TCP writer ──> app
//!  UDP peer ──┘    channel     │   DataScanner (per-source)     SSE writer ──> curl
//!                  (bounded)   │   LiveBatcher ─> pipeline
//!                              └─> WireEncoder ─> BroadcastHub ──^
//!                                                 (bounded queues, eviction)
//!  HTTP: /metrics /metrics.json /metrics/history /sources /healthz
//!        /dashboard /events
//! ```
//!
//! One driver thread owns the whole recognition path ([`LiveIngest`]);
//! listener threads own their sockets and talk to the driver through one
//! bounded channel; subscriber writer threads own their sockets and drain
//! bounded queues fed by the [`BroadcastHub`]. No recognition state is
//! ever shared across threads — the hot path is exactly the batch
//! pipeline's, which is why serve output is byte-identical to batch
//! output on the same sentences (a differential test pins this).
//!
//! `SERVING.md` at the repository root is the operator handbook: flags,
//! wire protocols, backpressure/eviction semantics, worked transcripts —
//! every example there is pinned by a test against this module.

pub mod cli;
mod dashboard;
pub mod health;
pub mod hub;
pub mod live;
mod net;
pub mod wire;

pub use health::{HealthEngine, HealthState, ServeTelemetry, SloThresholds, SLO_RULES};
pub use hub::BroadcastHub;
pub use live::{IngestStats, LineSpan, LiveBatcher, LiveIngest};
pub use wire::{sse_frame, WireEncoder, CONTROL_FLUSH, CONTROL_SHUTDOWN};

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use maritime_cer::VesselInfo;
use maritime_geo::Area;
use maritime_obs::{flight, names, Counter, FlightKind, LazyCounter, MetricsRegistry};
use maritime_stream::{Duration, SourceId, Timestamp};
use parking_lot::Mutex;

use crate::config::{ConfigError, SurveillanceConfig};

static OBS_INGEST_STALLS: LazyCounter = LazyCounter::new(names::SERVE_INGEST_STALLS);
static OBS_SAMPLES: LazyCounter = LazyCounter::new(names::SERVE_SAMPLES);
static OBS_OPS_ALERTS: LazyCounter = LazyCounter::new(names::SERVE_OPS_ALERTS);

/// Everything `serve` needs to start; see `SERVING.md` for the operator
/// view of each knob.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Pipeline configuration (windows, shards, bands, incremental...).
    pub config: SurveillanceConfig,
    /// Static vessel facts for the recognizer's knowledge base.
    pub vessels: Vec<VesselInfo>,
    /// Monitored areas.
    pub areas: Vec<Area>,
    /// Address to bind every listener on.
    pub bind: String,
    /// NMEA-in TCP port (`None` disables; `Some(0)` picks a free port).
    pub nmea_tcp_port: Option<u16>,
    /// NMEA-in UDP port.
    pub nmea_udp_port: Option<u16>,
    /// CE-out line-delimited JSON TCP port.
    pub subscribe_port: Option<u16>,
    /// HTTP port for `/metrics`, `/sources`, `/healthz`, `/events` (SSE).
    pub http_port: Option<u16>,
    /// Admission-buffer disorder bound.
    pub skew: Duration,
    /// Cross-source duplicate suppression window (zero disables).
    pub dedup_window: Duration,
    /// Per-subscriber event queue bound; a subscriber lagging past it is
    /// evicted.
    pub queue_bound: usize,
    /// Ingest channel bound — how many raw lines may wait for the driver
    /// before sources block (backpressure). Lines travel in batches of up
    /// to 64, so up to `ingest_bound + 63` may be queued.
    pub ingest_bound: usize,
    /// How often the driver samples the metric registry into the
    /// telemetry ring (and evaluates the SLO health rules).
    pub sample_interval: std::time::Duration,
    /// How many samples the telemetry ring retains for
    /// `/metrics/history` and the dashboard.
    pub history_capacity: usize,
    /// SLO bounds the health engine judges each interval against.
    pub slo: SloThresholds,
    /// Directory for recognition-state checkpoints. When set, the driver
    /// writes `serve.ckpt` there (atomically, via temp-file + rename)
    /// every [`ServeOptions::checkpoint_every`] recognition queries, and
    /// [`start`] restores from an existing `serve.ckpt` on boot.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Recognition queries between checkpoint writes (minimum 1).
    pub checkpoint_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            config: SurveillanceConfig::default(),
            vessels: Vec::new(),
            areas: Vec::new(),
            bind: "127.0.0.1".to_string(),
            nmea_tcp_port: Some(0),
            nmea_udp_port: None,
            subscribe_port: Some(0),
            http_port: Some(0),
            skew: Duration::secs(120),
            dedup_window: Duration::secs(10),
            queue_bound: 1024,
            ingest_bound: 4096,
            sample_interval: std::time::Duration::from_secs(2),
            history_capacity: 256,
            slo: SloThresholds::default(),
            checkpoint_dir: None,
            checkpoint_every: 1,
        }
    }
}

/// The checkpoint file a serving instance maintains inside
/// `--checkpoint-dir`.
pub const CHECKPOINT_FILE: &str = "serve.ckpt";

/// Most lines one [`Ingest::Lines`] message carries. A reader forwards
/// each socket read as one message (split here and at control lines), so
/// the driver pays one channel receive, one lock and one admission clock
/// read per batch rather than per line.
pub(crate) const BATCH_LINES: usize = 64;

/// One message from a listener thread to the driver.
#[derive(Debug)]
pub(crate) enum Ingest {
    /// Up to [`BATCH_LINES`] consecutive lines from one source, in arrival
    /// order.
    Lines {
        /// Source that delivered the lines.
        source: u32,
        /// The sentences (framing already stripped), back to back.
        text: String,
        /// Per line: event time and the sentence's byte range in `text`.
        lines: Vec<LineSpan>,
    },
    /// `#flush`: end of stream — drain and run the final recognition.
    Flush,
    /// `#shutdown`: stop the server.
    Shutdown,
}

/// The bounded listener → driver channel. It holds batches, so it is
/// sized in batches: at least `ingest_bound` lines fit before sources
/// block, and at most `ingest_bound + BATCH_LINES − 1` are ever queued.
fn ingest_channel(ingest_bound: usize) -> (SyncSender<Ingest>, Receiver<Ingest>) {
    std::sync::mpsc::sync_channel(ingest_bound.div_ceil(BATCH_LINES).max(1))
}

/// Sends one ingest message, counting (and then riding out) backpressure
/// when the driver is behind: a blocked send is one stall, however many
/// lines the message carries. Returns `false` when the driver is gone.
pub(crate) fn send_ingest(tx: &SyncSender<Ingest>, msg: Ingest) -> bool {
    match tx.try_send(msg) {
        Ok(()) => true,
        Err(TrySendError::Full(msg)) => {
            OBS_INGEST_STALLS.inc();
            tx.send(msg).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// A running `surveil serve` instance. Dropping the handle does *not*
/// stop the server; call [`ServerHandle::shutdown`] then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    /// Bound NMEA-in TCP address, when enabled.
    pub nmea_tcp: Option<SocketAddr>,
    /// Bound NMEA-in UDP address, when enabled.
    pub nmea_udp: Option<SocketAddr>,
    /// Bound CE-out subscriber address, when enabled.
    pub subscribe: Option<SocketAddr>,
    /// Bound HTTP address, when enabled.
    pub http: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    hub: Arc<BroadcastHub>,
    live: Arc<Mutex<LiveIngest>>,
    telemetry: Arc<ServeTelemetry>,
    /// Keeps the ingest channel open even with no socket listeners, so
    /// in-process tests can inject via [`ServerHandle::inject`].
    ingest_tx: SyncSender<Ingest>,
}

impl ServerHandle {
    /// Requests shutdown; listener and driver threads exit at their next
    /// poll (≤ ~100 ms).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by this handle or a
    /// `#shutdown` control line).
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for every server thread to exit. Call after
    /// [`ServerHandle::shutdown`].
    pub fn join(mut self) {
        drop(self.ingest_tx);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.hub.close();
    }

    /// The broadcast hub, for in-process subscribers and tests.
    #[must_use]
    pub fn hub(&self) -> &Arc<BroadcastHub> {
        &self.hub
    }

    /// The telemetry ring and health verdict the driver maintains.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<ServeTelemetry> {
        &self.telemetry
    }

    /// Live-path counters (snapshot under the driver's lock).
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.live.lock().stats()
    }

    /// Injects one raw line as if a socket source had delivered it —
    /// the in-process test path. Returns `false` once the driver is gone.
    pub fn inject(&self, source: u32, t: i64, line: &str) -> bool {
        send_ingest(
            &self.ingest_tx,
            Ingest::Lines {
                source,
                text: line.to_string(),
                lines: vec![(Timestamp(t), 0, line.len())],
            },
        )
    }

    /// Injects the `#flush` control (end of stream).
    pub fn inject_flush(&self) -> bool {
        send_ingest(&self.ingest_tx, Ingest::Flush)
    }
}

/// Starts the server: binds every enabled listener, spawns the driver and
/// listener threads, and returns the handle with the bound addresses
/// (useful with port 0).
///
/// # Errors
/// A [`ServeError`] when the pipeline configuration fails validation or a
/// listener cannot bind.
pub fn start(opts: ServeOptions) -> Result<ServerHandle, ServeError> {
    let mut live = LiveIngest::new(
        &opts.config,
        opts.vessels.clone(),
        opts.areas.clone(),
        opts.skew,
        opts.dedup_window,
    )
    .map_err(ServeError::Config)?;
    // Restart-from-checkpoint: a `serve.ckpt` left by a previous instance
    // resumes the recognition state before any listener accepts a line.
    if let Some(dir) = &opts.checkpoint_dir {
        let path = dir.join(CHECKPOINT_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => {
                live.restore_checkpoint(&bytes)
                    .map_err(ServeError::Checkpoint)?;
                flight::record(FlightKind::Note, || {
                    format!("restored recognition state from {}", path.display())
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ServeError::CheckpointIo(e)),
        }
    }
    let live = Arc::new(Mutex::new(live));
    let hub = BroadcastHub::new(opts.queue_bound);
    let telemetry = Arc::new(ServeTelemetry::new(opts.history_capacity));
    let shutdown = Arc::new(AtomicBool::new(false));
    let next_source = Arc::new(AtomicU32::new(1));
    let (ingest_tx, ingest_rx) = ingest_channel(opts.ingest_bound);

    let mut threads = Vec::new();
    let mut bind_tcp = |port: u16| -> Result<TcpListener, ServeError> {
        let l = TcpListener::bind((opts.bind.as_str(), port)).map_err(ServeError::Bind)?;
        l.set_nonblocking(true).map_err(ServeError::Bind)?;
        Ok(l)
    };

    let nmea_tcp = opts.nmea_tcp_port.map(&mut bind_tcp).transpose()?;
    let subscribe = opts.subscribe_port.map(&mut bind_tcp).transpose()?;
    let http = opts.http_port.map(&mut bind_tcp).transpose()?;
    let nmea_udp = opts
        .nmea_udp_port
        .map(|port| -> Result<UdpSocket, ServeError> {
            let s = UdpSocket::bind((opts.bind.as_str(), port)).map_err(ServeError::Bind)?;
            s.set_read_timeout(Some(std::time::Duration::from_millis(100)))
                .map_err(ServeError::Bind)?;
            Ok(s)
        })
        .transpose()?;

    let handle_addrs = (
        nmea_tcp.as_ref().and_then(|l| l.local_addr().ok()),
        nmea_udp.as_ref().and_then(|s| s.local_addr().ok()),
        subscribe.as_ref().and_then(|l| l.local_addr().ok()),
        http.as_ref().and_then(|l| l.local_addr().ok()),
    );

    // Seed the ring before any thread starts, so /metrics/history and the
    // dashboard are never empty, even on a freshly started server.
    let mut sampler = Sampler::new(opts.slo);
    sampler.tick(&live, &telemetry, &hub);

    // Driver: the single owner of the recognition path.
    {
        let live = Arc::clone(&live);
        let hub = Arc::clone(&hub);
        let shutdown = Arc::clone(&shutdown);
        let telemetry = Arc::clone(&telemetry);
        let sample_interval = opts.sample_interval;
        let ckpt = opts
            .checkpoint_dir
            .clone()
            .map(|dir| (dir, opts.checkpoint_every.max(1)));
        threads.push(
            std::thread::Builder::new()
                .name("serve-driver".into())
                .spawn(move || {
                    driver_loop(
                        &ingest_rx,
                        &live,
                        &hub,
                        &shutdown,
                        &telemetry,
                        sampler,
                        sample_interval,
                        ckpt.as_ref(),
                    );
                })
                .map_err(ServeError::Spawn)?,
        );
    }
    if let Some(listener) = nmea_tcp {
        let tx = ingest_tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let next_source = Arc::clone(&next_source);
        threads.push(
            std::thread::Builder::new()
                .name("serve-nmea-tcp".into())
                .spawn(move || net::tcp_ingest_loop(&listener, &tx, &shutdown, &next_source))
                .map_err(ServeError::Spawn)?,
        );
    }
    if let Some(socket) = nmea_udp {
        let tx = ingest_tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let next_source = Arc::clone(&next_source);
        threads.push(
            std::thread::Builder::new()
                .name("serve-nmea-udp".into())
                .spawn(move || net::udp_ingest_loop(&socket, &tx, &shutdown, &next_source))
                .map_err(ServeError::Spawn)?,
        );
    }
    if let Some(listener) = subscribe {
        let hub = Arc::clone(&hub);
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name("serve-subscribers".into())
                .spawn(move || net::subscriber_loop(&listener, &hub, &shutdown))
                .map_err(ServeError::Spawn)?,
        );
    }
    if let Some(listener) = http {
        let hub = Arc::clone(&hub);
        let live = Arc::clone(&live);
        let shutdown = Arc::clone(&shutdown);
        let telemetry = Arc::clone(&telemetry);
        threads.push(
            std::thread::Builder::new()
                .name("serve-http".into())
                .spawn(move || net::http_loop(&listener, &hub, &live, &telemetry, &shutdown))
                .map_err(ServeError::Spawn)?,
        );
    }

    Ok(ServerHandle {
        nmea_tcp: handle_addrs.0,
        nmea_udp: handle_addrs.1,
        subscribe: handle_addrs.2,
        http: handle_addrs.3,
        shutdown,
        threads,
        hub,
        live,
        telemetry,
        ingest_tx,
    })
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The pipeline configuration failed validation.
    Config(ConfigError),
    /// A listener could not bind its address.
    Bind(std::io::Error),
    /// A server thread could not be spawned.
    Spawn(std::io::Error),
    /// The boot checkpoint exists but is corrupt or from a differently
    /// configured server.
    Checkpoint(maritime_rtec::CkptError),
    /// The boot checkpoint exists but could not be read.
    CheckpointIo(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid configuration: {e}"),
            ServeError::Bind(e) => write!(f, "cannot bind listener: {e}"),
            ServeError::Spawn(e) => write!(f, "cannot spawn server thread: {e}"),
            ServeError::Checkpoint(e) => write!(f, "cannot restore checkpoint: {e}"),
            ServeError::CheckpointIo(e) => write!(f, "cannot read checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The driver loop: drains the ingest channel into the live path, fans
/// resulting wire events out through the hub, and — every
/// `sample_interval` — records a telemetry sample and evaluates the SLO
/// health rules.
#[allow(clippy::too_many_arguments)]
fn driver_loop(
    rx: &Receiver<Ingest>,
    live: &Mutex<LiveIngest>,
    hub: &BroadcastHub,
    shutdown: &AtomicBool,
    telemetry: &ServeTelemetry,
    mut sampler: Sampler,
    sample_interval: std::time::Duration,
    ckpt: Option<&(std::path::PathBuf, u64)>,
) {
    let mut last_sample = Instant::now();
    let mut last_saved_queries = live.lock().stats().queries;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match rx.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(msg) => {
                // One lock per message covers the batch and the query
                // count the checkpoint trigger reads.
                let mut guard = live.lock();
                let events = match msg {
                    Ingest::Lines {
                        source,
                        text,
                        lines,
                    } => guard.push_lines(SourceId(source), &text, &lines),
                    Ingest::Flush => guard.flush(),
                    Ingest::Shutdown => {
                        shutdown.store(true, Ordering::SeqCst);
                        break;
                    }
                };
                let queries = guard.stats().queries;
                drop(guard);
                for event in &events {
                    hub.broadcast(event);
                }
                if let Some((dir, every)) = ckpt {
                    if queries.saturating_sub(last_saved_queries) >= *every {
                        write_checkpoint(dir, live);
                        last_saved_queries = queries;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if last_sample.elapsed() >= sample_interval {
            sampler.tick(live, telemetry, hub);
            last_sample = Instant::now();
        }
    }
    // A final save on the way out, so `#shutdown` leaves a fresh resume
    // point even when fewer than `every` queries ran since the last one.
    if let Some((dir, _)) = ckpt {
        write_checkpoint(dir, live);
    }
    hub.close();
}

/// Serializes the live path and writes `serve.ckpt` atomically: the bytes
/// land in a temp file first and replace the previous checkpoint with one
/// rename, so a crash mid-write can never leave a truncated checkpoint. A
/// failed write is reported on the flight recorder — serving continues.
fn write_checkpoint(dir: &std::path::Path, live: &Mutex<LiveIngest>) {
    let bytes = live.lock().checkpoint();
    let path = dir.join(CHECKPOINT_FILE);
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&tmp, &bytes))
        .and_then(|()| std::fs::rename(&tmp, &path));
    match result {
        Ok(()) => flight::record(FlightKind::Note, || {
            format!("checkpoint: {} bytes -> {}", bytes.len(), path.display())
        }),
        Err(e) => flight::record(FlightKind::Note, move || {
            format!("checkpoint write failed: {e}")
        }),
    }
}

/// Last-mirrored per-source counters (lines, accepted, filtered,
/// duplicates) plus whether the source had traffic in the last interval.
struct MirroredSource {
    counters: [&'static Counter; 4],
    last: [u64; 4],
    was_active: bool,
}

/// The driver's telemetry tick: mirror per-source mux counters into the
/// `serve_source_*` labeled families, record one full-registry sample
/// into the ring, and run the health engine over the newest interval.
/// Runs on the driver thread between ingest batches — never on the
/// per-sentence hot path.
struct Sampler {
    engine: HealthEngine,
    prev: Option<Arc<maritime_obs::Sample>>,
    mirrored: HashMap<u32, MirroredSource>,
}

impl Sampler {
    fn new(slo: SloThresholds) -> Self {
        Self {
            engine: HealthEngine::new(slo),
            prev: None,
            mirrored: HashMap::new(),
        }
    }

    fn tick(&mut self, live: &Mutex<LiveIngest>, telemetry: &ServeTelemetry, hub: &BroadcastHub) {
        self.mirror_sources(live);
        let snapshot = maritime_obs::snapshot();
        telemetry.ring().record(snapshot);
        OBS_SAMPLES.inc();
        let cur = telemetry
            .ring()
            .latest()
            .expect("ring non-empty after record");
        if let Some(prev) = self.prev.take() {
            let eval = self.engine.evaluate(&prev, &cur);
            telemetry.set_state(eval.state, &eval.breaches);
            if let Some(line) = eval.ops_alert {
                OBS_OPS_ALERTS.inc();
                hub.broadcast(&line);
            }
        }
        self.prev = Some(cur);
    }

    /// Copies per-source [`SourceMux`](maritime_stream::SourceMux) deltas
    /// into the labeled counter families, so per-source rates show up in
    /// `/metrics` and the ring without touching the per-sentence path.
    /// A previously active source going silent lands in the flight
    /// recorder — the per-feed death marker.
    fn mirror_sources(&mut self, live: &Mutex<LiveIngest>) {
        let stats: Vec<(u32, [u64; 4])> = {
            let live = live.lock();
            live.sources()
                .map(|(id, s)| (id.0, [s.lines, s.accepted, s.filtered, s.duplicates]))
                .collect()
        };
        let registry = MetricsRegistry::global();
        for (id, now) in stats {
            let entry = self.mirrored.entry(id).or_insert_with(|| {
                let value = id.to_string();
                MirroredSource {
                    counters: [
                        registry.labeled_counter(&names::SERVE_SOURCE_LINES, &value),
                        registry.labeled_counter(&names::SERVE_SOURCE_ACCEPTED, &value),
                        registry.labeled_counter(&names::SERVE_SOURCE_FILTERED, &value),
                        registry.labeled_counter(&names::SERVE_SOURCE_DUPLICATES, &value),
                    ],
                    last: [0; 4],
                    was_active: false,
                }
            });
            let line_delta = now[0].saturating_sub(entry.last[0]);
            for (i, counter) in entry.counters.iter().enumerate() {
                counter.add(now[i].saturating_sub(entry.last[i]));
            }
            entry.last = now;
            if entry.was_active && line_delta == 0 {
                flight::record(FlightKind::Note, move || {
                    format!("source {id} went silent this sampling interval")
                });
            }
            entry.was_active = line_delta > 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--ingest-queue` counts lines: full batches are accepted until at
    /// least `bound` lines wait, and never more than one batch beyond it.
    #[test]
    fn ingest_queue_bounds_waiting_lines() {
        for bound in [1, 63, 64, 65, 100, 4096] {
            let (tx, _rx) = ingest_channel(bound);
            let mut waiting = 0;
            while tx
                .try_send(Ingest::Lines {
                    source: 1,
                    text: String::new(),
                    lines: vec![(Timestamp(0), 0, 0); BATCH_LINES],
                })
                .is_ok()
            {
                waiting += BATCH_LINES;
            }
            assert!(
                (bound..bound + BATCH_LINES).contains(&waiting),
                "--ingest-queue {bound}: {waiting} lines wait"
            );
        }
    }
}
