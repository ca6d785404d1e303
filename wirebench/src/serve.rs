//! Driving a real `surveil serve` process: spawn it, time its set-up,
//! stream lines into it on an open-loop schedule over one NMEA-in
//! connection, and read every wire event on one subscriber connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use maritime_chaos::StreamLine;

use crate::procfs;
use crate::reference::{is_flushed, is_query};

/// Per-subscriber queue bound the server is started with. The default
/// (1024) can evict even a subscriber that reads as fast as it can when
/// one recognition query emits a burst of alerts; a lost event would make
/// the run fail its byte check rather than measure anything.
const SUBSCRIBER_QUEUE: &str = "65536";

/// How long any single wait on the server may take before the run is
/// abandoned.
const WAIT: Duration = Duration::from_secs(30);

/// Pids of live server processes, so the watchdog can stop them.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every server still running and exits with code 1 once `limit`
/// has passed, so a hung server can never hold the benchmark past its
/// time limit. The thread sleeps until then and uses no CPU.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("wirebench: run exceeded {} s, stopping", limit.as_secs());
        kill_all();
        std::process::exit(1);
    });
}

/// Sends SIGKILL to every live server.
pub fn kill_all() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    for pid in CHILDREN.lock().expect("pid list").drain(..) {
        // SAFETY: signalling a child process this program spawned.
        unsafe {
            kill(pid as i32, 9);
        }
    }
}

/// A running server and the addresses it bound.
pub struct Server {
    child: Child,
    /// The server's pid.
    pub pid: u32,
    /// NMEA-in TCP address.
    pub nmea: SocketAddr,
    /// CE-out subscriber address.
    pub subscribe: SocketAddr,
    /// HTTP address.
    pub http: SocketAddr,
    stderr: BufReader<ChildStderr>,
    /// When the process was spawned.
    pub spawned: Instant,
    checkpoint_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns `surveil serve` on free ports with `flags` and waits until
    /// it reports every listener bound. With `checkpoint_dir` the server
    /// checkpoints there after every recognition query.
    ///
    /// # Errors
    /// When the process cannot start or exits before binding.
    pub fn spawn(
        surveil: &Path,
        flags: &[String],
        checkpoint_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(surveil);
        cmd.arg("serve")
            .args(["--nmea-tcp", "0", "--subscribe", "0", "--http", "0"])
            .args(["--queue", SUBSCRIBER_QUEUE])
            .args(flags);
        if let Some(dir) = &checkpoint_dir {
            cmd.arg("--checkpoint-dir")
                .arg(dir)
                .args(["--checkpoint-every", "1"]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", surveil.display()))?;
        let pid = child.id();
        CHILDREN.lock().expect("pid list").push(pid);
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let (mut nmea, mut subscribe, mut http) = (None, None, None);
        let mut log = String::new();
        while nmea.is_none() || subscribe.is_none() || http.is_none() {
            let mut line = String::new();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err(format!("server exited before binding:\n{log}"));
            }
            let addr =
                || -> Option<SocketAddr> { line.trim_end().rsplit(' ').next()?.parse().ok() };
            if line.starts_with("serve: nmea-in tcp on ") {
                nmea = addr();
            } else if line.starts_with("serve: ce-out subscribers on ") {
                subscribe = addr();
            } else if line.starts_with("serve: http ") {
                http = addr();
            }
            log.push_str(&line);
        }
        Ok(Self {
            child,
            pid,
            nmea: nmea.expect("seen"),
            subscribe: subscribe.expect("seen"),
            http: http.expect("seen"),
            stderr,
            spawned,
            checkpoint_dir,
        })
    }

    /// Connects a subscriber and returns it with the moment the server
    /// had accepted it: its per-subscriber writer thread exists, and the
    /// writer registers with the hub before its first read. The check
    /// polls `/proc` every 100 µs, so the benchmark's own wait adds
    /// almost nothing to the measured set-up.
    ///
    /// # Errors
    /// When the connection fails or the server never accepts it.
    pub fn connect_subscriber(&self) -> Result<(TcpStream, Instant), String> {
        let stream = TcpStream::connect(self.subscribe).map_err(|e| format!("subscribe: {e}"))?;
        let at = self.wait_for_thread("serve-sub")?;
        Ok((stream, at))
    }

    /// Polls `/metrics` until `serve_subscribers_connected` reaches
    /// `n`: the hub registers subscribers on a 25 ms accept poll, so
    /// streaming before this could lose the first events.
    ///
    /// # Errors
    /// When the gauge never gets there.
    pub fn wait_subscribers(&self, n: i64) -> Result<(), String> {
        let deadline = Instant::now() + WAIT;
        loop {
            let body = http_get(self.http, "/metrics")?;
            if metric(&body, "serve_subscribers_connected").is_some_and(|v| v >= n as f64) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("the hub never registered the subscriber".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Opens the NMEA-in connection and waits until its reader thread
    /// runs, so the first line is read as soon as it is sent.
    ///
    /// # Errors
    /// When the connection fails or is never accepted.
    pub fn connect_feed(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.nmea).map_err(|e| format!("feed: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        self.wait_for_thread("serve-src-1")?;
        Ok(stream)
    }

    fn wait_for_thread(&self, comm: &str) -> Result<Instant, String> {
        let deadline = Instant::now() + WAIT;
        while !procfs::has_thread(self.pid, comm) {
            if Instant::now() > deadline {
                return Err(format!("server thread {comm} never started"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(Instant::now())
    }

    /// Stops the server — gracefully with `#shutdown` over `feed` when
    /// given, else with SIGKILL — waits for it to exit, removes its
    /// checkpoint directory, and returns the rest of its stderr.
    pub fn stop(mut self, feed: Option<TcpStream>) -> String {
        let mut graceful = false;
        if let Some(mut feed) = feed {
            graceful = feed
                .write_all(b"#shutdown\n")
                .and_then(|()| feed.flush())
                .is_ok();
        }
        if graceful {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.child.try_wait().ok().flatten().is_none() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        CHILDREN
            .lock()
            .expect("pid list")
            .retain(|&p| p != self.pid);
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        if let Some(dir) = &self.checkpoint_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        rest
    }
}

/// Spawns a server, times it from spawn to an accepted subscriber, and
/// kills it: one `setup_s` sample.
///
/// # Errors
/// See [`Server::spawn`] and [`Server::connect_subscriber`].
pub fn probe_setup(
    surveil: &Path,
    flags: &[String],
    checkpoint_dir: Option<PathBuf>,
) -> Result<Duration, String> {
    let server = Server::spawn(surveil, flags, checkpoint_dir)?;
    let (sub, ready) = server.connect_subscriber()?;
    let setup = ready - server.spawned;
    drop(sub);
    server.stop(None);
    Ok(setup)
}

/// What one open-loop run observed.
pub struct WireRun {
    /// Every wire event the subscriber received before the `flushed`
    /// marker, ops lines excluded.
    pub events: Vec<String>,
    /// Health (`ops`) lines seen, which are not part of the
    /// recognition output.
    pub ops_lines: usize,
    /// Arrival of each `query` event, since the schedule origin.
    pub query_arrivals: Vec<Duration>,
    /// Schedule origin to the `flushed` marker's arrival.
    pub wall: Duration,
    /// Server CPU (user + system) over the run, seconds.
    pub cpu_secs: f64,
    /// CPU of the NMEA-in reader thread over the run, seconds.
    pub reader_cpu_secs: f64,
    /// CPU of the driver thread over the run, seconds.
    pub driver_cpu_secs: f64,
    /// Server `VmHWM` at the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// Per line: how late its write started against its due time, µs.
    pub lag_us: Vec<u32>,
    /// Time spent inside blocking writes to the server.
    pub blocked: Duration,
    /// Machine-wide CPU time the hypervisor stole during the run, as a
    /// share of the run's CPU capacity: a measure of host noise.
    pub steal_share: f64,
}

/// Streams `lines` plus a final `#flush` at `rate` lines per second on
/// `feed` — line `i` is due at `i / rate` after the origin, whatever the
/// server does — while a second thread reads `subscriber` to the
/// `flushed` marker. No other thread or connection is used under load.
///
/// # Errors
/// When a socket fails or the server stops answering.
pub fn open_loop(
    server: &Server,
    mut feed: &TcpStream,
    subscriber: TcpStream,
    lines: &[StreamLine],
    rate: f64,
) -> Result<WireRun, String> {
    let mut wire = Vec::with_capacity(lines.len() * 64);
    let mut ends = Vec::with_capacity(lines.len() + 1);
    for (t, line) in lines {
        let _ = writeln!(wire, "{t} {line}");
        ends.push(wire.len());
    }
    wire.extend_from_slice(b"#flush\n");
    ends.push(wire.len());
    subscriber
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;

    let ticks = procfs::ticks_per_sec();
    let cpu0 = procfs::process_stat(server.pid)
        .ok_or("server gone")?
        .cpu_ticks;
    let threads0 = procfs::thread_stats(server.pid);
    let steal0 = procfs::steal_ticks();
    let origin = Instant::now();
    let reader = std::thread::spawn(move || read_events(subscriber, origin));

    let total = ends.len();
    let mut lag_us = Vec::with_capacity(total);
    let mut blocked = Duration::ZERO;
    let mut sent = 0usize;
    let mut write_error = None;
    while sent < total {
        let now = origin.elapsed().as_secs_f64();
        let due = ((now * rate) as usize + 1).min(total);
        if due <= sent {
            let wait = sent as f64 / rate - now;
            std::thread::sleep(Duration::from_secs_f64(wait.max(200e-6)));
            continue;
        }
        for i in sent..due {
            lag_us.push(((now - i as f64 / rate) * 1e6).max(0.0) as u32);
        }
        let start = if sent == 0 { 0 } else { ends[sent - 1] };
        let write_started = Instant::now();
        if let Err(e) = feed.write_all(&wire[start..ends[due - 1]]) {
            write_error = Some(format!("feed write: {e}"));
            break;
        }
        blocked += write_started.elapsed();
        sent = due;
    }
    let read = reader.join().map_err(|_| "subscriber thread panicked")?;
    if let Some(e) = write_error {
        return Err(e);
    }
    let (events, ops_lines, query_arrivals, wall) = read?;
    let steal = procfs::steal_ticks().saturating_sub(steal0) as f64 / ticks;
    let cpu1 = procfs::process_stat(server.pid)
        .ok_or("server gone")?
        .cpu_ticks;
    let threads1 = procfs::thread_stats(server.pid);
    let thread_secs = |comm: &str| {
        procfs::thread_ticks(&threads1, comm).saturating_sub(procfs::thread_ticks(&threads0, comm))
            as f64
            / ticks
    };
    Ok(WireRun {
        events,
        ops_lines,
        query_arrivals,
        wall,
        cpu_secs: cpu1.saturating_sub(cpu0) as f64 / ticks,
        reader_cpu_secs: thread_secs("serve-src-1"),
        driver_cpu_secs: thread_secs("serve-driver"),
        peak_rss_mb: procfs::peak_rss_mb(server.pid).ok_or("server gone")?,
        lag_us,
        blocked,
        steal_share: steal / (wall.as_secs_f64() * procfs::cpuinfo().0.max(1) as f64),
    })
}

type ReadResult = Result<(Vec<String>, usize, Vec<Duration>, Duration), String>;

/// The subscriber side: every line with its arrival time, up to the
/// `flushed` marker.
fn read_events(subscriber: TcpStream, origin: Instant) -> ReadResult {
    let mut reader = BufReader::with_capacity(1 << 16, subscriber);
    let mut events = Vec::new();
    let mut arrivals = Vec::new();
    let mut ops = 0;
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("subscriber read after {} events: {e}", events.len()))?;
        let at = origin.elapsed();
        if n == 0 {
            return Err(format!("subscriber closed after {} events", events.len()));
        }
        let line = line.trim_end();
        if is_flushed(line) {
            return Ok((events, ops, arrivals, at));
        }
        if line.starts_with("{\"type\":\"ops\"") {
            ops += 1;
            continue;
        }
        if is_query(line) {
            arrivals.push(at);
        }
        events.push(line.to_string());
    }
}

/// Minimal HTTP/1.0 GET against the server's own endpoint.
///
/// # Errors
/// On any socket failure.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("http: {e}"))?;
    stream
        .set_read_timeout(Some(WAIT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nhost: wirebench\r\n\r\n").as_bytes())
        .map_err(|e| format!("http: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("http: {e}"))?;
    Ok(body)
}

/// An unlabelled metric's value in Prometheus text exposition.
#[must_use]
pub fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lookup_ignores_prefixed_names() {
        let text = "# TYPE serve_subscribers_connected gauge\n\
                    serve_subscribers_connected_total 9\n\
                    serve_subscribers_connected 1\n";
        assert_eq!(metric(text, "serve_subscribers_connected"), Some(1.0));
        assert_eq!(metric(text, "absent"), None);
    }
}
