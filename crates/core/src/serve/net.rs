//! Socket plumbing for `surveil serve`: NMEA ingest (TCP/UDP), CE-out
//! subscribers, and the HTTP metrics/SSE endpoint.
//!
//! Every accept loop is non-blocking with a short sleep so the shutdown
//! flag is honored within ~100 ms; every connection thread reads/writes
//! with timeouts for the same reason. Reader threads frame the byte
//! stream into lines themselves (rather than `BufRead::read_line`) so a
//! connection cut mid-sentence leaves a well-defined partial buffer that
//! is discarded and counted — the behavior the socket-level chaos mode
//! exercises.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Instant;

use maritime_obs::{names, LazyCounter, LazyGauge};
use maritime_stream::Timestamp;
use parking_lot::Mutex;

use super::health::ServeTelemetry;
use super::hub::BroadcastHub;
use super::live::{LineSpan, LiveIngest};
use super::wire::{sse_frame, CONTROL_FLUSH, CONTROL_SHUTDOWN};
use super::{dashboard, send_ingest, Ingest, BATCH_LINES};

static OBS_SOURCES_CONNECTED: LazyGauge = LazyGauge::new(names::SERVE_SOURCES_CONNECTED);
static OBS_SOURCES: LazyCounter = LazyCounter::new(names::SERVE_SOURCES);
static OBS_FILTERED: LazyCounter = LazyCounter::new(names::SERVE_FILTERED_LINES);
static OBS_HTTP_REQUESTS: LazyCounter = LazyCounter::new(names::SERVE_HTTP_REQUESTS);

const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(25);
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(100);
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Accepts NMEA-in TCP connections; each gets a fresh source id and a
/// reader thread for the connection's lifetime.
pub(crate) fn tcp_ingest_loop(
    listener: &TcpListener,
    tx: &SyncSender<Ingest>,
    shutdown: &Arc<AtomicBool>,
    next_source: &Arc<AtomicU32>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let source = next_source.fetch_add(1, Ordering::Relaxed);
                OBS_SOURCES.inc();
                OBS_SOURCES_CONNECTED.add(1);
                let tx = tx.clone();
                let shutdown = Arc::clone(shutdown);
                let _ = std::thread::Builder::new()
                    .name(format!("serve-src-{source}"))
                    .spawn(move || {
                        ingest_reader(&stream, source, &tx, &shutdown);
                        OBS_SOURCES_CONNECTED.add(-1);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads one NMEA-in connection to EOF (or shutdown), forwarding its
/// lines to the driver. A partial line left when the peer disconnects —
/// the mid-sentence cut — is discarded and counted as filtered, never
/// forwarded.
fn ingest_reader(
    stream: &TcpStream,
    source: u32,
    tx: &SyncSender<Ingest>,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    if read_lines(stream, source, tx, shutdown) {
        // Mid-sentence disconnect: the unterminated tail is not a
        // sentence. Count it so the operator sees flaky feeds.
        OBS_FILTERED.inc();
    }
}

/// The read loop of [`ingest_reader`]: frames `reader`'s bytes into lines
/// and forwards each read's complete lines (see [`forward_lines`]) until
/// EOF, a read error, shutdown, or the driver going away. Returns whether the connection
/// ended (EOF or error) with an unterminated tail.
fn read_lines(
    mut reader: impl Read,
    source: u32,
    tx: &SyncSender<Ingest>,
    shutdown: &AtomicBool,
) -> bool {
    let started = Instant::now();
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match reader.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => {
                pending.extend_from_slice(&buf[..n]);
                if !drain_lines(&mut pending, source, &started, tx) {
                    return false; // driver gone
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // reset mid-stream: same as a cut
        }
    }
    !pending.is_empty()
}

/// Forwards the complete lines in `pending` and removes them, leaving an
/// unterminated tail for the next read. Returns `false` when the driver
/// has gone away.
fn drain_lines(
    pending: &mut Vec<u8>,
    source: u32,
    started: &Instant,
    tx: &SyncSender<Ingest>,
) -> bool {
    let Some(last_nl) = pending.iter().rposition(|&b| b == b'\n') else {
        return true;
    };
    let sent = forward_lines(&pending[..last_nl], source, started, tx);
    pending.drain(..=last_nl);
    sent
}

/// Frames each `\n`-separated line of `bytes` and forwards the sentences
/// as [`Ingest::Lines`] batches of at most [`BATCH_LINES`]. A control line
/// ends the batch before it, so its order relative to the lines around it
/// is kept. Returns `false` when the driver has gone away.
fn forward_lines(bytes: &[u8], source: u32, started: &Instant, tx: &SyncSender<Ingest>) -> bool {
    let mut batch = LineBatch {
        source,
        text: String::new(),
        lines: Vec::new(),
    };
    for raw in bytes.split(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(raw);
        match frame_line(line.trim(), started) {
            Framed::Sentence(t, sentence) => {
                batch.push(t, sentence);
                if batch.lines.len() == BATCH_LINES && !batch.send(tx) {
                    return false;
                }
            }
            Framed::Control(msg) => {
                if !batch.send(tx) || !send_ingest(tx, msg) {
                    return false;
                }
            }
            Framed::Skip => {}
        }
    }
    batch.send(tx)
}

/// The sentences collected for one [`Ingest::Lines`] message.
struct LineBatch {
    source: u32,
    text: String,
    lines: Vec<LineSpan>,
}

impl LineBatch {
    fn push(&mut self, t: Timestamp, sentence: &str) {
        let start = self.text.len();
        self.text.push_str(sentence);
        self.lines.push((t, start, self.text.len()));
    }

    /// Sends the collected sentences, if any, as one message and starts
    /// an empty batch. Returns `false` when the driver has gone away.
    fn send(&mut self, tx: &SyncSender<Ingest>) -> bool {
        if self.lines.is_empty() {
            return true;
        }
        send_ingest(
            tx,
            Ingest::Lines {
                source: self.source,
                text: std::mem::take(&mut self.text),
                lines: std::mem::take(&mut self.lines),
            },
        )
    }
}

/// What one framed line asks of the driver.
enum Framed<'a> {
    /// A sentence and its event time.
    Sentence(Timestamp, &'a str),
    /// `#flush` or `#shutdown`.
    Control(Ingest),
    /// A blank line, or an unknown `#` control (a comment).
    Skip,
}

/// Parses one trimmed line: `#flush`/`#shutdown` controls,
/// `<epoch-secs> <sentence>` timestamped lines, or a bare sentence stamped
/// with the connection's wall-clock age (documented in `SERVING.md`;
/// deterministic feeds always send explicit timestamps).
fn frame_line<'a>(line: &'a str, started: &Instant) -> Framed<'a> {
    if line.is_empty() {
        return Framed::Skip;
    }
    if let Some(control) = line.strip_prefix('#') {
        return match format!("#{}", control.trim()).as_str() {
            CONTROL_FLUSH => Framed::Control(Ingest::Flush),
            CONTROL_SHUTDOWN => Framed::Control(Ingest::Shutdown),
            _ => Framed::Skip,
        };
    }
    let (t, sentence) = match line.split_once(' ') {
        Some((ts, rest)) => match ts.parse::<i64>() {
            Ok(t) => (t, rest.trim_start()),
            Err(_) => (started.elapsed().as_secs() as i64, line),
        },
        None => (started.elapsed().as_secs() as i64, line),
    };
    Framed::Sentence(Timestamp(t), sentence)
}

/// Drains NMEA-in UDP datagrams. Each distinct peer address is a source;
/// datagrams carry one or more complete lines (no cross-datagram
/// fragments — UDP preserves message boundaries), forwarded like the
/// lines of one TCP read. Returns when the driver goes away, like the TCP
/// reader.
pub(crate) fn udp_ingest_loop(
    socket: &UdpSocket,
    tx: &SyncSender<Ingest>,
    shutdown: &Arc<AtomicBool>,
    next_source: &Arc<AtomicU32>,
) {
    let started = Instant::now();
    let mut peers: HashMap<SocketAddr, u32> = HashMap::new();
    let mut buf = [0u8; 65536];
    while !shutdown.load(Ordering::SeqCst) {
        match socket.recv_from(&mut buf) {
            Ok((n, peer)) => {
                let source = *peers.entry(peer).or_insert_with(|| {
                    OBS_SOURCES.inc();
                    OBS_SOURCES_CONNECTED.add(1);
                    next_source.fetch_add(1, Ordering::Relaxed)
                });
                if !forward_lines(&buf[..n], source, &started, tx) {
                    break; // driver gone
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {}
        }
    }
    OBS_SOURCES_CONNECTED.add(-(peers.len() as i64));
}

/// Accepts CE-out TCP subscribers: each connection gets a hub queue and a
/// writer thread streaming line-delimited JSON until the client hangs up,
/// the hub evicts it, or the server shuts down.
pub(crate) fn subscriber_loop(
    listener: &TcpListener,
    hub: &Arc<BroadcastHub>,
    shutdown: &Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let hub = Arc::clone(hub);
                let _ = std::thread::Builder::new()
                    .name("serve-sub".into())
                    .spawn(move || {
                        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                        let (id, rx) = hub.subscribe();
                        let mut w = stream;
                        for event in rx.iter() {
                            if w.write_all(event.as_bytes())
                                .and_then(|()| w.write_all(b"\n"))
                                .and_then(|()| w.flush())
                                .is_err()
                            {
                                break;
                            }
                        }
                        hub.unsubscribe(id);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves the HTTP surface: `/metrics` (Prometheus text), `/metrics.json`,
/// `/metrics/history` (the telemetry ring), `/sources` (per-source mux
/// counters), `/healthz` (SLO verdict), `/dashboard` (the operator page),
/// and `/events` (SSE stream of the same wire events TCP subscribers
/// get).
pub(crate) fn http_loop(
    listener: &TcpListener,
    hub: &Arc<BroadcastHub>,
    live: &Arc<Mutex<LiveIngest>>,
    telemetry: &Arc<ServeTelemetry>,
    shutdown: &Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let hub = Arc::clone(hub);
                let live = Arc::clone(live);
                let telemetry = Arc::clone(telemetry);
                let _ = std::thread::Builder::new()
                    .name("serve-http-conn".into())
                    .spawn(move || http_connection(stream, &hub, &live, &telemetry));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn http_connection(
    mut stream: TcpStream,
    hub: &Arc<BroadcastHub>,
    live: &Mutex<LiveIngest>,
    telemetry: &ServeTelemetry,
) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Some(path) = read_request_path(&mut stream) else {
        return;
    };
    OBS_HTTP_REQUESTS.inc();
    match path.as_str() {
        "/metrics" => {
            let body = maritime_obs::encode::prometheus_text(&maritime_obs::snapshot());
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        "/metrics.json" => {
            let body = maritime_obs::encode::json(&maritime_obs::snapshot());
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/metrics/history" => {
            let body = maritime_obs::timeseries::history_json(telemetry.ring());
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/healthz" => {
            let state = telemetry.state();
            respond(
                &mut stream,
                state.http_status(),
                "text/plain",
                &telemetry.healthz_body(),
            );
        }
        "/dashboard" => {
            let body = dashboard::render(telemetry);
            respond(&mut stream, "200 OK", "text/html; charset=utf-8", &body);
        }
        "/sources" => {
            let body = sources_json(live);
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/events" => {
            let (id, rx) = hub.subscribe();
            let header = "HTTP/1.0 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-store\r\nconnection: close\r\n\r\n";
            if stream.write_all(header.as_bytes()).is_err() {
                hub.unsubscribe(id);
                return;
            }
            for event in rx.iter() {
                if stream
                    .write_all(sse_frame(&event).as_bytes())
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    break;
                }
            }
            hub.unsubscribe(id);
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Reads the request head and returns the path of `GET <path> HTTP/1.x`.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the blank line ending the header block (or 8 KiB).
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(path.to_string())
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

/// Renders the per-source mux counters as a JSON array.
fn sources_json(live: &Mutex<LiveIngest>) -> String {
    let live = live.lock();
    let rows: Vec<String> = live
        .sources()
        .map(|(id, s)| {
            format!(
                "{{\"source\":{},\"lines\":{},\"accepted\":{},\"filtered\":{},\
                 \"duplicates\":{},\"sentences_per_sec\":{:.3}}}",
                id.0,
                s.lines,
                s.accepted,
                s.filtered,
                s.duplicates,
                s.sentences_per_sec()
            )
        })
        .collect();
    format!("[{}]\n", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{sync_channel, Receiver};

    /// A sentence's event time and text, as the driver receives it.
    type Line = (i64, String);

    fn sentence(i: usize) -> String {
        format!("!AIVDM,1,1,,A,13aEOK?P00PD2wVMdLDRhg{i:04}289?,0*26")
    }

    /// Everything the reader has sent so far: each batch as its lines,
    /// `None` for `#flush`.
    fn received(rx: &Receiver<Ingest>) -> Vec<Option<Vec<Line>>> {
        rx.try_iter()
            .map(|msg| match msg {
                Ingest::Lines {
                    source,
                    text,
                    lines,
                } => {
                    assert_eq!(source, 7);
                    Some(
                        lines
                            .iter()
                            .map(|&(t, start, end)| (t.as_secs(), text[start..end].to_string()))
                            .collect(),
                    )
                }
                Ingest::Flush => None,
                Ingest::Shutdown => panic!("no #shutdown was sent"),
            })
            .collect()
    }

    /// One read buffer exercising every framing rule: `\r\n` endings, a
    /// bare sentence, an unknown control, blank lines, a `#flush` between
    /// two runs of lines, more lines than one batch holds, and an
    /// unterminated tail. Returns the bytes and the lines expected before
    /// and after the `#flush`.
    fn read_buffer(first: usize, second: usize) -> (Vec<u8>, Vec<Line>, Vec<Line>) {
        let mut buf = String::new();
        let mut before = Vec::new();
        for i in 0..first {
            buf.push_str(&format!("{} {}\r\n", 1_000 + i, sentence(i)));
            before.push((1_000 + i as i64, sentence(i)));
            if i == 10 {
                buf.push_str("#hello operator\r\n\r\n");
                // Bare sentence: stamped with the connection's age, 0 s.
                buf.push_str(&format!("{}\r\n", sentence(9_999)));
                before.push((0, sentence(9_999)));
            }
        }
        buf.push_str("#flush\r\n");
        let mut after = Vec::new();
        for i in 0..second {
            buf.push_str(&format!("{} {}\r\n", 2_000 + i, sentence(i)));
            after.push((2_000 + i as i64, sentence(i)));
        }
        buf.push_str("\n\n   \r\n3000 !AIVDM,1,1,,A,13aEOK?P00PD2");
        (buf.into_bytes(), before, after)
    }

    #[test]
    fn one_read_is_forwarded_as_bounded_batches_in_order() {
        let (bytes, before, after) = read_buffer(2 * BATCH_LINES + 3, 5);
        let (tx, rx) = sync_channel(1024);
        let mut pending = bytes.clone();
        assert!(drain_lines(&mut pending, 7, &Instant::now(), &tx));
        let messages = received(&rx);

        let flushes: Vec<usize> = (0..messages.len())
            .filter(|&i| messages[i].is_none())
            .collect();
        assert_eq!(
            flushes,
            [3],
            "one #flush, after the {} lines before it",
            before.len()
        );
        for lines in messages.iter().flatten() {
            assert!(
                (1..=BATCH_LINES).contains(&lines.len()),
                "{} lines",
                lines.len()
            );
        }
        let flatten = |ms: &[Option<Vec<Line>>]| -> Vec<Line> {
            ms.iter().flatten().flatten().cloned().collect()
        };
        assert_eq!(flatten(&messages[..3]), before, "lines before #flush");
        assert_eq!(flatten(&messages[4..]), after, "lines after #flush");

        assert_eq!(
            pending, b"3000 !AIVDM,1,1,,A,13aEOK?P00PD2",
            "the tail waits for the next read"
        );
    }

    #[test]
    fn a_tail_left_at_close_is_reported_as_cut() {
        let (bytes, before, after) = read_buffer(2 * BATCH_LINES, 3);
        let (tx, rx) = sync_channel(1024);
        let shutdown = AtomicBool::new(false);
        // `&[u8]` hands the buffer over in 4096-byte reads, so lines also
        // straddle reads here.
        assert!(bytes.len() > 4096);
        assert!(
            read_lines(&bytes[..], 7, &tx, &shutdown),
            "the cut tail is counted"
        );
        let lines: Vec<Line> = received(&rx).into_iter().flatten().flatten().collect();
        assert_eq!(lines, [before, after].concat());

        let whole = b"1 !AIVDM,x\n2 !AIVDM,y\r\n";
        assert!(
            !read_lines(&whole[..], 7, &tx, &shutdown),
            "no tail, nothing cut"
        );
    }

    #[test]
    fn udp_reader_exits_when_the_driver_is_gone() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        let addr = socket.local_addr().unwrap();
        let (tx, rx) = sync_channel(1);
        drop(rx);
        let shutdown = Arc::new(AtomicBool::new(false));
        let next_source = Arc::new(AtomicU32::new(1));
        let reader = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || udp_ingest_loop(&socket, &tx, &shutdown, &next_source))
        };
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !reader.is_finished() && Instant::now() < deadline {
            let _ = peer.send_to(b"1 !AIVDM,1,1,,A,x,0*00\n", addr);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let finished = reader.is_finished();
        shutdown.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        assert!(
            finished,
            "the UDP reader kept running after the driver exited"
        );
    }
}
