//! The socket-free core of `surveil serve`: raw line in, wire events out.
//!
//! [`LiveIngest`] is the whole serving data path minus the network —
//! per-source filter/dedup ([`SourceMux`]), bounded-disorder repair
//! ([`AdmissionBuffer`]), decode ([`DataScanner::scan_from`]), and a
//! [`LiveBatcher`] that mirrors the batch replayer's
//! [`SlideBatches`](maritime_stream::SlideBatches) semantics exactly, so
//! a live run and a batch run over the same sentences produce
//! byte-identical wire events. The listener layer owns the sockets and
//! calls [`LiveIngest::push_lines`] once per socket read; the bench's
//! sustained-ingest leg and the differential tests call
//! [`LiveIngest::push_line`] directly.
//!
//! # Watermark-driven sliding
//!
//! Batch mode knows the stream is over when the file ends; a live feed
//! never ends. Here the window slides when the *event-time watermark*
//! advances: the admission buffer releases tuples once they are `skew`
//! old relative to the newest arrival, and each released tuple whose
//! timestamp crosses the next query boundary triggers the pending slides
//! (including empty ones across quiet gaps — the window keeps pace with
//! reported time, §5 of the paper). End of stream becomes an explicit
//! `#flush` control line: drain the admission buffer, run the final
//! recognition pass, emit the `flushed` marker.

use std::time::Instant;

use maritime_ais::{DataScanner, PositionTuple, ScanStats};
use maritime_cer::{AlertKind, RecognitionSummary, VesselInfo};
use maritime_geo::Area;
use maritime_obs::{names, LazyCounter, LazyHistogram, MetricsRegistry};
use maritime_stream::{
    AdmissionBuffer, AdmissionStats, Duration, SourceId, SourceMux, SourceStats, SourceVerdict,
    Timestamp, WindowSpec,
};

use crate::config::SurveillanceConfig;
use crate::pipeline::{PhaseTimings, SlideOutcome, SurveillancePipeline};
use crate::serve::wire::{alert_kind_name, WireEncoder};

static OBS_BATCHES: LazyCounter = LazyCounter::new(names::STREAM_BATCHES);
static OBS_SENTENCES: LazyCounter = LazyCounter::new(names::SERVE_SENTENCES);
static OBS_FILTERED: LazyCounter = LazyCounter::new(names::SERVE_FILTERED_LINES);
static OBS_DEDUP: LazyCounter = LazyCounter::new(names::SERVE_DEDUP_DROPS);
static OBS_FLUSHES: LazyCounter = LazyCounter::new(names::SERVE_FLUSHES);
static OBS_E2E: LazyHistogram = LazyHistogram::new(names::SERVE_E2E_LATENCY_NS);

/// Re-creates [`maritime_stream::SlideBatches`] batching for a push-driven
/// stream: tuples arrive one at a time, and every crossing of a query
/// boundary `Qᵢ = origin + i·β` closes the batch `(Qᵢ₋₁, Qᵢ]` —
/// including empty batches across gaps. Feeding the same time-ordered
/// tuples through this and through `SlideBatches` yields the same
/// `(query_time, items)` sequence; a unit test below locks that down.
#[derive(Debug)]
pub struct LiveBatcher {
    next_q: Timestamp,
    slide: Duration,
    acc: Vec<PositionTuple>,
}

impl LiveBatcher {
    /// Starts batching from `origin`: the first batch closes at
    /// `origin + slide`.
    #[must_use]
    pub fn new(spec: WindowSpec, origin: Timestamp) -> Self {
        Self {
            next_q: origin + spec.slide,
            slide: spec.slide,
            acc: Vec::new(),
        }
    }

    /// Accepts the next tuple (time-ordered), invoking `slide(q, batch)`
    /// for every query boundary the tuple's timestamp crosses.
    pub fn push(
        &mut self,
        tuple: PositionTuple,
        mut slide: impl FnMut(Timestamp, Vec<PositionTuple>),
    ) {
        while tuple.timestamp > self.next_q {
            let batch = std::mem::take(&mut self.acc);
            OBS_BATCHES.inc();
            slide(self.next_q, batch);
            self.next_q = self.next_q + self.slide;
        }
        self.acc.push(tuple);
    }

    /// Ends the stream: closes the final (possibly empty) batch at the
    /// current boundary and returns that boundary — the query time the
    /// pipeline's `finish` must run at, exactly as batch mode's replayer
    /// does.
    pub fn finish(&mut self, mut slide: impl FnMut(Timestamp, Vec<PositionTuple>)) -> Timestamp {
        let batch = std::mem::take(&mut self.acc);
        OBS_BATCHES.inc();
        slide(self.next_q, batch);
        self.next_q
    }

    /// The next query boundary to close.
    #[must_use]
    pub fn next_query(&self) -> Timestamp {
        self.next_q
    }
}

/// One line of a batch handed to [`LiveIngest::push_lines`]: its event
/// time and the byte range of its sentence in the batch's text.
pub type LineSpan = (Timestamp, usize, usize);

/// Counters describing what the live ingest path has seen so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Raw lines pushed (pre-filter).
    pub lines: u64,
    /// Lines past filter + dedup, handed to admission/decode.
    pub accepted: u64,
    /// Lines dropped by the syntactic filter.
    pub filtered: u64,
    /// Lines dropped as cross-source duplicates.
    pub duplicates: u64,
    /// Window slides executed.
    pub slides: u64,
    /// Recognition queries answered.
    pub queries: u64,
    /// Complex events recognized (intervals + alerts), total.
    pub ce_total: u64,
}

/// The complete live serving data path, sockets excluded. See the module
/// docs for the layer diagram and `SERVING.md` for operator semantics.
pub struct LiveIngest {
    mux: SourceMux,
    /// Buffered `(line, source, admission stamp ns)` triples; the stamp
    /// is wall-clock nanoseconds since `origin`, carried through the
    /// buffer so end-to-end latency can be measured at alert emission.
    admission: AdmissionBuffer<(String, u32, u64)>,
    /// What admission released and the scanner has yet to see; kept
    /// across pushes so its capacity is reused.
    released: Vec<(Timestamp, (String, u32, u64))>,
    scanner: DataScanner,
    batcher: LiveBatcher,
    pipeline: SurveillancePipeline,
    encoder: WireEncoder,
    stats: IngestStats,
    last_t: Timestamp,
    flushed: bool,
    /// Wall-clock origin for admission stamps.
    origin: Instant,
    /// Oldest admission stamp among tuples fed to the batcher since the
    /// last recognition query — the numerator of `serve_e2e_latency_ns`.
    pending_oldest: Option<u64>,
}

impl LiveIngest {
    /// Builds the path: `skew` bounds admission disorder, `dedup_window`
    /// suppresses cross-source duplicate sentences (zero disables).
    ///
    /// # Errors
    /// The configuration error, if `config` fails validation.
    pub fn new(
        config: &SurveillanceConfig,
        vessels: Vec<VesselInfo>,
        areas: Vec<Area>,
        skew: Duration,
        dedup_window: Duration,
    ) -> Result<Self, crate::config::ConfigError> {
        let pipeline = SurveillancePipeline::new(config, vessels, areas)?;
        Ok(Self {
            mux: SourceMux::new(dedup_window),
            admission: AdmissionBuffer::new(skew),
            released: Vec::new(),
            scanner: DataScanner::new(),
            batcher: LiveBatcher::new(config.tracking_window, Timestamp::ZERO),
            pipeline,
            encoder: WireEncoder::new(),
            stats: IngestStats::default(),
            last_t: Timestamp::ZERO,
            flushed: false,
            origin: Instant::now(),
            pending_oldest: None,
        })
    }

    /// Feeds one raw line from `source` with event time `t`; returns the
    /// wire events (possibly none) its processing produced. Lines arriving
    /// after a flush are counted but dropped — the stream has ended.
    pub fn push_line(&mut self, source: SourceId, t: Timestamp, line: &str) -> Vec<String> {
        self.push_lines(source, line, &[(t, 0, line.len())])
    }

    /// Feeds a batch of raw lines from `source`, each given as its event
    /// time and its byte range in `text`, and returns the wire events the
    /// batch produced. Equivalent to [`LiveIngest::push_line`] on each
    /// line in turn, except that the whole batch shares one admission
    /// stamp (the clock is read once per batch).
    ///
    /// # Panics
    /// If a range is out of bounds or not on `char` boundaries of `text`.
    pub fn push_lines(&mut self, source: SourceId, text: &str, lines: &[LineSpan]) -> Vec<String> {
        let n = lines.len() as u64;
        self.stats.lines += n;
        OBS_SENTENCES.add(n);
        if self.flushed {
            self.stats.filtered += n;
            OBS_FILTERED.add(n);
            return Vec::new();
        }
        let stamp = self.origin.elapsed().as_nanos() as u64;
        let mut released = std::mem::take(&mut self.released);
        for &(t, start, end) in lines {
            let line = &text[start..end];
            match self.mux.admit(source, t, line) {
                SourceVerdict::Filtered => {
                    self.stats.filtered += 1;
                    OBS_FILTERED.inc();
                    continue;
                }
                SourceVerdict::Duplicate => {
                    self.stats.duplicates += 1;
                    OBS_DEDUP.inc();
                    continue;
                }
                SourceVerdict::Accepted => {}
            }
            self.stats.accepted += 1;
            self.last_t = self.last_t.max(t);
            self.admission
                .push_into(t, (line.to_string(), source.0, stamp), &mut released);
        }
        let events = self.process_released(&mut released);
        self.released = released;
        events
    }

    /// Drains everything still buffered — admission, defragmenter, the
    /// open batch — runs the pipeline's final recognition pass, and
    /// returns its events plus the `flushed` marker. Idempotent: a second
    /// flush returns nothing.
    pub fn flush(&mut self) -> Vec<String> {
        if self.flushed {
            return Vec::new();
        }
        self.flushed = true;
        OBS_FLUSHES.inc();
        let mut released = self.admission.flush();
        let mut events = self.process_released(&mut released);
        self.scanner.finish(self.last_t);
        let mut outcomes: Vec<SlideOutcome> = Vec::new();
        let pipeline = &mut self.pipeline;
        let final_q = self.batcher.finish(|q, batch| {
            outcomes.push(pipeline.slide(q, &batch));
        });
        outcomes.push(pipeline.finish(final_q));
        for outcome in &outcomes {
            self.note_outcome(outcome);
            events.extend(self.encoder.encode_outcome(outcome));
        }
        events.push(WireEncoder::flushed_marker(final_q.as_secs()));
        events
    }

    /// Scans and batches the released tuples, draining `released`.
    fn process_released(
        &mut self,
        released: &mut Vec<(Timestamp, (String, u32, u64))>,
    ) -> Vec<String> {
        let mut events = Vec::new();
        for (t, (line, source, stamp)) in released.drain(..) {
            let Some(tuple) = self.scanner.scan_from(source, &line, t) else {
                continue;
            };
            self.pending_oldest = Some(self.pending_oldest.map_or(stamp, |s| s.min(stamp)));
            let pipeline = &mut self.pipeline;
            let mut outcomes: Vec<SlideOutcome> = Vec::new();
            self.batcher.push(tuple, |q, batch| {
                outcomes.push(pipeline.slide(q, &batch));
            });
            for outcome in &outcomes {
                self.note_outcome(outcome);
                events.extend(self.encoder.encode_outcome(outcome));
            }
        }
        events
    }

    fn note_outcome(&mut self, outcome: &SlideOutcome) {
        self.stats.slides += 1;
        if let Some(summary) = &outcome.recognition {
            self.stats.queries += 1;
            self.stats.ce_total += summary.ce_count as u64;
            note_rules(summary, &outcome.timings);
            // Admission-to-emission latency of the oldest sentence this
            // recognition pass consumed; the stamp set resets at every
            // query so a quiet stretch cannot inflate the next reading.
            if let Some(stamp) = self.pending_oldest.take() {
                let now = self.origin.elapsed().as_nanos() as u64;
                OBS_E2E.record(now.saturating_sub(stamp));
            }
        }
    }

    /// Serializes the live path's recognition state into one framed
    /// checkpoint: the recognizer backend (every band engine plus the
    /// coordinator's vessel/routing state), the defragmenter's in-flight
    /// partial messages (so a checkpoint taken mid-fragment neither drops
    /// nor duplicates the reassembled sentence), the batcher boundary and
    /// its open batch, and the ingest counters. Mobility-tracking window
    /// state is deliberately excluded — it refills from the live stream
    /// within one tracking window, while the recognition window (hours)
    /// resumes exactly.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        use maritime_rtec::Codec;
        let mut w = maritime_rtec::Writer::new();
        for n in [
            self.stats.lines,
            self.stats.accepted,
            self.stats.filtered,
            self.stats.duplicates,
            self.stats.slides,
            self.stats.queries,
            self.stats.ce_total,
        ] {
            w.put_u64(n);
        }
        w.put_i64(self.last_t.as_secs());
        w.put_bool(self.flushed);
        w.put_i64(self.batcher.next_q.as_secs());
        w.put_len(self.batcher.acc.len());
        for tuple in &self.batcher.acc {
            w.put_u32(tuple.mmsi.0);
            w.put_f64(tuple.position.lon);
            w.put_f64(tuple.position.lat);
            w.put_i64(tuple.timestamp.as_secs());
        }
        let pending = self.scanner.export_defrag_pending();
        w.put_len(pending.messages.len());
        for ((source, seq, channel, total), fragments, last_touch) in &pending.messages {
            w.put_u32(*source);
            w.put_u8(*seq);
            w.put_u32(*channel as u32);
            w.put_u8(*total);
            w.put_len(fragments.len());
            for slot in fragments {
                match slot {
                    None => w.put_u8(0),
                    Some((payload, fill)) => {
                        w.put_u8(1);
                        payload.encode(&mut w);
                        w.put_u8(*fill);
                    }
                }
            }
            w.put_u64(*last_touch);
        }
        w.put_u64(pending.clock);
        w.put_u64(pending.evicted_incomplete);
        let recognizer = self.pipeline.checkpoint_recognizer();
        w.put_len(recognizer.len());
        w.put_bytes(&recognizer);
        w.into_frame()
    }

    /// Restores the state captured by [`LiveIngest::checkpoint`] into this
    /// freshly built path; the pipeline configuration, fleet facts and
    /// areas must match the checkpointing server's.
    ///
    /// # Errors
    /// A [`maritime_rtec::CkptError`] when the bytes are truncated,
    /// corrupt, or from a differently configured server.
    pub fn restore_checkpoint(
        &mut self,
        bytes: &[u8],
    ) -> Result<(), maritime_rtec::CkptError> {
        use maritime_rtec::{Codec, CkptError};
        let payload = maritime_rtec::ckpt::unframe(bytes)?;
        let mut r = maritime_rtec::Reader::new(payload);
        let mut stats = IngestStats::default();
        for slot in [
            &mut stats.lines,
            &mut stats.accepted,
            &mut stats.filtered,
            &mut stats.duplicates,
            &mut stats.slides,
            &mut stats.queries,
            &mut stats.ce_total,
        ] {
            *slot = r.take_u64()?;
        }
        let last_t = Timestamp(r.take_i64()?);
        let flushed = r.take_bool()?;
        let next_q = Timestamp(r.take_i64()?);
        let n = r.take_len()?;
        let mut acc = Vec::with_capacity(n);
        for _ in 0..n {
            let mmsi = maritime_ais::Mmsi(r.take_u32()?);
            let lon = r.take_f64()?;
            let lat = r.take_f64()?;
            let t = Timestamp(r.take_i64()?);
            acc.push(PositionTuple {
                mmsi,
                position: maritime_geo::GeoPoint::new(lon, lat),
                timestamp: t,
            });
        }
        let n = r.take_len()?;
        let mut messages = Vec::with_capacity(n);
        for _ in 0..n {
            let source = r.take_u32()?;
            let seq = r.take_u8()?;
            let channel = char::from_u32(r.take_u32()?)
                .ok_or(CkptError::Corrupt("invalid fragment channel"))?;
            let total = r.take_u8()?;
            let slots = r.take_len()?;
            let mut fragments = Vec::with_capacity(slots);
            for _ in 0..slots {
                fragments.push(match r.take_u8()? {
                    0 => None,
                    1 => {
                        let payload = String::decode(&mut r)?;
                        let fill = r.take_u8()?;
                        Some((payload, fill))
                    }
                    _ => return Err(CkptError::Corrupt("invalid fragment slot tag")),
                });
            }
            let last_touch = r.take_u64()?;
            messages.push(((source, seq, channel, total), fragments, last_touch));
        }
        let pending = maritime_ais::PendingFragments {
            messages,
            clock: r.take_u64()?,
            evicted_incomplete: r.take_u64()?,
        };
        let n = r.take_len()?;
        let recognizer = r.take_bytes(n)?;
        self.pipeline.restore_recognizer(recognizer)?;
        r.finish()?;
        self.scanner.restore_defrag_pending(pending);
        self.stats = stats;
        self.last_t = last_t;
        self.flushed = flushed;
        self.batcher.next_q = next_q;
        self.batcher.acc = acc;
        Ok(())
    }

    /// Whether `#flush` has ended the stream.
    #[must_use]
    pub fn flushed(&self) -> bool {
        self.flushed
    }

    /// Live-path counters.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Decode-layer counters.
    #[must_use]
    pub fn scan_stats(&self) -> ScanStats {
        self.scanner.stats()
    }

    /// Admission-layer counters.
    #[must_use]
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Per-source mux counters, for the `/sources` endpoint.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &SourceStats)> {
        self.mux.sources()
    }
}

/// Mirrors one recognition summary into the per-rule labeled families:
/// `cer_rule_recognized_total{rule=...}` counts what each CE rule
/// produced, and `cer_rule_latency_ns{rule=...}` attributes the slide's
/// recognition wall time to every rule that fired. Runs once per
/// recognition query, never per sentence.
fn note_rules(summary: &RecognitionSummary, timings: &PhaseTimings) {
    let registry = MetricsRegistry::global();
    let mut fired: Vec<&'static str> = Vec::new();
    let suspicious: u64 = summary.suspicious.iter().map(|(_, il)| il.len() as u64).sum();
    if suspicious > 0 {
        registry
            .labeled_counter(&names::CER_RULE_RECOGNIZED, "suspicious")
            .add(suspicious);
        fired.push("suspicious");
    }
    let fishing: u64 = summary
        .illegal_fishing
        .iter()
        .map(|(_, il)| il.len() as u64)
        .sum();
    if fishing > 0 {
        registry
            .labeled_counter(&names::CER_RULE_RECOGNIZED, "illegal_fishing")
            .add(fishing);
        fired.push("illegal_fishing");
    }
    for kind in [AlertKind::IllegalShipping, AlertKind::DangerousShipping] {
        let n = summary.alerts.iter().filter(|(_, a)| a.kind == kind).count() as u64;
        if n > 0 {
            let rule = alert_kind_name(kind);
            registry.labeled_counter(&names::CER_RULE_RECOGNIZED, rule).add(n);
            fired.push(rule);
        }
    }
    let recognition_ns = timings.recognition.as_nanos() as u64;
    for rule in fired {
        registry
            .labeled_histogram(&names::CER_RULE_LATENCY_NS, rule)
            .record(recognition_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_stream::SlideBatches;

    fn tuple_at(t: i64) -> PositionTuple {
        PositionTuple {
            mmsi: maritime_ais::Mmsi(237_000_001),
            position: maritime_geo::GeoPoint::new(24.0, 37.0),
            timestamp: Timestamp(t),
        }
    }

    fn spec(range_s: i64, slide_s: i64) -> WindowSpec {
        WindowSpec::new(Duration::secs(range_s), Duration::secs(slide_s)).unwrap()
    }

    /// The push-driven batcher must reproduce the pull-driven replayer's
    /// batch sequence on the same stream — boundaries, empty gap batches,
    /// final batch, and the finish query time.
    #[test]
    fn live_batcher_matches_slide_batches() {
        let times: &[i64] = &[1, 9, 10, 11, 35, 36, 70, 95];
        let spec = spec(30, 10);

        let replayed: Vec<(i64, Vec<i64>)> = SlideBatches::new(
            times.iter().map(|&t| (Timestamp(t), tuple_at(t))),
            spec,
            Timestamp::ZERO,
        )
        .map(|b| {
            (
                b.query_time.as_secs(),
                b.items.iter().map(|(t, _)| t.as_secs()).collect(),
            )
        })
        .collect();

        let mut live: Vec<(i64, Vec<i64>)> = Vec::new();
        let mut batcher = LiveBatcher::new(spec, Timestamp::ZERO);
        for &t in times {
            batcher.push(tuple_at(t), |q, batch| {
                live.push((
                    q.as_secs(),
                    batch.iter().map(|p| p.timestamp.as_secs()).collect(),
                ));
            });
        }
        let final_q = batcher.finish(|q, batch| {
            live.push((
                q.as_secs(),
                batch.iter().map(|p| p.timestamp.as_secs()).collect(),
            ));
        });

        assert_eq!(live, replayed);
        assert_eq!(
            final_q.as_secs(),
            replayed.last().unwrap().0,
            "finish runs at the final batch's query time, like batch mode"
        );
    }

    #[test]
    fn empty_stream_still_emits_one_batch() {
        let mut batcher = LiveBatcher::new(spec(30, 10), Timestamp::ZERO);
        let mut batches = 0;
        let q = batcher.finish(|_, b| {
            assert!(b.is_empty());
            batches += 1;
        });
        assert_eq!(batches, 1);
        assert_eq!(q, Timestamp(10));
    }
}
