//! AIS message type 5: static and voyage-related data.
//!
//! §3.2 of the paper: "AIS messages sometimes include information regarding
//! the destination of sailing vessels. Unfortunately ... this
//! voyage-related information is often missing or error-prone, mainly
//! because it is updated manually by the crew." The paper therefore derives
//! destinations from motion (trip reconstruction) instead of trusting the
//! field — but the field still has to be *parsed* to make that comparison.
//! This module implements the 424-bit type-5 payload (vessel name, call
//! sign, ship type, draught, declared destination, ETA), the two-fragment
//! `!AIVDM` transport it rides on, and a [`Defragmenter`] for reassembly.

use std::collections::HashMap;

use maritime_stream::Timestamp;
use serde::{Deserialize, Serialize};

use crate::mmsi::Mmsi;
use crate::nmea::{checksum, AivdmFragment, AivdmSentence, NmeaError};
use crate::sixbit::{BitCursor, BitWriter};

/// Decoded static & voyage data (message type 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticVoyageData {
    /// Reporting vessel.
    pub mmsi: Mmsi,
    /// IMO ship identification number (0 when unavailable).
    pub imo: u32,
    /// Radio call sign, trimmed.
    pub callsign: String,
    /// Vessel name, trimmed.
    pub name: String,
    /// AIS ship-type code.
    pub ship_type: u8,
    /// Maximum present static draught, meters (0.1 m resolution).
    pub draught_m: f64,
    /// Crew-entered destination, trimmed (frequently stale or empty).
    pub destination: String,
}

/// Encodes a six-bit-ASCII text field of exactly `chars` characters,
/// padding with `@`.
fn put_text(w: &mut BitWriter, text: &str, chars: usize) {
    let mut written = 0;
    for ch in text.chars().take(chars) {
        let v = char_to_sixbit(ch);
        w.put_u32(u32::from(v), 6);
        written += 1;
    }
    for _ in written..chars {
        w.put_u32(0, 6); // '@' padding
    }
}

/// Reads a six-bit-ASCII text field of `chars` characters, trimming the
/// `@` padding and trailing spaces.
fn get_text(r: &mut BitCursor<'_>, chars: usize) -> Option<String> {
    let mut out = String::with_capacity(chars);
    for _ in 0..chars {
        let v = r.get_u32(6)? as u8;
        out.push(sixbit_to_char(v));
    }
    Some(out.trim_end_matches(['@', ' ']).to_string())
}

/// The AIS six-bit text alphabet: 0–31 map to `@A–Z[\]^_`, 32–63 to
/// space through `?`.
fn sixbit_to_char(v: u8) -> char {
    if v < 32 {
        (v + 64) as char
    } else {
        v as char
    }
}

fn char_to_sixbit(ch: char) -> u8 {
    let up = ch.to_ascii_uppercase() as u8;
    match up {
        64..=95 => up - 64, // '@'..'_' -> 0..31
        32..=63 => up,      // ' '..'?' -> 32..63
        _ => 0,             // unrepresentable -> '@'
    }
}

/// Encodes a [`StaticVoyageData`] as the standard two-fragment `!AIVDM`
/// pair with sequential message id `seq_id`.
#[must_use]
pub fn encode_static_voyage(data: &StaticVoyageData, seq_id: u8) -> [String; 2] {
    let mut w = BitWriter::new();
    w.put_u32(5, 6); // message type
    w.put_u32(0, 2); // repeat
    w.put_u32(data.mmsi.0, 30);
    w.put_u32(0, 2); // AIS version
    w.put_u32(data.imo, 30);
    put_text(&mut w, &data.callsign, 7);
    put_text(&mut w, &data.name, 20);
    w.put_u32(u32::from(data.ship_type), 8);
    w.put_u32(0, 30); // dimensions
    w.put_u32(0, 4); // fix type
    w.put_u32(0, 20); // ETA (month/day/hour/minute; 0 = unavailable)
    w.put_u32(((data.draught_m * 10.0).round() as u32).min(255), 8);
    put_text(&mut w, &data.destination, 20);
    w.put_u32(0, 1); // DTE
    w.put_u32(0, 1); // spare
    let (payload, fill) = w.finish();

    // Split the armoured payload across two sentences (the standard split
    // for the 424-bit type 5 is 60 + 11 characters).
    let cut = payload.len().min(60);
    let (p1, p2) = payload.split_at(cut);
    let body1 = format!("AIVDM,2,1,{seq_id},A,{p1},0");
    let body2 = format!("AIVDM,2,2,{seq_id},A,{p2},{fill}");
    [
        format!("!{body1}*{:02X}", checksum(&body1)),
        format!("!{body2}*{:02X}", checksum(&body2)),
    ]
}

/// Decodes a reassembled type-5 payload.
pub fn decode_static_voyage(payload: &str, fill_bits: u8) -> Result<StaticVoyageData, NmeaError> {
    let mut r = BitCursor::new(payload.as_bytes(), fill_bits).ok_or(NmeaError::BadPayload)?;
    let msg_type = r.get_u32(6).ok_or(NmeaError::BadPayload)?;
    if msg_type != 5 {
        return Err(NmeaError::UnsupportedType(msg_type as u8));
    }
    r.skip(2).ok_or(NmeaError::BadPayload)?;
    let mmsi_raw = r.get_u32(30).ok_or(NmeaError::BadPayload)?;
    let mmsi = Mmsi::try_new(mmsi_raw).map_err(|e| NmeaError::BadMmsi(e.0))?;
    r.skip(2).ok_or(NmeaError::BadPayload)?;
    let imo = r.get_u32(30).ok_or(NmeaError::BadPayload)?;
    let callsign = get_text(&mut r, 7).ok_or(NmeaError::BadPayload)?;
    let name = get_text(&mut r, 20).ok_or(NmeaError::BadPayload)?;
    let ship_type = r.get_u32(8).ok_or(NmeaError::BadPayload)? as u8;
    r.skip(30 + 4 + 20).ok_or(NmeaError::BadPayload)?;
    let draught = r.get_u32(8).ok_or(NmeaError::BadPayload)?;
    let destination = get_text(&mut r, 20).ok_or(NmeaError::BadPayload)?;
    Ok(StaticVoyageData {
        mmsi,
        imo,
        callsign,
        name,
        ship_type,
        draught_m: f64::from(draught) / 10.0,
        destination,
    })
}

/// Reassembles multi-fragment AIVDM messages.
///
/// Fragments are keyed by `(source, sequence id, channel, total)`; a
/// message is released once all its fragments have arrived. The source
/// dimension matters whenever one scanner drains several physical feeds
/// (TCP connections, UDP peers): NMEA sequence ids are 1 digit and every
/// receiver counts from zero, so two sources interleaving type-5 pairs
/// collide on `(seq, channel, total)` alone and would cross-assemble into
/// a garbled payload. Single-feed callers use [`Defragmenter::push_fragment`],
/// which pins source 0. Stale partial messages are evicted after
/// `max_pending` distinct keys accumulate (radio loss means some fragments
/// never arrive).
#[derive(Debug)]
pub struct Defragmenter {
    pending: HashMap<(u32, u8, char, u8), PendingMessage>,
    /// Arrival counter for LRU-ish eviction.
    clock: u64,
    max_pending: usize,
    /// Partial messages abandoned with fragments missing — evicted under
    /// memory pressure or still incomplete at end of stream. These are
    /// truncated transmissions, and a radio that truncates messages is a
    /// link-quality signal the scanner must be able to report.
    evicted_incomplete: u64,
}

#[derive(Debug)]
struct PendingMessage {
    fragments: Vec<Option<(String, u8)>>,
    arrived: usize,
    last_touch: u64,
}

/// One in-flight partial message of a [`PendingFragments`] snapshot.
pub type PendingEntry = ((u32, u8, char, u8), Vec<Option<(String, u8)>>, u64);

/// Plain-data snapshot of a [`Defragmenter`]'s in-flight partial messages,
/// produced by [`Defragmenter::export_pending`] for checkpointing.
///
/// Each entry is `(key, fragment slots, last_touch)` where the key is
/// `(source, sequence id, channel, total)` and the slots hold
/// `(payload, fill_bits)` for fragments that have arrived. Entries are
/// sorted by key so two checkpoints of the same state encode identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PendingFragments {
    /// The still-incomplete messages, sorted by key.
    pub messages: Vec<PendingEntry>,
    /// The defragmenter's LRU arrival clock.
    pub clock: u64,
    /// Running count of partial messages abandoned so far.
    pub evicted_incomplete: u64,
}

/// Outcome of feeding one fragment to the [`Defragmenter`].
///
/// The common case — a single-fragment message — borrows its payload from
/// the input line, so the steady-state scanner path never copies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defragged<'a> {
    /// A complete single-fragment message: `(payload, fill_bits)`, the
    /// payload borrowed straight from the parsed line.
    Single(&'a str, u8),
    /// Fragment buffered (or dropped as malformed); message not complete.
    Pending,
    /// The final fragment of a multi-part message arrived: the reassembled
    /// `(payload, fill_bits of the last fragment)`.
    Complete(String, u8),
}

impl Default for Defragmenter {
    fn default() -> Self {
        Self::new(64)
    }
}

impl Defragmenter {
    /// Creates a defragmenter holding at most `max_pending` partial
    /// messages.
    #[must_use]
    pub fn new(max_pending: usize) -> Self {
        Self {
            pending: HashMap::new(),
            clock: 0,
            max_pending: max_pending.max(1),
            evicted_incomplete: 0,
        }
    }

    /// Feeds one parsed sentence. Single-fragment sentences pass through
    /// immediately; fragments of multi-part messages are buffered until
    /// complete, then the concatenated `(payload, fill_bits)` is returned.
    pub fn push(&mut self, sentence: &AivdmSentence) -> Option<(String, u8)> {
        match self.push_fragment(&sentence.as_fragment()) {
            Defragged::Single(payload, fill) => Some((payload.to_string(), fill)),
            Defragged::Pending => None,
            Defragged::Complete(payload, fill) => Some((payload, fill)),
        }
    }

    /// Feeds one parsed fragment — the zero-copy form of
    /// [`Defragmenter::push`]. A single-fragment message is handed back as
    /// [`Defragged::Single`] borrowing the input payload; only fragments
    /// of genuinely multi-part messages are copied into the pending
    /// buffer.
    pub fn push_fragment<'a>(&mut self, sentence: &AivdmFragment<'a>) -> Defragged<'a> {
        self.push_fragment_from(0, sentence)
    }

    /// Feeds one parsed fragment received from the physical feed `source`.
    /// Fragments only assemble with siblings from the *same* source:
    /// interleaved multi-part messages from two TCP connections that happen
    /// to share a sequence id and channel stay separate instead of
    /// cross-assembling.
    pub fn push_fragment_from<'a>(
        &mut self,
        source: u32,
        sentence: &AivdmFragment<'a>,
    ) -> Defragged<'a> {
        self.clock += 1;
        if sentence.total <= 1 {
            return Defragged::Single(sentence.payload, sentence.fill_bits);
        }
        if sentence.number == 0 || sentence.number > sentence.total {
            return Defragged::Pending; // malformed fragment index
        }
        let key = (
            source,
            sentence.seq_id.unwrap_or(0),
            sentence.channel,
            sentence.total,
        );
        let clock = self.clock;
        let total = usize::from(sentence.total);
        let entry = self.pending.entry(key).or_insert_with(|| PendingMessage {
            fragments: vec![None; total],
            arrived: 0,
            last_touch: clock,
        });
        let idx = usize::from(sentence.number) - 1;
        if entry.fragments[idx].is_none() {
            entry.arrived += 1;
        }
        entry.fragments[idx] = Some((sentence.payload.to_string(), sentence.fill_bits));
        entry.last_touch = clock;

        if entry.arrived == total {
            let entry = self.pending.remove(&key).expect("just touched");
            let mut payload = String::new();
            let mut fill = 0;
            for frag in entry.fragments.into_iter().flatten() {
                payload.push_str(&frag.0);
                fill = frag.1; // fill bits of the final fragment apply
            }
            return Defragged::Complete(payload, fill);
        }
        self.evict_if_needed();
        Defragged::Pending
    }

    /// Partial messages currently buffered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Multi-fragment messages abandoned incomplete so far (evicted under
    /// pressure or drained at end of stream): truncated transmissions.
    #[must_use]
    pub fn evicted_incomplete(&self) -> u64 {
        self.evicted_incomplete
    }

    /// Abandons every still-pending partial message, counting each as an
    /// incomplete eviction, and returns how many were dropped. Call at end
    /// of stream: a fragment set that never completed *is* a truncated
    /// message, not a pending one.
    pub fn drain_pending(&mut self) -> u64 {
        let dropped = self.pending.len() as u64;
        self.pending.clear();
        self.evicted_incomplete += dropped;
        dropped
    }

    /// Snapshots the in-flight partial messages for checkpointing —
    /// unlike [`Defragmenter::drain_pending`], nothing is abandoned or
    /// counted as truncated, so a checkpoint taken mid-fragment can be
    /// restored and the reassembled sentence still completes exactly
    /// once. Messages are sorted by key for a deterministic encoding.
    #[must_use]
    pub fn export_pending(&self) -> PendingFragments {
        let mut messages: Vec<_> = self
            .pending
            .iter()
            .map(|(key, p)| (*key, p.fragments.clone(), p.last_touch))
            .collect();
        messages.sort_by_key(|(key, _, _)| *key);
        PendingFragments {
            messages,
            clock: self.clock,
            evicted_incomplete: self.evicted_incomplete,
        }
    }

    /// Restores the partial-message state captured by
    /// [`Defragmenter::export_pending`], replacing any current pending
    /// state. The per-message arrival counts are recomputed from the
    /// fragment slots.
    pub fn restore_pending(&mut self, state: PendingFragments) {
        self.pending = state
            .messages
            .into_iter()
            .map(|(key, fragments, last_touch)| {
                let arrived = fragments.iter().filter(|f| f.is_some()).count();
                (
                    key,
                    PendingMessage {
                        fragments,
                        arrived,
                        last_touch,
                    },
                )
            })
            .collect();
        self.clock = state.clock;
        self.evicted_incomplete = state.evicted_incomplete;
    }

    fn evict_if_needed(&mut self) {
        while self.pending.len() > self.max_pending {
            let oldest = self
                .pending
                .iter()
                .min_by_key(|(_, p)| p.last_touch)
                .map(|(k, _)| *k)
                .expect("non-empty");
            self.pending.remove(&oldest);
            self.evicted_incomplete += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmea::parse_sentence;

    fn sample() -> StaticVoyageData {
        StaticVoyageData {
            mmsi: Mmsi(237_004_321),
            imo: 9_074_729,
            callsign: "SV2BZ".into(),
            name: "BLUE STAR PAROS".into(),
            ship_type: 60, // passenger
            draught_m: 5.6,
            destination: "PIRAEUS".into(),
        }
    }

    #[test]
    fn type5_roundtrip_via_two_fragments() {
        let data = sample();
        let [s1, s2] = encode_static_voyage(&data, 3);
        let f1 = parse_sentence(&s1).unwrap();
        let f2 = parse_sentence(&s2).unwrap();
        assert_eq!(f1.total, 2);
        assert_eq!(f1.number, 1);
        assert_eq!(f2.number, 2);
        assert_eq!(f1.seq_id, Some(3));

        let mut defrag = Defragmenter::default();
        assert!(defrag.push(&f1).is_none());
        let (payload, fill) = defrag.push(&f2).expect("complete after 2nd fragment");
        let decoded = decode_static_voyage(&payload, fill).unwrap();
        assert_eq!(decoded, data);
        assert_eq!(defrag.pending(), 0);
    }

    #[test]
    fn interleaved_sources_never_cross_assemble() {
        // Two feeds, both transmitting a type-5 pair with the SAME sequence
        // id and channel — exactly what two independent receivers produce,
        // since every receiver numbers its own sequences from zero. The
        // fragments interleave: a1, b1, a2, b2. Keyed per source, each pair
        // assembles with its own sibling; keyed only by (seq, channel,
        // total) the second first-fragment would overwrite the first and
        // source A's message would complete with source B's opening half.
        let a = sample();
        let b = StaticVoyageData {
            mmsi: Mmsi(239_111_222),
            imo: 9_999_999,
            callsign: "SW0XY".into(),
            name: "AEGEAN GHOST".into(),
            ship_type: 30, // fishing
            draught_m: 2.4,
            destination: "KALYMNOS".into(),
        };
        let [a1, a2] = encode_static_voyage(&a, 7);
        let [b1, b2] = encode_static_voyage(&b, 7);
        let sentences: Vec<_> = [&a1, &b1, &a2, &b2]
            .into_iter()
            .map(|s| parse_sentence(s).unwrap())
            .collect();
        let mut defrag = Defragmenter::default();
        assert_eq!(
            defrag.push_fragment_from(1, &sentences[0].as_fragment()),
            Defragged::Pending
        );
        assert_eq!(
            defrag.push_fragment_from(2, &sentences[1].as_fragment()),
            Defragged::Pending
        );
        let done_a = defrag.push_fragment_from(1, &sentences[2].as_fragment());
        let done_b = defrag.push_fragment_from(2, &sentences[3].as_fragment());
        let Defragged::Complete(pa, fa) = done_a else {
            panic!("source 1 pair must complete: {done_a:?}");
        };
        let Defragged::Complete(pb, fb) = done_b else {
            panic!("source 2 pair must complete: {done_b:?}");
        };
        assert_eq!(decode_static_voyage(&pa, fa).unwrap(), a);
        assert_eq!(decode_static_voyage(&pb, fb).unwrap(), b);
        assert_eq!(defrag.pending(), 0);
        assert_eq!(defrag.evicted_incomplete(), 0);
    }

    #[test]
    fn fragments_out_of_order_still_assemble() {
        let [s1, s2] = encode_static_voyage(&sample(), 1);
        let f1 = parse_sentence(&s1).unwrap();
        let f2 = parse_sentence(&s2).unwrap();
        let mut defrag = Defragmenter::default();
        assert!(defrag.push(&f2).is_none());
        let (payload, fill) = defrag.push(&f1).unwrap();
        let decoded = decode_static_voyage(&payload, fill).unwrap();
        assert_eq!(decoded.destination, "PIRAEUS");
    }

    #[test]
    fn duplicate_fragment_is_harmless() {
        let [s1, s2] = encode_static_voyage(&sample(), 1);
        let f1 = parse_sentence(&s1).unwrap();
        let f2 = parse_sentence(&s2).unwrap();
        let mut defrag = Defragmenter::default();
        assert!(defrag.push(&f1).is_none());
        assert!(defrag.push(&f1).is_none());
        assert!(defrag.push(&f2).is_some());
    }

    #[test]
    fn interleaved_messages_by_seq_id() {
        let a = sample();
        let b = StaticVoyageData {
            mmsi: Mmsi(237_009_999),
            destination: "HERAKLION".into(),
            ..sample()
        };
        let [a1, a2] = encode_static_voyage(&a, 1);
        let [b1, b2] = encode_static_voyage(&b, 2);
        let mut defrag = Defragmenter::default();
        assert!(defrag.push(&parse_sentence(&a1).unwrap()).is_none());
        assert!(defrag.push(&parse_sentence(&b1).unwrap()).is_none());
        assert_eq!(defrag.pending(), 2);
        let (pb, fb) = defrag.push(&parse_sentence(&b2).unwrap()).unwrap();
        assert_eq!(decode_static_voyage(&pb, fb).unwrap().destination, "HERAKLION");
        let (pa, fa) = defrag.push(&parse_sentence(&a2).unwrap()).unwrap();
        assert_eq!(decode_static_voyage(&pa, fa).unwrap().destination, "PIRAEUS");
    }

    #[test]
    fn eviction_bounds_memory() {
        let mut defrag = Defragmenter::new(4);
        for seq in 0..20u8 {
            let [s1, _] = encode_static_voyage(&sample(), seq % 10);
            // Vary the channel to create distinct keys beyond seq id reuse.
            let mut f = parse_sentence(&s1).unwrap();
            f.channel = if seq % 2 == 0 { 'A' } else { 'B' };
            f.seq_id = Some(seq);
            defrag.push(&f);
        }
        assert!(defrag.pending() <= 4);
        assert_eq!(defrag.evicted_incomplete(), 16, "20 keys, 4 retained");
    }

    #[test]
    fn drain_counts_leftover_fragments_as_truncated() {
        let [s1, _] = encode_static_voyage(&sample(), 7);
        let mut defrag = Defragmenter::default();
        assert!(defrag.push(&parse_sentence(&s1).unwrap()).is_none());
        assert_eq!(defrag.pending(), 1);
        assert_eq!(defrag.drain_pending(), 1);
        assert_eq!(defrag.pending(), 0);
        assert_eq!(defrag.evicted_incomplete(), 1);
        // Draining an empty defragmenter is a no-op.
        assert_eq!(defrag.drain_pending(), 0);
        assert_eq!(defrag.evicted_incomplete(), 1);
    }

    #[test]
    fn empty_fields_and_padding() {
        let data = StaticVoyageData {
            callsign: String::new(),
            name: String::new(),
            destination: String::new(),
            draught_m: 0.0,
            ..sample()
        };
        let [s1, s2] = encode_static_voyage(&data, 0);
        let mut defrag = Defragmenter::default();
        defrag.push(&parse_sentence(&s1).unwrap());
        let (p, f) = defrag.push(&parse_sentence(&s2).unwrap()).unwrap();
        let decoded = decode_static_voyage(&p, f).unwrap();
        assert_eq!(decoded.name, "");
        assert_eq!(decoded.destination, "");
        assert_eq!(decoded.draught_m, 0.0);
    }

    #[test]
    fn text_alphabet_covers_names() {
        for ch in "ABCXYZ 0123456789-./?".chars() {
            let v = char_to_sixbit(ch);
            assert_eq!(sixbit_to_char(v), ch, "char {ch}");
        }
        // Lowercase is uppercased; exotic characters degrade to '@'.
        assert_eq!(sixbit_to_char(char_to_sixbit('a')), 'A');
        assert_eq!(sixbit_to_char(char_to_sixbit('ß')), '@');
    }

    #[test]
    fn export_restore_pending_roundtrips_partial_state() {
        let [s1, s2] = encode_static_voyage(&sample(), 6);
        let mut defrag = Defragmenter::new(8);
        assert!(defrag.push(&parse_sentence(&s1).unwrap()).is_none());
        let snapshot = defrag.export_pending();
        assert_eq!(snapshot.messages.len(), 1);

        // A restored defragmenter completes the message from the snapshot
        // alone, and its re-export matches the original byte for byte.
        let mut restored = Defragmenter::new(8);
        restored.restore_pending(snapshot.clone());
        assert_eq!(restored.export_pending(), snapshot);
        assert_eq!(restored.pending(), 1);
        let (p, f) = restored.push(&parse_sentence(&s2).unwrap()).unwrap();
        let decoded = decode_static_voyage(&p, f).unwrap();
        assert_eq!(decoded.mmsi, sample().mmsi);
        assert_eq!(restored.pending(), 0);
        assert_eq!(restored.evicted_incomplete(), 0);

        // The eviction counter rides along so link-quality stats survive a
        // checkpoint too.
        let mut lossy = Defragmenter::new(8);
        lossy.push(&parse_sentence(&s1).unwrap());
        assert_eq!(lossy.drain_pending(), 1);
        let state = lossy.export_pending();
        assert_eq!(state.evicted_incomplete, 1);
        let mut carried = Defragmenter::new(8);
        carried.restore_pending(state);
        assert_eq!(carried.evicted_incomplete(), 1);
    }

    #[test]
    fn wrong_type_rejected() {
        let mut w = BitWriter::new();
        w.put_u32(1, 6);
        for _ in 0..19 {
            w.put_u32(0, 22); // 418 zero bits in word-sized chunks
        }
        let (p, f) = w.finish();
        assert!(matches!(
            decode_static_voyage(&p, f),
            Err(NmeaError::UnsupportedType(1))
        ));
    }
}

/// A small registry of the latest voyage declarations per vessel, with the
/// receive timestamp — consumed by the archive's declared-vs-derived
/// destination comparison.
#[derive(Debug, Default)]
pub struct VoyageRegistry {
    latest: HashMap<Mmsi, (Timestamp, StaticVoyageData)>,
}

impl VoyageRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a declaration (keeps the newest per vessel).
    pub fn record(&mut self, at: Timestamp, data: StaticVoyageData) {
        match self.latest.get(&data.mmsi) {
            Some((prev, _)) if *prev > at => {}
            _ => {
                self.latest.insert(data.mmsi, (at, data));
            }
        }
    }

    /// The latest declaration for a vessel.
    #[must_use]
    pub fn latest(&self, mmsi: Mmsi) -> Option<&StaticVoyageData> {
        self.latest.get(&mmsi).map(|(_, d)| d)
    }

    /// Number of vessels with declarations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    fn decl(mmsi: u32, dest: &str) -> StaticVoyageData {
        StaticVoyageData {
            mmsi: Mmsi(mmsi),
            imo: 0,
            callsign: String::new(),
            name: String::new(),
            ship_type: 70,
            draught_m: 4.0,
            destination: dest.into(),
        }
    }

    #[test]
    fn keeps_newest_declaration() {
        let mut reg = VoyageRegistry::new();
        reg.record(Timestamp(100), decl(1, "PIRAEUS"));
        reg.record(Timestamp(200), decl(1, "RHODES"));
        assert_eq!(reg.latest(Mmsi(1)).unwrap().destination, "RHODES");
        // An older declaration arriving late does not overwrite.
        reg.record(Timestamp(150), decl(1, "VOLOS"));
        assert_eq!(reg.latest(Mmsi(1)).unwrap().destination, "RHODES");
        assert_eq!(reg.len(), 1);
    }
}
