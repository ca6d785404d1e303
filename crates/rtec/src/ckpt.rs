//! Zero-dependency binary checkpoint encoding.
//!
//! Serializes the incremental engine's between-query state (window
//! contents, symbol table, per-stratum caches) so a whole engine can be
//! saved, killed, and restored mid-stream with byte-identical subsequent
//! output — the substrate for partition kill/restore and the stepping
//! stone to multi-process scale-out, where vessel handoffs would cross it.
//!
//! # Format
//!
//! A checkpoint is a *frame*:
//!
//! ```text
//! magic  "MCKP"          4 bytes
//! version u16 LE          2 bytes   (currently 1)
//! payload_len u64 LE      8 bytes
//! checksum u64 LE         8 bytes   FNV-1a 64 over the payload
//! payload                 payload_len bytes
//! ```
//!
//! The payload is a flat little-endian byte stream produced by [`Codec`]
//! implementations: fixed-width integers, IEEE-754 bit patterns for
//! floats, and `u64` length prefixes for sequences. Hash maps are always
//! encoded in sorted key order, so the same logical state produces the
//! same bytes — golden checkpoint files stay stable across runs.
//!
//! Decoding never panics on hostile input: truncation, bad magic, an
//! unknown version, and checksum mismatches all surface as [`CkptError`].

use std::collections::HashMap;
use std::fmt;

use maritime_stream::{Duration, Timestamp, WindowSpec};

use crate::cache::{
    DerivedEntry, EngineCache, EvalStrategy, IncrementalStats, PointEntry, StratumCache,
};
use crate::intern::{FxBuildHasher, KeyId};
use crate::intervals::{Interval, IntervalList};
use crate::view::ProbeLog;

/// Frame magic: "maritime checkpoint".
pub const MAGIC: [u8; 4] = *b"MCKP";
/// Current frame version. Bump on any payload-layout change.
pub const VERSION: u16 = 1;
/// Bytes of framing before the payload starts.
pub const HEADER_LEN: usize = 4 + 2 + 8 + 8;

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The frame does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic,
    /// The frame's version is not one this build can read.
    BadVersion(u16),
    /// The input ended before the declared payload (or a field) did.
    Truncated,
    /// The bytes are structurally invalid: checksum mismatch, an enum tag
    /// out of range, or a value failing an invariant.
    Corrupt(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a checkpoint: bad magic"),
            Self::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64 over `bytes` — the frame checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded payload so far.
    #[must_use]
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Wraps the payload in the versioned frame (magic, version, length,
    /// FNV-1a checksum).
    #[must_use]
    pub fn into_frame(self) -> Vec<u8> {
        frame(&self.buf)
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a sequence length as `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked payload decoder.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over a raw payload (already unframed).
    #[must_use]
    pub fn new(payload: &'a [u8]) -> Self {
        Self { buf: payload, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corrupt.
    pub fn take_bool(&mut self) -> Result<bool, CkptError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("bool out of range")),
        }
    }

    /// Reads a sequence length and sanity-checks it against the bytes
    /// actually left (every element takes at least one byte), so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn take_len(&mut self) -> Result<usize, CkptError> {
        let n = self.take_u64()?;
        let n = usize::try_from(n).map_err(|_| CkptError::Corrupt("length overflows usize"))?;
        if n > self.remaining() {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.take(n)
    }

    /// Asserts the payload was fully consumed — trailing garbage means
    /// the frame does not describe what the caller decoded.
    pub fn finish(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Corrupt("trailing bytes after payload"))
        }
    }
}

/// Wraps a payload in the versioned frame.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame and returns its payload slice.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], CkptError> {
    if bytes.len() < 4 {
        return Err(CkptError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Truncated);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len 2"));
    if version != VERSION {
        return Err(CkptError::BadVersion(version));
    }
    let len = u64::from_le_bytes(bytes[6..14].try_into().expect("len 8"));
    let len = usize::try_from(len).map_err(|_| CkptError::Corrupt("length overflows usize"))?;
    let checksum = u64::from_le_bytes(bytes[14..22].try_into().expect("len 8"));
    let rest = &bytes[HEADER_LEN..];
    if rest.len() < len {
        return Err(CkptError::Truncated);
    }
    if rest.len() > len {
        return Err(CkptError::Corrupt("trailing bytes after frame"));
    }
    let payload = &rest[..len];
    if fnv1a64(payload) != checksum {
        return Err(CkptError::Corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// A value with a canonical binary encoding. Implementations must
/// roundtrip exactly: `decode(encode(v)) == v`, and equal values must
/// encode to equal bytes (maps are encoded in sorted key order).
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value, consuming exactly the bytes `encode` produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError>;
}

impl Codec for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u8()
    }
}

impl Codec for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u16()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u64()
    }
}

impl Codec for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_i64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        usize::try_from(r.take_u64()?).map_err(|_| CkptError::Corrupt("usize overflow"))
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_f64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_bool()
    }
}

impl Codec for char {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self as u32);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        char::from_u32(r.take_u32()?).ok_or(CkptError::Corrupt("invalid char"))
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.take_len()?;
        let bytes = r.take_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::Corrupt("invalid utf-8"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CkptError::Corrupt("Option tag out of range")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec, D: Codec> Codec for (A, B, C, D) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

impl Codec for Timestamp {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Timestamp(r.take_i64()?))
    }
}

impl Codec for Duration {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Duration(r.take_i64()?))
    }
}

impl Codec for WindowSpec {
    fn encode(&self, w: &mut Writer) {
        self.range.encode(w);
        self.slide.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let range = Duration::decode(r)?;
        let slide = Duration::decode(r)?;
        WindowSpec::new(range, slide).map_err(|_| CkptError::Corrupt("invalid window spec"))
    }
}

impl Codec for KeyId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(KeyId(r.take_u32()?))
    }
}

impl Codec for Interval {
    fn encode(&self, w: &mut Writer) {
        self.since.encode(w);
        self.until.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let since = Timestamp::decode(r)?;
        let until = Option::<Timestamp>::decode(r)?;
        Ok(match until {
            Some(u) => Interval::closed(since, u),
            None => Interval::open(since),
        })
    }
}

impl Codec for IntervalList {
    fn encode(&self, w: &mut Writer) {
        self.intervals().to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        // `from_intervals` canonicalises; on an already-canonical encoded
        // list it is the identity, so roundtrips are exact.
        Ok(IntervalList::from_intervals(Vec::<Interval>::decode(r)?))
    }
}

impl Codec for EvalStrategy {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Self::FromScratch => 0,
            Self::Incremental => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.take_u8()? {
            0 => Ok(Self::FromScratch),
            1 => Ok(Self::Incremental),
            _ => Err(CkptError::Corrupt("EvalStrategy tag out of range")),
        }
    }
}

impl Codec for IncrementalStats {
    fn encode(&self, w: &mut Writer) {
        self.incremental.encode(w);
        self.full.encode(w);
        self.triggers_evaluated.encode(w);
        self.triggers_reused.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            incremental: usize::decode(r)?,
            full: usize::decode(r)?,
            triggers_evaluated: usize::decode(r)?,
            triggers_reused: usize::decode(r)?,
        })
    }
}

/// Encodes an [`IdMap`](crate::intern::IdMap) in ascending [`KeyId`]
/// order — hash-map iteration order never leaks into the bytes.
impl<V: Codec> Codec for HashMap<KeyId, V, FxBuildHasher> {
    fn encode(&self, w: &mut Writer) {
        let mut ids: Vec<KeyId> = self.keys().copied().collect();
        ids.sort_unstable();
        w.put_len(ids.len());
        for id in ids {
            id.encode(w);
            self[&id].encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.take_len()?;
        let mut out = Self::default();
        out.reserve(n.min(r.remaining()));
        for _ in 0..n {
            let id = KeyId::decode(r)?;
            let v = V::decode(r)?;
            if out.insert(id, v).is_some() {
                return Err(CkptError::Corrupt("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<K: Codec> Codec for ProbeLog<K> {
    fn encode(&self, w: &mut Writer) {
        self.points.encode(w);
        self.lists.encode(w);
        self.unknown_points.encode(w);
        self.unknown_lists.encode(w);
        self.scans.encode(w);
        self.scan_all.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            points: Codec::decode(r)?,
            lists: Codec::decode(r)?,
            unknown_points: Codec::decode(r)?,
            unknown_lists: Codec::decode(r)?,
            scans: Codec::decode(r)?,
            scan_all: Codec::decode(r)?,
        })
    }
}

impl<K: Codec> Codec for PointEntry<K> {
    fn encode(&self, w: &mut Writer) {
        self.t.encode(w);
        self.inits.encode(w);
        self.terms.encode(w);
        self.probes.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            t: Codec::decode(r)?,
            inits: Codec::decode(r)?,
            terms: Codec::decode(r)?,
            probes: Codec::decode(r)?,
        })
    }
}

impl<K: Codec, D: Codec> Codec for DerivedEntry<K, D> {
    fn encode(&self, w: &mut Writer) {
        self.t.encode(w);
        self.emits.encode(w);
        self.probes.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            t: Codec::decode(r)?,
            emits: Codec::decode(r)?,
            probes: Codec::decode(r)?,
        })
    }
}

impl<K: Codec> Codec for StratumCache<K> {
    fn encode(&self, w: &mut Writer) {
        self.ev_inits.encode(w);
        self.ev_terms.encode(w);
        self.events.encode(w);
        self.boundary.encode(w);
        self.fluents.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            ev_inits: Codec::decode(r)?,
            ev_terms: Codec::decode(r)?,
            events: Codec::decode(r)?,
            boundary: Codec::decode(r)?,
            fluents: Codec::decode(r)?,
        })
    }
}

impl<K: Codec, D: Codec> Codec for EngineCache<K, D> {
    fn encode(&self, w: &mut Writer) {
        self.checkpoint.encode(w);
        self.snapshot_len.encode(w);
        self.strata.encode(w);
        self.derived_events.encode(w);
        self.derived_boundary.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            checkpoint: Codec::decode(r)?,
            snapshot_len: Codec::decode(r)?,
            strata: Codec::decode(r)?,
            derived_events: Codec::decode(r)?,
            derived_boundary: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        let back = T::decode(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&42u8);
        roundtrip(&0xBEEFu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&(-7i64));
        roundtrip(&1.5f64);
        roundtrip(&true);
        roundtrip(&'A');
        roundtrip(&String::from("naïve ✓"));
        roundtrip(&Some(Timestamp(99)));
        roundtrip(&Option::<Timestamp>::None);
        roundtrip(&vec![KeyId(0), KeyId(7)]);
        roundtrip(&(Timestamp(1), Duration(2), KeyId(3)));
    }

    #[test]
    fn frame_roundtrip_and_rejection() {
        let payload = b"hello".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), &payload[..]);

        // Bad magic.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert_eq!(unframe(&bad), Err(CkptError::BadMagic));

        // Future version.
        let mut bad = framed.clone();
        bad[4] = 0xFF;
        assert!(matches!(unframe(&bad), Err(CkptError::BadVersion(_))));

        // Truncation at every prefix length: clean error, no panic.
        for n in 0..framed.len() {
            assert!(unframe(&framed[..n]).is_err(), "prefix {n} accepted");
        }

        // Payload bit flip: checksum catches it.
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(unframe(&bad), Err(CkptError::Corrupt("checksum mismatch")));

        // Trailing garbage after the frame.
        let mut bad = framed;
        bad.push(0);
        assert!(unframe(&bad).is_err());
    }

    #[test]
    fn idmap_encoding_is_canonical() {
        use crate::intern::IdMap;
        let mut a: IdMap<u64> = IdMap::default();
        let mut b: IdMap<u64> = IdMap::default();
        // Insert in different orders; bytes must agree.
        for id in [5u32, 1, 9, 3] {
            a.insert(KeyId(id), u64::from(id) * 10);
        }
        for id in [3u32, 9, 1, 5] {
            b.insert(KeyId(id), u64::from(id) * 10);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(wa.into_payload(), wb.into_payload());
    }

    #[test]
    fn corrupt_length_is_rejected_without_allocation_blowup() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert!(Vec::<u8>::decode(&mut r).is_err());
    }
}
