//! Checkpoint/restore substrate: a compact hand-rolled byte codec and the
//! [`Checkpoint`] trait every cache (and, one crate up, every policy)
//! implements so an engine run can be frozen and resumed byte-for-byte.
//!
//! The workspace builds offline with no serde; the codec here is the whole
//! wire format. A framed blob is
//!
//! ```text
//! MAGIC(4) | version u16 | payload … | fnv1a64(payload) u64
//! ```
//!
//! with every multi-byte integer little-endian. Decoding validates the
//! magic, the version, and the FNV-1a integrity digest before handing a
//! single payload byte to the caller, so a corrupted or truncated snapshot
//! is rejected with a typed [`CodecError`] — never a panic.
//!
//! Determinism contract: `save` must write a canonical byte sequence (sort
//! hash-map contents by key before writing) so that two states that compare
//! equal encode identically. The engine's resume-equivalence checker relies
//! on this.

use std::collections::HashSet;

use crate::types::PageId;

/// Leading magic of a framed snapshot blob (`b"ppsn"`).
pub const SNAP_MAGIC: [u8; 4] = *b"ppsn";

/// Current wire-format version of framed snapshot blobs.
pub const SNAP_VERSION: u16 = 1;

/// Why a blob could not be decoded. Every variant is a *typed* rejection:
/// corrupted input surfaces as an `Err`, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes mid-field.
    UnexpectedEof,
    /// The blob does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The blob's version tag is not [`SNAP_VERSION`].
    BadVersion(u16),
    /// The FNV-1a digest over the payload does not match the trailer:
    /// the blob was corrupted in storage or transit.
    DigestMismatch {
        /// Digest recomputed over the received payload.
        computed: u64,
        /// Digest stored in the blob's trailer.
        stored: u64,
    },
    /// A decoded value is structurally impossible (e.g. a length that
    /// exceeds the remaining bytes, or an inconsistent list).
    Invalid(&'static str),
    /// The component (policy) does not support checkpointing.
    Unsupported(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of input"),
            CodecError::BadMagic => write!(f, "not a snapshot blob (bad magic)"),
            CodecError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {SNAP_VERSION})")
            }
            CodecError::DigestMismatch { computed, stored } => write!(
                f,
                "snapshot integrity digest mismatch (computed {computed:#018x}, stored {stored:#018x})"
            ),
            CodecError::Invalid(what) => write!(f, "snapshot field invalid: {what}"),
            CodecError::Unsupported(who) => {
                write!(f, "policy `{who}` does not support checkpointing")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The FNV-1a 64-bit offset basis (the state of an empty hash).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64-bit hash over `bytes` — the snapshot integrity digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET_BASIS, bytes)
}

/// FNV-1a 64-bit hash continued from an arbitrary `seed` state.
///
/// This is what chains WAL record digests: each record's digest seeds the
/// next record's hash, and the first record is seeded by the digest of the
/// base snapshot, so a record can only verify against the exact log prefix
/// (and base) it was written after. Seeding with the standard offset basis
/// reduces to plain [`fnv1a64`].
pub fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Two FNV-1a 64-bit hashes of the same `bytes`, continued from two seed
/// states, in one pass: `(fnv1a64_seeded(seeds.0, bytes),
/// fnv1a64_seeded(seeds.1, bytes))`.
///
/// The two multiply chains are independent, so the pair costs about as
/// much as one hash. Framing a base snapshot needs both: the payload digest
/// for the `ppsn` trailer and the whole-blob digest that seeds the WAL
/// chain (see [`SnapWriter::end_framed`]). A served request batch needs
/// both too: its wire frame digest and its workload fingerprint.
pub fn fnv1a64_pair(seeds: (u64, u64), bytes: &[u8]) -> (u64, u64) {
    let (mut a, mut b) = seeds;
    for &byte in bytes {
        a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
        b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

/// Leading magic of one framed WAL delta record (`b"ppwr"`).
pub const WAL_RECORD_MAGIC: [u8; 4] = *b"ppwr";

/// Bytes of a WAL record before the payload: magic, sequence number,
/// payload length.
pub const WAL_RECORD_HEADER: usize = 4 + 8 + 4;

/// Frames one WAL delta record and returns `(bytes, digest)`:
///
/// ```text
/// WAL_RECORD_MAGIC(4) | seq u64 | payload_len u32 | payload … | digest u64
/// ```
///
/// where `digest = fnv1a64_seeded(chain, seq ‖ payload_len ‖ payload)`.
/// `chain` is the previous record's digest (or the base snapshot's
/// [`fnv1a64`] for the first record), so the returned digest is the chain
/// seed for the *next* record. A record therefore only verifies in the
/// exact position it was appended at: against a different base, a reordered
/// log, or a gap, the chain breaks and [`parse_wal_record`] reports a tear.
pub fn frame_wal_record(seq: u64, chain: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    let mut w = SnapWriter {
        buf: Vec::with_capacity(WAL_RECORD_HEADER + payload.len() + 8),
    };
    let mark = w.begin_record(WAL_RECORD_MAGIC, seq);
    w.buf.extend_from_slice(payload);
    let digest = w.end_record(mark, chain);
    (w.buf, digest)
}

/// Outcome of parsing one WAL record off the front of a log buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecordStep<'a> {
    /// A complete, digest-valid record. `digest` seeds the next record's
    /// chain; `consumed` is the record's total framed length.
    Record {
        /// Sequence number stored in the record header.
        seq: u64,
        /// The record's payload bytes.
        payload: &'a [u8],
        /// The record's chained digest (= the next chain seed).
        digest: u64,
        /// Framed bytes consumed from the buffer.
        consumed: usize,
    },
    /// The buffer is empty: a clean end of log.
    End,
    /// The buffer ends or breaks mid-record — a torn write, a partial
    /// tail, a flipped byte, or a chain break — with the typed reason.
    /// Everything before this point is intact; recovery truncates here.
    Torn(CodecError),
}

/// Parses one WAL record off the front of `buf`, verifying its chained
/// digest against `chain` (the previous record's digest, or the base
/// snapshot digest for the first record).
///
/// Never panics: every malformed shape maps onto a typed [`CodecError`]
/// inside [`WalRecordStep::Torn`] — a short buffer (torn write or partial
/// tail mid-header or mid-payload) is [`CodecError::UnexpectedEof`], wrong
/// leading bytes are [`CodecError::BadMagic`], and any byte flip or
/// chain/ordering break is [`CodecError::DigestMismatch`].
pub fn parse_wal_record(buf: &[u8], chain: u64) -> WalRecordStep<'_> {
    if buf.is_empty() {
        return WalRecordStep::End;
    }
    if buf.len() < WAL_RECORD_HEADER {
        return WalRecordStep::Torn(CodecError::UnexpectedEof);
    }
    if buf[..4] != WAL_RECORD_MAGIC {
        return WalRecordStep::Torn(CodecError::BadMagic);
    }
    let seq = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let total = WAL_RECORD_HEADER + len + 8;
    if buf.len() < total {
        return WalRecordStep::Torn(CodecError::UnexpectedEof);
    }
    let payload = &buf[WAL_RECORD_HEADER..WAL_RECORD_HEADER + len];
    let stored = u64::from_le_bytes(buf[total - 8..total].try_into().unwrap());
    let computed = fnv1a64_seeded(chain, &buf[4..total - 8]);
    if computed != stored {
        return WalRecordStep::Torn(CodecError::DigestMismatch { computed, stored });
    }
    WalRecordStep::Record {
        seq,
        payload,
        digest: computed,
        consumed: total,
    }
}

/// Append-only payload writer with typed little-endian primitives.
///
/// Besides plain appends, a writer can leave a field open and close it
/// later: [`SnapWriter::begin_bytes`] reserves a length prefix that
/// [`SnapWriter::end_bytes`] backpatches, and the `begin_`/`end_` pairs for
/// framed blobs and WAL records do the same for their headers and digest
/// trailers. That lets a nested blob be written straight into its parent
/// buffer, byte-identical to building it separately and copying it in.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

/// An open length-prefixed field (see [`SnapWriter::begin_bytes`]).
#[derive(Debug)]
#[must_use = "an open field must be closed with `SnapWriter::end_bytes`"]
pub struct BytesMark(usize);

/// An open framed blob (see [`SnapWriter::begin_framed`]).
#[derive(Debug)]
#[must_use = "an open blob must be closed with `SnapWriter::end_framed`"]
pub struct FramedMark(usize);

/// An open record (see [`SnapWriter::begin_record`]).
#[derive(Debug)]
#[must_use = "an open record must be closed with `SnapWriter::end_record`"]
pub struct RecordMark(usize);

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The payload written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes the writer can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Discards everything written, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, yielding the raw payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, yielding a framed blob: magic, version tag,
    /// payload, FNV-1a trailer. The shape [`decode_framed`] accepts.
    pub fn into_framed(self) -> Vec<u8> {
        let mut w = SnapWriter {
            buf: Vec::with_capacity(self.buf.len() + 14),
        };
        let mark = w.begin_framed();
        w.buf.extend_from_slice(&self.buf);
        w.end_framed(mark);
        w.buf
    }

    /// Opens a length-prefixed byte field: writes a placeholder `u64`
    /// length that [`SnapWriter::end_bytes`] fills in. Everything written
    /// in between is the field's contents, so the result equals
    /// [`SnapWriter::put_bytes`] of those contents.
    pub fn begin_bytes(&mut self) -> BytesMark {
        let at = self.buf.len();
        self.put_u64(0);
        BytesMark(at)
    }

    /// Closes a field opened by [`SnapWriter::begin_bytes`], backpatching
    /// its length prefix.
    pub fn end_bytes(&mut self, mark: BytesMark) {
        let len = (self.buf.len() - mark.0 - 8) as u64;
        self.buf[mark.0..mark.0 + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Opens a framed blob: writes the magic and version tag. Everything
    /// written until [`SnapWriter::end_framed`] is the blob's payload, so
    /// the result equals [`SnapWriter::into_framed`] of that payload.
    pub fn begin_framed(&mut self) -> FramedMark {
        let at = self.buf.len();
        self.buf.extend_from_slice(&SNAP_MAGIC);
        self.buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        FramedMark(at)
    }

    /// Closes a blob opened by [`SnapWriter::begin_framed`]: appends the
    /// payload's FNV-1a trailer and returns [`fnv1a64`] of the whole
    /// framed blob — the chain seed of a WAL written after it as a base.
    /// One pass over the payload computes both digests.
    pub fn end_framed(&mut self, mark: FramedMark) -> u64 {
        let header = fnv1a64(&self.buf[mark.0..mark.0 + 6]);
        let (trailer, whole) = fnv1a64_pair((FNV_OFFSET_BASIS, header), &self.buf[mark.0 + 6..]);
        let trailer = trailer.to_le_bytes();
        self.buf.extend_from_slice(&trailer);
        fnv1a64_seeded(whole, &trailer)
    }

    /// Opens a chained record `seq` under `magic`: writes the magic, the
    /// sequence number and a placeholder payload length. Everything
    /// written until [`SnapWriter::end_record`] is the record's payload, so
    /// under [`WAL_RECORD_MAGIC`] the result equals [`frame_wal_record`] of
    /// that payload. WAL records and `parapage serve` wire frames share
    /// this layout and differ only in their magic.
    pub fn begin_record(&mut self, magic: [u8; 4], seq: u64) -> RecordMark {
        let at = self.buf.len();
        self.buf.extend_from_slice(&magic);
        self.put_u64(seq);
        self.put_u32(0);
        RecordMark(at)
    }

    /// Closes a record opened by [`SnapWriter::begin_record`]: backpatches
    /// the payload length, appends the digest chained from `chain` over
    /// `seq ‖ payload_len ‖ payload`, and returns that digest (the next
    /// record's chain seed).
    ///
    /// # Panics
    /// When the payload exceeds `u32::MAX` bytes.
    pub fn end_record(&mut self, mark: RecordMark, chain: u64) -> u64 {
        let at = mark.0;
        let len = self.buf.len() - at - WAL_RECORD_HEADER;
        let len = u32::try_from(len).expect("record payload exceeds u32");
        self.buf[at + 12..at + 16].copy_from_slice(&len.to_le_bytes());
        let digest = fnv1a64_seeded(chain, &self.buf[at + 4..]);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        digest
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a collection length (alias of [`SnapWriter::put_usize`],
    /// named for intent at call sites).
    pub fn put_len(&mut self, v: usize) {
        self.put_usize(v);
    }

    /// Writes a [`PageId`].
    pub fn put_page(&mut self, v: PageId) {
        self.put_u64(v.0);
    }

    /// Writes raw bytes, length-prefixed.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based payload reader matching [`SnapWriter`] field for field.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reads a raw (unframed) payload.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte not 0/1")),
        }
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` previously written as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("usize does not fit this platform"))
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length; bounded by the remaining bytes so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        // Every element of every encoded collection occupies ≥ 1 byte, so
        // a length beyond the remaining payload is always corruption.
        if n > self.remaining() {
            return Err(CodecError::Invalid("collection length exceeds payload"));
        }
        Ok(n)
    }

    /// Reads a [`PageId`].
    pub fn get_page(&mut self) -> Result<PageId, CodecError> {
        Ok(PageId(self.get_u64()?))
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_len()?;
        self.take(n)
    }
}

/// Validates a framed blob (magic, version, FNV-1a digest) and returns the
/// payload on success.
pub fn decode_framed(blob: &[u8]) -> Result<&[u8], CodecError> {
    if blob.len() < 14 {
        return Err(CodecError::UnexpectedEof);
    }
    if blob[..4] != SNAP_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(blob[4..6].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let payload = &blob[6..blob.len() - 8];
    let stored = u64::from_le_bytes(blob[blob.len() - 8..].try_into().unwrap());
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(CodecError::DigestMismatch { computed, stored });
    }
    Ok(payload)
}

/// A component whose live state can be frozen into a [`SnapWriter`] and
/// rebuilt from a [`SnapReader`].
///
/// `load` replaces the receiver's state in place; the receiver's
/// construction-time configuration (capacities baked into the constructor)
/// is expected to match what was saved — implementations write enough of it
/// to validate. After `load`, the component must behave byte-identically to
/// the saved one under the same subsequent inputs.
pub trait Checkpoint {
    /// Serializes the full dynamic state into `w`, canonically (equal
    /// states write equal bytes).
    fn save(&self, w: &mut SnapWriter);

    /// [`Checkpoint::save`] through exclusive access: writes the same
    /// bytes, but a component that guards its state with locks may skip
    /// them, because `&mut self` already proves no one else holds it.
    fn save_mut(&mut self, w: &mut SnapWriter) {
        self.save(w);
    }

    /// Replaces `self`'s state with the one `r` holds.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError>;
}

/// Rebuilds a `HashSet<PageId>` from a list of pages, rejecting duplicates
/// (a duplicated member means the blob is corrupt or non-canonical).
pub(crate) fn set_from_pages(pages: &[PageId]) -> Result<HashSet<PageId>, CodecError> {
    let mut set = HashSet::with_capacity(pages.len());
    for &p in pages {
        if !set.insert(p) {
            return Err(CodecError::Invalid("duplicate page in checkpointed list"));
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-12);
        w.put_u128(u128::MAX - 5);
        w.put_usize(9999);
        w.put_f64(0.25);
        w.put_page(PageId(42));
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -12);
        assert_eq!(r.get_u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.get_usize().unwrap(), 9999);
        assert_eq!(r.get_f64().unwrap(), 0.25);
        assert_eq!(r.get_page().unwrap(), PageId(42));
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_a_typed_eof() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn framing_round_trips_and_rejects_corruption() {
        let mut w = SnapWriter::new();
        w.put_u64(0xdead_beef);
        w.put_bytes(b"payload");
        let blob = w.into_framed();
        let payload = decode_framed(&blob).unwrap();
        let mut r = SnapReader::new(payload);
        assert_eq!(r.get_u64().unwrap(), 0xdead_beef);

        // Flip one payload byte: the digest must catch it.
        let mut bad = blob.clone();
        bad[8] ^= 0x40;
        assert!(matches!(
            decode_framed(&bad),
            Err(CodecError::DigestMismatch { .. })
        ));

        // Wrong magic and wrong version are distinct typed errors.
        let mut nomagic = blob.clone();
        nomagic[0] = b'x';
        assert_eq!(decode_framed(&nomagic), Err(CodecError::BadMagic));
        let mut newver = blob.clone();
        newver[4] = 0xff;
        assert!(matches!(
            decode_framed(&newver),
            Err(CodecError::BadVersion(_))
        ));

        // Truncating the trailer is EOF, not a panic.
        assert_eq!(decode_framed(&blob[..10]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn lengths_beyond_payload_are_invalid() {
        let mut w = SnapWriter::new();
        w.put_len(1000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.get_len(),
            Err(CodecError::Invalid("collection length exceeds payload"))
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seeded_fnv_continues_the_stream() {
        // Hashing "foo" then "bar" from the intermediate state must equal
        // hashing "foobar" in one go.
        let mid = fnv1a64(b"foo");
        assert_eq!(fnv1a64_seeded(mid, b"bar"), fnv1a64(b"foobar"));
        assert_eq!(fnv1a64_seeded(0xcbf2_9ce4_8422_2325, b"a"), fnv1a64(b"a"));
    }

    #[test]
    fn fused_fnv_pair_matches_the_reference_vectors() {
        // Both lanes from the offset basis: each is plain FNV-1a 64.
        for (input, want) in [
            (&b""[..], 0xcbf29ce484222325),
            (&b"a"[..], 0xaf63dc4c8601ec8c),
            (&b"foobar"[..], 0x85944171f73967e8),
        ] {
            assert_eq!(
                fnv1a64_pair((FNV_OFFSET_BASIS, FNV_OFFSET_BASIS), input),
                (want, want)
            );
        }
        // Distinct seeds: each lane continues its own stream.
        let mid = fnv1a64(b"foo");
        assert_eq!(
            fnv1a64_pair((FNV_OFFSET_BASIS, mid), b"bar"),
            (fnv1a64(b"bar"), fnv1a64(b"foobar"))
        );
    }

    #[test]
    fn backpatched_length_equals_put_bytes() {
        let mut want = SnapWriter::new();
        want.put_u8(1);
        let mut inner = SnapWriter::new();
        inner.put_u64(7);
        inner.put_bytes(b"xyz");
        want.put_bytes(inner.bytes());
        want.put_bytes(b"");
        want.put_u8(2);

        let mut got = SnapWriter::new();
        got.put_u8(1);
        let outer = got.begin_bytes();
        got.put_u64(7);
        let nested = got.begin_bytes();
        got.put_u8(b'x');
        got.put_u16(u16::from_le_bytes(*b"yz"));
        got.end_bytes(nested);
        got.end_bytes(outer);
        let empty = got.begin_bytes();
        got.end_bytes(empty);
        got.put_u8(2);
        assert_eq!(got.bytes(), want.bytes());

        let mut r = SnapReader::new(got.bytes());
        assert_eq!(r.get_u8().unwrap(), 1);
        let mut inner = SnapReader::new(r.get_bytes().unwrap());
        assert_eq!(inner.get_u64().unwrap(), 7);
        assert_eq!(inner.get_bytes().unwrap(), b"xyz");
        assert_eq!(r.get_bytes().unwrap(), b"");
    }

    #[test]
    fn framing_in_place_equals_into_framed_and_seeds_the_chain() {
        for payload in [&b""[..], b"p", b"a longer snapshot payload"] {
            let mut w = SnapWriter::new();
            w.put_u8(0xee); // bytes before the blob stay out of both digests
            let mark = w.begin_framed();
            for &b in payload {
                w.put_u8(b);
            }
            let chain = w.end_framed(mark);
            let mut plain = SnapWriter::new();
            for &b in payload {
                plain.put_u8(b);
            }
            let want = plain.into_framed();
            assert_eq!(&w.bytes()[1..], &want[..]);
            assert_eq!(chain, fnv1a64(&want));
            assert_eq!(decode_framed(&want).unwrap(), payload);
        }
    }

    #[test]
    fn wal_record_in_place_matches_the_documented_layout() {
        let chain = fnv1a64(b"base");
        let mut w = SnapWriter::new();
        w.put_bytes(b"earlier record"); // records append after one another
        let before = w.len();
        let mark = w.begin_record(WAL_RECORD_MAGIC, 9);
        w.put_u32(0xabcd);
        let digest = w.end_record(mark, chain);

        let mut want = Vec::new();
        want.extend_from_slice(b"ppwr");
        want.extend_from_slice(&9u64.to_le_bytes());
        want.extend_from_slice(&4u32.to_le_bytes());
        want.extend_from_slice(&0xabcdu32.to_le_bytes());
        let want_digest = fnv1a64_seeded(chain, &want[4..]);
        want.extend_from_slice(&want_digest.to_le_bytes());
        assert_eq!(&w.bytes()[before..], &want[..]);
        assert_eq!(digest, want_digest);
        assert_eq!(
            frame_wal_record(9, chain, &0xabcdu32.to_le_bytes()),
            (want, want_digest)
        );
    }

    #[test]
    fn wal_records_chain_and_round_trip() {
        let base = fnv1a64(b"base snapshot bytes");
        let (r0, d0) = frame_wal_record(0, base, b"first");
        let (r1, d1) = frame_wal_record(1, d0, b"second");
        let mut log = r0.clone();
        log.extend_from_slice(&r1);

        let step = parse_wal_record(&log, base);
        let WalRecordStep::Record {
            seq,
            payload,
            digest,
            consumed,
        } = step
        else {
            panic!("expected record, got {step:?}");
        };
        assert_eq!(
            (seq, payload, digest, consumed),
            (0, &b"first"[..], d0, r0.len())
        );
        let step = parse_wal_record(&log[consumed..], digest);
        let WalRecordStep::Record {
            seq,
            payload,
            digest,
            ..
        } = step
        else {
            panic!("expected record, got {step:?}");
        };
        assert_eq!((seq, payload, digest), (1, &b"second"[..], d1));
        assert_eq!(parse_wal_record(&[], d1), WalRecordStep::End);
    }

    #[test]
    fn wal_record_tears_are_typed() {
        let base = fnv1a64(b"base");
        let (rec, _) = frame_wal_record(3, base, b"payload");

        // Partial header (torn write very early).
        assert_eq!(
            parse_wal_record(&rec[..7], base),
            WalRecordStep::Torn(CodecError::UnexpectedEof)
        );
        // Mid-payload truncation (torn write inside the record).
        assert_eq!(
            parse_wal_record(&rec[..rec.len() - 3], base),
            WalRecordStep::Torn(CodecError::UnexpectedEof)
        );
        // Garbage where the magic should be.
        let mut bad = rec.clone();
        bad[0] = b'x';
        assert_eq!(
            parse_wal_record(&bad, base),
            WalRecordStep::Torn(CodecError::BadMagic)
        );
        // A flipped payload byte breaks the digest.
        let mut bad = rec.clone();
        bad[WAL_RECORD_HEADER + 2] ^= 0x10;
        assert!(matches!(
            parse_wal_record(&bad, base),
            WalRecordStep::Torn(CodecError::DigestMismatch { .. })
        ));
        // The right record against the wrong chain seed (stale base /
        // reordered log) is a digest mismatch too.
        assert!(matches!(
            parse_wal_record(&rec, base ^ 1),
            WalRecordStep::Torn(CodecError::DigestMismatch { .. })
        ));
    }
}
