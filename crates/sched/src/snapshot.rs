//! Engine snapshots: the full dynamic state of a run, captured at an event
//! boundary, serializable to a framed byte blob and restorable into a
//! freshly-constructed [`crate::engine::Engine`].
//!
//! A snapshot captures *everything* the engine needs to resume
//! byte-identically: the event-heap contents, per-processor sequence
//! cursors and completion state, aggregate counters, the peak-memory delta
//! trace, the fault-plan delivery position, the per-processor replacement
//! cache contents (via `parapage_cache::Checkpoint`), and the policy's own
//! state (via `BoxAllocator::checkpoint` — RNG position included for the
//! randomized policies). The part of that state a WAL record also carries
//! is one [`RunState`], encoded and decoded by the same section code in
//! both formats. The resume-equivalence contract — a run resumed from any
//! snapshot produces the same [`crate::RunResult`] and the same trace
//! suffix as the uninterrupted run — is enforced by the `parapage-conform`
//! crate's resume checker and the `parapage chaos` CLI matrix.
//!
//! ### Wire format
//!
//! [`EngineSnapshot::encode`] produces the workspace's standard framed blob
//! (see `parapage_cache::checkpoint`): magic `b"ppsn"`, a version tag, the
//! payload, and an FNV-1a64 integrity digest. A corrupted blob — bit flip,
//! truncation, wrong magic — is rejected by [`EngineSnapshot::decode`] with
//! a typed [`SnapshotError`], never a panic. Encoding is canonical: equal
//! snapshots encode to equal bytes (heaps are serialized sorted).

use std::error::Error;
use std::fmt;

use parapage_cache::{
    decode_framed, fnv1a64, fnv1a64_seeded, CacheStats, CodecError, PageId, SnapReader, SnapWriter,
    Time,
};
use parapage_core::Interval;

/// FNV-1a64 fingerprint of a workload (all sequences, lengths included), so
/// a snapshot can refuse to resume against a different workload.
pub fn workload_fingerprint(seqs: &[Vec<PageId>]) -> u64 {
    let eat = |h: u64, word: u64| fnv1a64_seeded(h, &word.to_le_bytes());
    let mut h = fnv1a64(&(seqs.len() as u64).to_le_bytes());
    for seq in seqs {
        h = eat(h, seq.len() as u64);
        h = seq.iter().fold(h, |h, &PageId(pg)| eat(h, pg));
    }
    h
}

/// A workload borrowed together with its [`workload_fingerprint`].
///
/// The fingerprint is data that travels with the sequences: an engine
/// built from a `WorkloadRef` stores it instead of hashing the sequences
/// again, and a supervisor hands the same value to every attempt it
/// builds. [`WorkloadRef::new`] (and every `From` conversion from borrowed
/// sequences) hashes them; [`WorkloadRef::with_fingerprint`] accepts a
/// value computed elsewhere, such as the wire reader's fused pass over a
/// `Batch` frame.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadRef<'a> {
    seqs: &'a [Vec<PageId>],
    fingerprint: u64,
}

impl<'a> WorkloadRef<'a> {
    /// Borrows `seqs` and hashes them.
    pub fn new(seqs: &'a [Vec<PageId>]) -> Self {
        WorkloadRef {
            seqs,
            fingerprint: workload_fingerprint(seqs),
        }
    }

    /// Borrows `seqs` with a fingerprint the caller already computed.
    /// Debug builds check it against [`workload_fingerprint`].
    pub fn with_fingerprint(seqs: &'a [Vec<PageId>], fingerprint: u64) -> Self {
        debug_assert_eq!(
            fingerprint,
            workload_fingerprint(seqs),
            "handed-in workload fingerprint differs from the sequences' own"
        );
        WorkloadRef { seqs, fingerprint }
    }

    /// One request sequence per processor.
    pub fn seqs(&self) -> &'a [Vec<PageId>] {
        self.seqs
    }

    /// [`workload_fingerprint`] of [`WorkloadRef::seqs`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl<'a> From<&'a [Vec<PageId>]> for WorkloadRef<'a> {
    fn from(seqs: &'a [Vec<PageId>]) -> Self {
        WorkloadRef::new(seqs)
    }
}

impl<'a> From<&'a Vec<Vec<PageId>>> for WorkloadRef<'a> {
    fn from(seqs: &'a Vec<Vec<PageId>>) -> Self {
        WorkloadRef::new(seqs)
    }
}

/// Why a snapshot could not be taken, encoded, decoded, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte codec rejected the blob (corruption, truncation, an
    /// unsupported policy, or an invalid field).
    Codec(CodecError),
    /// The snapshot was taken against a different workload than the engine
    /// being restored.
    WorkloadMismatch {
        /// Fingerprint of the engine's workload.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A structural mismatch between the snapshot and the receiving engine
    /// (processor count, option flags).
    Shape(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot codec: {e}"),
            SnapshotError::WorkloadMismatch { expected, found } => write!(
                f,
                "snapshot taken against a different workload \
                 (engine {expected:#018x}, snapshot {found:#018x})"
            ),
            SnapshotError::Shape(what) => write!(f, "snapshot shape mismatch: {what}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// The run state both checkpoint formats carry: each processor's cursor
/// and completion time, the hit/miss counters, the memory-impact integral
/// behind Theorem 1, and the outstanding boxes with their release times.
///
/// [`EngineSnapshot`] and [`crate::wal::WalDelta`] each hold one and write
/// it as two byte sections with the same code: *progress* (`pos` through
/// `grants_issued`) and *pending* (`live_usage` through `remaining`). Each
/// format places `ticks` and `emitted` itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunState {
    /// Events processed so far (the engine's logical clock for epochs).
    pub ticks: u64,
    /// Trace events emitted so far (lets a supervisor deduplicate the
    /// stream across crash/resume boundaries).
    pub emitted: u64,
    /// Per-processor next-request index.
    pub pos: Vec<usize>,
    /// Per-processor completion times (0 while unfinished).
    pub completions: Vec<Time>,
    /// Per-processor finished flags.
    pub finished: Vec<bool>,
    /// Aggregate hit/miss counters.
    pub stats: CacheStats,
    /// Memory impact accumulated so far.
    pub memory_integral: u128,
    /// Grants issued so far.
    pub grants_issued: u64,
    /// Concurrently-allocated height: the sum of the pending release
    /// heights.
    pub live_usage: usize,
    /// Pending releases `(time, height)`, sorted.
    pub releases: Vec<(Time, usize)>,
    /// The enforced memory limit currently in effect.
    pub current_limit: Option<usize>,
    /// Fault-plan delivery position (events already delivered).
    pub fault_pos: usize,
    /// Faults delivered so far.
    pub faults_injected: u64,
    /// Pending events `(time, kind, proc)`, sorted.
    pub heap: Vec<(Time, u8, u32)>,
    /// Processors not yet completion-notified.
    pub remaining: usize,
}

impl RunState {
    /// Writes the progress section: `pos` through `grants_issued`.
    pub(crate) fn put_progress(&self, w: &mut SnapWriter) {
        w.put_len(self.pos.len());
        for &v in &self.pos {
            w.put_usize(v);
        }
        for &c in &self.completions {
            w.put_u64(c);
        }
        for &f in &self.finished {
            w.put_bool(f);
        }
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u128(self.memory_integral);
        w.put_u64(self.grants_issued);
    }

    /// Reads the progress section into `self`.
    pub(crate) fn get_progress(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let p = r.get_len()?;
        self.pos = get_n(r, p, SnapReader::get_usize)?;
        self.completions = get_n(r, p, SnapReader::get_u64)?;
        self.finished = get_n(r, p, SnapReader::get_bool)?;
        self.stats = CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
        };
        self.memory_integral = r.get_u128()?;
        self.grants_issued = r.get_u64()?;
        Ok(())
    }

    /// Writes the pending section: `live_usage` through `remaining`.
    pub(crate) fn put_pending(&self, w: &mut SnapWriter) {
        w.put_usize(self.live_usage);
        w.put_len(self.releases.len());
        for &(t, h) in &self.releases {
            w.put_u64(t);
            w.put_usize(h);
        }
        w.put_bool(self.current_limit.is_some());
        if let Some(l) = self.current_limit {
            w.put_usize(l);
        }
        w.put_usize(self.fault_pos);
        w.put_u64(self.faults_injected);
        w.put_len(self.heap.len());
        for &(t, kind, proc) in &self.heap {
            w.put_u64(t);
            w.put_u8(kind);
            w.put_u32(proc);
        }
        w.put_usize(self.remaining);
    }

    /// Reads the pending section into `self`, after the progress section.
    /// Rejects state the engine could not step from: an event naming a
    /// processor at or past `pos.len()`, or a `live_usage` other than the
    /// sum of the pending release heights (which the engine keeps equal).
    pub(crate) fn get_pending(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        self.live_usage = r.get_usize()?;
        self.releases = get_list(r, |r| Ok((r.get_u64()?, r.get_usize()?)))?;
        let released = self
            .releases
            .iter()
            .try_fold(0usize, |sum, &(_, h)| sum.checked_add(h));
        if released != Some(self.live_usage) {
            return Err(CodecError::Invalid(
                "live usage differs from the pending release heights",
            ));
        }
        self.current_limit = r.get_bool()?.then(|| r.get_usize()).transpose()?;
        self.fault_pos = r.get_usize()?;
        self.faults_injected = r.get_u64()?;
        let p = self.pos.len();
        self.heap = get_list(r, |r| {
            let t = r.get_u64()?;
            let kind = r.get_u8()?;
            if kind > 1 {
                return Err(CodecError::Invalid("unknown pending event kind"));
            }
            let proc = r.get_u32()?;
            if proc as usize >= p {
                return Err(CodecError::Invalid("pending event names no processor"));
            }
            Ok((t, kind, proc))
        })?;
        self.remaining = r.get_usize()?;
        Ok(())
    }
}

/// Reads `n` items with `item`.
pub(crate) fn get_n<'a, T>(
    r: &mut SnapReader<'a>,
    n: usize,
    mut item: impl FnMut(&mut SnapReader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Reads a length-prefixed list of items with `item`.
pub(crate) fn get_list<'a, T>(
    r: &mut SnapReader<'a>,
    item: impl FnMut(&mut SnapReader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.get_len()?;
    get_n(r, n, item)
}

/// Writes a timeline as a length-prefixed list of `(start, end, height)`.
pub(crate) fn put_intervals(w: &mut SnapWriter, tl: &[Interval]) {
    w.put_len(tl.len());
    for iv in tl {
        w.put_u64(iv.start);
        w.put_u64(iv.end);
        w.put_usize(iv.height);
    }
}

/// Reads a timeline written by [`put_intervals`].
pub(crate) fn get_intervals(r: &mut SnapReader<'_>) -> Result<Vec<Interval>, CodecError> {
    get_list(r, |r| {
        Ok(Interval {
            start: r.get_u64()?,
            end: r.get_u64()?,
            height: r.get_usize()?,
        })
    })
}

/// Writes peak-memory audit entries as a length-prefixed list of
/// `(time, delta)`.
pub(crate) fn put_audit(w: &mut SnapWriter, deltas: &[(Time, i64)]) {
    w.put_len(deltas.len());
    for &(t, d) in deltas {
        w.put_u64(t);
        w.put_i64(d);
    }
}

/// Reads audit entries written by [`put_audit`].
pub(crate) fn get_audit(r: &mut SnapReader<'_>) -> Result<Vec<(Time, i64)>, CodecError> {
    get_list(r, |r| Ok((r.get_u64()?, r.get_i64()?)))
}

/// The full dynamic state of an engine run at an event boundary.
///
/// Produced by `Engine::snapshot`, consumed by `Engine::restore`; see the
/// module docs for the wire format and the resume-equivalence contract.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Cursors, counters and pending events.
    pub run: RunState,
    /// [`workload_fingerprint`] of the sequences the run was started on.
    pub workload_digest: u64,
    /// Per-processor allocation timelines (empty unless recording).
    pub timelines: Vec<Vec<Interval>>,
    /// Height deltas for the peak-memory audit, in emission order.
    pub deltas: Vec<(Time, i64)>,
    /// Per-processor replacement-cache state, one `Checkpoint` blob each.
    pub cache_blobs: Vec<Vec<u8>>,
    /// The policy's `BoxAllocator::checkpoint` blob.
    pub policy_blob: Vec<u8>,
}

impl EngineSnapshot {
    /// Serializes into the framed wire format (magic + version + payload +
    /// FNV digest). Canonical: equal snapshots encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.run.ticks);
        w.put_u64(self.run.emitted);
        w.put_u64(self.workload_digest);
        self.run.put_progress(&mut w);
        w.put_len(self.timelines.len());
        for tl in &self.timelines {
            put_intervals(&mut w, tl);
        }
        put_audit(&mut w, &self.deltas);
        self.run.put_pending(&mut w);
        w.put_len(self.cache_blobs.len());
        for blob in &self.cache_blobs {
            w.put_bytes(blob);
        }
        w.put_bytes(&self.policy_blob);
        w.into_framed()
    }

    /// Parses a framed blob back into a snapshot, verifying the integrity
    /// digest first.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] on a corrupted, truncated, or structurally
    /// invalid blob, including run state the engine could not step from
    /// (see [`RunState`]'s pending section).
    pub fn decode(blob: &[u8]) -> Result<Self, SnapshotError> {
        let payload = decode_framed(blob)?;
        let r = &mut SnapReader::new(payload);
        let mut run = RunState {
            ticks: r.get_u64()?,
            emitted: r.get_u64()?,
            ..RunState::default()
        };
        let workload_digest = r.get_u64()?;
        run.get_progress(r)?;
        let p = run.pos.len();
        let n_tl = r.get_len()?;
        if n_tl != 0 && n_tl != p {
            return Err(SnapshotError::Shape("timeline count"));
        }
        let timelines = get_n(r, n_tl, get_intervals)?;
        let deltas = get_audit(r)?;
        run.get_pending(r)?;
        let n_caches = r.get_len()?;
        if n_caches != p {
            return Err(SnapshotError::Shape("cache blob count"));
        }
        let cache_blobs = get_n(r, n_caches, |r| Ok(r.get_bytes()?.to_vec()))?;
        let policy_blob = r.get_bytes()?.to_vec();
        Ok(EngineSnapshot {
            run,
            workload_digest,
            timelines,
            deltas,
            cache_blobs,
            policy_blob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            run: RunState {
                ticks: 42,
                emitted: 99,
                pos: vec![3, 7],
                completions: vec![0, 120],
                finished: vec![false, true],
                stats: CacheStats {
                    hits: 10,
                    misses: 4,
                },
                memory_integral: 1 << 70,
                grants_issued: 9,
                live_usage: 4,
                releases: vec![(40, 4)],
                current_limit: Some(16),
                fault_pos: 1,
                faults_injected: 1,
                heap: vec![(40, 1, 0)],
                remaining: 1,
            },
            workload_digest: 0xdead_beef,
            timelines: vec![
                vec![Interval {
                    start: 0,
                    end: 40,
                    height: 4,
                }],
                vec![],
            ],
            deltas: vec![(0, 4), (40, -4)],
            cache_blobs: vec![vec![1, 2, 3], vec![]],
            policy_blob: vec![9, 9],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let blob = snap.encode();
        let back = EngineSnapshot::decode(&blob).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn encoding_is_canonical() {
        let snap = sample();
        assert_eq!(snap.encode(), snap.clone().encode());
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let mut blob = sample().encode();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert!(matches!(
            EngineSnapshot::decode(&blob),
            Err(SnapshotError::Codec(CodecError::DigestMismatch { .. }))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let blob = sample().encode();
        assert!(EngineSnapshot::decode(&blob[..blob.len() - 3]).is_err());
        assert!(EngineSnapshot::decode(&[]).is_err());
    }

    #[test]
    fn workload_fingerprint_distinguishes_sequences() {
        let a = vec![vec![PageId(1), PageId(2)], vec![PageId(3)]];
        let b = vec![vec![PageId(1)], vec![PageId(2), PageId(3)]];
        let c = vec![vec![PageId(1), PageId(2)], vec![PageId(4)]];
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&b));
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&c));
        assert_eq!(workload_fingerprint(&a), workload_fingerprint(&a.clone()));
    }

    #[test]
    fn workload_ref_carries_the_fingerprint() {
        let seqs = vec![vec![PageId(1), PageId(2)], vec![], vec![PageId(3)]];
        let want = workload_fingerprint(&seqs);
        let hashed = WorkloadRef::from(&seqs);
        assert_eq!(hashed.fingerprint(), want);
        assert_eq!(hashed.seqs(), &seqs[..]);
        assert_eq!(WorkloadRef::from(&seqs[..]).fingerprint(), want);
        assert_eq!(
            WorkloadRef::with_fingerprint(&seqs, want).fingerprint(),
            want
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "handed-in workload fingerprint")]
    fn a_wrong_handed_in_fingerprint_fails_debug_builds() {
        let seqs = vec![vec![PageId(1)]];
        let _ = WorkloadRef::with_fingerprint(&seqs, workload_fingerprint(&seqs) ^ 1);
    }
}
