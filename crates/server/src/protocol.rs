//! The `parapage serve` wire protocol: length-prefixed, digest-chained
//! frames in the mould of the WAL record framing
//! (`parapage_cache::checkpoint::frame_wal_record`), with its own magic so
//! a wire capture can never be confused with a checkpoint log:
//!
//! ```text
//! WIRE_MAGIC(4) | seq u64 | payload_len u32 | payload … | digest u64
//! ```
//!
//! where `digest = fnv1a64_seeded(chain, seq ‖ payload_len ‖ payload)` and
//! `chain` is the previous frame's digest in the *same direction* (seeded
//! per direction from [`c2s_chain_seed`]/[`s2c_chain_seed`]). Sequence
//! numbers start at 0 per direction and must be contiguous, so a dropped,
//! reordered, replayed, or bit-flipped frame breaks the chain and surfaces
//! as a typed [`CodecError`] — never a panic.
//!
//! The payload is one tag byte followed by the [`Frame`] body in the
//! [`SnapWriter`] little-endian codec. Decoding is allocation-disciplined:
//! every declared length is validated against the bytes actually present
//! (and [`MAX_FRAME`]) *before* any buffer is reserved, so a hostile
//! length prefix cannot over-allocate.

use parapage::cache::{
    fnv1a64, fnv1a64_pair, fnv1a64_seeded, CodecError, PageId, SnapReader, SnapWriter,
    FNV_OFFSET_BASIS,
};

/// Leading magic of one wire frame (`b"ppwf"` — parallel paging wire
/// frame; distinct from the checkpoint log's `b"ppwr"`).
pub const WIRE_MAGIC: [u8; 4] = *b"ppwf";

/// Protocol version spoken by this crate; [`Frame::Hello`] carries it and
/// the server rejects a mismatch with a typed [`Frame::Error`].
///
/// Version 2 (the chaos-layer revision) extended [`Frame::HelloAck`] with
/// the re-attach resume coordinates (`next_batch`, `reply_chain`) and
/// added [`Frame::Busy`] (admission-level load shedding) and
/// [`Frame::Replay`] (re-delivery of the last acked `BatchDone`). A v1
/// `Hello` still *decodes* — version negotiation happens above the codec —
/// so an old client is turned away with a typed `BAD_VERSION` error, never
/// a silent drop.
pub const PROTO_VERSION: u16 = 2;

/// Bytes of a wire frame before the payload: magic, sequence, length.
pub const WIRE_HEADER: usize = 4 + 8 + 4;

/// Hard cap on a frame's declared payload length (4 MiB). Enforced before
/// any allocation on both ends; oversized declarations are rejected as
/// [`CodecError::Invalid`].
pub const MAX_FRAME: usize = 4 << 20;

/// Chain seed of the client→server frame stream.
pub fn c2s_chain_seed() -> u64 {
    fnv1a64(b"parapage-wire/1/c2s")
}

/// Chain seed of the server→client frame stream.
pub fn s2c_chain_seed() -> u64 {
    fnv1a64(b"parapage-wire/1/s2c")
}

/// Longest tenant name the server admits.
pub const MAX_TENANT_NAME: usize = 256;

/// Most cache shards per processor the server admits. Every batch builds
/// a `shards`-way sharded cache per processor, so an unbounded count
/// would let one `Hello` make the server allocate without limit.
pub const MAX_SHARDS: usize = 64;

/// Application error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Protocol version mismatch in `Hello`.
    pub const BAD_VERSION: u16 = 1;
    /// The tenant table is full (admission control).
    pub const TENANTS_FULL: u16 = 2;
    /// The tenant's cumulative request budget is exhausted.
    pub const BUDGET_EXHAUSTED: u16 = 3;
    /// A frame arrived out of session order (e.g. `Batch` before `Hello`,
    /// or a batch sequence gap).
    pub const BAD_STATE: u16 = 4;
    /// A malformed frame or payload (decoded as a typed codec error).
    pub const BAD_FRAME: u16 = 5;
    /// The tenant's engine failed terminally (typed engine/snapshot error
    /// or crash budget exhausted).
    pub const ENGINE_FAILED: u16 = 6;
    /// A `Hello` re-attached to an existing tenant with different
    /// parameters.
    pub const CONFIG_MISMATCH: u16 = 7;
    /// The peer stalled past the server's per-session read deadline
    /// mid-frame (slow-loris); the connection is closed after this error.
    pub const TIMED_OUT: u16 = 8;
}

/// Frame payload tags (first payload byte).
mod tag {
    pub const HELLO: u8 = 1;
    pub const HELLO_ACK: u8 = 2;
    pub const BATCH: u8 = 3;
    pub const BATCH_DONE: u8 = 4;
    pub const MIGRATE: u8 = 5;
    pub const MIGRATE_ACK: u8 = 6;
    pub const KILL: u8 = 7;
    pub const KILL_ACK: u8 = 8;
    pub const STATS: u8 = 9;
    pub const STATS_REPLY: u8 = 10;
    pub const GOODBYE: u8 = 11;
    pub const GOODBYE_ACK: u8 = 12;
    pub const SHUTDOWN: u8 = 13;
    pub const SHUTDOWN_ACK: u8 = 14;
    pub const ERROR: u8 = 15;
    pub const BUSY: u8 = 16;
    pub const REPLAY: u8 = 17;
}

/// Everything a [`Frame::Hello`] declares about the tenant's engine
/// configuration. The server builds each batch's policy and caches from
/// exactly these values, which is what makes replies deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant group name (session key; ≤ [`MAX_TENANT_NAME`] bytes).
    pub tenant: String,
    /// Processors in the tenant's engine.
    pub p: usize,
    /// Cache capacity `k`.
    pub k: usize,
    /// Miss penalty `s`.
    pub s: u64,
    /// Policy name (`det-par`, `rand-par`, `static`, `prop-miss`, `ucp`,
    /// `bb-green`).
    pub policy: String,
    /// Base RNG seed; batch `b` uses `seed ^ mix(b)`.
    pub seed: u64,
    /// Shard count of the tenant's [`parapage::cache::ShardedLru`]
    /// (1 ..= [`MAX_SHARDS`]).
    pub shards: usize,
}

/// Server-wide operational counters returned by [`Frame::StatsReply`].
/// These are *not* part of the deterministic per-tenant reply chain: crash
/// and migration counts depend on which kills were requested, so they ride
/// in a separate frame that equivalence tests deliberately exclude.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Tenant sessions ever admitted.
    pub tenants: u64,
    /// Batches served to completion.
    pub batches: u64,
    /// Page requests served across all batches.
    pub requests: u64,
    /// Tenant engine crashes survived (injected kills included).
    pub restarts: u64,
    /// Live migrations performed at epoch boundaries.
    pub migrations: u64,
    /// WAL delta records appended across all tenant runs.
    pub wal_records: u64,
    /// Checkpoint bytes written across all tenant runs.
    pub checkpoint_bytes: u64,
    /// Idle tenants retired to their checkpointed session state (a later
    /// re-attach restores them; see the server's idle-TTL).
    pub expiries: u64,
    /// Connections shed at admission with a typed [`Frame::Busy`].
    pub shed: u64,
}

/// One protocol message. Every variant round-trips through
/// [`Frame::encode_payload`]/[`Frame::decode_payload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open (or re-attach to) a tenant session.
    Hello {
        /// Protocol version (must equal [`PROTO_VERSION`]).
        proto: u16,
        /// The tenant's engine configuration.
        config: TenantConfig,
    },
    /// Server → client: session admitted.
    HelloAck {
        /// Server-assigned session id (diagnostic only).
        session: u64,
        /// The server's frame cap, so a client can fail fast locally.
        max_frame: u64,
        /// Requests this tenant may still submit before admission control
        /// rejects its batches.
        budget_left: u64,
        /// The batch sequence number the server expects next — the resume
        /// coordinate a re-attaching client compares against its own
        /// cursor to decide between re-sending and [`Frame::Replay`].
        next_batch: u64,
        /// The tenant's reply-chain digest after its last acked batch. A
        /// re-attaching client re-seeds its expected chain from this, so
        /// a replayed stream either lines up byte-identically or the
        /// mismatch surfaces as a typed divergence — never silently.
        reply_chain: u64,
    },
    /// Client → server: one batch of per-processor request sequences to
    /// run through the tenant's supervised engine.
    Batch {
        /// Monotone batch sequence number (0-based, contiguous).
        batch: u64,
        /// One request sequence per processor (`config.p` of them).
        seqs: Vec<Vec<PageId>>,
    },
    /// Server → client: the batch's deterministic outcome. Byte-identical
    /// across crashes, kills, and migrations of the serving engine.
    BatchDone {
        /// Echoed batch sequence number.
        batch: u64,
        /// Makespan of the batch run.
        makespan: u64,
        /// Aggregate cache hits.
        hits: u64,
        /// Aggregate cache misses.
        misses: u64,
        /// Grants issued by the policy.
        grants: u64,
        /// FNV-1a64 digest of the canonical [`parapage::sched::RunResult`]
        /// encoding.
        digest: u64,
        /// Running digest chained over every `BatchDone` of this tenant —
        /// the one-number summary equivalence tests compare.
        chain: u64,
    },
    /// Client → server: at the next epoch boundary at-or-after `at_tick`
    /// of batch `batch`, migrate the tenant onto a fresh engine via the
    /// supervisor's snapshot/restore path.
    Migrate {
        /// Batch the migration applies to.
        batch: u64,
        /// Engine tick threshold within that batch.
        at_tick: u64,
    },
    /// Server → client: migration request queued.
    MigrateAck {
        /// Requests now pending for this tenant.
        pending: u32,
    },
    /// Client → server: kill (panic) the tenant's engine at `at_tick` of
    /// batch `batch`. The supervisor absorbs the crash; the batch still
    /// completes with a byte-identical `BatchDone`.
    Kill {
        /// Batch the kill applies to.
        batch: u64,
        /// Engine tick at which the injected panic fires.
        at_tick: u64,
    },
    /// Server → client: kill request queued.
    KillAck {
        /// Requests now pending for this tenant.
        pending: u32,
    },
    /// Client → server: request the server-wide operational counters.
    Stats,
    /// Server → client: the counters.
    StatsReply {
        /// Aggregated server counters.
        stats: ServerStats,
    },
    /// Client → server: close this session cleanly.
    Goodbye,
    /// Server → client: session closed.
    GoodbyeAck,
    /// Client → server: stop accepting connections and shut down once
    /// active sessions drain.
    Shutdown,
    /// Server → client: shutdown initiated.
    ShutdownAck,
    /// Server → client: a typed application-level failure. The connection
    /// stays usable unless the transport itself broke.
    Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: admission-level load shedding. The server is at
    /// its connection cap; it answers with this frame *instead of* a
    /// silent drop, then closes. A well-behaved client backs off at least
    /// `retry_after_ms` before reconnecting.
    Busy {
        /// Suggested minimum back-off before the next attempt.
        retry_after_ms: u32,
    },
    /// Client → server: re-deliver the `BatchDone` of `batch`, which the
    /// server acked but the client never saw (the connection died while
    /// the reply was in flight). The server answers with the cached frame
    /// verbatim — same digest, same chain — or a typed `BAD_STATE` error
    /// if `batch` is not the tenant's most recently served batch.
    Replay {
        /// The batch whose reply went missing.
        batch: u64,
    },
}

impl Frame {
    /// Encodes the payload (tag byte + body) this frame ships inside a
    /// wire frame.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.write_payload(&mut w);
        w.into_bytes()
    }

    /// Appends the payload [`Frame::encode_payload`] returns to `w`, so a
    /// frame can be encoded straight into a reused buffer.
    pub fn write_payload(&self, w: &mut SnapWriter) {
        match self {
            Frame::Hello { proto, config } => {
                w.put_u8(tag::HELLO);
                w.put_u16(*proto);
                w.put_bytes(config.tenant.as_bytes());
                w.put_usize(config.p);
                w.put_usize(config.k);
                w.put_u64(config.s);
                w.put_bytes(config.policy.as_bytes());
                w.put_u64(config.seed);
                w.put_usize(config.shards);
            }
            Frame::HelloAck {
                session,
                max_frame,
                budget_left,
                next_batch,
                reply_chain,
            } => {
                w.put_u8(tag::HELLO_ACK);
                w.put_u64(*session);
                w.put_u64(*max_frame);
                w.put_u64(*budget_left);
                w.put_u64(*next_batch);
                w.put_u64(*reply_chain);
            }
            Frame::Batch { batch, seqs } => {
                w.put_u8(tag::BATCH);
                w.put_u64(*batch);
                w.put_len(seqs.len());
                for seq in seqs {
                    w.put_len(seq.len());
                    for &pg in seq {
                        w.put_page(pg);
                    }
                }
            }
            Frame::BatchDone {
                batch,
                makespan,
                hits,
                misses,
                grants,
                digest,
                chain,
            } => {
                w.put_u8(tag::BATCH_DONE);
                w.put_u64(*batch);
                w.put_u64(*makespan);
                w.put_u64(*hits);
                w.put_u64(*misses);
                w.put_u64(*grants);
                w.put_u64(*digest);
                w.put_u64(*chain);
            }
            Frame::Migrate { batch, at_tick } => {
                w.put_u8(tag::MIGRATE);
                w.put_u64(*batch);
                w.put_u64(*at_tick);
            }
            Frame::MigrateAck { pending } => {
                w.put_u8(tag::MIGRATE_ACK);
                w.put_u32(*pending);
            }
            Frame::Kill { batch, at_tick } => {
                w.put_u8(tag::KILL);
                w.put_u64(*batch);
                w.put_u64(*at_tick);
            }
            Frame::KillAck { pending } => {
                w.put_u8(tag::KILL_ACK);
                w.put_u32(*pending);
            }
            Frame::Stats => w.put_u8(tag::STATS),
            Frame::StatsReply { stats } => {
                w.put_u8(tag::STATS_REPLY);
                w.put_u64(stats.tenants);
                w.put_u64(stats.batches);
                w.put_u64(stats.requests);
                w.put_u64(stats.restarts);
                w.put_u64(stats.migrations);
                w.put_u64(stats.wal_records);
                w.put_u64(stats.checkpoint_bytes);
                w.put_u64(stats.expiries);
                w.put_u64(stats.shed);
            }
            Frame::Goodbye => w.put_u8(tag::GOODBYE),
            Frame::GoodbyeAck => w.put_u8(tag::GOODBYE_ACK),
            Frame::Shutdown => w.put_u8(tag::SHUTDOWN),
            Frame::ShutdownAck => w.put_u8(tag::SHUTDOWN_ACK),
            Frame::Error { code, message } => {
                w.put_u8(tag::ERROR);
                w.put_u16(*code);
                w.put_bytes(message.as_bytes());
            }
            Frame::Busy { retry_after_ms } => {
                w.put_u8(tag::BUSY);
                w.put_u32(*retry_after_ms);
            }
            Frame::Replay { batch } => {
                w.put_u8(tag::REPLAY);
                w.put_u64(*batch);
            }
        }
    }

    /// Decodes a payload produced by [`Frame::encode_payload`]. Rejects
    /// unknown tags, over-long names, non-UTF-8 strings, trailing garbage,
    /// and page lists whose declared element count exceeds the bytes
    /// present — all as typed [`CodecError`]s, never a panic, and never an
    /// allocation larger than the payload itself warrants.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, CodecError> {
        let mut r = SnapReader::new(payload);
        let t = r.get_u8()?;
        let frame = match t {
            tag::HELLO => {
                let proto = r.get_u16()?;
                let tenant = get_name(&mut r, MAX_TENANT_NAME)?;
                let p = r.get_usize()?;
                let k = r.get_usize()?;
                let s = r.get_u64()?;
                let policy = get_name(&mut r, 64)?;
                let seed = r.get_u64()?;
                let shards = r.get_usize()?;
                Frame::Hello {
                    proto,
                    config: TenantConfig {
                        tenant,
                        p,
                        k,
                        s,
                        policy,
                        seed,
                        shards,
                    },
                }
            }
            tag::HELLO_ACK => Frame::HelloAck {
                session: r.get_u64()?,
                max_frame: r.get_u64()?,
                budget_left: r.get_u64()?,
                next_batch: r.get_u64()?,
                reply_chain: r.get_u64()?,
            },
            tag::BATCH => {
                let batch = r.get_u64()?;
                let nseqs = r.get_len()?;
                let mut seqs = Vec::with_capacity(nseqs);
                for _ in 0..nseqs {
                    let n = r.get_len()?;
                    // get_len bounds n by the remaining *bytes*, but each
                    // page occupies 8 of them: tighten before reserving so
                    // a hostile length cannot inflate the allocation 8x.
                    if n > r.remaining() / 8 {
                        return Err(CodecError::Invalid(
                            "page list length exceeds remaining payload",
                        ));
                    }
                    let pages = r.take(n * 8)?;
                    seqs.push(
                        pages
                            .chunks_exact(8)
                            .map(|b| PageId(u64::from_le_bytes(b.try_into().unwrap())))
                            .collect(),
                    );
                }
                Frame::Batch { batch, seqs }
            }
            tag::BATCH_DONE => Frame::BatchDone {
                batch: r.get_u64()?,
                makespan: r.get_u64()?,
                hits: r.get_u64()?,
                misses: r.get_u64()?,
                grants: r.get_u64()?,
                digest: r.get_u64()?,
                chain: r.get_u64()?,
            },
            tag::MIGRATE => Frame::Migrate {
                batch: r.get_u64()?,
                at_tick: r.get_u64()?,
            },
            tag::MIGRATE_ACK => Frame::MigrateAck {
                pending: r.get_u32()?,
            },
            tag::KILL => Frame::Kill {
                batch: r.get_u64()?,
                at_tick: r.get_u64()?,
            },
            tag::KILL_ACK => Frame::KillAck {
                pending: r.get_u32()?,
            },
            tag::STATS => Frame::Stats,
            tag::STATS_REPLY => Frame::StatsReply {
                stats: ServerStats {
                    tenants: r.get_u64()?,
                    batches: r.get_u64()?,
                    requests: r.get_u64()?,
                    restarts: r.get_u64()?,
                    migrations: r.get_u64()?,
                    wal_records: r.get_u64()?,
                    checkpoint_bytes: r.get_u64()?,
                    expiries: r.get_u64()?,
                    shed: r.get_u64()?,
                },
            },
            tag::GOODBYE => Frame::Goodbye,
            tag::GOODBYE_ACK => Frame::GoodbyeAck,
            tag::SHUTDOWN => Frame::Shutdown,
            tag::SHUTDOWN_ACK => Frame::ShutdownAck,
            tag::ERROR => Frame::Error {
                code: r.get_u16()?,
                message: get_name(&mut r, MAX_FRAME)?,
            },
            tag::BUSY => Frame::Busy {
                retry_after_ms: r.get_u32()?,
            },
            tag::REPLAY => Frame::Replay {
                batch: r.get_u64()?,
            },
            _ => return Err(CodecError::Invalid("unknown frame tag")),
        };
        if !r.is_exhausted() {
            return Err(CodecError::Invalid("trailing bytes after frame payload"));
        }
        Ok(frame)
    }
}

/// Reads a length-prefixed UTF-8 string, bounding its length *before* any
/// copy.
fn get_name(r: &mut SnapReader<'_>, max: usize) -> Result<String, CodecError> {
    let bytes = r.get_bytes()?;
    if bytes.len() > max {
        return Err(CodecError::Invalid("string field too long"));
    }
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("string field not UTF-8"))
}

/// Frames `payload` as one wire frame and returns `(bytes, digest)`, the
/// digest being the chain seed for the direction's next frame.
pub fn frame_wire(seq: u64, chain: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    debug_assert!(payload.len() <= MAX_FRAME, "oversized outgoing frame");
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32");
    let mut out = Vec::with_capacity(WIRE_HEADER + payload.len() + 8);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    let digest = fnv1a64_seeded(chain, &out[4..]);
    out.extend_from_slice(&digest.to_le_bytes());
    (out, digest)
}

/// One decoded wire frame: the payload slice, the chained digest (= next
/// chain seed), and the framed bytes consumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFrame<'a> {
    /// Sequence number carried in the header.
    pub seq: u64,
    /// The payload bytes (tag + body).
    pub payload: &'a [u8],
    /// Chained digest of this frame.
    pub digest: u64,
    /// Total framed length consumed from the buffer.
    pub consumed: usize,
}

/// Parses one wire frame off the front of `buf`, verifying magic, the
/// expected sequence number, the length cap, and the chained digest.
///
/// Never panics and never allocates: every malformed shape — truncation,
/// wrong magic, a sequence gap or replay, an oversized declared length, a
/// flipped byte — maps onto a typed [`CodecError`]. The length cap is
/// checked *before* the length is trusted for anything, so a hostile
/// 4 GiB declaration is rejected without reserving a byte.
pub fn parse_wire(buf: &[u8], chain: u64, expect_seq: u64) -> Result<WireFrame<'_>, CodecError> {
    verify_wire(buf, chain, expect_seq).map(|(frame, _)| frame)
}

/// Bytes the frame digest covers before a `Batch` frame's body: sequence,
/// payload length, tag, batch number.
const BATCH_HEAD: usize = 8 + 4 + 1 + 8;

/// [`parse_wire`], which also returns the workload fingerprint of a
/// `Batch` frame's sequences.
///
/// The bytes of a `Batch` payload after `tag | batch` are exactly the
/// stream [`parapage::sched::workload_fingerprint`] hashes: `nseqs u64`,
/// then per sequence `len u64` and its pages as `u64`. So after the frame
/// chain has covered the header, a second FNV-1a chain starts from the
/// offset basis and both run over the body in one loop, for about the
/// cost of one hash. The fingerprint is `Some` for every payload whose tag
/// byte is `Batch`; it describes the sequences only once the payload also
/// decodes as a `Batch`.
fn verify_wire(
    buf: &[u8],
    chain: u64,
    expect_seq: u64,
) -> Result<(WireFrame<'_>, Option<u64>), CodecError> {
    if buf.len() < WIRE_HEADER {
        return Err(CodecError::UnexpectedEof);
    }
    if buf[..4] != WIRE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let seq = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Invalid("frame length exceeds MAX_FRAME"));
    }
    if seq != expect_seq {
        return Err(CodecError::Invalid("frame sequence break"));
    }
    let total = WIRE_HEADER + len + 8;
    if buf.len() < total {
        return Err(CodecError::UnexpectedEof);
    }
    let payload = &buf[WIRE_HEADER..WIRE_HEADER + len];
    let covered = &buf[4..total - 8];
    let (computed, fingerprint) = if len >= 9 && payload[0] == tag::BATCH {
        let (head, body) = covered.split_at(BATCH_HEAD);
        let (wire, fingerprint) =
            fnv1a64_pair((fnv1a64_seeded(chain, head), FNV_OFFSET_BASIS), body);
        (wire, Some(fingerprint))
    } else {
        (fnv1a64_seeded(chain, covered), None)
    };
    let stored = u64::from_le_bytes(buf[total - 8..total].try_into().unwrap());
    if computed != stored {
        return Err(CodecError::DigestMismatch { computed, stored });
    }
    let frame = WireFrame {
        seq,
        payload,
        digest: computed,
        consumed: total,
    };
    Ok((frame, fingerprint))
}

/// Why a framed read or write over a transport failed.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed mid-frame.
    Io(std::io::Error),
    /// The bytes arrived but do not form a valid next frame (truncation,
    /// bad magic, sequence break, oversized length, digest mismatch, or a
    /// malformed payload).
    Codec(CodecError),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A configured read deadline expired. `mid_frame` distinguishes a
    /// peer that stalled with a frame partly delivered (slow-loris — the
    /// server answers with a typed `TIMED_OUT` error and closes) from one
    /// that is merely idle between frames (closed quietly; a resilient
    /// client re-attaches on its next request).
    TimedOut {
        /// Whether bytes of the next frame had already arrived.
        mid_frame: bool,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Codec(e) => write!(f, "protocol error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::TimedOut { mid_frame: true } => write!(f, "read deadline expired mid-frame"),
            WireError::TimedOut { mid_frame: false } => {
                write!(f, "read deadline expired at a frame boundary")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// One direction of a framed stream: the next expected sequence number,
/// the running digest chain, and the frame buffer the direction reuses.
///
/// A direction only ever writes or only ever reads, so one of the two
/// buffers stays empty. The read buffer grows to the largest frame read
/// (at most [`WIRE_HEADER`] + [`MAX_FRAME`] + 8 bytes) and the write
/// buffer to the largest frame written; both are freed with the state.
pub struct WireState {
    seq: u64,
    chain: u64,
    out: SnapWriter,
    inbuf: Vec<u8>,
}

impl std::fmt::Debug for WireState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireState")
            .field("seq", &self.seq)
            .field("chain", &self.chain)
            .field("buffer_capacity", &self.buffer_capacity())
            .finish()
    }
}

impl WireState {
    /// A fresh direction state from its chain seed.
    pub fn new(chain_seed: u64) -> Self {
        WireState {
            seq: 0,
            chain: chain_seed,
            out: SnapWriter::new(),
            inbuf: Vec::new(),
        }
    }

    /// Bytes this direction keeps allocated between frames.
    pub fn buffer_capacity(&self) -> usize {
        self.out.capacity() + self.inbuf.capacity()
    }

    /// Frames and writes one message, advancing the chain.
    ///
    /// The frame is encoded in place into the reused write buffer: the
    /// header with a placeholder length, the payload, then the length
    /// backpatched and the digest computed over the bytes where they lie.
    /// The result is byte-identical to [`frame_wire`] of
    /// [`Frame::encode_payload`].
    pub fn write_frame(
        &mut self,
        w: &mut impl std::io::Write,
        frame: &Frame,
    ) -> Result<(), WireError> {
        let out = &mut self.out;
        out.clear();
        let mark = out.begin_record(WIRE_MAGIC, self.seq);
        frame.write_payload(out);
        if out.len() - WIRE_HEADER > MAX_FRAME {
            // Keep no oversized buffer for the rest of the connection.
            self.out = SnapWriter::new();
            return Err(WireError::Codec(CodecError::Invalid(
                "frame length exceeds MAX_FRAME",
            )));
        }
        let digest = out.end_record(mark, self.chain);
        w.write_all(out.bytes())?;
        w.flush()?;
        self.seq += 1;
        self.chain = digest;
        Ok(())
    }

    /// Reads, verifies, and decodes the next frame, advancing the chain.
    ///
    /// The declared payload length is validated against [`MAX_FRAME`]
    /// *before* the read buffer grows, so a hostile header cannot force an
    /// over-allocation; a clean EOF before the first header byte is
    /// [`WireError::Closed`].
    pub fn read_frame(&mut self, r: &mut impl std::io::Read) -> Result<Frame, WireError> {
        self.read_frame_fingerprinted(r).map(|(frame, _)| frame)
    }

    /// [`WireState::read_frame`], which also returns the
    /// [`parapage::sched::workload_fingerprint`] of a `Batch` frame's
    /// sequences (`None` for every other frame). The fingerprint comes
    /// from the same pass over the bytes that verifies the frame digest,
    /// so a server can hand it to the engine instead of hashing the batch
    /// a second time.
    ///
    /// Errors take the same precedence as [`parse_wire`] followed by
    /// [`Frame::decode_payload`], with the length cap checked as soon as
    /// the header has arrived.
    pub fn read_frame_fingerprinted(
        &mut self,
        r: &mut impl std::io::Read,
    ) -> Result<(Frame, Option<u64>), WireError> {
        let buf = &mut self.inbuf;
        if buf.len() < WIRE_HEADER {
            buf.resize(WIRE_HEADER, 0);
        }
        read_exact_or_closed(r, &mut buf[..WIRE_HEADER], false)?;
        let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Codec(CodecError::Invalid(
                "frame length exceeds MAX_FRAME",
            )));
        }
        let total = WIRE_HEADER + len + 8;
        // Grow only to the largest frame read so far. A shorter frame
        // reuses the front of the buffer; the bytes past `total` are left
        // from an earlier frame and are never looked at.
        if buf.len() < total {
            buf.reserve_exact(total - buf.len());
            buf.resize(total, 0);
        }
        read_exact_or_closed(r, &mut buf[WIRE_HEADER..total], true)?;
        let (wf, fingerprint) = verify_wire(&buf[..total], self.chain, self.seq)?;
        let frame = Frame::decode_payload(wf.payload)?;
        self.seq += 1;
        self.chain = wf.digest;
        Ok((frame, fingerprint))
    }
}

/// `read_exact`, except a clean EOF before the first byte is
/// [`WireError::Closed`] instead of an I/O error, and an expired read
/// deadline (`WouldBlock`/`TimedOut` from a socket with a read timeout) is
/// the typed [`WireError::TimedOut`] — `mid_frame` once any byte of the
/// frame (`started`, or a previous chunk of it) has been seen.
fn read_exact_or_closed(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    started: bool,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && !started => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Codec(CodecError::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(WireError::TimedOut {
                    mid_frame: started || filled > 0,
                })
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}
