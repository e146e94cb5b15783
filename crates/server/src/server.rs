//! The `parapage serve` daemon: a TCP accept loop handing each connection
//! to a session thread that speaks the [`crate::protocol`] frame stream.
//!
//! Sessions are keyed by tenant name: a `Hello` either admits a new tenant
//! (subject to the `max_tenants` cap) or re-attaches to an existing one
//! (the declared configuration must match — this is what a client does
//! after reconnecting, and what lets several connections feed one tenant).
//! Each tenant's engine work runs under the per-batch
//! [`Supervisor`](parapage::sched::Supervisor) in
//! [`crate::tenant`], so a tenant's crash — injected via `Kill` or genuine
//! — is absorbed inside its own session and never takes down the process
//! or perturbs any other tenant's replies.
//!
//! Three resilience mechanisms harden the daemon against a hostile
//! network (see the `chaos --net` matrix):
//!
//! * **Read deadlines.** Every session socket carries
//!   [`ServeOpts::read_timeout`]. A timeout *mid-frame* is a slow-loris
//!   or dead peer — the server answers with a typed
//!   `Error { TIMED_OUT }` and closes. A timeout at a frame *boundary*
//!   is mere idleness — the connection closes quietly and the tenant's
//!   idle clock starts ticking.
//! * **Idle-tenant expiry.** A reaper thread retires tenants with no
//!   attached connection for longer than [`ServeOpts::idle_ttl`] into a
//!   digest-protected checkpoint blob
//!   ([`TenantSession::checkpoint`]). A later `Hello` for that tenant
//!   *restores* the session — same reply chain, same batch cursor, same
//!   remaining budget — so expiry is invisible on the wire.
//! * **Load shedding.** Beyond [`ServeOpts::max_conns`] live
//!   connections, the accept loop answers with a typed
//!   [`Frame::Busy`] carrying a retry-after hint and closes, instead of
//!   queueing work it cannot serve. Clients back off and retry; nothing
//!   is silently dropped.
//!
//! Backpressure is the transport itself: the protocol is strictly
//! request/reply per connection and frames are bounded by
//! [`crate::protocol::MAX_FRAME`], so a slow reader throttles only its own
//! TCP window while the server holds at most one in-flight batch per
//! connection thread.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parapage::sched::WorkloadRef;

use crate::protocol::{
    c2s_chain_seed, error_code, s2c_chain_seed, Frame, ServerStats, TenantConfig, WireError,
    WireState, MAX_FRAME, MAX_SHARDS, MAX_TENANT_NAME, PROTO_VERSION,
};
use crate::tenant::{policy_known, TenantCounters, TenantOpts, TenantSession};

/// Server-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Admission control: tenants admitted concurrently.
    pub max_tenants: usize,
    /// Admission control: cumulative page-request budget per tenant.
    pub request_budget: u64,
    /// WAL checkpoint cadence of tenant engine runs (engine events per
    /// supervisor epoch).
    pub epoch_ticks: u64,
    /// Crash budget per tenant batch.
    pub max_retries: u32,
    /// Per-session socket read deadline. Mid-frame expiry is answered
    /// with a typed `TIMED_OUT` error; boundary expiry closes quietly.
    /// `None` blocks forever (the pre-chaos behavior).
    pub read_timeout: Option<Duration>,
    /// Retire tenants with no attached connection for this long into a
    /// checkpoint blob that a later `Hello` restores. `None` disables
    /// expiry.
    pub idle_ttl: Option<Duration>,
    /// Live-connection cap; beyond it new connections are shed with a
    /// typed [`Frame::Busy`].
    pub max_conns: usize,
    /// The retry-after hint carried by shed notices, in milliseconds.
    pub busy_retry_ms: u32,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            max_tenants: 64,
            request_budget: u64::MAX,
            epoch_ticks: 8,
            max_retries: 8,
            read_timeout: Some(Duration::from_secs(30)),
            idle_ttl: None,
            max_conns: 1024,
            busy_retry_ms: 25,
        }
    }
}

/// One live tenant plus its attachment bookkeeping for idle expiry.
struct TenantEntry {
    session: Arc<Mutex<TenantSession>>,
    /// Connections currently attached via `Hello`.
    attached: usize,
    /// When `attached` last dropped to zero (meaningful only then).
    idle_since: Instant,
}

/// An expired tenant: its checkpoint blob plus the counters it had earned,
/// so `Stats` stays truthful while the session is parked.
struct RetiredTenant {
    blob: Vec<u8>,
    counters: TenantCounters,
}

/// Shared server state.
struct ServerState {
    opts: ServeOpts,
    addr: SocketAddr,
    tenants: Mutex<HashMap<String, TenantEntry>>,
    /// Tenants retired by idle expiry, keyed by name; a `Hello` restores
    /// them into `tenants`.
    retired: Mutex<HashMap<String, RetiredTenant>>,
    /// Clones of every live connection's stream, keyed by connection id,
    /// so shutdown can unblock handlers parked in a read. A handler
    /// removes its own entry on exit (the clone would otherwise hold the
    /// socket open past the handler's lifetime and the table would grow
    /// for as long as the daemon lives). The `shutting_down` flag is set
    /// and checked under this same lock — that is what closes the
    /// register-after-shutdown race (a connection is either drained here
    /// or observes the flag and never registers).
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    live_conns: AtomicUsize,
    admitted: AtomicU64,
    next_session: AtomicU64,
    expiries: AtomicU64,
    shed: AtomicU64,
    shutting_down: AtomicBool,
}

impl ServerState {
    fn stats(&self) -> ServerStats {
        let tenants = self.tenants.lock().expect("tenant table poisoned");
        let mut s = ServerStats {
            tenants: self.admitted.load(Ordering::SeqCst),
            expiries: self.expiries.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            ..ServerStats::default()
        };
        let mut fold = |c: TenantCounters| {
            s.batches += c.batches;
            s.requests += c.requests;
            s.restarts += c.restarts;
            s.migrations += c.migrations;
            s.wal_records += c.wal_records;
            s.checkpoint_bytes += c.checkpoint_bytes;
        };
        for entry in tenants.values() {
            fold(
                entry
                    .session
                    .lock()
                    .expect("tenant session poisoned")
                    .counters(),
            );
        }
        drop(tenants);
        for retired in self
            .retired
            .lock()
            .expect("retired table poisoned")
            .values()
        {
            fold(retired.counters);
        }
        s
    }
}

/// A running server: its bound address and the accept thread.
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the OS-assigned port
    /// when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Current server-wide operational counters (what `Stats` returns on
    /// the wire).
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// Begins shutdown directly, without a wire round-trip.
    ///
    /// The wire `Shutdown` frame is admission-gated like any other
    /// connection, so a server at its connection cap sheds it with `Busy`;
    /// an in-process owner holding the handle can always shut down, which
    /// is what the chaos matrix and the load driver rely on.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state);
    }

    /// Blocks until the accept loop exits (a client sent `Shutdown` or the
    /// handle's owner called [`ServerHandle::shutdown`]) and every session
    /// thread has drained; returns the final counters.
    pub fn join(mut self) -> ServerStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        self.state.stats()
    }
}

/// Binds `addr` and starts the accept loop on its own thread.
///
/// # Errors
/// Any bind failure, verbatim.
pub fn serve(addr: impl ToSocketAddrs, opts: ServeOpts) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        opts,
        addr,
        tenants: Mutex::new(HashMap::new()),
        retired: Mutex::new(HashMap::new()),
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicU64::new(0),
        live_conns: AtomicUsize::new(0),
        admitted: AtomicU64::new(0),
        next_session: AtomicU64::new(1),
        expiries: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        shutting_down: AtomicBool::new(false),
    });
    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || accept_loop(listener, accept_state));
    let reaper = opts.idle_ttl.map(|ttl| {
        let reaper_state = Arc::clone(&state);
        std::thread::spawn(move || reaper_loop(reaper_state, ttl))
    });
    Ok(ServerHandle {
        state,
        accept: Some(accept),
        reaper,
    })
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Admission-level load shedding: beyond the connection cap the
        // peer gets a typed Busy with a retry hint, never a silent drop
        // or an unbounded queue.
        if state.live_conns.load(Ordering::SeqCst) >= state.opts.max_conns {
            state.shed.fetch_add(1, Ordering::SeqCst);
            let mut stream = stream;
            let mut tx = WireState::new(s2c_chain_seed());
            let _ = tx.write_frame(
                &mut stream,
                &Frame::Busy {
                    retry_after_ms: state.opts.busy_retry_ms,
                },
            );
            let _ = stream.shutdown(std::net::Shutdown::Both);
            continue;
        }
        // Register under the conns lock, where `shutting_down` is also
        // set: a racing shutdown either drains this clone or we observe
        // the flag here and close instead of spawning a stranded handler.
        let conn_id = state.next_conn.fetch_add(1, Ordering::SeqCst);
        {
            let mut conns = state.conns.lock().expect("conn table poisoned");
            if state.shutting_down.load(Ordering::SeqCst) {
                drop(conns);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                break;
            }
            if let Ok(clone) = stream.try_clone() {
                conns.insert(conn_id, clone);
            }
        }
        let _ = stream.set_read_timeout(state.opts.read_timeout);
        state.live_conns.fetch_add(1, Ordering::SeqCst);
        let conn_state = Arc::clone(&state);
        sessions.push(std::thread::spawn(move || {
            // A connection thread owns its stream; any transport or
            // protocol failure ends only this session.
            let _ = handle_connection(stream, &conn_state);
            // Drop the registered clone too, so the socket actually
            // closes (the peer sees EOF) and the table stays bounded.
            conn_state
                .conns
                .lock()
                .expect("conn table poisoned")
                .remove(&conn_id);
            conn_state.live_conns.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for h in sessions {
        let _ = h.join();
    }
}

/// Retires tenants that have had no attached connection for `ttl`,
/// checkpointing their session state so a later `Hello` restores rather
/// than restarts them.
fn reaper_loop(state: Arc<ServerState>, ttl: Duration) {
    let tick = (ttl / 4).clamp(Duration::from_millis(5), Duration::from_millis(50));
    while !state.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        let mut tenants = state.tenants.lock().expect("tenant table poisoned");
        let expired: Vec<String> = tenants
            .iter()
            .filter(|(_, e)| e.attached == 0 && e.idle_since.elapsed() >= ttl)
            .map(|(name, _)| name.clone())
            .collect();
        if expired.is_empty() {
            continue;
        }
        let mut retired = state.retired.lock().expect("retired table poisoned");
        for name in expired {
            let Some(entry) = tenants.remove(&name) else {
                continue;
            };
            let session = entry.session.lock().expect("tenant session poisoned");
            retired.insert(
                name,
                RetiredTenant {
                    blob: session.checkpoint(),
                    counters: session.counters(),
                },
            );
            state.expiries.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Wakes the blocking `accept` so the loop observes the shutdown flag, and
/// closes every live connection so handlers parked in a read drain too —
/// a shutdown must not wait on clients that never hang up. The flag is
/// raised under the `conns` lock so no connection can register after the
/// drain (the register-after-shutdown race).
fn begin_shutdown(state: &ServerState) {
    {
        let mut conns = state.conns.lock().expect("conn table poisoned");
        state.shutting_down.store(true, Ordering::SeqCst);
        for (_, conn) in conns.drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
    let _ = TcpStream::connect(state.addr);
}

/// Notes that a connection detached from `name` (hang-up or re-`Hello`),
/// starting the idle clock when the last attachment drops.
fn detach(state: &ServerState, name: &str) {
    let mut tenants = state.tenants.lock().expect("tenant table poisoned");
    if let Some(entry) = tenants.get_mut(name) {
        entry.attached = entry.attached.saturating_sub(1);
        if entry.attached == 0 {
            entry.idle_since = Instant::now();
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) -> Result<(), WireError> {
    let mut rx = WireState::new(c2s_chain_seed());
    let mut tx = WireState::new(s2c_chain_seed());
    // The tenant this connection attached to via Hello.
    let mut attached: Option<(String, Arc<Mutex<TenantSession>>)> = None;

    let result = connection_loop(&mut stream, state, &mut rx, &mut tx, &mut attached);
    if let Some((name, _)) = attached {
        detach(state, &name);
    }
    result
}

fn connection_loop(
    stream: &mut TcpStream,
    state: &Arc<ServerState>,
    rx: &mut WireState,
    tx: &mut WireState,
    attached: &mut Option<(String, Arc<Mutex<TenantSession>>)>,
) -> Result<(), WireError> {
    loop {
        let (frame, fingerprint) = match rx.read_frame_fingerprinted(stream) {
            Ok(read) => read,
            Err(WireError::Closed) => return Ok(()),
            Err(WireError::TimedOut { mid_frame }) => {
                if mid_frame {
                    // Slow-loris or dead peer: the deadline expired with a
                    // frame partially delivered. Answer with the typed
                    // reason, then close — the receive chain is broken.
                    let _ = tx.write_frame(
                        stream,
                        &Frame::Error {
                            code: error_code::TIMED_OUT,
                            message: "read deadline expired mid-frame".into(),
                        },
                    );
                    return Err(WireError::TimedOut { mid_frame });
                }
                // Idle at a frame boundary: close quietly; the tenant's
                // idle clock (and eventual expiry) takes it from here.
                return Ok(());
            }
            Err(WireError::Codec(e)) => {
                // Malformed input: report the typed reason, then close —
                // the receive chain is broken, nothing after it can
                // verify.
                let _ = tx.write_frame(
                    stream,
                    &Frame::Error {
                        code: error_code::BAD_FRAME,
                        message: format!("{e}"),
                    },
                );
                return Err(WireError::Codec(e));
            }
            Err(e) => return Err(e),
        };
        let reply = match frame {
            Frame::Hello { proto, config } => match admit(state, proto, config) {
                Ok(admitted) => {
                    // Re-Hello detaches from the previous tenant first so
                    // attachment counts stay exact.
                    if let Some((old, _)) = attached.take() {
                        detach(state, &old);
                    }
                    let ack = Frame::HelloAck {
                        session: admitted.id,
                        max_frame: MAX_FRAME as u64,
                        budget_left: admitted.budget_left,
                        next_batch: admitted.next_batch,
                        reply_chain: admitted.reply_chain,
                    };
                    *attached = Some((admitted.name, admitted.session));
                    ack
                }
                Err((code, message)) => Frame::Error { code, message },
            },
            Frame::Batch { batch, seqs } => match &*attached {
                None => no_session(),
                Some((_, tenant)) => {
                    // The reader hashed the batch while verifying its
                    // frame; the engine reuses that fingerprint.
                    let fingerprint = fingerprint.expect("a Batch frame is always fingerprinted");
                    let workload = WorkloadRef::with_fingerprint(&seqs, fingerprint);
                    let mut t = tenant.lock().expect("tenant session poisoned");
                    match t.run_batch(batch, workload) {
                        Ok(done) => done,
                        Err((code, message)) => Frame::Error { code, message },
                    }
                }
            },
            Frame::Replay { batch } => match &*attached {
                None => no_session(),
                Some((_, tenant)) => {
                    let t = tenant.lock().expect("tenant session poisoned");
                    match t.replay(batch) {
                        Ok(done) => done,
                        Err((code, message)) => Frame::Error { code, message },
                    }
                }
            },
            Frame::Migrate { batch, at_tick } => match &*attached {
                None => no_session(),
                Some((_, tenant)) => Frame::MigrateAck {
                    pending: tenant
                        .lock()
                        .expect("tenant session poisoned")
                        .queue_migration(batch, at_tick),
                },
            },
            Frame::Kill { batch, at_tick } => match &*attached {
                None => no_session(),
                Some((_, tenant)) => Frame::KillAck {
                    pending: tenant
                        .lock()
                        .expect("tenant session poisoned")
                        .queue_kill(batch, at_tick),
                },
            },
            Frame::Stats => Frame::StatsReply {
                stats: state.stats(),
            },
            Frame::Goodbye => {
                tx.write_frame(stream, &Frame::GoodbyeAck)?;
                return Ok(());
            }
            Frame::Shutdown => {
                tx.write_frame(stream, &Frame::ShutdownAck)?;
                begin_shutdown(state);
                return Ok(());
            }
            // Server-to-client frames arriving at the server are a state
            // violation, not a codec one: the bytes were well-formed.
            _ => Frame::Error {
                code: error_code::BAD_STATE,
                message: "unexpected frame direction".into(),
            },
        };
        tx.write_frame(stream, &reply)?;
    }
}

fn no_session() -> Frame {
    Frame::Error {
        code: error_code::BAD_STATE,
        message: "no session: send Hello first".into(),
    }
}

/// What a successful `Hello` yields: the session, its id, and the resume
/// coordinates the `HelloAck` carries.
struct Admitted {
    id: u64,
    name: String,
    session: Arc<Mutex<TenantSession>>,
    budget_left: u64,
    next_batch: u64,
    reply_chain: u64,
}

/// Validates a `Hello` and admits, re-attaches, or restores the tenant.
fn admit(state: &ServerState, proto: u16, config: TenantConfig) -> Result<Admitted, (u16, String)> {
    if proto != PROTO_VERSION {
        return Err((
            error_code::BAD_VERSION,
            format!("protocol {proto} not supported (server speaks {PROTO_VERSION})"),
        ));
    }
    if config.tenant.is_empty() || config.tenant.len() > MAX_TENANT_NAME {
        return Err((error_code::BAD_FRAME, "invalid tenant name".into()));
    }
    if !policy_known(&config.policy) {
        return Err((
            error_code::BAD_FRAME,
            format!("unknown or unservable policy `{}`", config.policy),
        ));
    }
    if config.p == 0 || config.k < config.p || config.s < 2 {
        return Err((
            error_code::BAD_FRAME,
            format!(
                "invalid model: p={} k={} s={} (need p>0, k>=p, s>=2)",
                config.p, config.k, config.s
            ),
        ));
    }
    if config.shards == 0 || config.shards > MAX_SHARDS {
        return Err((
            error_code::BAD_FRAME,
            format!("invalid shards={} (need 1..={MAX_SHARDS})", config.shards),
        ));
    }
    let mut tenants = state.tenants.lock().expect("tenant table poisoned");
    if let Some(entry) = tenants.get_mut(&config.tenant) {
        let session = Arc::clone(&entry.session);
        let guard = session.lock().expect("tenant session poisoned");
        if *guard.config() != config {
            return Err((
                error_code::CONFIG_MISMATCH,
                format!("tenant `{}` exists with a different config", config.tenant),
            ));
        }
        let admitted = Admitted {
            id: state.next_session.fetch_add(1, Ordering::SeqCst),
            name: config.tenant.clone(),
            session: Arc::clone(&session),
            budget_left: guard.budget_left(),
            next_batch: guard.next_batch(),
            reply_chain: guard.chain(),
        };
        drop(guard);
        entry.attached += 1;
        return Ok(admitted);
    }
    let opts = TenantOpts {
        epoch_ticks: state.opts.epoch_ticks,
        max_retries: state.opts.max_retries,
        request_budget: state.opts.request_budget,
    };
    // An idle-expired tenant restores from its checkpoint blob: the
    // session continues — same chain, same cursor, same budget — so
    // expiry is invisible to a re-attaching client.
    let restored = {
        let mut retired = state.retired.lock().expect("retired table poisoned");
        match retired.remove(&config.tenant) {
            Some(parked) => match TenantSession::restore(&parked.blob, opts) {
                Ok(session) => {
                    if *session.config() != config {
                        retired.insert(config.tenant.clone(), parked);
                        return Err((
                            error_code::CONFIG_MISMATCH,
                            format!(
                                "tenant `{}` checkpointed with a different config",
                                config.tenant
                            ),
                        ));
                    }
                    Some(session)
                }
                Err(e) => {
                    return Err((
                        error_code::BAD_STATE,
                        format!("tenant `{}` checkpoint unusable: {e}", config.tenant),
                    ));
                }
            },
            None => None,
        }
    };
    let is_restore = restored.is_some();
    if !is_restore && tenants.len() >= state.opts.max_tenants {
        return Err((
            error_code::TENANTS_FULL,
            format!("tenant table full ({} tenants)", state.opts.max_tenants),
        ));
    }
    let session = restored.unwrap_or_else(|| TenantSession::new(config.clone(), opts));
    let admitted = Admitted {
        id: state.next_session.fetch_add(1, Ordering::SeqCst),
        name: config.tenant.clone(),
        session: Arc::new(Mutex::new(session)),
        budget_left: 0,
        next_batch: 0,
        reply_chain: 0,
    };
    let (budget_left, next_batch, reply_chain) = {
        let guard = admitted.session.lock().expect("tenant session poisoned");
        (guard.budget_left(), guard.next_batch(), guard.chain())
    };
    let admitted = Admitted {
        budget_left,
        next_batch,
        reply_chain,
        ..admitted
    };
    tenants.insert(
        config.tenant,
        TenantEntry {
            session: Arc::clone(&admitted.session),
            attached: 1,
            idle_since: Instant::now(),
        },
    );
    if !is_restore {
        state.admitted.fetch_add(1, Ordering::SeqCst);
    }
    Ok(admitted)
}
