//! Closed-loop load over loopback: an in-process `serve`, one thread and
//! one [`Client`] connection per tenant, each sending its next `Batch`
//! only after the previous `BatchDone` arrived.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use parapage::cache::fnv1a64;
use parapage_server::{
    serve, Client, Frame, ServeOpts, ServerHandle, ServerStats, TenantConfig, TenantOpts,
    TenantSession,
};

use crate::spans::{Recorder, Span, LOOPBACK_BATCH, LOOPBACK_KILL};
use crate::stats::Tally;
use crate::workload::{Inputs, Workload, POOL};

/// How long tenants keep sending in one measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Stop sending after this instant ...
    pub deadline: Instant,
    /// ... once at least this many batches were acknowledged ...
    pub min_batches: usize,
    /// ... or at this instant regardless.
    pub hard_stop: Instant,
    /// Record a span around each client call.
    pub trace: bool,
}

/// What one tenant did in one phase.
pub struct PhaseOut {
    /// Tenant index.
    pub tenant: usize,
    /// Page requests acknowledged.
    pub requests: u64,
    /// Batch calls attempted and failed.
    pub tally: Tally,
    /// Spans around each client call (traced phases only).
    pub spans: Vec<Span>,
    /// When the tenant stopped sending.
    pub ended: Instant,
    /// This phase's round trips within [`TenantLog::latencies_ns`].
    pub latencies: Range<usize>,
}

/// Everything a tenant received, kept for the correctness check.
///
/// The per-batch records live in buffers sized and touched before the
/// run, so the benchmark's own bookkeeping adds nothing to the peak
/// resident set that depends on how many batches were served; a tenant
/// stops sending when they are full.
#[derive(Default)]
pub struct TenantLog {
    /// [`reply_key`] of the `BatchDone` of batch `b` at index `b`, warm-up
    /// batch included.
    pub keys: Vec<u64>,
    /// The first [`POOL`] replies in full.
    pub head: Vec<Frame>,
    /// Round trip of each acknowledged phase `Batch` call, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Sums over every `BatchDone`: hits, misses, grants.
    pub hits: u64,
    /// See [`TenantLog::hits`].
    pub misses: u64,
    /// See [`TenantLog::hits`].
    pub grants: u64,
    /// The warm-up batch, plus a failure for a `Goodbye` that went
    /// unacknowledged (phase batches are counted in [`PhaseOut`]).
    pub tally: Tally,
    cap: usize,
}

impl TenantLog {
    /// A log with room for `batches` replies, its buffers touched now.
    pub fn with_capacity(batches: usize) -> TenantLog {
        let touched = |n: usize| {
            let mut v = vec![u64::MAX; n];
            std::hint::black_box(&mut v);
            v.clear();
            v
        };
        TenantLog {
            keys: touched(batches),
            latencies_ns: touched(batches),
            cap: batches,
            ..TenantLog::default()
        }
    }

    fn full(&self) -> bool {
        self.keys.len() >= self.cap
    }

    fn push(&mut self, reply: Frame) {
        if let Frame::BatchDone {
            hits,
            misses,
            grants,
            ..
        } = reply
        {
            self.hits += hits;
            self.misses += misses;
            self.grants += grants;
        }
        self.keys.push(reply_key(&reply));
        if self.head.len() < POOL {
            self.head.push(reply);
        }
    }
}

/// A 64-bit digest of every field of a `BatchDone` (0 for other frames).
pub fn reply_key(frame: &Frame) -> u64 {
    let Frame::BatchDone {
        batch,
        makespan,
        hits,
        misses,
        grants,
        digest,
        chain,
    } = frame
    else {
        return 0;
    };
    let mut bytes = [0u8; 56];
    for (i, v) in [batch, makespan, hits, misses, grants, digest, chain]
        .into_iter()
        .enumerate()
    {
        bytes[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

enum Msg {
    Ready(bool),
    Phase(PhaseOut),
}

/// A served cluster: the server plus its admitted, warmed-up tenants.
pub struct Cluster {
    handle: ServerHandle,
    cmds: Vec<Sender<Option<Phase>>>,
    results: Receiver<Msg>,
    threads: Vec<JoinHandle<(TenantLog, Vec<Frame>)>>,
}

/// Serves on loopback and admits every tenant with one acknowledged
/// warm-up batch; returns the cluster and the seconds that took.
///
/// Moves the batch pools and `logs` (one per tenant) into the tenant
/// threads; [`Cluster::finish`] hands both back.
pub fn start(
    w: &Workload,
    inputs: &mut Inputs,
    logs: Vec<TenantLog>,
    epoch: Instant,
) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let handle = serve("127.0.0.1:0", ServeOpts::default()).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();
    let (tx, results) = channel();
    let mut cmds = Vec::new();
    let mut threads = Vec::new();
    for ((t, config), log) in inputs.configs.iter().enumerate().zip(logs) {
        let (cmd_tx, cmd_rx) = channel();
        cmds.push(cmd_tx);
        let pool = std::mem::take(&mut inputs.pools[t]);
        let (w, config, tx) = (*w, config.clone(), tx.clone());
        threads.push(std::thread::spawn(move || {
            tenant_main(t, addr, w, config, pool, log, tx, cmd_rx, epoch)
        }));
    }
    let cluster = Cluster {
        handle,
        cmds,
        results,
        threads,
    };
    let mut admitted = true;
    for _ in 0..cluster.threads.len() {
        match cluster.results.recv() {
            Ok(Msg::Ready(ok)) => admitted &= ok,
            _ => admitted = false,
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if !admitted {
        cluster.finish(inputs);
        return Err("a tenant failed admission or its warm-up batch".into());
    }
    Ok((cluster, setup_s))
}

impl Cluster {
    /// Runs one phase on every tenant; returns each tenant's outcome and
    /// the phase's wall seconds (start to the last tenant's stop).
    pub fn run(&self, phase: Phase) -> (Vec<PhaseOut>, f64) {
        let started = Instant::now();
        for c in &self.cmds {
            let _ = c.send(Some(phase));
        }
        let mut outs = Vec::new();
        for _ in 0..self.cmds.len() {
            if let Ok(Msg::Phase(out)) = self.results.recv() {
                outs.push(out);
            }
        }
        let ended = outs.iter().map(|o| o.ended).max().unwrap_or(started);
        (outs, (ended - started).as_secs_f64())
    }

    /// Closes every tenant with `Goodbye`, shuts the server down, and
    /// returns each tenant's log (in tenant order) with the server's
    /// final counters. Returns the batch pools to `inputs`.
    pub fn finish(self, inputs: &mut Inputs) -> (Vec<TenantLog>, ServerStats) {
        for c in &self.cmds {
            let _ = c.send(None);
        }
        let mut logs = Vec::new();
        for (t, h) in self.threads.into_iter().enumerate() {
            let (log, pool) = h.join().unwrap_or_else(|_| {
                let mut log = TenantLog::default();
                log.tally.record(false);
                (log, Vec::new())
            });
            inputs.pools[t] = pool;
            logs.push(log);
        }
        self.handle.shutdown();
        (logs, self.handle.join())
    }
}

#[allow(clippy::too_many_arguments)]
fn tenant_main(
    t: usize,
    addr: SocketAddr,
    w: Workload,
    config: TenantConfig,
    mut pool: Vec<Frame>,
    mut log: TenantLog,
    tx: Sender<Msg>,
    cmds: Receiver<Option<Phase>>,
    epoch: Instant,
) -> (TenantLog, Vec<Frame>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            log.tally.record(false);
            let _ = tx.send(Msg::Ready(false));
            return (log, pool);
        }
    };
    let mut ok = matches!(client.hello(config), Ok(Frame::HelloAck { .. }));
    if ok {
        ok = match send_batch(&mut client, &w, t, &mut pool, 0, None) {
            Ok((_, reply)) => {
                log.push(reply);
                true
            }
            Err(()) => false,
        };
    }
    log.tally.record(ok);
    let _ = tx.send(Msg::Ready(ok));
    let mut broken = !ok;
    while let Ok(Some(phase)) = cmds.recv() {
        let first = log.latencies_ns.len();
        let mut out = PhaseOut {
            tenant: t,
            requests: 0,
            tally: Tally::default(),
            spans: Vec::new(),
            ended: Instant::now(),
            latencies: first..first,
        };
        let mut rec = Recorder::new(epoch, (t as u64 + 1) << 48);
        while !broken && !log.full() {
            let now = Instant::now();
            if now >= phase.hard_stop
                || (now >= phase.deadline && log.latencies_ns.len() - first >= phase.min_batches)
            {
                break;
            }
            let batch = log.keys.len() as u64;
            let trace = phase.trace.then_some(&mut rec);
            match send_batch(&mut client, &w, t, &mut pool, batch, trace) {
                Ok((ns, reply)) => {
                    out.tally.record(true);
                    out.requests += w.requests_per_batch();
                    log.latencies_ns.push(ns);
                    log.push(reply);
                }
                Err(()) => {
                    out.tally.record(false);
                    broken = true;
                }
            }
        }
        out.ended = Instant::now();
        out.spans = rec.spans;
        out.latencies = first..log.latencies_ns.len();
        let _ = tx.send(Msg::Phase(out));
    }
    if !broken && !matches!(client.call(&Frame::Goodbye), Ok(Frame::GoodbyeAck)) {
        log.tally.record(false);
    }
    (log, pool)
}

/// Sends batch `batch` (preceded by a `Kill` when the workload kills it)
/// and returns the `Batch` call's round trip in nanoseconds with its
/// `BatchDone`. Any other reply, typed error, or transport error is a
/// failure.
fn send_batch(
    client: &mut Client,
    w: &Workload,
    t: usize,
    pool: &mut [Frame],
    batch: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<(u64, Frame), ()> {
    if w.killed(batch) {
        let kill = Frame::Kill {
            batch,
            at_tick: w.kill_tick,
        };
        let start = rec.as_ref().map(|r| r.now());
        let reply = client.call(&kill);
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), start) {
            let end = r.now();
            r.push(LOOPBACK_KILL, 0, t as u32, batch, s, end);
        }
        if !matches!(reply, Ok(Frame::KillAck { .. })) {
            return Err(());
        }
    }
    let n = pool.len();
    let frame = &mut pool[batch as usize % n];
    if let Frame::Batch { batch: b, .. } = frame {
        *b = batch;
    }
    let start = rec.as_ref().map(|r| r.now());
    let t0 = Instant::now();
    let reply = client.call(frame);
    let ns = t0.elapsed().as_nanos() as u64;
    if let (Some(r), Some(s)) = (rec, start) {
        let end = r.now();
        r.push(LOOPBACK_BATCH, 0, t as u32, batch, s, end);
    }
    match reply {
        Ok(done @ Frame::BatchDone { batch: b, .. }) if b == batch => Ok((ns, done)),
        _ => Err(()),
    }
}

/// The tenant options `serve` derives from [`ServeOpts::default`].
pub fn tenant_opts() -> TenantOpts {
    let o = ServeOpts::default();
    TenantOpts {
        epoch_ticks: o.epoch_ticks,
        max_retries: o.max_retries,
        request_budget: o.request_budget,
    }
}

/// Outcome of replaying one tenant's batches in process.
pub struct Verified {
    /// Loopback replies that differ from the in-process reference.
    pub mismatches: u64,
    /// The reference reply chain after the first `pin_after` batches
    /// (`None` if the tenant acknowledged fewer).
    pub pinned_chain: Option<u64>,
}

/// Replays every tenant's acknowledged batches through an in-process
/// [`TenantSession::run_batch`] with the same config, batch and kill, and
/// compares each reply with the loopback `BatchDone`. Tenants replay on
/// their own threads.
pub fn verify(
    w: &Workload,
    inputs: &Inputs,
    logs: &[TenantLog],
    pin_after: usize,
) -> Vec<Verified> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(t, log)| {
                scope.spawn(move || {
                    let mut session = TenantSession::new(inputs.configs[t].clone(), tenant_opts());
                    let mut v = Verified {
                        mismatches: 0,
                        pinned_chain: None,
                    };
                    for (b, &got) in log.keys.iter().enumerate() {
                        let b = b as u64;
                        if w.killed(b) {
                            session.queue_kill(b, w.kill_tick);
                        }
                        match session.run_batch(b, inputs.seqs(t, b)) {
                            Ok(want) if reply_key(&want) == got => {}
                            _ => v.mismatches += 1,
                        }
                        if b + 1 == pin_after as u64 {
                            v.pinned_chain = Some(session.chain());
                        }
                    }
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(Verified {
                    mismatches: u64::MAX,
                    pinned_chain: None,
                })
            })
            .collect()
    })
}
