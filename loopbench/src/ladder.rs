//! The in-process ladder: the same batches replayed on one thread through
//! each layer's public entry point, lowest rung first, with a span around
//! every call. A layer's self time is its rung minus the rung below.
//!
//! | rung | entry point |
//! |---|---|
//! | `cache` | `ShardedLru::access_shared` over each processor's sequence at capacity `k/p` |
//! | `core` | `cache` + `DetPar::new` / `RandPar::new` |
//! | `sched.engine` | policy build + `run_engine_sharded` |
//! | `sched.supervisor` | `Supervisor::run_controlled` with a `MemStore` (WAL checkpoints, kill recovery) |
//! | `server.tenant` | `TenantSession::run_batch` |
//! | `server.protocol` | `server.tenant` + `encode_payload`/`frame_wire`/`parse_wire`/`decode_payload`, both directions |
//! | `server.loopback` | the traced loopback round trip (`Client::call` over TCP to `serve`) |

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parapage::cache::{Access, ShardedLru};
use parapage::core::{BoxAllocator, DetPar, ModelParams, RandPar};
use parapage::sched::{
    run_engine_sharded, CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink,
    RunResult, Supervisor, SupervisorOpts,
};
use parapage_server::protocol::{c2s_chain_seed, frame_wire, parse_wire, s2c_chain_seed};
use parapage_server::{Frame, TenantConfig, TenantSession};

use crate::load::tenant_opts;
use crate::spans::{self, Recorder, Span};
use crate::stats::{half_iqr, mean, median, self_time};
use crate::workload::{Inputs, Workload, POOL};

/// Deterministic per-batch counts gathered on the first pass.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Accesses the `cache` rung replays per batch.
    pub accesses: f64,
    /// Engine ticks per batch.
    pub ticks: f64,
    /// Supervisor epochs per batch.
    pub epochs: f64,
    /// WAL delta records per batch.
    pub wal_records: f64,
    /// Checkpoint bytes per batch.
    pub checkpoint_bytes: f64,
    /// Crashes absorbed per batch.
    pub crashes: f64,
    /// Crashes resumed from a checkpoint per batch.
    pub resumes: f64,
    /// Client-to-server wire bytes per batch.
    pub c2s_bytes: f64,
    /// Server-to-client wire bytes per batch.
    pub s2c_bytes: f64,
    /// Ladder passes made.
    pub passes: usize,
    /// Rung results that disagree with the loopback `BatchDone` (or a
    /// codec round trip that does not reproduce its frame).
    pub mismatches: u64,
}

/// Mirrors the server's per-batch seed mix so the ladder's policies are
/// built exactly as `TenantSession::run_batch` builds them.
fn batch_seed(seed: u64, batch: u64) -> u64 {
    seed ^ (batch.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn make_policy(policy: &str, params: &ModelParams, seed: u64) -> Box<dyn BoxAllocator> {
    match policy {
        "det-par" => Box::new(DetPar::new(params)),
        "rand-par" => Box::new(RandPar::new(params, seed)),
        other => unreachable!("workloads use det-par or rand-par, not {other}"),
    }
}

/// The supervisor options `TenantSession::run_batch` uses.
fn supervisor_opts() -> SupervisorOpts {
    let t = tenant_opts();
    SupervisorOpts {
        epoch_ticks: t.epoch_ticks,
        max_retries: t.max_retries,
        backoff_base: Duration::ZERO,
        silence_panics: true,
        ..SupervisorOpts::default()
    }
}

/// Makespan, hits, misses and grants of a run: what a `BatchDone` echoes.
type Outcome = (u64, u64, u64, u64);

fn outcome(r: &RunResult) -> Outcome {
    (r.makespan, r.stats.hits, r.stats.misses, r.grants_issued)
}

/// What the first pass produced for one batch, checked against the
/// loopback reply once the cluster has shut down.
struct FirstPass {
    engine: Option<Outcome>,
    supervisor: Option<Outcome>,
    reply: Option<Frame>,
    codec_ok: bool,
}

/// Tenant 0's first [`POOL`] batches, replayed up the ladder one pass at a
/// time.
pub struct Ladder {
    w: Workload,
    config: TenantConfig,
    params: ModelParams,
    sup: Supervisor,
    frames: Vec<Frame>,
    first: Vec<FirstPass>,
    counts: Counts,
}

impl Ladder {
    /// A ladder over a copy of tenant 0's inputs.
    pub fn new(w: &Workload, inputs: &Inputs) -> Ladder {
        Ladder {
            w: *w,
            config: inputs.configs[0].clone(),
            params: ModelParams::new(w.p, w.k, w.s),
            sup: Supervisor::new(supervisor_opts()),
            frames: (0..POOL as u64)
                .map(|b| Frame::Batch {
                    batch: b,
                    seqs: inputs.seqs(0, b).to_vec(),
                })
                .collect(),
            first: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Runs passes until `budget` has passed (at least one pass).
    pub fn run_for(&mut self, budget: Duration, rec: &mut Recorder) {
        let started = Instant::now();
        loop {
            self.pass(rec);
            if started.elapsed() >= budget {
                break;
            }
        }
    }

    /// One pass: every batch through every rung, with a span per rung
    /// call under one pass span.
    pub fn pass(&mut self, rec: &mut Recorder) {
        let (w, params) = (&self.w, &self.params);
        let engine_opts = EngineOpts::default();
        let config = &self.config;
        let first = self.counts.passes == 0;
        let c = &mut self.counts;
        let pass = rec.open();
        let pass_start = rec.now();
        let mut session = TenantSession::new(config.clone(), tenant_opts());
        let mut warm_session = TenantSession::new(config.clone(), tenant_opts());
        for (b, frame) in self.frames.iter().enumerate() {
            let b = b as u64;
            let Frame::Batch { seqs, .. } = frame else {
                unreachable!("the ladder holds only Batch frames")
            };
            let seed = batch_seed(config.seed, b);

            let hits = warm_time(rec, spans::CACHE, pass, b, || {
                let mut hits = 0u64;
                for seq in seqs {
                    let cache = ShardedLru::with_shards(w.k / w.p, w.shards);
                    for &page in seq {
                        hits += u64::from(cache.access_shared(page) == Access::Hit);
                    }
                }
                hits
            });
            std::hint::black_box(hits);

            let policy = warm_time(rec, spans::CORE, pass, b, || {
                make_policy(&config.policy, params, seed)
            });
            drop(std::hint::black_box(policy));

            let engine = warm_time(rec, spans::ENGINE, pass, b, || {
                let mut policy = make_policy(&config.policy, params, seed);
                run_engine_sharded(&mut *policy, seqs, params, &engine_opts, w.shards)
            });

            let crashes = CrashPlan::at_ticks(if w.killed(b) {
                vec![w.kill_tick]
            } else {
                Vec::new()
            });
            let supervised = warm_time(rec, spans::SUPERVISOR, pass, b, || {
                self.sup.run_controlled(
                    seqs,
                    params,
                    &engine_opts,
                    &FaultPlan::none(),
                    &crashes,
                    || make_policy(&config.policy, params, seed),
                    |_| ShardedLru::with_shards(0, w.shards),
                    &mut NullSink,
                    &mut MemStore::new(),
                    |_| EpochControl::Continue,
                )
            });

            if w.killed(b) {
                session.queue_kill(b, w.kill_tick);
                warm_session.queue_kill(b, w.kill_tick);
            }
            let _ = std::hint::black_box(warm_session.run_batch(b, seqs));
            let done = rec.time(spans::TENANT, pass, 0, b, || session.run_batch(b, seqs));

            let (c2s, s2c) = codec(rec, pass, b, frame, done.as_ref().ok());

            if first {
                c.accesses += seqs.iter().map(|s| s.len() as f64).sum::<f64>();
                if let Ok(r) = &supervised {
                    c.ticks += r.ticks as f64;
                    c.epochs += r.epochs as f64;
                    c.wal_records += r.wal_records as f64;
                    c.checkpoint_bytes += r.checkpoint_bytes as f64;
                    c.crashes += f64::from(r.crashes);
                    c.resumes += f64::from(r.resumes);
                }
                c.c2s_bytes += c2s.unwrap_or(0) as f64;
                c.s2c_bytes += s2c.unwrap_or(0) as f64;
                self.first.push(FirstPass {
                    engine: engine.as_ref().ok().map(outcome),
                    supervisor: supervised.as_ref().ok().map(|r| outcome(&r.result)),
                    reply: done.ok(),
                    codec_ok: c2s.is_some() && s2c.is_some(),
                });
            }
        }
        let end = rec.now();
        rec.close(pass, spans::LADDER_PASS, 0, 0, u64::MAX, pass_start, end);
        c.passes += 1;
    }

    /// Per-batch counts, with every first-pass result checked against
    /// `replies`, tenant 0's loopback replies: the engine and supervisor
    /// outcomes must match the `BatchDone`, the tenant reply must equal
    /// it.
    pub fn finish(self, replies: &[Frame]) -> Counts {
        let mut c = self.counts;
        for (f, reply) in self.first.iter().zip(replies) {
            let Frame::BatchDone {
                makespan,
                hits,
                misses,
                grants,
                ..
            } = reply
            else {
                c.mismatches += 1;
                continue;
            };
            let want = Some((*makespan, *hits, *misses, *grants));
            if f.engine != want
                || f.supervisor != want
                || f.reply.as_ref() != Some(reply)
                || !f.codec_ok
            {
                c.mismatches += 1;
            }
        }
        if replies.len() < self.first.len() {
            c.mismatches += 1;
        }
        let n = POOL as f64;
        for v in [
            &mut c.accesses,
            &mut c.ticks,
            &mut c.epochs,
            &mut c.wal_records,
            &mut c.checkpoint_bytes,
            &mut c.crashes,
            &mut c.resumes,
            &mut c.c2s_bytes,
            &mut c.s2c_bytes,
        ] {
            *v /= n;
        }
        c
    }
}

/// Times the second of two back-to-back calls of `f`, so every rung is
/// measured with its allocations and working set as warm as the server's
/// steady state.
fn warm_time<T>(rec: &mut Recorder, name: &str, pass: u64, b: u64, mut f: impl FnMut() -> T) -> T {
    std::hint::black_box(f());
    rec.time(name, pass, 0, b, f)
}

/// Times the wire codec for one batch in both directions: the `Batch`
/// frame client-to-server and its `BatchDone` server-to-client. Returns
/// each direction's wire bytes, or `None` where the decoded frame differs
/// from the one encoded.
fn codec(
    rec: &mut Recorder,
    pass: u64,
    b: u64,
    batch: &Frame,
    done: Option<&Frame>,
) -> (Option<usize>, Option<usize>) {
    let (c2s, s2c) = (c2s_chain_seed(), s2c_chain_seed());
    let wires = warm_time(rec, spans::ENCODE, pass, b, || {
        let up = frame_wire(b, c2s, &batch.encode_payload()).0;
        let down = done.map(|d| frame_wire(b, s2c, &d.encode_payload()).0);
        (up, down)
    });
    let decoded = warm_time(rec, spans::DECODE, pass, b, || {
        let up = parse_wire(&wires.0, c2s, b).and_then(|f| Frame::decode_payload(f.payload));
        let down = wires
            .1
            .as_ref()
            .map(|wire| parse_wire(wire, s2c, b).and_then(|f| Frame::decode_payload(f.payload)));
        (up, down)
    });
    let up = matches!(&decoded.0, Ok(f) if f == batch).then_some(wires.0.len());
    let down = match (&decoded.1, done, &wires.1) {
        (Some(Ok(f)), Some(d), Some(wire)) if f == d => Some(wire.len()),
        _ => None,
    };
    (up, down)
}

/// Per-layer times computed from a span dump, in microseconds per batch
/// unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `cache` rung per batch.
    pub cache_us: f64,
    /// Policy construction per batch.
    pub policy_build_us: f64,
    /// `sched.engine` self time.
    pub engine_self_us: f64,
    /// `sched.supervisor` self time on clean batches.
    pub supervisor_self_us: f64,
    /// `sched.supervisor` self time on killed batches (`0` when none).
    pub supervisor_kill_self_us: f64,
    /// `server.tenant` self time.
    pub tenant_self_us: f64,
    /// Codec encode time, both directions.
    pub encode_us: f64,
    /// Codec decode time, both directions.
    pub decode_us: f64,
    /// Tenant 0's loopback round trip per batch, its `Kill` call included.
    pub round_trip_us: f64,
    /// `server.loopback` self time.
    pub loopback_self_us: f64,
    /// Rungs measured faster than the rung below them by more than the
    /// two rungs move from pass to pass.
    pub inversions: u64,
}

/// Computes per-layer times from spans: for each rung and pool batch the
/// median over passes (over tenant 0's loopback round trips for the top
/// rung), then rung means over the batches, then rung differences.
pub fn layers(w: &Workload, spans: &[Span]) -> Layers {
    let mut per: HashMap<(&str, u64), Vec<f64>> = HashMap::new();
    // Each rung's mean per batch within each pass (keyed by pass span id).
    let mut per_pass: HashMap<&str, HashMap<u64, f64>> = HashMap::new();
    // Tenant 0's round trip per batch, its `Kill` call included.
    let mut loopback: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        let us = s.dur_ns() as f64 / 1e3;
        match s.name.as_str() {
            spans::LOOPBACK_BATCH | spans::LOOPBACK_KILL => {
                if s.tenant == 0 {
                    *loopback.entry(s.batch).or_default() += us;
                }
            }
            spans::LADDER_PASS => {}
            name => {
                per.entry((name, s.batch)).or_default().push(us);
                *per_pass
                    .entry(name)
                    .or_default()
                    .entry(s.parent)
                    .or_default() += us / POOL as f64;
            }
        }
    }
    let rung = |name: &str, b: u64| per.get(&(name, b)).map_or(0.0, |v| median(v));
    let batches: Vec<u64> = (0..POOL as u64).collect();
    let over = |f: &dyn Fn(u64) -> f64, pick: &dyn Fn(u64) -> bool| {
        mean(
            &batches
                .iter()
                .filter(|&&b| pick(b))
                .map(|&b| f(b))
                .collect::<Vec<_>>(),
        )
    };
    let all = |_: u64| true;
    let cache = over(&|b| rung(spans::CACHE, b), &all);
    let build = over(&|b| rung(spans::CORE, b), &all);
    let engine = over(&|b| rung(spans::ENGINE, b), &all);
    let sup = over(&|b| rung(spans::SUPERVISOR, b), &all);
    let tenant = over(&|b| rung(spans::TENANT, b), &all);
    let encode = over(&|b| rung(spans::ENCODE, b), &all);
    let decode = over(&|b| rung(spans::DECODE, b), &all);
    let sup_over_engine = |b: u64| rung(spans::SUPERVISOR, b) - rung(spans::ENGINE, b);
    // Loopback batch `b` replays pool entry `b % POOL`: the rung for an
    // entry is the median over its round trips, like the in-process rungs.
    let mut by_entry: HashMap<u64, Vec<f64>> = HashMap::new();
    for (&b, &us) in &loopback {
        by_entry.entry(b % POOL as u64).or_default().push(us);
    }
    let round_trip = mean(&by_entry.values().map(|v| median(v)).collect::<Vec<_>>());

    let ladder = [
        cache,
        cache + build,
        engine,
        sup,
        tenant,
        tenant + encode + decode,
        round_trip,
    ];
    // How much each rung moves from pass to pass: half the interquartile
    // range of its per-pass means. The loopback rung's "passes" are runs of
    // POOL consecutive batches.
    let series = |names: &[&str]| -> Vec<f64> {
        let mut ids: Vec<u64> = per_pass
            .get(names[0])
            .map_or(Vec::new(), |m| m.keys().copied().collect());
        ids.sort_unstable();
        ids.iter()
            .map(|id| {
                names
                    .iter()
                    .map(|n| {
                        per_pass
                            .get(n)
                            .and_then(|m| m.get(id))
                            .copied()
                            .unwrap_or(0.0)
                    })
                    .sum()
            })
            .collect()
    };
    let mut rounds: Vec<(u64, f64)> = loopback.iter().map(|(&b, &us)| (b, us)).collect();
    rounds.sort_by_key(|r| r.0);
    let rounds: Vec<f64> = rounds
        .chunks(POOL)
        .map(|c| mean(&c.iter().map(|r| r.1).collect::<Vec<_>>()))
        .collect();
    let noise = [
        half_iqr(&series(&[spans::CACHE])),
        half_iqr(&series(&[spans::CACHE, spans::CORE])),
        half_iqr(&series(&[spans::ENGINE])),
        half_iqr(&series(&[spans::SUPERVISOR])),
        half_iqr(&series(&[spans::TENANT])),
        half_iqr(&series(&[spans::TENANT, spans::ENCODE, spans::DECODE])),
        half_iqr(&rounds),
    ];
    // An inversion is a rung below its lower neighbour by more than the two
    // rungs' pass-to-pass movement; a smaller gap is within resolution.
    let inversions = (0..ladder.len() - 1)
        .filter(|&i| ladder[i] - ladder[i + 1] > noise[i] + noise[i + 1])
        .count() as u64;
    let any_killed = batches.iter().any(|&b| w.killed(b));
    Layers {
        cache_us: cache,
        policy_build_us: build,
        engine_self_us: self_time(engine, cache + build),
        supervisor_self_us: self_time(over(&sup_over_engine, &|b| !w.killed(b)), 0.0),
        supervisor_kill_self_us: if any_killed {
            self_time(over(&sup_over_engine, &|b| w.killed(b)), 0.0)
        } else {
            0.0
        },
        tenant_self_us: self_time(tenant, sup),
        encode_us: encode,
        decode_us: decode,
        round_trip_us: round_trip,
        loopback_self_us: self_time(round_trip, tenant + encode + decode),
        inversions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn span(name: &str, batch: u64, us: u64) -> Span {
        Span {
            id: 0,
            parent: 0,
            name: name.into(),
            tenant: 0,
            batch,
            start_ns: 1_000,
            end_ns: 1_000 + us * 1_000,
        }
    }

    #[test]
    fn self_times_are_rung_differences_and_never_negative() {
        let w = WORKLOADS[2]; // kills every 4th batch
        let mut s = Vec::new();
        for b in 0..POOL as u64 {
            let killed = w.killed(b);
            s.push(span(spans::CACHE, b, 10));
            s.push(span(spans::CORE, b, 2));
            s.push(span(spans::ENGINE, b, 30));
            s.push(span(spans::SUPERVISOR, b, if killed { 70 } else { 40 }));
            s.push(span(spans::TENANT, b, if killed { 75 } else { 45 }));
            s.push(span(spans::ENCODE, b, 3));
            s.push(span(spans::DECODE, b, 4));
            s.push(span(spans::LOOPBACK_BATCH, b, 100));
        }
        let l = layers(&w, &s);
        assert_eq!(l.inversions, 0);
        assert!((l.engine_self_us - 18.0).abs() < 1e-9);
        assert!((l.supervisor_self_us - 10.0).abs() < 1e-9);
        assert!((l.supervisor_kill_self_us - 40.0).abs() < 1e-9);
        assert!((l.tenant_self_us - 5.0).abs() < 1e-9);
        // round trip 100 - (tenant 52.5 + 7)
        assert!((l.loopback_self_us - 40.5).abs() < 1e-9);

        // An engine rung faster than the cache replay below it, and a
        // round trip faster than the in-process rungs: both clamp to 0
        // and count as inversions instead of going negative.
        let inverted: Vec<Span> = s
            .iter()
            .map(|x| match x.name.as_str() {
                spans::ENGINE => span(spans::ENGINE, x.batch, 5),
                spans::LOOPBACK_BATCH => span(spans::LOOPBACK_BATCH, x.batch, 1),
                _ => x.clone(),
            })
            .collect();
        let l = layers(&w, &inverted);
        assert_eq!(l.engine_self_us, 0.0);
        assert_eq!(l.loopback_self_us, 0.0);
        assert_eq!(l.inversions, 2);
        for v in [
            l.engine_self_us,
            l.supervisor_self_us,
            l.supervisor_kill_self_us,
            l.tenant_self_us,
            l.loopback_self_us,
        ] {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn an_inversion_within_pass_to_pass_noise_is_not_counted() {
        let w = WORKLOADS[0];
        let mut s = Vec::new();
        for pass in 1..=4u64 {
            for b in 0..POOL as u64 {
                let mut push = |name: &str, us: u64| {
                    let mut x = span(name, b, us);
                    x.parent = pass;
                    s.push(x);
                };
                push(spans::CACHE, 10);
                push(spans::CORE, 2);
                push(spans::ENGINE, 30);
                push(spans::SUPERVISOR, 40 + 4 * pass);
                // One microsecond under the supervisor rung, which moves
                // by 4us from pass to pass.
                push(spans::TENANT, 39 + 4 * pass);
                push(spans::ENCODE, 3);
                push(spans::DECODE, 4);
            }
        }
        for b in 0..POOL as u64 {
            s.push(span(spans::LOOPBACK_BATCH, b, 100));
        }
        let l = layers(&w, &s);
        assert_eq!(l.tenant_self_us, 0.0);
        assert_eq!(l.inversions, 0);
        assert!((l.supervisor_self_us - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rung_is_the_median_over_passes() {
        let w = WORKLOADS[0];
        let mut s = Vec::new();
        for b in 0..POOL as u64 {
            for us in [10, 11, 500] {
                s.push(span(spans::CACHE, b, us));
            }
        }
        assert!((layers(&w, &s).cache_us - 11.0).abs() < 1e-9);
    }
}
