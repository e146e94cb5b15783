//! Property-based resume equivalence: crash-and-recover at an *arbitrary*
//! tick must be invisible, the snapshot codec must round-trip exactly, an
//! incremental WAL delta applied to its base must reconstruct the full
//! snapshot byte-for-byte, and the supervisor's direct checkpoint writers
//! must produce exactly the reference encoders' bytes.

use proptest::prelude::*;

use parapage_cache::{fnv1a64_seeded, Cache, Checkpoint, LruCache, ProcId, ShardedLru, SnapWriter};
use parapage_conform::{check_replay, check_resume, CONFORM_POLICIES};
use parapage_core::{boxed_policy, BoxAllocator, FaultEvent, ModelParams};
use parapage_sched::{
    CheckpointStore, CrashPlan, Engine, EngineOpts, EngineSnapshot, EpochControl, FaultPlan,
    MemStore, NullSink, Supervisor, SupervisorOpts, TraceRecorder, WalCursor,
};
use parapage_workloads::{build_workload, fault_scenario, SeqSpec, FAULT_SCENARIOS};

fn workload_for(
    p: usize,
    k: usize,
    len: usize,
    shape: u32,
    seed: u64,
) -> Vec<Vec<parapage_cache::PageId>> {
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| match (shape + x as u32) % 4 {
            0 => SeqSpec::Cyclic {
                width: (k / 2).max(1),
                len,
            },
            1 => SeqSpec::Fresh { len },
            2 => SeqSpec::Uniform {
                universe: (2 * k).max(2),
                len,
            },
            _ => SeqSpec::Zipf {
                universe: k.max(2),
                theta: 0.9,
                len,
            },
        })
        .collect();
    build_workload(&specs, seed).into_seqs()
}

/// Steps two engines over the same run in lockstep — one checkpointed by
/// the reference encoders (`snapshot().encode()`, `wal_delta().encode()`
/// framed by `WalCursor::frame`), one by the direct writers the supervisor
/// ships (`write_snapshot`, `write_wal_delta` appended by
/// `WalCursor::append`) — and at every epoch boundary, and at the end,
/// requires identical WAL record bytes, identical base bytes, and a fused
/// chain seed equal to `WalCursor::at_base` over the reference base. Every
/// `rebase_every` epochs both sides install that base and restart their
/// chains, as the supervisor does. Returns the number of boundaries
/// checked.
#[allow(clippy::too_many_arguments)]
fn direct_writers_match_reference<C: Cache + Checkpoint>(
    policy: &str,
    seqs: &[Vec<parapage_cache::PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    plan: &FaultPlan,
    seed: u64,
    epoch_ticks: u64,
    rebase_every: u64,
    make_cache: impl Fn(usize) -> C,
) -> Result<u64, TestCaseError> {
    let mut ref_alloc = boxed_policy(policy, params, seed, true).unwrap();
    let mut dir_alloc = boxed_policy(policy, params, seed, true).unwrap();
    let mut reference = Engine::new(&mut *ref_alloc, seqs, params, opts, plan, &make_cache);
    let mut direct = Engine::new(&mut *dir_alloc, seqs, params, opts, plan, &make_cache);
    let mut ref_cursor: Option<WalCursor> = None;
    let mut dir_cursor: Option<WalCursor> = None;
    let mut w = SnapWriter::new();
    let mut boundaries = 0u64;
    let mut next = epoch_ticks;
    loop {
        let more_ref = reference
            .step(&mut *ref_alloc, &mut NullSink)
            .map_err(|e| TestCaseError::fail(format!("{policy}: engine errored: {e}")))?;
        let more_dir = direct
            .step(&mut *dir_alloc, &mut NullSink)
            .map_err(|e| TestCaseError::fail(format!("{policy}: engine errored: {e}")))?;
        prop_assert_eq!(more_ref, more_dir);
        let ticks = reference.ticks();
        prop_assert_eq!(ticks, direct.ticks());
        if more_ref && ticks < next {
            continue;
        }
        next = ticks - ticks % epoch_ticks + epoch_ticks;
        boundaries += 1;

        if let (Some(rc), Some(dc)) = (ref_cursor.as_mut(), dir_cursor.as_mut()) {
            let payload = reference.wal_delta(&*ref_alloc).unwrap().encode();
            let want = rc.frame(&payload);
            w.clear();
            dc.append(&mut w, |w| direct.write_wal_delta(&*dir_alloc, w))
                .unwrap();
            prop_assert_eq!(
                w.bytes(),
                &want[..],
                "{}: wal record at tick {}",
                policy,
                ticks
            );
            prop_assert_eq!((dc.seq, dc.chain), (rc.seq, rc.chain));
        }

        let want = reference.snapshot(&*ref_alloc).unwrap().encode();
        w.clear();
        let cursor = direct.write_snapshot(&*dir_alloc, &mut w).unwrap();
        prop_assert_eq!(w.bytes(), &want[..], "{}: base at tick {}", policy, ticks);
        let at_base = WalCursor::at_base(&want);
        prop_assert_eq!((cursor.seq, cursor.chain), (at_base.seq, at_base.chain));
        if ref_cursor.is_none() || boundaries % rebase_every == 0 {
            reference.reset_wal_mark();
            direct.reset_wal_mark();
            ref_cursor = Some(at_base);
            dir_cursor = Some(cursor);
        }
        if !more_ref {
            return Ok(boundaries);
        }
    }
}

/// Steps `engine` `n` times, or until the run completes.
fn step_up_to<C: Cache>(
    engine: &mut Engine<'_, C>,
    alloc: &mut dyn BoxAllocator,
    n: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..n {
        let more = engine
            .step(alloc, &mut NullSink)
            .map_err(|e| TestCaseError::fail(format!("engine errored: {e}")))?;
        if !more {
            break;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The supervisor's direct checkpoint writers are byte-identical to the
    /// reference encoders at every epoch boundary, for det-par, rand-par
    /// and bb-green, with timelines on and off, under every fault
    /// scenario, on `LruCache` and on `ShardedLru` with 1 and 4 shards.
    #[test]
    fn direct_writers_match_reference_encoders_at_every_epoch(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        // Folded (policy, cache, timelines, scenario) selector.
        sel in 0usize..90,
        // Folded (epoch_ticks in 1..24, rebase_every in 1..6).
        cadence in 0u64..115,
    ) {
        let (epoch_ticks, rebase_every) = (1 + cadence % 23, 1 + cadence / 23);
        let policy = ["det-par", "rand-par", "bb-green"][sel % 3];
        let cache = (sel / 3) % 3;
        let timelines = (sel / 9) % 2 == 1;
        let scenario = parapage_workloads::FAULT_SCENARIOS[(sel / 18) % 5];
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, (sel % 4) as u32, seed);
        let plan = FaultPlan::new(
            fault_scenario(scenario, p, k, (len as u64 + 4) * 6 * 4, seed).unwrap(),
        );
        let opts = EngineOpts { record_timelines: timelines, ..EngineOpts::default() };
        let boundaries = match cache {
            0 => direct_writers_match_reference(
                policy, &seqs, &params, &opts, &plan, seed, epoch_ticks, rebase_every,
                |_| LruCache::new(0),
            ),
            1 => direct_writers_match_reference(
                policy, &seqs, &params, &opts, &plan, seed, epoch_ticks, rebase_every,
                |_| ShardedLru::with_shards(0, 1),
            ),
            _ => direct_writers_match_reference(
                policy, &seqs, &params, &opts, &plan, seed, epoch_ticks, rebase_every,
                |_| ShardedLru::with_shards(0, 4),
            ),
        }?;
        prop_assert!(boundaries >= 1);
    }

    /// For every policy, fault scenario, and a crash at a random tick of
    /// the run, the supervised crash-and-recover run reproduces the
    /// uninterrupted run's result and trace byte-for-byte.
    #[test]
    fn resume_at_random_tick_is_equivalent(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        // Folded (policy, scenario) selector plus a crash position.
        combo in 0usize..30,
        crash_frac in 0.0f64..1.0,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, (combo % 4) as u32, seed);
        let policy = CONFORM_POLICIES[combo % CONFORM_POLICIES.len()];
        let scenario = FAULT_SCENARIOS[(combo / 6) % FAULT_SCENARIOS.len()];
        let plan = FaultPlan::new(
            fault_scenario(scenario, p, k, (len as u64 + 4) * 6 * 4, seed).unwrap(),
        );
        let opts = EngineOpts::default();
        // Crash at the sampled fraction of the baseline length.
        let cell = check_resume(
            policy, &seqs, &params, &opts, seed, scenario, &plan, &[crash_frac],
        ).unwrap();
        prop_assert!(
            cell.passed(),
            "{}/{} crash at {} of {} ticks: {:?}",
            policy, scenario, crash_frac, cell.counters[0], cell.violations
        );
    }

    /// The snapshot codec round-trips exactly on real mid-run engine
    /// states: `decode(encode(s)) == s`, for every policy and a snapshot
    /// taken after an arbitrary number of steps.
    #[test]
    fn snapshot_codec_round_trips_mid_run(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        // Folded (policy, record_timelines) selector.
        sel in 0usize..12,
        steps in 0usize..64,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 2, seed);
        let policy = CONFORM_POLICIES[sel % CONFORM_POLICIES.len()];
        let timelines = sel >= CONFORM_POLICIES.len();
        let plan = FaultPlan::new(fault_scenario("chaos", p, k, 4000, seed).unwrap());
        let opts = EngineOpts { record_timelines: timelines, ..EngineOpts::default() };
        let mut alloc = boxed_policy(policy, &params, seed, true).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        step_up_to(&mut engine, &mut *alloc, steps)?;
        let snap = engine.snapshot(&*alloc).unwrap();
        let decoded = EngineSnapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    /// An incremental WAL delta taken after an arbitrary number of steps
    /// past an arbitrary base reconstructs the engine's full snapshot
    /// byte-for-byte when applied to that base, for every policy.
    #[test]
    fn wal_delta_reconstruction_matches_full_snapshot(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        sel in 0usize..6,
        // Folded (base_steps, delta_steps), each in 0..48.
        steps in 0usize..2304,
    ) {
        let (base_steps, delta_steps) = (steps % 48, steps / 48);
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 1, seed);
        let policy = CONFORM_POLICIES[sel % CONFORM_POLICIES.len()];
        let plan = FaultPlan::new(fault_scenario("chaos", p, k, 4000, seed).unwrap());
        let opts = EngineOpts::default();
        let mut alloc = boxed_policy(policy, &params, seed, true).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        step_up_to(&mut engine, &mut *alloc, base_steps)?;
        let base = engine.snapshot(&*alloc).unwrap();
        engine.reset_wal_mark();
        step_up_to(&mut engine, &mut *alloc, delta_steps)?;
        let delta = engine.wal_delta(&*alloc).unwrap();
        let full = engine.snapshot(&*alloc).unwrap();
        let mut rebuilt = base;
        delta.apply(&mut rebuilt).unwrap();
        prop_assert_eq!(rebuilt.encode(), full.encode());
    }

    /// With WAL checkpoints at *every* epoch boundary and a crash at a
    /// random tick, the supervised run reproduces the uninterrupted run's
    /// result and trace byte-for-byte — for every policy, the RNG-backed
    /// ones included.
    #[test]
    fn wal_resume_at_random_tick_is_equivalent(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 8usize..120,
        seed in 0u64..1_000_000,
        sel in 0usize..6,
        crash_frac in 0.0f64..1.0,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 3, seed);
        let policy = CONFORM_POLICIES[sel % CONFORM_POLICIES.len()];
        wal_resume_matches_uninterrupted(
            policy, &seqs, &params, seed, crash_frac, |_| LruCache::new(0),
        )?;
    }

    /// The WAL resume equivalence extends to the *sharded* concurrent
    /// cache: with every per-processor cache a 4-shard `ShardedLru`, a
    /// crash-and-recover run under epoch WAL checkpoints reproduces the
    /// uninterrupted sharded run byte-for-byte — the concatenated shard
    /// snapshot travels through base + delta and back without loss.
    #[test]
    fn wal_resume_with_sharded_cache_is_equivalent(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 8usize..100,
        seed in 0u64..1_000_000,
        sel in 0usize..6,
        crash_frac in 0.0f64..1.0,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 0, seed);
        let policy = CONFORM_POLICIES[sel % CONFORM_POLICIES.len()];
        wal_resume_matches_uninterrupted(
            policy, &seqs, &params, seed, crash_frac, |_| ShardedLru::with_shards(0, 4),
        )?;
    }
}

/// The supervisor knobs of the WAL tests: 8-tick epochs, a fresh base
/// every 4, no backoff.
fn wal_opts() -> SupervisorOpts {
    SupervisorOpts {
        epoch_ticks: 8,
        max_retries: 3,
        backoff_base: std::time::Duration::ZERO,
        full_snapshot_every: 4,
        ..SupervisorOpts::default()
    }
}

/// Runs `policy` uninterrupted, then supervised under [`wal_opts`] with
/// one crash at `crash_frac` of the run's ticks, and requires the same
/// result and trace from both.
fn wal_resume_matches_uninterrupted<C: Cache + Checkpoint>(
    policy: &str,
    seqs: &[Vec<parapage_cache::PageId>],
    params: &ModelParams,
    seed: u64,
    crash_frac: f64,
    make_cache: impl Fn(usize) -> C,
) -> Result<(), TestCaseError> {
    let plan = FaultPlan::none();
    let opts = EngineOpts::default();
    let mut alloc = boxed_policy(policy, params, seed, false).unwrap();
    let mut engine = Engine::new(&mut *alloc, seqs, params, &opts, &plan, &make_cache);
    let mut baseline_trace = TraceRecorder::new();
    while engine
        .step(&mut *alloc, &mut baseline_trace)
        .map_err(|e| TestCaseError::fail(format!("engine errored: {e}")))?
    {}
    let baseline_ticks = engine.ticks();
    let baseline = engine.into_result(&*alloc);
    let crash = ((baseline_ticks as f64 * crash_frac) as u64).clamp(1, baseline_ticks);

    let mut recovered_trace = TraceRecorder::new();
    let report = Supervisor::new(wal_opts())
        .run_controlled(
            seqs,
            params,
            &opts,
            &plan,
            &CrashPlan::at_ticks(vec![crash]),
            || boxed_policy(policy, params, seed, false).unwrap(),
            &make_cache,
            &mut recovered_trace,
            &mut MemStore::new(),
            |_| EpochControl::Continue,
        )
        .map_err(|e| TestCaseError::fail(format!("{policy}: recovery failed: {e}")))?;
    prop_assert_eq!(&report.result, &baseline, "{} diverged", policy);
    let trace_violations = check_replay(baseline_trace.events(), recovered_trace.events());
    prop_assert!(
        trace_violations.is_empty(),
        "{} crash at tick {}/{}: {:?}",
        policy,
        crash,
        baseline_ticks,
        trace_violations
    );
    Ok(())
}

/// A checkpoint store that keeps what recovery reads in a [`MemStore`]
/// and folds every byte the supervisor hands it, tagged by call, into one
/// FNV-1a digest.
#[derive(Default)]
struct DigestStore {
    mem: MemStore,
    digest: u64,
}

impl CheckpointStore for DigestStore {
    fn install_base(&mut self, snapshot: &[u8]) {
        self.digest = fnv1a64_seeded(fnv1a64_seeded(self.digest, b"base"), snapshot);
        self.mem.install_base(snapshot);
    }

    fn append_record(&mut self, record: &[u8]) {
        self.digest = fnv1a64_seeded(fnv1a64_seeded(self.digest, b"record"), record);
        self.mem.append_record(record);
    }

    fn view(&mut self) -> Option<(&[u8], &[u8])> {
        self.mem.view()
    }
}

/// One supervised run under a stall, a latency spike, memory pressure and
/// a crash at tick 50, returning `(stream digest, checkpoint_bytes)`.
fn checkpoint_stream<C: Cache + Checkpoint>(
    policy: &str,
    timelines: bool,
    make_cache: impl Fn(usize) -> C,
) -> (u64, u64) {
    let (p, k, seed) = (4, 32, 42);
    let params = ModelParams::new(p, k, 6);
    let seqs = workload_for(p, k, 160, 0, seed);
    let plan = FaultPlan::new(vec![
        FaultEvent::ProcStall {
            proc: ProcId(1),
            from: 40,
            until: 400,
        },
        FaultEvent::LatencySpike {
            from: 200,
            until: 900,
            factor: 3,
        },
        FaultEvent::MemoryPressure {
            at: 600,
            new_limit: k,
        },
    ]);
    let opts = EngineOpts {
        record_timelines: timelines,
        ..EngineOpts::default()
    };
    let mut store = DigestStore::default();
    let report = Supervisor::new(wal_opts())
        .run_controlled(
            &seqs,
            &params,
            &opts,
            &plan,
            &CrashPlan::at_ticks(vec![50]),
            || boxed_policy(policy, &params, seed, true).unwrap(),
            make_cache,
            &mut NullSink,
            &mut store,
            |_| EpochControl::Continue,
        )
        .unwrap();
    assert_eq!((report.crashes, report.resumes), (1, 1), "{policy}");
    assert_eq!(report.result.faults_injected, 3, "{policy}");
    assert!(report.wal_records > 0, "{policy}");
    (store.digest, report.checkpoint_bytes)
}

/// Every base and WAL record byte the supervisor writes is pinned for
/// det-par and rand-par, timelines on and off, on `LruCache` and on a
/// 4-shard `ShardedLru`, across faults, a crash, recovery and re-basing.
/// The direct-writer test above only proves the served writers agree with
/// the reference encoders; this one catches a format change made to both.
#[test]
fn checkpoint_stream_bytes_are_pinned() {
    let mut got = Vec::new();
    for policy in ["det-par", "rand-par"] {
        for timelines in [false, true] {
            let lru = checkpoint_stream(policy, timelines, |_| LruCache::new(0));
            let sharded = checkpoint_stream(policy, timelines, |_| ShardedLru::with_shards(0, 4));
            for (cache, (digest, bytes)) in [("lru", lru), ("sharded4", sharded)] {
                got.push(format!(
                    "{policy} {cache} timelines={timelines}: {digest:#018x} {bytes}"
                ));
            }
        }
    }
    let want = [
        "det-par lru timelines=false: 0x3590bc33fc6277f5 6839",
        "det-par sharded4 timelines=false: 0x55beada5f332e391 7799",
        "det-par lru timelines=true: 0x4e95705ab5ea2412 9439",
        "det-par sharded4 timelines=true: 0xa75fca1d054cf502 10399",
        "rand-par lru timelines=false: 0xb04d72709f2f79d7 15098",
        "rand-par sharded4 timelines=false: 0xe55dc7958ec74ccf 16778",
        "rand-par lru timelines=true: 0xf4c2dd1cd38876a6 18674",
        "rand-par sharded4 timelines=true: 0xb31d8461bf3bfefe 20354",
    ];
    assert_eq!(got, want);
}
