//! The conformance oracle: traced runs, invariant verdicts, and the
//! engine-vs-reference differential sweep.
//!
//! [`conform_run`] is the per-(policy, scenario) entry point: it runs the
//! policy twice through the optimized engine (replay determinism), once
//! through the naive [`crate::reference`] simulator (differential check),
//! and replays every applicable streaming checker from
//! [`crate::checkers`] over the recorded trace. [`differential_sweep`]
//! hammers the two simulators with generated workloads across all policies
//! and fault scenarios, hunting for any event-level divergence.

use parapage_cache::{LruCache, PageId};
use parapage_core::{
    boxed_policy, BoxAllocator, DetPar, FaultEvent, HardenedAllocator, ModelParams, PhaseRecord,
};
use parapage_sched::{
    run_engine_with, EngineError, EngineOpts, FaultPlan, RunResult, TraceEvent, TraceRecorder,
};
use parapage_workloads::{build_workload, fault_scenario, SeqSpec, FAULT_SCENARIOS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

use crate::checkers;
use crate::reference::run_reference;

/// The box policies the oracle audits (every engine-driven policy).
pub use parapage_core::BOX_POLICIES as CONFORM_POLICIES;

/// One traced run: the outcome, the full event stream, and (for DET-PAR)
/// the policy's phase log for the structure checkers.
pub struct TracedRun {
    /// The engine's result or typed error.
    pub outcome: Result<RunResult, EngineError>,
    /// The recorded trace stream.
    pub events: Vec<TraceEvent>,
    /// DET-PAR's phase log, when the policy was DET-PAR.
    pub phases: Option<Vec<PhaseRecord>>,
}

/// The verdict of one (policy, scenario) conformance run.
pub struct ConformReport {
    /// Policy name.
    pub policy: String,
    /// Scenario name.
    pub scenario: String,
    /// Whether the policy ran inside `HardenedAllocator`.
    pub hardened: bool,
    /// `"ok"` or the engine error label.
    pub outcome: String,
    /// Events on the recorded stream.
    pub events: usize,
    /// Checker violations; empty means the run conformed.
    pub violations: Vec<String>,
}

impl ConformReport {
    /// `true` when no checker flagged anything.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

#[allow(clippy::too_many_arguments)]
fn engine_runner(
    name: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    hardened: bool,
    reference: bool,
) -> Result<TracedRun, String> {
    let mut rec = TraceRecorder::new();
    let run = |alloc: &mut dyn BoxAllocator, rec: &mut TraceRecorder| {
        if reference {
            run_reference(alloc, seqs, params, opts, plan, rec)
        } else {
            run_engine_with(alloc, seqs, params, opts, plan, |_| LruCache::new(0), rec)
        }
    };
    let mut phases = None;
    let outcome = if name == "det-par" {
        // DET-PAR is built concretely so the phase log can be extracted
        // after the run (through the wrapper if hardened).
        let a = DetPar::new(params);
        if hardened {
            let mut h = HardenedAllocator::new(a, params.k);
            let out = run(&mut h, &mut rec);
            phases = Some(h.inner().phases().to_vec());
            out
        } else {
            let mut a = a;
            let out = run(&mut a, &mut rec);
            phases = Some(a.phases().to_vec());
            out
        }
    } else {
        run(&mut *boxed_policy(name, params, seed, hardened)?, &mut rec)
    };
    Ok(TracedRun {
        outcome,
        events: rec.into_events(),
        phases,
    })
}

/// Runs the named policy through the optimized engine with tracing.
#[allow(clippy::too_many_arguments)]
pub fn run_traced(
    name: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    hardened: bool,
) -> Result<TracedRun, String> {
    engine_runner(name, seqs, params, opts, seed, plan, hardened, false)
}

/// Runs the named policy through the naive reference simulator.
#[allow(clippy::too_many_arguments)]
pub fn run_reference_named(
    name: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    hardened: bool,
) -> Result<TracedRun, String> {
    engine_runner(name, seqs, params, opts, seed, plan, hardened, true)
}

/// The memory budget a policy's runs are audited against: `k` when
/// hardened (the wrapper's initial budget), otherwise the policy's
/// documented resource-augmentation envelope.
///
/// `stall_desynced` widens the envelope for the chunked policies when the
/// fault plan contains [`FaultEvent::ProcStall`] events. Historically
/// (PR 2) RAND-PAR emitted fixed-duration box *queues*, so a stall
/// deferred issuance and slid the processor's queue past its chunk — boxes
/// from adjacent chunk generations overlapped, the synchronous `2k`
/// argument no longer covered the run, and `3k` peaks were observed (the
/// guardrail was `4k`). RAND-PAR's chunk schedules are now time-anchored:
/// a stalled processor re-joins its chunk mid-schedule, the generations no
/// longer overlap, and the observed worst case on the PR-2 grid is back
/// under `2k`. The stall guardrail is kept at `3k` (not collapsed to `2k`)
/// because BB-GREEN still issues unanchored per-processor queues; the
/// `envelope_regression` test pins both edges. DET-PAR is unaffected
/// either way: its grants are clipped to the current period's end, so
/// deferred processors stay phase-aligned.
pub fn memory_envelope(name: &str, k: usize, hardened: bool, stall_desynced: bool) -> usize {
    if hardened {
        return k;
    }
    match name {
        "det-par" => DetPar::MEMORY_FACTOR * k,
        // RAND-PAR's primary+secondary parts and the black-box packer both
        // stay within 2k concurrently (engine audits observe less).
        "rand-par" | "bb-green" => {
            if stall_desynced {
                3 * k
            } else {
                2 * k
            }
        }
        // The partition baselines split exactly k.
        _ => k,
    }
}

/// Short label for an engine error, for tables.
pub fn error_label(e: &EngineError) -> &'static str {
    match e {
        EngineError::ZeroDurationGrant { .. } => "zero-grant",
        EngineError::MemoryLimitExceeded { .. } => "mem-limit",
        EngineError::TimeCapExceeded { .. } => "time-cap",
        EngineError::TimeOverflow { .. } => "overflow",
    }
}

/// Field-by-field comparison of two run outcomes; `None` when equal.
pub fn outcome_divergence(
    a: &Result<RunResult, EngineError>,
    b: &Result<RunResult, EngineError>,
) -> Option<String> {
    match (a, b) {
        (Err(ea), Err(eb)) => (ea != eb).then(|| format!("errors differ: {ea} vs {eb}")),
        (Err(e), Ok(_)) => Some(format!("engine errored ({e}), reference succeeded")),
        (Ok(_), Err(e)) => Some(format!("engine succeeded, reference errored ({e})")),
        (Ok(ra), Ok(rb)) => {
            if ra.completions != rb.completions {
                Some(format!(
                    "completions differ: {:?} vs {:?}",
                    ra.completions, rb.completions
                ))
            } else if ra.makespan != rb.makespan {
                Some(format!("makespan {} vs {}", ra.makespan, rb.makespan))
            } else if ra.stats != rb.stats {
                Some(format!("stats {:?} vs {:?}", ra.stats, rb.stats))
            } else if ra.memory_integral != rb.memory_integral {
                Some(format!(
                    "memory integral {} vs {}",
                    ra.memory_integral, rb.memory_integral
                ))
            } else if ra.peak_memory != rb.peak_memory {
                Some(format!("peak {} vs {}", ra.peak_memory, rb.peak_memory))
            } else if ra.grants_issued != rb.grants_issued {
                Some(format!(
                    "grants {} vs {}",
                    ra.grants_issued, rb.grants_issued
                ))
            } else if ra.faults_injected != rb.faults_injected {
                Some(format!(
                    "faults {} vs {}",
                    ra.faults_injected, rb.faults_injected
                ))
            } else if ra.degraded_grants != rb.degraded_grants {
                Some(format!(
                    "degraded {} vs {}",
                    ra.degraded_grants, rb.degraded_grants
                ))
            } else {
                None
            }
        }
    }
}

/// Full conformance verdict for one policy under one fault scenario: replay
/// determinism, differential cross-check against the reference simulator,
/// and every applicable paper-invariant checker.
pub fn conform_run(
    name: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    scenario: &str,
    plan: &FaultPlan,
) -> Result<ConformReport, String> {
    let opts = EngineOpts::default();
    let has_pressure = plan
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::MemoryPressure { .. }));
    let has_stalls = plan
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::ProcStall { .. }));
    // Pressure scenarios run hardened: an unhardened paper policy is
    // oblivious by design and would (correctly) trip the engine's limit.
    let hardened = has_pressure;

    let first = run_traced(name, seqs, params, &opts, seed, plan, hardened)?;
    let second = run_traced(name, seqs, params, &opts, seed, plan, hardened)?;
    let reference = run_reference_named(name, seqs, params, &opts, seed, plan, hardened)?;

    let mut violations = Vec::new();
    violations.extend(
        checkers::check_replay(&first.events, &second.events)
            .into_iter()
            .map(|v| format!("replay: {v}")),
    );
    violations.extend(
        checkers::check_replay(&first.events, &reference.events)
            .into_iter()
            .map(|v| format!("reference-diff: {v}")),
    );
    if let Some(d) = outcome_divergence(&first.outcome, &reference.outcome) {
        violations.push(format!("reference-diff: {d}"));
    }
    violations.extend(
        checkers::check_stream_order(&first.events)
            .into_iter()
            .map(|v| format!("stream: {v}")),
    );

    let outcome = match &first.outcome {
        Ok(res) => {
            violations.extend(
                checkers::check_run_consistency(&first.events, res)
                    .into_iter()
                    .map(|v| format!("consistency: {v}")),
            );
            violations.extend(
                checkers::check_memory(
                    &first.events,
                    memory_envelope(name, params.k, hardened, has_stalls),
                )
                .into_iter()
                .map(|v| format!("memory: {v}")),
            );
            if matches!(name, "det-par" | "rand-par") && !has_pressure {
                violations.extend(
                    checkers::check_box_geometry(&first.events, params)
                        .into_iter()
                        .map(|v| format!("geometry: {v}")),
                );
            }
            if name == "det-par" && scenario == "clean" {
                let phases = first.phases.as_deref().unwrap_or(&[]);
                violations.extend(
                    checkers::check_phase_structure(phases, params)
                        .into_iter()
                        .map(|v| format!("phases: {v}")),
                );
                let merged = checkers::merge_phases(&first.events, phases);
                violations.extend(
                    checkers::check_det_par_stream(&merged, params)
                        .into_iter()
                        .map(|v| format!("det-par: {v}")),
                );
            }
            "ok".to_string()
        }
        Err(e) => {
            violations.push(format!("run failed: {e}"));
            error_label(e).to_string()
        }
    };

    Ok(ConformReport {
        policy: name.to_string(),
        scenario: scenario.to_string(),
        hardened,
        outcome,
        events: first.events.len(),
        violations,
    })
}

/// Runs the full invariant matrix: every policy in [`CONFORM_POLICIES`]
/// under every named fault scenario, on the given workload.
///
/// The (policy, scenario) cells are independent, so they run on the
/// pool; each cell writes its report into its pre-assigned grid slot, so
/// the returned order (policy-major, scenario-minor) is identical for
/// every thread count.
pub fn conform_matrix(
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    horizon: u64,
) -> Result<Vec<ConformReport>, String> {
    let cells: Vec<(&str, &str)> = CONFORM_POLICIES
        .iter()
        .flat_map(|&policy| {
            FAULT_SCENARIOS
                .iter()
                .map(move |&scenario| (policy, scenario))
        })
        .collect();
    cells
        .par_iter()
        .map(|&(policy, scenario)| {
            let events = fault_scenario(scenario, params.p, params.k, horizon, seed)
                .ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
            let plan = FaultPlan::new(events);
            conform_run(policy, seqs, params, seed, scenario, &plan)
        })
        .collect::<Vec<Result<ConformReport, String>>>()
        .into_iter()
        .collect()
}

/// One divergence found by the differential sweep.
pub struct Divergence {
    /// A reproduction recipe (policy, scenario, and generator parameters).
    pub recipe: String,
    /// What differed.
    pub detail: String,
}

/// Outcome of the engine-vs-reference differential sweep.
pub struct DiffReport {
    /// Workloads executed.
    pub runs: usize,
    /// Divergences found (conformance requires this to be empty).
    pub divergences: Vec<Divergence>,
}

/// Wall-clock budget for one differential-sweep cell. A cell that blows it
/// is reported as a divergence (with its reproduction recipe) instead of
/// hanging the sweep — a hung CI run pointed at no workload is useless.
const DIFF_CELL_WATCHDOG: std::time::Duration = std::time::Duration::from_secs(30);

/// Cross-checks the optimized engine against the naive reference simulator
/// on `count` generated workloads, cycling policies, fault scenarios, and
/// workload shapes deterministically from `seed`.
///
/// The runs are independent (each derives its own RNG stream from
/// `(seed, i)`), so they fan out across the pool; divergences are
/// assembled in run order, making the report identical for every thread
/// count. Each cell runs under a 30 s watchdog deadline: a cell
/// that hangs (a livelocked policy, a pathological generated workload)
/// fails with its workload index and seed instead of wedging the sweep.
pub fn differential_sweep(count: usize, seed: u64) -> DiffReport {
    let divergences: Vec<Divergence> = (0..count)
        .into_par_iter()
        .map(|i| differential_run_watched(i, seed))
        .collect::<Vec<Vec<Divergence>>>()
        .into_iter()
        .flatten()
        .collect();
    DiffReport {
        runs: count,
        divergences,
    }
}

/// Runs one sweep cell on a helper thread and enforces the watchdog. On
/// expiry the helper thread is abandoned (it holds no locks and owns all
/// its state, so leaking it is safe) and the cell reports a divergence
/// naming the workload index and seed for offline reproduction.
fn differential_run_watched(i: usize, seed: u64) -> Vec<Divergence> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // The receiver may have timed out and gone away; a failed send
        // just means nobody is listening anymore.
        let _ = tx.send(differential_run(i, seed));
    });
    match rx.recv_timeout(DIFF_CELL_WATCHDOG) {
        Ok(divergences) => divergences,
        Err(_) => vec![Divergence {
            recipe: format!("run {i}: seed={seed}"),
            detail: format!(
                "watchdog: cell exceeded {DIFF_CELL_WATCHDOG:?} (workload index {i}, \
                 seed {seed}) — reproduce with `differential_sweep({}, {seed})` \
                 narrowed to this index",
                i + 1
            ),
        }],
    }
}

/// One cell of the differential sweep: generates workload `i` and returns
/// any engine-vs-reference divergences it produced.
fn differential_run(i: usize, seed: u64) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64).wrapping_mul(0x9e37));
        let p = rng.random_range(1..6usize);
        // k a power of two ≥ p̂: every policy accepts it un-normalized
        // (the black-box packer asserts its budget fits the normalized k).
        let k = p.next_power_of_two() * (1 << rng.random_range(0..4u32));
        let s = rng.random_range(2..18u64);
        let len_max = 120usize;
        let specs: Vec<SeqSpec> = (0..p)
            .map(|_| {
                let len = rng.random_range(0..len_max);
                match rng.random_range(0..4u32) {
                    0 => SeqSpec::Cyclic {
                        width: rng.random_range(1..(2 * k as u64 + 1)) as usize,
                        len,
                    },
                    1 => SeqSpec::Fresh { len },
                    2 => SeqSpec::Uniform {
                        universe: rng.random_range(1..(2 * k as u64 + 1)) as usize,
                        len,
                    },
                    _ => SeqSpec::Zipf {
                        universe: (k).max(2),
                        theta: 0.9,
                        len,
                    },
                }
            })
            .collect();
        let w = build_workload(&specs, seed ^ i as u64);
        let params = ModelParams::new(p, k, s);
        let policy = CONFORM_POLICIES[i % CONFORM_POLICIES.len()];
        let scenario = FAULT_SCENARIOS[(i / CONFORM_POLICIES.len()) % FAULT_SCENARIOS.len()];
        let horizon = (len_max as u64) * s * 4;
        let plan = FaultPlan::new(
            fault_scenario(scenario, p, k, horizon, seed ^ (i as u64) << 7)
                .expect("scenario names are exhaustive"),
        );
        let hardened = plan
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::MemoryPressure { .. }));
        let recipe =
            format!("run {i}: policy {policy} scenario {scenario} p={p} k={k} s={s} seed={seed}");
        let opts = EngineOpts::default();
        let eng = run_traced(policy, w.seqs(), &params, &opts, seed, &plan, hardened);
        let reference =
            run_reference_named(policy, w.seqs(), &params, &opts, seed, &plan, hardened);
        match (eng, reference) {
            (Ok(a), Ok(b)) => {
                for v in checkers::check_replay(&a.events, &b.events) {
                    divergences.push(Divergence {
                        recipe: recipe.clone(),
                        detail: v,
                    });
                }
                if let Some(d) = outcome_divergence(&a.outcome, &b.outcome) {
                    divergences.push(Divergence {
                        recipe: recipe.clone(),
                        detail: d,
                    });
                }
            }
            (Err(e), _) | (_, Err(e)) => divergences.push(Divergence {
                recipe,
                detail: format!("dispatch failed: {e}"),
            }),
        }
    }
    divergences
}
