//! Resume equivalence: snapshot/restore recovery must be invisible.
//!
//! The contract (see `parapage-sched`'s `supervisor` module): a run that
//! crashes at arbitrary points and resumes from checkpoints must produce
//! the **byte-identical** [`RunResult`](parapage_sched::RunResult) and
//! trace stream of an uninterrupted run. This module turns that contract
//! into the cells of the `parapage chaos` matrix (see [`crate::chaos`]):
//!
//! * [`check_resume`] — one cell: runs a policy uninterrupted through the
//!   steppable engine, then re-runs it under the [`Supervisor`] with
//!   deterministic crashes injected at fractions of the uninterrupted
//!   run's tick count, and diffs the two runs field by field and event by
//!   event.
//! * [`check_corruption_rejection`] — a snapshot with a flipped byte must
//!   be rejected with a typed error (never a panic, never a silent
//!   mis-restore).

use parapage_cache::{LruCache, PageId};
use parapage_core::{boxed_policy, FaultEvent, ModelParams};
use parapage_sched::{
    CrashPlan, Engine, EngineOpts, EngineSnapshot, EpochControl, FaultPlan, MemStore, Supervisor,
    SupervisorOpts, TraceRecorder,
};

use crate::chaos::{Baseline, ChaosCell};

/// One resume-equivalence cell, labelled `policy/scenario`: uninterrupted
/// vs crash-and-recover, with one crash at each of `crash_fracs` (each a
/// fraction in `(0, 1)` of the uninterrupted run's tick count, all
/// injected into a single supervised run). Counters: baseline ticks,
/// crashes survived.
#[allow(clippy::too_many_arguments)] // one cell = the full run recipe; a struct would just rename the args
pub fn check_resume(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    scenario: &str,
    plan: &FaultPlan,
    crash_fracs: &[f64],
) -> Result<ChaosCell, String> {
    let hardened = plan
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::MemoryPressure { .. }));
    let base = Baseline::run(policy, seqs, params, opts, seed, plan, hardened)?;
    let mut crash_ticks: Vec<u64> = crash_fracs
        .iter()
        .map(|f| ((base.ticks as f64 * f) as u64).max(1))
        .filter(|&t| t <= base.ticks)
        .collect();
    crash_ticks.sort_unstable();
    crash_ticks.dedup();

    // Small epochs so crashes land between checkpoints, no backoff (the
    // crashes are injected, not environmental).
    let sup_opts = SupervisorOpts {
        epoch_ticks: 32,
        max_retries: crash_ticks.len() as u32 + 2,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    };
    let mut trace = TraceRecorder::new();
    let supervised = Supervisor::new(sup_opts).run_controlled(
        seqs,
        params,
        opts,
        plan,
        &CrashPlan::at_ticks(crash_ticks.clone()),
        || {
            boxed_policy(policy, params, seed, hardened)
                .expect("factory succeeded for the baseline")
        },
        |_| LruCache::new(0),
        &mut trace,
        &mut MemStore::new(),
        |_| EpochControl::Continue,
    );
    Ok(ChaosCell {
        label: format!("{policy}/{scenario}"),
        counters: vec![
            base.ticks,
            supervised.as_ref().map_or(0, |r| r.crashes.into()),
        ],
        violations: base.judge(&supervised, &trace, crash_ticks.len()),
    })
}

/// Verifies that a corrupted snapshot is rejected with a typed error: for
/// every byte position in a real mid-run snapshot's encoding (sampled if
/// the blob is large), flipping that byte must make decoding fail — never
/// panic, never yield a snapshot that silently restores.
pub fn check_corruption_rejection(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
) -> Result<(), String> {
    let plan = FaultPlan::none();
    let opts = EngineOpts::default();
    let mut alloc = boxed_policy(policy, params, seed, false)?;
    let mut engine = Engine::new(&mut *alloc, seqs, params, &opts, &plan, |_| {
        LruCache::new(0)
    });
    let mut sink = parapage_sched::NullSink;
    for _ in 0..12 {
        if !engine
            .step(&mut *alloc, &mut sink)
            .map_err(|e| format!("engine errored: {e}"))?
        {
            break;
        }
    }
    let snap = engine
        .snapshot(&*alloc)
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let bytes = snap.encode();
    if EngineSnapshot::decode(&bytes).as_ref() != Ok(&snap) {
        return Err("clean snapshot failed to round-trip".to_string());
    }
    // Flip every byte for small blobs, a deterministic stride for large
    // ones — the digest must catch each single-byte corruption.
    let stride = (bytes.len() / 64).max(1);
    for i in (0..bytes.len()).step_by(stride) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        if EngineSnapshot::decode(&bad).is_ok() {
            return Err(format!(
                "snapshot with byte {i} flipped decoded successfully — \
                 the integrity digest missed a corruption"
            ));
        }
    }
    // Truncation must also be typed.
    match EngineSnapshot::decode(&bytes[..bytes.len() - 1]) {
        Ok(_) => Err("truncated snapshot decoded successfully".to_string()),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CONFORM_POLICIES;
    use parapage_workloads::{build_workload, fault_scenario, SeqSpec};

    fn workload(p: usize, len: usize, k: usize) -> Vec<Vec<PageId>> {
        let specs: Vec<SeqSpec> = (0..p)
            .map(|x| match x % 2 {
                0 => SeqSpec::Cyclic {
                    width: (k / 4).max(2),
                    len,
                },
                _ => SeqSpec::Zipf {
                    universe: k.max(4),
                    theta: 0.9,
                    len,
                },
            })
            .collect();
        build_workload(&specs, 42).seqs().to_vec()
    }

    #[test]
    fn det_par_resume_cell_passes() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 300, 32);
        let plan =
            FaultPlan::new(fault_scenario("stalls", 4, 32, 4000, 7).expect("stalls scenario"));
        let cell = check_resume(
            "det-par",
            &seqs,
            &params,
            &EngineOpts::default(),
            7,
            "stalls",
            &plan,
            &[0.05, 0.5, 0.95],
        )
        .expect("cell");
        assert_eq!(cell.label, "det-par/stalls");
        assert!(cell.passed(), "violations: {:?}", cell.violations);
        assert_eq!(cell.counters[1], 3, "crashes survived");
    }

    #[test]
    fn rand_par_resume_survives_crashes_under_chaos_scenario() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 300, 32);
        let plan =
            FaultPlan::new(fault_scenario("chaos", 4, 32, 4000, 11).expect("chaos scenario"));
        let cell = check_resume(
            "rand-par",
            &seqs,
            &params,
            &EngineOpts::default(),
            11,
            "chaos",
            &plan,
            &[0.1, 0.34, 0.67],
        )
        .expect("cell");
        assert!(cell.passed(), "violations: {:?}", cell.violations);
    }

    #[test]
    fn corruption_is_rejected_for_every_policy() {
        let params = ModelParams::new(2, 16, 6);
        let seqs = workload(2, 120, 16);
        for &policy in CONFORM_POLICIES {
            check_corruption_rejection(policy, &seqs, &params, 5)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }
}
