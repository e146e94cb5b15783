//! `parapage faults`: a fault-injection matrix for one policy.
//!
//! Runs the policy clean first (to size the fault horizon), then replays
//! each named scenario twice — raw, and wrapped in `HardenedAllocator` —
//! and tabulates makespan degradation versus the clean run. Engine errors
//! (typically `MemoryLimitExceeded` for an unhardened policy under
//! pressure) are reported as rows, not fatal.
//!
//! The scenario × mode cells are independent runs, so the matrix fans out
//! across the pool; each cell fills its pre-assigned table row, keeping
//! the output identical for every `PARAPAGE_THREADS` value.

use parapage::prelude::*;
use rayon::prelude::*;

use crate::args::Args;
use crate::common::{model_from, run_named_policy_faults, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let w = workload_from(args, &params)?;
    let policy = args.opt("policy").unwrap_or_else(|| "det-par".into());
    let seed: u64 = args.get("seed", 42)?;
    args.finish()?;
    let opts = EngineOpts::default();

    let clean =
        run_named_policy_faults(&policy, &w, &params, &opts, seed, &FaultPlan::none(), false)?
            .map_err(|e| format!("clean run of `{policy}` failed: {e}"))?;
    let horizon = clean.makespan.max(1);

    println!(
        "fault matrix: policy {policy} on {} ({} requests, clean makespan {})\n",
        params,
        w.total_requests(),
        clean.makespan
    );
    let mut t = Table::new([
        "scenario", "mode", "outcome", "makespan", "x clean", "faults", "degraded", "peak mem",
    ]);
    let cells: Vec<(&str, bool)> = FAULT_SCENARIOS
        .iter()
        .flat_map(|&scenario| [false, true].map(|hardened| (scenario, hardened)))
        .collect();
    let rows: Vec<Result<[String; 8], String>> = cells
        .par_iter()
        .map(|&(scenario, hardened)| {
            let events = fault_scenario(scenario, params.p, params.k, horizon, seed)
                .expect("FAULT_SCENARIOS names are exhaustive");
            let plan = FaultPlan::new(events);
            let mode = if hardened { "hardened" } else { "raw" };
            let outcome =
                run_named_policy_faults(&policy, &w, &params, &opts, seed, &plan, hardened)?;
            Ok(match outcome {
                Ok(res) => [
                    scenario.to_string(),
                    mode.to_string(),
                    "ok".to_string(),
                    res.makespan.to_string(),
                    format!("{:.2}", res.makespan as f64 / horizon as f64),
                    res.faults_injected.to_string(),
                    res.degraded_grants.to_string(),
                    res.peak_memory.to_string(),
                ],
                Err(e) => [
                    scenario.to_string(),
                    mode.to_string(),
                    error_label(&e).to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ],
            })
        })
        .collect();
    for row in rows {
        t.row(row?);
    }
    println!("{t}");
    println!(
        "(`x clean` is makespan relative to the fault-free run; `degraded` counts \
         grants the hardened wrapper clamped or backed off)"
    );
    Ok(())
}

fn error_label(e: &EngineError) -> &'static str {
    match e {
        EngineError::ZeroDurationGrant { .. } => "zero-grant",
        EngineError::MemoryLimitExceeded { .. } => "mem-limit",
        EngineError::TimeCapExceeded { .. } => "time-cap",
        EngineError::TimeOverflow { .. } => "overflow",
    }
}
