//! `parapage conform`: the conformance oracle as a pre-PR gate.
//!
//! Four sections, each with its own table:
//!
//! 1. **Invariant matrix** — every engine policy under every named fault
//!    scenario, checked for replay determinism, agreement with the naive
//!    reference simulator, stream/result consistency, memory envelopes,
//!    box geometry, and (DET-PAR, clean) the paper's phase/strip structure.
//! 2. **Differential sweep** — the optimized engine vs the reference
//!    simulator, event-for-event, on generated workloads.
//! 3. **Competitive envelope** — measured makespan ratios on Theorem-4
//!    adversarial instances must stay inside a `c·log p` envelope.
//! 4. **Sharded stress** — real OS threads hammering one sharded LRU;
//!    per-shard ledgers replayed exactly against the sequential policy,
//!    aggregate misses checked against the hit/miss envelope.
//!
//! Exits non-zero on any violation, divergence, envelope excursion, or
//! failed stress cell.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_with, run_named_policy_faults};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let params = model_with(args, 8, 8, 10, true)?;
    let seed: u64 = args.get("seed", 42)?;
    let len: usize = args.get("len", if quick { 600 } else { 2000 })?;
    let diff: usize = args.get("diff", if quick { 150 } else { 1000 })?;
    args.finish()?;

    // The matrix workload mirrors the `mixed` family: heterogeneous
    // working-set widths so phases, strips, and partitions all get
    // exercised.
    let w = chaos_workload(params.p, params.k, len, seed);

    let clean = run_named_policy_faults(
        "det-par",
        &w,
        &params,
        &EngineOpts::default(),
        seed,
        &FaultPlan::none(),
        false,
    )?
    .map_err(|e| format!("clean det-par run failed: {e}"))?;
    let horizon = clean.makespan.max(1);

    println!(
        "conformance oracle: {} ({} requests, fault horizon {})\n",
        params,
        w.total_requests(),
        horizon
    );

    let mut failures = 0usize;

    // 1. Invariant matrix.
    println!("invariant matrix (engine policies x fault scenarios):");
    let reports = conform_matrix(w.seqs(), &params, seed, horizon)?;
    let mut t = Table::new(["policy", "scenario", "mode", "outcome", "events", "verdict"]);
    let mut details: Vec<String> = Vec::new();
    for r in &reports {
        let verdict = if r.passed() {
            "pass".to_string()
        } else {
            format!("FAIL ({})", r.violations.len())
        };
        if !r.passed() {
            failures += r.violations.len();
            for v in &r.violations {
                details.push(format!("{}/{}: {v}", r.policy, r.scenario));
            }
        }
        t.row([
            r.policy.clone(),
            r.scenario.clone(),
            if r.hardened { "hardened" } else { "raw" }.to_string(),
            r.outcome.clone(),
            r.events.to_string(),
            verdict,
        ]);
    }
    println!("{t}");
    for d in &details {
        println!("  violation: {d}");
    }

    // 2. Differential sweep.
    let sweep = differential_sweep(diff, seed);
    println!(
        "differential sweep: {} generated workloads, {} divergences",
        sweep.runs,
        sweep.divergences.len()
    );
    for d in sweep.divergences.iter().take(10) {
        println!("  divergence: {} — {}", d.recipe, d.detail);
    }
    failures += sweep.divergences.len();

    // 3. Competitive envelope.
    let env = competitive_envelope(quick, seed)?;
    println!("\ncompetitive envelope (measured ratio vs c*log p bound):");
    let mut t = Table::new(["policy", "instance", "p", "ratio", "bound", "verdict"]);
    for e in &env.entries {
        t.row([
            e.policy.to_string(),
            e.instance.clone(),
            e.p.to_string(),
            format!("{:.2}", e.ratio),
            format!("{:.2}", e.bound),
            if e.ok() { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{t}");
    failures += env.violations().len();

    // 4. Sharded stress cells.
    println!("sharded stress (ledger replay + hit/miss envelope):");
    let ops = if quick { 400 } else { 2_000 };
    let mut t = Table::new(["threads", "capacity", "shards", "ops", "misses", "verdict"]);
    details.clear();
    for (threads, capacity, shards) in [(2, 64, 4), (4, 128, 8), (8, 256, 8)] {
        let cell = check_concurrent_cache(threads, ops, capacity, shards, seed);
        failures += cell.violations.len();
        for v in &cell.violations {
            details.push(format!("stress {threads}x{ops}/{shards}: {v}"));
        }
        t.row([
            threads.to_string(),
            capacity.to_string(),
            shards.to_string(),
            cell.ops.to_string(),
            cell.misses.to_string(),
            if cell.passed() {
                "pass".to_string()
            } else {
                format!("FAIL ({})", cell.violations.len())
            },
        ]);
    }
    println!("{t}");
    for d in &details {
        println!("  violation: {d}");
    }

    if failures > 0 {
        return Err(format!("conformance FAILED: {failures} violation(s)"));
    }
    println!("conformance: all checks passed");
    Ok(())
}
