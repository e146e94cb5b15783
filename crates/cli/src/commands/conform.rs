//! `parapage conform`: the conformance oracle as a pre-PR gate.
//!
//! Three sections, each with its own table:
//!
//! 1. **Invariant matrix** — every engine policy under every named fault
//!    scenario, checked for replay determinism, agreement with the naive
//!    reference simulator, stream/result consistency, memory envelopes,
//!    box geometry, and (DET-PAR, clean) the paper's phase/strip structure.
//! 2. **Differential sweep** — the optimized engine vs the reference
//!    simulator, event-for-event, on generated workloads.
//! 3. **Competitive envelope** — measured makespan ratios on Theorem-4
//!    adversarial instances must stay inside a `c·log p` envelope.
//!
//! Exits non-zero on any violation, divergence, or envelope excursion.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_with, run_named_policy_faults};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    if args.flag("concurrent") {
        return exec_concurrent(args);
    }
    let quick = args.flag("quick");
    let params = model_with(args, 8, 8, 10, true)?;
    let seed: u64 = args.get("seed", 42)?;
    let len: usize = args.get("len", if quick { 600 } else { 2000 })?;
    let diff: usize = args.get("diff", if quick { 150 } else { 1000 })?;

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

    if failures > 0 {
        return Err(format!("conformance FAILED: {failures} violation(s)"));
    }
    println!("conformance: all checks passed");
    Ok(())
}

/// `parapage conform --concurrent`: the concurrent-substrate sweep.
///
/// Four sections:
///
/// 1. **Schedule exploration (exhaustive)** — DFS over thread
///    interleavings of the core split-ordered list ops, every history
///    checked for linearizability against a sequential set model.
/// 2. **Schedule exploration (random)** — seeded random sampling past the
///    DFS frontier of the deeper scenarios.
/// 3. **Sharded stress cells** — real OS threads hammering a sharded LRU;
///    per-shard ledgers replayed exactly against the sequential policy,
///    aggregate misses checked against the hit/miss envelope.
/// 4. **Sabotage self-checks** — re-enables the seeded
///    dropped-resize-fence bug and *requires* the explorer to catch it,
///    then re-enables the seeded stale-pin-retire bug and *requires* the
///    deterministic epoch drive to expose the slot recycled under a live
///    reader: a harness that cannot fail proves nothing.
fn exec_concurrent(args: &Args) -> Result<(), String> {
    use parapage::cache::concurrent::{sabotage, EpochGc};

    let quick = args.flag("quick");
    let budget: usize = args.get("budget", if quick { 4_000 } else { 24_000 })?;
    let seed: u64 = args.get("seed", 42)?;

    println!("concurrent conformance: schedule exploration budget {budget}\n");
    let mut failures = 0usize;
    let mut details: Vec<String> = Vec::new();

    // 1 + 2. Schedule exploration, exhaustive then random.
    let mut distinct_total = 0usize;
    let mut t = Table::new([
        "scenario",
        "mode",
        "executions",
        "distinct",
        "complete",
        "verdict",
    ]);
    for (mode_name, mode, share) in [
        ("exhaustive", ExploreMode::Exhaustive, budget),
        ("random", ExploreMode::Random { seed }, budget / 4),
    ] {
        for r in explore_all(share, mode) {
            distinct_total += r.distinct;
            if !r.passed() {
                failures += r.violations.len();
                for v in &r.violations {
                    details.push(v.clone());
                }
            }
            t.row([
                r.scenario.clone(),
                mode_name.to_string(),
                r.executions.to_string(),
                r.distinct.to_string(),
                r.complete.to_string(),
                if r.passed() {
                    "pass".to_string()
                } else {
                    format!("FAIL ({})", r.violations.len())
                },
            ]);
        }
    }
    println!("{t}");
    println!("distinct interleavings: {distinct_total}");
    if !quick && distinct_total < 10_000 {
        failures += 1;
        details.push(format!(
            "exploration coverage: only {distinct_total} distinct interleavings (need >= 10000)"
        ));
    }

    // 3. Sharded stress cells.
    println!("\nsharded stress (ledger replay + hit/miss envelope):");
    let ops = if quick { 400 } else { 2_000 };
    let mut t = Table::new(["threads", "capacity", "shards", "ops", "misses", "verdict"]);
    for (threads, capacity, shards) in [(2, 64, 4), (4, 128, 8), (8, 256, 8)] {
        let cell = check_concurrent_cache(threads, ops, capacity, shards, seed);
        if !cell.passed() {
            failures += cell.violations.len();
            for v in &cell.violations {
                details.push(format!("stress {threads}x{ops}/{shards}: {v}"));
            }
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

    // 4. Sabotage self-check: the harness must catch the seeded bug.
    let grow_fence = scenarios()
        .into_iter()
        .find(|s| s.name == "grow-fence")
        .expect("built-in grow-fence scenario");
    sabotage::set_resize_fence_bug(true);
    let sabotaged = explore(&grow_fence, 400, ExploreMode::Exhaustive);
    sabotage::set_resize_fence_bug(false);
    if sabotaged.violations.is_empty() {
        failures += 1;
        details.push(format!(
            "sabotage self-check: explorer missed the seeded resize-fence bug \
             in {} executions — the harness cannot fail",
            sabotaged.executions
        ));
        println!("\nsabotage self-check: FAIL (seeded bug not caught)");
    } else {
        println!(
            "\nsabotage self-check: pass (seeded resize-fence bug caught in {} \
             of {} executions)",
            sabotaged.violations.len().min(sabotaged.executions),
            sabotaged.executions
        );
    }

    // 4b. Stale-pin retire self-check: with the seeded bug on, a retire
    // under a pin that lags the global epoch by one must hand the slot
    // back on the very next advance, while a reader pinned at the newer
    // epoch is still live; with the bug off the slot must stay in limbo.
    let stale_retire_drive = || {
        let gc = EpochGc::new();
        let stale = gc.pin();
        let _ = gc.try_advance(); // 0 -> 1: pins at current never block
        let reader = gc.pin(); // pinned at 1, "holds" slot 7's index
        gc.retire(&stale, 7);
        drop(stale);
        let freed = gc.try_advance(); // 1 -> 2: not blocked by `reader`
        drop(reader);
        freed.contains(&7)
    };
    sabotage::set_stale_epoch_retire_bug(true);
    let buggy_freed_early = stale_retire_drive();
    sabotage::set_stale_epoch_retire_bug(false);
    let fixed_freed_early = stale_retire_drive();
    if !buggy_freed_early || fixed_freed_early {
        failures += 1;
        details.push(format!(
            "stale-retire self-check: seeded bug freed early = \
             {buggy_freed_early} (want true), fixed binning freed early = \
             {fixed_freed_early} (want false)"
        ));
        println!("stale-retire self-check: FAIL");
    } else {
        println!(
            "stale-retire self-check: pass (seeded stale-pin retire recycles \
             under a live reader; global-epoch binning does not)"
        );
    }

    for d in &details {
        println!("  violation: {d}");
    }
    if failures > 0 {
        return Err(format!(
            "concurrent conformance FAILED: {failures} violation(s)"
        ));
    }
    println!("concurrent conformance: all checks passed");
    Ok(())
}
