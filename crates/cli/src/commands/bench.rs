//! `parapage bench`: the perf-trajectory benchmark gate.
//!
//! Runs the fixed recipe in [`parapage_bench::suite`] — engine, sweep,
//! checkpoint, server, concurrent, and single-thread `offline/*` and
//! `ops/*` hot paths, each once under `threads(1)` and once at the
//! requested width — and emits `BENCH_5.json` (wall time, runs/sec,
//! speedup vs the sequential leg, per-entry determinism verdicts) to the
//! file named by `--out`.
//! Without `--out` the report is printed and no file is written.
//!
//! Exit is non-zero when:
//!
//! * any entry's two legs diverge (the pool's determinism contract is
//!   broken);
//! * the speedup gate is enforced (multi-core host, full recipe) and the
//!   aggregate speedup falls below the bar;
//! * an `ops/*` entry's single-thread throughput drops below its pinned
//!   floor ([`parapage_bench::suite::OPS_FLOORS`], release builds only);
//! * `--baseline <BENCH_n.json>` was given, the recipe is full, and the
//!   aggregate single-thread improvement over the shared entries falls
//!   below [`parapage_bench::suite::BASELINE_IMPROVEMENT_GATE`].
//!
//! `--profile` additionally runs one instrumented det-par engine run plus
//! a pool grid and writes the coarse per-phase timer breakdown (alloc /
//! policy / cache / pool / other), also written as `<out>.profile.json`
//! when `--out` is given.

use parapage_bench::profile::profile_run;
use parapage_bench::suite::{parse_baseline, run_suite, BASELINE_IMPROVEMENT_GATE, SPEEDUP_GATE};
use rayon::pool;

use crate::args::Args;

/// Stable identifier of this benchmark generation: bump the suffix when
/// the recipe changes shape so trajectories stay comparable.
const BENCH_ID: &str = "BENCH_5";

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let profile = args.flag("profile");
    let baseline_path = args.opt("baseline");
    let seed: u64 = args.get("seed", 42)?;
    let threads: usize = args.get("threads", pool::current_threads())?;
    let out = args.opt("out");
    if threads < 1 {
        return Err("--threads must be at least 1".into());
    }
    args.finish()?;

    println!(
        "benchmark suite ({}, seed {seed}): threads(1) vs threads({threads}) on {} core(s)\n",
        if quick { "quick recipe" } else { "full recipe" },
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    let report = run_suite(quick, seed, threads);

    let mut t = parapage::prelude::Table::new([
        "entry",
        "runs",
        "secs @1",
        "secs @N",
        "runs/s @1",
        "runs/s @N",
        "speedup",
        "deterministic",
    ]);
    for e in &report.entries {
        t.row([
            e.name.to_string(),
            e.runs.to_string(),
            format!("{:.3}", e.secs_base),
            format!("{:.3}", e.secs_par),
            format!("{:.1}", e.runs as f64 / e.secs_base.max(1e-9)),
            format!("{:.1}", e.runs as f64 / e.secs_par.max(1e-9)),
            format!("{:.2}x", e.speedup()),
            if e.deterministic() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{t}");

    let ckpt_bytes = |name: &str| {
        report
            .entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.bytes)
    };
    if let (Some(full), Some(wal)) = (
        ckpt_bytes("checkpoint/full-snapshot"),
        ckpt_bytes("checkpoint/wal-delta"),
    ) {
        println!(
            "checkpoint payload per run: full snapshots {full} bytes, WAL deltas {wal} bytes \
             ({:.1}% of full)",
            wal as f64 / full.max(1) as f64 * 100.0
        );
    }

    // Baseline comparison: parse the prior generation's single-thread
    // rates and report per-entry improvement over the shared entries.
    let comparison = match &baseline_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading --baseline {path}: {e}"))?;
            let (base_id, base_rates) = parse_baseline(&text)?;
            let cmp = report.compare_baseline(&base_id, &base_rates);
            if cmp.entries.is_empty() {
                return Err(format!(
                    "--baseline {path} ({base_id}) shares no entries with this recipe"
                ));
            }
            let mut bt = parapage::prelude::Table::new([
                "entry",
                "base runs/s @1",
                "runs/s @1",
                "improvement",
            ]);
            for d in &cmp.entries {
                bt.row([
                    d.name.clone(),
                    format!("{:.1}", d.base_rate),
                    format!("{:.1}", d.new_rate),
                    format!("{:.2}x", d.ratio()),
                ]);
            }
            println!("single-thread improvement vs {base_id}:");
            println!("{bt}");
            println!(
                "aggregate single-thread improvement (geomean over {} shared entries): {:.2}x",
                cmp.entries.len(),
                cmp.aggregate_improvement()
            );
            Some(cmp)
        }
        None => None,
    };

    println!(
        "aggregate speedup (sweep entries): {:.2}x",
        report.aggregate_speedup()
    );
    if let Some(out) = &out {
        let json = report.to_json_with(BENCH_ID, comparison.as_ref());
        std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }

    if profile {
        let prof = profile_run(quick, seed);
        println!(
            "phase profile ({} engine events): alloc {:.1}ms, policy {:.1}ms, cache {:.1}ms, \
             pool {:.1}ms, other {:.1}ms",
            prof.engine_events,
            prof.alloc_secs * 1e3,
            prof.policy_secs * 1e3,
            prof.cache_secs * 1e3,
            prof.pool_secs * 1e3,
            prof.other_secs * 1e3,
        );
        if let Some(out) = &out {
            let prof_out = format!("{}.profile.json", out.trim_end_matches(".json"));
            std::fs::write(&prof_out, prof.to_json(quick, seed))
                .map_err(|e| format!("writing {prof_out}: {e}"))?;
            println!("wrote {prof_out}");
        }
    }

    if !report.deterministic() {
        return Err(
            "determinism violation: a suite entry produced different results under \
             threads(1) and the parallel leg"
                .into(),
        );
    }
    // The ops floors are wall-clock assertions on optimized code; a debug
    // CLI build records the rates but cannot meaningfully enforce them.
    if cfg!(debug_assertions) {
        println!("ops floors: skipped (debug build)");
    } else {
        let failures = report.ops_floor_failures();
        if failures.is_empty() {
            println!("ops floors: pass");
        } else {
            return Err(format!(
                "ops floor regression: {}",
                failures
                    .iter()
                    .map(|(name, rate, floor)| format!("{name} {rate:.0}/s < floor {floor:.0}/s"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    if let Some(cmp) = &comparison {
        let enforced = !quick;
        if !enforced {
            println!("baseline gate: waived, recorded only (quick recipe)");
        } else if cmp.gate_passed(enforced) {
            println!(
                "baseline gate: {:.2}x >= {BASELINE_IMPROVEMENT_GATE}x vs {} — pass",
                cmp.aggregate_improvement(),
                cmp.baseline_id
            );
        } else {
            return Err(format!(
                "baseline gate FAILED: aggregate single-thread improvement {:.2}x < \
                 {BASELINE_IMPROVEMENT_GATE}x vs {}",
                cmp.aggregate_improvement(),
                cmp.baseline_id
            ));
        }
    }
    if report.gate_enforced() {
        if report.gate_passed() {
            println!(
                "speedup gate: {:.2}x >= {SPEEDUP_GATE}x — pass",
                report.aggregate_speedup()
            );
        } else {
            return Err(format!(
                "speedup gate FAILED: aggregate {:.2}x < {SPEEDUP_GATE}x on a \
                 {}-core host",
                report.aggregate_speedup(),
                report.host_cores
            ));
        }
    } else {
        println!(
            "speedup gate: waived, recorded only ({})",
            report.gate_waived_reason().unwrap_or("unknown")
        );
    }
    Ok(())
}
