//! `parapage compare`: every policy on the same workload.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_from, run_named_policy, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let w = workload_from(args, &params)?;
    let seed: u64 = args.get("seed", 42)?;
    args.finish()?;
    let opts = EngineOpts::default();
    let lb = opt_lower_bound(w.seqs(), params.k, params.s);

    println!(
        "comparing on {} ({} requests, T_OPT lower bound {lb})\n",
        params,
        w.total_requests()
    );
    let mut t = Table::new([
        "policy",
        "makespan",
        "vs LB",
        "mean compl",
        "miss %",
        "peak mem",
    ]);
    for &name in BOX_POLICIES.iter().chain(&["shared-lru"]) {
        let res = run_named_policy(name, &w, &params, &opts, seed)?;
        t.row([
            name.to_string(),
            res.makespan.to_string(),
            format!("{:.2}", res.makespan as f64 / lb.max(1) as f64),
            format!("{:.0}", res.mean_completion()),
            format!("{:.1}", 100.0 * res.stats.miss_ratio()),
            res.peak_memory.to_string(),
        ]);
    }
    println!("{t}");
    Ok(())
}
