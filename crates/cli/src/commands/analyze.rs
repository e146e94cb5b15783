//! `parapage analyze`: per-processor miss-ratio curves of a trace file.

use parapage::prelude::*;

use crate::args::Args;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let path = args.require("trace")?;
    let max_cap: usize = args.get("max-cap", 256)?;
    let s: u64 = args.get("s", 16)?;
    args.finish()?;
    let w = parapage::workloads::trace::load(std::path::Path::new(&path))
        .map_err(|e| format!("--trace {path}: {e}"))?;

    println!(
        "trace `{path}`: {} processors, {} requests\n",
        w.p(),
        w.total_requests()
    );
    let mut t = Table::new([
        "proc",
        "requests",
        "distinct",
        "belady@max",
        "lru@max",
        "curve (cap 1..max)",
    ]);
    for (x, seq) in w.seqs().iter().enumerate() {
        let curve = miss_curve(seq, max_cap);
        let samples: Vec<f64> = (1..=16)
            .map(|i| {
                let c = (max_cap * i / 16).max(1);
                curve.misses(c) as f64
            })
            .collect();
        t.row([
            format!("P{x}"),
            seq.len().to_string(),
            curve.distinct_pages().to_string(),
            min_misses(seq, max_cap).to_string(),
            curve.misses(max_cap).to_string(),
            sparkline(&samples),
        ]);
    }
    println!("{t}");
    println!(
        "service time at full capacity (hit=1, miss={s}): {:?}",
        w.seqs()
            .iter()
            .map(|q| miss_curve(q, max_cap).service_time(max_cap, s))
            .collect::<Vec<_>>()
    );
    Ok(())
}
