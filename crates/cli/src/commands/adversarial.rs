//! `parapage adversarial`: build a Theorem-4 instance and race the online
//! policies against the Lemma-8 OPT schedule.

use parapage::prelude::*;

use crate::args::Args;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let p: usize = args.get("p", 16)?;
    let k: usize = args.get("k", 4 * p)?;
    let s: u64 = args.get("s", k as u64)?;
    let alpha: f64 = args.get("alpha", 0.05)?;
    let seed: u64 = args.get("seed", 42)?;
    args.finish()?;
    if !p.is_power_of_two() || p < 4 {
        return Err("--p must be a power of two >= 4".into());
    }
    if !k.is_power_of_two() || k < 2 * p {
        return Err("--k must be a power of two >= 2p".into());
    }

    let cfg = AdversarialConfig::scaled(p, k, s, alpha);
    let inst = AdversarialInstance::build(cfg);
    let params = cfg.params();
    println!(
        "instance: p={p} k={k} s={s} gamma={} suffix_phases={} \
         ({} prefixed sequences, {} total requests)\n",
        cfg.gamma,
        cfg.suffix_phases,
        inst.num_prefixed(),
        inst.workload.total_requests()
    );

    let sched = lemma8_makespan(&inst);
    let opts = EngineOpts::default();
    let seqs = inst.workload.seqs();

    let mut t = Table::new(["algorithm", "makespan", "vs OPT"]);
    t.row([
        "OPT (Lemma 8 schedule)".to_string(),
        sched.makespan().to_string(),
        "1.00".to_string(),
    ]);
    let mut det = DetPar::new(&params);
    let det_ms = run_engine(&mut det, seqs, &params, &opts)
        .map_err(|e| e.to_string())?
        .makespan;
    t.row([
        "DET-PAR".to_string(),
        det_ms.to_string(),
        format!("{:.3}", det_ms as f64 / sched.makespan() as f64),
    ]);
    let mut rnd = RandPar::new(&params, seed);
    let rnd_ms = run_engine(&mut rnd, seqs, &params, &opts)
        .map_err(|e| e.to_string())?
        .makespan;
    t.row([
        "RAND-PAR".to_string(),
        rnd_ms.to_string(),
        format!("{:.3}", rnd_ms as f64 / sched.makespan() as f64),
    ]);
    let pagers: Vec<RandGreen> = (0..p as u64)
        .map(|i| RandGreen::new(&params, seed ^ i))
        .collect();
    let mut bb = BlackboxGreenPacker::new(&params, pagers);
    let bb_ms = run_engine(&mut bb, seqs, &params, &opts)
        .map_err(|e| e.to_string())?
        .makespan;
    t.row([
        "BB-GREEN".to_string(),
        bb_ms.to_string(),
        format!("{:.3}", bb_ms as f64 / sched.makespan() as f64),
    ]);
    println!("{t}");
    println!(
        "OPT split: prefixes {} + suffixes {} (suffix-dominated, per Lemma 8)",
        sched.prefix_time, sched.suffix_time
    );
    Ok(())
}
