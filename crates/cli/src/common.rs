//! Shared helpers for the CLI subcommands: workload construction and policy
//! dispatch by name.

use parapage::prelude::*;

use crate::args::Args;

/// Model parameters from `--p/--k/--s` (defaults 8/128/16).
pub fn model_from(args: &Args) -> Result<ModelParams, String> {
    model_with(args, 8, 16, 16, false)
}

/// Validated model parameters from `--p/--k/--s`, `--k` defaulting to
/// `k_per_p` pages per processor. With `pow2_k`, `--k` must also be a
/// power of two: the §2 normal form (and the black-box packer's capacity
/// assertion) want one, and insisting keeps the geometry checker
/// meaningful. Every command that takes these flags comes through here,
/// so a bad value is a usage error, never a panic.
pub fn model_with(
    args: &Args,
    p_default: usize,
    k_per_p: usize,
    s_default: u64,
    pow2_k: bool,
) -> Result<ModelParams, String> {
    let p: usize = args.get("p", p_default)?;
    let k: usize = args.get("k", k_per_p * p)?;
    let s: u64 = args.get("s", s_default)?;
    if p == 0 {
        return Err("--p must be at least 1".into());
    }
    if k < p || (pow2_k && !k.is_power_of_two()) {
        let bound = if pow2_k {
            "a power of two >="
        } else {
            "at least"
        };
        return Err(format!("--k {k} must be {bound} --p {p}"));
    }
    if s < 2 {
        return Err("--s must be at least 2".into());
    }
    Ok(ModelParams::new(p, k, s))
}

/// Builds the named workload family (`--workload`, default `mixed`).
pub fn workload_from(args: &Args, params: &ModelParams) -> Result<Workload, String> {
    let name = args.opt("workload").unwrap_or_else(|| "mixed".into());
    let len: usize = args.get("len", 5000)?;
    let seed: u64 = args.get("seed", 42)?;
    if let Some(path) = args.opt("trace") {
        return parapage::workloads::trace::load(std::path::Path::new(&path))
            .map_err(|e| format!("--trace {path}: {e}"));
    }
    let (p, k) = (params.p, params.k);
    let specs: Vec<SeqSpec> = match name.as_str() {
        "mixed" => (0..p)
            .map(|x| match x % 4 {
                0 => SeqSpec::Cyclic {
                    width: (k / 16).max(2),
                    len,
                },
                1 => SeqSpec::Cyclic { width: k / 2, len },
                2 => SeqSpec::Zipf {
                    universe: (k / 2).max(4),
                    theta: 0.9,
                    len,
                },
                _ => SeqSpec::Phased {
                    phases: vec![((k / 16).max(2), len / 2), (k / 2, len - len / 2)],
                },
            })
            .collect(),
        "skewed" => (0..p)
            .map(|x| {
                if x == 0 {
                    SeqSpec::Cyclic {
                        width: 3 * k / 4,
                        len,
                    }
                } else {
                    SeqSpec::Cyclic { width: 4, len }
                }
            })
            .collect(),
        "uniform" => (0..p)
            .map(|_| SeqSpec::Uniform {
                universe: (2 * k / p).max(2),
                len,
            })
            .collect(),
        "fresh" => (0..p).map(|_| SeqSpec::Fresh { len }).collect(),
        "zipf" => (0..p)
            .map(|_| SeqSpec::Zipf {
                universe: k,
                theta: 0.9,
                len,
            })
            .collect(),
        other => {
            return Err(format!(
                "unknown --workload `{other}` (mixed|skewed|uniform|fresh|zipf, \
                 or --trace FILE)"
            ))
        }
    };
    Ok(build_workload(&specs, seed))
}

/// Runs the named policy (`det-par`, `rand-par`, `static`, `prop-miss`,
/// `ucp`, `bb-green`, `shared-lru`) on the workload.
pub fn run_named_policy(
    name: &str,
    w: &Workload,
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
) -> Result<RunResult, String> {
    if name == "shared-lru" {
        return Ok(run_shared_lru(w.seqs(), params.k, params.s));
    }
    run_named_policy_faults(name, w, params, opts, seed, &FaultPlan::none(), false)?
        .map_err(|e| format!("policy `{name}`: {e}"))
}

/// Runs a named *box* policy under a fault plan, optionally wrapped in
/// [`HardenedAllocator`] (budget = `k`, so the wrapper reacts to pressure
/// events instead of tripping the engine's limit).
///
/// The outer `Err(String)` is a usage error (unknown policy name, or
/// `shared-lru`, which runs outside the box engine and takes no faults);
/// the inner `Result` is the run outcome, with [`EngineError`] reported as
/// data so callers like the fault matrix can tabulate failures.
pub fn run_named_policy_faults(
    name: &str,
    w: &Workload,
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    hardened: bool,
) -> Result<Result<RunResult, EngineError>, String> {
    if name == "shared-lru" {
        return Err("`shared-lru` runs outside the box engine (no fault injection)".into());
    }
    let mut alloc = boxed_policy(name, params, seed, hardened).map_err(|_| {
        format!(
            "unknown --policy `{name}` ({}|shared-lru)",
            BOX_POLICIES.join("|")
        )
    })?;
    Ok(run_engine_with(
        &mut *alloc,
        w.seqs(),
        params,
        opts,
        plan,
        |_| LruCache::new(0),
        &mut NullSink,
    ))
}
