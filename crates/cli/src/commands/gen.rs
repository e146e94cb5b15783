//! `parapage gen`: generate a workload and persist it as a trace file.

use crate::args::Args;
use crate::common::{model_from, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let w = workload_from(args, &params)?;
    let out = args.require("out")?;
    args.finish()?;
    parapage::workloads::trace::save(&w, std::path::Path::new(&out))
        .map_err(|e| format!("--out {out}: {e}"))?;
    println!(
        "wrote {} processors / {} requests to {out}",
        w.p(),
        w.total_requests()
    );
    Ok(())
}
