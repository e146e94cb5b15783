//! `parapage chaos`: the recovery matrices as a pre-PR gate.
//!
//! Every matrix reports the same cell shape (see `parapage_conform::chaos`):
//! a label, a few counters, and a byte-identity verdict against an
//! uninterrupted baseline. The default run has three matrices:
//!
//! 1. **resume** — every engine policy × every named fault scenario,
//!    crashed at deterministic crashpoints (fractions of each cell's
//!    baseline tick count) under the supervisor; the recovered
//!    [`RunResult`] and trace stream must be byte-identical;
//! 2. **snapshot** — bit-flipped and truncated snapshots must be rejected
//!    with typed errors for every policy;
//! 3. **WAL** — torn tails, partial tails, mid-record truncations, bit
//!    flips, stale-base/newer-log pairings and corrupt bases inflicted on
//!    the incremental checkpoint log at recovery time must each surface as
//!    a typed truncation and still recover byte-identically.
//!
//! Flags: `--seed N` re-seeds every workload and policy deterministically
//! (two runs with the same seed are byte-identical); `--cells SUBSTR[,..]`
//! runs only the cells whose label (`policy/scenario`, `policy`,
//! `policy/corruption`, or a net cell's label) contains one of the given
//! substrings; `--wal` runs the WAL matrix alone; `--net` runs the
//! network chaos matrix instead — every transport fault kind × cut point
//! × tenant count against a live server, each cell required to produce
//! reply streams byte-identical to a clean run after retries, plus the
//! idle-expiry and load-shedding cells (`--quick` reduces every grid).
//!
//! Exits non-zero on any divergence, failed recovery, or accepted
//! corruption.

use std::iter::once;

use parapage::prelude::*;
use parapage_server::netchaos::net_chaos_matrix;

use crate::args::Args;
use crate::common::model_with;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let seed: u64 = args.get("seed", 42)?;
    let filter = CellFilter::parse(args.opt("cells").as_deref());
    let matrices = if args.flag("net") {
        args.finish()?;
        vec![net_chaos_matrix(seed, quick, &filter)?]
    } else {
        let params = model_with(args, if quick { 4 } else { 8 }, 8, 10, true)?;
        let len: usize = args.get("len", if quick { 300 } else { 1200 })?;
        let wal_only = args.flag("wal");
        // Reject stray flags before the long run, not after it.
        args.finish()?;
        chaos_matrices(&params, len, seed, wal_only, &filter)?
    };

    let (mut cells, mut skipped, mut failures) = (0, 0, 0);
    for m in &matrices {
        println!("{}\n", m.title);
        let mut t = Table::new(
            once("cell")
                .chain(m.columns.iter().copied())
                .chain(once("verdict")),
        );
        for c in &m.cells {
            let counters = (0..m.columns.len())
                .map(|i| c.counters.get(i).map_or("-".to_string(), u64::to_string));
            let verdict = if c.passed() {
                "pass".to_string()
            } else {
                format!("FAIL ({})", c.violations.len())
            };
            t.row(once(c.label.clone()).chain(counters).chain(once(verdict)));
        }
        println!("{t}");
        for c in &m.cells {
            for v in &c.violations {
                println!("  violation: {}: {v}", c.label);
            }
        }
        println!();
        cells += m.cells.len();
        skipped += m.skipped;
        failures += m.violations();
    }

    if failures > 0 {
        return Err(format!("chaos matrix FAILED: {failures} violation(s)"));
    }
    if cells == 0 {
        return Err(format!(
            "--cells {filter} matched no cells ({skipped} skipped)"
        ));
    }
    println!(
        "chaos matrix passed: {cells} cells recovered byte-identically{}",
        if skipped > 0 {
            format!(" ({skipped} filtered out by --cells)")
        } else {
            String::new()
        }
    );
    Ok(())
}
