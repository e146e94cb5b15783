//! # parapage-bench
//!
//! The benchmark/experiment harness: one binary per experiment in
//! DESIGN.md's index (E1–E16, `src/bin/exp_*.rs`) and the [`suite`] behind
//! `parapage bench`, which times every substrate hot path.
//!
//! Every experiment binary accepts:
//!
//! * `--csv` — emit CSV instead of the aligned table;
//! * `--quick` — shrink sweeps for smoke-testing;
//! * `--seed <n>` — override the base seed.
//!
//! Sweeps across `(p, seed)` grids are embarrassingly parallel and run on
//! the workspace's vendored thread pool (`stubs/rayon`: scoped worker
//! threads behind the familiar `par_iter()` API — **not** the crates.io
//! rayon). Results are deterministic and order-stable for every worker
//! count because each grid cell writes into its pre-assigned slot; set
//! `PARAPAGE_THREADS=1` (or call `rayon::pool::threads(1)`) to force
//! sequential execution when debugging, and `PARAPAGE_THREADS=<n>` to pin
//! any other width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod recipes;
pub mod suite;

use parapage::prelude::Table;

/// Parsed command-line options shared by every experiment binary.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Shrink the sweep for a fast smoke run.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            csv: false,
            quick: false,
            seed: 0xC0FFEE,
        }
    }
}

/// Parses `--csv`, `--quick`, and `--seed <n>` from `std::env::args`.
pub fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => cli.csv = true,
            "--quick" => cli.quick = true,
            "--seed" => {
                cli.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            other => {
                eprintln!("unknown flag {other}; supported: --csv --quick --seed <n>");
                std::process::exit(2);
            }
        }
    }
    cli
}

/// Prints a table in the format the CLI selected.
pub fn emit(title: &str, table: &Table, cli: &Cli) {
    if cli.csv {
        print!("{}", table.csv());
    } else {
        println!("== {title} ==");
        println!("{table}");
    }
}
