//! `parapage` — command-line interface to the parallel paging simulators.
//!
//! ```text
//! parapage run         --policy det-par --p 8 --k 128 --workload mixed [--gantt]
//! parapage compare     --p 8 --k 128 --workload skewed
//! parapage adversarial --p 32 --k 128 [--alpha 0.05]
//! parapage green       --p 8 --k 64 --workload mixed [--seeds 8]
//! parapage audit       --p 8 --k 64 [--slack 4]
//! parapage bench       [--quick] [--threads N] [--out FILE] [--baseline FILE]
//! parapage faults      --policy det-par --p 8 --k 128 --workload mixed
//! parapage conform     [--quick] [--diff N]
//! parapage chaos       [--quick] [--wal] [--net] [--cells SUBSTR]
//! parapage profile     --p 8 --k 64 [--width 80]
//! parapage analyze     --trace FILE [--max-cap 256]
//! parapage gen         --workload mixed --p 8 --k 128 --out FILE
//! parapage serve       [--addr 127.0.0.1:7717] [--max-tenants 64]
//! parapage drive       [--requests 100000] [--tenants 4] [--expect-clean]
//! parapage help
//! ```
//!
//! Every subcommand prints an aligned table; see `parapage help` for all
//! flags.
//! Each one reads all its flags and rejects an unknown one before it does
//! any work, so a mistyped flag writes no file and opens no socket.

mod args;
mod commands;
mod common;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    // Help wins over everything else on the line and runs nothing: a
    // command that takes `--help` for an unknown flag would only reject
    // it after doing (and writing) its work.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", commands::USAGE);
        return ExitCode::SUCCESS;
    }
    let parsed = match args::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "run" => commands::run::exec(&parsed),
        "compare" => commands::compare::exec(&parsed),
        "adversarial" => commands::adversarial::exec(&parsed),
        "audit" => commands::audit::exec(&parsed),
        "bench" => commands::bench::exec(&parsed),
        "chaos" => commands::chaos::exec(&parsed),
        "conform" => commands::conform::exec(&parsed),
        "faults" => commands::faults::exec(&parsed),
        "green" => commands::green::exec(&parsed),
        "profile" => commands::profile::exec(&parsed),
        "serve" => commands::serve::exec(&parsed),
        "drive" => commands::drive::exec(&parsed),
        "analyze" => commands::analyze::exec(&parsed),
        "gen" => commands::gen::exec(&parsed),
        "help" | "--help" | "-h" => parsed.finish().map(|()| println!("{}", commands::USAGE)),
        other => Err(format!("unknown command `{other}`\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
