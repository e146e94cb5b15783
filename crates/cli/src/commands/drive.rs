//! `parapage drive`: the load driver — replay deterministic page-request
//! batches against a running server from many concurrent tenants and
//! report throughput and per-batch latency percentiles.
//!
//! With `--addr HOST:PORT` it drives an already-running `parapage serve`;
//! with `--spawn` (the default when `--addr` is absent) it starts an
//! in-process server on an ephemeral loopback port, drives it, and shuts
//! it down — one command for smoke tests and CI.
//!
//! Flags: `--requests N` (total, default 100000), `--tenants N`,
//! `--batches N` (per tenant), `--p/--k/--s`, `--policy NAME`, `--seed N`,
//! `--shards N`, `--fault KIND` (inject a deterministic transport fault —
//! `partial-writes`, `write-stall`, `read-stall`, `cut-send`, `cut-recv`,
//! `trickle` — into every tenant's first connection; the resilient client
//! must absorb it), `--fault-at N` (fault byte offset), `--expect-clean`
//! (exit non-zero on any *unrecovered* error or tenant restart — the
//! serve-smoke gate; recovered retries are reported but fine).

use parapage::conform::NetFaultKind;
use parapage_server::drive::{drive, DriveCfg};
use parapage_server::server::{serve, ServeOpts};

use crate::args::Args;
use crate::common::model_with;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let defaults = DriveCfg::default();
    let fault = match args.opt("fault") {
        Some(name) => Some(NetFaultKind::parse(&name).ok_or_else(|| {
            format!(
                "--fault {name}: unknown kind (expected one of {})",
                NetFaultKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?),
        None => None,
    };
    let params = model_with(args, defaults.p, defaults.k / defaults.p, defaults.s, false)?;
    let mut cfg = DriveCfg {
        tenants: args.get("tenants", defaults.tenants)?,
        batches: args.get("batches", defaults.batches)?,
        requests: args.get("requests", defaults.requests)?,
        p: params.p,
        k: params.k,
        s: params.s,
        policy: args
            .opt("policy")
            .unwrap_or_else(|| defaults.policy.clone()),
        seed: args.get("seed", defaults.seed)?,
        shards: args.get("shards", defaults.shards)?,
        fault,
        fault_at: args.get("fault-at", defaults.fault_at)?,
        ..defaults
    };
    let expect_clean = args.flag("expect-clean");
    let spawn = args.flag("spawn");
    let addr = args.opt("addr");
    args.finish()?;
    // A run that serves nothing would pass `--expect-clean` vacuously.
    let counts = [
        ("tenants", cfg.tenants as u64),
        ("batches", cfg.batches),
        ("requests", cfg.requests),
    ];
    if let Some((flag, _)) = counts.iter().find(|&&(_, n)| n == 0) {
        return Err(format!("--{flag} must be at least 1"));
    }

    let local = match &addr {
        Some(a) => {
            if spawn {
                return Err("--spawn and --addr are mutually exclusive".into());
            }
            cfg.addr = a.parse().map_err(|e| format!("--addr {a}: {e}"))?;
            None
        }
        None => {
            // No server given: spawn one in-process on an ephemeral port.
            let handle = serve("127.0.0.1:0", ServeOpts::default())
                .map_err(|e| format!("spawn server: {e}"))?;
            cfg.addr = handle.addr();
            cfg.shutdown = true;
            println!("parapage drive: spawned server on {}", cfg.addr);
            Some(handle)
        }
    };

    println!(
        "parapage drive: {} tenants x {} batches of {} requests/seq \
         ({} policy, p={} k={} s={}) against {}",
        cfg.tenants,
        cfg.batches,
        cfg.seq_len(),
        cfg.policy,
        cfg.p,
        cfg.k,
        cfg.s,
        cfg.addr
    );
    let report = drive(&cfg);
    if let Some(handle) = local {
        handle.join();
    }
    println!("{}", report.summary_line());
    println!("{}", report.retry_line());
    if let Some(stats) = report.stats {
        println!(
            "server: {} tenants, {} batches, {} requests, {} restarts, \
             {} migrations, {} WAL records, {} checkpoint bytes, \
             {} idle expiries, {} shed connections",
            stats.tenants,
            stats.batches,
            stats.requests,
            stats.restarts,
            stats.migrations,
            stats.wal_records,
            stats.checkpoint_bytes,
            stats.expiries,
            stats.shed
        );
    }

    let expected_batches = (cfg.tenants as u64) * cfg.batches;
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} protocol errors over the drive",
            report.protocol_errors
        ));
    }
    if report.batches != expected_batches {
        return Err(format!(
            "only {}/{} batches acknowledged",
            report.batches, expected_batches
        ));
    }
    if expect_clean {
        match report.stats {
            Some(s) if s.restarts > 0 => {
                return Err(format!(
                    "--expect-clean: server absorbed {} tenant restarts",
                    s.restarts
                ))
            }
            Some(_) => {}
            None => return Err("--expect-clean: stats unavailable".into()),
        }
    }
    Ok(())
}
