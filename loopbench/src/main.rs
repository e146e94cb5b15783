//! `loopbench`: the loopback serving benchmark.
//!
//! ```text
//! loopbench --workload bulk|chatty|wide-kill --seed N --seconds S --trace 0|1
//!           [--expect-chains HEX,HEX] [--spans PATH] [--latencies PATH]
//! ```
//!
//! With `--trace 0` it serves the workload over loopback for `S` seconds
//! and prints the end-to-end metrics; `--latencies` also writes the
//! measured round trips (ns, sorted, one per line) so several runs can be
//! pooled. With `--trace 1` it repeats the workload untraced and traced,
//! replays the same batches up the in-process ladder, writes the spans to
//! `PATH`, and prints the per-layer metrics computed from that dump.
//!
//! Every loopback reply is checked against an in-process
//! `TenantSession::run_batch`. The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. The exit code is 0 only
//! when everything checked out.

mod ladder;
mod load;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::load::{Phase, PhaseOut, TenantLog};
use crate::spans::Recorder;
use crate::stats::{median, min_samples, tail_percentile, Tally};
use crate::workload::{Inputs, Workload, TENANTS};

/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Untimed set-ups before them (the first connections of a process pay
/// one-off costs that are not the server's set-up).
const COLD_SETUPS: usize = 3;

/// Share of `--seconds` spent loading the cluster, untimed, before each
/// run's measurement starts.
const WARMUP_SHARE: f64 = 0.2;

/// Length of one traced loopback segment (and of the ladder passes after
/// it) in a traced run.
const TRACE_SEGMENT_S: f64 = 0.25;

/// The reply chain after this many batches is what `--expect-chains` pins.
const PIN_AFTER: usize = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_chains: Option<Vec<u64>>,
    spans: Option<PathBuf>,
    latencies: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut expect_chains = None;
    let mut spans = None;
    let mut latencies = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--expect-chains" => {
                let list = value()?;
                let chains = list
                    .split(',')
                    .map(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "bad --expect-chains")?;
                if chains.len() != TENANTS {
                    return Err(format!("--expect-chains needs {TENANTS} chains"));
                }
                expect_chains = Some(chains);
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--latencies" => latencies = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        expect_chains,
        spans,
        latencies,
    })
}

/// Peak resident set (`VmHWM`) in bytes.
fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// One metric as printed: name, value, unit.
struct Metric(&'static str, f64, &'static str);

fn phase(seconds: f64, min_batches: usize, trace: bool) -> Phase {
    let now = Instant::now();
    let span = Duration::from_secs_f64(seconds);
    Phase {
        deadline: now + span,
        min_batches,
        hard_stop: now + span * 3,
        trace,
    }
}

fn requests_per_s(outs: &[PhaseOut], wall: f64) -> f64 {
    outs.iter().map(|o| o.requests).sum::<u64>() as f64 / wall.max(1e-9)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let mut inputs = Inputs::generate(w, args.seed);
    let epoch = Instant::now();
    let empty_logs = || (0..TENANTS).map(|_| TenantLog::default()).collect();
    let mut tally = Tally::default();

    // Set up several times; keep the last cluster for the measurement.
    // Its logs are allocated (and touched) before its set-up is timed.
    let mut setup_s = Vec::new();
    let mut cluster_logs: Vec<Vec<TenantLog>> = Vec::new();
    for i in 0..COLD_SETUPS + SETUPS - 1 {
        let (c, s) = load::start(w, &mut inputs, empty_logs(), epoch)?;
        if i >= COLD_SETUPS {
            setup_s.push(s);
        }
        cluster_logs.push(c.finish(&mut inputs).0);
    }
    let cap = ((1.0 + WARMUP_SHARE) * args.seconds * w.max_batches_per_s).ceil() as usize + 1;
    let logs = (0..TENANTS)
        .map(|_| TenantLog::with_capacity(cap))
        .collect();
    let mut ladder = args.trace.then(|| ladder::Ladder::new(w, &inputs));
    let (cluster, s) = load::start(w, &mut inputs, logs, epoch)?;
    setup_s.push(s);
    let (warm, _) = cluster.run(phase(args.seconds * WARMUP_SHARE, 0, false));
    for o in &warm {
        tally.absorb(o.tally);
    }

    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut starved = false;
    let mut rec = Recorder::new(epoch, 0);
    let mut layer_inputs = None;
    let logs = if !args.trace {
        let per_tenant = min_samples(0.9).div_ceil(TENANTS);
        let (outs, wall) = cluster.run(phase(args.seconds, per_tenant, false));
        let peak_rss = peak_rss_bytes();
        let (logs, _) = cluster.finish(&mut inputs);
        let mut lat: Vec<u64> = Vec::new();
        for o in &outs {
            tally.absorb(o.tally);
            lat.extend_from_slice(&logs[o.tenant].latencies_ns[o.latencies.clone()]);
        }
        lat.sort_unstable();
        if let Some(path) = &args.latencies {
            let text: String = lat.iter().map(|ns| format!("{ns}\n")).collect();
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        // p99 is printed with its sample count but is not a gated metric:
        // on a shared two-core host it follows scheduler preemptions, not
        // the server (see README.md). p90 is the gated tail.
        let p99 = tail_percentile(&lat, 0.99);
        let p90 = tail_percentile(&lat, 0.9);
        if p90.is_none() {
            starved = true;
            notes.push(format!(
                "only {} batch samples: p90 needs {}",
                lat.len(),
                min_samples(0.9)
            ));
        }
        let us = |v: Option<u64>| v.unwrap_or(0) as f64 / 1e3;
        metrics.push(Metric("setup_s", median(&setup_s), "s"));
        metrics.push(Metric("req_per_s", requests_per_s(&outs, wall), "1/s"));
        metrics.push(Metric("batch_p50_us", us(tail_percentile(&lat, 0.5)), "us"));
        metrics.push(Metric("batch_p90_us", us(p90), "us"));
        metrics.push(Metric("peak_rss_mb", peak_rss / (1 << 20) as f64, "MB"));
        notes.push(match p99 {
            Some(v) => format!(
                "batch_p99_us {} (samples={} beyond_p99={})",
                v as f64 / 1e3,
                lat.len(),
                stats::beyond(lat.len(), 0.99)
            ),
            None => format!(
                "batch_p99_us n/a: {} samples leave fewer than ten beyond p99",
                lat.len()
            ),
        });
        notes.push(format!(
            "peak_rss_mb includes pre-generated input_bytes={} and record buffers of {} batches per tenant",
            inputs.bytes, cap
        ));
        logs
    } else {
        // A third untraced, then traced loopback segments alternating with
        // ladder passes, so host speed drifts over both alike.
        let third = args.seconds / 3.0;
        let (outs_a, wall_a) = cluster.run(phase(third, 0, false));
        let mut traced = Vec::new();
        let mut wall_b = 0.0;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < 2.0 * third {
            let (outs, wall) = cluster.run(phase(TRACE_SEGMENT_S, 0, true));
            wall_b += wall;
            traced.extend(outs);
            if let Some(l) = ladder.as_mut() {
                l.run_for(Duration::from_secs_f64(TRACE_SEGMENT_S), &mut rec);
            }
        }
        for o in outs_a.iter().chain(&traced) {
            tally.absorb(o.tally);
        }
        let overhead = requests_per_s(&traced, wall_b) / requests_per_s(&outs_a, wall_a).max(1e-9);
        let (logs, server_stats) = cluster.finish(&mut inputs);
        for o in traced {
            rec.spans.extend(o.spans);
        }
        let counts = ladder.take().expect("traced run").finish(&logs[0].head);
        layer_inputs = Some((counts, server_stats, overhead, Summary::of(&logs)));
        logs
    };
    cluster_logs.push(logs);

    // Correctness: every reply against the in-process reference. The pins
    // are checked on the measured cluster, the last one.
    let mut pinned = Vec::new();
    for (i, set) in cluster_logs.iter().enumerate() {
        let verified = load::verify(w, &inputs, set, PIN_AFTER);
        for (log, v) in set.iter().zip(&verified) {
            tally.absorb(log.tally);
            tally.fail(v.mismatches);
        }
        if i + 1 == cluster_logs.len() {
            pinned = verified.iter().map(|v| v.pinned_chain).collect();
        }
    }
    let mut correct = tally.failed == 0 && !starved;
    for (t, chain) in pinned.iter().enumerate() {
        match chain {
            Some(c) => notes.push(format!(
                "reply_chain tenant={t} after={PIN_AFTER} chain={c:016x}"
            )),
            None => notes.push(format!(
                "reply_chain tenant={t}: fewer than {PIN_AFTER} batches acknowledged"
            )),
        }
    }
    if let Some(expect) = &args.expect_chains {
        for (t, want) in expect.iter().enumerate() {
            if pinned.get(t).copied().flatten() != Some(*want) {
                notes.push(format!(
                    "pinned chain mismatch: tenant {t} expected {want:016x}"
                ));
                tally.failed += 1;
                tally.attempted = tally.attempted.max(tally.failed);
                correct = false;
            }
        }
    }
    notes.push(format!(
        "error_rate {} (failed={} attempted={})",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    ));

    if let Some((counts, server_stats, overhead, summary)) = layer_inputs {
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_build/loopbench/spans-{}-{}.tsv",
                w.name, args.seed
            ))
        });
        let spans = spans::dump_and_reload(&path, &rec.spans)?;
        notes.push(format!("spans={} dump={}", spans.len(), path.display()));
        let l = ladder::layers(w, &spans);
        if counts.mismatches > 0 {
            notes.push(format!("ladder mismatches={}", counts.mismatches));
            correct = false;
        }
        notes.push(format!("ladder passes={}", counts.passes));
        let ns_per_tick = if counts.ticks > 0.0 {
            l.engine_self_us * 1e3 / counts.ticks
        } else {
            0.0
        };
        metrics.extend([
            Metric(
                "cache.ns_per_access",
                l.cache_us * 1e3 / counts.accesses.max(1.0),
                "ns",
            ),
            Metric("cache.hit_ratio", summary.hit_ratio, "ratio"),
            Metric("cache.accesses_per_batch", summary.accesses, "count"),
            Metric("core.policy_build_us", l.policy_build_us, "us"),
            Metric("core.grants_per_batch", summary.grants, "count"),
            Metric("sched.engine.self_us_per_batch", l.engine_self_us, "us"),
            Metric("sched.engine.ticks_per_batch", counts.ticks, "count"),
            Metric("sched.engine.ns_per_tick", ns_per_tick, "ns"),
            Metric(
                "sched.supervisor.self_us_per_batch",
                l.supervisor_self_us,
                "us",
            ),
            Metric(
                "sched.supervisor.kill_self_us_per_batch",
                l.supervisor_kill_self_us,
                "us",
            ),
            Metric("sched.supervisor.epochs_per_batch", counts.epochs, "count"),
            Metric(
                "sched.supervisor.wal_records_per_batch",
                counts.wal_records,
                "count",
            ),
            Metric(
                "sched.supervisor.checkpoint_bytes_per_batch",
                counts.checkpoint_bytes,
                "B",
            ),
            Metric(
                "sched.supervisor.crashes_per_batch",
                counts.crashes,
                "count",
            ),
            Metric(
                "sched.supervisor.resumes_per_batch",
                counts.resumes,
                "count",
            ),
            Metric("server.tenant.self_us_per_batch", l.tenant_self_us, "us"),
            Metric("server.protocol.encode_us_per_batch", l.encode_us, "us"),
            Metric("server.protocol.decode_us_per_batch", l.decode_us, "us"),
            Metric("server.protocol.c2s_bytes_per_batch", counts.c2s_bytes, "B"),
            Metric("server.protocol.s2c_bytes_per_batch", counts.s2c_bytes, "B"),
            Metric(
                "server.loopback.self_us_per_batch",
                l.loopback_self_us,
                "us",
            ),
            Metric("server.loopback.round_trip_us", l.round_trip_us, "us"),
            Metric("server.restarts", server_stats.restarts as f64, "count"),
            Metric("server.shed", server_stats.shed as f64, "count"),
            Metric("trace.overhead_ratio", overhead, "ratio"),
            Metric("ladder.inversions", l.inversions as f64, "count"),
        ]);
    }

    for n in &notes {
        println!("# {n}");
    }
    for Metric(name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|Metric(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Means over every loopback `BatchDone` a set of tenants received.
struct Summary {
    hit_ratio: f64,
    accesses: f64,
    grants: f64,
}

impl Summary {
    fn of(logs: &[TenantLog]) -> Summary {
        let (hits, misses, grants, n) = logs.iter().fold((0, 0, 0, 0), |a, l| {
            (
                a.0 + l.hits,
                a.1 + l.misses,
                a.2 + l.grants,
                a.3 + l.keys.len(),
            )
        });
        let n = n.max(1) as f64;
        Summary {
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            accesses: (hits + misses) as f64 / n,
            grants: grants as f64 / n,
        }
    }
}
