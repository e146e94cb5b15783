//! End-to-end tests of the `parapage` binary: every subcommand runs, exits
//! zero, and emits the expected table shapes; bad flags exit non-zero.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn parapage(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_parapage");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn parapage");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = parapage(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("adversarial"));
}

/// `--help` after a command prints usage and runs nothing: `bench --help`
/// once ran the full suite and wrote its JSON report before rejecting the
/// flag.
#[test]
fn help_after_a_command_runs_nothing() {
    let dir = std::env::temp_dir().join(format!("parapage_cli_help_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let exe = env!("CARGO_BIN_EXE_parapage");
    for args in [
        &["bench", "--help"][..],
        &["bench", "-h"],
        &["bench", "--quick", "--help"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn parapage");
        assert!(out.status.success(), "{args:?} exited {:?}", out.status);
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_args_fails_with_usage() {
    let (ok, _, stderr) = parapage(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn run_det_par_reports_metrics() {
    let (ok, stdout, stderr) = parapage(&[
        "run", "--policy", "det-par", "--p", "4", "--k", "32", "--len", "500",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("miss ratio"));
}

#[test]
fn run_with_gantt_renders_rows() {
    let (ok, stdout, _) = parapage(&[
        "run", "--policy", "static", "--p", "4", "--k", "32", "--len", "300", "--gantt",
    ]);
    assert!(ok);
    assert!(stdout.contains("P0"));
    assert!(stdout.contains("Gantt"));
}

#[test]
fn compare_lists_all_policies() {
    let (ok, stdout, stderr) = parapage(&[
        "compare",
        "--p",
        "4",
        "--k",
        "32",
        "--workload",
        "uniform",
        "--len",
        "400",
    ]);
    assert!(ok, "stderr: {stderr}");
    for name in ["det-par", "rand-par", "static", "ucp", "shared-lru"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn adversarial_races_against_lemma8() {
    let (ok, stdout, stderr) = parapage(&[
        "adversarial",
        "--p",
        "8",
        "--k",
        "32",
        "--s",
        "32",
        "--alpha",
        "0.02",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("OPT (Lemma 8 schedule)"));
    assert!(stdout.contains("DET-PAR"));
}

#[test]
fn adversarial_rejects_bad_p() {
    let (ok, _, stderr) = parapage(&["adversarial", "--p", "7"]);
    assert!(!ok);
    assert!(stderr.contains("power of two"));
}

#[test]
fn gen_then_analyze_round_trip() {
    let dir = std::env::temp_dir().join("parapage_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("w.trace");
    let trace_str = trace.to_str().unwrap();
    let (ok, stdout, stderr) = parapage(&[
        "gen",
        "--workload",
        "zipf",
        "--p",
        "2",
        "--k",
        "16",
        "--len",
        "200",
        "--out",
        trace_str,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote 2 processors"));
    let (ok2, stdout2, stderr2) = parapage(&["analyze", "--trace", trace_str, "--max-cap", "16"]);
    assert!(ok2, "stderr: {stderr2}");
    assert!(stdout2.contains("P0") && stdout2.contains("P1"));
    // run accepts the trace too.
    let (ok3, _, stderr3) = parapage(&[
        "run", "--policy", "det-par", "--p", "2", "--k", "16", "--trace", trace_str,
    ]);
    assert!(ok3, "stderr: {stderr3}");
}

#[test]
fn green_reports_theorem1() {
    let (ok, stdout, stderr) = parapage(&[
        "green", "--p", "4", "--k", "32", "--len", "800", "--seeds", "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("RAND-GREEN"));
    assert!(stdout.contains("Theorem 1"));
}

#[test]
fn unknown_flags_are_rejected() {
    let (ok, _, stderr) = parapage(&["run", "--bogus", "3", "--p", "4", "--k", "32"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn unknown_policy_is_rejected() {
    let (ok, _, stderr) = parapage(&["run", "--policy", "magic", "--p", "4", "--k", "32"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --policy"));
}

#[test]
fn profile_renders_both_strips() {
    let (ok, stdout, stderr) = parapage(&["profile", "--p", "4", "--k", "32", "--len", "600"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("OPT"));
    assert!(stdout.contains("RAND"));
    assert!(stdout.contains("ratio"));
}

#[test]
fn audit_passes_on_det_par() {
    let (ok, stdout, stderr) = parapage(&["audit", "--p", "4", "--k", "64", "--len", "800"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("well-rounded: true"));
}

#[test]
fn chaos_wal_cells_filter_runs_only_matching_cells() {
    let (ok, stdout, stderr) = parapage(&[
        "chaos",
        "--quick",
        "--wal",
        "--cells",
        "det-par/torn-tail",
        "--seed",
        "7",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("WAL corruption matrix"));
    assert!(stdout.contains("torn-tail"));
    assert!(!stdout.contains("stale-base"));
    assert!(stdout.contains("1 cells recovered byte-identically"));
    assert!(stdout.contains("filtered out by --cells"));
}

#[test]
fn chaos_rejects_a_filter_matching_nothing() {
    let (ok, _, stderr) = parapage(&["chaos", "--quick", "--wal", "--cells", "no-such-cell"]);
    assert!(!ok);
    assert!(stderr.contains("matched no cells"));
}

/// Out-of-model `--p/--k/--s` values are usage errors (exit 2, `error:`),
/// never a panic in `ModelParams::new`.
#[test]
fn bad_model_flags_are_usage_errors() {
    let exe = env!("CARGO_BIN_EXE_parapage");
    for args in [
        &["run", "--p", "0"][..],
        &["chaos", "--p", "0", "--k", "8"],
        &["conform", "--p", "0", "--k", "8"],
        &["chaos", "--s", "0"],
        &["run", "--p", "4", "--k", "32", "--s", "1"],
        &["chaos", "--quick", "--k", "24"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("spawn parapage");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{args:?}: {stderr}");
    }
}

/// `--net` reads no model flags: a stray `--p` is an unknown flag, caught
/// before the matrix runs, not a failed `--k` check.
#[test]
fn chaos_net_rejects_model_flags_as_unknown() {
    let (ok, stdout, stderr) = parapage(&["chaos", "--quick", "--net", "--p", "3"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --p"), "{stderr}");
    assert!(
        !stdout.contains("net chaos matrix"),
        "ran before rejecting: {stdout}"
    );
}

/// `conform` has one entry: the retired `--concurrent` sweep and its
/// `--budget` are unknown flags, rejected before any table prints.
#[test]
fn conform_rejects_retired_concurrent_flags_as_unknown() {
    for (args, flag) in [
        (&["conform", "--concurrent"][..], "--concurrent"),
        (&["conform", "--budget", "10"], "--budget"),
    ] {
        let (ok, stdout, stderr) = parapage(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(
            !stdout.contains("invariant matrix"),
            "ran before rejecting: {stdout}"
        );
    }
}

/// `conform --quick` ends with the sharded-stress section: three cells,
/// all passing.
#[test]
fn conform_quick_runs_three_passing_sharded_stress_cells() {
    let (ok, stdout, stderr) = parapage(&["conform", "--quick"]);
    assert!(ok, "stderr: {stderr}");
    let (_, stress) = stdout
        .split_once("sharded stress")
        .unwrap_or_else(|| panic!("no sharded-stress table: {stdout}"));
    let verdicts: Vec<&str> = stress
        .lines()
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            (t.len() == 6 && t[0].parse::<usize>().is_ok()).then(|| t[5])
        })
        .collect();
    assert_eq!(verdicts, ["pass"; 3], "{stress}");
}

/// The quick net matrix: its 8 cells, in order, all passing. The counters
/// depend on timing, so only labels and verdicts are pinned.
#[test]
fn chaos_net_quick_cells_all_pass() {
    let (ok, stdout, stderr) = parapage(&["chaos", "--quick", "--net"]);
    assert!(ok, "stderr: {stderr}");
    let rows: Vec<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            (t.len() == 7 && t[0].contains('/')).then(|| (t[0], t[6]))
        })
        .collect();
    let labels = [
        "partial-writes/t2@0.60",
        "write-stall/t2@0.60",
        "read-stall/t2@0.60",
        "cut-send/t2@0.60",
        "cut-recv/t2@0.60",
        "trickle/t2@0.60",
        "idle-expiry/t1",
        "shed/t1",
    ];
    assert_eq!(rows, labels.map(|l| (l, "pass")), "{stdout}");
    assert!(stdout.contains("8 cells recovered byte-identically"));
}

#[test]
fn chaos_net_cells_filter_runs_only_matching_cells() {
    let (ok, stdout, stderr) = parapage(&["chaos", "--quick", "--net", "--cells", "trickle"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("trickle/t2@0.60"));
    assert!(!stdout.contains("cut-send"));
    assert!(stdout.contains("1 cells recovered byte-identically"));
    assert!(stdout.contains("7 filtered out by --cells"));

    let (ok, _, stderr) = parapage(&["chaos", "--quick", "--net", "--cells", "no-such-cell"]);
    assert!(!ok);
    assert!(stderr.contains("matched no cells"), "{stderr}");
}

/// Runs `parapage` in `dir`, killing it (and failing) if it outlives
/// `deadline`: a command that serves before it rejects a flag must fail
/// the test, not hang it.
fn parapage_in(dir: &std::path::Path, args: &[&str], deadline: Duration) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parapage"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn parapage");
    let start = Instant::now();
    while child.try_wait().expect("poll parapage").is_none() {
        if start.elapsed() > deadline {
            child.kill().expect("kill parapage");
            panic!("{args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect parapage output")
}

/// Runs `parapage` in the empty `dir` and asserts that it was refused
/// before any work: exit 2, `want` in stderr, nothing on stdout, no file
/// written. Returns stderr.
fn assert_refused_in(dir: &std::path::Path, args: &[&str], want: &str) -> String {
    let out = parapage_in(dir, args, Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    let left: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    stderr
}

/// Every command in `USAGE` reads all its flags and rejects an unknown
/// one before doing any work: exit 2, nothing on stdout, no file written,
/// no server left serving. The retired `bench --profile` is one of them:
/// it writes no `*.profile.json`.
#[test]
fn every_command_rejects_an_unknown_flag_before_any_work() {
    let (_, usage, _) = parapage(&["help"]);
    let commands: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  ").filter(|r| !r.starts_with(' ')))
        .filter_map(|l| l.split_whitespace().next())
        .filter(|c| c.chars().all(|ch| ch.is_ascii_lowercase()) && *c != "parapage")
        .collect();
    assert_eq!(commands.len(), 15, "{commands:?}");
    let dir = std::env::temp_dir().join(format!("parapage_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in commands {
        let extra: &[&str] = match cmd {
            "gen" => &["--out", "gen.trace", "--sed", "3"],
            "bench" => &["--quick", "--out", "bench.json", "--treads", "2"],
            "analyze" => &["--trace", "missing.trace"],
            "serve" => &["--addr", "127.0.0.1:0"],
            _ => &[],
        };
        let args: Vec<&str> = [cmd]
            .iter()
            .chain(extra)
            .chain(&["--zzbogus"])
            .copied()
            .collect();
        let stderr = assert_refused_in(&dir, &args, "unknown flag --");
        if !matches!(cmd, "gen" | "bench") {
            assert!(
                stderr.contains("unknown flag --zzbogus"),
                "{args:?}: {stderr}"
            );
        }
    }
    assert_refused_in(
        &dir,
        &["bench", "--quick", "--out", "bench.json", "--profile"],
        "unknown flag --profile",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A valued flag without its value does not fall back to its default, and
/// a boolean flag given a value does not read as off: both are refused
/// before any work.
#[test]
fn half_given_flags_are_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("parapage_cli_half_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, want) in [
        (
            &["gen", "--workload", "mixed", "--out", "gen.trace", "--seed"][..],
            "error: --seed needs a value",
        ),
        (
            &["audit", "--p", "4", "--k", "32", "--slack"],
            "error: --slack needs a value",
        ),
        (
            &["run", "--p", "4", "--k", "32", "--gantt", "yes"],
            "error: --gantt takes no value",
        ),
        (
            &["bench", "--quick", "1", "--out", "bench.json"],
            "error: --quick takes no value",
        ),
    ] {
        assert_refused_in(&dir, args, want);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `drive` validates its model and its counts before it spawns a server:
/// a run that serves nothing cannot pass `--expect-clean`.
#[test]
fn drive_rejects_bad_model_and_zero_counts_before_spawning() {
    for args in [
        &["drive", "--p", "0"][..],
        &["drive", "--p", "4", "--k", "2"],
        &["drive", "--s", "1"],
        &["drive", "--tenants", "0", "--expect-clean"],
        &["drive", "--batches", "0", "--expect-clean"],
        &["drive", "--requests", "0", "--expect-clean"],
    ] {
        let out = parapage_in(&std::env::temp_dir(), args, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    }
}
