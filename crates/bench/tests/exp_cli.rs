//! The experiment binaries' shared flag parser: a bad `--seed` is a usage
//! error (exit 2, the supported flags on stderr), never a panic.

use std::process::Command;

#[test]
fn bad_seed_is_a_usage_error_not_a_panic() {
    for args in [&["--seed", "abc"][..], &["--quick", "--seed"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_e5_well_rounded"))
            .args(args)
            .output()
            .expect("spawn exp_e5_well_rounded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--seed needs a number"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("supported: --csv --quick --seed <n>"));
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    }
}
