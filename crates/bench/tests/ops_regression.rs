//! Regression pins on the single-thread `ops/*` microbench entries.
//!
//! The hot-path rewrite (packed intrusive LRU, fused `access_if_fits`,
//! batched grant dispatch, arena-backed ledgers) is only worth its
//! complexity while the throughput it bought stays bought. The floors in
//! [`OPS_FLOORS`] pin that: a release build whose `ops/*` rate drops
//! below its floor fails the `parapage bench` exit gate, the one place
//! the floors are enforced. These tests check what the gate relies on:
//! every floored entry exists, counts work and reproduces its digest.

use std::sync::Mutex;

use parapage_bench::suite::{run_ops_suite, OPS_FLOORS};

/// Serializes tests against others that set the global pool width.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Every pinned entry name must exist in the suite — a silently renamed
/// entry would otherwise turn its floor into a vacuous pass.
#[test]
fn every_pinned_entry_exists_and_counts_work() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_ops_suite(true, 42);
    for &(name, floor) in OPS_FLOORS {
        assert!(floor > 0.0, "{name}: floor must be positive");
        let entry = report
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("pinned entry {name} missing from the ops recipe"));
        assert!(entry.runs > 0, "{name}: zero work units");
        assert!(
            !entry.parallel,
            "{name}: ops entries are single-thread microbenches"
        );
    }
}

/// The ops entries are pure functions of (recipe size, seed): two runs
/// must agree digest-for-digest, and the two legs of one run likewise.
#[test]
fn ops_entries_are_deterministic() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = run_ops_suite(true, 7);
    let b = run_ops_suite(true, 7);
    assert!(a.deterministic(), "legs diverged within one run");
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(ea.name, eb.name);
        assert_eq!(ea.runs, eb.runs, "{}: work count not reproducible", ea.name);
        assert_eq!(
            ea.digest_base, eb.digest_base,
            "{}: digest not reproducible",
            ea.name
        );
    }
}
