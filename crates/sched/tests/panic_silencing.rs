//! Panic silencing across overlapping supervised runs.
//!
//! `SupervisorOpts::silence_panics` hides the reports of the panics a
//! supervised run catches. The panic hook is process-global, so the
//! silencing must not leak: a run on one thread must neither expose
//! another thread's injected kills nor swallow a genuine panic raised
//! outside any run. This lives in its own test binary because it installs
//! a process-wide counting hook.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parapage_cache::{LruCache, PageId, ProcId};
use parapage_core::{DetPar, ModelParams};
use parapage_sched::{
    CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink, Supervisor, SupervisorOpts,
};

fn params() -> ModelParams {
    ModelParams::new(4, 32, 8)
}

fn seqs() -> Vec<Vec<PageId>> {
    (0..4usize)
        .map(|x| {
            (0..200usize)
                .map(|i| PageId::namespaced(ProcId(x as u32), (i as u64 * (x as u64 + 1)) % 48))
                .collect()
        })
        .collect()
}

/// One supervised run with two injected kills; returns the crashes seen.
fn killed_run(seqs: &[Vec<PageId>]) -> u32 {
    let sup = Supervisor::new(SupervisorOpts {
        epoch_ticks: 4,
        backoff_base: Duration::ZERO,
        silence_panics: true,
        ..SupervisorOpts::default()
    });
    sup.run_controlled(
        seqs,
        &params(),
        &EngineOpts::default(),
        &FaultPlan::none(),
        &CrashPlan::at_ticks(vec![5, 15]),
        || Box::new(DetPar::new(&params())),
        |_| LruCache::new(0),
        &mut NullSink,
        &mut MemStore::new(),
        |_| EpochControl::Continue,
    )
    .expect("supervised run recovers")
    .crashes
}

#[test]
fn overlapping_runs_hide_injected_kills_but_not_real_panics() {
    let reports = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&reports);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let seqs = seqs();
    std::thread::scope(|s| {
        let runners: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..40 {
                        assert_eq!(killed_run(&seqs), 2);
                    }
                })
            })
            .collect();
        // A genuine panic on a thread outside any run, while the runs
        // overlap, is still reported.
        let bystander = s.spawn(|| panic!("genuine panic beside the runs"));
        assert!(bystander.join().is_err());
        for r in runners {
            r.join().expect("runner thread");
        }
    });
    assert_eq!(
        reports.load(Ordering::SeqCst),
        1,
        "only the bystander's panic may reach the hook; no injected kill may"
    );

    // After every run has finished, a real panic reaches the hook too.
    let later = std::thread::spawn(|| panic!("genuine panic after the runs"));
    assert!(later.join().is_err());
    assert_eq!(reports.load(Ordering::SeqCst), 2);
}
