//! Crash recovery: run the engine in bounded epochs under panic isolation,
//! resuming from the last good snapshot after a crash.
//!
//! The [`Supervisor`] wraps the steppable [`Engine`] in a recovery loop:
//!
//! 1. Step the engine for one *epoch* (a bounded number of events) inside
//!    [`std::panic::catch_unwind`], with a wall-clock watchdog.
//! 2. At each epoch boundary, checkpoint into a [`CheckpointStore`]: by
//!    default an O(changes) WAL delta record appended after the current
//!    base snapshot (see [`crate::wal`]), with a fresh O(state) full
//!    snapshot installed as a new base every
//!    [`SupervisorOpts::full_snapshot_every`] epochs — or every epoch
//!    when that is 0. Both are written straight from engine state into
//!    one buffer reused for the whole run ([`Engine::write_wal_delta`],
//!    [`Engine::write_snapshot`]).
//! 3. On a crash (panic) or watchdog expiry, discard the poisoned engine
//!    and policy, wait out an exponential backoff, build a **fresh** policy
//!    from the caller's factory, and recover from the store: decode the
//!    base, replay the delta log, and truncate at the first record whose
//!    frame, digest, or chain breaks (a torn write loses only the tail; an
//!    unusable base restarts from scratch). The first epoch boundary after
//!    a recovery installs a fresh base, so new records never append after
//!    a torn tail.
//! 4. Give up with [`SupervisorError::RetriesExhausted`] once the crash
//!    budget is spent.
//!
//! Recovery is *exact*: because a snapshot captures the run's full dynamic
//! state — engine counters, event heap, caches, fault-plan position, and
//! the policy's own state including its RNG — a recovered run produces the
//! same [`RunResult`] and the same trace stream as an uninterrupted one.
//! Events re-emitted while replaying the gap between the last checkpoint
//! and the crash are deduplicated against the engine's monotone emission
//! counter, so the caller's [`TraceSink`] sees every event exactly once.
//! The `parapage-conform` resume checker and the `parapage chaos` CLI
//! subcommand verify this byte-for-byte.
//!
//! Deterministic crash injection is built in: a [`CrashPlan`] names engine
//! ticks at which the supervised run panics (each at most once per
//! supervised run, however often the surrounding ticks replay), which is
//! how the chaos harness exercises every recovery path without randomness.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use parapage_cache::{Cache, Checkpoint, SnapWriter};
use parapage_core::{BoxAllocator, ModelParams};

use crate::engine::{Engine, EngineOpts};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::metrics::RunResult;
use crate::snapshot::{SnapshotError, WorkloadRef};
use crate::trace::{TraceEvent, TraceSink};
use crate::wal::{recover, CheckpointStore, WalCursor};

/// Capped exponential backoff: `base * 2^attempt`, saturating at `cap`.
/// `attempt` is 0-based (the first retry waits `base`). This is the one
/// backoff the workspace uses — the supervisor between crash recoveries,
/// and the resilient wire client between reconnects — so retry cadence is
/// tuned in exactly one place.
pub fn capped_backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(cap)
}

/// [`capped_backoff`] with deterministic jitter: the delay is scaled into
/// `[½, 1]` of the capped value by a pure function of `(seed, attempt)`,
/// so a thundering herd of clients with distinct seeds de-synchronizes
/// while any single schedule stays exactly reproducible.
pub fn jittered_backoff(base: Duration, cap: Duration, attempt: u32, seed: u64) -> Duration {
    let full = capped_backoff(base, cap, attempt);
    let mix = parapage_cache::fnv1a64_seeded(seed, &attempt.to_le_bytes());
    // Map the top 16 mix bits onto [1/2, 1] of the full delay.
    let scale = 0.5 + 0.5 * ((mix >> 48) as f64 / 65535.0);
    full.mul_f64(scale)
}

/// Deterministic crashpoints: engine ticks at which the supervised run
/// panics, each firing at most once per supervised run.
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    ticks: Vec<u64>,
}

impl CrashPlan {
    /// A plan crashing at the given engine ticks (sorted, deduplicated).
    pub fn at_ticks(mut ticks: Vec<u64>) -> Self {
        ticks.sort_unstable();
        ticks.dedup();
        CrashPlan { ticks }
    }

    /// The empty plan: no injected crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// The scheduled crash ticks.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }
}

/// Supervisor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorOpts {
    /// Events per epoch: the snapshot cadence. Smaller epochs bound the
    /// replay after a crash but checkpoint more often.
    pub epoch_ticks: u64,
    /// Crashes tolerated before [`SupervisorError::RetriesExhausted`].
    pub max_retries: u32,
    /// First backoff delay; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-attempt wall-clock deadline; expiry is treated as a crash.
    pub watchdog: Duration,
    /// Suppress panic reports raised on the supervising thread while the
    /// run catches them (injected crashes would otherwise spray
    /// backtraces over test output). Panics on other threads are still
    /// reported, and caught panics still count as crashes either way.
    pub silence_panics: bool,
    /// Between full snapshots, append an O(changes) WAL delta record at
    /// each epoch boundary (see [`crate::wal`]), and install a fresh full
    /// snapshot as a new base every this many epochs, bounding
    /// recovery-scan length. 0 installs a full snapshot at every boundary.
    pub full_snapshot_every: u64,
}

impl Default for SupervisorOpts {
    fn default() -> Self {
        SupervisorOpts {
            epoch_ticks: 256,
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            watchdog: Duration::from_secs(30),
            silence_panics: true,
            full_snapshot_every: 16,
        }
    }
}

/// Why a supervised run failed for good.
#[derive(Clone, Debug, PartialEq)]
pub enum SupervisorError {
    /// The engine returned a typed error. Engine errors are deterministic
    /// (a policy or configuration bug, not a transient fault), so the
    /// supervisor fails fast instead of retrying.
    Engine(EngineError),
    /// A snapshot failed to encode, decode, or restore.
    Snapshot(SnapshotError),
    /// The crash budget is spent.
    RetriesExhausted {
        /// Crashes observed (including the final one).
        crashes: u32,
        /// Panic payload (or watchdog notice) of the last crash.
        last_crash: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Engine(e) => write!(f, "engine error: {e}"),
            SupervisorError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            SupervisorError::RetriesExhausted {
                crashes,
                last_crash,
            } => write!(
                f,
                "gave up after {crashes} crashes; last crash: {last_crash}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<EngineError> for SupervisorError {
    fn from(e: EngineError) -> Self {
        SupervisorError::Engine(e)
    }
}

impl From<SnapshotError> for SupervisorError {
    fn from(e: SnapshotError) -> Self {
        SupervisorError::Snapshot(e)
    }
}

/// A snapshot of the supervised run's progress, handed to the epoch
/// control callback of [`Supervisor::run_controlled`] at each epoch
/// boundary (immediately after that epoch's checkpoint reached the store).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochStatus {
    /// Epochs completed so far (= checkpoints taken), including this one.
    pub epochs: u64,
    /// Engine ticks executed so far.
    pub ticks: u64,
}

/// What the epoch control callback tells the supervisor to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochControl {
    /// Keep stepping the current engine.
    Continue,
    /// Tear the current engine and policy down and rebuild them from the
    /// checkpoint just written — a live migration onto a fresh engine via
    /// the `snapshot()/restore()` path. Not counted as a crash; recovery
    /// determinism makes the migrated run byte-identical to an
    /// unmigrated one.
    Migrate,
}

/// The outcome of a supervised run that eventually completed.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// The run's measurements — byte-identical to an unsupervised run of
    /// the same workload/policy/faults, crashes or not.
    pub result: RunResult,
    /// Crashes survived (injected or genuine, including watchdog expiries).
    pub crashes: u32,
    /// Crashes recovered by restoring a snapshot (the rest restarted from
    /// scratch because no checkpoint existed yet).
    pub resumes: u32,
    /// Completed epochs (= checkpoints taken).
    pub epochs: u64,
    /// Total engine ticks of the finished run.
    pub ticks: u64,
    /// Total checkpoint bytes written (full-snapshot bases plus WAL delta
    /// records) — the deterministic cost the bench suite regression-pins.
    pub checkpoint_bytes: u64,
    /// WAL delta records appended across the run.
    pub wal_records: u64,
    /// Recovery scans that had to truncate: a torn or corrupt delta log
    /// (resumed from the last intact record) or an unusable base snapshot
    /// (restarted from scratch).
    pub wal_truncations: u32,
    /// Live migrations performed: epoch boundaries at which the control
    /// callback returned [`EpochControl::Migrate`] and the run moved onto
    /// a freshly built engine restored from the checkpoint just written.
    pub migrations: u64,
}

impl RecoveryReport {
    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{} | {} ticks, {} epochs, {} crashes ({} resumed), \
             {} migrations, {} ckpt bytes ({} wal records, {} truncations)",
            self.result.summary_line(),
            self.ticks,
            self.epochs,
            self.crashes,
            self.resumes,
            self.migrations,
            self.checkpoint_bytes,
            self.wal_records,
            self.wal_truncations
        )
    }
}

/// How one isolated stretch of stepping ended.
enum Stretch {
    Done,
    EpochBoundary,
    Watchdog,
}

/// Forwards each event exactly once across crash boundaries: after a
/// resume, the engine replays (and re-emits) the events between the last
/// checkpoint and the crash, which were already forwarded before the crash.
/// Gating on the absolute emission sequence number — monotone across the
/// whole supervised run because [`Engine::restore`] restores the counter —
/// suppresses exactly those duplicates.
struct GatedSink<'s, S: TraceSink> {
    inner: &'s mut S,
    /// Absolute sequence number of the next event this sink will receive.
    seq: u64,
    /// Events forwarded so far (= the sequence number high-water mark).
    forwarded: u64,
}

impl<'s, S: TraceSink> GatedSink<'s, S> {
    fn new(inner: &'s mut S) -> Self {
        GatedSink {
            inner,
            seq: 0,
            forwarded: 0,
        }
    }

    /// Re-anchor after a restore: the next event emitted carries this
    /// absolute sequence number.
    fn resync(&mut self, seq: u64) {
        self.seq = seq;
    }
}

impl<S: TraceSink> TraceSink for GatedSink<'_, S> {
    fn emit(&mut self, event: &TraceEvent) {
        if self.seq >= self.forwarded {
            self.inner.emit(event);
            self.forwarded += 1;
        }
        self.seq += 1;
    }
}

thread_local! {
    /// Silencing supervised runs currently active on this thread.
    static SILENCED_RUNS: Cell<u32> = const { Cell::new(0) };
}

/// Installs the process-wide silencing panic hook, once.
static SILENCING_HOOK: Once = Once::new();

/// Silences panic reports raised on this thread while it lives (see
/// [`SupervisorOpts::silence_panics`]).
///
/// The panic hook is process-global, so it is installed only once: a hook
/// that wraps whatever hook was current at that moment and forwards every
/// panic to it unless the panicking thread is inside a silencing
/// supervised run. A guard only moves this thread's run depth. Overlapping
/// runs on other threads therefore never swap the hook under each other,
/// and a panic outside any silencing run is always reported.
struct SilenceGuard {
    active: bool,
}

impl SilenceGuard {
    fn enter(silence: bool) -> Self {
        if silence {
            SILENCING_HOOK.call_once(|| {
                let previous = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    // A thread tearing down its locals is not inside a run.
                    let depth = SILENCED_RUNS.try_with(Cell::get).unwrap_or(0);
                    if depth == 0 {
                        previous(info);
                    }
                }));
            });
            SILENCED_RUNS.with(|d| d.set(d.get() + 1));
        }
        SilenceGuard { active: silence }
    }
}

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        if self.active {
            SILENCED_RUNS.with(|d| d.set(d.get() - 1));
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The crash-recovery loop. See the [module docs](crate::supervisor) for
/// the state machine.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    opts: SupervisorOpts,
}

impl Supervisor {
    /// A supervisor with the given knobs.
    pub fn new(opts: SupervisorOpts) -> Self {
        Supervisor { opts }
    }

    /// Runs the workload to completion under crash recovery: the one entry
    /// point of the supervisor.
    ///
    /// `policy_factory` must build a **deterministically identical** fresh
    /// policy on every call (same seed, same configuration): a crashed
    /// attempt's policy is discarded wholesale and a fresh one is rebuilt,
    /// then overwritten from the checkpoint via
    /// [`BoxAllocator::restore`]. `crash_plan` injects deterministic
    /// panics at the named engine ticks (each fires once).
    ///
    /// Checkpoints go into the caller-supplied [`CheckpointStore`] (a
    /// fresh [`MemStore`](crate::wal::MemStore) for a plain run). That
    /// store is the seam the chaos harness uses to corrupt what recovery
    /// reads (torn tails, flipped bytes, stale bases), and the hook a
    /// persistent server would use to keep checkpoints on disk. A store
    /// holding a checkpoint from a previous run of the *same* workload
    /// resumes it instead of starting over.
    ///
    /// At every epoch boundary, immediately *after* that epoch's checkpoint
    /// reached the store, `control` inspects the run's [`EpochStatus`] and
    /// may order [`EpochControl::Migrate`] (pass
    /// `|_| EpochControl::Continue` to never migrate). The supervisor then
    /// discards the live engine and policy wholesale and rebuilds both from
    /// the checkpoint just written, exactly the `snapshot()/restore()`
    /// recovery path, without burning a retry. This is the live-migration
    /// seam the `parapage serve` tenant sessions use to move a tenant onto
    /// a fresh engine mid-run; recovery determinism keeps the migrated
    /// run's result and trace byte-identical to an unmigrated one.
    ///
    /// # Errors
    /// [`SupervisorError::Engine`] immediately on a typed engine error
    /// (those are deterministic, retrying cannot help);
    /// [`SupervisorError::Snapshot`] when checkpoint/restore fails (e.g. a
    /// policy without checkpoint support); otherwise
    /// [`SupervisorError::RetriesExhausted`] once `max_retries` crashes
    /// have been burned.
    #[allow(clippy::too_many_arguments)]
    pub fn run_controlled<'w, C: Cache + Checkpoint>(
        &self,
        workload: impl Into<WorkloadRef<'w>>,
        params: &ModelParams,
        opts: &EngineOpts,
        faults: &FaultPlan,
        crash_plan: &CrashPlan,
        mut policy_factory: impl FnMut() -> Box<dyn BoxAllocator>,
        mut cache_factory: impl FnMut(usize) -> C,
        sink: &mut impl TraceSink,
        store: &mut dyn CheckpointStore,
        mut control: impl FnMut(EpochStatus) -> EpochControl,
    ) -> Result<RecoveryReport, SupervisorError> {
        let _silence = SilenceGuard::enter(self.opts.silence_panics);
        // Hashed (or handed in) once per run: every attempt's engine reuses
        // this fingerprint instead of re-hashing the sequences.
        let workload = workload.into();
        let mut gate = GatedSink::new(sink);
        // Every checkpoint of the run is written straight from engine
        // state into this one buffer, then handed to the store.
        let mut ckpt = SnapWriter::new();
        let mut fired = vec![false; crash_plan.ticks().len()];
        let mut crashes = 0u32;
        let mut resumes = 0u32;
        let mut epochs = 0u64;
        let mut checkpoint_bytes = 0u64;
        let mut wal_records = 0u64;
        let mut wal_truncations = 0u32;
        let mut migrations = 0u64;
        // Whether the next attempt follows a crash (and a successful
        // restore should count as a resume) rather than a migration or the
        // initial entry.
        let mut resuming_from_crash = false;

        'attempt: loop {
            let mut alloc = policy_factory();
            let mut engine = Engine::new(
                &mut *alloc,
                workload,
                params,
                opts,
                faults,
                &mut cache_factory,
            );
            // Recover from the store: decode the base snapshot, replay the
            // delta log, truncate at the first tear. An unusable base means
            // restart from scratch — deterministic replay plus the gated
            // sink keep even that byte-identical, just slower.
            let mut restored = false;
            if let Some((base, log)) = store.view() {
                match recover(base, log) {
                    Ok(rec) => {
                        if rec.truncation.is_some() {
                            wal_truncations += 1;
                        }
                        engine.restore(&rec.snapshot, &mut *alloc)?;
                        restored = true;
                    }
                    Err(_) => {
                        wal_truncations += 1;
                    }
                }
            }
            if restored && resuming_from_crash {
                resumes += 1;
            }
            resuming_from_crash = false;
            // Always re-base after an attempt starts: the first epoch
            // boundary below installs a fresh full snapshot, so records are
            // never appended after a (possibly torn) old log tail.
            let mut cursor: Option<WalCursor> = None;
            let mut epochs_since_base = 0u64;
            gate.resync(engine.emitted());
            let attempt_start = Instant::now();

            loop {
                // One epoch of stepping, isolated from panics. Everything
                // mutably borrowed here is rebuilt (engine, policy) or
                // explicitly resynchronized (gate, via the monotone
                // emission counter) after a crash, so the unwind-safety
                // assertion is sound.
                let stretch = catch_unwind(AssertUnwindSafe(|| -> Result<Stretch, EngineError> {
                    // An epoch is `epoch_ticks` *events* on the engine's
                    // logical clock, not `epoch_ticks` step() calls: one
                    // step may process a whole timestamp batch, so the
                    // boundary can overshoot by at most one batch.
                    let epoch_end = engine.ticks() + self.opts.epoch_ticks;
                    let mut step = 0usize;
                    while engine.ticks() < epoch_end {
                        if !engine.step(&mut *alloc, &mut gate)? {
                            return Ok(Stretch::Done);
                        }
                        let tick = engine.ticks();
                        // Crossing test, not equality: one engine step may
                        // process a whole timestamp batch of events, so the
                        // logical clock can jump past a planned tick.
                        if let Some((i, _)) = crash_plan
                            .ticks()
                            .iter()
                            .enumerate()
                            .find(|&(i, &t)| t <= tick && !fired[i])
                        {
                            fired[i] = true;
                            panic!("injected crash at tick {tick}");
                        }
                        step += 1;
                        if step % 64 == 63 && attempt_start.elapsed() >= self.opts.watchdog {
                            return Ok(Stretch::Watchdog);
                        }
                    }
                    Ok(Stretch::EpochBoundary)
                }));

                let crash_note = match stretch {
                    Ok(Ok(Stretch::Done)) => {
                        let ticks = engine.ticks();
                        let result = engine.into_result(&*alloc);
                        return Ok(RecoveryReport {
                            result,
                            crashes,
                            resumes,
                            epochs,
                            ticks,
                            checkpoint_bytes,
                            wal_records,
                            wal_truncations,
                            migrations,
                        });
                    }
                    Ok(Ok(Stretch::EpochBoundary)) => {
                        epochs += 1;
                        let incremental =
                            cursor.is_some() && epochs_since_base < self.opts.full_snapshot_every;
                        ckpt.clear();
                        if incremental {
                            cursor
                                .as_mut()
                                .expect("incremental implies a base is installed")
                                .append(&mut ckpt, |w| engine.write_wal_delta(&*alloc, w))?;
                            store.append_record(ckpt.bytes());
                            wal_records += 1;
                            epochs_since_base += 1;
                        } else {
                            cursor = Some(engine.write_snapshot(&*alloc, &mut ckpt)?);
                            store.install_base(ckpt.bytes());
                            engine.reset_wal_mark();
                            epochs_since_base = 0;
                        }
                        checkpoint_bytes += ckpt.len() as u64;
                        // The checkpoint for this epoch is durable; let the
                        // controller migrate onto a fresh engine restored
                        // from it. Not a crash: no retry burned, no resume
                        // counted, no backoff slept.
                        if control(EpochStatus {
                            epochs,
                            ticks: engine.ticks(),
                        }) == EpochControl::Migrate
                        {
                            migrations += 1;
                            continue 'attempt;
                        }
                        continue;
                    }
                    Ok(Ok(Stretch::Watchdog)) => format!(
                        "watchdog expired after {:?} at tick {}",
                        self.opts.watchdog,
                        engine.ticks()
                    ),
                    Ok(Err(e)) => return Err(SupervisorError::Engine(e)),
                    Err(payload) => panic_message(payload.as_ref()),
                };

                // Crash path: burn a retry, back off, rebuild.
                crashes += 1;
                if crashes > self.opts.max_retries {
                    return Err(SupervisorError::RetriesExhausted {
                        crashes,
                        last_crash: crash_note,
                    });
                }
                let backoff =
                    capped_backoff(self.opts.backoff_base, self.opts.backoff_cap, crashes - 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                resuming_from_crash = true;
                continue 'attempt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_engine_with;
    use crate::trace::TraceRecorder;
    use crate::wal::MemStore;
    use parapage_cache::{LruCache, PageId, ProcId};
    use parapage_core::{DetPar, FaultEvent, RandPar};

    fn params() -> ModelParams {
        ModelParams::new(4, 32, 8)
    }

    fn seqs() -> Vec<Vec<PageId>> {
        // Per-processor cyclic walks with different strides: misses keep
        // occurring at every height, so grants stay non-trivial throughout.
        (0..4usize)
            .map(|x| {
                (0..400usize)
                    .map(|i| PageId::namespaced(ProcId(x as u32), (i as u64 * (x as u64 + 1)) % 48))
                    .collect()
            })
            .collect()
    }

    fn tiny_opts() -> SupervisorOpts {
        SupervisorOpts {
            epoch_ticks: 16,
            backoff_base: Duration::ZERO,
            ..SupervisorOpts::default()
        }
    }

    fn uninterrupted(seqs: &[Vec<PageId>], faults: &FaultPlan) -> (RunResult, Vec<TraceEvent>) {
        let mut alloc = DetPar::new(&params());
        let mut rec = TraceRecorder::new();
        let result = run_engine_with(
            &mut alloc,
            seqs,
            &params(),
            &EngineOpts::default(),
            faults,
            |_| LruCache::new(0),
            &mut rec,
        )
        .expect("clean run");
        (result, rec.into_events())
    }

    /// A DET-PAR run over LRU boxes under `opts`, checkpointing into
    /// `store` and never migrating.
    fn supervise(
        opts: SupervisorOpts,
        seqs: &[Vec<PageId>],
        faults: &FaultPlan,
        crash_plan: &CrashPlan,
        sink: &mut impl TraceSink,
        store: &mut MemStore,
    ) -> Result<RecoveryReport, SupervisorError> {
        Supervisor::new(opts).run_controlled(
            seqs,
            &params(),
            &EngineOpts::default(),
            faults,
            crash_plan,
            || Box::new(DetPar::new(&params())),
            |_| LruCache::new(0),
            sink,
            store,
            |_| EpochControl::Continue,
        )
    }

    #[test]
    fn crash_free_supervised_run_matches_plain_run() {
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let report = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            &CrashPlan::none(),
            &mut rec,
            &mut MemStore::new(),
        )
        .expect("supervised run");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.result, want);
        assert_eq!(rec.into_events(), want_trace);
    }

    #[test]
    fn recovery_is_byte_identical_across_injected_crashes() {
        let seqs = seqs();
        let faults = FaultPlan::new(vec![
            FaultEvent::ProcStall {
                proc: parapage_cache::ProcId(1),
                from: 40,
                until: 200,
            },
            FaultEvent::LatencySpike {
                from: 300,
                until: 700,
                factor: 3,
            },
        ]);
        let (want, want_trace) = uninterrupted(&seqs, &faults);
        // Learn the run's length from a crash-free supervised probe, then
        // crash at early/middle/late ticks of it.
        let probe = supervise(
            tiny_opts(),
            &seqs,
            &faults,
            &CrashPlan::none(),
            &mut crate::trace::NullSink,
            &mut MemStore::new(),
        )
        .expect("probe run");
        let total = probe.ticks;
        assert!(total >= 12, "premise: run long enough to crash into");
        let crash_ticks = vec![2, total / 2, total / 2 + 1, total - 2];
        let n_crashes = {
            let mut t = crash_ticks.clone();
            t.sort_unstable();
            t.dedup();
            t.len() as u32
        };
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        };
        let mut rec = TraceRecorder::new();
        let report = supervise(
            opts,
            &seqs,
            &faults,
            &CrashPlan::at_ticks(crash_ticks),
            &mut rec,
            &mut MemStore::new(),
        )
        .expect("recovered run");
        assert_eq!(report.crashes, n_crashes);
        assert!(report.resumes >= n_crashes - 1, "late crashes resume");
        assert_eq!(report.result, want, "recovered result must be identical");
        assert_eq!(rec.into_events(), want_trace, "trace must dedup exactly");
    }

    #[test]
    fn randomized_policy_recovers_identically() {
        let seqs = seqs();
        let mk = || RandPar::new(&params(), 0xfeed);
        let mut alloc = mk();
        let mut rec = TraceRecorder::new();
        let want = run_engine_with(
            &mut alloc,
            &seqs,
            &params(),
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| LruCache::new(0),
            &mut rec,
        )
        .expect("clean run");
        let want_trace = rec.into_events();

        let mut rec = TraceRecorder::new();
        let report = Supervisor::new(tiny_opts())
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::at_ticks(vec![30, 75]),
                move || Box::new(mk()),
                |_| LruCache::new(0),
                &mut rec,
                &mut MemStore::new(),
                |_| EpochControl::Continue,
            )
            .expect("recovered run");
        assert_eq!(report.crashes, 2);
        assert_eq!(report.result, want, "RNG state must survive recovery");
        assert_eq!(rec.into_events(), want_trace);
    }

    #[test]
    fn double_crash_in_one_run_dedups_the_trace_exactly() {
        // Satellite: two distinct crash ticks in one run, chosen to land in
        // the *same* epoch window (20 and 24 with 16-tick epochs), so the
        // second crash interrupts the replay of the first crash's gap. The
        // gated sink must still forward every event exactly once.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let report = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            &CrashPlan::at_ticks(vec![20, 24]),
            &mut rec,
            &mut MemStore::new(),
        )
        .expect("doubly-crashed run");
        assert_eq!(report.crashes, 2);
        assert_eq!(report.resumes, 2, "both crashes resume from checkpoints");
        assert_eq!(report.result, want);
        assert_eq!(
            rec.into_events(),
            want_trace,
            "dedup across two crash boundaries must be exact"
        );
    }

    #[test]
    fn migration_at_every_epoch_is_byte_identical() {
        // Satellite for the serve layer: a controller that orders a
        // migration at every epoch boundary forces the run through the
        // snapshot()/restore() path dozens of times. Result and trace must
        // match the uninterrupted run exactly, no crash or resume counted.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let mut store = MemStore::new();
        // Runs are only a few dozen ticks long (a tick is one event, and a
        // grant window serves many requests), so cut epochs every 4 ticks
        // to force several migration points.
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        };
        let report = Supervisor::new(opts)
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::none(),
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut rec,
                &mut store,
                |_| EpochControl::Migrate,
            )
            .expect("migrated run");
        assert!(report.migrations > 2, "premise: several epoch boundaries");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.resumes, 0);
        assert_eq!(report.result, want, "migrated result must be identical");
        assert_eq!(rec.into_events(), want_trace, "no duplicate events");
    }

    #[test]
    fn migration_composes_with_injected_crashes() {
        // Migrations and crashes in the same run: the controller migrates
        // at the second epoch boundary while the crash plan panics nearby.
        // Both paths rebuild through recovery, so the run stays exact.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let mut store = MemStore::new();
        let mut boundaries = 0u64;
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        };
        let report = Supervisor::new(opts)
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::at_ticks(vec![10, 21]),
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut rec,
                &mut store,
                |_| {
                    boundaries += 1;
                    if boundaries == 2 {
                        EpochControl::Migrate
                    } else {
                        EpochControl::Continue
                    }
                },
            )
            .expect("migrated+crashed run");
        assert_eq!(report.migrations, 1);
        assert_eq!(report.crashes, 2);
        assert_eq!(report.result, want);
        assert_eq!(rec.into_events(), want_trace);
    }

    #[test]
    fn wal_checkpoints_cost_less_than_full_snapshots() {
        // Same workload, same epoch cadence, crash-free: incremental delta
        // records must be much cheaper than a full snapshot per epoch, and
        // the result must be identical either way. Deterministic byte
        // counts, so the margin is pinned without timing flakiness. A run
        // long enough for the grow-only audit trace to dominate a full
        // snapshot — the regime the WAL exists for.
        let seqs: Vec<Vec<PageId>> = (0..4usize)
            .map(|x| {
                (0..4000usize)
                    .map(|i| PageId::namespaced(ProcId(x as u32), (i as u64 * (x as u64 + 1)) % 48))
                    .collect()
            })
            .collect();
        let run = |full_snapshot_every: u64| {
            supervise(
                SupervisorOpts {
                    full_snapshot_every,
                    ..tiny_opts()
                },
                &seqs,
                &FaultPlan::none(),
                &CrashPlan::none(),
                &mut crate::trace::NullSink,
                &mut MemStore::new(),
            )
            .expect("supervised run")
        };
        let full = run(0);
        let wal = run(tiny_opts().full_snapshot_every);
        assert_eq!(full.result, wal.result);
        assert_eq!(full.epochs, wal.epochs);
        assert_eq!(full.wal_records, 0);
        assert!(wal.wal_records > 0, "incremental epochs must use records");
        assert!(
            wal.checkpoint_bytes * 2 < full.checkpoint_bytes,
            "wal {} bytes vs full {} bytes",
            wal.checkpoint_bytes,
            full.checkpoint_bytes
        );
    }

    #[test]
    fn forged_pending_state_is_a_typed_error_not_a_crash_loop() {
        // A checkpoint whose pending state the engine cannot step from (an
        // event naming processor p, or live usage that is not the sum of
        // the pending release heights) must fail to decode, whether it is
        // the base or a WAL record after it. A supervisor handed such a
        // store then restarts (forged base) or resumes from the last good
        // state (forged record) instead of crashing on every retry.
        use crate::snapshot::EngineSnapshot;
        use parapage_cache::CodecError;

        let seqs = seqs();
        let (want, _) = uninterrupted(&seqs, &FaultPlan::none());
        let plan = FaultPlan::none();
        let mut alloc = DetPar::new(&params());
        let mut engine = Engine::new(
            &mut alloc,
            &seqs,
            &params(),
            &EngineOpts::default(),
            &plan,
            |_| LruCache::new(0),
        );
        let step = |engine: &mut Engine<'_, LruCache>, alloc: &mut DetPar| {
            for _ in 0..8 {
                assert!(engine.step(alloc, &mut crate::trace::NullSink).unwrap());
            }
        };
        step(&mut engine, &mut alloc);
        let base = engine.snapshot(&alloc).unwrap();
        let base_bytes = base.encode();
        engine.reset_wal_mark();
        step(&mut engine, &mut alloc);
        let delta = engine.wal_delta(&alloc).unwrap();
        assert!(!base.run.heap.is_empty() && !base.run.releases.is_empty());
        assert!(!delta.run.heap.is_empty());

        let no_proc = CodecError::Invalid("pending event names no processor");
        let bad_usage = CodecError::Invalid("live usage differs from the pending release heights");
        let rerun = |store: &mut MemStore| {
            let clean = CrashPlan::none();
            supervise(
                tiny_opts(),
                &seqs,
                &plan,
                &clean,
                &mut crate::trace::NullSink,
                store,
            )
            .expect("the forged checkpoint is skipped, not stepped from")
        };

        let mut forged_procs = base.clone();
        forged_procs.run.heap[0].2 = 4;
        let mut forged_usage = base.clone();
        forged_usage.run.live_usage += 1;
        for (forged, why) in [(forged_procs, &no_proc), (forged_usage, &bad_usage)] {
            let bytes = forged.encode();
            assert_eq!(
                EngineSnapshot::decode(&bytes),
                Err(SnapshotError::Codec(why.clone()))
            );
            let mut store = MemStore::new();
            store.install_base(&bytes);
            let report = rerun(&mut store);
            assert_eq!((report.crashes, report.wal_truncations), (0, 1));
            assert_eq!(report.result, want);
        }

        let mut forged_procs = delta.clone();
        forged_procs.run.heap[0].2 = 4;
        let mut forged_usage = delta;
        forged_usage.run.live_usage += 1;
        for (forged, why) in [(forged_procs, no_proc), (forged_usage, bad_usage)] {
            let log = WalCursor::at_base(&base_bytes).frame(&forged.encode());
            let rec = recover(&base_bytes, &log).unwrap();
            assert_eq!(rec.records_applied, 0);
            assert_eq!(rec.truncation.map(|t| t.reason), Some(why));
            assert_eq!(rec.snapshot, base);
            let mut store = MemStore::new();
            store.install_base(&base_bytes);
            store.append_record(&log);
            let report = rerun(&mut store);
            assert_eq!((report.crashes, report.wal_truncations), (0, 1));
            assert_eq!(report.result, want);
        }
    }

    #[test]
    fn prepopulated_store_resumes_a_previous_run() {
        // A store carried over from a crashed process resumes the run
        // instead of starting over: crash mid-run with one store, then
        // hand the same store to a brand-new supervisor call.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut store = MemStore::new();
        let opts = SupervisorOpts {
            max_retries: 0,
            ..tiny_opts()
        };
        let err = supervise(
            opts,
            &seqs,
            &FaultPlan::none(),
            &CrashPlan::at_ticks(vec![20]),
            &mut crate::trace::NullSink,
            &mut store,
        )
        .expect_err("zero retries: the injected crash is fatal");
        assert!(matches!(err, SupervisorError::RetriesExhausted { .. }));
        let mut rec = TraceRecorder::new();
        let report = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            &CrashPlan::none(),
            &mut rec,
            &mut store,
        )
        .expect("second process finishes the run");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.result, want);
        // The second process replays from the stored checkpoint, so its
        // stream is exactly a suffix of the uninterrupted trace.
        let evs = rec.into_events();
        assert!(!evs.is_empty() && evs.len() < want_trace.len());
        assert_eq!(evs[..], want_trace[want_trace.len() - evs.len()..]);
    }

    #[test]
    fn retries_exhausted_is_typed() {
        let seqs = seqs();
        let opts = SupervisorOpts {
            max_retries: 2,
            ..tiny_opts()
        };
        // More injected crashes than the budget tolerates.
        let err = supervise(
            opts,
            &seqs,
            &FaultPlan::none(),
            &CrashPlan::at_ticks(vec![1, 2, 3, 4]),
            &mut crate::trace::NullSink,
            &mut MemStore::new(),
        )
        .expect_err("budget must run out");
        match err {
            SupervisorError::RetriesExhausted { crashes, .. } => assert_eq!(crashes, 3),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn corrupted_snapshot_is_rejected_not_panicked() {
        // Decode-side corruption is covered in `snapshot`; here: the
        // supervisor surfaces it as a typed error end-to-end by feeding a
        // policy that cannot checkpoint (Unsupported) — the first epoch
        // boundary must fail with SupervisorError::Snapshot.
        struct NoCkpt(DetPar);
        impl BoxAllocator for NoCkpt {
            fn name(&self) -> &'static str {
                "no-ckpt"
            }
            fn grant(
                &mut self,
                proc: parapage_cache::ProcId,
                now: parapage_cache::Time,
            ) -> parapage_core::Grant {
                self.0.grant(proc, now)
            }
            fn on_proc_finished(
                &mut self,
                proc: parapage_cache::ProcId,
                now: parapage_cache::Time,
            ) {
                self.0.on_proc_finished(proc, now);
            }
        }
        let seqs = seqs();
        let err = Supervisor::new(tiny_opts())
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::none(),
                || Box::new(NoCkpt(DetPar::new(&params()))),
                |_| LruCache::new(0),
                &mut crate::trace::NullSink,
                &mut MemStore::new(),
                |_| EpochControl::Continue,
            )
            .expect_err("checkpoint-less policy cannot be supervised");
        assert!(matches!(err, SupervisorError::Snapshot(_)), "got {err:?}");
    }
}
