//! The box-driven execution engine: the paper's parallel paging model as an
//! event simulator.
//!
//! The engine owns one LRU cache and one sequence cursor per processor and
//! asks the policy ([`BoxAllocator`]) for a new grant exactly when a
//! processor's previous grant expires. Inside a grant of height `h` the
//! processor serves requests through an `h`-page LRU cache (hit = 1 step,
//! miss = `s`); a grant of height 0 is a stall. Grant requests are delivered
//! in global time order (a binary heap of expiry events), so policies can
//! maintain phase/chunk state keyed on the current time.
//!
//! ### Cache semantics across grants
//!
//! By default the engine uses *resize* semantics: when the new grant's
//! height is at least the old one, cache contents are kept; when it is
//! smaller, the LRU tail is truncated. The paper's WLOG
//! *compartmentalized* semantics (every box starts cold) are available via
//! [`EngineOpts::compartmentalized`] — they only make algorithms slower, so
//! measured makespans under resize semantics remain valid upper bounds for
//! the algorithms' behaviour while being closer to a real implementation.
//!
//! ### Completion-notification timing
//!
//! Although the engine simulates a whole grant at once, a processor that
//! finishes mid-grant does **not** notify the policy immediately: the
//! completion is queued as an event at its true simulated time and delivered
//! before any grant request at that time. Policies therefore observe
//! completions in exact time order, so phase transitions (DET-PAR, RAND-PAR)
//! fire at the moment the paper's model says they do.
//!
//! ### Abnormal conditions and fault injection
//!
//! The engine never panics on a misbehaving policy or a pathological
//! instance: every abnormal condition — a zero-duration grant, a memory
//! limit violation, the time cap, event-time overflow — is returned as a
//! typed [`EngineError`], so a single bad run can be observed and reported
//! without killing a sweep. [`run_engine_with`] additionally replays a
//! deterministic [`FaultPlan`] (processor stalls, fetch-latency spikes,
//! memory pressure) against the run; see [`crate::fault`] for the exact
//! mechanics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parapage_cache::{
    run_window, Cache, CacheStats, Checkpoint, LruCache, PageId, ProcId, SnapReader, SnapWriter,
    Time,
};
use parapage_core::{BoxAllocator, FaultEvent, Grant, Interval, ModelParams};

use crate::arena::ChunkVec;
use crate::error::EngineError;
use crate::fault::{FaultCursor, FaultPlan};
use crate::metrics::RunResult;
use crate::snapshot::{EngineSnapshot, RunState, SnapshotError, WorkloadRef};
use crate::trace::{NullSink, TraceEvent, TraceSink};
use crate::wal::{
    WalCursor, WalDelta, SEC_AUDIT, SEC_CACHES, SEC_POLICY, SEC_SCALARS, SEC_TIMELINES,
    SEC_TRACE_HWM,
};

/// Default hard cap on simulated time.
///
/// A quarter of the `u64` range: generous enough that no realistic workload
/// (requests × miss penalty × spike factor) approaches it, while leaving
/// ample headroom so a single further addition to an in-range event time
/// cannot wrap — and even if a pathological `s` pushes past that, all
/// event-time arithmetic is `checked_` and surfaces
/// [`EngineError::TimeOverflow`] instead of wrapping silently.
pub const DEFAULT_MAX_TIME: Time = u64::MAX / 4;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineOpts {
    /// Record per-processor allocation timelines (needed by the
    /// well-roundedness audit; costs memory proportional to grant count).
    pub record_timelines: bool,
    /// Start every grant with a cold cache (the paper's compartmentalized
    /// WLOG). Default `false`: resize semantics.
    pub compartmentalized: bool,
    /// Hard wall-clock cap (default [`DEFAULT_MAX_TIME`]); the engine
    /// returns [`EngineError::TimeCapExceeded`] past it (a policy that
    /// stalls everyone forever would otherwise hang the simulation).
    pub max_time: Time,
    /// When set, the engine *enforces* this bound on concurrently allocated
    /// height at grant time (returning
    /// [`EngineError::MemoryLimitExceeded`] on violation), instead of only
    /// reporting the peak post-hoc. Use it to pin a policy's resource
    /// augmentation `ξ·k` in tests. A
    /// [`FaultEvent::MemoryPressure`] event tightens (or, when unset,
    /// activates) this limit mid-run.
    pub memory_limit: Option<usize>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            record_timelines: false,
            compartmentalized: false,
            max_time: DEFAULT_MAX_TIME,
            memory_limit: None,
        }
    }
}

/// Runs `alloc` against the request sequences and measures the outcome:
/// the paper's model, with LRU inside every box, no faults and no trace.
///
/// `seqs[x]` is processor `x`'s request sequence; `seqs.len()` must equal
/// `params.p`.
///
/// # Errors
/// [`EngineError`] on a zero-duration grant, a memory-limit violation,
/// exceeding `opts.max_time`, or event-time overflow.
pub fn run_engine(
    alloc: &mut dyn BoxAllocator,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
) -> Result<RunResult, EngineError> {
    run_engine_with(
        alloc,
        seqs,
        params,
        opts,
        &FaultPlan::none(),
        |_| LruCache::new(0),
        &mut NullSink,
    )
}

/// Like [`run_engine`], but serving every processor's boxes through a
/// concurrent sharded LRU ([`parapage_cache::ShardedLru`]) instead of the
/// sequential [`LruCache`]. The engine drives each box single-threadedly, so
/// the run is exactly as deterministic as the sequential one; with one
/// shard the results are identical to [`run_engine`] (pinned by a test).
pub fn run_engine_sharded(
    alloc: &mut dyn BoxAllocator,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    shards: usize,
) -> Result<RunResult, EngineError> {
    run_engine_with(
        alloc,
        seqs,
        params,
        opts,
        &FaultPlan::none(),
        |_| parapage_cache::ShardedLru::with_shards(0, shards),
        &mut NullSink,
    )
}

/// The general engine runner: replays `faults` against the run (pass
/// [`FaultPlan::none`] for none), serves processor `x`'s boxes through
/// `cache_factory(x)` (an initially empty, zero-capacity cache; the paper
/// fixes LRU WLOG, and experiment E13 swaps it), and emits every engine
/// step to `sink` as a [`TraceEvent`] stream (pass [`NullSink`] to emit
/// nothing; the conformance oracle passes a recorder). It drives the
/// steppable [`Engine`] to completion; [`run_engine`] and
/// [`run_engine_sharded`] call it.
///
/// # Errors
/// As [`run_engine`].
pub fn run_engine_with<'a, C: Cache>(
    alloc: &mut dyn BoxAllocator,
    workload: impl Into<WorkloadRef<'a>>,
    params: &ModelParams,
    opts: &EngineOpts,
    faults: &'a FaultPlan,
    cache_factory: impl FnMut(usize) -> C,
    sink: &mut impl TraceSink,
) -> Result<RunResult, EngineError> {
    let mut engine = Engine::new(alloc, workload, params, opts, faults, cache_factory);
    while engine.step(alloc, sink)? {}
    Ok(engine.into_result(alloc))
}

// Events: (time, kind, proc). Completion notifications (kind 0) sort
// before grant requests (kind 1) at equal timestamps, so a policy sees
// every completion at its true simulated time before it answers any
// grant request at that time.
const EV_COMPLETION: u8 = 0;
const EV_GRANT: u8 = 1;

/// The box-driven event simulator as a resumable state machine.
///
/// [`Engine::new`] seeds the event heap; each [`Engine::step`] processes
/// exactly one event (a grant request or a completion notification) and
/// returns `Ok(false)` once the run is complete, at which point
/// [`Engine::into_result`] yields the measurements. The one-shot entry
/// points ([`run_engine`] and friends) are thin wrappers around this loop
/// and remain behaviourally identical.
///
/// The step granularity is what makes crash recovery possible: between any
/// two steps the engine can be checkpointed with [`Engine::snapshot`] and a
/// fresh engine resumed with [`Engine::restore`] — see [`crate::snapshot`]
/// for the format and [`crate::supervisor`] for the recovery loop. The
/// policy lives *outside* the engine (it is passed to every call) so that a
/// crashed attempt can be retried with a freshly-constructed policy whose
/// state is then restored from the snapshot.
pub struct Engine<'a, C: Cache> {
    seqs: &'a [Vec<PageId>],
    p: usize,
    s: u64,
    opts: EngineOpts,
    workload_digest: u64,
    pos: Vec<usize>,
    caches: Vec<C>,
    completions: Vec<Time>,
    finished: Vec<bool>,
    stats: CacheStats,
    memory_integral: u128,
    grants_issued: u64,
    timelines: Vec<Vec<Interval>>,
    // Height deltas for the peak-memory audit: (time, delta); at equal
    // times, releases (< 0) sort before acquisitions (post-hoc sort).
    // Chunked bump storage: the ledger grows for the whole run, and the
    // arena appends without ever recopying the history.
    deltas: ChunkVec<(Time, i64)>,
    // Online usage tracking for memory-limit enforcement. The enforced
    // limit starts at `opts.memory_limit` and only tightens: a
    // MemoryPressure fault activates (or shrinks) it mid-run.
    live_usage: usize,
    releases: BinaryHeap<Reverse<(Time, usize)>>,
    current_limit: Option<usize>,
    fault_cursor: FaultCursor<'a>,
    faults_injected: u64,
    heap: BinaryHeap<Reverse<(Time, u8, u32)>>,
    remaining: usize,
    ticks: u64,
    emitted: u64,
    // WAL checkpoint mark: how much of the grow-only state was already
    // captured at the last checkpoint boundary, and which caches have been
    // mutated since. `wal_delta` emits only what lies past the mark, which
    // is what makes an incremental checkpoint O(changes) rather than
    // O(state).
    ckpt_deltas_len: usize,
    ckpt_timeline_lens: Vec<usize>,
    dirty_caches: Vec<bool>,
    // Reusable scratch for batched grant dispatch (always empty between
    // steps, so it never appears in snapshots): the timestamp batch being
    // processed, the subset actually requesting grants, and the policy's
    // answers. Allocated once, reused every batch.
    batch: Vec<(u32, Option<Time>)>,
    batch_req: Vec<ProcId>,
    batch_grants: Vec<Grant>,
    // Reusable scratch for the direct checkpoint writers: the pending
    // releases and events, sorted into canonical order.
    sorted_releases: Vec<(Time, usize)>,
    sorted_heap: Vec<(Time, u8, u32)>,
}

impl<'a, C: Cache> Engine<'a, C> {
    /// Builds the engine and seeds the event heap (empty sequences complete
    /// immediately, notifying the policy at time 0, exactly as the one-shot
    /// entry points always did).
    ///
    /// `workload` is the sequences plus their fingerprint: borrowed
    /// sequences convert by hashing, and a [`WorkloadRef`] built once is
    /// reused as-is, so rebuilding an engine never re-hashes the workload.
    pub fn new(
        alloc: &mut dyn BoxAllocator,
        workload: impl Into<WorkloadRef<'a>>,
        params: &ModelParams,
        opts: &EngineOpts,
        faults: &'a FaultPlan,
        cache_factory: impl FnMut(usize) -> C,
    ) -> Self {
        let workload = workload.into();
        let seqs = workload.seqs();
        let mut factory = cache_factory;
        assert_eq!(seqs.len(), params.p, "one sequence per processor");
        let p = params.p;
        let mut finished = vec![false; p];
        let mut heap: BinaryHeap<Reverse<(Time, u8, u32)>> = BinaryHeap::new();
        let mut remaining = 0usize;
        for x in 0..p {
            if seqs[x].is_empty() {
                finished[x] = true;
                alloc.on_proc_finished(ProcId(x as u32), 0);
            } else {
                remaining += 1;
                heap.push(Reverse((0, EV_GRANT, x as u32)));
            }
        }
        Engine {
            seqs,
            p,
            s: params.s,
            opts: *opts,
            workload_digest: workload.fingerprint(),
            pos: vec![0usize; p],
            caches: (0..p).map(&mut factory).collect(),
            completions: vec![0u64; p],
            finished,
            stats: CacheStats::default(),
            memory_integral: 0,
            grants_issued: 0,
            timelines: vec![Vec::new(); p],
            deltas: ChunkVec::new(),
            live_usage: 0,
            releases: BinaryHeap::new(),
            current_limit: opts.memory_limit,
            fault_cursor: FaultCursor::new(faults),
            faults_injected: 0,
            heap,
            remaining,
            ticks: 0,
            emitted: 0,
            ckpt_deltas_len: 0,
            ckpt_timeline_lens: vec![0; p],
            dirty_caches: vec![false; p],
            batch: Vec::new(),
            batch_req: Vec::new(),
            batch_grants: Vec::new(),
            sorted_releases: Vec::new(),
            sorted_heap: Vec::new(),
        }
    }

    /// Events processed so far — the logical clock supervisors cut epochs
    /// on.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Trace events emitted so far (monotone across the whole run; a
    /// resumed engine continues the count, which is what lets a supervisor
    /// deduplicate the stream across crash boundaries).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Declares the current state a checkpoint boundary: the next
    /// [`Engine::wal_delta`] reports changes relative to *now*. Call after
    /// installing a full snapshot as a new WAL base.
    pub fn reset_wal_mark(&mut self) {
        self.ckpt_deltas_len = self.deltas.len();
        for (n, tl) in self.ckpt_timeline_lens.iter_mut().zip(&self.timelines) {
            *n = tl.len();
        }
        for d in &mut self.dirty_caches {
            *d = false;
        }
    }

    fn emit(&mut self, sink: &mut impl TraceSink, ev: &TraceEvent) {
        self.emitted += 1;
        sink.emit(ev);
    }

    /// Processes one event. Returns `Ok(true)` while events remain,
    /// `Ok(false)` when the run is complete.
    ///
    /// # Errors
    /// The same typed [`EngineError`]s as the one-shot entry points; the
    /// engine state after an error is unspecified (resume from a snapshot,
    /// not from the errored engine).
    pub fn step(
        &mut self,
        alloc: &mut dyn BoxAllocator,
        sink: &mut impl TraceSink,
    ) -> Result<bool, EngineError> {
        let Some(Reverse((now, kind, xi))) = self.heap.pop() else {
            return Ok(false);
        };
        self.ticks += 1;
        let x = xi as usize;
        // Deliver matured fault events before any decision at `now`: the
        // policy hears about a fault no later than its first grant request
        // at-or-after the fault's timestamp.
        while let Some(ev) = self.fault_cursor.pop_due(now) {
            if let FaultEvent::MemoryPressure { new_limit, .. } = ev {
                self.current_limit =
                    Some(self.current_limit.map_or(new_limit, |l| l.min(new_limit)));
            }
            alloc.on_fault(&ev);
            self.emit(sink, &TraceEvent::Fault { at: now, event: ev });
            self.faults_injected += 1;
        }
        if kind == EV_COMPLETION {
            self.remaining -= 1;
            alloc.on_proc_finished(ProcId(xi), now);
            self.emit(
                sink,
                &TraceEvent::Completion {
                    proc: ProcId(xi),
                    at: now,
                },
            );
            return Ok(true);
        }
        if now > self.opts.max_time {
            return Err(EngineError::TimeCapExceeded {
                at: now,
                cap: self.opts.max_time,
            });
        }
        // Batched dispatch: for an oblivious policy, every grant expiring at
        // this timestamp can be decided with one policy call before any of
        // the windows run — no feedback channel exists through which window
        // `x` could influence the decision for window `y` (see
        // `BoxAllocator::oblivious`). The batch is closed once drained:
        // completions at `now` sorted *before* these grant events and were
        // already popped, and processing a grant only enqueues events
        // strictly after `now` (durations are ≥ 1, and a completion takes
        // ≥ 1 served request costing ≥ 1). Non-oblivious policies keep the
        // strict per-event interleaving.
        if alloc.oblivious() {
            debug_assert!(self.batch.is_empty());
            self.batch
                .push((xi, self.fault_cursor.stalled_until(x, now)));
            while let Some(&Reverse((t, k, yi))) = self.heap.peek() {
                if t != now || k != EV_GRANT {
                    break;
                }
                self.heap.pop();
                // The logical clock counts events processed, batched or not.
                self.ticks += 1;
                self.batch
                    .push((yi, self.fault_cursor.stalled_until(yi as usize, now)));
            }
            return self.run_grant_batch(alloc, sink, now);
        }
        // A frozen processor gets no grant: defer the request to the stall
        // window's end (recorded as a height-0 interval so timelines stay
        // contiguous).
        if let Some(until) = self.fault_cursor.stalled_until(x, now) {
            self.defer_stalled(sink, now, xi, until);
            return Ok(true);
        }
        let grant = alloc.grant(ProcId(xi), now);
        self.apply_grant(alloc, sink, now, xi, grant)?;
        Ok(true)
    }

    /// The stall-deferral path shared by the scalar and batched dispatchers:
    /// a frozen processor gets no grant; its request is re-queued at the
    /// stall window's end, recorded as a height-0 interval so timelines stay
    /// contiguous.
    fn defer_stalled(&mut self, sink: &mut impl TraceSink, now: Time, xi: u32, until: Time) {
        if self.opts.record_timelines {
            self.timelines[xi as usize].push(Interval {
                start: now,
                end: until,
                height: 0,
            });
        }
        self.emit(
            sink,
            &TraceEvent::StallDeferred {
                proc: ProcId(xi),
                at: now,
                until,
            },
        );
        self.heap.push(Reverse((until, EV_GRANT, xi)));
    }

    /// Decides and applies the timestamp batch sitting in `self.batch`
    /// (ascending processor order, as the heap popped it): one
    /// `grant_batch` call for the non-stalled processors, then windows run
    /// and trace events are emitted in exactly the order the scalar path
    /// would have produced — stalls interleaved in place.
    fn run_grant_batch(
        &mut self,
        alloc: &mut dyn BoxAllocator,
        sink: &mut impl TraceSink,
        now: Time,
    ) -> Result<bool, EngineError> {
        self.batch_req.clear();
        self.batch_req.extend(
            self.batch
                .iter()
                .filter(|(_, stalled)| stalled.is_none())
                .map(|&(yi, _)| ProcId(yi)),
        );
        self.batch_grants.clear();
        if !self.batch_req.is_empty() {
            alloc.grant_batch(&self.batch_req, now, &mut self.batch_grants);
            assert_eq!(
                self.batch_grants.len(),
                self.batch_req.len(),
                "policy {} returned {} grants for a batch of {}",
                alloc.name(),
                self.batch_grants.len(),
                self.batch_req.len(),
            );
        }
        // Move the scratch out so `apply_grant` can borrow `self`; restored
        // below to keep the allocations (an errored engine is abandoned, so
        // the early returns may leak the scratch capacity, nothing else).
        let batch = std::mem::take(&mut self.batch);
        let grants = std::mem::take(&mut self.batch_grants);
        let mut gi = 0usize;
        let mut result = Ok(());
        for &(yi, stalled) in &batch {
            if let Some(until) = stalled {
                self.defer_stalled(sink, now, yi, until);
            } else {
                let grant = grants[gi];
                gi += 1;
                result = self.apply_grant(alloc, sink, now, yi, grant);
                if result.is_err() {
                    break;
                }
            }
        }
        self.batch = batch;
        self.batch_grants = grants;
        self.batch.clear();
        result?;
        Ok(true)
    }

    /// Applies one already-decided grant for processor `xi` at `now`: runs
    /// the window, emits `Grant`/`Window`, maintains every audit ledger, and
    /// re-queues the processor's next event.
    fn apply_grant(
        &mut self,
        alloc: &mut dyn BoxAllocator,
        sink: &mut impl TraceSink,
        now: Time,
        xi: u32,
        grant: Grant,
    ) -> Result<(), EngineError> {
        let x = xi as usize;
        if grant.duration == 0 {
            return Err(EngineError::ZeroDurationGrant {
                policy: alloc.name(),
                at: now,
            });
        }
        self.grants_issued += 1;
        let end = now
            .checked_add(grant.duration)
            .ok_or(EngineError::TimeOverflow { at: now })?;
        // Effective miss penalty: scaled during an injected latency spike.
        let eff_s = self
            .s
            .checked_mul(self.fault_cursor.latency_factor(now))
            .ok_or(EngineError::TimeOverflow { at: now })?;

        // The grant path is the only place a cache mutates (clear, resize,
        // and the served window below), so this flag alone decides whether
        // the next WAL delta must re-ship processor `x`'s cache blob.
        self.dirty_caches[x] = true;
        // Resident counts go through `len_mut`: the engine owns its caches,
        // so a sharded cache can count without locking its shards.
        let cache = &mut self.caches[x];
        let resident_before = cache.len_mut();
        if self.opts.compartmentalized {
            cache.clear();
        }
        cache.resize(grant.height);
        let resident_at_start = cache.len_mut();
        // Pages forced out at the box boundary itself (shrink truncation,
        // or the full flush under compartmentalized semantics).
        let boundary_evictions = (resident_before - resident_at_start) as u64;

        let out = if grant.height == 0 {
            // Stall: no progress; the cache (already truncated to zero)
            // holds nothing.
            parapage_cache::WindowOutcome {
                end_index: self.pos[x],
                stats: CacheStats::default(),
                time_used: 0,
                finished: self.pos[x] >= self.seqs[x].len(),
            }
        } else {
            run_window(&self.seqs[x], self.pos[x], cache, grant.duration, eff_s)
        };
        let served_from = self.pos[x];
        self.pos[x] = out.end_index;
        self.stats += out.stats;
        self.memory_integral += grant.height as u128 * grant.duration as u128;
        // Peak accounting releases the allocation at completion if the
        // processor finishes mid-grant (a real allocator reclaims on
        // completion); the memory *integral* above still charges the
        // committed grant in full, matching the paper's impact accounting.
        // (`now + out.time_used` cannot overflow: `time_used ≤ duration`
        // and `now + duration` was checked.)
        let release_at = if grant.height == 0 {
            now
        } else if out.finished {
            (now + out.time_used).max(now + 1)
        } else {
            end
        };
        self.emit(
            sink,
            &TraceEvent::Grant {
                proc: ProcId(xi),
                at: now,
                height: grant.height,
                duration: grant.duration,
                release_at,
            },
        );
        // Every fetch inserts one page (when the box has capacity), so
        // insertions minus cache growth is the eviction count.
        let window_evictions = if grant.height == 0 {
            0
        } else {
            out.stats.misses - (self.caches[x].len_mut() - resident_at_start) as u64
        };
        self.emit(
            sink,
            &TraceEvent::Window {
                proc: ProcId(xi),
                at: now,
                served: out.stats.accesses(),
                hits: out.stats.hits,
                fetches: out.stats.misses,
                evictions: boundary_evictions + window_evictions,
                time_used: out.time_used,
                finished: out.finished,
            },
        );
        if grant.height > 0 {
            self.deltas.push((now, grant.height as i64));
            self.deltas.push((release_at, -(grant.height as i64)));
            while let Some(&Reverse((t, h))) = self.releases.peek() {
                if t <= now {
                    self.releases.pop();
                    self.live_usage -= h;
                } else {
                    break;
                }
            }
            self.live_usage += grant.height;
            self.releases.push(Reverse((release_at, grant.height)));
            if let Some(limit) = self.current_limit {
                if self.live_usage > limit {
                    return Err(EngineError::MemoryLimitExceeded {
                        at: now,
                        allocated: self.live_usage,
                        limit,
                    });
                }
            }
        }
        if self.opts.record_timelines {
            self.timelines[x].push(Interval {
                start: now,
                end,
                height: grant.height,
            });
        }
        alloc.observe(ProcId(xi), &out);
        if out.end_index > served_from {
            alloc.observe_accesses(ProcId(xi), &self.seqs[x][served_from..out.end_index]);
        }

        if out.finished && !self.finished[x] {
            self.finished[x] = true;
            self.completions[x] = now + out.time_used;
            self.heap
                .push(Reverse((self.completions[x], EV_COMPLETION, xi)));
        } else if !out.finished {
            self.heap.push(Reverse((end, EV_GRANT, xi)));
        }
        Ok(())
    }

    /// Finalizes the run into a [`RunResult`]. Call only once
    /// [`Engine::step`] has returned `Ok(false)`.
    pub fn into_result(self, alloc: &dyn BoxAllocator) -> RunResult {
        debug_assert!(self.heap.is_empty());
        debug_assert_eq!(self.remaining, 0);

        // Peak concurrent memory from the delta trace.
        let mut deltas = self.deltas.to_vec();
        deltas.sort_unstable_by_key(|&(t, d)| (t, d));
        let mut cur = 0i64;
        let mut peak = 0i64;
        for &(_, d) in &deltas {
            cur += d;
            peak = peak.max(cur);
        }

        let makespan = self.completions.iter().copied().max().unwrap_or(0);
        RunResult {
            completions: self.completions,
            makespan,
            stats: self.stats,
            memory_integral: self.memory_integral,
            peak_memory: peak as usize,
            grants_issued: self.grants_issued,
            faults_injected: self.faults_injected,
            degraded_grants: alloc.degraded_grants(),
            timelines: if self.opts.record_timelines {
                Some(self.timelines)
            } else {
                None
            },
        }
    }
}

impl<'a, C: Cache + Checkpoint> Engine<'a, C> {
    /// Captures the run's full dynamic state — engine counters, event heap,
    /// per-processor caches, and the policy's own checkpoint — at the
    /// current event boundary. `self.snapshot(alloc)?.encode()` is the
    /// reference encoding that [`Engine::write_snapshot`], the
    /// supervisor's checkpoint path, is tested against.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] when the policy (or a green pager inside
    /// it) does not support checkpointing.
    pub fn snapshot(&self, alloc: &dyn BoxAllocator) -> Result<EngineSnapshot, SnapshotError> {
        Ok(EngineSnapshot {
            run: self.run_state(),
            workload_digest: self.workload_digest,
            timelines: if self.opts.record_timelines {
                self.timelines.clone()
            } else {
                Vec::new()
            },
            deltas: self.deltas.to_vec(),
            cache_blobs: self.caches.iter().map(cache_blob).collect(),
            policy_blob: policy_blob(alloc)?,
        })
    }

    /// The run state at the current event boundary. Heaps iterate in
    /// arbitrary internal order, so pending releases and events come out
    /// sorted: equal states compare, and encode, equal.
    fn run_state(&self) -> RunState {
        let mut releases: Vec<(Time, usize)> = self.releases.iter().map(|&Reverse(e)| e).collect();
        releases.sort_unstable();
        let mut heap: Vec<(Time, u8, u32)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        heap.sort_unstable();
        RunState {
            ticks: self.ticks,
            emitted: self.emitted,
            pos: self.pos.clone(),
            completions: self.completions.clone(),
            finished: self.finished.clone(),
            stats: self.stats,
            memory_integral: self.memory_integral,
            grants_issued: self.grants_issued,
            live_usage: self.live_usage,
            releases,
            current_limit: self.current_limit,
            fault_pos: self.fault_cursor.position(),
            faults_injected: self.faults_injected,
            heap,
            remaining: self.remaining,
        }
    }

    /// Captures everything that changed since the last checkpoint boundary
    /// as a [`WalDelta`] — the payload of one WAL record — and advances the
    /// boundary to now. `self.wal_delta(alloc)?.encode()` is the reference
    /// encoding that [`Engine::write_wal_delta`], the supervisor's
    /// checkpoint path, is tested against.
    ///
    /// The delta carries the engine's O(p) scalars, the suffixes of the
    /// grow-only audit/timeline traces, the cache blobs of only the caches
    /// mutated since the mark, and the policy's full checkpoint (bounded,
    /// and the carrier of RNG position for the randomized policies). The
    /// mark is reset by a successful call, by [`Engine::restore`], and by
    /// [`Engine::reset_wal_mark`] — a supervisor resets it whenever it
    /// installs a fresh full snapshot as the new WAL base.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] when the policy does not support
    /// checkpointing; the mark is left untouched on error.
    pub fn wal_delta(&mut self, alloc: &dyn BoxAllocator) -> Result<WalDelta, SnapshotError> {
        let delta = WalDelta {
            run: self.run_state(),
            deltas_base: self.ckpt_deltas_len as u64,
            deltas_suffix: self
                .deltas
                .iter_from(self.ckpt_deltas_len)
                .copied()
                .collect(),
            timeline_bases: if self.opts.record_timelines {
                self.ckpt_timeline_lens.iter().map(|&n| n as u64).collect()
            } else {
                Vec::new()
            },
            timeline_suffixes: if self.opts.record_timelines {
                self.timelines
                    .iter()
                    .zip(&self.ckpt_timeline_lens)
                    .map(|(tl, &n)| tl[n..].to_vec())
                    .collect()
            } else {
                Vec::new()
            },
            cache_updates: self
                .caches
                .iter()
                .enumerate()
                .filter(|&(x, _)| self.dirty_caches[x])
                .map(|(x, cache)| (x as u32, cache_blob(cache)))
                .collect(),
            policy_blob: policy_blob(alloc)?,
        };
        self.reset_wal_mark();
        Ok(delta)
    }

    /// Writes the framed full snapshot straight from engine state into
    /// `w` — the bytes of `self.snapshot(alloc)?.encode()`, without
    /// building the [`EngineSnapshot`] or any per-cache blob — and returns
    /// the [`WalCursor`] for a log written after it as a base (its chain
    /// seed comes out of the same pass that computes the trailer digest).
    ///
    /// This is the supervisor's checkpoint path; [`Engine::snapshot`] and
    /// [`EngineSnapshot::encode`] are the reference encoders it is tested
    /// against. Caches are saved through [`Checkpoint::save_mut`], so a
    /// sharded cache takes no locks.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] when the policy does not support
    /// checkpointing; `w` then holds a partial blob to discard.
    pub fn write_snapshot(
        &mut self,
        alloc: &dyn BoxAllocator,
        w: &mut SnapWriter,
    ) -> Result<WalCursor, SnapshotError> {
        let frame = w.begin_framed();
        w.put_u64(self.ticks);
        w.put_u64(self.emitted);
        w.put_u64(self.workload_digest);
        self.write_progress(w);
        if self.opts.record_timelines {
            w.put_len(self.timelines.len());
            for tl in &self.timelines {
                write_intervals(w, tl);
            }
        } else {
            w.put_len(0);
        }
        w.put_len(self.deltas.len());
        for &(t, d) in self.deltas.iter() {
            w.put_u64(t);
            w.put_i64(d);
        }
        self.write_pending(w);
        w.put_len(self.caches.len());
        for cache in &mut self.caches {
            let blob = w.begin_bytes();
            cache.save_mut(w);
            w.end_bytes(blob);
        }
        let blob = w.begin_bytes();
        alloc.checkpoint(w)?;
        w.end_bytes(blob);
        Ok(WalCursor {
            seq: 0,
            chain: w.end_framed(frame),
        })
    }

    /// Writes the WAL delta payload for everything changed since the last
    /// checkpoint boundary straight into `w` — the bytes of
    /// `self.wal_delta(alloc)?.encode()`, without building the
    /// [`WalDelta`] or any per-cache blob — and advances the boundary to
    /// now, exactly as [`Engine::wal_delta`] does.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] when the policy does not support
    /// checkpointing; the mark is left untouched and `w` holds a partial
    /// payload to discard.
    pub fn write_wal_delta(
        &mut self,
        alloc: &dyn BoxAllocator,
        w: &mut SnapWriter,
    ) -> Result<(), SnapshotError> {
        w.put_u8(SEC_SCALARS);
        w.put_u64(self.ticks);
        self.write_progress(w);
        self.write_pending(w);

        w.put_u8(SEC_AUDIT);
        w.put_u64(self.ckpt_deltas_len as u64);
        w.put_len(self.deltas.len() - self.ckpt_deltas_len);
        for &(t, d) in self.deltas.iter_from(self.ckpt_deltas_len) {
            w.put_u64(t);
            w.put_i64(d);
        }

        w.put_u8(SEC_TIMELINES);
        if self.opts.record_timelines {
            w.put_len(self.timelines.len());
            for (tl, &n) in self.timelines.iter().zip(&self.ckpt_timeline_lens) {
                w.put_u64(n as u64);
                write_intervals(w, &tl[n..]);
            }
        } else {
            w.put_len(0);
        }

        w.put_u8(SEC_CACHES);
        w.put_len(self.dirty_caches.iter().filter(|&&d| d).count());
        for (x, (cache, &dirty)) in self.caches.iter_mut().zip(&self.dirty_caches).enumerate() {
            if dirty {
                w.put_u32(x as u32);
                let blob = w.begin_bytes();
                cache.save_mut(w);
                w.end_bytes(blob);
            }
        }

        w.put_u8(SEC_POLICY);
        let blob = w.begin_bytes();
        alloc.checkpoint(w)?;
        w.end_bytes(blob);

        w.put_u8(SEC_TRACE_HWM);
        w.put_u64(self.emitted);
        self.reset_wal_mark();
        Ok(())
    }

    /// Per-processor cursors and the run's counters, in the order both
    /// checkpoint formats share.
    fn write_progress(&self, w: &mut SnapWriter) {
        w.put_len(self.p);
        for &v in &self.pos {
            w.put_usize(v);
        }
        for &c in &self.completions {
            w.put_u64(c);
        }
        for &f in &self.finished {
            w.put_bool(f);
        }
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u128(self.memory_integral);
        w.put_u64(self.grants_issued);
    }

    /// Live usage, pending releases and events (sorted, so equal states
    /// write equal bytes), the memory limit and the fault-plan position,
    /// in the order both checkpoint formats share.
    fn write_pending(&mut self, w: &mut SnapWriter) {
        w.put_usize(self.live_usage);
        self.sorted_releases.clear();
        self.sorted_releases
            .extend(self.releases.iter().map(|&Reverse(e)| e));
        self.sorted_releases.sort_unstable();
        w.put_len(self.sorted_releases.len());
        for &(t, h) in &self.sorted_releases {
            w.put_u64(t);
            w.put_usize(h);
        }
        match self.current_limit {
            Some(l) => {
                w.put_bool(true);
                w.put_usize(l);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.fault_cursor.position());
        w.put_u64(self.faults_injected);
        self.sorted_heap.clear();
        self.sorted_heap
            .extend(self.heap.iter().map(|&Reverse(e)| e));
        self.sorted_heap.sort_unstable();
        w.put_len(self.sorted_heap.len());
        for &(t, kind, proc) in &self.sorted_heap {
            w.put_u64(t);
            w.put_u8(kind);
            w.put_u32(proc);
        }
        w.put_usize(self.remaining);
    }

    /// Replaces this engine's dynamic state (and `alloc`'s, via
    /// `BoxAllocator::restore`) with a snapshot taken from an engine built
    /// on the same workload, parameters, and fault plan. After a successful
    /// restore the run continues byte-identically to the snapshotted one.
    ///
    /// # Errors
    /// [`SnapshotError::WorkloadMismatch`] when the snapshot was taken
    /// against different sequences; [`SnapshotError::Shape`] on a
    /// structural mismatch; [`SnapshotError::Codec`] when a cache or
    /// policy blob fails to load.
    pub fn restore(
        &mut self,
        snap: &EngineSnapshot,
        alloc: &mut dyn BoxAllocator,
    ) -> Result<(), SnapshotError> {
        if snap.workload_digest != self.workload_digest {
            return Err(SnapshotError::WorkloadMismatch {
                expected: self.workload_digest,
                found: snap.workload_digest,
            });
        }
        let run = &snap.run;
        if run.pos.len() != self.p
            || run.completions.len() != self.p
            || run.finished.len() != self.p
            || snap.cache_blobs.len() != self.p
        {
            return Err(SnapshotError::Shape("processor count"));
        }
        if !snap.timelines.is_empty() && snap.timelines.len() != self.p {
            return Err(SnapshotError::Shape("timeline count"));
        }
        for (x, &pos) in run.pos.iter().enumerate() {
            if pos > self.seqs[x].len() {
                return Err(SnapshotError::Shape("sequence cursor out of range"));
            }
        }
        for (cache, blob) in self.caches.iter_mut().zip(&snap.cache_blobs) {
            cache.load(&mut SnapReader::new(blob))?;
        }
        alloc.restore(&mut SnapReader::new(&snap.policy_blob))?;
        self.ticks = run.ticks;
        self.emitted = run.emitted;
        self.pos = run.pos.clone();
        self.completions = run.completions.clone();
        self.finished = run.finished.clone();
        self.stats = run.stats;
        self.memory_integral = run.memory_integral;
        self.grants_issued = run.grants_issued;
        self.timelines = if snap.timelines.is_empty() {
            vec![Vec::new(); self.p]
        } else {
            snap.timelines.clone()
        };
        self.deltas.assign(&snap.deltas);
        self.live_usage = run.live_usage;
        self.releases = run.releases.iter().map(|&e| Reverse(e)).collect();
        self.current_limit = run.current_limit;
        self.fault_cursor.set_position(run.fault_pos);
        self.faults_injected = run.faults_injected;
        self.heap = run.heap.iter().map(|&e| Reverse(e)).collect();
        self.remaining = run.remaining;
        // The restored state *is* the new checkpoint boundary.
        self.reset_wal_mark();
        Ok(())
    }
}

/// `cache`'s `Checkpoint` blob, for the reference encoders.
fn cache_blob(cache: &impl Checkpoint) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    w.into_bytes()
}

/// `alloc`'s `BoxAllocator::checkpoint` blob, for the reference encoders.
fn policy_blob(alloc: &dyn BoxAllocator) -> Result<Vec<u8>, SnapshotError> {
    let mut w = SnapWriter::new();
    alloc.checkpoint(&mut w)?;
    Ok(w.into_bytes())
}

/// A timeline as a length-prefixed list of `(start, end, height)`.
fn write_intervals(w: &mut SnapWriter, tl: &[Interval]) {
    w.put_len(tl.len());
    for iv in tl {
        w.put_u64(iv.start);
        w.put_u64(iv.end);
        w.put_usize(iv.height);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_core::{DetPar, Grant, RandPar, StaticPartition};

    fn cyclic_seqs(p: usize, len: usize, width: u64) -> Vec<Vec<PageId>> {
        (0..p)
            .map(|x| {
                (0..len)
                    .map(|i| PageId::namespaced(ProcId(x as u32), i as u64 % width))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sharded_engine_with_one_shard_matches_sequential() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = cyclic_seqs(4, 200, 8);
        let mut alloc = DetPar::new(&params);
        let seq_res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        let mut alloc = DetPar::new(&params);
        let sharded_res =
            run_engine_sharded(&mut alloc, &seqs, &params, &EngineOpts::default(), 1).unwrap();
        assert_eq!(seq_res, sharded_res);
        let mut alloc = DetPar::new(&params);
        let general_res = run_engine_with(
            &mut alloc,
            &seqs,
            &params,
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| LruCache::new(0),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(seq_res, general_res);
    }

    #[test]
    fn sharded_engine_with_many_shards_completes_all_requests() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = cyclic_seqs(4, 150, 8);
        let mut alloc = DetPar::new(&params);
        let res =
            run_engine_sharded(&mut alloc, &seqs, &params, &EngineOpts::default(), 4).unwrap();
        assert_eq!(res.stats.accesses(), 600);
        // Deterministic: the same run reproduces bit-for-bit.
        let mut alloc = DetPar::new(&params);
        let res2 =
            run_engine_sharded(&mut alloc, &seqs, &params, &EngineOpts::default(), 4).unwrap();
        assert_eq!(res, res2);
    }

    #[test]
    fn static_partition_serves_everything() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = cyclic_seqs(4, 100, 8);
        let mut alloc = StaticPartition::new(&params);
        let res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        assert_eq!(res.stats.accesses(), 400);
        assert!(res.makespan > 0);
        assert_eq!(res.completions.len(), 4);
        // Partition of 8 holds the 8-page cycle: 8 misses + 92 hits each.
        assert_eq!(res.stats.misses, 32);
        // Completion = 8 misses * 10 + 92 hits = 172 for every processor.
        assert!(res.completions.iter().all(|&c| c == 172));
        assert!(res.peak_memory <= 32);
    }

    #[test]
    fn symmetric_processors_finish_simultaneously() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = cyclic_seqs(4, 200, 16);
        let mut alloc = DetPar::new(&params);
        let res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        assert_eq!(res.stats.accesses(), 800);
        assert!(res.makespan >= *res.completions.iter().max().unwrap());
    }

    #[test]
    fn det_par_memory_stays_within_documented_factor() {
        let params = ModelParams::new(8, 64, 10);
        let seqs = cyclic_seqs(8, 500, 24);
        let mut alloc = DetPar::new(&params);
        let res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        assert!(
            res.peak_memory <= DetPar::MEMORY_FACTOR * params.k,
            "peak {} exceeds {}k",
            res.peak_memory,
            DetPar::MEMORY_FACTOR
        );
    }

    #[test]
    fn rand_par_completes_and_respects_memory() {
        let params = ModelParams::new(8, 64, 10);
        let seqs = cyclic_seqs(8, 400, 12);
        let mut alloc = RandPar::new(&params, 42);
        let res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        assert_eq!(res.stats.accesses(), 8 * 400);
        // Primary (r*h_min <= k) and secondary (batch*j <= k) never exceed
        // ~2k concurrently even across chunk boundaries.
        assert!(res.peak_memory <= 2 * params.k, "peak {}", res.peak_memory);
    }

    #[test]
    fn empty_sequences_complete_at_time_zero() {
        let params = ModelParams::new(2, 8, 10);
        let seqs = vec![vec![], vec![PageId(1)]];
        let mut alloc = StaticPartition::new(&params);
        let res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        assert_eq!(res.completions[0], 0);
        assert_eq!(res.completions[1], 10);
        assert_eq!(res.makespan, 10);
    }

    #[test]
    fn timelines_cover_each_processors_run() {
        let params = ModelParams::new(2, 8, 10);
        let seqs = cyclic_seqs(2, 50, 4);
        let mut alloc = StaticPartition::new(&params);
        let opts = EngineOpts {
            record_timelines: true,
            ..Default::default()
        };
        let res = run_engine(&mut alloc, &seqs, &params, &opts).unwrap();
        let tl = res.timelines.as_ref().unwrap();
        for (x, ivs) in tl.iter().enumerate() {
            assert!(!ivs.is_empty());
            // Contiguous, ordered intervals from 0 past the completion.
            assert_eq!(ivs[0].start, 0);
            for w in ivs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(ivs.last().unwrap().end >= res.completions[x]);
        }
    }

    #[test]
    fn compartmentalized_runs_are_never_faster() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = cyclic_seqs(4, 300, 8);
        let mut a1 = StaticPartition::new(&params);
        let plain = run_engine(&mut a1, &seqs, &params, &EngineOpts::default()).unwrap();
        let mut a2 = StaticPartition::new(&params);
        let comp = run_engine(
            &mut a2,
            &seqs,
            &params,
            &EngineOpts {
                compartmentalized: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(comp.makespan >= plain.makespan);
        assert!(comp.stats.misses >= plain.stats.misses);
    }

    #[test]
    fn eternal_stalling_returns_time_cap_error() {
        struct Staller;
        impl BoxAllocator for Staller {
            fn grant(&mut self, _x: ProcId, _now: Time) -> Grant {
                Grant::stall(1000)
            }
            fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
            fn name(&self) -> &'static str {
                "staller"
            }
        }
        let params = ModelParams::new(1, 4, 10);
        let seqs = vec![vec![PageId(1)]];
        let opts = EngineOpts {
            max_time: 10_000,
            ..Default::default()
        };
        let err = run_engine(&mut Staller, &seqs, &params, &opts).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TimeCapExceeded { cap: 10_000, .. }
        ));
    }

    #[test]
    fn zero_duration_grant_is_a_typed_error() {
        struct Degenerate;
        impl BoxAllocator for Degenerate {
            fn grant(&mut self, _x: ProcId, _now: Time) -> Grant {
                Grant {
                    height: 2,
                    duration: 0,
                }
            }
            fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
            fn name(&self) -> &'static str {
                "degenerate"
            }
        }
        let params = ModelParams::new(1, 4, 10);
        let seqs = vec![vec![PageId(1)]];
        let err = run_engine(&mut Degenerate, &seqs, &params, &EngineOpts::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::ZeroDurationGrant {
                policy: "degenerate",
                at: 0
            }
        );
    }

    #[test]
    fn overflowing_grant_duration_is_a_typed_error() {
        // First a stall to move `now` off zero, then a grant whose end time
        // `now + u64::MAX` would wrap.
        struct Eternal(bool);
        impl BoxAllocator for Eternal {
            fn grant(&mut self, _x: ProcId, _now: Time) -> Grant {
                if !self.0 {
                    self.0 = true;
                    Grant::stall(1000)
                } else {
                    Grant {
                        height: 1,
                        duration: u64::MAX,
                    }
                }
            }
            fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
            fn name(&self) -> &'static str {
                "eternal"
            }
        }
        let params = ModelParams::new(1, 4, 10);
        let seqs = vec![vec![PageId(1)]];
        let opts = EngineOpts {
            max_time: u64::MAX,
            ..Default::default()
        };
        let err = run_engine(&mut Eternal(false), &seqs, &params, &opts).unwrap_err();
        assert_eq!(err, EngineError::TimeOverflow { at: 1000 });
    }

    #[test]
    fn memory_integral_counts_grant_areas() {
        let params = ModelParams::new(1, 4, 10);
        // One processor, one page: StaticPartition grants height 4 for 40.
        let seqs = vec![vec![PageId(1)]];
        let mut alloc = StaticPartition::new(&params);
        let res = run_engine(&mut alloc, &seqs, &params, &EngineOpts::default()).unwrap();
        assert_eq!(res.memory_integral, 4 * 40);
        assert_eq!(res.grants_issued, 1);
    }
}

#[cfg(test)]
mod generic_engine_tests {
    use super::*;
    use parapage_cache::{ArcCache, FifoCache};
    use parapage_core::StaticPartition;

    fn seqs(p: usize, len: usize, width: u64) -> Vec<Vec<PageId>> {
        (0..p)
            .map(|x| {
                (0..len)
                    .map(|i| PageId::namespaced(ProcId(x as u32), i as u64 % width))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn alternative_replacement_policies_serve_everything() {
        let params = ModelParams::new(4, 32, 10);
        let w = seqs(4, 200, 12);
        let mut a1 = StaticPartition::new(&params);
        let fifo = run_engine_with(
            &mut a1,
            &w,
            &params,
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| FifoCache::new(0),
            &mut NullSink,
        )
        .unwrap();
        let mut a2 = StaticPartition::new(&params);
        let arc = run_engine_with(
            &mut a2,
            &w,
            &params,
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| ArcCache::new(0),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(fifo.stats.accesses(), 800);
        assert_eq!(arc.stats.accesses(), 800);
        // Same partition sizes: both must land between all-hit and all-miss.
        for r in [&fifo, &arc] {
            assert!(r.makespan >= 200 && r.makespan <= 2000);
        }
    }

    #[test]
    fn memory_limit_accepts_compliant_policies() {
        let params = ModelParams::new(4, 32, 10);
        let w = seqs(4, 300, 8);
        let mut st = StaticPartition::new(&params);
        let opts = EngineOpts {
            memory_limit: Some(params.k),
            ..Default::default()
        };
        let res = run_engine(&mut st, &w, &params, &opts).unwrap();
        assert!(res.peak_memory <= params.k);
    }

    #[test]
    fn memory_limit_catches_oversubscription() {
        struct Greedy(usize);
        impl BoxAllocator for Greedy {
            fn grant(&mut self, _x: ProcId, _now: Time) -> parapage_core::Grant {
                parapage_core::Grant {
                    height: self.0,
                    duration: 100,
                }
            }
            fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
            fn name(&self) -> &'static str {
                "greedy"
            }
        }
        let params = ModelParams::new(4, 32, 10);
        let w = seqs(4, 50, 8);
        let opts = EngineOpts {
            memory_limit: Some(params.k),
            ..Default::default()
        };
        // Four concurrent grants of k pages each: 4k > k; the second grant
        // (at t=0) already crosses the limit.
        let err = run_engine(&mut Greedy(32), &w, &params, &opts).unwrap_err();
        assert_eq!(
            err,
            EngineError::MemoryLimitExceeded {
                at: 0,
                allocated: 64,
                limit: 32
            }
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::TraceRecorder;
    use parapage_core::StaticPartition;

    fn seqs(p: usize, len: usize, width: u64) -> Vec<Vec<PageId>> {
        (0..p)
            .map(|x| {
                (0..len)
                    .map(|i| PageId::namespaced(ProcId(x as u32), i as u64 % width))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn traced_run_matches_untraced_and_streams_every_step() {
        let params = ModelParams::new(4, 32, 10);
        let w = seqs(4, 120, 8);
        let mut a1 = StaticPartition::new(&params);
        let plain = run_engine(&mut a1, &w, &params, &EngineOpts::default()).unwrap();
        let mut a2 = StaticPartition::new(&params);
        let mut rec = TraceRecorder::new();
        let traced = run_engine_with(
            &mut a2,
            &w,
            &params,
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| LruCache::new(0),
            &mut rec,
        )
        .unwrap();
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.stats, traced.stats);
        let grants = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Grant { .. }))
            .count() as u64;
        assert_eq!(grants, traced.grants_issued);
        let windows = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Window { .. }))
            .count() as u64;
        assert_eq!(windows, grants, "one window per grant");
        let completions = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Completion { .. }))
            .count();
        assert_eq!(completions, 4);
        // Timestamps are non-decreasing along the stream.
        for pair in rec.events().windows(2) {
            assert!(pair[0].at() <= pair[1].at());
        }
        // Total fetched pages on the stream match the run stats.
        let fetches: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Window { fetches, .. } => Some(*fetches),
                _ => None,
            })
            .sum();
        assert_eq!(fetches, traced.stats.misses);
    }

    #[test]
    fn trace_records_fault_delivery_and_stall_deferral() {
        let params = ModelParams::new(2, 8, 10);
        let w = seqs(2, 40, 4);
        let plan = FaultPlan::new(vec![FaultEvent::ProcStall {
            proc: ProcId(0),
            from: 0,
            until: 100,
        }]);
        let mut alloc = StaticPartition::new(&params);
        let mut rec = TraceRecorder::new();
        run_engine_with(
            &mut alloc,
            &w,
            &params,
            &EngineOpts::default(),
            &plan,
            |_| LruCache::new(0),
            &mut rec,
        )
        .unwrap();
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Fault { .. })));
        assert!(rec.events().iter().any(|e| matches!(
            e,
            TraceEvent::StallDeferred {
                proc: ProcId(0),
                until: 100,
                ..
            }
        )));
    }

    #[test]
    fn eviction_counts_match_compulsory_arithmetic() {
        // One processor cycling 8 pages through a 4-page box: every access
        // past the first 4 insertions evicts exactly one page.
        let params = ModelParams::new(1, 4, 10);
        let w = seqs(1, 32, 8);
        let mut alloc = StaticPartition::new(&params);
        let mut rec = TraceRecorder::new();
        let res = run_engine_with(
            &mut alloc,
            &w,
            &params,
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| LruCache::new(0),
            &mut rec,
        )
        .unwrap();
        let evictions: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Window { evictions, .. } => Some(*evictions),
                _ => None,
            })
            .sum();
        // All 32 accesses miss (cycle width 8 > capacity 4); the cache ends
        // holding 4 pages, so evictions = misses - 4.
        assert_eq!(res.stats.misses, 32);
        assert_eq!(evictions, 32 - 4);
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use parapage_core::StaticPartition;

    fn seqs(p: usize, len: usize, width: u64) -> Vec<Vec<PageId>> {
        (0..p)
            .map(|x| {
                (0..len)
                    .map(|i| PageId::namespaced(ProcId(x as u32), i as u64 % width))
                    .collect()
            })
            .collect()
    }

    /// `alloc` over LRU boxes with default options, replaying `plan`.
    fn run_faults(
        alloc: &mut dyn BoxAllocator,
        w: &[Vec<PageId>],
        params: &ModelParams,
        plan: &FaultPlan,
    ) -> Result<RunResult, EngineError> {
        let opts = EngineOpts::default();
        run_engine_with(
            alloc,
            w,
            params,
            &opts,
            plan,
            |_| LruCache::new(0),
            &mut NullSink,
        )
    }

    #[test]
    fn clean_plan_matches_plain_run() {
        let params = ModelParams::new(4, 32, 10);
        let w = seqs(4, 200, 8);
        let mut a1 = StaticPartition::new(&params);
        let plain = run_engine(&mut a1, &w, &params, &EngineOpts::default()).unwrap();
        let mut a2 = StaticPartition::new(&params);
        let faulted = run_faults(&mut a2, &w, &params, &FaultPlan::none()).unwrap();
        assert_eq!(plain.makespan, faulted.makespan);
        assert_eq!(plain.stats, faulted.stats);
        assert_eq!(faulted.faults_injected, 0);
        assert_eq!(faulted.degraded_grants, 0);
    }

    #[test]
    fn stall_window_freezes_the_processor() {
        let params = ModelParams::new(2, 8, 10);
        let w = seqs(2, 50, 4);
        let mut a1 = StaticPartition::new(&params);
        let clean = run_engine(&mut a1, &w, &params, &EngineOpts::default()).unwrap();
        // Freeze processor 0 for a long window; its completion must slip
        // past the window's end while processor 1 is unaffected.
        let window_end = clean.makespan + 500;
        let plan = FaultPlan::new(vec![FaultEvent::ProcStall {
            proc: ProcId(0),
            from: 0,
            until: window_end,
        }]);
        let mut a2 = StaticPartition::new(&params);
        let res = run_faults(&mut a2, &w, &params, &plan).unwrap();
        assert!(res.completions[0] >= window_end);
        assert_eq!(res.completions[1], clean.completions[1]);
        assert_eq!(res.faults_injected, 1);
    }

    #[test]
    fn latency_spike_slows_misses_only_inside_window() {
        let params = ModelParams::new(1, 8, 10);
        let w = seqs(1, 40, 4);
        let mut a1 = StaticPartition::new(&params);
        let clean = run_engine(&mut a1, &w, &params, &EngineOpts::default()).unwrap();
        // A spike covering the whole run multiplies every miss by 5: the
        // same 4 compulsory misses cost 50 each (plus box-boundary waste
        // when a fetch no longer fits the remaining quantum).
        let plan = FaultPlan::new(vec![FaultEvent::LatencySpike {
            from: 0,
            until: u64::MAX / 8,
            factor: 5,
        }]);
        let mut a2 = StaticPartition::new(&params);
        let res = run_faults(&mut a2, &w, &params, &plan).unwrap();
        assert!(res.makespan > clean.makespan);
        assert!(res.makespan >= 4 * 50 + 36);
        assert_eq!(res.stats, clean.stats);
        // A spike after completion changes nothing (and is never injected).
        let late = FaultPlan::new(vec![FaultEvent::LatencySpike {
            from: clean.makespan + 1000,
            until: clean.makespan + 2000,
            factor: 5,
        }]);
        let mut a3 = StaticPartition::new(&params);
        let res2 = run_faults(&mut a3, &w, &params, &late).unwrap();
        assert_eq!(res2.makespan, clean.makespan);
        assert_eq!(res2.faults_injected, 0);
    }

    #[test]
    fn memory_pressure_activates_enforcement_mid_run() {
        struct Greedy;
        impl BoxAllocator for Greedy {
            fn grant(&mut self, _x: ProcId, _now: Time) -> parapage_core::Grant {
                parapage_core::Grant {
                    height: 8,
                    duration: 50,
                }
            }
            fn on_proc_finished(&mut self, _x: ProcId, _now: Time) {}
            fn name(&self) -> &'static str {
                "greedy"
            }
        }
        let params = ModelParams::new(2, 16, 10);
        let w = seqs(2, 400, 12);
        // No static memory_limit: the pressure event itself activates
        // enforcement at 4 pages, which Greedy's height-8 grants violate.
        let plan = FaultPlan::new(vec![FaultEvent::MemoryPressure {
            at: 100,
            new_limit: 4,
        }]);
        let err = run_faults(&mut Greedy, &w, &params, &plan).unwrap_err();
        assert!(matches!(
            err,
            EngineError::MemoryLimitExceeded { limit: 4, .. }
        ));
    }

    #[test]
    fn pressure_at_a_grant_tick_clamps_hardened_and_kills_raw() {
        use parapage_core::HardenedAllocator;
        // StaticPartition on p=2, k=16, s=10 grants height 8 for 80 ticks,
        // so grant requests land at exactly t = 0, 80, 160, … Deliver
        // MemoryPressure at t=80 — the same tick as the second grant. The
        // engine delivers faults before any decision at `now`, so:
        //  * the raw partition (oblivious by design) must be refused at
        //    exactly t=80 with the tightened limit;
        //  * the hardened wrapper must hear the fault first, clamp the
        //    very grant issued at t=80, and finish the run degraded.
        let params = ModelParams::new(2, 16, 10);
        let w = seqs(2, 400, 12);
        let plan = FaultPlan::new(vec![FaultEvent::MemoryPressure {
            at: 80,
            new_limit: 6,
        }]);

        let raw_err =
            run_faults(&mut StaticPartition::new(&params), &w, &params, &plan).unwrap_err();
        assert_eq!(
            raw_err,
            EngineError::MemoryLimitExceeded {
                at: 80,
                allocated: 8,
                limit: 6
            }
        );

        let mut hardened = HardenedAllocator::new(StaticPartition::new(&params), params.k);
        let res = run_faults(&mut hardened, &w, &params, &plan).unwrap();
        assert_eq!(
            res.stats.accesses(),
            2 * 400,
            "hardened run serves everything"
        );
        assert!(
            res.degraded_grants > 0,
            "the t=80 grant (and later ones) must be clamped"
        );
        assert_eq!(res.faults_injected, 1);
        // Peak before the fault is the full 2x8; an Ok result proves no
        // post-fault grant crossed the tightened limit (the engine itself
        // enforces it from t=80 on).
        assert_eq!(res.peak_memory, 16);
    }

    #[test]
    fn latency_spike_can_overflow_to_typed_error() {
        let params = ModelParams::new(1, 8, 10);
        let w = seqs(1, 10, 4);
        let plan = FaultPlan::new(vec![FaultEvent::LatencySpike {
            from: 0,
            until: 100,
            factor: u64::MAX,
        }]);
        let err = run_faults(&mut StaticPartition::new(&params), &w, &params, &plan).unwrap_err();
        assert!(matches!(err, EngineError::TimeOverflow { .. }));
    }
}
