//! WAL corruption chaos: torn writes against the incremental checkpoint
//! log must lose at most the tail, never correctness.
//!
//! The supervisor's WAL-backed recovery contract (see `parapage-sched`'s
//! `wal` module) is: whatever happens to the bytes the recovery scan reads
//! — a torn final write, a partial tail, a truncation in the middle of the
//! log, a flipped bit, a stale base paired with a newer log, a corrupt
//! base — the supervised run either resumes from the last intact record or
//! restarts from an earlier point, and in every case finishes
//! **byte-identical** to the uninterrupted run. Corruption is detected as
//! a typed `CodecError` and surfaced as a truncation count; it is never a
//! panic and never a silent divergence.
//!
//! This module turns that contract into matrix cells: a
//! [`SabotagedStore`] wraps the supervisor's checkpoint store and serves a
//! corrupted `(base, log)` view exactly once — at the recovery read that
//! follows an injected crash — then [`check_wal_corruption`] diffs the
//! recovered run against the uninterrupted baseline field by field and
//! event by event. [`crate::chaos::chaos_matrices`] sweeps every
//! checkpoint-capable policy (RNG-backed ones included) across every
//! corruption kind; `parapage chaos --wal` drives it.

use parapage_cache::{
    fnv1a64, parse_wal_record, LruCache, PageId, WalRecordStep, WAL_RECORD_HEADER,
};
use parapage_core::{boxed_policy, ModelParams};
use parapage_sched::{
    CheckpointStore, CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink,
    Supervisor, SupervisorOpts, TraceRecorder,
};

use crate::chaos::{Baseline, ChaosCell};

/// The corruption a [`SabotagedStore`] inflicts on the recovery read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalCorruption {
    /// The last bytes of the log vanish mid-record — the classic torn
    /// write of an append that did not complete.
    TornTail,
    /// The log ends a few bytes into the final record's header — a tear so
    /// early the record's frame is unreadable.
    PartialTail,
    /// Bytes are cut out of the *middle* of the log (an interior record is
    /// truncated), desynchronizing everything after it.
    MidRecord,
    /// One byte somewhere in the log flips — silent media corruption; the
    /// digest chain must catch it.
    BitFlip,
    /// The log is paired with the *previous* base snapshot — a stale base
    /// under a newer log, as when a base write was lost but its log
    /// survived. The chain seed must refuse every record.
    StaleBase,
    /// One byte of the base snapshot itself flips: recovery must fall back
    /// to restarting the run from scratch.
    BaseFlip,
}

impl WalCorruption {
    /// Every corruption kind, in matrix order.
    pub const ALL: [WalCorruption; 6] = [
        WalCorruption::TornTail,
        WalCorruption::PartialTail,
        WalCorruption::MidRecord,
        WalCorruption::BitFlip,
        WalCorruption::StaleBase,
        WalCorruption::BaseFlip,
    ];

    /// Stable cell name (used by `parapage chaos --cells`).
    pub fn name(&self) -> &'static str {
        match self {
            WalCorruption::TornTail => "torn-tail",
            WalCorruption::PartialTail => "partial-tail",
            WalCorruption::MidRecord => "mid-record",
            WalCorruption::BitFlip => "bit-flip",
            WalCorruption::StaleBase => "stale-base",
            WalCorruption::BaseFlip => "base-flip",
        }
    }
}

impl std::fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Byte offset where the last complete record of `log` begins, given the
/// base that seeds the digest chain. `None` when no record parses.
fn last_record_start(base: &[u8], log: &[u8]) -> Option<usize> {
    let mut chain = fnv1a64(base);
    let mut off = 0usize;
    let mut last = None;
    loop {
        match parse_wal_record(&log[off..], chain) {
            WalRecordStep::Record {
                digest, consumed, ..
            } => {
                last = Some(off);
                chain = digest;
                off += consumed;
            }
            _ => return last,
        }
    }
}

/// A checkpoint store that serves a corrupted `(base, log)` view exactly
/// once — on the first recovery read that finds content — and behaves like
/// a faithful [`MemStore`] otherwise. Writes are never corrupted: the
/// sabotage models what a crash does to storage, not a broken writer.
pub struct SabotagedStore {
    inner: MemStore,
    prev_base: Option<Vec<u8>>,
    base_shadow: Option<Vec<u8>>,
    corruption: WalCorruption,
    struck: bool,
    faithful: bool,
    /// What the strike actually did, for diagnostics.
    pub strike_note: Option<String>,
    serve_base: Vec<u8>,
    serve_log: Vec<u8>,
}

impl SabotagedStore {
    /// A store that will inflict `corruption` on its first non-empty view.
    pub fn new(corruption: WalCorruption) -> Self {
        SabotagedStore {
            inner: MemStore::new(),
            prev_base: None,
            base_shadow: None,
            corruption,
            struck: false,
            faithful: false,
            strike_note: None,
            serve_base: Vec::new(),
            serve_log: Vec::new(),
        }
    }

    /// `true` once the corrupted view has been served.
    pub fn struck(&self) -> bool {
        self.struck
    }

    /// `true` when the strike had nothing to corrupt and the view was
    /// served unchanged (e.g. an empty log, or no previous base to serve
    /// as stale).
    pub fn served_faithfully(&self) -> bool {
        self.faithful
    }

    fn corrupt(&mut self, base: Vec<u8>, log: Vec<u8>) {
        if log.is_empty() && self.corruption != WalCorruption::BaseFlip {
            self.faithful = true;
            self.strike_note = Some("log empty; nothing to corrupt".to_string());
            self.serve_base = base;
            self.serve_log = log;
            return;
        }
        let note;
        let (serve_base, serve_log) = match self.corruption {
            WalCorruption::TornTail => {
                let keep = log.len().saturating_sub(7);
                note = format!("tore the log from {} to {keep} bytes", log.len());
                (base, log[..keep].to_vec())
            }
            WalCorruption::PartialTail => {
                let cut = last_record_start(&base, &log)
                    .map(|s| s + WAL_RECORD_HEADER - 2)
                    .unwrap_or(0)
                    .min(log.len());
                note = format!("cut the log mid-header at byte {cut} of {}", log.len());
                (base, log[..cut].to_vec())
            }
            WalCorruption::MidRecord => {
                // Remove a chunk from inside the first record's payload:
                // the log shrinks and every later byte shifts.
                let cut = (WAL_RECORD_HEADER + 4).min(log.len());
                let splice = 8usize.min(log.len().saturating_sub(cut));
                let mut l = log.clone();
                l.drain(cut..cut + splice);
                note = format!("spliced {splice} bytes out of the log at byte {cut}");
                (base, l)
            }
            WalCorruption::BitFlip => {
                let mut l = log.clone();
                if !l.is_empty() {
                    let mid = l.len() / 2;
                    l[mid] ^= 0x20;
                    note = format!("flipped a bit at log byte {mid}");
                } else {
                    self.faithful = true;
                    note = "log empty; nothing to flip".to_string();
                }
                (base, l)
            }
            WalCorruption::StaleBase => match self.prev_base.clone() {
                Some(stale) if !log.is_empty() => {
                    note = format!(
                        "served the previous base ({} bytes) under the current log",
                        stale.len()
                    );
                    (stale, log)
                }
                _ => {
                    self.faithful = true;
                    note = "no previous base or empty log; serving faithfully".to_string();
                    (base, log)
                }
            },
            WalCorruption::BaseFlip => {
                let mut b = base.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
                note = format!("flipped a bit at base byte {mid}");
                (b, log)
            }
        };
        self.strike_note = Some(note);
        self.serve_base = serve_base;
        self.serve_log = serve_log;
    }
}

impl CheckpointStore for SabotagedStore {
    fn install_base(&mut self, snapshot: &[u8]) {
        self.prev_base = self.base_shadow.take();
        self.base_shadow = Some(snapshot.to_vec());
        self.inner.install_base(snapshot);
    }

    fn append_record(&mut self, record: &[u8]) {
        self.inner.append_record(record);
    }

    fn view(&mut self) -> Option<(&[u8], &[u8])> {
        if self.struck {
            return self.inner.view();
        }
        let (base, log) = match self.inner.view() {
            Some((b, l)) => (b.to_vec(), l.to_vec()),
            None => return None,
        };
        self.struck = true;
        self.corrupt(base, log);
        Some((&self.serve_base, &self.serve_log))
    }
}

/// The boundary counts at which a crash leaves the store holding what
/// `corruption` needs. With `full_snapshot_every: 2` the stale-base store
/// cycles base / one record / two records over a period of three epoch
/// boundaries, so its crash must follow a non-empty log and a previous
/// base (boundary count >= 5, not 1 mod 3); every other cell keeps one
/// base forever and just needs the log non-empty (boundary count >= 2).
fn strike_premise(corruption: WalCorruption, boundaries: usize) -> bool {
    match corruption {
        WalCorruption::StaleBase => boundaries >= 5 && boundaries % 3 != 1,
        _ => boundaries >= 2,
    }
}

/// One WAL corruption cell, labelled `policy/corruption`: run the policy
/// uninterrupted, then crash it once mid-run with WAL checkpoints at every
/// epoch and the given corruption inflicted on the recovery read, and
/// demand a byte-identical result and trace. Counters: crash tick, WAL
/// records appended, recovery truncations.
pub fn check_wal_corruption(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    corruption: WalCorruption,
) -> Result<ChaosCell, String> {
    let opts = EngineOpts::default();
    let plan = FaultPlan::none();
    let base = Baseline::run(policy, seqs, params, &opts, seed, &plan, false)?;
    if base.ticks < 24 {
        return Err(format!(
            "premise failed: baseline run too short ({} ticks) to corrupt into",
            base.ticks
        ));
    }

    // Policies with long-lived grants run few engine ticks even on long
    // workloads, so scale the epoch to the baseline: aim for a dozen or so
    // epoch boundaries before the run ends.
    let epoch_ticks = (base.ticks / 12).clamp(2, 8);
    let sup_opts = SupervisorOpts {
        epoch_ticks,
        max_retries: 3,
        backoff_base: std::time::Duration::ZERO,
        // Stale-base needs at least two bases installed before the crash;
        // the others keep one base so the log grows long.
        full_snapshot_every: if corruption == WalCorruption::StaleBase {
            2
        } else {
            u64::MAX
        },
        ..SupervisorOpts::default()
    };
    let factory =
        || boxed_policy(policy, params, seed, false).expect("factory succeeded for the baseline");

    // Epoch boundaries land where the engine's clock crosses each epoch's
    // end, and one step may process a whole timestamp batch, so read them
    // off a clean supervised run instead of assuming multiples of
    // `epoch_ticks`.
    let mut bounds = Vec::new();
    Supervisor::new(sup_opts)
        .run_controlled(
            seqs,
            params,
            &opts,
            &plan,
            &CrashPlan::none(),
            factory,
            |_| LruCache::new(0),
            &mut NullSink,
            &mut MemStore::new(),
            |status| {
                bounds.push(status.ticks);
                EpochControl::Continue
            },
        )
        .map_err(|e| format!("clean supervised run failed: {e}"))?;
    // A crash at tick `t` fires before any boundary at or past `t`.
    let before = |t: u64| bounds.iter().filter(|&&b| b < t).count();

    // Crash past the 60% mark, aligned to the boundary count the strike
    // needs as if boundaries fell at multiples of `epoch_ticks`. Where the
    // observed boundaries disagree, move to the next observed boundary
    // that meets the premise.
    let mut boundaries = (base.ticks * 3 / 5) / epoch_ticks;
    while !strike_premise(corruption, boundaries as usize) {
        boundaries += 1;
    }
    let mut crash_tick = boundaries * epoch_ticks + epoch_ticks / 2;
    if !strike_premise(corruption, before(crash_tick)) {
        let next = (before(crash_tick) + 1..=bounds.len())
            .find(|&n| strike_premise(corruption, n))
            .ok_or_else(|| {
                format!("premise failed: no epoch boundary after tick {crash_tick} meets it")
            })?;
        crash_tick = bounds[next - 1] + epoch_ticks / 2;
    }
    if crash_tick >= base.ticks {
        return Err(format!(
            "premise failed: aligned crash tick {crash_tick} falls past the \
             {}-tick baseline",
            base.ticks
        ));
    }

    let mut store = SabotagedStore::new(corruption);
    let mut trace = TraceRecorder::new();
    let supervised = Supervisor::new(sup_opts).run_controlled(
        seqs,
        params,
        &opts,
        &plan,
        &CrashPlan::at_ticks(vec![crash_tick]),
        factory,
        |_| LruCache::new(0),
        &mut trace,
        &mut store,
        |_| EpochControl::Continue,
    );

    let mut violations = base.judge(&supervised, &trace, 1);
    let (records, truncations) = supervised
        .as_ref()
        .map_or((0, 0), |r| (r.wal_records, r.wal_truncations.into()));
    if supervised.is_ok() {
        if !store.struck() {
            violations.push("the corrupted view was never read".to_string());
        }
        if records == 0 {
            violations.push("premise failed: no WAL records were written".to_string());
        }
        // Every kind must be *detected* — a faithful pass-through means
        // the crash tick alignment failed to give the strike material.
        if store.served_faithfully() {
            violations.push(format!(
                "premise failed: nothing to corrupt at the strike ({:?})",
                store.strike_note
            ));
        } else if truncations == 0 {
            violations.push(format!(
                "corruption went undetected (strike: {:?})",
                store.strike_note
            ));
        }
    }
    Ok(ChaosCell {
        label: format!("{policy}/{corruption}"),
        counters: vec![crash_tick, records, truncations],
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_workloads::{build_workload, SeqSpec};

    fn workload(p: usize, len: usize, k: usize) -> Vec<Vec<PageId>> {
        let specs: Vec<SeqSpec> = (0..p)
            .map(|x| match x % 2 {
                0 => SeqSpec::Cyclic {
                    width: (k / 4).max(2),
                    len,
                },
                _ => SeqSpec::Zipf {
                    universe: k.max(4),
                    theta: 0.9,
                    len,
                },
            })
            .collect();
        build_workload(&specs, 42).seqs().to_vec()
    }

    #[test]
    fn every_corruption_kind_recovers_det_par_exactly() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 2500, 32);
        for corruption in WalCorruption::ALL {
            let cell = check_wal_corruption("det-par", &seqs, &params, 7, corruption)
                .unwrap_or_else(|e| panic!("{corruption}: {e}"));
            assert!(
                cell.passed(),
                "{corruption}: violations {:?}",
                cell.violations
            );
            assert!(cell.counters[2] >= 1, "{corruption}: nothing truncated");
        }
    }

    #[test]
    fn rng_backed_policy_survives_a_torn_tail() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 2500, 32);
        for corruption in [WalCorruption::TornTail, WalCorruption::StaleBase] {
            let cell = check_wal_corruption("rand-par", &seqs, &params, 11, corruption)
                .unwrap_or_else(|e| panic!("{corruption}: {e}"));
            assert!(
                cell.passed(),
                "{corruption}: violations {:?}",
                cell.violations
            );
        }
    }

    /// At p=8 one engine step can cover a whole timestamp batch, so epoch
    /// boundaries drift from multiples of `epoch_ticks`; the stale-base
    /// crash must follow the boundaries the supervisor really takes.
    #[test]
    fn stale_base_strikes_at_observed_boundaries_at_p8() {
        let params = ModelParams::new(8, 64, 10);
        for seed in [42, 7, 1234] {
            let w = crate::chaos::chaos_workload(8, 64, 2000, seed);
            for policy in ["det-par", "rand-par"] {
                let cell =
                    check_wal_corruption(policy, w.seqs(), &params, seed, WalCorruption::StaleBase)
                        .unwrap_or_else(|e| panic!("{policy} seed {seed}: {e}"));
                assert!(
                    cell.passed(),
                    "{policy} seed {seed}: violations {:?}",
                    cell.violations
                );
            }
        }
    }
}
