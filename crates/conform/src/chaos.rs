//! The one chaos harness: every recovery matrix — crash/resume, snapshot
//! corruption, WAL corruption, and the server crate's network matrix —
//! reports the same cell shape.
//!
//! A [`ChaosCell`] is a label, a few counters, and the violations found
//! when a faulted run was compared with its uninterrupted [`Baseline`];
//! no violations means recovery was invisible. A [`ChaosMatrix`] is one
//! titled table of cells, and [`CellFilter`] is the `--cells` label
//! filter every matrix applies. [`chaos_matrices`] runs the in-process
//! matrices for `parapage chaos`; the cell generators live with their
//! fault models ([`crate::resume`], [`crate::walchaos`]).

use parapage_cache::{LruCache, PageId};
use parapage_core::{boxed_policy, DetPar, ModelParams};
use parapage_sched::{
    run_engine, Engine, EngineOpts, FaultPlan, RecoveryReport, RunResult, SupervisorError,
    TraceEvent, TraceRecorder,
};
use parapage_workloads::{build_workload, fault_scenario, SeqSpec, Workload, FAULT_SCENARIOS};

use crate::checkers;
use crate::oracle::CONFORM_POLICIES;
use crate::resume::{check_corruption_rejection, check_resume};
use crate::walchaos::{check_wal_corruption, WalCorruption};

/// Crashpoints as fractions of each resume cell's baseline run: early,
/// two mid-run points straddling typical phase transitions, and late.
pub const CRASH_FRACS: &[f64] = &[0.1, 0.35, 0.6, 0.85];

/// The WAL corruption cells need enough baseline ticks for several epoch
/// boundaries (and, for the stale-base cell, two base installs) before the
/// crash, so their workload is stretched to at least this many requests
/// per processor.
pub const WAL_MIN_LEN: usize = 2000;

/// One cell's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCell {
    /// What `--cells` filters on, e.g. `det-par/stale-base`.
    pub label: String,
    /// The cell's counters, one per [`ChaosMatrix::columns`] entry; empty
    /// when the cell could not be set up.
    pub counters: Vec<u64>,
    /// Divergences from the uninterrupted baseline; empty means the cell
    /// passed.
    pub violations: Vec<String>,
}

impl ChaosCell {
    /// `true` when recovery was exact.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One titled table of cells.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosMatrix {
    /// Heading printed above the table.
    pub title: String,
    /// Counter column names.
    pub columns: &'static [&'static str],
    /// Every cell run, in matrix order.
    pub cells: Vec<ChaosCell>,
    /// Cells the filter dropped.
    pub skipped: usize,
}

impl ChaosMatrix {
    /// An empty matrix.
    pub fn new(title: impl Into<String>, columns: &'static [&'static str]) -> Self {
        ChaosMatrix {
            title: title.into(),
            columns,
            cells: Vec::new(),
            skipped: 0,
        }
    }

    /// Runs the cell named `label` unless `filter` drops it. A cell whose
    /// set-up fails is recorded as failed, with the set-up error as its
    /// one violation.
    pub fn run(
        &mut self,
        filter: &CellFilter,
        label: String,
        cell: impl FnOnce() -> Result<ChaosCell, String>,
    ) {
        if !filter.keep(&label) {
            self.skipped += 1;
            return;
        }
        self.cells.push(cell().unwrap_or_else(|e| ChaosCell {
            label,
            counters: Vec::new(),
            violations: vec![e],
        }));
    }

    /// Violations across every cell.
    pub fn violations(&self) -> usize {
        self.cells.iter().map(|c| c.violations.len()).sum()
    }
}

/// The `--cells SUBSTR[,SUBSTR..]` filter: keeps a cell when its label
/// contains one of the substrings (case-insensitively); empty keeps all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellFilter(Vec<String>);

impl CellFilter {
    /// Parses a comma-separated list; `None` keeps every cell.
    pub fn parse(spec: Option<&str>) -> Self {
        CellFilter(
            spec.unwrap_or_default()
                .split(',')
                .map(|c| c.trim().to_ascii_lowercase())
                .filter(|c| !c.is_empty())
                .collect(),
        )
    }

    /// `true` when the cell named `label` should run.
    pub fn keep(&self, label: &str) -> bool {
        let label = label.to_ascii_lowercase();
        self.0.is_empty() || self.0.iter().any(|f| label.contains(f.as_str()))
    }
}

impl std::fmt::Display for CellFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.join(","))
    }
}

/// A cell's uninterrupted run, which its faulted run must reproduce byte
/// for byte.
pub struct Baseline {
    /// The run's measurements.
    pub result: RunResult,
    /// The run's full trace stream.
    pub trace: Vec<TraceEvent>,
    /// The run's length in engine ticks.
    pub ticks: u64,
}

impl Baseline {
    /// Runs `policy` to completion through the same steppable engine the
    /// supervisor drives.
    pub fn run(
        policy: &str,
        seqs: &[Vec<PageId>],
        params: &ModelParams,
        opts: &EngineOpts,
        seed: u64,
        plan: &FaultPlan,
        hardened: bool,
    ) -> Result<Baseline, String> {
        let mut alloc = boxed_policy(policy, params, seed, hardened)?;
        let mut engine = Engine::new(&mut *alloc, seqs, params, opts, plan, |_| LruCache::new(0));
        let mut trace = TraceRecorder::new();
        while engine
            .step(&mut *alloc, &mut trace)
            .map_err(|e| format!("baseline run errored: {e}"))?
        {}
        Ok(Baseline {
            ticks: engine.ticks(),
            result: engine.into_result(&*alloc),
            trace: trace.into_events(),
        })
    }

    /// The byte-identity verdict on a supervised run that should have
    /// survived `crashes` injected crashes: its result must equal the
    /// baseline's and its trace must replay the baseline's event for
    /// event.
    pub fn judge(
        &self,
        supervised: &Result<RecoveryReport, SupervisorError>,
        trace: &TraceRecorder,
        crashes: usize,
    ) -> Vec<String> {
        let report = match supervised {
            Ok(report) => report,
            Err(e) => return vec![format!("recovery failed: {e}")],
        };
        let mut violations = Vec::new();
        if report.crashes as usize != crashes {
            violations.push(format!(
                "expected {crashes} injected crash(es), observed {}",
                report.crashes
            ));
        }
        if report.result != self.result {
            violations.push(format!(
                "RunResult diverged: recovered {:?} vs baseline {:?}",
                report.result, self.result
            ));
        }
        violations.extend(
            checkers::check_replay(&self.trace, trace.events())
                .into_iter()
                .map(|v| format!("trace: {v}")),
        );
        violations
    }
}

/// The workload every in-process chaos matrix runs: mixed working-set
/// widths, so phases, strips and partitions all get exercised.
pub fn chaos_workload(p: usize, k: usize, len: usize, seed: u64) -> Workload {
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| match x % 3 {
            0 => SeqSpec::Cyclic {
                width: (k / 8).max(2),
                len,
            },
            1 => SeqSpec::Cyclic { width: k / 2, len },
            _ => SeqSpec::Zipf {
                universe: (k / 2).max(4),
                theta: 0.9,
                len,
            },
        })
        .collect();
    build_workload(&specs, seed)
}

/// The in-process matrices of `parapage chaos`, in report order:
///
/// 1. resume — every policy × fault scenario, each crashed at every
///    [`CRASH_FRACS`] point of its baseline (labels `policy/scenario`);
/// 2. snapshot — bit-flipped and truncated snapshots must be rejected
///    with typed errors (labels `policy`);
/// 3. WAL — every policy × [`WalCorruption`] kind inflicted on the
///    recovery read (labels `policy/corruption`).
///
/// `wal_only` runs the WAL matrix alone.
///
/// # Errors
/// Only when the clean DET-PAR run that sizes the fault horizon fails;
/// cell failures land in the matrices.
pub fn chaos_matrices(
    params: &ModelParams,
    len: usize,
    seed: u64,
    wal_only: bool,
    filter: &CellFilter,
) -> Result<Vec<ChaosMatrix>, String> {
    let (p, k) = (params.p, params.k);
    let w = chaos_workload(p, k, len, seed);
    let mut matrices = Vec::new();
    if !wal_only {
        let opts = EngineOpts::default();
        let horizon = run_engine(&mut DetPar::new(params), w.seqs(), params, &opts)
            .map_err(|e| format!("clean det-par run failed: {e}"))?
            .makespan
            .max(1);
        let mut resume = ChaosMatrix::new(
            format!(
                "chaos matrix: {params} ({} requests, crashpoints at {CRASH_FRACS:?} of each baseline)",
                w.total_requests()
            ),
            &["ticks", "crashes"],
        );
        let mut snapshot = ChaosMatrix::new(
            "corruption rejection (bit flips + truncation, typed errors):",
            &[],
        );
        for &policy in CONFORM_POLICIES {
            for &scenario in FAULT_SCENARIOS {
                resume.run(filter, format!("{policy}/{scenario}"), || {
                    let events = fault_scenario(scenario, p, k, horizon, seed)
                        .ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
                    let plan = FaultPlan::new(events);
                    check_resume(
                        policy,
                        w.seqs(),
                        params,
                        &opts,
                        seed,
                        scenario,
                        &plan,
                        CRASH_FRACS,
                    )
                });
            }
        }
        for &policy in CONFORM_POLICIES {
            snapshot.run(filter, policy.to_string(), || {
                Ok(ChaosCell {
                    label: policy.to_string(),
                    counters: Vec::new(),
                    violations: check_corruption_rejection(policy, w.seqs(), params, seed)
                        .err()
                        .into_iter()
                        .collect(),
                })
            });
        }
        matrices.extend([resume, snapshot]);
    }

    let wal_w = chaos_workload(p, k, len.max(WAL_MIN_LEN), seed);
    let mut wal = ChaosMatrix::new(
        format!(
            "WAL corruption matrix ({} requests, epoch-per-record checkpoints):",
            wal_w.total_requests()
        ),
        &["crash@", "records", "truncs"],
    );
    for &policy in CONFORM_POLICIES {
        for corruption in WalCorruption::ALL {
            wal.run(filter, format!("{policy}/{corruption}"), || {
                check_wal_corruption(policy, wal_w.seqs(), params, seed, corruption)
            });
        }
    }
    matrices.push(wal);
    Ok(matrices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_label_substrings_case_insensitively() {
        let all = CellFilter::parse(None);
        assert!(all.keep("det-par/clean"));
        let f = CellFilter::parse(Some(" Torn-Tail ,, ucp/"));
        assert!(f.keep("det-par/torn-tail"));
        assert!(f.keep("UCP/clean"));
        assert!(!f.keep("det-par/stale-base"));
        assert_eq!(f.to_string(), "torn-tail,ucp/");
    }

    #[test]
    fn a_failed_setup_is_a_failed_cell_and_filtered_cells_are_counted() {
        let mut m = ChaosMatrix::new("m", &["n"]);
        let f = CellFilter::parse(Some("a"));
        m.run(&f, "a/1".into(), || Err("no baseline".into()));
        m.run(&f, "b/1".into(), || unreachable!("filtered out"));
        assert_eq!(m.skipped, 1);
        assert_eq!(m.violations(), 1);
        assert!(!m.cells[0].passed());
        assert!(m.cells[0].counters.is_empty());
    }
}
