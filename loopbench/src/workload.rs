//! The three serving workloads and their pre-generated inputs.
//!
//! Inputs come from [`DriveCfg::workload`], the mixed cyclic/Zipf/uniform
//! family `parapage drive` replays, seeded from the benchmark's `--seed`.
//! Each tenant gets a pool of [`POOL`] distinct batches, generated before
//! any timing starts; batch `b` replays pool entry `b % POOL`. Generation
//! belongs to the benchmark and is never timed.

use parapage::cache::PageId;
use parapage_server::{DriveCfg, Frame, TenantConfig};

/// Concurrent tenants, one thread and one connection each.
pub const TENANTS: usize = 2;

/// Distinct batches generated per tenant.
pub const POOL: usize = 16;

/// One serving workload: a tenant configuration, a batch size, and an
/// optional kill cadence.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Servable policy name.
    pub policy: &'static str,
    /// Processors per tenant engine.
    pub p: usize,
    /// Cache capacity `k`.
    pub k: usize,
    /// Miss penalty `s`.
    pub s: u64,
    /// Requests per processor per batch.
    pub per_proc: usize,
    /// Cache shards per processor.
    pub shards: usize,
    /// Every `n`-th batch is preceded by a `Kill` (`None`: no kills).
    pub kill_every: Option<u64>,
    /// Engine tick at which an injected kill fires.
    pub kill_tick: u64,
    /// Ceiling on one tenant's batch rate, about four times what it is
    /// today; the per-batch record buffers are sized from it.
    pub max_batches_per_s: f64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk",
        policy: "det-par",
        p: 4,
        k: 64,
        s: 16,
        per_proc: 8192,
        shards: 4,
        kill_every: None,
        kill_tick: 0,
        max_batches_per_s: 2_000.0,
    },
    Workload {
        name: "chatty",
        policy: "det-par",
        p: 4,
        k: 64,
        s: 16,
        per_proc: 16,
        shards: 4,
        kill_every: None,
        kill_tick: 0,
        max_batches_per_s: 100_000.0,
    },
    Workload {
        name: "wide-kill",
        policy: "rand-par",
        p: 64,
        k: 256,
        s: 64,
        per_proc: 256,
        shards: 4,
        kill_every: Some(4),
        kill_tick: 100,
        max_batches_per_s: 1_000.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The drive configuration whose [`DriveCfg::workload`] yields this
    /// workload's batches: one batch of `per_proc` requests per processor.
    pub fn drive_cfg(&self, seed: u64) -> DriveCfg {
        DriveCfg {
            tenants: TENANTS,
            batches: 1,
            requests: (TENANTS * self.p * self.per_proc) as u64,
            p: self.p,
            k: self.k,
            s: self.s,
            policy: self.policy.into(),
            seed,
            shards: self.shards,
            ..DriveCfg::default()
        }
    }

    /// Whether batch `batch` is preceded by a kill.
    pub fn killed(&self, batch: u64) -> bool {
        self.kill_every.is_some_and(|n| batch % n == n - 1)
    }

    /// Page requests in one batch.
    pub fn requests_per_batch(&self) -> u64 {
        (self.p * self.per_proc) as u64
    }
}

/// Pre-generated inputs of one run.
pub struct Inputs {
    /// Each tenant's `Hello` configuration.
    pub configs: Vec<TenantConfig>,
    /// Each tenant's pool of `Batch` frames (batch field rewritten per
    /// send).
    pub pools: Vec<Vec<Frame>>,
    /// Bytes of page ids held by the pools.
    pub bytes: u64,
}

impl Inputs {
    /// Generates every tenant's batch pool from `seed`.
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let cfg = w.drive_cfg(seed);
        assert_eq!(cfg.seq_len(), w.per_proc, "drive config sizing");
        let configs: Vec<TenantConfig> = (0..TENANTS).map(|t| cfg.tenant_config(t)).collect();
        let pools: Vec<Vec<Frame>> = (0..TENANTS)
            .map(|t| {
                (0..POOL as u64)
                    .map(|b| Frame::Batch {
                        batch: b,
                        seqs: cfg.workload(t, b),
                    })
                    .collect()
            })
            .collect();
        let bytes =
            (TENANTS * POOL) as u64 * w.requests_per_batch() * std::mem::size_of::<PageId>() as u64;
        Inputs {
            configs,
            pools,
            bytes,
        }
    }

    /// Tenant `t`'s request sequences for batch `batch`.
    pub fn seqs(&self, t: usize, batch: u64) -> &[Vec<PageId>] {
        match &self.pools[t][batch as usize % POOL] {
            Frame::Batch { seqs, .. } => seqs,
            _ => unreachable!("pools hold only Batch frames"),
        }
    }
}
