//! The box policies by name: one list and one constructor for every
//! caller that picks a policy from a string (the CLI, the conformance
//! oracle, the chaos harness, the server's tenants, the bench suite).

use crate::config::ModelParams;
use crate::green::rand_green::RandGreen;
use crate::parallel::baselines::{PropMissPartition, StaticPartition};
use crate::parallel::blackbox::BlackboxGreenPacker;
use crate::parallel::det_par::DetPar;
use crate::parallel::hardened::HardenedAllocator;
use crate::parallel::rand_par::RandPar;
use crate::parallel::ucp::UcpPartition;
use crate::parallel::BoxAllocator;

/// Every box policy [`boxed_policy`] builds, in matrix order.
pub const BOX_POLICIES: &[&str] = &[
    "det-par",
    "rand-par",
    "static",
    "prop-miss",
    "ucp",
    "bb-green",
];

/// Builds a fresh boxed policy by name, deterministically: two calls with
/// equal arguments produce byte-identical policies (same seed, same
/// configuration), which is exactly what the supervisor's retry path
/// requires. With `hardened`, the policy runs inside a
/// [`HardenedAllocator`] whose budget is `k`.
pub fn boxed_policy(
    name: &str,
    params: &ModelParams,
    seed: u64,
    hardened: bool,
) -> Result<Box<dyn BoxAllocator>, String> {
    macro_rules! wrap {
        ($alloc:expr) => {{
            if hardened {
                Ok(Box::new(HardenedAllocator::new($alloc, params.k)) as Box<dyn BoxAllocator>)
            } else {
                Ok(Box::new($alloc) as Box<dyn BoxAllocator>)
            }
        }};
    }
    match name {
        "det-par" => wrap!(DetPar::new(params)),
        "rand-par" => wrap!(RandPar::new(params, seed)),
        "static" => wrap!(StaticPartition::new(params)),
        "prop-miss" => wrap!(PropMissPartition::new(params)),
        "ucp" => wrap!(UcpPartition::new(params)),
        "bb-green" => {
            let pagers: Vec<RandGreen> = (0..params.p as u64)
                .map(|i| RandGreen::new(params, seed ^ i))
                .collect();
            wrap!(BlackboxGreenPacker::new(params, pagers))
        }
        other => Err(format!("unknown policy `{other}`")),
    }
}
