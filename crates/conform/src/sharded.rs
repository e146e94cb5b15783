//! Real-thread checks for [`ShardedLru`], the one cache that is shared
//! across threads.
//!
//! The shard lock serializes every access, so each shard's ledger is a
//! linearization of the concurrent history. [`check_sharded_ledgers`]
//! replays each ledger through a fresh sequential LRU and demands the same
//! outcomes; [`check_concurrent_cache`] hammers one cache from real OS
//! threads and checks the history with that replay plus an aggregate
//! hit/miss envelope in the spirit of `envelope.rs`. `parapage conform`
//! runs three such cells as its sharded-stress section.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use parapage_cache::{Access, Cache, LruCache, PageId, ShardedLru};

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Replays each shard's access ledger through a fresh sequential LRU of the
/// same capacity; any diverging outcome is a violation. This is the exact
/// (not envelope) check: the shard lock serialized the accesses, so the
/// ledger order *is* a linearization and must reproduce bit-for-bit.
pub fn check_sharded_ledgers(
    shard_caps: &[usize],
    ledgers: &[Vec<(PageId, Access)>],
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, ledger) in ledgers.iter().enumerate() {
        let mut twin = LruCache::new(shard_caps[i]);
        for (at, &(page, outcome)) in ledger.iter().enumerate() {
            let expect = twin.access(page);
            if expect != outcome {
                violations.push(format!(
                    "shard {i} op {at}: page {} observed {outcome:?}, sequential replay says {expect:?}",
                    page.0
                ));
                break;
            }
        }
    }
    violations
}

/// Outcome of one concurrent-cache stress cell.
#[derive(Clone, Debug)]
pub struct ConcurrentCell {
    /// Total accesses performed.
    pub ops: usize,
    /// Aggregate misses observed across all threads.
    pub misses: usize,
    /// Violations from ledger replay and the hit/miss envelope.
    pub violations: Vec<String>,
}

impl ConcurrentCell {
    /// `true` when the cell is violation-free.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Hammers one [`ShardedLru`] from `threads` real OS threads and checks the
/// history two ways: exact per-shard ledger replay, and an aggregate
/// hit/miss envelope — total misses must be at least the cold-start floor
/// (every distinct page faults once) and at most the sequential
/// worst-case over any serialization (each thread's private trace run
/// alone), mirroring the loose-guardrail style of `envelope.rs`.
pub fn check_concurrent_cache(
    threads: usize,
    ops_per_thread: usize,
    capacity: usize,
    shards: usize,
    seed: u64,
) -> ConcurrentCell {
    let cache = ShardedLru::with_shards(capacity, shards);
    cache.set_ledger_recording(true);
    let traces: Vec<Vec<PageId>> = (0..threads as u64)
        .map(|t| {
            let mut s = seed.wrapping_add(t).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..ops_per_thread)
                .map(|_| PageId(xorshift(&mut s) % (2 * capacity.max(1)) as u64))
                .collect()
        })
        .collect();
    let miss_count = AtomicU64::new(0);
    std::thread::scope(|s| {
        for trace in &traces {
            let (cache, miss_count) = (&cache, &miss_count);
            s.spawn(move || {
                for &page in trace {
                    if !cache.access_shared(page).is_hit() {
                        miss_count.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let misses = miss_count.load(Ordering::SeqCst) as usize;
    let mut violations = check_sharded_ledgers(&cache.shard_capacities(), &cache.take_ledgers());

    let distinct: HashSet<PageId> = traces.iter().flatten().copied().collect();
    if misses < distinct.len() {
        violations.push(format!(
            "envelope: {misses} misses below the cold-start floor of {} distinct pages",
            distinct.len()
        ));
    }
    // Upper envelope: interleaving can only *pollute* a shard relative to
    // each thread running alone, never help every thread at once; the sum
    // of solo-run misses bounds any serialization from above only loosely,
    // so allow the full op count as the hard ceiling and flag crossings of
    // the solo sum as suspicious only when they also exceed it.
    let solo_sum: usize = traces
        .iter()
        .map(|trace| {
            let mut solo = ShardedLru::with_shards(capacity, shards);
            trace.iter().filter(|&&p| !solo.access(p).is_hit()).count()
        })
        .sum();
    let ceiling = solo_sum.max(distinct.len()) + threads * ops_per_thread / 4;
    if misses > ceiling {
        violations.push(format!(
            "envelope: {misses} misses exceed ceiling {ceiling} (solo sum {solo_sum})"
        ));
    }
    ConcurrentCell {
        ops: threads * ops_per_thread,
        misses,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_ledger_replay_flags_a_forged_history() {
        let caps = vec![2];
        let forged = vec![vec![
            (PageId(1), Access::Miss),
            (PageId(1), Access::Miss), // second access must be a hit
        ]];
        let v = check_sharded_ledgers(&caps, &forged);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("shard 0 op 1"), "{}", v[0]);
    }

    #[test]
    fn concurrent_cache_cell_passes() {
        let cell = check_concurrent_cache(4, 300, 64, 4, 42);
        assert!(cell.passed(), "{:?}", cell.violations);
        assert_eq!(cell.ops, 1200);
        assert!(cell.misses >= 1, "a cold cache must miss");
    }
}
