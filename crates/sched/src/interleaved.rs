//! The *fixed-rate interleaved* paging model of the early parallel-paging
//! literature (paper §1: Fiat–Karlin and successors).
//!
//! In that simplified model every processor advances one request per round
//! **regardless of hits and misses** — "a processor that incurs all hits is
//! treated as progressing at the same rate as if it incurred all misses."
//! The objective degenerates to total miss count, and, as the paper notes,
//! the model "sequentializes the interleaving", removing the interaction
//! between scheduling decisions and processor speeds.
//!
//! This simulator exists to *demonstrate that critique* (experiment E15):
//! policies can rank one way under the interleaved model's miss counts and
//! the opposite way under the true model's makespan.

use parapage_cache::{Cache, CacheStats, LruCache, PageId};

/// Result of an interleaved-model run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterleavedResult {
    /// Miss count per processor.
    pub misses: Vec<u64>,
    /// Aggregate stats.
    pub stats: CacheStats,
    /// Number of rounds executed (= longest sequence).
    pub rounds: usize,
}

/// Runs the interleaved model with a **static partition**: processor `x`
/// owns `alloc[x]` pages throughout; every round, each unfinished processor
/// issues exactly one request.
pub fn run_interleaved_partition(seqs: &[Vec<PageId>], alloc: &[usize]) -> InterleavedResult {
    assert_eq!(seqs.len(), alloc.len());
    let mut caches: Vec<LruCache> = alloc.iter().map(|&c| LruCache::new(c)).collect();
    let rounds = seqs.iter().map(Vec::len).max().unwrap_or(0);
    let mut misses = vec![0u64; seqs.len()];
    let mut stats = CacheStats::default();
    for r in 0..rounds {
        for (x, seq) in seqs.iter().enumerate() {
            if let Some(&page) = seq.get(r) {
                let hit = caches[x].access(page).is_hit();
                stats.record(hit);
                if !hit {
                    misses[x] += 1;
                }
            }
        }
    }
    InterleavedResult {
        misses,
        stats,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_cache::ProcId;

    fn cyc(x: u32, width: u64, len: usize) -> Vec<PageId> {
        (0..len)
            .map(|i| PageId::namespaced(ProcId(x), i as u64 % width))
            .collect()
    }

    #[test]
    fn partition_counts_match_independent_lru() {
        let seqs = vec![cyc(0, 4, 100), cyc(1, 8, 100)];
        let res = run_interleaved_partition(&seqs, &[4, 4]);
        // Proc 0 fits: 4 compulsory. Proc 1 cycles 8 in 4: all miss.
        assert_eq!(res.misses[0], 4);
        assert_eq!(res.misses[1], 100);
        assert_eq!(res.rounds, 100);
    }

    #[test]
    fn fixed_rate_ignores_miss_speed() {
        // The defining property: a proc with all misses still finishes in
        // `rounds` rounds — no makespan interaction at all.
        let seqs = vec![cyc(0, 50, 50), cyc(1, 2, 50)];
        let res = run_interleaved_partition(&seqs, &[1, 2]);
        assert_eq!(res.rounds, 50);
        assert_eq!(res.misses[0], 50);
        assert_eq!(res.misses[1], 2);
    }

    #[test]
    fn uneven_lengths_handled() {
        // The short sequence drops out after its last request; the long
        // one keeps issuing one request per round until it finishes.
        let seqs = vec![cyc(0, 2, 10), cyc(1, 2, 30)];
        let res = run_interleaved_partition(&seqs, &[4, 4]);
        assert_eq!(res.rounds, 30);
        assert_eq!(res.stats.accesses(), 40);
        assert_eq!(res.misses, vec![2, 2]);
    }
}
