//! Least-frequently-used cache with O(1) access via frequency buckets.
//!
//! LFU is the classic frequency-based policy; it performs well on stable
//! popularity skews (Zipf workloads) and badly on phase changes, which makes
//! it an interesting baseline against the paper's recency-based machinery.
//! Ties within a frequency bucket break toward least-recently-used.

use std::collections::HashMap;

use crate::policy::{Access, Cache};
use crate::types::PageId;

#[derive(Clone, Debug)]
struct Entry {
    freq: u64,
    /// Monotone stamp of the last access, for LRU tie-breaking.
    stamp: u64,
}

/// An LFU cache (with LRU tie-breaking).
///
/// The implementation keeps a `HashMap` of entries and finds the victim with
/// a linear scan over residents. Eviction is therefore O(len); this cache is
/// a baseline, not a hot-path structure, and its capacities in the
/// experiments are small (≤ a few thousand pages).
#[derive(Clone, Debug)]
pub struct LfuCache {
    capacity: usize,
    entries: HashMap<PageId, Entry>,
    clock: u64,
}

impl LfuCache {
    /// Creates an empty LFU cache with the given capacity.
    pub fn new(capacity: usize) -> Self {
        LfuCache {
            capacity,
            entries: HashMap::with_capacity(capacity.min(1 << 20)),
            clock: 0,
        }
    }

    fn evict_one(&mut self) {
        if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| (e.freq, e.stamp)) {
            self.entries.remove(&victim);
        }
    }
}

impl Cache for LfuCache {
    fn access(&mut self, page: PageId) -> Access {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&page) {
            e.freq += 1;
            e.stamp = clock;
            return Access::Hit;
        }
        if self.capacity == 0 {
            return Access::Miss;
        }
        while self.entries.len() >= self.capacity {
            self.evict_one();
        }
        self.entries.insert(
            page,
            Entry {
                freq: 1,
                stamp: clock,
            },
        );
        Access::Miss
    }

    fn contains(&self, page: PageId) -> bool {
        self.entries.contains_key(&page)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > capacity {
            self.evict_one();
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.access(p(1));
        c.access(p(1));
        c.access(p(2));
        c.access(p(3)); // 2 has freq 1, 1 has freq 2 -> evict 2
        assert!(c.contains(p(1)));
        assert!(!c.contains(p(2)));
        assert!(c.contains(p(3)));
    }

    #[test]
    fn frequency_ties_break_toward_lru() {
        let mut c = LfuCache::new(2);
        c.access(p(1));
        c.access(p(2));
        // Both freq 1; 1 is older -> evicted.
        c.access(p(3));
        assert!(!c.contains(p(1)));
        assert!(c.contains(p(2)));
    }

    #[test]
    fn resize_evicts_least_valuable_first() {
        let mut c = LfuCache::new(3);
        c.access(p(1));
        c.access(p(1));
        c.access(p(2));
        c.access(p(3));
        c.resize(1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(p(1)));
    }

    #[test]
    fn zero_capacity_streams() {
        let mut c = LfuCache::new(0);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert!(c.is_empty());
    }
}
