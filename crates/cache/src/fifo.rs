//! First-in-first-out cache, a baseline replacement policy.
//!
//! FIFO ignores recency entirely: pages are evicted in arrival order. It is
//! k-competitive like LRU but lacks the inclusion property, which makes it a
//! useful cross-check that the analysis pipeline does not silently assume
//! LRU-specific structure.

use std::collections::{HashSet, VecDeque};

use crate::policy::{Access, Cache};
use crate::types::PageId;

/// A FIFO-replacement cache.
#[derive(Clone, Debug)]
pub struct FifoCache {
    capacity: usize,
    queue: VecDeque<PageId>,
    resident: HashSet<PageId>,
}

impl FifoCache {
    /// Creates an empty FIFO cache with the given capacity.
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            queue: VecDeque::with_capacity(capacity.min(1 << 20)),
            resident: HashSet::with_capacity(capacity.min(1 << 20)),
        }
    }
}

impl Cache for FifoCache {
    fn access(&mut self, page: PageId) -> Access {
        if self.resident.contains(&page) {
            return Access::Hit;
        }
        if self.capacity == 0 {
            return Access::Miss;
        }
        while self.resident.len() >= self.capacity {
            if let Some(old) = self.queue.pop_front() {
                self.resident.remove(&old);
            }
        }
        self.queue.push_back(page);
        self.resident.insert(page);
        Access::Miss
    }

    fn contains(&self, page: PageId) -> bool {
        self.resident.contains(&page)
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.resident.len() > capacity {
            if let Some(old) = self.queue.pop_front() {
                self.resident.remove(&old);
            }
        }
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn evicts_in_arrival_order_regardless_of_recency() {
        let mut c = FifoCache::new(2);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert_eq!(c.access(p(2)), Access::Miss);
        assert_eq!(c.access(p(1)), Access::Hit); // does NOT refresh 1
        assert_eq!(c.access(p(3)), Access::Miss); // evicts 1, not 2
        assert!(!c.contains(p(1)));
        assert!(c.contains(p(2)));
    }

    #[test]
    fn resize_shrinks_from_front() {
        let mut c = FifoCache::new(3);
        for v in 1..=3 {
            c.access(p(v));
        }
        c.resize(1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(p(3)));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = FifoCache::new(0);
        assert_eq!(c.access(p(9)), Access::Miss);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut c = FifoCache::new(2);
        c.access(p(1));
        c.clear();
        assert!(c.is_empty());
    }
}
