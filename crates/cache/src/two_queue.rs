//! 2Q replacement (Johnson & Shasha, VLDB 1994) — the simpler scan-resistant
//! alternative to ARC.
//!
//! New pages enter a small FIFO probation queue `A1in`; only pages
//! re-referenced *after leaving* `A1in` (tracked by the ghost queue
//! `A1out`) are admitted to the protected LRU `Am`. A single sequential
//! scan therefore churns only the probation queue.

use std::collections::{HashMap, VecDeque};

use crate::lru::LruCache;
use crate::policy::{Access, Cache};
use crate::types::PageId;

/// A 2Q cache with the classic 25%/50% sizing of `A1in`/`A1out`.
#[derive(Clone, Debug)]
pub struct TwoQueueCache {
    capacity: usize,
    in_cap: usize,
    out_cap: usize,
    a1in: VecDeque<PageId>,
    a1in_set: HashMap<PageId, ()>,
    a1out: VecDeque<PageId>,
    a1out_set: HashMap<PageId, ()>,
    am: LruCache,
}

impl TwoQueueCache {
    /// Creates an empty 2Q cache; `A1in` gets 25% of the capacity (at least
    /// one page when capacity allows), `A1out` remembers 50% worth of
    /// ghosts.
    pub fn new(capacity: usize) -> Self {
        let in_cap = (capacity / 4).max(usize::from(capacity > 0));
        TwoQueueCache {
            capacity,
            in_cap,
            out_cap: (capacity / 2).max(1),
            a1in: VecDeque::new(),
            a1in_set: HashMap::new(),
            a1out: VecDeque::new(),
            a1out_set: HashMap::new(),
            am: LruCache::new(capacity.saturating_sub(in_cap)),
        }
    }

    fn evict_from_a1in(&mut self) {
        if let Some(old) = self.a1in.pop_front() {
            self.a1in_set.remove(&old);
            self.a1out.push_back(old);
            self.a1out_set.insert(old, ());
            while self.a1out.len() > self.out_cap {
                if let Some(g) = self.a1out.pop_front() {
                    self.a1out_set.remove(&g);
                }
            }
        }
    }
}

impl Cache for TwoQueueCache {
    fn access(&mut self, page: PageId) -> Access {
        if self.capacity == 0 {
            return Access::Miss;
        }
        if self.am.contains(page) {
            return self.am.access(page); // refresh LRU position, Hit
        }
        if self.a1in_set.contains_key(&page) {
            return Access::Hit; // FIFO: position unchanged
        }
        if self.a1out_set.contains_key(&page) {
            // Re-reference after probation: admit to the protected region.
            if let Some(pos) = self.a1out.iter().position(|&x| x == page) {
                self.a1out.remove(pos);
            }
            self.a1out_set.remove(&page);
            if self.am.capacity() == 0 {
                // Degenerate tiny cache (capacity <= in_cap): probation is
                // all there is — the page must still become resident.
                while self.a1in.len() >= self.in_cap {
                    self.evict_from_a1in();
                }
                self.a1in.push_back(page);
                self.a1in_set.insert(page, ());
            } else {
                self.am.access(page); // insert (evicting LRU inside Am)
            }
            return Access::Miss;
        }
        // Cold miss: probation.
        while self.a1in.len() >= self.in_cap {
            self.evict_from_a1in();
        }
        self.a1in.push_back(page);
        self.a1in_set.insert(page, ());
        Access::Miss
    }

    fn contains(&self, page: PageId) -> bool {
        self.am.contains(page) || self.a1in_set.contains_key(&page)
    }

    fn len(&self) -> usize {
        self.am.len() + self.a1in.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.in_cap = (capacity / 4).max(usize::from(capacity > 0));
        self.out_cap = (capacity / 2).max(1);
        while self.a1in.len() > self.in_cap {
            self.evict_from_a1in();
        }
        self.am.resize(capacity.saturating_sub(self.in_cap));
    }

    fn clear(&mut self) {
        self.a1in.clear();
        self.a1in_set.clear();
        self.a1out.clear();
        self.a1out_set.clear();
        self.am.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn cold_pages_enter_probation_only() {
        let mut c = TwoQueueCache::new(8);
        c.access(p(1));
        assert!(c.a1in_set.contains_key(&p(1)));
        assert!(!c.am.contains(p(1)));
    }

    #[test]
    fn rereference_after_probation_promotes() {
        let mut c = TwoQueueCache::new(8); // in_cap = 2
        c.access(p(1));
        c.access(p(2));
        c.access(p(3)); // evicts 1 into A1out
        assert!(c.a1out_set.contains_key(&p(1)));
        c.access(p(1)); // ghost hit -> promoted to Am
        assert!(c.am.contains(p(1)));
    }

    #[test]
    fn scan_resistant() {
        let mut c = TwoQueueCache::new(8);
        // Build a hot page in Am.
        c.access(p(1));
        c.access(p(2));
        c.access(p(3));
        c.access(p(1)); // promote 1
        assert!(c.am.contains(p(1)));
        // Long scan of cold pages.
        for v in 100..140 {
            c.access(p(v));
        }
        assert!(c.contains(p(1)), "scan evicted the protected page");
    }

    #[test]
    fn capacity_respected() {
        let mut c = TwoQueueCache::new(6);
        for v in 0..50 {
            c.access(p(v % 13));
            assert!(c.len() <= 6, "len {} at v={v}", c.len());
        }
    }

    #[test]
    fn hit_iff_resident() {
        let mut c = TwoQueueCache::new(5);
        for &v in &[1u64, 2, 3, 1, 2, 9, 9, 4, 5, 6, 1, 2] {
            let was = c.contains(p(v));
            assert_eq!(c.access(p(v)).is_hit(), was);
        }
    }

    #[test]
    fn resize_and_clear() {
        let mut c = TwoQueueCache::new(8);
        for v in 0..20 {
            c.access(p(v % 6));
        }
        c.resize(4);
        assert!(c.len() <= 4);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_streams() {
        let mut c = TwoQueueCache::new(0);
        assert_eq!(c.access(p(5)), Access::Miss);
        assert_eq!(c.len(), 0);
    }
}
