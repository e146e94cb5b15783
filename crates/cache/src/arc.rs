//! ARC — the Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).
//!
//! ARC balances recency and frequency by splitting the cache into two LRU
//! lists, `T1` (seen once recently) and `T2` (seen at least twice), plus two
//! ghost lists of evicted page ids (`B1`, `B2`). Hits in a ghost list adapt
//! the target size `p` of `T1`: a `B1` hit means "recency is being
//! punished, grow T1"; a `B2` hit the reverse.
//!
//! In this workspace ARC is a *substrate baseline*: the paper fixes LRU
//! inside boxes WLOG, and the policy-comparison benches use ARC to show how
//! much (or little) a smarter replacement policy changes the parallel
//! picture — partitioning, not replacement, dominates.

use std::collections::{HashMap, VecDeque};

use crate::policy::{Access, Cache};
use crate::types::PageId;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    T1,
    T2,
    B1,
    B2,
}

/// An ARC cache.
#[derive(Clone, Debug)]
pub struct ArcCache {
    capacity: usize,
    /// Adaptive target size for T1.
    p: usize,
    /// Recency list (MRU at front).
    t1: VecDeque<PageId>,
    /// Frequency list (MRU at front).
    t2: VecDeque<PageId>,
    /// Ghost of T1 (MRU at front).
    b1: VecDeque<PageId>,
    /// Ghost of T2 (MRU at front).
    b2: VecDeque<PageId>,
    loc: HashMap<PageId, Loc>,
}

impl ArcCache {
    /// Creates an empty ARC cache.
    pub fn new(capacity: usize) -> Self {
        ArcCache {
            capacity,
            p: 0,
            t1: VecDeque::new(),
            t2: VecDeque::new(),
            b1: VecDeque::new(),
            b2: VecDeque::new(),
            loc: HashMap::new(),
        }
    }

    /// Current adaptive target for the recency list (diagnostic).
    pub fn recency_target(&self) -> usize {
        self.p
    }

    fn remove_from(list: &mut VecDeque<PageId>, page: PageId) {
        if let Some(pos) = list.iter().position(|&x| x == page) {
            list.remove(pos);
        }
    }

    /// REPLACE from the original paper: evict from T1 or T2 into the ghost
    /// lists, steering by the adaptive target.
    fn replace(&mut self, incoming_in_b2: bool) {
        let t1_len = self.t1.len();
        if t1_len >= 1 && (t1_len > self.p || (incoming_in_b2 && t1_len == self.p)) {
            if let Some(victim) = self.t1.pop_back() {
                self.b1.push_front(victim);
                self.loc.insert(victim, Loc::B1);
            }
        } else if let Some(victim) = self.t2.pop_back() {
            self.b2.push_front(victim);
            self.loc.insert(victim, Loc::B2);
        } else if let Some(victim) = self.t1.pop_back() {
            self.b1.push_front(victim);
            self.loc.insert(victim, Loc::B1);
        }
    }

    fn trim_ghosts(&mut self) {
        // |T1|+|B1| <= c and total directory <= 2c.
        while self.t1.len() + self.b1.len() > self.capacity {
            if let Some(old) = self.b1.pop_back() {
                self.loc.remove(&old);
            } else {
                break;
            }
        }
        while self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len() > 2 * self.capacity {
            if let Some(old) = self.b2.pop_back() {
                self.loc.remove(&old);
            } else {
                break;
            }
        }
    }
}

impl Cache for ArcCache {
    fn access(&mut self, page: PageId) -> Access {
        if self.capacity == 0 {
            return Access::Miss;
        }
        match self.loc.get(&page).copied() {
            Some(Loc::T1) => {
                // Promote to frequency list.
                Self::remove_from(&mut self.t1, page);
                self.t2.push_front(page);
                self.loc.insert(page, Loc::T2);
                Access::Hit
            }
            Some(Loc::T2) => {
                Self::remove_from(&mut self.t2, page);
                self.t2.push_front(page);
                Access::Hit
            }
            Some(Loc::B1) => {
                // Recency ghost hit: grow T1 target.
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(self.capacity);
                self.replace(false);
                Self::remove_from(&mut self.b1, page);
                self.t2.push_front(page);
                self.loc.insert(page, Loc::T2);
                Access::Miss
            }
            Some(Loc::B2) => {
                // Frequency ghost hit: shrink T1 target.
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.replace(true);
                Self::remove_from(&mut self.b2, page);
                self.t2.push_front(page);
                self.loc.insert(page, Loc::T2);
                Access::Miss
            }
            None => {
                if self.t1.len() + self.t2.len() >= self.capacity {
                    self.replace(false);
                }
                self.t1.push_front(page);
                self.loc.insert(page, Loc::T1);
                self.trim_ghosts();
                Access::Miss
            }
        }
    }

    fn contains(&self, page: PageId) -> bool {
        matches!(self.loc.get(&page), Some(Loc::T1) | Some(Loc::T2))
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.p = self.p.min(capacity);
        while self.len() > capacity {
            self.replace(false);
        }
        self.trim_ghosts();
    }

    fn clear(&mut self) {
        self.t1.clear();
        self.t2.clear();
        self.b1.clear();
        self.b2.clear();
        self.loc.clear();
        self.p = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn repeated_access_promotes_to_frequency_list() {
        let mut c = ArcCache::new(4);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert_eq!(c.access(p(1)), Access::Hit);
        assert_eq!(c.t2.len(), 1);
        assert_eq!(c.t1.len(), 0);
    }

    #[test]
    fn respects_capacity() {
        let mut c = ArcCache::new(3);
        for v in 0..20 {
            c.access(p(v));
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn hit_iff_resident() {
        let mut c = ArcCache::new(4);
        let seq = [1u64, 2, 3, 1, 4, 5, 2, 1, 1, 6, 7, 2];
        for &v in &seq {
            let was = c.contains(p(v));
            let hit = c.access(p(v)).is_hit();
            assert_eq!(was, hit);
            assert!(c.contains(p(v)));
        }
    }

    #[test]
    fn scan_does_not_flush_frequent_pages() {
        // Make 1 and 2 frequent, then scan; ARC keeps the frequent pair
        // resident while plain LRU would evict them.
        let mut arc = ArcCache::new(4);
        let mut lru = crate::lru::LruCache::new(4);
        for _ in 0..5 {
            arc.access(p(1));
            arc.access(p(2));
            lru.access(p(1));
            lru.access(p(2));
        }
        for v in 100..108 {
            arc.access(p(v));
            lru.access(p(v));
        }
        assert!(arc.contains(p(1)) && arc.contains(p(2)), "ARC lost hot set");
        assert!(!lru.contains(p(1)), "LRU control failed");
    }

    #[test]
    fn ghost_hits_adapt_target() {
        let mut c = ArcCache::new(4);
        // Fill T1 and overflow into B1.
        for v in 0..8 {
            c.access(p(v));
        }
        let before = c.recency_target();
        // Touch a ghost from B1 -> target grows.
        assert!(matches!(c.loc.get(&p(0)), Some(Loc::B1) | None));
        if matches!(c.loc.get(&p(0)), Some(Loc::B1)) {
            c.access(p(0));
            assert!(c.recency_target() > before);
        }
    }

    #[test]
    fn resize_and_clear_are_safe() {
        let mut c = ArcCache::new(8);
        for v in 0..30 {
            c.access(p(v % 10));
        }
        c.resize(2);
        assert!(c.len() <= 2);
        c.access(p(99));
        assert!(c.contains(p(99)));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.access(p(1)), Access::Miss);
    }

    #[test]
    fn zero_capacity_streams() {
        let mut c = ArcCache::new(0);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert_eq!(c.len(), 0);
    }
}
