//! The Clock (second-chance) replacement policy.
//!
//! Clock approximates LRU with a single reference bit per frame and a
//! rotating hand — the policy most real kernels ship. It sits between FIFO
//! and LRU in quality and serves as another baseline for the policy
//! comparison benches.

use std::collections::HashMap;

use crate::policy::{Access, Cache};
use crate::types::PageId;

#[derive(Clone, Debug)]
struct Frame {
    page: PageId,
    referenced: bool,
}

/// A Clock/second-chance cache.
#[derive(Clone, Debug)]
pub struct ClockCache {
    capacity: usize,
    frames: Vec<Frame>,
    hand: usize,
    map: HashMap<PageId, usize>,
}

impl ClockCache {
    /// Creates an empty Clock cache with the given capacity.
    pub fn new(capacity: usize) -> Self {
        ClockCache {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            hand: 0,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
        }
    }

    /// Advances the hand until a victim frame (referenced bit clear) is
    /// found, clearing bits as it sweeps; returns the victim index.
    fn find_victim(&mut self) -> usize {
        loop {
            if self.hand >= self.frames.len() {
                self.hand = 0;
            }
            if self.frames[self.hand].referenced {
                self.frames[self.hand].referenced = false;
                self.hand += 1;
            } else {
                return self.hand;
            }
        }
    }
}

impl Cache for ClockCache {
    fn access(&mut self, page: PageId) -> Access {
        if let Some(&idx) = self.map.get(&page) {
            self.frames[idx].referenced = true;
            return Access::Hit;
        }
        if self.capacity == 0 {
            return Access::Miss;
        }
        if self.frames.len() < self.capacity {
            self.map.insert(page, self.frames.len());
            self.frames.push(Frame {
                page,
                referenced: false,
            });
        } else {
            let victim = self.find_victim();
            let old = self.frames[victim].page;
            self.map.remove(&old);
            self.frames[victim] = Frame {
                page,
                referenced: false,
            };
            self.map.insert(page, victim);
            self.hand = victim + 1;
        }
        Access::Miss
    }

    fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.frames.len() > capacity {
            let victim = self.find_victim();
            let old = self.frames.swap_remove(victim).page;
            self.map.remove(&old);
            if victim < self.frames.len() {
                let moved = self.frames[victim].page;
                self.map.insert(moved, victim);
            }
        }
        if self.hand >= self.frames.len() {
            self.hand = 0;
        }
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn second_chance_spares_referenced_pages() {
        let mut c = ClockCache::new(2);
        c.access(p(1));
        c.access(p(2));
        c.access(p(1)); // sets reference bit on 1
        c.access(p(3)); // hand passes 1 (clearing its bit), evicts 2
        assert!(c.contains(p(1)));
        assert!(!c.contains(p(2)));
        assert!(c.contains(p(3)));
    }

    #[test]
    fn fills_before_evicting() {
        let mut c = ClockCache::new(3);
        for v in 1..=3 {
            assert_eq!(c.access(p(v)), Access::Miss);
        }
        assert_eq!(c.len(), 3);
        for v in 1..=3 {
            assert_eq!(c.access(p(v)), Access::Hit);
        }
    }

    #[test]
    fn resize_down_keeps_len_within_capacity() {
        let mut c = ClockCache::new(4);
        for v in 1..=4 {
            c.access(p(v));
        }
        c.resize(2);
        assert_eq!(c.len(), 2);
        // Subsequent accesses must still behave.
        c.access(p(9));
        assert!(c.contains(p(9)));
        assert!(c.len() <= 2);
    }

    #[test]
    fn zero_capacity_is_a_stream() {
        let mut c = ClockCache::new(0);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert_eq!(c.len(), 0);
    }
}
