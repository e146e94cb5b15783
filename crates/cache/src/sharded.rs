//! Sharded cache: one logical cache split into independently locked shards.
//!
//! [`ShardedCache`] splits one logical cache into `n` (a power of two)
//! independent shards, each a plain sequential policy behind its own
//! `Mutex`. A page is routed to its shard by FNV-1a hash, so two threads
//! touching different shards never contend, and each shard is the
//! already-verified sequential policy, serialized by its lock.
//!
//! Two properties anchor the test story:
//!
//! * **1-shard degeneracy.** With one shard the router is the identity and
//!   the checkpoint encoding below adds no framing, so a 1-shard cache is
//!   *byte-identical* — same behaviour, same snapshot bytes — to the
//!   sequential cache it wraps. The `sharded_props` proptest pins this for
//!   every policy.
//! * **Per-shard ledgers.** When recording is on, every access is logged
//!   (page, outcome) under the shard lock, in the exact order the lock
//!   serialized them. Replaying a shard's ledger through a fresh sequential
//!   cache of the same capacity must reproduce the outcomes exactly — the
//!   linearization evidence the conform oracle checks concurrent histories
//!   against.
//!
//! Two access paths share the shards. The `*_shared` methods take `&self`:
//! they lock the shard and serve concurrent callers. The `&mut self`
//! [`Cache`] methods (`access`, `access_if_fits`, `len_mut`, `resize`,
//! `clear`) and [`Checkpoint::save_mut`] reach each shard through
//! [`Mutex::get_mut`]: `&mut` already proves no other thread holds the
//! cache, so they take no lock and read the ledger switch without an
//! atomic load. Both paths run the same shard code and record the same
//! ledgers, so they give identical outcomes on the same stream.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::checkpoint::{fnv1a64, Checkpoint, CodecError, SnapReader, SnapWriter};
use crate::lru::LruCache;
use crate::policy::{Access, Cache};
use crate::types::{PageId, Time};

/// A concurrent cache built from `n` independently locked sequential shards.
pub struct ShardedCache<C> {
    shards: Box<[Mutex<Shard<C>>]>,
    mask: u64,
    record_ledgers: AtomicBool,
}

struct Shard<C> {
    cache: C,
    ledger: Vec<(PageId, Access)>,
}

/// The conventional sharded LRU — what the engine integration uses.
pub type ShardedLru = ShardedCache<LruCache>;

/// Capacity of shard `i` when `total` pages are split across `n` shards:
/// `total / n`, with the first `total % n` shards holding one extra page.
pub fn shard_capacity(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

impl<C: std::fmt::Debug> std::fmt::Debug for ShardedCache<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedCache<LruCache> {
    /// A sharded LRU with `capacity` total pages across `shards` shards
    /// (rounded up to a power of two).
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedLru {
        ShardedCache::with_shards_by(capacity, shards, LruCache::new)
    }
}

impl<C: Cache> ShardedCache<C> {
    /// Builds a sharded cache over `shards` (rounded up to a power of two)
    /// instances produced by `make`, which receives each shard's capacity.
    pub fn with_shards_by(
        capacity: usize,
        shards: usize,
        mut make: impl FnMut(usize) -> C,
    ) -> Self {
        let n = shards.next_power_of_two().max(1);
        ShardedCache {
            shards: (0..n)
                .map(|i| {
                    Mutex::new(Shard {
                        cache: make(shard_capacity(capacity, n, i)),
                        ledger: Vec::new(),
                    })
                })
                .collect(),
            mask: (n - 1) as u64,
            record_ledgers: AtomicBool::new(false),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `page` routes to.
    pub fn shard_of(&self, page: PageId) -> usize {
        if self.mask == 0 {
            return 0; // 1-shard degenerate case: router is the identity
        }
        (fnv1a64(&page.0.to_le_bytes()) & self.mask) as usize
    }

    fn shard(&self, i: usize) -> std::sync::MutexGuard<'_, Shard<C>> {
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Shard `i` through exclusive access: no lock taken.
    fn shard_mut(&mut self, i: usize) -> &mut Shard<C> {
        self.shards[i].get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Capacity of every shard, in shard order (what a ledger replayer
    /// needs to rebuild each shard's sequential twin).
    pub fn shard_capacities(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| self.shard(i).cache.capacity())
            .collect()
    }

    /// Turns per-shard access ledgers on or off. Ledgers record every
    /// access (page, outcome) in shard-lock serialization order; the
    /// conform oracle replays them against the sequential policy.
    pub fn set_ledger_recording(&self, on: bool) {
        self.record_ledgers.store(on, Ordering::SeqCst);
    }

    /// Drains and returns the per-shard ledgers accumulated so far.
    pub fn take_ledgers(&self) -> Vec<Vec<(PageId, Access)>> {
        self.shards
            .iter()
            .map(|s| std::mem::take(&mut s.lock().unwrap_or_else(|e| e.into_inner()).ledger))
            .collect()
    }

    /// Concurrent access path: routes `page` to its shard, serializes on
    /// that shard's lock only.
    pub fn access_shared(&self, page: PageId) -> Access {
        let mut shard = self.shard(self.shard_of(page));
        let outcome = shard.cache.access(page);
        if self.record_ledgers.load(Ordering::SeqCst) {
            shard.ledger.push((page, outcome));
        }
        outcome
    }

    /// Concurrent residency probe.
    pub fn contains_shared(&self, page: PageId) -> bool {
        self.shard(self.shard_of(page)).cache.contains(page)
    }

    /// Total resident pages across all shards (locks each shard in turn —
    /// a moment-in-time sum, not an atomic snapshot).
    pub fn len_shared(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, _)| self.shard(i).cache.len())
            .sum()
    }

    /// Total capacity across all shards.
    pub fn capacity_shared(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, _)| self.shard(i).cache.capacity())
            .sum()
    }
}

impl<C: Cache> Cache for ShardedCache<C> {
    fn access(&mut self, page: PageId) -> Access {
        let record = *self.record_ledgers.get_mut();
        let shard = self.shard_mut(self.shard_of(page));
        let outcome = shard.cache.access(page);
        if record {
            shard.ledger.push((page, outcome));
        }
        outcome
    }

    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        let record = *self.record_ledgers.get_mut();
        let shard = self.shard_mut(self.shard_of(page));
        let outcome = shard.cache.access_if_fits(page, remaining, miss_penalty)?;
        if record {
            shard.ledger.push((page, outcome));
        }
        Some(outcome)
    }

    fn contains(&self, page: PageId) -> bool {
        self.contains_shared(page)
    }

    fn len(&self) -> usize {
        self.len_shared()
    }

    fn len_mut(&mut self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard_mut(i).cache.len())
            .sum()
    }

    fn capacity(&self) -> usize {
        self.capacity_shared()
    }

    fn resize(&mut self, capacity: usize) {
        let n = self.shards.len();
        for i in 0..n {
            let cap = shard_capacity(capacity, n, i);
            self.shard_mut(i).cache.resize(cap);
        }
    }

    fn clear(&mut self) {
        for i in 0..self.shards.len() {
            self.shard_mut(i).cache.clear();
        }
    }
}

impl<C: Cache + Checkpoint> Checkpoint for ShardedCache<C> {
    /// Shard payloads concatenated in shard order with **no header**: the
    /// shard count is construction-time configuration, not state, so a
    /// 1-shard cache's snapshot is byte-identical to its inner cache's.
    fn save(&self, w: &mut SnapWriter) {
        for i in 0..self.shards.len() {
            self.shard(i).cache.save(w);
        }
    }

    fn save_mut(&mut self, w: &mut SnapWriter) {
        for i in 0..self.shards.len() {
            self.shard_mut(i).cache.save_mut(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        for i in 0..self.shards.len() {
            self.shard(i).cache.load(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoCache;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn one_shard_is_byte_identical_to_inner() {
        let mut plain = LruCache::new(5);
        let mut sharded = ShardedCache::with_shards(5, 1);
        for v in [1u64, 2, 3, 1, 4, 2, 5, 6, 1] {
            assert_eq!(plain.access(p(v)), sharded.access(p(v)));
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        plain.save(&mut wa);
        sharded.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn capacity_splits_with_remainder_up_front() {
        let c = ShardedCache::with_shards(10, 4);
        let caps: Vec<usize> = (0..4).map(|i| c.shard(i).cache.capacity()).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(c.capacity_shared(), 10);
    }

    #[test]
    fn resize_redistributes() {
        let mut c = ShardedCache::with_shards(8, 4);
        for v in 0..100 {
            c.access(p(v));
        }
        c.resize(4);
        assert_eq!(c.capacity(), 4);
        assert!(c.len() <= 4);
        c.resize(0);
        assert!(c.is_empty());
    }

    #[test]
    fn checkpoint_round_trips_across_shards() {
        let mut c = ShardedCache::with_shards_by(6, 4, FifoCache::new);
        for v in [9u64, 1, 5, 3, 7, 2, 9, 5] {
            c.access(p(v));
        }
        let mut w = SnapWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ShardedCache::with_shards_by(0, 4, FifoCache::new);
        restored.load(&mut SnapReader::new(&bytes)).unwrap();
        for v in [9u64, 1, 5, 3, 7, 2] {
            assert_eq!(restored.contains(p(v)), c.contains(p(v)), "page {v}");
        }
        assert_eq!(restored.len(), c.len());
        assert_eq!(restored.capacity(), c.capacity());
    }

    #[test]
    fn ledgers_replay_exactly_through_sequential_policy() {
        let c = ShardedCache::with_shards(8, 4);
        c.set_ledger_recording(true);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for v in 0..200 {
                        c.access_shared(p((v * 17 + t * 31) % 64));
                    }
                });
            }
        });
        let ledgers = c.take_ledgers();
        assert_eq!(ledgers.iter().map(Vec::len).sum::<usize>(), 800);
        for (i, ledger) in ledgers.iter().enumerate() {
            let mut replay = LruCache::new(c.shard(i).cache.capacity());
            for &(page, outcome) in ledger {
                assert_eq!(replay.access(page), outcome, "shard {i} diverged");
            }
        }
    }

    #[test]
    fn disjoint_threads_lose_no_residency() {
        let c = ShardedCache::with_shards(1024, 8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for v in 0..100 {
                        c.access_shared(p(t * 1000 + v));
                    }
                });
            }
        });
        // 800 distinct pages into capacity 1024: with a perfect router
        // nothing *must* survive per shard, but every page is either
        // resident or was evicted by its own shard's policy; the total
        // can never exceed capacity and the sum of ledgers is exact.
        assert!(c.len_shared() <= 1024);
        assert!(c.len_shared() > 0);
    }
}
