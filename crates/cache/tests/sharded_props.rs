//! Property pins for the sharded concurrent cache:
//!
//! * a **1-shard** [`ShardedCache`] is indistinguishable — access outcome
//!   by access outcome *and* snapshot byte by snapshot byte — from the
//!   sequential cache it wraps, for every checkpointable policy and random
//!   traces (the degeneracy the whole test story is anchored on);
//! * with any shard count, driving the sharded cache equals driving each
//!   shard's sequential twin with the routed subsequence;
//! * the exclusive (`&mut`, lock-free) path and the shared (`&self`,
//!   locking) path give identical outcomes, resident counts, shard
//!   contents and ledgers on the same stream.

use proptest::prelude::*;

use parapage_cache::{
    shard_capacity, ArcCache, Cache, Checkpoint, ClockCache, FifoCache, LfuCache, LruCache, PageId,
    ShardedCache, SnapReader, SnapWriter, TwoQueueCache,
};

fn seq_strategy(max_len: usize, universe: u64) -> impl Strategy<Value = Vec<PageId>> {
    prop::collection::vec((0..universe).prop_map(PageId), 0..max_len)
}

fn snapshot_bytes<C: Checkpoint>(cache: &C) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    w.into_bytes()
}

fn snapshot_bytes_mut<C: Checkpoint>(cache: &mut C) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cache.save_mut(&mut w);
    w.into_bytes()
}

/// Drives a plain `make(cap)` cache and a 1-shard sharded wrapper over the
/// same trace, insisting on identical outcomes, identical snapshot bytes,
/// and that the plain cache's blob loads into the sharded one unchanged.
fn assert_one_shard_identical<C, F>(
    name: &str,
    make: F,
    cap: usize,
    seq: &[PageId],
) -> Result<(), TestCaseError>
where
    C: Cache + Checkpoint,
    F: Fn(usize) -> C,
{
    let mut plain = make(cap);
    let mut sharded = ShardedCache::with_shards_by(cap, 1, &make);
    prop_assert_eq!(sharded.shard_count(), 1, "{}", name);
    for &page in seq {
        prop_assert_eq!(
            plain.access(page),
            sharded.access(page),
            "{} diverged",
            name
        );
    }
    prop_assert_eq!(plain.len(), sharded.len(), "{}", name);
    let (a, b) = (snapshot_bytes(&plain), snapshot_bytes(&sharded));
    prop_assert_eq!(&a, &b, "{}: snapshot bytes differ", name);

    // Cross-load: the *sequential* blob restores the sharded cache, and the
    // restored state re-encodes to the same bytes.
    let mut restored = ShardedCache::with_shards_by(cap, 1, &make);
    restored
        .load(&mut SnapReader::new(&a))
        .map_err(|e| TestCaseError::fail(format!("{name}: cross-load failed: {e}")))?;
    prop_assert_eq!(snapshot_bytes(&restored), b, "{}: re-encode differs", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 1's headline: for every checkpointable policy, a 1-shard
    /// sharded cache is byte-identical to the sequential cache it wraps.
    /// (LIRS is absent only because it does not implement `Checkpoint`.)
    #[test]
    fn one_shard_is_byte_identical_for_every_policy(
        seq in seq_strategy(200, 24),
        cap in 0usize..10,
    ) {
        assert_one_shard_identical("lru", LruCache::new, cap, &seq)?;
        assert_one_shard_identical("fifo", FifoCache::new, cap, &seq)?;
        assert_one_shard_identical("clock", ClockCache::new, cap, &seq)?;
        assert_one_shard_identical("lfu", LfuCache::new, cap, &seq)?;
        assert_one_shard_identical("arc", ArcCache::new, cap, &seq)?;
        assert_one_shard_identical("2q", TwoQueueCache::new, cap, &seq)?;
    }

    /// With any power-of-two shard count, the sharded cache behaves exactly
    /// like `n` independent sequential caches fed the routed subsequences —
    /// the router partitions, it never mixes.
    #[test]
    fn routing_equals_per_shard_sequential_twins(
        seq in seq_strategy(300, 32),
        cap in 0usize..16,
        shards_exp in 0u32..4,
    ) {
        let n = 1usize << shards_exp;
        let mut sharded = ShardedCache::with_shards(cap, n);
        let mut twins: Vec<LruCache> =
            (0..n).map(|i| LruCache::new(shard_capacity(cap, n, i))).collect();
        for &page in &seq {
            let i = sharded.shard_of(page);
            prop_assert_eq!(
                sharded.access(page),
                twins[i].access(page),
                "shard {} diverged on {:?}", i, page
            );
        }
        prop_assert_eq!(sharded.len(), twins.iter().map(Cache::len).sum::<usize>());
        // The sharded snapshot is exactly the twins' payloads concatenated.
        let mut w = SnapWriter::new();
        for t in &twins {
            t.save(&mut w);
        }
        prop_assert_eq!(snapshot_bytes(&sharded), w.into_bytes());
    }

    /// The exclusive path (the `Cache` trait's `&mut` methods, which skip
    /// the shard locks) and the shared path (`access_shared`) are the same
    /// cache: on one stream of accesses, fit-checked accesses (which both
    /// caches take through `&mut`), resizes and clears, with ledger
    /// recording on, they return identical outcomes, report identical
    /// resident counts (`len_mut` and `len_shared`) after every operation,
    /// hold identical shard contents (`save` and `save_mut` alike) and
    /// record identical ledgers.
    #[test]
    fn exclusive_path_equals_shared_path(
        ops in prop::collection::vec((0u64..40, 0u8..16, 0u64..48), 0..300),
        cap in 0usize..24,
        shards_exp in 0u32..4,
    ) {
        let n = 1usize << shards_exp;
        let mut exclusive = ShardedCache::with_shards(cap, n);
        let mut shared = ShardedCache::with_shards(cap, n);
        exclusive.set_ledger_recording(true);
        shared.set_ledger_recording(true);
        let mut happened = 0usize;
        for &(v, op, remaining) in &ops {
            let page = PageId(v);
            match op {
                0 => {
                    exclusive.resize(v as usize % 32);
                    shared.resize(v as usize % 32);
                }
                1 => {
                    exclusive.clear();
                    shared.clear();
                }
                2..=7 => {
                    prop_assert_eq!(exclusive.access(page), shared.access_shared(page));
                    happened += 1;
                }
                _ => {
                    let penalty = 1 + u64::from(op % 4);
                    let outcome = exclusive.access_if_fits(page, remaining, penalty);
                    prop_assert_eq!(outcome, shared.access_if_fits(page, remaining, penalty));
                    happened += usize::from(outcome.is_some());
                }
            }
            // The lock-free count the engine's grant path reads agrees
            // with the locking one after every operation.
            prop_assert_eq!(exclusive.len_mut(), shared.len_shared());
            prop_assert_eq!(shared.len_mut(), exclusive.len());
        }
        prop_assert_eq!(exclusive.len(), shared.len_shared());
        prop_assert_eq!(exclusive.shard_capacities(), shared.shard_capacities());
        let want = snapshot_bytes(&shared);
        prop_assert_eq!(&snapshot_bytes(&exclusive), &want);
        prop_assert_eq!(&snapshot_bytes_mut(&mut exclusive), &want);
        prop_assert_eq!(&snapshot_bytes_mut(&mut shared), &want);
        // Every access that happened is in the ledgers, on both paths.
        let ledgers = exclusive.take_ledgers();
        prop_assert_eq!(ledgers.iter().map(Vec::len).sum::<usize>(), happened);
        prop_assert_eq!(ledgers, shared.take_ledgers());
    }
}
