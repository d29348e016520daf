//! The byte-budgeted LRU of prepared universes.
//!
//! The cache maps a [`UniverseKey`] to a [`PreparedVariant`] —
//! full-matrix state for ordinary specs, coreset state (`m² + O(n)`
//! bytes, never `n²`) for specs in coreset mode. The map is split into
//! shards that are lock stripes and nothing more: a key's 128-bit digest
//! picks its shard, so traffic on disjoint universes contends on
//! disjoint locks and a hit locks one shard. Universe preparation — the
//! `O(n²)` (or `O(n·m)`) part — always happens **outside** any lock: a
//! miss releases the shard, builds, re-locks, and inserts. Two threads
//! racing to prepare the same universe may both build; the first insert
//! wins and the loser adopts it, so every caller for one key observes
//! the same `Arc` once the entry exists (benign, bounded duplicate work
//! instead of serializing all misses behind one lock).
//!
//! **One budget.** Entries are metered in bytes
//! ([`PreparedUniverse::approx_bytes`](divr_core::engine::PreparedUniverse::approx_bytes))
//! against one budget for the whole cache, held as one resident-bytes
//! counter: an insert charges it under the lock that links the entry,
//! before linking, and every unlink refunds it under the lock that
//! unlinks. The figure **reserves** the `O(n)` memoized solver preambles
//! up front: the max-sum lazy-heap seed is materialized during the
//! matrix build itself, and the mono scores are populated lazily by the
//! first `F_mono` request — an entry's metered size is computed once at
//! insert, so charging all preambles eagerly keeps the budget honest
//! after the entry warms up — serving against a cached universe never
//! grows its true footprint past what the cache already accounted for
//! (pinned by `preamble_bytes_are_reserved_at_insert` below).
//!
//! **The victim scan.** An insert releases its shard, then, while the
//! cache is over budget, finds the globally least-recent entry (by a
//! monotone clock stamp) by scanning the shards one lock at a time. It
//! locks that entry's shard and unlinks the entry only if its stamp is
//! unchanged and the cache is still over budget. No path holds two
//! shard locks. The newest entry is never evicted by its own insert — a
//! universe larger than the budget is still served (and evicted by the
//! next insert), it just can't stay warm. Evicted state is only ever
//! dropped, never mutated: any engine still solving against an evicted
//! `Arc` keeps it alive and correct, and a re-request rebuilds from the
//! spec — so eviction can never serve stale or torn matrices. The drop
//! itself — releasing a 9–35 MB matrix — happens with no lock held,
//! like the build.
//!
//! **Transient overshoot.** While inserts race, resident bytes exceed
//! the budget by at most one in-flight entry per concurrent inserter
//! (charged, its victim scan not yet finished), and evictors that pass
//! the re-check together over-evict by at most one entry each. Once
//! inserts quiesce the cache is within budget, unless one entry alone
//! exceeds it (pinned by
//! `concurrent_inserts_meter_exactly_and_settle_within_budget` below).

use crate::fingerprint::UniverseKey;
use crate::spec::PreparedVariant;
use divr_core::engine::DeltaOp;
use std::collections::hash_map::{self, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

struct Entry {
    prepared: PreparedVariant,
    bytes: usize,
    stamp: u64,
}

/// One lock stripe of the cache.
type Shard = HashMap<UniverseKey, Entry>;

/// Counters describing cache behaviour since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a cached prepared universe.
    pub hits: u64,
    /// Requests that had to build (including both sides of a race).
    pub misses: u64,
    /// Entries dropped to satisfy the byte budget.
    pub evictions: u64,
    /// Microseconds spent inside the build step of every miss, failed
    /// and abandoned builds included: `prepare_us / misses` is the mean
    /// cold prepare as this process paid it.
    pub prepare_us: u64,
    /// Prepared universes currently resident.
    pub entries: usize,
    /// Metered bytes of the resident entries, the figure held against
    /// the byte budget: exact once concurrent inserts and evictions have
    /// returned.
    pub bytes: usize,
}

/// The LRU itself. See the module docs for the locking and eviction
/// discipline.
pub struct PreparedCache {
    shards: Vec<Mutex<Shard>>,
    budget: usize,
    /// Metered bytes of every linked entry, charged and refunded under
    /// the lock of the shard that links or unlinks it. `SeqCst`: each
    /// evictor re-checks it under a different shard's lock, and the
    /// over-eviction bound needs every unlink in one order.
    resident: AtomicUsize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prepare_us: AtomicU64,
}

impl PreparedCache {
    /// A cache holding at most ~`byte_budget` bytes of prepared state,
    /// one budget for the whole cache, behind `shards` lock stripes.
    pub fn new(byte_budget: usize, shards: usize) -> Self {
        PreparedCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            budget: byte_budget,
            resident: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prepare_us: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &UniverseKey) -> &Mutex<Shard> {
        let i = (key.digest() % self.shards.len() as u128) as usize;
        &self.shards[i]
    }

    /// Locks a shard, recovering from poison instead of propagating it.
    ///
    /// A panic while a shard was locked (a panicking user oracle, an
    /// allocation failure mid-insert) may have left its bookkeeping
    /// torn — bytes charged for an entry that was never linked.
    /// Poisoning every later request on the shard would turn one
    /// tenant's panic into a permanent denial of service for every
    /// universe hashing there. Cached state is only ever a rebuildable
    /// copy, so the recovery is to evict the whole shard (counted as
    /// evictions, their metered bytes refunded), clear the poison flag,
    /// and keep serving: in-flight `Arc` clones finish on the old
    /// immutable state, and the next request per key simply re-prepares.
    /// Every linked entry was charged before it was linked, so the
    /// refund never wraps; a tear can only leave bytes over-counted. The
    /// torn entries are dropped with the lock released, then the (now
    /// clean) shard is locked again.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        loop {
            match shard.lock() {
                Ok(guard) => return guard,
                Err(poisoned) => {
                    let mut guard = poisoned.into_inner();
                    let torn = std::mem::take(&mut *guard);
                    let bytes = torn.values().map(|e| e.bytes).sum();
                    self.resident.fetch_sub(bytes, Ordering::SeqCst);
                    self.evictions
                        .fetch_add(torn.len() as u64, Ordering::Relaxed);
                    shard.clear_poison();
                    drop(guard);
                    drop(torn);
                }
            }
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The prepared state for `key`, running `build` on a miss — the
    /// cache's one lookup. Callers pass the build step that fits their
    /// source: the registry prepares from a materialized
    /// [`UniverseSpec`](crate::UniverseSpec), the query front door from
    /// a **streaming evaluator**. Hits bump LRU, never run `build`, and
    /// are returned as-is (everything inserted was validated at build);
    /// a failing build caches **nothing** — a non-finite universe, an
    /// empty query result or an abandoned (deadline-exceeded) prepare
    /// cannot park a poisoned entry for later hits to trip over, so a
    /// retry starts from a clean miss. Racing builders adopt the first
    /// insert. `build` runs outside any shard lock and must already
    /// validate what it returns; whatever it returns, its wall time is
    /// added to [`CacheStats::prepare_us`].
    pub fn get_or_try_prepare_with<E>(
        &self,
        key: &UniverseKey,
        build: impl FnOnce() -> Result<PreparedVariant, E>,
    ) -> Result<PreparedVariant, E> {
        self.get_or_try_prepare_resident(key, || Ok((key.exact(), build()?)))
    }

    /// [`PreparedCache::get_or_try_prepare_with`] whose `build` also
    /// returns the key the entry is to be resident under: `key` as an
    /// [`UniverseKey::exact`] one, whose bytes a coreset entry may hold
    /// as its rows, so that one allocation serves both.
    pub(crate) fn get_or_try_prepare_resident<E>(
        &self,
        key: &UniverseKey,
        build: impl FnOnce() -> Result<(UniverseKey, PreparedVariant), E>,
    ) -> Result<PreparedVariant, E> {
        let shard = self.shard_of(key);
        {
            let mut guard = self.lock_shard(shard);
            if let Some(entry) = guard.get_mut(key) {
                entry.stamp = self.tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.prepared.clone());
            }
        }
        // Miss: build (and validate) outside the lock, on the clock.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let built = build();
        self.prepare_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        let (resident, prepared) = built?;
        debug_assert!(resident == *key && resident.is_exact());
        Ok(self.adopt_or_insert(shard, resident, prepared))
    }

    /// The common tail of a miss: re-lock, adopt a race winner if one
    /// appeared while we built, otherwise insert under `resident` (an
    /// exact key) and evict past budget.
    fn adopt_or_insert(
        &self,
        shard: &Mutex<Shard>,
        resident: UniverseKey,
        prepared: PreparedVariant,
    ) -> PreparedVariant {
        let mut guard = self.lock_shard(shard);
        if let Some(entry) = guard.get_mut(&resident) {
            // Lost a build race; adopt the winner so all callers share.
            entry.stamp = self.tick();
            return entry.prepared.clone();
        }
        self.insert_and_evict(guard, resident, prepared.clone());
        prepared
    }

    /// Removes and returns the prepared state under `key`, releasing
    /// its metered bytes. The front door's base-edit repair uses this
    /// to migrate a warm entry to its post-edit key: taking first means
    /// the stale pre-edit state is never resident alongside the new
    /// one, and any in-flight `Arc` clones simply finish their solves
    /// on the old immutable state.
    pub fn take(&self, key: &UniverseKey) -> Option<PreparedVariant> {
        let mut guard = self.lock_shard(self.shard_of(key));
        let entry = guard.remove(key)?;
        self.resident.fetch_sub(entry.bytes, Ordering::SeqCst);
        Some(entry.prepared)
    }

    /// Makes `prepared` the resident state under `key` (replacing what
    /// was there), metered like a cold build, then evicts LRU entries
    /// past budget — the fresh entry itself is never its own victim.
    /// How a repaired or recovered entry becomes resident.
    pub fn insert(&self, key: &UniverseKey, prepared: PreparedVariant) {
        let key = key.exact();
        let guard = self.lock_shard(self.shard_of(&key));
        self.insert_and_evict(guard, key, prepared);
    }

    // `e2e/src/layers.rs:477,756` spell the insert this way and `e2e/`
    // changes only in a `benchmark` PR (the ROADMAP's instrument-repair
    // item drops this);
    // nothing under crates/, tests/ or examples/ may call it
    // (`ci/gates.sh`).
    #[doc(hidden)]
    pub fn insert_versioned(
        &self,
        key: &UniverseKey,
        prepared: PreparedVariant,
        _: u64,
        _: Vec<DeltaOp>,
    ) {
        self.insert(key, prepared)
    }

    /// The one insert: charges `prepared` and links it under `key` (an
    /// [`UniverseKey::exact`] one) in the locked shard, releases the
    /// shard, drops what it replaced, and evicts past budget.
    fn insert_and_evict(
        &self,
        mut guard: MutexGuard<'_, Shard>,
        key: UniverseKey,
        prepared: PreparedVariant,
    ) {
        let bytes = prepared.approx_bytes();
        let stamp = self.tick();
        let entry = Entry {
            prepared,
            bytes,
            stamp,
        };
        self.resident.fetch_add(bytes, Ordering::SeqCst);
        let replaced = guard.insert(key, entry);
        if let Some(old) = &replaced {
            self.resident.fetch_sub(old.bytes, Ordering::SeqCst);
        }
        drop(guard);
        drop(replaced);
        self.evict_over_budget(stamp);
    }

    /// While the cache is over budget, unlinks the globally
    /// least-recent entry other than the one stamped `keep`, and drops
    /// it with no lock held. The scan locks one shard at a time; the
    /// victim is unlinked only if nothing touched it since and the cache
    /// is still over budget under its shard's lock.
    fn evict_over_budget(&self, keep: u64) {
        while self.resident.load(Ordering::SeqCst) > self.budget {
            let mut oldest: Option<(&Mutex<Shard>, UniverseKey, u64)> = None;
            for shard in &self.shards {
                let guard = self.lock_shard(shard);
                let lru = guard
                    .iter()
                    .filter(|(_, e)| e.stamp != keep)
                    .min_by_key(|(_, e)| e.stamp);
                if let Some((key, e)) = lru {
                    if oldest.as_ref().is_none_or(|(_, _, s)| e.stamp < *s) {
                        oldest = Some((shard, key.clone(), e.stamp));
                    }
                }
            }
            let Some((shard, key, stamp)) = oldest else {
                return;
            };
            let victim = {
                let mut guard = self.lock_shard(shard);
                if self.resident.load(Ordering::SeqCst) <= self.budget {
                    return;
                }
                match guard.entry(key) {
                    hash_map::Entry::Occupied(slot) if slot.get().stamp == stamp => slot.remove(),
                    // Touched or taken since the scan: look again.
                    _ => continue,
                }
            };
            self.resident.fetch_sub(victim.bytes, Ordering::SeqCst);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            drop(victim);
        }
    }

    /// Whether `key` is currently resident (no LRU bump).
    pub fn contains(&self, key: &UniverseKey) -> bool {
        self.lock_shard(self.shard_of(key)).contains_key(key)
    }

    /// The prepared state under `key`, if resident — a peek: no LRU
    /// bump and no hit counted. How a checkpoint reads the warm set.
    pub(crate) fn peek(&self, key: &UniverseKey) -> Option<PreparedVariant> {
        let guard = self.lock_shard(self.shard_of(key));
        guard.get(key).map(|e| e.prepared.clone())
    }

    /// Every resident key, each an `O(1)` clone taken with one shard
    /// locked at a time (no LRU bump). How a checkpoint finds the
    /// resident universes, and recovery counts them.
    pub(crate) fn keys(&self) -> Vec<UniverseKey> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            keys.extend(self.lock_shard(shard).keys().cloned());
        }
        keys
    }

    /// A snapshot of the counters. `entries` reads the shards one at a
    /// time, so it may straddle concurrent inserts; `bytes` is the one
    /// resident counter.
    pub fn stats(&self) -> CacheStats {
        let entries = self.shards.iter().map(|s| self.lock_shard(s).len()).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prepare_us: self.prepare_us.load(Ordering::Relaxed),
            entries,
            bytes: self.resident.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::UniverseSpec;
    use divr_core::distance::NumericDistance;
    use divr_core::engine::ServeError;
    use divr_core::relevance::ConstantRelevance;
    use divr_core::Ratio;
    use divr_relquery::Tuple;
    use std::sync::Arc;

    fn spec(n: i64, lambda: Ratio) -> UniverseSpec {
        UniverseSpec::new(
            (0..n).map(|i| Tuple::ints([i])).collect(),
            Arc::new(ConstantRelevance(Ratio::ONE)),
            Arc::new(NumericDistance {
                attr: 0,
                fallback: Ratio::ZERO,
            }),
            lambda,
        )
    }

    /// The registry's lookup: checked prepare from the spec on a miss.
    fn fetch(cache: &PreparedCache, s: &UniverseSpec) -> Result<PreparedVariant, ServeError> {
        cache.get_or_try_prepare_with(&s.key(), || s.try_prepare_variant(1))
    }

    /// `count` distinct specs of `n` tuples whose keys land in shard
    /// `shard` of an 8-shard cache.
    fn in_shard(shard: u128, n: i64, count: usize) -> Vec<UniverseSpec> {
        (2..)
            .map(|d| spec(n, Ratio::new(1, d)))
            .filter(|s| s.key().digest() % 8 == shard)
            .take(count)
            .collect()
    }

    /// The metered bytes of what is resident, summed entry by entry.
    fn resident_bytes(cache: &PreparedCache) -> usize {
        let shard_bytes = |s: &Mutex<Shard>| -> usize {
            s.lock()
                .unwrap()
                .values()
                .map(|e| e.prepared.approx_bytes())
                .sum()
        };
        cache.shards.iter().map(shard_bytes).sum()
    }

    /// A resident key fills its allocation exactly, through both
    /// inserts: a spec's key shares the writer's growth headroom, which
    /// must not stay for the entry's life.
    #[test]
    fn resident_keys_carry_no_growth_headroom() {
        let cache = PreparedCache::new(1 << 30, 8);
        let (built, inserted) = (spec(100, Ratio::ONE), spec(100, Ratio::new(1, 2)));
        for s in [&built, &inserted] {
            assert!(s.key().shared().capacity() > s.key().bytes().len());
        }
        fetch(&cache, &built).unwrap();
        cache.insert(&inserted.key(), inserted.try_prepare_variant(1).unwrap());
        let keys = cache.keys();
        assert_eq!(keys.len(), 2);
        for key in keys {
            assert_eq!(key.shared().capacity(), key.bytes().len());
        }
    }

    #[test]
    fn keys_in_one_shard_coreside_under_budget() {
        // (a) 15 small entries in one of 8 shards; (b) two entries each
        // larger than budget / 8. Both totals fit the budget, so nothing
        // is evicted however the keys skew.
        for (count, n) in [(15, 8), (2, 48)] {
            let specs = in_shard(0, n, count);
            let one = specs[0].prepare(1).approx_bytes();
            let budget = (count + 1) * one;
            assert!(count != 2 || one > budget / 8);
            let cache = PreparedCache::new(budget, 8);
            for s in specs.iter().chain(&specs) {
                fetch(&cache, s).unwrap();
            }
            let st = cache.stats();
            let count = count as u64;
            assert_eq!((st.misses, st.hits, st.evictions), (count, count, 0));
        }
    }

    #[test]
    fn the_victim_is_the_global_lru_not_the_inserting_shards_oldest() {
        let zero = in_shard(0, 16, 3);
        let (b, c, d) = (&zero[0], &zero[1], &zero[2]);
        let a = &in_shard(1, 16, 1)[0];
        let one = a.prepare(1).approx_bytes();
        let cache = PreparedCache::new(3 * one + one / 2, 8);
        for s in [b, a, c, b] {
            fetch(&cache, s).unwrap();
        }
        // Recency is a < c < b, and shard 0's oldest is c. Inserting d
        // into shard 0 evicts a, from shard 1.
        fetch(&cache, d).unwrap();
        assert!(!cache.contains(&a.key()));
        assert!([b, c, d].iter().all(|s| cache.contains(&s.key())));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_inserts_meter_exactly_and_settle_within_budget() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 8;
        let one = spec(16, Ratio::ONE).prepare(1).approx_bytes();
        // About half of each round's 32 fresh keys, spread over 8 shards.
        let budget = 15 * one + one / 2;
        let cache = PreparedCache::new(budget, 8);
        let barrier = std::sync::Barrier::new(THREADS);
        for round in 0..6i64 {
            let first = 2 + round * (THREADS * PER_THREAD) as i64;
            let specs: Vec<_> = (first..first + (THREADS * PER_THREAD) as i64)
                .map(|d| spec(16, Ratio::new(1, d)))
                .collect();
            let (cache, barrier) = (&cache, &barrier);
            std::thread::scope(|scope| {
                for chunk in specs.chunks(PER_THREAD) {
                    scope.spawn(move || {
                        barrier.wait();
                        for s in chunk {
                            fetch(cache, s).unwrap();
                        }
                    });
                }
            });
            let bytes = cache.stats().bytes;
            assert_eq!(bytes, resident_bytes(cache), "round {round}");
            assert!(bytes <= budget, "round {round}: {bytes} > {budget}");
            // Racing evictors over-evict by at most one entry each.
            assert!(
                bytes + THREADS * one > budget,
                "round {round}: only {bytes} resident"
            );
        }
    }

    #[test]
    fn hit_after_miss_shares_the_arc() {
        let cache = PreparedCache::new(usize::MAX, 4);
        let s = spec(10, Ratio::new(1, 2));
        let a = fetch(&cache, &s).unwrap();
        let b = fetch(&cache, &s).unwrap();
        assert!(Arc::ptr_eq(a.as_full().unwrap(), b.as_full().unwrap()));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn coreset_specs_cache_coreset_entries() {
        use crate::spec::CoresetSpec;
        let cache = PreparedCache::new(usize::MAX, 2);
        let full = spec(64, Ratio::new(1, 2));
        let core = full.clone().with_coreset(CoresetSpec::with_budget(8));
        let a = fetch(&cache, &full).unwrap();
        let b = fetch(&cache, &core).unwrap();
        assert!(!a.is_coreset());
        assert!(b.is_coreset());
        assert_eq!(b.as_coreset().unwrap().m(), 8);
        // Same content, different mode: two distinct entries, and the
        // coreset one is metered well below the full n² entry.
        assert_eq!(cache.stats().entries, 2);
        assert!(b.approx_bytes() < a.approx_bytes());
    }

    #[test]
    fn tiny_budget_evicts_lru_first() {
        let one = spec(16, Ratio::new(1, 2)).prepare(1).approx_bytes();
        // Budget fits one entry, not two.
        let cache = PreparedCache::new(one + one / 2, 1);
        let (s1, s2, s3) = (
            spec(16, Ratio::new(1, 2)),
            spec(16, Ratio::new(1, 3)),
            spec(16, Ratio::new(1, 4)),
        );
        let (k1, k2, k3) = (s1.key(), s2.key(), s3.key());
        fetch(&cache, &s1).unwrap();
        fetch(&cache, &s2).unwrap(); // evicts k1
        assert!(!cache.contains(&k1));
        assert!(cache.contains(&k2));
        // Touch k2, insert k3: k2 is the most recent, so it survives
        // only if budget allows one — it doesn't, so k2 (older than the
        // fresh k3) goes.
        fetch(&cache, &s3).unwrap();
        assert!(cache.contains(&k3));
        assert!(!cache.contains(&k2));
        assert!(cache.stats().evictions >= 2);
    }

    #[test]
    fn oversized_entry_is_still_served() {
        let cache = PreparedCache::new(1, 1); // nothing fits
        let s = spec(12, Ratio::ONE);
        let k = s.key();
        let a = fetch(&cache, &s).unwrap();
        assert_eq!(a.n(), 12);
        // It stays resident until the next insert displaces it.
        assert!(cache.contains(&k));
        let s2 = spec(13, Ratio::ONE);
        fetch(&cache, &s2).unwrap();
        assert!(!cache.contains(&k));
    }

    #[test]
    fn preamble_bytes_are_reserved_at_insert() {
        use divr_core::engine::EngineRequest;
        use divr_core::problem::ObjectiveKind;
        let cache = PreparedCache::new(usize::MAX, 1);
        let s = spec(32, Ratio::new(1, 2));
        let v = fetch(&cache, &s).unwrap();
        let before = cache.stats().bytes;
        // Solving populates the lazily memoized preambles (max-sum heap
        // seed, mono scores, GMM seed pair)…
        for kind in ObjectiveKind::ALL {
            assert!(v.try_serve(1, EngineRequest { kind, k: 4 }).is_ok());
        }
        assert_eq!(v.as_full().unwrap().ms_preamble_builds(), 1);
        // …but the metered bytes were reserved at insert: warming an
        // entry must not outgrow what the shard charged for it.
        assert_eq!(cache.stats().bytes, before);
        // The reservation covers the matrix plus the O(n) preambles.
        let n = 32usize;
        assert!(before >= n * n * 8 + n * (8 + 16));
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_serving() {
        let cache = Arc::new(PreparedCache::new(usize::MAX, 8));
        let s = &in_shard(0, 8, 1)[0];
        let other = &in_shard(1, 8, 1)[0];
        let k = s.key();
        fetch(&cache, s).unwrap();
        fetch(&cache, other).unwrap();
        // Poison shard 0: a thread panics while holding its lock (the
        // shape of a panicking oracle unwinding through a locked region).
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("injected panic while holding the shard lock");
        })
        .join();
        assert!(cache.shards[0].is_poisoned());
        // Every access used to panic here forever ("cache shard
        // poisoned") — a permanent denial of service from one bad
        // request. Recovery evicts the possibly-torn shard and serves.
        let again = fetch(&cache, s).unwrap();
        assert_eq!(again.n(), 8);
        assert!(!cache.shards[0].is_poisoned());
        assert!(cache.stats().evictions >= 1);
        // The re-prepared entry is resident and hittable again.
        assert!(cache.contains(&k));
        let hit = fetch(&cache, s).unwrap();
        assert!(Arc::ptr_eq(
            again.as_full().unwrap(),
            hit.as_full().unwrap()
        ));
        // Recovery refunded the torn shard's bytes alone: the metered
        // total is exactly what is resident, the other shard's included.
        assert!(cache.contains(&other.key()));
        assert_eq!(cache.stats().bytes, resident_bytes(&cache));
    }

    #[test]
    fn non_finite_universe_is_refused_and_never_cached() {
        use crate::fingerprint::{FingerprintEncoder, Fingerprintable};
        use divr_core::distance::Distance;
        use divr_core::engine::ScoreSource;

        /// Exact oracle is fine; the float fast path emits NaN for one
        /// pair — exactly the silent-misselection shape the validator
        /// must catch.
        struct NanDistance;
        impl Distance for NanDistance {
            fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
                if a == b {
                    Ratio::ZERO
                } else {
                    Ratio::ONE
                }
            }
            fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
                if a.get(0) == Some(&divr_relquery::Value::Int(2))
                    || b.get(0) == Some(&divr_relquery::Value::Int(2))
                {
                    f64::NAN
                } else {
                    self.dist(a, b).to_f64()
                }
            }
        }
        impl Fingerprintable for NanDistance {
            fn fingerprint(&self, enc: &mut FingerprintEncoder) {
                enc.write_str("test:nan-distance");
            }
        }

        let cache = PreparedCache::new(usize::MAX, 2);
        let s = UniverseSpec::new(
            (0..6).map(|i| Tuple::ints([i])).collect(),
            Arc::new(ConstantRelevance(Ratio::ONE)),
            Arc::new(NanDistance),
            Ratio::new(1, 2),
        );
        let k = s.key();
        let err = fetch(&cache, &s).unwrap_err();
        assert!(matches!(
            err,
            ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                ..
            }
        ));
        // Refused universes are never cached: no resident entry, and a
        // retry re-validates (and re-fails) instead of hitting.
        assert!(!cache.contains(&k));
        assert_eq!(cache.stats().entries, 0);
        assert!(fetch(&cache, &s).is_err());
        // A healthy universe passes through the checked path and caches.
        let ok = spec(5, Ratio::new(1, 2));
        assert!(fetch(&cache, &ok).is_ok());
        assert!(cache.contains(&ok.key()));
    }
}
