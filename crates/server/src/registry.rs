//! The serving registry: the prepared-state cache plus the one copy of
//! each per-frame mechanism — *resolve* (`Registry::fetch`), *schedule*
//! (`claim_each`) and *solve* (`solve_checked`); the *patch* step is
//! [`PreparedVariant::patch`].

use crate::cache::{CacheStats, PreparedCache};
use crate::fingerprint::UniverseKey;
use crate::spec::{PreparedVariant, UniverseSpec};
use divr_core::engine::{default_threads, EngineRequest, ServeError, SolveScratch};
use divr_core::{Deadline, Ratio};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Registry sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Total byte budget across all cached prepared universes.
    pub byte_budget: usize,
    /// Number of independently locked cache shards.
    pub shards: usize,
    /// Worker threads for mixed-batch scheduling (prepare + solve).
    pub workers: usize,
    /// Threads each single-universe solve may use for its argmax
    /// rounds (mixed batches divide this among busy workers).
    pub solve_threads: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        let cores = default_threads();
        RegistryConfig {
            byte_budget: 256 << 20,
            shards: 8,
            workers: cores,
            solve_threads: cores,
        }
    }
}

/// One served answer: the exact objective value and the chosen universe
/// indices, or the typed diagnosis — why the request has no answer
/// ([`ServeError::InfeasibleK`], [`ServeError::ExceedsCoresetBudget`]),
/// why the universe was refused ([`ServeError::NonFiniteScore`]), that
/// its deadline passed ([`ServeError::DeadlineExceeded`]), or that its
/// worker died mid-solve ([`ServeError::WorkerPanicked`]) — the form a
/// network front-end maps to wire status codes.
pub type CheckedAnswer = Result<(Ratio, Vec<usize>), ServeError>;

/// Solves one request against resident state inside the registry's
/// fault boundary — the one solve step behind
/// [`Registry::serve_mixed_checked_deadline`] and the query front door.
/// A panic mid-solve is caught here, per request: the caller's scratch
/// (possibly torn mid-unwind) is replaced with a fresh one so every
/// later unit on that worker stays exact, and the request gets
/// [`ServeError::WorkerPanicked`].
pub(crate) fn solve_checked(
    prepared: &PreparedVariant,
    threads: usize,
    request: EngineRequest,
    scratch: &mut SolveScratch,
    deadline: Deadline,
) -> CheckedAnswer {
    let attempt = {
        let s = &mut *scratch;
        catch_unwind(AssertUnwindSafe(|| {
            prepared.try_serve_deadline(threads, request, s, deadline)
        }))
    };
    attempt.unwrap_or_else(|_| {
        *scratch = SolveScratch::new();
        Err(ServeError::WorkerPanicked)
    })
}

/// The registry's one scheduler: runs `work(i, scratch)` for every
/// `i < items`, claimants pulling the next index from a shared atomic
/// counter until none is left. **The calling thread is claimant 0** and
/// only `min(workers, items) − 1` threads are spawned, so a one-item
/// step runs inline and a one-worker step is a plain loop. Each
/// claimant owns one [`SolveScratch`] for every item it claims, so a
/// steady-state solve step does no per-request heap allocation.
///
/// `work` is expected to contain its own panics ([`solve_checked`],
/// [`Registry::fetch`]); if a spawned claimant dies anyway (e.g. its
/// stack overflowed), the item it held comes back `None` and the rest
/// are still claimed by the survivors.
pub(crate) fn claim_each<T: Send + Sync>(
    workers: usize,
    items: usize,
    work: impl Fn(usize, &mut SolveScratch) -> T + Sync,
) -> Vec<Option<T>> {
    let done: Vec<OnceLock<T>> = (0..items).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let claimant = || {
        let mut scratch = SolveScratch::new();
        loop {
            // Relaxed: the counter only hands out indices; results are
            // published by the slots and the scope's joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                break;
            }
            let _ = done[i].set(work(i, &mut scratch));
        }
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(items))
            .map(|_| scope.spawn(claimant))
            .collect();
        claimant();
        for handle in spawned {
            let _ = handle.join();
        }
    });
    done.into_iter().map(OnceLock::into_inner).collect()
}

/// One tenant's slice of a mixed batch: a universe plus the requests to
/// run against it.
#[derive(Clone, Debug)]
pub struct TenantBatch {
    /// The universe to serve against.
    pub spec: UniverseSpec,
    /// The `(objective, k)` requests for that universe.
    pub requests: Vec<EngineRequest>,
}

/// A snapshot of registry behaviour (cache counters; see
/// [`CacheStats`]).
pub type RegistryStats = CacheStats;

/// A sharded, thread-safe registry of prepared diversification engines.
///
/// The registry fingerprints each universe by content and serving mode
/// ([`UniverseSpec::key`]), keeps prepared state — relevance caches
/// plus the `O(n²)` distance matrix, or the `m × m` coreset state for
/// [`UniverseSpec::with_coreset`] specs — in a byte-budgeted LRU, and
/// runs each batch as two claim-loop steps (resolve the distinct
/// universes, then solve the request units) in which the caller's own
/// thread is the first worker — a one-universe, one-request frame
/// never leaves it. A cache hit skips preparation entirely and goes
/// straight to the parallel solve rounds; results are bit-identical to
/// a freshly prepared engine *of the spec's mode* ([`Engine`](divr_core::engine::Engine) for full
/// specs, [`CoresetEngine`](divr_core::coreset::CoresetEngine) for
/// coreset specs) because hit and miss paths execute the same solver
/// over the same (shared or rebuilt) state.
pub struct Registry {
    cache: PreparedCache,
    workers: usize,
    solve_threads: usize,
    /// Optional durability subsystem; set once at startup (after
    /// recovery) and consulted by every warm transition and base edit.
    persist: OnceLock<Arc<crate::persist::Durability>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(RegistryConfig::default())
    }
}

impl Registry {
    /// Builds a registry with the given sizing.
    pub fn new(config: RegistryConfig) -> Self {
        Registry {
            cache: PreparedCache::new(config.byte_budget, config.shards),
            workers: config.workers.max(1),
            solve_threads: config.solve_threads.max(1),
            persist: OnceLock::new(),
        }
    }

    /// Attaches the durability subsystem: from here on, warm
    /// transitions and base edits are journaled. Call **after**
    /// [`crate::persist::Durability::recover`] so restored entries are
    /// not re-logged. A second attach is ignored.
    pub fn attach_durability(&self, d: Arc<crate::persist::Durability>) {
        let _ = self.persist.set(d);
    }

    /// The attached durability subsystem, if any.
    pub fn durability(&self) -> Option<&Arc<crate::persist::Durability>> {
        self.persist.get()
    }

    /// The one guarded fetch behind every resolve — registry-keyed
    /// ([`Registry::try_prepare`], the batch path) and query-keyed (the
    /// front door): the prepared state under `key`, running `build` on
    /// a miss, plus whether this call built it (fresh warmth, which the
    /// caller journals). The lookup and the build run under
    /// `catch_unwind`, so a panicking oracle becomes
    /// [`ServeError::WorkerPanicked`] for this caller alone and poisons
    /// nothing: a failed build caches nothing, and a shard lock
    /// poisoned by a panic elsewhere recovers by evicting that shard
    /// (see `cache.rs`).
    pub(crate) fn fetch<E: From<ServeError>>(
        &self,
        key: &UniverseKey,
        build: impl FnOnce() -> Result<PreparedVariant, E>,
    ) -> Result<(PreparedVariant, bool), E> {
        let mut built = false;
        let fetched = catch_unwind(AssertUnwindSafe(|| {
            self.cache.get_or_try_prepare_with(key, || {
                built = true;
                build()
            })
        }));
        Ok((fetched.unwrap_or(Err(ServeError::WorkerPanicked.into()))?, built))
    }

    /// Resolves `spec` (whose content key is `key`) through
    /// [`Registry::fetch`], journaling a fresh build when durability
    /// is attached (a no-op if the log already holds it).
    fn resolve(
        &self,
        spec: &UniverseSpec,
        key: &UniverseKey,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, ServeError> {
        let (prepared, built) =
            self.fetch(key, || spec.try_prepare_variant_deadline(threads, deadline))?;
        if let (true, Some(d)) = (built, self.persist.get()) {
            d.log_warm_universe(spec, key);
        }
        Ok(prepared)
    }

    /// Rebuilds one journaled universe entry into the cache (recovery's
    /// replay of a `WarmUniverse` record). Already-resident content is
    /// the same content, and is left untouched.
    pub(crate) fn restore_entry(&self, spec: &UniverseSpec) -> Result<(), ServeError> {
        let key = spec.key();
        if self.cache.contains(&key) {
            return Ok(());
        }
        let prepared = spec.try_prepare_variant(self.solve_threads)?;
        self.cache.insert(&key, prepared);
        Ok(())
    }

    /// The underlying prepared-state cache — shared with the query
    /// front door so query-keyed and universe-keyed entries live under
    /// one byte budget (the key namespaces are tag-disjoint).
    pub(crate) fn cache(&self) -> &PreparedCache {
        &self.cache
    }

    /// Solver thread budget per single-universe serve.
    pub(crate) fn solve_threads(&self) -> usize {
        self.solve_threads
    }

    /// [`Registry::serve_mixed_checked_deadline`] with
    /// [`Deadline::none`].
    pub fn serve_mixed_checked(&self, batch: &[TenantBatch]) -> Vec<Vec<CheckedAnswer>> {
        self.serve_mixed_checked_deadline(batch, Deadline::none())
    }

    /// Serves a mixed batch — many tenants, many universes, interleaved
    /// requests — and returns per-tenant answers in input order, with
    /// typed per-request diagnoses and **fault isolation**: one
    /// tenant's failure never costs another tenant its answer, and
    /// never costs the process its life.
    ///
    /// Scheduling is two steps of the same claim loop, in which the
    /// calling thread is the first worker and at most `workers − 1`
    /// more are spawned, each pulling the next item from a shared
    /// counter. *Resolve*: tenants are deduplicated by content key and
    /// each distinct universe is fetched (or prepared) once, even if it
    /// appears in ten tenant slots. *Solve*: every `(tenant, request)`
    /// unit is one item, so a worker stuck behind one huge solve never
    /// strands the rest. A step with one item runs inline: the daemon's
    /// one-tenant frame resolves on the connection worker's own thread
    /// and spawns a thread only for a second answer.
    ///
    /// Tenants may freely mix serving modes: full-matrix specs and
    /// coreset specs ([`UniverseSpec::with_coreset`]) ride the same
    /// batch, each prepared and cached in its own mode.
    ///
    /// Every failure mode is caught at the narrowest boundary that
    /// contains it:
    ///
    /// - A universe whose oracles emit non-finite floats is refused at
    ///   prepare with [`ServeError::NonFiniteScore`] (and never cached);
    ///   only requests against *that* universe see the error.
    /// - An oracle that panics during preparation poisons nothing: the
    ///   unwind is caught per distinct universe, its tenants get
    ///   [`ServeError::WorkerPanicked`], and the shared cache keeps
    ///   serving (a shard lock poisoned by a panic elsewhere recovers by
    ///   evicting that shard — see `cache.rs`).
    /// - A panic mid-solve is caught per `(tenant, request)` unit: the
    ///   worker discards its scratch (possibly torn mid-unwind), takes a
    ///   fresh one, and continues claiming units, so answers behind
    ///   the panicking unit are still served — bit-identical to a batch
    ///   that never contained the bad tenant.
    ///
    /// Infeasible requests get the engines' typed diagnoses, decided
    /// from the prepared dimensions before any clock is read — the same
    /// answer [`Registry::try_serve`] gives, on every retry. Tenants
    /// with zero requests are skipped before the cache is touched (no
    /// prepare, no eviction pressure).
    ///
    /// The cooperative `deadline` covers the whole batch: prepares poll
    /// it at matrix-row / Gonzalez-iteration boundaries, solves between
    /// rounds. Requests whose work is abandoned after the deadline
    /// trips get [`ServeError::DeadlineExceeded`]; an abandoned prepare
    /// is **never cached** (only `Ok` builds are inserted), so a retry
    /// with a looser deadline starts from a clean miss. Cache **hits**
    /// are fetched even past the deadline — they are `O(1)`, and
    /// refusing them would only waste the work already done.
    ///
    /// # Example
    ///
    /// ```
    /// use divr_core::engine::EngineRequest;
    /// use divr_core::prelude::*;
    /// use divr_relquery::Tuple;
    /// use divr_server::{CoresetSpec, Registry, TenantBatch, UniverseSpec};
    /// use std::sync::Arc;
    ///
    /// let registry = Registry::default();
    /// let small = UniverseSpec::new(
    ///     (0..60).map(|i| Tuple::ints([i, i % 7])).collect(),
    ///     Arc::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
    ///     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
    ///     Ratio::new(1, 2),
    /// );
    /// // A large universe in coreset mode: prepared in O(n·m), no n×n.
    /// let large = UniverseSpec::new(
    ///     (0..5000).map(|i| Tuple::ints([i, i % 11])).collect(),
    ///     Arc::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
    ///     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
    ///     Ratio::new(1, 2),
    /// )
    /// .with_coreset(CoresetSpec::with_budget(48));
    ///
    /// let answers = registry.serve_mixed_checked(&[
    ///     TenantBatch {
    ///         spec: small,
    ///         requests: vec![EngineRequest { kind: ObjectiveKind::MaxSum, k: 5 }],
    ///     },
    ///     TenantBatch {
    ///         spec: large,
    ///         requests: vec![EngineRequest { kind: ObjectiveKind::MaxMin, k: 10 }],
    ///     },
    /// ]);
    /// assert_eq!(answers[0][0].as_ref().unwrap().1.len(), 5);
    /// assert_eq!(answers[1][0].as_ref().unwrap().1.len(), 10);
    /// assert_eq!(registry.stats().misses, 2); // one prepare per universe
    /// ```
    pub fn serve_mixed_checked_deadline(
        &self,
        batch: &[TenantBatch],
        deadline: Deadline,
    ) -> Vec<Vec<CheckedAnswer>> {
        // Deduplicate universes by content, keeping each distinct key
        // (fingerprinting is O(content); never pay it twice per batch),
        // and flatten the requests into (tenant, request, universe)
        // units. Zero-request tenants contribute no unit, so they force
        // no prepare either.
        let mut distinct: Vec<(&UniverseSpec, UniverseKey)> = Vec::new();
        let mut slot_by_key: HashMap<UniverseKey, usize> = HashMap::new();
        let mut flat: Vec<(usize, usize, usize)> = Vec::new();
        for (t, tenant) in batch.iter().enumerate() {
            if tenant.requests.is_empty() {
                continue;
            }
            let slot = *slot_by_key.entry(tenant.spec.key()).or_insert_with_key(|key| {
                distinct.push((&tenant.spec, key.clone())); // O(1): Arc'd bytes
                distinct.len() - 1
            });
            flat.extend((0..tenant.requests.len()).map(|r| (t, r, slot)));
        }
        let units = flat.len();

        // The thread budget is divided among the workers that actually
        // run in each step — one distinct universe must not build its
        // O(n²) matrix single-threaded just because the solve step will
        // fan wider.
        let workers = self.workers.min(units.max(distinct.len())).max(1);
        let solve_threads = (self.solve_threads / workers).max(1);
        let prepare_workers = workers.min(distinct.len()).max(1);
        let prepare_threads = (self.solve_threads / prepare_workers).max(1);

        let prepared = claim_each(prepare_workers, distinct.len(), |slot, _| {
            let (spec, key) = &distinct[slot];
            self.resolve(spec, key, prepare_threads, deadline)
        });
        let solved = claim_each(workers, units, |u, scratch| {
            let (t, r, slot) = flat[u];
            match &prepared[slot] {
                Some(Ok(p)) => solve_checked(p, solve_threads, batch[t].requests[r], scratch, deadline),
                Some(Err(e)) => Err(*e),
                None => Err(ServeError::WorkerPanicked),
            }
        });

        // A unit whose worker died outside every fault boundary keeps
        // the WorkerPanicked default — the batch still returns.
        let mut answers: Vec<Vec<CheckedAnswer>> = batch
            .iter()
            .map(|t| vec![Err(ServeError::WorkerPanicked); t.requests.len()])
            .collect();
        for (&(t, r, _), answer) in flat.iter().zip(solved) {
            if let Some(answer) = answer {
                answers[t][r] = answer;
            }
        }
        answers
    }

    /// The prepared state for `spec` — cached, or built, validated and
    /// cached. Full-matrix for plain specs; coreset state (no `n × n`
    /// allocation) for specs in [`UniverseSpec::with_coreset`] mode. A
    /// freshly built universe whose oracles emitted non-finite floats
    /// is refused with [`ServeError::NonFiniteScore`] and never cached.
    pub fn try_prepare(&self, spec: &UniverseSpec) -> Result<PreparedVariant, ServeError> {
        self.resolve(spec, &spec.key(), self.solve_threads, Deadline::none())
    }

    /// Serves one request against one universe: the exact objective
    /// value with the chosen indices, or the typed diagnosis —
    /// [`ServeError::InfeasibleK`] when `k` exceeds the universe,
    /// [`ServeError::ExceedsCoresetBudget`] when the universe could
    /// answer but the spec's coreset budget cannot, or
    /// [`ServeError::NonFiniteScore`] when the universe itself is
    /// refused at prepare (validated before anything is cached).
    ///
    /// # Example
    ///
    /// ```
    /// use divr_core::engine::EngineRequest;
    /// use divr_core::prelude::*;
    /// use divr_relquery::Tuple;
    /// use divr_server::{Registry, UniverseSpec};
    /// use std::sync::Arc;
    ///
    /// let registry = Registry::default();
    /// let spec = UniverseSpec::new(
    ///     (0..50).map(|i| Tuple::ints([i, i % 7])).collect(),
    ///     Arc::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
    ///     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
    ///     Ratio::new(1, 2),
    /// );
    ///
    /// // First call prepares (O(n²)) and caches; repeats are hits that
    /// // skip matrix construction entirely.
    /// for _ in 0..3 {
    ///     let (value, set) = registry
    ///         .try_serve(&spec, EngineRequest { kind: ObjectiveKind::MaxMin, k: 5 })
    ///         .unwrap();
    ///     assert_eq!(set.len(), 5);
    ///     assert!(value > Ratio::ZERO);
    /// }
    /// let stats = registry.stats();
    /// assert_eq!((stats.hits, stats.misses), (2, 1));
    /// ```
    pub fn try_serve(
        &self,
        spec: &UniverseSpec,
        request: EngineRequest,
    ) -> Result<(Ratio, Vec<usize>), ServeError> {
        self.try_prepare(spec)?.try_serve(self.solve_threads, request)
    }

    /// Whether a universe with this content is currently cached.
    pub fn is_cached(&self, spec: &UniverseSpec) -> bool {
        self.cache.contains(&spec.key())
    }

    /// Cache counters (hits, misses, evictions, residency).
    pub fn stats(&self) -> RegistryStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{FingerprintEncoder, Fingerprintable};
    use divr_core::distance::Distance;
    use divr_core::problem::ObjectiveKind;
    use divr_core::relevance::Relevance;
    use divr_relquery::Tuple;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Relevance and distance in one oracle that records which threads
    /// evaluated it.
    #[derive(Clone, Default)]
    struct Witness(Arc<Mutex<HashSet<ThreadId>>>);

    impl Witness {
        fn seen(&self) {
            self.0.lock().unwrap().insert(std::thread::current().id());
        }
    }

    impl Relevance for Witness {
        fn rel(&self, t: &Tuple) -> Ratio {
            self.seen();
            Ratio::int(t.get(0).and_then(|v| v.as_int()).unwrap_or(0) % 3)
        }
    }

    impl Distance for Witness {
        fn dist(&self, _: &Tuple, _: &Tuple) -> Ratio {
            self.seen();
            Ratio::ONE // all tied: the solve re-enters the oracle to break ties exactly
        }
    }

    impl Fingerprintable for Witness {
        fn fingerprint(&self, enc: &mut FingerprintEncoder) {
            enc.write_str("test:witness");
        }
    }

    /// A one-tenant, one-request batch — the daemon's frame — never
    /// leaves the caller's thread, however many workers the registry
    /// may use: one distinct universe resolves inline and one unit
    /// solves inline.
    #[test]
    fn one_unit_batch_runs_entirely_on_the_callers_thread() {
        let witness = Witness::default();
        let registry = Registry::new(RegistryConfig {
            workers: 4,
            solve_threads: 1,
            ..RegistryConfig::default()
        });
        let batch = [TenantBatch {
            spec: UniverseSpec::new(
                (0..12).map(|i| Tuple::ints([i])).collect(),
                Arc::new(witness.clone()),
                Arc::new(witness.clone()),
                Ratio::new(1, 2),
            ),
            requests: vec![EngineRequest {
                kind: ObjectiveKind::MaxMin,
                k: 3,
            }],
        }];
        for _cold_then_warm in 0..2 {
            assert!(registry.serve_mixed_checked(&batch)[0][0].is_ok());
        }
        let seen = witness.0.lock().unwrap();
        assert_eq!(*seen, HashSet::from([std::thread::current().id()]));
    }
}
