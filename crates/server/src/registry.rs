//! The serving registry: prepared-engine cache + mixed-batch scheduler.

use crate::cache::{CacheStats, PreparedCache};
use crate::spec::{PreparedVariant, UniverseSpec};
use divr_core::engine::{
    default_threads, DeltaError, DeltaOp, EngineRequest, ServeError, SolveScratch,
};
use divr_core::{Deadline, Ratio};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
/// schedules mixed batches across work-stealing workers. A cache hit
/// skips preparation entirely and goes straight to the parallel solve
/// rounds; results are bit-identical to a freshly prepared engine *of
/// the spec's mode* ([`Engine`](divr_core::engine::Engine) for full
/// specs, [`CoresetEngine`](divr_core::coreset::CoresetEngine) for
/// coreset specs) because hit and miss paths execute the same solver
/// over the same (shared or rebuilt) state.
pub struct Registry {
    cache: PreparedCache,
    workers: usize,
    solve_threads: usize,
    /// Optional durability subsystem; set once at startup (after
    /// recovery) and consulted by every warm/delta transition.
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
    /// transitions and deltas are journaled. Call **after**
    /// [`crate::persist::Durability::recover`] so restored entries are
    /// not re-logged. A second attach is ignored.
    pub fn attach_durability(&self, d: Arc<crate::persist::Durability>) {
        let _ = self.persist.set(d);
    }

    /// The attached durability subsystem, if any.
    pub fn durability(&self) -> Option<&Arc<crate::persist::Durability>> {
        self.persist.get()
    }

    /// Journals a fresh warm universe (no-op when durability is off or
    /// the book already has it).
    fn note_warm(&self, spec: &UniverseSpec) {
        if let Some(d) = self.persist.get() {
            d.log_warm_universe(spec);
        }
    }

    /// Rebuilds one recovered universe entry into the cache at its
    /// recovered version and delta log. Already-resident content is
    /// left untouched.
    pub fn restore_entry(
        &self,
        spec: &UniverseSpec,
        version: u64,
        log: Vec<DeltaOp>,
    ) -> Result<(), ServeError> {
        let key = spec.key();
        if self.cache.contains(&key) {
            return Ok(());
        }
        let prepared = spec.try_prepare_variant(self.solve_threads)?;
        self.cache.insert_versioned(&key, prepared, version, log);
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
    /// Scheduling has two phases, both over the registry's worker
    /// threads. *Prepare*: tenants are deduplicated by content key, and
    /// workers claim distinct universes from a shared counter, so a
    /// universe appearing in ten tenant slots is prepared (or fetched)
    /// once. *Solve*: every `(tenant, request)` unit goes into
    /// per-worker deques dealt round-robin; a worker drains its own
    /// deque from the front and, when empty, steals from the back of
    /// the longest remaining deque — so a worker stuck behind one huge
    /// solve never strands queued work while others idle.
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
    ///   fresh one, and continues draining the queue, so answers behind
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
        // (fingerprinting is O(content); never pay it twice per batch).
        // Zero-request tenants are excluded: they contribute no solve
        // units, so they must not force a prepare either.
        let mut distinct: Vec<&UniverseSpec> = Vec::new();
        let mut distinct_keys: Vec<crate::fingerprint::UniverseKey> = Vec::new();
        let mut slot_of_tenant: Vec<Option<usize>> = Vec::with_capacity(batch.len());
        {
            let mut slot_by_key: HashMap<crate::fingerprint::UniverseKey, usize> = HashMap::new();
            for tenant in batch {
                if tenant.requests.is_empty() {
                    slot_of_tenant.push(None);
                    continue;
                }
                let key = tenant.spec.key();
                let slot = match slot_by_key.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let slot = distinct.len();
                        distinct.push(&tenant.spec);
                        distinct_keys.push(v.key().clone()); // O(1): Arc'd bytes
                        v.insert(slot);
                        slot
                    }
                };
                slot_of_tenant.push(Some(slot));
            }
        }
        let units: usize = batch.iter().map(|t| t.requests.len()).sum();
        if units == 0 {
            return batch.iter().map(|_| Vec::new()).collect();
        }

        // Phase 1: prepare each distinct universe once, workers
        // claiming slots from a shared counter. The thread budget is
        // divided among the workers that actually run in this phase —
        // one distinct universe must not build its O(n²) matrix
        // single-threaded just because the solve phase will fan wider.
        // Preparation runs under catch_unwind: a panicking oracle marks
        // its own slot failed and the claiming loop moves on.
        let prepared: Vec<OnceLock<Result<PreparedVariant, ServeError>>> =
            (0..distinct.len()).map(|_| OnceLock::new()).collect();
        // Which slots this batch actually built (vs hit): *fresh*
        // warmth worth journaling once the phase completes.
        let built: Vec<AtomicBool> = (0..distinct.len()).map(|_| AtomicBool::new(false)).collect();
        let workers = self.workers.min(units.max(distinct.len())).max(1);
        let solve_threads = (self.solve_threads / workers).max(1);
        {
            let prepare_workers = workers.min(distinct.len()).max(1);
            let prepare_threads = (self.solve_threads / prepare_workers).max(1);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..prepare_workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= distinct.len() {
                            break;
                        }
                        let p = catch_unwind(AssertUnwindSafe(|| {
                            self.cache.get_or_try_prepare_with(&distinct_keys[i], || {
                                built[i].store(true, Ordering::Relaxed);
                                distinct[i].try_prepare_variant_deadline(prepare_threads, deadline)
                            })
                        }))
                        .unwrap_or(Err(ServeError::WorkerPanicked));
                        let _ = prepared[i].set(p);
                    });
                }
            });
        }
        for (i, slot) in prepared.iter().enumerate() {
            if built[i].load(Ordering::Relaxed) && matches!(slot.get(), Some(Ok(_))) {
                self.note_warm(distinct[i]);
            }
        }

        // Phase 2: flatten request units and solve with work stealing.
        let mut flat: Vec<(usize, usize)> = Vec::with_capacity(units); // (tenant, request)
        for (t, tenant) in batch.iter().enumerate() {
            for r in 0..tenant.requests.len() {
                flat.push((t, r));
            }
        }
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // A panic can only poison a queue lock if the panic happens
        // while it is held; pushes and pops are tiny and panic-free, so
        // a poisoned queue's contents are still consistent — recover the
        // guard and keep scheduling.
        fn lock_queue(
            q: &Mutex<VecDeque<usize>>,
        ) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
            q.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
        }
        for (u, queue) in (0..flat.len()).zip((0..workers).cycle()) {
            lock_queue(&queues[queue]).push_back(u);
        }
        let solve_unit = |u: usize, scratch: &mut SolveScratch| -> (usize, usize, CheckedAnswer) {
            let (t, r) = flat[u];
            let slot = slot_of_tenant[t].expect("flat units only reference prepared tenants");
            let request = batch[t].requests[r];
            let answer = match prepared[slot]
                .get()
                .expect("prepare phase covered every distinct universe")
            {
                Err(e) => Err(*e),
                Ok(prep) => solve_checked(prep, solve_threads, request, scratch, deadline),
            };
            (t, r, answer)
        };
        let solved: Vec<Vec<(usize, usize, CheckedAnswer)>> = std::thread::scope(|scope| {
            let queues = &queues;
            let solve_unit = &solve_unit;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        // One scratch per worker: every solve unit this
                        // worker drains (or steals) reuses the same
                        // buffers, so the steady-state solve phase does
                        // no per-request heap allocation.
                        let mut scratch = SolveScratch::new();
                        loop {
                            // Own queue first (front)…
                            let mine = lock_queue(&queues[w]).pop_front();
                            if let Some(u) = mine {
                                out.push(solve_unit(u, &mut scratch));
                                continue;
                            }
                            // …then steal from the longest victim (back).
                            let victim = (0..queues.len())
                                .filter(|&v| v != w)
                                .max_by_key(|&v| lock_queue(&queues[v]).len());
                            let stolen = victim.and_then(|v| lock_queue(&queues[v]).pop_back());
                            match stolen {
                                Some(u) => out.push(solve_unit(u, &mut scratch)),
                                None => break,
                            }
                        }
                        out
                    })
                })
                .collect();
            // Per-unit catch_unwind means a worker thread cannot die of
            // a solver panic; if one dies anyway (e.g. its stack
            // overflowed), its claimed-but-unreported units keep the
            // WorkerPanicked default below — the batch still returns.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });

        let mut answers: Vec<Vec<CheckedAnswer>> = batch
            .iter()
            .map(|t| vec![Err(ServeError::WorkerPanicked); t.requests.len()])
            .collect();
        for (t, r, answer) in solved.into_iter().flatten() {
            answers[t][r] = answer;
        }
        answers
    }

    /// The prepared state for `spec` — cached, or built, validated and
    /// cached. Full-matrix for plain specs; coreset state (no `n × n`
    /// allocation) for specs in [`UniverseSpec::with_coreset`] mode. A
    /// freshly built universe whose oracles emitted non-finite floats
    /// is refused with [`ServeError::NonFiniteScore`] and never cached.
    pub fn try_prepare(&self, spec: &UniverseSpec) -> Result<PreparedVariant, ServeError> {
        let mut built = false;
        let prepared = self.cache.get_or_try_prepare_with(&spec.key(), || {
            built = true;
            spec.try_prepare_variant(self.solve_threads)
        })?;
        if built {
            self.note_warm(spec);
        }
        Ok(prepared)
    }

    /// Serves one request against one universe: the exact objective
    /// value with the chosen indices, or the typed diagnosis —
    /// [`ServeError::InfeasibleK`] when `k` exceeds the universe (e.g.
    /// after removals shrank it below `k`),
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

    /// Applies one delta operation to a universe and returns the spec of
    /// the mutated universe (the handle for all subsequent serves).
    ///
    /// If `spec` is warm in the cache, its prepared state is **migrated**
    /// instead of discarded: the entry is taken, patched in place —
    /// `O(n)` row/column extension plus preamble repair for a
    /// full-matrix insert, `O(n)` swap-remove for a removal — and
    /// re-inserted under the mutated universe's content key with its
    /// version advanced and the operation appended to the entry's delta
    /// log (metered with the entry's bytes). A warm tenant therefore
    /// never pays the `O(n²)` cold prepare again for a small edit, and
    /// the migrated entry serves **bit-identically** to a cold prepare
    /// of the mutated universe (coreset-mode entries are re-prepared in
    /// `O(n·m)` to keep that same invariant). An inserted tuple whose
    /// scores are non-finite drops the entry instead (only the new row
    /// is validated, `O(n)`), so no delta can make an unvalidated
    /// universe resident. If `spec` is cold, only the spec is mutated;
    /// the next serve prepares from scratch at version `0`.
    ///
    /// Because entries are keyed by mutated *content*, a delta chain and
    /// a flat spec of the same tuples address the same entry — there is
    /// no alias under which the two could disagree.
    ///
    /// Fails with [`DeltaError::IndexOutOfRange`] (leaving cache state
    /// untouched) if a `Remove` index is not below the universe size.
    pub fn apply_delta(
        &self,
        spec: &UniverseSpec,
        op: &DeltaOp,
    ) -> Result<UniverseSpec, DeltaError> {
        let mutated = spec.apply(op)?;
        // Write-ahead: the delta is durable (when the book holds the
        // base) before the in-memory migration is acknowledged.
        if let Some(d) = self.persist.get() {
            d.log_delta(spec, op);
        }
        if let Some((prepared, version, mut log)) = self.cache.take(&spec.key()) {
            let migrated = match prepared {
                PreparedVariant::Full(arc) => {
                    // Sole owner: patch in place. Shared (a solve is
                    // still in flight on the old state): fork first —
                    // the in-flight engine keeps the old immutable
                    // state, we mutate the copy.
                    let mut p = Arc::try_unwrap(arc).unwrap_or_else(|a| a.fork());
                    let valid = match op {
                        DeltaOp::Insert(t) => {
                            let rel = spec.relevance().rel(t);
                            p.insert_tuple(t.clone(), rel);
                            // The resident state was validated when it
                            // was built; only the new row can be bad.
                            p.check_finite_item(p.n() - 1)
                        }
                        DeltaOp::Remove(i) => {
                            p.remove_tuple(*i).expect("index validated by spec.apply");
                            Ok(())
                        }
                    };
                    valid.map(|()| PreparedVariant::Full(Arc::new(p)))
                }
                // Streaming coreset maintenance trades bit-identity for
                // speed (see divr_core::coreset); the registry's
                // contract is exact equivalence with a cold prepare, so
                // coreset entries re-select in O(n·m).
                PreparedVariant::Coreset(_) => mutated.try_prepare_variant(self.solve_threads),
            };
            // A non-finite new row drops the entry to cold: the next
            // serve gets the typed refusal from the checked prepare.
            if let Ok(migrated) = migrated {
                log.push(op.clone());
                self.cache
                    .insert_versioned(&mutated.key(), migrated, version + 1, log);
            }
        }
        Ok(mutated)
    }

    /// The delta version of the cached entry for this universe — `0`
    /// for a cold prepare, `v` after `v` migrations through
    /// [`Registry::apply_delta`] — or `None` if not resident.
    pub fn version_of(&self, spec: &UniverseSpec) -> Option<u64> {
        self.cache.version_of(&spec.key())
    }

    /// Whether a universe with this content is currently cached.
    pub fn is_cached(&self, spec: &UniverseSpec) -> bool {
        self.cache.contains(&spec.key())
    }

    /// Cache counters (hits, misses, evictions, residency).
    pub fn stats(&self) -> RegistryStats {
        self.cache.stats()
    }

    /// Drops all cached state and resets the counters.
    pub fn clear(&self) {
        self.cache.clear()
    }
}
