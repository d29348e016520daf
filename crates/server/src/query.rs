//! The relational front door: query-keyed QRD serving.
//!
//! The paper defines diversification over `Q(D)` — the result of a
//! *query* against a *database* — but the registry proper accepts only
//! pre-materialized tuple universes. This module closes the gap: a
//! [`QueryFrontDoor`] owns named [`Database`]s, accepts
//! ([`QuerySpec`], requests) and serves diversified answers, with
//! prepared state cached in the registry's byte-budgeted LRU under a
//! **semantic** key:
//!
//! ```text
//! (database, canonical query tableau, referenced-relation versions,
//!  relevance ⊕ distance fingerprints, λ, serving mode)
//! ```
//!
//! Because the query component is the [`CanonicalQuery`] tableau core
//! rather than the query text, syntactically distinct but equivalent
//! CQs (variable renamings, reordered atoms, redundant atoms) address
//! the **same** prepared universe — one miss, then hits for every
//! variant. Because the key pins only the versions of relations the
//! query *reads*, inserts into unrelated tables leave warm entries
//! warm.
//!
//! Universes at or under the auto-escalation threshold build the exact
//! full matrix; larger ones select a coreset over the whole result
//! (`Instance::build`), as an explicit coreset mode does.
//!
//! Base-table inserts route through the delta machinery:
//! [`QueryFrontDoor::insert_base_tuple`] computes each affected warm
//! query's new result tuples **semi-naively**
//! ([`divr_relquery::delta_results`]) and migrates the prepared entry
//! in place — `O(Δ · n)` oracle calls, plus an `O(n²)` float re-scan
//! of the patched matrix on the next request, instead of a cold
//! re-evaluate + `O(n²)` oracle re-prepare — re-keying it under the
//! bumped relation version.

use crate::cache::PreparedCache;
use crate::fingerprint::{FingerprintEncoder, UniverseKey};
use crate::registry::{claim_each, solve_checked, CheckedAnswer, Registry};
use crate::spec::{
    BuildRows, CoresetSpec, Instance, PreparedVariant, ServableDistance, ServableRelevance,
};
use divr_core::coreset::{CoresetConfig, CORESET_AUTO_THRESHOLD};
use divr_core::engine::{DeltaOp, EngineRequest, ServeError};
use divr_core::{Deadline, Ratio};
use divr_relquery::eval::query_contains;
use divr_relquery::{delta_results, stream_query, CanonicalQuery, Database, Query, Tuple, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Why a query could not be served at all (per-request diagnoses ride
/// in each [`CheckedAnswer`] instead).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query itself failed — unknown relation, arity mismatch,
    /// unsafe or malformed query (maps to a schema-level wire error).
    Query(divr_relquery::Error),
    /// No database registered under this name.
    UnknownDatabase(String),
    /// `Q(D) = ∅`: there is nothing to diversify. A typed refusal —
    /// never cached, never a panic.
    EmptyResult,
    /// The universe was refused at prepare ([`ServeError::NonFiniteScore`])
    /// or preparation died ([`ServeError::WorkerPanicked`]).
    Serve(ServeError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Query(e) => write!(f, "query error: {e}"),
            QueryError::UnknownDatabase(name) => write!(f, "unknown database {name:?}"),
            QueryError::EmptyResult => write!(f, "query produced an empty result"),
            QueryError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<divr_relquery::Error> for QueryError {
    fn from(e: divr_relquery::Error) -> Self {
        QueryError::Query(e)
    }
}

impl From<ServeError> for QueryError {
    fn from(e: ServeError) -> Self {
        QueryError::Serve(e)
    }
}

/// What a tenant hands the front door: the query plus the same
/// [`Instance`] a [`UniverseSpec`](crate::UniverseSpec) carries — the
/// query-level analogue of it. The canonical tableau key is computed
/// once at construction.
#[derive(Clone)]
pub struct QuerySpec {
    query: Query,
    canon: CanonicalQuery,
    relations: BTreeSet<String>,
    instance: Instance,
    max_k: usize,
}

impl QuerySpec {
    /// Default largest `k` auto-escalated universes are sized for (the
    /// coreset budget becomes `max(64, 16·max_k)`, the same rule as
    /// [`CoresetConfig::recommended`]).
    const DEFAULT_MAX_K: usize = 64;

    /// Bundles a query with its diversification parameters, computing
    /// the canonical tableau key (minimization + canonical labeling —
    /// this is where equivalent queries converge).
    ///
    /// Errors on invalid queries; panics if `λ ∉ [0, 1]` (same contract
    /// as the rest of the workspace).
    pub fn new(
        query: Query,
        rel: Arc<dyn ServableRelevance>,
        dis: Arc<dyn ServableDistance>,
        lambda: Ratio,
    ) -> Result<Self, QueryError> {
        Self::from_instance(query, Instance::new(rel, dis, lambda))
    }

    /// Bundles a query with an already validated [`Instance`] (same
    /// canonicalization, same errors on invalid queries).
    pub fn from_instance(query: Query, instance: Instance) -> Result<Self, QueryError> {
        let canon = CanonicalQuery::of(&query)?;
        let relations = query.relations();
        Ok(QuerySpec {
            query,
            canon,
            relations,
            instance,
            max_k: Self::DEFAULT_MAX_K,
        })
    }

    /// Forces coreset serving with an explicit budget regardless of
    /// `|Q(D)|` (the counterpart of
    /// [`UniverseSpec::with_coreset`](crate::UniverseSpec::with_coreset)).
    /// Without this, universes at or below [`CORESET_AUTO_THRESHOLD`]
    /// build the exact full matrix and larger ones auto-escalate to a
    /// coreset sized by [`QuerySpec::with_max_k`].
    pub fn with_coreset(mut self, mode: CoresetSpec) -> Self {
        self.instance = self.instance.with_coreset(mode);
        self
    }

    /// Sizes the auto-escalation coreset for requests up to `k` (part
    /// of the cache key: two sizings are two prepared states).
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        self.max_k = max_k.max(1);
        self
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The canonical tableau key of the query.
    pub(crate) fn canon(&self) -> &CanonicalQuery {
        &self.canon
    }

    /// The base relations the query reads (the delta fan-out set).
    pub fn relations(&self) -> &BTreeSet<String> {
        &self.relations
    }

    /// The functions, λ and serving mode (an explicit coreset, if
    /// forced) the query's result is diversified under.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The largest `k` auto-escalated universes are sized for.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// The coreset budget an auto-escalated universe would use — what
    /// admission control should assume when a cardinality bound exceeds
    /// [`CORESET_AUTO_THRESHOLD`].
    pub fn auto_budget(&self) -> usize {
        CoresetConfig::recommended(self.max_k).budget
    }

    /// [`Instance::build`] over a tuple sequence, with the
    /// auto-escalation coreset configuration when the sequence is past
    /// [`CORESET_AUTO_THRESHOLD`] — the miss path's and recovery's one
    /// way in, and the one build that keeps growth headroom in a full
    /// matrix: base edits patch what it builds.
    fn build(
        &self,
        tuples: Vec<Tuple>,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, ServeError> {
        let auto = (tuples.len() > CORESET_AUTO_THRESHOLD)
            .then(|| CoresetConfig::recommended(self.max_k).with_threads(threads));
        self.instance
            .build(BuildRows::Tuples(tuples), auto, true, threads, deadline)
    }
}

impl std::fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySpec")
            .field("query", &format_args!("{}", self.query))
            .field("instance", &self.instance)
            .field("max_k", &self.max_k)
            .finish()
    }
}

/// One registered database plus the bookkeeping that keys and repairs
/// its warm queries.
struct DbState {
    db: Database,
    /// Monotone per-relation versions, bumped on every content change;
    /// absent means `0`. Part of every query key that reads the
    /// relation, so stale prepared state is unreachable by construction.
    rel_versions: HashMap<String, u64>,
    /// Warm query universes by their current cache key — the fan-out
    /// index for base-table deltas.
    warm: HashMap<UniverseKey, WarmQuery>,
}

/// One warm index entry: the spec a base edit re-keys and repairs it
/// by, and the length of the sequence it was built over. A patch only
/// appends to a coreset (a removal drops it), so the first `base_len`
/// rows stay the selection's input; a full matrix is the same bits
/// under any split. What a checkpoint writes beside the sequence.
struct WarmQuery {
    spec: QuerySpec,
    base_len: usize,
}

/// The front door's databases and warm index under its `state` read
/// lock — one instant of the live state, which is what a checkpoint
/// writes. Taken before the durability lock (the `state → inner` order
/// every hook uses).
pub(crate) struct LiveState<'a> {
    state: RwLockReadGuard<'a, HashMap<String, DbState>>,
    cache: &'a PreparedCache,
}

impl LiveState<'_> {
    /// Every registered database by name.
    pub(crate) fn databases(&self) -> impl Iterator<Item = (&str, &Database)> {
        self.state.iter().map(|(name, dbst)| (name.as_str(), &dbst.db))
    }

    /// Every warm entry still resident in the cache: its database, its
    /// spec, its prepared state (peeked — no LRU bump, no hit counted)
    /// and the `base_len` it was built over.
    pub(crate) fn resident_queries(
        &self,
    ) -> impl Iterator<Item = (&str, &QuerySpec, PreparedVariant, usize)> {
        self.state.iter().flat_map(move |(name, dbst)| {
            dbst.warm.iter().filter_map(move |(key, w)| {
                Some((name.as_str(), &w.spec, self.cache.peek(key)?, w.base_len))
            })
        })
    }
}

/// The query-keyed serving surface. See the module docs for the data
/// flow; construction just wraps a shared [`Registry`], whose cache
/// (and byte budget) query-keyed entries share with universe-keyed
/// ones.
pub struct QueryFrontDoor {
    registry: Arc<Registry>,
    state: RwLock<HashMap<String, DbState>>,
}

impl QueryFrontDoor {
    /// A front door over `registry`'s cache and thread budget.
    pub fn new(registry: Arc<Registry>) -> Self {
        QueryFrontDoor {
            registry,
            state: RwLock::new(HashMap::new()),
        }
    }

    /// The shared registry (query-keyed and universe-keyed entries live
    /// in one cache; its stats count both).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn read_state(&self) -> RwLockReadGuard<'_, HashMap<String, DbState>> {
        // Same poison discipline as the cache shards: the map holds
        // rebuildable bookkeeping, so recover the guard and serve.
        self.state.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, HashMap<String, DbState>> {
        self.state.write().unwrap_or_else(|p| p.into_inner())
    }

    fn cache(&self) -> &PreparedCache {
        self.registry.cache()
    }

    /// The live state, read-locked until the view is dropped.
    pub(crate) fn live_state(&self) -> LiveState<'_> {
        LiveState {
            state: self.read_state(),
            cache: self.cache(),
        }
    }

    /// Registers (or replaces) a database under `name`. Replacing drops
    /// the old instance's warm query entries — their content is gone —
    /// and resets relation versions.
    pub fn register_database(&self, name: impl Into<String>, db: Database) {
        let name = name.into();
        let mut state = self.write_state();
        if let Some(old) = state.remove(&name) {
            for key in old.warm.keys() {
                self.cache().take(key);
            }
        }
        self.insert_database(&mut state, name, db);
    }

    /// Registers `db` under `name` unless a database is already there:
    /// what a frame that ships its (content-named) database does at
    /// first sight. The check and the insert are one critical section,
    /// so of two frames that both found `name` absent only one
    /// registers; the other must not replace a database that may have
    /// been queried warm and edited since. The write lock is taken only
    /// when the read-locked check says absent.
    pub fn ensure_database(&self, name: &str, db: Database) {
        if self.has_database(name) {
            return;
        }
        let mut state = self.write_state();
        if !state.contains_key(name) {
            self.insert_database(&mut state, name.to_string(), db);
        }
    }

    fn insert_database(&self, state: &mut HashMap<String, DbState>, name: String, db: Database) {
        // Journal under the state lock so concurrent registrations and
        // base-table edits reach the log in serving order.
        if let Some(d) = self.registry.durability() {
            d.log_register_db(&name, &db);
        }
        state.insert(
            name,
            DbState {
                db,
                rel_versions: HashMap::new(),
                warm: HashMap::new(),
            },
        );
    }

    /// Whether a database is registered under `name`.
    pub fn has_database(&self, name: &str) -> bool {
        self.read_state().contains_key(name)
    }

    /// Whether `spec`'s prepared universe is currently resident (no LRU
    /// bump, no prepare).
    pub fn is_warm(&self, db: &str, spec: &QuerySpec) -> Result<bool, QueryError> {
        Ok(self.cache().contains(&self.key_for(db, spec)?))
    }

    /// The semantic cache key `spec` currently addresses against
    /// database `db` — exposed so conformance tests can pin key
    /// equality for equivalent queries and injectivity for near-misses.
    pub fn key_for(&self, db: &str, spec: &QuerySpec) -> Result<UniverseKey, QueryError> {
        let state = self.read_state();
        let dbst = state
            .get(db)
            .ok_or_else(|| QueryError::UnknownDatabase(db.to_string()))?;
        Ok(Self::key_of(db, dbst, spec))
    }

    fn key_of(db_name: &str, dbst: &DbState, spec: &QuerySpec) -> UniverseKey {
        let mut enc = FingerprintEncoder::new();
        enc.write_str("query");
        enc.write_str(db_name);
        enc.write_str("canon");
        enc.write_bytes(spec.canon.bytes());
        // Only relations the query reads: a version bump elsewhere must
        // not cool this entry.
        enc.write_str("rels");
        enc.write_usize(spec.relations.len());
        for r in &spec.relations {
            enc.write_str(r);
            enc.write_usize(*dbst.rel_versions.get(r).unwrap_or(&0) as usize);
        }
        spec.instance
            .write_key_tail(&mut enc, Some(spec.auto_budget()));
        UniverseKey::from_bytes(enc.bytes())
    }

    /// Evaluates and prepares `spec` against `db` — the miss path.
    /// Evaluation polls the deadline every 64 tuples in every mode: a
    /// huge result must not blow the budget before preparation starts.
    fn build_prepared(
        db: &Database,
        spec: &QuerySpec,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, QueryError> {
        let mut tuples: Vec<Tuple> = Vec::new();
        for t in stream_query(db, &spec.query)? {
            if tuples.len().is_multiple_of(64) {
                deadline.check()?;
            }
            tuples.push(t);
        }
        if tuples.is_empty() {
            return Err(QueryError::EmptyResult);
        }
        Ok(spec.build(tuples, threads, deadline)?)
    }

    /// The prepared state `spec` addresses against `db` — the one
    /// resolve behind [`QueryFrontDoor::serve_query_deadline`] and
    /// [`QueryFrontDoor::universe_of`]: the registry's guarded fetch
    /// under the semantic key (evaluate + prepare on a miss, a
    /// panicking oracle ⇒ [`ServeError::WorkerPanicked`]), then the
    /// warm bookkeeping every resident entry needs for base-table
    /// edits to find, re-key and repair it.
    fn resolve(
        &self,
        db: &str,
        spec: &QuerySpec,
        deadline: Deadline,
    ) -> Result<PreparedVariant, QueryError> {
        let threads = self.registry.solve_threads();
        let (key, prepared, built) = {
            let state = self.read_state();
            let dbst = state
                .get(db)
                .ok_or_else(|| QueryError::UnknownDatabase(db.to_string()))?;
            let key = Self::key_of(db, dbst, spec);
            let (prepared, built) = self.registry.fetch(&key, || {
                Self::build_prepared(&dbst.db, spec, threads, deadline).map(|p| (key.exact(), p))
            })?;
            if !built && dbst.warm.contains_key(&key) {
                // A warm hit changes nothing: no map-wide write lock.
                return Ok(prepared);
            }
            (key, prepared, built)
        };
        // Record the warm entry outside the read lock (idempotent; the
        // delta fan-out needs the spec to re-key and repair it).
        let mut state = self.write_state();
        let Some(dbst) = state.get_mut(db) else {
            return Ok(prepared);
        };
        if Self::key_of(db, dbst, spec) != key {
            // An edit landed between the build and here: the entry
            // predates it, so it is unreachable — and repairing it at
            // the next edit would skip this one. It goes.
            self.cache().take(&key);
            return Ok(prepared);
        }
        // Nothing patches an unindexed entry, so what was fetched is as
        // built.
        let fresh = WarmQuery {
            spec: spec.clone(),
            base_len: prepared.n(),
        };
        if built {
            // Journal fresh warmth under the state lock (the state →
            // durability lock order every hook uses), so no base-table
            // edit can interleave between the build and the log seeing
            // it. A build replaces the row an eviction left behind: its
            // sequence is a fresh evaluation, built whole.
            if let Some(d) = self.registry.durability() {
                d.log_warm_query(db, spec, &prepared);
            }
            dbst.warm.insert(key, fresh);
        } else {
            dbst.warm.entry(key).or_insert(fresh);
        }
        Ok(prepared)
    }

    /// [`QueryFrontDoor::serve_query_deadline`] with [`Deadline::none`].
    pub fn serve_query(
        &self,
        db: &str,
        spec: &QuerySpec,
        requests: &[EngineRequest],
    ) -> Result<Vec<CheckedAnswer>, QueryError> {
        self.serve_query_deadline(db, spec, requests, Deadline::none())
    }

    /// Serves a batch of requests for one query — evaluate + prepare on
    /// a semantic-key miss, straight to the solve on a hit — with the
    /// registry's fault isolation: per-request `catch_unwind`, typed
    /// infeasibility diagnoses, one reused scratch.
    ///
    /// The cooperative `deadline` spans evaluation, preparation, and
    /// the solves: a miss that cannot finish in time fails with
    /// [`ServeError::DeadlineExceeded`] and caches **nothing** (clean
    /// retry), a warm hit is still fetched, and each solve checks the
    /// deadline between rounds. Infeasibility is decided from the
    /// prepared dimensions first, so an infeasible `k` is never
    /// reported as a timeout.
    pub fn serve_query_deadline(
        &self,
        db: &str,
        spec: &QuerySpec,
        requests: &[EngineRequest],
        deadline: Deadline,
    ) -> Result<Vec<CheckedAnswer>, QueryError> {
        let prepared = self.resolve(db, spec, deadline)?;
        let threads = self.registry.solve_threads();
        // One worker: each solve keeps the whole thread budget.
        let solved = claim_each(1, requests.len(), |i, scratch| {
            solve_checked(&prepared, threads, requests[i], scratch, deadline)
        });
        Ok(solved
            .into_iter()
            .map(|answer| answer.unwrap_or(Err(ServeError::WorkerPanicked)))
            .collect())
    }

    /// The universe sequence the front door is serving for `spec` right
    /// now — warm state's exact tuple order (which after deltas is
    /// *original order + appended repairs*, not a cold re-evaluation
    /// order), preparing on a miss. This is the sequence a differential
    /// oracle must feed the materialized path to expect bit-identical
    /// answers.
    pub fn universe_of(&self, db: &str, spec: &QuerySpec) -> Result<Vec<Tuple>, QueryError> {
        Ok(self.resolve(db, spec, Deadline::none())?.universe().into_owned())
    }

    /// Inserts one tuple into a base relation and **delta-repairs every
    /// warm query universe it affects**: for each warm spec reading
    /// `relation`, the new result tuples are computed semi-naively,
    /// deduplicated against the prepared universe (set semantics), and
    /// appended through the in-place delta path — full-matrix entries
    /// extend their matrix `O(Δ · n)`, coreset entries absorb each row
    /// or let it displace a representative — then the entry is
    /// re-inserted under the bumped relation version. Warm queries
    /// *not* reading `relation` keep their keys and stay warm.
    ///
    /// Returns `Ok(false)` (and changes nothing, set semantics) if the
    /// tuple was already present.
    ///
    /// Entries that cannot be repaired incrementally — FO queries with
    /// no semi-naive plan, prepared state shared so widely it cannot be
    /// mutated, or a coreset whose cover would pass twice its
    /// selection's — are dropped and simply go cold; the next serve
    /// re-prepares at the new version. Nothing is ever served stale.
    pub fn insert_base_tuple(
        &self,
        db: &str,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<bool, QueryError> {
        self.edit_base_tuple(db, relation, Tuple::new(values), true)
    }

    /// Removes one tuple from a base relation and repairs every warm
    /// query universe it affects — the deletion counterpart of
    /// [`QueryFrontDoor::insert_base_tuple`].
    ///
    /// Deletion is harder than insertion under set semantics: a result
    /// tuple the removed base tuple *could* derive may still have other
    /// derivations. The fan-out therefore runs in two steps per
    /// affected warm query: [`divr_relquery::delta_results`] against
    /// the **pre-removal** database enumerates exactly the result
    /// tuples whose derivations could involve the removed tuple (the
    /// candidates), then each candidate is re-checked against the
    /// post-removal database
    /// ([`divr_relquery::eval::query_contains`]) — only candidates
    /// with **no** surviving derivation leave the universe. Full-matrix
    /// entries migrate in place through the `O(n)` row/column
    /// swap-remove path, one [`DeltaOp::Remove`] per departure;
    /// universes the removal leaves untouched carry their prepared
    /// state to the bumped version without a rebuild.
    ///
    /// Returns `Ok(false)` (and changes nothing) if the tuple was not
    /// present.
    ///
    /// Entries that cannot be repaired incrementally — FO queries with
    /// no semi-naive plan, coreset entries (which cannot un-derive a
    /// departed tuple's contributions in `O(Δ·n)`), universes shrunk to
    /// empty, or prepared state shared too widely to mutate — are
    /// dropped and go cold; the next serve re-prepares at the new
    /// version. Nothing is ever served stale.
    pub fn remove_base_tuple(
        &self,
        db: &str,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<bool, QueryError> {
        self.edit_base_tuple(db, relation, Tuple::new(values), false)
    }

    /// The one base-edit path behind the two public wrappers and
    /// recovery's replay of a journaled edit: validate, journal,
    /// mutate, then migrate every warm entry reading `relation` along
    /// its [`plan_base_edit`] repair.
    pub(crate) fn edit_base_tuple(
        &self,
        db: &str,
        relation: &str,
        tuple: Tuple,
        insert: bool,
    ) -> Result<bool, QueryError> {
        let mut state = self.write_state();
        let dbst = state
            .get_mut(db)
            .ok_or_else(|| QueryError::UnknownDatabase(db.to_string()))?;
        // Write-ahead discipline: validate that the mutation will
        // succeed, journal it, then mutate — the in-memory edit is
        // never acknowledged before it is durable.
        if !base_edit_applies(&dbst.db, insert, relation, &tuple)? {
            return Ok(false);
        }
        if let Some(d) = self.registry.durability() {
            d.log_base_edit(db, relation, &tuple, insert);
        }

        // Take every warm entry reading this relation out of the cache
        // (the stale state is never resident beside its repair); one
        // evicted since it was recorded has nothing to migrate.
        let taken: Vec<_> = dbst
            .warm
            .extract_if(|_, w| w.spec.relations.contains(relation))
            .filter_map(|(old_key, w)| Some((w, self.cache().take(&old_key)?)))
            .collect();
        let universes: Vec<_> = taken.iter().map(|(_, p)| p.universe()).collect();
        let plans = plan_base_edit(
            &mut dbst.db,
            insert,
            relation,
            &tuple,
            taken.iter().zip(&universes).map(|((w, _), u)| (&w.spec.query, &**u)),
        );
        drop(universes);
        *dbst.rel_versions.entry(relation.to_string()).or_insert(0) += 1;

        for ((w, prepared), plan) in taken.into_iter().zip(plans) {
            // No incremental plan, unpatchable state (see
            // `PreparedVariant::patch`), or Q(D) = ∅ now: the entry is
            // dropped, and the next serve re-prepares at the new
            // version or gets the typed refusal. An empty plan carries
            // the state to the new key untouched.
            let Some(ops) = plan else { continue };
            let rel = &**w.spec.instance.relevance();
            let Some(migrated) = prepared.patch(&ops, rel).filter(|p| p.n() > 0) else {
                continue;
            };
            let new_key = Self::key_of(db, dbst, &w.spec);
            self.cache().insert(&new_key, migrated);
            dbst.warm.insert(new_key, w);
        }
        Ok(true)
    }

    /// Rebuilds one journaled warm query entry — `universe` the exact
    /// sequence the live process served — into prepared state
    /// bit-identical to it, through the build and the delta step
    /// that produced the original: a build over the first `base_len`
    /// tuples, the rest patched in as inserts — whatever the shape (a
    /// patched full matrix is the one a whole-sequence build makes).
    /// It replaces whatever the key holds: a later record for the same
    /// query is a rebuild the live process served after an eviction or
    /// a go-cold. `None` if the entry could not be rebuilt.
    pub(crate) fn restore_warm_query(
        &self,
        db: &str,
        spec: &QuerySpec,
        mut universe: Vec<Tuple>,
        base_len: usize,
    ) -> Option<()> {
        let base_len = base_len.min(universe.len());
        if base_len == 0 {
            return None;
        }
        let threads = self.registry.solve_threads();
        let mut state = self.write_state();
        let dbst = state.get_mut(db)?;
        let tail: Vec<DeltaOp> = universe
            .split_off(base_len)
            .into_iter()
            .map(DeltaOp::Insert)
            .collect();
        let built = spec.build(universe, threads, Deadline::none());
        let prepared = built.ok()?.patch(&tail, &**spec.instance.relevance())?;
        let key = Self::key_of(db, dbst, spec);
        self.cache().insert(&key, prepared);
        let spec = spec.clone();
        dbst.warm.insert(key, WarmQuery { spec, base_len });
        Some(())
    }
}

/// Whether editing `tuple` into (`insert`) or out of `relation` changes
/// `db`: an unknown relation or a wrong arity is an error, and under set
/// semantics inserting a present tuple or removing an absent one changes
/// nothing — so a replayed edit that no longer applies is `Ok(false)`.
fn base_edit_applies(
    db: &Database,
    insert: bool,
    relation: &str,
    tuple: &Tuple,
) -> Result<bool, divr_relquery::Error> {
    let rel = db.relation(relation)?;
    if tuple.arity() != rel.arity() {
        return Err(divr_relquery::Error::ArityMismatch {
            relation: relation.to_string(),
            expected: rel.arity(),
            found: tuple.arity(),
        });
    }
    Ok(rel.contains(tuple) != insert)
}

/// Applies one base-table edit (validated by [`base_edit_applies`]) to
/// `db` and plans the repair of every warm universe reading
/// `relation`: for each `(query, universe sequence)`, the delta ops
/// that make the sequence serve the edited database, or `None` when
/// there is no incremental plan (an FO query, a failed delta
/// evaluation) and the entry goes cold. Its one caller is
/// [`QueryFrontDoor::edit_base_tuple`], which a live edit and a
/// replayed one both run.
///
/// The semi-naive plan ([`delta_results`]) joins through the edited
/// tuple, so it runs where the tuple is present — after an insert,
/// **before** a removal (afterwards the joins that involved it are gone
/// and the plan would come back empty). An insert appends the
/// candidates not already in the sequence (set semantics). A removal
/// re-checks each candidate against the post-removal database
/// ([`query_contains`]) and swap-removes only those with no surviving
/// derivation.
fn plan_base_edit<'a>(
    db: &mut Database,
    insert: bool,
    relation: &str,
    tuple: &Tuple,
    warm: impl Iterator<Item = (&'a Query, &'a [Tuple])>,
) -> Vec<Option<Vec<DeltaOp>>> {
    let warm: Vec<_> = warm.collect();
    let candidates = |db: &Database| -> Vec<Option<Vec<Tuple>>> {
        warm.iter()
            .map(|(query, _)| delta_results(db, query, relation, tuple).ok().flatten())
            .collect()
    };
    let before = (!insert).then(|| candidates(db));
    let changed = if insert {
        db.insert_tuple(relation, tuple.clone())
    } else {
        db.remove_tuple(relation, tuple)
    };
    debug_assert!(matches!(changed, Ok(true)), "validated by base_edit_applies");
    let candidates = before.unwrap_or_else(|| candidates(db));
    warm.iter()
        .zip(candidates)
        .map(|(&(query, universe), candidates)| {
            let mut ops = Vec::new();
            if insert {
                let existing: HashSet<&Tuple> = universe.iter().collect();
                let mut fresh: Vec<Tuple> = Vec::new();
                for c in candidates? {
                    if !existing.contains(&c) && !fresh.contains(&c) {
                        fresh.push(c);
                    }
                }
                ops.extend(fresh.into_iter().map(DeltaOp::Insert));
            } else {
                // The sequence as the swap-removes will leave it, so
                // each index addresses the state the op applies to.
                let mut left: Vec<&Tuple> = universe.iter().collect();
                for c in candidates? {
                    let Some(i) = left.iter().position(|u| **u == c) else {
                        continue; // never in Q(D), or already leaving
                    };
                    if !query_contains(db, query, &c).ok()? {
                        left.swap_remove(i);
                        ops.push(DeltaOp::Remove(i));
                    }
                }
            }
            Some(ops)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use crate::spec::UniverseSpec;
    use divr_core::distance::NumericDistance;
    use divr_core::problem::ObjectiveKind;
    use divr_core::relevance::AttributeRelevance;
    use divr_relquery::parser::parse_query;

    fn rel() -> Arc<dyn ServableRelevance> {
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        })
    }

    fn dis() -> Arc<dyn ServableDistance> {
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        })
    }

    fn front() -> QueryFrontDoor {
        QueryFrontDoor::new(Arc::new(Registry::new(RegistryConfig {
            workers: 2,
            solve_threads: 2,
            ..RegistryConfig::default()
        })))
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        db.create_relation("S", &["y", "z"]).unwrap();
        for i in 0..40i64 {
            db.insert("R", vec![Value::int(i), Value::int(i % 7)]).unwrap();
            db.insert("S", vec![Value::int(i % 7), Value::int(3 * i)]).unwrap();
        }
        db
    }

    fn spec(text: &str) -> QuerySpec {
        QuerySpec::new(parse_query(text).unwrap(), rel(), dis(), Ratio::new(1, 2)).unwrap()
    }

    fn reqs() -> Vec<EngineRequest> {
        ObjectiveKind::ALL
            .into_iter()
            .map(|kind| EngineRequest { kind, k: 5 })
            .collect()
    }

    /// A front-door entry is the one full matrix base edits grow: it
    /// keeps `pad(n)` = 4 columns of headroom at n = 40, so its first
    /// base insert writes in place; a serve frame of the same rows
    /// allocates exactly `n²`.
    #[test]
    fn a_front_door_entry_keeps_its_headroom() {
        let f = front();
        f.register_database("main", db());
        let q = spec("Q(x, y) :- R(x, y)");
        let matrix_of = |f: &QueryFrontDoor| {
            let key = f.key_for("main", &q).unwrap();
            let entry = f.cache().peek(&key).expect("warm");
            let matrix = entry.as_full().expect("full-matrix").matrix();
            (matrix.n(), matrix.approx_bytes())
        };
        f.serve_query("main", &q, &reqs()).unwrap();
        assert_eq!(matrix_of(&f), (40, 44 * 44 * 8));
        let row = vec![Value::int(1_000), Value::int(3)];
        assert!(f.insert_base_tuple("main", "R", row).unwrap());
        assert_eq!(matrix_of(&f), (41, 44 * 44 * 8), "grown in place");
        let rows = f.universe_of("main", &q).unwrap();
        let frame = UniverseSpec::new(rows, rel(), dis(), Ratio::new(1, 2));
        let prepared = frame.try_prepare_variant(1).unwrap();
        assert_eq!(prepared.as_full().unwrap().matrix().approx_bytes(), 41 * 41 * 8);
    }

    #[test]
    fn serving_matches_materialized_universe() {
        let f = front();
        f.register_database("main", db());
        let q = spec("Q(x, z) :- R(x, y), S(y, z)");
        let answers = f.serve_query("main", &q, &reqs()).unwrap();
        // Oracle: materialize Q(D) by hand (eager eval = stream order)
        // and serve through the registry's universe path.
        let universe = divr_relquery::eval::eval_query(&db(), q.query())
            .unwrap()
            .into_tuples();
        let uspec = UniverseSpec::new(universe, rel(), dis(), Ratio::new(1, 2));
        let oracle = Registry::default();
        for (a, request) in answers.iter().zip(reqs()) {
            let expect = oracle.try_serve(&uspec, request).unwrap();
            assert_eq!(a.as_ref().unwrap(), &expect);
        }
    }

    /// A warm query frame — first-sight registration of a database
    /// that is already there, then the serve — only reads the front
    /// door's map: it must finish while another thread holds the read
    /// guard, which taking the write lock would wait out.
    #[test]
    fn warm_hits_do_not_take_the_write_lock() {
        let f = front();
        f.register_database("main", db());
        let q = spec("Q(x, z) :- R(x, y), S(y, z)");
        let first = f.serve_query("main", &q, &reqs()).unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // Dropped when this closure unwinds, so a failure is a
            // panic, not four threads stuck behind the guard.
            let held = f.read_state();
            for _ in 0..4 {
                let done = done.clone();
                let (f, q, first) = (&f, &q, &first);
                scope.spawn(move || {
                    f.ensure_database("main", db());
                    assert_eq!(&f.serve_query("main", q, &reqs()).unwrap(), first);
                    done.send(()).unwrap();
                });
            }
            for _ in 0..4 {
                finished
                    .recv_timeout(std::time::Duration::from_secs(20))
                    .expect("a warm hit waited for the map-wide write lock");
            }
            drop(held);
        });
    }

    #[test]
    fn equivalent_queries_share_one_prepared_entry() {
        let f = front();
        f.register_database("main", db());
        let variants = [
            spec("Q(x, z) :- R(x, y), S(y, z)"),
            spec("Q(a, c) :- S(b, c), R(a, b)"),
            spec("Q(x, z) :- R(x, y), S(y, z), R(x, w)"),
        ];
        let keys: Vec<UniverseKey> = variants
            .iter()
            .map(|s| f.key_for("main", s).unwrap())
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
        let expect: Vec<CheckedAnswer> = f.serve_query("main", &variants[0], &reqs()).unwrap();
        for v in &variants[1..] {
            assert_eq!(f.serve_query("main", v, &reqs()).unwrap(), expect);
        }
        let stats = f.registry().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        // A near-miss (swapped S columns) is a different key.
        let near = spec("Q(x, z) :- R(x, y), S(z, y)");
        assert_ne!(f.key_for("main", &near).unwrap(), keys[0]);
    }

    #[test]
    fn empty_result_is_a_typed_error() {
        let f = front();
        f.register_database("main", db());
        let q = spec("Q(x) :- R(x, y), y > 100");
        assert_eq!(
            f.serve_query("main", &q, &reqs()),
            Err(QueryError::EmptyResult)
        );
        // Nothing cached for the refused query.
        assert!(!f.is_warm("main", &q).unwrap());
    }

    #[test]
    fn unknown_database_and_unknown_relation_are_typed() {
        let f = front();
        assert!(matches!(
            f.serve_query("nope", &spec("Q(x) :- R(x, y)"), &reqs()),
            Err(QueryError::UnknownDatabase(_))
        ));
        f.register_database("main", db());
        let q = spec("Q(x) :- Missing(x, y)");
        assert!(matches!(
            f.serve_query("main", &q, &reqs()),
            Err(QueryError::Query(divr_relquery::Error::UnknownRelation(_)))
        ));
    }

    #[test]
    fn base_insert_repairs_warm_entries_and_matches_cold_universe() {
        let f = front();
        f.register_database("main", db());
        let q = spec("Q(x, z) :- R(x, y), S(y, z)");
        f.serve_query("main", &q, &reqs()).unwrap();
        assert_eq!(f.registry().stats().misses, 1);

        // Insert a joining R-tuple: the warm entry must migrate, not
        // cool down.
        assert!(f
            .insert_base_tuple("main", "R", vec![Value::int(100), Value::int(3)])
            .unwrap());
        let answers = f.serve_query("main", &q, &reqs()).unwrap();
        let stats = f.registry().stats();
        assert_eq!(stats.misses, 1, "delta repair must not cold-prepare");

        // Oracle: the migrated universe order is old order + appended
        // delta tuples; serving it through the universe path must be
        // bit-identical.
        let universe = f.universe_of("main", &q).unwrap();
        let uspec = UniverseSpec::new(universe, rel(), dis(), Ratio::new(1, 2));
        let oracle = Registry::default();
        for (a, request) in answers.iter().zip(reqs()) {
            let expect = oracle.try_serve(&uspec, request).unwrap();
            assert_eq!(a.as_ref().unwrap(), &expect);
        }

        // Duplicate insert: set semantics, no change, no version bump.
        let key = f.key_for("main", &q).unwrap();
        assert!(!f
            .insert_base_tuple("main", "R", vec![Value::int(100), Value::int(3)])
            .unwrap());
        assert_eq!(f.key_for("main", &q).unwrap(), key);
    }

    #[test]
    fn base_remove_repairs_warm_entries_and_matches_cold_universe() {
        let f = front();
        f.register_database("main", db());
        let q = spec("Q(x, z) :- R(x, y), S(y, z)");
        f.serve_query("main", &q, &reqs()).unwrap();
        assert_eq!(f.registry().stats().misses, 1);

        // Remove an R-tuple that joins: the warm entry must migrate
        // through the removal path, not cool down.
        assert!(f
            .remove_base_tuple("main", "R", vec![Value::int(5), Value::int(5)])
            .unwrap());
        let answers = f.serve_query("main", &q, &reqs()).unwrap();
        let stats = f.registry().stats();
        assert_eq!(stats.misses, 1, "delta repair must not cold-prepare");

        // Oracle 1: the repaired universe must equal a cold evaluation
        // as a SET (order differs: swap-remove).
        let mut repaired = f.universe_of("main", &q).unwrap();
        let mut cold = {
            let mut d = db();
            d.remove_tuple("R", &Tuple::ints([5, 5])).unwrap();
            divr_relquery::eval::eval_query(&d, q.query())
                .unwrap()
                .into_tuples()
        };
        repaired.sort();
        cold.sort();
        assert_eq!(repaired, cold);

        // Oracle 2: answers must be bit-identical to the universe path
        // over the repaired sequence.
        let universe = f.universe_of("main", &q).unwrap();
        let uspec = UniverseSpec::new(universe, rel(), dis(), Ratio::new(1, 2));
        let oracle = Registry::default();
        for (a, request) in answers.iter().zip(reqs()) {
            let expect = oracle.try_serve(&uspec, request).unwrap();
            assert_eq!(a.as_ref().unwrap(), &expect);
        }

        // Absent tuple: set semantics, no change, no version bump.
        let key = f.key_for("main", &q).unwrap();
        assert!(!f
            .remove_base_tuple("main", "R", vec![Value::int(5), Value::int(5)])
            .unwrap());
        assert_eq!(f.key_for("main", &q).unwrap(), key);
    }

    #[test]
    fn base_remove_keeps_tuples_with_other_derivations() {
        // Q(y) :- R(x, y): result tuple (5) derives from every R(_, 5).
        // Removing one such R-tuple must NOT evict (5) while another
        // derivation survives.
        let f = front();
        let mut d = Database::new();
        d.create_relation("R", &["x", "y"]).unwrap();
        for i in 0..10i64 {
            d.insert("R", vec![Value::int(i), Value::int(i % 3)]).unwrap();
        }
        f.register_database("main", d);
        let q = QuerySpec::new(
            parse_query("Q(y) :- R(x, y)").unwrap(),
            Arc::new(AttributeRelevance {
                attr: 0,
                default: Ratio::ZERO,
            }),
            dis(),
            Ratio::new(1, 2),
        )
        .unwrap();
        f.serve_query("main", &q, &[reqs()[0]]).unwrap();
        let before = f.universe_of("main", &q).unwrap();
        // (0, 0) removed; (3, 0), (6, 0), (9, 0) still derive (0).
        assert!(f
            .remove_base_tuple("main", "R", vec![Value::int(0), Value::int(0)])
            .unwrap());
        assert_eq!(f.registry().stats().misses, 1, "stayed warm");
        let after = f.universe_of("main", &q).unwrap();
        assert_eq!(before, after, "no result tuple lost a sole derivation");
    }

    #[test]
    fn base_remove_unknown_database_and_relation_are_typed() {
        let f = front();
        assert!(matches!(
            f.remove_base_tuple("nope", "R", vec![Value::int(1)]),
            Err(QueryError::UnknownDatabase(_))
        ));
        f.register_database("main", db());
        assert!(matches!(
            f.remove_base_tuple("main", "Missing", vec![Value::int(1)]),
            Err(QueryError::Query(divr_relquery::Error::UnknownRelation(_)))
        ));
        assert!(matches!(
            f.remove_base_tuple("main", "R", vec![Value::int(1)]),
            Err(QueryError::Query(divr_relquery::Error::ArityMismatch { .. }))
        ));
    }

    #[test]
    fn inserts_into_unreferenced_relations_keep_entries_warm() {
        let f = front();
        let mut d = db();
        d.create_relation("T", &["a"]).unwrap();
        f.register_database("main", d);
        let q = spec("Q(x, z) :- R(x, y), S(y, z)");
        let key = f.key_for("main", &q).unwrap();
        f.serve_query("main", &q, &reqs()).unwrap();
        f.insert_base_tuple("main", "T", vec![Value::int(9)]).unwrap();
        // Key unchanged, entry still warm.
        assert_eq!(f.key_for("main", &q).unwrap(), key);
        f.serve_query("main", &q, &[reqs()[0]]).unwrap();
        assert_eq!(f.registry().stats().misses, 1);
    }
}
