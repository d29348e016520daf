//! End-to-end query result diversification: from `(D, Q, δ_rel, δ_dis, λ, k)`
//! to answers for QRD, DRP and RDC.
//!
//! This is the integrated two-step pipeline the paper analyses: evaluate
//! `Q(D)`, then solve the diversification problem over it — with the
//! solver chosen per objective to match the paper's upper bounds
//! (`F_mono` routes to the PTIME algorithms of Theorems 5.4/6.4 and the
//! sum DP; `F_MS`/`F_MM` to the exact search; constrained variants to the
//! Section 9 searches).

use crate::constraints::Constraint;
use crate::coreset::{
    CoresetConfig, CoresetEngine, PreparedCoreset, SharedCoreset, CORESET_AUTO_THRESHOLD,
};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::{
    default_threads, DeltaOp, Engine, EngineRequest, PreparedUniverse, ServeError,
    SharedPrepared, SolveScratch,
};
use crate::problem::{DiversityProblem, ObjectiveKind};
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use crate::solvers::{constrained, counting, exact, mono};
use divr_relquery::{Database, Query, Tuple};
use std::fmt;
use std::sync::Arc;

/// A boxed relevance function usable from worker threads (the pipeline
/// stores its functions behind `Arc` so prepared universes can share
/// them with the serving layer).
pub type SharedRelevance = Box<dyn Relevance + Send + Sync>;

/// A boxed distance function usable from worker threads.
pub type SharedDistance = Box<dyn Distance + Send + Sync>;

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The query layer failed (unknown relation, unsafe query, ...).
    Query(divr_relquery::Error),
    /// A set passed to DRP is not a candidate set: wrong size, duplicate
    /// tuples, or tuples outside `Q(D)`.
    NotACandidateSet,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Query(e) => write!(f, "query error: {e}"),
            PipelineError::NotACandidateSet => {
                write!(f, "the given set is not a candidate set for (Q, D, k)")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<divr_relquery::Error> for PipelineError {
    fn from(e: divr_relquery::Error) -> Self {
        PipelineError::Query(e)
    }
}

/// Result alias for pipeline operations.
pub type PipelineResult<T> = Result<T, PipelineError>;

/// One served answer: the exact objective value with the chosen tuples,
/// or the typed reason the request has none (e.g.
/// [`ServeError::InfeasibleK`] when `|Q(D)| < k`).
pub type ServedAnswer = Result<(Ratio, Vec<Tuple>), ServeError>;

/// Prepared serving state for one universe: the full `n × n`
/// [`PreparedUniverse`] (small universes, answers match the
/// `Ratio`-path heuristics exactly) or the sub-quadratic
/// [`PreparedCoreset`] (large universes, answers re-scored exactly
/// against the full universe; see [`crate::coreset`] for the quality
/// contract). This is the one fork in the serving path that earns its
/// place, and it is always selected from something observable: the
/// universe size against [`CORESET_AUTO_THRESHOLD`]
/// ([`QueryDiversification::prepare_adaptive`]) or a spec's explicit
/// mode (the registry in `divr-server`, which caches this type).
/// Cloning is `O(1)` (both arms are `Arc`s).
#[derive(Clone)]
pub enum PreparedVariant {
    /// Full-matrix prepared state (exact-tie-fallback engine).
    Full(SharedPrepared),
    /// Coreset prepared state (`m × m` matrix, `O(n)` bookkeeping).
    Coreset(SharedCoreset),
}

impl PreparedVariant {
    /// Universe size `n`.
    pub fn n(&self) -> usize {
        self.universe().len()
    }

    /// The materialized universe `Q(D)` answers index into.
    pub fn universe(&self) -> &[Tuple] {
        match self {
            PreparedVariant::Full(p) => p.universe(),
            PreparedVariant::Coreset(p) => p.universe(),
        }
    }

    /// Whether this is the coreset variant.
    pub fn is_coreset(&self) -> bool {
        matches!(self, PreparedVariant::Coreset(_))
    }

    /// The full-matrix prepared state, if that is what was built.
    pub fn as_full(&self) -> Option<&SharedPrepared> {
        match self {
            PreparedVariant::Full(p) => Some(p),
            PreparedVariant::Coreset(_) => None,
        }
    }

    /// The coreset prepared state, if that is what was built.
    pub fn as_coreset(&self) -> Option<&SharedCoreset> {
        match self {
            PreparedVariant::Full(_) => None,
            PreparedVariant::Coreset(p) => Some(p),
        }
    }

    /// Approximate heap bytes this state pins — `n²`-dominated for the
    /// full variant, `m² + O(n)` for the coreset variant. The quantity
    /// a byte-budgeted cache meters.
    pub fn approx_bytes(&self) -> usize {
        match self {
            PreparedVariant::Full(p) => p.approx_bytes(),
            PreparedVariant::Coreset(p) => p.approx_bytes(),
        }
    }

    /// Validates every cached float in this prepared state (relevance
    /// caches and the distance matrix — full `n × n` or coreset
    /// `m × m`): `Ok` iff none is `NaN`/`±∞`. Checked prepare paths run
    /// this once per build so non-finite oracle output is a typed
    /// refusal ([`ServeError::NonFiniteScore`]) instead of a silently
    /// mis-selected answer set.
    pub fn check_finite(&self) -> Result<(), ServeError> {
        match self {
            PreparedVariant::Full(p) => p.check_finite(),
            PreparedVariant::Coreset(p) => p.check_finite(),
        }
    }

    /// Applies `ops` to this prepared state in place — the one delta
    /// step behind every warm-entry migration (the registry's
    /// `apply_delta`, the query front door's base-edit repair, and
    /// recovery's replay of a delta tail). `rel` scores inserted
    /// tuples. `None` means the state cannot be patched and the caller
    /// goes cold (drops the entry; the next serve re-prepares):
    ///
    /// * an appended row with a non-finite score — the resident state
    ///   was validated when it was built, so only the new row can be
    ///   bad, and it is checked as it lands (`O(n)`, not a rescan);
    /// * a coreset that is still shared (it has no `O(1)` fork) or is
    ///   asked to remove — it cannot un-derive a departed tuple's
    ///   contributions, and extending its insertion stream *is* its
    ///   repair;
    /// * a removal index outside the universe.
    ///
    /// A shared full-matrix state is forked first: solves in flight
    /// keep the old immutable state, the copy is patched. The patched
    /// full-matrix state is bit-identical to a cold prepare of the
    /// mutated universe ([`PreparedUniverse::insert_tuple`]).
    pub fn patch(self, ops: &[DeltaOp], rel: &dyn Relevance) -> Option<PreparedVariant> {
        if ops.is_empty() {
            return Some(self);
        }
        match self {
            PreparedVariant::Full(arc) => {
                let mut p = Arc::try_unwrap(arc).unwrap_or_else(|shared| shared.fork());
                for op in ops {
                    match op {
                        DeltaOp::Insert(t) => {
                            p.insert_tuple(t.clone(), rel.rel(t));
                            p.check_finite_item(p.n() - 1).ok()?;
                        }
                        DeltaOp::Remove(i) => drop(p.remove_tuple(*i).ok()?),
                    }
                }
                Some(PreparedVariant::Full(Arc::new(p)))
            }
            PreparedVariant::Coreset(arc) => {
                let mut p = Arc::try_unwrap(arc).ok()?;
                for op in ops {
                    let DeltaOp::Insert(t) = op else { return None };
                    p.insert_tuple(t.clone(), rel.rel(t));
                    p.check_finite_item(p.n() - 1).ok()?;
                }
                Some(PreparedVariant::Coreset(Arc::new(p)))
            }
        }
    }

    /// [`PreparedVariant::try_serve_deadline`] with a fresh scratch and
    /// [`Deadline::none`].
    pub fn try_serve(
        &self,
        threads: usize,
        request: EngineRequest,
    ) -> Result<(Ratio, Vec<usize>), ServeError> {
        self.try_serve_deadline(threads, request, &mut SolveScratch::new(), Deadline::none())
    }

    /// Serves one request against this prepared state with `threads`
    /// solver workers: the exact objective value and the chosen
    /// full-universe indices, or the engine's typed diagnosis
    /// ([`Engine::serve_into`] / [`CoresetEngine::serve_into`] classify;
    /// this only dispatches). A single caller-owned [`SolveScratch`]
    /// serves full and coreset variants (and any mix of universes)
    /// interchangeably, so a worker that keeps one allocates nothing
    /// per request beyond the answer set. The solve checks `deadline`
    /// between rounds; with [`Deadline::none`] (or any deadline that
    /// never trips) answers are bit-identical to the undeadlined form.
    pub fn try_serve_deadline(
        &self,
        threads: usize,
        request: EngineRequest,
        scratch: &mut SolveScratch,
        deadline: Deadline,
    ) -> Result<(Ratio, Vec<usize>), ServeError> {
        let mut set = Vec::new();
        let value = match self {
            PreparedVariant::Full(p) => Engine::from_prepared(p.clone(), threads)
                .with_deadline(deadline)
                .serve_into(request, scratch, &mut set),
            PreparedVariant::Coreset(p) => CoresetEngine::from_prepared(p.clone(), threads)
                .with_deadline(deadline)
                .serve_into(request, scratch, &mut set),
        }?;
        Ok((value, set))
    }
}

impl fmt::Debug for PreparedVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreparedVariant::Full(p) => f.debug_tuple("PreparedVariant::Full").field(p).finish(),
            PreparedVariant::Coreset(p) => {
                f.debug_tuple("PreparedVariant::Coreset").field(p).finish()
            }
        }
    }
}

/// A fully configured diversification task over a database and query.
pub struct QueryDiversification {
    db: Database,
    query: Query,
    rel: Arc<dyn Relevance + Send + Sync>,
    dis: Arc<dyn Distance + Send + Sync>,
    lambda: Ratio,
    k: usize,
}

impl QueryDiversification {
    /// Bundles a diversification task. Panics if `λ ∉ [0,1]` or `k = 0`
    /// (same contract as [`DiversityProblem::new`]).
    pub fn new(
        db: Database,
        query: Query,
        rel: SharedRelevance,
        dis: SharedDistance,
        lambda: Ratio,
        k: usize,
    ) -> Self {
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        assert!(k >= 1, "k must be positive");
        QueryDiversification {
            db,
            query,
            rel: Arc::from(rel),
            dis: Arc::from(dis),
            lambda,
            k,
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Evaluates `Q(D)` and assembles the in-memory problem instance.
    pub fn prepare(&self) -> PipelineResult<DiversityProblem<'_>> {
        let result = self.query.eval(&self.db)?;
        let universe: Vec<Tuple> = result.tuples().to_vec();
        Ok(DiversityProblem::new(
            universe,
            &*self.rel,
            &*self.dis,
            self.lambda,
            self.k,
        ))
    }

    /// Full-matrix preparation over an already evaluated universe:
    /// relevance values cached, the `O(n²)` distance matrix built (in
    /// parallel), and the exact distance oracle captured by `Arc` — so
    /// the result borrows nothing from this task.
    fn prepare_full(&self, universe: Vec<Tuple>) -> SharedPrepared {
        Arc::new(PreparedUniverse::build_shared(
            universe,
            &*self.rel,
            self.dis.clone(),
            self.lambda,
            default_threads(),
        ))
    }

    /// Evaluates `Q(D)` once and prepares the batch [`Engine`] over the
    /// materialized universe: the `O(n²)` distance matrix is built here
    /// (in parallel), after which any number of `(objective, k)`
    /// requests are served against it without touching the database,
    /// the query evaluator, or the `Ratio` distance oracle again.
    ///
    /// This is the serving path; [`QueryDiversification::prepare`] is
    /// the exact analysis path. The engine's heuristic answers match the
    /// `Ratio`-path heuristics of [`crate::approx`] up to equal-score
    /// ties (see [`crate::engine`] for the exactness contract).
    pub fn prepare_engine(&self) -> PipelineResult<Engine<'static>> {
        let result = self.query.eval(&self.db)?;
        Ok(Engine::from_prepared(
            self.prepare_full(result.tuples().to_vec()),
            default_threads(),
        ))
    }

    /// Prepares the right serving state for the universe's size:
    /// full-matrix when `|Q(D)| ≤` [`CORESET_AUTO_THRESHOLD`], otherwise
    /// the coreset path sized for result sizes up to `max_k`
    /// ([`CoresetConfig::recommended`]) — `O(n·m)` distance
    /// evaluations, an `m × m` matrix, and no `n × n` allocation
    /// anywhere (`n ≈ 50 000` would need ~20 GB). This is the
    /// auto-escalation rule behind
    /// [`QueryDiversification::serve_batch`].
    pub fn prepare_adaptive(&self, max_k: usize) -> PipelineResult<PreparedVariant> {
        let result = self.query.eval(&self.db)?;
        let universe: Vec<Tuple> = result.tuples().to_vec();
        if universe.len() <= CORESET_AUTO_THRESHOLD {
            return Ok(PreparedVariant::Full(self.prepare_full(universe)));
        }
        let config = CoresetConfig::recommended(max_k.max(self.k));
        Ok(PreparedVariant::Coreset(Arc::new(
            PreparedCoreset::build_shared(
                universe,
                &*self.rel,
                self.dis.clone(),
                self.lambda,
                &config,
            ),
        )))
    }

    /// Serves a whole batch of `(objective, k)` requests: prepare once,
    /// answer many. Each answer is the **exact** objective value with
    /// the chosen tuples, or [`ServeError::InfeasibleK`] when
    /// `|Q(D)| < k` for that request.
    ///
    /// Preparation auto-escalates by universe size
    /// ([`QueryDiversification::prepare_adaptive`]): up to
    /// [`CORESET_AUTO_THRESHOLD`] tuples the full `n × n` matrix is
    /// built and answers match the `Ratio`-path heuristics exactly;
    /// beyond it the coreset path takes over — `O(n·m)` preparation,
    /// answers re-scored exactly against the full universe.
    ///
    /// For a long-lived engine (e.g. a query front-end serving traffic),
    /// call [`QueryDiversification::prepare_engine`] or
    /// [`QueryDiversification::prepare_adaptive`] once and keep the
    /// prepared state instead.
    ///
    /// # Example
    ///
    /// ```
    /// use divr_core::engine::EngineRequest;
    /// use divr_core::prelude::*;
    /// use divr_relquery::{parser, Database, Value};
    ///
    /// let mut db = Database::new();
    /// db.create_relation("items", &["id", "score"]).unwrap();
    /// for (id, score) in [(1, 9), (2, 7), (3, 5), (4, 1)] {
    ///     db.insert("items", vec![Value::int(id), Value::int(score)]).unwrap();
    /// }
    /// let q = parser::parse_query("Q(id, score) :- items(id, score)").unwrap();
    /// let task = QueryDiversification::new(
    ///     db,
    ///     q,
    ///     Box::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
    ///     Box::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
    ///     Ratio::new(1, 2),
    ///     2,
    /// );
    /// let answers = task.serve_batch(&[
    ///     EngineRequest { kind: ObjectiveKind::MaxSum, k: 2 },
    ///     EngineRequest { kind: ObjectiveKind::Mono, k: 3 },
    /// ]).unwrap();
    /// assert_eq!(answers[0].as_ref().unwrap().1.len(), 2);
    /// assert_eq!(answers[1].as_ref().unwrap().1.len(), 3);
    /// ```
    pub fn serve_batch(
        &self,
        requests: &[EngineRequest],
    ) -> PipelineResult<Vec<ServedAnswer>> {
        let max_k = requests.iter().map(|r| r.k).max().unwrap_or(self.k);
        let prepared = self.prepare_adaptive(max_k)?;
        let universe = prepared.universe();
        let mut scratch = SolveScratch::new();
        Ok(requests
            .iter()
            .map(|&request| {
                let (value, set) = prepared.try_serve_deadline(
                    default_threads(),
                    request,
                    &mut scratch,
                    Deadline::none(),
                )?;
                Ok((value, set.iter().map(|&i| universe[i].clone()).collect()))
            })
            .collect())
    }

    /// **QRD**: is there a candidate set with `F(U) ≥ B`?
    pub fn qrd(&self, kind: ObjectiveKind, bound: Ratio) -> PipelineResult<bool> {
        let p = self.prepare()?;
        Ok(match kind {
            ObjectiveKind::Mono => mono::qrd_mono(&p, bound),
            _ => exact::qrd(&p, kind, bound),
        })
    }

    /// **DRP**: is `rank(U) ≤ r` for the given candidate set?
    pub fn drp(
        &self,
        kind: ObjectiveKind,
        candidate: &[Tuple],
        r: u128,
    ) -> PipelineResult<bool> {
        let p = self.prepare()?;
        let subset = p
            .indices_of(candidate)
            .filter(|s| s.len() == self.k)
            .ok_or(PipelineError::NotACandidateSet)?;
        Ok(match kind {
            ObjectiveKind::Mono if r <= usize::MAX as u128 => {
                mono::drp_mono(&p, &subset, r as usize)
            }
            _ => exact::drp(&p, kind, &subset, r),
        })
    }

    /// **RDC**: how many valid sets are there?
    pub fn rdc(&self, kind: ObjectiveKind, bound: Ratio) -> PipelineResult<u128> {
        let p = self.prepare()?;
        Ok(match kind {
            ObjectiveKind::Mono => counting::rdc_mono_dp(&p, bound),
            _ => counting::rdc(&p, kind, bound),
        })
    }

    /// Computes a top-ranked set (the function problem behind QRD).
    pub fn top_set(&self, kind: ObjectiveKind) -> PipelineResult<Option<(Ratio, Vec<Tuple>)>> {
        let p = self.prepare()?;
        let best = match kind {
            ObjectiveKind::Mono => mono::max_mono(&p),
            _ => exact::maximize(&p, kind),
        };
        Ok(best.map(|(v, s)| (v, p.tuples_of(&s))))
    }

    /// **QRD with compatibility constraints** (Section 9).
    pub fn qrd_constrained(
        &self,
        kind: ObjectiveKind,
        bound: Ratio,
        constraints: &[Constraint],
    ) -> PipelineResult<bool> {
        let p = self.prepare()?;
        Ok(constrained::qrd(&p, kind, bound, constraints))
    }

    /// **DRP with compatibility constraints**.
    pub fn drp_constrained(
        &self,
        kind: ObjectiveKind,
        candidate: &[Tuple],
        r: u128,
        constraints: &[Constraint],
    ) -> PipelineResult<bool> {
        let p = self.prepare()?;
        let subset = p
            .indices_of(candidate)
            .filter(|s| s.len() == self.k)
            .ok_or(PipelineError::NotACandidateSet)?;
        if !crate::constraints::satisfies_all(candidate, constraints) {
            return Err(PipelineError::NotACandidateSet);
        }
        Ok(constrained::drp(&p, kind, &subset, r, constraints))
    }

    /// **RDC with compatibility constraints**.
    pub fn rdc_constrained(
        &self,
        kind: ObjectiveKind,
        bound: Ratio,
        constraints: &[Constraint],
    ) -> PipelineResult<u128> {
        let p = self.prepare()?;
        Ok(constrained::rdc(&p, kind, bound, constraints))
    }

    /// Top-ranked set under constraints.
    pub fn top_set_constrained(
        &self,
        kind: ObjectiveKind,
        constraints: &[Constraint],
    ) -> PipelineResult<Option<(Ratio, Vec<Tuple>)>> {
        let p = self.prepare()?;
        Ok(constrained::maximize(&p, kind, constraints).map(|(v, s)| (v, p.tuples_of(&s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::HammingDistance;
    use crate::relevance::AttributeRelevance;
    use divr_relquery::parser::parse_query;
    use divr_relquery::Value;

    fn setup() -> QueryDiversification {
        let mut db = Database::new();
        db.create_relation("items", &["id", "cat", "score"]).unwrap();
        for (id, cat, score) in [
            (1, "a", 5),
            (2, "a", 4),
            (3, "b", 4),
            (4, "b", 2),
            (5, "c", 1),
            (6, "c", 0),
        ] {
            db.insert(
                "items",
                vec![Value::int(id), Value::str(cat), Value::int(score)],
            )
            .unwrap();
        }
        let q = parse_query("Q(id, cat, score) :- items(id, cat, score), score >= 1").unwrap();
        QueryDiversification::new(
            db,
            q,
            Box::new(AttributeRelevance {
                attr: 2,
                default: Ratio::ZERO,
            }),
            Box::new(HammingDistance::default()),
            Ratio::new(1, 2),
            3,
        )
    }

    #[test]
    fn prepare_materializes_filtered_universe() {
        let task = setup();
        let p = task.prepare().unwrap();
        assert_eq!(p.n(), 5); // score ≥ 1 keeps five items
        assert_eq!(p.k(), 3);
    }

    #[test]
    fn qrd_routes_consistently_across_objectives() {
        let task = setup();
        for kind in ObjectiveKind::ALL {
            let top = task.top_set(kind).unwrap().unwrap();
            assert!(task.qrd(kind, top.0).unwrap());
            assert!(!task.qrd(kind, top.0 + Ratio::new(1, 100)).unwrap());
        }
    }

    #[test]
    fn drp_accepts_top_set_at_rank_one() {
        let task = setup();
        for kind in ObjectiveKind::ALL {
            let (_, tuples) = task.top_set(kind).unwrap().unwrap();
            assert!(task.drp(kind, &tuples, 1).unwrap(), "{kind}");
        }
    }

    #[test]
    fn drp_rejects_non_candidates() {
        let task = setup();
        // Tuple excluded by the query (score 0).
        let bogus = vec![
            Tuple::new(vec![Value::int(6), Value::str("c"), Value::int(0)]),
            Tuple::new(vec![Value::int(1), Value::str("a"), Value::int(5)]),
            Tuple::new(vec![Value::int(2), Value::str("a"), Value::int(4)]),
        ];
        assert!(matches!(
            task.drp(ObjectiveKind::MaxSum, &bogus, 1),
            Err(PipelineError::NotACandidateSet)
        ));
        // Wrong cardinality.
        let short = vec![Tuple::new(vec![
            Value::int(1),
            Value::str("a"),
            Value::int(5),
        ])];
        assert!(matches!(
            task.drp(ObjectiveKind::MaxSum, &short, 1),
            Err(PipelineError::NotACandidateSet)
        ));
    }

    #[test]
    fn rdc_counts_match_between_routes() {
        let task = setup();
        let p = task.prepare().unwrap();
        for b in 0..10 {
            let bound = Ratio::int(b);
            assert_eq!(
                task.rdc(ObjectiveKind::Mono, bound).unwrap(),
                counting::rdc_naive(&p, ObjectiveKind::Mono, bound)
            );
        }
    }

    #[test]
    fn constrained_route_end_to_end() {
        use crate::constraints::CmPred;
        let task = setup();
        // Picking any category-'a' item requires some category-'b' item.
        let c = Constraint::builder()
            .forall(1)
            .exists(1)
            .premise(CmPred::attr_eq_const(0, 1, "a"))
            .conclusion(CmPred::attr_eq_const(1, 1, "b"))
            .build();
        let cs = vec![c];
        let top = task
            .top_set_constrained(ObjectiveKind::MaxSum, &cs)
            .unwrap()
            .unwrap();
        assert!(task.qrd_constrained(ObjectiveKind::MaxSum, top.0, &cs).unwrap());
        assert!(task
            .drp_constrained(ObjectiveKind::MaxSum, &top.1, 1, &cs)
            .unwrap());
        let unconstrained_count = task.rdc(ObjectiveKind::MaxSum, Ratio::ZERO).unwrap();
        let constrained_count = task
            .rdc_constrained(ObjectiveKind::MaxSum, Ratio::ZERO, &cs)
            .unwrap();
        assert!(constrained_count < unconstrained_count);
    }

    #[test]
    fn adaptive_preparation_escalates_by_universe_size() {
        use crate::distance::NumericDistance;
        // Small universe: full-matrix engine.
        let small = setup();
        let prepared = small.prepare_adaptive(3).unwrap();
        assert!(!prepared.is_coreset());
        // Above the threshold: coreset path, same serving surface.
        let n = (super::CORESET_AUTO_THRESHOLD + 100) as i64;
        let mut db = Database::new();
        db.create_relation("items", &["id", "score"]).unwrap();
        for i in 0..n {
            db.insert("items", vec![Value::int(i), Value::int(i % 97)])
                .unwrap();
        }
        let big = QueryDiversification::new(
            db,
            parse_query("Q(id, score) :- items(id, score)").unwrap(),
            Box::new(AttributeRelevance {
                attr: 1,
                default: Ratio::ZERO,
            }),
            Box::new(NumericDistance {
                attr: 0,
                fallback: Ratio::ZERO,
            }),
            Ratio::new(1, 2),
            5,
        );
        let prepared = big.prepare_adaptive(5).unwrap();
        assert!(prepared.is_coreset());
        assert_eq!(prepared.n(), n as usize);
        let answers = big
            .serve_batch(&[EngineRequest {
                kind: ObjectiveKind::MaxMin,
                k: 5,
            }])
            .unwrap();
        let (value, tuples) = answers[0].as_ref().expect("feasible");
        assert_eq!(tuples.len(), 5);
        assert!(*value > Ratio::ZERO);
    }

    #[test]
    fn query_errors_propagate() {
        let db = Database::new();
        let q = parse_query("Q(x) :- missing(x)").unwrap();
        let task = QueryDiversification::new(
            db,
            q,
            Box::new(AttributeRelevance {
                attr: 0,
                default: Ratio::ZERO,
            }),
            Box::new(HammingDistance::default()),
            Ratio::ZERO,
            1,
        );
        assert!(matches!(
            task.qrd(ObjectiveKind::MaxSum, Ratio::ZERO),
            Err(PipelineError::Query(_))
        ));
    }
}
