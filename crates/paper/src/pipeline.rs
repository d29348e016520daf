//! End-to-end query result diversification: from `(D, Q, δ_rel, δ_dis, λ, k)`
//! to answers for QRD, DRP and RDC.
//!
//! This is the integrated two-step pipeline the paper analyses: evaluate
//! `Q(D)`, then solve the diversification problem over it — with the
//! solver chosen per objective to match the paper's upper bounds
//! (`F_mono` routes to the PTIME algorithms of Theorems 5.4/6.4 and the
//! sum DP; `F_MS`/`F_MM` to the exact search; constrained variants to the
//! Section 9 searches).
//!
//! This is the analysis path only: exact, and exponential where the
//! paper says the problem is. It prepares no engine — heuristic serving
//! of a `(D, Q)` instance goes through `divr-server`'s `QueryFrontDoor`.

use crate::constraints::Constraint;
use crate::solvers::{constrained, counting, exact, mono};
use divr_core::distance::Distance;
use divr_core::problem::{DiversityProblem, ObjectiveKind};
use divr_core::ratio::Ratio;
use divr_core::relevance::Relevance;
use divr_relquery::{Database, Query, Tuple};
use std::fmt;

/// A boxed relevance function usable from worker threads.
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

/// A fully configured diversification task over a database and query.
pub struct QueryDiversification {
    db: Database,
    query: Query,
    rel: SharedRelevance,
    dis: SharedDistance,
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
            rel,
            dis,
            lambda,
            k,
        }
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
    use divr_core::distance::HammingDistance;
    use divr_core::relevance::AttributeRelevance;
    use divr_relquery::Value;
    use divr_relquery::parser::parse_query;

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
