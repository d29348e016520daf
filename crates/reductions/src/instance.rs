//! The common carrier for reduced diversification instances.

use divr_core::distance::Distance;
use divr_core::problem::{DiversityProblem, ObjectiveKind};
use divr_core::ratio::Ratio;
use divr_core::relevance::Relevance;
use divr_paper::solvers::{counting, exact};
use divr_relquery::{Database, Query, Tuple};

/// A diversification instance `(D, Q, δ_rel, δ_dis, λ, k, B)` produced by
/// one of the paper's reductions.
pub struct Instance {
    /// The constructed database `D`.
    pub db: Database,
    /// The constructed query `Q`.
    pub query: Query,
    /// The constructed relevance function.
    pub rel: Box<dyn Relevance>,
    /// The constructed distance function.
    pub dis: Box<dyn Distance>,
    /// The trade-off parameter chosen by the reduction.
    pub lambda: Ratio,
    /// The candidate-set size `k`.
    pub k: usize,
    /// The bound `B` (for QRD and RDC).
    pub bound: Ratio,
}

impl Instance {
    /// Evaluates `Q(D)` and assembles the in-memory problem.
    ///
    /// Panics if the constructed query fails to evaluate — reductions
    /// build both `D` and `Q`, so failure is a construction bug.
    pub fn problem(&self) -> DiversityProblem<'_> {
        let result = self
            .query
            .eval(&self.db)
            .expect("reduction-built query must evaluate");
        let universe: Vec<Tuple> = result.tuples().to_vec();
        DiversityProblem::new(universe, &self.rel, &self.dis, self.lambda, self.k)
    }

    /// Answers QRD on this instance with the exact solver.
    pub fn qrd(&self, kind: ObjectiveKind) -> bool {
        exact::qrd(&self.problem(), kind, self.bound)
    }

    /// Answers RDC on this instance with the exact counter.
    pub fn rdc(&self, kind: ObjectiveKind) -> u128 {
        counting::rdc(&self.problem(), kind, self.bound)
    }

    /// Answers DRP for a candidate set given as tuples.
    ///
    /// Panics if `candidate` is not a candidate set — reductions construct
    /// the candidate themselves.
    pub fn drp(&self, kind: ObjectiveKind, candidate: &[Tuple], r: u128) -> bool {
        let p = self.problem();
        let subset = p
            .indices_of(candidate)
            .expect("reduction-built candidate must lie in Q(D)");
        exact::drp(&p, kind, &subset, r)
    }
}
