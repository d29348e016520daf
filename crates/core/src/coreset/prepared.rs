//! [`PreparedCoreset`]: the owned, shareable prepared state of the
//! coreset path, and its incremental maintenance under deltas.

use super::{Coreset, CoresetConfig};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::{
    score_relevance, tuple_approx_bytes, PreparedUniverse, ScoreSource, ServeError,
};
use crate::mono_exact::{ExactView, MonoSums};
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::sync::Arc;

/// The owned, shareable prepared state of the coreset serving path:
/// full-universe tuples and `O(n)` relevance caches, the selected
/// [`Coreset`], and an `m × m` [`PreparedUniverse`] over the
/// representatives. This is the unit a byte-budgeted cache stores for
/// large universes — [`PreparedCoreset::approx_bytes`] charges `m²`
/// floats plus `O(n)` bookkeeping, never `n²`.
pub struct PreparedCoreset {
    pub(super) universe: Vec<Tuple>,
    pub(super) dis: Arc<dyn Distance + Send + Sync>,
    pub(super) rel_exact: Vec<Ratio>,
    pub(super) rel_f: Vec<f64>,
    pub(super) lambda: Ratio,
    pub(super) config: CoresetConfig,
    pub(super) coreset: Coreset,
    pub(super) sub: Arc<PreparedUniverse>,
    // Exact full-universe distance sums for the `F_mono` re-score, when
    // the oracle is a key column: built by the first mono request,
    // repaired per insert, dropped by a removal.
    pub(super) mono_sums: MonoSums,
}

/// A prepared coreset shareable across threads and cache entries.
pub type SharedCoreset = Arc<PreparedCoreset>;

impl PreparedCoreset {
    /// [`PreparedCoreset::try_build_shared_deadline`] with
    /// [`Deadline::none`]: the infallible form for callers that prepare
    /// outside any request, with oracles they trust to be finite.
    pub fn build_shared(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
    ) -> PreparedCoreset {
        Self::try_build_shared_deadline(universe, rel, dis, lambda, config, Deadline::none())
            .expect("unbounded deadline, finite distances")
    }

    /// Prepares the coreset path over a materialized universe:
    /// evaluates relevance once (`O(n)`), selects the coreset
    /// (`O(n·m)` distances), and builds the `m × m` matrix over the
    /// representatives. Never allocates `n × n`.
    ///
    /// The relevance pass, the selection (checked per Gonzalez
    /// iteration), and the `m × m` sub-universe matrix build (checked
    /// per row) all poll `deadline`, so an expensive prepare is
    /// abandoned with [`ServeError::DeadlineExceeded`] within one
    /// `O(n)` slice instead of running to completion. A refused prepare
    /// leaves nothing behind.
    ///
    /// Panics if `λ ∉ [0, 1]`.
    pub fn try_build_shared_deadline(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
        deadline: Deadline,
    ) -> Result<PreparedCoreset, ServeError> {
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        let threads = config.threads.max(1);
        let rel_exact = score_relevance(&universe, rel, deadline)?;
        let rel_f: Vec<f64> = rel_exact.iter().map(Ratio::to_f64).collect();
        let coreset = Coreset::try_select_deadline(
            &universe,
            &rel_exact,
            &*dis,
            config.budget,
            threads,
            deadline,
        )?;
        let sub = Self::try_build_sub(&universe, &rel_exact, &coreset, &dis, lambda, threads, deadline)?;
        Ok(PreparedCoreset {
            universe,
            dis,
            rel_exact,
            rel_f,
            lambda,
            config: *config,
            coreset,
            sub,
            mono_sums: MonoSums::default(),
        })
    }

    /// The `m × m` prepared universe over `coreset`'s representatives,
    /// reusing the relevance scores already evaluated for the full
    /// universe (identical values, and no second pass over a possibly
    /// expensive oracle).
    fn try_build_sub(
        universe: &[Tuple],
        rel_exact: &[Ratio],
        coreset: &Coreset,
        dis: &Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
        deadline: Deadline,
    ) -> Result<Arc<PreparedUniverse>, ServeError> {
        let indices = coreset.indices();
        Ok(Arc::new(PreparedUniverse::try_from_scores(
            indices.iter().map(|&i| universe[i].clone()).collect(),
            indices.iter().map(|&i| rel_exact[i]).collect(),
            dis.clone(),
            lambda,
            threads,
            deadline,
        )?))
    }

    /// Full-universe size `n`.
    pub(crate) fn n(&self) -> usize {
        self.universe.len()
    }

    /// Coreset size `m`.
    pub fn m(&self) -> usize {
        self.coreset.m()
    }

    /// The materialized full universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// The selected coreset.
    pub fn coreset(&self) -> &Coreset {
        &self.coreset
    }

    /// The `m × m` prepared universe over the representatives.
    pub fn sub(&self) -> &Arc<PreparedUniverse> {
        &self.sub
    }

    /// Appends `tuple` (with its already-evaluated exact relevance) and
    /// maintains the coreset **incrementally**, reusing the Gonzalez
    /// k-center structure — a new point either fits the current coverage
    /// or earns a representative slot:
    ///
    /// * **budget open** (`m < budget`, so the coreset is the identity):
    ///   the new item becomes a representative outright — the `m × m`
    ///   sub-universe grows by one row via
    ///   [`PreparedUniverse::insert_tuple`] (`O(m)` oracle calls).
    /// * **inside coverage** (`min_p δ(x, rep_p) ≤ covering_radius`):
    ///   the item is absorbed — assigned to its nearest representative,
    ///   `O(m)` oracle calls, sub-universe untouched.
    /// * **outside coverage**: the item *displaces* the representative
    ///   nearest to it (swap-remove on the sub-universe, then an `O(n)`
    ///   re-homing pass) — the classical "far point becomes a center"
    ///   rule. The orphans move to the new item, so their coverage
    ///   distances become upper bounds.
    ///
    /// Unlike the full-matrix engine's deltas this is **not**
    /// bit-identical to a fresh [`Coreset::select`] over the grown
    /// universe (selection order is history-dependent, and the
    /// ascending-indices invariant is relaxed once a displacement
    /// occurs); the contract is the measured quality-factor bound that
    /// `tests/coreset_matches_engine.rs` pins, and the 2× cover that
    /// [`PreparedVariant::patch`](crate::PreparedVariant::patch) holds.
    pub fn insert_tuple(&mut self, tuple: Tuple, rel: Ratio) {
        let x = self.universe.len();
        let m = self.coreset.m();
        self.mono_sums.repair_insert(&*self.dis, &tuple);
        if m < self.config.budget.max(1) || m == 0 {
            // Budget open: x becomes representative m.
            debug_assert_eq!(m, x, "an open budget means an identity coreset");
            self.sub_mut().insert_tuple(tuple.clone(), rel);
            self.coreset.indices.push(x);
            self.coreset.assignment.push(m);
            self.coreset.nearest.push(0.0);
        } else {
            // Distances from the new item to every representative.
            let (p_near, d_min) = self
                .coreset
                .indices
                .iter()
                .map(|&r| self.dis.dist_f64(&self.universe[r], &tuple))
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("m ≥ 1 representatives");
            if d_min <= self.coreset.covering_radius {
                // Inside coverage: absorb under the nearest rep.
                self.coreset.assignment.push(p_near);
                self.coreset.nearest.push(d_min);
            } else {
                // Outside coverage: x displaces its nearest rep. The
                // sub-universe swap-removes position p_near (the last
                // rep moves there) and appends x at position m − 1.
                let sub = self.sub_mut();
                sub.remove_tuple(p_near).expect("p_near < m");
                sub.insert_tuple(tuple.clone(), rel);
                self.coreset.indices.swap_remove(p_near);
                self.coreset.indices.push(x);
                let last = m - 1;
                for i in 0..x {
                    // Mirror the position swap, re-home the orphans of
                    // the displaced rep to x, and let anyone closer to
                    // x move over.
                    let d = self.dis.dist_f64(&self.universe[i], &tuple);
                    let asg = self.coreset.assignment[i];
                    if asg == last && p_near != last {
                        self.coreset.assignment[i] = p_near;
                    } else if asg == p_near {
                        self.coreset.assignment[i] = last;
                        self.coreset.nearest[i] = d;
                    }
                    if d < self.coreset.nearest[i] {
                        self.coreset.nearest[i] = d;
                        self.coreset.assignment[i] = last;
                    }
                }
                self.coreset.assignment.push(last);
                self.coreset.nearest.push(0.0);
            }
        }
        self.coreset.covering_radius = self
            .coreset
            .nearest
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        self.universe.push(tuple);
        self.rel_exact.push(rel);
        self.rel_f.push(rel.to_f64());
    }

    /// Mutable access to the sub-universe, copy-on-write: if the `Arc`
    /// is shared (an engine or cache still holds the pre-delta state),
    /// the prepared sub-universe is forked — preambles included — so
    /// existing readers keep serving the old version untouched.
    fn sub_mut(&mut self) -> &mut PreparedUniverse {
        if Arc::get_mut(&mut self.sub).is_none() {
            self.sub = Arc::new(self.sub.fork());
        }
        Arc::get_mut(&mut self.sub).expect("sole owner after fork")
    }

    /// Approximate heap footprint in bytes — what a byte-budgeted cache
    /// charges for this entry: the `m²` sub-matrix and its coreset
    /// tuples (via the sub-universe's own accounting, which also counts
    /// the retained oracle once), plus the full universe's tuples,
    /// `O(n)` relevance caches, the coverage assignment with its
    /// per-item distances, and the exact mono distance sums (populated
    /// by the first `F_mono` request, charged up front).
    pub fn approx_bytes(&self) -> usize {
        let n = self.universe.len();
        let tuples: usize = self
            .universe
            .iter()
            .map(tuple_approx_bytes)
            .sum();
        self.sub.approx_bytes()
            + tuples
            + n * (std::mem::size_of::<Ratio>()
                + 2 * std::mem::size_of::<f64>()
                + std::mem::size_of::<usize>()
                + MonoSums::BYTES_PER_ITEM)
            + self.coreset.indices.len() * std::mem::size_of::<usize>()
    }

    /// Validates every cached float the coreset serving path consumes:
    /// the `O(n)` relevance cache and the `m × m` representative matrix
    /// (via [`PreparedUniverse::check_finite`]). Serving layers call
    /// this at prepare time and refuse the universe with the typed
    /// [`ServeError::NonFiniteScore`] diagnosis instead of letting
    /// `NaN`/`±∞` scores silently mis-select in the argmax rounds.
    /// Relevance indices in the diagnosis are full-universe indices;
    /// distance indices refer to the representative sub-universe.
    pub fn check_finite(&self) -> Result<(), ServeError> {
        if let Some(i) = self.rel_f.iter().position(|r| !r.is_finite()) {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        self.sub.check_finite()
    }

    /// The memoized exact full-universe distance sums
    /// `Σ_j δ_dis(t_i, t_j)`, if populated (`Some(None)` = the oracle
    /// offers no usable [`Distance::key_column`]).
    pub fn mono_sums_preamble(&self) -> Option<Option<&[i128]>> {
        self.mono_sums.peek()
    }

    /// The borrowed view every exact score over the **full** universe
    /// goes through — the same [`ExactView`] the full-matrix engine
    /// re-scores with.
    pub(crate) fn exact(&self) -> ExactView<'_> {
        ExactView {
            lambda: self.lambda,
            rel_exact: &self.rel_exact,
            universe: &self.universe,
            dis: &*self.dis,
            sums: &self.mono_sums,
        }
    }

    /// [`PreparedCoreset::check_finite`] restricted to what
    /// [`PreparedCoreset::insert_tuple`] cached for full-universe item
    /// `i`: its relevance score and, if it holds a representative slot,
    /// its row of the `m × m` matrix. `O(m)`.
    pub(crate) fn check_finite_item(&self, i: usize) -> Result<(), ServeError> {
        if !self.rel_f[i].is_finite() {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        match self.coreset.indices.iter().position(|&r| r == i) {
            Some(pos) => self.sub.check_finite_item(pos),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for PreparedCoreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedCoreset")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("lambda", &self.lambda)
            .field("covering_radius", &self.coreset.covering_radius)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreset::CoresetEngine;
    use crate::engine::fixtures::{line_universe, DIS, REL};
    use crate::engine::EngineRequest;
    use crate::problem::ObjectiveKind;

    fn dis() -> Arc<dyn Distance + Send + Sync> {
        Arc::new(DIS)
    }

    #[test]
    fn streamed_inserts_keep_coverage_invariants() {
        let mut u = line_universe(40);
        let mut pc = PreparedCoreset::build_shared(
            u.clone(),
            &REL,
            dis(),
            Ratio::new(1, 2),
            &CoresetConfig::with_budget(10).with_threads(1),
        );
        for i in 0..25i64 {
            let t = Tuple::ints([200 + 17 * i, i % 5]);
            pc.insert_tuple(t.clone(), REL.rel(&t));
            u.push(t);
            // Structural invariants after every insert.
            assert_eq!(pc.n(), u.len());
            assert_eq!(pc.m(), 10);
            let c = pc.coreset();
            assert_eq!(c.assignment.len(), pc.n());
            let mut reps = c.indices().to_vec();
            reps.sort_unstable();
            reps.dedup();
            assert_eq!(reps.len(), 10, "duplicate representative");
            assert!(reps.iter().all(|&r| r < pc.n()));
            for i in 0..pc.n() {
                assert!(c.rep_of(i) < 10);
                assert!(c.nearest[i] <= c.covering_radius() + 1e-12);
            }
            // Every representative represents itself at distance 0.
            for (pos, &r) in c.indices().iter().enumerate() {
                assert_eq!(c.rep_of(r), pos, "rep {r} not self-assigned");
                assert_eq!(c.nearest[r], 0.0);
            }
        }
        // The streamed engine still serves well-formed answers.
        let e = CoresetEngine::from_prepared(Arc::new(pc), 1);
        for kind in ObjectiveKind::ALL {
            let (v, set) = e.try_serve(EngineRequest { kind, k: 5 }).unwrap();
            assert_eq!(set.len(), 5);
            assert_eq!(v, e.objective_exact_full(kind, &set), "{kind}");
            assert!(set.iter().all(|&i| i < u.len()));
        }
    }

    #[test]
    fn bytes_scale_with_m_squared_not_n_squared() {
        let n = 2000;
        let cs = PreparedCoreset::build_shared(
            line_universe(n),
            &REL,
            dis(),
            Ratio::new(1, 2),
            &CoresetConfig::with_budget(64),
        );
        // The full matrix alone would be n²·8 = 32 MB; the coreset
        // entry must be well under a tenth of that.
        assert!(cs.approx_bytes() < (n as usize * n as usize * 8) / 10);
        assert_eq!(cs.m(), 64);
        assert_eq!(cs.n(), n as usize);
    }
}
