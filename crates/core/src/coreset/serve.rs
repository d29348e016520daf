//! [`CoresetEngine`]: solve on the `m × m` sub-universe, map back,
//! optionally refine over the full universe, re-score exactly.

use super::{CoresetConfig, PreparedCoreset};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::{argmax_with_ties, Engine, EngineRequest, ServeError, SolveScratch};
use crate::problem::ObjectiveKind;
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::sync::Arc;

/// Serves diversification requests against a [`PreparedCoreset`]:
/// heuristics run on the `m × m` matrix, answers come back as
/// full-universe index sets with **exact full-universe objective
/// values**. See the module docs for the quality contract.
pub struct CoresetEngine {
    prepared: Arc<PreparedCoreset>,
    threads: usize,
    deadline: Deadline,
}

impl CoresetEngine {
    /// Prepares a coreset engine in one go (see
    /// [`PreparedCoreset::build_shared`] for the cost breakdown).
    pub fn new(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
    ) -> Self {
        let threads = config.threads.max(1);
        Self::from_prepared(
            Arc::new(PreparedCoreset::build_shared(universe, rel, dis, lambda, config)),
            threads,
        )
    }

    /// Wraps already-prepared (possibly cached and shared) coreset
    /// state. Costs one `Arc` clone — the cache-hit path.
    pub fn from_prepared(prepared: Arc<PreparedCoreset>, threads: usize) -> Self {
        CoresetEngine {
            prepared,
            threads: threads.max(1),
            deadline: Deadline::none(),
        }
    }

    /// Attaches a cooperative [`Deadline`], checked between the
    /// coreset-local solver rounds and between refinement rounds (same
    /// contract as [`Engine::with_deadline`]): a tripped deadline fails
    /// [`CoresetEngine::serve_into`] with
    /// [`ServeError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The shared prepared state this engine serves from.
    pub fn prepared(&self) -> &Arc<PreparedCoreset> {
        &self.prepared
    }

    /// Full-universe size `n`.
    pub(crate) fn n(&self) -> usize {
        self.prepared.n()
    }

    /// Coreset size `m` — also the largest servable `k`.
    pub fn m(&self) -> usize {
        self.prepared.m()
    }

    /// Exact objective value of a full-universe index set under
    /// **full-universe semantics**: `F_MS`/`F_MM` read the set's own
    /// relevances and pairwise distances through the exact oracle;
    /// `F_mono`'s diversity term averages each member's distance over
    /// all `n` universe items (Section 3.2) — `O(k)` from the memoized
    /// key-column sums (`O(n log n)` once), `O(n·k)` exact distance
    /// evaluations over an oracle without a column: the price of an
    /// honest mono score without the `n × n` matrix.
    pub fn objective_exact_full(&self, kind: ObjectiveKind, subset: &[usize]) -> Ratio {
        self.prepared
            .exact()
            .value(kind, subset, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// [`CoresetEngine::serve_into`] with freshly allocated scratch and
    /// output buffers: the exact full-universe objective value with the
    /// chosen full-universe indices.
    pub fn try_serve(&self, request: EngineRequest) -> Result<(Ratio, Vec<usize>), ServeError> {
        let mut out = Vec::new();
        let value = self.serve_into(request, &mut SolveScratch::new(), &mut out)?;
        Ok((value, out))
    }

    /// Serves one request: solve on the coreset matrix (in the
    /// scratch, shared with the full engine's solvers), map the
    /// representatives back to full-universe indices **in place** in
    /// `out`, optionally refine, and return the exact full-universe
    /// objective value.
    ///
    /// This is the single place a coreset request is classified, from
    /// the prepared dimensions before any clock is read: `k > n` is
    /// [`ServeError::InfeasibleK`] (infeasible anywhere), `n ≥ k > m`
    /// is [`ServeError::ExceedsCoresetBudget`] (servable after
    /// re-preparing with a larger budget — size it via
    /// [`CoresetConfig::recommended`]); only a feasible solve abandoned
    /// at a [`Deadline`] checkpoint is [`ServeError::DeadlineExceeded`].
    ///
    /// Allocation-free in steady state. Refinement rounds (if
    /// configured) still allocate their own float caches — they are an
    /// explicitly opted-in `O(n·k)`-per-round polish, not the
    /// steady-state path.
    pub fn serve_into(
        &self,
        request: EngineRequest,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> Result<Ratio, ServeError> {
        let p = &*self.prepared;
        let (k, n, m) = (request.k, p.n(), p.m());
        if k > n {
            return Err(ServeError::InfeasibleK { k, n });
        }
        if k > m {
            return Err(ServeError::ExceedsCoresetBudget { k, m, n });
        }
        Engine::from_prepared(p.sub.clone(), self.threads)
            .with_deadline(self.deadline)
            .solve_into(request, scratch, out)?;
        for local in out.iter_mut() {
            *local = p.coreset.indices[*local];
        }
        if request.kind != ObjectiveKind::Mono {
            for _ in 0..p.config.refine_rounds {
                // Deadline checkpoint: a refinement round is O(n·k)
                // oracle calls. The answer so far is a valid feasible
                // set, but serving semantics are all-or-nothing — a
                // request that missed its deadline gets the typed
                // error, not a silently less-refined answer.
                self.deadline.check()?;
                if !self.refine_round(request.kind, out) {
                    break;
                }
            }
        }
        p.exact().value(request.kind, out, self.deadline)
    }

    /// One full-universe refinement round for `F_MS`/`F_MM`: scan every
    /// (candidate, position) swap with float arithmetic (`O(n·k)`
    /// oracle calls), verify the best near-ties exactly, and apply the
    /// best strictly improving swap. Returns whether the set changed.
    fn refine_round(&self, kind: ObjectiveKind, chosen: &mut [usize]) -> bool {
        let p = &*self.prepared;
        let n = p.universe.len();
        let k = chosen.len();
        if k == 0 || k >= n {
            return false;
        }
        let lam = p.lambda.to_f64();
        let one_minus = (Ratio::ONE - p.lambda).to_f64();
        // Float caches over the current set.
        let crel: Vec<f64> = chosen.iter().map(|&i| p.rel_f[i]).collect();
        let cdist: Vec<Vec<f64>> = chosen
            .iter()
            .map(|&i| {
                chosen
                    .iter()
                    .map(|&j| p.dis.dist_f64(&p.universe[i], &p.universe[j]))
                    .collect()
            })
            .collect();
        let rel_sum: f64 = crel.iter().sum();
        let row_sums: Vec<f64> = cdist.iter().map(|row| row.iter().sum()).collect();
        let pair_sum: f64 = row_sums.iter().sum::<f64>() / 2.0;
        let current_f = match kind {
            ObjectiveKind::MaxSum => one_minus * (k as f64 - 1.0) * rel_sum + lam * 2.0 * pair_sum,
            ObjectiveKind::MaxMin => {
                let min_rel = crel.iter().fold(f64::INFINITY, |a, &b| a.min(b));
                let mut min_dis = f64::INFINITY;
                for (a, row) in cdist.iter().enumerate() {
                    for &d in &row[a + 1..] {
                        min_dis = min_dis.min(d);
                    }
                }
                if min_dis == f64::INFINITY {
                    min_dis = 0.0;
                }
                one_minus * min_rel + lam * min_dis
            }
            ObjectiveKind::Mono => return false,
        };
        let chosen_ref: &[usize] = chosen;
        // Best trial value over all positions for candidate t (float).
        let best_for = |t: usize| -> Option<f64> {
            if chosen_ref.contains(&t) {
                return None;
            }
            let dt: Vec<f64> = chosen_ref
                .iter()
                .map(|&s| p.dis.dist_f64(&p.universe[t], &p.universe[s]))
                .collect();
            let dt_sum: f64 = dt.iter().sum();
            let mut best: Option<f64> = None;
            for pos in 0..k {
                let v = match kind {
                    ObjectiveKind::MaxSum => {
                        let rel_sum2 = rel_sum - crel[pos] + p.rel_f[t];
                        let pair_sum2 =
                            pair_sum - (row_sums[pos] - cdist[pos][pos]) + (dt_sum - dt[pos]);
                        one_minus * (k as f64 - 1.0) * rel_sum2 + lam * 2.0 * pair_sum2
                    }
                    ObjectiveKind::MaxMin => {
                        let mut min_rel = p.rel_f[t];
                        let mut min_dis = f64::INFINITY;
                        for a in 0..k {
                            if a == pos {
                                continue;
                            }
                            min_rel = min_rel.min(crel[a]);
                            min_dis = min_dis.min(dt[a]);
                            for (b, &d) in cdist[a].iter().enumerate().skip(a + 1) {
                                if b != pos {
                                    min_dis = min_dis.min(d);
                                }
                            }
                        }
                        if min_dis == f64::INFINITY {
                            min_dis = 0.0;
                        }
                        one_minus * min_rel + lam * min_dis
                    }
                    ObjectiveKind::Mono => unreachable!("filtered above"),
                };
                if best.is_none_or(|b| v > b) {
                    best = Some(v);
                }
            }
            best.filter(|&v| v > current_f - 1e-9)
        };
        let Some(ties) = argmax_with_ties(n, self.threads, k * k, &best_for) else {
            return false;
        };
        // Exact verification: score each near-tie candidate once by its
        // best exact trial value, prefer the lowest candidate index on
        // exact ties (the engine's rule; `ties` is already ascending),
        // and apply only a strict improvement.
        let current_exact = self.objective_exact_full(kind, chosen);
        let exact_best_of = |t: usize| -> (Ratio, usize) {
            let mut best = (Ratio::ZERO, usize::MAX);
            for pos in 0..k {
                let mut trial = chosen_ref.to_vec();
                trial[pos] = t;
                let v = self.objective_exact_full(kind, &trial);
                if best.1 == usize::MAX || v > best.0 {
                    best = (v, pos);
                }
            }
            best
        };
        let mut winner: Option<(usize, Ratio, usize)> = None; // (t, value, pos)
        for tie in &ties {
            let (value, pos) = exact_best_of(tie.index);
            if winner.as_ref().is_none_or(|(_, best, _)| value > *best) {
                winner = Some((tie.index, value, pos));
            }
        }
        let (t, value, pos) = winner.expect("ties is non-empty");
        if value > current_exact {
            chosen[pos] = t;
            chosen.sort_unstable();
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for CoresetEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoresetEngine")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixtures::{line_universe, DIS, REL};

    fn dis() -> Arc<dyn Distance + Send + Sync> {
        Arc::new(DIS)
    }

    #[test]
    fn engine_equals_full_engine_when_budget_covers_universe() {
        let u = line_universe(18);
        let lambda = Ratio::new(1, 2);
        let full = Engine::with_threads(u.clone(), &REL, dis(), lambda, 2);
        let cs = CoresetEngine::new(
            u,
            &REL,
            dis(),
            lambda,
            &CoresetConfig::with_budget(18).with_threads(2),
        );
        for kind in ObjectiveKind::ALL {
            for k in [1, 3, 5] {
                let req = EngineRequest { kind, k };
                let (fv, fset) = full.try_serve(req).unwrap();
                let (cv, cset) = cs.try_serve(req).unwrap();
                assert_eq!(fset, cset, "{kind} k={k}");
                assert_eq!(fv, cv, "{kind} k={k}");
            }
        }
    }

    #[test]
    fn serve_reports_exact_full_value() {
        let cs = CoresetEngine::new(
            line_universe(60),
            &REL,
            dis(),
            Ratio::new(1, 3),
            &CoresetConfig::with_budget(16).with_threads(2),
        );
        for kind in ObjectiveKind::ALL {
            let (v, set) = cs.try_serve(EngineRequest { kind, k: 4 }).unwrap();
            assert_eq!(v, cs.objective_exact_full(kind, &set), "{kind}");
            assert_eq!(set.len(), 4);
        }
    }

    #[test]
    fn refinement_never_lowers_the_exact_value() {
        let u = line_universe(80);
        let lambda = Ratio::new(2, 3);
        let plain = CoresetEngine::new(
            u.clone(),
            &REL,
            dis(),
            lambda,
            &CoresetConfig::with_budget(12).with_threads(2),
        );
        let refined = CoresetEngine::new(
            u,
            &REL,
            dis(),
            lambda,
            &CoresetConfig::with_budget(12).with_threads(2).refine(3),
        );
        for kind in [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin] {
            let req = EngineRequest { kind, k: 5 };
            let (pv, _) = plain.try_serve(req).unwrap();
            let (rv, rset) = refined.try_serve(req).unwrap();
            assert!(rv >= pv, "{kind}: refinement regressed {rv} < {pv}");
            assert_eq!(rv, refined.objective_exact_full(kind, &rset));
        }
    }

    #[test]
    fn try_serve_distinguishes_budget_from_universe() {
        let cs = CoresetEngine::new(
            line_universe(30),
            &REL,
            dis(),
            Ratio::ONE,
            &CoresetConfig::with_budget(8),
        );
        assert_eq!(
            cs.try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 9 }),
            Err(ServeError::ExceedsCoresetBudget { k: 9, m: 8, n: 30 })
        );
        assert_eq!(
            cs.try_serve(EngineRequest { kind: ObjectiveKind::MaxMin, k: 31 }),
            Err(ServeError::InfeasibleK { k: 31, n: 30 })
        );
        assert!(cs.try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 8 }).is_ok());
    }
}
