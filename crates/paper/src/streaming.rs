//! Streaming diversification — the "embed diversification in query
//! evaluation" direction the paper's introduction motivates (Section 1:
//! avoid computing all of `Q(D)` before picking a top set; also the
//! continuous setting of Drosou & Pitoura that the related work cites).
//!
//! [`StreamingDiversifier`] consumes result tuples one at a time and
//! maintains a current `k`-set by greedy insert/swap: a new tuple enters
//! if the set is not yet full, or if swapping it for some selected tuple
//! improves the objective. One pass costs `O(k)` distance evaluations per
//! tuple for `F_MS`/`F_MM` (amortized over swap attempts), and the
//! maintained value is monotone non-decreasing over the stream.
//!
//! `F_mono` is intentionally **not** supported: its diversity term
//! averages distances against the *entire* `Q(D)` (Section 3.2), so no
//! online rule can score a candidate without the full result — the
//! same structural fact that makes `F_mono` costly in combined
//! complexity (Theorem 5.2) makes it unstreamable.

use divr_core::distance::Distance;
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::Relevance;
use divr_relquery::Tuple;

/// One-pass greedy diversifier over a stream of result tuples.
///
/// Relevance values and pairwise distances of the *selected* set are
/// cached (and maintained across swaps), so each [`offer`] costs `O(k)`
/// calls into the relevance/distance oracles — one per selected tuple
/// for the incoming candidate — rather than re-evaluating `O(k³)` oracle
/// pairs per offered tuple. Objective values are still exact `Ratio`s;
/// the cache changes *where* they are computed, never *what*.
///
/// [`offer`]: StreamingDiversifier::offer
pub struct StreamingDiversifier<'a> {
    rel: &'a dyn Relevance,
    dis: &'a dyn Distance,
    kind: ObjectiveKind,
    lambda: Ratio,
    k: usize,
    selected: Vec<Tuple>,
    /// `sel_rel[i] = δ_rel(selected[i])`.
    sel_rel: Vec<Ratio>,
    /// Full symmetric distance cache among selected tuples:
    /// `sel_dist[i][j] = δ_dis(selected[i], selected[j])`.
    sel_dist: Vec<Vec<Ratio>>,
    /// Reusable candidate-distance buffer: once the selected set is
    /// full, every [`StreamingDiversifier::offer`] reuses this storage
    /// for the incoming tuple's `O(k)` distances instead of allocating
    /// a fresh vector per stream element.
    cand_dist: Vec<Ratio>,
    offered: usize,
    swaps: usize,
}

impl<'a> StreamingDiversifier<'a> {
    /// Creates a diversifier for `F_MS` or `F_MM`.
    ///
    /// Panics on `ObjectiveKind::Mono` (see module docs), `k = 0`, or
    /// `λ ∉ [0, 1]`.
    pub fn new(
        kind: ObjectiveKind,
        rel: &'a dyn Relevance,
        dis: &'a dyn Distance,
        lambda: Ratio,
        k: usize,
    ) -> Self {
        assert!(
            kind != ObjectiveKind::Mono,
            "F_mono needs the whole Q(D) and cannot be streamed (Section 3.2)"
        );
        assert!(k >= 1, "k must be positive");
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        StreamingDiversifier {
            rel,
            dis,
            kind,
            lambda,
            k,
            selected: Vec::with_capacity(k),
            sel_rel: Vec::with_capacity(k),
            sel_dist: Vec::with_capacity(k),
            cand_dist: Vec::with_capacity(k),
            offered: 0,
            swaps: 0,
        }
    }

    /// The objective value computed from cached relevances/distances,
    /// with position `out` (if any) replaced by the candidate whose
    /// relevance is `cand_rel` and whose cached distances to the
    /// selected tuples are `cand_dist`.
    fn value_with(
        &self,
        swap: Option<(usize, Ratio, &[Ratio])>,
    ) -> Ratio {
        let m = self.selected.len();
        let rel_at = |i: usize| match swap {
            Some((out, cand_rel, _)) if i == out => cand_rel,
            _ => self.sel_rel[i],
        };
        let dist_at = |i: usize, j: usize| match swap {
            Some((out, _, cand_dist)) if i == out => cand_dist[j],
            Some((out, _, cand_dist)) if j == out => cand_dist[i],
            _ => self.sel_dist[i][j],
        };
        match self.kind {
            ObjectiveKind::MaxSum => divr_core::problem::f_ms_from(m, self.lambda, rel_at, dist_at),
            ObjectiveKind::MaxMin => divr_core::problem::f_mm_from(m, self.lambda, rel_at, dist_at),
            ObjectiveKind::Mono => unreachable!("rejected at construction"),
        }
    }

    /// Appends a tuple to the selected set, extending the caches.
    fn push_selected(&mut self, t: Tuple, rel_t: Ratio, dist_t: Vec<Ratio>) {
        let m = self.selected.len();
        for (row, &d) in self.sel_dist.iter_mut().zip(&dist_t) {
            row.push(d);
        }
        let mut new_row = dist_t;
        new_row.push(Ratio::ZERO); // diagonal
        debug_assert_eq!(new_row.len(), m + 1);
        self.sel_dist.push(new_row);
        self.sel_rel.push(rel_t);
        self.selected.push(t);
    }

    /// Offers the next stream tuple. Returns `true` iff the maintained
    /// set changed. Duplicates of selected tuples are ignored (set
    /// semantics).
    ///
    /// # Example
    ///
    /// ```
    /// use divr_core::prelude::*;
    /// use divr_paper::StreamingDiversifier;
    /// use divr_relquery::Tuple;
    ///
    /// // Points on a line, λ = 1: only pairwise distance matters.
    /// let rel = ConstantRelevance(Ratio::ONE);
    /// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
    /// let mut s = StreamingDiversifier::new(
    ///     ObjectiveKind::MaxMin, &rel, &dis, Ratio::ONE, 2,
    /// );
    /// assert!(s.offer(Tuple::ints([0])));   // fills slot 1
    /// assert!(s.offer(Tuple::ints([1])));   // fills slot 2 → {0, 1}
    /// assert!(!s.offer(Tuple::ints([1])));  // duplicate: ignored
    /// assert!(s.offer(Tuple::ints([9])));   // improving swap → {0, 9}
    /// assert!(!s.offer(Tuple::ints([5])));  // no swap improves {0, 9}
    /// assert_eq!(s.value(), Ratio::int(9));
    /// assert_eq!(s.stats(), (5, 1));        // 5 offered, 1 swap
    /// ```
    pub fn offer(&mut self, t: Tuple) -> bool {
        self.offered += 1;
        if self.selected.contains(&t) {
            return false;
        }
        // The only oracle calls of this offer: δ_rel(t) and δ_dis(t, s)
        // for each currently selected s. The distance buffer is taken
        // from (and returned to) the diversifier's scratch storage, so
        // steady-state offers allocate nothing.
        let rel_t = self.rel.rel(&t);
        let mut dist_t = std::mem::take(&mut self.cand_dist);
        dist_t.clear();
        dist_t.extend(self.selected.iter().map(|s| self.dis.dist(s, &t)));
        if self.selected.len() < self.k {
            // The buffer becomes the new cache row (fill phase only —
            // at most k stolen buffers over the whole stream).
            self.push_selected(t, rel_t, dist_t);
            return true;
        }
        // Try the best single swap, from caches only.
        let current = self.value_with(None);
        let mut best: Option<(Ratio, usize)> = None;
        for out in 0..self.selected.len() {
            let v = self.value_with(Some((out, rel_t, &dist_t)));
            if v > current && best.is_none_or(|(b, _)| v > b) {
                best = Some((v, out));
            }
        }
        let changed = match best {
            Some((_, out)) => {
                self.selected[out] = t;
                self.sel_rel[out] = rel_t;
                for (j, &d) in dist_t.iter().enumerate() {
                    self.sel_dist[out][j] = d;
                    self.sel_dist[j][out] = d;
                }
                self.sel_dist[out][out] = Ratio::ZERO;
                self.swaps += 1;
                true
            }
            None => false,
        };
        self.cand_dist = dist_t;
        changed
    }

    /// Offers every tuple from an iterator.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.offer(t);
        }
    }

    /// The currently maintained set (size ≤ k; == k once the stream has
    /// produced k distinct tuples).
    pub fn current(&self) -> &[Tuple] {
        &self.selected
    }

    /// Whether a full candidate set has been assembled.
    pub fn is_full(&self) -> bool {
        self.selected.len() == self.k
    }

    /// The objective value of the current set.
    pub fn value(&self) -> Ratio {
        self.value_with(None)
    }

    /// Stream statistics: `(tuples offered, improving swaps)`.
    pub fn stats(&self) -> (usize, usize) {
        (self.offered, self.swaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use divr_core::distance::NumericDistance;
    use divr_core::problem::DiversityProblem;
    use divr_core::relevance::AttributeRelevance;

    const REL: AttributeRelevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    const DIS: NumericDistance = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };

    fn universe(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i * 7 % 23, i % 6])).collect()
    }

    #[test]
    fn fills_then_swaps() {
        let mut s = StreamingDiversifier::new(
            ObjectiveKind::MaxSum,
            &REL,
            &DIS,
            Ratio::new(1, 2),
            3,
        );
        for t in universe(10) {
            s.offer(t);
        }
        assert!(s.is_full());
        assert_eq!(s.current().len(), 3);
        let (offered, _) = s.stats();
        assert_eq!(offered, 10);
    }

    #[test]
    fn value_is_monotone_over_the_stream() {
        for kind in [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin] {
            let mut s =
                StreamingDiversifier::new(kind, &REL, &DIS, Ratio::new(1, 3), 3);
            let mut last = Ratio::ZERO;
            let mut was_full = false;
            for t in universe(14) {
                s.offer(t);
                if was_full {
                    assert!(s.value() >= last, "{kind}: value regressed");
                }
                if s.is_full() {
                    was_full = true;
                    last = s.value();
                }
            }
        }
    }

    #[test]
    fn never_exceeds_offline_optimum_and_is_competitive() {
        let u = universe(12);
        let p = DiversityProblem::new(u.clone(), &REL, &DIS, Ratio::new(1, 2), 3);
        for kind in [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin] {
            let (opt, _) = exact::maximize(&p, kind).unwrap();
            let mut s = StreamingDiversifier::new(kind, &REL, &DIS, Ratio::new(1, 2), 3);
            s.extend(u.iter().cloned());
            assert!(s.value() <= opt, "{kind}: streaming beat the optimum?!");
            assert!(
                s.value().scale(4) >= opt,
                "{kind}: streaming fell below ¼ of optimum ({} vs {opt})",
                s.value()
            );
        }
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut s =
            StreamingDiversifier::new(ObjectiveKind::MaxMin, &REL, &DIS, Ratio::ONE, 2);
        let t = Tuple::ints([1, 1]);
        assert!(s.offer(t.clone()));
        assert!(!s.offer(t));
        assert_eq!(s.current().len(), 1);
    }

    #[test]
    fn streaming_equals_offline_for_k1_maxmin() {
        // k = 1, F_MM = (1−λ)·rel: the stream keeps the most relevant
        // tuple, matching the offline optimum exactly.
        let u = universe(15);
        let p = DiversityProblem::new(u.clone(), &REL, &DIS, Ratio::ZERO, 1);
        let (opt, _) = exact::maximize(&p, ObjectiveKind::MaxMin).unwrap();
        let mut s = StreamingDiversifier::new(ObjectiveKind::MaxMin, &REL, &DIS, Ratio::ZERO, 1);
        s.extend(u);
        assert_eq!(s.value(), opt);
    }

    #[test]
    #[should_panic(expected = "cannot be streamed")]
    fn mono_rejected() {
        StreamingDiversifier::new(ObjectiveKind::Mono, &REL, &DIS, Ratio::ONE, 2);
    }

    #[test]
    fn order_independence_of_membership_not_required_but_size_is() {
        // Different stream orders may select different sets, but both
        // are full candidate sets with positive value on this workload.
        let u = universe(10);
        let mut fwd = StreamingDiversifier::new(
            ObjectiveKind::MaxSum,
            &REL,
            &DIS,
            Ratio::new(1, 2),
            3,
        );
        fwd.extend(u.iter().cloned());
        let mut rev = StreamingDiversifier::new(
            ObjectiveKind::MaxSum,
            &REL,
            &DIS,
            Ratio::new(1, 2),
            3,
        );
        rev.extend(u.iter().rev().cloned());
        assert_eq!(fwd.current().len(), 3);
        assert_eq!(rev.current().len(), 3);
        assert!(fwd.value() > Ratio::ZERO);
        assert!(rev.value() > Ratio::ZERO);
    }
}
