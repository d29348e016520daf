//! Coverage over a key column: the gap selector behind
//! [`Coreset::try_select_deadline`](super::Coreset::try_select_deadline)
//! for oracles that hand out a
//! [`Distance::key_column`](crate::distance::Distance::key_column).
//!
//! Folding a representative means `nearest[i] ← min(nearest[i], d(i, rep))`
//! for every item, strictly (`<`), so the earliest representative at the
//! minimum keeps the assignment. Over a column that update can only
//! fire between the two already-folded representatives whose keys
//! bracket the new one: for an item `i` on the far side of a folded
//! representative `a` (`key_i ≤ key_a ≤ key_rep`, or mirrored),
//! `|key_i − key_rep| ≥ |key_i − key_a|`, [`key_gap_f64`] is monotone in
//! that difference on all of `i64`, and `nearest[i]` is already at most
//! `d(i, a)` — so `d(i, rep) < nearest[i]` is false and a sweep of all
//! `n` items would leave `i` alone too. [`KeyGaps`] therefore sorts the items
//! once by `(key, index)` and keeps the sorted positions that hold no
//! folded representative partitioned into **gaps**; a fold re-scans the
//! one gap its representative falls in with that same update, then
//! splits it there. Each gap remembers the largest coverage distance
//! among its items, so the next farthest-point round's candidates are
//! read from the gaps that reach the tie window instead of from all `n`
//! items — the selection folds every item it selects before it asks, so
//! by then the gaps hold exactly the unselected items. For `m ≪ n`
//! that is `O(n log n)` for the sort plus the gaps re-scanned; a column
//! whose gaps never shrink (or where everything ties) costs what the
//! `m` sweeps would, not more.

use crate::distance::key_gap_f64;
use crate::engine::{tie_threshold, TieCandidate};
use std::ops::Range;

/// A maximal run `start..end` of sorted positions without a folded
/// representative.
struct Gap {
    start: usize,
    end: usize,
    /// Largest `nearest` among the run's items; current, because only
    /// a fold into this run could lower one, and that fold replaces it.
    farthest: f64,
}

/// The sorted column and its gaps.
pub(super) struct KeyGaps {
    keys: Vec<i64>,
    /// `(key, index)` of every item, sorted.
    order: Vec<(i64, usize)>,
    /// Ascending and disjoint; together, every position whose item has
    /// not been folded.
    gaps: Vec<Gap>,
}

impl KeyGaps {
    /// One sort; nothing is covered yet.
    pub(super) fn new(keys: Vec<i64>) -> KeyGaps {
        let n = keys.len();
        let mut order: Vec<(i64, usize)> = keys.iter().copied().zip(0..).collect();
        order.sort_unstable();
        let whole = Gap {
            start: 0,
            end: n,
            farthest: f64::INFINITY,
        };
        KeyGaps {
            keys,
            order,
            gaps: vec![whole],
        }
    }

    /// Folds the representative `rep` (position `pos` in selection
    /// order) into the coverage arrays: the update a sweep of all `n`
    /// items applies, over the one gap holding `rep`.
    pub(super) fn fold(
        &mut self,
        pos: usize,
        rep: usize,
        nearest: &mut [f64],
        assignment: &mut [usize],
    ) {
        let rep_key = self.keys[rep];
        let at = self
            .order
            .binary_search(&(rep_key, rep))
            .expect("the order holds every item");
        let g = self.gaps.partition_point(|gap| gap.end <= at);
        let Gap { start, end, .. } = self.gaps[g];
        debug_assert!((start..end).contains(&at), "representative folded twice");
        let mut cover = |run: Range<usize>| {
            let mut farthest = f64::NEG_INFINITY;
            for &(key, i) in &self.order[run] {
                let d = key_gap_f64(key, rep_key);
                if d < nearest[i] {
                    nearest[i] = d;
                    assignment[i] = pos;
                }
                farthest = farthest.max(nearest[i]);
            }
            farthest
        };
        let left = Gap {
            start,
            end: at,
            farthest: cover(start..at),
        };
        // `rep` itself: 0, assigned to the earliest folded equal key.
        cover(at..at + 1);
        let right = Gap {
            start: at + 1,
            end,
            farthest: cover(at + 1..end),
        };
        let halves = [left, right].into_iter().filter(|gap| gap.start < gap.end);
        self.gaps.splice(g..=g, halves);
    }

    /// The farthest unfolded items with their near-ties, ascending by
    /// index — what a flat scan of `nearest` collects over the
    /// unselected items once every selected one has been folded.
    pub(super) fn farthest(&self, nearest: &[f64]) -> Vec<TieCandidate> {
        let best = self
            .gaps
            .iter()
            .fold(f64::NEG_INFINITY, |best, gap| best.max(gap.farthest));
        let thr = tie_threshold(best);
        let mut ties: Vec<TieCandidate> = self
            .gaps
            .iter()
            .filter(|gap| gap.farthest >= thr)
            .flat_map(|gap| &self.order[gap.start..gap.end])
            .filter(|&&(_, i)| nearest[i] >= thr)
            .map(|&(_, i)| TieCandidate {
                index: i,
                score: nearest[i],
            })
            .collect();
        ties.sort_unstable_by_key(|t| t.index);
        ties
    }
}
