//! Float argmax with a tie window, and the exact `Ratio` resolution of
//! whatever survives it (see the exactness contract in the module docs
//! of [`crate::engine`]).

use super::matrix::{fans_out, par_map_reduce};
use crate::ratio::Ratio;
use std::ops::Range;

/// Relative/absolute half-width of the float tie window: candidates
/// whose `f64` score is within `max(F64_TIE_EPS, |best|·F64_TIE_EPS)`
/// of the best are re-compared with exact arithmetic.
pub(crate) const F64_TIE_EPS: f64 = 1e-9;

/// A candidate index whose float score survived the tie window, with its
/// score. Shared with [`crate::coreset`]'s farthest-point scans.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TieCandidate {
    pub(crate) index: usize,
    pub(crate) score: f64,
}

/// The tie-window threshold below a running maximum: scores at or above
/// it are possible ties of `best`.
#[inline]
pub(crate) fn tie_threshold(best: f64) -> f64 {
    best - F64_TIE_EPS.max(best.abs() * F64_TIE_EPS)
}

/// A chunk's running maximum plus its near-tie candidates (possibly
/// with stale entries below the final threshold; pruned lazily).
pub(crate) struct TieChunk {
    pub(crate) best: f64,
    pub(crate) ties: Vec<TieCandidate>,
}

impl TieChunk {
    /// Folds the chunk to this one's right into it: the joint maximum,
    /// and both sides' candidates still inside its tie window, in
    /// ascending index order.
    pub(crate) fn merge(mut self, right: TieChunk) -> TieChunk {
        let best = self.best.max(right.best);
        let thr = tie_threshold(best);
        self.ties.retain(|t| t.score >= thr);
        self.ties
            .extend(right.ties.into_iter().filter(|t| t.score >= thr));
        TieChunk {
            best,
            ties: self.ties,
        }
    }
}

/// One sequential tie-collecting scan over `range`, appending into
/// `ties` (which the caller has cleared). Returns the running maximum.
///
/// The threshold is monotone in `best`, so an entry admitted under an
/// earlier (lower) threshold and still within the final window is
/// never lost; entries that fall below are pruned lazily (when the
/// buffer doubles) and once more at the end.
fn scan_ties(
    range: Range<usize>,
    eval: &impl Fn(usize) -> Option<f64>,
    ties: &mut Vec<TieCandidate>,
) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut prune_at = 64;
    for i in range {
        if let Some(v) = eval(i) {
            if v > best {
                best = v;
            }
            if v >= tie_threshold(best) {
                ties.push(TieCandidate { index: i, score: v });
                if ties.len() >= prune_at {
                    let thr = tie_threshold(best);
                    ties.retain(|t| t.score >= thr);
                    prune_at = (ties.len() * 2).max(64);
                }
            }
        }
    }
    let thr = tie_threshold(best);
    ties.retain(|t| t.score >= thr);
    best
}

/// Collects the argmax (and near-ties) of `eval` over `0..n` into the
/// caller's buffer in a **single pass** — `eval` can be expensive (an
/// O(k²) trial objective in local search), so each candidate is
/// evaluated exactly once. `eval(i) == None` marks `i` ineligible;
/// `work_per_item` feeds the parallelism gate (see [`par_map_reduce`]).
/// Returns `false` when no candidate was eligible. On the sequential
/// path (one thread, or too little work to fan out) this performs no
/// heap allocation beyond the reused `out` buffer — the property the
/// scratch-based serving paths rely on. Candidates end up in ascending
/// index order, all within the tie window of the maximum.
pub(crate) fn argmax_with_ties_into(
    n: usize,
    threads: usize,
    work_per_item: usize,
    eval: &(impl Fn(usize) -> Option<f64> + Sync),
    out: &mut Vec<TieCandidate>,
) -> bool {
    out.clear();
    if n == 0 {
        return false;
    }
    if !fans_out(n, threads, work_per_item) {
        scan_ties(0..n, eval, out);
        return !out.is_empty();
    }
    let scan = |range: Range<usize>| {
        let mut ties: Vec<TieCandidate> = Vec::new();
        let best = scan_ties(range, eval, &mut ties);
        if ties.is_empty() {
            None
        } else {
            Some(TieChunk { best, ties })
        }
    };
    let merged = par_map_reduce(n, threads, work_per_item, scan, TieChunk::merge);
    match merged {
        Some(chunk) => {
            out.extend(chunk.ties);
            true
        }
        None => false,
    }
}

/// [`argmax_with_ties_into`] with an owned result buffer (the
/// convenience form the one-shot preamble builders use).
pub(crate) fn argmax_with_ties(
    n: usize,
    threads: usize,
    work_per_item: usize,
    eval: &(impl Fn(usize) -> Option<f64> + Sync),
) -> Option<Vec<TieCandidate>> {
    let mut out = Vec::new();
    argmax_with_ties_into(n, threads, work_per_item, eval, &mut out).then_some(out)
}

/// Resolves a tie set with an exact scorer: returns the index whose
/// exact score is maximal, preferring the **lowest index** among exact
/// ties — the same rule as the sequential `Ratio`-path code
/// (`max_by_key((score, Reverse(i)))`).
pub(crate) fn resolve_ties_exact(
    ties: &[TieCandidate],
    mut exact: impl FnMut(usize) -> Ratio,
) -> usize {
    debug_assert!(!ties.is_empty());
    if ties.len() == 1 {
        return ties[0].index;
    }
    let mut best_idx = ties[0].index;
    let mut best_score = exact(best_idx);
    for t in &ties[1..] {
        let s = exact(t.index);
        if s > best_score || (s == best_score && t.index < best_idx) {
            best_score = s;
            best_idx = t.index;
        }
    }
    best_idx
}

/// [`resolve_ties_exact`] for a non-empty set of near-tied pairs: the
/// pair whose exact score is maximal, the **lexicographically smallest**
/// among exact ties — the order the sequential double loops of
/// `divr_paper::approx` meet them in. Sorts `pairs`.
pub(super) fn resolve_pairs_exact(
    pairs: &mut [(usize, usize)],
    exact: impl Fn(usize, usize) -> Ratio,
) -> (usize, usize) {
    if pairs.len() == 1 {
        return pairs[0];
    }
    pairs.sort_unstable();
    let mut winner = pairs[0];
    let mut winner_score = exact(winner.0, winner.1);
    for &(a, b) in &pairs[1..] {
        let score = exact(a, b);
        if score > winner_score {
            winner = (a, b);
            winner_score = score;
        }
    }
    winner
}
