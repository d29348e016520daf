//! The exact re-score both engines share ([`ExactView`]), and the part
//! of it that costs — the exact side of `F_mono` (Theorem 5.4): the
//! per-item score
//! `v(t) = (1−λ)·δ_rel(t) + λ/(n−1) · Σ_{t'} δ_dis(t, t')` in `Ratio`
//! arithmetic.
//!
//! The distance sum is what costs: `n − 1` oracle calls per item. When
//! the oracle is a one-dimensional integer metric
//! ([`Distance::key_column`]) all `n` sums follow from one sort and one
//! prefix-sum pass — `O(n log n)` integer work, memoized in a
//! [`MonoSums`] cell beside the other solver preambles, repaired in
//! `O(n)` per insert. Without a column the per-pair sweep remains, as
//! the fallback inside the one [`ExactView::mono_score_exact`] body.

use crate::coreset::{RelColumn, Rows};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::ServeError;
use crate::problem::{f_mm_from, f_ms_from, ObjectiveKind};
use crate::ratio::Ratio;
use divr_relquery::Tuple;
use std::sync::OnceLock;

/// Every non-negative integer below this is an `f64`, so a sum of
/// non-negative integers that stays below it adds without rounding in
/// any order.
const F64_EXACT_INT: i128 = 1 << 53;

/// The gap between two keys as the oracle's exact distance reports it,
/// `None` when it does not fit the `i64` that `Ratio::int` takes.
fn key_gap(x: i64, y: i64) -> Option<i128> {
    let gap = (i128::from(x) - i128::from(y)).abs();
    (gap <= i128::from(i64::MAX)).then_some(gap)
}

/// The key column of a universe and, per item, its exact distance sum
/// `sums[i] = Σ_j |k_i − k_j|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct KeySums {
    keys: Vec<i64>,
    sums: Vec<i128>,
}

impl KeySums {
    /// All `n` sums in `O(n log n)`: at sorted position `p` the keys
    /// below contribute `x·p − Σ below`, the keys above
    /// `Σ above − x·(n−1−p)`. `None` when `max − min` overflows `i64`
    /// (some pair's distance would not be the integer the oracle
    /// promises).
    pub(crate) fn build(keys: Vec<i64>) -> Option<KeySums> {
        let n = keys.len();
        let mut sorted: Vec<(i64, usize)> = keys.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        if let (Some(&(lo, _)), Some(&(hi, _))) = (sorted.first(), sorted.last()) {
            key_gap(hi, lo)?;
        }
        let total: i128 = keys.iter().map(|&k| i128::from(k)).sum();
        let mut sums = vec![0i128; n];
        let mut below = 0i128;
        for (p, &(key, i)) in sorted.iter().enumerate() {
            let x = i128::from(key);
            let (under, over) = (p as i128, (n - 1 - p) as i128);
            sums[i] = (x * under - below) + (total - below - x - x * over);
            below += x;
        }
        Some(KeySums { keys, sums })
    }

    /// Appends one key in `O(n)` integer adds: every old sum gains its
    /// gap to the new key, the new item's sum is their total. `false`
    /// when a gap no longer fits `i64` — the caller drops the memo,
    /// exactly what [`KeySums::build`] over the grown column returns.
    fn push(&mut self, key: i64) -> bool {
        let mut own = 0i128;
        for (&k, sum) in self.keys.iter().zip(&mut self.sums) {
            let Some(gap) = key_gap(k, key) else {
                return false;
            };
            *sum += gap;
            own += gap;
        }
        self.keys.push(key);
        self.sums.push(own);
        true
    }

    /// The sums as floats — only when every one is below 2^53. The
    /// float matrix row of item `i` then holds the integers
    /// `|k_i − k_j|` unrounded and every partial sum of them is an
    /// integer below 2^53, so the left-to-right row fold (and the
    /// insert repair `dsum += col[i]`) is exact and equals `sum as f64`
    /// bit for bit. At 2^53 and beyond the fold rounds along the way
    /// and only the fold itself reproduces its bits.
    pub(crate) fn to_f64_exact(&self) -> Option<Vec<f64>> {
        self.sums
            .iter()
            .map(|&s| (s < F64_EXACT_INT).then_some(s as f64))
            .collect()
    }
}

/// The lazily memoized [`KeySums`] of one prepared universe: unset
/// until the first `F_mono` request needs it, then `None` inside when
/// the oracle offers no usable column (the per-pair path answers).
#[derive(Clone, Debug, Default)]
pub(crate) struct MonoSums(OnceLock<Option<KeySums>>);

impl MonoSums {
    /// Resident bytes per universe item once populated (key + sum);
    /// prepared states charge it up front in their `approx_bytes`.
    pub(crate) const BYTES_PER_ITEM: usize =
        std::mem::size_of::<i64>() + std::mem::size_of::<i128>();

    /// The sums over the key column `column` reads, built on first use;
    /// `None` when the oracle offers no usable column.
    pub(crate) fn get_or_build(&self, column: impl FnOnce() -> Option<Vec<i64>>) -> Option<&KeySums> {
        self.0.get_or_init(|| column().and_then(KeySums::build)).as_ref()
    }

    /// Insert repair (when populated): `tuple` is about to be appended
    /// to the universe. A tuple without a key, or one whose gaps
    /// overflow, leaves the memo at "no column" — what a from-scratch
    /// build over the grown universe finds.
    pub(crate) fn repair_insert(&mut self, dis: &dyn Distance, tuple: &Tuple) {
        let Some(slot) = self.0.get_mut() else {
            return;
        };
        let Some(sums) = slot else {
            return;
        };
        let key = dis
            .key_column(std::slice::from_ref(tuple))
            .and_then(|column| column.first().copied());
        if !key.is_some_and(|k| sums.push(k)) {
            *slot = None;
        }
    }

    /// Drops the memo; the next `F_mono` request rebuilds it.
    pub(crate) fn invalidate(&mut self) {
        self.0 = OnceLock::new();
    }

    /// Population state for the differential suites: `None` = not built
    /// yet, `Some(None)` = built, the oracle has no usable column.
    pub(crate) fn peek(&self) -> Option<Option<&[i128]>> {
        self.0.get().map(|memo| memo.as_ref().map(|m| m.sums.as_slice()))
    }
}

/// The exact relevance scores an [`ExactView`] reads: a full-matrix
/// universe's `Ratio`s, or a coreset entry's float column.
#[derive(Clone, Copy)]
pub(crate) enum ExactRel<'s> {
    Ratios(&'s [Ratio]),
    Column(&'s RelColumn),
}

impl ExactRel<'_> {
    fn at(self, i: usize) -> Ratio {
        match self {
            ExactRel::Ratios(r) => r[i],
            ExactRel::Column(c) => c.exact(i),
        }
    }
}

/// The rows an [`ExactView`] reads: a full-matrix universe's tuples, or
/// a coreset entry's encoded rows, of which an exact score decodes
/// only the members it measures.
#[derive(Clone, Copy)]
pub(crate) enum ExactRows<'s> {
    Tuples(&'s [Tuple]),
    Encoded(&'s Rows),
}

impl ExactRows<'_> {
    fn len(self) -> usize {
        match self {
            ExactRows::Tuples(u) => u.len(),
            ExactRows::Encoded(rows) => rows.len(),
        }
    }
}

/// The one exact-objective view: everything an exact score reads,
/// borrowed from a prepared state
/// ([`PreparedUniverse::exact`](crate::engine::PreparedUniverse) or
/// [`PreparedCoreset::exact`](crate::coreset::PreparedCoreset)). Both
/// engines re-score through [`ExactView::value`], so `F(U)` has one
/// body however the set was chosen.
pub(crate) struct ExactView<'s> {
    pub(crate) lambda: Ratio,
    pub(crate) rel: ExactRel<'s>,
    pub(crate) universe: ExactRows<'s>,
    pub(crate) dis: &'s (dyn Distance + 's),
    pub(crate) sums: &'s MonoSums,
}

impl ExactView<'_> {
    /// Exact per-item mono score `v(t_i)` (Theorem 5.4's sort key) over
    /// the whole universe. `O(1)` from the memoized key-column sums;
    /// without a column the `O(n)` per-pair sweep (over encoded rows, a
    /// chunk of decoded rows at a time), preceded by one `deadline`
    /// poll — the only way this fails.
    pub(crate) fn mono_score_exact(&self, i: usize, deadline: Deadline) -> Result<Ratio, ServeError> {
        let rel_part = (Ratio::ONE - self.lambda) * self.rel.at(i);
        let n = self.universe.len();
        if n <= 1 || self.lambda.is_zero() {
            return Ok(rel_part);
        }
        let memo = self.sums.get_or_build(|| match self.universe {
            ExactRows::Tuples(u) => self.dis.key_column(u),
            ExactRows::Encoded(rows) => rows.key_column(self.dis),
        });
        let dsum = match memo {
            Some(memo) => Ratio::new_i128(memo.sums[i], 1),
            None => {
                deadline.check()?;
                let mut dsum = Ratio::ZERO;
                let mut sweep = |first: usize, rows: &[Tuple], t: &Tuple| {
                    for (off, other) in rows.iter().enumerate() {
                        if first + off != i {
                            dsum += self.dis.dist(t, other);
                        }
                    }
                };
                match self.universe {
                    ExactRows::Tuples(u) => sweep(0, u, &u[i]),
                    ExactRows::Encoded(rows) => {
                        let t = rows.get(i);
                        let swept: Result<(), ()> = rows.try_for_each_chunk(|first, chunk| {
                            sweep(first, chunk, &t);
                            Ok(())
                        });
                        swept.expect("the sweep cannot fail");
                    }
                }
                dsum
            }
        };
        Ok(rel_part + self.lambda * dsum / Ratio::int(n as i64 - 1))
    }

    /// Exact `F(U)` of the index set `subset` under full-universe
    /// semantics, term for term
    /// [`DiversityProblem::objective`](crate::problem::DiversityProblem::objective):
    /// `F_MS`/`F_MM` read the members' relevances and pairwise oracle
    /// distances (over encoded rows, the `k` members decoded once),
    /// `F_mono` adds the members' scores in `subset` order — the only
    /// kind that can trip `deadline`.
    pub(crate) fn value(
        &self,
        kind: ObjectiveKind,
        subset: &[usize],
        deadline: Deadline,
    ) -> Result<Ratio, ServeError> {
        match (kind, self.universe) {
            (ObjectiveKind::Mono, _) => subset
                .iter()
                .map(|&i| self.mono_score_exact(i, deadline))
                .sum(),
            (_, ExactRows::Tuples(u)) => Ok(self.pair_value(kind, subset, |a| &u[subset[a]])),
            (_, ExactRows::Encoded(rows)) => {
                let members: Vec<Tuple> = subset.iter().map(|&i| rows.get(i)).collect();
                Ok(self.pair_value(kind, subset, |a| &members[a]))
            }
        }
    }

    /// `F_MS` or `F_MM` of `subset`, whose `a`-th member is `member(a)`.
    fn pair_value<'t>(
        &self,
        kind: ObjectiveKind,
        subset: &[usize],
        member: impl Fn(usize) -> &'t Tuple,
    ) -> Ratio {
        let rel = |a: usize| self.rel.at(subset[a]);
        let dist = |a: usize, b: usize| self.dis.dist(member(a), member(b));
        match kind {
            ObjectiveKind::MaxSum => f_ms_from(subset.len(), self.lambda, rel, dist),
            _ => f_mm_from(subset.len(), self.lambda, rel, dist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(keys: &[i64]) -> Vec<i128> {
        keys.iter()
            .map(|&x| keys.iter().map(|&y| key_gap(x, y).unwrap()).sum())
            .collect()
    }

    #[test]
    fn sums_match_the_pairwise_definition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5035);
        for case in 0..300 {
            let n = rng.gen_range(0usize..40);
            let span = [3i64, 1000, i64::MAX / 2][case % 3];
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(-span..=span)).collect();
            let memo = KeySums::build(keys.clone()).unwrap();
            assert_eq!(memo.sums, brute(&keys), "{keys:?}");
        }
    }

    #[test]
    fn push_matches_a_fresh_build() {
        let mut grown = KeySums::build(vec![5, -3, 5]).unwrap();
        for key in [0, 5, -40, i64::MAX / 2] {
            assert!(grown.push(key));
            assert_eq!(Some(&grown), KeySums::build(grown.keys.clone()).as_ref());
        }
    }

    #[test]
    fn a_range_beyond_i64_has_no_memo() {
        assert!(KeySums::build(vec![i64::MIN, 0, 1]).is_none());
        assert!(KeySums::build(vec![-1, i64::MAX]).is_none());
        assert!(KeySums::build(vec![0, i64::MAX]).is_some());
        let mut memo = KeySums::build(vec![0, i64::MAX]).unwrap();
        assert!(!memo.push(-1));
    }

    #[test]
    fn float_sums_only_below_two_to_the_53() {
        let small = KeySums::build(vec![0, (1 << 53) - 1]).unwrap();
        assert_eq!(small.to_f64_exact(), Some(vec![((1u64 << 53) - 1) as f64; 2]));
        let big = KeySums::build(vec![0, 1 << 53]).unwrap();
        assert_eq!(big.to_f64_exact(), None);
    }
}
