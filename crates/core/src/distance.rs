//! Distance (diversity) functions `δ_dis(t, s)`.
//!
//! The paper's axioms (Section 3.1): `δ_dis` is PTIME-computable,
//! non-negative, **symmetric**, and `δ_dis(t, t) = 0`. Implementations
//! here enforce the latter two structurally: pair tables canonicalize the
//! key order, and every `dist` short-circuits to zero on identical tuples.
//!
//! * [`ConstantDistance`] — `δ_dis ≡ c` off the diagonal (the
//!   "distance dropped" λ=0 settings use `c = 0`),
//! * [`TableDistance`] — explicit pair values with a default; the workhorse
//!   of the lower-bound gadgets (Theorems 5.1–7.5 all define `δ_dis` by
//!   case analysis on tuple pairs),
//! * [`HammingDistance`] — number of differing attributes (a stand-in for
//!   the paper's "difference between types" in Example 3.1),
//! * [`NumericDistance`] — `|a − b|` on a numeric attribute,
//! * [`ClosureDistance`] — arbitrary symmetric logic (symmetrized by
//!   evaluating on the canonical order).

use crate::ratio::Ratio;
use divr_relquery::Tuple;
use std::collections::HashMap;

/// A distance function on pairs of result tuples.
///
/// Contract: `dist(a, b) == dist(b, a)` and `dist(t, t) == 0`; values are
/// non-negative. Implementations in this module guarantee the contract.
pub trait Distance {
    /// The distance `δ_dis(a, b)`.
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio;

    /// Approximate float distance, used by the batch engine
    /// ([`crate::engine::DistanceMatrix`]) when precomputing the pairwise
    /// matrix. The default converts the exact value; implementations
    /// whose arithmetic is natively integral override it to skip the
    /// rational reduction entirely. Must equal `self.dist(a, b).to_f64()`
    /// up to `f64` rounding.
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        self.dist(a, b).to_f64()
    }

    /// The flat integer key column of `items`, for oracles that are a
    /// one-dimensional metric over them: `Some(keys)` promises that for
    /// every `i`, `j`, `dist_f64(&items[i], &items[j])` is bit-for-bit
    /// `keys[i].abs_diff(keys[j]) as f64` (so equal tuples have equal
    /// keys and the zero diagonal is implied), that
    /// `dist(&items[i], &items[j])` is **exactly** the integer
    /// `|keys[i] − keys[j]|` — over all of `i64`, where the difference
    /// needs 65 bits — and that `keys[i]` depends on `items[i]` alone.
    /// The coreset selection
    /// ([`crate::coreset::Coreset::try_select_deadline`]) then sorts
    /// the column once and folds each representative into the one gap
    /// of it that can move, instead of dispatching `dist_f64` per pair
    /// (the float is monotone in the key difference, which is what lets
    /// it skip every other item), and the
    /// exact `F_mono` score reads per-item distance sums computed from
    /// the sorted column instead of summing `n − 1` `dist` calls
    /// ([`crate::engine::PreparedUniverse::mono_sums_preamble`]; a
    /// column whose `max − min` overflows `i64` is not used there).
    /// `None` (the default) keeps the per-pair paths; a wrapper that
    /// alters distances in any way — fault injection included — must
    /// not forward its inner oracle's column.
    fn key_column(&self, _items: &[Tuple]) -> Option<Vec<i64>> {
        None
    }

    /// Approximate heap bytes retained by this function's configuration
    /// — what a cache keeping the oracle alive should charge against
    /// its byte budget. The default (`0`) fits the O(1)-state functions;
    /// table-backed functions override it, since their pair tables can
    /// dwarf even the `O(n²)` float matrix.
    fn approx_bytes(&self) -> usize {
        0
    }
}

/// `δ_dis(a, b) = c` for all `a ≠ b` (0 on the diagonal).
#[derive(Clone, Debug)]
pub struct ConstantDistance(pub Ratio);

impl Distance for ConstantDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            self.0
        }
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a == b {
            0.0
        } else {
            self.0.to_f64()
        }
    }
}

/// Explicit pair distances with a default for unlisted pairs. Keys are
/// canonicalized (sorted), so insertion order of a pair is irrelevant and
/// symmetry holds by construction.
#[derive(Clone, Debug, Default)]
pub struct TableDistance {
    entries: HashMap<(Tuple, Tuple), Ratio>,
    default: Ratio,
}

impl TableDistance {
    /// Creates an empty table with the given default off-diagonal value.
    pub fn with_default(default: Ratio) -> Self {
        TableDistance {
            entries: HashMap::new(),
            default,
        }
    }

    fn key(a: &Tuple, b: &Tuple) -> (Tuple, Tuple) {
        if a <= b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        }
    }

    /// Sets the distance of one unordered pair.
    pub fn set(&mut self, a: Tuple, b: Tuple, value: Ratio) -> &mut Self {
        assert!(!value.is_negative(), "distance must be non-negative");
        assert!(
            a != b || value.is_zero(),
            "distance of a tuple to itself must be zero"
        );
        self.entries.insert(Self::key(&a, &b), value);
        self
    }

    /// Builder-style [`TableDistance::set`].
    pub fn with(mut self, a: Tuple, b: Tuple, value: Ratio) -> Self {
        self.set(a, b, value);
        self
    }

    /// The default off-diagonal distance for unlisted pairs.
    pub fn default_value(&self) -> Ratio {
        self.default
    }

    /// All explicit pair entries (keys canonically ordered within each
    /// pair), in unspecified map order — the serving layer's content
    /// fingerprint sorts them.
    pub fn entries(&self) -> impl Iterator<Item = (&(Tuple, Tuple), Ratio)> {
        self.entries.iter().map(|(k, &v)| (k, v))
    }
}

impl Distance for TableDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            return Ratio::ZERO;
        }
        self.entries
            .get(&Self::key(a, b))
            .copied()
            .unwrap_or(self.default)
    }

    fn approx_bytes(&self) -> usize {
        // Per-entry estimate from one sampled key (pair tables are
        // near-homogeneous in arity): inline pair + tuple payloads +
        // value + map-slot overhead.
        self.entries.iter().next().map_or(0, |((a, b), _)| {
            let per_entry = 2 * std::mem::size_of::<Tuple>()
                + (a.arity() + b.arity()) * std::mem::size_of::<divr_relquery::Value>()
                + std::mem::size_of::<Ratio>()
                + 16;
            self.entries.len() * per_entry
        })
    }
}

/// Number of positions at which the tuples differ, optionally scaled.
#[derive(Clone, Debug)]
pub struct HammingDistance {
    /// Per-position weight (defaults to 1).
    pub weight: Ratio,
}

impl Default for HammingDistance {
    fn default() -> Self {
        HammingDistance { weight: Ratio::ONE }
    }
}

impl HammingDistance {
    fn differing(a: &Tuple, b: &Tuple) -> usize {
        a.iter()
            .zip(b.iter())
            .filter(|(x, y)| x != y)
            .count()
            .max(a.arity().abs_diff(b.arity()))
    }
}

impl Distance for HammingDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.weight.scale(Self::differing(a, b) as i64)
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        self.weight.to_f64() * Self::differing(a, b) as f64
    }
}

/// `|a[attr] − b[attr]|` on an integer attribute; non-integer values
/// contribute `fallback`.
#[derive(Clone, Debug)]
pub struct NumericDistance {
    /// Which attribute position to compare.
    pub attr: usize,
    /// Distance used when either side lacks an integer at `attr` (applies
    /// only to distinct tuples; the diagonal stays 0).
    pub fallback: Ratio,
}

impl Distance for NumericDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            return Ratio::ZERO;
        }
        match (
            a.get(self.attr).and_then(|v| v.as_int()),
            b.get(self.attr).and_then(|v| v.as_int()),
        ) {
            // The difference of two `i64` needs 65 bits.
            (Some(x), Some(y)) => Ratio::new_i128((i128::from(x) - i128::from(y)).abs(), 1),
            _ => self.fallback,
        }
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a == b {
            return 0.0;
        }
        match (
            a.get(self.attr).and_then(|v| v.as_int()),
            b.get(self.attr).and_then(|v| v.as_int()),
        ) {
            (Some(x), Some(y)) => key_gap_f64(x, y),
            _ => self.fallback.to_f64(),
        }
    }

    /// The `attr` column, iff every item holds an integer there (one
    /// item without it would bring `fallback` into play).
    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        items
            .iter()
            .map(|t| t.get(self.attr).and_then(|v| v.as_int()))
            .collect()
    }
}

/// The float distance between two integer keys — the one expression
/// behind both [`NumericDistance::dist_f64`] and the coreset's
/// key-column selection ([`Distance::key_column`]), so the two paths
/// cannot drift by a bit. `abs_diff` cannot overflow, and `u64 as f64`
/// rounds monotonically, so a wider key gap is never a smaller float —
/// on all of `i64`.
#[inline(always)]
pub(crate) fn key_gap_f64(x: i64, y: i64) -> f64 {
    x.abs_diff(y) as f64
}

/// Wraps a closure; symmetry is enforced by evaluating on the canonical
/// (sorted) order of the pair, and the diagonal is forced to zero.
pub struct ClosureDistance<F: Fn(&Tuple, &Tuple) -> Ratio>(pub F);

impl<F: Fn(&Tuple, &Tuple) -> Ratio> Distance for ClosureDistance<F> {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            return Ratio::ZERO;
        }
        if a <= b {
            self.0(a, b)
        } else {
            self.0(b, a)
        }
    }
}

impl Distance for Box<dyn Distance + '_> {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        (**self).dist(a, b)
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        (**self).dist_f64(a, b)
    }

    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        (**self).key_column(items)
    }

    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

impl Distance for Box<dyn Distance + Send + Sync + '_> {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        (**self).dist(a, b)
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        (**self).dist_f64(a, b)
    }

    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        (**self).key_column(items)
    }

    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_zero_on_diagonal() {
        let d = ConstantDistance(Ratio::int(3));
        assert_eq!(d.dist(&Tuple::ints([1]), &Tuple::ints([1])), Ratio::ZERO);
        assert_eq!(d.dist(&Tuple::ints([1]), &Tuple::ints([2])), Ratio::int(3));
    }

    #[test]
    fn table_symmetric_by_construction() {
        let a = Tuple::ints([1]);
        let b = Tuple::ints([2]);
        let d = TableDistance::with_default(Ratio::ZERO).with(b.clone(), a.clone(), Ratio::int(7));
        assert_eq!(d.dist(&a, &b), Ratio::int(7));
        assert_eq!(d.dist(&b, &a), Ratio::int(7));
        assert_eq!(d.dist(&a, &a), Ratio::ZERO);
    }

    #[test]
    fn table_default_applies() {
        let d = TableDistance::with_default(Ratio::ONE);
        assert_eq!(
            d.dist(&Tuple::ints([1]), &Tuple::ints([9])),
            Ratio::ONE
        );
    }

    #[test]
    #[should_panic(expected = "itself must be zero")]
    fn nonzero_diagonal_rejected() {
        TableDistance::default().set(Tuple::ints([1]), Tuple::ints([1]), Ratio::ONE);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_distance_rejected() {
        TableDistance::default().set(Tuple::ints([1]), Tuple::ints([2]), Ratio::int(-1));
    }

    #[test]
    fn hamming_counts_differences() {
        let d = HammingDistance::default();
        assert_eq!(
            d.dist(&Tuple::ints([1, 2, 3]), &Tuple::ints([1, 9, 9])),
            Ratio::int(2)
        );
        assert_eq!(
            d.dist(&Tuple::ints([1, 2]), &Tuple::ints([1, 2])),
            Ratio::ZERO
        );
    }

    #[test]
    fn numeric_absolute_difference() {
        let d = NumericDistance {
            attr: 0,
            fallback: Ratio::ONE,
        };
        assert_eq!(d.dist(&Tuple::ints([10]), &Tuple::ints([3])), Ratio::int(7));
        assert_eq!(d.dist(&Tuple::ints([3]), &Tuple::ints([10])), Ratio::int(7));
        let s1 = Tuple::new(vec![divr_relquery::Value::str("a")]);
        let s2 = Tuple::new(vec![divr_relquery::Value::str("b")]);
        assert_eq!(d.dist(&s1, &s2), Ratio::ONE);
        assert_eq!(d.dist(&s1, &s1), Ratio::ZERO);
    }

    /// Keys more than `i64::MAX` apart: the `i64` subtraction wrapped
    /// to distance 1 in release and panicked in debug.
    #[test]
    fn numeric_gap_wider_than_i64_max_does_not_wrap() {
        let d = NumericDistance {
            attr: 0,
            fallback: Ratio::ONE,
        };
        let (lo, hi) = (Tuple::ints([i64::MIN, 1]), Tuple::ints([i64::MAX, 2]));
        let width = Ratio::new_i128(i128::from(u64::MAX), 1);
        assert_eq!(d.dist(&lo, &hi), width);
        assert_eq!(d.dist(&hi, &lo), width);
        assert_eq!(d.dist_f64(&lo, &hi), u64::MAX as f64);
        assert_eq!(d.dist_f64(&hi, &lo), d.dist(&hi, &lo).to_f64());
        // Where the old expression did not overflow, nothing moves.
        let near = Tuple::ints([i64::MIN + 1, 3]);
        assert_eq!(d.dist(&lo, &near), Ratio::ONE);
        assert_eq!(d.dist_f64(&near, &Tuple::ints([-1, 0])), i64::MAX as f64);
        // Monotone in the key difference across the whole range.
        let keys = [i64::MIN, i64::MIN + 1, -1, 0, 1 << 53, (1 << 53) + 1, i64::MAX];
        for &x in &keys {
            let gaps: Vec<f64> = keys.iter().map(|&y| key_gap_f64(x, y)).collect();
            let (below, above) = gaps.split_at(keys.iter().position(|&y| y == x).unwrap());
            assert!(below.windows(2).all(|w| w[0] >= w[1]), "{x}: {below:?}");
            assert!(above.windows(2).all(|w| w[0] <= w[1]), "{x}: {above:?}");
        }
    }

    #[test]
    fn key_column_reproduces_dist_f64_bit_for_bit_or_is_absent() {
        let items: Vec<Tuple> = [5, -3, 5, 0, i64::from(i32::MAX), -40, i64::MIN, i64::MAX]
            .into_iter()
            .enumerate()
            .map(|(i, key)| Tuple::ints([key, i as i64 % 2]))
            .collect();
        let numeric = NumericDistance {
            attr: 0,
            fallback: Ratio::ONE,
        };
        let boxed: Box<dyn Distance + Send + Sync> = Box::new(numeric.clone());
        let keys = boxed
            .key_column(&items)
            .expect("every item has an int at attr 0");
        for (a, &ka) in items.iter().zip(&keys) {
            for (b, &kb) in items.iter().zip(&keys) {
                assert_eq!(
                    key_gap_f64(ka, kb).to_bits(),
                    numeric.dist_f64(a, b).to_bits()
                );
            }
        }
        // One item without an integer at `attr` brings `fallback` into
        // play, so the column is withheld.
        let mut mixed = items.clone();
        mixed.push(Tuple::new(vec![divr_relquery::Value::str("x")]));
        assert_eq!(numeric.key_column(&mixed), None);
        let elsewhere = NumericDistance {
            attr: 7,
            fallback: Ratio::ONE,
        };
        assert_eq!(elsewhere.key_column(&items), None);
        // Every other oracle keeps the per-pair path.
        assert_eq!(HammingDistance::default().key_column(&items), None);
        assert_eq!(
            TableDistance::with_default(Ratio::ONE).key_column(&items),
            None
        );
        let closure = ClosureDistance(|a: &Tuple, b: &Tuple| numeric.dist(a, b));
        assert_eq!(closure.key_column(&items), None);
    }

    #[test]
    fn closure_symmetrized() {
        // A deliberately asymmetric closure becomes symmetric through
        // canonical ordering.
        let d = ClosureDistance(|a: &Tuple, _b: &Tuple| {
            Ratio::int(a[0].as_int().unwrap())
        });
        let t1 = Tuple::ints([1]);
        let t5 = Tuple::ints([5]);
        assert_eq!(d.dist(&t1, &t5), d.dist(&t5, &t1));
        assert_eq!(d.dist(&t1, &t1), Ratio::ZERO);
    }
}
