//! Exact rational arithmetic.
//!
//! Every score in this crate — relevance values, distances, λ, objective
//! values `F(U)`, bounds `B` — is an exact rational. The paper's decision
//! and counting problems hinge on exact threshold comparisons
//! (`F(U) ≥ B`), and several reductions pick bounds like
//! `B = 2^{n+1}/(2^{m+n}−1)` (Theorem 7.2) where floating point would
//! silently corrupt counts. `Ratio` is an `i128`-backed reduced fraction
//! with a total order; arithmetic panics on overflow (reductions and
//! workloads stay far below `i128` range).

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number, always stored reduced with a positive
/// denominator (so derived `Eq`/`Hash` agree with numeric equality).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

const OVERFLOW_MSG: &str = "Ratio arithmetic overflow (scores exceeded i128 range)";

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Builds `num / den`, reducing to lowest terms. Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        Ratio::new_i128(i128::from(num), i128::from(den))
    }

    /// Builds from `i128` parts, reducing. Panics if `den == 0`.
    pub fn new_i128(num: i128, den: i128) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        if den == 1 {
            // An integer is already reduced: skip the `i128` gcd and
            // divisions (integer distances are built here per pair).
            return Ratio { num, den };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Ratio::ZERO;
        }
        Ratio {
            num: sign * (num / g),
            den: (den / g).abs(),
        }
    }

    /// Builds the integer `n`.
    pub fn int(n: i64) -> Self {
        Ratio {
            num: i128::from(n),
            den: 1,
        }
    }

    /// The reduced numerator.
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// The reduced denominator (always positive).
    pub fn denominator(&self) -> i128 {
        self.den
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Multiplies by an integer.
    pub fn scale(&self, n: i64) -> Ratio {
        *self * Ratio::int(n)
    }

    /// Approximate `f64` value. Used for display/benchmark summaries and
    /// by the batch engine's float filter ([`crate::engine`]) — the
    /// engine restores exactness through its `Ratio` tie fallback, so
    /// threshold *decisions* still never rest on this conversion alone.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The absolute value.
    pub(crate) fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The **exact** rational value of a finite `f64` (every finite float
    /// is a dyadic rational `m / 2^e`). Returns `None` for non-finite
    /// inputs or when the dyadic form does not fit in `i128` (magnitude
    /// or denominator beyond ~2¹²⁶, i.e. deep subnormals or huge
    /// exponents — far outside the score ranges this crate works with).
    ///
    /// This is the boundary-audit direction of [`Ratio::to_f64`]: it lets
    /// float artifacts be measured in exact arithmetic instead of being
    /// rounded away by a second float conversion (see
    /// [`crate::engine::DistanceMatrix::verify_exact`]).
    pub(crate) fn from_f64_exact(x: f64) -> Option<Ratio> {
        if !x.is_finite() {
            return None;
        }
        if x == 0.0 {
            return Some(Ratio::ZERO);
        }
        let bits = x.to_bits();
        let sign: i128 = if bits >> 63 == 1 { -1 } else { 1 };
        let biased = ((bits >> 52) & 0x7FF) as i64;
        let frac = (bits & ((1u64 << 52) - 1)) as i128;
        // Normal numbers carry an implicit leading bit; subnormals don't.
        let (mut mantissa, mut exp2) = if biased == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1i128 << 52), biased - 1075)
        };
        // Reduce the dyadic form first: 2^k | mantissa folds into exp2.
        let tz = i64::from(mantissa.trailing_zeros());
        mantissa >>= tz;
        exp2 += tz;
        if exp2 >= 0 {
            if exp2 > 73 {
                // mantissa < 2^53, so a shift past 73 bits risks i128
                // overflow (53 + 74 > 127).
                return None;
            }
            Some(Ratio::new_i128(sign * (mantissa << exp2), 1))
        } else {
            if exp2 < -126 {
                return None;
            }
            Some(Ratio::new_i128(sign * mantissa, 1i128 << (-exp2)))
        }
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Self {
        Ratio::int(n)
    }
}

impl From<i32> for Ratio {
    fn from(n: i32) -> Self {
        Ratio::int(i64::from(n))
    }
}

impl Ratio {
    /// Non-panicking addition: `None` when an intermediate exceeds
    /// `i128` range (where `+` would panic). Used where adversarial
    /// denominators are expected — e.g. measuring float deviations
    /// against large-denominator oracle values.
    pub(crate) fn checked_add(self, rhs: Ratio) -> Option<Ratio> {
        // Equal denominators (integers above all): the lcm is the
        // denominator itself, so only the numerators add — no Euclid
        // loop for integers, one reduce otherwise. Same value, same
        // canonical form and same `None` as the general path below.
        if self.den == rhs.den {
            let num = self.num.checked_add(rhs.num)?;
            return Some(if self.den == 1 {
                Ratio { num, den: 1 }
            } else {
                Ratio::new_i128(num, self.den)
            });
        }
        self.checked_add_lcm(rhs)
    }

    /// The general path of [`Ratio::checked_add`]:
    /// `a/b + c/d = (a·(l/b) + c·(l/d)) / l` with `l = lcm(b, d)`.
    fn checked_add_lcm(self, rhs: Ratio) -> Option<Ratio> {
        let g = gcd(self.den, rhs.den);
        let l = (self.den / g).checked_mul(rhs.den)?;
        let left = self.num.checked_mul(l / self.den)?;
        let right = rhs.num.checked_mul(l / rhs.den)?;
        Some(Ratio::new_i128(left.checked_add(right)?, l))
    }

    /// Non-panicking subtraction: `None` where `-` would panic.
    pub fn checked_sub(self, rhs: Ratio) -> Option<Ratio> {
        self.checked_add(-rhs)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_add(rhs).expect(OVERFLOW_MSG)
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .expect(OVERFLOW_MSG);
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .expect(OVERFLOW_MSG);
        Ratio::new_i128(num, den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "Ratio division by zero");
        self * Ratio {
            num: rhs.den,
            den: rhs.num,
        }
        .normalized()
    }
}

impl Ratio {
    fn normalized(self) -> Ratio {
        Ratio::new_i128(self.num, self.den)
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, Add::add)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ratio {
    /// `a/b` vs `c/d` as `a·d` vs `c·b` (`b, d > 0`) with `gcd(a, c)` and
    /// `gcd(b, d)` divided out of both sides first — positive factors,
    /// so the ordering is preserved and the products are as small as
    /// they can be. `None` when even those overflow.
    fn cmp_cross_reduced(&self, other: &Ratio) -> Option<Ordering> {
        let g_num = gcd(self.num, other.num).max(1);
        let g_den = gcd(self.den, other.den).max(1);
        let left = (self.num / g_num).checked_mul(other.den / g_den)?;
        let right = (other.num / g_num).checked_mul(self.den / g_den)?;
        Some(left.cmp(&right))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Equal denominators (integers above all) compare numerators;
        // otherwise the plain cross product decides whenever it fits.
        // Only when it overflows do the two Euclid loops of the
        // cross-reduced form run — same ordering on every input.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        if let (Some(left), Some(right)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return left.cmp(&right);
        }
        self.cmp_cross_reduced(other)
            .unwrap_or_else(|| panic!("{OVERFLOW_MSG}"))
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let half = Ratio::new(1, 2);
        let third = Ratio::new(1, 3);
        assert_eq!(half + third, Ratio::new(5, 6));
        assert_eq!(half - third, Ratio::new(1, 6));
        assert_eq!(half * third, Ratio::new(1, 6));
        assert_eq!(half / third, Ratio::new(3, 2));
        assert_eq!(-half, Ratio::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::new(-1, 3));
        assert!(Ratio::new(2, 4) == Ratio::new(1, 2));
        assert!(Ratio::int(3) > Ratio::new(5, 2));
    }

    #[test]
    fn sum_and_scale() {
        let s: Ratio = [Ratio::new(1, 2), Ratio::new(1, 3), Ratio::new(1, 6)]
            .into_iter()
            .sum();
        assert_eq!(s, Ratio::ONE);
        assert_eq!(Ratio::new(1, 2).scale(4), Ratio::int(2));
    }

    #[test]
    fn min_max() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(2, 3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Ratio::new(2, 4));
        s.insert(Ratio::new(1, 2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn large_value_comparisons() {
        // The Theorem 7.2 bound shape: 2^{n+1} / (2^{m+n} − 1).
        let b = Ratio::new_i128(1 << 21, (1i128 << 40) - 1);
        let c = Ratio::new_i128((1 << 21) + 1, (1i128 << 40) - 1);
        assert!(b < c);
    }

    /// `Ord::cmp`'s fast paths against the reduce-first comparison on
    /// operands of every magnitude, including ones within a factor 2
    /// of `i128::MAX` where the plain cross product overflows.
    #[test]
    fn cmp_fast_paths_agree_with_cross_reduction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCA710);
        let part = |rng: &mut StdRng| -> i128 {
            let magnitude = match rng.gen_range(0..4) {
                0 => i128::from(rng.gen_range(0i64..=12)),
                1 => i128::from(rng.gen_range(0i64..=i64::MAX)),
                2 => i128::MAX / 2 + i128::from(rng.gen_range(0i64..=i64::MAX)),
                _ => i128::MAX - i128::from(rng.gen_range(0i64..=1000)),
            };
            if rng.gen_range(0..2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        };
        let (mut fitted, mut overflowed, mut shared_den) = (0, 0, 0);
        for _ in 0..20_000 {
            let (a_den, b_den) = (part(&mut rng).abs().max(1), part(&mut rng).abs().max(1));
            let a = Ratio::new_i128(part(&mut rng), a_den);
            let b = if rng.gen_range(0..4) == 0 {
                Ratio::new_i128(part(&mut rng), a_den)
            } else {
                Ratio::new_i128(part(&mut rng), b_den)
            };
            shared_den += usize::from(a.den == b.den);
            match a.cmp_cross_reduced(&b) {
                Some(expected) => {
                    assert_eq!(a.cmp(&b), expected, "{a} vs {b}");
                    assert_eq!(b.cmp(&a), expected.reverse(), "{b} vs {a}");
                    fitted += 1;
                }
                None => {
                    // The panic case: no fast path may claim it.
                    assert_ne!(a.den, b.den, "{a} vs {b}");
                    assert!(
                        a.num.checked_mul(b.den).is_none() || b.num.checked_mul(a.den).is_none(),
                        "{a} vs {b}"
                    );
                    overflowed += 1;
                }
            }
        }
        assert!(fitted > 1000 && overflowed > 1000 && shared_den > 1000);
    }

    #[test]
    #[should_panic(expected = "Ratio arithmetic overflow")]
    fn cmp_panics_when_the_reduced_cross_product_overflows() {
        // Coprime numerators and denominators: nothing to divide out.
        let a = Ratio::new_i128(i128::MAX, 2);
        let b = Ratio::new_i128(i128::MAX - 2, 3);
        let _ = a.cmp(&b);
    }

    /// `checked_add`'s equal-denominator fast path against the lcm path
    /// on value *and* representation: integers, shared non-unit
    /// denominators that need a reduce, sums that cancel to zero, and
    /// numerators near `i128::MAX` where both must return `None`.
    #[test]
    fn add_fast_path_agrees_with_the_lcm_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xADD);
        let num = |rng: &mut StdRng| -> i128 {
            let magnitude = match rng.gen_range(0..3) {
                0 => i128::from(rng.gen_range(0i64..=12)),
                1 => i128::from(rng.gen_range(0i64..=i64::MAX)),
                _ => i128::MAX - i128::from(rng.gen_range(0i64..=1000)),
            };
            if rng.gen_range(0..2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        };
        let same = |a: Option<Ratio>, b: Option<Ratio>| match (a, b) {
            (Some(x), Some(y)) => (x.num, x.den) == (y.num, y.den),
            (None, None) => true,
            _ => false,
        };
        let (mut integers, mut reduced, mut cancelled, mut overflowed) = (0, 0, 0, 0);
        for _ in 0..20_000 {
            let den = match rng.gen_range(0..3) {
                0 => 1,
                1 => i128::from(rng.gen_range(2i64..=12)),
                _ => i128::from(rng.gen_range(2i64..=i64::MAX)),
            };
            let a = Ratio::new_i128(num(&mut rng), den);
            let b = match rng.gen_range(0..4) {
                0 => -a,
                _ => Ratio::new_i128(num(&mut rng), den),
            };
            if a.den != b.den {
                continue; // reduced apart: `checked_add` is the lcm path
            }
            if a.num.checked_add(b.num) == Some(i128::MIN) {
                continue; // `gcd` cannot take |i128::MIN| on either path
            }
            let (fast, lcm) = (a.checked_add(b), a.checked_add_lcm(b));
            assert!(same(fast, lcm), "{a} + {b}: {fast:?} vs {lcm:?}");
            assert!(same(b.checked_add(a), lcm), "{b} + {a}");
            match fast {
                None => overflowed += 1,
                Some(sum) => {
                    integers += usize::from(a.den == 1);
                    reduced += usize::from(sum.den != a.den);
                    cancelled += usize::from(sum.is_zero());
                }
            }
        }
        assert!(integers > 1000 && reduced > 1000 && cancelled > 1000 && overflowed > 1000);
        let sixth = Ratio::new(1, 6);
        assert_eq!(sixth + sixth, Ratio::new(1, 3));
        assert_eq!((sixth + sixth).denominator(), 3);
    }

    #[test]
    #[should_panic(expected = "Ratio arithmetic overflow")]
    fn add_still_panics_on_integer_overflow() {
        let _ = Ratio::new_i128(i128::MAX, 1) + Ratio::ONE;
    }

    #[test]
    fn division_by_negative() {
        assert_eq!(Ratio::int(1) / Ratio::new(-1, 2), Ratio::int(-2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ratio::int(7).to_string(), "7");
        assert_eq!(Ratio::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn is_predicates() {
        assert!(Ratio::ZERO.is_zero());
        assert!(Ratio::new(-1, 2).is_negative());
    }

    #[test]
    fn to_f64_close() {
        assert!((Ratio::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn abs_flips_sign_only() {
        assert_eq!(Ratio::new(-3, 4).abs(), Ratio::new(3, 4));
        assert_eq!(Ratio::new(3, 4).abs(), Ratio::new(3, 4));
        assert_eq!(Ratio::ZERO.abs(), Ratio::ZERO);
    }

    #[test]
    fn from_f64_exact_roundtrips_dyadics() {
        for r in [
            Ratio::ZERO,
            Ratio::ONE,
            Ratio::new(1, 4),
            Ratio::new(-7, 8),
            Ratio::int(12345),
            Ratio::new(3, 1 << 20),
        ] {
            assert_eq!(Ratio::from_f64_exact(r.to_f64()), Some(r));
        }
    }

    #[test]
    fn from_f64_exact_captures_rounding_of_non_dyadics() {
        // 1/3 is not a dyadic rational, so to_f64 rounds; the exact
        // rational of that float differs from 1/3 by a tiny but
        // strictly positive amount.
        let third = Ratio::new(1, 3);
        let back = Ratio::from_f64_exact(third.to_f64()).unwrap();
        assert_ne!(back, third);
        let dev = (back - third).abs();
        assert!(dev > Ratio::ZERO);
        assert!(dev < Ratio::new_i128(1, 1 << 50));
    }

    #[test]
    fn from_f64_exact_rejects_non_finite_and_extremes() {
        assert_eq!(Ratio::from_f64_exact(f64::NAN), None);
        assert_eq!(Ratio::from_f64_exact(f64::INFINITY), None);
        assert_eq!(Ratio::from_f64_exact(f64::NEG_INFINITY), None);
        assert_eq!(Ratio::from_f64_exact(f64::MAX), None);
        assert_eq!(Ratio::from_f64_exact(f64::MIN_POSITIVE / 4.0), None);
    }
}
