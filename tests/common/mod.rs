//! Fixtures shared by the key-column differential suites
//! (`coreset_kernel_matches_pairwise`, `mono_sums_match_pairwise`):
//! `[key, score]` universes over a [`NumericDistance`], the same
//! function with its column stripped, and distance-altering wrappers
//! that must not let the column tunnel through.

#![allow(dead_code)] // each suite uses its own subset

use divr::core::distance::ClosureDistance;
use divr::core::prelude::*;
use divr::core::Ratio;
use divr::relquery::{Tuple, Value};
use divr::server::{FingerprintEncoder, Fingerprintable};
use proptest::prelude::*;

pub const REL: AttributeRelevance = AttributeRelevance {
    attr: 1,
    default: Ratio::ZERO,
};

pub fn numeric(fallback: i64) -> NumericDistance {
    NumericDistance {
        attr: 0,
        fallback: Ratio::int(fallback),
    }
}

/// `oracle`'s function with the hook stripped: a closure cannot be
/// asked for a column.
pub fn behind_closure(
    oracle: impl Distance + Send + Sync + 'static,
) -> impl Distance + Send + Sync + 'static {
    ClosureDistance(move |a: &Tuple, b: &Tuple| oracle.dist(a, b))
}

/// `[key, score]` tuples; duplicate rows are duplicate tuples.
pub fn universe_of(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(key, score)| Tuple::ints([key, score]))
        .collect()
}

/// Few distinct keys (negative ones included) and few distinct scores:
/// duplicate tuples, equal-key distinct tuples and float ties in every
/// round and around every cut.
pub fn rows_strategy(n: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((-40i64..=40, 0i64..=6), n)
}

/// A seeded generator for universes too large for a `vec` strategy:
/// `draw(below)` lands in `0..below`.
pub fn draws(seed: u64) -> impl FnMut(i64) -> i64 {
    let mut state = seed | 1;
    move |below| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as i64) % below
    }
}

/// 60-odd distinct keys spread over `0..101`, five score classes.
pub fn spread_universe(n: i64) -> Vec<Tuple> {
    (0..n).map(|i| Tuple::ints([i * 7 % 101, i % 5])).collect()
}

/// Alters the float path of the `NumericDistance` it wraps and offers
/// no column — if the hook tunnelled through, a column reader would
/// see clean integer keys and the fault would vanish.
#[derive(Clone, Debug)]
pub struct NanOver(pub NumericDistance);

impl Distance for NanOver {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.0.dist(a, b)
    }
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a == b {
            0.0
        } else {
            f64::NAN
        }
    }
}

/// `NaN` only against the tuple whose key is `poison`.
#[derive(Clone, Debug)]
pub struct PoisonOver(pub NumericDistance, pub i64);

impl Distance for PoisonOver {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.0.dist(a, b)
    }
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        let poisoned = |t: &Tuple| t.get(0) == Some(&Value::int(self.1));
        if a != b && (poisoned(a) || poisoned(b)) {
            f64::NAN
        } else {
            self.0.dist_f64(a, b)
        }
    }
}

/// Panics on the first off-diagonal float distance.
#[derive(Clone, Debug)]
pub struct PanicOver(pub NumericDistance);

impl Distance for PanicOver {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.0.dist(a, b)
    }
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        assert!(a == b, "injected fault: distance oracle killed the worker");
        0.0
    }
}

macro_rules! fingerprint_as {
    ($($ty:ty => $tag:literal),*) => {$(
        impl Fingerprintable for $ty {
            fn fingerprint(&self, enc: &mut FingerprintEncoder) {
                enc.write_str($tag);
            }
        }
    )*};
}
fingerprint_as!(NanOver => "test:nan-over", PoisonOver => "test:poison-over", PanicOver => "test:panic-over");
