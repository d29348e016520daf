//! What a tenant hands the registry: a complete, content-addressable
//! description of one QRD universe.

use crate::fingerprint::{FingerprintEncoder, Fingerprintable, UniverseKey};
use divr_core::coreset::{CoresetConfig, PreparedCoreset};
use divr_core::distance::Distance;
use divr_core::engine::{DeltaError, DeltaOp, PreparedUniverse, ServeError};
use divr_core::relevance::Relevance;
use divr_core::{Deadline, Ratio, SharedPrepared};
use divr_relquery::Tuple;
use std::sync::{Arc, OnceLock};

/// The prepared state the registry caches for one spec — full-matrix or
/// coreset, by the spec's serving mode. Defined in `divr_core` (the
/// pipeline's auto-escalation returns the same type).
pub use divr_core::pipeline::PreparedVariant;

/// A relevance function the registry can serve: evaluable *and*
/// content-addressable, usable from any worker thread.
pub trait ServableRelevance: Relevance + Fingerprintable + Send + Sync {}
impl<T: Relevance + Fingerprintable + Send + Sync> ServableRelevance for T {}

/// A distance function the registry can serve (see
/// [`ServableRelevance`]).
pub trait ServableDistance: Distance + Fingerprintable + Send + Sync {}
impl<T: Distance + Fingerprintable + Send + Sync> ServableDistance for T {}

/// Adapts the servable oracle to the plain `Distance + Send + Sync`
/// object the prepared universe stores.
pub(crate) struct OracleAdapter(pub(crate) Arc<dyn ServableDistance>);

impl Distance for OracleAdapter {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.0.dist(a, b)
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        self.0.dist_f64(a, b)
    }

    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        self.0.key_column(items)
    }

    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }
}

/// How a tenant asks the registry to prepare a large universe: select
/// `budget` coreset representatives instead of building the `n × n`
/// matrix (see [`divr_core::coreset`] for the algorithm and quality
/// contract). Part of the cache key — the same universe content served
/// full-matrix and coreset (or with two budgets) occupies distinct,
/// honestly metered cache entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoresetSpec {
    /// Representative budget `m` (also the largest servable `k`).
    pub budget: usize,
    /// Full-universe swap-refinement rounds per `F_MS`/`F_MM` answer.
    pub refine_rounds: usize,
}

impl CoresetSpec {
    /// A coreset mode with the given budget and no refinement.
    pub fn with_budget(budget: usize) -> Self {
        CoresetSpec {
            budget,
            refine_rounds: 0,
        }
    }

    /// This mode as the core layer's build configuration.
    pub(crate) fn config(&self, threads: usize) -> CoresetConfig {
        CoresetConfig {
            budget: self.budget,
            refine_rounds: self.refine_rounds,
            threads,
        }
    }
}

/// One QRD universe as presented to the registry: the materialized
/// result set `Q(D)`, the relevance and distance functions, λ, and the
/// serving mode (full matrix, or coreset for large universes).
///
/// Two specs with the same *content* — same tuples in the same order,
/// same function configurations, same λ, same serving mode — address
/// the same cache entry regardless of which `Arc`s they hold; see
/// [`UniverseSpec::key`].
#[derive(Clone)]
pub struct UniverseSpec {
    universe: Vec<Tuple>,
    rel: Arc<dyn ServableRelevance>,
    dis: Arc<dyn ServableDistance>,
    lambda: Ratio,
    coreset: Option<CoresetSpec>,
    /// [`UniverseSpec::key`], computed on first use: fingerprinting is
    /// `O(content)` and one frame asks for it more than once (admission
    /// ledger, then the registry). Every method that changes content
    /// resets it.
    key: OnceLock<UniverseKey>,
}

impl UniverseSpec {
    /// Bundles a universe. Panics if `λ ∉ [0, 1]` (same contract as the
    /// rest of the workspace).
    pub fn new(
        universe: Vec<Tuple>,
        rel: Arc<dyn ServableRelevance>,
        dis: Arc<dyn ServableDistance>,
        lambda: Ratio,
    ) -> Self {
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        UniverseSpec {
            universe,
            rel,
            dis,
            lambda,
            coreset: None,
            key: OnceLock::new(),
        }
    }

    /// Switches this spec to coreset serving: preparation selects
    /// `mode.budget` representatives in `O(n·m)` distance evaluations
    /// and never allocates the `n × n` matrix — the only viable mode
    /// for universes whose full matrix exceeds memory. The mode is part
    /// of the content key, so full and coreset preparations of the same
    /// universe are distinct cache entries with honest byte accounting.
    pub fn with_coreset(mut self, mode: CoresetSpec) -> Self {
        self.coreset = Some(mode);
        self.key = OnceLock::new();
        self
    }

    /// The coreset serving mode, if set.
    pub fn coreset(&self) -> Option<CoresetSpec> {
        self.coreset
    }

    /// The materialized universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// The trade-off parameter λ.
    pub fn lambda(&self) -> Ratio {
        self.lambda
    }

    /// The relevance function.
    pub fn relevance(&self) -> &Arc<dyn ServableRelevance> {
        &self.rel
    }

    /// The distance function.
    pub fn distance(&self) -> &Arc<dyn ServableDistance> {
        &self.dis
    }

    /// The spec describing this universe after one delta operation:
    /// same functions, λ, and serving mode, with the tuple appended
    /// (`Insert`) or swap-removed (`Remove`). The result's
    /// [`UniverseSpec::key`] is the *content* fingerprint of the mutated
    /// universe — identical to the key of a spec built flat from the
    /// same tuples — so a delta chain and its from-scratch equivalent
    /// can never occupy different cache entries (and two different
    /// contents can never share one; see [`crate::fingerprint`]).
    ///
    /// Fails with [`DeltaError::IndexOutOfRange`] if a `Remove` index is
    /// not below the current universe size.
    pub fn apply(&self, op: &DeltaOp) -> Result<UniverseSpec, DeltaError> {
        let mut next = self.clone();
        op.apply_to(&mut next.universe)?;
        next.key = OnceLock::new();
        Ok(next)
    }

    /// The injective content fingerprint of this universe (see
    /// [`crate::fingerprint`] for why distinct content is guaranteed —
    /// not merely likely — to yield distinct keys).
    pub fn key(&self) -> UniverseKey {
        self.key.get_or_init(|| self.fingerprint()).clone()
    }

    fn fingerprint(&self) -> UniverseKey {
        let mut enc = FingerprintEncoder::new();
        enc.write_str("universe");
        enc.write_usize(self.universe.len());
        for t in &self.universe {
            enc.write_tuple(t);
        }
        enc.write_str("rel");
        self.rel.fingerprint(&mut enc);
        enc.write_str("dis");
        self.dis.fingerprint(&mut enc);
        enc.write_str("lambda");
        enc.write_ratio(self.lambda);
        match self.coreset {
            None => enc.write_str("mode:full"),
            Some(cs) => {
                enc.write_str("mode:coreset");
                enc.write_usize(cs.budget);
                enc.write_usize(cs.refine_rounds);
            }
        }
        UniverseKey::from_bytes(enc.bytes())
    }

    /// Pays the **full-matrix** preparation cost — relevance cache plus
    /// the `O(n²)` distance matrix — and returns the shareable result,
    /// regardless of the spec's serving mode and without validation.
    /// This is the exact/oracle path (the conformance suites build
    /// their reference engines from it); the registry itself prepares
    /// through [`UniverseSpec::try_prepare_variant_deadline`], which
    /// honors the mode and refuses non-finite scores.
    pub fn prepare(&self, threads: usize) -> SharedPrepared {
        Arc::new(PreparedUniverse::build_shared(
            self.universe.clone(),
            &*self.rel,
            Arc::new(OracleAdapter(self.dis.clone())),
            self.lambda,
            threads,
        ))
    }

    /// [`UniverseSpec::try_prepare_variant_deadline`] with
    /// [`Deadline::none`].
    pub fn try_prepare_variant(&self, threads: usize) -> Result<PreparedVariant, ServeError> {
        self.try_prepare_variant_deadline(threads, Deadline::none())
    }

    /// Prepares this spec the way the registry caches it — full-matrix
    /// state for plain specs, coreset state (no `n × n` allocation)
    /// when [`UniverseSpec::with_coreset`] was set — and validates it:
    /// a universe whose oracles emitted a non-finite float is refused
    /// ([`ServeError::NonFiniteScore`]) before it can reach the argmax
    /// rounds, where `NaN` comparisons would silently mis-select.
    ///
    /// The `O(n²)` (or `O(n·m)`) build polls `deadline` at row /
    /// iteration boundaries and is abandoned with
    /// [`ServeError::DeadlineExceeded`] once it trips. Either refusal
    /// drops the built state; it must never be cached (the registry's
    /// cache only inserts `Ok` results, which preserves that).
    pub fn try_prepare_variant_deadline(
        &self,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, ServeError> {
        let dis = Arc::new(OracleAdapter(self.dis.clone()));
        let prepared = match self.coreset {
            None => PreparedVariant::Full(Arc::new(
                PreparedUniverse::try_build_shared_deadline(
                    self.universe.clone(),
                    &*self.rel,
                    dis,
                    self.lambda,
                    threads,
                    deadline,
                )?,
            )),
            Some(mode) => PreparedVariant::Coreset(Arc::new(
                PreparedCoreset::try_build_shared_deadline(
                    self.universe.clone(),
                    &*self.rel,
                    dis,
                    self.lambda,
                    &mode.config(threads),
                    deadline,
                )?,
            )),
        };
        prepared.check_finite()?;
        Ok(prepared)
    }
}

impl std::fmt::Debug for UniverseSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniverseSpec")
            .field("n", &self.universe.len())
            .field("lambda", &self.lambda)
            .field("coreset", &self.coreset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_core::distance::NumericDistance;
    use divr_core::relevance::AttributeRelevance;

    fn spec(n: i64) -> UniverseSpec {
        UniverseSpec::new(
            (0..n).map(|i| Tuple::ints([i, i % 3])).collect(),
            Arc::new(AttributeRelevance {
                attr: 1,
                default: Ratio::ZERO,
            }),
            Arc::new(NumericDistance {
                attr: 0,
                fallback: Ratio::ZERO,
            }),
            Ratio::new(1, 2),
        )
    }

    /// A key already handed out must not follow the spec into a
    /// different content or serving mode.
    #[test]
    fn memoized_key_never_outlives_the_content_it_describes() {
        let base = spec(6);
        let key = base.key();
        assert_eq!(base.key(), key);
        assert_eq!(base.clone().key(), key);

        let coreset = base.clone().with_coreset(CoresetSpec::with_budget(4));
        assert_ne!(coreset.key(), key);
        assert_eq!(
            coreset.key(),
            spec(6).with_coreset(CoresetSpec::with_budget(4)).key()
        );

        let grown = base.apply(&DeltaOp::Insert(Tuple::ints([6, 0]))).unwrap();
        assert_eq!(grown.key(), spec(7).key());
        let shrunk = grown.apply(&DeltaOp::Remove(6)).unwrap();
        assert_eq!(shrunk.key(), key);
    }
}
