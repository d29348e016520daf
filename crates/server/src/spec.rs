//! What a tenant hands the registry: a complete, content-addressable
//! description of one QRD instance.
//!
//! The paper's instance is `(Q, D, δ_rel, δ_dis, λ, k)`. Both serving
//! surfaces carry the same `(δ_rel, δ_dis, λ, serving mode)` block —
//! [`UniverseSpec`] beside a materialized `Q(D)`,
//! [`QuerySpec`](crate::QuerySpec) beside `Q` over a registered `D` —
//! and that block is one type, [`Instance`], which owns every decision
//! about it exactly once: the λ-range check ([`Instance::try_new`]),
//! the cache-key tail, the durable encoding and its decoder, the
//! persistability test, and the validated build into a
//! [`PreparedVariant`]. The oracle tag vocabulary the encodings embed
//! lives with the fingerprints ([`crate::fingerprint`]).

use crate::fingerprint::{
    decode_distance, decode_relevance, fingerprint_bytes, FingerprintEncoder, Fingerprintable,
    UniverseKey,
};
use divr_core::coreset::{CoresetConfig, PreparedCoreset};
use divr_core::distance::Distance;
use divr_core::engine::{PreparedUniverse, ServeError};
use divr_core::relevance::Relevance;
use divr_core::{ByteReader, ByteWriter, CodecError, Deadline, Ratio, SharedPrepared};
use divr_relquery::Tuple;
use std::sync::{Arc, OnceLock};

/// The prepared state the registry caches for one spec — full-matrix or
/// coreset, by the spec's serving mode. Defined in `divr_core`, beside
/// the two engines it dispatches to.
pub use divr_core::PreparedVariant;

/// A relevance function the registry can serve: evaluable *and*
/// content-addressable, usable from any worker thread.
pub trait ServableRelevance: Relevance + Fingerprintable + Send + Sync {}
impl<T: Relevance + Fingerprintable + Send + Sync> ServableRelevance for T {}

/// A distance function the registry can serve (see
/// [`ServableRelevance`]).
pub trait ServableDistance: Distance + Fingerprintable + Send + Sync {}
impl<T: Distance + Fingerprintable + Send + Sync> ServableDistance for T {}

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
}

/// The part of a QRD instance both serving surfaces share: the
/// relevance and distance functions `δ_rel` and `δ_dis`, the trade-off
/// `λ ∈ [0, 1]`, and the serving mode (an explicit coreset, or the
/// holder's default — full matrix for a [`UniverseSpec`],
/// auto-escalation for a [`QuerySpec`](crate::QuerySpec)).
#[derive(Clone)]
pub struct Instance {
    rel: Arc<dyn ServableRelevance>,
    dis: Arc<dyn ServableDistance>,
    lambda: Ratio,
    coreset: Option<CoresetSpec>,
}

impl Instance {
    /// Bundles the block in its default serving mode; `None` if
    /// `λ ∉ [0, 1]`. Every door an instance enters by — the specs'
    /// constructors, the durable decoder, the JSON reader — comes
    /// through this check.
    pub fn try_new(
        rel: Arc<dyn ServableRelevance>,
        dis: Arc<dyn ServableDistance>,
        lambda: Ratio,
    ) -> Option<Self> {
        (lambda >= Ratio::ZERO && lambda <= Ratio::ONE).then_some(Instance {
            rel,
            dis,
            lambda,
            coreset: None,
        })
    }

    /// [`Instance::try_new`] for callers that own the value: panics if
    /// `λ ∉ [0, 1]` (same contract as the rest of the workspace).
    pub fn new(
        rel: Arc<dyn ServableRelevance>,
        dis: Arc<dyn ServableDistance>,
        lambda: Ratio,
    ) -> Self {
        Self::try_new(rel, dis, lambda).expect("λ must lie in [0, 1]")
    }

    /// Switches to explicit coreset serving (part of the content key).
    pub fn with_coreset(mut self, mode: CoresetSpec) -> Self {
        self.coreset = Some(mode);
        self
    }

    /// The relevance function `δ_rel`.
    pub fn relevance(&self) -> &Arc<dyn ServableRelevance> {
        &self.rel
    }

    /// The distance function `δ_dis`.
    pub fn distance(&self) -> &Arc<dyn ServableDistance> {
        &self.dis
    }

    /// The trade-off parameter λ.
    pub fn lambda(&self) -> Ratio {
        self.lambda
    }

    /// The explicit coreset serving mode, if set.
    pub fn coreset(&self) -> Option<CoresetSpec> {
        self.coreset
    }

    /// The tail every cache key ends in. Without an explicit coreset
    /// the mode is the holder's default: `mode:full` for a materialized
    /// universe (`auto_budget` is `None`), `mode:auto` plus the budget
    /// an escalation would use for a query.
    pub(crate) fn write_key_tail(&self, enc: &mut FingerprintEncoder, auto_budget: Option<usize>) {
        enc.write_str("rel");
        self.rel.fingerprint(enc);
        enc.write_str("dis");
        self.dis.fingerprint(enc);
        enc.write_str("lambda");
        enc.write_ratio(self.lambda);
        match (self.coreset, auto_budget) {
            (Some(mode), _) => {
                enc.write_str("mode:coreset");
                enc.write_usize(mode.budget);
                enc.write_usize(mode.refine_rounds);
            }
            (None, Some(budget)) => {
                enc.write_str("mode:auto");
                enc.write_usize(budget);
            }
            (None, None) => enc.write_str("mode:full"),
        }
    }

    /// The durable form: each oracle as its length-prefixed fingerprint
    /// bytes, λ, then the mode (`0`, or `1` + budget + rounds). A
    /// different byte layout from the key tail — both are frozen by the
    /// golden test in `persist::codec` — over the same four fields.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.write_bytes(&fingerprint_bytes(&*self.rel));
        w.write_bytes(&fingerprint_bytes(&*self.dis));
        w.write_ratio(self.lambda);
        match self.coreset {
            None => w.write_u8(0),
            Some(mode) => {
                w.write_u8(1);
                w.write_usize(mode.budget);
                w.write_usize(mode.refine_rounds);
            }
        }
    }

    /// Inverse of [`Instance::encode`]. Total: an unknown oracle tag, a
    /// λ outside `[0, 1]` or an undefined mode tag is an error.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let rel = decode_relevance(r.read_bytes()?)?;
        let dis = decode_distance(r.read_bytes()?)?;
        let instance =
            Self::try_new(rel, dis, r.read_ratio()?).ok_or(CodecError::Invalid("lambda range"))?;
        match r.read_u8()? {
            0 => Ok(instance),
            1 => Ok(instance.with_coreset(CoresetSpec {
                budget: r.read_usize()?,
                refine_rounds: r.read_usize()?,
            })),
            _ => Err(CodecError::Invalid("coreset mode tag")),
        }
    }

    /// Whether [`Instance::decode`] can rebuild this instance: both
    /// oracles carry fingerprint tags the decoders know (the
    /// chaos-test oracles, for one, do not).
    pub(crate) fn persistable(&self) -> bool {
        decode_relevance(&fingerprint_bytes(&*self.rel)).is_ok()
            && decode_distance(&fingerprint_bytes(&*self.dis)).is_ok()
    }

    /// The one validated build behind every cold prepare and every
    /// recovery: a coreset selected over the whole sequence under the
    /// explicit mode, else under `auto` (a query's auto-escalation);
    /// else the exact full matrix — then `check_finite`. Refusals and
    /// the deadline are as [`UniverseSpec::try_prepare_variant_deadline`]
    /// documents them.
    pub(crate) fn build(
        &self,
        tuples: Vec<Tuple>,
        auto: Option<CoresetConfig>,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, ServeError> {
        let (rel, dis, lambda) = (&*self.rel, self.dis.clone(), self.lambda);
        let explicit = self.coreset.map(|mode| CoresetConfig {
            budget: mode.budget,
            refine_rounds: mode.refine_rounds,
            threads,
        });
        let prepared = match explicit.or(auto) {
            Some(config) => {
                PreparedVariant::Coreset(Arc::new(PreparedCoreset::try_build_shared_deadline(
                    tuples, rel, dis, lambda, &config, deadline,
                )?))
            }
            None => PreparedVariant::Full(Arc::new(PreparedUniverse::try_build_shared_deadline(
                tuples, rel, dis, lambda, threads, deadline,
            )?)),
        };
        prepared.check_finite()?;
        Ok(prepared)
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("λ", &self.lambda)
            .field("coreset", &self.coreset)
            .finish()
    }
}

/// One QRD universe as presented to the registry: the materialized
/// result set `Q(D)` and the [`Instance`] over it — relevance and
/// distance functions, λ, and the serving mode (full matrix, or coreset
/// for large universes).
///
/// Two specs with the same *content* — same tuples in the same order,
/// same function configurations, same λ, same serving mode — address
/// the same cache entry regardless of which `Arc`s they hold; see
/// [`UniverseSpec::key`].
#[derive(Clone)]
pub struct UniverseSpec {
    universe: Vec<Tuple>,
    instance: Instance,
    /// [`UniverseSpec::key`], computed on first use: fingerprinting is
    /// `O(content)` and one frame asks for it more than once (admission
    /// ledger, then the registry). [`UniverseSpec::with_coreset`], the
    /// one method that changes what it describes, starts a fresh one.
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
        Self::from_instance(universe, Instance::new(rel, dis, lambda))
    }

    /// Bundles a universe with an already validated [`Instance`].
    pub fn from_instance(universe: Vec<Tuple>, instance: Instance) -> Self {
        UniverseSpec {
            universe,
            instance,
            key: OnceLock::new(),
        }
    }

    /// Switches this spec to coreset serving: preparation selects
    /// `mode.budget` representatives in `O(n·m)` distance evaluations
    /// and never allocates the `n × n` matrix — the only viable mode
    /// for universes whose full matrix exceeds memory. The mode is part
    /// of the content key, so full and coreset preparations of the same
    /// universe are distinct cache entries with honest byte accounting.
    pub fn with_coreset(self, mode: CoresetSpec) -> Self {
        Self::from_instance(self.universe, self.instance.with_coreset(mode))
    }

    /// The coreset serving mode, if set.
    pub fn coreset(&self) -> Option<CoresetSpec> {
        self.instance.coreset
    }

    /// The materialized universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// The functions, λ and serving mode over the universe.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The injective content fingerprint of this universe (see
    /// [`crate::fingerprint`] for why distinct content is guaranteed —
    /// not merely likely — to yield distinct keys).
    pub fn key(&self) -> UniverseKey {
        self.key
            .get_or_init(|| {
                let mut enc = FingerprintEncoder::new();
                enc.write_str("universe");
                enc.write_tuples(&self.universe);
                self.instance.write_key_tail(&mut enc, None);
                UniverseKey::from_bytes(enc.bytes())
            })
            .clone()
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
            &*self.instance.rel,
            self.instance.dis.clone(),
            self.instance.lambda,
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
        self.instance
            .build(self.universe.clone(), None, threads, deadline)
    }
}

impl std::fmt::Debug for UniverseSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniverseSpec")
            .field("n", &self.universe.len())
            .field("instance", &self.instance)
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
    /// different serving mode.
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
    }
}
