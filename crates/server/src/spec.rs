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
    decode_distance, decode_relevance, fingerprint_bytes, read_distance, read_relevance,
    FingerprintEncoder, Fingerprintable, UniverseKey,
};
use divr_core::coreset::{CoresetConfig, PreparedCoreset};
use divr_core::distance::Distance;
use divr_core::engine::{PreparedUniverse, ServeError};
use divr_core::relevance::Relevance;
use divr_core::{ByteReader, ByteWriter, CodecError, Deadline, Ratio, SharedPrepared};
use divr_relquery::{Tuple, Value};
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
    /// else the exact full matrix — then `check_finite`. The full
    /// matrix keeps growth headroom only when `growable`: the query
    /// front door's entries, which base edits patch in place; a serve
    /// frame's universe is content-addressed and never patched, so it
    /// allocates exactly `n²` cells. A coreset over encoded `rows` holds
    /// their bytes; one over tuples encodes them once. Refusals and the
    /// deadline are as
    /// [`UniverseSpec::try_prepare_variant`] documents them.
    pub(crate) fn build(
        &self,
        rows: BuildRows,
        auto: Option<CoresetConfig>,
        growable: bool,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, ServeError> {
        let (rel, dis, lambda) = (&*self.rel, self.dis.clone(), self.lambda);
        let explicit = self.coreset.map(|mode| CoresetConfig {
            budget: mode.budget,
            refine_rounds: mode.refine_rounds,
            threads,
        });
        let prepared = match (explicit.or(auto), rows) {
            (Some(config), BuildRows::Tuples(tuples)) => {
                PreparedVariant::Coreset(Arc::new(PreparedCoreset::try_build_shared_deadline(
                    tuples, rel, dis, lambda, &config, deadline,
                )?))
            }
            (Some(config), BuildRows::Encoded { bytes, at }) => {
                PreparedVariant::Coreset(Arc::new(PreparedCoreset::try_build_rows_deadline(
                    bytes, at, rel, dis, lambda, &config, deadline,
                )?))
            }
            (None, rows) => PreparedVariant::Full(Arc::new(PreparedUniverse::try_build_shared_deadline(
                rows.into_tuples(),
                rel,
                dis,
                lambda,
                threads,
                growable,
                deadline,
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

/// The universe an [`Instance::build`] consumes: tuples, or rows already
/// encoded in [`ByteWriter::write_tuples`]'s layout, whose count sits at
/// byte `at` of `bytes` — a universe key's, which a coreset entry then
/// holds as its rows.
pub(crate) enum BuildRows {
    Tuples(Vec<Tuple>),
    Encoded { bytes: Arc<Vec<u8>>, at: usize },
}

impl BuildRows {
    /// The rows as tuples, decoded if they are encoded.
    fn into_tuples(self) -> Vec<Tuple> {
        match self {
            BuildRows::Tuples(tuples) => tuples,
            BuildRows::Encoded { bytes, at } => ByteReader::new(&bytes[at..])
                .read_tuples()
                .expect("a spec's rows are an encoding it wrote or checked"),
        }
    }
}

/// The word a universe key starts with.
const UNIVERSE: &str = "universe";

/// Where a universe key's rows start: after its [`UNIVERSE`] word (a
/// length and the word's bytes), at the row count.
const ROWS_AT: usize = 8 + UNIVERSE.len();

/// A universe's rows written straight into its key encoding, a cell at
/// a time, with no [`Tuple`] built — how the frame reader hands over a
/// universe ([`UniverseSpec::from_rows`]). The layout is
/// [`ByteWriter::write_tuples`]'s: the row count, then per row its arity
/// and sort-tagged values, through the same value and arity primitives;
/// each count is patched in once its sequence ends. Whatever the calls,
/// the bytes are well formed: a row opens at its first cell and
/// [`UniverseRows::end_row`] closes it.
pub struct UniverseRows {
    enc: FingerprintEncoder,
    n: usize,
    /// The open row: where its arity word sits, and its cells so far.
    row: Option<(usize, usize)>,
}

impl Default for UniverseRows {
    fn default() -> Self {
        let mut enc = FingerprintEncoder::new();
        enc.write_str(UNIVERSE);
        enc.write_usize(0); // the row count, patched in by `finish`
        UniverseRows {
            enc,
            n: 0,
            row: None,
        }
    }
}

impl UniverseRows {
    /// Appends a cell to the open row, opening one if none is.
    pub fn push_cell(&mut self, cell: &Value) {
        let enc = &mut self.enc;
        let (_, arity) = self.row.get_or_insert_with(|| (open_row(enc), 0));
        *arity += 1;
        enc.write_value(cell);
    }

    /// Closes the open row: an empty one when no cell opened it.
    pub fn end_row(&mut self) {
        let (at, arity) = match self.row.take() {
            Some(row) => row,
            None => (open_row(&mut self.enc), 0),
        };
        self.enc.patch_usize(at, arity);
        self.n += 1;
    }

    /// The rows section, every count filled in, and the row count.
    fn finish(mut self) -> (Vec<u8>, usize) {
        if self.row.is_some() {
            self.end_row();
        }
        self.enc.patch_usize(ROWS_AT, self.n);
        (self.enc.into_bytes(), self.n)
    }
}

/// Opens a row: writes its arity word, to be patched when it ends.
fn open_row(enc: &mut FingerprintEncoder) -> usize {
    let at = enc.bytes().len();
    enc.write_usize(0);
    at
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
///
/// The spec holds its universe as the key's canonical bytes, not as
/// tuples: a warm serve needs only the key, so the tuples are decoded
/// from those bytes when something asks for them — a build on a cache
/// miss, or [`UniverseSpec::universe`].
#[derive(Clone)]
pub struct UniverseSpec {
    /// The key's bytes: `"universe"`, the rows in
    /// [`ByteWriter::write_tuples`]'s layout, then the instance's key
    /// tail ([`Instance::write_key_tail`]). [`UniverseSpec::key`] shares
    /// them.
    bytes: Arc<Vec<u8>>,
    /// Where the rows end and the key tail starts.
    tail_at: usize,
    /// The number of rows.
    n: usize,
    instance: Instance,
    /// [`UniverseSpec::key`], computed on first use: the digest is
    /// `O(content)` and one frame asks for the key more than once
    /// (admission ledger, then the registry).
    key: OnceLock<UniverseKey>,
    /// The rows as tuples: decoded on first use of
    /// [`UniverseSpec::universe`]; a spec built from tuples keeps them.
    universe: OnceLock<Vec<Tuple>>,
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
        let mut enc = FingerprintEncoder::new();
        enc.write_str(UNIVERSE);
        enc.write_tuples(&universe);
        let n = universe.len();
        Self::assemble(enc.into_bytes(), n, instance, OnceLock::from(universe))
    }

    /// Bundles rows already in their key encoding with an [`Instance`]:
    /// no tuple is built until a build or [`UniverseSpec::universe`]
    /// needs them.
    pub fn from_rows(rows: UniverseRows, instance: Instance) -> Self {
        let (bytes, n) = rows.finish();
        Self::assemble(bytes, n, instance, OnceLock::new())
    }

    /// Appends `instance`'s key tail to `bytes` (the [`UNIVERSE`] word
    /// and the rows, nothing after them).
    fn assemble(
        mut bytes: Vec<u8>,
        n: usize,
        instance: Instance,
        universe: OnceLock<Vec<Tuple>>,
    ) -> Self {
        let tail_at = bytes.len();
        let mut tail = FingerprintEncoder::new();
        instance.write_key_tail(&mut tail, None);
        bytes.extend_from_slice(tail.bytes());
        UniverseSpec {
            bytes: Arc::new(bytes),
            tail_at,
            n,
            instance,
            key: OnceLock::new(),
            universe,
        }
    }

    /// Switches this spec to coreset serving: preparation selects
    /// `mode.budget` representatives in `O(n·m)` distance evaluations
    /// and never allocates the `n × n` matrix — the only viable mode
    /// for universes whose full matrix exceeds memory. The mode is part
    /// of the content key, so full and coreset preparations of the same
    /// universe are distinct cache entries with honest byte accounting.
    /// Only the key tail is rewritten — in place unless a key or a
    /// clone still shares the bytes — and no tuple is decoded.
    pub fn with_coreset(self, mode: CoresetSpec) -> Self {
        let UniverseSpec {
            bytes,
            tail_at,
            n,
            instance,
            key,
            universe,
        } = self;
        drop(key); // the memoized key shares the bytes
        let mut rows = Arc::try_unwrap(bytes).unwrap_or_else(|shared| shared[..tail_at].to_vec());
        rows.truncate(tail_at);
        Self::assemble(rows, n, instance.with_coreset(mode), universe)
    }

    /// The coreset serving mode, if set.
    pub fn coreset(&self) -> Option<CoresetSpec> {
        self.instance.coreset
    }

    /// The number of tuples in the universe, read without decoding them.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The encoded size of the rows (their count included): what a
    /// coreset entry over them holds as its rows
    /// ([`PreparedCoreset::entry_bytes`]).
    pub fn row_bytes(&self) -> usize {
        self.rows().len()
    }

    /// The materialized universe `Q(D)`, decoded from the key bytes on
    /// first use.
    pub fn universe(&self) -> &[Tuple] {
        self.universe.get_or_init(|| self.decode())
    }

    /// The functions, λ and serving mode over the universe.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The rows section of the key: the row count, then the rows —
    /// [`ByteWriter::write_tuples`]'s bytes for [`UniverseSpec::universe`].
    pub(crate) fn rows(&self) -> &[u8] {
        &self.bytes[ROWS_AT..self.tail_at]
    }

    /// The rows as tuples, read from the key bytes.
    fn decode(&self) -> Vec<Tuple> {
        self.encoded(&self.bytes).into_tuples()
    }

    /// The rows in `bytes`, which hold this spec's key.
    fn encoded(&self, bytes: &Arc<Vec<u8>>) -> BuildRows {
        BuildRows::Encoded {
            bytes: bytes.clone(),
            at: ROWS_AT,
        }
    }

    /// The tuples a build consumes: decoded for it, unless
    /// [`UniverseSpec::universe`] already holds them.
    fn tuples(&self) -> Vec<Tuple> {
        self.universe
            .get()
            .cloned()
            .unwrap_or_else(|| self.decode())
    }

    /// The injective content fingerprint of this universe (see
    /// [`UniverseKey`] for why distinct content is guaranteed —
    /// not merely likely — to yield distinct keys). Its bytes are the
    /// spec's own, shared, not copied.
    pub fn key(&self) -> UniverseKey {
        self.key
            .get_or_init(|| UniverseKey::from_shared(self.bytes.clone()))
            .clone()
    }

    /// The spec a registry key was written for — the inverse of
    /// [`UniverseSpec::key`] (with [`Instance::write_key_tail`]'s
    /// `mode:full` or `mode:coreset` tail), sharing the key's bytes.
    /// `Ok(None)` for a key that is not a universe's (a query's); an
    /// error for a universe key with no spec behind it here (an oracle
    /// tag no reader knows, trailing bytes). The rows are read to check
    /// them and the oracles read in place, unchecked: a decoded spec is
    /// accepted only if its own key tail is exactly the key's, and that
    /// round trip is the decoder's honesty check. How a checkpoint reads
    /// the resident universes back out of the cache.
    pub(crate) fn from_key(key: &UniverseKey) -> Result<Option<Self>, CodecError> {
        let mut r = ByteReader::new(key.bytes());
        if r.read_str() != Ok(UNIVERSE) {
            return Ok(None);
        }
        let n = r.skip_tuples()?;
        let tail_at = key.bytes().len() - r.remaining();
        r.read_str()?; // rel
        let rel = read_relevance(&mut r)?;
        r.read_str()?; // dis
        let dis = read_distance(&mut r)?;
        r.read_str()?; // lambda
        let mut instance = Instance::try_new(rel, dis, r.read_ratio()?)
            .ok_or(CodecError::Invalid("lambda range"))?;
        if r.read_str()? != "mode:full" {
            instance = instance.with_coreset(CoresetSpec {
                budget: r.read_usize()?,
                refine_rounds: r.read_usize()?,
            });
        }
        let mut tail = FingerprintEncoder::new();
        instance.write_key_tail(&mut tail, None);
        if !r.is_empty() || tail.bytes() != &key.bytes()[tail_at..] {
            return Err(CodecError::Invalid("key round-trip"));
        }
        Ok(Some(UniverseSpec {
            bytes: key.shared().clone(),
            tail_at,
            n,
            instance,
            key: OnceLock::from(key.clone()),
            universe: OnceLock::new(),
        }))
    }

    /// Pays the **full-matrix** preparation cost — relevance cache plus
    /// the `O(n²)` distance matrix — and returns the shareable result,
    /// regardless of the spec's serving mode and without validation.
    /// This is the exact/oracle path (the conformance suites build
    /// their reference engines from it); the registry itself prepares
    /// through the same build as [`UniverseSpec::try_prepare_variant`],
    /// which honors the mode and refuses non-finite scores.
    pub fn prepare(&self, threads: usize) -> SharedPrepared {
        Arc::new(PreparedUniverse::build_shared(
            self.tuples(),
            &*self.instance.rel,
            self.instance.dis.clone(),
            self.instance.lambda,
            threads,
        ))
    }

    /// Prepares this spec the way the registry caches it — full-matrix
    /// state for plain specs, coreset state (no `n × n` allocation)
    /// when [`UniverseSpec::with_coreset`] was set — and validates it:
    /// a universe whose oracles emitted a non-finite float is refused
    /// ([`ServeError::NonFiniteScore`]) before it can reach the argmax
    /// rounds, where `NaN` comparisons would silently mis-select. The
    /// tuples are decoded for the build and moved into it.
    ///
    /// A refusal drops the built state; it must never be cached (the
    /// registry's cache only inserts `Ok` results, which preserves
    /// that). The registry's own misses run the same build under the
    /// frame's deadline (`UniverseSpec::try_prepare_resident`), polled
    /// at row / iteration boundaries and refused with
    /// [`ServeError::DeadlineExceeded`] once it trips.
    pub fn try_prepare_variant(&self, threads: usize) -> Result<PreparedVariant, ServeError> {
        self.build_in(&self.bytes, threads, Deadline::none())
    }

    /// [`UniverseSpec::try_prepare_variant`] under `deadline`, for a cache miss:
    /// the prepared state and the exact key it is to be resident under
    /// ([`UniverseKey::exact`]). A coreset entry holds that key's bytes
    /// as its rows, so the cache keeps one copy of them, not two.
    pub(crate) fn try_prepare_resident(
        &self,
        threads: usize,
        deadline: Deadline,
    ) -> Result<(UniverseKey, PreparedVariant), ServeError> {
        let resident = self.key().exact();
        let prepared = self.build_in(resident.shared(), threads, deadline)?;
        Ok((resident, prepared))
    }

    /// The build over this spec's key bytes held in `bytes`: a coreset
    /// entry keeps them as its rows; a full matrix decodes them into its
    /// tuples (or takes the ones [`UniverseSpec::universe`] holds).
    fn build_in(
        &self,
        bytes: &Arc<Vec<u8>>,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedVariant, ServeError> {
        let rows = match self.instance.coreset {
            Some(_) => self.encoded(bytes),
            None => BuildRows::Tuples(self.tuples()),
        };
        self.instance.build(rows, None, false, threads, deadline)
    }
}

impl std::fmt::Debug for UniverseSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniverseSpec")
            .field("n", &self.n)
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

    /// A serve frame's universe is never patched, so its full matrix is
    /// exactly `n²` cells, whether the build got a fresh allocation or
    /// the one a dropped matrix of its size parked (≥ 1 MB, so
    /// `n ≥ 363`; no other test of this binary builds one that large).
    #[test]
    fn a_serve_frame_build_is_n_squared_fresh_or_recycled() {
        let n = 371;
        let spec = spec(n as i64);
        let matrix_at = |prepared: &PreparedVariant| {
            let matrix = prepared.as_full().expect("a plain spec is full-matrix").matrix();
            assert_eq!(matrix.approx_bytes(), n * n * 8);
            matrix.row(0).as_ptr()
        };
        let first = spec.try_prepare_variant(2).unwrap();
        let parked_at = matrix_at(&first);
        drop(first);
        let recycled = spec.try_prepare_variant(2).unwrap();
        assert_eq!(matrix_at(&recycled), parked_at, "the build took the parked buffer");
    }

    /// A spec whose rows were written into key bytes a cell at a time
    /// is the spec built from the same tuples — key, universe, `n`, the
    /// key after a switch to coreset mode (re-tailed in place, or copied
    /// while a key shares the bytes), and the `WarmUniverse` record,
    /// which must be the layout written from tuples — over extreme
    /// integers, strings JSON escapes or spells in non-ASCII, arities
    /// 0 to 4 and the empty universe.
    #[test]
    fn rows_written_as_key_bytes_are_the_tuples() {
        use crate::persist::{codec::encode_record, Record};
        use divr_relquery::Value;

        let strings = ["\"\\/\u{8}\u{c}\n\r\t", "héllo — 世界 🦀", ""];
        let cell = |i: usize| match i % 3 {
            0 => Value::Int(i64::MIN + i as i64),
            1 => Value::str(strings[i / 3 % 3]),
            _ => Value::Int(i64::MAX - i as i64),
        };
        let universes: Vec<Vec<Tuple>> = vec![
            vec![],
            vec![Tuple::new(vec![])],
            vec![Tuple::ints([i64::MIN]), Tuple::ints([i64::MAX, 0, -1])],
            vec![
                Tuple::new(vec![Value::str("\"quoted\" \\ \u{1}\u{1f}"), Value::Int(0)]),
                Tuple::new(vec![Value::str("naïve façade — 東京 🦀"), Value::str("")]),
            ],
            (0..=4)
                .map(|arity| Tuple::new((0..arity).map(|j| cell(arity + j)).collect()))
                .collect(),
        ];
        let mode = CoresetSpec {
            budget: 3,
            refine_rounds: 1,
        };
        for universe in universes {
            let instance = spec(1).instance().clone();
            let by_tuples = UniverseSpec::from_instance(universe.clone(), instance.clone());
            let mut rows = UniverseRows::default();
            for tuple in &universe {
                for value in tuple.iter() {
                    rows.push_cell(value);
                }
                rows.end_row();
            }
            let by_bytes = UniverseSpec::from_rows(rows, instance.clone());

            assert_eq!(
                by_bytes.key().bytes(),
                by_tuples.key().bytes(),
                "{universe:?}"
            );
            assert_eq!(by_bytes.key(), by_tuples.key());
            assert_eq!((by_bytes.n(), by_tuples.n()), (universe.len(), universe.len()));
            assert_eq!(by_bytes.universe(), &universe[..]);
            let coreset_key = by_tuples.clone().with_coreset(mode).key();
            assert_eq!(by_bytes.clone().with_coreset(mode).key(), coreset_key);

            let mut expected = FingerprintEncoder::new();
            expected.write_u8(1);
            expected.write_tuples(&universe);
            instance.encode(&mut expected);
            expected.write_u64(0);
            expected.write_usize(0);
            for spec in [&by_bytes, &by_tuples] {
                let record = encode_record(&Record::WarmUniverse { spec: spec.clone() });
                assert_eq!(record.ok().as_deref(), Some(expected.bytes()));
            }

            // Unshared, the bytes are re-tailed in place: no tuple decoded.
            let fresh = {
                let mut rows = UniverseRows::default();
                for tuple in &universe {
                    tuple.iter().for_each(|value| rows.push_cell(value));
                    rows.end_row();
                }
                UniverseSpec::from_rows(rows, instance)
            };
            let degraded = fresh.with_coreset(mode);
            assert_eq!(degraded.key(), coreset_key);
            assert!(degraded.universe.get().is_none());
            assert_eq!(degraded.universe(), &universe[..]);
        }
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

    /// `from_key` inverts `key` for every oracle kind and both universe
    /// modes. It leaves a query key alone, and refuses a universe key
    /// with trailing bytes, an oracle tag no reader knows, or bytes that
    /// decode to a spec keyed differently (an unreduced λ).
    #[test]
    fn from_key_inverts_key() {
        use crate::fingerprint::FingerprintEncoder;
        use crate::query::{QueryFrontDoor, QuerySpec};
        use crate::registry::Registry;
        use divr_core::distance::{ConstantDistance, HammingDistance, TableDistance};
        use divr_core::relevance::{ConstantRelevance, TableRelevance};
        use divr_relquery::{parser::parse_query, Database};

        let t = |i| Tuple::ints([i]);
        let rels: Vec<Arc<dyn ServableRelevance>> = vec![
            Arc::new(ConstantRelevance(Ratio::new(2, 3))),
            spec(1).instance().relevance().clone(),
            Arc::new(TableRelevance::with_default(Ratio::ZERO).with(t(1), Ratio::ONE)),
        ];
        let diss: Vec<Arc<dyn ServableDistance>> = vec![
            Arc::new(ConstantDistance(Ratio::ONE)),
            spec(1).instance().distance().clone(),
            Arc::new(HammingDistance {
                weight: Ratio::new(1, 4),
            }),
            Arc::new(
                TableDistance::with_default(Ratio::ZERO)
                    .with(t(2), t(1), Ratio::int(5))
                    .with(t(0), t(1), Ratio::ONE),
            ),
        ];
        let universe = spec(5).universe().to_vec();
        let coreset = CoresetSpec {
            budget: 8,
            refine_rounds: 2,
        };
        for rel in &rels {
            for dis in &diss {
                for mode in [None, Some(coreset)] {
                    let (rel, dis) = (rel.clone(), dis.clone());
                    let mut s = UniverseSpec::new(universe.clone(), rel, dis, Ratio::ONE);
                    if let Some(mode) = mode {
                        s = s.with_coreset(mode);
                    }
                    let decoded = UniverseSpec::from_key(&s.key()).unwrap().unwrap();
                    assert_eq!(decoded.key(), s.key());
                    assert_eq!(decoded.universe(), s.universe());
                    assert_eq!(decoded.coreset(), mode);
                    assert_eq!(decoded.instance().lambda(), Ratio::ONE);
                }
            }
        }

        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("main", db);
        let q = QuerySpec::from_instance(
            parse_query("Q(x, y) :- R(x, y)").unwrap(),
            spec(1).instance().clone(),
        )
        .unwrap();
        let query_key = front.key_for("main", &q).unwrap();
        assert!(UniverseSpec::from_key(&query_key).unwrap().is_none());

        let key = spec(3).key();
        let trailing = UniverseKey::from_bytes(&[key.bytes(), &[0]].concat());
        assert_eq!(
            UniverseSpec::from_key(&trailing).err(),
            Some(CodecError::Invalid("key round-trip"))
        );

        struct Alien;
        impl divr_core::distance::Distance for Alien {
            fn dist(&self, _: &Tuple, _: &Tuple) -> Ratio {
                Ratio::ONE
            }
        }
        impl Fingerprintable for Alien {
            fn fingerprint(&self, enc: &mut FingerprintEncoder) {
                enc.write_str("dis:alien");
            }
        }
        let alien = UniverseSpec::new(universe, rels[0].clone(), Arc::new(Alien), Ratio::ONE);
        assert_eq!(
            UniverseSpec::from_key(&alien.key()).err(),
            Some(CodecError::Invalid("distance tag"))
        );

        // λ = 2/4 spelled out raw (a `Ratio` always writes 1/2).
        let half = spec(3);
        let mut enc = FingerprintEncoder::new();
        enc.write_str("universe");
        enc.write_tuples(half.universe());
        enc.write_str("rel");
        half.instance().relevance().fingerprint(&mut enc);
        enc.write_str("dis");
        half.instance().distance().fingerprint(&mut enc);
        enc.write_str("lambda");
        for word in [2, 0, 4, 0] {
            enc.write_u64(word);
        }
        enc.write_str("mode:full");
        let unreduced = UniverseKey::from_bytes(enc.bytes());
        assert_eq!(
            UniverseSpec::from_key(&unreduced).err(),
            Some(CodecError::Invalid("key round-trip"))
        );
        let decoded = UniverseSpec::from_key(&half.key()).unwrap().unwrap();
        assert_eq!(decoded.key(), half.key());
    }
}
