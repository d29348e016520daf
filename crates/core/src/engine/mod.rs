//! The batch diversification engine: precomputed distances, float-path
//! argmax loops, exact-`Ratio` verification.
//!
//! The paper's model is written for *faithfulness*: every score is an
//! exact rational ([`Ratio`]), every distance is recomputed through the
//! [`Distance`] trait object, and the approximation routines of
//! `divr_paper::approx` scan candidates sequentially. That is the right
//! trade-off for reproducing the hardness boundaries of Tables 1–3 — and
//! the wrong one for serving
//! diversification queries at scale, where Zhang et al.
//! ("Diversification on Big Data in Query Processing") identify distance
//! (re)computation as the dominant cost and Capannini et al.
//! ("Efficient Diversification of Web Search Results") show MMR-family
//! selection parallelizes cleanly over candidates.
//!
//! [`Engine`] packages that production path:
//!
//! * a flat, cache-friendly `f64` [`DistanceMatrix`] computed **once**
//!   per universe (in parallel when the machine has cores to spare),
//! * one solver per objective of the paper, all served from one
//!   prepared instance — [`Engine::greedy_max_sum`] (`F_MS`),
//!   [`Engine::gmm_max_min`] (`F_MM`), [`Engine::mono_top_k`] (`F_mono`,
//!   the Theorem 5.4 PTIME selection) — with the per-round argmax over
//!   candidates chunked across threads; `divr_paper::approx` and
//!   `divr_paper::solvers::mono` stay the sequential `Ratio`-path
//!   references they are tested against,
//! * one fallible entry point ([`Engine::serve_into`], with
//!   [`Engine::try_serve`] as its allocating wrapper) that answers
//!   many `(objective, k)` requests against one matrix — what
//!   [`PreparedVariant`](crate::PreparedVariant) dispatches to for the
//!   registry and the query front door of `divr-server`.
//!
//! ## Incremental-gain hot paths
//!
//! The Gollapudi–Sharma pair weight `w(i,j) = (1−λ)(r_i+r_j) + 2λ·d(i,j)`
//! never changes between greedy rounds — only item *availability* does.
//! [`Engine::greedy_max_sum`] exploits that with a **lazy pair-weight
//! heap** (CELF-style): a memoized per-anchor "best remaining partner"
//! preamble — computed once per [`PreparedUniverse`], fused into the
//! thread-sharded matrix build so each row is scanned while cache-hot
//! from being written — is heapified in `O(n)` per request; each round
//! pops anchors, trusting a
//! cached score whenever its partner is still available (weights are
//! static, so the cache is then exact) and rescanning only that
//! anchor's row otherwise. `F_MS` drops from `O(k·n²)` per request to
//! `O(n²)` once per universe plus `O(k·n)` amortized per request — and
//! warm registry hits skip the quadratic part entirely. Availability is
//! tracked with the `O(1)` swap-remove/generation-mark primitives of
//! the private `avail` module instead of `Vec::retain`, and every
//! internal buffer lives in a reusable [`SolveScratch`], so
//! steady-state serving allocates nothing per request
//! ([`Engine::serve_into`]). The
//! differential suite (`tests/lazy_matches_reference.rs`) pins the heap
//! to `divr_paper::approx::greedy_max_sum` — same sets, same exact values.
//!
//! ## Exactness contract
//!
//! Float arithmetic alone would silently break the paper-reproduction
//! guarantees (ties decide reductions). The engine therefore treats
//! `f64` scores as a *filter*, not a verdict: each argmax collects every
//! candidate within `F64_TIE_EPS` of the float maximum and, whenever
//! more than one survives, re-scores exactly in `Ratio` arithmetic via
//! the original [`Distance`] oracle, breaking ties the same way the
//! sequential code does (lowest index / lexicographic pair). As long as
//! float error stays below the tie window — guaranteed for the integer
//! and small-rational scores used throughout this repository — engine
//! results are **identical** to the `Ratio`-path results up to genuinely
//! equal-score ties; `tests/engine_matches_exact.rs` property-tests
//! exactly that.
//!
//! ## Module map
//!
//! | Module | Holds |
//! |---|---|
//! | `matrix` | [`DistanceMatrix`], its fill with the fused hot-row scans (max-sum seed, GMM row bests, finiteness record), its tiled mirror, the free list dropped matrices park their allocation in ([`spare_buffers`]), the one fan-out (`run_dealt`) and its one spawn decision (`fans_out`), the chunked map/reduce |
//! | `ties` | float argmax with the `F64_TIE_EPS` window, exact tie resolution |
//! | `prepared` | [`PreparedUniverse`] (build over an `Arc`-held oracle, memoized preambles and their lazy builders, the delta patch that drops them) |
//! | `solve` | [`Engine`] and [`SolveScratch`]; the lazy-heap work counters ([`solver_counters`]) |
//!
//! The request, error and delta types live here.
//!
//! [`Ratio`]: crate::ratio::Ratio
//! [`Distance`]: crate::distance::Distance

mod matrix;
mod prepared;
mod solve;
mod ties;

pub use matrix::{spare_buffers, DistanceMatrix};
pub use prepared::{PreparedUniverse, SharedPrepared};
pub use solve::{solver_counters, Engine, SolveScratch};

pub(crate) use matrix::{fans_out, run_dealt, DIST_F64_UNITS};
pub(crate) use ties::{
    argmax_with_ties, resolve_ties_exact, tie_threshold, TieCandidate, TieChunk,
};

use crate::problem::ObjectiveKind;
use divr_relquery::{Tuple, Value};

/// What a tuple allocates: its handle, the shared block behind it (the
/// `Arc`'s two counters and one [`Value`] per attribute), and each
/// string value's own block (two counters and its bytes) — the single
/// formula every byte-metering path uses, so full-matrix and coreset
/// cache entries stay comparable. Allocator headers and rounding are
/// left out.
pub(crate) fn tuple_approx_bytes(t: &Tuple) -> usize {
    const COUNTERS: usize = 2 * std::mem::size_of::<usize>();
    let strings: usize = t
        .iter()
        .map(|v| match v {
            Value::Str(s) => COUNTERS + s.len(),
            Value::Int(_) => 0,
        })
        .sum();
    std::mem::size_of::<Tuple>() + COUNTERS + t.arity() * std::mem::size_of::<Value>() + strings
}

/// Number of worker threads the engine will use by default: the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One request against a prepared engine: which objective, what `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineRequest {
    /// Objective function to optimize.
    pub kind: ObjectiveKind,
    /// Result size.
    pub k: usize,
}

/// Typed serving failure: why a request has no answer. Every serving
/// entry point returns it, and every layer classifies in the same order:
/// infeasibility from the prepared dimensions first (no clock read), so
/// a request never flips between [`ServeError::InfeasibleK`] and
/// [`ServeError::DeadlineExceeded`] across retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// `k` exceeds the universe size: no candidate set of size `k`
    /// exists (|Q(D)| < k). Also the variant removals produce once they
    /// shrink the universe below a standing `k`.
    InfeasibleK {
        /// Requested result size.
        k: usize,
        /// Current universe size.
        n: usize,
    },
    /// `k` fits the universe but exceeds the coreset budget `m`: the
    /// sub-universe cannot seat `k` representatives. Re-prepare with
    /// `budget ≥ k` (see `CoresetConfig::recommended`).
    ExceedsCoresetBudget {
        /// Requested result size.
        k: usize,
        /// Coreset size (`min(budget, n)`).
        m: usize,
        /// Full universe size.
        n: usize,
    },
    /// A user-supplied oracle produced a non-finite (`NaN`/`±∞`) float
    /// score. Non-finite values would flow into the float argmax rounds
    /// where `NaN` comparisons silently mis-select, so preparation
    /// validates every cached float ([`PreparedUniverse::check_finite`])
    /// and serving layers refuse the universe with this diagnosis
    /// instead of returning a silently wrong answer set.
    NonFiniteScore {
        /// Which oracle produced the value.
        source: ScoreSource,
        /// Item index (relevance) or pair row (distance).
        i: usize,
        /// Pair column for distances; equals `i` for relevance scores.
        j: usize,
    },
    /// A worker thread panicked mid-solve (typically a panicking
    /// user-supplied oracle). The batch scheduler catches the unwind at
    /// the per-tenant boundary: the affected request gets this error,
    /// every other tenant's answer is unaffected, and the process (and
    /// the shared cache) keeps serving.
    WorkerPanicked,
    /// The request's cooperative [`Deadline`](crate::deadline::Deadline) passed before the work
    /// finished: the prepare or solve was abandoned at the next
    /// checkpoint (a matrix row, a Gonzalez iteration, a solver round).
    /// Retryable — nothing about the universe is wrong, and an
    /// abandoned prepare is never cached, so a retry with a looser
    /// deadline starts clean.
    DeadlineExceeded,
}

/// Which oracle produced an offending score (see
/// [`ServeError::NonFiniteScore`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreSource {
    /// The relevance function `δ_rel`.
    Relevance,
    /// The distance function `δ_dis`.
    Distance,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InfeasibleK { k, n } => {
                write!(f, "infeasible request: k = {k} exceeds universe size n = {n}")
            }
            ServeError::ExceedsCoresetBudget { k, m, n } => write!(
                f,
                "k = {k} exceeds the coreset budget (m = {m} representatives of n = {n})"
            ),
            ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                ..
            } => {
                write!(f, "relevance oracle produced a non-finite score for item {i}")
            }
            ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                i,
                j,
            } => write!(
                f,
                "distance oracle produced a non-finite value for pair ({i}, {j})"
            ),
            ServeError::WorkerPanicked => {
                write!(f, "a worker thread panicked while solving this request")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "the request deadline passed before the work finished")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Typed delta failure: why a mutation could not be applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A removal addressed an index outside the current universe.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Current universe size.
        n: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::IndexOutOfRange { index, n } => {
                write!(f, "delta removal index {index} out of range (universe size {n})")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// One universe mutation: a step of [`PreparedVariant::patch`](crate::PreparedVariant::patch),
/// as the query front door's base-edit repair plans it and as recovery
/// replays the inserted tail of a coreset sequence.
///
/// `Remove` uses **swap-remove** semantics throughout the stack (the
/// last item moves into the vacated slot), which is what makes the
/// matrix patch `O(n)`; a delta-derived universe is therefore always
/// byte-identical to the flat universe obtained by replaying the same
/// ops on a plain `Vec<Tuple>` with `push` / `swap_remove`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Append a tuple at index `n`.
    Insert(Tuple),
    /// Swap-remove the tuple at this index.
    Remove(usize),
}

/// One small keyed universe for the unit tests of this module tree and
/// of [`crate::coreset`].
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::distance::NumericDistance;
    use crate::ratio::Ratio;
    use crate::relevance::AttributeRelevance;
    use divr_relquery::Tuple;

    pub(crate) const REL: AttributeRelevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    pub(crate) const DIS: NumericDistance = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };

    pub(crate) fn line_universe(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i * 3 % (2 * n), i % 5])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::tuple_approx_bytes;
    use divr_relquery::{Tuple, Value};

    /// The meter counts the handle, the `Arc` block (two counters and
    /// the values) and each string's own block: a 2-int row allocates
    /// 16 + 16 + 2·16 = 64 B on a 64-bit target.
    #[test]
    fn tuple_meter_counts_what_a_tuple_allocates() {
        let word = std::mem::size_of::<usize>();
        let (handle, value) = (std::mem::size_of::<Tuple>(), std::mem::size_of::<Value>());
        let ints = Tuple::ints([3, 4]);
        assert_eq!(tuple_approx_bytes(&ints), handle + 2 * word + 2 * value);
        let mixed = Tuple::new(vec![Value::int(1), Value::str("abc")]);
        assert_eq!(tuple_approx_bytes(&mixed), handle + 2 * word + 2 * value + 2 * word + 3);
        if cfg!(target_pointer_width = "64") {
            assert_eq!(tuple_approx_bytes(&ints), 64);
            assert_eq!(tuple_approx_bytes(&mixed), 83);
        }
    }
}
