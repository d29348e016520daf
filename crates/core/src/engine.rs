//! The batch diversification engine: precomputed distances, float-path
//! argmax loops, exact-`Ratio` verification.
//!
//! The rest of this crate is written for *faithfulness to the paper*:
//! every score is an exact rational ([`Ratio`]), every distance is
//! recomputed through the [`Distance`] trait object, and the
//! approximation routines in [`crate::approx`] scan candidates
//! sequentially. That is the right trade-off for reproducing the
//! hardness boundaries of Tables 1–3 — and the wrong one for serving
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
//! * the same four heuristics as [`crate::approx`] —
//!   [`Engine::greedy_max_sum`], [`Engine::gmm_max_min`],
//!   [`Engine::mmr`], [`Engine::local_search_swap`] — with the
//!   per-round argmax over candidates chunked across threads,
//! * the `F_mono` PTIME selection ([`Engine::mono_top_k`]), so all three
//!   objectives of the paper can be served from one prepared instance,
//! * one fallible entry point ([`Engine::serve_into`], with
//!   [`Engine::try_serve`] as its allocating wrapper) used by
//!   [`QueryDiversification::prepare_engine`](crate::pipeline::QueryDiversification::prepare_engine)
//!   to answer many `(objective, k)` requests against one matrix.
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
//! [`crate::avail`] instead of `Vec::retain`, and every internal buffer
//! lives in a reusable [`SolveScratch`], so steady-state serving
//! allocates nothing per request ([`Engine::serve_into`]). The retired
//! eager scan survives as [`Engine::greedy_max_sum_eager`]; the
//! differential suite (`tests/lazy_matches_eager.rs`) pins the two
//! paths **bit-identical**, not merely tie-equivalent.
//!
//! ## Exactness contract
//!
//! Float arithmetic alone would silently break the paper-reproduction
//! guarantees (ties decide reductions). The engine therefore treats
//! `f64` scores as a *filter*, not a verdict: each argmax collects every
//! candidate within [`F64_TIE_EPS`] of the float maximum and, whenever
//! more than one survives, re-scores exactly in `Ratio` arithmetic via
//! the original [`Distance`] oracle, breaking ties the same way the
//! sequential code does (lowest index / lexicographic pair). As long as
//! float error stays below the tie window — guaranteed for the integer
//! and small-rational scores used throughout this repository — engine
//! results are **identical** to the `Ratio`-path results up to genuinely
//! equal-score ties; `tests/engine_matches_exact.rs` property-tests
//! exactly that.

use crate::approx::ms_pair_weight_parts;
use crate::avail::{GenMarks, IndexSet};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::mono_exact::{MonoExact, MonoSums};
use crate::problem::ObjectiveKind;
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Relative/absolute half-width of the float tie window: candidates
/// whose `f64` score is within `max(F64_TIE_EPS, |best|·F64_TIE_EPS)`
/// of the best are re-compared with exact arithmetic.
pub const F64_TIE_EPS: f64 = 1e-9;

/// Below this much estimated work (items × per-item cost units) a round
/// is scanned inline — spawning threads costs more than the scan.
const PAR_MIN_WORK: usize = 2048;

/// Per-tuple heap estimate (header plus one word per attribute value,
/// doubled for allocator slack) — the single formula every
/// byte-metering path uses, so full-matrix and coreset cache entries
/// stay comparable.
pub(crate) fn tuple_approx_bytes(t: &Tuple) -> usize {
    std::mem::size_of::<Tuple>() + t.arity() * std::mem::size_of::<usize>() * 2
}

/// Number of worker threads the engine will use by default: the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..n` into at most `threads` contiguous chunks, runs `map` on
/// each (on worker threads when it pays off), and folds the non-`None`
/// results with `reduce`. `work_per_item` is the caller's estimate of
/// one item's evaluation cost (in arbitrary units where 1 ≈ a few float
/// ops) — spawning is gated on total *work*, not item count, so a scan
/// of 1000 items that each cost `O(n)` still parallelizes.
fn par_map_reduce<T, M, R>(
    n: usize,
    threads: usize,
    work_per_item: usize,
    map: M,
    reduce: R,
) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> Option<T> + Sync,
    R: Fn(T, T) -> T,
{
    if n == 0 {
        return None;
    }
    if threads <= 1 || n.saturating_mul(work_per_item.max(1)) < PAR_MIN_WORK {
        return map(0..n);
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let map = &map;
        // Spawn every worker before joining any (a lazy iterator chain
        // would interleave spawn with join and serialize the scan).
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let lo = t * chunk;
            if lo >= n {
                break;
            }
            let hi = (lo + chunk).min(n);
            handles.push(scope.spawn(move || map(lo..hi)));
        }
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("engine worker panicked"))
            .reduce(reduce)
    })
}

/// One unit of the parallel matrix build: a row index, its `&mut` row
/// slice, and (in fused-seed mode) the anchor's seed slot.
type RowTask<'a> = (usize, &'a mut [f64], Option<&'a mut PairSeed>);

/// A precomputed, row-major `n × n` pairwise distance matrix in `f64`.
///
/// Rows are contiguous, so the per-round inner loops of the engine walk
/// memory linearly instead of re-dispatching through the [`Distance`]
/// trait object (and re-reducing `Ratio` fractions) `O(n·k)` times per
/// query. The matrix stores the *approximate* values; exactness is
/// restored by the engine's tie fallback (see the module docs).
///
/// Rows are laid out at a fixed `stride ≥ n`, with a few rows of
/// headroom past `n`: appending one item (`DistanceMatrix::push_item`)
/// then writes one column and one row in place — `O(n)`, no
/// reallocation — until the headroom is exhausted, at which point the
/// matrix re-strides once (amortized `O(n)` per insert). The headroom
/// is real allocated memory and is counted by
/// [`DistanceMatrix::approx_bytes`].
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    stride: usize,
    data: Vec<f64>,
}

/// Headroom rows allocated past `n`: enough that a growing universe
/// re-strides every `≈ n/16` inserts (amortized `O(n)` per insert),
/// small enough that the byte overhead stays near 13%.
fn matrix_pad(n: usize) -> usize {
    (n / 16).max(4)
}

impl DistanceMatrix {
    /// Builds the matrix for `universe` under `dis`, computing each
    /// unordered pair once and mirroring. Row construction is spread
    /// over `threads` workers (pass 1 to force a sequential build).
    pub fn build(universe: &[Tuple], dis: &(dyn Distance + Sync), threads: usize) -> Self {
        Self::build_with_seed(universe, dis, threads, None).0
    }

    /// [`DistanceMatrix::build`], optionally **fusing** the max-sum
    /// best-partner seed scan into the row fill: right after a worker
    /// finishes row `i`'s upper-triangle entries — while those 8·(n−i)
    /// bytes are still cache-hot from being written — it scans the tail
    /// for anchor `i`'s heaviest partner under [`ms_weight_f64`] with
    /// `weights = (one_minus_lambda·rel, 2λ)`. A standalone seed pass
    /// would re-stream the whole `O(n²)` triangle from memory (measured
    /// at roughly the cost of one full eager greedy round); fused, it
    /// rides the build's own sweep for a few percent of extra compute.
    pub(crate) fn build_with_seed(
        universe: &[Tuple],
        dis: &(dyn Distance + Sync),
        threads: usize,
        seed_weights: Option<(&[f64], f64, f64)>, // (rel_f, one_minus, lam)
    ) -> (Self, Option<Vec<PairSeed>>) {
        Self::try_build_with_seed(universe, dis, threads, seed_weights, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// [`DistanceMatrix::build_with_seed`] under a cooperative
    /// [`Deadline`], checked at **row boundaries**: each worker polls
    /// the deadline (and a shared cancel flag, so one tripped worker
    /// stops the rest) before filling the next row. A row is `O(n)`
    /// work, so an abandoned build overshoots its deadline by at most
    /// one row per worker. Returns `Err(ServeError::DeadlineExceeded)`
    /// on abandonment — the partially filled matrix is dropped, never
    /// observed.
    pub(crate) fn try_build_with_seed(
        universe: &[Tuple],
        dis: &(dyn Distance + Sync),
        threads: usize,
        seed_weights: Option<(&[f64], f64, f64)>, // (rel_f, one_minus, lam)
        deadline: Deadline,
    ) -> Result<(Self, Option<Vec<PairSeed>>), ServeError> {
        let n = universe.len();
        let stride = n + matrix_pad(n);
        let mut data = vec![0.0f64; stride * stride];
        let mut seed = seed_weights.map(|_| {
            vec![
                PairSeed {
                    score: f64::NEG_INFINITY,
                    partner: usize::MAX,
                };
                n
            ]
        });
        if n == 0 {
            return Ok((DistanceMatrix { n, stride, data }, seed));
        }
        // Fills row i's strict upper triangle, then (fused mode) scans
        // the still-hot tail for the anchor's best partner. Rows arrive
        // stride-wide; everything past column `n` is headroom and stays
        // zero.
        let fill_row = |i: usize, row: &mut [f64], slot: Option<&mut PairSeed>| {
            for (j, cell) in row[..n].iter_mut().enumerate().skip(i + 1) {
                *cell = dis.dist_f64(&universe[i], &universe[j]);
            }
            if let (Some(slot), Some((rel, one_minus, lam))) = (slot, seed_weights) {
                let ri = rel[i];
                let mut best = f64::NEG_INFINITY;
                let mut partner = usize::MAX;
                for (off, (rj, dij)) in rel[i + 1..].iter().zip(&row[i + 1..n]).enumerate() {
                    let w = ms_weight_f64(one_minus, lam, ri, *rj, *dij);
                    if w > best {
                        best = w;
                        partner = i + 1 + off;
                    }
                }
                *slot = PairSeed {
                    score: best,
                    partner,
                };
            }
        };
        // Hand each bucket `RowTask` triples; `None` slots when the
        // seed is not requested.
        let mut seed_slots: Vec<Option<&mut PairSeed>> = match &mut seed {
            Some(s) => s.iter_mut().map(Some).collect(),
            None => (0..n).map(|_| None).collect(),
        };
        // Deadline checkpoints sit at row boundaries; a shared flag
        // fans one worker's trip out to the others without waiting for
        // each to poll the clock independently.
        let cancelled = AtomicBool::new(false);
        if threads <= 1 || n * n < 4096 {
            for ((i, row), slot) in data
                .chunks_mut(stride)
                .take(n)
                .enumerate()
                .zip(seed_slots.drain(..))
            {
                if deadline.exceeded() {
                    return Err(ServeError::DeadlineExceeded);
                }
                fill_row(i, row, slot);
            }
        } else {
            // Row i holds n−1−i entries of the strict upper triangle, so
            // contiguous row batches would be badly imbalanced (the first
            // thread would own almost half the work). Deal rows to the
            // workers round-robin instead: each worker's share of the
            // triangle is then within one row of even.
            let mut buckets: Vec<Vec<RowTask<'_>>> = (0..threads).map(|_| Vec::new()).collect();
            for ((i, row), slot) in data
                .chunks_mut(stride)
                .take(n)
                .enumerate()
                .zip(seed_slots.drain(..))
            {
                buckets[i % threads].push((i, row, slot));
            }
            std::thread::scope(|scope| {
                let fill_row = &fill_row;
                let cancelled = &cancelled;
                for bucket in buckets {
                    scope.spawn(move || {
                        for (i, row, slot) in bucket {
                            if cancelled.load(Ordering::Relaxed) {
                                return;
                            }
                            if deadline.exceeded() {
                                cancelled.store(true, Ordering::Relaxed);
                                return;
                            }
                            fill_row(i, row, slot);
                        }
                    });
                }
            });
            if cancelled.load(Ordering::Relaxed) {
                return Err(ServeError::DeadlineExceeded);
            }
        }
        // Mirror the strict upper triangle onto the lower one.
        for i in 0..n {
            if deadline.exceeded() {
                return Err(ServeError::DeadlineExceeded);
            }
            for j in (i + 1)..n {
                data[j * stride + i] = data[i * stride + j];
            }
        }
        Ok((DistanceMatrix { n, stride, data }, seed))
    }

    /// Number of universe items.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The approximate distance `δ_dis(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.stride + j]
    }

    /// The contiguous `i`-th row (length `n`; the stride headroom past
    /// it is not exposed).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.stride..i * self.stride + self.n]
    }

    /// Allocated footprint in bytes, headroom included — the honest
    /// quantity for cache byte budgets.
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Appends one item in `O(n)`: writes the new column
    /// (`col[i] = δ_dis(i, new)`) into every existing row and the new
    /// row `n` (diagonal zero included), in place. Re-strides first —
    /// one `O(n²)` copy, amortized over the `≈ n/16` inserts the
    /// headroom admits — only when the headroom is exhausted.
    pub(crate) fn push_item(&mut self, col: &[f64]) {
        debug_assert_eq!(col.len(), self.n);
        let n = self.n;
        if n + 1 > self.stride {
            self.restride(n + 1);
        }
        let s = self.stride;
        for (i, &d) in col.iter().enumerate() {
            self.data[i * s + n] = d;
        }
        let base = n * s;
        self.data[base..base + n].copy_from_slice(col);
        self.data[base + n] = 0.0;
        self.n = n + 1;
    }

    /// Swap-removes item `r` in `O(n)`: the last item's row and column
    /// move into slot `r` (mirroring `Vec::swap_remove` on the
    /// universe), everything else stays in place. The stride never
    /// shrinks, so removals only ever *grow* the headroom.
    pub(crate) fn swap_remove_item(&mut self, r: usize) {
        let n = self.n;
        debug_assert!(r < n);
        let last = n - 1;
        let s = self.stride;
        if r != last {
            // Column r takes the last column (never reads row `last`,
            // which the row fix below still needs intact)…
            for i in 0..last {
                if i != r {
                    self.data[i * s + r] = self.data[i * s + last];
                }
            }
            // …then row r takes the last row, with the diagonal zeroed
            // at the relabelled position.
            for j in 0..last {
                self.data[r * s + j] = if j == r { 0.0 } else { self.data[last * s + j] };
            }
        }
        self.n = last;
    }

    /// Reallocates at a larger stride (preserving all `n × n` content)
    /// with fresh headroom past `need` rows.
    fn restride(&mut self, need: usize) {
        let stride = need + matrix_pad(need);
        let mut data = vec![0.0f64; stride * stride];
        for i in 0..self.n {
            let src = i * self.stride;
            let dst = i * stride;
            data[dst..dst + self.n].copy_from_slice(&self.data[src..src + self.n]);
        }
        self.data = data;
        self.stride = stride;
    }

    /// Exact-verification fallback: recomputes every pair through the
    /// `Ratio` oracle and returns the largest absolute deviation between
    /// the stored float and the exact value. `0.0` means the matrix is
    /// bit-exact (true whenever all distances are integers below 2⁵³).
    ///
    /// The deviation is measured **in exact arithmetic**: the stored
    /// float is lifted back to its exact dyadic rational
    /// ([`Ratio::from_f64_exact`]) and subtracted from the oracle's
    /// `Ratio` before any rounding. Converting the exact value to `f64`
    /// first (the naive approach) would round it to the *same* float the
    /// matrix stores whenever the error is below one ulp — reporting
    /// `0.0` for matrices that are demonstrably not bit-exact, e.g. on
    /// large-denominator rational distances. Should a pair's exact
    /// subtraction leave `i128` range (stored float outside the dyadic
    /// range, or an oracle denominator so large the difference cannot
    /// be represented), that pair falls back to the float-space
    /// difference instead of panicking or understating the deviation.
    /// Each exact deviation rounds to `f64` once, at the end — the
    /// conversion is monotone, so the reported maximum is the true one.
    pub fn verify_exact(&self, universe: &[Tuple], dis: &dyn Distance) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let exact = dis.dist(&universe[i], &universe[j]);
                let stored = self.get(i, j);
                let dev = Ratio::from_f64_exact(stored)
                    .and_then(|s| s.checked_sub(exact))
                    .map_or_else(|| (stored - exact.to_f64()).abs(), |d| d.abs().to_f64());
                if dev > worst {
                    worst = dev;
                }
            }
        }
        worst
    }
}

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
    if threads <= 1 || n.saturating_mul(work_per_item.max(1)) < PAR_MIN_WORK {
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
pub(crate) fn resolve_ties_exact(ties: &[TieCandidate], exact: impl Fn(usize) -> Ratio) -> usize {
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

/// The float Gollapudi–Sharma pair weight
/// `w(i,j) = (1−λ)(r_i + r_j) + 2λ·d(i,j)`.
///
/// Every float evaluation of the max-sum weight — the memoized seed
/// build, the lazy heap's row rescans, the near-tie pair collection,
/// and the eager reference scan — funnels through this one expression,
/// so all of them produce **bit-identical** floats for the same pair.
/// That identity is what makes the lazy heap's upper-bound invariant
/// exact (a cached score is the max of the same expression over a
/// superset of partners) and the lazy/eager answers bit-identical, not
/// merely tie-equivalent.
#[inline(always)]
fn ms_weight_f64(one_minus: f64, lam: f64, ri: f64, rj: f64, dij: f64) -> f64 {
    one_minus * (ri + rj) + lam * 2.0 * dij
}

/// One anchor's entry in the memoized max-sum preamble: its heaviest
/// partner `j > anchor` over the **full** universe, under
/// [`ms_weight_f64`]. `partner == usize::MAX` means the anchor has no
/// partner (the last item).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PairSeed {
    score: f64,
    partner: usize,
}

/// A live lazy-heap entry: `score = w(anchor, partner)`, where
/// `partner` was the anchor's best available partner when the entry was
/// (re)computed. Availability only shrinks within a solve, so `score`
/// is an exact upper bound on the anchor's current row best — and is
/// *equal* to it whenever `partner` is still available (CELF-style
/// freshness).
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    score: f64,
    anchor: usize,
    partner: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on score; lowest anchor pops first among exact float
        // ties (deterministic, though any order would do — every
        // near-tie pair is collected and resolved exactly anyway).
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.anchor.cmp(&self.anchor))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-worker solver scratch: every internal buffer the
/// engine's hot paths need — availability index set, generation-stamped
/// membership marks, lazy-heap storage, tie/pair buffers, the
/// nearest-selected cache, and the mono sort buffers.
///
/// Thread one instance through [`Engine::serve_into`] and steady-state
/// serving performs **zero heap allocation per request** once the
/// caller also reuses the output vector.
/// The buffers grow to the largest universe served and are then reused;
/// a scratch is cheap to create (all buffers start empty) and is not
/// tied to any particular engine or universe.
#[derive(Debug, Default)]
pub struct SolveScratch {
    avail: IndexSet,
    marks: GenMarks,
    heap: Vec<HeapEntry>,
    fresh: Vec<HeapEntry>,
    ties: Vec<TieCandidate>,
    pairs: Vec<(usize, usize)>,
    nearest: Vec<f64>,
    scored: Vec<(f64, usize)>,
    band: Vec<usize>,
    band_exact: Vec<(Ratio, usize)>,
}

impl SolveScratch {
    /// An empty scratch (buffers allocate lazily, on first use).
    pub fn new() -> Self {
        Self::default()
    }
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
    /// The request's cooperative [`Deadline`] passed before the work
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

/// One universe mutation, as logged by the registry's version chains.
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

impl DeltaOp {
    /// Replays this op on a plain tuple sequence (`push` /
    /// `swap_remove`) — the flat universe every delta-patched prepared
    /// state must stay byte-identical to.
    pub fn apply_to(&self, universe: &mut Vec<Tuple>) -> Result<(), DeltaError> {
        match self {
            DeltaOp::Insert(tuple) => universe.push(tuple.clone()),
            DeltaOp::Remove(index) => {
                if *index >= universe.len() {
                    return Err(DeltaError::IndexOutOfRange {
                        index: *index,
                        n: universe.len(),
                    });
                }
                universe.swap_remove(*index);
            }
        }
        Ok(())
    }

    /// Heap estimate for delta-log byte metering (same tuple formula as
    /// every other metering path, so logged inserts and cached tuples
    /// are charged comparably).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<DeltaOp>()
            + match self {
                DeltaOp::Insert(t) => tuple_approx_bytes(t),
                DeltaOp::Remove(_) => 0,
            }
    }
}

/// A prepared diversification instance that serves many requests.
///
/// Construction pays the `O(n²)` distance precomputation once; every
/// subsequent call reuses the matrix. The exact [`Distance`] oracle is
/// kept only for tie verification (see the module docs).
///
/// # Example
///
/// ```
/// use divr_core::engine::{Engine, EngineRequest};
/// use divr_core::prelude::*;
/// use divr_relquery::Tuple;
///
/// let universe: Vec<Tuple> = (0..100).map(|i| Tuple::ints([i, i % 7])).collect();
/// let rel = AttributeRelevance { attr: 1, default: Ratio::ZERO };
/// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
///
/// // Prepare once (O(n²))…
/// let engine = Engine::new(universe, &rel, &dis, Ratio::new(1, 2));
/// // …serve many (objective, k) requests against the same matrix.
/// for kind in ObjectiveKind::ALL {
///     for k in [5, 10] {
///         let (value, set) = engine.try_serve(EngineRequest { kind, k }).unwrap();
///         assert_eq!(set.len(), k);
///         assert!(value > Ratio::ZERO);
///     }
/// }
/// ```
pub struct Engine<'a> {
    prepared: Arc<PreparedUniverse<'a>>,
    lam: f64,
    one_minus: f64,
    threads: usize,
    deadline: Deadline,
}

/// The exact distance oracle a prepared universe keeps for tie
/// verification: either borrowed from the caller (the classic
/// [`Engine::new`] path) or owned and shareable across threads and
/// cache entries (the serving-registry path).
pub enum DistOracle<'a> {
    /// Borrowed for the lifetime of the engine.
    Borrowed(&'a (dyn Distance + Sync)),
    /// Owned, reference-counted, usable from any thread.
    Shared(Arc<dyn Distance + Send + Sync>),
}

impl<'a> DistOracle<'a> {
    /// A second handle to the same oracle: copies the borrow, or bumps
    /// the `Arc` — never clones the oracle itself. Used by
    /// [`PreparedUniverse::fork`].
    fn clone_ref(&self) -> DistOracle<'a> {
        match self {
            DistOracle::Borrowed(d) => DistOracle::Borrowed(*d),
            DistOracle::Shared(d) => DistOracle::Shared(Arc::clone(d)),
        }
    }
}

impl Distance for DistOracle<'_> {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        match self {
            DistOracle::Borrowed(d) => d.dist(a, b),
            DistOracle::Shared(d) => d.dist(a, b),
        }
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        match self {
            DistOracle::Borrowed(d) => d.dist_f64(a, b),
            DistOracle::Shared(d) => d.dist_f64(a, b),
        }
    }

    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        match self {
            DistOracle::Borrowed(d) => d.key_column(items),
            DistOracle::Shared(d) => d.key_column(items),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            DistOracle::Borrowed(d) => d.approx_bytes(),
            DistOracle::Shared(d) => d.approx_bytes(),
        }
    }
}

/// The owned, shareable state behind an [`Engine`]: the materialized
/// universe, the construction-time relevance caches (exact and float),
/// the `O(n²)` [`DistanceMatrix`], λ, and the exact distance oracle for
/// tie verification.
///
/// Building one pays the full preparation cost exactly once; any number
/// of engines (and, through `Arc`, any number of threads) can then solve
/// against it concurrently. `PreparedUniverse<'static>` — produced by
/// [`PreparedUniverse::build_shared`] — is `Send + Sync` and is the unit
/// the serving registry caches and evicts.
pub struct PreparedUniverse<'a> {
    universe: Vec<Tuple>,
    dis: DistOracle<'a>,
    rel_exact: Vec<Ratio>,
    lambda: Ratio,
    rel: Vec<f64>,
    matrix: DistanceMatrix,
    // Lazily memoized k-independent solver preambles: the first request
    // that needs one pays for it, every later request against this
    // prepared universe (across engines and threads) reuses it. All
    // are pure functions of the universe content, so memoization cannot
    // change any answer. Under deltas, inserts repair each populated
    // preamble in O(n); removals invalidate them (swap-remove relabels
    // indices, breaking the lex/partner structure an O(n) repair would
    // need) and the next request rebuilds lazily from the patched
    // matrix.
    mono_scores: OnceLock<Vec<f64>>,
    // Per-item matrix row sums, memoized alongside the mono scores so
    // an insert can repair them in O(n) (`dsum += col[i]`) instead of
    // re-streaming the whole matrix.
    mono_dsums: OnceLock<Vec<f64>>,
    // The same sums exactly, when the oracle is a key column: what the
    // exact mono re-score reads instead of n oracle calls per winner,
    // and what seeds `mono_dsums` when every sum is below 2^53.
    mono_sums: MonoSums,
    gmm_seed: OnceLock<Option<(usize, usize)>>,
    // Per-anchor best-partner seed for the max-sum lazy heap: anchor i's
    // heaviest partner j > i over the full universe. O(n²) to build
    // (thread-sharded), O(n) to heapify per request — so warm-registry
    // F_MS requests skip the quadratic scan entirely.
    ms_seed: OnceLock<Vec<PairSeed>>,
    // How many times `ms_seed` has been built (observable proof that
    // the OnceLock makes the preamble at-most-once under concurrency).
    preamble_builds: AtomicUsize,
}

/// The float mono score from its memoized parts: the **single**
/// expression both the fresh preamble pass and the insert repair
/// evaluate, so repaired scores are bit-identical to from-scratch ones.
#[inline(always)]
fn mono_score_from_dsum(one_minus: f64, lam: f64, rel: f64, dsum: f64, n: usize) -> f64 {
    let rel_part = one_minus * rel;
    if n <= 1 || lam == 0.0 {
        return rel_part;
    }
    rel_part + lam * dsum / (n as f64 - 1.0)
}

/// A prepared universe with no borrowed state, shareable across threads
/// — the cacheable unit of the serving layer.
pub type SharedPrepared = Arc<PreparedUniverse<'static>>;

/// Evaluates `δ_rel` once per universe item — the one relevance pass
/// behind every prepared-state constructor (full matrix and coreset).
/// `O(n)` total; polls `deadline` every 64 items so even an expensive
/// relevance oracle cannot overshoot by more than 64 evaluations.
pub(crate) fn score_relevance(
    universe: &[Tuple],
    rel: &dyn Relevance,
    deadline: Deadline,
) -> Result<Vec<Ratio>, ServeError> {
    let mut rel_exact = Vec::with_capacity(universe.len());
    for (i, t) in universe.iter().enumerate() {
        if i.is_multiple_of(64) {
            deadline.check()?;
        }
        rel_exact.push(rel.rel(t));
    }
    Ok(rel_exact)
}

impl<'a> PreparedUniverse<'a> {
    /// The single construction site: every constructor funnels here, so
    /// the field set (including the memoized preambles) is initialized
    /// in exactly one place. `rel_exact[i]` must equal
    /// `δ_rel(universe[i])` — the coreset layer passes the scores it
    /// already evaluated so a sub-universe reuses exactly those values.
    /// The `O(n²)` matrix build checks `deadline` at row boundaries and
    /// the whole prepare is abandoned (nothing observable) with
    /// [`ServeError::DeadlineExceeded`] once it trips.
    ///
    /// Panics if `λ ∉ [0, 1]` (same contract as
    /// [`DiversityProblem::new`](crate::problem::DiversityProblem::new))
    /// or if the score vector length does not match the universe.
    pub(crate) fn try_from_scores(
        universe: Vec<Tuple>,
        rel_exact: Vec<Ratio>,
        dis: DistOracle<'a>,
        lambda: Ratio,
        threads: usize,
        deadline: Deadline,
    ) -> Result<Self, ServeError> {
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        assert_eq!(
            rel_exact.len(),
            universe.len(),
            "one relevance score per universe item"
        );
        let rel_f: Vec<f64> = rel_exact.iter().map(Ratio::to_f64).collect();
        // The max-sum heap seed is fused into the matrix build: the
        // same float weights the solvers use ([`ms_weight_f64`] with
        // exactly the λ floats [`Engine::from_prepared`] derives), each
        // row scanned while cache-hot from being written — a standalone
        // seed pass would cost a second full sweep of the triangle.
        let lam = lambda.to_f64();
        let one_minus = (Ratio::ONE - lambda).to_f64();
        let weights = Some((rel_f.as_slice(), one_minus, lam));
        let (matrix, seed) = match &dis {
            DistOracle::Borrowed(d) => {
                DistanceMatrix::try_build_with_seed(&universe, *d, threads.max(1), weights, deadline)?
            }
            DistOracle::Shared(d) => {
                DistanceMatrix::try_build_with_seed(&universe, &**d, threads.max(1), weights, deadline)?
            }
        };
        let ms_seed = OnceLock::new();
        let preamble_builds = AtomicUsize::new(0);
        if let Some(seed) = seed {
            let _ = ms_seed.set(seed);
            preamble_builds.store(1, Ordering::Relaxed);
        }
        Ok(PreparedUniverse {
            universe,
            dis,
            rel_exact,
            lambda,
            rel: rel_f,
            matrix,
            mono_scores: OnceLock::new(),
            mono_dsums: OnceLock::new(),
            mono_sums: MonoSums::default(),
            gmm_seed: OnceLock::new(),
            ms_seed,
            preamble_builds,
        })
    }

    /// [`PreparedUniverse::try_build_shared_deadline`] with
    /// [`Deadline::none`]: the infallible form for callers that prepare
    /// outside any request (tests, benches, the conformance oracles).
    pub fn build_shared(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
    ) -> PreparedUniverse<'static> {
        Self::try_build_shared_deadline(universe, rel, dis, lambda, threads, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// Prepares a universe over an owned, shareable oracle: caches every
    /// relevance value and builds the distance matrix over `threads`
    /// workers (1 = sequential). The result borrows nothing, so it can
    /// be cached, sent across threads, and outlive the caller (the
    /// serving-registry construction path).
    ///
    /// The relevance pass polls `deadline` every 64 items and the
    /// `O(n²)` matrix build every row, so an expensive prepare is
    /// abandoned within one `O(n)` slice of the deadline with
    /// [`ServeError::DeadlineExceeded`] instead of running to
    /// completion. A refused prepare leaves nothing behind — callers
    /// (the serving cache) must not cache the error.
    ///
    /// Panics if `λ ∉ [0, 1]`.
    pub fn try_build_shared_deadline(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
        deadline: Deadline,
    ) -> Result<PreparedUniverse<'static>, ServeError> {
        let rel_exact = score_relevance(&universe, rel, deadline)?;
        PreparedUniverse::try_from_scores(
            universe,
            rel_exact,
            DistOracle::Shared(dis),
            lambda,
            threads,
            deadline,
        )
    }

    /// Number of universe items.
    pub fn n(&self) -> usize {
        self.universe.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.universe.is_empty()
    }

    /// The materialized universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// The trade-off parameter λ.
    pub fn lambda(&self) -> Ratio {
        self.lambda
    }

    /// The precomputed distance matrix.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }

    /// Exact relevance of item `i` (from the construction-time cache).
    pub fn rel_of(&self, i: usize) -> Ratio {
        self.rel_exact[i]
    }

    /// The construction-time exact relevance cache, indexed by item.
    pub fn relevances(&self) -> &[Ratio] {
        &self.rel_exact
    }

    /// The exact distance oracle (kept for tie verification).
    pub fn distance(&self) -> &(dyn Distance + '_) {
        &self.dis
    }

    /// Exact distance between items `i` and `j` (through the oracle).
    pub fn dist_of(&self, i: usize, j: usize) -> Ratio {
        self.dis.dist(&self.universe[i], &self.universe[j])
    }

    /// Approximate heap footprint in bytes — the quantity the serving
    /// registry's byte budget meters: the matrix **as allocated**
    /// (stride headroom included), the relevance caches, tuple payloads
    /// (estimated at one word per attribute value), the `O(n)` memoized
    /// solver preambles (the max-sum heap seed, materialized during the
    /// matrix build, plus the mono scores, row sums and exact key-column
    /// sums, populated by the first `F_mono` request — all charged up
    /// front because they stay resident for the cache entry's
    /// lifetime), **and** the
    /// retained distance oracle ([`Distance::approx_bytes`]) — a
    /// table-backed oracle's pair map can dwarf the float matrix, and
    /// it stays alive as long as this prepared universe does.
    pub fn approx_bytes(&self) -> usize {
        let n = self.universe.len();
        let tuples: usize = self.universe.iter().map(tuple_approx_bytes).sum();
        self.matrix.approx_bytes()
            + n * (std::mem::size_of::<Ratio>() + std::mem::size_of::<f64>())
            + n * (2 * std::mem::size_of::<f64>()
                + MonoSums::BYTES_PER_ITEM
                + std::mem::size_of::<PairSeed>())
            + tuples
            + self.dis.approx_bytes()
    }

    /// Validates every cached float this universe will feed into the
    /// argmax rounds: all `n` relevance scores and all `n²` matrix
    /// entries must be finite. A user-supplied oracle that emits `NaN`
    /// or `±∞` would otherwise silently mis-select (every `NaN`
    /// comparison is `false`, so a poisoned candidate can masquerade as
    /// the maximum or hide from it); serving layers call this once at
    /// prepare time and refuse the universe with the typed diagnosis
    /// instead. `O(n²)` float compares — a few percent of the build
    /// cost, and only ever paid when the universe is (re)prepared.
    pub fn check_finite(&self) -> Result<(), ServeError> {
        if let Some(i) = self.rel.iter().position(|r| !r.is_finite()) {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        for i in 0..self.n() {
            let row = self.matrix.row(i);
            if let Some(j) = row.iter().position(|d| !d.is_finite()) {
                return Err(ServeError::NonFiniteScore {
                    source: ScoreSource::Distance,
                    i,
                    j,
                });
            }
        }
        Ok(())
    }

    /// [`PreparedUniverse::check_finite`] restricted to item `i`: its
    /// relevance score and its matrix row (by symmetry also its
    /// column). `O(n)` — what a delta migration validates after
    /// [`PreparedUniverse::insert_tuple`] appended item `n − 1` to an
    /// already validated universe, instead of an `O(n²)` rescan.
    pub fn check_finite_item(&self, i: usize) -> Result<(), ServeError> {
        if !self.rel[i].is_finite() {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        match self.matrix.row(i).iter().position(|d| !d.is_finite()) {
            Some(j) => Err(ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                i,
                j,
            }),
            None => Ok(()),
        }
    }

    /// How many times the max-sum heap preamble has been computed for
    /// this prepared universe: `1` from construction on (the seed scan
    /// is fused into the matrix build, riding its cache-hot rows), and
    /// at most once more after each [`PreparedUniverse::remove_tuple`]
    /// (removal invalidates the seed; the next `F_MS` request rebuilds
    /// it). Between rebuilds the `OnceLock` guarantees at-most-once
    /// even when many threads race `F_MS` requests against shared
    /// state. Inserts *repair* the seed in place and do not count.
    pub fn ms_preamble_builds(&self) -> usize {
        self.preamble_builds.load(Ordering::Relaxed)
    }

    /// Appends `tuple` (with its already-evaluated exact relevance) at
    /// index `n`, in `O(n)`: one oracle distance evaluation per
    /// existing item for the new matrix column, one in-place matrix
    /// row/column write, and an `O(n)` repair of every *populated*
    /// memoized preamble. The repaired state is **bit-identical** to a
    /// from-scratch prepare of the grown universe
    /// (`tests/delta_matches_scratch.rs` pins this under churn):
    ///
    /// * max-sum seed — appending index `n` at the end of each
    ///   anchor's left-to-right strict-`>` scan is exactly one more
    ///   loop iteration of the fused build scan;
    /// * mono row sums — each old row's sum gains exactly its new
    ///   column entry, appended at the end of the same left-to-right
    ///   fold; scores are recomputed from the repaired sums through the
    ///   shared `mono_score_from_dsum` expression; the exact
    ///   key-column sums gain `|k_i − k_new|` each, in integers;
    /// * GMM seed — the new pairs `(i, n)` are scanned with the same
    ///   float filter + exact-`Ratio` resolution as the from-scratch
    ///   seed, and the partition winner is compared exactly against the
    ///   memoized winner (lexicographically smaller pair on exact
    ///   ties — old pairs always precede new ones at equal anchors).
    pub fn insert_tuple(&mut self, tuple: Tuple, rel: Ratio) {
        let rel_new = rel.to_f64();
        // The only oracle work of the whole operation: the new column
        // col[i] = δ_dis(universe[i], tuple).
        let col: Vec<f64> = self
            .universe
            .iter()
            .map(|t| self.dis.dist_f64(t, &tuple))
            .collect();
        self.matrix.push_item(&col);
        if rel_new.is_finite() && col.iter().all(|d| d.is_finite()) {
            self.repair_ms_seed_insert(&col, rel_new);
            self.repair_mono_insert(&col, rel_new);
            self.mono_sums.repair_insert(&self.dis, &tuple);
            self.repair_gmm_seed_insert(&col, &tuple, rel, rel_new);
        } else {
            // Non-finite scores do not order, so no repair can match a
            // from-scratch build. Serving layers refuse this state
            // ([`PreparedUniverse::check_finite_item`]); dropping the
            // preambles keeps it consistent until they do.
            self.invalidate_preambles();
        }
        self.universe.push(tuple);
        self.rel_exact.push(rel);
        self.rel.push(rel_new);
    }

    /// Swap-removes the tuple at `index` in `O(n)` (the last item moves
    /// into its slot, matching `Vec::swap_remove`): the matrix is
    /// patched in place and every memoized preamble is invalidated —
    /// the relabelling breaks the `j > anchor` / lexicographic
    /// structure the preambles encode, so an `O(n)` repair could not
    /// stay bit-identical; the next request rebuilds lazily from the
    /// patched matrix, with no further oracle distance evaluations.
    /// Returns the removed tuple.
    pub fn remove_tuple(&mut self, index: usize) -> Result<Tuple, DeltaError> {
        let n = self.universe.len();
        if index >= n {
            return Err(DeltaError::IndexOutOfRange { index, n });
        }
        self.matrix.swap_remove_item(index);
        let removed = self.universe.swap_remove(index);
        self.rel_exact.swap_remove(index);
        self.rel.swap_remove(index);
        self.invalidate_preambles();
        Ok(removed)
    }

    /// Drops every memoized solver preamble; the next request that
    /// needs one rebuilds it lazily from the current matrix.
    fn invalidate_preambles(&mut self) {
        self.mono_scores = OnceLock::new();
        self.mono_dsums = OnceLock::new();
        self.mono_sums.invalidate();
        self.gmm_seed = OnceLock::new();
        self.ms_seed = OnceLock::new();
    }

    /// Insert repair of the max-sum seed (when populated): index `n`
    /// becomes one more candidate partner for every anchor — a strict
    /// `>` update, identical to the fused build scan reaching `j = n`
    /// as its final iteration (float ties keep the earlier partner).
    /// The new anchor `n` has no partner `j > n` yet.
    fn repair_ms_seed_insert(&mut self, col: &[f64], rel_new: f64) {
        let n = self.universe.len();
        let lam = self.lambda.to_f64();
        let one_minus = (Ratio::ONE - self.lambda).to_f64();
        let rel = &self.rel;
        let Some(seed) = self.ms_seed.get_mut() else {
            return;
        };
        for ((slot, &ri), &din) in seed.iter_mut().zip(rel).zip(col) {
            let w = ms_weight_f64(one_minus, lam, ri, rel_new, din);
            if w > slot.score {
                slot.score = w;
                slot.partner = n;
            }
        }
        seed.push(PairSeed {
            score: f64::NEG_INFINITY,
            partner: usize::MAX,
        });
    }

    /// Insert repair of the mono preamble (when populated): each old
    /// row sum gains its new column entry (`dsum += col[i]` — exactly
    /// the extra term the from-scratch left-to-right fold would add
    /// last), the new row's sum is folded fresh from the patched
    /// matrix, and all `n + 1` scores are recomputed from the repaired
    /// sums — every score changes, because the mean divides by `n − 1`.
    fn repair_mono_insert(&mut self, col: &[f64], rel_new: f64) {
        let n_old = self.universe.len();
        let Some(dsums) = self.mono_dsums.get_mut() else {
            return;
        };
        for (s, &d) in dsums.iter_mut().zip(col) {
            *s += d;
        }
        dsums.push(self.matrix.row(n_old).iter().sum());
        let n_new = n_old + 1;
        let lam = self.lambda.to_f64();
        let one_minus = (Ratio::ONE - self.lambda).to_f64();
        let rel = &self.rel;
        let dsums = self.mono_dsums.get().expect("repaired above");
        if let Some(scores) = self.mono_scores.get_mut() {
            scores.clear();
            scores.extend(
                rel.iter()
                    .chain(std::iter::once(&rel_new))
                    .zip(dsums)
                    .map(|(&r, &d)| mono_score_from_dsum(one_minus, lam, r, d, n_new)),
            );
        }
    }

    /// Insert repair of the GMM seed pair (when populated): only the
    /// pairs `(i, n)` are new, so their partition champion — float
    /// filter, exact-`Ratio` resolution, lowest anchor on exact ties,
    /// same as the from-scratch scan — is compared **exactly** against
    /// the memoized champion of the old pairs. On an exact tie the
    /// lexicographically smaller pair wins; an old pair `(a, b)` with
    /// `b < n` precedes `(a, n)`, so the old champion survives equal
    /// anchors, matching the from-scratch lex rule.
    fn repair_gmm_seed_insert(&mut self, col: &[f64], tuple: &Tuple, rel_exact_new: Ratio, rel_new: f64) {
        let n = self.universe.len();
        let lam = self.lambda.to_f64();
        let one_minus = (Ratio::ONE - self.lambda).to_f64();
        let one_minus_exact = Ratio::ONE - self.lambda;
        // Split borrows up front: the closure below reads universe /
        // rel_exact / dis while `seed` mutably borrows only `gmm_seed`.
        let universe = &self.universe;
        let rel_exact = &self.rel_exact;
        let rel_f = &self.rel;
        let dis = &self.dis;
        let lambda = self.lambda;
        let Some(seed) = self.gmm_seed.get_mut() else {
            return;
        };
        if n == 0 {
            return; // still a single-item universe: seed stays `None`.
        }
        // Float scan of the new-pair partition, with the standard tie
        // window; same per-pair expression as `best_seed_pair`.
        let mut best = f64::NEG_INFINITY;
        for (&ri, &d) in rel_f.iter().zip(col) {
            let v = one_minus * ri.min(rel_new) + lam * d;
            if v > best {
                best = v;
            }
        }
        let thr = tie_threshold(best);
        let exact_of = |i: usize| {
            one_minus_exact * rel_exact[i].min(rel_exact_new)
                + lambda * dis.dist(&universe[i], tuple)
        };
        let mut winner: Option<(usize, Ratio)> = None;
        for (i, (&ri, &d)) in rel_f.iter().zip(col).enumerate() {
            if one_minus * ri.min(rel_new) + lam * d >= thr {
                let v = exact_of(i);
                if winner.as_ref().is_none_or(|(_, w)| v > *w) {
                    winner = Some((i, v));
                }
            }
        }
        let (i_new, v_new) = winner.expect("n ≥ 1 new pairs scanned");
        match seed {
            Some((a, b)) => {
                let v_old = one_minus_exact * rel_exact[*a].min(rel_exact[*b])
                    + lambda * dis.dist(&universe[*a], &universe[*b]);
                if v_new > v_old || (v_new == v_old && i_new < *a) {
                    *seed = Some((i_new, n));
                }
            }
            None => {
                // Old universe had < 2 items; the new pairs are ALL the
                // pairs of the grown universe.
                *seed = Some((i_new, n));
            }
        }
    }

    /// A private deep copy — matrix, caches, and every memoized
    /// preamble in whatever population state they are in. This is how
    /// the serving registry turns a *shared* warm entry into a mutable
    /// one when `Arc::try_unwrap` loses a race: fork, apply the delta
    /// to the copy, publish. The fork serves bit-identically to the
    /// original.
    pub fn fork(&self) -> PreparedUniverse<'a> {
        PreparedUniverse {
            universe: self.universe.clone(),
            rel_exact: self.rel_exact.clone(),
            rel: self.rel.clone(),
            dis: self.dis.clone_ref(),
            lambda: self.lambda,
            matrix: self.matrix.clone(),
            mono_scores: self.mono_scores.clone(),
            mono_dsums: self.mono_dsums.clone(),
            mono_sums: self.mono_sums.clone(),
            gmm_seed: self.gmm_seed.clone(),
            ms_seed: self.ms_seed.clone(),
            preamble_builds: AtomicUsize::new(self.preamble_builds.load(Ordering::Relaxed)),
        }
    }

    /// The memoized mono scores, if populated — `None` means the next
    /// `F_mono` request will compute them fresh. Exposed so the
    /// differential churn harness can pin repaired preambles
    /// bit-identical to from-scratch ones.
    pub fn mono_preamble(&self) -> Option<&[f64]> {
        self.mono_scores.get().map(Vec::as_slice)
    }

    /// The memoized exact key-column distance sums `Σ_j δ_dis(t_i, t_j)`,
    /// if populated (`Some(None)` = the oracle offers no usable
    /// [`Distance::key_column`], the per-pair path answers).
    pub fn mono_sums_preamble(&self) -> Option<Option<&[i128]>> {
        self.mono_sums.peek()
    }

    /// What the exact mono score reads, for the one shared
    /// [`MonoExact::mono_score_exact`].
    pub(crate) fn mono_exact(&self) -> MonoExact<'_> {
        MonoExact {
            lambda: self.lambda,
            rel_exact: &self.rel_exact,
            universe: &self.universe,
            dis: &self.dis,
            sums: &self.mono_sums,
        }
    }

    /// The memoized GMM seed pair, if populated (`Some(None)` = a
    /// sub-2-item universe with no pair to seed from).
    pub fn gmm_preamble(&self) -> Option<Option<(usize, usize)>> {
        self.gmm_seed.get().copied()
    }

    /// The memoized max-sum seed as `(score, partner)` pairs, if
    /// populated; `partner == usize::MAX` marks an anchor with no
    /// partner `j > anchor`.
    pub fn ms_preamble(&self) -> Option<Vec<(f64, usize)>> {
        self.ms_seed
            .get()
            .map(|seed| seed.iter().map(|s| (s.score, s.partner)).collect())
    }
}

impl std::fmt::Debug for PreparedUniverse<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedUniverse")
            .field("n", &self.n())
            .field("lambda", &self.lambda)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

impl<'a> Engine<'a> {
    /// Prepares an engine over a materialized universe, using all
    /// available cores for the matrix build.
    ///
    /// Panics if `λ ∉ [0, 1]` (same contract as
    /// [`DiversityProblem::new`](crate::problem::DiversityProblem::new)).
    pub fn new(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: &'a (dyn Distance + Sync),
        lambda: Ratio,
    ) -> Self {
        Self::with_threads(universe, rel, dis, lambda, default_threads())
    }

    /// [`Engine::new`] with an explicit worker count (1 = sequential).
    pub fn with_threads(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: &'a (dyn Distance + Sync),
        lambda: Ratio,
        threads: usize,
    ) -> Self {
        let threads = threads.max(1);
        let prepared = score_relevance(&universe, rel, Deadline::none())
            .and_then(|rel_exact| {
                PreparedUniverse::try_from_scores(
                    universe,
                    rel_exact,
                    DistOracle::Borrowed(dis),
                    lambda,
                    threads,
                    Deadline::none(),
                )
            })
            .expect("unbounded deadline cannot be exceeded");
        Self::from_prepared(Arc::new(prepared), threads)
    }

    /// Wraps already-prepared (possibly cached and shared) state in an
    /// engine. This costs nothing beyond an `Arc` clone: no relevance
    /// evaluation, no matrix build — the skip-straight-to-solving path
    /// the serving registry takes on a cache hit.
    pub fn from_prepared(prepared: Arc<PreparedUniverse<'a>>, threads: usize) -> Self {
        let lambda = prepared.lambda;
        Engine {
            prepared,
            lam: lambda.to_f64(),
            one_minus: (Ratio::ONE - lambda).to_f64(),
            threads: threads.max(1),
            deadline: Deadline::none(),
        }
    }

    /// Attaches a cooperative [`Deadline`], checked between solver
    /// rounds: once it trips, the in-flight solve is abandoned at the
    /// next round boundary and [`Engine::serve_into`] fails with
    /// [`ServeError::DeadlineExceeded`]. With the default
    /// [`Deadline::none`] (or any deadline that never trips) results
    /// are bit-identical to an engine without one.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The shared prepared state this engine solves against.
    pub fn prepared(&self) -> &Arc<PreparedUniverse<'a>> {
        &self.prepared
    }

    /// Number of universe items.
    pub fn n(&self) -> usize {
        self.prepared.n()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }

    /// The materialized universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        self.prepared.universe()
    }

    /// The trade-off parameter λ.
    pub fn lambda(&self) -> Ratio {
        self.prepared.lambda
    }

    /// The precomputed distance matrix.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.prepared.matrix
    }

    /// Worker threads used for per-round argmax scans.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Exact relevance of item `i` (from the construction-time cache).
    pub fn rel_of(&self, i: usize) -> Ratio {
        self.prepared.rel_exact[i]
    }

    /// Exact distance between items `i` and `j` (through the oracle —
    /// used for tie verification, not in inner loops).
    pub fn dist_of(&self, i: usize, j: usize) -> Ratio {
        self.prepared.dist_of(i, j)
    }

    /// Materializes a candidate set's tuples.
    pub fn tuples_of(&self, subset: &[usize]) -> Vec<Tuple> {
        subset
            .iter()
            .map(|&i| self.prepared.universe[i].clone())
            .collect()
    }

    /// Exact objective value `F(U)` of a candidate set, matching
    /// [`DiversityProblem::objective`](crate::problem::DiversityProblem::objective)
    /// term for term.
    pub fn objective_exact(&self, kind: ObjectiveKind, subset: &[usize]) -> Ratio {
        self.objective_exact_by(kind, subset, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// [`Engine::objective_exact`] under a deadline: `F_mono` over an
    /// oracle without a key column polls it once per member, before
    /// that member's `O(n)` distance sweep.
    fn objective_exact_by(
        &self,
        kind: ObjectiveKind,
        subset: &[usize],
        deadline: Deadline,
    ) -> Result<Ratio, ServeError> {
        Ok(match kind {
            ObjectiveKind::MaxSum => crate::problem::f_ms_from(
                subset.len(),
                self.prepared.lambda,
                |a| self.prepared.rel_exact[subset[a]],
                |a, b| self.dist_of(subset[a], subset[b]),
            ),
            ObjectiveKind::MaxMin => crate::problem::f_mm_from(
                subset.len(),
                self.prepared.lambda,
                |a| self.prepared.rel_exact[subset[a]],
                |a, b| self.dist_of(subset[a], subset[b]),
            ),
            ObjectiveKind::Mono => self.prepared.mono_exact().value(subset, deadline)?,
        })
    }

    /// Float mono scores of all items — k-independent, so computed once
    /// per prepared universe and memoized (warm-cache mono requests
    /// skip straight to the top-k cut). The per-row distance sums are
    /// memoized separately (`mono_dsums`) because they are what
    /// [`PreparedUniverse::insert_tuple`] repairs in `O(n)`; both the
    /// fresh path here and the repair path derive the score through the
    /// same [`mono_score_from_dsum`] expression, keeping them
    /// bit-identical.
    ///
    /// The sums are one linear fold per matrix row, `O(n²)` — unless
    /// the oracle is a key column whose exact sums all stay below 2^53:
    /// then the `O(n log n)` integer sums convert to the very same
    /// floats ([`KeySums::to_f64_exact`](crate::mono_exact::KeySums)).
    fn mono_scores_f64(&self) -> &[f64] {
        self.prepared.mono_scores.get_or_init(|| {
            let p = &*self.prepared;
            let n = self.n();
            let dsums = p.mono_dsums.get_or_init(|| {
                p.mono_sums
                    .get_or_build(&p.dis, &p.universe)
                    .and_then(|sums| sums.to_f64_exact())
                    .unwrap_or_else(|| (0..n).map(|i| p.matrix.row(i).iter().sum()).collect())
            });
            self.prepared
                .rel
                .iter()
                .zip(dsums)
                .map(|(&r, &d)| mono_score_from_dsum(self.one_minus, self.lam, r, d, n))
                .collect()
        })
    }

    /// Argmax of relevance with lowest-index tie-break (the `k = 1` and
    /// MMR-seed rule of [`crate::approx`]), into a scratch tie buffer.
    fn most_relevant_with(&self, ties: &mut Vec<TieCandidate>) -> Option<usize> {
        if !argmax_with_ties_into(self.n(), self.threads, 1, &|i| Some(self.prepared.rel[i]), ties)
        {
            return None;
        }
        Some(resolve_ties_exact(ties, |i| self.prepared.rel_exact[i]))
    }

    /// The memoized max-sum preamble: every anchor's best full-universe
    /// partner. Normally populated at construction (fused into the
    /// matrix build, where every row is scanned cache-hot); the
    /// `get_or_init` fallback rebuilds it from the finished matrix with
    /// the identical [`ms_weight_f64`] expression, so any future
    /// construction path that skips the fusion stays correct. Every
    /// `F_MS` request heapifies the seed in `O(n)`.
    fn ms_seed(&self) -> &[PairSeed] {
        self.prepared.ms_seed.get_or_init(|| {
            self.prepared.preamble_builds.fetch_add(1, Ordering::Relaxed);
            let n = self.n();
            let mut seed = vec![
                PairSeed {
                    score: f64::NEG_INFINITY,
                    partner: usize::MAX,
                };
                n
            ];
            for (i, slot) in seed.iter_mut().enumerate() {
                *slot = self.rescan_anchor_full(i);
            }
            seed
        })
    }

    /// Anchor `i`'s best partner `j > i` over the *entire* universe
    /// (the fallback seed computation; the fused build produces the
    /// same values from hot rows).
    fn rescan_anchor_full(&self, anchor: usize) -> PairSeed {
        let ri = self.prepared.rel[anchor];
        let row = self.prepared.matrix.row(anchor);
        let mut best = f64::NEG_INFINITY;
        let mut partner = usize::MAX;
        for (off, (rj, dij)) in self.prepared.rel[anchor + 1..]
            .iter()
            .zip(&row[anchor + 1..])
            .enumerate()
        {
            let w = ms_weight_f64(self.one_minus, self.lam, ri, *rj, *dij);
            if w > best {
                best = w;
                partner = anchor + 1 + off;
            }
        }
        PairSeed {
            score: best,
            partner,
        }
    }

    /// Greedy pair-picking for `F_MS`, float path with exact tie
    /// fallback — same semantics as [`crate::approx::greedy_max_sum`].
    /// `None` when `k > n`.
    ///
    /// This is the lazy-heap path: each round pops anchors off a
    /// max-heap of cached best-partner weights instead of rescanning
    /// all `O(m²)` remaining pairs ([`Engine::greedy_max_sum_eager`] is
    /// the retired scan, kept as the differential reference). Answers
    /// are **bit-identical** to the eager scan — see
    /// `tests/lazy_matches_eager.rs`.
    pub fn greedy_max_sum(&self, k: usize) -> Option<Vec<usize>> {
        let mut scratch = SolveScratch::new();
        let mut out = Vec::new();
        self.greedy_max_sum_into(k, &mut scratch, &mut out)
            .then_some(out)
    }

    /// [`Engine::greedy_max_sum`] into caller-owned scratch and output
    /// buffers (the allocation-free serving form). Returns `false` when
    /// `k > n`; `out` holds the sorted answer set on `true`.
    pub fn greedy_max_sum_into(
        &self,
        k: usize,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> bool {
        out.clear();
        let n = self.n();
        if k > n {
            return false;
        }
        if k == 0 {
            return true;
        }
        if k == 1 {
            match self.most_relevant_with(&mut scratch.ties) {
                Some(i) => {
                    out.push(i);
                    return true;
                }
                None => return false,
            }
        }
        // Heapify the memoized seed (O(n)) into the scratch-owned
        // storage; `BinaryHeap::from` is linear and allocation-free on
        // a warmed buffer.
        let seed = self.ms_seed();
        let mut storage = std::mem::take(&mut scratch.heap);
        storage.clear();
        storage.extend(seed.iter().enumerate().filter_map(|(i, s)| {
            (s.partner != usize::MAX).then_some(HeapEntry {
                score: s.score,
                anchor: i,
                partner: s.partner,
            })
        }));
        let mut heap = BinaryHeap::from(storage);
        scratch.avail.reset(n);
        let ok = self.greedy_rounds(k, &mut heap, scratch, out);
        scratch.heap = heap.into_vec();
        ok
    }

    /// The pair-picking rounds of the lazy greedy, plus the odd-`k`
    /// marginal finish. `heap` holds one entry per live anchor; `avail`
    /// has been reset to the full universe.
    fn greedy_rounds(
        &self,
        k: usize,
        heap: &mut BinaryHeap<HeapEntry>,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> bool {
        let SolveScratch {
            avail,
            fresh,
            pairs,
            ties,
            ..
        } = scratch;
        while out.len() + 1 < k {
            // Deadline checkpoint: one round is O(n) amortized, so a
            // tripped deadline abandons the solve within one round.
            if self.deadline.exceeded() {
                return false;
            }
            // Pop phase (CELF-style): a popped entry whose cached
            // partner is still available carries its anchor's *exact*
            // current row best (weights are static; availability only
            // shrinks, and the cached score was the max over a superset
            // — achievable now ⇒ still the max). A stale entry triggers
            // one rescan of that anchor's remaining row and goes back
            // in. Stop once the heap top — an upper bound on every
            // unexplored anchor — falls below the tie window of the
            // best fresh score: nothing left can be the max or tie it.
            fresh.clear();
            let mut best = f64::NEG_INFINITY;
            while let Some(&top) = heap.peek() {
                if !fresh.is_empty() && top.score < tie_threshold(best) {
                    break;
                }
                let top = heap.pop().expect("peeked entry exists");
                if !avail.contains(top.anchor) {
                    continue;
                }
                if avail.contains(top.partner) {
                    if top.score > best {
                        best = top.score;
                    }
                    fresh.push(top);
                } else if let Some(entry) = self.rescan_anchor(top.anchor, avail) {
                    heap.push(entry);
                }
                // An anchor with no remaining partner j > anchor is
                // dropped for good: availability never grows back.
            }
            if fresh.is_empty() {
                return false; // fewer than two available items
            }
            // Collect every concrete near-tie pair from the anchors
            // whose (exact) row best lands in the window — the same
            // candidate set the eager full scan produces.
            let window = F64_TIE_EPS.max(best.abs() * F64_TIE_EPS);
            pairs.clear();
            for e in fresh.iter() {
                if e.score >= best - window {
                    let i = e.anchor;
                    let ri = self.prepared.rel[i];
                    let row = self.prepared.matrix.row(i);
                    for &j in avail.as_slice() {
                        if j > i
                            && ms_weight_f64(self.one_minus, self.lam, ri, self.prepared.rel[j], row[j])
                                >= best - window
                        {
                            pairs.push((i, j));
                        }
                    }
                }
            }
            // Fresh entries stay valid upper bounds for later rounds.
            for &e in fresh.iter() {
                heap.push(e);
            }
            debug_assert!(!pairs.is_empty());
            let (i, j) = if pairs.len() == 1 {
                pairs[0]
            } else {
                // Exact re-score; lexicographically smallest pair wins
                // ties, matching the sequential double loop.
                pairs.sort_unstable();
                let mut winner = pairs[0];
                let mut winner_w = self.exact_ms_pair_weight(winner.0, winner.1);
                for &(a, b) in &pairs[1..] {
                    let w = self.exact_ms_pair_weight(a, b);
                    if w > winner_w {
                        winner = (a, b);
                        winner_w = w;
                    }
                }
                winner
            };
            out.push(i);
            out.push(j);
            avail.remove(i);
            avail.remove(j);
        }
        if out.len() < k {
            // k odd: best marginal F_MS gain, lowest index on ties.
            // Scanning item ids 0..n (filtered by availability) keeps
            // the lowest-*index* tie rule of the eager path, which the
            // swap-scrambled `avail` slice order would not.
            let k_i = k as i64;
            let n = self.n();
            let chosen: &[usize] = out;
            let eval = |t: usize| {
                if !avail.contains(t) {
                    return None;
                }
                let row = self.prepared.matrix.row(t);
                let d2: f64 = chosen.iter().map(|&s| row[s]).sum::<f64>() * 2.0;
                Some(self.one_minus * (k_i - 1) as f64 * self.prepared.rel[t] + self.lam * d2)
            };
            if !argmax_with_ties_into(n, self.threads, k, &eval, ties) {
                return false;
            }
            let one_minus = Ratio::ONE - self.prepared.lambda;
            let winner = resolve_ties_exact(ties, |t| {
                one_minus.scale(k_i - 1) * self.prepared.rel_exact[t]
                    + self.prepared.lambda
                        * chosen
                            .iter()
                            .map(|&s| self.dist_of(s, t))
                            .sum::<Ratio>()
                            .scale(2)
            });
            out.push(winner);
        }
        out.sort_unstable();
        true
    }

    /// Recomputes `anchor`'s best remaining partner over the available
    /// set (`O(m)`), for re-insertion into the lazy heap. `None` once no
    /// partner `j > anchor` remains.
    fn rescan_anchor(&self, anchor: usize, avail: &IndexSet) -> Option<HeapEntry> {
        let ri = self.prepared.rel[anchor];
        let row = self.prepared.matrix.row(anchor);
        let mut best = f64::NEG_INFINITY;
        let mut partner = usize::MAX;
        for &j in avail.as_slice() {
            if j > anchor {
                let w = ms_weight_f64(self.one_minus, self.lam, ri, self.prepared.rel[j], row[j]);
                if w > best || (w == best && j < partner) {
                    best = w;
                    partner = j;
                }
            }
        }
        (partner != usize::MAX).then_some(HeapEntry {
            score: best,
            anchor,
            partner,
        })
    }

    /// The retired pre-heap `F_MS` implementation: rescans all `O(m²)`
    /// remaining pairs every round. Kept (unused by serving) as the
    /// differential reference for `tests/lazy_matches_eager.rs` and the
    /// hot-path bench baseline — [`Engine::greedy_max_sum`] must return
    /// bit-identical sets.
    #[doc(hidden)]
    pub fn greedy_max_sum_eager(&self, k: usize) -> Option<Vec<usize>> {
        let n = self.n();
        if k > n {
            return None;
        }
        if k == 0 {
            return Some(Vec::new());
        }
        if k == 1 {
            return Some(vec![self.most_relevant_with(&mut Vec::new())?]);
        }
        let mut available: Vec<usize> = (0..n).collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() + 1 < k {
            let (i, j) = self.best_available_pair_eager(&available)?;
            chosen.push(i);
            chosen.push(j);
            crate::avail::remove_sorted(&mut available, i);
            crate::avail::remove_sorted(&mut available, j);
        }
        if chosen.len() < k {
            // k odd: best marginal F_MS gain, lowest index on ties.
            let k_i = k as i64;
            let eval = |ai: usize| {
                let t = available[ai];
                let row = self.prepared.matrix.row(t);
                let d2: f64 = chosen.iter().map(|&s| row[s]).sum::<f64>() * 2.0;
                Some(self.one_minus * (k_i - 1) as f64 * self.prepared.rel[t] + self.lam * d2)
            };
            let ties = argmax_with_ties(available.len(), self.threads, k, &eval)?;
            let one_minus = Ratio::ONE - self.prepared.lambda;
            let winner_pos = resolve_ties_exact(&ties, |ai| {
                let t = available[ai];
                one_minus.scale(k_i - 1) * self.prepared.rel_exact[t]
                    + self.prepared.lambda
                        * chosen
                            .iter()
                            .map(|&s| self.dist_of(s, t))
                            .sum::<Ratio>()
                            .scale(2)
            });
            chosen.push(available[winner_pos]);
        }
        chosen.sort_unstable();
        Some(chosen)
    }

    /// The heaviest remaining pair under the Gollapudi–Sharma pair
    /// weight, lexicographically first on ties (matching the sequential
    /// scan order of `approx::greedy_max_sum`). Eager-reference only.
    fn best_available_pair_eager(&self, available: &[usize]) -> Option<(usize, usize)> {
        let m = available.len();
        if m < 2 {
            return None;
        }
        // Parallel unit = anchor position; each anchor scans its tail.
        let row_best = |ai: usize| {
            let i = available[ai];
            let ri = self.prepared.rel[i];
            let row = self.prepared.matrix.row(i);
            let mut best: Option<f64> = None;
            for &j in &available[ai + 1..] {
                let w = ms_weight_f64(self.one_minus, self.lam, ri, self.prepared.rel[j], row[j]);
                if best.is_none_or(|b| w > b) {
                    best = Some(w);
                }
            }
            best
        };
        let anchors = argmax_with_ties(m - 1, self.threads, m / 2 + 1, &row_best)?;
        // Gather concrete near-tie pairs from the surviving anchors.
        let best = anchors
            .iter()
            .map(|t| t.score)
            .fold(f64::NEG_INFINITY, f64::max);
        let window = F64_TIE_EPS.max(best.abs() * F64_TIE_EPS);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for t in &anchors {
            let ai = t.index;
            let i = available[ai];
            let ri = self.prepared.rel[i];
            let row = self.prepared.matrix.row(i);
            for &j in &available[ai + 1..] {
                let w = ms_weight_f64(self.one_minus, self.lam, ri, self.prepared.rel[j], row[j]);
                if w >= best - window {
                    pairs.push((i, j));
                }
            }
        }
        debug_assert!(!pairs.is_empty());
        if pairs.len() == 1 {
            return pairs.pop();
        }
        // Exact re-score; lexicographically smallest pair wins ties,
        // matching the sequential double loop.
        pairs.sort_unstable();
        let mut winner = pairs[0];
        let mut winner_w = self.exact_ms_pair_weight(winner.0, winner.1);
        for &(i, j) in &pairs[1..] {
            let w = self.exact_ms_pair_weight(i, j);
            if w > winner_w {
                winner = (i, j);
                winner_w = w;
            }
        }
        Some(winner)
    }

    fn exact_ms_pair_weight(&self, i: usize, j: usize) -> Ratio {
        ms_pair_weight_parts(
            self.prepared.lambda,
            self.prepared.rel_exact[i],
            self.prepared.rel_exact[j],
            self.dist_of(i, j),
        )
    }

    /// Greedy GMM for `F_MM` — same semantics as
    /// [`crate::approx::gmm_max_min`], with the per-round candidate scan
    /// parallelized and the nearest-selected distance maintained
    /// incrementally (`O(n)` per round instead of `O(n·|chosen|)`).
    pub fn gmm_max_min(&self, k: usize) -> Option<Vec<usize>> {
        let mut scratch = SolveScratch::new();
        let mut out = Vec::new();
        self.gmm_max_min_into(k, &mut scratch, &mut out).then_some(out)
    }

    /// [`Engine::gmm_max_min`] into caller-owned scratch and output
    /// buffers (the allocation-free serving form).
    pub fn gmm_max_min_into(
        &self,
        k: usize,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> bool {
        out.clear();
        let n = self.n();
        if k > n {
            return false;
        }
        if k == 0 {
            return true;
        }
        if k == 1 {
            match self.most_relevant_with(&mut scratch.ties) {
                Some(i) => {
                    out.push(i);
                    return true;
                }
                None => return false,
            }
        }
        // The seed pair is k-independent: memoized per prepared
        // universe, so warm-cache GMM requests skip the O(n²) seed scan.
        let Some((i, j)) = *self.prepared.gmm_seed.get_or_init(|| self.best_seed_pair()) else {
            return false;
        };
        let SolveScratch {
            marks,
            nearest,
            ties,
            ..
        } = scratch;
        marks.reset(n);
        out.push(i);
        out.push(j);
        marks.mark(i);
        marks.mark(j);
        let mut min_rel = self.prepared.rel[i].min(self.prepared.rel[j]);
        let mut min_rel_exact = self.prepared.rel_exact[i].min(self.prepared.rel_exact[j]);
        let mut min_dis = self.prepared.matrix.get(i, j);
        let mut min_dis_exact = self.dist_of(i, j);
        // nearest[t] = min distance from t to the chosen set.
        nearest.clear();
        nearest.extend(
            (0..n).map(|t| self.prepared.matrix.get(i, t).min(self.prepared.matrix.get(j, t))),
        );
        while out.len() < k {
            // Deadline checkpoint: one GMM round is an O(n) scan.
            if self.deadline.exceeded() {
                return false;
            }
            let eval = |t: usize| {
                if marks.is_marked(t) {
                    return None;
                }
                Some(
                    self.one_minus * min_rel.min(self.prepared.rel[t])
                        + self.lam * min_dis.min(nearest[t]),
                )
            };
            if !argmax_with_ties_into(n, self.threads, 1, &eval, ties) {
                return false;
            }
            let chosen: &[usize] = out;
            let t = resolve_ties_exact(ties, |t| {
                (Ratio::ONE - self.prepared.lambda) * min_rel_exact.min(self.prepared.rel_exact[t])
                    + self.prepared.lambda * self.exact_nearest(chosen, t).min(min_dis_exact)
            });
            min_rel = min_rel.min(self.prepared.rel[t]);
            min_rel_exact = min_rel_exact.min(self.prepared.rel_exact[t]);
            min_dis = min_dis.min(nearest[t]);
            min_dis_exact = min_dis_exact.min(self.exact_nearest(out, t));
            marks.mark(t);
            out.push(t);
            let row = self.prepared.matrix.row(t);
            for (slot, &d) in nearest.iter_mut().zip(row) {
                if d < *slot {
                    *slot = d;
                }
            }
        }
        out.sort_unstable();
        true
    }

    /// Exact minimum distance from `t` to the chosen set.
    fn exact_nearest(&self, chosen: &[usize], t: usize) -> Ratio {
        chosen
            .iter()
            .map(|&s| self.dist_of(s, t))
            .min()
            .expect("chosen is non-empty")
    }

    /// The GMM seed pair `argmax (1−λ)·min(rel) + λ·dist`,
    /// lexicographically first on ties.
    fn best_seed_pair(&self) -> Option<(usize, usize)> {
        let n = self.n();
        if n < 2 {
            return None;
        }
        let seed_value = |i: usize, j: usize| {
            self.one_minus * self.prepared.rel[i].min(self.prepared.rel[j]) + self.lam * self.prepared.matrix.get(i, j)
        };
        let row_best = |i: usize| {
            let mut best: Option<f64> = None;
            for j in (i + 1)..n {
                let v = seed_value(i, j);
                if best.is_none_or(|b| v > b) {
                    best = Some(v);
                }
            }
            best
        };
        let anchors = argmax_with_ties(n - 1, self.threads, n / 2 + 1, &row_best)?;
        let best = anchors
            .iter()
            .map(|t| t.score)
            .fold(f64::NEG_INFINITY, f64::max);
        let window = F64_TIE_EPS.max(best.abs() * F64_TIE_EPS);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for t in &anchors {
            let i = t.index;
            for j in (i + 1)..n {
                if seed_value(i, j) >= best - window {
                    pairs.push((i, j));
                }
            }
        }
        if pairs.len() == 1 {
            return pairs.pop();
        }
        pairs.sort_unstable();
        let one_minus = Ratio::ONE - self.prepared.lambda;
        let exact = |&(i, j): &(usize, usize)| {
            one_minus * self.prepared.rel_exact[i].min(self.prepared.rel_exact[j]) + self.prepared.lambda * self.dist_of(i, j)
        };
        let mut winner = pairs[0];
        let mut winner_v = exact(&winner);
        for p in &pairs[1..] {
            let v = exact(p);
            if v > winner_v {
                winner = *p;
                winner_v = v;
            }
        }
        Some(winner)
    }

    /// MMR incremental selection — same semantics as
    /// [`crate::approx::mmr`], the nearest-selected distance maintained
    /// incrementally.
    pub fn mmr(&self, k: usize) -> Option<Vec<usize>> {
        let mut scratch = SolveScratch::new();
        let mut out = Vec::new();
        self.mmr_into(k, &mut scratch, &mut out).then_some(out)
    }

    /// [`Engine::mmr`] into caller-owned scratch and output buffers
    /// (the allocation-free serving form).
    pub fn mmr_into(&self, k: usize, scratch: &mut SolveScratch, out: &mut Vec<usize>) -> bool {
        out.clear();
        let n = self.n();
        if k > n {
            return false;
        }
        if k == 0 {
            return true;
        }
        let Some(first) = self.most_relevant_with(&mut scratch.ties) else {
            return false;
        };
        let SolveScratch {
            marks,
            nearest,
            ties,
            ..
        } = scratch;
        marks.reset(n);
        marks.mark(first);
        out.push(first);
        nearest.clear();
        nearest.extend_from_slice(self.prepared.matrix.row(first));
        while out.len() < k {
            // Deadline checkpoint: one MMR round is an O(n) scan.
            if self.deadline.exceeded() {
                return false;
            }
            let eval = |t: usize| {
                if marks.is_marked(t) {
                    return None;
                }
                Some(self.one_minus * self.prepared.rel[t] + self.lam * nearest[t])
            };
            if !argmax_with_ties_into(n, self.threads, 1, &eval, ties) {
                return false;
            }
            let chosen: &[usize] = out;
            let t = resolve_ties_exact(ties, |t| {
                (Ratio::ONE - self.prepared.lambda) * self.prepared.rel_exact[t]
                    + self.prepared.lambda * self.exact_nearest(chosen, t)
            });
            marks.mark(t);
            out.push(t);
            let row = self.prepared.matrix.row(t);
            for (slot, &d) in nearest.iter_mut().zip(row) {
                if d < *slot {
                    *slot = d;
                }
            }
        }
        out.sort_unstable();
        true
    }

    /// `F_mono` top-`k` by per-item score (the Theorem 5.4 PTIME rule):
    /// float scores cut at the `k`-th largest, exact re-ranking inside
    /// the float tie window around the cut.
    /// Matches [`mono::max_mono`](crate::solvers::mono::max_mono) up to
    /// equal-score ties. `None` when `k > n`.
    pub fn mono_top_k(&self, k: usize) -> Option<Vec<usize>> {
        let mut scratch = SolveScratch::new();
        let mut out = Vec::new();
        self.mono_top_k_into(k, &mut scratch, &mut out).then_some(out)
    }

    /// [`Engine::mono_top_k`] into caller-owned scratch and output
    /// buffers (the allocation-free serving form).
    pub fn mono_top_k_into(
        &self,
        k: usize,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> bool {
        out.clear();
        let n = self.n();
        if k > n {
            return false;
        }
        // Deadline checkpoint before the cut (the whole selection is
        // one O(n) pass; the first request also pays the preamble
        // below — O(n log n) over a key column, O(n²) row sums
        // otherwise).
        if self.deadline.exceeded() {
            return false;
        }
        let scores = self.mono_scores_f64();
        if k == 0 || k == n {
            out.extend(0..k);
            return true;
        }
        let SolveScratch {
            scored,
            band,
            band_exact,
            ..
        } = scratch;
        scored.clear();
        scored.extend((0..n).map(|i| (scores[i], i)));
        // The k-th largest under: descending by score, ascending by
        // index. The index tiebreak makes the order total and strict,
        // so the cut is the one a full sort would put at rank k − 1.
        let (_, &mut (cut, _), _) = scored.select_nth_unstable_by(k - 1, |a, b| {
            b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))
        });
        // Items comfortably above the cut are in; the float-ambiguous
        // band around the k-th score is re-ranked exactly (so the order
        // the partition left `scored` in never shows).
        let window = F64_TIE_EPS.max(cut.abs() * F64_TIE_EPS);
        band.clear();
        for &(s, i) in scored.iter() {
            if s > cut + window {
                out.push(i);
            } else if s >= cut - window {
                band.push(i);
            }
        }
        let need = k - out.len();
        if need < band.len() {
            band_exact.clear();
            let exact = self.prepared.mono_exact();
            for &i in band.iter() {
                // Per-pair oracles sweep O(n) per band member: the
                // score polls the deadline before each sweep.
                let Ok(score) = exact.mono_score_exact(i, self.deadline) else {
                    return false;
                };
                band_exact.push((score, i));
            }
            band_exact.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            band.clear();
            band.extend(band_exact.iter().map(|&(_, i)| i));
        }
        out.extend(band.iter().take(need));
        out.sort_unstable();
        true
    }

    /// Float objective of a candidate set (used by local search rounds).
    fn objective_f64(&self, kind: ObjectiveKind, subset: &[usize]) -> f64 {
        match kind {
            ObjectiveKind::MaxSum => {
                let k = subset.len();
                if k == 0 {
                    return 0.0;
                }
                let rel_sum: f64 = subset.iter().map(|&i| self.prepared.rel[i]).sum();
                let mut dis_sum = 0.0;
                for (a, &i) in subset.iter().enumerate() {
                    let row = self.prepared.matrix.row(i);
                    for &j in &subset[a + 1..] {
                        dis_sum += row[j];
                    }
                }
                self.one_minus * (k as f64 - 1.0) * rel_sum + self.lam * 2.0 * dis_sum
            }
            ObjectiveKind::MaxMin => {
                if subset.is_empty() {
                    return 0.0;
                }
                let min_rel = subset.iter().map(|&i| self.prepared.rel[i]).fold(f64::INFINITY, f64::min);
                let mut min_dis = f64::INFINITY;
                for (a, &i) in subset.iter().enumerate() {
                    let row = self.prepared.matrix.row(i);
                    for &j in &subset[a + 1..] {
                        min_dis = min_dis.min(row[j]);
                    }
                }
                if min_dis == f64::INFINITY {
                    min_dis = 0.0;
                }
                self.one_minus * min_rel + self.lam * min_dis
            }
            ObjectiveKind::Mono => {
                let scores = self.mono_scores_f64();
                subset.iter().map(|&i| scores[i]).sum()
            }
        }
    }

    /// Best-improving single-swap local search — same semantics as
    /// [`crate::approx::local_search_swap`]: each round scans every
    /// (selected, unselected) swap in parallel, applies the best strictly
    /// improving one (verified exactly), and stops at a local optimum or
    /// after `max_rounds`. Returns the exact value and the sorted set.
    pub fn local_search_swap(
        &self,
        kind: ObjectiveKind,
        init: Vec<usize>,
        max_rounds: usize,
    ) -> (Ratio, Vec<usize>) {
        let n = self.n();
        let mut current = init;
        current.sort_unstable();
        let mut value_exact = self.objective_exact(kind, &current);
        let k = current.len();
        if k == 0 || k >= n {
            return (value_exact, current);
        }
        for _ in 0..max_rounds {
            // Deadline checkpoint: `current` is always a valid feasible
            // set, so a tripped deadline just stops improving it.
            if self.deadline.exceeded() {
                break;
            }
            let value_f = self.objective_f64(kind, &current);
            let current_ref = &current;
            // Flattened swap space: slot = pos * n + cand.
            let eval = |slot: usize| {
                let (pos, cand) = (slot / n, slot % n);
                if current_ref.binary_search(&cand).is_ok() {
                    return None;
                }
                let mut trial = current_ref.clone();
                trial[pos] = cand;
                trial.sort_unstable();
                let v = self.objective_f64(kind, &trial);
                let window = F64_TIE_EPS.max(v.abs() * F64_TIE_EPS);
                if v > value_f - window {
                    Some(v)
                } else {
                    None
                }
            };
            let Some(ties) = argmax_with_ties(k * n, self.threads, k * k, &eval) else {
                break;
            };
            // Exact re-scoring of the near-tie swaps; sequential scan
            // order (pos asc, cand asc) = ascending flattened slot.
            let mut best_swap: Option<(Ratio, usize)> = None;
            for t in &ties {
                let (pos, cand) = (t.index / n, t.index % n);
                let mut trial = current.clone();
                trial[pos] = cand;
                trial.sort_unstable();
                let v = self.objective_exact(kind, &trial);
                if v > value_exact && best_swap.as_ref().is_none_or(|(b, _)| v > *b) {
                    best_swap = Some((v, t.index));
                }
            }
            match best_swap {
                Some((v, slot)) => {
                    let (pos, cand) = (slot / n, slot % n);
                    current[pos] = cand;
                    current.sort_unstable();
                    value_exact = v;
                }
                None => break,
            }
        }
        (value_exact, current)
    }

    /// [`Engine::serve_into`] with freshly allocated scratch and output
    /// buffers: the exact objective value with the chosen indices.
    pub fn try_serve(&self, request: EngineRequest) -> Result<(Ratio, Vec<usize>), ServeError> {
        let mut out = Vec::new();
        let value = self.serve_into(request, &mut SolveScratch::new(), &mut out)?;
        Ok((value, out))
    }

    /// Serves one request: routes to the objective's solver
    /// (`F_MS` → greedy, `F_MM` → GMM, `F_mono` → exact top-k), writes
    /// the chosen indices into `out`, and returns the **exact**
    /// objective value.
    ///
    /// This is the single place a full-matrix request is classified:
    /// `k > n` is [`ServeError::InfeasibleK`] — a live concern once
    /// [`PreparedUniverse::remove_tuple`] can shrink a warm universe
    /// below a tenant's `k` — decided from the prepared dimensions
    /// before any clock is read; a feasible solve abandoned at a
    /// [`Deadline`] checkpoint is [`ServeError::DeadlineExceeded`].
    ///
    /// Fully allocation-free in steady state (warm scratch, reused
    /// `out`, memoized preambles, and a thread budget that keeps the
    /// argmax scans inline): a request performs **zero** heap
    /// allocations — the property `BENCH_hotpath.json` pins with a
    /// counting allocator.
    pub fn serve_into(
        &self,
        request: EngineRequest,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> Result<Ratio, ServeError> {
        self.solve_into(request, scratch, out)?;
        self.objective_exact_by(request.kind, out, self.deadline)
    }

    /// [`Engine::serve_into`] without the exact re-score — the coreset
    /// engine solves on its `m × m` sub-universe through this and
    /// re-scores under full-universe semantics itself.
    pub(crate) fn solve_into(
        &self,
        request: EngineRequest,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), ServeError> {
        let (k, n) = (request.k, self.n());
        if k > n {
            return Err(ServeError::InfeasibleK { k, n });
        }
        let solved = match request.kind {
            ObjectiveKind::MaxSum => self.greedy_max_sum_into(k, scratch, out),
            ObjectiveKind::MaxMin => self.gmm_max_min_into(k, scratch, out),
            ObjectiveKind::Mono => self.mono_top_k_into(k, scratch, out),
        };
        // k ≤ n, so a solver can only have stopped at a deadline
        // checkpoint.
        if solved {
            Ok(())
        } else {
            Err(ServeError::DeadlineExceeded)
        }
    }
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.n())
            .field("lambda", &self.prepared.lambda)
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx;
    use crate::distance::{NumericDistance, TableDistance};
    use crate::problem::DiversityProblem;
    use crate::relevance::{AttributeRelevance, TableRelevance};
    use crate::solvers::mono;

    const REL: AttributeRelevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    const DIS: NumericDistance = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };

    fn line_universe(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i * 3 % (2 * n), i % 5])).collect()
    }

    fn engine(n: i64, lambda: Ratio) -> Engine<'static> {
        Engine::with_threads(line_universe(n), &REL, &DIS, lambda, 2)
    }

    #[test]
    fn matrix_matches_oracle_exactly_on_integer_distances() {
        let u = line_universe(12);
        let m = DistanceMatrix::build(&u, &DIS, 2);
        assert_eq!(m.verify_exact(&u, &DIS), 0.0);
        assert_eq!(m.get(3, 3), 0.0);
        assert_eq!(m.get(2, 5), m.get(5, 2));
    }

    #[test]
    fn verify_exact_reports_sub_ulp_deviation_on_large_denominators() {
        // Adversarial distances whose denominators exceed f64 precision:
        // `to_f64` rounds them, so the stored float differs from the
        // exact rational by a sub-ulp amount. The old float-space check
        // rounded the exact value to the *same* float before comparing
        // and reported 0.0; the documented contract (maximum absolute
        // deviation) requires a strictly positive answer here.
        let u: Vec<Tuple> = (0..3).map(|i| Tuple::ints([i])).collect();
        let adversarial = Ratio::new_i128(1_000_000_000_000_007, 3_000_000_000_000_001);
        let mut dis = TableDistance::with_default(Ratio::ZERO);
        dis.set(u[0].clone(), u[1].clone(), adversarial);
        dis.set(u[0].clone(), u[2].clone(), Ratio::new(1, 3));
        dis.set(u[1].clone(), u[2].clone(), Ratio::int(2));
        let m = DistanceMatrix::build(&u, &dis, 1);
        let worst = m.verify_exact(&u, &dis);
        assert!(worst > 0.0, "sub-ulp rounding must be reported");
        // Pin the value against the Ratio-exact deviation of each pair.
        let expected = [
            (0usize, 1usize, adversarial),
            (0, 2, Ratio::new(1, 3)),
            (1, 2, Ratio::int(2)),
        ]
        .iter()
        .map(|&(i, j, exact)| {
            (Ratio::from_f64_exact(m.get(i, j)).unwrap() - exact).abs()
        })
        .max()
        .unwrap();
        assert_eq!(worst, expected.to_f64());
        // Sub-ulp for O(1)-magnitude values: exactly the regime the old
        // implementation was blind to.
        assert!(worst < 1e-15, "deviation {worst} unexpectedly large");
    }

    #[test]
    fn verify_exact_survives_denominators_beyond_subtraction_range() {
        // A coprime denominator near 2^80: subtracting the stored
        // dyadic (denominator ~2^53) needs an lcm far beyond i128, so
        // the exact path must fall back to the float-space difference
        // for this pair instead of panicking.
        let u: Vec<Tuple> = (0..2).map(|i| Tuple::ints([i])).collect();
        let huge = Ratio::new_i128(1i128 << 79, (1i128 << 80) + 1); // ≈ 1/2
        let mut dis = TableDistance::with_default(Ratio::ZERO);
        dis.set(u[0].clone(), u[1].clone(), huge);
        let m = DistanceMatrix::build(&u, &dis, 1);
        let worst = m.verify_exact(&u, &dis);
        assert!(worst.is_finite() && (0.0..=1e-15).contains(&worst));
    }

    #[test]
    fn engine_matches_approx_greedy_value() {
        for k in [1, 2, 3, 4, 5] {
            for lam in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
                let u = line_universe(14);
                let p = DiversityProblem::new(u, &REL, &DIS, lam, k);
                let e = engine(14, lam);
                let seq = approx::greedy_max_sum(&p).unwrap();
                let fast = e.greedy_max_sum(k).unwrap();
                assert_eq!(
                    p.f_ms(&seq),
                    e.objective_exact(ObjectiveKind::MaxSum, &fast),
                    "k={k} λ={lam}: {seq:?} vs {fast:?}"
                );
            }
        }
    }

    #[test]
    fn engine_matches_approx_gmm_value() {
        for k in [1, 2, 3, 4] {
            for lam in [Ratio::ZERO, Ratio::new(1, 3), Ratio::ONE] {
                let u = line_universe(12);
                let p = DiversityProblem::new(u, &REL, &DIS, lam, k);
                let e = engine(12, lam);
                let seq = approx::gmm_max_min(&p).unwrap();
                let fast = e.gmm_max_min(k).unwrap();
                assert_eq!(
                    p.f_mm(&seq),
                    e.objective_exact(ObjectiveKind::MaxMin, &fast),
                    "k={k} λ={lam}"
                );
            }
        }
    }

    #[test]
    fn engine_matches_approx_mmr_set() {
        for k in [1, 3, 5] {
            for lam in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
                let u = line_universe(11);
                let p = DiversityProblem::new(u, &REL, &DIS, lam, k);
                let e = engine(11, lam);
                assert_eq!(approx::mmr(&p).unwrap(), e.mmr(k).unwrap(), "k={k} λ={lam}");
            }
        }
    }

    #[test]
    fn engine_mono_matches_exact_solver() {
        for k in [1, 2, 4] {
            let lam = Ratio::new(1, 2);
            let u = line_universe(10);
            let p = DiversityProblem::new(u, &REL, &DIS, lam, k);
            let e = engine(10, lam);
            let (opt, _) = mono::max_mono(&p).unwrap();
            let set = e.mono_top_k(k).unwrap();
            assert_eq!(opt, e.objective_exact(ObjectiveKind::Mono, &set), "k={k}");
        }
    }

    #[test]
    fn engine_local_search_matches_sequential_value() {
        let lam = Ratio::new(1, 2);
        let u = line_universe(10);
        let p = DiversityProblem::new(u, &REL, &DIS, lam, 3);
        let e = engine(10, lam);
        for kind in ObjectiveKind::ALL {
            let init = vec![0, 1, 2];
            let (sv, _) = approx::local_search_swap(&p, kind, init.clone(), 50);
            let (ev, eset) = e.local_search_swap(kind, init, 50);
            assert_eq!(sv, ev, "{kind}");
            assert_eq!(e.objective_exact(kind, &eset), ev, "{kind}");
        }
    }

    #[test]
    fn one_scratch_serves_a_batch_against_one_matrix() {
        let e = engine(12, Ratio::new(1, 2));
        let (mut scratch, mut set) = (SolveScratch::new(), Vec::new());
        for kind in ObjectiveKind::ALL {
            for k in 1..=4 {
                let v = e
                    .serve_into(EngineRequest { kind, k }, &mut scratch, &mut set)
                    .expect("feasible");
                assert_eq!(set.len(), k);
                assert_eq!(e.objective_exact(kind, &set), v);
            }
        }
    }

    #[test]
    fn infeasible_requests_are_typed() {
        let e = engine(3, Ratio::ONE);
        assert!(e.greedy_max_sum(4).is_none());
        assert!(e.gmm_max_min(4).is_none());
        assert!(e.mmr(4).is_none());
        assert!(e.mono_top_k(4).is_none());
        let req = EngineRequest { kind: ObjectiveKind::MaxSum, k: 4 };
        assert_eq!(e.try_serve(req), Err(ServeError::InfeasibleK { k: 4, n: 3 }));
        // Classified from the dimensions before any clock is read: an
        // expired deadline does not turn infeasibility into a timeout.
        let expired = Deadline::at(std::time::Instant::now());
        assert_eq!(
            e.with_deadline(expired).try_serve(req),
            Err(ServeError::InfeasibleK { k: 4, n: 3 })
        );
    }

    #[test]
    fn exact_tie_fallback_breaks_float_ties_like_the_sequential_path() {
        // All-equal relevance and distance: everything ties, so the
        // engine must reproduce the sequential lowest-index picks.
        let rel = TableRelevance::with_default(Ratio::ONE);
        let dis = TableDistance::with_default(Ratio::ONE);
        let u: Vec<Tuple> = (0..8).map(|i| Tuple::ints([i])).collect();
        let p = DiversityProblem::new(u.clone(), &rel, &dis, Ratio::new(1, 2), 3);
        let e = Engine::with_threads(u, &rel, &dis, Ratio::new(1, 2), 2);
        assert_eq!(approx::greedy_max_sum(&p).unwrap(), e.greedy_max_sum(3).unwrap());
        assert_eq!(approx::gmm_max_min(&p).unwrap(), e.gmm_max_min(3).unwrap());
        assert_eq!(approx::mmr(&p).unwrap(), e.mmr(3).unwrap());
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        let u = line_universe(16);
        let e1 = Engine::with_threads(u.clone(), &REL, &DIS, Ratio::new(2, 3), 1);
        let e4 = Engine::with_threads(u, &REL, &DIS, Ratio::new(2, 3), 4);
        for k in [2, 5] {
            assert_eq!(e1.greedy_max_sum(k), e4.greedy_max_sum(k));
            assert_eq!(e1.gmm_max_min(k), e4.gmm_max_min(k));
            assert_eq!(e1.mmr(k), e4.mmr(k));
            assert_eq!(e1.mono_top_k(k), e4.mono_top_k(k));
        }
    }

    /// The matrix after `push_item`/`swap_remove_item` must hold the
    /// exact same bits, entry for entry, as a matrix built fresh over
    /// the equivalent post-delta universe (swap-remove order).
    fn assert_matrix_bits_equal(a: &DistanceMatrix, b: &DistanceMatrix) {
        assert_eq!(a.n(), b.n());
        for i in 0..a.n() {
            for j in 0..a.n() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    b.get(i, j).to_bits(),
                    "matrix bits diverged at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn push_item_matches_fresh_build_through_restride() {
        let mut u = line_universe(3);
        let (mut m, _) = DistanceMatrix::build_with_seed(&u, &DIS, 1, None);
        // Push enough items to exhaust the headroom (pad(3) = 4) and
        // force at least one restride.
        for i in 0..9i64 {
            let t = Tuple::ints([40 + 7 * i, i % 5]);
            let col: Vec<f64> = u.iter().map(|x| DIS.dist_f64(x, &t)).collect();
            m.push_item(&col);
            u.push(t);
            assert_matrix_bits_equal(&m, &DistanceMatrix::build(&u, &DIS, 1));
        }
    }

    #[test]
    fn swap_remove_item_matches_fresh_build() {
        let mut u = line_universe(9);
        let (mut m, _) = DistanceMatrix::build_with_seed(&u, &DIS, 1, None);
        for r in [4usize, 0, 6, 0] {
            m.swap_remove_item(r);
            u.swap_remove(r);
            assert_matrix_bits_equal(&m, &DistanceMatrix::build(&u, &DIS, 1));
        }
    }

    /// Drives all three objectives through a prepared universe so that
    /// every memoized preamble is populated.
    fn warm_all_preambles(p: &Arc<PreparedUniverse<'static>>) {
        let e = Engine::from_prepared(Arc::clone(p), 1);
        let k = 2.min(p.n());
        for kind in ObjectiveKind::ALL {
            let _ = e.try_serve(EngineRequest { kind, k });
        }
    }

    #[test]
    fn insert_tuple_repairs_warm_preambles_bit_identically() {
        for lam in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
            let mut u = line_universe(10);
            let mut prepared =
                PreparedUniverse::build_shared(u.clone(), &REL, Arc::new(DIS), lam, 1);
            for step in 0..4i64 {
                // Warm every preamble, then insert through the warm state.
                let arc = Arc::new(prepared);
                warm_all_preambles(&arc);
                prepared = Arc::try_unwrap(arc).expect("sole owner");
                let t = Tuple::ints([50 + 11 * step, step % 5]);
                prepared.insert_tuple(t.clone(), REL.rel(&t));
                u.push(t);

                // From-scratch prepare of the grown universe, preambles
                // warmed the same way.
                let scratch = Arc::new(PreparedUniverse::build_shared(
                    u.clone(),
                    &REL,
                    Arc::new(DIS),
                    lam,
                    1,
                ));
                warm_all_preambles(&scratch);

                assert_matrix_bits_equal(prepared.matrix(), scratch.matrix());
                assert_eq!(prepared.ms_preamble(), scratch.ms_preamble(), "λ={lam}");
                assert_eq!(prepared.gmm_preamble(), scratch.gmm_preamble(), "λ={lam}");
                let (a, b) = (prepared.mono_preamble(), scratch.mono_preamble());
                let (a, b) = (a.expect("warmed"), b.expect("warmed"));
                assert_eq!(a.len(), b.len());
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "λ={lam}: mono score {i}");
                }
            }
        }
    }

    #[test]
    fn remove_tuple_invalidates_then_serves_like_scratch() {
        let lam = Ratio::new(1, 2);
        let mut u = line_universe(12);
        let mut prepared = PreparedUniverse::build_shared(u.clone(), &REL, Arc::new(DIS), lam, 1);
        {
            let arc = Arc::new(prepared);
            warm_all_preambles(&arc);
            prepared = Arc::try_unwrap(arc).expect("sole owner");
        }
        prepared.remove_tuple(5).unwrap();
        u.swap_remove(5);
        // Removal drops the memoized preambles entirely…
        assert!(prepared.mono_preamble().is_none());
        assert!(prepared.gmm_preamble().is_none());
        assert!(prepared.ms_preamble().is_none());
        assert!(matches!(
            prepared.remove_tuple(11),
            Err(DeltaError::IndexOutOfRange { index: 11, n: 11 })
        ));
        // …and the lazily rebuilt state answers exactly like scratch.
        let delta = Engine::from_prepared(Arc::new(prepared), 1);
        let fresh = Engine::with_threads(u, &REL, &DIS, lam, 1);
        for kind in ObjectiveKind::ALL {
            for k in [1usize, 3, 6] {
                let req = EngineRequest { kind, k };
                assert_eq!(delta.try_serve(req), fresh.try_serve(req), "{kind} k={k}");
            }
        }
        assert_eq!(delta.prepared().ms_preamble_builds(), 2);
    }

    #[test]
    fn try_serve_reports_infeasible_k_after_shrink() {
        let lam = Ratio::new(1, 2);
        let mut prepared =
            PreparedUniverse::build_shared(line_universe(4), &REL, Arc::new(DIS), lam, 1);
        prepared.remove_tuple(0).unwrap();
        let e = Engine::from_prepared(Arc::new(prepared), 1);
        let req = EngineRequest { kind: ObjectiveKind::MaxSum, k: 4 };
        assert_eq!(
            e.try_serve(req),
            Err(ServeError::InfeasibleK { k: 4, n: 3 })
        );
        assert!(e.try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 3 }).is_ok());
    }

    #[test]
    fn fork_preserves_preambles_and_serves_identically() {
        let lam = Ratio::new(1, 3);
        let prepared = Arc::new(PreparedUniverse::build_shared(
            line_universe(9),
            &REL,
            Arc::new(DIS),
            lam,
            1,
        ));
        warm_all_preambles(&prepared);
        let fork = Arc::new(prepared.fork());
        assert_eq!(fork.ms_preamble(), prepared.ms_preamble());
        assert_eq!(fork.gmm_preamble(), prepared.gmm_preamble());
        assert_eq!(fork.ms_preamble_builds(), prepared.ms_preamble_builds());
        let a = Engine::from_prepared(prepared, 1);
        let b = Engine::from_prepared(fork, 1);
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k: 4 };
            assert_eq!(a.try_serve(req), b.try_serve(req), "{kind}");
        }
    }
}
