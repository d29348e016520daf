//! The [`Engine`] solvers — lazy-heap `F_MS` greedy, GMM for `F_MM`,
//! `F_mono` top-k — and the reusable [`SolveScratch`] they run in.

use super::matrix::{ms_weight_f64, DistanceMatrix};
use super::prepared::PreparedUniverse;
use super::ties::{
    argmax_with_ties_into, resolve_pairs_exact, resolve_ties_exact, tie_threshold, TieCandidate,
    F64_TIE_EPS,
};
use super::{default_threads, EngineRequest, ServeError};
use crate::avail::{GenMarks, IndexSet};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::problem::{ms_pair_weight_parts, ObjectiveKind};
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lazy-heap `F_MS` solves started, heap entries popped and anchors
/// rescanned, by every engine of the process (see [`solver_counters`]).
static MS_REQUESTS: AtomicU64 = AtomicU64::new(0);
static MS_POPS: AtomicU64 = AtomicU64::new(0);
static MS_RESCANS: AtomicU64 = AtomicU64::new(0);

/// `(requests, pops, rescans)` of the lazy-heap `F_MS` greedy since the
/// process started — what a `max_sum` solve cost beyond its `k/2`
/// rounds. A pop is `O(log n)`, a rescan one `O(n)` sweep of an
/// anchor's row: a universe whose every anchor shares one best partner
/// (an outlier) pays `≈ n` rescans per request once that partner is
/// taken, an evenly spread one a handful. For `{"op":"stats"}`.
pub fn solver_counters() -> (u64, u64, u64) {
    (
        MS_REQUESTS.load(Ordering::Relaxed),
        MS_POPS.load(Ordering::Relaxed),
        MS_RESCANS.load(Ordering::Relaxed),
    )
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
/// use std::sync::Arc;
///
/// let universe: Vec<Tuple> = (0..100).map(|i| Tuple::ints([i, i % 7])).collect();
/// let rel = AttributeRelevance { attr: 1, default: Ratio::ZERO };
/// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
///
/// // Prepare once (O(n²))…
/// let engine = Engine::new(universe, &rel, Arc::new(dis), Ratio::new(1, 2));
/// // …serve many (objective, k) requests against the same matrix.
/// for kind in ObjectiveKind::ALL {
///     for k in [5, 10] {
///         let (value, set) = engine.try_serve(EngineRequest { kind, k }).unwrap();
///         assert_eq!(set.len(), k);
///         assert!(value > Ratio::ZERO);
///     }
/// }
/// ```
pub struct Engine {
    prepared: Arc<PreparedUniverse>,
    lam: f64,
    one_minus: f64,
    threads: usize,
    deadline: Deadline,
}

impl Engine {
    /// Prepares an engine over a materialized universe, using all
    /// available cores for the matrix build.
    ///
    /// Panics if `λ ∉ [0, 1]` (same contract as
    /// [`DiversityProblem::new`](crate::problem::DiversityProblem::new)).
    pub fn new(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
    ) -> Self {
        Self::with_threads(universe, rel, dis, lambda, default_threads())
    }

    /// [`Engine::new`] with an explicit worker count (1 = sequential).
    pub fn with_threads(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
    ) -> Self {
        let prepared = PreparedUniverse::build_shared(universe, rel, dis, lambda, threads);
        Self::from_prepared(Arc::new(prepared), threads)
    }

    /// Wraps already-prepared (possibly cached and shared) state in an
    /// engine. This costs nothing beyond an `Arc` clone: no relevance
    /// evaluation, no matrix build — the skip-straight-to-solving path
    /// the serving registry takes on a cache hit.
    pub fn from_prepared(prepared: Arc<PreparedUniverse>, threads: usize) -> Self {
        let (one_minus, lam) = prepared.weights();
        Engine {
            prepared,
            lam,
            one_minus,
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
    pub fn prepared(&self) -> &Arc<PreparedUniverse> {
        &self.prepared
    }

    /// Number of universe items.
    pub(crate) fn n(&self) -> usize {
        self.prepared.n()
    }

    /// The precomputed distance matrix.
    pub fn matrix(&self) -> &DistanceMatrix {
        self.prepared.matrix()
    }

    /// Exact distance between items `i` and `j` (through the oracle —
    /// used for tie verification, not in inner loops).
    pub(crate) fn dist_of(&self, i: usize, j: usize) -> Ratio {
        self.prepared.dist_of(i, j)
    }

    /// Exact objective value `F(U)` of a candidate set, matching
    /// [`DiversityProblem::objective`](crate::problem::DiversityProblem::objective)
    /// term for term.
    pub fn objective_exact(&self, kind: ObjectiveKind, subset: &[usize]) -> Ratio {
        self.prepared
            .exact()
            .value(kind, subset, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// Argmax of relevance with lowest-index tie-break (the `k = 1` rule
    /// of `divr_paper::approx`), into a scratch tie buffer.
    fn most_relevant_with(&self, ties: &mut Vec<TieCandidate>) -> Option<usize> {
        if !argmax_with_ties_into(self.n(), self.threads, 1, &|i| Some(self.prepared.rel_f64()[i]), ties)
        {
            return None;
        }
        Some(resolve_ties_exact(ties, |i| self.prepared.relevances()[i]))
    }

    /// Greedy pair-picking for `F_MS`, float path with exact tie
    /// fallback — same semantics as `divr_paper::approx::greedy_max_sum`.
    /// `None` when `k > n`.
    ///
    /// This is the lazy-heap path: each round pops anchors off a
    /// max-heap of cached best-partner weights instead of rescanning
    /// all `O(m²)` remaining pairs. Answers equal the sequential
    /// reference's — see `tests/lazy_matches_reference.rs`.
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
        MS_REQUESTS.fetch_add(1, Ordering::Relaxed);
        // Heapify the memoized seed (O(n)) into the scratch-owned
        // storage; `BinaryHeap::from` is linear and allocation-free on
        // a warmed buffer.
        let seed = self.prepared.ms_seed();
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
            let (mut pops, mut rescans) = (0, 0);
            while let Some(&top) = heap.peek() {
                if !fresh.is_empty() && top.score < tie_threshold(best) {
                    break;
                }
                let top = heap.pop().expect("peeked entry exists");
                pops += 1;
                if !avail.contains(top.anchor) {
                    continue;
                }
                if avail.contains(top.partner) {
                    if top.score > best {
                        best = top.score;
                    }
                    fresh.push(top);
                } else {
                    rescans += 1;
                    if let Some(entry) = self.rescan_anchor(top.anchor, avail) {
                        heap.push(entry);
                    }
                }
                // An anchor with no remaining partner j > anchor is
                // dropped for good: availability never grows back.
            }
            // Once a round, not once a pop: the counters are shared by
            // every solving thread.
            MS_POPS.fetch_add(pops, Ordering::Relaxed);
            MS_RESCANS.fetch_add(rescans, Ordering::Relaxed);
            if fresh.is_empty() {
                return false; // fewer than two available items
            }
            // Collect every concrete near-tie pair from the anchors
            // whose (exact) row best lands in the window — the same
            // candidate set a full scan of the remaining pairs produces.
            let thr = tie_threshold(best);
            pairs.clear();
            for e in fresh.iter() {
                if e.score >= thr {
                    let i = e.anchor;
                    let ri = self.prepared.rel_f64()[i];
                    let row = self.prepared.matrix().row(i);
                    for &j in avail.as_slice() {
                        if j > i
                            && ms_weight_f64(self.one_minus, self.lam, ri, self.prepared.rel_f64()[j], row[j])
                                >= thr
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
            let (i, j) = resolve_pairs_exact(pairs, |a, b| self.exact_ms_pair_weight(a, b));
            out.push(i);
            out.push(j);
            avail.remove(i);
            avail.remove(j);
        }
        if out.len() < k {
            // k odd: best marginal F_MS gain, lowest index on ties.
            // Scanning item ids 0..n (filtered by availability) keeps
            // the lowest-*index* tie rule of the reference, which the
            // swap-scrambled `avail` slice order would not.
            let k_i = k as i64;
            let n = self.n();
            let chosen: &[usize] = out;
            let eval = |t: usize| {
                if !avail.contains(t) {
                    return None;
                }
                let row = self.prepared.matrix().row(t);
                let d2: f64 = chosen.iter().map(|&s| row[s]).sum::<f64>() * 2.0;
                Some(self.one_minus * (k_i - 1) as f64 * self.prepared.rel_f64()[t] + self.lam * d2)
            };
            if !argmax_with_ties_into(n, self.threads, k, &eval, ties) {
                return false;
            }
            let one_minus = Ratio::ONE - self.prepared.lambda();
            let winner = resolve_ties_exact(ties, |t| {
                one_minus.scale(k_i - 1) * self.prepared.relevances()[t]
                    + self.prepared.lambda()
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
        let ri = self.prepared.rel_f64()[anchor];
        let row = self.prepared.matrix().row(anchor);
        let mut best = f64::NEG_INFINITY;
        let mut partner = usize::MAX;
        for &j in avail.as_slice() {
            if j > anchor {
                let w = ms_weight_f64(self.one_minus, self.lam, ri, self.prepared.rel_f64()[j], row[j]);
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

    fn exact_ms_pair_weight(&self, i: usize, j: usize) -> Ratio {
        ms_pair_weight_parts(
            self.prepared.lambda(),
            self.prepared.relevances()[i],
            self.prepared.relevances()[j],
            self.dist_of(i, j),
        )
    }

    /// Greedy GMM for `F_MM` — same semantics as
    /// `divr_paper::approx::gmm_max_min`, with the per-round candidate scan
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
        // universe, so warm-cache GMM requests skip its resolution.
        let Some((i, j)) = self.prepared.gmm_seed(self.threads) else {
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
        let mut min_rel = self.prepared.rel_f64()[i].min(self.prepared.rel_f64()[j]);
        let mut min_rel_exact = self.prepared.relevances()[i].min(self.prepared.relevances()[j]);
        let mut min_dis = self.prepared.matrix().get(i, j);
        let mut min_dis_exact = self.dist_of(i, j);
        // nearest[t] = min distance from t to the chosen set.
        nearest.clear();
        nearest.extend(
            (0..n).map(|t| self.prepared.matrix().get(i, t).min(self.prepared.matrix().get(j, t))),
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
                    self.one_minus * min_rel.min(self.prepared.rel_f64()[t])
                        + self.lam * min_dis.min(nearest[t]),
                )
            };
            if !argmax_with_ties_into(n, self.threads, 1, &eval, ties) {
                return false;
            }
            let chosen: &[usize] = out;
            let t = resolve_ties_exact(ties, |t| {
                (Ratio::ONE - self.prepared.lambda()) * min_rel_exact.min(self.prepared.relevances()[t])
                    + self.prepared.lambda() * self.exact_nearest(chosen, t).min(min_dis_exact)
            });
            min_rel = min_rel.min(self.prepared.rel_f64()[t]);
            min_rel_exact = min_rel_exact.min(self.prepared.relevances()[t]);
            min_dis = min_dis.min(nearest[t]);
            min_dis_exact = min_dis_exact.min(self.exact_nearest(out, t));
            marks.mark(t);
            out.push(t);
            let row = self.prepared.matrix().row(t);
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

    /// `F_mono` top-`k` by per-item score (the Theorem 5.4 PTIME rule):
    /// float scores cut at the `k`-th largest, exact re-ranking inside
    /// the float tie window around the cut.
    /// Matches `divr_paper::solvers::mono::max_mono` up to
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
        let scores = self.prepared.mono_scores_f64();
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
            let exact = self.prepared.exact();
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
        self.prepared.exact().value(request.kind, out, self.deadline)
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

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.n())
            .field("lambda", &self.prepared.lambda())
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixtures::{line_universe, DIS, REL};

    fn engine(n: i64, lambda: Ratio) -> Engine {
        Engine::with_threads(line_universe(n), &REL, Arc::new(DIS), lambda, 2)
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
    fn single_thread_and_multi_thread_agree() {
        let u = line_universe(16);
        let e1 = Engine::with_threads(u.clone(), &REL, Arc::new(DIS), Ratio::new(2, 3), 1);
        let e4 = Engine::with_threads(u, &REL, Arc::new(DIS), Ratio::new(2, 3), 4);
        for k in [2, 5] {
            assert_eq!(e1.greedy_max_sum(k), e4.greedy_max_sum(k));
            assert_eq!(e1.gmm_max_min(k), e4.gmm_max_min(k));
            assert_eq!(e1.mono_top_k(k), e4.mono_top_k(k));
        }
    }
}
