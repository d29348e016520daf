//! [`PreparedUniverse`]: the owned, shareable state behind an
//! [`Engine`](super::Engine) — construction, the memoized solver
//! preambles, and their `O(n)` repair under deltas.

use super::matrix::{
    gmm_row_best, gmm_seed_f64, ms_weight_f64, par_map_reduce, DistanceMatrix, PairSeed,
};
use super::ties::{argmax_with_ties, resolve_pairs_exact, tie_threshold};
use super::{tuple_approx_bytes, DeltaError, ScoreSource, ServeError};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::mono_exact::{ExactRel, ExactRows, ExactView, MonoSums};
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The owned, shareable state behind an [`Engine`](super::Engine): the materialized
/// universe, the construction-time relevance caches (exact and float),
/// the `O(n²)` [`DistanceMatrix`], λ, and the exact distance oracle for
/// tie verification.
///
/// Building one pays the full preparation cost exactly once; any number
/// of engines (and, through `Arc`, any number of threads) can then solve
/// against it concurrently. It borrows nothing — the oracle is held
/// through an `Arc` — so it is `Send + Sync` and is the unit the serving
/// registry caches and evicts.
pub struct PreparedUniverse {
    universe: Vec<Tuple>,
    dis: Arc<dyn Distance + Send + Sync>,
    rel_exact: Vec<Ratio>,
    lambda: Ratio,
    // `(1 − λ, λ)` as floats ([`lambda_floats`]): the weights of every
    // float score, derived once here and copied by every engine.
    weights: (f64, f64),
    rel: Vec<f64>,
    matrix: DistanceMatrix,
    // What the matrix build saw of `δ_dis`'s finiteness while each row
    // was hot: `Some(verdict)` from construction until the first delta,
    // `None` after one (the verdict no longer covers the matrix and
    // `check_finite` goes back to scanning it).
    built_finite: Option<Result<(), ServeError>>,
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
    // Per-anchor best GMM seed value over the partners j > i
    // ([`gmm_row_best`]): what the seed pair below is resolved from, so
    // the first `F_MM` request reads n − 1 floats instead of the
    // triangle. Built with the matrix, like `ms_seed`.
    gmm_rows: OnceLock<Vec<f64>>,
    // The seed pair itself — resolved (exactly, through the oracle)
    // only when `F_MM` is first asked.
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

/// `(1 − λ, λ)` in `f64` — the one derivation of the two float weights:
/// [`PreparedUniverse`] stores the result at construction and
/// [`Engine::from_prepared`](super::Engine::from_prepared) copies it, so
/// the fused build scans, the delta repairs and every solver round
/// weigh with the same two floats.
fn lambda_floats(lambda: Ratio) -> (f64, f64) {
    ((Ratio::ONE - lambda).to_f64(), lambda.to_f64())
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

/// A prepared universe shared across threads — the cacheable unit of
/// the serving layer.
pub type SharedPrepared = Arc<PreparedUniverse>;

/// Evaluates `δ_rel` once per universe item — the one relevance pass
/// behind every prepared-state constructor (full matrix and coreset).
/// `O(n)` total; polls `deadline` every 64 items so even an expensive
/// relevance oracle cannot overshoot by more than 64 evaluations.
fn score_relevance(
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

impl PreparedUniverse {
    /// The single construction site: every constructor funnels here, so
    /// the field set (including the memoized preambles) is initialized
    /// in exactly one place. `rel_exact[i]` must equal
    /// `δ_rel(universe[i])` — the coreset layer passes the scores it
    /// already evaluated so a sub-universe reuses exactly those values.
    /// The matrix keeps growth headroom only when `growable`
    /// ([`PreparedUniverse::try_build_shared_deadline`]).
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
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
        growable: bool,
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
        // Everything that needs the whole triangle is fused into the
        // matrix build — the max-sum heap seed, the GMM row bests and
        // the finiteness verdict, under the float weights the solvers
        // use — each row scanned while cache-hot from being written: a
        // standalone pass would cost a second full sweep each.
        let weights = lambda_floats(lambda);
        let (one_minus, lam) = weights;
        let (matrix, scans) = DistanceMatrix::try_build_with_seed(
            &universe,
            &*dis,
            threads.max(1),
            Some((rel_f.as_slice(), one_minus, lam)),
            growable,
            deadline,
        )?;
        let scans = scans.expect("asked for with the weights");
        let built_finite = match scans.non_finite {
            Some((i, j)) => Err(ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                i,
                j,
            }),
            None => Ok(()),
        };
        Ok(PreparedUniverse {
            universe,
            dis,
            rel_exact,
            lambda,
            weights,
            rel: rel_f,
            matrix,
            built_finite: Some(built_finite),
            mono_scores: OnceLock::new(),
            mono_dsums: OnceLock::new(),
            mono_sums: MonoSums::default(),
            gmm_rows: OnceLock::from(scans.gmm),
            gmm_seed: OnceLock::new(),
            ms_seed: OnceLock::from(scans.ms),
            preamble_builds: AtomicUsize::new(1),
        })
    }

    /// [`PreparedUniverse::try_build_shared_deadline`] with
    /// [`Deadline::none`] and an exact-size matrix: the infallible form
    /// for callers that prepare outside any request (tests, benches, the
    /// conformance oracles).
    pub fn build_shared(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
    ) -> PreparedUniverse {
        Self::try_build_shared_deadline(universe, rel, dis, lambda, threads, false, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// Prepares a universe over an owned, shareable oracle: caches every
    /// relevance value and builds the distance matrix over `threads`
    /// workers (1 = sequential). The result borrows nothing, so it can
    /// be cached, sent across threads, and outlive the caller (the
    /// serving-registry construction path).
    ///
    /// The matrix holds exactly `n²` cells unless `growable`, which
    /// keeps `≈ n/16` rows and columns of headroom so that
    /// [`PreparedUniverse::insert_tuple`] writes in place: the choice of
    /// a universe that base edits patch. An exact-size matrix re-strides
    /// once at its first insert, so either choice serves the same bits.
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
        growable: bool,
        deadline: Deadline,
    ) -> Result<PreparedUniverse, ServeError> {
        let rel_exact = score_relevance(&universe, rel, deadline)?;
        PreparedUniverse::try_from_scores(universe, rel_exact, dis, lambda, threads, growable, deadline)
    }

    /// Number of universe items.
    pub fn n(&self) -> usize {
        self.universe.len()
    }

    /// The materialized universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// The trade-off parameter λ.
    pub(crate) fn lambda(&self) -> Ratio {
        self.lambda
    }

    /// The precomputed distance matrix.
    #[inline]
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }

    /// The float relevance cache the argmax rounds read, by item.
    #[inline]
    pub(super) fn rel_f64(&self) -> &[f64] {
        &self.rel
    }

    /// `(1 − λ, λ)` as the floats every score of this universe is
    /// weighed with (`lambda_floats`, derived once at construction).
    pub(super) fn weights(&self) -> (f64, f64) {
        self.weights
    }

    /// The construction-time exact relevance cache, indexed by item.
    #[inline]
    pub(crate) fn relevances(&self) -> &[Ratio] {
        &self.rel_exact
    }

    /// The exact distance oracle (kept for tie verification).
    pub fn distance(&self) -> &(dyn Distance + '_) {
        &*self.dis
    }

    /// Exact distance between items `i` and `j` (through the oracle).
    pub fn dist_of(&self, i: usize, j: usize) -> Ratio {
        self.dis.dist(&self.universe[i], &self.universe[j])
    }

    /// Approximate heap footprint in bytes — the quantity the serving
    /// registry's byte budget meters: the matrix **as allocated**
    /// (growth headroom included, where the build kept any), the
    /// relevance caches, the tuples as allocated (`tuple_approx_bytes`:
    /// handle, shared block and string blocks), the `O(n)` memoized
    /// solver preambles (the max-sum heap seed and the GMM row bests,
    /// materialized during the matrix build, plus the mono scores, row
    /// sums and exact key-column sums, populated by the first `F_mono`
    /// request — all charged up front because they stay resident for
    /// the cache entry's lifetime), **and** the
    /// retained distance oracle ([`Distance::approx_bytes`]) — a
    /// table-backed oracle's pair map can dwarf the float matrix, and
    /// it stays alive as long as this prepared universe does.
    pub fn approx_bytes(&self) -> usize {
        let n = self.universe.len();
        let tuples: usize = self.universe.iter().map(tuple_approx_bytes).sum();
        self.matrix.approx_bytes() + n * Self::BYTES_PER_ITEM + tuples + self.dis.approx_bytes()
    }

    /// Bytes per item beside the matrix and the tuples: the relevance
    /// caches and the memoized preambles.
    const BYTES_PER_ITEM: usize = std::mem::size_of::<Ratio>()
        + 4 * std::mem::size_of::<f64>()
        + MonoSums::BYTES_PER_ITEM
        + std::mem::size_of::<PairSeed>();

    /// [`PreparedUniverse::approx_bytes`] of an exact-size `n`-item
    /// build, less its tuples and oracle.
    pub(crate) fn bytes_without_tuples(n: usize) -> usize {
        n * n * std::mem::size_of::<f64>() + n * Self::BYTES_PER_ITEM
    }

    /// Validates every cached float this universe will feed into the
    /// argmax rounds: all `n` relevance scores and all `n²` matrix
    /// entries must be finite. A user-supplied oracle that emits `NaN`
    /// or `±∞` would otherwise silently mis-select (every `NaN`
    /// comparison is `false`, so a poisoned candidate can masquerade as
    /// the maximum or hide from it); serving layers call this once at
    /// prepare time and refuse the universe with the typed diagnosis
    /// instead.
    ///
    /// `O(n)` on a universe as built: the relevance scan, then the
    /// verdict the matrix build recorded while each row was hot — the
    /// first non-finite pair `i < j`, which is the first bad cell of a
    /// row-major scan (the lower triangle is a bit-copy of the upper,
    /// the diagonal `0.0`). A delta drops that record
    /// ([`PreparedUniverse::insert_tuple`],
    /// [`PreparedUniverse::remove_tuple`] — they validate through
    /// [`PreparedUniverse::check_finite_item`]) and this goes back to
    /// the `O(n²)` scan, with the same answer either way.
    pub fn check_finite(&self) -> Result<(), ServeError> {
        if let Some(i) = self.rel.iter().position(|r| !r.is_finite()) {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        if let Some(verdict) = self.built_finite {
            return verdict;
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
    /// * GMM row bests — the new pair `(i, n)` is one more strict-`>`
    ///   iteration of each anchor's `gmm_row_best` scan;
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
        self.built_finite = None;
        if rel_new.is_finite() && col.iter().all(|d| d.is_finite()) {
            self.repair_ms_seed_insert(&col, rel_new);
            self.repair_mono_insert(&col, rel_new);
            self.mono_sums.repair_insert(&*self.dis, &tuple);
            self.repair_gmm_rows_insert(&col, rel_new);
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
        self.built_finite = None;
        self.invalidate_preambles();
        Ok(removed)
    }

    /// Drops every memoized solver preamble; the next request that
    /// needs one rebuilds it lazily from the current matrix.
    fn invalidate_preambles(&mut self) {
        self.mono_scores = OnceLock::new();
        self.mono_dsums = OnceLock::new();
        self.mono_sums.invalidate();
        self.gmm_rows = OnceLock::new();
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
        let (one_minus, lam) = self.weights;
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
        seed.push(PairSeed::NONE);
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
        let (one_minus, lam) = self.weights;
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

    /// Insert repair of the GMM row bests (when populated): the pair
    /// `(i, n)` is one more candidate for every anchor — a strict `>`
    /// update, identical to `gmm_row_best` reaching `j = n` as its
    /// final iteration (the old last anchor's `-∞` takes its first
    /// partner's value, finite by the caller's check). The new anchor
    /// `n` has no partner `j > n` yet.
    fn repair_gmm_rows_insert(&mut self, col: &[f64], rel_new: f64) {
        let (one_minus, lam) = self.weights;
        let rel = &self.rel;
        let Some(rows) = self.gmm_rows.get_mut() else {
            return;
        };
        for ((best, &ri), &din) in rows.iter_mut().zip(rel).zip(col) {
            let v = gmm_seed_f64(one_minus, lam, ri, rel_new, din);
            if v > *best {
                *best = v;
            }
        }
        rows.push(f64::NEG_INFINITY);
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
        let (one_minus, lam) = self.weights;
        let one_minus_exact = Ratio::ONE - self.lambda;
        // Split borrows up front: the closure below reads universe /
        // rel_exact / dis while `seed` mutably borrows only `gmm_seed`.
        let universe = &self.universe;
        let rel_exact = &self.rel_exact;
        let rel_f = &self.rel;
        let dis = &*self.dis;
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
            let v = gmm_seed_f64(one_minus, lam, ri, rel_new, d);
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
            if gmm_seed_f64(one_minus, lam, ri, rel_new, d) >= thr {
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

    /// Float mono scores of all items — k-independent, so computed once
    /// per prepared universe and memoized (warm-cache mono requests
    /// skip straight to the top-k cut). The per-row distance sums are
    /// memoized separately (`mono_dsums`) because they are what
    /// [`PreparedUniverse::insert_tuple`] repairs in `O(n)`; both the
    /// fresh path here and the repair path derive the score through the
    /// same `mono_score_from_dsum` expression, keeping them
    /// bit-identical.
    ///
    /// The sums are one linear fold per matrix row, `O(n²)` — unless
    /// the oracle is a key column whose exact sums all stay below 2^53:
    /// then the `O(n log n)` integer sums convert to the very same
    /// floats ([`KeySums::to_f64_exact`](crate::mono_exact::KeySums)).
    pub(super) fn mono_scores_f64(&self) -> &[f64] {
        self.mono_scores.get_or_init(|| {
            let n = self.n();
            let dsums = self.mono_dsums.get_or_init(|| {
                self.mono_sums
                    .get_or_build(|| self.dis.key_column(&self.universe))
                    .and_then(|sums| sums.to_f64_exact())
                    .unwrap_or_else(|| (0..n).map(|i| self.matrix.row(i).iter().sum()).collect())
            });
            let (one_minus, lam) = self.weights;
            self.rel
                .iter()
                .zip(dsums)
                .map(|(&r, &d)| mono_score_from_dsum(one_minus, lam, r, d, n))
                .collect()
        })
    }

    /// The memoized max-sum preamble: every anchor's best full-universe
    /// partner. Normally populated at construction (fused into the
    /// matrix build, where every row is scanned cache-hot); the
    /// `get_or_init` fallback (the first `F_MS` request after a removal
    /// dropped it) rebuilds it from the finished matrix with the same
    /// [`PairSeed::scan`]. Every `F_MS` request heapifies the seed in
    /// `O(n)`.
    pub(super) fn ms_seed(&self) -> &[PairSeed] {
        self.ms_seed.get_or_init(|| {
            self.preamble_builds.fetch_add(1, Ordering::Relaxed);
            let (one_minus, lam) = self.weights;
            (0..self.n())
                .map(|i| PairSeed::scan(i, &self.rel, self.matrix.row(i), one_minus, lam))
                .collect()
        })
    }

    /// The memoized GMM row bests. Like [`PreparedUniverse::ms_seed`]:
    /// populated at construction by the fused build, and rebuilt here —
    /// from the finished matrix, with the same [`gmm_row_best`], rows
    /// sharded over `threads` — by the first `F_MM` request after a
    /// removal dropped them.
    fn gmm_rows(&self, threads: usize) -> &[f64] {
        self.gmm_rows.get_or_init(|| {
            let n = self.n();
            let (one_minus, lam) = self.weights;
            let scan = |rows: std::ops::Range<usize>| -> Option<Vec<f64>> {
                Some(
                    rows.map(|i| gmm_row_best(i, &self.rel, self.matrix.row(i), one_minus, lam))
                        .collect(),
                )
            };
            let concat = |mut left: Vec<f64>, right: Vec<f64>| {
                left.extend(right);
                left
            };
            par_map_reduce(n, threads, n / 2 + 1, scan, concat).unwrap_or_default()
        })
    }

    /// The GMM seed pair `argmax (1−λ)·min(rel) + λ·dist`,
    /// lexicographically first on ties; `None` below two items.
    /// k-independent, so memoized: warm `F_MM` requests skip straight
    /// to the rounds.
    ///
    /// Resolved **lazily**, from the row bests the build left behind:
    /// the float argmax with its tie window runs over `n − 1` stored
    /// floats, only the tied anchors' rows are re-scanned for the tied
    /// pairs, and only those pairs reach the exact oracle. On an
    /// all-tied universe (the paper's reduction gadgets) that last step
    /// is `O(n²)` exact distances — paid when `F_MM` is first asked,
    /// never by a universe that is not asked.
    pub(super) fn gmm_seed(&self, threads: usize) -> Option<(usize, usize)> {
        *self.gmm_seed.get_or_init(|| self.best_seed_pair(threads))
    }

    fn best_seed_pair(&self, threads: usize) -> Option<(usize, usize)> {
        let n = self.n();
        if n < 2 {
            return None;
        }
        let rows = self.gmm_rows(threads);
        // n − 1 loads: cheaper inline than any spawn.
        let anchors = argmax_with_ties(n - 1, 1, 1, &|i| Some(rows[i]))?;
        let best = anchors
            .iter()
            .map(|t| t.score)
            .fold(f64::NEG_INFINITY, f64::max);
        let thr = tie_threshold(best);
        let (one_minus, lam) = self.weights;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for t in &anchors {
            let i = t.index;
            let (ri, row) = (self.rel[i], self.matrix.row(i));
            for (j, (&rj, &dij)) in self.rel.iter().zip(row).enumerate().skip(i + 1) {
                if gmm_seed_f64(one_minus, lam, ri, rj, dij) >= thr {
                    pairs.push((i, j));
                }
            }
        }
        let one_minus = Ratio::ONE - self.lambda;
        Some(resolve_pairs_exact(&mut pairs, |i, j| {
            one_minus * self.rel_exact[i].min(self.rel_exact[j]) + self.lambda * self.dist_of(i, j)
        }))
    }

    /// A private deep copy — matrix, caches, and every memoized
    /// preamble in whatever population state they are in. This is how
    /// the serving registry turns a *shared* warm entry into a mutable
    /// one when `Arc::try_unwrap` loses a race: fork, apply the delta
    /// to the copy, publish. The fork serves bit-identically to the
    /// original.
    pub fn fork(&self) -> PreparedUniverse {
        PreparedUniverse {
            universe: self.universe.clone(),
            rel_exact: self.rel_exact.clone(),
            rel: self.rel.clone(),
            dis: Arc::clone(&self.dis),
            lambda: self.lambda,
            weights: self.weights,
            matrix: self.matrix.clone(),
            built_finite: self.built_finite,
            mono_scores: self.mono_scores.clone(),
            mono_dsums: self.mono_dsums.clone(),
            mono_sums: self.mono_sums.clone(),
            gmm_rows: self.gmm_rows.clone(),
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

    /// The borrowed view every exact score of this universe goes
    /// through: `F(U)` for all three objectives and the per-item mono
    /// score ([`ExactView::value`], [`ExactView::mono_score_exact`]).
    pub(crate) fn exact(&self) -> ExactView<'_> {
        ExactView {
            lambda: self.lambda,
            rel: ExactRel::Ratios(&self.rel_exact),
            universe: ExactRows::Tuples(&self.universe),
            dis: &*self.dis,
            sums: &self.mono_sums,
        }
    }

    /// The memoized GMM seed pair, if populated (`Some(None)` = a
    /// sub-2-item universe with no pair to seed from).
    pub fn gmm_preamble(&self) -> Option<Option<(usize, usize)>> {
        self.gmm_seed.get().copied()
    }

    /// The memoized GMM row bests, if populated: anchor `i`'s largest
    /// float seed value `(1−λ)·min(r_i, r_j) + λ·d(i,j)` over `j > i`
    /// (`-∞` for the last item, which has no such partner). Built with
    /// the matrix, repaired by inserts, dropped by removals.
    pub fn gmm_rows_preamble(&self) -> Option<&[f64]> {
        self.gmm_rows.get().map(Vec::as_slice)
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

impl std::fmt::Debug for PreparedUniverse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedUniverse")
            .field("n", &self.n())
            .field("lambda", &self.lambda)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixtures::{line_universe, DIS, REL};
    use crate::engine::{Engine, EngineRequest};
    use crate::problem::ObjectiveKind;

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
        let mut m = DistanceMatrix::build(&u, &DIS, 1);
        // An exact build of 3 re-strides at the first push (to
        // 4 + pad(4) = 8), fills that headroom, then re-strides again.
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
        let mut m = DistanceMatrix::build(&u, &DIS, 1);
        for r in [4usize, 0, 6, 0] {
            m.swap_remove_item(r);
            u.swap_remove(r);
            assert_matrix_bits_equal(&m, &DistanceMatrix::build(&u, &DIS, 1));
        }
    }

    /// Drives all three objectives through a prepared universe so that
    /// every memoized preamble is populated.
    fn warm_all_preambles(p: &Arc<PreparedUniverse>) {
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
        let fresh = Engine::with_threads(u, &REL, Arc::new(DIS), lam, 1);
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
