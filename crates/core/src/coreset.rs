//! Sub-quadratic large-universe serving via GMM/k-center coresets.
//!
//! Every other serving path in this workspace — [`crate::engine`], the
//! registry in `divr-server`, even the exact solvers — materializes the
//! full `n × n` [`DistanceMatrix`](crate::engine::DistanceMatrix).
//! That is the right trade-off up to a few thousand tuples and a dead
//! end beyond: at `n = 50 000` the matrix alone is `n²·8 B ≈ 20 GB`.
//! The standard route around the wall (Zhang et al., *Diversification
//! on Big Data in Query Processing*; Capannini et al., *Efficient
//! Diversification of Web Search Results*) is **candidate-set
//! reduction**: pick `m ≪ n` representatives first, run the quadratic
//! heuristics on those, and re-score the answer against the full
//! universe. This module implements that route with the same
//! exactness discipline as the engine:
//!
//! * [`Coreset::select`] — a farthest-point (Gonzalez k-center /
//!   GMM-style) pass that picks `m` representatives in `O(n·m)`
//!   distance evaluations and **zero** `n × n` allocations.
//!   Half the budget goes to the top-relevance items (so the λ → 0
//!   regime, where only relevance matters, stays exact for
//!   `k ≤ ⌈m/2⌉`), half to farthest-point coverage (so the λ → 1
//!   regime keeps the classical k-center guarantees). Sweeps are
//!   float-scored with the engine's exact-`Ratio` tie fallback, so
//!   selection is deterministic down to equal-score ties; key-shaped
//!   oracles ([`Distance::key_column`]) are swept as one flat integer
//!   column, all others per pair across threads.
//! * [`PreparedCoreset`] — the owned, shareable prepared state: `O(n)`
//!   relevance caches, the coreset itself, and an `m × m`
//!   [`PreparedUniverse`] over the representatives. Its [`approx_bytes`](PreparedCoreset::approx_bytes)
//!   meters `m²`, not `n²` — the honest figure a byte-budgeted cache
//!   must charge.
//! * [`CoresetEngine`] — runs the existing max-sum / max-min / MMR /
//!   mono heuristics of [`Engine`] on the coreset's matrix, maps the
//!   chosen representatives back to full-universe indices, and
//!   **re-scores the answer exactly against the full universe**: the
//!   returned `Ratio` is the true objective value of the returned set
//!   under full-universe semantics (for `F_mono` that means the
//!   diversity term averages over all `n` items, not the coreset —
//!   `O(k)` reads of memoized exact sums over a key-column oracle,
//!   `O(n·k)` oracle calls otherwise).
//!   An optional refine step ([`CoresetConfig::refine_rounds`])
//!   additionally hill-climbs the chosen set over the *full* universe
//!   with `O(n·k)` distance evaluations per round.
//!
//! ## Exactness and quality contract
//!
//! With `budget ≥ n` the coreset is the whole universe in its original
//! order, so [`CoresetEngine`] is **identical** to [`Engine`] — same
//! `Ratio` values, same index sets (`tests/coreset_matches_engine.rs`
//! property-tests this). Below that, answers are feasible sets of the
//! full problem whose exact values the differential suite bounds
//! against the full engine's within a measured factor on random
//! integer universes (see `MEASURED_FACTOR` in the test).
//!
//! ```
//! use divr_core::coreset::{CoresetConfig, CoresetEngine};
//! use divr_core::engine::EngineRequest;
//! use divr_core::prelude::*;
//! use divr_relquery::Tuple;
//! use std::sync::Arc;
//!
//! // 10 000 tuples: the full matrix would be 800 MB; the coreset
//! // path touches O(n·m) distances and allocates m² = 64² floats.
//! let universe: Vec<Tuple> = (0..10_000).map(|i| Tuple::ints([i, i % 97])).collect();
//! let engine = CoresetEngine::new(
//!     universe,
//!     &AttributeRelevance { attr: 1, default: Ratio::ZERO },
//!     Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
//!     Ratio::new(1, 2),
//!     &CoresetConfig::with_budget(64),
//! );
//! let (value, set) = engine
//!     .try_serve(EngineRequest { kind: ObjectiveKind::MaxMin, k: 8 })
//!     .unwrap();
//! assert_eq!(set.len(), 8);
//! assert!(value > Ratio::ZERO);
//! assert!(set.iter().all(|&i| i < 10_000)); // full-universe indices
//! ```

use crate::avail::GenMarks;
use crate::deadline::Deadline;
use crate::distance::{key_gap_f64, Distance};
use crate::engine::{
    argmax_with_ties, default_threads, resolve_ties_exact, score_relevance, tie_threshold,
    DistOracle, Engine, EngineRequest, PreparedUniverse, ServeError, SolveScratch, TieCandidate,
    TieChunk,
};
use crate::mono_exact::{MonoExact, MonoSums};
use crate::problem::ObjectiveKind;
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::sync::Arc;

/// Universe size above which [`crate::pipeline::QueryDiversification`]
/// auto-escalates from the full-matrix engine to the coreset path: at
/// this `n` the flat `f64` matrix costs `n²·8 B = 128 MiB` and its
/// build cost starts to dominate every request.
pub const CORESET_AUTO_THRESHOLD: usize = 4096;

/// Sizing and behaviour knobs for the coreset path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoresetConfig {
    /// Number of representatives `m` to select (clamped to `n`). Also
    /// the largest servable `k`: requests with `k > m` (but `k ≤ n`)
    /// fail with [`ServeError::ExceedsCoresetBudget`] — size the budget
    /// for the largest `k` you serve, e.g. via
    /// [`CoresetConfig::recommended`].
    pub budget: usize,
    /// Full-universe single-swap refinement rounds applied to each
    /// `F_MS` / `F_MM` answer (0 = pure coreset answer, re-scored
    /// exactly). Each round costs `O(n·k)` distance evaluations and can
    /// only improve the exact objective value. `F_mono` ignores this
    /// (its per-item score is already a full-universe quantity that a
    /// swap scan cannot evaluate in o(n) per candidate).
    pub refine_rounds: usize,
    /// Worker threads for selection scans and the `m × m` matrix build.
    pub threads: usize,
}

impl CoresetConfig {
    /// A config with the given representative budget, no refinement,
    /// and all available cores.
    pub fn with_budget(budget: usize) -> Self {
        CoresetConfig {
            budget: budget.max(1),
            refine_rounds: 0,
            threads: default_threads(),
        }
    }

    /// The default sizing for requests up to result size `k`:
    /// `max(64, 16·k)` representatives — large enough that the
    /// relevance half covers `8·k` top items and the coverage half
    /// leaves GMM real room, small enough that the `m × m` matrix
    /// stays a few megabytes even for generous `k`.
    pub fn recommended(k: usize) -> Self {
        Self::with_budget(64usize.max(16 * k.max(1)))
    }

    /// Builder-style refinement-round override.
    pub fn refine(mut self, rounds: usize) -> Self {
        self.refine_rounds = rounds;
        self
    }

    /// Builder-style thread override (1 = fully sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for CoresetConfig {
    fn default() -> Self {
        CoresetConfig::recommended(16)
    }
}

/// The selected representatives of one universe, plus the coverage
/// structure the selection pass produces for free.
#[derive(Clone, Debug)]
pub struct Coreset {
    /// Selected full-universe indices, ascending. `indices.len() = m`.
    indices: Vec<usize>,
    /// For each universe item, the position in [`Coreset::indices`] of
    /// its nearest representative (by the builder's float passes).
    assignment: Vec<usize>,
    /// For each universe item, the float distance to its assigned
    /// representative — retained (not just its max) because the
    /// streaming maintenance path ([`PreparedCoreset::insert_tuple`])
    /// needs per-item coverage to decide absorb-vs-displace in `O(n)`.
    nearest: Vec<f64>,
    /// `max_i δ_dis(i, rep(i))` in float — the k-center covering radius
    /// of the selection, a direct quality diagnostic (0 when `m = n`).
    covering_radius: f64,
}

/// One coverage sweep over items `base..base + nearest.len()`: folds the
/// representative at position `pos` into their coverage arrays
/// (`dist_to_rep(i)` is item `i`'s float distance to it) and, riding the
/// same pass, collects the farthest still-unselected items — the next
/// Gonzalez round's argmax with its near-ties, the same candidate set
/// [`argmax_with_ties`] would report over the updated `nearest`.
///
/// The loop is the selection's whole `O(n·m)` cost, so it keeps the
/// tie threshold in a register (refreshed only when the maximum moves)
/// and consults `selected` only for items already inside the window.
fn cover_chunk(
    base: usize,
    nearest: &mut [f64],
    assignment: &mut [usize],
    pos: usize,
    selected: &GenMarks,
    dist_to_rep: impl Fn(usize) -> f64,
) -> TieChunk {
    let mut ties: Vec<TieCandidate> = Vec::new();
    let mut best = f64::NEG_INFINITY;
    let mut thr = f64::NEG_INFINITY;
    for (off, (slot, asg)) in nearest.iter_mut().zip(assignment.iter_mut()).enumerate() {
        let i = base + off;
        let d = dist_to_rep(i);
        if d < *slot {
            *slot = d;
            *asg = pos;
        }
        let v = *slot;
        if v >= thr && !selected.is_marked(i) {
            if v > best {
                best = v;
                thr = tie_threshold(best);
            }
            if v >= thr {
                ties.push(TieCandidate { index: i, score: v });
            }
        }
    }
    // Candidates admitted under an earlier, lower threshold.
    ties.retain(|t| t.score >= thr);
    TieChunk { best, ties }
}

/// [`cover_chunk`] over the whole universe, sharded across `threads`
/// workers (disjoint `&mut` chunks of the two coverage arrays) when the
/// universe is large enough for that to pay; the shards' candidates are
/// merged in index order, so the result does not depend on `threads`.
fn cover(
    threads: usize,
    nearest: &mut [f64],
    assignment: &mut [usize],
    pos: usize,
    selected: &GenMarks,
    dist_to_rep: impl Fn(usize) -> f64 + Sync,
) -> Vec<TieCandidate> {
    let n = nearest.len();
    if threads <= 1 || n < 4096 {
        return cover_chunk(0, nearest, assignment, pos, selected, dist_to_rep).ties;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let dist_to_rep = &dist_to_rep;
        // Spawn every shard before joining any.
        let shards: Vec<_> = nearest
            .chunks_mut(chunk)
            .zip(assignment.chunks_mut(chunk))
            .enumerate()
            .map(|(ci, (near_c, asg_c))| {
                scope.spawn(move || {
                    cover_chunk(ci * chunk, near_c, asg_c, pos, selected, dist_to_rep)
                })
            })
            .collect();
        shards
            .into_iter()
            .map(|shard| shard.join().expect("coverage worker panicked"))
            .reduce(TieChunk::merge)
            .map(|merged| merged.ties)
            .unwrap_or_default()
    })
}

impl Coreset {
    /// Selects `min(budget, n)` representatives in `O(n·m)` distance
    /// evaluations without materializing any `n × n` structure.
    ///
    /// Two phases, both deterministic:
    ///
    /// 1. **Relevance guard** — the top `⌈m/2⌉` items by exact
    ///    relevance (ties to the lowest index), so relevance-dominated
    ///    regimes keep their winners in the coreset.
    /// 2. **Farthest-point coverage** — repeatedly add the item whose
    ///    float distance to the selected set is largest (the Gonzalez
    ///    k-center / GMM rule); near-ties within the engine's float
    ///    window are re-scored through the exact `Ratio` oracle and
    ///    broken toward the lowest index, exactly like
    ///    [`crate::engine`]'s argmax.
    ///
    /// Each representative costs one `O(n)` sweep that updates every
    /// item's coverage and finds the next farthest candidates in the
    /// same pass. An oracle that hands out a
    /// [`Distance::key_column`] is swept as a flat integer column,
    /// inline; any other oracle is called per pair, sharded across
    /// `threads` once `n ≥ 4096`. The selection is identical either way
    /// and for every `threads`.
    ///
    /// `rel_exact[i]` must equal `δ_rel(universe[i])`. Panics if the
    /// oracle emits non-comparable (non-finite) distances; untrusted
    /// oracles go through [`Coreset::try_select_deadline`].
    pub fn select(
        universe: &[Tuple],
        rel_exact: &[Ratio],
        dis: &(dyn Distance + Sync),
        budget: usize,
        threads: usize,
    ) -> Coreset {
        Self::try_select_deadline(universe, rel_exact, dis, budget, threads, Deadline::none())
            .expect("unbounded deadline, finite distances")
    }

    /// [`Coreset::select`] under a cooperative [`Deadline`], checked
    /// between phase-1 coverage passes and between Gonzalez
    /// farthest-point iterations — each an `O(n)` scan, so an
    /// abandoned selection overshoots its deadline by at most one
    /// pass. Returns `Err(ServeError::DeadlineExceeded)` on
    /// abandonment, and `Err(ServeError::NonFiniteScore)` when the
    /// coverage distances stop ordering; partial state is dropped.
    pub fn try_select_deadline(
        universe: &[Tuple],
        rel_exact: &[Ratio],
        dis: &(dyn Distance + Sync),
        budget: usize,
        threads: usize,
        deadline: Deadline,
    ) -> Result<Coreset, ServeError> {
        let n = universe.len();
        assert_eq!(rel_exact.len(), n, "one relevance score per item");
        let threads = threads.max(1);
        let m = budget.max(1).min(n);
        if m == n {
            // Identity coreset: every item represents itself.
            return Ok(Coreset {
                indices: (0..n).collect(),
                assignment: (0..n).collect(),
                nearest: vec![0.0; n],
                covering_radius: 0.0,
            });
        }

        // Phase 1: top-⌈m/2⌉ by exact relevance, lowest index on ties —
        // a total order, so partitioning around the quota-th item and
        // sorting only the prefix yields the prefix of the full sort.
        let rel_quota = m.div_ceil(2);
        let by_rel_desc = |a: &usize, b: &usize| rel_exact[*b].cmp(&rel_exact[*a]).then(a.cmp(b));
        let mut by_rel: Vec<usize> = (0..n).collect();
        by_rel.select_nth_unstable_by(rel_quota - 1, by_rel_desc);
        by_rel.truncate(rel_quota);
        by_rel.sort_unstable_by(by_rel_desc);
        let mut selected = GenMarks::new();
        selected.reset(n);
        let mut reps = by_rel;
        reps.reserve_exact(m - rel_quota);
        for &i in &reps {
            selected.mark(i);
        }

        // Coverage state: nearest[i] = float distance from item i to the
        // selected set, assignment[i] = position (into `reps`) of the
        // representative achieving it. One sweep folds one
        // representative in and reports the farthest unselected items
        // as of that sweep; over a key column the sweep is a flat
        // inline loop (spawning per round costs more than it saves),
        // otherwise `threads` shard the per-pair oracle calls.
        let mut nearest = vec![f64::INFINITY; n];
        let mut assignment = vec![0usize; n];
        let keys = dis.key_column(universe);
        let mut sweep = |pos: usize, rep: usize, selected: &GenMarks| match &keys {
            Some(keys) => {
                let rep_key = keys[rep];
                let to_rep = |i: usize| key_gap_f64(keys[i], rep_key);
                cover_chunk(0, &mut nearest, &mut assignment, pos, selected, to_rep).ties
            }
            None => {
                let rep_tuple = &universe[rep];
                let to_rep = |i: usize| dis.dist_f64(&universe[i], rep_tuple);
                cover(
                    threads,
                    &mut nearest,
                    &mut assignment,
                    pos,
                    selected,
                    to_rep,
                )
            }
        };
        let mut farthest = Vec::new();
        for (pos, &r) in reps.iter().enumerate() {
            // Deadline checkpoint: one coverage pass is O(n).
            deadline.check()?;
            farthest = sweep(pos, r, &selected);
        }

        // Phase 2: farthest-point rounds, each resolved from the
        // candidates the previous sweep left behind.
        while reps.len() < m {
            // Deadline checkpoint: one Gonzalez iteration is O(n).
            deadline.check()?;
            if farthest.is_empty() {
                // m < n leaves unselected candidates, so an empty argmax
                // means their coverage distances do not order: the
                // oracle emitted a non-finite float (full-universe
                // indices of one offending item and its representative).
                let i = (0..n)
                    .find(|&i| !selected.is_marked(i) && !nearest[i].is_finite())
                    .unwrap_or(0);
                return Err(ServeError::NonFiniteScore {
                    source: crate::engine::ScoreSource::Distance,
                    i,
                    j: reps[assignment[i]],
                });
            }
            let exact_nearest = |i: usize| -> Ratio {
                reps.iter()
                    .map(|&r| dis.dist(&universe[i], &universe[r]))
                    .min()
                    .expect("reps is non-empty")
            };
            let winner = resolve_ties_exact(&farthest, exact_nearest);
            selected.mark(winner);
            farthest = sweep(reps.len(), winner, &selected);
            reps.push(winner);
        }
        // Canonical order: ascending indices, so the coreset
        // sub-universe preserves the original tuple order (and the
        // engine's lowest-index tie-breaks map monotonically back).
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&p| reps[p]);
        let mut new_pos = vec![0usize; m];
        for (rank, &p) in order.iter().enumerate() {
            new_pos[p] = rank;
        }
        let indices: Vec<usize> = order.iter().map(|&p| reps[p]).collect();
        for asg in &mut assignment {
            *asg = new_pos[*asg];
        }
        let covering_radius = nearest.iter().fold(0.0f64, |a, &b| a.max(b));
        Ok(Coreset {
            indices,
            assignment,
            nearest,
            covering_radius,
        })
    }

    /// Number of representatives `m`.
    pub fn m(&self) -> usize {
        self.indices.len()
    }

    /// The selected full-universe indices, ascending.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Position in [`Coreset::indices`] of item `i`'s nearest
    /// representative.
    pub fn rep_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// Float distance from item `i` to its nearest representative
    /// (`0.0` for the representatives themselves).
    pub fn rep_distance(&self, i: usize) -> f64 {
        self.nearest[i]
    }

    /// The float k-center covering radius of the selection.
    pub fn covering_radius(&self) -> f64 {
        self.covering_radius
    }
}

/// The owned, shareable prepared state of the coreset serving path:
/// full-universe tuples and `O(n)` relevance caches, the selected
/// [`Coreset`], and an `m × m` [`PreparedUniverse`] over the
/// representatives. This is the unit a byte-budgeted cache stores for
/// large universes — [`PreparedCoreset::approx_bytes`] charges `m²`
/// floats plus `O(n)` bookkeeping, never `n²`.
pub struct PreparedCoreset {
    universe: Vec<Tuple>,
    dis: Arc<dyn Distance + Send + Sync>,
    rel_exact: Vec<Ratio>,
    rel_f: Vec<f64>,
    lambda: Ratio,
    config: CoresetConfig,
    coreset: Coreset,
    sub: Arc<PreparedUniverse<'static>>,
    // Exact full-universe distance sums for the `F_mono` re-score, when
    // the oracle is a key column: built by the first mono request,
    // repaired per insert, dropped by a removal.
    mono_sums: MonoSums,
}

/// A prepared coreset shareable across threads and cache entries.
pub type SharedCoreset = Arc<PreparedCoreset>;

impl PreparedCoreset {
    /// [`PreparedCoreset::try_build_shared_deadline`] with
    /// [`Deadline::none`]: the infallible form for callers that prepare
    /// outside any request, with oracles they trust to be finite.
    pub fn build_shared(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
    ) -> PreparedCoreset {
        Self::try_build_shared_deadline(universe, rel, dis, lambda, config, Deadline::none())
            .expect("unbounded deadline, finite distances")
    }

    /// Prepares the coreset path over a materialized universe:
    /// evaluates relevance once (`O(n)`), selects the coreset
    /// (`O(n·m)` distances), and builds the `m × m` matrix over the
    /// representatives. Never allocates `n × n`.
    ///
    /// The relevance pass, the selection (checked per Gonzalez
    /// iteration), and the `m × m` sub-universe matrix build (checked
    /// per row) all poll `deadline`, so an expensive prepare is
    /// abandoned with [`ServeError::DeadlineExceeded`] within one
    /// `O(n)` slice instead of running to completion. A refused prepare
    /// leaves nothing behind.
    ///
    /// Panics if `λ ∉ [0, 1]`.
    pub fn try_build_shared_deadline(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
        deadline: Deadline,
    ) -> Result<PreparedCoreset, ServeError> {
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        let threads = config.threads.max(1);
        let rel_exact = score_relevance(&universe, rel, deadline)?;
        let rel_f: Vec<f64> = rel_exact.iter().map(Ratio::to_f64).collect();
        let coreset = Coreset::try_select_deadline(
            &universe,
            &rel_exact,
            &*dis,
            config.budget,
            threads,
            deadline,
        )?;
        let sub = Self::try_build_sub(&universe, &rel_exact, &coreset, &dis, lambda, threads, deadline)?;
        Ok(PreparedCoreset {
            universe,
            dis,
            rel_exact,
            rel_f,
            lambda,
            config: *config,
            coreset,
            sub,
            mono_sums: MonoSums::default(),
        })
    }

    /// The `m × m` prepared universe over `coreset`'s representatives,
    /// reusing the relevance scores already evaluated for the full
    /// universe (identical values, and no second pass over a possibly
    /// expensive oracle).
    fn try_build_sub(
        universe: &[Tuple],
        rel_exact: &[Ratio],
        coreset: &Coreset,
        dis: &Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        threads: usize,
        deadline: Deadline,
    ) -> Result<Arc<PreparedUniverse<'static>>, ServeError> {
        let indices = coreset.indices();
        Ok(Arc::new(PreparedUniverse::try_from_scores(
            indices.iter().map(|&i| universe[i].clone()).collect(),
            indices.iter().map(|&i| rel_exact[i]).collect(),
            DistOracle::Shared(dis.clone()),
            lambda,
            threads,
            deadline,
        )?))
    }

    /// Prepares the coreset path from a **tuple stream** without ever
    /// materializing `Q(D)` as a separate vector: the first `budget`
    /// tuples seed an identity coreset via
    /// [`PreparedCoreset::try_build_shared_deadline`] (`m == n`, so
    /// selection over the seed is trivially exact), and every further
    /// tuple flows through the [`PreparedCoreset::insert_tuple`]
    /// incremental path. The only `O(n)` storage is the prepared
    /// state's own universe — the copy serving needs anyway for exact
    /// re-scoring.
    ///
    /// Deterministic in the stream order: two calls over the same
    /// sequence produce identical prepared state, which is what lets a
    /// query front door that streams evaluator output be differential-
    /// tested against by-hand materialization of the same sequence.
    ///
    /// `deadline` is checked per streamed insert (each insert is at
    /// most `O(n)` work); abandonment returns
    /// [`ServeError::DeadlineExceeded`] and drops the partial state.
    pub fn try_build_streaming_deadline(
        tuples: impl IntoIterator<Item = Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
        deadline: Deadline,
    ) -> Result<PreparedCoreset, ServeError> {
        let mut it = tuples.into_iter();
        let seed: Vec<Tuple> = it.by_ref().take(config.budget.max(1)).collect();
        let mut prepared =
            Self::try_build_shared_deadline(seed, rel, dis, lambda, config, deadline)?;
        for t in it {
            deadline.check()?;
            let r = rel.rel(&t);
            prepared.insert_tuple(t, r);
        }
        Ok(prepared)
    }

    /// Full-universe size `n`.
    pub fn n(&self) -> usize {
        self.universe.len()
    }

    /// Coreset size `m`.
    pub fn m(&self) -> usize {
        self.coreset.m()
    }

    /// The materialized full universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// The trade-off parameter λ.
    pub fn lambda(&self) -> Ratio {
        self.lambda
    }

    /// The selected coreset.
    pub fn coreset(&self) -> &Coreset {
        &self.coreset
    }

    /// The configuration this coreset was prepared with.
    pub fn config(&self) -> &CoresetConfig {
        &self.config
    }

    /// The `m × m` prepared universe over the representatives.
    pub fn sub(&self) -> &Arc<PreparedUniverse<'static>> {
        &self.sub
    }

    /// Exact relevance of full-universe item `i`.
    pub fn rel_of(&self, i: usize) -> Ratio {
        self.rel_exact[i]
    }

    /// Exact distance between full-universe items `i` and `j`.
    pub fn dist_of(&self, i: usize, j: usize) -> Ratio {
        self.dis.dist(&self.universe[i], &self.universe[j])
    }

    /// Appends `tuple` (with its already-evaluated exact relevance) and
    /// maintains the coreset **incrementally**, reusing the Gonzalez
    /// k-center structure — a new point either fits the current coverage
    /// or earns a representative slot:
    ///
    /// * **budget open** (`m < budget`): the new item becomes a
    ///   representative outright — the `m × m` sub-universe grows by one
    ///   row via [`PreparedUniverse::insert_tuple`] (`O(m)` oracle
    ///   calls), and one `O(n)` coverage pass re-homes any item now
    ///   closer to it.
    /// * **inside coverage** (`min_p δ(x, rep_p) ≤ covering_radius`):
    ///   the item is absorbed — assigned to its nearest representative,
    ///   `O(m)` oracle calls, sub-universe untouched.
    /// * **outside coverage**: the item *displaces* the representative
    ///   nearest to it (swap-remove on the sub-universe, then an `O(n)`
    ///   re-homing pass) — the classical "far point becomes a center"
    ///   rule, keeping the representative set spread out.
    ///
    /// Unlike the full-matrix engine's deltas this is **not**
    /// bit-identical to a fresh [`Coreset::select`] over the grown
    /// universe (selection order is history-dependent, and the
    /// ascending-indices invariant is relaxed once a displacement
    /// occurs); the contract is the measured quality-factor bound that
    /// `tests/coreset_matches_engine.rs` pins for insertion streams.
    pub fn insert_tuple(&mut self, tuple: Tuple, rel: Ratio) {
        let x = self.universe.len();
        let m = self.coreset.m();
        self.mono_sums.repair_insert(&*self.dis, &tuple);
        if m < self.config.budget.max(1) || m == 0 {
            // Budget open: x becomes representative m.
            self.sub_mut().insert_tuple(tuple.clone(), rel);
            self.coreset.indices.push(x);
            self.coreset.assignment.push(m);
            self.coreset.nearest.push(0.0);
            for i in 0..x {
                let d = self.dis.dist_f64(&self.universe[i], &tuple);
                if d < self.coreset.nearest[i] {
                    self.coreset.nearest[i] = d;
                    self.coreset.assignment[i] = m;
                }
            }
        } else {
            // Distances from the new item to every representative.
            let (p_near, d_min) = self
                .coreset
                .indices
                .iter()
                .map(|&r| self.dis.dist_f64(&self.universe[r], &tuple))
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("m ≥ 1 representatives");
            if d_min <= self.coreset.covering_radius {
                // Inside coverage: absorb under the nearest rep.
                self.coreset.assignment.push(p_near);
                self.coreset.nearest.push(d_min);
            } else {
                // Outside coverage: x displaces its nearest rep. The
                // sub-universe swap-removes position p_near (the last
                // rep moves there) and appends x at position m − 1.
                let sub = self.sub_mut();
                sub.remove_tuple(p_near).expect("p_near < m");
                sub.insert_tuple(tuple.clone(), rel);
                self.coreset.indices.swap_remove(p_near);
                self.coreset.indices.push(x);
                let last = m - 1;
                for i in 0..x {
                    // Mirror the position swap, re-home the orphans of
                    // the displaced rep to x, and let anyone closer to
                    // x move over.
                    let d = self.dis.dist_f64(&self.universe[i], &tuple);
                    let asg = self.coreset.assignment[i];
                    if asg == last && p_near != last {
                        self.coreset.assignment[i] = p_near;
                    } else if asg == p_near {
                        self.coreset.assignment[i] = last;
                        self.coreset.nearest[i] = d;
                    }
                    if d < self.coreset.nearest[i] {
                        self.coreset.nearest[i] = d;
                        self.coreset.assignment[i] = last;
                    }
                }
                self.coreset.assignment.push(last);
                self.coreset.nearest.push(0.0);
            }
        }
        self.coreset.covering_radius = self
            .coreset
            .nearest
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        self.universe.push(tuple);
        self.rel_exact.push(rel);
        self.rel_f.push(rel.to_f64());
    }

    /// Swap-removes the tuple at `index` (matching
    /// [`PreparedUniverse::remove_tuple`]'s index semantics) and
    /// **re-selects** the coreset from scratch over the shrunk
    /// universe: a removal can delete a representative or strand a
    /// covered cluster, and there is no `o(n·m)` repair that preserves
    /// the selection's quality diagnostics — re-selection costs the
    /// same `O(n·m)` as the original prepare while the `O(n)` relevance
    /// caches carry over. Returns the removed tuple.
    pub fn remove_tuple(&mut self, index: usize) -> Result<Tuple, crate::engine::DeltaError> {
        let n = self.universe.len();
        if index >= n {
            return Err(crate::engine::DeltaError::IndexOutOfRange { index, n });
        }
        let removed = self.universe.swap_remove(index);
        self.rel_exact.swap_remove(index);
        self.rel_f.swap_remove(index);
        self.mono_sums.invalidate();
        let threads = self.config.threads.max(1);
        self.coreset = Coreset::select(
            &self.universe,
            &self.rel_exact,
            &*self.dis,
            self.config.budget,
            threads,
        );
        self.sub = Self::try_build_sub(
            &self.universe,
            &self.rel_exact,
            &self.coreset,
            &self.dis,
            self.lambda,
            threads,
            Deadline::none(),
        )
        .expect("unbounded deadline cannot be exceeded");
        Ok(removed)
    }

    /// Mutable access to the sub-universe, copy-on-write: if the `Arc`
    /// is shared (an engine or cache still holds the pre-delta state),
    /// the prepared sub-universe is forked — preambles included — so
    /// existing readers keep serving the old version untouched.
    fn sub_mut(&mut self) -> &mut PreparedUniverse<'static> {
        if Arc::get_mut(&mut self.sub).is_none() {
            self.sub = Arc::new(self.sub.fork());
        }
        Arc::get_mut(&mut self.sub).expect("sole owner after fork")
    }

    /// Approximate heap footprint in bytes — what a byte-budgeted cache
    /// charges for this entry: the `m²` sub-matrix and its coreset
    /// tuples (via the sub-universe's own accounting, which also counts
    /// the retained oracle once), plus the full universe's tuples,
    /// `O(n)` relevance caches, the coverage assignment with its
    /// per-item distances, and the exact mono distance sums (populated
    /// by the first `F_mono` request, charged up front).
    pub fn approx_bytes(&self) -> usize {
        let n = self.universe.len();
        let tuples: usize = self
            .universe
            .iter()
            .map(crate::engine::tuple_approx_bytes)
            .sum();
        self.sub.approx_bytes()
            + tuples
            + n * (std::mem::size_of::<Ratio>()
                + 2 * std::mem::size_of::<f64>()
                + std::mem::size_of::<usize>()
                + MonoSums::BYTES_PER_ITEM)
            + self.coreset.indices.len() * std::mem::size_of::<usize>()
    }

    /// Validates every cached float the coreset serving path consumes:
    /// the `O(n)` relevance cache and the `m × m` representative matrix
    /// (via [`PreparedUniverse::check_finite`]). Serving layers call
    /// this at prepare time and refuse the universe with the typed
    /// [`ServeError::NonFiniteScore`] diagnosis instead of letting
    /// `NaN`/`±∞` scores silently mis-select in the argmax rounds.
    /// Relevance indices in the diagnosis are full-universe indices;
    /// distance indices refer to the representative sub-universe.
    pub fn check_finite(&self) -> Result<(), crate::engine::ServeError> {
        if let Some(i) = self.rel_f.iter().position(|r| !r.is_finite()) {
            return Err(crate::engine::ServeError::NonFiniteScore {
                source: crate::engine::ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        self.sub.check_finite()
    }

    /// The memoized exact full-universe distance sums
    /// `Σ_j δ_dis(t_i, t_j)`, if populated (`Some(None)` = the oracle
    /// offers no usable [`Distance::key_column`]).
    pub fn mono_sums_preamble(&self) -> Option<Option<&[i128]>> {
        self.mono_sums.peek()
    }

    /// [`PreparedCoreset::check_finite`] restricted to what
    /// [`PreparedCoreset::insert_tuple`] cached for full-universe item
    /// `i`: its relevance score and, if it holds a representative slot,
    /// its row of the `m × m` matrix. `O(m)`.
    pub fn check_finite_item(&self, i: usize) -> Result<(), ServeError> {
        if !self.rel_f[i].is_finite() {
            return Err(ServeError::NonFiniteScore {
                source: crate::engine::ScoreSource::Relevance,
                i,
                j: i,
            });
        }
        match self.coreset.indices.iter().position(|&r| r == i) {
            Some(pos) => self.sub.check_finite_item(pos),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for PreparedCoreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedCoreset")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("lambda", &self.lambda)
            .field("covering_radius", &self.coreset.covering_radius)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

/// Serves diversification requests against a [`PreparedCoreset`]:
/// heuristics run on the `m × m` matrix, answers come back as
/// full-universe index sets with **exact full-universe objective
/// values**. See the module docs for the quality contract.
pub struct CoresetEngine {
    prepared: Arc<PreparedCoreset>,
    threads: usize,
    deadline: Deadline,
}

impl CoresetEngine {
    /// Prepares a coreset engine in one go (see
    /// [`PreparedCoreset::build_shared`] for the cost breakdown).
    pub fn new(
        universe: Vec<Tuple>,
        rel: &dyn Relevance,
        dis: Arc<dyn Distance + Send + Sync>,
        lambda: Ratio,
        config: &CoresetConfig,
    ) -> Self {
        let threads = config.threads.max(1);
        Self::from_prepared(
            Arc::new(PreparedCoreset::build_shared(universe, rel, dis, lambda, config)),
            threads,
        )
    }

    /// Wraps already-prepared (possibly cached and shared) coreset
    /// state. Costs one `Arc` clone — the cache-hit path.
    pub fn from_prepared(prepared: Arc<PreparedCoreset>, threads: usize) -> Self {
        CoresetEngine {
            prepared,
            threads: threads.max(1),
            deadline: Deadline::none(),
        }
    }

    /// Attaches a cooperative [`Deadline`], checked between the
    /// coreset-local solver rounds and between refinement rounds (same
    /// contract as [`Engine::with_deadline`]): a tripped deadline fails
    /// [`CoresetEngine::serve_into`] with
    /// [`ServeError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The shared prepared state this engine serves from.
    pub fn prepared(&self) -> &Arc<PreparedCoreset> {
        &self.prepared
    }

    /// Full-universe size `n`.
    pub fn n(&self) -> usize {
        self.prepared.n()
    }

    /// Coreset size `m` — also the largest servable `k`.
    pub fn m(&self) -> usize {
        self.prepared.m()
    }

    /// Materializes a candidate set's tuples (full-universe indices).
    pub fn tuples_of(&self, subset: &[usize]) -> Vec<Tuple> {
        subset
            .iter()
            .map(|&i| self.prepared.universe[i].clone())
            .collect()
    }

    /// Exact objective value of a full-universe index set under
    /// **full-universe semantics**: `F_MS`/`F_MM` read the set's own
    /// relevances and pairwise distances through the exact oracle;
    /// `F_mono`'s diversity term averages each member's distance over
    /// all `n` universe items (Section 3.2) — `O(k)` from the memoized
    /// key-column sums (`O(n log n)` once), `O(n·k)` exact distance
    /// evaluations over an oracle without a column: the price of an
    /// honest mono score without the `n × n` matrix.
    pub fn objective_exact_full(&self, kind: ObjectiveKind, subset: &[usize]) -> Ratio {
        self.objective_exact_full_by(kind, subset, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
    }

    /// [`CoresetEngine::objective_exact_full`] under a deadline, polled
    /// before each `O(n)` per-pair mono sweep.
    fn objective_exact_full_by(
        &self,
        kind: ObjectiveKind,
        subset: &[usize],
        deadline: Deadline,
    ) -> Result<Ratio, ServeError> {
        let p = &*self.prepared;
        Ok(match kind {
            ObjectiveKind::MaxSum => crate::problem::f_ms_from(
                subset.len(),
                p.lambda,
                |a| p.rel_exact[subset[a]],
                |a, b| p.dist_of(subset[a], subset[b]),
            ),
            ObjectiveKind::MaxMin => crate::problem::f_mm_from(
                subset.len(),
                p.lambda,
                |a| p.rel_exact[subset[a]],
                |a, b| p.dist_of(subset[a], subset[b]),
            ),
            ObjectiveKind::Mono => {
                let exact = MonoExact {
                    lambda: p.lambda,
                    rel_exact: &p.rel_exact,
                    universe: &p.universe,
                    dis: &*p.dis,
                    sums: &p.mono_sums,
                };
                exact.value(subset, deadline)?
            }
        })
    }

    /// [`CoresetEngine::serve_into`] with freshly allocated scratch and
    /// output buffers: the exact full-universe objective value with the
    /// chosen full-universe indices.
    pub fn try_serve(&self, request: EngineRequest) -> Result<(Ratio, Vec<usize>), ServeError> {
        let mut out = Vec::new();
        let value = self.serve_into(request, &mut SolveScratch::new(), &mut out)?;
        Ok((value, out))
    }

    /// Serves one request: solve on the coreset matrix (in the
    /// scratch, shared with the full engine's solvers), map the
    /// representatives back to full-universe indices **in place** in
    /// `out`, optionally refine, and return the exact full-universe
    /// objective value.
    ///
    /// This is the single place a coreset request is classified, from
    /// the prepared dimensions before any clock is read: `k > n` is
    /// [`ServeError::InfeasibleK`] (infeasible anywhere), `n ≥ k > m`
    /// is [`ServeError::ExceedsCoresetBudget`] (servable after
    /// re-preparing with a larger budget — size it via
    /// [`CoresetConfig::recommended`]); only a feasible solve abandoned
    /// at a [`Deadline`] checkpoint is [`ServeError::DeadlineExceeded`].
    ///
    /// Allocation-free in steady state. Refinement rounds (if
    /// configured) still allocate their own float caches — they are an
    /// explicitly opted-in `O(n·k)`-per-round polish, not the
    /// steady-state path.
    pub fn serve_into(
        &self,
        request: EngineRequest,
        scratch: &mut SolveScratch,
        out: &mut Vec<usize>,
    ) -> Result<Ratio, ServeError> {
        let p = &*self.prepared;
        let (k, n, m) = (request.k, p.n(), p.m());
        if k > n {
            return Err(ServeError::InfeasibleK { k, n });
        }
        if k > m {
            return Err(ServeError::ExceedsCoresetBudget { k, m, n });
        }
        Engine::from_prepared(p.sub.clone(), self.threads)
            .with_deadline(self.deadline)
            .solve_into(request, scratch, out)?;
        for local in out.iter_mut() {
            *local = p.coreset.indices[*local];
        }
        if request.kind != ObjectiveKind::Mono {
            for _ in 0..p.config.refine_rounds {
                // Deadline checkpoint: a refinement round is O(n·k)
                // oracle calls. The answer so far is a valid feasible
                // set, but serving semantics are all-or-nothing — a
                // request that missed its deadline gets the typed
                // error, not a silently less-refined answer.
                self.deadline.check()?;
                if !self.refine_round(request.kind, out) {
                    break;
                }
            }
        }
        self.objective_exact_full_by(request.kind, out, self.deadline)
    }

    /// One full-universe refinement round for `F_MS`/`F_MM`: scan every
    /// (candidate, position) swap with float arithmetic (`O(n·k)`
    /// oracle calls), verify the best near-ties exactly, and apply the
    /// best strictly improving swap. Returns whether the set changed.
    fn refine_round(&self, kind: ObjectiveKind, chosen: &mut [usize]) -> bool {
        let p = &*self.prepared;
        let n = p.universe.len();
        let k = chosen.len();
        if k == 0 || k >= n {
            return false;
        }
        let lam = p.lambda.to_f64();
        let one_minus = (Ratio::ONE - p.lambda).to_f64();
        // Float caches over the current set.
        let crel: Vec<f64> = chosen.iter().map(|&i| p.rel_f[i]).collect();
        let cdist: Vec<Vec<f64>> = chosen
            .iter()
            .map(|&i| {
                chosen
                    .iter()
                    .map(|&j| p.dis.dist_f64(&p.universe[i], &p.universe[j]))
                    .collect()
            })
            .collect();
        let rel_sum: f64 = crel.iter().sum();
        let row_sums: Vec<f64> = cdist.iter().map(|row| row.iter().sum()).collect();
        let pair_sum: f64 = row_sums.iter().sum::<f64>() / 2.0;
        let current_f = match kind {
            ObjectiveKind::MaxSum => one_minus * (k as f64 - 1.0) * rel_sum + lam * 2.0 * pair_sum,
            ObjectiveKind::MaxMin => {
                let min_rel = crel.iter().fold(f64::INFINITY, |a, &b| a.min(b));
                let mut min_dis = f64::INFINITY;
                for (a, row) in cdist.iter().enumerate() {
                    for &d in &row[a + 1..] {
                        min_dis = min_dis.min(d);
                    }
                }
                if min_dis == f64::INFINITY {
                    min_dis = 0.0;
                }
                one_minus * min_rel + lam * min_dis
            }
            ObjectiveKind::Mono => return false,
        };
        let chosen_ref: &[usize] = chosen;
        // Best trial value over all positions for candidate t (float).
        let best_for = |t: usize| -> Option<f64> {
            if chosen_ref.contains(&t) {
                return None;
            }
            let dt: Vec<f64> = chosen_ref
                .iter()
                .map(|&s| p.dis.dist_f64(&p.universe[t], &p.universe[s]))
                .collect();
            let dt_sum: f64 = dt.iter().sum();
            let mut best: Option<f64> = None;
            for pos in 0..k {
                let v = match kind {
                    ObjectiveKind::MaxSum => {
                        let rel_sum2 = rel_sum - crel[pos] + p.rel_f[t];
                        let pair_sum2 =
                            pair_sum - (row_sums[pos] - cdist[pos][pos]) + (dt_sum - dt[pos]);
                        one_minus * (k as f64 - 1.0) * rel_sum2 + lam * 2.0 * pair_sum2
                    }
                    ObjectiveKind::MaxMin => {
                        let mut min_rel = p.rel_f[t];
                        let mut min_dis = f64::INFINITY;
                        for a in 0..k {
                            if a == pos {
                                continue;
                            }
                            min_rel = min_rel.min(crel[a]);
                            min_dis = min_dis.min(dt[a]);
                            for (b, &d) in cdist[a].iter().enumerate().skip(a + 1) {
                                if b != pos {
                                    min_dis = min_dis.min(d);
                                }
                            }
                        }
                        if min_dis == f64::INFINITY {
                            min_dis = 0.0;
                        }
                        one_minus * min_rel + lam * min_dis
                    }
                    ObjectiveKind::Mono => unreachable!("filtered above"),
                };
                if best.is_none_or(|b| v > b) {
                    best = Some(v);
                }
            }
            best.filter(|&v| v > current_f - 1e-9)
        };
        let Some(ties) = argmax_with_ties(n, self.threads, k * k, &best_for) else {
            return false;
        };
        // Exact verification: score each near-tie candidate once by its
        // best exact trial value, prefer the lowest candidate index on
        // exact ties (the engine's rule; `ties` is already ascending),
        // and apply only a strict improvement.
        let current_exact = self.objective_exact_full(kind, chosen);
        let exact_best_of = |t: usize| -> (Ratio, usize) {
            let mut best = (Ratio::ZERO, usize::MAX);
            for pos in 0..k {
                let mut trial = chosen_ref.to_vec();
                trial[pos] = t;
                let v = self.objective_exact_full(kind, &trial);
                if best.1 == usize::MAX || v > best.0 {
                    best = (v, pos);
                }
            }
            best
        };
        let mut winner: Option<(usize, Ratio, usize)> = None; // (t, value, pos)
        for tie in &ties {
            let (value, pos) = exact_best_of(tie.index);
            if winner.as_ref().is_none_or(|(_, best, _)| value > *best) {
                winner = Some((tie.index, value, pos));
            }
        }
        let (t, value, pos) = winner.expect("ties is non-empty");
        if value > current_exact {
            chosen[pos] = t;
            chosen.sort_unstable();
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for CoresetEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoresetEngine")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{NumericDistance, TableDistance};
    use crate::relevance::AttributeRelevance;

    const REL: AttributeRelevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };

    fn dis() -> Arc<dyn Distance + Send + Sync> {
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        })
    }

    fn line_universe(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i * 3 % (2 * n), i % 5])).collect()
    }

    fn rels_of(u: &[Tuple]) -> Vec<Ratio> {
        u.iter().map(|t| REL.rel(t)).collect()
    }

    fn stream(u: Vec<Tuple>, cfg: &CoresetConfig) -> PreparedCoreset {
        PreparedCoreset::try_build_streaming_deadline(
            u,
            &REL,
            dis(),
            Ratio::new(1, 2),
            cfg,
            Deadline::none(),
        )
        .unwrap()
    }

    #[test]
    fn build_streaming_matches_build_shared_within_budget() {
        let u = line_universe(30);
        let cfg = CoresetConfig::with_budget(64);
        let a = PreparedCoreset::build_shared(u.clone(), &REL, dis(), Ratio::new(1, 2), &cfg);
        let b = stream(u, &cfg);
        assert_eq!(a.universe(), b.universe());
        assert_eq!(a.coreset().indices(), b.coreset().indices());
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn build_streaming_is_deterministic_beyond_budget() {
        let u = line_universe(200);
        let cfg = CoresetConfig::with_budget(16);
        let a = stream(u.clone(), &cfg);
        let b = stream(u.clone(), &cfg);
        assert_eq!(a.universe(), u.as_slice());
        assert_eq!(a.universe(), b.universe());
        assert_eq!(a.coreset().indices(), b.coreset().indices());
        assert_eq!(a.m(), 16);
        // Same prepared state as materializing the vector by hand and
        // feeding it through the identical seed+insert procedure: the
        // front-door differential suites rely on this equivalence.
        let mut it = u.into_iter();
        let seed: Vec<Tuple> = it.by_ref().take(16).collect();
        let mut byhand = PreparedCoreset::build_shared(seed, &REL, dis(), Ratio::new(1, 2), &cfg);
        for t in it {
            let r = REL.rel(&t);
            byhand.insert_tuple(t, r);
        }
        assert_eq!(a.coreset().indices(), byhand.coreset().indices());
    }

    #[test]
    fn identity_coreset_when_budget_covers_universe() {
        let u = line_universe(20);
        let rels = rels_of(&u);
        let d = NumericDistance { attr: 0, fallback: Ratio::ZERO };
        for budget in [20, 50] {
            let c = Coreset::select(&u, &rels, &d, budget, 2);
            assert_eq!(c.indices(), (0..20).collect::<Vec<_>>().as_slice());
            assert_eq!(c.covering_radius(), 0.0);
            for i in 0..20 {
                assert_eq!(c.rep_of(i), i);
            }
        }
    }

    #[test]
    fn relevance_guard_keeps_top_items() {
        // Relevance = attr 1 ∈ {0..4}; the top half of the budget must
        // contain the most relevant items.
        let u = line_universe(40);
        let rels = rels_of(&u);
        let d = NumericDistance { attr: 0, fallback: Ratio::ZERO };
        let c = Coreset::select(&u, &rels, &d, 16, 2);
        let max_rel = rels.iter().max().unwrap();
        let top: Vec<usize> = (0..40).filter(|&i| rels[i] == *max_rel).collect();
        let kept = top.iter().filter(|i| c.indices().contains(i)).count();
        assert!(kept >= 16 / 2 / 2, "relevance guard dropped the top items");
    }

    #[test]
    fn covering_radius_shrinks_with_budget() {
        let u = line_universe(200);
        let rels = rels_of(&u);
        let d = NumericDistance { attr: 0, fallback: Ratio::ZERO };
        let small = Coreset::select(&u, &rels, &d, 8, 2);
        let large = Coreset::select(&u, &rels, &d, 64, 2);
        assert!(large.covering_radius() <= small.covering_radius());
        assert!(small.covering_radius() > 0.0);
    }

    #[test]
    fn selection_is_thread_count_invariant() {
        let u = line_universe(150);
        let rels = rels_of(&u);
        let d = NumericDistance { attr: 0, fallback: Ratio::ZERO };
        let a = Coreset::select(&u, &rels, &d, 24, 1);
        let b = Coreset::select(&u, &rels, &d, 24, 4);
        assert_eq!(a.indices(), b.indices());
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn all_tied_universe_selects_lowest_indices() {
        // Constant relevance and distance: every scan ties, so the
        // exact fallback must fall back to lowest-index picks.
        let u: Vec<Tuple> = (0..12).map(|i| Tuple::ints([i])).collect();
        let rels = vec![Ratio::ONE; 12];
        let d = TableDistance::with_default(Ratio::ONE);
        let c = Coreset::select(&u, &rels, &d, 5, 3);
        assert_eq!(c.indices(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn engine_equals_full_engine_when_budget_covers_universe() {
        let u = line_universe(18);
        let lambda = Ratio::new(1, 2);
        let full = Engine::with_threads(
            u.clone(),
            &REL,
            &NumericDistance { attr: 0, fallback: Ratio::ZERO },
            lambda,
            2,
        );
        let cs = CoresetEngine::new(
            u,
            &REL,
            dis(),
            lambda,
            &CoresetConfig::with_budget(18).with_threads(2),
        );
        for kind in ObjectiveKind::ALL {
            for k in [1, 3, 5] {
                let req = EngineRequest { kind, k };
                let (fv, fset) = full.try_serve(req).unwrap();
                let (cv, cset) = cs.try_serve(req).unwrap();
                assert_eq!(fset, cset, "{kind} k={k}");
                assert_eq!(fv, cv, "{kind} k={k}");
            }
        }
    }

    #[test]
    fn serve_reports_exact_full_value() {
        let cs = CoresetEngine::new(
            line_universe(60),
            &REL,
            dis(),
            Ratio::new(1, 3),
            &CoresetConfig::with_budget(16).with_threads(2),
        );
        for kind in ObjectiveKind::ALL {
            let (v, set) = cs.try_serve(EngineRequest { kind, k: 4 }).unwrap();
            assert_eq!(v, cs.objective_exact_full(kind, &set), "{kind}");
            assert_eq!(set.len(), 4);
        }
    }

    #[test]
    fn refinement_never_lowers_the_exact_value() {
        let u = line_universe(80);
        let lambda = Ratio::new(2, 3);
        let plain = CoresetEngine::new(
            u.clone(),
            &REL,
            dis(),
            lambda,
            &CoresetConfig::with_budget(12).with_threads(2),
        );
        let refined = CoresetEngine::new(
            u,
            &REL,
            dis(),
            lambda,
            &CoresetConfig::with_budget(12).with_threads(2).refine(3),
        );
        for kind in [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin] {
            let req = EngineRequest { kind, k: 5 };
            let (pv, _) = plain.try_serve(req).unwrap();
            let (rv, rset) = refined.try_serve(req).unwrap();
            assert!(rv >= pv, "{kind}: refinement regressed {rv} < {pv}");
            assert_eq!(rv, refined.objective_exact_full(kind, &rset));
        }
    }

    #[test]
    fn streamed_inserts_keep_coverage_invariants() {
        let mut u = line_universe(40);
        let mut pc = PreparedCoreset::build_shared(
            u.clone(),
            &REL,
            dis(),
            Ratio::new(1, 2),
            &CoresetConfig::with_budget(10).with_threads(1),
        );
        for i in 0..25i64 {
            let t = Tuple::ints([200 + 17 * i, i % 5]);
            pc.insert_tuple(t.clone(), REL.rel(&t));
            u.push(t);
            // Structural invariants after every insert.
            assert_eq!(pc.n(), u.len());
            assert_eq!(pc.m(), 10);
            let c = pc.coreset();
            assert_eq!(c.assignment.len(), pc.n());
            let mut reps = c.indices().to_vec();
            reps.sort_unstable();
            reps.dedup();
            assert_eq!(reps.len(), 10, "duplicate representative");
            assert!(reps.iter().all(|&r| r < pc.n()));
            for i in 0..pc.n() {
                assert!(c.rep_of(i) < 10);
                assert!(c.nearest[i] <= c.covering_radius() + 1e-12);
            }
            // Every representative represents itself at distance 0.
            for (pos, &r) in c.indices().iter().enumerate() {
                assert_eq!(c.rep_of(r), pos, "rep {r} not self-assigned");
                assert_eq!(c.nearest[r], 0.0);
            }
        }
        // The streamed engine still serves well-formed answers.
        let e = CoresetEngine::from_prepared(Arc::new(pc), 1);
        for kind in ObjectiveKind::ALL {
            let (v, set) = e.try_serve(EngineRequest { kind, k: 5 }).unwrap();
            assert_eq!(set.len(), 5);
            assert_eq!(v, e.objective_exact_full(kind, &set), "{kind}");
            assert!(set.iter().all(|&i| i < u.len()));
        }
    }

    #[test]
    fn remove_tuple_reselects_like_scratch() {
        let mut u = line_universe(50);
        let mut pc = PreparedCoreset::build_shared(
            u.clone(),
            &REL,
            dis(),
            Ratio::new(1, 3),
            &CoresetConfig::with_budget(12).with_threads(1),
        );
        for r in [7usize, 0, 20] {
            pc.remove_tuple(r).unwrap();
            u.swap_remove(r);
        }
        assert!(matches!(
            pc.remove_tuple(47),
            Err(crate::engine::DeltaError::IndexOutOfRange { index: 47, n: 47 })
        ));
        // Re-selection makes removal answer exactly like a fresh prepare.
        let fresh = PreparedCoreset::build_shared(
            u,
            &REL,
            dis(),
            Ratio::new(1, 3),
            &CoresetConfig::with_budget(12).with_threads(1),
        );
        assert_eq!(pc.coreset().indices(), fresh.coreset().indices());
        let a = CoresetEngine::from_prepared(Arc::new(pc), 1);
        let b = CoresetEngine::from_prepared(Arc::new(fresh), 1);
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k: 4 };
            assert_eq!(a.try_serve(req), b.try_serve(req), "{kind}");
        }
    }

    #[test]
    fn try_serve_distinguishes_budget_from_universe() {
        let cs = CoresetEngine::new(
            line_universe(30),
            &REL,
            dis(),
            Ratio::ONE,
            &CoresetConfig::with_budget(8),
        );
        assert_eq!(
            cs.try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 9 }),
            Err(ServeError::ExceedsCoresetBudget { k: 9, m: 8, n: 30 })
        );
        assert_eq!(
            cs.try_serve(EngineRequest { kind: ObjectiveKind::MaxMin, k: 31 }),
            Err(ServeError::InfeasibleK { k: 31, n: 30 })
        );
        assert!(cs.try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 8 }).is_ok());
    }

    #[test]
    fn bytes_scale_with_m_squared_not_n_squared() {
        let n = 2000;
        let cs = PreparedCoreset::build_shared(
            line_universe(n),
            &REL,
            dis(),
            Ratio::new(1, 2),
            &CoresetConfig::with_budget(64),
        );
        // The full matrix alone would be n²·8 = 32 MB; the coreset
        // entry must be well under a tenth of that.
        assert!(cs.approx_bytes() < (n as usize * n as usize * 8) / 10);
        assert_eq!(cs.m(), 64);
        assert_eq!(cs.n(), n as usize);
    }
}
