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
//!   GMM-style) pass that picks `m` representatives with **zero**
//!   `n × n` allocations. Half the budget goes to the top-relevance
//!   items (so the λ → 0 regime, where only relevance matters, stays
//!   exact for `k ≤ ⌈m/2⌉`), half to farthest-point coverage (so the
//!   λ → 1 regime keeps the classical k-center guarantees). Coverage
//!   is float-scored with the engine's exact-`Ratio` tie fallback, so
//!   selection is deterministic down to equal-score ties. An arbitrary
//!   oracle is called per pair, `O(n·m)` distance evaluations across
//!   threads; a key-shaped one ([`Distance::key_column`]) is sorted
//!   once and each representative folded into the one gap between
//!   already-folded keys it splits (`gaps.rs`: `O(n log n)` plus the
//!   gaps re-scanned) — the same selection, bit for bit.
//! * [`PreparedCoreset`] — the owned, shareable prepared state: `O(n)`
//!   relevance caches, the coreset itself, and an `m × m`
//!   [`PreparedUniverse`] over the representatives. Its [`approx_bytes`](PreparedCoreset::approx_bytes)
//!   meters `m²`, not `n²` — the honest figure a byte-budgeted cache
//!   must charge.
//! * [`CoresetEngine`] — runs the max-sum / max-min / mono solvers
//!   of [`Engine`] on the coreset's matrix, maps the
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
//!
//! [`Engine`]: crate::engine::Engine
//! [`PreparedUniverse`]: crate::engine::PreparedUniverse

mod gaps;
mod prepared;
mod serve;

pub use prepared::{PreparedCoreset, SharedCoreset};
pub use serve::CoresetEngine;

use gaps::KeyGaps;

use crate::avail::GenMarks;
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::engine::{
    default_threads, fans_out, resolve_ties_exact, run_dealt, tie_threshold, ScoreSource,
    ServeError, TieCandidate, TieChunk, DIST_F64_UNITS,
};
use crate::ratio::Ratio;
use divr_relquery::Tuple;

/// Size of `Q(D)` above which `divr-server`'s query front door
/// escalates from the full-matrix engine to a selected coreset: at
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
    /// stays a few megabytes even for generous `k`. Saturates: `k`
    /// arrives from the wire (`"max_k"`), and a wrapped product would
    /// size the coreset *below* the `k` it was asked to serve.
    pub fn recommended(k: usize) -> Self {
        Self::with_budget(k.saturating_mul(16).max(64))
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
    pub(super) indices: Vec<usize>,
    /// For each universe item, the position in [`Coreset::indices`] of
    /// its nearest representative (by the builder's float passes).
    pub(super) assignment: Vec<usize>,
    /// For each universe item, the float distance to its assigned
    /// representative — retained (not just its max) because the
    /// insert path ([`PreparedCoreset::insert_tuple`]) needs per-item
    /// coverage to decide absorb-vs-displace in `O(n)`. An upper bound
    /// after a displacement.
    pub(super) nearest: Vec<f64>,
    /// `max_i nearest[i]` — the k-center covering radius, a direct
    /// quality diagnostic (0 when `m = n`).
    pub(super) covering_radius: f64,
    /// The covering radius the selection left, which inserts never move.
    pub(super) selection_radius: f64,
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
/// workers (disjoint `&mut` chunks of the two coverage arrays) when
/// [`sweep_workers`] says that pays; the shards' candidates are merged in
/// index order, so the result does not depend on `threads`.
fn cover(
    threads: usize,
    nearest: &mut [f64],
    assignment: &mut [usize],
    pos: usize,
    selected: &GenMarks,
    dist_to_rep: impl Fn(usize) -> f64 + Sync,
) -> Vec<TieCandidate> {
    let n = nearest.len();
    let workers = sweep_workers(n, threads);
    if workers == 1 {
        return cover_chunk(0, nearest, assignment, pos, selected, dist_to_rep).ties;
    }
    let chunk = n.div_ceil(workers);
    let shards = nearest
        .chunks_mut(chunk)
        .zip(assignment.chunks_mut(chunk))
        .enumerate()
        .map(|(ci, shard)| vec![(ci * chunk, shard)])
        .collect();
    let sweep = |(base, (near, asg)): (usize, (&mut [f64], &mut [usize]))| {
        cover_chunk(base, near, asg, pos, selected, &dist_to_rep)
    };
    run_dealt(shards, Deadline::none(), &sweep)
        .expect("unbounded deadline cannot be exceeded")
        .into_iter()
        .reduce(TieChunk::merge)
        .map(|merged| merged.ties)
        .unwrap_or_default()
}

/// Sweep workers over `n` items: one float distance per item
/// ([`DIST_F64_UNITS`]), so the sweep fans out from `n ≥ 4 096`.
pub(crate) fn sweep_workers(n: usize, threads: usize) -> usize {
    if fans_out(n, threads, DIST_F64_UNITS) {
        threads
    } else {
        1
    }
}

/// The coverage arrays of a selection in progress and the one way this
/// oracle folds a representative into them: over a key column the gap
/// selector ([`KeyGaps`]), otherwise one per-pair [`cover`] sweep of all
/// `n` items, which leaves the farthest candidates behind as it goes.
struct Coverage<'a> {
    universe: &'a [Tuple],
    dis: &'a (dyn Distance + Sync),
    threads: usize,
    /// `nearest[i]`: float distance from item `i` to the folded set.
    nearest: Vec<f64>,
    /// `assignment[i]`: selection-order position of the representative
    /// achieving it (the earliest, on equal distances).
    assignment: Vec<usize>,
    gaps: Option<KeyGaps>,
    /// Per-pair path: what the latest sweep reported.
    swept: Vec<TieCandidate>,
}

impl Coverage<'_> {
    /// Folds representative `rep` (selection-order position `pos`,
    /// already marked in `selected`) into the coverage arrays.
    fn fold(&mut self, pos: usize, rep: usize, selected: &GenMarks) {
        let (nearest, assignment) = (&mut self.nearest[..], &mut self.assignment[..]);
        match &mut self.gaps {
            Some(gaps) => gaps.fold(pos, rep, nearest, assignment),
            None => {
                let (universe, dis) = (self.universe, self.dis);
                let to_rep = |i: usize| dis.dist_f64(&universe[i], &universe[rep]);
                self.swept = cover(self.threads, nearest, assignment, pos, selected, to_rep);
            }
        }
    }

    /// The farthest unselected items as of the latest fold, with their
    /// near-ties, ascending by index; empty when none orders. To be
    /// asked once every selected item has been folded.
    fn farthest(&mut self) -> Vec<TieCandidate> {
        match &self.gaps {
            Some(gaps) => gaps.farthest(&self.nearest),
            None => std::mem::take(&mut self.swept),
        }
    }
}

impl Coreset {
    /// Selects `min(budget, n)` representatives in at most `O(n·m)`
    /// distance evaluations without materializing any `n × n`
    /// structure.
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
    /// Folding a representative in lowers every item's coverage
    /// distance that it strictly improves. An arbitrary oracle is called
    /// per pair for that — one `O(n)` sweep per representative, sharded
    /// across `threads` once `n ≥ 4096`, which finds the next farthest
    /// candidates in the same pass. An oracle that hands out a
    /// [`Distance::key_column`] has the column sorted once, and each
    /// representative re-scans only the gap between the two
    /// already-folded keys that bracket its own: no item beyond them
    /// can get closer (the float distance is monotone in the key
    /// difference and the update is strict), so for `m ≪ n` the
    /// selection costs `O(n log n)` plus the gaps re-scanned instead of
    /// `n·m`, inline. The selection is identical either way and for
    /// every `threads`.
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
    /// before each phase-1 fold and each Gonzalez farthest-point
    /// iteration — each at most an `O(n)` scan, so an abandoned
    /// selection overshoots its deadline by at most one pass. Returns `Err(ServeError::DeadlineExceeded)` on
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
                selection_radius: 0.0,
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

        let mut coverage = Coverage {
            universe,
            dis,
            threads,
            nearest: vec![f64::INFINITY; n],
            assignment: vec![0usize; n],
            gaps: dis.key_column(universe).map(KeyGaps::new),
            swept: Vec::new(),
        };
        for (pos, &r) in reps.iter().enumerate() {
            // Deadline checkpoint: one fold is at most O(n).
            deadline.check()?;
            coverage.fold(pos, r, &selected);
        }

        // Phase 2: farthest-point rounds, each resolved from the
        // candidates the folds so far leave. A float tie is broken by
        // the exact distance to the nearest representative — a `min`
        // that only ever gains terms, so each candidate keeps (how many
        // representatives it has been measured against, the minimum so
        // far) and a later tie extends it over the representatives
        // added since: at most `n·m` exact calls in a whole selection,
        // where recomputing it for every tied candidate of every round
        // is `n·m²` on a universe of duplicates. Allocated by the first
        // tie set of two or more.
        let mut exact_memo: Vec<(usize, Ratio)> = Vec::new();
        while reps.len() < m {
            // Deadline checkpoint: one Gonzalez iteration is at most O(n).
            deadline.check()?;
            let farthest = coverage.farthest();
            if farthest.is_empty() {
                // m < n leaves unselected candidates, so an empty argmax
                // means their coverage distances do not order: the
                // oracle emitted a non-finite float (full-universe
                // indices of one offending item and its representative).
                let i = (0..n)
                    .find(|&i| !selected.is_marked(i) && !coverage.nearest[i].is_finite())
                    .unwrap_or(0);
                return Err(ServeError::NonFiniteScore {
                    source: ScoreSource::Distance,
                    i,
                    j: reps[coverage.assignment[i]],
                });
            }
            let exact_nearest = |i: usize| -> Ratio {
                if exact_memo.is_empty() {
                    exact_memo.resize(n, (0, Ratio::ZERO));
                }
                let (seen, min) = &mut exact_memo[i];
                for &r in &reps[*seen..] {
                    let d = dis.dist(&universe[i], &universe[r]);
                    if *seen == 0 || d < *min {
                        *min = d;
                    }
                    *seen += 1;
                }
                *min
            };
            let winner = resolve_ties_exact(&farthest, exact_nearest);
            selected.mark(winner);
            coverage.fold(reps.len(), winner, &selected);
            reps.push(winner);
        }
        let Coverage {
            nearest,
            mut assignment,
            ..
        } = coverage;
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
            selection_radius: covering_radius,
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
    /// (`0.0` for the representatives themselves; an upper bound after
    /// an insert displaced a representative).
    pub fn rep_distance(&self, i: usize) -> f64 {
        self.nearest[i]
    }

    /// The float k-center covering radius (an upper bound after an
    /// insert displaced a representative).
    pub fn covering_radius(&self) -> f64 {
        self.covering_radius
    }

    /// The covering radius the selection left.
    pub(crate) fn selection_radius(&self) -> f64 {
        self.selection_radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{NumericDistance, TableDistance};
    use crate::engine::fixtures::{line_universe, REL};
    use crate::relevance::Relevance;

    fn rels_of(u: &[Tuple]) -> Vec<Ratio> {
        u.iter().map(|t| REL.rel(t)).collect()
    }

    /// The budget never falls below the `k` it is sized for, however
    /// large a `max_k` the wire sends.
    #[test]
    fn recommended_budget_saturates() {
        assert_eq!(CoresetConfig::recommended(0).budget, 64);
        assert_eq!(CoresetConfig::recommended(4).budget, 64);
        assert_eq!(CoresetConfig::recommended(4096).budget, 65_536);
        for k in [1usize << 60, usize::MAX] {
            assert_eq!(CoresetConfig::recommended(k).budget, usize::MAX);
        }
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

    /// Fold by fold, the gap selector leaves the coverage arrays and
    /// reports the candidates — indices, order, score bits — of a flat
    /// sweep of all `n` items: duplicate-heavy columns (representatives
    /// on taken keys, rounds where everything ties at 0) and columns
    /// spanning all of `i64` (distinct gaps that round to one float).
    #[test]
    fn gap_selector_reports_what_a_flat_sweep_reports() {
        use crate::distance::key_gap_f64;
        for seed in 0..48u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut draw = |below: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % below
            };
            let n = 8 + 9 * seed as usize;
            let keys: Vec<i64> = (0..n)
                .map(|_| match seed % 3 {
                    0 => draw(9) as i64 - 4,
                    1 => [i64::MIN, -1, 0, i64::MAX][draw(4) as usize]
                        .saturating_add((draw(5) as i64 - 2) << 12),
                    _ => draw(20 * n as u64) as i64,
                })
                .collect();
            let universe: Vec<Tuple> = keys.iter().map(|&key| Tuple::ints([key])).collect();
            let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
            let mut coverage = Coverage {
                universe: &universe,
                dis: &dis,
                threads: 1,
                nearest: vec![f64::INFINITY; n],
                assignment: vec![0; n],
                gaps: dis.key_column(&universe).map(KeyGaps::new),
                swept: Vec::new(),
            };
            assert!(coverage.gaps.is_some());
            let (mut flat_nearest, mut flat_assignment) = (vec![f64::INFINITY; n], vec![0; n]);
            let mut flat = Vec::new();
            let mut selected = GenMarks::new();
            selected.reset(n);
            // Guards are all marked before the first fold, as in phase 1.
            let mut reps: Vec<usize> = vec![draw(n as u64) as usize, draw(n as u64) as usize];
            reps.dedup();
            for &r in &reps {
                selected.mark(r);
            }
            let mut fold_both = |coverage: &mut Coverage, pos: usize, rep: usize, selected: &GenMarks| {
                coverage.fold(pos, rep, selected);
                let to_rep = |i: usize| key_gap_f64(keys[i], keys[rep]);
                let (near, asg) = (&mut flat_nearest, &mut flat_assignment);
                let flat = cover_chunk(0, near, asg, pos, selected, to_rep).ties;
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&coverage.nearest), bits(near), "seed {seed} fold {pos}");
                assert_eq!(&coverage.assignment, asg, "seed {seed} fold {pos}");
                flat
            };
            for (pos, &r) in reps.iter().enumerate() {
                flat = fold_both(&mut coverage, pos, r, &selected);
            }
            while reps.len() < n.min(24) {
                let got = coverage.farthest();
                let listed = |ties: &[TieCandidate]| {
                    ties.iter()
                        .map(|t| (t.index, t.score.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(listed(&got), listed(&flat), "seed {seed} round {}", reps.len());
                // Any candidate may win the exact tie-break.
                let winner = got[draw(got.len() as u64) as usize].index;
                selected.mark(winner);
                flat = fold_both(&mut coverage, reps.len(), winner, &selected);
                reps.push(winner);
            }
        }
    }

    /// A universe of duplicates (4 small-domain columns, 180 distinct
    /// rows among 2 000) under an integer-valued Hamming distance: past
    /// the 180th representative every round ties everywhere at 0. The
    /// exact tie-break may cost at most the `n·m` calls of measuring
    /// each item against each representative once (recomputing each
    /// tied candidate's minimum from scratch made 19.6 M here), and it
    /// picks what a flat reference picks: floats are exact here, so the
    /// winner of a round is the lowest index at the largest coverage
    /// distance.
    #[test]
    fn exact_tie_breaks_measure_each_pair_at_most_once() {
        use crate::distance::HammingDistance;
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(HammingDistance, AtomicUsize);
        impl Distance for Counting {
            fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.dist(a, b)
            }
            fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
                self.0.dist_f64(a, b)
            }
        }
        let (n, m) = (2_000usize, 256usize);
        let u: Vec<Tuple> = (0..n as i64)
            .map(|i| Tuple::ints([i % 3, i / 3 % 4, i * 7 % 5, i / 11 % 3]))
            .collect();
        let rels: Vec<Ratio> = (0..n as i64).map(|i| Ratio::int(i * 13 % 5)).collect();
        let dis = Counting(HammingDistance::default(), AtomicUsize::new(0));
        let got = Coreset::select(&u, &rels, &dis, m, 1);
        let exact_calls = dis.1.load(Ordering::Relaxed);
        assert!(exact_calls <= 2 * n * m, "{exact_calls} exact calls");

        let mut by_rel: Vec<usize> = (0..n).collect();
        by_rel.sort_by(|a, b| rels[*b].cmp(&rels[*a]).then(a.cmp(b)));
        let mut reps = by_rel[..m / 2].to_vec();
        let mut nearest = vec![f64::INFINITY; n];
        let cover = |nearest: &mut [f64], r: usize| {
            for (i, near) in nearest.iter_mut().enumerate() {
                *near = near.min(dis.dist_f64(&u[i], &u[r]));
            }
        };
        for &r in &reps {
            cover(&mut nearest, r);
        }
        while reps.len() < m {
            let open = |i: &usize| !reps.contains(i);
            let far = (0..n).filter(open).map(|i| nearest[i]).fold(0.0, f64::max);
            let winner = (0..n).filter(open).find(|&i| nearest[i] == far).unwrap();
            cover(&mut nearest, winner);
            reps.push(winner);
        }
        reps.sort_unstable();
        assert_eq!(got.indices(), reps);
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
}
