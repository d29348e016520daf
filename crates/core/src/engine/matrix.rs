//! The flat `f64` [`DistanceMatrix`] — one thread-sharded fill with the
//! hot-row scans fused into it (max-sum seed, GMM row bests, first
//! non-finite distance), one cache-blocked mirror on the same workers —
//! and the chunked map/reduce the argmax scans share.
//!
//! A cold build touches each cell once while it is hot: everything the
//! prepared universe later wants from the whole triangle is read off a
//! row right after a worker wrote it, so nothing re-streams the `n²`
//! floats from memory before the first answer leaves.
//!
//! ## Recycled allocations
//!
//! A serving process under churn builds and drops one multi-megabyte
//! matrix per cold universe. Handed back to the allocator, those
//! buffers interleave with small long-lived allocations and the
//! process settles tens of megabytes above what is resident, by an
//! amount that depends on which arena a thread landed in. So a dropped
//! matrix **parks** its buffer in one small process-wide free list and
//! the next build of exactly that allocation size takes it back:
//!
//! * the list holds at most [`default_threads`] buffers — the builds
//!   that can be in flight at once — and only buffers of at least
//!   1 MB (below that the allocator's own bins already win);
//! * the oldest buffer is dropped first, so sizes nobody asks for any
//!   more age out after `default_threads()` further drops;
//! * a build takes only a buffer of **exactly** `stride²` elements and
//!   zeroes all of it before the first row is filled.
//!
//! **Headroom invariant.** Every cell a build does not write — the
//! diagonal, and the headroom rows and columns past `n` that
//! [`DistanceMatrix::push_item`] later grows into — leaves the build
//! `0.0`, whether the buffer came from `vec![0.0; …]` or from the free
//! list: the whole allocation of a recycled build is bit-identical to a
//! fresh one
//! (`recycled_build_is_bit_identical_to_fresh` parks a NaN-filled buffer
//! and compares every cell), so no distance of the universe that owned
//! the buffer before can surface in a served matrix.
//!
//! There is nothing to configure; [`spare_buffers`] reports the list's
//! current content for `{"op":"stats"}`.

use super::{default_threads, ServeError};
use crate::deadline::Deadline;
use crate::distance::Distance;
use crate::ratio::Ratio;
use divr_relquery::Tuple;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Below this much estimated work (items × per-item cost units) a round
/// is scanned inline — spawning threads costs more than the scan. Sized
/// on the 2-vCPU host the recordings come from: a pair of scoped spawns
/// and joins costs 30–50 µs there and a unit ≈ 1.5 ns, so halving a
/// scan repays its spawns from ≈ 60 000 units; the gate sits at twice
/// that. A solve runs up to `k` such scans, so a gate that lets a ~3 µs
/// scan spawn multiplies the whole solve (4 × at n = 3 000, k = 50, two
/// threads).
const PAR_MIN_WORK: usize = 1 << 17;

// A unit-cost scan over any universe served with a full matrix runs
// inline: past this size a query result escalates to a coreset.
const _: () = assert!(crate::coreset::CORESET_AUTO_THRESHOLD < PAR_MIN_WORK);

/// Whether a scan of `n` items at `work_per_item` units each is worth
/// fanning out over `threads` — the one place that decides. Callers
/// with an allocation-free inline form ask before calling
/// [`par_map_reduce`]; everyone else just calls it.
pub(super) fn fans_out(n: usize, threads: usize, work_per_item: usize) -> bool {
    threads > 1 && n.saturating_mul(work_per_item.max(1)) >= PAR_MIN_WORK
}

/// Splits `0..n` into at most `threads` contiguous chunks, runs `map` on
/// each (on worker threads when [`fans_out`] says it pays off), and folds
/// the non-`None` results with `reduce`. `work_per_item` is the caller's
/// estimate of one item's evaluation cost (in arbitrary units where 1 ≈
/// a few float ops) — spawning is gated on total *work*, not item count,
/// so a scan of 1000 items that each cost `O(n)` still parallelizes.
pub(super) fn par_map_reduce<T, M, R>(
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
    if !fans_out(n, threads, work_per_item) {
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

/// The parked matrix allocations, oldest first (see the module docs).
static SPARE: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// Smallest allocation worth parking, in elements (1 MB).
const SPARE_MIN_LEN: usize = (1 << 20) / std::mem::size_of::<f64>();

fn lock_spare() -> MutexGuard<'static, Vec<Vec<f64>>> {
    // Nothing panics under this lock, and a list of whole buffers is
    // consistent wherever a holder might have stopped.
    SPARE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Parks a dropped matrix's allocation for the next build of its size,
/// ageing the oldest parked buffer out once the list is full. Both
/// frees — a buffer too small to park, the aged-out one — happen
/// outside the lock.
fn park(buf: Vec<f64>) {
    if buf.len() < SPARE_MIN_LEN {
        return;
    }
    let cap = default_threads();
    let mut spare = lock_spare();
    spare.push(buf);
    let aged_out = (spare.len() > cap).then(|| spare.remove(0));
    drop(spare);
    drop(aged_out);
}

/// The most recently parked allocation of exactly `len` elements, with
/// whatever its last owner left in it.
fn take_spare(len: usize) -> Option<Vec<f64>> {
    if len < SPARE_MIN_LEN {
        return None;
    }
    let mut spare = lock_spare();
    let at = spare.iter().rposition(|buf| buf.len() == len)?;
    Some(spare.remove(at))
}

/// `(buffers, bytes)` currently parked in the matrix free list: at most
/// [`default_threads`] buffers, each at least 1 MB. A gauge for the
/// daemon's stats — memory the process holds that no cache entry owns.
pub fn spare_buffers() -> (usize, usize) {
    let spare = lock_spare();
    let bytes = spare.iter().map(|buf| std::mem::size_of_val(&buf[..])).sum();
    (spare.len(), bytes)
}

/// One unit of the matrix fill: a row index, its `&mut` row slice, and
/// (in fused mode) the slot the row's hot scans report into.
type RowTask<'a> = (usize, &'a mut [f64], Option<&'a mut RowScan>);

/// What one fused-build worker learns from row `i` while it is still
/// cache-hot from being written.
#[derive(Clone, Copy)]
struct RowScan {
    ms: PairSeed,
    gmm: f64,
    /// First `j > i` whose distance is `NaN`/`±∞`.
    non_finite: Option<usize>,
}

/// Everything the fused build learned about the matrix it returns, one
/// hot scan per row: the two per-anchor solver preambles and the
/// finiteness verdict [`PreparedUniverse::check_finite`] answers from.
///
/// [`PreparedUniverse::check_finite`]: super::PreparedUniverse::check_finite
pub(crate) struct RowScans {
    /// Per-anchor max-sum seed ([`PairSeed::scan`]).
    pub(super) ms: Vec<PairSeed>,
    /// Per-anchor GMM row best ([`gmm_row_best`]).
    pub(super) gmm: Vec<f64>,
    /// The lexicographically first pair `i < j` whose distance is
    /// non-finite. The lower triangle is a bit-copy of the upper and
    /// the diagonal is `0.0`, so this is also the first bad cell of a
    /// row-major scan of the whole matrix.
    pub(super) non_finite: Option<(usize, usize)>,
}

/// Runs `work` on every task of every bucket — inline and in order when
/// there is one bucket, one scoped worker per bucket otherwise. Every
/// worker polls `deadline` (and a shared cancel flag, so one tripped
/// worker stops the rest without each reading the clock) before each
/// task: an abandoned run overshoots by at most one task per worker.
fn run_dealt<T: Send>(
    mut buckets: Vec<Vec<T>>,
    deadline: Deadline,
    work: impl Fn(T) + Sync,
) -> Result<(), ServeError> {
    let cancelled = AtomicBool::new(false);
    let run = |bucket: Vec<T>| {
        for task in bucket {
            if cancelled.load(Ordering::Relaxed) {
                return;
            }
            if deadline.exceeded() {
                cancelled.store(true, Ordering::Relaxed);
                return;
            }
            work(task);
        }
    };
    if buckets.len() == 1 {
        run(buckets.pop().expect("one bucket"));
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            for bucket in buckets {
                scope.spawn(move || run(bucket));
            }
        });
    }
    if cancelled.load(Ordering::Relaxed) {
        return Err(ServeError::DeadlineExceeded);
    }
    Ok(())
}

/// One unit of the mirror: the index of a block's first row and the
/// lower halves (columns `0..j` of row `j`) of its rows.
type MirrorBlock<'a, 'b> = (usize, &'a mut [&'b mut [f64]]);

/// Rows per mirror block and columns per tile: a 32 × 32 tile is 8 KB,
/// so the staging copy below stays in L1 while it turns rows into
/// columns.
const MIRROR_TILE: usize = 32;

/// Copies the strict upper triangle of the `n × n` matrix in `data`
/// (rows `stride` apart) onto the lower one, and touches nothing else —
/// not the diagonal, not the headroom.
///
/// Every row is split at its diagonal: the lower halves are `n`
/// disjoint `&mut` destinations, the upper halves `n` shared sources
/// of the same buffer. Destination rows are dealt round-robin to
/// `workers` in blocks of [`MIRROR_TILE`] (inline when `workers == 1`)
/// and each block is copied tile by tile through a stack buffer —
/// source rows read contiguously into it, destination rows written
/// contiguously out of it — so neither side of the copy strides
/// through memory. The deadline is polled per block: an abandoned
/// mirror overshoots by at most one block — `O(n)` cells — per worker.
fn mirror_upper(
    data: &mut [f64],
    n: usize,
    stride: usize,
    workers: usize,
    deadline: Deadline,
) -> Result<(), ServeError> {
    let (mut lower, upper): (Vec<&mut [f64]>, Vec<&[f64]>) = data
        .chunks_mut(stride)
        .take(n)
        .enumerate()
        .map(|(i, row)| {
            let (lower, upper) = row.split_at_mut(i);
            (lower, &*upper)
        })
        .unzip();
    let mut buckets: Vec<Vec<MirrorBlock<'_, '_>>> = (0..workers).map(|_| Vec::new()).collect();
    for (b, block) in lower.chunks_mut(MIRROR_TILE).enumerate() {
        buckets[b % workers].push((b * MIRROR_TILE, block));
    }
    let upper = upper.as_slice();
    // `block` holds the lower halves of rows `first..first + rows`; row
    // j's is its columns `0..j`. Source row i starts at its diagonal,
    // so cell `(i, j)` sits at offset `j − i` of `upper[i]`.
    run_dealt(buckets, deadline, |(first, block)| {
        let rows = block.len();
        // Whole tiles left of the block's diagonal tile (`first` is a
        // multiple of the tile edge): every cell is below the diagonal.
        let mut staged = [[0.0f64; MIRROR_TILE]; MIRROR_TILE];
        for tile in (0..first).step_by(MIRROR_TILE) {
            for (line, (i, src)) in staged.iter_mut().zip((tile..).zip(&upper[tile..])) {
                line[..rows].copy_from_slice(&src[first - i..first - i + rows]);
            }
            for (r, dst) in block.iter_mut().enumerate() {
                for (cell, line) in dst[tile..tile + MIRROR_TILE].iter_mut().zip(&staged) {
                    *cell = line[r];
                }
            }
        }
        // The diagonal tile: row j takes only the columns before j.
        for (j, dst) in (first..).zip(block.iter_mut()) {
            for ((i, cell), src) in (first..).zip(&mut dst[first..]).zip(&upper[first..]) {
                *cell = src[j - i];
            }
        }
    })
}

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
/// [`DistanceMatrix::approx_bytes`]; a build leaves every cell of it
/// `0.0` (the module docs' headroom invariant).
///
/// Dropping a matrix parks its allocation for the next build of the
/// same size instead of freeing it (module docs, "Recycled
/// allocations").
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    stride: usize,
    data: Vec<f64>,
}

impl Drop for DistanceMatrix {
    fn drop(&mut self) {
        park(std::mem::take(&mut self.data));
    }
}

/// Headroom rows allocated past `n`: enough that a growing universe
/// re-strides every `≈ n/16` inserts (amortized `O(n)` per insert),
/// small enough that the byte overhead stays near 13%.
fn matrix_pad(n: usize) -> usize {
    (n / 16).max(4)
}

impl DistanceMatrix {
    /// Builds the matrix for `universe` under `dis`, computing each
    /// unordered pair once and mirroring. Row construction and (from
    /// 1 MB of matrix up) the mirror are spread over `threads` workers
    /// (pass 1 to force a sequential build). The same fill and mirror
    /// as a prepared universe's fused build, without its row scans.
    pub fn build(universe: &[Tuple], dis: &(dyn Distance + Sync), threads: usize) -> Self {
        Self::try_build_with_seed(universe, dis, threads, None, Deadline::none())
            .expect("unbounded deadline cannot be exceeded")
            .0
    }

    /// [`DistanceMatrix::build`], optionally **fusing** every scan that
    /// needs the whole triangle into the row fill: right after a worker
    /// finishes row `i`'s upper-triangle entries — while those 8·(n−i)
    /// bytes are still cache-hot from being written — it scans the tail
    /// for
    ///
    /// * anchor `i`'s heaviest partner under [`ms_weight_f64`]
    ///   ([`PairSeed::scan`], the max-sum heap seed),
    /// * anchor `i`'s best GMM seed value ([`gmm_row_best`]), and
    /// * the first non-finite distance of the row,
    ///
    /// with `seed_weights = (rel, one_minus_lambda, lambda)`, and
    /// returns them as [`RowScans`]. Standalone, each of the three would
    /// re-stream the whole `O(n²)` triangle from memory; fused, they ride
    /// the build's own sweep for a few percent of extra compute.
    ///
    /// The build runs under a cooperative [`Deadline`]: each fill worker
    /// polls it (and a shared cancel flag, so one tripped worker stops
    /// the rest) before the next **row**, each mirror worker before the
    /// next **32-row block** of the lower triangle. Both are `O(n)`
    /// work, so an abandoned build overshoots its deadline by at most
    /// one row, then one block, per worker. Returns
    /// `Err(ServeError::DeadlineExceeded)` on abandonment — the
    /// partially filled matrix is dropped, never observed.
    ///
    /// The buffer is a parked allocation of exactly `stride²` elements
    /// when the free list has one (zeroed here, all of it), a fresh
    /// `vec![0.0; …]` otherwise; the fill, mirror and row scans below
    /// cannot tell the difference.
    pub(crate) fn try_build_with_seed(
        universe: &[Tuple],
        dis: &(dyn Distance + Sync),
        threads: usize,
        seed_weights: Option<(&[f64], f64, f64)>, // (rel_f, one_minus, lam)
        deadline: Deadline,
    ) -> Result<(Self, Option<RowScans>), ServeError> {
        let n = universe.len();
        let stride = n + matrix_pad(n);
        let mut data = match take_spare(stride * stride) {
            Some(mut recycled) => {
                recycled.fill(0.0);
                recycled
            }
            None => vec![0.0f64; stride * stride],
        };
        // Fills row i's strict upper triangle, then (fused mode) scans
        // the still-hot tail. Rows arrive stride-wide; everything past
        // column `n` is headroom and stays zero.
        let fill_row = |(i, row, slot): RowTask<'_>| {
            for (j, cell) in row[..n].iter_mut().enumerate().skip(i + 1) {
                *cell = dis.dist_f64(&universe[i], &universe[j]);
            }
            if let (Some(slot), Some((rel, one_minus, lam))) = (slot, seed_weights) {
                let row = &row[..n];
                let tail = &row[i + 1..];
                // Branch-free first, which vectorizes; the search, which
                // cannot, is never reached by a healthy row.
                let poisoned = tail.iter().fold(false, |bad, d| bad | !d.is_finite());
                *slot = RowScan {
                    ms: PairSeed::scan(i, rel, row, one_minus, lam),
                    gmm: gmm_row_best(i, rel, row, one_minus, lam),
                    non_finite: poisoned
                        .then(|| tail.iter().position(|d| !d.is_finite()))
                        .flatten()
                        .map(|off| i + 1 + off),
                };
            }
        };
        let unscanned = RowScan {
            ms: PairSeed::NONE,
            gmm: f64::NEG_INFINITY,
            non_finite: None,
        };
        let mut scans = seed_weights.map(|_| vec![unscanned; n]);
        // Row i holds n−1−i entries of the strict upper triangle, so
        // contiguous row batches would be badly imbalanced (the first
        // worker would own almost half the work). Deal rows round-robin
        // instead: each worker's share is then within one row of even.
        // A small matrix is filled inline — one bucket.
        let workers = if n * n < 4096 { 1 } else { threads.max(1) };
        let mut buckets: Vec<Vec<RowTask<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut slots = scans.iter_mut().flatten();
        for (i, row) in data.chunks_mut(stride).take(n).enumerate() {
            buckets[i % workers].push((i, row, slots.next()));
        }
        run_dealt(buckets, deadline, fill_row)?;
        // Below the free list's floor (1 MB) the copy is tens of µs and
        // a spawn costs more: mirror inline. Above it, a worker needs a
        // block to copy.
        let workers = match data.len() < SPARE_MIN_LEN {
            true => 1,
            false => workers.min(n.div_ceil(MIRROR_TILE)),
        };
        mirror_upper(&mut data, n, stride, workers, deadline)?;
        let scans = scans.map(|scans| RowScans {
            ms: scans.iter().map(|s| s.ms).collect(),
            gmm: scans.iter().map(|s| s.gmm).collect(),
            non_finite: scans
                .iter()
                .enumerate()
                .find_map(|(i, s)| s.non_finite.map(|j| (i, j))),
        });
        Ok((DistanceMatrix { n, stride, data }, scans))
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
    /// (`Ratio::from_f64_exact`) and subtracted from the oracle's
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

/// The float Gollapudi–Sharma pair weight
/// `w(i,j) = (1−λ)(r_i + r_j) + 2λ·d(i,j)`.
///
/// Every float evaluation of the max-sum weight — the memoized seed
/// build, its insert repair, the lazy heap's row rescans and the
/// near-tie pair collection — funnels through this one expression, so
/// all of them produce **bit-identical** floats for the same pair. That
/// identity is what makes the lazy heap's upper-bound invariant exact:
/// a cached score is the max of the same expression over a superset of
/// partners.
#[inline(always)]
pub(super) fn ms_weight_f64(one_minus: f64, lam: f64, ri: f64, rj: f64, dij: f64) -> f64 {
    one_minus * (ri + rj) + lam * 2.0 * dij
}

/// The float GMM seed value of a pair,
/// `(1−λ)·min(r_i, r_j) + λ·d(i,j)` — the `F_MM` value of `{i, j}`.
///
/// The one spelling of that expression: the fused build's row scan, its
/// lazy rebuild, the insert repairs and the seed's tie-window re-scan
/// all call it, so a row best, a repaired row best and a re-scanned
/// pair compare bit for bit.
#[inline(always)]
pub(super) fn gmm_seed_f64(one_minus: f64, lam: f64, ri: f64, rj: f64, dij: f64) -> f64 {
    one_minus * ri.min(rj) + lam * dij
}

/// `anchor`'s entry in the memoized GMM row-best preamble: the largest
/// [`gmm_seed_f64`] over its partners `j > anchor`, from its full
/// matrix `row` — the first partner's value, then a left-to-right
/// strict-`>` scan. `-∞` when the anchor has no partner (the last
/// item). The one scan behind the fused build and the lazy rebuild
/// after a removal; the insert repair is one more iteration of it.
#[inline]
pub(super) fn gmm_row_best(anchor: usize, rel: &[f64], row: &[f64], one_minus: f64, lam: f64) -> f64 {
    let ri = rel[anchor];
    let mut values = rel[anchor + 1..]
        .iter()
        .zip(&row[anchor + 1..])
        .map(|(rj, dij)| gmm_seed_f64(one_minus, lam, ri, *rj, *dij));
    let Some(mut best) = values.next() else {
        return f64::NEG_INFINITY;
    };
    for v in values {
        if v > best {
            best = v;
        }
    }
    best
}

/// One anchor's entry in the memoized max-sum preamble: its heaviest
/// partner `j > anchor` over the **full** universe, under
/// [`ms_weight_f64`]. `partner == usize::MAX` means the anchor has no
/// partner (the last item).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PairSeed {
    pub(super) score: f64,
    pub(super) partner: usize,
}

impl PairSeed {
    /// The seed of an anchor with no partner `j > anchor`.
    pub(super) const NONE: PairSeed = PairSeed {
        score: f64::NEG_INFINITY,
        partner: usize::MAX,
    };

    /// `anchor`'s seed from its full matrix `row`: a left-to-right
    /// strict-`>` scan of the partners `j > anchor` (float ties keep the
    /// earlier one). The one scan behind the fused build, the lazy
    /// rebuild after a removal, and — one step at a time — the insert
    /// repair.
    #[inline]
    pub(super) fn scan(anchor: usize, rel: &[f64], row: &[f64], one_minus: f64, lam: f64) -> PairSeed {
        let ri = rel[anchor];
        let mut seed = PairSeed::NONE;
        for (off, (rj, dij)) in rel[anchor + 1..].iter().zip(&row[anchor + 1..]).enumerate() {
            let w = ms_weight_f64(one_minus, lam, ri, *rj, *dij);
            if w > seed.score {
                seed = PairSeed {
                    score: w,
                    partner: anchor + 1 + off,
                };
            }
        }
        seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::TableDistance;
    use crate::engine::fixtures::{line_universe, DIS, REL};
    use crate::engine::{Engine, EngineRequest, PreparedUniverse, ScoreSource};
    use crate::problem::ObjectiveKind;
    use std::sync::Arc;

    /// The whole allocation — headroom rows and columns too — as bits.
    fn bits(m: &DistanceMatrix) -> Vec<u64> {
        m.data.iter().map(|d| d.to_bits()).collect()
    }

    /// Allocation length of a matrix built over `n` items.
    fn built_len(n: usize) -> usize {
        (n + matrix_pad(n)).pow(2)
    }

    /// Empties the free list of `len`-element buffers, so the next
    /// build of that size is `vec!`-backed.
    fn forget_spares(len: usize) {
        while take_spare(len).is_some() {}
    }

    /// The free list is process-wide and the test harness runs tests
    /// side by side: the tests that park buffers take turns, so one
    /// cannot age out what another just parked. No other unit test of
    /// this crate builds a matrix large enough to park (≥ 1 MB).
    static FREE_LIST_TESTS: Mutex<()> = Mutex::new(());

    fn free_list_turn() -> MutexGuard<'static, ()> {
        FREE_LIST_TESTS.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn recycled_build_is_bit_identical_to_fresh() {
        let _turn = free_list_turn();
        let n = 353;
        let u = line_universe(n as i64);
        let len = built_len(n);
        assert!(len >= SPARE_MIN_LEN, "large enough to be parked");
        let rel: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        for threads in [1, 2] {
            for fused in [false, true] {
                let weights = fused.then_some((rel.as_slice(), 0.5, 0.5));
                let build = || {
                    DistanceMatrix::try_build_with_seed(&u, &DIS, threads, weights, Deadline::none())
                        .unwrap()
                };
                forget_spares(len);
                let (mut fresh, fresh_seed) = build();
                // What a dropped matrix leaves behind, at its worst: an
                // allocation of the right size with no cell zero.
                let sentinel = vec![f64::NAN; len];
                let parked_at = sentinel.as_ptr();
                drop(DistanceMatrix { n: 0, stride: 0, data: sentinel });
                let (mut recycled, recycled_seed) = build();
                assert_eq!(recycled.data.as_ptr(), parked_at, "the build took the parked buffer");
                assert_eq!(bits(&recycled), bits(&fresh), "threads {threads}, fused {fused}");
                let seed_bits = |scans: Option<RowScans>| {
                    scans.map(|s| {
                        let ms: Vec<_> = s.ms.iter().map(|p| (p.score.to_bits(), p.partner)).collect();
                        let gmm: Vec<_> = s.gmm.iter().map(|v| v.to_bits()).collect();
                        (ms, gmm, s.non_finite)
                    })
                };
                assert_eq!(seed_bits(recycled_seed), seed_bits(fresh_seed));
                // Inserts grow into the headroom, then past it (one
                // re-stride); removals relabel in place. Both read
                // cells the build itself never wrote.
                let stride = fresh.stride;
                for step in 0..=stride - n {
                    let col: Vec<f64> = (0..fresh.n()).map(|i| (i + step) as f64).collect();
                    fresh.push_item(&col);
                    recycled.push_item(&col);
                }
                assert!(fresh.stride > stride, "the inserts crossed a re-stride");
                assert_eq!(bits(&recycled), bits(&fresh));
                for r in [fresh.n() - 1, 7, 0] {
                    fresh.swap_remove_item(r);
                    recycled.swap_remove_item(r);
                }
                assert_eq!(bits(&recycled), bits(&fresh));
            }
        }
    }

    #[test]
    fn expired_deadline_stops_the_mirror_before_its_first_block() {
        let (n, stride) = (70, 75);
        let mut data = vec![0.0f64; stride * stride];
        for i in 0..n {
            for j in i + 1..n {
                data[i * stride + j] = (i * n + j) as f64;
            }
        }
        let filled = data.clone();
        for workers in [1, 2, 3] {
            let expired = Deadline::at(std::time::Instant::now());
            assert_eq!(
                mirror_upper(&mut data, n, stride, workers, expired),
                Err(ServeError::DeadlineExceeded)
            );
            assert_eq!(data, filled, "{workers} workers: no block was copied");
        }
        // Unbounded, every worker count writes the same lower triangle
        // and nothing else.
        let mut mirrored = filled.clone();
        for i in 0..n {
            for j in 0..i {
                mirrored[i * stride + j] = filled[j * stride + i];
            }
        }
        for workers in [1, 2, 3] {
            let mut data = filled.clone();
            assert_eq!(mirror_upper(&mut data, n, stride, workers, Deadline::none()), Ok(()));
            assert_eq!(data, mirrored, "{workers} workers");
        }
    }

    #[test]
    fn refused_universe_parks_a_buffer_the_next_build_serves_clean() {
        /// `DIS`, except that every distance to the item keyed `0` is
        /// NaN on the float path.
        struct NanAtZero;
        impl Distance for NanAtZero {
            fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
                DIS.dist(a, b)
            }
            fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
                let zero = divr_relquery::Value::int(0);
                if a != b && (a.get(0) == Some(&zero) || b.get(0) == Some(&zero)) {
                    f64::NAN
                } else {
                    DIS.dist_f64(a, b)
                }
            }
        }

        let _turn = free_list_turn();
        let n = 347;
        let u = line_universe(n as i64);
        let len = built_len(n);
        assert!(len >= SPARE_MIN_LEN);
        let lambda = Ratio::new(1, 2);
        let healthy = || Arc::new(PreparedUniverse::build_shared(u.clone(), &REL, Arc::new(DIS), lambda, 2));
        forget_spares(len);
        let fresh = healthy();

        // Exactly what the serving layers do with a poisoned universe:
        // build, validate, refuse, drop — which parks its matrix.
        let refused = PreparedUniverse::build_shared(u.clone(), &REL, Arc::new(NanAtZero), lambda, 2);
        assert!(matches!(
            refused.check_finite(),
            Err(ServeError::NonFiniteScore { source: ScoreSource::Distance, .. })
        ));
        let parked_at = refused.matrix().data.as_ptr();
        drop(refused);

        let recycled = healthy();
        assert_eq!(recycled.matrix().data.as_ptr(), parked_at, "the build took the refused matrix");
        assert_eq!(recycled.check_finite(), Ok(()));
        assert_eq!(bits(recycled.matrix()), bits(fresh.matrix()));
        for kind in ObjectiveKind::ALL {
            let request = EngineRequest { kind, k: 9 };
            assert_eq!(
                Engine::from_prepared(recycled.clone(), 2).try_serve(request),
                Engine::from_prepared(fresh.clone(), 2).try_serve(request),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn free_list_is_bounded_and_ignores_small_buffers() {
        let _turn = free_list_turn();
        // Below 1 MB nothing is parked or handed out.
        let small = SPARE_MIN_LEN - 1;
        drop(DistanceMatrix { n: 0, stride: 0, data: vec![1.0; small] });
        assert!(take_spare(small).is_none());
        // Above it, however many matrices are dropped, at most
        // `default_threads()` buffers stay, and the oldest went first.
        let len = SPARE_MIN_LEN + 17;
        let cap = default_threads();
        let addresses: Vec<*const f64> = (0..cap + 2)
            .map(|_| {
                let data = vec![1.0; len];
                let at = data.as_ptr();
                drop(DistanceMatrix { n: 0, stride: 0, data });
                at
            })
            .collect();
        let (buffers, bytes) = spare_buffers();
        assert!(buffers <= cap && bytes >= buffers * SPARE_MIN_LEN * 8);
        // Newest first out; a size nobody parked is never matched.
        assert_eq!(take_spare(len).map(|b| b.as_ptr()), addresses.last().copied());
        assert!(take_spare(len + 1).is_none());
        forget_spares(len);
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
}
