//! Differential suite for the one-pass cold prepare: everything the
//! fused matrix build records while a row is hot must equal what a
//! separate pass over the finished matrix computes.
//!
//! * (a) the GMM row bests from the fused build ≡ the standalone scan
//!   (the lazy rebuild a removal forces) ≡ a naive double loop kept
//!   here, bit for bit; the seed pair resolved from them and the
//!   `max_min` answers ≡ [`approx::gmm_max_min`];
//! * (b) the finiteness verdict the build records ≡ a row-major scan of
//!   the served matrix kept here, for `NaN`/`±∞` injected at random
//!   pairs, over keyed / keyless / Hamming oracles, full-matrix and
//!   coreset; a refused universe is never cached; after an insert the
//!   full-scan fallback and `check_finite_item` name the same pair;
//! * (c) both triangles of the built matrix ≡ per-pair `dist_f64`, and
//!   `(i, j)` ≡ `(j, i)` bitwise — the tiled mirror copies, it never
//!   recomputes.
//!
//! `n` straddles the mirror's 32-cell tile edges; one size is above
//! 1 MB of matrix, where the mirror runs on the fill's workers.
//! Non-finite *relevance* cannot be injected: [`Relevance::rel`] returns
//! an exact `Ratio`, whose `f64` is always finite.

mod common;

use common::{behind_closure, numeric, REL};
use divr::core::approx;
use divr::core::coreset::{CoresetConfig, PreparedCoreset};
use divr::core::distance::{Distance, HammingDistance};
use divr::core::engine::{DistanceMatrix, Engine, PreparedUniverse, ScoreSource, ServeError};
use divr::core::prelude::*;
use divr::core::{Deadline, Ratio};
use divr::relquery::Tuple;
use divr::server::{
    CoresetSpec, FingerprintEncoder, Fingerprintable, Registry, ServableDistance, UniverseSpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// Sizes on both sides of one, two and three 32-cell tiles.
const TILE_EDGES: [usize; 9] = [1, 2, 31, 32, 33, 63, 64, 65, 97];

/// Smallest `n` used whose matrix allocation exceeds 1 MB, so a
/// multi-threaded build mirrors on its workers.
const PARALLEL_MIRROR_N: usize = 370;

fn draws(seed: u64) -> impl FnMut(i64) -> i64 {
    let mut state = seed | 1;
    move |below| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64) % below
    }
}

/// Arbitrary symmetric integer distances over tuples `[id, score]`,
/// looked up by id.
struct PairTable {
    n: usize,
    cells: Vec<i64>,
}

impl Distance for PairTable {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        let id = |t: &Tuple| t[0].as_int().expect("integer id") as usize;
        let (i, j) = (id(a).min(id(b)), id(a).max(id(b)));
        if i == j {
            Ratio::ZERO
        } else {
            Ratio::int(self.cells[i * self.n + j])
        }
    }
}

/// `family`: 0 = random scores, 1 = all tied (every pair ties, so the
/// seed is decided by the exact lexicographic rule alone), 2 = near
/// tied (scores differ by at most 1).
fn instance(family: u8, n: usize, seed: u64) -> (Vec<Tuple>, Arc<PairTable>) {
    let mut draw = draws(seed);
    let (r0, d0) = (draw(20), draw(30));
    let mut score = |spread: i64, base: i64| match family {
        0 => draw(spread),
        1 => base,
        _ => base + draw(2),
    };
    let universe = (0..n)
        .map(|i| Tuple::ints([i as i64, score(21, r0)]))
        .collect();
    let cells = (0..n * n).map(|_| score(31, d0)).collect();
    (universe, Arc::new(PairTable { n, cells }))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The row bests by definition: for each anchor the first partner's
/// value, then strict `>`; `-∞` for the last item.
fn naive_row_bests(universe: &[Tuple], dis: &dyn Distance, lambda: Ratio) -> Vec<f64> {
    let rel: Vec<f64> = universe.iter().map(|t| REL.rel(t).to_f64()).collect();
    let (one_minus, lam) = ((Ratio::ONE - lambda).to_f64(), lambda.to_f64());
    (0..universe.len())
        .map(|i| {
            let mut best: Option<f64> = None;
            for j in i + 1..universe.len() {
                let v = one_minus * rel[i].min(rel[j])
                    + lam * dis.dist_f64(&universe[i], &universe[j]);
                if best.is_none_or(|b| v > b) {
                    best = Some(v);
                }
            }
            best.unwrap_or(f64::NEG_INFINITY)
        })
        .collect()
}

/// (c): every cell of the served matrix against the oracle.
fn assert_matrix_is_the_oracle(
    m: &DistanceMatrix,
    universe: &[Tuple],
    dis: &dyn Distance,
) -> Result<(), TestCaseError> {
    for i in 0..universe.len() {
        prop_assert_eq!(m.get(i, i).to_bits(), 0.0f64.to_bits(), "diagonal {}", i);
        for j in i + 1..universe.len() {
            let d = dis.dist_f64(&universe[i], &universe[j]).to_bits();
            prop_assert_eq!(m.get(i, j).to_bits(), d, "upper ({}, {})", i, j);
            prop_assert_eq!(m.get(j, i).to_bits(), d, "lower ({}, {})", j, i);
        }
    }
    Ok(())
}

/// (a) and (c) for one instance at one thread count.
fn fused_case(family: u8, n: usize, lambda: Ratio, threads: usize, seed: u64) -> Result<(), TestCaseError> {
    let (universe, dis) = instance(family, n, seed);
    let built = PreparedUniverse::build_shared(universe.clone(), &REL, dis.clone(), lambda, threads);
    assert_matrix_is_the_oracle(built.matrix(), &universe, &*dis)?;
    prop_assert_eq!(built.check_finite(), Ok(()));

    let naive = bits(&naive_row_bests(&universe, &*dis, lambda));
    let fused = built.gmm_rows_preamble().expect("built with the matrix");
    prop_assert_eq!(&bits(fused), &naive, "fused build vs naive loop");
    prop_assert_eq!(built.gmm_preamble(), None, "the seed pair is resolved lazily");

    // The standalone scan: one item more, removed again — removing the
    // last index keeps the order and drops every preamble, so the first
    // max_min rebuilds the row bests from the finished matrix.
    let mut grown = universe.clone();
    grown.push(Tuple::ints([n as i64, 3]));
    let grown_dis = Arc::new(PairTable {
        n: n + 1,
        cells: (0..(n + 1) * (n + 1)).map(|c| (c % 7) as i64).collect(),
    });
    let mut shrunk = PreparedUniverse::build_shared(grown, &REL, grown_dis, lambda, threads);
    shrunk.remove_tuple(n).expect("in range");
    prop_assert!(shrunk.gmm_rows_preamble().is_none(), "a removal drops the row bests");
    if n >= 2 {
        let shrunk_naive = bits(&naive_row_bests(shrunk.universe(), shrunk.distance(), lambda));
        let engine = Engine::from_prepared(Arc::new(shrunk), threads);
        prop_assert!(engine.gmm_max_min(2).is_some());
        let rebuilt = engine.prepared().gmm_rows_preamble().expect("rebuilt by max_min");
        prop_assert_eq!(&bits(rebuilt), &shrunk_naive, "lazy rebuild vs naive loop");
    }

    // The seed resolved from the stored floats, and every answer grown
    // from it, against the exact sequential reference.
    let engine = Engine::from_prepared(Arc::new(built), threads);
    for k in [2usize, 3, 5] {
        if k > n {
            continue;
        }
        let p = DiversityProblem::new(universe.clone(), &REL, &*dis, lambda, k);
        let reference = approx::gmm_max_min(&p);
        prop_assert_eq!(&engine.gmm_max_min(k), &reference, "k = {}", k);
        if k == 2 {
            let seed = reference.map(|pair| (pair[0], pair[1]));
            prop_assert_eq!(engine.prepared().gmm_preamble(), Some(seed), "seed pair");
        }
    }
    if n < 2 {
        prop_assert!(engine.gmm_max_min(2).is_none());
    }
    Ok(())
}

/// An oracle whose float path answers `value` for chosen pairs of
/// tuples and the wrapped oracle's value everywhere else. Exact
/// distances are the wrapped oracle's; no key column is offered (a
/// column reader would not see the injection).
struct InjectAt {
    inner: Arc<dyn Distance + Send + Sync>,
    pairs: Vec<(Tuple, Tuple, f64)>,
}

impl Distance for InjectAt {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.inner.dist(a, b)
    }
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        self.pairs
            .iter()
            .find(|(x, y, _)| (x == a && y == b) || (x == b && y == a))
            .map_or_else(|| self.inner.dist_f64(a, b), |&(_, _, value)| value)
    }
}

impl Fingerprintable for InjectAt {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("test:inject-at");
        for (a, b, value) in &self.pairs {
            enc.write_str(&format!("{a:?}|{b:?}|{:x}", value.to_bits()));
        }
    }
}

/// `[key, score, id]` tuples: few keys and scores (ties everywhere),
/// distinct ids (so a pair of tuples names one pair of items).
fn keyed_universe(n: usize, seed: u64) -> Vec<Tuple> {
    let mut draw = draws(seed);
    (0..n)
        .map(|i| Tuple::ints([draw(41) - 20, draw(7), i as i64]))
        .collect()
}

fn oracle(kind: u8) -> Arc<dyn Distance + Send + Sync> {
    match kind {
        0 => Arc::new(numeric(0)),
        1 => Arc::new(behind_closure(numeric(0))),
        _ => Arc::new(HammingDistance::default()),
    }
}

/// What `check_finite` is specified to return for distances: the first
/// non-finite cell of a row-major scan.
fn row_major_verdict(m: &DistanceMatrix) -> Result<(), ServeError> {
    for i in 0..m.n() {
        if let Some(j) = m.row(i).iter().position(|d| !d.is_finite()) {
            return Err(ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                i,
                j,
            });
        }
    }
    Ok(())
}

fn poisoned_case(
    kind: u8,
    n: usize,
    threads: usize,
    budget: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let universe = keyed_universe(n, seed);
    let mut draw = draws(seed ^ 0x9E37_79B9_7F4A_7C15);
    let pairs: Vec<(Tuple, Tuple, f64)> = (0..1 + draw(3))
        .map(|_| {
            let a = draw(n as i64) as usize;
            let b = (a + 1 + draw(n as i64 - 1) as usize) % n;
            let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][draw(3) as usize];
            (universe[a].clone(), universe[b].clone(), value)
        })
        .collect();
    let poisoned = Arc::new(InjectAt {
        inner: oracle(kind),
        pairs,
    });
    let lambda = Ratio::new(1, 2);

    // Full matrix: the build's record, a fork's copy of it, and the
    // registry's refusal all equal the scan of the matrix as served.
    let full = PreparedUniverse::build_shared(universe.clone(), &REL, poisoned.clone(), lambda, threads);
    assert_matrix_is_the_oracle(full.matrix(), &universe, &*poisoned)?;
    let verdict = row_major_verdict(full.matrix());
    prop_assert!(verdict.is_err(), "an off-diagonal pair was poisoned");
    prop_assert_eq!(full.check_finite(), verdict);
    prop_assert_eq!(full.fork().check_finite(), verdict);
    let servable: Arc<dyn ServableDistance> = poisoned.clone();
    let spec = UniverseSpec::new(universe.clone(), Arc::new(REL), servable, lambda);
    let registry = Registry::default();
    for attempt in 1..=2 {
        prop_assert_eq!(registry.try_prepare(&spec).map(|_| ()), verdict);
        let stats = registry.stats();
        prop_assert_eq!((stats.entries, stats.bytes), (0, 0), "a refused universe was cached");
        prop_assert_eq!((stats.hits, stats.misses), (0, attempt));
    }

    // Coreset: the m × m sub-matrix goes through the same fused build.
    // (A selection whose coverage stops ordering refuses by itself.)
    let config = CoresetConfig::with_budget(budget).with_threads(threads);
    let coreset = PreparedCoreset::try_build_shared_deadline(
        universe.clone(),
        &REL,
        poisoned.clone(),
        lambda,
        &config,
        Deadline::none(),
    );
    let direct = match &coreset {
        Ok(prepared) => {
            let verdict = row_major_verdict(prepared.sub().matrix());
            prop_assert_eq!(prepared.check_finite(), verdict);
            verdict
        }
        Err(refused) => {
            let by_selection = matches!(
                refused,
                ServeError::NonFiniteScore { source: ScoreSource::Distance, .. }
            );
            prop_assert!(by_selection, "{:?}", refused);
            Err(*refused)
        }
    };
    let spec = spec.with_coreset(CoresetSpec::with_budget(budget));
    let registry = Registry::default();
    prop_assert_eq!(registry.try_prepare(&spec).map(|_| ()), direct);
    if direct.is_err() {
        prop_assert_eq!(registry.stats().entries, 0, "a refused coreset was cached");
    }
    Ok(())
}

/// A healthy universe, then a row poisoned against one resident item:
/// the build's record is gone, so `check_finite` scans — and names the
/// pair `check_finite_item` names, from the other side.
fn poisoned_insert_case(kind: u8, n: usize, threads: usize, seed: u64) -> Result<(), TestCaseError> {
    let universe = keyed_universe(n, seed);
    let mut draw = draws(seed ^ 0x5851_F42D_4C95_7F2D);
    let newcomer = Tuple::ints([draw(41) - 20, draw(7), n as i64]);
    let against = draw(n as i64) as usize;
    let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][draw(3) as usize];
    let dis = Arc::new(InjectAt {
        inner: oracle(kind),
        pairs: vec![(universe[against].clone(), newcomer.clone(), value)],
    });
    let mut prepared =
        PreparedUniverse::build_shared(universe, &REL, dis, Ratio::new(1, 2), threads);
    prop_assert_eq!(prepared.check_finite(), Ok(()));
    prepared.insert_tuple(newcomer.clone(), REL.rel(&newcomer));
    let pair = |i, j| {
        Err(ServeError::NonFiniteScore {
            source: ScoreSource::Distance,
            i,
            j,
        })
    };
    prop_assert_eq!(prepared.check_finite(), pair(against, n), "full-scan fallback");
    prop_assert_eq!(prepared.check_finite(), row_major_verdict(prepared.matrix()));
    prop_assert_eq!(prepared.check_finite_item(n), pair(n, against));
    prop_assert!(prepared.gmm_rows_preamble().is_none(), "unorderable scores drop the preambles");
    // Removing the poisoned row heals the universe; still no record.
    prepared.remove_tuple(n).expect("in range");
    prop_assert_eq!(prepared.check_finite(), Ok(()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) + (c) over the tile-edge sizes.
    #[test]
    fn fused_row_bests_seed_and_matrix_match_separate_passes(
        family in 0u8..3,
        size in 0usize..TILE_EDGES.len(),
        lambda_num in 0i64..=2,
        threads in 1usize..=3,
        seed in 0u64..=u64::MAX / 2,
    ) {
        fused_case(family, TILE_EDGES[size], Ratio::new(lambda_num, 2), threads, seed)?;
    }

    /// (b) a poisoned build.
    #[test]
    fn recorded_verdict_is_the_row_major_scan(
        kind in 0u8..3,
        n in 2usize..=70,
        threads in 1usize..=3,
        budget in 2usize..=12,
        seed in 0u64..=u64::MAX / 2,
    ) {
        poisoned_case(kind, n, threads, budget, seed)?;
    }

    /// (b) a poisoned insert into a healthy build.
    #[test]
    fn after_an_insert_the_full_scan_and_the_item_scan_agree(
        kind in 0u8..3,
        n in 1usize..=40,
        threads in 1usize..=3,
        seed in 0u64..=u64::MAX / 2,
    ) {
        poisoned_insert_case(kind, n, threads, seed)?;
    }
}

/// (a) + (b) + (c) once above 1 MB of matrix, where a multi-threaded
/// build deals the mirror's blocks to its workers.
#[test]
fn parallel_mirror_size_matches_separate_passes() {
    let n = PARALLEL_MIRROR_N;
    let probe = keyed_universe(n, 1);
    assert!(DistanceMatrix::build(&probe, &numeric(0), 1).approx_bytes() >= 1 << 20);
    for family in 0..3 {
        for threads in 1..=3 {
            fused_case(family, n, Ratio::new(1, 2), threads, 0xF05E_D000 + u64::from(family))
                .unwrap_or_else(|e| panic!("family {family}, threads {threads}: {e:?}"));
        }
    }
    for threads in 1..=3 {
        poisoned_case(0, n, threads, 12, 0xBAD_5EED)
            .unwrap_or_else(|e| panic!("threads {threads}: {e:?}"));
    }
}
