//! Differential churn harness for mutable universes
//! ([`PreparedUniverse::insert_tuple`] / [`PreparedUniverse::remove_tuple`]):
//! random interleavings of inserts, removals, and serves must leave the
//! delta-maintained prepared state **bit-identical** to a from-scratch
//! prepare of the same universe at every step —
//!
//! * the flat distance matrix, entry by entry, compared as `f64` bits;
//! * the one delta rule: every op, insert or removal, leaves all five
//!   memoized preambles (max-sum seed, GMM row bests and seed pair,
//!   mono scores, exact mono sums) unpopulated until a request needs
//!   one; the max-sum seed is rebuilt exactly once per delta that an
//!   `F_MS` request follows (`ms_preamble_builds`);
//! * the oracle work: an insert makes exactly `n` `dist_f64` calls (the
//!   new matrix column), a removal none, and every request after a
//!   delta makes exactly the oracle calls the same request makes on the
//!   scratch prepare — the lazy rebuilds read the matrix, not the oracle;
//! * every served answer (exact `Ratio` value *and* index set) across
//!   all three objectives and a range of `k`;
//! * the memoized solver preambles after warming both sides: the mono
//!   scores (bits), the exact mono distance sums (carried by a fork),
//!   the GMM row bests (bits), the GMM exact seed pair, and the
//!   per-anchor max-sum best-partner seed (bits + partner index).
//!
//! Three universe families keep the exact-`Ratio` tie fallback honest
//! through deltas: *regular* (random integer scores), *all-tied* (every
//! relevance equal, every distance equal — every candidate ties, so the
//! answer is decided entirely by the exact-arithmetic lex tie-break),
//! and *near-tied* (scores differing by at most 1, keeping many
//! candidates inside the float tie window). A fourth, *keyed*, swaps
//! the pair table for a [`NumericDistance`] over few distinct keys, the
//! one family whose oracle offers a key column — there the exact mono
//! sums are a populated memo, not just "no column". Integer workloads make
//! `f64` arithmetic exact, so any divergence is a real rebuild bug, not
//! float noise.

use divr::core::distance::{Distance, TableDistance};
use divr::core::engine::{DeltaError, Engine, EngineRequest, PreparedUniverse, ServeError};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::Ratio;
use divr::relquery::Tuple;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuples held in reserve for insertion during churn.
const POOL: usize = 8;

/// One churn scenario: an initial universe, reserve tuples, and an op
/// tape. Scores cover base *and* pool tuples so every reachable
/// universe is fully specified up front.
#[derive(Debug, Clone)]
struct RawChurn {
    n0: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
    /// `(op, x)`: `op == 0` inserts the next pool tuple, `op == 1`
    /// removes index `x % n` (skipped when it would shrink below 2).
    ops: Vec<(u8, usize)>,
    /// Distances are `|key_i − key_j|` with `key_i = dists[i] − 15`
    /// (behind a [`NumericDistance`]) instead of the pair table.
    keyed: bool,
}

/// `family`: 0 = regular, 1 = all-tied, 2 = near-tied, 3 = keyed.
fn churn_strategy(family: u8) -> impl Strategy<Value = RawChurn> {
    (3usize..=10, 0i64..=2)
        .prop_flat_map(move |(n0, lambda_num)| {
            let total = n0 + POOL;
            (
                Just(n0),
                Just(lambda_num),
                proptest::collection::vec(0i64..=20, total),
                proptest::collection::vec(0i64..=30, total * (total - 1) / 2),
                proptest::collection::vec((0u8..2, 0usize..64), 1..=8),
            )
        })
        .prop_map(move |(n0, lambda_num, mut rels, mut dists, ops)| {
            match family {
                1 => {
                    // All-tied: one relevance, one distance, everywhere.
                    let (r, d) = (rels[0], dists[0]);
                    rels.iter_mut().for_each(|x| *x = r);
                    dists.iter_mut().for_each(|x| *x = d);
                }
                2 => {
                    // Near-tied: scores differ by at most 1.
                    let (r, d) = (rels[0], dists[0]);
                    rels.iter_mut().for_each(|x| *x = r + (*x & 1));
                    dists.iter_mut().for_each(|x| *x = d + (*x & 1));
                }
                _ => {}
            }
            RawChurn {
                n0,
                lambda_num,
                rels,
                dists,
                ops,
                keyed: family == 3,
            }
        })
}

/// An oracle that counts its calls — `dist`, `dist_f64`, `key_column`
/// — and forwards each, the key column included, so the keyed family
/// keeps its memo.
struct Counting {
    inner: Arc<dyn Distance + Send + Sync>,
    calls: [AtomicUsize; 3],
}

impl Counting {
    fn calls(&self) -> [usize; 3] {
        self.calls.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    /// What `run` cost in oracle calls.
    fn during<R>(&self, run: impl FnOnce() -> R) -> (R, [usize; 3]) {
        let before = self.calls();
        let out = run();
        let after = self.calls();
        (out, std::array::from_fn(|c| after[c] - before[c]))
    }

    fn count(&self, which: usize) {
        self.calls[which].fetch_add(1, Ordering::Relaxed);
    }
}

impl Distance for Counting {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.count(0);
        self.inner.dist(a, b)
    }
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        self.count(1);
        self.inner.dist_f64(a, b)
    }
    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        self.count(2);
        self.inner.key_column(items)
    }
    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
}

struct Scores {
    tuples: Vec<Tuple>,
    rel: TableRelevance,
    dis: Arc<Counting>,
    lambda: Ratio,
}

fn scores_of(raw: &RawChurn) -> Scores {
    let total = raw.n0 + POOL;
    let tuples: Vec<Tuple> = (0..total)
        .map(|i| Tuple::ints([i as i64, raw.dists[i] - 15]))
        .collect();
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for (t, &r) in tuples.iter().zip(&raw.rels) {
        rel.set(t.clone(), Ratio::int(r));
    }
    let dis: Arc<dyn Distance + Send + Sync> = if raw.keyed {
        Arc::new(NumericDistance {
            attr: 1,
            fallback: Ratio::ZERO,
        })
    } else {
        let mut table = TableDistance::with_default(Ratio::ZERO);
        let mut it = raw.dists.iter();
        for i in 0..total {
            for j in (i + 1)..total {
                table.set(
                    tuples[i].clone(),
                    tuples[j].clone(),
                    Ratio::int(*it.next().unwrap()),
                );
            }
        }
        Arc::new(table)
    };
    Scores {
        tuples,
        rel,
        dis: Arc::new(Counting {
            inner: dis,
            calls: Default::default(),
        }),
        lambda: Ratio::new(raw.lambda_num, 2),
    }
}

fn build(scores: &Scores, ids: &[usize]) -> PreparedUniverse {
    PreparedUniverse::build_shared(
        ids.iter().map(|&i| scores.tuples[i].clone()).collect(),
        &scores.rel,
        scores.dis.clone(),
        scores.lambda,
        1,
    )
}

/// One served request: its answer and the oracle calls it made.
type Served = (
    ObjectiveKind,
    usize,
    Result<(Ratio, Vec<usize>), ServeError>,
    [usize; 3],
);

/// Serves every objective at every `k` in `ks` (warming all the
/// memoized preambles as a side effect) and hands the prepared state
/// back for further mutation.
fn warm_and_serve(
    prepared: PreparedUniverse,
    dis: &Counting,
    ks: &[usize],
) -> (PreparedUniverse, Vec<Served>) {
    let arc = Arc::new(prepared);
    let engine = Engine::from_prepared(arc.clone(), 1);
    let mut answers = Vec::new();
    for kind in ObjectiveKind::ALL {
        for &k in ks {
            let (answer, calls) = dis.during(|| engine.try_serve(EngineRequest { kind, k }));
            answers.push((kind, k, answer, calls));
        }
    }
    drop(engine);
    (Arc::try_unwrap(arc).expect("sole owner"), answers)
}

fn matrix_bits(p: &PreparedUniverse) -> Vec<u64> {
    let n = p.n();
    (0..n)
        .flat_map(|i| p.matrix().row(i).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect()
}

fn mono_bits(p: &PreparedUniverse) -> Option<Vec<u64>> {
    p.mono_preamble()
        .map(|s| s.iter().map(|x| x.to_bits()).collect())
}

/// The exact mono distance sums, checked against the oracle pair by
/// pair whenever the memo holds a column.
fn mono_sums(p: &PreparedUniverse) -> Result<Option<Option<Vec<i128>>>, TestCaseError> {
    let memo = p.mono_sums_preamble().map(|m| m.map(<[i128]>::to_vec));
    if let Some(Some(sums)) = &memo {
        for (i, &sum) in sums.iter().enumerate() {
            let pairwise: Ratio = (0..p.n()).map(|j| p.dist_of(i, j)).sum();
            prop_assert_eq!(Ratio::new_i128(sum, 1), pairwise, "exact mono sum of item {}", i);
        }
    }
    Ok(memo)
}

fn gmm_rows_bits(p: &PreparedUniverse) -> Option<Vec<u64>> {
    p.gmm_rows_preamble()
        .map(|s| s.iter().map(|x| x.to_bits()).collect())
}

fn ms_bits(p: &PreparedUniverse) -> Option<Vec<(u64, usize)>> {
    p.ms_preamble()
        .map(|v| v.into_iter().map(|(s, i)| (s.to_bits(), i)).collect())
}

fn churn_case(raw: &RawChurn) -> Result<(), TestCaseError> {
    let scores = scores_of(raw);
    let dis = &*scores.dis;
    let total = raw.n0 + POOL;

    // `cur` mirrors the delta-maintained universe: ids in prepared
    // order (inserts append; removals swap-remove).
    let mut cur: Vec<usize> = (0..raw.n0).collect();
    let mut pool_next = raw.n0;
    let mut deltas = 0usize;

    let mut prepared = build(&scores, &cur);
    // Warm before the first delta, so every op goes through populated
    // preambles.
    let ks: Vec<usize> = (1..=cur.len().min(4)).collect();
    let (p, _) = warm_and_serve(prepared, dis, &ks);
    prepared = p;

    for &(op, x) in &raw.ops {
        let n = cur.len();
        if op == 0 {
            if pool_next >= total {
                continue;
            }
            let id = pool_next;
            pool_next += 1;
            let ((), calls) = dis.during(|| {
                prepared.insert_tuple(scores.tuples[id].clone(), Ratio::int(raw.rels[id]))
            });
            prop_assert_eq!(calls, [0, n, 0], "an insert's oracle work: its column");
            cur.push(id);
        } else {
            if n <= 2 {
                continue;
            }
            let i = x % n;
            let (removed, calls) = dis.during(|| prepared.remove_tuple(i));
            prop_assert_eq!(calls, [0, 0, 0], "a removal calls no oracle");
            let id = cur.swap_remove(i);
            let removed = removed.expect("index is in range by construction");
            prop_assert_eq!(&removed, &scores.tuples[id], "wrong tuple came back");
        }
        deltas += 1;

        // One delta rule: whatever the op, nothing memoized survives it.
        prop_assert_eq!(ms_bits(&prepared), None, "max-sum seed after a delta");
        prop_assert_eq!(gmm_rows_bits(&prepared), None, "gmm row bests, same");
        prop_assert_eq!(prepared.gmm_preamble(), None, "gmm seed pair, same");
        prop_assert_eq!(mono_bits(&prepared), None, "mono scores, same");
        prop_assert_eq!(prepared.mono_sums_preamble(), None, "exact mono sums, same");

        // From-scratch reference over the same content and order.
        let scratch = build(&scores, &cur);
        prop_assert_eq!(prepared.n(), scratch.n());
        prop_assert_eq!(
            matrix_bits(&prepared),
            matrix_bits(&scratch),
            "matrix bits diverged after {} ops",
            deltas
        );

        // Serve both sides across all objectives and k, then compare
        // answers, oracle calls and the warmed preambles bit-for-bit.
        // The delta side rebuilds each preamble on its objective's first
        // request, from the matrix: no oracle call beyond the scratch
        // side's.
        let ks: Vec<usize> = (1..=cur.len().min(4)).collect();
        let (p, delta_answers) = warm_and_serve(prepared, dis, &ks);
        prepared = p;
        let (scratch, scratch_answers) = warm_and_serve(scratch, dis, &ks);
        for ((kind, k, da, dc), (_, _, sa, sc)) in delta_answers.iter().zip(&scratch_answers) {
            prop_assert_eq!(da, sa, "{} k={}: answers diverged", kind, k);
            let calls = "oracle calls (dist, dist_f64, key_column)";
            prop_assert_eq!(dc, sc, "{} k={}: {}", kind, k, calls);
        }
        prop_assert_eq!(mono_bits(&prepared), mono_bits(&scratch), "mono preamble");
        let memo = mono_sums(&prepared)?;
        prop_assert_eq!(&memo, &mono_sums(&scratch)?, "exact mono sums");
        prop_assert_eq!(&memo, &mono_sums(&prepared.fork())?, "a fork carries the exact mono sums");
        prop_assert_eq!(matches!(memo, Some(Some(_))), raw.keyed, "column offered iff keyed");
        let rows = gmm_rows_bits(&prepared);
        prop_assert!(rows.is_some(), "max_min rebuilt the gmm row bests");
        prop_assert_eq!(&rows, &gmm_rows_bits(&scratch), "gmm row bests");
        prop_assert_eq!(&rows, &gmm_rows_bits(&prepared.fork()), "a fork carries the gmm row bests");
        prop_assert_eq!(
            prepared.gmm_preamble(),
            scratch.gmm_preamble(),
            "gmm seed pair"
        );
        prop_assert_eq!(ms_bits(&prepared), ms_bits(&scratch), "max-sum seed");

        // The build's one seed, then one rebuild per delta an `F_MS`
        // request followed (every delta here).
        prop_assert_eq!(
            prepared.ms_preamble_builds(),
            1 + deltas,
            "max-sum preamble rebuilt on the wrong schedule"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Regular family: random integer scores.
    #[test]
    fn churn_matches_scratch_regular(raw in churn_strategy(0)) {
        churn_case(&raw)?;
    }

    /// All-tied family: every serve is decided purely by the exact
    /// `Ratio` tie fallback and the lex tie-break — through deltas.
    #[test]
    fn churn_matches_scratch_all_tied(raw in churn_strategy(1)) {
        churn_case(&raw)?;
    }

    /// Near-tied family: many candidates inside the float tie window.
    #[test]
    fn churn_matches_scratch_near_tied(raw in churn_strategy(2)) {
        churn_case(&raw)?;
    }

    /// Keyed family: a key-column oracle, so the exact mono sums are
    /// memoized, and dropped by every delta.
    #[test]
    fn churn_matches_scratch_keyed(raw in churn_strategy(3)) {
        churn_case(&raw)?;
    }
}

/// Shrinking below `k` is a typed condition, not a panic: after
/// removals make `k > n`, `try_serve` reports `InfeasibleK` and
/// out-of-range removals report `IndexOutOfRange`.
#[test]
fn churn_to_infeasible_k_is_typed() {
    let raw = RawChurn {
        n0: 4,
        lambda_num: 1,
        rels: (0..(4 + POOL) as i64).collect(),
        dists: vec![5; (4 + POOL) * (4 + POOL - 1) / 2],
        ops: vec![],
        keyed: false,
    };
    let scores = scores_of(&raw);
    let mut prepared = build(&scores, &[0, 1, 2, 3]);
    prepared.remove_tuple(0).unwrap();
    assert_eq!(
        prepared.remove_tuple(3),
        Err(DeltaError::IndexOutOfRange { index: 3, n: 3 })
    );
    let engine = Engine::from_prepared(Arc::new(prepared), 1);
    assert_eq!(
        engine.try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 4 }),
        Err(ServeError::InfeasibleK { k: 4, n: 3 })
    );
}
