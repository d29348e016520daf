//! Differential churn harness for mutable universes
//! ([`PreparedUniverse::insert_tuple`] / [`PreparedUniverse::remove_tuple`]):
//! random interleavings of inserts, removals, and serves must leave the
//! delta-maintained prepared state **bit-identical** to a from-scratch
//! prepare of the same universe at every step —
//!
//! * the flat distance matrix, entry by entry, compared as `f64` bits;
//! * every served answer (exact `Ratio` value *and* index set) across
//!   all three objectives and a range of `k`;
//! * the memoized solver preambles after warming both sides: the mono
//!   score/d-sum vector (bits), the exact mono distance sums (repaired
//!   in integer adds per insert, carried by a fork), the GMM row bests
//!   (bits: an insert's repair ≡ the scratch build's fused scan ≡ a
//!   fork's copy, before any request; a removal leaves them
//!   unpopulated until `max_min` rebuilds them), the GMM exact seed
//!   pair, and the per-anchor max-sum best-partner seed (bits + partner
//!   index);
//! * the repair-vs-rebuild discipline: inserts *repair* the max-sum
//!   seed in place (`ms_preamble_builds` stays at its construction
//!   count), removals invalidate and lazily rebuild (exactly one extra
//!   build per removal).
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
//! `f64` arithmetic exact, so any divergence is a real repair bug, not
//! float noise.

use divr::core::distance::{Distance, TableDistance};
use divr::core::engine::{DeltaError, Engine, EngineRequest, PreparedUniverse, ServeError};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::Ratio;
use divr::relquery::Tuple;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
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

struct Scores {
    tuples: Vec<Tuple>,
    rel: TableRelevance,
    dis: Arc<dyn Distance + Send + Sync>,
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
        dis,
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

/// Serves every objective at every `k` in `ks` (warming all three
/// memoized preambles as a side effect) and hands the prepared state
/// back for further mutation.
#[allow(clippy::type_complexity)]
fn warm_and_serve(
    prepared: PreparedUniverse,
    ks: &[usize],
) -> (
    PreparedUniverse,
    Vec<(ObjectiveKind, usize, Result<(Ratio, Vec<usize>), ServeError>)>,
) {
    let arc = Arc::new(prepared);
    let engine = Engine::from_prepared(arc.clone(), 1);
    let mut answers = Vec::new();
    for kind in ObjectiveKind::ALL {
        for &k in ks {
            answers.push((kind, k, engine.try_serve(EngineRequest { kind, k })));
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
    let total = raw.n0 + POOL;

    // `cur` mirrors the delta-maintained universe: ids in prepared
    // order (inserts append; removals swap-remove).
    let mut cur: Vec<usize> = (0..raw.n0).collect();
    let mut pool_next = raw.n0;
    let mut removals = 0usize;

    let mut prepared = build(&scores, &cur);
    // Warm before the first delta so inserts exercise the preamble
    // *repair* paths, not lazy first builds.
    let ks: Vec<usize> = (1..=cur.len().min(4)).collect();
    let (p, _) = warm_and_serve(prepared, &ks);
    prepared = p;

    for &(op, x) in &raw.ops {
        if op == 0 {
            if pool_next >= total {
                continue;
            }
            let id = pool_next;
            pool_next += 1;
            prepared.insert_tuple(scores.tuples[id].clone(), Ratio::int(raw.rels[id]));
            cur.push(id);
        } else {
            if cur.len() <= 2 {
                continue;
            }
            let i = x % cur.len();
            let removed = prepared
                .remove_tuple(i)
                .expect("index is in range by construction");
            let id = cur.swap_remove(i);
            prop_assert_eq!(&removed, &scores.tuples[id], "wrong tuple came back");
            removals += 1;
        }

        // From-scratch reference over the same content and order.
        let scratch = build(&scores, &cur);
        prop_assert_eq!(prepared.n(), scratch.n());
        // Before any request: an insert repaired the warm row bests
        // into what the scratch build's fused scan wrote; a removal
        // dropped them.
        if op == 0 {
            prop_assert_eq!(gmm_rows_bits(&prepared), gmm_rows_bits(&scratch), "repaired gmm row bests");
        } else {
            prop_assert_eq!(gmm_rows_bits(&prepared), None, "a removal leaves the gmm row bests unpopulated");
        }
        prop_assert_eq!(
            matrix_bits(&prepared),
            matrix_bits(&scratch),
            "matrix bits diverged after {} ops",
            removals
        );

        // Serve both sides across all objectives and k, then compare
        // answers and the warmed preambles bit-for-bit.
        let ks: Vec<usize> = (1..=cur.len().min(4)).collect();
        let (p, delta_answers) = warm_and_serve(prepared, &ks);
        prepared = p;
        let (scratch, scratch_answers) = warm_and_serve(scratch, &ks);
        for ((kind, k, da), (_, _, sa)) in delta_answers.iter().zip(&scratch_answers) {
            prop_assert_eq!(da, sa, "{} k={}: answers diverged", kind, k);
        }
        prop_assert_eq!(mono_bits(&prepared), mono_bits(&scratch), "mono preamble");
        let memo = mono_sums(&prepared)?;
        prop_assert_eq!(&memo, &mono_sums(&scratch)?, "exact mono sums");
        prop_assert_eq!(&memo, &mono_sums(&prepared.fork())?, "a fork drops the exact mono sums");
        prop_assert_eq!(matches!(memo, Some(Some(_))), raw.keyed, "column offered iff keyed");
        let rows = gmm_rows_bits(&prepared);
        prop_assert!(rows.is_some(), "max_min (re)built the gmm row bests");
        prop_assert_eq!(&rows, &gmm_rows_bits(&scratch), "gmm row bests");
        prop_assert_eq!(&rows, &gmm_rows_bits(&prepared.fork()), "a fork drops the gmm row bests");
        prop_assert_eq!(
            prepared.gmm_preamble(),
            scratch.gmm_preamble(),
            "gmm seed pair"
        );
        prop_assert_eq!(ms_bits(&prepared), ms_bits(&scratch), "max-sum seed");

        // Inserts repair in place; only removals force a rebuild.
        prop_assert_eq!(
            prepared.ms_preamble_builds(),
            1 + removals,
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
    /// memoized, repaired by inserts and dropped by removals.
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
