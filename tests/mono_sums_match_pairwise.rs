//! Differential conformance for the two exact sides of `F_mono`
//! (Theorem 5.4's per-item score `v(t)`, behind
//! [`Engine::objective_exact`] and the coreset engine's full-universe
//! re-score):
//!
//! * an oracle that hands out a [`Distance::key_column`]
//!   ([`NumericDistance`] over all-integer keys) gets all `n` exact
//!   distance sums from one sort and one prefix-sum pass, memoized
//!   beside the other preambles — and, while every sum stays below
//!   2^53, the float preamble converts them instead of folding matrix
//!   rows;
//! * every other oracle — here the *same function* behind a
//!   [`ClosureDistance`], which has no column to offer — is summed per
//!   pair in `Ratio` arithmetic, and its float preamble is the
//!   left-to-right row fold.
//!
//! The two must agree on the sums, on the float scores **bit for bit**,
//! and on every served `(value, set)`, for the full-matrix and the
//! coreset engine; the memo must decline (and the per-pair path answer)
//! whenever a key gap is not an `i64`; at 2^53 and beyond only the
//! exact side may use it; `fallback` and fault wrappers must never be
//! bypassed.

mod common;

use common::{
    behind_closure, numeric, rows_strategy, spread_universe, universe_of, NanOver, PanicOver,
    PoisonOver, REL,
};
use divr::core::coreset::{CoresetConfig, CoresetEngine};
use divr::core::engine::{Engine, EngineRequest, PreparedUniverse, ScoreSource};
use divr::core::prelude::*;
use divr::core::Ratio;
use divr::relquery::{Tuple, Value};
use divr::server::{CoresetSpec, Registry, ServeError, UniverseSpec};
use divr::service::wire::{ChaosNanDistance, ChaosPanicDistance};
use proptest::prelude::*;
use std::sync::Arc;

const MONO: ObjectiveKind = ObjectiveKind::Mono;

fn full_engine(
    universe: &[Tuple],
    dis: Arc<dyn Distance + Send + Sync>,
    lambda: Ratio,
) -> Engine<'static> {
    let prepared = PreparedUniverse::build_shared(universe.to_vec(), &REL, dis, lambda, 1);
    Engine::from_prepared(Arc::new(prepared), 1)
}

/// `Σ_j δ_dis(t_i, t_j)` per item, one exact oracle call per pair.
fn pairwise_sums(universe: &[Tuple], dis: &dyn Distance) -> Vec<Ratio> {
    universe
        .iter()
        .map(|t| universe.iter().map(|other| dis.dist(t, other)).sum())
        .collect()
}

fn as_ratios(sums: &[i128]) -> Vec<Ratio> {
    sums.iter().map(|&s| Ratio::new_i128(s, 1)).collect()
}

fn mono_bits(engine: &Engine<'_>) -> Option<Vec<u64>> {
    engine
        .prepared()
        .mono_preamble()
        .map(|scores| scores.iter().map(|s| s.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Memoized sums ≡ per-pair sums; float scores bit-identical;
    /// served answers identical — full-matrix engine.
    #[test]
    fn memoized_sums_serve_like_per_pair_sums(
        rows in rows_strategy(2..=60),
        lambda_pick in 0usize..=3,
        k in 0usize..=6,
    ) {
        let universe = universe_of(&rows);
        let lambda = [Ratio::ZERO, Ratio::new(1, 4), Ratio::new(1, 2), Ratio::ONE][lambda_pick];
        let k = k.min(universe.len());
        let by_column = full_engine(&universe, Arc::new(numeric(7)), lambda);
        let by_pair = full_engine(&universe, Arc::new(behind_closure(numeric(7))), lambda);
        prop_assert_eq!(by_column.prepared().mono_sums_preamble(), None, "built before any request");

        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            prop_assert_eq!(by_column.try_serve(req), by_pair.try_serve(req), "{} k={}", kind, k);
        }
        let memo = by_column.prepared().mono_sums_preamble().expect("a mono request ran");
        let memo = memo.expect("all-integer keys offer a column");
        prop_assert_eq!(as_ratios(memo), pairwise_sums(&universe, &numeric(7)));
        prop_assert_eq!(by_pair.prepared().mono_sums_preamble(), Some(None));
        prop_assert_eq!(mono_bits(&by_column), mono_bits(&by_pair));

        // The exact value of an arbitrary set, not only of the winners.
        let every_other: Vec<usize> = (0..universe.len()).step_by(2).collect();
        prop_assert_eq!(
            by_column.objective_exact(MONO, &every_other),
            by_pair.objective_exact(MONO, &every_other)
        );
    }

    /// (a′) The same through the coreset engine, whose re-score runs
    /// over all `n` items while its solve sees only the `m`
    /// representatives.
    #[test]
    fn coreset_rescore_reads_the_full_universe_memo(
        rows in rows_strategy(4..=70),
        budget_pick in 0usize..=2,
        lambda_pick in 0usize..=3,
        k in 1usize..=4,
    ) {
        let universe = universe_of(&rows);
        let n = universe.len();
        let budget = [(n / 3).max(2), n - 1, n + 5][budget_pick];
        let lambda = [Ratio::ZERO, Ratio::new(1, 4), Ratio::new(1, 2), Ratio::ONE][lambda_pick];
        let config = CoresetConfig::with_budget(budget).with_threads(2);
        let engine_of = |dis: Arc<dyn Distance + Send + Sync>| {
            CoresetEngine::new(universe.clone(), &REL, dis, lambda, &config)
        };
        let by_column = engine_of(Arc::new(numeric(7)));
        let by_pair = engine_of(Arc::new(behind_closure(numeric(7))));
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            prop_assert_eq!(by_column.try_serve(req), by_pair.try_serve(req), "{} k={}", kind, k);
        }
        if !lambda.is_zero() && k <= by_column.m() {
            let memo = by_column.prepared().mono_sums_preamble().expect("a mono request ran");
            let memo = memo.expect("all-integer keys offer a column");
            prop_assert_eq!(memo.len(), n);
            prop_assert_eq!(as_ratios(memo), pairwise_sums(&universe, &numeric(7)));
            prop_assert_eq!(by_pair.prepared().mono_sums_preamble(), Some(None));
        }
    }

    /// (b) One tuple without an integer at `attr` — missing, or a
    /// `Str` — withholds the column, and `fallback` still applies: far
    /// larger than any key gap, it dominates the odd tuple's distance
    /// sum, so at λ = 1 that tuple is the mono winner.
    #[test]
    fn one_keyless_tuple_withholds_the_column(
        rows in rows_strategy(4..=40),
        at in 0usize..=39,
        as_str in 0usize..=1,
    ) {
        let mut universe = universe_of(&rows);
        let at = at % universe.len();
        universe[at] = if as_str == 1 {
            Tuple::new(vec![Value::str("no key"), Value::int(0)])
        } else {
            Tuple::new(vec![])
        };
        let direct = full_engine(&universe, Arc::new(numeric(100_000)), Ratio::ONE);
        let closed = full_engine(&universe, Arc::new(behind_closure(numeric(100_000))), Ratio::ONE);
        let req = EngineRequest { kind: MONO, k: 1 };
        let answer = direct.try_serve(req);
        prop_assert_eq!(&answer, &closed.try_serve(req));
        prop_assert_eq!(direct.prepared().mono_sums_preamble(), Some(None));
        prop_assert_eq!(mono_bits(&direct), mono_bits(&closed));
        let (value, set) = answer.unwrap();
        prop_assert_eq!(set, vec![at], "fallback did not apply");
        prop_assert_eq!(value, pairwise_sums(&universe, &numeric(100_000))[at] / Ratio::int(universe.len() as i64 - 1));
    }

    /// (c) Inserts repair the memo in integer adds, removals drop it,
    /// a keyless insert retires it — each time what a fresh prepare of
    /// the same universe memoizes.
    #[test]
    fn the_memo_follows_deltas(
        rows in rows_strategy(3..=20),
        extra in rows_strategy(1..=6),
        remove_at in 0usize..=63,
    ) {
        let lambda = Ratio::new(1, 2);
        let warm = |p: PreparedUniverse<'static>| {
            let engine = Engine::from_prepared(Arc::new(p), 1);
            let answer = engine.try_serve(EngineRequest { kind: MONO, k: 2 });
            let prepared = engine.prepared().clone();
            drop(engine);
            (Arc::try_unwrap(prepared).expect("sole owner"), answer)
        };
        let scratch_of = |universe: &[Tuple]| {
            warm(PreparedUniverse::build_shared(universe.to_vec(), &REL, Arc::new(numeric(7)), lambda, 1))
        };
        let mut universe = universe_of(&rows);
        let (mut prepared, _) = scratch_of(&universe);
        for t in universe_of(&extra) {
            prepared.insert_tuple(t.clone(), REL.rel(&t));
            universe.push(t);
            // Repaired, not rebuilt: populated before any request.
            prop_assert!(matches!(prepared.mono_sums_preamble(), Some(Some(_))));
            let (scratch, expected) = scratch_of(&universe);
            prop_assert_eq!(prepared.mono_sums_preamble(), scratch.mono_sums_preamble());
            let fork = prepared.fork();
            prop_assert_eq!(fork.mono_sums_preamble(), scratch.mono_sums_preamble());
            let (p, answer) = warm(prepared);
            prepared = p;
            prop_assert_eq!(answer, expected);
        }
        let i = remove_at % universe.len();
        prepared.remove_tuple(i).unwrap();
        universe.swap_remove(i);
        prop_assert_eq!(prepared.mono_sums_preamble(), None, "a removal invalidates");
        let (mut prepared, answer) = warm(prepared);
        let (scratch, expected) = scratch_of(&universe);
        prop_assert_eq!(answer, expected);
        prop_assert_eq!(prepared.mono_sums_preamble(), scratch.mono_sums_preamble());

        let keyless = Tuple::new(vec![Value::str("no key"), Value::int(3)]);
        prepared.insert_tuple(keyless.clone(), REL.rel(&keyless));
        universe.push(keyless);
        prop_assert_eq!(prepared.mono_sums_preamble(), Some(None));
        prop_assert_eq!(warm(prepared).1, scratch_of(&universe).1);
    }
}

// ------------------------------------ (d) key gaps beyond `i64::MAX`

/// `|a − b|` on attribute 0 in 128-bit arithmetic: an oracle whose key
/// gaps need not fit the `i64` that `(k_i − k_j).abs()` would have to
/// be. With `offer_column` it hands its keys out regardless — the memo
/// has to notice the range and decline.
#[derive(Clone, Copy)]
struct WideKeys {
    offer_column: bool,
}

impl WideKeys {
    fn gap(a: &Tuple, b: &Tuple) -> i128 {
        let key = |t: &Tuple| i128::from(t.get(0).and_then(|v| v.as_int()).unwrap());
        (key(a) - key(b)).abs()
    }
}

impl Distance for WideKeys {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        Ratio::new_i128(Self::gap(a, b), 1)
    }
    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        Self::gap(a, b) as f64
    }
    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        self.offer_column
            .then(|| numeric(0).key_column(items))
            .flatten()
    }
}

#[test]
fn keys_spanning_more_than_i64_max_fall_back_to_per_pair_sums() {
    let keys = [i64::MIN / 2 - 5, -3, 0, 7, 7, i64::MAX / 2 + 9];
    let universe: Vec<Tuple> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| Tuple::ints([key, i as i64 % 3]))
        .collect();
    assert!(keys[5].checked_sub(keys[0]).is_none());
    for lambda in [Ratio::new(1, 4), Ratio::ONE] {
        let offered = full_engine(&universe, Arc::new(WideKeys { offer_column: true }), lambda);
        let withheld = full_engine(&universe, Arc::new(WideKeys { offer_column: false }), lambda);
        for k in 0..=universe.len() {
            let req = EngineRequest { kind: MONO, k };
            assert_eq!(offered.try_serve(req), withheld.try_serve(req), "k={k}");
        }
        assert_eq!(offered.prepared().mono_sums_preamble(), Some(None));
        assert_eq!(mono_bits(&offered), mono_bits(&withheld));
    }
    // One key fewer and the range fits: the memo is back.
    let narrow = full_engine(&universe[1..], Arc::new(WideKeys { offer_column: true }), Ratio::ONE);
    narrow.try_serve(EngineRequest { kind: MONO, k: 2 }).unwrap();
    let memo = narrow.prepared().mono_sums_preamble().unwrap().unwrap();
    assert_eq!(
        as_ratios(memo),
        pairwise_sums(&universe[1..], &WideKeys { offer_column: false })
    );
}

// ----------------------------------------- (e) sums at 2^53 and beyond

#[test]
fn sums_beyond_2_pow_53_stay_exact_and_the_float_side_keeps_the_row_fold() {
    // Three distinct tuples share the key 2^53 + 1: each gap to key 0
    // rounds to 2^53 as a float, so the row fold gives 3·2^53, while
    // the exact sum 3·2^53 + 3 rounds to 3·2^53 + 4 — converting the
    // memo would change the float score of item 0.
    let far = (1i64 << 53) + 1;
    let universe = universe_of(&[(0, 1), (far, 0), (far, 1), (far, 2)]);
    let lambda = Ratio::new(1, 2);
    let by_column = full_engine(&universe, Arc::new(numeric(0)), lambda);
    let by_pair = full_engine(&universe, Arc::new(behind_closure(numeric(0))), lambda);
    for k in 1..=3 {
        let req = EngineRequest { kind: MONO, k };
        assert_eq!(by_column.try_serve(req), by_pair.try_serve(req), "k={k}");
    }

    // Exact side: the memo, with the unrounded sums.
    let memo = by_column.prepared().mono_sums_preamble().unwrap().unwrap();
    assert_eq!(memo, [3 * i128::from(far), i128::from(far), i128::from(far), i128::from(far)]);
    assert_eq!(as_ratios(memo), pairwise_sums(&universe, &numeric(0)));

    // Float side: the row fold, on both engines.
    assert_eq!(mono_bits(&by_column), mono_bits(&by_pair));
    let fold: f64 = by_column.matrix().row(0).iter().sum();
    assert_eq!(fold, 3.0 * (1u64 << 53) as f64);
    assert_ne!(fold.to_bits(), (memo[0] as f64).to_bits(), "the case does not discriminate");
    let score_0 = by_column.prepared().mono_preamble().unwrap()[0];
    assert_eq!(score_0.to_bits(), (0.5 * 1.0 + 0.5 * fold / 3.0).to_bits());

    // Just below 2^53 the conversion applies, and matches the fold.
    let near = (1i64 << 51) - 1;
    let universe = universe_of(&[(0, 1), (near, 0), (near, 1), (near, 2), (1, 4)]);
    let by_column = full_engine(&universe, Arc::new(numeric(0)), lambda);
    let by_pair = full_engine(&universe, Arc::new(behind_closure(numeric(0))), lambda);
    let req = EngineRequest { kind: MONO, k: 2 };
    assert_eq!(by_column.try_serve(req), by_pair.try_serve(req));
    let memo = by_column.prepared().mono_sums_preamble().unwrap().unwrap();
    assert!(memo.iter().all(|&s| s < 1 << 53) && memo.iter().any(|&s| s > 1 << 52));
    assert_eq!(mono_bits(&by_column), mono_bits(&by_pair));
}

// ------------------------------------------------ (f) fault wrappers

#[test]
fn fault_wrappers_keep_their_faults_for_mono() {
    let universe = spread_universe(60);
    let inner = numeric(0);
    assert!(inner.key_column(&universe).is_some());
    let mono_answer = |dis: Arc<dyn divr::server::ServableDistance>, coreset: bool| {
        let mut spec = UniverseSpec::new(universe.clone(), Arc::new(REL), dis, Ratio::new(1, 2));
        if coreset {
            spec = spec.with_coreset(CoresetSpec::with_budget(8));
        }
        Registry::default().try_serve(&spec, EngineRequest { kind: MONO, k: 3 })
    };
    let distance_refused = |r: Result<_, ServeError>| {
        matches!(
            r,
            Err(ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                ..
            })
        )
    };
    for coreset in [false, true] {
        assert!(distance_refused(mono_answer(Arc::new(NanOver(inner.clone())), coreset)));
        assert!(distance_refused(mono_answer(Arc::new(ChaosNanDistance), coreset)));
        // Key 0 belongs to item 0 only; the relevance guard keeps it
        // out of nobody's way: every sweep and every row meets it.
        assert!(distance_refused(mono_answer(Arc::new(PoisonOver(inner.clone(), 0)), coreset)));
        assert_eq!(
            mono_answer(Arc::new(PanicOver(inner.clone())), coreset),
            Err(ServeError::WorkerPanicked)
        );
        assert_eq!(
            mono_answer(Arc::new(ChaosPanicDistance), coreset),
            Err(ServeError::WorkerPanicked)
        );
        // The unwrapped oracle serves, through the same registry path.
        assert!(mono_answer(Arc::new(inner.clone()), coreset).is_ok());
    }
    for wrapped in [
        &NanOver(inner.clone()) as &dyn Distance,
        &PoisonOver(inner.clone(), 0),
        &PanicOver(inner.clone()),
    ] {
        assert!(wrapped.key_column(&universe).is_none());
    }
}
