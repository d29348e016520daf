//! Differential conformance for the coreset selection's two distance
//! paths ([`divr::core::coreset::Coreset::try_select_deadline`]):
//!
//! * an oracle that hands out a [`Distance::key_column`]
//!   ([`NumericDistance`] over all-integer keys) goes through the gap
//!   selector: the column is sorted once and each representative is
//!   folded into the one gap between already-folded keys it falls in;
//! * every other oracle — here the *same function* behind a
//!   [`ClosureDistance`], which has no column to offer — is called per
//!   pair against all `n` items, sharded across threads for large
//!   universes.
//!
//! The two must select **bit-identical** coresets (representatives,
//! assignment, per-item coverage distances, covering radius) and serve
//! identical `(value, set)` answers, for every thread count — on
//! duplicate-heavy, all-tied and two-key columns and on keys at both
//! ends of `i64`, where float gaps collapse and only the strict update
//! order tells two representatives apart; the column must be withheld
//! whenever `fallback` could apply, must never tunnel through a
//! distance-altering wrapper, and neither path may outrun a deadline.

mod common;

use common::{
    behind_closure, draws, numeric, rows_strategy, spread_universe, universe_of, NanOver,
    PanicOver, PoisonOver, REL,
};
use divr::core::coreset::{Coreset, CoresetConfig, CoresetEngine};
use divr::core::distance::ClosureDistance;
use divr::core::engine::{EngineRequest, ScoreSource};
use divr::core::prelude::*;
use divr::core::relevance::Relevance;
use divr::core::{Deadline, Ratio};
use divr::relquery::{Tuple, Value};
use divr::server::{CoresetSpec, Registry, ServeError, UniverseSpec};
use divr::service::wire::{ChaosNanDistance, ChaosPanicDistance};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rels_of(universe: &[Tuple]) -> Vec<Ratio> {
    universe.iter().map(|t| REL.rel(t)).collect()
}

/// Everything a [`Coreset`] exposes, floats as bits.
fn observe(c: &Coreset, n: usize) -> (Vec<usize>, Vec<usize>, Vec<u64>, u64) {
    (
        c.indices().to_vec(),
        (0..n).map(|i| c.rep_of(i)).collect(),
        (0..n).map(|i| c.rep_distance(i).to_bits()).collect(),
        c.covering_radius().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Gap selector ≡ per-pair calls, for budgets 1, m < n, m ≥ n.
    #[test]
    fn key_column_selects_and_serves_like_per_pair_calls(
        rows in rows_strategy(2..=70),
        budget_pick in 0usize..=3,
        lambda_num in 0i64..=4,
        k in 1usize..=4,
    ) {
        let universe = universe_of(&rows);
        let n = universe.len();
        let budget = [1, (n / 3).max(2), n - 1, n + 5][budget_pick];
        let rels = rels_of(&universe);
        let column = numeric(7);
        prop_assert!(column.key_column(&universe).is_some());
        let pairwise = behind_closure(numeric(7));
        prop_assert!(pairwise.key_column(&universe).is_none());

        let by_column = Coreset::select(&universe, &rels, &column, budget, 1);
        let by_pair = Coreset::select(&universe, &rels, &pairwise, budget, 1);
        prop_assert_eq!(observe(&by_column, n), observe(&by_pair, n));

        let lambda = Ratio::new(lambda_num, 4);
        let config = CoresetConfig::with_budget(budget).with_threads(2);
        let engine_of = |dis: Arc<dyn Distance + Send + Sync>| {
            CoresetEngine::new(universe.clone(), &REL, dis, lambda, &config)
        };
        let (a, b) = (engine_of(Arc::new(column)), engine_of(Arc::new(pairwise)));
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            prop_assert_eq!(a.try_serve(req), b.try_serve(req), "{} k={}", kind, k);
        }
    }

    /// (a′) The same at sizes where almost every item lies outside the
    /// gap a fold re-scans (`n` up to 3 000), over the columns that
    /// stress the skipping argument: heavy duplicates, one key, two
    /// keys, keys at both ends of `i64` (gaps up to `2^64 − 1`, where
    /// neighbouring differences round to one float), far-apart
    /// clusters, and spread keys with few ties. Small universes also
    /// take the budgets `n / 3` and `n − 1`; every size takes `1`, a
    /// drawn budget and `≥ n`. Scores repeat, so relevance guards share
    /// keys with each other and with later farthest points.
    #[test]
    fn gap_selector_matches_per_pair_calls_at_scale(
        seed in 0u64..=u64::MAX / 2,
        shape in 0usize..=5,
        size in 0usize..=99,
        budget_pick in 0usize..=4,
        threads in 1usize..=3,
    ) {
        let mut draw = draws(seed);
        const ENDS: [i64; 10] = [
            i64::MIN, i64::MIN + 1, i64::MIN + 2, -(1 << 53) - 1, -1,
            0, (1 << 53) + 1, i64::MAX - 2, i64::MAX - 1, i64::MAX,
        ];
        let n = if size < 40 { 2 + 2 * size } else { 100 + 49 * (size - 40) };
        let (lo, hi) = (ENDS[draw(10) as usize], ENDS[draw(10) as usize]);
        let rows: Vec<(i64, i64)> = (0..n)
            .map(|_| {
                let key = match shape {
                    0 => draw(13) - 6,
                    1 => lo,
                    2 => if draw(2) == 0 { lo } else { hi },
                    3 => ENDS[draw(10) as usize].saturating_add(draw(3) - 1),
                    4 => (draw(6) - 3) * (1 << 60) + draw(4),
                    _ => draw(10 * n as i64) - 5 * n as i64,
                };
                (key, draw(7))
            })
            .collect();
        let universe = universe_of(&rows);
        let drawn = 2 + draw(if n <= 80 { n as i64 } else { 62 }) as usize;
        let budget = match budget_pick {
            0 => 1,
            1 => drawn,
            2 => n + 5,
            3 if n <= 80 => (n / 3).max(2),
            4 if n <= 80 => n - 1,
            _ => drawn / 2 + 1,
        };
        let rels = rels_of(&universe);
        let by_column = Coreset::select(&universe, &rels, &numeric(7), budget, threads);
        let by_pair = Coreset::select(&universe, &rels, &behind_closure(numeric(7)), budget, 1);
        // Not `prop_assert_eq!`: a failure would print 4 × 3 000 numbers.
        prop_assert!(
            observe(&by_column, n) == observe(&by_pair, n),
            "shape {} n {} budget {} threads {} seed {}", shape, n, budget, threads, seed
        );
    }

    /// (b) One tuple without an integer at `attr` — missing, or a
    /// `Str` — withholds the column, and `fallback` still applies: far
    /// larger than any key gap, it makes the odd tuple the first
    /// farthest point.
    #[test]
    fn one_keyless_tuple_withholds_the_column(
        rows in rows_strategy(8..=40),
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
        let n = universe.len();
        let rels = rels_of(&universe);
        let oracle = numeric(1_000);
        prop_assert!(oracle.key_column(&universe).is_none());
        let direct = Coreset::select(&universe, &rels, &oracle, 6, 1);
        let closed = Coreset::select(&universe, &rels, &behind_closure(numeric(1_000)), 6, 1);
        prop_assert_eq!(observe(&direct, n), observe(&closed, n));
        prop_assert!(direct.indices().contains(&at), "fallback did not apply");
        prop_assert!(direct.covering_radius() <= 80.0);
    }

    /// (c) `threads` never changes the selection: trivially on the
    /// column path (the gap selector never spawns), and on the per-pair
    /// path at a size where the sweeps really are sharded (`n ≥ 4096`)
    /// — keys drawn from a narrow range, so tie sets straddle the shard
    /// boundary.
    #[test]
    fn thread_count_never_changes_the_selection(
        seed in 0u64..=u64::MAX / 2,
        n in 4096usize..=4200,
        spread in 3i64..=500,
        budget in 2usize..=12,
    ) {
        let mut draw = draws(seed);
        let rows: Vec<(i64, i64)> = (0..n).map(|_| (draw(spread) - spread / 2, draw(5))).collect();
        let universe = universe_of(&rows);
        let rels = rels_of(&universe);
        let pairwise = behind_closure(numeric(0));
        let sharded = Coreset::select(&universe, &rels, &pairwise, budget, 2);
        let inline = Coreset::select(&universe, &rels, &pairwise, budget, 1);
        prop_assert_eq!(observe(&sharded, n), observe(&inline, n));
        for threads in [1, 2] {
            let by_column = Coreset::select(&universe, &rels, &numeric(0), budget, threads);
            prop_assert_eq!(observe(&by_column, n), observe(&inline, n));
        }
    }
}

// ------------------------------------------------ (d) fault wrappers

fn coreset_answer(
    universe: Vec<Tuple>,
    dis: Arc<dyn divr::server::ServableDistance>,
) -> Result<(Ratio, Vec<usize>), ServeError> {
    let spec = UniverseSpec::new(universe, Arc::new(REL), dis, Ratio::new(1, 2))
        .with_coreset(CoresetSpec::with_budget(8));
    Registry::default().try_serve(
        &spec,
        EngineRequest {
            kind: ObjectiveKind::MaxMin,
            k: 3,
        },
    )
}

#[test]
fn fault_wrappers_keep_their_faults_in_coreset_mode() {
    let universe = spread_universe(60);
    let inner = numeric(0);
    assert!(inner.key_column(&universe).is_some());
    let distance_refused = |r: Result<_, ServeError>| {
        matches!(
            r,
            Err(ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                ..
            })
        )
    };

    assert!(NanOver(inner.clone()).key_column(&universe).is_none());
    assert!(distance_refused(coreset_answer(
        universe.clone(),
        Arc::new(NanOver(inner.clone()))
    )));
    assert!(distance_refused(coreset_answer(
        universe.clone(),
        Arc::new(ChaosNanDistance)
    )));

    // Key 0 belongs to item 0 only; every sweep meets it.
    let poisoned = PoisonOver(inner.clone(), 0);
    assert!(poisoned.key_column(&universe).is_none());
    assert!(distance_refused(coreset_answer(
        universe.clone(),
        Arc::new(poisoned)
    )));

    assert!(PanicOver(inner.clone()).key_column(&universe).is_none());
    assert_eq!(
        coreset_answer(universe.clone(), Arc::new(PanicOver(inner.clone()))),
        Err(ServeError::WorkerPanicked)
    );
    assert_eq!(
        coreset_answer(universe.clone(), Arc::new(ChaosPanicDistance)),
        Err(ServeError::WorkerPanicked)
    );

    // The unwrapped oracle serves, through the same registry path.
    assert!(coreset_answer(universe, Arc::new(inner)).is_ok());
}

// ------------------------------------------------------ (e) deadlines

/// A key-column oracle that counts its exact-distance calls (the
/// selection's tie-breaks, the only oracle traffic between two folds
/// over a column) and stalls in each past `stall_until`.
struct StallingKeys {
    inner: NumericDistance,
    exact_calls: AtomicUsize,
    stall_until: Option<Instant>,
}

impl Distance for StallingKeys {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.exact_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(until) = self.stall_until {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        self.inner.dist(a, b)
    }
    fn dist_f64(&self, _: &Tuple, _: &Tuple) -> f64 {
        panic!("the column path must not call the oracle per pair");
    }
    fn key_column(&self, items: &[Tuple]) -> Option<Vec<i64>> {
        self.inner.key_column(items)
    }
}

#[test]
fn deadline_aborts_before_the_first_sweep_and_between_sweeps() {
    // Keys mirrored around 0 with the five relevance-guard picks at the
    // centre: the first farthest-point round is an exact tie (−30, 30).
    let rows: Vec<(i64, i64)> = (-30..=30i64)
        .map(|key| (key, i64::from(key.abs() <= 2)))
        .collect();
    let universe = universe_of(&rows);
    let rels = rels_of(&universe);
    let select = |dis: &(dyn Distance + Sync), deadline| {
        Coreset::try_select_deadline(&universe, &rels, dis, 10, 2, deadline).map(|c| c.m())
    };
    let expired = Deadline::at(Instant::now());

    // Before the first fold, on both paths: no distance is evaluated.
    let float_calls = AtomicUsize::new(0);
    let counting = ClosureDistance(|a: &Tuple, b: &Tuple| {
        float_calls.fetch_add(1, Ordering::Relaxed);
        numeric(0).dist(a, b)
    });
    assert_eq!(
        select(&counting, expired),
        Err(ServeError::DeadlineExceeded)
    );
    assert_eq!(float_calls.load(Ordering::Relaxed), 0);
    let keys = |stall_until| StallingKeys {
        inner: numeric(0),
        exact_calls: AtomicUsize::new(0),
        stall_until,
    };
    let idle = keys(None);
    assert_eq!(select(&idle, expired), Err(ServeError::DeadlineExceeded));
    assert_eq!(idle.exact_calls.load(Ordering::Relaxed), 0);

    // Between folds: the deadline passes during the first round's
    // tie-break; the round finishes its fold and the next checkpoint
    // abandons the selection instead of running the remaining rounds.
    let at = Instant::now() + Duration::from_millis(250);
    let stalled = keys(Some(at));
    assert_eq!(
        select(&stalled, Deadline::at(at)),
        Err(ServeError::DeadlineExceeded)
    );
    let one_round = stalled.exact_calls.load(Ordering::Relaxed);
    assert!(one_round > 0, "the tie-break never ran");

    // Unbounded, the same oracle finishes, with many more tie-breaks.
    let free = keys(None);
    assert_eq!(select(&free, Deadline::none()), Ok(10));
    assert!(free.exact_calls.load(Ordering::Relaxed) > one_round);
}
