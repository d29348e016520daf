//! Differential conformance for the coreset serving path
//! ([`divr::core::coreset`]):
//!
//! * **Exactness**: with `budget ≥ n` the coreset is the identity and
//!   [`CoresetEngine`] must be observably indistinguishable from the
//!   full-matrix [`Engine`] — same exact `Ratio` value, same index set,
//!   for every objective and `k`.
//! * **Quality**: below that, each answer is a feasible set of the full
//!   problem whose exact full-universe objective value must stay within
//!   a **measured factor** of the full engine's heuristic answer on
//!   random integer universes (relevances in `[0, 20]`, pairwise
//!   distances in `[0, 30]`, `λ ∈ {0, ¼, …, 1}`, budget ≥ 4·k). The
//!   factors below were measured by `measured_factor_report` (worst
//!   observed ratios ≈ 1.28 for `F_MS`, ≈ 1.80 for `F_MM`, ≈ 1.21 for
//!   `F_mono` across 300 seeded cases) and pinned with headroom; the
//!   deterministic proptest shim replays the same cases every run, so a
//!   pass is stable.
//! * **Serving**: through the registry, coreset tenants (cold and warm)
//!   answer exactly like a fresh [`CoresetEngine`] over the same spec,
//!   while full-matrix tenants in the same mixed batch keep matching
//!   the full engine.
//!
//! Integer workloads make `f64` arithmetic exact, so any divergence in
//! the equality tests is a real selection/mapping bug, not float noise.

use divr::core::coreset::{CoresetConfig, CoresetEngine};
use divr::core::distance::TableDistance;
use divr::core::engine::{Engine, EngineRequest};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::Ratio;
use divr::relquery::Tuple;
use divr::server::{CoresetSpec, Registry, TenantBatch, UniverseSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Pinned quality bounds: `coreset_value · factor ≥ engine_value` on the
/// workload family above. Measured by `measured_factor_report`.
const FACTOR_MS: i64 = 2;
const FACTOR_MM: i64 = 4;
const FACTOR_MONO: i64 = 2;

fn factor_of(kind: ObjectiveKind) -> i64 {
    match kind {
        ObjectiveKind::MaxSum => FACTOR_MS,
        ObjectiveKind::MaxMin => FACTOR_MM,
        ObjectiveKind::Mono => FACTOR_MONO,
    }
}

/// A random integer-scored universe, same family as the server
/// conformance suite.
#[derive(Debug, Clone)]
struct RawUniverse {
    n: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
}

fn universe_strategy(n_range: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = RawUniverse> {
    n_range
        .prop_flat_map(|n| {
            (
                Just(n),
                0i64..=4,
                proptest::collection::vec(0i64..=20, n),
                proptest::collection::vec(0i64..=30, n * (n - 1) / 2),
            )
        })
        .prop_map(|(n, lambda_num, rels, dists)| RawUniverse {
            n,
            lambda_num,
            rels,
            dists,
        })
}

struct Instance {
    universe: Vec<Tuple>,
    rel: TableRelevance,
    dis: TableDistance,
    lambda: Ratio,
}

fn instance_of(raw: &RawUniverse) -> Instance {
    let universe: Vec<Tuple> = (0..raw.n as i64).map(|i| Tuple::ints([i])).collect();
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for (i, &r) in raw.rels.iter().enumerate() {
        rel.set(universe[i].clone(), Ratio::int(r));
    }
    let mut dis = TableDistance::with_default(Ratio::ZERO);
    let mut it = raw.dists.iter();
    for i in 0..raw.n {
        for j in (i + 1)..raw.n {
            dis.set(
                universe[i].clone(),
                universe[j].clone(),
                Ratio::int(*it.next().unwrap()),
            );
        }
    }
    Instance {
        universe,
        rel,
        dis,
        lambda: Ratio::new(raw.lambda_num, 4),
    }
}

fn full_engine(inst: &Instance) -> Engine {
    Engine::from_prepared(
        Arc::new(divr::core::engine::PreparedUniverse::build_shared(
            inst.universe.clone(),
            &inst.rel,
            Arc::new(inst.dis.clone()),
            inst.lambda,
            2,
        )),
        2,
    )
}

fn coreset_engine(inst: &Instance, budget: usize) -> CoresetEngine {
    CoresetEngine::new(
        inst.universe.clone(),
        &inst.rel,
        Arc::new(inst.dis.clone()),
        inst.lambda,
        &CoresetConfig::with_budget(budget).with_threads(2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `budget ≥ n` ⇒ the coreset path IS the full engine: identical
    /// exact values and index sets on every objective and k.
    #[test]
    fn equals_full_engine_when_budget_covers_universe(
        raw in universe_strategy(4..=18),
        extra in 0usize..=6,
        k in 1usize..=4,
    ) {
        prop_assume!(k <= raw.n);
        let inst = instance_of(&raw);
        let full = full_engine(&inst);
        let cs = coreset_engine(&inst, raw.n + extra);
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            let (fv, fset) = full.try_serve(req).expect("k ≤ n");
            let (cv, cset) = cs.try_serve(req).expect("k ≤ n ≤ budget");
            prop_assert_eq!(&fset, &cset, "{} k={}: index sets diverged", kind, k);
            prop_assert_eq!(fv, cv, "{} k={}: values diverged", kind, k);
        }
    }

    /// Restricted budgets: the coreset answer's exact full-universe
    /// value stays within the pinned factor of the full engine's
    /// heuristic value, and the answer is a well-formed candidate set.
    #[test]
    fn objective_within_measured_factor_of_full_engine(
        raw in universe_strategy(24..=60),
        k in 2usize..=5,
    ) {
        let inst = instance_of(&raw);
        let full = full_engine(&inst);
        let cs = coreset_engine(&inst, (4 * k).max(16));
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            let (ev, _) = full.try_serve(req).expect("k ≤ n");
            let (cv, cset) = cs.try_serve(req).expect("k ≤ budget ≤ n");
            prop_assert_eq!(cset.len(), k);
            let mut dedup = cset.clone();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), k, "{}: duplicate indices", kind);
            prop_assert!(cset.iter().all(|&i| i < raw.n), "{}: out of range", kind);
            // The coreset answer is a feasible set, so it can never beat
            // the optimum — but it may beat the full engine's heuristic.
            // The bound under test is the one-sided quality factor.
            prop_assert!(
                cv.scale(factor_of(kind)) >= ev,
                "{} k={}: coreset {} vs engine {} exceeds factor {}",
                kind, k, cv, ev, factor_of(kind)
            );
        }
    }

    /// Insertion streams: a coreset maintained incrementally by
    /// [`PreparedCoreset::insert_tuple`] over a stream of arrivals —
    /// absorbing points inside the coverage radius, displacing the
    /// nearest representative otherwise — must stay within the same
    /// pinned quality factors on the final universe as a coreset
    /// selected fresh on it.
    #[test]
    fn streamed_coreset_stays_within_factors(
        raw in universe_strategy(24..=60),
        k in 2usize..=5,
        base in 12usize..=20,
    ) {
        use divr::core::coreset::PreparedCoreset;
        use divr::core::relevance::Relevance as _;
        let inst = instance_of(&raw);
        let budget = (4 * k).max(16);
        let base = base.min(raw.n);
        let mut prepared = PreparedCoreset::build_shared(
            inst.universe[..base].to_vec(),
            &inst.rel,
            Arc::new(inst.dis.clone()),
            inst.lambda,
            &CoresetConfig::with_budget(budget).with_threads(2),
        );
        for t in &inst.universe[base..] {
            prepared.insert_tuple(t.clone(), inst.rel.rel(t));
        }
        let streamed = CoresetEngine::from_prepared(Arc::new(prepared), 2);
        let full = full_engine(&inst);
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            let (ev, _) = full.try_serve(req).expect("k ≤ n");
            let (sv, sset) = streamed.try_serve(req).expect("k ≤ budget");
            prop_assert_eq!(sset.len(), k);
            let mut dedup = sset.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), k, "{}: duplicate indices", kind);
            prop_assert!(sset.iter().all(|&i| i < raw.n), "{}: out of range", kind);
            prop_assert!(
                sv.scale(factor_of(kind)) >= ev,
                "{} k={}: streamed {} vs engine {} exceeds factor {}",
                kind, k, sv, ev, factor_of(kind)
            );
        }
    }

    /// Registry serving in coreset mode: cold and warm answers are
    /// identical to a fresh coreset engine over the same content, and
    /// full-matrix tenants in the same mixed batch still match the full
    /// engine.
    #[test]
    fn registry_mixed_full_and_coreset_tenants_conform(
        raw in universe_strategy(16..=40),
        k in 1usize..=4,
    ) {
        let inst = instance_of(&raw);
        let budget = (4 * k).max(12);
        let spec_full = UniverseSpec::new(
            inst.universe.clone(),
            Arc::new(inst.rel.clone()),
            Arc::new(inst.dis.clone()),
            inst.lambda,
        );
        let spec_core = spec_full.clone().with_coreset(CoresetSpec::with_budget(budget));
        let registry = Registry::default();
        let requests: Vec<EngineRequest> = ObjectiveKind::ALL
            .into_iter()
            .map(|kind| EngineRequest { kind, k })
            .collect();
        let batch = vec![
            TenantBatch { spec: spec_full.clone(), requests: requests.clone() },
            TenantBatch { spec: spec_core.clone(), requests: requests.clone() },
        ];
        let full = full_engine(&inst);
        let cs = coreset_engine(&inst, budget);
        // Two passes: cold (misses) then warm (hits) must agree.
        for pass in 0..2 {
            let answers = registry.serve_mixed_checked(&batch);
            for (r, req) in requests.iter().enumerate() {
                prop_assert_eq!(
                    &answers[0][r],
                    &full.try_serve(*req),
                    "full tenant diverged (pass {}, {:?})", pass, req
                );
                prop_assert_eq!(
                    &answers[1][r],
                    &cs.try_serve(*req),
                    "coreset tenant diverged (pass {}, {:?})", pass, req
                );
            }
        }
        // One prepare per (content, mode) pair despite two passes.
        prop_assert_eq!(registry.stats().misses, 2);
    }
}

/// Measures the worst observed engine/coreset value ratio per objective
/// over 300 deterministic cases of the same workload family, and
/// asserts the pinned factors hold with their headroom intact. Run with
/// `--nocapture` to see the measured ratios behind `FACTOR_*`.
#[test]
fn measured_factor_report() {
    use proptest::strategy::Strategy as _;
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::from_name("coreset_measured_factor_report");
    let strat = universe_strategy(24..=60);
    let mut worst = [(1.0f64, ObjectiveKind::MaxSum); 3];
    for (slot, kind) in worst.iter_mut().zip(ObjectiveKind::ALL) {
        *slot = (1.0, kind);
    }
    for case in 0..300 {
        let raw = strat.generate(&mut rng);
        let k = 2 + case % 4;
        let inst = instance_of(&raw);
        let full = full_engine(&inst);
        let cs = coreset_engine(&inst, (4 * k).max(16));
        for (i, kind) in ObjectiveKind::ALL.into_iter().enumerate() {
            let req = EngineRequest { kind, k };
            let (ev, _) = full.try_serve(req).unwrap();
            let (cv, _) = cs.try_serve(req).unwrap();
            let ratio = if cv.is_zero() {
                if ev.is_zero() { 1.0 } else { f64::INFINITY }
            } else {
                ev.to_f64() / cv.to_f64()
            };
            if ratio > worst[i].0 {
                worst[i] = (ratio, kind);
            }
        }
    }
    for (ratio, kind) in worst {
        println!("worst engine/coreset ratio for {kind}: {ratio:.4}");
        assert!(
            ratio <= factor_of(kind) as f64,
            "{kind}: measured ratio {ratio:.4} exceeds pinned factor {}",
            factor_of(kind)
        );
    }
}

/// A patched coreset keeps its cover within twice its selection's, or
/// goes cold. Over four insert families, every state
/// `PreparedVariant::patch` keeps has a stored covering radius at most
/// twice the selection's and an exact radius at most the stored one;
/// after each refusal the test selects afresh over every row so far, as
/// the next serve would. Far appends, which once stretched a cover of
/// 12 to 49 950, trip instead.
#[test]
fn patched_cover_stays_within_twice_its_selection() {
    use divr::PreparedVariant;
    let rel = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    let numeric: Arc<dyn Distance + Send + Sync> = Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    });
    let hamming: Arc<dyn Distance + Send + Sync> = Arc::new(HammingDistance { weight: Ratio::ONE });
    let (n, inserts) = (400i64, 200i64);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = |below: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64 % below
    };
    fn keyed(keys: impl Iterator<Item = i64>) -> Vec<Tuple> {
        keys.map(|k| Tuple::ints([k, k % 5])).collect()
    }
    let interior: Vec<i64> = (0..inserts).map(|_| draw(3 * n)).collect();
    let hamming_row = |i: i64, wide: i64| {
        Tuple::ints([i % 3 + wide, i / 3 % 4, i * 7 % 5 + wide, i / 11 % 3, i % 2])
    };
    let families = [
        (
            "sorted appends",
            numeric.clone(),
            keyed((0..n).map(|i| 3 * i)),
            keyed((n..n + inserts).map(|i| 3 * i)),
        ),
        (
            "far appends",
            numeric.clone(),
            keyed((0..n).map(|i| 3 * i)),
            keyed((1..=inserts).map(|j| 3 * n + 250 * j)),
        ),
        (
            "random interior",
            numeric.clone(),
            keyed((0..n).map(|i| 3 * i)),
            keyed(interior.into_iter()),
        ),
        (
            "widened Hamming",
            hamming,
            (0..n).map(|i| hamming_row(i, 0)).collect(),
            (0..inserts).map(|j| hamming_row(j, 5 + j % 4)).collect(),
        ),
    ];
    let config = CoresetConfig::with_budget(32).with_threads(2);
    for (family, dis, base, tail) in families {
        let select = |rows: Vec<Tuple>| {
            let built =
                PreparedCoreset::build_shared(rows, &rel, dis.clone(), Ratio::new(1, 2), &config);
            let radius = built.coreset().covering_radius();
            (PreparedVariant::Coreset(Arc::new(built)), radius)
        };
        let mut rows = base.clone();
        let (mut prepared, mut selection) = select(base);
        let mut trips = 0;
        for t in tail {
            rows.push(t.clone());
            match prepared.patch(&[DeltaOp::Insert(t)], &rel) {
                Some(patched) => {
                    let c = patched.as_coreset().unwrap();
                    let stored = c.coreset().covering_radius();
                    assert!(
                        stored <= 2.0 * selection,
                        "{family}: {stored} vs selection {selection}"
                    );
                    let universe = patched.universe();
                    let exact = universe
                        .iter()
                        .map(|t| {
                            c.coreset()
                                .indices()
                                .iter()
                                .map(|&r| dis.dist_f64(t, &universe[r]))
                                .fold(f64::INFINITY, f64::min)
                        })
                        .fold(0.0, f64::max);
                    assert!(
                        exact <= stored,
                        "{family}: exact {exact} above stored {stored}"
                    );
                    prepared = patched;
                }
                None => {
                    trips += 1;
                    (prepared, selection) = select(rows.clone());
                }
            }
        }
        println!("{family}: {trips} of {inserts} inserts went cold");
        if family == "far appends" {
            assert!(trips > 0, "far appends never tripped");
        }
    }
}
