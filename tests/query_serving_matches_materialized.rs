//! Differential conformance for the relational front door: serving a
//! diversification request **through the query path** — parse, canonical
//! tableau key, streamed evaluation into prepared state — must be
//! observably indistinguishable from materializing `Q(D)` by hand and
//! serving the resulting universe through the registry: same exact
//! `Ratio` objective value, same index set, for all three objectives,
//! through cache hits, eviction-forced rebuilds, and base-relation
//! deltas repairing warm entries in place.
//!
//! Integer workloads keep every score exact, so any divergence is a
//! real keying/streaming/repair bug, not float noise.

use divr::core::engine::EngineRequest;
use divr::core::prelude::*;
use divr::core::Ratio;
use divr::relquery::eval::eval_query;
use divr::relquery::parser::parse_query;
use divr::relquery::{Database, Tuple, Value};
use divr::server::{QueryError, QueryFrontDoor, QuerySpec, Registry, RegistryConfig, UniverseSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A random world: up to three base relations with integer rows over a
/// small domain, one conjunctive query over them, λ, and `k`.
#[derive(Debug, Clone)]
struct RawWorld {
    /// `(arity, rows)` per relation `R0`, `R1`, ….
    rels: Vec<(usize, Vec<Vec<i64>>)>,
    /// `(relation, term codes)` per atom; codes `0..6` are variables
    /// `x0..x5`, codes `6..9` are the constants `0..3`.
    atoms: Vec<(usize, Vec<u8>)>,
    lambda_num: i64,
    k: usize,
}

fn relation_strategy() -> impl Strategy<Value = (usize, Vec<Vec<i64>>)> {
    (1usize..=2).prop_flat_map(|arity| {
        (
            Just(arity),
            proptest::collection::vec(proptest::collection::vec(0i64..=4, arity), 0..=8),
        )
    })
}

fn world_strategy() -> impl Strategy<Value = RawWorld> {
    (
        proptest::collection::vec(relation_strategy(), 1..=3),
        proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0u8..9, 1..=3)),
            1..=3,
        ),
        0i64..=4,
        1usize..=3,
    )
        .prop_map(|(rels, atoms, lambda_num, k)| RawWorld {
            rels,
            atoms,
            lambda_num,
            k,
        })
}

fn build_db(raw: &RawWorld) -> Database {
    let mut db = Database::new();
    for (i, (arity, rows)) in raw.rels.iter().enumerate() {
        let attrs: Vec<String> = (0..*arity).map(|j| format!("a{j}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let name = format!("R{i}");
        db.create_relation(&name, &attr_refs).unwrap();
        for row in rows {
            db.insert_tuple(&name, Tuple::ints(row.iter().copied())).unwrap();
        }
    }
    db
}

/// Renders the raw atoms as query text. The first term of the first
/// atom is forced to a variable so the head is never empty, and the
/// head projects (at most two of) the body's variables, keeping every
/// generated query safe by construction.
fn query_text(raw: &RawWorld) -> String {
    let mut vars: Vec<String> = Vec::new();
    let mut body: Vec<String> = Vec::new();
    for (ai, (r, codes)) in raw.atoms.iter().enumerate() {
        let r = r % raw.rels.len();
        let arity = raw.rels[r].0;
        let terms: Vec<String> = (0..arity)
            .map(|j| {
                let mut code = codes[j % codes.len()];
                if ai == 0 && j == 0 {
                    code %= 6;
                }
                if code < 6 {
                    let v = format!("x{code}");
                    if !vars.contains(&v) {
                        vars.push(v.clone());
                    }
                    v
                } else {
                    format!("{}", code - 6)
                }
            })
            .collect();
        body.push(format!("R{r}({})", terms.join(", ")));
    }
    vars.sort();
    vars.truncate(2);
    format!("Q({}) :- {}", vars.join(", "), body.join(", "))
}

fn spec_of(raw: &RawWorld) -> QuerySpec {
    let query = parse_query(&query_text(raw)).unwrap();
    QuerySpec::new(
        query,
        Arc::new(AttributeRelevance {
            attr: 0,
            default: Ratio::ZERO,
        }),
        Arc::new(HammingDistance { weight: Ratio::ONE }),
        Ratio::new(raw.lambda_num, 4),
    )
    .unwrap()
}

fn all_requests(k: usize) -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .iter()
        .map(|&kind| EngineRequest { kind, k })
        .collect()
}

/// The by-hand path: the given universe sequence through the
/// registry's universe-keyed serving, with the same parameters.
fn oracle_answers(
    universe: Vec<Tuple>,
    lambda: Ratio,
    requests: &[EngineRequest],
) -> Vec<Option<(Ratio, Vec<usize>)>> {
    let spec = UniverseSpec::new(
        universe,
        Arc::new(AttributeRelevance {
            attr: 0,
            default: Ratio::ZERO,
        }),
        Arc::new(HammingDistance { weight: Ratio::ONE }),
        lambda,
    );
    let registry = Registry::default();
    requests
        .iter()
        .map(|&r| registry.try_serve(&spec, r).ok())
        .collect()
}

/// Asserts the front door's checked answers equal the oracle's
/// option-shaped answers bit-for-bit.
fn assert_answers_match(
    got: &[Result<(Ratio, Vec<usize>), divr::ServeError>],
    want: &[Option<(Ratio, Vec<usize>)>],
    context: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: answer count", context);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Ok(g), Some(w)) => {
                prop_assert_eq!(g, w, "{}: answer {} diverged", context, i);
            }
            (Err(_), None) => {}
            _ => prop_assert!(
                false,
                "{}: feasibility diverged at answer {}: {:?} vs {:?}",
                context,
                i,
                g,
                w
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold miss then warm hit: both serve bit-identically to the
    /// by-hand materialization of `Q(D)` (stream order ≡ eager order),
    /// and the empty result is a typed refusal, never a panic.
    #[test]
    fn front_door_matches_materialized(raw in world_strategy()) {
        let db = build_db(&raw);
        let spec = spec_of(&raw);
        let materialized = eval_query(&db, spec.query()).unwrap().into_tuples();

        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("main", db);

        if materialized.is_empty() {
            let err = front
                .serve_query("main", &spec, &all_requests(raw.k))
                .unwrap_err();
            prop_assert_eq!(err, QueryError::EmptyResult);
            return Ok(());
        }

        let requests = all_requests(raw.k);
        let want = oracle_answers(materialized, spec.instance().lambda(), &requests);
        let cold = front.serve_query("main", &spec, &requests).unwrap();
        assert_answers_match(&cold, &want, "cold")?;
        let warm = front.serve_query("main", &spec, &requests).unwrap();
        assert_answers_match(&warm, &want, "warm")?;
        // One semantic key, one preparation, despite two serves.
        prop_assert_eq!(front.registry().stats().misses, 1);
        prop_assert!(front.registry().stats().hits >= 1);
    }

    /// A byte budget below one entry forces evict → re-evaluate →
    /// re-prepare between alternating λ values; rebuilt answers stay
    /// identical to the by-hand materialization every round.
    #[test]
    fn eviction_and_reprepare_stay_identical(raw in world_strategy()) {
        let db = build_db(&raw);
        let base = spec_of(&raw);
        let materialized = eval_query(&db, base.query()).unwrap().into_tuples();
        if materialized.is_empty() {
            return Ok(());
        }

        let registry = Registry::new(RegistryConfig {
            byte_budget: 1,
            shards: 1,
            workers: 1,
            solve_threads: 1,
        });
        let front = QueryFrontDoor::new(Arc::new(registry));
        front.register_database("main", db);
        let requests = all_requests(raw.k);

        // λ = 0 and λ = 1 are always distinct semantic keys.
        let query = base.query().clone();
        for round in 0..2 {
            for lambda in [Ratio::ZERO, Ratio::ONE] {
                let spec = QuerySpec::new(
                    query.clone(),
                    Arc::new(AttributeRelevance { attr: 0, default: Ratio::ZERO }),
                    Arc::new(HammingDistance { weight: Ratio::ONE }),
                    lambda,
                )
                .unwrap();
                let got = front.serve_query("main", &spec, &requests).unwrap();
                let want = oracle_answers(materialized.clone(), lambda, &requests);
                assert_answers_match(&got, &want, &format!("round {round} λ={lambda}"))?;
            }
        }
        // The alternation really did evict: nothing fits next to a new
        // insert under a 1-byte budget.
        prop_assert!(front.registry().stats().evictions >= 2);
        prop_assert_eq!(front.registry().stats().hits, 0);
    }

    /// Base-relation inserts delta-repair warm entries in place: the
    /// repaired entry serves bit-identically to the by-hand
    /// materialization of its own (original + appended) universe
    /// sequence, that sequence is set-equal to a cold re-evaluation,
    /// and the repair never re-prepares.
    #[test]
    fn deltas_repair_warm_entries_identically(
        raw in world_strategy(),
        delta_rows in proptest::collection::vec(proptest::collection::vec(0i64..=4, 2), 1..=3),
    ) {
        let db = build_db(&raw);
        let spec = spec_of(&raw);
        let materialized = eval_query(&db, spec.query()).unwrap().into_tuples();
        if materialized.is_empty() {
            return Ok(());
        }

        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("main", db);
        let requests = all_requests(raw.k);
        // Warm the entry.
        front.serve_query("main", &spec, &requests).unwrap();
        let misses_before = front.registry().stats().misses;

        // Insert into the first relation the query actually reads (its
        // version participates in the key, so the repair re-keys).
        let target = spec.relations().iter().next().unwrap().clone();
        let arity = raw.rels[target[1..].parse::<usize>().unwrap()].0;
        let mut touched = false;
        for row in &delta_rows {
            let values: Vec<Value> = row.iter().take(arity).copied().map(Value::Int).collect();
            touched |= front.insert_base_tuple("main", &target, values).unwrap();
        }

        // The repaired universe sequence is the differential contract:
        // original order + appended repairs.
        let repaired = front.universe_of("main", &spec).unwrap();
        let want = oracle_answers(repaired.clone(), spec.instance().lambda(), &requests);
        let got = front.serve_query("main", &spec, &requests).unwrap();
        assert_answers_match(&got, &want, "post-delta")?;
        if touched {
            // …and it is set-equal to evaluating the mutated database
            // from scratch (order may differ; content may not).
            let state_db = {
                let mut db2 = build_db(&raw);
                for row in &delta_rows {
                    let t = Tuple::ints(row.iter().take(arity).copied());
                    let _ = db2.insert_tuple(&target, t);
                }
                db2
            };
            let mut cold: Vec<Tuple> = eval_query(&state_db, spec.query()).unwrap().into_tuples();
            let mut warm_sorted = repaired;
            cold.sort();
            warm_sorted.sort();
            prop_assert_eq!(warm_sorted, cold, "repaired universe content diverged");
        }
        // Repair, not re-prepare: no new misses for this query's serves
        // (universe_of and serve_query both landed on the repaired key).
        prop_assert_eq!(front.registry().stats().misses, misses_before);
    }
}
