//! Batch serving over a query: evaluate and prepare once, answer many.
//!
//! Run with: `cargo run --release --example batch_serving`
//!
//! A product-search front-end rarely answers one diversification query
//! per result — it answers many: different page sizes (`k`), different
//! objectives. The query front door (the path `divrd`'s `query` frames
//! take) evaluates `Q(D)`, pays the `O(n²)` distance precomputation
//! once, caches the prepared universe under the query's canonical
//! tableau, and serves every later request — for this text or any
//! equivalent rewrite of it — from the same matrix.

use divr::core::engine::EngineRequest;
use divr::core::prelude::*;
use divr::relquery::{parser, Database, Value};
use divr::server::{QueryFrontDoor, QuerySpec, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A catalog of 1500 products: (id, category, price, rating).
    let mut rng = StdRng::seed_from_u64(42);
    let mut db = Database::new();
    db.create_relation("products", &["id", "cat", "price", "rating"])
        .unwrap();
    for id in 0..1500i64 {
        db.insert(
            "products",
            vec![
                Value::int(id),
                Value::int(rng.gen_range(0..12)),
                Value::int(rng.gen_range(5..=500)),
                Value::int(rng.gen_range(0..=100)),
            ],
        )
        .unwrap();
    }
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("shop", db);
    let spec = QuerySpec::new(
        parser::parse_query(
            "Q(id, cat, price, rating) :- products(id, cat, price, rating), price <= 400",
        )
        .unwrap(),
        Arc::new(AttributeRelevance { attr: 3, default: Ratio::ZERO }),
        Arc::new(NumericDistance { attr: 2, fallback: Ratio::ONE }),
        Ratio::new(1, 2),
    )
    .unwrap();

    // A mixed batch: three objectives × three page sizes, plus one
    // infeasible request to show the typed-error path.
    let mut requests: Vec<EngineRequest> = ObjectiveKind::ALL
        .into_iter()
        .flat_map(|kind| [5usize, 10, 25].map(|k| EngineRequest { kind, k }))
        .collect();
    requests.push(EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 1_000_000, // more than |Q(D)|: no candidate set exists
    });

    // Cold: evaluate Q(D), build the distance matrix, solve.
    let t0 = Instant::now();
    let answers = front.serve_query("shop", &spec, &requests).unwrap();
    let cold = t0.elapsed();
    // Warm: the prepared universe is resident; only the solves run.
    let t1 = Instant::now();
    let again = front.serve_query("shop", &spec, &requests).unwrap();
    let warm = t1.elapsed();
    assert_eq!(answers, again);

    let universe = front.universe_of("shop", &spec).unwrap();
    for (req, ans) in requests.iter().zip(&answers) {
        match ans {
            Ok((value, set)) => {
                let ids: Vec<i64> = set
                    .iter()
                    .take(6)
                    .map(|&i| universe[i][0].as_int().unwrap())
                    .collect();
                println!(
                    "{:<7} k={:<7} F = {:<12} ids {:?}{}",
                    req.kind.to_string(),
                    req.k,
                    value.to_string(),
                    ids,
                    if set.len() > 6 { " …" } else { "" }
                );
            }
            Err(e) => println!("{:<7} k={:<7} {e}", req.kind.to_string(), req.k),
        }
    }
    println!(
        "\n|Q(D)| = {}: {} requests cold (evaluate + prepare + solve) in {cold:.1?}, \
         warm (solve only) in {warm:.1?}",
        universe.len(),
        requests.len(),
    );
}
