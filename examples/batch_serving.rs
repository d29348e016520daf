//! Batch serving: prepare the engine once, answer many requests.
//!
//! Run with: `cargo run --release --example batch_serving`
//!
//! A product-search front-end rarely answers one diversification query
//! per materialized result — it answers many: different page sizes
//! (`k`), different objectives, A/B'd λ policies. The batch engine
//! pays the `O(n²)` distance precomputation once and serves every
//! request from the same matrix, with results guaranteed to match the
//! exact `Ratio`-path heuristics up to equal-score ties.

use divr::core::engine::{EngineRequest, SolveScratch};
use divr::core::prelude::*;
use divr::relquery::{parser, Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    let q = parser::parse_query(
        "Q(id, cat, price, rating) :- products(id, cat, price, rating), price <= 400",
    )
    .unwrap();
    let task = QueryDiversification::new(
        db,
        q,
        Box::new(AttributeRelevance { attr: 3, default: Ratio::ZERO }),
        Box::new(NumericDistance { attr: 2, fallback: Ratio::ONE }),
        Ratio::new(1, 2),
        10,
    );

    // Prepare once: evaluate Q(D), build the distance matrix.
    let t0 = Instant::now();
    let engine = task.prepare_engine().unwrap();
    println!(
        "prepared engine over |Q(D)| = {} candidates in {:.1?} ({} threads)\n",
        engine.n(),
        t0.elapsed(),
        engine.threads()
    );

    // Serve a mixed batch: three objectives × three page sizes, plus
    // one infeasible request to show the typed-error path.
    let mut requests: Vec<EngineRequest> = ObjectiveKind::ALL
        .into_iter()
        .flat_map(|kind| [5usize, 10, 25].map(|k| EngineRequest { kind, k }))
        .collect();
    requests.push(EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 1_000_000, // more than |Q(D)|: no candidate set exists
    });

    let t1 = Instant::now();
    let mut scratch = SolveScratch::new();
    let answers: Vec<_> = requests
        .iter()
        .map(|&req| {
            let mut set = Vec::new();
            engine
                .serve_into(req, &mut scratch, &mut set)
                .map(|value| (value, set))
        })
        .collect();
    let elapsed = t1.elapsed();

    for (req, ans) in requests.iter().zip(&answers) {
        match ans {
            Ok((value, set)) => {
                let ids: Vec<i64> = set
                    .iter()
                    .take(6)
                    .map(|&i| engine.universe()[i][0].as_int().unwrap())
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
        "\nserved {} requests against one matrix in {:.1?}",
        requests.len(),
        elapsed
    );
}
