//! Serving a universe the full-matrix engine cannot touch.
//!
//! Run with: `cargo run --release --example large_universe`
//!
//! At `n = 50 000` result tuples the flat `f64` distance matrix every
//! other serving path builds would be `n²·8 B = 20 GB` — there is no
//! `prepare_engine` at this size. The coreset path selects `m ≪ n`
//! representatives in `O(n·m)` distance evaluations (half by top
//! relevance, half by farthest-point coverage), runs the usual
//! heuristics on the `m × m` matrix, and re-scores each answer exactly
//! against the full universe. This example drives it two ways:
//!
//! 1. directly through [`divr::core::coreset::CoresetEngine`];
//! 2. through the serving registry with
//!    [`divr::server::UniverseSpec::with_coreset`], where the prepared
//!    coreset is cached at its honest `m² + O(n)` size and mixes with
//!    full-matrix tenants in one batch.

use divr::core::coreset::{CoresetConfig, CoresetEngine};
use divr::core::distance::NumericDistance;
use divr::core::engine::EngineRequest;
use divr::core::prelude::*;
use divr::relquery::Tuple;
use divr::server::{CoresetSpec, Registry, TenantBatch, UniverseSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 50_000;
const K: usize = 10;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xB16);
    let universe = divr::core::gen::point_universe(&mut rng, N, 2, (10 * N) as i64);
    let rel = divr::core::gen::random_relevance(&mut rng, &universe, 100);
    let dis = Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    });

    println!(
        "universe: n = {N} tuples — the full n×n matrix would be {:.1} GB; never built here",
        (N * N * 8) as f64 / 1e9
    );

    // 1. Direct coreset engine.
    let config = CoresetConfig::recommended(K);
    let t = Instant::now();
    let engine = CoresetEngine::new(universe.clone(), &rel, dis.clone(), Ratio::new(1, 2), &config);
    println!(
        "prepared m = {} representatives in {:.2?} (covering radius {:.0}, ~{:.1} MB resident)",
        engine.m(),
        t.elapsed(),
        engine.prepared().coreset().covering_radius(),
        engine.prepared().approx_bytes() as f64 / 1e6
    );
    for kind in ObjectiveKind::ALL {
        let t = Instant::now();
        let (value, set) = engine.try_serve(EngineRequest { kind, k: K }).unwrap();
        println!(
            "  {kind}: F = {value} in {:.2?}, picked {:?}…",
            t.elapsed(),
            &set[..5]
        );
    }

    // 2. Through the registry: a large coreset tenant and a small
    //    full-matrix tenant in one mixed batch.
    let registry = Registry::default();
    let large = UniverseSpec::new(universe, Arc::new(rel), dis.clone(), Ratio::new(1, 2))
        .with_coreset(CoresetSpec::with_budget(config.budget));
    let small = UniverseSpec::new(
        (0..500).map(|i| Tuple::ints([i, i % 23])).collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        dis,
        Ratio::new(1, 2),
    );
    let batch = vec![
        TenantBatch {
            spec: large,
            requests: vec![EngineRequest {
                kind: ObjectiveKind::MaxMin,
                k: K,
            }],
        },
        TenantBatch {
            spec: small,
            requests: vec![EngineRequest {
                kind: ObjectiveKind::MaxSum,
                k: 5,
            }],
        },
    ];
    for pass in ["cold", "warm"] {
        let t = Instant::now();
        let answers = registry.serve_mixed_checked(&batch);
        println!(
            "registry mixed batch ({pass}): {} answers in {:.2?}",
            answers.iter().map(|a| a.len()).sum::<usize>(),
            t.elapsed()
        );
    }
    let s = registry.stats();
    println!(
        "cache: {} hits / {} misses, {:.1} MB resident across {} entries (coreset entry metered at m²+O(n), not n²)",
        s.hits,
        s.misses,
        s.bytes as f64 / 1e6,
        s.entries
    );
}
