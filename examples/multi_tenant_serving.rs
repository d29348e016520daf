//! Multi-tenant serving: one registry, many universes, shared cache.
//!
//! Run with: `cargo run --release --example multi_tenant_serving`
//!
//! A diversification service rarely belongs to one query. Storefronts
//! in different regions, A/B'd λ policies, and per-category result
//! pages each define their own universe `(Q(D), δ_rel, δ_dis, λ)` —
//! but the traffic re-uses those universes heavily, and the `O(n²)`
//! distance-matrix build dominates every cold request. The registry
//! fingerprints each universe by content, caches prepared state in a
//! byte-budgeted LRU, and runs a mixed batch as two steps of one claim
//! loop — resolve each distinct universe once, then solve every
//! request, the caller's thread working alongside the workers it
//! spawns — so only the *first* request against each universe pays
//! preparation.

use divr::core::distance::NumericDistance;
use divr::core::engine::EngineRequest;
use divr::core::prelude::*;
use divr::relquery::Tuple;
use divr::server::{CheckedAnswer, Registry, RegistryConfig, TenantBatch, UniverseSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// One region's catalog slice: n scattered (position, rating) points
/// with its own λ policy.
fn region_universe(seed: u64, n: usize, lambda: Ratio) -> UniverseSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe: Vec<Tuple> = {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let t = Tuple::ints([rng.gen_range(0..20_000), rng.gen_range(0..=100)]);
            if seen.insert(t.clone()) {
                out.push(t);
            }
        }
        out
    };
    UniverseSpec::new(
        universe,
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        lambda,
    )
}

fn main() {
    let registry = Registry::new(RegistryConfig {
        byte_budget: 128 << 20,
        ..RegistryConfig::default()
    });

    // Three regions; the third shares the EU catalog but A/B-tests a
    // diversity-heavier λ, so it is (correctly) a distinct universe.
    let us = region_universe(1, 1200, Ratio::new(1, 2));
    let eu = region_universe(2, 900, Ratio::new(1, 2));
    let eu_ab = UniverseSpec::new(
        eu.universe().to_vec(),
        eu.instance().relevance().clone(),
        eu.instance().distance().clone(),
        Ratio::new(3, 4),
    );

    // A mixed burst of traffic: page-one and page-two requests from
    // every tenant, interleaved.
    let burst: Vec<TenantBatch> = [&us, &eu, &eu_ab, &us, &eu]
        .iter()
        .enumerate()
        .map(|(i, spec)| TenantBatch {
            spec: (*spec).clone(),
            requests: vec![
                EngineRequest {
                    kind: ObjectiveKind::MaxMin,
                    k: 10,
                },
                EngineRequest {
                    kind: if i % 2 == 0 {
                        ObjectiveKind::Mono
                    } else {
                        ObjectiveKind::MaxSum
                    },
                    k: 5,
                },
            ],
        })
        .collect();

    println!("— burst 1: cold cache —");
    let t = Instant::now();
    let answers = registry.serve_mixed_checked(&burst);
    let cold = t.elapsed();
    report(&answers, cold);
    let s = registry.stats();
    println!(
        "   cache: {} hits / {} misses / {} entries / {:.1} MiB\n",
        s.hits,
        s.misses,
        s.entries,
        s.bytes as f64 / (1 << 20) as f64
    );

    println!("— burst 2: identical traffic, warm cache —");
    let t = Instant::now();
    let answers = registry.serve_mixed_checked(&burst);
    let warm = t.elapsed();
    report(&answers, warm);
    let s = registry.stats();
    println!(
        "   cache: {} hits / {} misses — warm burst ran {:.1}× faster",
        s.hits,
        s.misses,
        cold.as_secs_f64() / warm.as_secs_f64()
    );
}

fn report(answers: &[Vec<CheckedAnswer>], took: std::time::Duration) {
    let served: usize = answers.iter().map(|a| a.len()).sum();
    println!("   served {served} requests in {took:.2?}");
    for (t, tenant) in answers.iter().enumerate() {
        for (value, set) in tenant.iter().flatten() {
            println!(
                "   tenant {t}: F = {value}, picked {:?}…",
                &set[..set.len().min(5)]
            );
        }
    }
}
