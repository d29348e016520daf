//! Delta-prepare vs full re-prepare for a single-tuple insert: the
//! mutable-universe headline number.
//!
//! A warm [`PreparedUniverse`] absorbs `insert_tuple` in `O(n)` — one
//! distance column, an in-place matrix row/column extension into the
//! stride headroom, and `O(n)` repair of all three memoized solver
//! preambles (max-sum seed, mono d-sums/scores, GMM seed pair). The
//! alternative is what every edit cost before deltas existed: a full
//! `O(n²)` re-prepare of the mutated universe. This bench times both on
//! the same workload and reports the ratio; recorded numbers live in
//! `BENCH_delta.json` at the workspace root (acceptance bar: ≥ 20× at
//! `n = 10 000`).
//!
//! Run with `cargo bench -p divr-bench --bench delta_prepare`; set
//! `BENCH_QUICK=1` for the CI smoke configuration (small `n` — sanity
//! that the bench builds and runs, not a timing gate).

use divr_core::engine::{Engine, EngineRequest, PreparedUniverse};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::{Relevance, TableRelevance};
use divr_relquery::Tuple;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The shared workload family of `engine_hotpath` / `BENCH_coreset`:
/// 2-D integer points, L1 distance on attribute 0, random integer
/// relevances — deterministic per `n`.
fn workload(n: usize) -> (Vec<Tuple>, TableRelevance) {
    let mut r = StdRng::seed_from_u64(0xDE17A ^ ((n as u64) << 8));
    let universe = divr_core::gen::point_universe(&mut r, n, 2, (10 * n) as i64);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 100);
    (universe, rel)
}

fn dis() -> Arc<dyn divr_core::distance::Distance + Send + Sync> {
    Arc::new(divr_core::distance::NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    })
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn main() {
    let (n, samples) = if quick() { (1_000, 2) } else { (10_000, 5) };
    let k = 10;
    let (universe, rel) = workload(n + 1);
    let base = universe[..n].to_vec();
    let extra = universe[n].clone();
    let extra_rel = rel.rel(&extra);
    let lambda = Ratio::new(1, 2);

    // The warm state a resident tenant has: prepared once, all three
    // solver preambles materialized by real serves.
    let mut prepared = PreparedUniverse::build_shared(base.clone(), &rel, dis(), lambda, 1);
    let warm = |p: PreparedUniverse<'static>| -> PreparedUniverse<'static> {
        let arc = Arc::new(p);
        let engine = Engine::from_prepared(arc.clone(), 1);
        for kind in ObjectiveKind::ALL {
            engine.try_serve(EngineRequest { kind, k }).expect("k ≤ n");
        }
        drop(engine);
        Arc::try_unwrap(arc).expect("sole owner")
    };
    prepared = warm(prepared);

    // Delta-prepare: the timed op is insert_tuple on the warm state —
    // distance column, matrix extension, preamble repair. The untimed
    // remove + re-warm between samples restores the starting state (the
    // stride headroom makes the insert/remove pair allocation-neutral,
    // so every sample measures the same O(n) path).
    let mut delta_total = Duration::ZERO;
    for _ in 0..samples {
        let t0 = Instant::now();
        prepared.insert_tuple(extra.clone(), extra_rel);
        delta_total += t0.elapsed();
        assert_eq!(prepared.n(), n + 1);
        prepared.remove_tuple(n).expect("just inserted");
        prepared = warm(prepared);
    }
    let delta_ns = delta_total.as_nanos() / samples as u128;
    println!(
        "{:<40} {:>14}/op   ({samples} samples, warm preambles repaired in place)",
        format!("delta/insert_tuple/{n}"),
        fmt_ns(delta_ns),
    );

    // Full re-prepare: what the same edit costs without deltas — the
    // O(n²) build of the mutated universe from scratch.
    let mutated: Vec<Tuple> = base.iter().cloned().chain([extra.clone()]).collect();
    let full_samples = samples.min(3);
    let mut full_total = Duration::ZERO;
    for _ in 0..full_samples {
        let t0 = Instant::now();
        let p = PreparedUniverse::build_shared(mutated.clone(), &rel, dis(), lambda, 1);
        full_total += t0.elapsed();
        assert_eq!(p.n(), n + 1);
    }
    let full_ns = full_total.as_nanos() / full_samples as u128;
    println!(
        "{:<40} {:>14}/op   ({full_samples} samples, O(n²) matrix + seed build)",
        format!("full/re_prepare/{}", n + 1),
        fmt_ns(full_ns),
    );

    let speedup = full_ns as f64 / delta_ns.max(1) as f64;
    println!(
        "{:<40} {:>13.1}x   (acceptance bar at n=10000: >= 20x)",
        "speedup/delta_vs_full", speedup,
    );
    if !quick() {
        assert!(
            speedup >= 20.0,
            "delta-prepare speedup {speedup:.1}x fell below the 20x acceptance bar"
        );
    }
}
