//! Large-universe serving via coresets: the workload the full-matrix
//! engine cannot touch.
//!
//! At `n = 50 000` the flat `f64` distance matrix alone is
//! `n²·8 B = 20 GB` — `DistanceMatrix::build` cannot even allocate it
//! on a normal host, so there is no full-matrix baseline to time at
//! this size; the coreset path (`O(n·m)` selection, `m × m` matrix) is
//! the only viable route. This bench records:
//!
//! * `coreset/prepare_50000` — relevance pass, two-phase selection
//!   (`m = 160`), and the `m × m` matrix build at `n = 50 000`;
//! * `coreset/serve_50000_{F_MS,F_MM,F_mono}` — one warm `k = 10`
//!   request per objective against the prepared coreset (includes the
//!   exact full-universe re-score; `F_mono`'s is `O(n·k)` by design);
//! * `coreset/prepare_2000` vs `full/prepare_2000` — same workload
//!   family at a size the full engine still handles, isolating what
//!   the `O(n·m)` selection costs relative to the `O(n²)` build it
//!   replaces.
//!
//! Run with `cargo bench -p divr-bench --bench coreset_scaling`;
//! recorded numbers live in `BENCH_coreset.json` at the workspace
//! root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divr_core::coreset::{CoresetConfig, CoresetEngine, PreparedCoreset};
use divr_core::distance::NumericDistance;
use divr_core::engine::{EngineRequest, PreparedUniverse};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::TableRelevance;
use divr_relquery::Tuple;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const N_LARGE: usize = 50_000;
const N_SMALL: usize = 2_000;
const K: usize = 10;
const BUDGET: usize = 16 * K; // CoresetConfig::recommended(K)

/// Deterministic workload: 2-D integer points, L1-on-attr-0 distance,
/// random integer relevances — the `engine_hotpath` family, at sizes
/// the matrix path cannot reach.
fn workload(n: usize) -> (Vec<Tuple>, TableRelevance) {
    let mut r = StdRng::seed_from_u64(0xC05E5E7 ^ ((n as u64) << 8));
    let universe = divr_core::gen::point_universe(&mut r, n, 2, (10 * n) as i64);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 100);
    (universe, rel)
}

fn dis() -> Arc<dyn divr_core::distance::Distance + Send + Sync> {
    Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    })
}

fn coreset_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("coreset");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(100));
    g.measurement_time(std::time::Duration::from_millis(2000));

    // The headline: prepare + serve where the full matrix cannot exist.
    let (universe, rel) = workload(N_LARGE);
    let config = CoresetConfig::with_budget(BUDGET);
    g.bench_with_input(
        BenchmarkId::new("prepare", N_LARGE),
        &universe,
        |b, u| {
            b.iter(|| {
                PreparedCoreset::build_shared(u.clone(), &rel, dis(), Ratio::new(1, 2), &config)
                    .m()
            })
        },
    );
    let engine = CoresetEngine::new(
        universe.clone(),
        &rel,
        dis(),
        Ratio::new(1, 2),
        &config,
    );
    for kind in ObjectiveKind::ALL {
        g.bench_with_input(
            BenchmarkId::new(format!("serve_{kind}"), N_LARGE),
            &kind,
            |b, &kind| {
                b.iter(|| engine.try_serve(EngineRequest { kind, k: K }).unwrap().1.len())
            },
        );
    }

    // Small-n contrast: what the O(n·m) selection costs next to the
    // O(n²) matrix build it replaces.
    let (small, small_rel) = workload(N_SMALL);
    g.bench_with_input(
        BenchmarkId::new("prepare", N_SMALL),
        &small,
        |b, u| {
            b.iter(|| {
                PreparedCoreset::build_shared(
                    u.clone(),
                    &small_rel,
                    dis(),
                    Ratio::new(1, 2),
                    &config,
                )
                .m()
            })
        },
    );
    g.finish();

    let mut g = c.benchmark_group("full");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(100));
    g.measurement_time(std::time::Duration::from_millis(2000));
    let (small, small_rel) = workload(N_SMALL);
    g.bench_with_input(
        BenchmarkId::new("prepare", N_SMALL),
        &small,
        |b, u| {
            b.iter(|| {
                PreparedUniverse::build_shared(
                    u.clone(),
                    &small_rel,
                    dis(),
                    Ratio::new(1, 2),
                    divr_core::engine::default_threads(),
                )
                .n()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, coreset_scaling);
criterion_main!(benches);
