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
//!   exact full-universe re-score; `F_mono`'s reads the memoized
//!   key-column distance sums), and `serve_F_mono_first_50000` — the
//!   first mono request against a fresh prepare, which builds that
//!   memo (`O(n log n)`);
//! * `coreset/prepare_2000` vs `full/prepare_2000` — same workload
//!   family at a size the full engine still handles, isolating what
//!   the `O(n·m)` selection costs relative to the `O(n²)` build it
//!   replaces;
//! * `coreset/select_t{1,2}` and `coreset/prepare_t{1,2}` at
//!   `n = 20 000, m = 256` (the wire benchmark's `coreset_huge` shape)
//!   and `n = 50 000, m = 160` — `Coreset::select` alone and the whole
//!   prepare, at one and two threads: the cells that show whether the
//!   thread setting helps or hurts the selection.
//!
//! Run with `cargo bench -p divr-bench --bench coreset_scaling`;
//! recorded numbers live in `BENCH_coreset.json` at the workspace
//! root. Set `BENCH_QUICK=1` for the CI smoke configuration (every
//! size and window divided by ten — sanity, not a timing gate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divr_core::coreset::{Coreset, CoresetConfig, CoresetEngine, PreparedCoreset};
use divr_core::distance::NumericDistance;
use divr_core::engine::{EngineRequest, PreparedUniverse};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::{Relevance, TableRelevance};
use divr_relquery::Tuple;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const K: usize = 10;
const BUDGET: usize = 16 * K; // CoresetConfig::recommended(K)

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Deterministic workload: 2-D integer points, L1-on-attr-0 distance,
/// random integer relevances — the `engine_hotpath` family, at sizes
/// the matrix path cannot reach.
fn workload(n: usize) -> (Vec<Tuple>, TableRelevance) {
    let mut r = StdRng::seed_from_u64(0xC05E5E7 ^ ((n as u64) << 8));
    let universe = divr_paper::gen::point_universe(&mut r, n, 2, (10 * n) as i64);
    let rel = divr_paper::gen::random_relevance(&mut r, &universe, 100);
    (universe, rel)
}

fn dis() -> Arc<dyn divr_core::distance::Distance + Send + Sync> {
    Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    })
}

fn coreset_scaling(c: &mut Criterion) {
    let shrink = if quick() { 10 } else { 1 };
    let window = std::time::Duration::from_millis(2000 / shrink as u64);
    let (n_large, n_small) = (50_000 / shrink, 2_000 / shrink);
    let mut g = c.benchmark_group("coreset");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(100));
    g.measurement_time(window);

    // The headline: prepare + serve where the full matrix cannot exist.
    let (universe, rel) = workload(n_large);
    let config = CoresetConfig::with_budget(BUDGET);
    g.bench_with_input(
        BenchmarkId::new("prepare", n_large),
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
            BenchmarkId::new(format!("serve_{kind}"), n_large),
            &kind,
            |b, &kind| {
                b.iter(|| engine.try_serve(EngineRequest { kind, k: K }).unwrap().1.len())
            },
        );
    }

    // The first mono request pays for the exact distance sums of all n
    // items; prepare stays outside the timed window.
    let samples = if quick() { 1 } else { 5 };
    let mut first = std::time::Duration::ZERO;
    for _ in 0..samples {
        let fresh = CoresetEngine::new(universe.clone(), &rel, dis(), Ratio::new(1, 2), &config);
        let t0 = std::time::Instant::now();
        let (_, set) = fresh
            .try_serve(EngineRequest {
                kind: ObjectiveKind::Mono,
                k: K,
            })
            .unwrap();
        first += t0.elapsed();
        assert_eq!(set.len(), K);
    }
    println!(
        "{:<40} {:>10.3} us/iter   ({samples} samples, prepare untimed)",
        format!("coreset/serve_F_mono_first/{n_large}"),
        first.as_secs_f64() * 1e6 / samples as f64,
    );

    // Selection alone and the whole prepare at one and two threads, on
    // the wire benchmark's shape and on the headline's.
    for (n, m) in [(20_000 / shrink, 256), (n_large, BUDGET)] {
        let (universe, rel) = workload(n);
        let rels: Vec<Ratio> = universe.iter().map(|t| rel.rel(t)).collect();
        let oracle = dis();
        for threads in [1, 2] {
            g.bench_function(
                BenchmarkId::new(format!("select_t{threads}"), format!("{n}_m{m}")),
                |b| b.iter(|| Coreset::select(&universe, &rels, &*oracle, m, threads).m()),
            );
            let config = CoresetConfig::with_budget(m).with_threads(threads);
            g.bench_function(
                BenchmarkId::new(format!("prepare_t{threads}"), format!("{n}_m{m}")),
                |b| {
                    b.iter(|| {
                        PreparedCoreset::build_shared(
                            universe.clone(),
                            &rel,
                            oracle.clone(),
                            Ratio::new(1, 2),
                            &config,
                        )
                        .m()
                    })
                },
            );
        }
    }

    // Small-n contrast: what the O(n·m) selection costs next to the
    // O(n²) matrix build it replaces.
    let (small, small_rel) = workload(n_small);
    g.bench_with_input(
        BenchmarkId::new("prepare", n_small),
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
    g.measurement_time(window);
    let (small, small_rel) = workload(n_small);
    g.bench_with_input(
        BenchmarkId::new("prepare", n_small),
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
