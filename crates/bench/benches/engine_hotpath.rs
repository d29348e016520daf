//! Hot-path benchmark for the incremental-gain `F_MS` engine: the lazy
//! pair-weight heap cold (first request against a fresh
//! `PreparedUniverse`; the heap seed is fused into the matrix build, so
//! cold ≈ heapify + rounds) vs warm (everything resident), `F_mono`
//! serving (select + exact re-score) first-request
//! and warm over a key-column and a keyless oracle, the cold prepare
//! itself (fused matrix build + `check_finite`, into a fresh and into a
//! recycled allocation) with the first `F_MM` request after it, plus
//! steady-state allocation counts for the scratch-based serving forms,
//! measured by a counting global allocator.
//!
//! Run with `cargo bench -p divr-bench --bench engine_hotpath`;
//! set `BENCH_QUICK=1` for the CI smoke configuration (tiny n, one k —
//! sanity that the bench builds and runs, not a timing gate).
//! Headline numbers are recorded in `BENCH_hotpath.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divr_bench::workloads as w;
use divr_core::distance::{Distance, NumericDistance};
use divr_core::engine::{Engine, EngineRequest, PreparedUniverse, SolveScratch};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::TableRelevance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts every allocation (and growth-realloc) so the steady-state
/// serving paths can be pinned allocation-free, not just assumed so.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The shared workload of `BENCH_coreset`: 2-D
/// integer points, L1 distance on attribute 0, random integer
/// relevances — deterministic per `n`.
fn workload(n: usize) -> (Vec<divr_relquery::Tuple>, TableRelevance) {
    let mut r = StdRng::seed_from_u64(0xE9617E ^ ((n as u64) << 8));
    let universe = divr_core::gen::point_universe(&mut r, n, 2, (10 * n) as i64);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 100);
    (universe, rel)
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

/// Cold `F_MS`: a fresh `PreparedUniverse` per sample (matrix built
/// outside the timed window; the heap seed rides the build itself).
/// The timed solve is the
/// first-request latency a cache miss sees after `prepare`: heapify
/// plus the lazy greedy rounds, nothing memoized from prior requests.
fn cold_greedy(sizes: &[usize], ks: &[usize]) {
    println!("\n== group fms_cold ==");
    for &n in sizes {
        let (universe, rel) = workload(n);
        let dis = w::l1_distance();
        for &k in ks {
            let samples = if quick() { 1 } else { 5 };
            let mut total = Duration::ZERO;
            for _ in 0..samples {
                let e = Engine::with_threads(universe.clone(), &rel, &dis, Ratio::new(1, 2), 1);
                let t0 = Instant::now();
                let set = e.greedy_max_sum(k).expect("feasible");
                total += t0.elapsed();
                assert_eq!(set.len(), k);
            }
            let mean = total.as_nanos() / samples as u128;
            println!(
                "{:<40} {:>14}/iter   ({samples} samples, prepare untimed)",
                format!("fms_cold/greedy_max_sum/{n}/k{k}"),
                fmt_ns(mean),
            );
        }
    }
}

/// Warm `F_MS` (memoized heap preamble), on one prepared engine.
fn warm_greedy(c: &mut Criterion, sizes: &[usize], ks: &[usize]) {
    for &n in sizes {
        let (universe, rel) = workload(n);
        let dis = w::l1_distance();
        let e = Engine::with_threads(universe, &rel, &dis, Ratio::new(1, 2), 1);
        let mut g = c.benchmark_group("fms_warm");
        g.sample_size(10);
        g.warm_up_time(Duration::from_millis(20));
        g.measurement_time(Duration::from_millis(200));
        for &k in ks {
            e.greedy_max_sum(k); // memoize the preamble outside timing
            g.bench_with_input(BenchmarkId::new(format!("lazy/{n}"), format!("k{k}")), &e, |b, e| {
                b.iter(|| e.greedy_max_sum(k).map(|s| s.len()))
            });
        }
        g.finish();
    }
}

/// `F_mono` through `serve_into` — top-`k` cut plus the exact re-score
/// — over a key-column oracle (`NumericDistance` on attribute 0: exact
/// distance sums memoized in `O(n log n)`) and over the keyless L1
/// closure (per-pair `Ratio` sums, `O(n·k)` per request). `first` is
/// the first request against a fresh `PreparedUniverse` (prepare
/// untimed; pays the float preamble and the memo), `warm` the
/// steady-state repeat.
fn mono_serving(sizes: &[usize], ks: &[usize]) {
    println!("\n== group mono ==");
    let keyed = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };
    let keyless = w::l1_distance();
    let oracles: [(&str, &(dyn Distance + Sync)); 2] = [("keyed", &keyed), ("keyless", &keyless)];
    for &n in sizes {
        let (universe, rel) = workload(n);
        for (label, dis) in oracles {
            for &k in ks {
                let req = EngineRequest {
                    kind: ObjectiveKind::Mono,
                    k,
                };
                let mut scratch = SolveScratch::new();
                let mut out = Vec::new();
                let samples = if quick() { 1 } else { 5 };
                let mut first = Duration::ZERO;
                let mut warm = Duration::ZERO;
                let mut warm_rounds = 0u32;
                let mut warm_allocs = 0u64;
                for _ in 0..samples {
                    let e = Engine::with_threads(universe.clone(), &rel, dis, Ratio::new(1, 2), 1);
                    let t0 = Instant::now();
                    e.serve_into(req, &mut scratch, &mut out).expect("feasible");
                    first += t0.elapsed();
                    let (t0, allocs_before) = (Instant::now(), alloc_count());
                    while warm_rounds == 0 || (t0.elapsed() < Duration::from_millis(40) && !quick()) {
                        e.serve_into(req, &mut scratch, &mut out).expect("feasible");
                        warm_rounds += 1;
                    }
                    warm += t0.elapsed();
                    warm_allocs += alloc_count() - allocs_before;
                    assert_eq!(out.len(), k);
                }
                println!(
                    "{:<40} {:>14}/iter   ({samples} samples, prepare untimed)",
                    format!("mono/{label}/first/{n}/k{k}"),
                    fmt_ns(first.as_nanos() / samples as u128),
                );
                println!(
                    "{:<40} {:>14}/iter   ({warm_rounds} rounds, {:.2} allocs/request)",
                    format!("mono/{label}/warm/{n}/k{k}"),
                    fmt_ns(warm.as_nanos() / u128::from(warm_rounds)),
                    warm_allocs as f64 / f64::from(warm_rounds),
                );
            }
        }
    }
}

/// The cold prepare as `UniverseSpec::try_prepare_variant` runs it —
/// relevance pass, fused matrix build on 2 threads, `check_finite` —
/// over the key-column oracle the wire's `{"kind":"numeric"}` decodes
/// to. `fresh`: every sample allocates (the earlier samples are held,
/// so the matrix free list has nothing to hand out) and pays the
/// first-touch page faults; `recycled`: every sample takes the buffer
/// the previous one parked. `gmm_first`: the first `F_MM` request
/// against a freshly prepared universe, prepare untimed — what is left
/// of the seed scan once the build has done its part.
fn prepare_cost(sizes: &[usize], gmm_n: usize, k: usize) {
    println!("\n== group prepare ==");
    let dis = Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    });
    let samples = if quick() { 1 } else { 7 };
    let prepare = |universe: Vec<divr_relquery::Tuple>, rel: &TableRelevance| {
        let t0 = Instant::now();
        let prepared = PreparedUniverse::build_shared(universe, rel, dis.clone(), Ratio::new(1, 2), 2);
        prepared.check_finite().expect("finite workload");
        (t0.elapsed(), prepared)
    };
    let median = |mut times: Vec<Duration>| {
        times.sort_unstable();
        times[times.len() / 2].as_nanos()
    };
    for &n in sizes {
        let (universe, rel) = workload(n);
        let held: Vec<_> = (0..samples).map(|_| prepare(universe.clone(), &rel)).collect();
        println!(
            "{:<40} {:>14}/iter   (median of {samples}, 2 threads, check_finite included)",
            format!("prepare/fresh/{n}"),
            fmt_ns(median(held.iter().map(|(t, _)| *t).collect())),
        );
        drop(held); // parks what the recycled samples take
        let times = (0..samples).map(|_| prepare(universe.clone(), &rel).0).collect();
        println!(
            "{:<40} {:>14}/iter   (median of {samples}, 2 threads, check_finite included)",
            format!("prepare/recycled/{n}"),
            fmt_ns(median(times)),
        );
    }
    let (universe, rel) = workload(gmm_n);
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();
    let times = (0..samples)
        .map(|_| {
            let e = Engine::from_prepared(Arc::new(prepare(universe.clone(), &rel).1), 1);
            let t0 = Instant::now();
            assert!(e.gmm_max_min_into(k, &mut scratch, &mut out));
            t0.elapsed()
        })
        .collect();
    println!(
        "{:<40} {:>14}/iter   (median of {samples}, prepare untimed)",
        format!("gmm_first/{gmm_n}/k{k}"),
        fmt_ns(median(times)),
    );
}

/// Steady-state allocation counts: a warm engine + scratch serving
/// through `serve_into` (reused output buffer) must allocate **zero**
/// times per request.
fn allocation_counts(n: usize, k: usize) {
    let (universe, rel) = workload(n);
    let dis = w::l1_distance();
    let e = Engine::with_threads(universe, &rel, &dis, Ratio::new(1, 2), 1);
    let batch: Vec<EngineRequest> = ObjectiveKind::ALL
        .into_iter()
        .map(|kind| EngineRequest { kind, k })
        .collect();
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();
    // Warm everything: preambles, scratch buffers, output capacity.
    for req in &batch {
        e.serve_into(*req, &mut scratch, &mut out).expect("feasible");
    }
    let rounds = 200u64;
    for req in &batch {
        let before = alloc_count();
        for _ in 0..rounds {
            e.serve_into(*req, &mut scratch, &mut out).expect("feasible");
        }
        let per_request = (alloc_count() - before) as f64 / rounds as f64;
        println!(
            "{:<40} {:>14.2} allocs/request (serve_into, warm scratch)",
            format!("allocs/serve_into/{:?}/{n}/k{k}", req.kind),
            per_request,
        );
    }
}

fn hotpath(c: &mut Criterion) {
    let (sizes, ks): (Vec<usize>, Vec<usize>) = if quick() {
        (vec![400], vec![5])
    } else {
        (vec![2000, 8000], vec![10, 50])
    };
    cold_greedy(&sizes, &ks);
    warm_greedy(c, &sizes, &ks);
    mono_serving(&sizes, &ks);
    if quick() {
        prepare_cost(&[400], 400, 5);
    } else {
        prepare_cost(&[1000, 2000], 2000, 10);
    }
    let (alloc_n, alloc_k) = if quick() { (400, 5) } else { (2000, 10) };
    allocation_counts(alloc_n, alloc_k);
}

criterion_group!(benches, hotpath);
criterion_main!(benches);
