//! Warm-restart time-to-first-hit vs cold-start stampede: the
//! durability headline number.
//!
//! A daemon that restarts over a data directory recovers its warm
//! working set *before* traffic arrives: the first request of every
//! tenant lands on a prepared entry and skips the `O(n²)` matrix
//! build. A daemon that restarts cold pays that build inline, under
//! the very stampede a restart causes — every tenant's first request
//! piles onto the same cold prepares.
//!
//! The bench seeds a 6-universe working set through the real
//! durability subsystem (prepare → checkpoint → drop), then times the
//! first 4-tenant request round twice: once after `open` + eager
//! `recover` on the snapshot (warm restart), once against a fresh
//! registry (cold stampede). The recovery cost itself is reported
//! separately — it is paid at startup, off the serving path. Recorded
//! numbers live in `BENCH_recovery.json` at the workspace root
//! (acceptance bar: warm first round ≥ 10× faster than cold).
//!
//! Run with `cargo bench -p divr-bench --bench recovery`; set
//! `BENCH_QUICK=1` for the CI smoke configuration (small `n` — sanity
//! that the bench builds and runs, not a timing gate).

use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_relquery::Tuple;
use divr_server::{Durability, QueryFrontDoor, RecoverMode, Registry, UniverseSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const UNIVERSES: usize = 6;
const TENANTS: usize = 4;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("divr-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Six distinct universes — disjoint content offsets so each is its own
/// cache entry with its own `O(n²)` prepare.
fn working_set(n: i64) -> Vec<UniverseSpec> {
    (0..UNIVERSES as i64)
        .map(|u| {
            UniverseSpec::new(
                (0..n)
                    .map(|i| Tuple::ints([u * 100_000 + i, (i * (u + 3)) % 97]))
                    .collect(),
                Arc::new(divr_core::relevance::AttributeRelevance {
                    attr: 1,
                    default: Ratio::ZERO,
                }),
                Arc::new(divr_core::distance::NumericDistance {
                    attr: 0,
                    fallback: Ratio::ZERO,
                }),
                Ratio::new(1, 2),
            )
        })
        .collect()
}

fn request() -> EngineRequest {
    EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 8,
    }
}

type TenantAnswers = Vec<Vec<(Ratio, Vec<usize>)>>;

/// One restart's first request round: `TENANTS` threads, each serving
/// every universe once. Returns (wall time ns, per-tenant answers).
fn first_round(registry: &Arc<Registry>, set: &[UniverseSpec]) -> (u128, TenantAnswers) {
    let t0 = Instant::now();
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|_| {
                scope.spawn(|| {
                    set.iter()
                        .map(|spec| registry.try_serve(spec, request()).expect("serve"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (t0.elapsed().as_nanos(), answers)
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
    let n = if quick() { 120i64 } else { 600i64 };
    let set = working_set(n);
    let dir = tmpdir();

    // Seed: prepare the working set through the real durability
    // subsystem, checkpoint (snapshot + WAL rotation), close.
    let snapshot_bytes = {
        let d = Durability::open(&dir).unwrap();
        let registry = Arc::new(Registry::default());
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        registry.attach_durability(Arc::clone(&d));
        for spec in &set {
            registry.try_prepare(spec).expect("finite scores");
        }
        let report = d.checkpoint(&registry, &front).expect("checkpoint");
        assert_eq!(report.records, UNIVERSES);
        report.snapshot_bytes
    };
    println!(
        "{:<44} {:>14}   ({UNIVERSES} universes, n={n} each)",
        "seed/snapshot_bytes",
        format!("{snapshot_bytes} B"),
    );

    // Warm restart: open + eager recover (startup cost, off the
    // serving path), then the first 4-tenant round — all hits.
    let t0 = Instant::now();
    let d = Durability::open(&dir).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let report = d.recover(&registry, &front, RecoverMode::Eager);
    registry.attach_durability(Arc::clone(&d));
    let recovery_ns = t0.elapsed().as_nanos();
    assert_eq!(report.recovered_universes, UNIVERSES);
    assert_eq!(report.failed_entries, 0);
    assert_eq!(d.stats().wal_records_replayed, 0, "checkpointed close replays nothing");
    println!(
        "{:<44} {:>14}   (open + eager rebuild, paid before traffic)",
        "restart/recovery", fmt_ns(recovery_ns),
    );

    let (warm_ns, warm_answers) = first_round(&registry, &set);
    let stats = registry.stats();
    assert_eq!(stats.misses, 0, "a recovered working set must not cold-prepare");
    assert_eq!(
        stats.hits,
        (UNIVERSES * TENANTS) as u64,
        "every first request must hit"
    );
    println!(
        "{:<44} {:>14}   ({TENANTS} tenants x {UNIVERSES} universes, all hits)",
        "restart/warm_first_round", fmt_ns(warm_ns),
    );

    // Cold stampede: the identical first round against a fresh
    // registry — every universe pays its O(n²) prepare inline.
    let cold_registry = Arc::new(Registry::default());
    let (cold_ns, cold_answers) = first_round(&cold_registry, &set);
    let cold_stats = cold_registry.stats();
    // Concurrent tenants racing the same cold key may each pay the
    // prepare — that duplicated work IS the stampede being measured.
    assert!(
        cold_stats.misses as usize >= UNIVERSES,
        "the stampede prepares every universe at least once"
    );
    println!(
        "{:<44} {:>14}   (same round, fresh registry, inline prepares)",
        "restart/cold_stampede", fmt_ns(cold_ns),
    );

    // Recovered entries answer bit-identically to cold prepares.
    assert_eq!(warm_answers, cold_answers, "warm restart must not change answers");

    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    println!(
        "{:<44} {:>13.1}x   (acceptance bar: >= 10x)",
        "speedup/warm_restart_vs_cold_stampede", speedup,
    );
    if !quick() {
        assert!(
            speedup >= 10.0,
            "warm-restart speedup {speedup:.1}x fell below the 10x acceptance bar"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
