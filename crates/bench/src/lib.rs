//! # divr-bench — harness reproducing the paper's tables and figures
//!
//! The "evaluation" of *On the Complexity of Query Result
//! Diversification* is its complexity classification: Table I (combined
//! and data complexity of QRD/DRP/RDC), Table II (special cases),
//! Table III (compatibility constraints), and Figures 1–5. This crate
//! regenerates each of them empirically:
//!
//! * **hardness cells** are validated by running the executable
//!   reductions of `divr-reductions` against the direct solvers of
//!   `divr-logic` (per-instance agreement) and by measuring
//!   super-polynomial solver scaling on reduction-generated families;
//! * **tractable cells** are validated by low-degree polynomial scaling
//!   of the implemented PTIME/FP algorithms and agreement with brute
//!   force.
//!
//! The `repro` binary is the one reproduction path: it runs every
//! series, checks each instance against a direct solver and prints the
//! tables, deterministically (seeded). The two Criterion benches under
//! `benches/` (`engine_hotpath`, `coreset_scaling`) time the engine in
//! `divr-core`, not the paper's cells; the daemon is measured over the
//! wire by `e2e/` (`BENCHMARK.json`), which this crate knows nothing of.

pub mod growth;
pub mod workloads;

use std::time::{Duration, Instant};

/// Times a closure once, returning its result and the elapsed wall time.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A single measured scaling point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Instance size parameter (whatever the experiment sweeps).
    pub size: f64,
    /// Measured wall time in seconds.
    pub seconds: f64,
}

/// Renders a scaling series compactly: `size→time, size→time, …`.
pub fn render_series(points: &[Point]) -> String {
    points
        .iter()
        .map(|p| format!("{}→{}", p.size, human_time(p.seconds)))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Human-readable duration.
pub fn human_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.0}ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_value() {
        let (v, _d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn human_time_units() {
        assert!(human_time(5e-9).ends_with("ns"));
        assert!(human_time(5e-5).ends_with("µs"));
        assert!(human_time(5e-2).ends_with("ms"));
        assert!(human_time(5.0).ends_with('s'));
    }

    #[test]
    fn series_rendering() {
        let s = render_series(&[
            Point { size: 4.0, seconds: 1e-4 },
            Point { size: 8.0, seconds: 2e-3 },
        ]);
        assert!(s.contains("4→") && s.contains("8→"));
    }
}
