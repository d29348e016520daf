//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage: `cargo run -p divr-bench --bin repro --release [-- <experiment>]`
//! with `<experiment>` one of `t1-combined`, `t1-data`, `t2`, `t3`,
//! `fig2`, `figs`, `approx`, or `all` (default).
//!
//! For every cell the harness reports (a) per-instance **verification**
//! of the matching reduction against a direct solver — the executable
//! form of the theorem's lower-bound proof — and (b) a measured scaling
//! **series** with a fitted growth class, which should match the paper's
//! classification shape (exponential for NP/PSPACE/#P-complete cells,
//! polynomial for PTIME/FP cells).

use divr_bench::growth::classify;
use divr_bench::workloads as w;
use divr_bench::{human_time, render_series, time_once, Point};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_paper::solvers::{constrained, counting, exact, mono, relevance_only};
use divr_logic::{counting as lcount, sat, ssp};
use divr_reductions as red;
use divr_relquery::{Query, Tuple};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "t1-combined" => t1_combined(),
        "t1-data" => t1_data(),
        "t2" => t2_special(),
        "t3" => t3_constraints(),
        "fig2" => fig2(),
        "figs" => figs(),
        "approx" => approx(),
        "all" => {
            t1_combined();
            t1_data();
            t2_special();
            t3_constraints();
            fig2();
            figs();
            approx();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("expected: t1-combined | t1-data | t2 | t3 | fig2 | figs | approx | all");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Prints one experiment row.
fn row(id: &str, paper: &str, verified: &str, points: &[Point]) {
    let shape = if points.len() >= 3 {
        classify(points).to_string()
    } else {
        "-".into()
    };
    println!("\n[{id}]");
    println!("  paper bound : {paper}");
    println!("  verification: {verified}");
    if !points.is_empty() {
        println!("  scaling     : {}", render_series(points));
        println!("  fitted shape: {shape}");
    }
}

// ---------------------------------------------------------------------
// Table I, top: combined complexity
// ---------------------------------------------------------------------

fn t1_combined() {
    banner("TABLE I (combined complexity) — {QRD, DRP, RDC} × {F_MS, F_MM, F_mono} × L_Q");

    // ---- QRD, F_MS / F_MM, CQ (NP-complete; Thm 5.1) ----
    for (kind, make) in [
        (
            ObjectiveKind::MaxSum,
            red::sat_qrd::to_qrd_max_sum as fn(&divr_logic::Cnf) -> red::Instance,
        ),
        (ObjectiveKind::MaxMin, red::sat_qrd::to_qrd_max_min),
    ] {
        let mut ok = 0;
        let total = 8;
        for i in 0..total {
            let cnf = w::sat_instance(3 + i % 4);
            if make(&cnf).qrd(kind) == sat::satisfiable(&cnf) {
                ok += 1;
            }
        }
        let mut points = Vec::new();
        for n in [3usize, 4, 5, 6, 7] {
            let cnf = w::sat_instance(n);
            let (_, d) = time_once(|| make(&cnf).qrd(kind));
            points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
        }
        row(
            &format!("T1c/QRD/{kind}/CQ"),
            "NP-complete (Thm 5.1; 3SAT gadget)",
            &format!("{ok}/{total} instances agree with DPLL"),
            &points,
        );
    }

    // ---- QRD, F_MS, FO (PSPACE-complete; Thm 5.1 via FO membership) ----
    {
        let db = w::graph_db(6, 14, 10);
        let mut ok = 0;
        let total = 8;
        for depth in 1..=2 {
            let q = w::alternating_chain_query(depth);
            let full: Query = q.clone().into();
            for node in 0..4i64 {
                let s = Tuple::ints([node]);
                let inst = red::membership_qrd::membership_to_qrd_ms(&db, &q, &s);
                if inst.qrd(ObjectiveKind::MaxSum) == full.contains(&db, &s).unwrap() {
                    ok += 1;
                }
            }
        }
        // Scaling: Q(D) materialization cost for the wide-negation family
        // (the first step of any QRD answer) grows exponentially with
        // query width.
        let mut points = Vec::new();
        for width in [2usize, 3, 4, 5] {
            let q: Query = w::wide_negation_query(width).into();
            let (_, d) = time_once(|| q.eval(&db).unwrap().len());
            points.push(Point { size: width as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T1c/QRD/F_MS|F_MM/FO",
            "PSPACE-complete (Thm 5.1; FO-membership gadget)",
            &format!("{ok}/{total} membership instances agree with the FO oracle"),
            &points,
        );
    }

    // ---- QRD, F_mono, CQ (PSPACE-complete; Thm 5.2) ----
    {
        let mut ok = 0;
        let total = 6;
        for i in 0..total {
            let q = w::q3sat_instance(3 + i % 3);
            if red::q3sat_mono::to_qrd_mono(&q).qrd(ObjectiveKind::Mono) == q.is_true() {
                ok += 1;
            }
        }
        let mut points = Vec::new();
        for m in [4usize, 5, 6, 7, 8] {
            let q = w::q3sat_instance(m);
            let (_, d) = time_once(|| red::q3sat_mono::to_qrd_mono(&q).qrd(ObjectiveKind::Mono));
            points.push(Point { size: m as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T1c/QRD/F_mono/CQ",
            "PSPACE-complete even for CQ (Thm 5.2; Q3SAT gadget, |Q(D)| = 2^m)",
            &format!("{ok}/{total} instances agree with the QBF solver"),
            &points,
        );
    }

    // ---- DRP, F_MS / F_MM, CQ (coNP-complete; Thm 6.1) ----
    {
        let mut ok = 0;
        let total = 6;
        for i in 0..total {
            let cnf = w::sat_instance(3 + i % 3);
            let r = red::sat_drp::to_drp_max_sum(&cnf);
            if r.instance.drp(ObjectiveKind::MaxSum, &r.candidate, 1) != sat::satisfiable(&cnf)
            {
                ok += 1;
            }
            let r = red::sat_drp::to_drp_max_min(&cnf);
            if r.instance.drp(ObjectiveKind::MaxMin, &r.candidate, 1) != sat::satisfiable(&cnf)
            {
                ok += 1;
            }
        }
        let mut points = Vec::new();
        for n in [3usize, 4, 5] {
            let cnf = w::sat_instance(n);
            let (_, d) = time_once(|| {
                let r = red::sat_drp::to_drp_max_min(&cnf);
                r.instance.drp(ObjectiveKind::MaxMin, &r.candidate, 1)
            });
            points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T1c/DRP/F_MS|F_MM/CQ",
            "coNP-complete (Thm 6.1; ¬3SAT gadget — max-sum variant repaired, see DESIGN.md)",
            &format!("{ok}/{} reductions agree with DPLL", 2 * total),
            &points,
        );
    }

    // ---- DRP, F_mono, CQ (PSPACE-complete; Thm 6.2) ----
    {
        let mut ok = 0;
        let total = 6;
        for i in 0..total {
            let q = w::q3sat_instance(3 + i % 3);
            let r = red::q3sat_mono::to_drp_mono(&q);
            if r.instance.drp(ObjectiveKind::Mono, &r.candidate, 1) == q.is_true() {
                ok += 1;
            }
        }
        row(
            "T1c/DRP/F_mono/CQ",
            "PSPACE-complete (Thm 6.2; repaired gadget — the published δ* ties, see DESIGN.md)",
            &format!("{ok}/{total} instances agree with the QBF solver"),
            &[],
        );
    }

    // ---- RDC, F_MS / F_MM, CQ (#·NP-complete; Thm 7.1) ----
    {
        let mut ok = 0;
        let total = 6;
        for i in 0..total {
            let n = 3 + i % 2;
            let m_x = 1 + i % 2;
            let cnf = w::sat_instance(n);
            if cnf.num_vars <= m_x {
                ok += 1;
                continue;
            }
            let expected = lcount::count_sigma1(&cnf, m_x);
            if red::sigma1_rdc::sigma1_to_rdc_ms(&cnf, m_x).rdc(ObjectiveKind::MaxSum)
                == expected
            {
                ok += 1;
            }
        }
        let mut points = Vec::new();
        for n in [3usize, 4, 5, 6] {
            let cnf = w::sat_instance(n);
            let (_, d) = time_once(|| {
                red::sigma1_rdc::sigma1_to_rdc_ms(&cnf, 1).rdc(ObjectiveKind::MaxSum)
            });
            points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T1c/RDC/F_MS|F_MM/CQ",
            "#·NP-complete (Thm 7.1; #Σ₁SAT gadget over the Fig. 5 relations)",
            &format!("{ok}/{total} counts equal #Σ₁SAT"),
            &points,
        );
    }

    // ---- RDC, F_MS, FO (#·PSPACE-complete; Thm 7.1 via #QBF) ----
    {
        let mut ok = 0;
        let total = 4;
        for i in 0..total {
            let (qbf, m) = w::sharp_qbf_instance(1 + i % 2, 1 + i % 2);
            let expected = lcount::count_qbf(&qbf, m);
            if red::sigma1_rdc::qbf_to_rdc_fo_ms(&qbf, m).rdc(ObjectiveKind::MaxSum) == expected
            {
                ok += 1;
            }
        }
        row(
            "T1c/RDC/F_MS|F_MM/FO",
            "#·PSPACE-complete (Thm 7.1; #QBF gadget)",
            &format!("{ok}/{total} counts equal #QBF"),
            &[],
        );
    }

    // ---- RDC, F_mono, CQ (#·PSPACE-complete; Thm 7.2) ----
    {
        let mut ok = 0;
        let total = 5;
        for i in 0..total {
            let (qbf, m) = w::sharp_qbf_instance(1 + i % 2, 2 + i % 2);
            let expected = lcount::count_qbf(&qbf, m);
            if red::qbf_mono_rdc::to_rdc_mono(&qbf, m).rdc(ObjectiveKind::Mono) == expected {
                ok += 1;
            }
        }
        let mut points = Vec::new();
        for total_vars in [5usize, 6, 7, 8] {
            let (qbf, m) = w::sharp_qbf_instance(2, total_vars - 2);
            let (_, d) =
                time_once(|| red::qbf_mono_rdc::to_rdc_mono(&qbf, m).rdc(ObjectiveKind::Mono));
            points.push(Point { size: total_vars as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T1c/RDC/F_mono/CQ",
            "#·PSPACE-complete even for CQ (Thm 7.2; δ** gadget, B = 2^{n+1}/(2^{m+n}−1))",
            &format!("{ok}/{total} counts equal #QBF"),
            &points,
        );
    }

    // ---- RDC over identity queries, F_mono (Thm 7.5 Turing reduction) ----
    {
        let mut ok = 0;
        let total = 8;
        let mut r = w::rng(99);
        for _ in 0..total {
            use rand::Rng;
            let n = r.gen_range(2..=7);
            let weights: Vec<u64> = (0..n).map(|_| r.gen_range(0..=6)).collect();
            let d = r.gen_range(0..=10);
            let l = r.gen_range(1..=n);
            if red::sspk_rdc::sspk_via_rdc(&weights, d, l)
                == ssp::count_subset_sum_k(&weights, d, l)
            {
                ok += 1;
            }
        }
        row(
            "T1c/RDC/F_mono/identity (Turing)",
            "#P-complete under Turing reductions (Thm 7.5: X − Y oracle trick; Lemma 7.6 chain)",
            &format!("{ok}/{total} #SSPk values recovered through the RDC oracle"),
            &[],
        );
    }
}

// ---------------------------------------------------------------------
// Table I, bottom: data complexity
// ---------------------------------------------------------------------

fn t1_data() {
    banner("TABLE I (data complexity) — fixed query, growing D");

    // Hard cells: F_MS / F_MM with k growing with |D| (NP-complete).
    for kind in [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin] {
        let mut points = Vec::new();
        for n in [12usize, 14, 16, 18, 20] {
            let secs = w::with_point_problem(n, n / 2, Ratio::new(1, 2), 1, |p| {
                let (_, d) = time_once(|| exact::maximize(p, kind));
                d.as_secs_f64()
            });
            points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            &format!("T1d/QRD/{kind}"),
            "NP-complete (Thm 5.4) — exact search over C(n, n/2) candidate sets",
            "exact optimum cross-checked against brute force in the test suite",
            &points,
        );
    }

    // DRP hard cell (coNP-complete): rank a random candidate set.
    {
        let mut points = Vec::new();
        for n in [12usize, 14, 16, 18] {
            let secs = w::with_point_problem(n, n / 2, Ratio::new(1, 2), 2, |p| {
                let subset: Vec<usize> = (0..p.k()).collect();
                let (_, d) = time_once(|| exact::rank_of(p, ObjectiveKind::MaxSum, &subset));
                d.as_secs_f64()
            });
            points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T1d/DRP/F_MS",
            "coNP-complete (Thm 6.4)",
            "rank agrees with brute-force counting in the test suite",
            &points,
        );
    }

    // RDC hard cell (#P-complete): full count at B = 0.
    {
        let mut points = Vec::new();
        for n in [12usize, 14, 16, 18, 20] {
            let secs = w::with_point_problem(n, n / 2, Ratio::new(1, 2), 3, |p| {
                let (_, d) = time_once(|| counting::rdc(p, ObjectiveKind::MaxSum, Ratio::ZERO));
                d.as_secs_f64()
            });
            points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T1d/RDC/F_MS|F_MM",
            "#P-complete (Thm 7.4, parsimonious)",
            "counts agree with unpruned enumeration in the test suite",
            &points,
        );
    }

    // Tractable cells: F_mono (PTIME / PTIME / pseudo-poly DP).
    {
        let mut q_points = Vec::new();
        let mut d_points = Vec::new();
        let mut c_points = Vec::new();
        for n in [128usize, 256, 512, 1024] {
            let (q, dr) = w::with_point_problem(n, 10, Ratio::new(1, 2), 4, |p| {
                let (_, dq) = time_once(|| mono::max_mono(p));
                let subset: Vec<usize> = (0..10).collect();
                let (_, dd) = time_once(|| mono::drp_mono(p, &subset, 8));
                (dq.as_secs_f64(), dd.as_secs_f64())
            });
            // The counting DP is pseudo-polynomial: polynomial only on
            // magnitude-bounded scores (Thm 7.5's hardness lives in
            // unbounded weights), so the DP row uses the bounded-score
            // workload.
            let c = w::with_bounded_score_problem(n, 10, Ratio::new(1, 2), 4, |p| {
                let (_, dc) = time_once(|| counting::rdc_mono_dp(p, Ratio::int(40)));
                dc.as_secs_f64()
            });
            q_points.push(Point { size: n as f64, seconds: q });
            d_points.push(Point { size: n as f64, seconds: dr });
            c_points.push(Point { size: n as f64, seconds: c });
        }
        row(
            "T1d/QRD/F_mono",
            "PTIME (Thm 5.4: top-k by item score v(t))",
            "agrees with exact search in the test suite",
            &q_points,
        );
        row(
            "T1d/DRP/F_mono",
            "PTIME (Thm 6.4: FindNext / k-best sum subsets)",
            "agrees with exact rank in the test suite",
            &d_points,
        );
        row(
            "T1d/RDC/F_mono",
            "#P-complete; pseudo-polynomial sum DP on bounded-magnitude scores (Thm 7.5 structure)",
            "agrees with enumeration in the test suite",
            &c_points,
        );
    }
}

// ---------------------------------------------------------------------
// Table II: special cases
// ---------------------------------------------------------------------

fn t2_special() {
    banner("TABLE II (special cases)");

    // Identity queries + F_mono: PTIME / PTIME / #P-Turing (Cor 8.1) —
    // same algorithms as T1d/F_mono; shown via the identity pipeline.
    {
        let mut points = Vec::new();
        for n in [256usize, 512, 1024, 2048] {
            let secs = w::with_point_problem(n, 8, Ratio::new(1, 2), 5, |p| {
                let (_, d) = time_once(|| mono::qrd_mono(p, Ratio::int(500)));
                d.as_secs_f64()
            });
            points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T2/identity/F_mono",
            "QRD, DRP in PTIME; RDC #P-complete under Turing reductions (Cor 8.1)",
            "identity-query pipeline = post-evaluation instance; validated in tests",
            &points,
        );
    }

    // λ = 0 (Thm 8.2): PTIME QRD/DRP for F_MS and F_MM; FP count for
    // F_MM; pseudo-poly DP for F_MS.
    {
        let mut qrd_points = Vec::new();
        let mut rdc_mm_points = Vec::new();
        for n in [1024usize, 2048, 4096, 8192] {
            let secs = w::with_point_problem(n, 10, Ratio::ZERO, 6, |p| {
                let (_, d) = time_once(|| relevance_only::qrd_ms(p, Ratio::int(500)));
                d.as_secs_f64()
            });
            qrd_points.push(Point { size: n as f64, seconds: secs });
            let secs = w::with_point_problem(n, 10, Ratio::ZERO, 7, |p| {
                let (_, d) = time_once(|| relevance_only::rdc_mm(p, Ratio::int(50)));
                d.as_secs_f64()
            });
            rdc_mm_points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T2/λ=0/QRD(F_MS)",
            "PTIME (Thm 8.2: top-k by relevance)",
            "agrees with exact search in tests; 3SAT gadget keeps combined NP-hard",
            &qrd_points,
        );
        row(
            "T2/λ=0/RDC(F_MM)",
            "FP (Thm 8.2: a single binomial coefficient)",
            "agrees with enumeration in tests",
            &rdc_mm_points,
        );
        // RDC(F_MS) at λ=0: #P-complete but pseudo-polynomial in the
        // weight magnitudes.
        let mut dp_points = Vec::new();
        for n in [64usize, 128, 256, 512] {
            let secs = w::with_point_problem(n, 8, Ratio::ZERO, 8, |p| {
                let (_, d) = time_once(|| relevance_only::rdc_ms(p, Ratio::int(2000)));
                d.as_secs_f64()
            });
            dp_points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T2/λ=0/RDC(F_MS)",
            "#P-complete under Turing reductions (Thm 8.2); pseudo-poly DP here",
            "agrees with enumeration in tests",
            &dp_points,
        );
    }

    // Constant k (Cor 8.4): everything polynomial in |D|.
    {
        let mut points = Vec::new();
        for n in [32usize, 64, 128, 256] {
            let secs = w::with_point_problem(n, 3, Ratio::new(1, 2), 9, |p| {
                let (_, d) = time_once(|| {
                    (
                        exact::maximize(p, ObjectiveKind::MaxSum),
                        counting::rdc(p, ObjectiveKind::MaxMin, Ratio::int(10)),
                    )
                });
                d.as_secs_f64()
            });
            points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T2/constant-k (k = 3)",
            "QRD/DRP PTIME, RDC FP for all three objectives (Cor 8.4)",
            "C(n,3) enumeration; agrees with generic solvers by construction",
            &points,
        );
    }

    // λ = 1 (Thm 8.3): dropping the relevance function does NOT lower
    // any bound. Hardness evidence: the λ=1 #Σ₁SAT → RDC gadget
    // round-trips against the direct counter, and the λ=1 subset-sum
    // Turing reduction (repaired; the published gadget is broken — see
    // DESIGN.md §5b) recovers #SSPk through two RDC oracle calls.
    {
        let mut ok = 0;
        let total = 6;
        for i in 0..total {
            let n = 2 + i % 3;
            let cnf = w::sat_instance(n);
            let m_x = 1;
            if cnf.num_vars > m_x
                && red::lambda1::sigma1_to_rdc_ms_lambda1(&cnf, m_x).rdc(ObjectiveKind::MaxSum)
                    == lcount::count_sigma1(&cnf, m_x)
            {
                ok += 1;
            }
        }
        let mut ssp_ok = 0;
        let ssp_total = 6;
        for i in 0..ssp_total {
            let weights: Vec<u64> = (0..4 + i % 3).map(|j| (j as u64 * 3 + i as u64) % 7).collect();
            let d = (i as u64 * 2) % 9;
            let l = 1 + i % 3;
            if red::lambda1::sspk_via_rdc_lambda1(&weights, d, l)
                == ssp::count_subset_sum_k(&weights, d, l)
            {
                ssp_ok += 1;
            }
        }
        let mut points = Vec::new();
        for n in [3usize, 4, 5, 6] {
            let cnf = w::sat_instance(n);
            let (_, d) =
                time_once(|| red::lambda1::sigma1_to_rdc_ms_lambda1(&cnf, 1).rdc(ObjectiveKind::MaxSum));
            points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T2/λ=1/RDC(F_MS)/CQ",
            "#·NP-complete at λ = 1 (Thm 8.3) — distance-only objective keeps the bound",
            &format!(
                "{ok}/{total} #Σ₁SAT round-trips; {ssp_ok}/{ssp_total} repaired λ=1 #SSPk Turing calls agree with DP"
            ),
            &points,
        );
    }

    // Remark after Thm 6.4: DRP(F_mono) with r in the input (binary) is
    // pseudo-polynomial — runtime grows with r.
    {
        let mut points = Vec::new();
        for exp in [4u32, 7, 10, 13] {
            let r_val = 1usize << exp;
            let secs = w::with_point_problem(512, 8, Ratio::new(1, 2), 10, |p| {
                let subset: Vec<usize> = (0..8).collect();
                let (_, d) = time_once(|| mono::drp_mono(p, &subset, r_val));
                d.as_secs_f64()
            });
            points.push(Point { size: f64::from(exp), seconds: secs });
        }
        row(
            "T2/DRP(F_mono)/r-in-input",
            "pseudo-polynomial in r (remark after Thm 6.4) — size axis is log2 r",
            "top-r enumeration is exact (tests)",
            &points,
        );
    }
}

// ---------------------------------------------------------------------
// Table III: compatibility constraints
// ---------------------------------------------------------------------

fn t3_constraints() {
    banner("TABLE III (compatibility constraints C_m)");

    // Thm 9.3 / Cor 9.4: identity + F_mono flips from PTIME to NP-hard.
    // The constrained search is genuinely exponential (that is the
    // theorem), so the gadget sizes here are small: k = vars + clauses
    // and the universe has ~9 rows per variable.
    {
        let mut ok = 0;
        let total = 8;
        for i in 0..total {
            let mut r_src = w::rng(7100 + i as u64);
            let cnf = divr_logic::gen::random_3sat(&mut r_src, 2 + i % 2, 2 + i % 3);
            let r = red::constraints_hard::sat_to_constrained_qrd(&cnf);
            if red::constraints_hard::constrained_qrd(&r) == sat::satisfiable(&cnf) {
                ok += 1;
            }
        }
        let mut con_points = Vec::new();
        let mut free_points = Vec::new();
        for n in [2usize, 3, 4, 5, 6] {
            let mut r_src = w::rng(7200 + n as u64);
            let cnf = divr_logic::gen::random_3sat(&mut r_src, n, n);
            let r = red::constraints_hard::sat_to_constrained_qrd(&cnf);
            let (_, d) = time_once(|| red::constraints_hard::constrained_qrd(&r));
            con_points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
            let p = r.instance.problem();
            let (_, d) = time_once(|| mono::qrd_mono(&p, r.instance.bound));
            free_points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T3/QRD/identity/F_mono + Σ",
            "NP-complete with constraints (Thm 9.3 / Cor 9.4; our gadget — appendix proof unavailable)",
            &format!("{ok}/{total} instances agree with DPLL"),
            &con_points,
        );
        row(
            "T3/QRD/identity/F_mono, Σ = ∅ (same instances)",
            "PTIME without constraints (Cor 8.1) — the contrast cell",
            "same universes as above",
            &free_points,
        );
    }

    // Cor 9.5 / 9.6: the λ ∈ {0, 1} tractable cells also flip with Σ.
    {
        let mut ok0 = 0;
        let mut ok1 = 0;
        let mut okc = 0;
        let total = 6;
        for i in 0..total {
            let mut r_src = w::rng(7300 + i as u64);
            let cnf = divr_logic::gen::random_3sat(&mut r_src, 2 + i % 2, 2 + i % 3);
            let expect = sat::satisfiable(&cnf);
            let r0 = red::constraints_special::sat_to_qrd_lambda0(&cnf, ObjectiveKind::Mono);
            if red::constraints_special::qrd(&r0, ObjectiveKind::Mono) == expect {
                ok0 += 1;
            }
            let r1 = red::constraints_special::sat_to_qrd_lambda1(&cnf);
            if red::constraints_special::qrd(&r1, ObjectiveKind::Mono) == expect {
                ok1 += 1;
            }
            let rc = red::constraints_special::sat_to_rdc_lambda0(&cnf);
            if red::constraints_special::rdc(&rc, ObjectiveKind::Mono) == sat::count_models(&cnf) {
                okc += 1;
            }
        }
        let mut points = Vec::new();
        for n in [2usize, 3, 4, 5, 6] {
            let mut r_src = w::rng(7400 + n as u64);
            let cnf = divr_logic::gen::random_3sat(&mut r_src, n, n);
            let r = red::constraints_special::sat_to_qrd_lambda0(&cnf, ObjectiveKind::Mono);
            let (_, d) = time_once(|| red::constraints_special::qrd(&r, ObjectiveKind::Mono));
            points.push(Point { size: n as f64, seconds: d.as_secs_f64() });
        }
        row(
            "T3/λ∈{0,1} + Σ (Cor 9.5/9.6; our gadgets)",
            "QRD NP-complete, DRP coNP-complete, RDC #P-complete (parsimonious) at both extremes",
            &format!(
                "{ok0}/{total} λ=0 QRD, {ok1}/{total} λ=1 QRD agree with DPLL; {okc}/{total} parsimonious counts match #SAT"
            ),
            &points,
        );
    }

    // Cor 9.7: constant k stays tractable even with constraints.
    {
        use divr_paper::constraints::{CmPred, Constraint};
        let conflict = Constraint::builder()
            .forall(2)
            .exists(0)
            .premise(CmPred::attrs_eq((0, 0), (1, 0)))
            .premise(CmPred::attrs_ne((0, 1), (1, 1)))
            .conclusion(CmPred::attrs_ne((0, 0), (0, 0)))
            .build();
        let cs = vec![conflict];
        let mut points = Vec::new();
        for n in [32usize, 64, 128, 256] {
            let secs = w::with_point_problem(n, 3, Ratio::new(1, 2), 11, |p| {
                let (_, d) = time_once(|| {
                    constrained::rdc(p, ObjectiveKind::MaxSum, Ratio::int(10), &cs)
                });
                d.as_secs_f64()
            });
            points.push(Point { size: n as f64, seconds: secs });
        }
        row(
            "T3/constant-k + Σ (k = 3)",
            "PTIME/FP even with constraints (Cor 9.7)",
            "constrained enumeration equals filtered brute force (tests)",
            &points,
        );
    }
}

// ---------------------------------------------------------------------
// Figure 2 / Lemma 5.3
// ---------------------------------------------------------------------

fn fig2() {
    banner("FIGURE 2 + LEMMA 5.3 — the recursive δ_dis construction");

    // The figure's own example.
    let q = red::q3sat_mono::fig2_qbf();
    let pt = red::q3sat_mono::PrefixTruth::new(&q);
    println!("\nϕ = ∃x1 ∀x2 ∃x3 ∀x4 (x1∨x2∨¬x3) ∧ (¬x2∨¬x3∨x4)   [true: {}]", q.is_true());
    println!("l = 3 probe pairs (paper's first block):");
    for j in (1..=16).step_by(2) {
        let t = red::q3sat_mono::fig2_tuple(j);
        let s = red::q3sat_mono::fig2_tuple(j + 1);
        let d = red::q3sat_mono::semantic_delta(&pt, &t, &s);
        print!("  δ(t{},t{})={}", j, j + 1, u8::from(d));
    }
    println!();

    // Lemma 5.3, exhaustively: recursive definition ≡ semantic suffix
    // truth, across random sentences.
    let mut pairs_checked = 0u64;
    let mut agree = 0u64;
    for m in 2..=7 {
        let q = w::q3sat_instance(m);
        let pt = red::q3sat_mono::PrefixTruth::new(&q);
        for tb in 0..(1u32 << m) {
            for sb in 0..(1u32 << m) {
                let t: Vec<bool> = (0..m).map(|i| (tb >> i) & 1 == 1).collect();
                let s: Vec<bool> = (0..m).map(|i| (sb >> i) & 1 == 1).collect();
                pairs_checked += 1;
                if red::q3sat_mono::paper_delta(&q, &t, &s)
                    == red::q3sat_mono::semantic_delta(&pt, &t, &s)
                {
                    agree += 1;
                }
            }
        }
    }
    println!("\nLemma 5.3: {agree}/{pairs_checked} tuple pairs agree (recursive vs semantic δ)");

    // Construction cost: building all suffix truths is Θ(2^m).
    let mut points = Vec::new();
    for m in [8usize, 10, 12, 14] {
        let q = w::q3sat_instance(m);
        let (_, d) = time_once(|| red::q3sat_mono::PrefixTruth::new(&q));
        points.push(Point { size: m as f64, seconds: d.as_secs_f64() });
    }
    row(
        "F2/construction",
        "the δ_dis oracle is PTIME per pair; whole-table construction is Θ(2^m)",
        "Lemma 5.3 equivalence above",
        &points,
    );
}

// ---------------------------------------------------------------------
// Figures 1, 3, 4 — the complexity lattices
// ---------------------------------------------------------------------

fn figs() {
    banner("FIGURES 1 / 3 / 4 — complexity maps (cells → experiments)");
    let rows: &[(&str, &str, &str, &str)] = &[
        ("QRD",  "FO combined",            "PSPACE-complete (Th 5.1)",            "T1c/QRD/F_MS|F_MM/FO"),
        ("QRD",  "CQ/∃FO+ combined",       "NP-complete (Th 5.1)",                "T1c/QRD/F_MS/CQ, T1c/QRD/F_MM/CQ"),
        ("QRD",  "CQ/FO data (MS, MM)",    "NP-complete (Th 5.4)",                "T1d/QRD/F_MS, T1d/QRD/F_MM"),
        ("QRD",  "CQ/FO combined (mono)",  "PSPACE-complete (Th 5.2)",            "T1c/QRD/F_mono/CQ"),
        ("QRD",  "CQ/FO data (mono)",      "PTIME (Th 5.4)",                      "T1d/QRD/F_mono"),
        ("QRD",  "λ=0 data",               "PTIME (Th 8.2)",                      "T2/λ=0/QRD(F_MS)"),
        ("QRD",  "constant k data",        "PTIME (Cor 8.4)",                     "T2/constant-k"),
        ("QRD",  "identity (mono)",        "PTIME (Cor 8.1)",                     "T2/identity/F_mono"),
        ("DRP",  "FO combined",            "PSPACE-complete (Th 6.1)",            "membership DRP gadget (tests)"),
        ("DRP",  "CQ/∃FO+ combined",       "coNP-complete (Th 6.1)",              "T1c/DRP/F_MS|F_MM/CQ"),
        ("DRP",  "CQ/FO combined (mono)",  "PSPACE-complete (Th 6.2, repaired)",  "T1c/DRP/F_mono/CQ"),
        ("DRP",  "CQ/FO data (MS, MM)",    "coNP-complete (Th 6.4)",              "T1d/DRP/F_MS"),
        ("DRP",  "CQ/FO data (mono)",      "PTIME (Th 6.4)",                      "T1d/DRP/F_mono"),
        ("RDC",  "FO combined",            "#·PSPACE-complete (Th 7.1)",          "T1c/RDC/F_MS|F_MM/FO"),
        ("RDC",  "CQ/∃FO+ combined",       "#·NP-complete (Th 7.1)",              "T1c/RDC/F_MS|F_MM/CQ"),
        ("RDC",  "CQ/FO combined (mono)",  "#·PSPACE-complete (Th 7.2)",          "T1c/RDC/F_mono/CQ"),
        ("RDC",  "CQ/FO data",             "#P-complete (Th 7.4/7.5)",            "T1d/RDC/F_MS|F_MM, T1c/RDC/F_mono/identity"),
        ("RDC",  "λ=0 data (MM)",          "FP (Th 8.2)",                         "T2/λ=0/RDC(F_MM)"),
        ("RDC",  "constant k data",        "FP (Cor 8.4)",                        "T2/constant-k"),
    ];
    println!("\n{:<5} {:<24} {:<38} experiment", "prob", "setting", "paper bound");
    println!("{}", "-".repeat(110));
    for (p, s, b, e) in rows {
        println!("{p:<5} {s:<24} {b:<38} {e}");
    }
    println!("\nRun `repro t1-combined t1-data t2 t3` for the measured series behind each cell.");
}

// ---------------------------------------------------------------------
// Approximation ablation (the algorithms Section 10 calls for)
// ---------------------------------------------------------------------

fn approx() {
    banner("APPROXIMATION ABLATION — greedy / MMR / GMM / local search vs exact");

    use divr_paper::approx as ap;
    let trials = 20;
    let mut ratios: Vec<(String, f64, f64)> = Vec::new(); // (name, mean, min)
    let mut acc: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for t in 0..trials {
        w::with_point_problem(16, 4, Ratio::new(1, 2), 100 + t, |p| {
            let (opt_ms, _) = exact::maximize(p, ObjectiveKind::MaxSum).unwrap();
            let (opt_mm, _) = exact::maximize(p, ObjectiveKind::MaxMin).unwrap();
            let g = ap::greedy_max_sum(p).unwrap();
            acc.entry("greedy/F_MS")
                .or_default()
                .push(p.f_ms(&g).to_f64() / opt_ms.to_f64().max(1e-12));
            let (ls, _) = ap::local_search_swap(p, ObjectiveKind::MaxSum, g, 30);
            acc.entry("greedy+LS/F_MS")
                .or_default()
                .push(ls.to_f64() / opt_ms.to_f64().max(1e-12));
            let m = ap::mmr(p).unwrap();
            acc.entry("MMR/F_MS")
                .or_default()
                .push(p.f_ms(&m).to_f64() / opt_ms.to_f64().max(1e-12));
            let gm = ap::gmm_max_min(p).unwrap();
            acc.entry("GMM/F_MM")
                .or_default()
                .push(p.f_mm(&gm).to_f64() / opt_mm.to_f64().max(1e-12));
        });
    }
    for (name, rs) in &acc {
        let mean = rs.iter().sum::<f64>() / rs.len() as f64;
        let min = rs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        ratios.push((name.to_string(), mean, min));
    }
    println!("\nquality on n = 16, k = 4, λ = 1/2 ({trials} seeded instances):");
    println!("  {:<16} {:>8} {:>8}", "algorithm", "mean", "worst");
    for (name, mean, min) in &ratios {
        println!("  {name:<16} {mean:>8.3} {min:>8.3}");
    }

    println!("\nspeed (F_MS value shown; exact is infeasible at these sizes):");
    for n in [512usize, 1024, 2048] {
        w::with_point_problem(n, 10, Ratio::new(1, 2), 200, |p| {
            let (set, d) = time_once(|| ap::greedy_max_sum(p).unwrap());
            println!(
                "  n = {n:<5} greedy {:<10} F_MS = {}",
                human_time(d.as_secs_f64()),
                p.f_ms(&set)
            );
        });
    }
}
