//! Seeded workload builders for the `repro` binary (and the one
//! distance the `engine_hotpath` bench borrows).

use divr_core::distance::{ClosureDistance, ConstantDistance};
use divr_core::problem::DiversityProblem;
use divr_core::ratio::Ratio;
use divr_logic::{Cnf, Qbf};
use divr_relquery::query::{var, FoQuery, Formula, Var};
use divr_relquery::{Database, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a named experiment.
pub fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(0xD1BE5EED ^ salt)
}

/// A 3SAT instance at the mixed-phase clause ratio (`2n` clauses),
/// deterministic per size.
pub fn sat_instance(n_vars: usize) -> Cnf {
    let mut r = rng(n_vars as u64);
    divr_logic::gen::random_3sat(&mut r, n_vars, 2 * n_vars)
}

/// A Q3SAT sentence with `m` variables, deterministic per size.
pub fn q3sat_instance(m: usize) -> Qbf {
    let mut r = rng(1000 + m as u64);
    divr_logic::gen::random_q3sat(&mut r, m, m + 2, None)
}

/// A #QBF instance `∃^m ∀ …` with `m + n_rest` variables.
pub fn sharp_qbf_instance(m: usize, n_rest: usize) -> (Qbf, usize) {
    let mut r = rng(2000 + (m * 31 + n_rest) as u64);
    divr_logic::gen::random_sharp_qbf(&mut r, m, n_rest, 2 * (m + n_rest))
}

/// A random directed graph database `node(x)`, `edge(x, y)`.
pub fn graph_db(nodes: usize, edges: usize, salt: u64) -> Database {
    let mut r = rng(3000 + salt);
    let mut db = Database::new();
    db.create_relation("node", &["x"]).unwrap();
    db.create_relation("edge", &["x", "y"]).unwrap();
    for i in 0..nodes {
        db.insert("node", vec![Value::int(i as i64)]).unwrap();
    }
    let mut inserted = 0;
    while inserted < edges {
        let a = r.gen_range(0..nodes) as i64;
        let b = r.gen_range(0..nodes) as i64;
        if db
            .insert("edge", vec![Value::int(a), Value::int(b)])
            .unwrap()
        {
            inserted += 1;
        }
    }
    db
}

/// The alternating-quantifier FO query family used for the PSPACE
/// (combined complexity) cells:
///
/// ```text
/// Q(x) := node(x) ∧ ∀y1 (edge(x,y1) → ∃y2 (edge(y1,y2) ∧ …))
/// ```
///
/// with `depth` alternations; the innermost ∃ level asserts a successor
/// exists, the innermost ∀ level that all successors point back. The
/// **top-down membership check** (`Query::contains`, the paper's
/// PSPACE guess-and-check subroutine) costs `O(adom^depth)` —
/// exponential in the query, polynomial in the data.
pub fn alternating_chain_query(depth: usize) -> FoQuery {
    use divr_relquery::query::Term;
    assert!(depth >= 1);
    let name = |i: usize| -> Var {
        if i == 0 {
            Var::new("x")
        } else {
            Var::new(format!("y{i}"))
        }
    };
    let mut inner: Option<Formula> = None;
    for i in (1..=depth).rev() {
        let prev = name(i - 1);
        let cur = name(i);
        let edge = Formula::atom(
            "edge",
            vec![Term::Var(prev.clone()), Term::Var(cur.clone())],
        );
        let universal = i % 2 == 1;
        let body = match inner.take() {
            Some(f) => {
                if universal {
                    Formula::implies(edge, f)
                } else {
                    Formula::and(vec![edge, f])
                }
            }
            None => {
                if universal {
                    // all successors point back
                    Formula::implies(
                        edge,
                        Formula::atom("edge", vec![Term::Var(cur.clone()), Term::Var(prev)]),
                    )
                } else {
                    edge
                }
            }
        };
        inner = Some(if universal {
            Formula::forall(vec![cur], body)
        } else {
            Formula::exists(vec![cur], body)
        });
    }
    FoQuery::new(
        vec![Var::new("x")],
        Formula::and(vec![
            Formula::atom("node", vec![var("x")]),
            inner.expect("depth ≥ 1"),
        ]),
    )
}

/// The wide-negation FO family for **bottom-up evaluation** cost: with
/// `width` head variables,
///
/// ```text
/// Q(x1..xw) := node(x1) ∧ … ∧ node(xw) ∧ ¬(edge(x1,x2) ∨ … ∨ edge(x{w−1},xw))
/// ```
///
/// the negation complements a `w`-variable binding table against
/// `adom^w` — evaluation is exponential in the query width, polynomial in
/// the database (the PSPACE-combined / PTIME-data split again, for
/// `Q(D)` materialization).
pub fn wide_negation_query(width: usize) -> FoQuery {
    use divr_relquery::query::Term;
    assert!(width >= 2);
    let xs: Vec<Var> = (0..width).map(|i| Var::new(format!("x{i}"))).collect();
    let mut conjuncts: Vec<Formula> = xs
        .iter()
        .map(|v| Formula::atom("node", vec![Term::Var(v.clone())]))
        .collect();
    let edges: Vec<Formula> = xs
        .windows(2)
        .map(|w| {
            Formula::atom(
                "edge",
                vec![Term::Var(w[0].clone()), Term::Var(w[1].clone())],
            )
        })
        .collect();
    conjuncts.push(Formula::not(Formula::or(edges)));
    FoQuery::new(xs, Formula::and(conjuncts))
}

/// Builds a metric point-universe diversification problem and passes it
/// to `f` (sidestepping the borrow of the relevance/distance functions).
///
/// Universe: `n` distinct 2-D integer points; relevance: random in
/// `[0, 100]`; distance: L1.
pub fn with_point_problem<T>(
    n: usize,
    k: usize,
    lambda: Ratio,
    salt: u64,
    f: impl FnOnce(&DiversityProblem<'_>) -> T,
) -> T {
    let mut r = rng((4000 + salt) ^ ((n as u64) << 16));
    let coord_range = (10 * n) as i64;
    let universe = divr_core::gen::point_universe(&mut r, n, 2, coord_range);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 100);
    let dis = l1_distance();
    let p = DiversityProblem::new(universe, &rel, &dis, lambda, k);
    f(&p)
}

/// Builds a **magnitude-bounded** diversification problem and passes it
/// to `f`: integer relevances in `[0, 8]` and unit distances, so the
/// per-item mono scores live on a 9-point grid. This is the regime where
/// the pseudo-polynomial counting DP of Theorem 7.5 is actually
/// polynomial — its `#P`-hardness lives in unbounded weight magnitudes,
/// which [`with_point_problem`] exhibits instead (its high-entropy
/// scores make the reachable-sum set explode combinatorially).
pub fn with_bounded_score_problem<T>(
    n: usize,
    k: usize,
    lambda: Ratio,
    salt: u64,
    f: impl FnOnce(&DiversityProblem<'_>) -> T,
) -> T {
    let mut r = rng((9000 + salt) ^ ((n as u64) << 16));
    let universe = divr_core::gen::point_universe(&mut r, n, 2, (4 * n) as i64);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 8);
    let dis = ConstantDistance(Ratio::ONE);
    let p = DiversityProblem::new(universe, &rel, &dis, lambda, k);
    f(&p)
}

/// L1 distance over the first two integer attributes.
pub fn l1_distance() -> ClosureDistance<impl Fn(&Tuple, &Tuple) -> Ratio> {
    ClosureDistance(|a: &Tuple, b: &Tuple| {
        let dx = (a[0].as_int().unwrap_or(0) - b[0].as_int().unwrap_or(0)).abs();
        let dy = (a[1].as_int().unwrap_or(0) - b[1].as_int().unwrap_or(0)).abs();
        Ratio::int(dx + dy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_relquery::Query;

    #[test]
    fn deterministic_instances() {
        assert_eq!(sat_instance(5), sat_instance(5));
        assert_eq!(q3sat_instance(4), q3sat_instance(4));
    }

    #[test]
    fn chain_query_valid_and_evaluates() {
        let db = graph_db(5, 10, 1);
        for depth in 1..=3 {
            let q = alternating_chain_query(depth);
            q.validate().expect("valid query");
            let full: Query = q.clone().into();
            let out = full.eval(&db).unwrap();
            // result is a set of nodes
            assert!(out.len() <= 5);
        }
    }

    #[test]
    fn chain_query_membership_consistent_with_eval() {
        let db = graph_db(4, 8, 3);
        let q = alternating_chain_query(2);
        let full: Query = q.clone().into();
        let result = full.eval(&db).unwrap();
        for i in 0..4i64 {
            let t = divr_relquery::Tuple::ints([i]);
            assert_eq!(full.contains(&db, &t).unwrap(), result.contains(&t));
        }
    }

    #[test]
    fn wide_negation_query_valid() {
        let db = graph_db(4, 5, 4);
        for w in 2..=4 {
            let q = wide_negation_query(w);
            q.validate().unwrap();
            let full: Query = q.clone().into();
            let out = full.eval(&db).unwrap();
            assert!(out.len() <= 4usize.pow(w as u32));
        }
    }

    #[test]
    fn point_problem_shape() {
        with_point_problem(12, 3, Ratio::new(1, 2), 7, |p| {
            assert_eq!(p.n(), 12);
            assert_eq!(p.k(), 3);
        });
    }

    #[test]
    fn graph_db_sizes() {
        let db = graph_db(6, 9, 2);
        assert_eq!(db.relation("node").unwrap().len(), 6);
        assert_eq!(db.relation("edge").unwrap().len(), 9);
    }
}
