//! Failure-injection tests: every error path a downstream user can hit —
//! malformed or unsafe queries, missing relations, arity mismatches,
//! non-candidate sets, degenerate sizes — must surface as a typed error
//! (or a documented panic), never as a wrong answer.

use divr::core::pipeline::{PipelineError, QueryDiversification};
use divr::core::prelude::*;
use divr::core::Ratio;
use divr::relquery::query::{cnst, var, Atom, CmpOp, ConjunctiveQuery, Formula, Query, Var};
use divr::relquery::{parser, Database, Error, Tuple, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.create_relation("items", &["id", "price"]).unwrap();
    for i in 0..5 {
        db.insert("items", vec![Value::int(i), Value::int(i * 10)])
            .unwrap();
    }
    db
}

fn task(q: Query, k: usize) -> QueryDiversification {
    QueryDiversification::new(
        db(),
        q,
        Box::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Box::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1, 2),
        k,
    )
}

#[test]
fn unknown_relation_is_a_query_error() {
    let q = parser::parse_query("Q(x) :- nope(x)").unwrap();
    let t = task(q, 2);
    match t.qrd(ObjectiveKind::MaxSum, Ratio::ZERO) {
        Err(PipelineError::Query(Error::UnknownRelation(r))) => assert_eq!(r, "nope"),
        other => panic!("expected UnknownRelation, got {other:?}"),
    }
}

#[test]
fn arity_mismatch_is_a_query_error() {
    let q = parser::parse_query("Q(x) :- items(x)").unwrap();
    let t = task(q, 2);
    assert!(matches!(
        t.rdc(ObjectiveKind::Mono, Ratio::ZERO),
        Err(PipelineError::Query(Error::ArityMismatch { .. }))
    ));
}

#[test]
fn unsafe_cq_is_rejected_at_validation() {
    // Head variable y is bound by no atom.
    let q = ConjunctiveQuery::new(
        vec![var("x"), var("y")],
        vec![Atom::new("items", vec![var("x"), var("p")])],
        vec![],
    );
    assert!(matches!(
        Query::Cq(q).validate(),
        Err(Error::UnsafeQuery(_))
    ));
}

#[test]
fn unsafe_comparison_variable_is_rejected() {
    let q = ConjunctiveQuery::new(
        vec![var("x")],
        vec![Atom::new("items", vec![var("x"), var("p")])],
        vec![divr::relquery::query::Comparison::new(
            var("z"),
            CmpOp::Lt,
            cnst(3),
        )],
    );
    assert!(matches!(
        Query::Cq(q).validate(),
        Err(Error::UnsafeQuery(_))
    ));
}

#[test]
fn drp_on_a_non_candidate_set_errors() {
    let q = Query::identity("items");
    let t = task(q, 2);
    // Tuple not in Q(D).
    let ghost = vec![Tuple::ints([99, 0]), Tuple::ints([0, 0])];
    assert!(matches!(
        t.drp(ObjectiveKind::MaxSum, &ghost, 1),
        Err(PipelineError::NotACandidateSet)
    ));
    // Wrong cardinality (k = 2, but one tuple given).
    let short = vec![Tuple::ints([0, 0])];
    assert!(matches!(
        t.drp(ObjectiveKind::MaxSum, &short, 1),
        Err(PipelineError::NotACandidateSet)
    ));
}

#[test]
fn k_larger_than_result_means_no_valid_sets_not_an_error() {
    let q = Query::identity("items");
    let t = task(q, 10);
    assert!(!t.qrd(ObjectiveKind::MaxSum, Ratio::ZERO).unwrap());
    assert_eq!(t.rdc(ObjectiveKind::MaxMin, Ratio::ZERO).unwrap(), 0);
    assert!(t.top_set(ObjectiveKind::Mono).unwrap().is_none());
}

#[test]
fn k_above_n_after_removals_is_a_typed_error_not_a_panic() {
    use divr::core::engine::{Engine, EngineRequest, PreparedUniverse, ServeError};
    use divr::{QueryFrontDoor, QuerySpec, Registry};
    use std::sync::Arc;

    // Engine path: a feasible k becomes infeasible once removals shrink
    // the universe below it.
    let universe: Vec<Tuple> = (0..5).map(|i| Tuple::ints([i, i * 10])).collect();
    let rel = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    let dis = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };
    let mut prepared = PreparedUniverse::build_shared(
        universe.clone(),
        &rel,
        Arc::new(dis.clone()),
        Ratio::new(1, 2),
        1,
    );
    prepared.remove_tuple(0).unwrap();
    prepared.remove_tuple(0).unwrap();
    let engine = Engine::from_prepared(Arc::new(prepared), 1);
    let req = EngineRequest {
        kind: ObjectiveKind::MaxMin,
        k: 4,
    };
    assert_eq!(
        engine.try_serve(req),
        Err(ServeError::InfeasibleK { k: 4, n: 3 })
    );

    // Served path: the same shrink by base-table removals under a warm
    // query yields the same typed error, never a panic.
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("main", db());
    let query = parser::parse_query("Q(x, p) :- items(x, p)").unwrap();
    let spec = QuerySpec::new(query, Arc::new(rel), Arc::new(dis), Ratio::new(1, 2)).unwrap();
    assert!(front.serve_query("main", &spec, &[req]).unwrap()[0].is_ok());
    for row in &universe[..2] {
        assert!(front.remove_base_tuple("main", "items", row.iter().cloned().collect()).unwrap());
    }
    assert_eq!(
        front.serve_query("main", &spec, &[req]).unwrap(),
        [Err(ServeError::InfeasibleK { k: 4, n: 3 })]
    );
    assert_eq!(front.registry().stats().misses, 1, "shrunk warm, not rebuilt");
}

#[test]
fn empty_result_set_behaves() {
    let q = parser::parse_query("Q(x, p) :- items(x, p), p > 1000").unwrap();
    let t = task(q, 1);
    assert!(!t.qrd(ObjectiveKind::Mono, Ratio::ZERO).unwrap());
    assert_eq!(t.rdc(ObjectiveKind::MaxSum, Ratio::ZERO).unwrap(), 0);
}

#[test]
fn fo_head_variable_absent_from_body_ranges_over_active_domain() {
    // Q(x, y) := ∃p items(x, p) — y is unconstrained. Under the
    // engine's active-domain semantics this is *not* an error: y ranges
    // over adom, so |Q(D)| = |π_id(items)| × |adom|.
    let body = Formula::exists(
        vec![Var::new("p")],
        Formula::atom("items", vec![var("x"), var("p")]),
    );
    let q = divr::relquery::query::FoQuery::new(vec![Var::new("x"), Var::new("y")], body);
    let query = Query::Fo(q);
    query.validate().unwrap();
    let result = query.eval(&db()).unwrap();
    // 5 ids × |adom| values; adom = {0..4} ∪ {0,10,20,30,40} = 9 values.
    assert_eq!(result.len(), 5 * 9);
}

#[test]
fn fo_body_free_variable_not_in_head_is_unsafe() {
    // Q(x) := items(x, p) with p free — rejected.
    let q = divr::relquery::query::FoQuery::new(
        vec![Var::new("x")],
        Formula::atom("items", vec![var("x"), var("p")]),
    );
    assert!(matches!(
        Query::Fo(q).validate(),
        Err(Error::UnsafeQuery(_))
    ));
}

#[test]
fn parser_rejects_garbage() {
    assert!(matches!(
        parser::parse_query("Q(x :- items(x)"),
        Err(Error::Parse(_))
    ));
    assert!(parser::parse_query("").is_err());
}

#[test]
fn tableau_tools_reject_comparison_queries_end_to_end() {
    let q1 = parser::parse_query("Q(x) :- items(x, p), p < 30").unwrap();
    let q2 = parser::parse_query("Q(x) :- items(x, p)").unwrap();
    let (Query::Cq(c1), Query::Cq(c2)) = (q1, q2) else {
        panic!("parser should produce CQs");
    };
    assert!(matches!(
        divr::relquery::query::contained_in(&c1, &c2),
        Err(Error::MalformedQuery(_))
    ));
    // The comparison-free direction errors too (either side taints it).
    assert!(matches!(
        divr::relquery::query::contained_in(&c2, &c1),
        Err(Error::MalformedQuery(_))
    ));
}

#[test]
fn normalization_error_paths_end_to_end() {
    // ∃FO⁺ check happens before DNF expansion.
    let q = divr::relquery::query::FoQuery::new(
        vec![Var::new("x")],
        Formula::and(vec![
            Formula::atom("S", vec![var("x")]),
            Formula::not(Formula::atom("S", vec![var("x")])),
        ]),
    );
    assert!(matches!(
        divr::relquery::query::ucq_of(&q),
        Err(Error::MalformedQuery(_))
    ));
}
