//! The adapter: the **only** file that names library symbols other
//! than `divr_service::json`. Two jobs live here, both in-process:
//!
//! * the **correctness oracle** — answers computed straight from the
//!   generated rows through `Registry::try_serve` and
//!   `QueryFrontDoor::serve_query`, never through the wire decoders,
//!   so a decode bug cannot make daemon and oracle agree on the wrong
//!   universe;
//! * the **layer replay** of a traced run — sampled frames walked
//!   through each layer's public functions in the order
//!   `handle_serve` / `handle_query` / `handle_mutate` call them, one
//!   span per call.
//!
//! When the serving API changes shape (ROADMAP item 3), this file is
//! the one-file follow-up; the end-to-end loop never notices.

use crate::gen::{Objective, Request, Row, RELATION, SPELLINGS};
use crate::trace::{maybe_span, Clock, Span, Tracer};
use crate::wire::Answer;
use divr_core::coreset::CORESET_AUTO_THRESHOLD;
use divr_core::distance::NumericDistance;
use divr_core::engine::{default_threads, DistanceMatrix, Engine, EngineRequest, SolveScratch};
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::{AttributeRelevance, Relevance};
use divr_core::Ratio;
use divr_relquery::eval::eval_query;
use divr_relquery::parser::parse_query;
use divr_relquery::{cardinality_bound, check_schema, Database, Tuple};
use divr_server::{
    CoresetSpec, Durability, PreparedCache, PreparedVariant, QueryFrontDoor, QuerySpec,
    RecoverMode, Registry, RegistryConfig, TenantBatch, UniverseKey, UniverseSpec,
};
use divr_service::admission::{estimate_prepared_bytes, Admission, AdmissionConfig};
use divr_service::json::{self, Value};
use divr_service::wire::{
    database_from_json, distance_from_json, ratio_from_json, relevance_from_json,
    requests_from_json, tuple_from_json, universe_from_json,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

// ---------------------------------------------------------------- oracle

fn relevance() -> AttributeRelevance {
    AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    }
}

fn distance() -> NumericDistance {
    NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    }
}

fn tuples(rows: &[Row]) -> Vec<Tuple> {
    rows.iter().map(|&row| Tuple::ints(row)).collect()
}

fn spec_of(universe: Vec<Tuple>, coreset: Option<usize>) -> UniverseSpec {
    let spec = UniverseSpec::new(
        universe,
        Arc::new(relevance()),
        Arc::new(distance()),
        Ratio::new(1, 2),
    );
    match coreset {
        Some(budget) => spec.with_coreset(CoresetSpec::with_budget(budget)),
        None => spec,
    }
}

fn engine_request(r: &Request) -> EngineRequest {
    EngineRequest {
        kind: match r.objective {
            Objective::MaxSum => ObjectiveKind::MaxSum,
            Objective::MaxMin => ObjectiveKind::MaxMin,
            Objective::Mono => ObjectiveKind::Mono,
        },
        k: r.k,
    }
}

fn answer((value, indices): (Ratio, Vec<usize>)) -> Answer {
    Answer {
        num: value.numerator(),
        den: value.denominator(),
        indices,
    }
}

/// The pooled workloads' oracle: a registry sized exactly like the
/// daemon's, so its eviction counter also tells the plan whether the
/// pool is co-resident.
pub struct Oracle(Registry);

impl Oracle {
    pub fn new() -> Oracle {
        Oracle(Registry::default())
    }

    pub fn serve(&self, rows: &[Row], coreset: Option<usize>, requests: &[Request]) -> Vec<Answer> {
        let spec = spec_of(tuples(rows), coreset);
        requests
            .iter()
            .map(|r| {
                answer(
                    self.0
                        .try_serve(&spec, engine_request(r))
                        .expect("workload requests are feasible"),
                )
            })
            .collect()
    }

    pub fn evictions(&self) -> u64 {
        self.0.stats().evictions
    }
}

/// The oracle for one never-seen universe: prepare, answer, drop.
pub fn oracle_cold(rows: &[Row], requests: &[Request]) -> Vec<Answer> {
    let threads = default_threads();
    let prepared = spec_of(tuples(rows), None)
        .try_prepare_variant(threads)
        .expect("generated scores are finite");
    requests
        .iter()
        .map(|r| {
            answer(
                prepared
                    .try_serve(threads, engine_request(r))
                    .expect("workload requests are feasible"),
            )
        })
        .collect()
}

fn query_spec(text: &str) -> QuerySpec {
    QuerySpec::new(
        parse_query(text).expect("workload queries parse"),
        Arc::new(relevance()),
        Arc::new(distance()),
        Ratio::new(1, 2),
    )
    .expect("workload queries are valid")
}

fn values_of(row: Row) -> Vec<divr_relquery::Value> {
    row.iter().map(|&v| divr_relquery::Value::int(v)).collect()
}

/// The `durable_mixed` oracle for one database: the answers without
/// and with `extra`, from a front door that applied exactly those
/// mutations. Also pins what the workload relies on — both spellings
/// agree, and insert-then-remove returns to the first answers.
pub fn oracle_query(rows: &[Row], extra: Row, requests: &[Request]) -> [Vec<Answer>; 2] {
    let mut db = Database::new();
    db.create_relation(RELATION, &["x", "y"])
        .expect("fresh database");
    for &row in rows {
        db.insert(RELATION, values_of(row)).expect("arity 2");
    }
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("oracle", db);
    let requests: Vec<EngineRequest> = requests.iter().map(engine_request).collect();
    let ask = |spelling: usize| -> Vec<Answer> {
        front
            .serve_query("oracle", &query_spec(SPELLINGS[spelling]), &requests)
            .expect("workload queries are served")
            .into_iter()
            .map(|a| answer(a.expect("workload requests are feasible")))
            .collect()
    };
    let without = ask(0);
    assert_eq!(without, ask(1), "the two spellings must be one universe");
    assert!(front
        .insert_base_tuple("oracle", RELATION, values_of(extra))
        .expect("insert is valid"));
    let with = ask(1);
    assert_eq!(with, ask(0));
    assert!(front
        .remove_base_tuple("oracle", RELATION, values_of(extra))
        .expect("remove is valid"));
    assert_eq!(without, ask(0), "insert then remove must be the identity");
    [without, with]
}

// ---------------------------------------------------------------- replay

/// One sampled frame: the bytes the daemon received and a reply the
/// daemon gave to a frame of this shape (re-encoded for `json.encode`).
pub struct ReplayFrame<'a> {
    pub payload: &'a [u8],
    pub reply: &'a [u8],
}

/// What a replay produced: the spans, and the per-layer numbers that
/// are counts rather than times.
#[derive(Default)]
pub struct Replayed {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Replayed {
    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    fn absorb(&mut self, other: Replayed) {
        self.spans.extend(other.spans);
        for (name, values) in other.counts {
            self.counts.entry(name).or_default().extend(values);
        }
    }
}

/// The in-process twin of the daemon's shared state, default-sized
/// like the daemon's.
struct Stack {
    admission: Admission,
    registry: Arc<Registry>,
    front: QueryFrontDoor,
    /// A second cache over the same prepared states: the registry's own
    /// cache is not public, and a resident-key lookup must be timed
    /// apart from the solve it precedes.
    mirror: PreparedCache,
    cores: usize,
}

impl Stack {
    fn new() -> Stack {
        let config = RegistryConfig::default();
        let registry = Arc::new(Registry::new(config));
        Stack {
            admission: Admission::new(AdmissionConfig::default()),
            front: QueryFrontDoor::new(Arc::clone(&registry)),
            registry,
            mirror: PreparedCache::new(config.byte_budget, config.shards),
            cores: default_threads(),
        }
    }

    /// The thread split `serve_mixed_checked` gives a one-universe
    /// frame with `units` requests: `(prepare threads, solve threads)`.
    fn threads(&self, units: usize) -> (usize, usize) {
        let workers = self.cores.min(units).max(1);
        (self.cores, (self.cores / workers).max(1))
    }
}

fn parse_frame(payload: &[u8]) -> (&str, Value) {
    let text = std::str::from_utf8(payload).expect("generated frames are UTF-8");
    (text, json::parse(text).expect("generated frames parse"))
}

fn member<'a>(doc: &'a Value, key: &str) -> &'a Value {
    doc.get(key).expect("generated frames carry every member")
}

fn select_name(kind: ObjectiveKind) -> (&'static str, &'static str, &'static str) {
    match kind {
        ObjectiveKind::MaxSum => (
            "core.engine.select_max_sum",
            "core.engine.rescore_max_sum",
            "core.coreset.solve_max_sum",
        ),
        ObjectiveKind::MaxMin => (
            "core.engine.select_max_min",
            "core.engine.rescore_max_min",
            "core.coreset.solve_max_min",
        ),
        ObjectiveKind::Mono => (
            "core.engine.select_mono",
            "core.engine.rescore_mono",
            "core.coreset.solve_mono",
        ),
    }
}

/// The solve of one request against resident state, split into the
/// spans the layer table names: select + exact re-score for a full
/// matrix, one `core.coreset.solve_*` for a coreset.
fn solve_spans(
    t: &mut Tracer,
    fid: u32,
    prepared: &PreparedVariant,
    request: EngineRequest,
    threads: usize,
    scratch: &mut SolveScratch,
    out: &mut Vec<usize>,
) {
    let (select, rescore, coreset) = select_name(request.kind);
    match prepared {
        PreparedVariant::Full(p) => {
            let engine = Engine::from_prepared(p.clone(), threads);
            let feasible = t.span(select, fid, |_| match request.kind {
                ObjectiveKind::MaxSum => engine.greedy_max_sum_into(request.k, scratch, out),
                ObjectiveKind::MaxMin => engine.gmm_max_min_into(request.k, scratch, out),
                ObjectiveKind::Mono => engine.mono_top_k_into(request.k, scratch, out),
            });
            assert!(feasible, "workload requests are feasible");
            t.span(rescore, fid, |_| {
                black_box(engine.objective_exact(request.kind, out))
            });
        }
        PreparedVariant::Coreset(_) => {
            t.span(coreset, fid, |_| {
                black_box(prepared.try_serve(threads, request).expect("feasible"))
            });
        }
    }
}

/// The `decomp` root: the pieces of one opaque serve call, re-run one
/// by one on the same resident state. `server.registry.overhead` (or
/// the query front door's) is the opaque call minus these.
fn decompose(
    stack: &Stack,
    t: &mut Tracer,
    fid: u32,
    key_of: impl FnOnce() -> UniverseKey,
    spec: Option<&UniverseSpec>,
    requests: &[EngineRequest],
    out: &mut Replayed,
) -> bool {
    let (prepare_threads, solve_threads) = stack.threads(requests.len());
    let mut scratch = SolveScratch::new();
    let mut set = Vec::new();
    let mut missed = false;
    t.span("decomp", fid, |t| {
        let key = t.span("server.fingerprint.key", fid, |_| key_of());
        out.count("server.fingerprint.key_bytes", key.bytes().len() as f64);
        let resident = t.span("server.cache.lookup", fid, |_| {
            stack.mirror.get_or_try_prepare_with(&key, || Err(()))
        });
        let prepared = match (resident, spec) {
            (Ok(prepared), _) => prepared,
            // A never-seen universe: the miss pays the whole prepare.
            (Err(()), Some(spec)) => {
                missed = true;
                let built = t.span("core.engine.prepare", fid, |_| {
                    spec.try_prepare_variant(prepare_threads)
                        .expect("generated scores are finite")
                });
                out.count(
                    "core.engine.prepared_mb",
                    built.approx_bytes() as f64 / (1 << 20) as f64,
                );
                built
            }
            (Err(()), None) => panic!("a warmed query universe must be resident in the mirror"),
        };
        for &request in requests {
            solve_spans(
                t,
                fid,
                &prepared,
                request,
                solve_threads,
                &mut scratch,
                &mut set,
            );
        }
    });
    missed
}

/// One `serve` frame, in `handle_serve` order. The request tree and
/// the decoded universe are freed inside the spans that built them —
/// the daemon frees both before it writes the reply.
fn serve_frame(stack: &Stack, t: &mut Tracer, fid: u32, frame: &ReplayFrame) {
    let (text, _) = parse_frame(frame.payload);
    let (_, reply) = parse_frame(frame.reply);
    t.span("frame", fid, |t| {
        let doc = t
            .span("service.json.parse", fid, |_| json::parse(text))
            .expect("generated frames parse");
        let tenant = member(&doc, "tenant").as_str().expect("string tenant");
        let (requests, spec) = t.span("service.wire.decode", fid, |_| {
            (
                requests_from_json(member(&doc, "requests")).expect("valid requests"),
                universe_from_json(member(&doc, "universe")).expect("valid universe"),
            )
        });
        t.span("service.admission.gate", fid, |t| {
            stack
                .admission
                .admit_requests(tenant, requests.len() as f64)
                .expect("the tenant rotation stays inside the rate quota");
            let estimate = estimate_prepared_bytes(
                spec.universe().len(),
                spec.coreset().map(|mode| mode.budget),
            );
            let key = t.span("server.fingerprint.key", fid, |_| spec.key());
            stack
                .admission
                .charge_universe(tenant, &key, estimate)
                .expect("the tenant rotation stays inside the cache quota");
        });
        let batch = [TenantBatch { spec, requests }];
        let answers = t.span("server.registry.serve", fid, |_| {
            stack.registry.serve_mixed_checked(&batch)
        });
        assert!(answers.iter().flatten().all(Result::is_ok));
        t.span("service.wire.decode", fid, |_| drop(batch));
        t.span("service.json.encode", fid, |_| black_box(reply.to_json()));
        t.span("service.json.parse", fid, |_| drop(doc));
    });
}

/// The decomposition of the same frame's `server.registry.serve`,
/// decoded again outside any span.
fn serve_decomp(stack: &Stack, t: &mut Tracer, fid: u32, frame: &ReplayFrame, out: &mut Replayed) {
    let (_, doc) = parse_frame(frame.payload);
    let spec = universe_from_json(member(&doc, "universe")).expect("valid universe");
    let requests = requests_from_json(member(&doc, "requests")).expect("valid requests");
    if decompose(stack, t, fid, || spec.key(), Some(&spec), &requests, out) {
        // What the prepare above spent on the matrix alone.
        let (prepare_threads, _) = stack.threads(requests.len());
        t.span("aux", fid, |t| {
            t.span("core.engine.matrix_build", fid, |_| {
                black_box(DistanceMatrix::build(
                    spec.universe(),
                    &distance(),
                    prepare_threads,
                ))
            })
        });
    }
}

/// Makes one pooled universe resident in the registry and the mirror,
/// and takes the once-per-universe measurements on the way: prepare,
/// matrix build, prepared bytes, allocations of a warm solve.
fn warm_universe(stack: &Stack, t: &mut Tracer, fid: u32, frame: &ReplayFrame, out: &mut Replayed) {
    let (_, doc) = parse_frame(frame.payload);
    let spec = universe_from_json(member(&doc, "universe")).expect("valid universe");
    let requests = requests_from_json(member(&doc, "requests")).expect("valid requests");
    let (prepare_threads, solve_threads) = stack.threads(requests.len());
    let key = spec.key();
    let prepared = t.span("aux", fid, |t| {
        let name = match spec.coreset() {
            Some(_) => "core.coreset.select",
            None => "core.engine.prepare",
        };
        let prepared = t.span(name, fid, |_| {
            spec.try_prepare_variant(prepare_threads)
                .expect("generated scores are finite")
        });
        if spec.coreset().is_none() {
            t.span("core.engine.matrix_build", fid, |_| {
                black_box(DistanceMatrix::build(
                    spec.universe(),
                    &distance(),
                    prepare_threads,
                ))
            });
        }
        prepared
    });
    out.count(
        "core.engine.prepared_mb",
        prepared.approx_bytes() as f64 / (1 << 20) as f64,
    );
    drop(prepared);
    // The registry's own copy backs the mirror, so the pool is
    // resident once, not twice.
    let resident = stack.registry.try_prepare(&spec).expect("finite scores");
    stack
        .mirror
        .insert_versioned(&key, resident.clone(), 0, Vec::new());

    // Exact allocation count of a warm solve (scratch, output buffer
    // and memoized preambles all warmed by the first round).
    let mut scratch = SolveScratch::new();
    let mut set = Vec::new();
    let mut solve = |request: EngineRequest| match &resident {
        PreparedVariant::Full(p) => {
            black_box(Engine::from_prepared(p.clone(), solve_threads).serve_into(
                request,
                &mut scratch,
                &mut set,
            ));
        }
        PreparedVariant::Coreset(p) => {
            black_box(
                divr_core::coreset::CoresetEngine::from_prepared(p.clone(), solve_threads)
                    .serve_into(request, &mut scratch, &mut set),
            );
        }
    };
    for &request in &requests {
        solve(request);
    }
    for &request in &requests {
        let before = crate::alloc::allocations();
        solve(request);
        out.count(
            "core.engine.allocs_per_request",
            (crate::alloc::allocations() - before) as f64,
        );
    }
}

/// Replays `serve` frames. `warm` holds one frame per pooled universe
/// (made resident first, unrecorded but measured once each); `frames`
/// is one lap of sampled frames, walked `laps` times and dealt
/// round-robin to `lanes` concurrent replayers — as many as the wire
/// pass had clients, so a replayed frame meets the contention for
/// cores a frame in the daemon met. The decompositions run as a phase
/// of their own afterwards: interleaved, they would add a third busy
/// thread to two cores and slow the very frames they explain.
pub fn replay_serve(
    warm: &[ReplayFrame],
    frames: &[ReplayFrame],
    laps: usize,
    lanes: usize,
    clock: &Clock,
) -> Replayed {
    let stack = Stack::new();
    let mut out = Replayed::default();
    let mut t = clock.tracer();
    for (i, frame) in warm.iter().enumerate() {
        warm_universe(&stack, &mut t, i as u32, frame, &mut out);
    }
    out.spans.extend(t.into_spans());
    // One unrecorded pass over a resident pool, so ledger entries and
    // memoized preambles exist before the recorded laps. (Never-seen
    // universes have no pool and must stay unseen.)
    let mut discard = clock.tracer();
    for (i, frame) in frames.iter().enumerate().take(warm.len() * 8) {
        serve_frame(&stack, &mut discard, i as u32, frame);
    }
    let dealt = |lane: usize| {
        (0..laps).flat_map(move |lap| {
            (lane..frames.len())
                .step_by(lanes)
                .map(move |i| ((lap * frames.len() + i) as u32, &frames[i]))
        })
    };
    run_lanes(lanes, clock, &mut out, |lane, t, _| {
        for (fid, frame) in dealt(lane) {
            serve_frame(&stack, t, fid, frame);
        }
    });
    run_lanes(lanes, clock, &mut out, |lane, t, out| {
        for (fid, frame) in dealt(lane) {
            serve_decomp(&stack, t, fid, frame, out);
        }
    });
    out
}

/// One replay phase: `work(lane, ..)` on `lanes` concurrent threads,
/// each with a tracer of its own.
fn run_lanes(
    lanes: usize,
    clock: &Clock,
    out: &mut Replayed,
    work: impl Fn(usize, &mut Tracer, &mut Replayed) + Sync,
) {
    let results: Vec<Replayed> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let work = &work;
                scope.spawn(move || {
                    let mut t = clock.tracer();
                    let mut part = Replayed::default();
                    work(lane, &mut t, &mut part);
                    part.spans = t.into_spans();
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replay lane panicked"))
            .collect()
    });
    for part in results {
        out.absorb(part);
    }
}

/// What `handle_query` decodes from a frame before it serves.
struct DecodedQuery {
    db_name: String,
    db: Database,
    spec: QuerySpec,
    requests: Vec<EngineRequest>,
    /// The evaluator's cardinality bound, clamped as the daemon clamps it.
    n_bound: usize,
}

/// The decode steps of `handle_query`, each a span when traced (the
/// warm-up and the decomposition decode untraced).
fn decode_query(doc: &Value, mut tracer: Option<&mut Tracer>, fid: u32) -> DecodedQuery {
    let t = &mut tracer;
    let query_text = member(doc, "query").as_str().expect("string query");
    let query = maybe_span(t, "relquery.parser.parse", fid, || parse_query(query_text))
        .expect("workload queries parse");
    let ((db_name, db), rel, dis, lambda, requests) =
        maybe_span(t, "service.wire.decode", fid, || {
            (
                database_from_json(member(doc, "database")).expect("valid db"),
                relevance_from_json(member(doc, "relevance")).expect("valid relevance"),
                distance_from_json(member(doc, "distance")).expect("valid distance"),
                ratio_from_json(member(doc, "lambda")).expect("valid lambda"),
                requests_from_json(member(doc, "requests")).expect("valid requests"),
            )
        });
    let (bound, spec) = maybe_span(t, "server.query.spec", fid, || {
        check_schema(&db, &query).expect("workload queries fit their database");
        let bound = cardinality_bound(&db, &query);
        let spec = QuerySpec::new(query, rel, dis, lambda).expect("valid query");
        (bound, spec)
    });
    DecodedQuery {
        db_name,
        db,
        spec,
        requests,
        n_bound: usize::try_from(bound).unwrap_or(usize::MAX).min(1 << 26),
    }
}

fn decode_query_untraced(frame: &ReplayFrame) -> DecodedQuery {
    let (_, doc) = parse_frame(frame.payload);
    decode_query(&doc, None, 0)
}

/// One `query` frame, in `handle_query` order (the rate gate runs
/// before the schema pre-flight there; the order of two adjacent
/// spans does not change either's self time).
fn query_frame(stack: &Stack, t: &mut Tracer, fid: u32, frame: &ReplayFrame) {
    let (text, _) = parse_frame(frame.payload);
    let (_, reply) = parse_frame(frame.reply);
    t.span("frame", fid, |t| {
        let doc = t
            .span("service.json.parse", fid, |_| json::parse(text))
            .expect("generated frames parse");
        let tenant = member(&doc, "tenant").as_str().expect("string tenant");
        let q = decode_query(&doc, Some(&mut *t), fid);
        t.span("service.admission.gate", fid, |_| {
            stack
                .admission
                .admit_requests(tenant, q.requests.len() as f64)
                .expect("the tenant rotation stays inside the rate quota")
        });
        let DecodedQuery {
            db_name,
            db,
            spec,
            requests,
            n_bound,
        } = q;
        if stack.front.has_database(&db_name) {
            t.span("service.wire.decode", fid, |_| drop(db));
        } else {
            stack.front.register_database(db_name.clone(), db);
        }
        let key = t.span("server.fingerprint.key", fid, |_| {
            stack
                .front
                .key_for(&db_name, &spec)
                .expect("registered above")
        });
        t.span("service.admission.gate", fid, |_| {
            // A bound past the auto-escalation threshold is charged at
            // the coreset footprint (the redundant-atom spelling's
            // bound is |R|², though its result is |R|).
            let budget = (n_bound > CORESET_AUTO_THRESHOLD).then(|| spec.auto_budget());
            stack
                .admission
                .charge_universe(tenant, &key, estimate_prepared_bytes(n_bound, budget))
                .expect("the tenant rotation stays inside the cache quota")
        });
        let answers = t.span("server.query.serve", fid, |_| {
            stack.front.serve_query(&db_name, &spec, &requests)
        });
        assert!(answers.expect("served").iter().all(Result::is_ok));
        t.span("service.json.encode", fid, |_| black_box(reply.to_json()));
        t.span("service.json.parse", fid, |_| drop(doc));
    })
}

/// One `mutate` frame, in `handle_mutate` order. `root` names the
/// tree: `mutate` against the plain stack, `aux` against the durable
/// one (whose only reported span is `server.persist.mutate_durable`).
fn mutate_frame(
    stack: &Stack,
    t: &mut Tracer,
    fid: u32,
    frame: &ReplayFrame,
    root: &'static str,
    mutate_span: &'static str,
) {
    let (text, _) = parse_frame(frame.payload);
    let (_, reply) = parse_frame(frame.reply);
    t.span(root, fid, |t| {
        let doc = t
            .span("service.json.parse", fid, |_| json::parse(text))
            .expect("generated frames parse");
        let tenant = member(&doc, "tenant").as_str().expect("string tenant");
        let db = member(&doc, "database").as_str().expect("string database");
        let relation = member(&doc, "relation").as_str().expect("string relation");
        let action = member(&doc, "action").as_str().expect("string action");
        let tuple = t
            .span("service.wire.decode", fid, |_| {
                tuple_from_json(member(&doc, "tuple"))
            })
            .expect("valid tuple");
        t.span("service.admission.gate", fid, |_| {
            stack
                .admission
                .admit_requests(tenant, 1.0)
                .expect("the tenant rotation stays inside the rate quota")
        });
        let values = tuple.iter().cloned().collect();
        let changed = t.span(mutate_span, fid, |_| match action {
            "insert" => stack.front.insert_base_tuple(db, relation, values),
            _ => stack.front.remove_base_tuple(db, relation, values),
        });
        assert_eq!(changed.ok(), Some(true), "replayed mutations must apply");
        t.span("service.json.encode", fid, |_| black_box(reply.to_json()));
    });
}

/// One database of the durable replay, each frame with a tenant of
/// its own and a captured reply: `queries[0]` warms (unrecorded), the
/// rest are recorded; `mutations` alternate insert, remove.
pub struct DbFrames<'a> {
    pub queries: Vec<ReplayFrame<'a>>,
    pub mutations: Vec<ReplayFrame<'a>>,
}

/// Mirrors one warm query universe under its current key, rebuilt by
/// the materialize-then-serve path the front door is pinned equal to.
fn mirror_query(stack: &Stack, q: &DecodedQuery) -> PreparedVariant {
    let key = stack
        .front
        .key_for(&q.db_name, &q.spec)
        .expect("registered");
    let universe = stack.front.universe_of(&q.db_name, &q.spec).expect("warm");
    let prepared = spec_of(universe, None)
        .try_prepare_variant(stack.cores)
        .expect("generated scores are finite");
    stack
        .mirror
        .insert_versioned(&key, prepared.clone(), 0, Vec::new());
    prepared
}

/// Replays `durable_mixed`: every database's query frames, then its
/// mutations — once against a plain stack (the `mutate` trees) and
/// once against a stack journaling to `wal_dir` (the `aux` trees;
/// `server.persist.wal_append` is the difference). A lane owns its
/// databases, like a client does. `crashed_dir`, a copy of the killed
/// daemon's data directory, is recovered once.
pub fn replay_durable(
    dbs: &[DbFrames],
    lanes: usize,
    wal_dir: &Path,
    crashed_dir: Option<&Path>,
    clock: &Clock,
) -> std::io::Result<Replayed> {
    let mut out = Replayed::default();
    let plain = Stack::new();
    let durable = Stack::new();
    let journal = Durability::open(wal_dir)?;
    durable.registry.attach_durability(Arc::clone(&journal));

    // Warm both stacks; take the once-per-database measurements.
    let mut t = clock.tracer();
    let mut discard = clock.tracer();
    for (d, db) in dbs.iter().enumerate() {
        let fid = d as u32;
        let warm = &db.queries[0];
        query_frame(&durable, &mut discard, fid, warm);
        query_frame(&plain, &mut discard, fid, warm);
        let q = decode_query_untraced(warm);
        let prepared = mirror_query(&plain, &q);
        out.count(
            "core.engine.prepared_mb",
            prepared.approx_bytes() as f64 / (1 << 20) as f64,
        );
        let (_, insert) = parse_frame(db.mutations[0].payload);
        let extra = tuple_from_json(member(&insert, "tuple")).expect("valid tuple");
        t.span("aux", fid, |t| {
            t.span("relquery.eval.eval", fid, |_| {
                black_box(eval_query(&q.db, q.spec.query()).expect("valid query"))
            });
            if let PreparedVariant::Full(p) = &prepared {
                let mut fork = p.fork();
                let rel = relevance().rel(&extra);
                t.span("core.engine.delta_insert", fid, |_| {
                    fork.insert_tuple(extra, rel)
                });
                let last = fork.n() - 1;
                t.span("core.engine.delta_remove", fid, |_| {
                    fork.remove_tuple(last).expect("the tuple just inserted")
                });
            }
        });
    }
    if let Some(dir) = crashed_dir {
        let fresh = Stack::new();
        t.span("aux", u32::MAX, |t| {
            t.span("server.persist.recover", u32::MAX, |_| {
                Durability::open(dir)
                    .map(|d| d.recover(&fresh.registry, &fresh.front, RecoverMode::Eager))
            })
        })?;
    }
    out.spans.extend(t.into_spans());

    // Queries first — frames, then their decompositions as a phase
    // of their own — with no mutation in between, so the mirror stays
    // resident.
    let dealt = |lane: usize| {
        dbs.iter()
            .enumerate()
            .skip(lane)
            .step_by(lanes)
            .flat_map(|(d, db)| {
                let recorded = db.queries.iter().enumerate().skip(1);
                recorded.map(move |(i, frame)| ((d * 1000 + i) as u32, frame))
            })
    };
    run_lanes(lanes, clock, &mut out, |lane, t, _| {
        for (fid, frame) in dealt(lane) {
            query_frame(&plain, t, fid, frame);
        }
    });
    run_lanes(lanes, clock, &mut out, |lane, t, out| {
        for (fid, frame) in dealt(lane) {
            let q = decode_query_untraced(frame);
            let key_of = || {
                plain
                    .front
                    .key_for(&q.db_name, &q.spec)
                    .expect("registered")
            };
            decompose(&plain, t, fid, key_of, None, &q.requests, out);
        }
    });
    run_lanes(lanes, clock, &mut out, |lane, t, _| {
        for (d, db) in dbs.iter().enumerate().skip(lane).step_by(lanes) {
            for (i, frame) in db.mutations.iter().enumerate() {
                let fid = (d * 1000 + 500 + i) as u32;
                mutate_frame(&plain, t, fid, frame, "mutate", "server.query.mutate");
                mutate_frame(
                    &durable,
                    t,
                    fid,
                    frame,
                    "aux",
                    "server.persist.mutate_durable",
                );
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `replay_durable`'s shape on a host with four or more cores: a
    /// warm-up tracer, then three phases of four lanes on one clock.
    #[test]
    fn every_span_id_of_a_four_lane_replay_is_unique() {
        let clock = Clock::start();
        let mut out = Replayed::default();
        let mut warm = clock.tracer();
        warm.span("aux", 0, |_| ());
        out.spans.extend(warm.into_spans());
        for phase in ["frame", "decomp", "mutate"] {
            run_lanes(4, &clock, &mut out, |lane, t, _| {
                for i in 0..3 {
                    let fid = (lane * 3 + i) as u32;
                    t.span(phase, fid, |t| t.span("child", fid, |_| ()));
                }
            });
        }
        assert_eq!(out.spans.len(), 1 + 3 * 4 * 3 * 2);
        let by_id: BTreeMap<u32, &Span> = out.spans.iter().map(|s| (s.id, s)).collect();
        assert_eq!(by_id.len(), out.spans.len(), "a span id repeats");
        // So a child resolves to the root of its own phase and frame.
        for child in out.spans.iter().filter(|s| s.name == "child") {
            let parent = by_id[&child.parent.expect("children have parents")];
            assert!(parent.parent.is_none() && parent.frame_id == child.frame_id);
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
    }
}
