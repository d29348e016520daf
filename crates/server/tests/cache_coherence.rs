//! Cache-coherence properties of the registry:
//!
//! 1. **Key injectivity** — on integer workloads, *any* difference in
//!    universe content (a tuple, a relevance value, a distance value,
//!    λ) produces a different [`UniverseKey`]; identical content built
//!    through different `Arc`s and insertion orders produces the same
//!    key. This is exact, not probabilistic: the key *is* the
//!    canonical content encoding (the digest only routes shards).
//! 2. **Eviction never serves stale state** — insert → evict →
//!    re-prepare yields a prepared universe with identical matrices
//!    and identical served answers; and when the matrices are large
//!    enough (≥ 1 MB) that the rebuild runs inside the allocation an
//!    evicted universe left behind, nothing of that universe shows —
//!    not in the matrix, not in the headroom a front-door build keeps
//!    for later inserts to grow into.
//! 3. **Tableau-equivalent queries share one entry** — syntactically
//!    distinct conjunctive queries related by variable renaming, atom
//!    reordering and atom duplication produce the *same* front-door
//!    key and pin exactly one registry miss between them, while
//!    non-equivalent near-misses (a changed head, an extra
//!    non-redundant atom) never collide.
//! 4. **First-sight registration never replaces** — a frame that
//!    ships a database already registered under its content name
//!    leaves the registered one alone, acknowledged edits, relation
//!    versions, warm entries and journal included.
//! 5. **A repaired entry is metered as what it is** — however many
//!    base edits a warm query has absorbed, the cache charges it for
//!    its prepared state alone: no edit history rides along to crowd
//!    out its neighbours.
//! 6. **Concurrent serves and edits leave no unindexed entry** — once
//!    racing threads settle, every resident entry is one the front door
//!    addresses, so a working set stays exactly its own size.

use divr_core::distance::{NumericDistance, TableDistance};
use divr_core::engine::{spare_buffers, EngineRequest};
use divr_core::prelude::*;
use divr_core::relevance::{AttributeRelevance, TableRelevance};
use divr_core::Ratio;
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Tuple};
use divr_server::{
    CheckedAnswer, CoresetSpec, Durability, QueryFrontDoor, QuerySpec, Registry, RegistryConfig,
    TenantBatch, UniverseSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct RawContent {
    n: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
}

/// One universe's whole batch through the registry's batch entry point.
fn serve_all(
    registry: &Registry,
    spec: &UniverseSpec,
    requests: &[EngineRequest],
) -> Vec<CheckedAnswer> {
    registry
        .serve_mixed_checked(&[TenantBatch {
            spec: spec.clone(),
            requests: requests.to_vec(),
        }])
        .remove(0)
}

fn content_strategy() -> impl Strategy<Value = RawContent> {
    (3usize..=8)
        .prop_flat_map(|n| {
            (
                Just(n),
                0i64..=4,
                proptest::collection::vec(0i64..=9, n),
                proptest::collection::vec(0i64..=9, n * (n - 1) / 2),
            )
        })
        .prop_map(|(n, lambda_num, rels, dists)| RawContent {
            n,
            lambda_num,
            rels,
            dists,
        })
}

/// Builds a spec; `reverse_tables` feeds the (identical) table content
/// in reverse insertion order, which must not change the key.
fn spec_of(raw: &RawContent, reverse_tables: bool) -> UniverseSpec {
    let universe: Vec<Tuple> = (0..raw.n as i64).map(|i| Tuple::ints([i])).collect();
    let mut rel_pairs: Vec<(Tuple, Ratio)> = raw
        .rels
        .iter()
        .enumerate()
        .map(|(i, &r)| (universe[i].clone(), Ratio::int(r)))
        .collect();
    let mut dis_pairs: Vec<(Tuple, Tuple, Ratio)> = Vec::new();
    let mut it = raw.dists.iter();
    for i in 0..raw.n {
        for j in (i + 1)..raw.n {
            dis_pairs.push((
                universe[i].clone(),
                universe[j].clone(),
                Ratio::int(*it.next().unwrap()),
            ));
        }
    }
    if reverse_tables {
        rel_pairs.reverse();
        dis_pairs.reverse();
    }
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for (t, v) in rel_pairs {
        rel.set(t, v);
    }
    let mut dis = TableDistance::with_default(Ratio::ZERO);
    for (a, b, v) in dis_pairs {
        dis.set(a, b, v);
    }
    UniverseSpec::new(
        universe,
        Arc::new(rel),
        Arc::new(dis),
        Ratio::new(raw.lambda_num, 4),
    )
}

/// Every single-coordinate mutation of the content.
fn mutations(raw: &RawContent) -> Vec<RawContent> {
    let mut out = Vec::new();
    for i in 0..raw.rels.len() {
        let mut m = raw.clone();
        m.rels[i] += 1;
        out.push(m);
    }
    for i in 0..raw.dists.len() {
        let mut m = raw.clone();
        m.dists[i] += 1;
        out.push(m);
    }
    {
        let mut m = raw.clone();
        m.lambda_num = (m.lambda_num + 1) % 5;
        out.push(m);
    }
    out
}

/// A random conjunctive query over relations `R0`, `R1`, … with full
/// relations behind it (every tuple over `{0, 1, 2}`), so `Q(D)` is
/// never empty and every generated request is servable.
#[derive(Debug, Clone)]
struct RawCq {
    /// Arity of `R0`, `R1`, ….
    arities: Vec<usize>,
    /// `(relation, term codes)` per atom; codes `0..6` are variables,
    /// `6..9` the constants `0..2`, and `13` renders as the constant
    /// `7` — outside the data domain, which the near-miss mutant below
    /// relies on.
    atoms: Vec<(usize, Vec<u8>)>,
}

fn raw_cq_strategy() -> impl Strategy<Value = RawCq> {
    proptest::collection::vec(1usize..=2, 1..=3).prop_flat_map(|arities| {
        let n = arities.len();
        proptest::collection::vec(
            (0usize..n, proptest::collection::vec(0u8..9, 2)),
            1..=3,
        )
        .prop_map(move |raw_atoms| {
            let atoms = raw_atoms
                .into_iter()
                .enumerate()
                .map(|(ai, (r, codes))| {
                    let arity = arities[r];
                    let mut cs: Vec<u8> =
                        (0..arity).map(|j| codes[j % codes.len()]).collect();
                    if ai == 0 {
                        // At least one variable exists, so the head is
                        // never empty and the query is safe.
                        cs[0] %= 6;
                    }
                    (r, cs)
                })
                .collect();
            RawCq {
                arities: arities.clone(),
                atoms,
            }
        })
    })
}

/// The head projection: distinct body variables in first-appearance
/// order, capped at two — fixed once per raw query so every rendered
/// variant projects the *same* thing.
fn head_codes(raw: &RawCq) -> Vec<u8> {
    let mut seen = Vec::new();
    for (_, codes) in &raw.atoms {
        for &c in codes {
            if c < 6 && !seen.contains(&c) {
                seen.push(c);
            }
        }
    }
    seen.truncate(2);
    seen
}

/// Renders query text from an atom order, a head, and a variable
/// renaming (`perm[v]` is the printed index of variable `v`).
fn render_cq(raw: &RawCq, perm: &[u8; 6], order: &[usize], head: &[u8]) -> String {
    let term = |code: u8| {
        if code < 6 {
            format!("v{}", perm[code as usize])
        } else {
            format!("{}", code - 6)
        }
    };
    let body: Vec<String> = order
        .iter()
        .map(|&i| {
            let (r, codes) = &raw.atoms[i];
            let terms: Vec<String> = codes.iter().map(|&c| term(c)).collect();
            format!("R{}({})", r, terms.join(", "))
        })
        .collect();
    let head: Vec<String> = head.iter().map(|&c| term(c)).collect();
    format!("Q({}) :- {}", head.join(", "), body.join(", "))
}

/// The `seed`-th permutation of `0..6` (factorial number system), so
/// the shim needs no shuffle combinator.
fn nth_permutation(mut seed: usize) -> [u8; 6] {
    let mut pool: Vec<u8> = (0..6).collect();
    let mut out = [0u8; 6];
    for (i, f) in [120usize, 24, 6, 2, 1, 1].into_iter().enumerate() {
        let idx = (seed / f) % pool.len();
        seed %= f;
        out[i] = pool.remove(idx);
    }
    out
}

/// Every relation fully populated over `{0, 1, 2}`.
fn full_db(arities: &[usize]) -> Database {
    let mut db = Database::new();
    for (i, &arity) in arities.iter().enumerate() {
        let attrs: Vec<String> = (0..arity).map(|j| format!("c{j}")).collect();
        let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let name = format!("R{i}");
        db.create_relation(&name, &refs).unwrap();
        for x in 0..3i64 {
            if arity == 1 {
                db.insert_tuple(&name, Tuple::ints([x])).unwrap();
            } else {
                for y in 0..3i64 {
                    db.insert_tuple(&name, Tuple::ints([x, y])).unwrap();
                }
            }
        }
    }
    db
}

fn query_spec(text: &str) -> QuerySpec {
    QuerySpec::new(
        parse_query(text).unwrap(),
        Arc::new(AttributeRelevance {
            attr: 0,
            default: Ratio::ZERO,
        }),
        Arc::new(HammingDistance { weight: Ratio::ONE }),
        Ratio::new(1, 2),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Variable renaming + atom reordering + atom duplication compose
    /// into a syntactically distinct but tableau-equivalent query: same
    /// front-door key, identical answers, exactly one registry miss
    /// between all variants. Non-equivalent near-misses — a duplicated
    /// head variable (different arity), an extra atom constrained to a
    /// constant no other atom mentions (survives minimization) — must
    /// not collide with the original's key.
    #[test]
    fn equivalent_queries_share_exactly_one_entry(
        raw in raw_cq_strategy(),
        perm_seed in 1usize..720,
        rot in 1usize..3,
        dup in 0usize..3,
    ) {
        let n_atoms = raw.atoms.len();
        let head = head_codes(&raw);
        let identity = [0u8, 1, 2, 3, 4, 5];
        let base_order: Vec<usize> = (0..n_atoms).collect();
        let base = render_cq(&raw, &identity, &base_order, &head);

        // Equivalent variant: rename every variable, rotate the body,
        // and duplicate one atom.
        let perm = nth_permutation(perm_seed);
        let mut variant_order: Vec<usize> =
            (0..n_atoms).map(|i| (i + rot) % n_atoms).collect();
        variant_order.push(dup % n_atoms);
        let variant = render_cq(&raw, &perm, &variant_order, &head);

        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("db", full_db(&raw.arities));
        let spec_a = query_spec(&base);
        let spec_b = query_spec(&variant);

        let key_a = front.key_for("db", &spec_a).unwrap();
        let key_b = front.key_for("db", &spec_b).unwrap();
        prop_assert_eq!(
            &key_a, &key_b,
            "equivalent queries {:?} and {:?} keyed apart", &base, &variant
        );

        // Exactly one miss between the two, and identical answers.
        let requests: Vec<EngineRequest> = ObjectiveKind::ALL
            .into_iter()
            .map(|kind| EngineRequest { kind, k: 2 })
            .collect();
        let got_a = front.serve_query("db", &spec_a, &requests).unwrap();
        let got_b = front.serve_query("db", &spec_b, &requests).unwrap();
        for (a, b) in got_a.iter().zip(&got_b) {
            // Full relations keep Q(D) at ≥ 3 tuples, so k = 2 is
            // always feasible.
            let a = a.as_ref().expect("feasible by construction");
            let b = b.as_ref().expect("feasible by construction");
            prop_assert_eq!(a, b, "equivalent queries answered differently");
        }
        prop_assert_eq!(front.registry().stats().misses, 1, "expected exactly one prepare");
        prop_assert!(front.registry().stats().hits >= 1);

        // Near-miss 1: duplicated head variable (arity changes).
        let mut fat_head = head.clone();
        fat_head.push(fat_head[0]);
        let mutant = render_cq(&raw, &identity, &base_order, &fat_head);
        let key_m = front.key_for("db", &query_spec(&mutant)).unwrap();
        prop_assert!(key_a != key_m, "head mutant {:?} collided", &mutant);

        // Near-miss 2: an extra atom pinned to the constant 7, which no
        // other atom (domain 0..=2) mentions — it cannot fold away
        // under minimization, so the query is strictly narrower.
        let mut widened = raw.clone();
        let extra_rel = dup % raw.arities.len();
        widened
            .atoms
            .push((extra_rel, vec![13; raw.arities[extra_rel]]));
        let widened_order: Vec<usize> = (0..widened.atoms.len()).collect();
        let mutant = render_cq(&widened, &identity, &widened_order, &head);
        let key_m = front.key_for("db", &query_spec(&mutant)).unwrap();
        prop_assert!(key_a != key_m, "extra-atom mutant {:?} collided", &mutant);
    }

    /// Distinct relevance/distance/λ content ⇒ distinct keys; equal
    /// content (any insertion order, fresh `Arc`s) ⇒ equal keys.
    #[test]
    fn keys_are_injective_in_content(raw in content_strategy()) {
        let base = spec_of(&raw, false).key();
        prop_assert_eq!(&base, &spec_of(&raw, true).key(), "insertion order leaked into key");
        for (i, mutated) in mutations(&raw).iter().enumerate() {
            let other = spec_of(mutated, false).key();
            prop_assert!(base != other, "mutation {} collided with the original", i);
        }
    }

    /// Serving mode is part of the content key: the same universe in
    /// full-matrix mode, and in coreset mode at different budgets or
    /// refinement settings, all address distinct cache entries — while
    /// the same coreset mode reproduces the same key.
    #[test]
    fn keys_separate_serving_modes(raw in content_strategy(), budget in 2usize..=8) {
        use divr_server::CoresetSpec;
        let full = spec_of(&raw, false).key();
        let mode = CoresetSpec::with_budget(budget);
        let core = spec_of(&raw, false).with_coreset(mode).key();
        prop_assert!(full != core, "coreset mode collided with full mode");
        prop_assert_eq!(
            &core,
            &spec_of(&raw, true).with_coreset(mode).key(),
            "same mode, same content must share a key"
        );
        let bigger = spec_of(&raw, false)
            .with_coreset(CoresetSpec::with_budget(budget + 1))
            .key();
        prop_assert!(core != bigger, "budgets collided");
        let refined = spec_of(&raw, false)
            .with_coreset(CoresetSpec { budget, refine_rounds: 1 })
            .key();
        prop_assert!(core != refined, "refinement settings collided");
    }

    /// A universe with one more (or one fewer) tuple never shares a key
    /// with the original.
    #[test]
    fn keys_separate_different_universe_sizes(raw in content_strategy()) {
        let spec = spec_of(&raw, false);
        let mut grown = raw.clone();
        grown.n += 1;
        grown.rels.push(0);
        for _ in 0..raw.n {
            grown.dists.push(0);
        }
        prop_assert!(spec.key() != spec_of(&grown, false).key());
    }

    /// Insert → evict → re-prepare returns a rebuilt universe whose
    /// distance matrix and served answers are identical to the first
    /// build: eviction can drop state but never corrupt it.
    #[test]
    fn eviction_then_rebuild_is_stale_free(
        a in content_strategy(),
        b in content_strategy(),
        k in 1usize..=3,
    ) {
        prop_assume!(spec_of(&a, false).key() != spec_of(&b, false).key());
        let spec_a = spec_of(&a, false);
        let spec_b = spec_of(&b, false);
        let registry = Registry::new(RegistryConfig {
            byte_budget: 1, // nothing fits beside a fresh insert
            shards: 1,
            workers: 1,
            solve_threads: 1,
        });
        let requests: Vec<EngineRequest> = ObjectiveKind::ALL
            .into_iter()
            .map(|kind| EngineRequest { kind, k })
            .collect();
        // First lifetime of A.
        let first_prepared = registry.try_prepare(&spec_a).unwrap().as_full().unwrap().clone();
        let first_matrix: Vec<f64> = (0..first_prepared.n())
            .flat_map(|i| first_prepared.matrix().row(i).to_vec())
            .collect();
        let first_answers = serve_all(&registry, &spec_a, &requests);
        // Insert B: evicts A under the 1-byte budget.
        registry.try_prepare(&spec_b).unwrap();
        prop_assert!(!registry.is_cached(&spec_a));
        prop_assert!(registry.stats().evictions >= 1);
        // Second lifetime of A: rebuilt, not resurrected.
        let second_prepared = registry.try_prepare(&spec_a).unwrap().as_full().unwrap().clone();
        prop_assert!(!Arc::ptr_eq(&first_prepared, &second_prepared));
        let second_matrix: Vec<f64> = (0..second_prepared.n())
            .flat_map(|i| second_prepared.matrix().row(i).to_vec())
            .collect();
        prop_assert_eq!(first_matrix, second_matrix, "rebuild changed the matrix");
        let second_answers = serve_all(&registry, &spec_a, &requests);
        prop_assert_eq!(first_answers, second_answers, "rebuild changed served answers");
    }
}

/// A keyed universe of `n` items (`[position, score]`, numeric distance
/// on the position) whose content depends on `variant`.
fn keyed_spec(n: i64, variant: i64) -> UniverseSpec {
    UniverseSpec::new(
        (0..n)
            .map(|i| Tuple::ints([(i * 7 + variant * 13) % (3 * n), (i + variant) % 5]))
            .collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1, 2),
    )
}

/// Every cell of the prepared matrix, row by row, as bits.
fn matrix_bits(prepared: &divr_server::PreparedVariant) -> Vec<u64> {
    let full = prepared.as_full().unwrap();
    (0..full.n())
        .flat_map(|i| full.matrix().row(i).iter().map(|d| d.to_bits()))
        .collect()
}

/// Property 2 where the rebuild reuses memory: two universe sizes, two
/// contents of each, served in turn at a 1-byte budget. Every build
/// evicts the other size's universe, whose matrix parks its allocation;
/// from the third build on, each one runs inside the buffer that the
/// *other content* of its own size left two steps earlier. The matrix
/// must still be what the distance oracle says, cell for cell, and a
/// universe's later lifetimes must serve what its first one did. A
/// serve frame's matrix is exactly `n²` cells, and the free list parks
/// only 1 MB and up, so both sizes are at least 363: 412 and 388, where
/// 412 = 388 + 388/16 is the stride a front-door build over 388 rows
/// keeps (below).
///
/// (The only test in this binary whose matrices are large enough to
/// park, so the free-list gauge below is its own.)
#[test]
fn eviction_recycles_allocations_stale_free_across_two_sizes() {
    let registry = Arc::new(Registry::new(RegistryConfig {
        byte_budget: 1,
        shards: 1,
        workers: 1,
        solve_threads: 1,
    }));
    let requests: Vec<EngineRequest> = ObjectiveKind::ALL
        .into_iter()
        .map(|kind| EngineRequest { kind, k: 6 })
        .collect();
    let specs = [
        keyed_spec(412, 0),
        keyed_spec(388, 0),
        keyed_spec(412, 1),
        keyed_spec(388, 1),
    ];
    let mut first_life: Vec<Option<Vec<CheckedAnswer>>> = vec![None; specs.len()];
    assert_eq!(spare_buffers(), (0, 0));
    for round in 0..12 {
        let at = round % specs.len();
        let spec = &specs[at];
        let parked_before = spare_buffers();
        let prepared = registry.try_prepare(spec).unwrap();
        let matrix_bytes = prepared.as_full().unwrap().matrix().approx_bytes();
        if round >= 2 {
            // The buffer of this size is gone from the free list and
            // the evicted universe's, of the other size, took its place:
            // this build ran in recycled memory.
            assert_eq!(parked_before, (1, matrix_bytes), "round {round}");
            let (buffers, bytes) = spare_buffers();
            assert!(buffers == 1 && bytes != matrix_bytes, "round {round}");
        }
        // Straight from the oracle, through no matrix code at all.
        let u = spec.universe();
        let expected: Vec<u64> = (0..u.len())
            .flat_map(|i| {
                (0..u.len()).map(move |j| match i == j {
                    true => 0.0f64.to_bits(),
                    false => spec.instance().distance().dist_f64(&u[i], &u[j]).to_bits(),
                })
            })
            .collect();
        assert_eq!(matrix_bits(&prepared), expected, "round {round}");
        drop(prepared);
        let answers = serve_all(&registry, spec, &requests);
        assert!(answers.iter().all(Result::is_ok));
        match &first_life[at] {
            None => first_life[at] = Some(answers),
            Some(first) => assert_eq!(&answers, first, "round {round}"),
        }
    }
    assert_eq!(registry.stats().evictions, 11);

    // Serve the resident universe's rows as a query over a database:
    // at this budget the query's build evicts that universe, and it runs
    // in the buffer the last 412-row universe parked — a front-door
    // build keeps growth headroom, so its 388 rows sit at stride 412 and
    // its headroom cells start out as that universe's distances. Grow
    // the one warm entry past its headroom (24 rows at n = 388) by base
    // inserts: each repair writes into cells the build only zeroed, then
    // re-strides, and none of them is a miss. The new rows lie far outside the old ones, so every
    // objective reads them; a cold prepare of the same sequence in
    // another registry must answer the same.
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let mut db = Database::new();
    db.create_relation("R", &["position", "score"]).unwrap();
    for row in specs[3].universe() {
        db.insert_tuple("R", row.clone()).unwrap();
    }
    front.register_database("main", db);
    let instance = specs[3].instance().clone();
    let q = QuerySpec::from_instance(parse_query("Q(x, y) :- R(x, y)").unwrap(), instance.clone())
        .unwrap();
    front.serve_query("main", &q, &requests).unwrap();
    let misses = registry.stats().misses;
    for step in 0..30 {
        let row = [5_000 + 3 * step, step % 5].map(divr_relquery::Value::int);
        assert!(front.insert_base_tuple("main", "R", row.to_vec()).unwrap());
    }
    let grown = UniverseSpec::from_instance(front.universe_of("main", &q).unwrap(), instance);
    assert_eq!(grown.universe().len(), 388 + 30);
    let requests: Vec<EngineRequest> = [6, 40]
        .into_iter()
        .flat_map(|k| ObjectiveKind::ALL.map(|kind| EngineRequest { kind, k }))
        .collect();
    assert_eq!(
        front.serve_query("main", &q, &requests).unwrap(),
        serve_all(&Registry::default(), &grown, &requests)
    );
    let stats = registry.stats();
    assert_eq!((stats.entries, stats.misses), (1, misses), "repaired, never rebuilt");
}

/// Property 4. Two workers can each hold a first-sight `query` frame
/// for the same content-named database and both find it absent; the
/// slower one's registration then arrives after the faster one's client
/// had its query answered and a mutation journaled and acknowledged.
/// That late call, played here in order, must change nothing: replacing
/// would drop the edit and the warm entry, reset the relation versions,
/// and journal a registration *after* the edit, so replay would lose
/// the edit too.
#[test]
fn a_late_first_sight_registration_leaves_a_mutated_database_alone() {
    let dir = std::env::temp_dir().join(format!("divr-cache-coherence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let durability = Durability::open(&dir).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    registry.attach_durability(Arc::clone(&durability));

    let shipped = full_db(&[2]);
    let q = query_spec("Q(x, y) :- R0(x, y)");
    let requests = [EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 3,
    }];
    front.ensure_database("db-shipped", shipped.clone());
    front.serve_query("db-shipped", &q, &requests).unwrap();
    let edit = vec![divr_relquery::Value::int(7), divr_relquery::Value::int(7)];
    assert!(front.insert_base_tuple("db-shipped", "R0", edit).unwrap());

    let key = front.key_for("db-shipped", &q).unwrap();
    let rows = front.universe_of("db-shipped", &q).unwrap();
    assert!(rows.contains(&Tuple::ints([7, 7])));
    let answers = front.serve_query("db-shipped", &q, &requests).unwrap();
    let (journaled, misses) = (durability.stats().wal_records, registry.stats().misses);

    front.ensure_database("db-shipped", shipped);

    assert_eq!(
        durability.stats().wal_records,
        journaled,
        "journaled a second registration"
    );
    assert_eq!(
        front.key_for("db-shipped", &q).unwrap(),
        key,
        "relation versions were reset"
    );
    assert!(
        front.is_warm("db-shipped", &q).unwrap(),
        "the warm entry was dropped"
    );
    assert_eq!(
        front.universe_of("db-shipped", &q).unwrap(),
        rows,
        "the edit was lost"
    );
    assert_eq!(
        front.serve_query("db-shipped", &q, &requests).unwrap(),
        answers
    );
    assert_eq!(
        registry.stats().misses,
        misses,
        "served from the entry that was warm"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property 5, to the byte, on an explicit-coreset query (a front-door
/// full matrix keeps growth headroom that a cold serve-frame prepare of
/// its sequence does not, and its stride depends on when it last grew,
/// so its bytes are not a function of the sequence alone; a coreset's
/// `m × m` matrix is exact-size either way): after 1 000 base inserts,
/// some absorbed under a representative and some displacing one, all
/// repaired in the one warm entry, the cache holds what a cold prepare
/// of the same sequence weighs. The inserts land inside the base rows'
/// key span, so the patched cover stays within twice the selection's
/// radius and the entry is never dropped for drifting
/// (`PreparedVariant::patch`).
#[test]
fn a_long_mutated_warm_query_is_metered_like_a_cold_prepare() {
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let base = keyed_spec(64, 0).with_coreset(CoresetSpec::with_budget(16));
    let mut db = Database::new();
    db.create_relation("R", &["position", "score"]).unwrap();
    for row in base.universe() {
        db.insert_tuple("R", row.clone()).unwrap();
    }
    front.register_database("main", db);
    let q = QuerySpec::from_instance(
        parse_query("Q(x, y) :- R(x, y)").unwrap(),
        base.instance().clone(),
    )
    .unwrap();
    let request = [EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 4,
    }];
    front.serve_query("main", &q, &request).unwrap();
    for step in 0..1_000 {
        // 1 000 distinct rows over the base rows' 192 positions.
        let row = [step % 192, 5 + step].map(divr_relquery::Value::int);
        assert!(front.insert_base_tuple("main", "R", row.to_vec()).unwrap());
    }
    front.serve_query("main", &q, &request).unwrap();
    let sequence = front.universe_of("main", &q).unwrap();
    assert_eq!(sequence.len(), 64 + 1_000);
    let cold = UniverseSpec::from_instance(sequence, base.instance().clone())
        .try_prepare_variant(1)
        .unwrap();
    let stats = registry.stats();
    assert_eq!((stats.entries, stats.misses), (1, 1), "one entry, repaired");
    assert_eq!(stats.bytes, cold.approx_bytes());
}

/// Property 6, under composition: four threads over one front door and
/// eight databases of 200 rows serve full-matrix queries (two
/// equivalent spellings, one entry) and an explicit-coreset query,
/// while every tenth op inserts or removes the thread's own extra row.
/// A removal sends a coreset entry cold, so its rebuilds race other
/// threads' edits; each round's ops land on two neighbouring databases
/// so that they meet. At every quiescent point (the threads run in
/// rounds) the cache holds exactly the warm (database, key) pairs the
/// front door addresses — no build an edit made stale outlives its
/// race — and nothing was evicted at the default budget. Without the
/// stale build's `take` in `QueryFrontDoor::resolve` this fails in 9 of
/// 10 runs.
#[test]
fn concurrent_serves_and_edits_leave_no_unindexed_entry() {
    const THREADS: i64 = 4;
    const DATABASES: usize = 8;
    const ROUNDS: usize = 40;
    const OPS: u64 = 30;
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let names: Vec<String> = (0..DATABASES).map(|d| format!("db{d}")).collect();
    for (d, name) in names.iter().enumerate() {
        let mut db = Database::new();
        db.create_relation("R", &["position", "score"]).unwrap();
        for row in keyed_spec(200, d as i64).universe() {
            db.insert_tuple("R", row.clone()).unwrap();
        }
        front.register_database(name.clone(), db);
    }
    let instance = keyed_spec(1, 0).instance().clone();
    let spelled = |text: &str| {
        QuerySpec::from_instance(parse_query(text).unwrap(), instance.clone()).unwrap()
    };
    let specs = [
        spelled("Q(x, y) :- R(x, y)"),
        spelled("Q(a, b) :- R(a, b), R(a, c)"),
        spelled("Q(x, y) :- R(x, y)").with_coreset(CoresetSpec::with_budget(16)),
    ];
    let request = [EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 4,
    }];

    for round in 0..ROUNDS {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (front, names, specs) = (&front, &names, &specs);
                scope.spawn(move || {
                    let mut state = (round as u64 + 1) * 0x9E37_79B9 + t as u64;
                    let extra = || [600 + t, t].map(divr_relquery::Value::int).to_vec();
                    for op in 0..OPS {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let db = &names[(round + (state >> 33) as usize % 2) % DATABASES];
                        if op % 10 == 9 {
                            if !front.insert_base_tuple(db, "R", extra()).unwrap() {
                                assert!(front.remove_base_tuple(db, "R", extra()).unwrap());
                            }
                        } else {
                            let spec = &specs[(state >> 45) as usize % specs.len()];
                            let answers = front.serve_query(db, spec, &request).unwrap();
                            assert!(answers[0].is_ok(), "{answers:?}");
                        }
                    }
                });
            }
        });
        let warm: std::collections::HashSet<_> = names
            .iter()
            .flat_map(|db| specs.iter().map(move |spec| (db, spec)))
            .filter(|(db, spec)| front.is_warm(db, spec).unwrap())
            .map(|(db, spec)| front.key_for(db, spec).unwrap())
            .collect();
        let stats = registry.stats();
        assert_eq!(stats.evictions, 0, "round {round}: evicted");
        assert_eq!(
            stats.entries,
            warm.len(),
            "round {round}: {} resident entries, {} warm (database, key) pairs",
            stats.entries,
            warm.len()
        );
    }
}
