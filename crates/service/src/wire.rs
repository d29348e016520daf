//! JSON ⇄ domain translation for the wire protocol.
//!
//! A `serve` frame carries a complete universe description — tuples,
//! relevance/distance configuration, λ, optional coreset mode — which
//! this module decodes into the registry's [`UniverseSpec`]. Exact
//! quantities travel as `[numerator, denominator]` integer pairs, never
//! floats, so the wire cannot introduce rounding the engines would
//! amplify.
//!
//! The module also ships two **chaos oracles**, addressable from the
//! wire as distance kinds `chaos_panic` and `chaos_nan`. They exist so
//! fault-injection tests (and operators validating a deployment) can
//! drive the daemon's failure paths end-to-end — a panicking worker, a
//! non-finite score — through the same protocol real tenants use, and
//! observe the typed `500`/`422` isolation instead of a dead process.

use crate::json::Value;
use divr_core::distance::{ConstantDistance, Distance, HammingDistance, NumericDistance};
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::{AttributeRelevance, ConstantRelevance};
use divr_core::Ratio;
use divr_relquery::{Database, Tuple};
use divr_server::{
    CoresetSpec, FingerprintEncoder, Fingerprintable, Instance, ServableDistance,
    ServableRelevance, UniverseKey, UniverseSpec,
};
use std::borrow::Borrow;
use std::sync::Arc;

/// A distance oracle that panics on the first off-diagonal pair — the
/// wire's way to inject a mid-prepare worker death (`chaos_panic`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosPanicDistance;

impl Distance for ChaosPanicDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            panic!("chaos oracle: injected panic while computing a distance");
        }
    }
}

impl Fingerprintable for ChaosPanicDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("dis:chaos_panic");
    }
}

/// A distance oracle whose float fast path emits `NaN` for every
/// distinct pair while the exact path stays finite — the wire's way to
/// exercise the non-finite validation (`chaos_nan`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosNanDistance;

impl Distance for ChaosNanDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            Ratio::ONE
        }
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a == b {
            0.0
        } else {
            f64::NAN
        }
    }
}

impl Fingerprintable for ChaosNanDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("dis:chaos_nan");
    }
}

/// Decodes `[num, den]` into an exact [`Ratio`].
pub fn ratio_from_json(v: &Value) -> Result<Ratio, String> {
    let pair = v.as_array().ok_or("ratio must be a [num, den] array")?;
    match pair {
        [num, den] => {
            let num = num.as_i64().ok_or("ratio numerator must be an integer")?;
            let den = den.as_i64().ok_or("ratio denominator must be an integer")?;
            if den == 0 {
                return Err("ratio denominator must be nonzero".to_string());
            }
            Ok(Ratio::new(num, den))
        }
        _ => Err("ratio must have exactly two elements".to_string()),
    }
}

/// Encodes a [`Ratio`] as `[num, den]`. Components exceeding `i64`
/// (possible after long exact-arithmetic chains) are carried as decimal
/// strings so nothing is ever rounded on the wire.
pub fn ratio_to_json(r: Ratio) -> Value {
    let component = |x: i128| {
        i64::try_from(x)
            .map(Value::Int)
            .unwrap_or_else(|_| Value::Str(x.to_string()))
    };
    Value::Array(vec![component(r.numerator()), component(r.denominator())])
}

/// Decodes one tuple — a JSON array of integers and strings (the same
/// shape universes and database rows use; `{"op": "mutate"}` frames
/// carry one for the edited base tuple).
pub fn tuple_from_json(v: &Value) -> Result<Tuple, String> {
    let items = v.as_array().ok_or("tuple must be an array")?;
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Int(i) => values.push(divr_relquery::Value::Int(*i)),
            Value::Str(s) => values.push(divr_relquery::Value::Str(s.as_str().into())),
            _ => return Err("tuple values must be integers or strings".to_string()),
        }
    }
    Ok(Tuple::new(values))
}

/// Decodes one `database` object —
/// `{"relations": [{"name", "attrs", "rows"}, …]}` — into a
/// [`Database`] plus a **content-derived** registration name
/// (`db-<digest>` over the canonical encoding of every relation's
/// schema and rows). Content addressing makes registration idempotent:
/// two frames shipping the same database bytes land on the same name,
/// so the second finds the first's warm query universes, and any edit
/// to the content is a different database rather than a silent
/// in-place mutation.
pub fn database_from_json(v: &Value) -> Result<(String, Database), String> {
    let relations = v
        .get("relations")
        .and_then(Value::as_array)
        .ok_or("database needs a relations array")?;
    database_from_relations(relations.iter(), |relation| {
        relation.get("rows").and_then(Value::as_array).map(|rows| rows.iter())
    })
}

/// [`database_from_json`] over an owned `database` object: every row is
/// dropped as soon as it is inserted, so a frame never holds a relation
/// twice, as JSON and as tuples.
pub(crate) fn database_from_owned_json(mut v: Value) -> Result<(String, Database), String> {
    let Some(Value::Array(relations)) = v.take("relations") else {
        return Err("database needs a relations array".to_string());
    };
    database_from_relations(relations.into_iter(), |mut relation| {
        match relation.take("rows") {
            Some(Value::Array(rows)) => Some(rows.into_iter()),
            _ => None,
        }
    })
}

/// The one decode and fingerprint loop behind both walks of a
/// `relations` array: `rows_of` hands over a relation's `rows`, by
/// reference or by value, once its `name` and `attrs` have been read.
fn database_from_relations<Rel: Borrow<Value>, Row: Borrow<Value>, Rows: Iterator<Item = Row>>(
    relations: impl ExactSizeIterator<Item = Rel>,
    rows_of: impl Fn(Rel) -> Option<Rows>,
) -> Result<(String, Database), String> {
    let mut db = Database::new();
    let mut enc = FingerprintEncoder::new();
    enc.write_str("wire-db");
    enc.write_usize(relations.len());
    for relation in relations {
        let header = relation.borrow();
        let name = header
            .get("name")
            .and_then(Value::as_str)
            .ok_or("relation needs a string name")?
            .to_string();
        let attrs_json = header
            .get("attrs")
            .and_then(Value::as_array)
            .ok_or("relation needs an attrs array")?;
        let attrs: Vec<&str> = attrs_json
            .iter()
            .map(|a| a.as_str().ok_or("relation attrs must be strings"))
            .collect::<Result<_, _>>()?;
        db.create_relation(&name, &attrs).map_err(|e| e.to_string())?;
        enc.write_str("rel");
        enc.write_str(&name);
        enc.write_usize(attrs.len());
        for attr in &attrs {
            enc.write_str(attr);
        }
        for row in rows_of(relation).ok_or("relation needs a rows array")? {
            let tuple = tuple_from_json(row.borrow())?;
            // Set semantics: duplicates are dropped by insert and
            // skipped in the fingerprint, so a database listing the
            // same row twice names the same content.
            if db.insert_tuple(&name, tuple.clone()).map_err(|e| e.to_string())? {
                enc.write_tuple(&tuple);
            }
        }
    }
    Ok((format!("db-{:032x}", UniverseKey::from_bytes(enc.bytes()).digest()), db))
}

/// Decodes one `relevance` object (`{"kind": "constant"|"attribute", …}`).
pub fn relevance_from_json(v: &Value) -> Result<Arc<dyn ServableRelevance>, String> {
    match v.get("kind").and_then(Value::as_str) {
        Some("constant") => {
            let value = ratio_from_json(v.get("value").ok_or("constant relevance needs value")?)?;
            Ok(Arc::new(ConstantRelevance(value)))
        }
        Some("attribute") => {
            let attr = v
                .get("attr")
                .and_then(Value::as_i64)
                .and_then(|a| usize::try_from(a).ok())
                .ok_or("attribute relevance needs a non-negative attr")?;
            let default = match v.get("default") {
                Some(d) => ratio_from_json(d)?,
                None => Ratio::ZERO,
            };
            Ok(Arc::new(AttributeRelevance { attr, default }))
        }
        Some(other) => Err(format!("unknown relevance kind {other:?}")),
        None => Err("relevance needs a string kind".to_string()),
    }
}

/// Decodes one `distance` object (`{"kind": "constant"|"numeric"|"hamming"|…}`).
pub fn distance_from_json(v: &Value) -> Result<Arc<dyn ServableDistance>, String> {
    match v.get("kind").and_then(Value::as_str) {
        Some("constant") => {
            let value = ratio_from_json(v.get("value").ok_or("constant distance needs value")?)?;
            Ok(Arc::new(ConstantDistance(value)))
        }
        Some("numeric") => {
            let attr = v
                .get("attr")
                .and_then(Value::as_i64)
                .and_then(|a| usize::try_from(a).ok())
                .ok_or("numeric distance needs a non-negative attr")?;
            let fallback = match v.get("fallback") {
                Some(d) => ratio_from_json(d)?,
                None => Ratio::ZERO,
            };
            Ok(Arc::new(NumericDistance { attr, fallback }))
        }
        Some("hamming") => {
            let weight = match v.get("weight") {
                Some(w) => ratio_from_json(w)?,
                None => Ratio::ONE,
            };
            Ok(Arc::new(HammingDistance { weight }))
        }
        Some("chaos_panic") => Ok(Arc::new(ChaosPanicDistance)),
        Some("chaos_nan") => Ok(Arc::new(ChaosNanDistance)),
        Some(other) => Err(format!("unknown distance kind {other:?}")),
        None => Err("distance needs a string kind".to_string()),
    }
}

/// Decodes one `universe` object into a registry [`UniverseSpec`].
pub fn universe_from_json(v: &Value) -> Result<UniverseSpec, String> {
    let rows = v
        .get("tuples")
        .and_then(Value::as_array)
        .ok_or("universe needs a tuples array")?;
    universe_from_rows(rows.iter(), v)
}

/// [`universe_from_json`] over an owned `universe` object: each row's
/// JSON is freed the moment its [`Tuple`] exists, and the allocator
/// hands the freed chunks to the tuples that follow — the frame's peak
/// is the parsed tree, not the tree plus the decoded universe.
pub(crate) fn universe_from_owned_json(mut v: Value) -> Result<UniverseSpec, String> {
    let Some(Value::Array(rows)) = v.take("tuples") else {
        return Err("universe needs a tuples array".to_string());
    };
    universe_from_rows(rows.into_iter(), &v)
}

/// Decodes the rows of a `tuples` array, walked by reference or by
/// value, then the instance members of the `universe` object `v`.
fn universe_from_rows<Row: Borrow<Value>>(
    rows: impl ExactSizeIterator<Item = Row>,
    v: &Value,
) -> Result<UniverseSpec, String> {
    let mut tuples = Vec::with_capacity(rows.len());
    for row in rows {
        tuples.push(tuple_from_json(row.borrow())?);
    }
    Ok(UniverseSpec::from_instance(tuples, instance_from_json(v, "universe")?))
}

/// Decodes the `relevance` / `distance` / `lambda` / `coreset`? members
/// of `v` — a `universe` object, or a whole `query` frame (`owner` names
/// which, for the messages) — into the [`Instance`] both carry.
pub fn instance_from_json(v: &Value, owner: &str) -> Result<Instance, String> {
    let member = |name: &str| v.get(name).ok_or_else(|| format!("{owner} needs {name}"));
    let rel = relevance_from_json(member("relevance")?)?;
    let dis = distance_from_json(member("distance")?)?;
    let lambda = ratio_from_json(member("lambda")?)?;
    let instance = Instance::try_new(rel, dis, lambda).ok_or("lambda must lie in [0, 1]")?;
    Ok(match v.get("coreset") {
        Some(mode) => instance.with_coreset(coreset_from_json(mode)?),
        None => instance,
    })
}

/// Decodes one `coreset` object (`{"budget", "refine_rounds"?}`).
fn coreset_from_json(mode: &Value) -> Result<CoresetSpec, String> {
    let budget = mode
        .get("budget")
        .and_then(Value::as_i64)
        .and_then(|b| usize::try_from(b).ok())
        .filter(|&b| b > 0)
        .ok_or("coreset mode needs a positive budget")?;
    let refine_rounds = match mode.get("refine_rounds") {
        Some(r) => r
            .as_i64()
            .and_then(|x| usize::try_from(x).ok())
            .ok_or("refine_rounds must be a non-negative integer")?,
        None => 0,
    };
    Ok(CoresetSpec {
        budget,
        refine_rounds,
    })
}

/// Decodes the `requests` array of `{"objective", "k"}` objects.
pub fn requests_from_json(v: &Value) -> Result<Vec<EngineRequest>, String> {
    let items = v.as_array().ok_or("requests must be an array")?;
    let mut requests = Vec::with_capacity(items.len());
    for item in items {
        let kind = match item.get("objective").and_then(Value::as_str) {
            Some(name) => objective_from_str(name)
                .ok_or_else(|| format!("unknown objective {name:?}"))?,
            None => return Err("request needs a string objective".to_string()),
        };
        let k = item
            .get("k")
            .and_then(Value::as_i64)
            .and_then(|k| usize::try_from(k).ok())
            .ok_or("request needs a non-negative integer k")?;
        requests.push(EngineRequest { kind, k });
    }
    Ok(requests)
}

/// The wire spelling of each objective.
pub fn objective_to_str(kind: ObjectiveKind) -> &'static str {
    match kind {
        ObjectiveKind::MaxSum => "max_sum",
        ObjectiveKind::MaxMin => "max_min",
        ObjectiveKind::Mono => "mono",
    }
}

/// Parses a wire objective name.
fn objective_from_str(name: &str) -> Option<ObjectiveKind> {
    match name {
        "max_sum" => Some(ObjectiveKind::MaxSum),
        "max_min" => Some(ObjectiveKind::MaxMin),
        "mono" => Some(ObjectiveKind::Mono),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn decodes_a_full_universe() {
        let doc = json::parse(
            r#"{
                "tuples": [[0, 3], [1, 5], [2, "x"]],
                "relevance": {"kind": "attribute", "attr": 1, "default": [0, 1]},
                "distance": {"kind": "numeric", "attr": 0},
                "lambda": [1, 2],
                "coreset": {"budget": 2}
            }"#,
        )
        .unwrap();
        let spec = universe_from_json(&doc).unwrap();
        assert_eq!(spec.universe().len(), 3);
        assert_eq!(spec.instance().lambda(), Ratio::new(1, 2));
        assert_eq!(spec.coreset().map(|c| c.budget), Some(2));
    }

    /// Every JSON spelling of an oracle, defaults spelled out or left
    /// out, is the oracle one would build by hand — at the level that
    /// matters, the cache key — whether the members sit in a `universe`
    /// object or directly in a `query` frame.
    #[test]
    fn every_spelling_keys_like_the_hand_built_oracle() {
        use divr_relquery::parser::parse_query;
        use divr_server::{QueryFrontDoor, QuerySpec, Registry};
        let third = Ratio::new(1, 3);
        let rels: Vec<(&str, Arc<dyn ServableRelevance>)> = vec![
            (r#"{"kind": "constant", "value": [1, 3]}"#, Arc::new(ConstantRelevance(third))),
            (
                r#"{"kind": "attribute", "attr": 1}"#,
                Arc::new(AttributeRelevance { attr: 1, default: Ratio::ZERO }),
            ),
            (
                r#"{"kind": "attribute", "attr": 0, "default": [1, 3]}"#,
                Arc::new(AttributeRelevance { attr: 0, default: third }),
            ),
        ];
        let diss: Vec<(&str, Arc<dyn ServableDistance>)> = vec![
            (r#"{"kind": "constant", "value": [1, 3]}"#, Arc::new(ConstantDistance(third))),
            (
                r#"{"kind": "numeric", "attr": 0}"#,
                Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO }),
            ),
            (
                r#"{"kind": "numeric", "attr": 1, "fallback": [1, 3]}"#,
                Arc::new(NumericDistance { attr: 1, fallback: third }),
            ),
            (r#"{"kind": "hamming"}"#, Arc::new(HammingDistance { weight: Ratio::ONE })),
            (
                r#"{"kind": "hamming", "weight": [1, 3]}"#,
                Arc::new(HammingDistance { weight: third }),
            ),
        ];
        let modes = [
            ("", None),
            (r#", "coreset": {"budget": 5}"#, Some(CoresetSpec::with_budget(5))),
            (
                r#", "coreset": {"budget": 5, "refine_rounds": 2}"#,
                Some(CoresetSpec { budget: 5, refine_rounds: 2 }),
            ),
        ];
        let tuples = || vec![Tuple::ints([0, 3]), Tuple::ints([1, 5])];
        let query = || parse_query("Q(x, y) :- R(x, y)").unwrap();
        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        front.register_database("main", db);

        for (rel_json, rel) in &rels {
            for (dis_json, dis) in &diss {
                for (mode_json, mode) in &modes {
                    let members = format!(
                        r#""relevance": {rel_json}, "distance": {dis_json}, "lambda": [2, 3]{mode_json}"#
                    );
                    let lambda = Ratio::new(2, 3);

                    let doc = format!(r#"{{"tuples": [[0, 3], [1, 5]], {members}}}"#);
                    let decoded = universe_from_json(&json::parse(&doc).unwrap()).unwrap();
                    let mut by_hand = UniverseSpec::new(tuples(), rel.clone(), dis.clone(), lambda);
                    if let Some(mode) = mode {
                        by_hand = by_hand.with_coreset(*mode);
                    }
                    assert_eq!(decoded.key(), by_hand.key(), "{doc}");

                    let frame = format!(r#"{{"op": "query", "tenant": "t", {members}}}"#);
                    let instance = instance_from_json(&json::parse(&frame).unwrap(), "query");
                    let decoded = QuerySpec::from_instance(query(), instance.unwrap()).unwrap();
                    let mut by_hand =
                        QuerySpec::new(query(), rel.clone(), dis.clone(), lambda).unwrap();
                    if let Some(mode) = mode {
                        by_hand = by_hand.with_coreset(*mode);
                    }
                    assert_eq!(
                        front.key_for("main", &decoded).unwrap(),
                        front.key_for("main", &by_hand).unwrap(),
                        "{frame}"
                    );
                }
            }
        }

        // One reader, one set of messages, named after the holder.
        for (owner, doc, needle) in [
            ("universe", r#"{"distance": 1, "lambda": 1}"#, "universe needs relevance"),
            (
                "query",
                r#"{"relevance": {"kind": "constant", "value": [1, 1]}}"#,
                "query needs distance",
            ),
            (
                "query",
                r#"{"relevance": {"kind": "constant", "value": [1, 1]},
                    "distance": {"kind": "hamming"}}"#,
                "query needs lambda",
            ),
            (
                "query",
                r#"{"relevance": {"kind": "constant", "value": [1, 1]},
                    "distance": {"kind": "hamming"}, "lambda": [-1, 2]}"#,
                "lambda must lie in [0, 1]",
            ),
            (
                "universe",
                r#"{"relevance": {"kind": "constant", "value": [1, 1]},
                    "distance": {"kind": "hamming"}, "lambda": [1, 2], "coreset": {"budget": 0}}"#,
                "positive budget",
            ),
        ] {
            let err = instance_from_json(&json::parse(doc).unwrap(), owner).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// What a decoded universe is compared by: its tuples, in order,
    /// and the canonical key bytes.
    fn universe_facts(spec: UniverseSpec) -> (Vec<Tuple>, Vec<u8>) {
        (spec.universe().to_vec(), spec.key().bytes().to_vec())
    }

    /// What a decoded database is compared by: its content name and,
    /// per relation, the schema and the tuples in insertion order.
    fn database_facts((name, db): (String, Database)) -> (String, Vec<(String, Vec<Tuple>)>) {
        let relations = db.relations().map(|r| (format!("{:?}", r.schema()), r.tuples().to_vec()));
        (name, relations.collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The consuming walk of a rows array is the borrowed walk:
        /// same tuples, key bytes and content name, and — whichever row
        /// is malformed, whatever follows it — the same error string.
        /// Cells come from a domain of six values so duplicate rows are
        /// the rule; `bad_at` past the end leaves every row well-formed.
        #[test]
        fn consuming_decode_is_the_borrowed_decode(
            cells in proptest::collection::vec((0usize..6, 0usize..6), 0..=10),
            bad_at in 0usize..30,
            bad_kind in 0usize..5,
            lambda_num in 0i64..=3,
            second_relation in 0usize..3,
        ) {
            let cell = |c: usize| match c {
                0..=3 => Value::Int(c as i64 - 1),
                4 => Value::Str("x".into()),
                _ => Value::Str("".into()),
            };
            let mut rows: Vec<Value> =
                cells.iter().map(|&(a, b)| Value::Array(vec![cell(a), cell(b)])).collect();
            if let Some(row) = rows.get_mut(bad_at) {
                *row = match bad_kind {
                    0 => Value::Int(3),
                    1 => Value::Array(vec![Value::Int(1), Value::Null]),
                    2 => Value::Array(vec![Value::Float(1.5), Value::Int(1)]),
                    3 => Value::Array(vec![Value::Array(vec![]), Value::Int(1)]),
                    // Well-formed as a tuple, the wrong arity for a relation.
                    _ => Value::Array(vec![Value::Int(1)]),
                };
            }

            let universe = json::object([
                ("tuples", Value::Array(rows.clone())),
                ("relevance", json::parse(r#"{"kind": "attribute", "attr": 1}"#).unwrap()),
                ("distance", json::parse(r#"{"kind": "numeric", "attr": 0}"#).unwrap()),
                // 3/2 is out of range: an instance error, read after the rows.
                ("lambda", Value::Array(vec![Value::Int(lambda_num), Value::Int(2)])),
            ]);
            proptest::prop_assert_eq!(
                universe_from_owned_json(universe.clone()).map(universe_facts),
                universe_from_json(&universe).map(universe_facts)
            );

            let relation = |name: &str, rows: Option<Vec<Value>>| {
                let attrs = ["a", "b"].map(|a| Value::Str(a.into())).to_vec();
                let mut members = vec![("name", Value::Str(name.into())), ("attrs", Value::Array(attrs))];
                members.extend(rows.map(|rows| ("rows", Value::Array(rows))));
                json::object(members)
            };
            let mut relations = vec![relation("R", Some(rows.clone()))];
            match second_relation {
                0 => {}
                1 => relations.push(relation("S", Some(rows.iter().rev().cloned().collect()))),
                // A relation without rows, after one that decoded.
                _ => relations.push(relation("S", None)),
            }
            let database = json::object([("relations", Value::Array(relations))]);
            proptest::prop_assert_eq!(
                database_from_owned_json(database.clone()).map(database_facts),
                database_from_json(&database).map(database_facts)
            );
        }
    }

    /// The shapes the property cannot reach: a member that is missing
    /// or not an array is refused alike, with the borrowed message.
    #[test]
    fn consuming_decode_refuses_missing_arrays_like_the_borrowed_one() {
        for doc in [r#"{}"#, r#"{"tuples": 3}"#, r#"{"tuples": {"0": [1]}}"#, r#"[]"#] {
            let v = json::parse(doc).unwrap();
            let borrowed = universe_from_json(&v).map(universe_facts).unwrap_err();
            assert_eq!(universe_from_owned_json(v).map(universe_facts), Err(borrowed), "{doc}");
        }
        for doc in [
            r#"{}"#,
            r#"{"relations": 3}"#,
            r#"[]"#,
            r#"{"relations": [{"name": "R", "attrs": ["a"], "rows": 3}]}"#,
            r#"{"relations": [{"name": "R", "attrs": ["a"]}]}"#,
            r#"{"relations": [{"name": "R", "attrs": [1], "rows": []}]}"#,
            r#"{"relations": [{"name": "R", "attrs": ["a"], "rows": []},
                              {"name": "R", "attrs": ["a"], "rows": []}]}"#,
            r#"{"relations": [3]}"#,
        ] {
            let v = json::parse(doc).unwrap();
            let borrowed = database_from_json(&v).map(database_facts).unwrap_err();
            assert_eq!(database_from_owned_json(v).map(database_facts), Err(borrowed), "{doc}");
        }
    }

    #[test]
    fn rejects_bad_shapes_with_reasons() {
        for (doc, needle) in [
            (r#"{"tuples": 3}"#, "tuples"),
            (r#"{"tuples": [], "relevance": {"kind": "nope"}}"#, "kind"),
            (
                r#"{"tuples": [[1]], "relevance": {"kind": "constant", "value": [1, 1]},
                    "distance": {"kind": "constant", "value": [1, 1]}, "lambda": [3, 2]}"#,
                "lambda",
            ),
            (
                r#"{"tuples": [[1]], "relevance": {"kind": "constant", "value": [1, 0]}}"#,
                "denominator",
            ),
        ] {
            let v = json::parse(doc).unwrap();
            let err = universe_from_json(&v).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn requests_and_objectives_roundtrip() {
        let v = json::parse(
            r#"[{"objective": "max_sum", "k": 3}, {"objective": "mono", "k": 1}]"#,
        )
        .unwrap();
        let reqs = requests_from_json(&v).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].kind, ObjectiveKind::MaxSum);
        assert_eq!(reqs[1].k, 1);
        for kind in ObjectiveKind::ALL {
            assert_eq!(objective_from_str(objective_to_str(kind)), Some(kind));
        }
    }

    #[test]
    fn ratio_components_past_i64_travel_as_strings() {
        let big = Ratio::new_i128(i128::from(i64::MAX) * 2, 1);
        let v = ratio_to_json(big);
        assert!(matches!(&v.as_array().unwrap()[0], Value::Str(_)));
    }
}
