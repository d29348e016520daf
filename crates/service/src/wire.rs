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
    let mut db = Database::new();
    let mut enc = FingerprintEncoder::new();
    enc.write_str("wire-db");
    enc.write_usize(relations.len());
    for relation in relations {
        let name = relation
            .get("name")
            .and_then(Value::as_str)
            .ok_or("relation needs a string name")?;
        let attrs_json = relation
            .get("attrs")
            .and_then(Value::as_array)
            .ok_or("relation needs an attrs array")?;
        let attrs: Vec<&str> = attrs_json
            .iter()
            .map(|a| a.as_str().ok_or("relation attrs must be strings"))
            .collect::<Result<_, _>>()?;
        db.create_relation(name, &attrs).map_err(|e| e.to_string())?;
        enc.write_str("rel");
        enc.write_str(name);
        enc.write_usize(attrs.len());
        for attr in &attrs {
            enc.write_str(attr);
        }
        let rows = relation
            .get("rows")
            .and_then(Value::as_array)
            .ok_or("relation needs a rows array")?;
        for row in rows {
            let tuple = tuple_from_json(row)?;
            // Set semantics: duplicates are dropped by insert and
            // skipped in the fingerprint, so a database listing the
            // same row twice names the same content.
            if db.insert_tuple(name, tuple.clone()).map_err(|e| e.to_string())? {
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
    let tuples_json = v
        .get("tuples")
        .and_then(Value::as_array)
        .ok_or("universe needs a tuples array")?;
    let mut tuples = Vec::with_capacity(tuples_json.len());
    for t in tuples_json {
        tuples.push(tuple_from_json(t)?);
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
