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

use crate::json::{ParseError, Reader, Value};
use divr_core::distance::{ConstantDistance, Distance, HammingDistance, NumericDistance};
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::{AttributeRelevance, ConstantRelevance};
use divr_core::Ratio;
use divr_relquery::{Database, Tuple};
use divr_server::{
    CoresetSpec, FingerprintEncoder, Fingerprintable, Instance, ServableDistance,
    ServableRelevance, UniverseKey, UniverseRows, UniverseSpec,
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

/// The refusal of a row that is not an array.
const NOT_AN_ARRAY: &str = "tuple must be an array";

/// Decodes one tuple — a JSON array of integers and strings (the same
/// shape universes and database rows use; `{"op": "mutate"}` frames
/// carry one for the edited base tuple).
pub fn tuple_from_json(v: &Value) -> Result<Tuple, String> {
    let items = v.as_array().ok_or(NOT_AN_ARRAY)?;
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        values.push(cell_from_json(item)?);
    }
    Ok(Tuple::new(values))
}

/// The one cell rule of a tuple: an integer or a string.
fn cell_from_json(v: &Value) -> Result<divr_relquery::Value, String> {
    match v {
        Value::Int(i) => Ok(divr_relquery::Value::Int(*i)),
        Value::Str(s) => Ok(divr_relquery::Value::Str(s.as_str().into())),
        _ => Err("tuple values must be integers or strings".to_string()),
    }
}

/// Where the frame reader puts the cells of a rows array, in order:
/// into tuples (a database relation's rows), or straight into a
/// universe's key bytes ([`UniverseRows`]), no tuple built.
trait RowSink: Default {
    fn cell(&mut self, cell: divr_relquery::Value);
    fn end_row(&mut self);
}

/// Decoded tuples, and the cells of the row being read.
#[derive(Default)]
struct Tuples {
    tuples: Vec<Tuple>,
    cells: Vec<divr_relquery::Value>,
}

impl RowSink for Tuples {
    fn cell(&mut self, cell: divr_relquery::Value) {
        self.cells.push(cell);
    }

    fn end_row(&mut self) {
        self.tuples.push(self.cells.drain(..).collect());
    }
}

impl RowSink for UniverseRows {
    fn cell(&mut self, cell: divr_relquery::Value) {
        self.push_cell(&cell);
    }

    fn end_row(&mut self) {
        UniverseRows::end_row(self);
    }
}

/// The rows of a `tuples` or `rows` array, read in order into `sink` up
/// to the first that is not a tuple, and that row's refusal.
struct Rows<S> {
    sink: S,
    bad: Option<String>,
}

/// [`Rows`] of a parsed array.
fn rows_from_json(rows: &[Value]) -> Rows<Tuples> {
    let mut sink = Tuples {
        tuples: Vec::with_capacity(rows.len()),
        cells: Vec::new(),
    };
    for row in rows {
        match tuple_from_json(row) {
            Ok(tuple) => sink.tuples.push(tuple),
            Err(bad) => return Rows { sink, bad: Some(bad) },
        }
    }
    Rows { sink, bad: None }
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
    database_from_relations(relations.iter().map(|relation| {
        (relation, relation.get("rows").and_then(Value::as_array).map(rows_from_json))
    }))
}

/// The one fingerprint-and-insert loop behind both decodes of a
/// `relations` array: each relation's `name` and `attrs` are read from
/// its `header`, then its decoded rows (`None`: no rows array) are
/// inserted, so a header refusal beats a bad row wherever the rows sat.
fn database_from_relations<'v>(
    relations: impl ExactSizeIterator<Item = (&'v Value, Option<Rows<Tuples>>)>,
) -> Result<(String, Database), String> {
    let mut db = Database::new();
    let mut enc = FingerprintEncoder::new();
    enc.write_str("wire-db");
    enc.write_usize(relations.len());
    for (header, rows) in relations {
        let name = header
            .get("name")
            .and_then(Value::as_str)
            .ok_or("relation needs a string name")?;
        let attrs_json = header
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
        let Rows { sink: Tuples { tuples, .. }, bad } = rows.ok_or("relation needs a rows array")?;
        for tuple in tuples {
            // Set semantics: duplicates are dropped by insert and
            // skipped in the fingerprint, so a database listing the
            // same row twice names the same content.
            if db.insert_tuple(name, tuple.clone()).map_err(|e| e.to_string())? {
                enc.write_tuple(&tuple);
            }
        }
        if let Some(bad) = bad {
            return Err(bad);
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

/// Decodes one `universe` object into a registry [`UniverseSpec`],
/// through tuples: the reference the frame reader's key-first read is
/// held to.
pub fn universe_from_json(v: &Value) -> Result<UniverseSpec, String> {
    let rows = v.get("tuples").and_then(Value::as_array).map(rows_from_json);
    universe_from_rows(rows, v, |rows: Tuples, instance| {
        UniverseSpec::from_instance(rows.tuples, instance)
    })
}

/// The one assembly step behind both decodes of a `universe` object:
/// its `tuples` rows (`None`: no tuples array), then the instance
/// members of `v`, bundled by `spec`.
fn universe_from_rows<S>(
    rows: Option<Rows<S>>,
    v: &Value,
    spec: impl FnOnce(S, Instance) -> UniverseSpec,
) -> Result<UniverseSpec, String> {
    let Rows { sink, bad } = rows.ok_or("universe needs a tuples array")?;
    if let Some(bad) = bad {
        return Err(bad);
    }
    Ok(spec(sink, instance_from_json(v, "universe")?))
}

/// A frame read in one pass over its payload, with no tree of its rows:
/// the first `universe` object's `tuples` are written straight into the
/// universe's key bytes ([`UniverseRows`]: no tuple is built), the first
/// `database` object's `relations[].rows` straight into [`Tuple`]s, and
/// every other member is a small [`Value`]. Each decode is what
/// [`universe_from_json`] / [`database_from_json`] make of the parsed
/// member — the same tuples and key, the same refusal — and a syntax
/// error anywhere in the payload beats both, since no decode refusal is
/// reported until the whole payload has been read.
///
/// Parse one with `text.parse::<Frame>()`.
#[derive(Debug)]
pub struct Frame {
    /// The top-level members, in order, without the first `universe`
    /// and the first `database` when those are objects (a duplicated
    /// member is skipped; [`Value::get`] finds the first). `Null` when
    /// the frame is not an object.
    pub members: Value,
    /// The first `universe` member, decoded.
    pub universe: Option<Result<UniverseSpec, String>>,
    /// The first `database` member, decoded with its content name.
    pub database: Option<Result<(String, Database), String>>,
}

impl std::str::FromStr for Frame {
    type Err = ParseError;

    fn from_str(text: &str) -> Result<Frame, ParseError> {
        let mut reader = Reader::new(text);
        let mut frame = Frame {
            members: Value::Null,
            universe: None,
            database: None,
        };
        if reader.peek() == Some(b'{') {
            reader.open()?;
            let mut members = Vec::new();
            while let Some(key) = reader.key()? {
                let object = reader.peek() == Some(b'{');
                match &*key {
                    "universe" if frame.universe.is_some() => reader.skip()?,
                    "database" if frame.database.is_some() => reader.skip()?,
                    "universe" if object => frame.universe = Some(read_universe(&mut reader)?),
                    "database" if object => frame.database = Some(read_database(&mut reader)?),
                    name => {
                        let value = reader.value()?;
                        match name {
                            "universe" => frame.universe = Some(universe_from_json(&value)),
                            "database" => frame.database = Some(database_from_json(&value)),
                            _ => {}
                        }
                        members.push((key.into_owned(), value));
                    }
                }
            }
            frame.members = Value::Object(members);
        } else {
            reader.skip()?;
        }
        reader.finish()?;
        Ok(frame)
    }
}

/// Reads the `universe` object under the cursor: `tuples` rows into
/// key bytes, every other member into a small object for
/// [`instance_from_json`].
fn read_universe(reader: &mut Reader) -> Result<Result<UniverseSpec, String>, ParseError> {
    let (members, rows) = read_object_with_rows(reader, "tuples")?;
    Ok(universe_from_rows(rows, &members, UniverseSpec::from_rows))
}

/// Reads the `database` object under the cursor: its first `relations`
/// member (`None` inside when not an array), each relation's `rows` into
/// tuples and its other members into a small header object, all held
/// until the array ends — the fingerprint counts the relations first.
fn read_database(
    reader: &mut Reader,
) -> Result<Result<(String, Database), String>, ParseError> {
    reader.open()?;
    let mut relations = None;
    while let Some(key) = reader.key()? {
        if key != "relations" || relations.is_some() {
            reader.skip()?;
        } else if reader.peek() != Some(b'[') {
            reader.skip()?;
            relations = Some(None);
        } else {
            let mut parts = Vec::new();
            reader.open()?;
            while reader.item()? {
                parts.push(read_relation(reader)?);
            }
            relations = Some(Some(parts));
        }
    }
    let Some(Some(mut parts)) = relations else {
        return Ok(Err("database needs a relations array".to_string()));
    };
    Ok(database_from_relations(parts.iter_mut().map(|(header, rows)| (&*header, rows.take()))))
}

/// Reads one element of a `relations` array: an object's `rows` into
/// tuples and its other members into the header; anything else is its
/// own header, which names no relation.
fn read_relation(reader: &mut Reader) -> Result<(Value, Option<Rows<Tuples>>), ParseError> {
    if reader.peek() != Some(b'{') {
        return Ok((reader.value()?, None));
    }
    read_object_with_rows(reader, "rows")
}

/// Reads the object under the cursor: its first `rows_key` member as a
/// rows array (later ones skipped), every other member into a small
/// object.
fn read_object_with_rows<S: RowSink>(
    reader: &mut Reader,
    rows_key: &str,
) -> Result<(Value, Option<Rows<S>>), ParseError> {
    reader.open()?;
    let (mut members, mut rows, mut seen_rows) = (Vec::new(), None, false);
    while let Some(key) = reader.key()? {
        if key != rows_key {
            members.push((key.into_owned(), reader.value()?));
        } else if std::mem::replace(&mut seen_rows, true) {
            reader.skip()?;
        } else {
            rows = read_rows(reader)?;
        }
    }
    Ok((Value::Object(members), rows))
}

/// Reads the value under the cursor as a rows array: `None` (skipped)
/// when it is not an array.
fn read_rows<S: RowSink>(reader: &mut Reader) -> Result<Option<Rows<S>>, ParseError> {
    if reader.peek() != Some(b'[') {
        reader.skip()?;
        return Ok(None);
    }
    let mut rows = Rows {
        sink: S::default(),
        bad: None,
    };
    reader.open()?;
    while reader.item()? {
        if rows.bad.is_some() {
            reader.skip()?;
            continue;
        }
        rows.bad = read_tuple(reader, &mut rows.sink)?.err();
    }
    Ok(Some(rows))
}

/// Reads one row into `sink` as [`tuple_from_json`] decodes it, cell by
/// cell: the refusal of a row that is not an array or of its first bad
/// cell, which leaves the row unended.
fn read_tuple(
    reader: &mut Reader,
    sink: &mut impl RowSink,
) -> Result<Result<(), String>, ParseError> {
    if reader.peek() != Some(b'[') {
        reader.skip()?;
        return Ok(Err(NOT_AN_ARRAY.to_string()));
    }
    let mut bad = None;
    reader.open()?;
    while reader.item()? {
        if bad.is_some() {
            reader.skip()?;
            continue;
        }
        match cell_from_json(&reader.value()?) {
            Ok(cell) => sink.cell(cell),
            Err(e) => bad = Some(e),
        }
    }
    Ok(match bad {
        None => {
            sink.end_row();
            Ok(())
        }
        Some(bad) => Err(bad),
    })
}

/// Decodes the `relevance` / `distance` / `lambda` / `coreset`? members
/// of `v` — a `universe` object, or a whole `query` frame (`owner` names
/// which, for the messages) — into the [`Instance`] both carry.
pub(crate) fn instance_from_json(v: &Value, owner: &str) -> Result<Instance, String> {
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
pub(crate) fn objective_to_str(kind: ObjectiveKind) -> &'static str {
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
