//! The one-pass frame decode is the tree decode.
//!
//! `text.parse::<wire::Frame>()` reads a frame without a tree of its
//! rows; `json::parse` plus the borrowed decoders (`universe_from_json`,
//! `database_from_json`) is what the daemon did before and what the
//! suites still call. Over a seeded corpus of `serve`, `query` and
//! `mutate` frames, each mutated — members permuted, duplicated or
//! deleted, cells turned into floats, `null`s, nested arrays or strings,
//! member types changed, nesting to 64 and 65 levels, whitespace varied,
//! the text truncated, one byte corrupted, a non-UTF-8 byte inserted —
//! both yield the same outcome: the same tuples, key bytes and `db-…`
//! name, or the same error string, and the same small members.
//!
//! Both sides read through the one tokenizer, so the spellings RFC 8259
//! refuses and the parent parser took (`01`, `1.`, `\u+041`, …) are
//! refused alike here; `json::tests` pins those refusals.
//!
//! `PROPTEST_CASES` overrides the case count (2 000 by default), as for
//! the proptest suites.

use divr_relquery::{Database, Tuple};
use divr_service::json::{self, ParseError, Value};
use divr_service::wire::{database_from_json, universe_from_json, Frame};
use proptest::test_runner::{resolved_cases, TestRng};

/// What a decoded universe is compared by: its tuples, in order, and
/// the canonical key bytes.
type UniverseFacts = Result<(Vec<Tuple>, Vec<u8>), String>;

/// What a decoded database is compared by: its content name and, per
/// relation, the schema and the tuples in insertion order.
type DatabaseFacts = Result<(String, Vec<(String, Vec<Tuple>)>), String>;

#[derive(Debug, PartialEq)]
enum Outcome {
    NotUtf8,
    Syntax(ParseError),
    Read {
        members: Value,
        universe: Option<UniverseFacts>,
        database: Option<DatabaseFacts>,
    },
}

fn universe_facts(decoded: Result<divr_server::UniverseSpec, String>) -> UniverseFacts {
    decoded.map(|spec| (spec.universe().to_vec(), spec.key().bytes().to_vec()))
}

fn database_facts(decoded: Result<(String, Database), String>) -> DatabaseFacts {
    decoded.map(|(name, db)| {
        let relations = db.relations().map(|r| (format!("{:?}", r.schema()), r.tuples().to_vec()));
        (name, relations.collect())
    })
}

/// The daemon's read of a payload: UTF-8, then one pass.
fn one_pass(payload: &[u8]) -> Outcome {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Outcome::NotUtf8;
    };
    match text.parse::<Frame>() {
        Err(e) => Outcome::Syntax(e),
        Ok(frame) => Outcome::Read {
            members: frame.members,
            universe: frame.universe.map(universe_facts),
            database: frame.database.map(database_facts),
        },
    }
}

/// The same read through a tree: parse, then decode the first
/// `universe` and `database` members; the members the frame keeps are
/// the tree's, less those two when they are objects and less any later
/// occurrence of either.
fn via_tree(payload: &[u8]) -> Outcome {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Outcome::NotUtf8;
    };
    let doc = match json::parse(text) {
        Err(e) => return Outcome::Syntax(e),
        Ok(doc) => doc,
    };
    let Value::Object(all) = &doc else {
        return Outcome::Read {
            members: Value::Null,
            universe: None,
            database: None,
        };
    };
    let mut members = Vec::new();
    let (mut seen_universe, mut seen_database) = (false, false);
    for (key, value) in all {
        let seen = match key.as_str() {
            "universe" => Some(&mut seen_universe),
            "database" => Some(&mut seen_database),
            _ => None,
        };
        if let Some(seen) = seen {
            if std::mem::replace(seen, true) || matches!(value, Value::Object(_)) {
                continue;
            }
        }
        members.push((key.clone(), value.clone()));
    }
    Outcome::Read {
        members: Value::Object(members),
        universe: doc.get("universe").map(|u| universe_facts(universe_from_json(u))),
        database: doc.get("database").map(|d| database_facts(database_from_json(d))),
    }
}

// ------------------------------------------------------------ corpus

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ints(values: &[i64]) -> Value {
    Value::Array(values.iter().map(|&i| Value::Int(i)).collect())
}

fn cell(g: &mut Gen) -> Value {
    match g.below(10) {
        0 => Value::Int(*g.pick(&[i64::MAX, i64::MIN, 1 << 53, -1])),
        1 => Value::Str(g.pick(&["", "x", "a\"b\\c", "é", "\u{1F600}", "tab\there"]).to_string()),
        _ => Value::Int(g.below(7) as i64 - 2),
    }
}

fn rows(g: &mut Gen, arity: usize) -> Value {
    let n = g.below(9);
    Value::Array(
        (0..n)
            .map(|_| {
                // Now and then a row of another arity: a tuple still, the
                // wrong width for a relation.
                let width = if g.chance(5) { arity + 1 } else { arity };
                Value::Array((0..width).map(|_| cell(g)).collect())
            })
            .collect(),
    )
}

fn instance_members(g: &mut Gen) -> Vec<(&'static str, Value)> {
    let relevance = match g.below(3) {
        0 => obj(vec![("kind", Value::Str("constant".into())), ("value", ints(&[1, 2]))]),
        1 => obj(vec![("kind", Value::Str("attribute".into())), ("attr", Value::Int(1))]),
        _ => obj(vec![("kind", Value::Str("nope".into()))]),
    };
    let distance = match g.below(3) {
        0 => obj(vec![("kind", Value::Str("numeric".into())), ("attr", Value::Int(0))]),
        1 => obj(vec![("kind", Value::Str("hamming".into()))]),
        _ => obj(vec![("kind", Value::Str("constant".into())), ("value", ints(&[1, 0]))]),
    };
    let mut members = vec![
        ("relevance", relevance),
        ("distance", distance),
        ("lambda", ints(&[g.below(4) as i64, 2])),
    ];
    if g.chance(30) {
        members.push(("coreset", obj(vec![("budget", Value::Int(g.below(3) as i64))])));
    }
    members
}

fn requests(g: &mut Gen) -> Value {
    let n = 1 + g.below(2);
    Value::Array(
        (0..n)
            .map(|_| {
                let objective = *g.pick(&["max_sum", "max_min", "mono"]);
                obj(vec![
                    ("objective", Value::Str(objective.into())),
                    ("k", Value::Int(g.below(4) as i64)),
                ])
            })
            .collect(),
    )
}

fn universe(g: &mut Gen) -> Value {
    let mut members = vec![("tuples", rows(g, 2))];
    members.extend(instance_members(g));
    obj(members)
}

fn database(g: &mut Gen) -> Value {
    let n = 1 + g.below(3);
    let relations = (0..n)
        .map(|i| {
            let arity = 1 + g.below(2);
            let attrs = (0..arity).map(|a| Value::Str(format!("a{a}"))).collect();
            // Two relations of one name now and then: a schema refusal.
            let name = if g.chance(10) { "R".to_string() } else { format!("R{i}") };
            obj(vec![
                ("name", Value::Str(name)),
                ("attrs", Value::Array(attrs)),
                ("rows", rows(g, arity)),
            ])
        })
        .collect();
    obj(vec![("relations", Value::Array(relations))])
}

fn base_frame(g: &mut Gen) -> Value {
    let tenant = ("tenant", Value::Str(format!("t{}", g.below(3))));
    match g.below(3) {
        0 => {
            let mut members = vec![
                ("op", Value::Str("serve".into())),
                tenant,
                ("universe", universe(g)),
                ("requests", requests(g)),
            ];
            if g.chance(20) {
                members.push(("deadline_ms", Value::Int(g.below(3) as i64)));
            }
            obj(members)
        }
        1 => {
            let mut members = vec![
                ("op", Value::Str("query".into())),
                tenant,
                ("query", Value::Str("Q(x) :- R0(x)".into())),
                ("database", database(g)),
            ];
            members.extend(instance_members(g));
            members.push(("requests", requests(g)));
            obj(members)
        }
        _ => obj(vec![
            ("op", Value::Str("mutate".into())),
            tenant,
            ("database", Value::Str("db-0123".into())),
            ("relation", Value::Str("R0".into())),
            ("action", Value::Str(g.pick(&["insert", "remove"]).to_string())),
            ("tuple", Value::Array(vec![cell(g), cell(g)])),
        ]),
    }
}

fn children(v: &mut Value) -> Vec<&mut Value> {
    match v {
        Value::Array(items) => items.iter_mut().collect(),
        Value::Object(members) => members.iter_mut().map(|(_, m)| m).collect(),
        _ => Vec::new(),
    }
}

fn size(v: &Value) -> usize {
    1 + match v {
        Value::Array(items) => items.iter().map(size).sum(),
        Value::Object(members) => members.iter().map(|(_, m)| size(m)).sum(),
        _ => 0,
    }
}

/// Node `n` of `v` in pre-order, with the number of containers around
/// it (`depth` is `v`'s).
fn nth_node(v: &mut Value, mut n: usize, depth: usize) -> (&mut Value, usize) {
    if n == 0 {
        return (v, depth);
    }
    n -= 1;
    for child in children(v) {
        let below = size(child);
        if n < below {
            return nth_node(child, n, depth + 1);
        }
        n -= below;
    }
    unreachable!("n is below size(v)")
}

/// A random node of `v` and its depth.
fn random_node<'v>(g: &mut Gen, v: &'v mut Value) -> (&'v mut Value, usize) {
    let n = g.below(size(v));
    nth_node(v, n, 0)
}

/// The members of a random object of `v`, if it has one (the frame
/// itself is one, unless an earlier edit replaced it).
fn random_object<'v>(g: &mut Gen, v: &'v mut Value) -> Option<&'v mut Vec<(String, Value)>> {
    let mut n = 0;
    for _ in 0..8 {
        let at = g.below(size(v));
        if matches!(nth_node(v, at, 0).0, Value::Object(_)) {
            n = at;
            break;
        }
    }
    match nth_node(v, n, 0).0 {
        Value::Object(members) => Some(members),
        _ => None,
    }
}

fn mutate_tree(g: &mut Gen, frame: &mut Value) {
    match g.below(9) {
        // Permute one object's members.
        0 => {
            if let Some(members) = random_object(g, frame) {
                for i in (1..members.len()).rev() {
                    members.swap(i, g.below(i + 1));
                }
            }
        }
        // Duplicate a member, the copy before or after, maybe altered.
        1 => {
            if let Some(members) = random_object(g, frame).filter(|m| !m.is_empty()) {
                let (key, mut value) = members[g.below(members.len())].clone();
                if g.chance(50) {
                    value = Value::Int(7);
                }
                members.insert(g.below(members.len() + 1), (key, value));
            }
        }
        // Delete a member.
        2 => {
            if let Some(members) = random_object(g, frame).filter(|m| !m.is_empty()) {
                members.remove(g.below(members.len()));
            }
        }
        // Nest to exactly 64 or 65 levels somewhere.
        3 => {
            let target = *g.pick(&[json::MAX_DEPTH, json::MAX_DEPTH + 1]);
            let (node, depth) = random_node(g, frame);
            let mut nested = Value::Int(1);
            for _ in depth..target {
                nested = Value::Array(vec![nested]);
            }
            *node = nested;
        }
        // Any node — a cell, a row, a member — becomes another shape.
        _ => {
            let shape = match g.below(7) {
                0 => Value::Float(1.5),
                1 => Value::Null,
                2 => Value::Array(vec![Value::Int(1), Value::Array(vec![])]),
                3 => Value::Str("1".into()),
                4 => Value::Bool(true),
                5 => obj(vec![("tuples", Value::Int(1))]),
                _ => Value::Array(vec![]),
            };
            *random_node(g, frame).0 = shape;
        }
    }
}

/// Serializes like `Value::to_json`, with random whitespace between
/// tokens.
fn write(g: &mut Gen, v: &Value, spaced: bool, out: &mut String) {
    let ws = |g: &mut Gen, out: &mut String| {
        if spaced && g.chance(30) {
            for _ in 0..1 + g.below(2) {
                out.push(*g.pick(&[' ', '\t', '\n', '\r']));
            }
        }
    };
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                write(g, item, spaced, out);
                ws(g, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                out.push_str(&Value::Str(key.clone()).to_json());
                ws(g, out);
                out.push(':');
                ws(g, out);
                write(g, value, spaced, out);
                ws(g, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_json()),
    }
}

fn mutate_bytes(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match g.below(4) {
        0 => bytes.truncate(g.below(bytes.len())),
        1 => {
            let at = g.below(bytes.len());
            bytes[at] = *g.pick(b"{}[]\":,\\-+.0123456789eEuntfr xa");
        }
        2 => bytes.insert(g.below(bytes.len() + 1), 0xFF),
        // A multi-byte character anywhere: inside a string it is data,
        // anywhere else a refusal at its first byte.
        _ => {
            let at = g.below(bytes.len() + 1);
            bytes.splice(at..at, "é".bytes());
        }
    }
}

fn case(g: &mut Gen) -> Vec<u8> {
    let mut frame = base_frame(g);
    for _ in 0..g.below(3) {
        mutate_tree(g, &mut frame);
    }
    let mut text = String::new();
    let spaced = g.chance(50);
    write(g, &frame, spaced, &mut text);
    let mut bytes = text.into_bytes();
    if g.chance(25) {
        mutate_bytes(g, &mut bytes);
    }
    bytes
}

#[test]
fn one_pass_decode_matches_parse_plus_borrowed_decode() {
    let cases = resolved_cases(2_000);
    let mut g = Gen(TestRng::from_name("one_pass_decode_matches_parse_plus_borrowed_decode"));
    // What the corpus reached, so a generator that stopped producing a
    // kind of outcome fails instead of passing vacuously.
    let (mut not_utf8, mut syntax, mut decoded, mut refused, mut deep) = (0, 0, 0, 0, 0);
    for i in 0..cases {
        let payload = case(&mut g);
        let want = via_tree(&payload);
        let got = one_pass(&payload);
        assert_eq!(got, want, "case {i}: {}", String::from_utf8_lossy(&payload));
        match &want {
            Outcome::NotUtf8 => not_utf8 += 1,
            Outcome::Syntax(e) => {
                syntax += 1;
                deep += usize::from(e.message.contains("nesting"));
            }
            Outcome::Read { universe, database, .. } => {
                for result in [universe.as_ref().map(Result::is_ok), database.as_ref().map(Result::is_ok)] {
                    match result {
                        Some(true) => decoded += 1,
                        Some(false) => refused += 1,
                        None => {}
                    }
                }
            }
        }
    }
    println!(
        "{cases} frames: {not_utf8} not UTF-8, {syntax} syntax errors ({deep} too deep), \
         {decoded} decoded, {refused} refused"
    );
    if cases >= 2_000 {
        for (what, count) in [
            ("not UTF-8", not_utf8),
            ("syntax", syntax),
            ("too deep", deep),
            ("decoded", decoded),
            ("refused", refused),
        ] {
            assert!(count >= 20, "only {count} {what} outcomes in {cases} frames");
        }
    }
}

/// The shapes the corpus reaches only by chance, pinned: which member
/// and which occurrence each side reads.
#[test]
fn duplicated_and_misplaced_members_read_alike() {
    let universe = r#"{"tuples": [[1, 2]], "relevance": {"kind": "attribute", "attr": 1},
                       "distance": {"kind": "numeric", "attr": 0}, "lambda": [1, 2]}"#;
    let database = r#"{"relations": [{"name": "R", "attrs": ["a"], "rows": [[1]]}]}"#;
    for text in [
        format!(r#"{{"op": "serve", "universe": {universe}, "universe": 3}}"#),
        format!(r#"{{"op": "serve", "universe": 3, "universe": {universe}}}"#),
        format!(r#"{{"op": "serve", "universe": {universe}, "universe": {{"tuples": [[9]]}}}}"#),
        format!(r#"{{"op": "query", "database": {database}, "database": "db-1"}}"#),
        format!(r#"{{"op": "mutate", "database": "db-1", "database": {database}}}"#),
        r#"{"database": {"relations": [{"rows": [[1], [2, 3]], "attrs": ["a"], "name": "R"}]}}"#
            .to_string(),
        r#"{"database": {"relations": [{"rows": [[1], ["x"], [null]], "name": 3}]}}"#.to_string(),
        r#"{"database": {"relations": [{"name": "R", "attrs": ["a"], "rows": [[1]], "rows": 3}]}}"#
            .to_string(),
        r#"{"database": {"relations": 3, "relations": []}}"#.to_string(),
        r#"{"database": {"relations": [3, {"name": "R"}]}}"#.to_string(),
        r#"{"universe": {"tuples": [[1], [1.5], [[]]], "tuples": []}}"#.to_string(),
        r#"{"universe": {"tuples": [[1], 2]}, "x": ]"#.to_string(),
        r#"[{"universe": {"tuples": [[1]]}}]"#.to_string(),
        r#""universe""#.to_string(),
    ] {
        assert_eq!(one_pass(text.as_bytes()), via_tree(text.as_bytes()), "{text}");
    }
}
