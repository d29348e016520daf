//! Record encodings: every durable mutation as one self-contained,
//! decodable byte payload.
//!
//! This module owns the **record layouts** — which fields each WAL /
//! snapshot record holds, in which order, under which tag byte — and
//! nothing below them: the `(δ_rel, δ_dis, λ, mode)` block inside a
//! universe or query spec is encoded and decoded by
//! [`Instance`](crate::spec::Instance) itself, and the oracle tag
//! vocabulary it embeds (`rel:attr`, `dis:table`, …) by
//! [`crate::fingerprint`]: an oracle is persisted as its fingerprint
//! bytes and decoded by dispatching on the fingerprint's own type tag.
//! That gives the format a built-in honesty check — the decoder
//! re-fingerprints the reconstruction and requires the bytes to match,
//! so `decode(encode(x))` is provably `x` at the content-key level or
//! the record is rejected.
//!
//! Not everything a live process serves is persistable: oracles with
//! unknown fingerprint tags (e.g. the chaos-test oracles) and queries
//! whose text does not re-parse to the same canonical tableau have no
//! durable form. [`encode_record`] detects both by round-tripping at
//! encode time and returns [`Unpersistable`] — the caller skips the
//! record and counts it, and the write-ahead log never contains a
//! record that recovery could not resolve.

use crate::query::QuerySpec;
use crate::spec::{Instance, UniverseSpec};
use divr_core::{ByteReader, ByteWriter, CodecError};
use divr_relquery::parser::parse_query;
use divr_relquery::{CanonicalQuery, Database, Relation, RelationSchema};

use super::{Record, WarmKind, WarmQueryRecord};

/// The record has no durable form (unknown oracle type, or a query
/// whose text does not round-trip through the parser). Skipped and
/// counted, never written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unpersistable;

fn encode_query_spec(w: &mut ByteWriter, spec: &QuerySpec) {
    w.write_str(&spec.query().to_string());
    spec.instance().encode(w);
    w.write_usize(spec.max_k());
}

fn decode_query_spec(r: &mut ByteReader<'_>) -> Result<QuerySpec, CodecError> {
    let query = parse_query(r.read_str()?).map_err(|_| CodecError::Invalid("query text"))?;
    let spec = QuerySpec::from_instance(query, Instance::decode(r)?)
        .map_err(|_| CodecError::Invalid("query spec"))?;
    Ok(spec.with_max_k(r.read_usize()?))
}

fn encode_database(w: &mut ByteWriter, db: &Database) {
    w.write_usize(db.relation_count());
    for rel in db.relations() {
        w.write_str(rel.name());
        w.write_usize(rel.arity());
        for attr in rel.schema().attributes() {
            w.write_str(attr);
        }
        w.write_tuples(rel.tuples());
    }
}

fn decode_database(r: &mut ByteReader<'_>) -> Result<Database, CodecError> {
    let relations = r.read_usize()?;
    let mut db = Database::new();
    for _ in 0..relations {
        let name = r.read_str()?.to_string();
        let arity = r.read_usize()?;
        if arity > r.remaining() {
            return Err(CodecError::Truncated);
        }
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            attrs.push(r.read_str()?.to_string());
        }
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let mut relation = Relation::new(RelationSchema::new(name.as_str(), &attr_refs));
        for t in r.read_tuples()? {
            relation
                .insert(t)
                .map_err(|_| CodecError::Invalid("relation tuple"))?;
        }
        if db.has_relation(&name) {
            return Err(CodecError::Invalid("duplicate relation"));
        }
        db.add_relation(relation);
    }
    Ok(db)
}

/// `0` a full matrix; a coreset `1` under an explicit mode, else `2` —
/// two restore recipes once, one now, the bytes kept.
fn write_warm_kind(w: &mut ByteWriter, kind: WarmKind, spec: &QuerySpec) {
    w.write_u8(match kind {
        WarmKind::Full => 0,
        WarmKind::Coreset if spec.instance().coreset().is_some() => 1,
        WarmKind::Coreset => 2,
    });
}

/// Inverse of [`write_warm_kind`]; `1` without an explicit mode is refused.
fn read_warm_kind(r: &mut ByteReader<'_>, spec: &QuerySpec) -> Result<WarmKind, CodecError> {
    match r.read_u8()? {
        0 => Ok(WarmKind::Full),
        1 if spec.instance().coreset().is_none() => {
            Err(CodecError::Invalid("explicit kind without mode"))
        }
        1 | 2 => Ok(WarmKind::Coreset),
        _ => Err(CodecError::Invalid("warm kind tag")),
    }
}

/// Whether a query spec round-trips: its oracles decode and its text
/// re-parses to the same canonical tableau (`Identity` queries, whose
/// display form is not parser syntax, do not).
fn query_persistable(spec: &QuerySpec) -> bool {
    spec.instance().persistable()
        && parse_query(&spec.query().to_string())
            .ok()
            .and_then(|parsed| CanonicalQuery::of(&parsed).ok())
            .is_some_and(|canon| canon.bytes() == spec.canon().bytes())
}

const TAG_WARM_UNIVERSE: u8 = 1;
// Tag 2 was a universe-keyed delta record no daemon ever wrote; it
// stays reserved (a payload carrying it is `Invalid`), never reused.
const TAG_REGISTER_DB: u8 = 3;
const TAG_BASE_INSERT: u8 = 4;
const TAG_BASE_REMOVE: u8 = 5;
const TAG_WARM_QUERY: u8 = 6;

/// Encodes one record into a WAL/snapshot payload, validating at encode
/// time that recovery will be able to decode it (see module docs).
pub(crate) fn encode_record(rec: &Record) -> Result<Vec<u8>, Unpersistable> {
    let mut w = ByteWriter::new();
    match rec {
        Record::WarmUniverse { spec } => {
            if !spec.instance().persistable() {
                return Err(Unpersistable);
            }
            w.write_u8(TAG_WARM_UNIVERSE);
            // The key's rows section is `write_tuples`' bytes: copied,
            // never decoded.
            w.write_raw(spec.rows());
            spec.instance().encode(&mut w);
            // Two reserved words, once a version and an op count: the
            // layout older data directories hold, always zero in them.
            w.write_u64(0);
            w.write_usize(0);
        }
        Record::RegisterDb { name, db } => {
            w.write_u8(TAG_REGISTER_DB);
            w.write_str(name);
            encode_database(&mut w, db);
        }
        Record::BaseEdit {
            insert,
            db,
            relation,
            tuple,
        } => {
            let tag = if *insert { TAG_BASE_INSERT } else { TAG_BASE_REMOVE };
            w.write_u8(tag);
            w.write_str(db);
            w.write_str(relation);
            w.write_tuple(tuple);
        }
        Record::WarmQuery { db, entry } => {
            if !query_persistable(&entry.spec) {
                return Err(Unpersistable);
            }
            w.write_u8(TAG_WARM_QUERY);
            w.write_str(db);
            encode_query_spec(&mut w, &entry.spec);
            w.write_tuples(&entry.universe);
            write_warm_kind(&mut w, entry.kind, &entry.spec);
            w.write_usize(entry.base_len);
            w.write_u64(0); // reserved: once a version, read back by nothing
        }
    }
    Ok(w.into_bytes())
}

/// Decodes one WAL/snapshot payload. Total: corruption that survived
/// the CRC (or version skew) yields an error, never a panic.
pub(super) fn decode_record(payload: &[u8]) -> Result<Record, CodecError> {
    let mut r = ByteReader::new(payload);
    let rec = match r.read_u8()? {
        TAG_WARM_UNIVERSE => {
            let spec = UniverseSpec::from_instance(r.read_tuples()?, Instance::decode(&mut r)?);
            r.read_u64()?; // reserved
            if r.read_usize()? != 0 {
                return Err(CodecError::Invalid("universe op count"));
            }
            Record::WarmUniverse { spec }
        }
        TAG_REGISTER_DB => Record::RegisterDb {
            name: r.read_str()?.to_string(),
            db: decode_database(&mut r)?,
        },
        tag @ (TAG_BASE_INSERT | TAG_BASE_REMOVE) => Record::BaseEdit {
            insert: tag == TAG_BASE_INSERT,
            db: r.read_str()?.to_string(),
            relation: r.read_str()?.to_string(),
            tuple: r.read_tuple()?,
        },
        TAG_WARM_QUERY => {
            let db = r.read_str()?.to_string();
            let spec = decode_query_spec(&mut r)?;
            let universe = r.read_tuples()?;
            let kind = read_warm_kind(&mut r, &spec)?;
            let base_len = r.read_usize()?;
            r.read_u64()?; // reserved; snapshots written before it was hold a count here
            Record::WarmQuery {
                db,
                entry: WarmQueryRecord {
                    spec,
                    universe,
                    kind,
                    base_len,
                },
            }
        }
        _ => return Err(CodecError::Invalid("record tag")),
    };
    if !r.is_empty() {
        return Err(CodecError::Invalid("record trailing bytes"));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{
        decode_distance, decode_relevance, fingerprint_bytes, FingerprintEncoder, Fingerprintable,
    };
    use crate::spec::{CoresetSpec, ServableDistance, ServableRelevance};
    use divr_core::distance::{ConstantDistance, HammingDistance, NumericDistance, TableDistance};
    use divr_core::relevance::{AttributeRelevance, ConstantRelevance, TableRelevance};
    use divr_core::Ratio;
    use divr_relquery::{Tuple, Value};
    use std::sync::Arc;

    fn rel() -> Arc<dyn ServableRelevance> {
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        })
    }

    fn dis() -> Arc<dyn ServableDistance> {
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ONE,
        })
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i, i % 7])).collect()
    }

    #[test]
    fn universe_record_round_trips_to_same_key() {
        let spec = UniverseSpec::new(tuples(12), rel(), dis(), Ratio::new(1, 2))
            .with_coreset(CoresetSpec::with_budget(8));
        let rec = Record::WarmUniverse { spec: spec.clone() };
        let payload = encode_record(&rec).unwrap();
        match decode_record(&payload).unwrap() {
            Record::WarmUniverse { spec: decoded } => assert_eq!(decoded.key(), spec.key()),
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn table_oracles_round_trip() {
        let t = |i| Tuple::ints([i]);
        let table_rel: Arc<dyn ServableRelevance> = Arc::new(
            TableRelevance::with_default(Ratio::new(1, 3))
                .with(t(1), Ratio::ONE)
                .with(t(2), Ratio::new(2, 5)),
        );
        let table_dis: Arc<dyn ServableDistance> = Arc::new(
            TableDistance::with_default(Ratio::ZERO)
                .with(t(1), t(2), Ratio::ONE)
                .with(t(2), t(3), Ratio::new(1, 2)),
        );
        let rel_fp = fingerprint_bytes(&*table_rel);
        let dis_fp = fingerprint_bytes(&*table_dis);
        let rel2 = decode_relevance(&rel_fp).unwrap();
        let dis2 = decode_distance(&dis_fp).unwrap();
        assert_eq!(fingerprint_bytes(&*rel2), rel_fp);
        assert_eq!(fingerprint_bytes(&*dis2), dis_fp);
    }

    #[test]
    fn query_record_round_trips_to_same_ident() {
        let query = parse_query("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let spec = QuerySpec::new(query, rel(), dis(), Ratio::new(1, 2))
            .unwrap()
            .with_max_k(16);
        let rec = Record::WarmQuery {
            db: "main".into(),
            entry: WarmQueryRecord {
                spec: spec.clone(),
                universe: tuples(5),
                kind: WarmKind::Full,
                base_len: 5,
            },
        };
        let payload = encode_record(&rec).unwrap();
        match decode_record(&payload).unwrap() {
            Record::WarmQuery { db, entry } => {
                assert_eq!(db, "main");
                assert_eq!(entry.spec.canon().bytes(), spec.canon().bytes());
                assert_eq!(instance_bytes(&entry.spec), instance_bytes(&spec));
                assert_eq!(entry.spec.max_k(), spec.max_k());
                assert_eq!(entry.universe, tuples(5));
                assert_eq!(entry.kind, WarmKind::Full);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn database_record_round_trips() {
        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        db.insert("R", vec![Value::int(1), Value::str("a")]).unwrap();
        db.insert("R", vec![Value::int(2), Value::str("b")]).unwrap();
        let rec = Record::RegisterDb {
            name: "main".into(),
            db,
        };
        let payload = encode_record(&rec).unwrap();
        match decode_record(&payload).unwrap() {
            Record::RegisterDb { name, db } => {
                assert_eq!(name, "main");
                let r = db.relation("R").unwrap();
                assert_eq!(r.len(), 2);
                assert_eq!(r.schema().attributes(), &["x", "y"]);
                assert!(r.contains(&Tuple::new(vec![Value::int(1), Value::str("a")])));
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn unknown_oracle_is_unpersistable_not_a_panic() {
        struct Alien;
        impl divr_core::relevance::Relevance for Alien {
            fn rel(&self, _t: &Tuple) -> Ratio {
                Ratio::ONE
            }
        }
        impl Fingerprintable for Alien {
            fn fingerprint(&self, enc: &mut FingerprintEncoder) {
                enc.write_str("rel:alien");
            }
        }
        let spec = UniverseSpec::new(tuples(3), Arc::new(Alien), dis(), Ratio::new(1, 2));
        let rec = Record::WarmUniverse { spec };
        assert_eq!(encode_record(&rec), Err(Unpersistable));
    }

    #[test]
    fn every_truncation_of_every_record_is_rejected() {
        let query = parse_query("Q(x, y) :- R(x, y)").unwrap();
        let spec = QuerySpec::new(query, rel(), dis(), Ratio::new(1, 2)).unwrap();
        let records = vec![
            encode_record(&Record::WarmUniverse {
                spec: UniverseSpec::new(tuples(4), rel(), dis(), Ratio::new(1, 3)),
            })
            .unwrap(),
            encode_record(&Record::BaseEdit {
                insert: true,
                db: "main".into(),
                relation: "R".into(),
                tuple: Tuple::ints([1, 2]),
            })
            .unwrap(),
            encode_record(&Record::BaseEdit {
                insert: false,
                db: "main".into(),
                relation: "R".into(),
                tuple: Tuple::ints([1, 2]),
            })
            .unwrap(),
            encode_record(&Record::WarmQuery {
                db: "main".into(),
                entry: WarmQueryRecord {
                    spec,
                    universe: tuples(3),
                    kind: WarmKind::Coreset,
                    base_len: 3,
                },
            })
            .unwrap(),
        ];
        for payload in records {
            assert!(decode_record(&payload).is_ok());
            for cut in 0..payload.len() {
                assert!(
                    decode_record(&payload[..cut]).is_err(),
                    "prefix of length {cut} decoded"
                );
            }
        }
    }

    /// A coreset's warm kind byte keeps the bytes older data directories
    /// hold: `1` under an explicit mode, `2` when auto-escalated (these
    /// literals come from the writer that still had a recipe for each).
    /// Both read back as the one `Coreset` kind; `1` without a mode is
    /// still refused, and so is a byte past `2`.
    #[test]
    fn both_coreset_kind_bytes_read_as_one_kind() {
        let query = || parse_query("Q(x, y) :- R(x, y)").unwrap();
        let auto = QuerySpec::new(query(), rel(), dis(), Ratio::new(1, 2)).unwrap();
        let explicit = auto.clone().with_coreset(CoresetSpec {
            budget: 8,
            refine_rounds: 2,
        });
        let explicit_payload = concat!(
            "0604000000000000006d61696e12000000000000005128782c207929203a2d20",
            "5228782c2079293800000000000000080000000000000072656c3a6174747201",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "000000000000003b000000000000000b000000000000006469733a6e756d6572",
            "6963000000000000000001000000000000000000000000000000010000000000",
            "0000000000000000000001000000000000000000000000000000020000000000",
            "0000000000000000000001080000000000000002000000000000004000000000",
            "0000000300000000000000020000000000000000000000000000000000000000",
            "0000000000020000000000000000010000000000000000010000000000000002",
            "0000000000000000020000000000000000020000000000000001030000000000",
            "00000000000000000000",
        );
        let auto_payload = concat!(
            "0604000000000000006d61696e12000000000000005128782c207929203a2d20",
            "5228782c2079293800000000000000080000000000000072656c3a6174747201",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "000000000000003b000000000000000b000000000000006469733a6e756d6572",
            "6963000000000000000001000000000000000000000000000000010000000000",
            "0000000000000000000001000000000000000000000000000000020000000000",
            "0000000000000000000000400000000000000003000000000000000200000000",
            "0000000000000000000000000000000000000000000200000000000000000100",
            "0000000000000001000000000000000200000000000000000200000000000000",
            "0002000000000000000203000000000000000000000000000000",
        );
        for (spec, payload) in [(explicit, explicit_payload), (auto, auto_payload)] {
            let rec = Record::WarmQuery {
                db: "main".into(),
                entry: WarmQueryRecord {
                    spec: spec.clone(),
                    universe: tuples(3),
                    kind: WarmKind::Coreset,
                    base_len: 3,
                },
            };
            assert_eq!(hex(&encode_record(&rec).unwrap()), payload);
            match decode_record(&unhex(payload)).unwrap() {
                Record::WarmQuery { entry, .. } => {
                    assert_eq!(entry.kind, WarmKind::Coreset);
                    assert_eq!(entry.spec.canon().bytes(), spec.canon().bytes());
                    assert_eq!(instance_bytes(&entry.spec), instance_bytes(&spec));
                    assert_eq!(entry.spec.max_k(), spec.max_k());
                    assert_eq!((entry.universe, entry.base_len), (tuples(3), 3));
                }
                other => panic!("wrong record: {other:?}"),
            }
        }
        // The kind byte precedes the base length and the reserved word.
        let mut forged = unhex(auto_payload);
        let at = forged.len() - 17;
        assert_eq!(forged[at], 2);
        for (byte, err) in [(1, "explicit kind without mode"), (3, "warm kind tag")] {
            forged[at] = byte;
            assert_eq!(decode_record(&forged).err(), Some(CodecError::Invalid(err)));
        }
    }

    #[test]
    fn lambda_out_of_range_is_rejected_not_asserted() {
        // Hand-corrupt a valid record's λ to 2/1 and check the decoder
        // refuses instead of tripping the constructor assert.
        let spec = UniverseSpec::new(tuples(2), rel(), dis(), Ratio::new(1, 2));
        let payload = encode_record(&Record::WarmUniverse { spec }).unwrap();
        let one_half = Ratio::new(1, 2);
        let mut needle = ByteWriter::new();
        needle.write_ratio(one_half);
        let pos = payload
            .windows(needle.bytes().len())
            .rposition(|w| w == needle.bytes())
            .unwrap();
        let mut corrupt = payload.clone();
        let mut bad = ByteWriter::new();
        bad.write_ratio(Ratio::int(2));
        corrupt[pos..pos + bad.bytes().len()].copy_from_slice(bad.bytes());
        assert!(decode_record(&corrupt).is_err());
    }

    /// The `(δ_rel, δ_dis, λ, mode)` block has one key-tail writer, one
    /// durable form and one λ check, whichever spec carries it. The
    /// expected layouts are spelled out by hand here, so this test — not
    /// a second writer — is what a change to either layout has to edit.
    #[test]
    fn instance_is_described_once() {
        use crate::query::QueryFrontDoor;
        use crate::registry::Registry;
        let t = |i| Tuple::ints([i]);
        let rels: Vec<Arc<dyn ServableRelevance>> = vec![
            Arc::new(ConstantRelevance(Ratio::new(2, 3))),
            rel(),
            Arc::new(TableRelevance::with_default(Ratio::ZERO).with(t(1), Ratio::ONE)),
        ];
        let diss: Vec<Arc<dyn ServableDistance>> = vec![
            Arc::new(ConstantDistance(Ratio::ONE)),
            dis(),
            Arc::new(HammingDistance { weight: Ratio::new(1, 4) }),
            Arc::new(TableDistance::with_default(Ratio::ZERO).with(t(1), t(2), Ratio::int(5))),
        ];
        let modes = [None, Some(CoresetSpec { budget: 8, refine_rounds: 2 })];
        let lambdas = [Ratio::ZERO, Ratio::new(1, 3), Ratio::ONE];

        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("main", db);
        let query = || parse_query("Q(x, y) :- R(x, y)").unwrap();

        for rel in &rels {
            for dis in &diss {
                for mode in modes {
                    for lambda in lambdas {
                        let mut instance = Instance::new(rel.clone(), dis.clone(), lambda);
                        if let Some(mode) = mode {
                            instance = instance.with_coreset(mode);
                        }
                        let tail = |i: &Instance, auto| {
                            let mut enc = FingerprintEncoder::new();
                            i.write_key_tail(&mut enc, auto);
                            enc.into_bytes()
                        };

                        // Durable decode(encode(i)) is `i` at the key level.
                        assert!(instance.persistable());
                        let mut w = ByteWriter::new();
                        instance.encode(&mut w);
                        let mut r = ByteReader::new(w.bytes());
                        let decoded = Instance::decode(&mut r).unwrap();
                        assert!(r.is_empty());
                        for auto in [None, Some(64)] {
                            assert_eq!(tail(&decoded, auto), tail(&instance, auto));
                        }

                        // Both specs write the same rel‥lambda section,
                        // then their mode.
                        let mut section = FingerprintEncoder::new();
                        section.write_str("rel");
                        rel.fingerprint(&mut section);
                        section.write_str("dis");
                        dis.fingerprint(&mut section);
                        section.write_str("lambda");
                        section.write_ratio(lambda);
                        let ends = |mode: &dyn Fn(&mut FingerprintEncoder)| {
                            let mut enc = FingerprintEncoder::new();
                            mode(&mut enc);
                            [section.bytes(), enc.bytes()].concat()
                        };
                        let explicit = |enc: &mut FingerprintEncoder, m: CoresetSpec| {
                            enc.write_str("mode:coreset");
                            enc.write_usize(m.budget);
                            enc.write_usize(m.refine_rounds);
                        };
                        let uspec = UniverseSpec::from_instance(tuples(3), instance.clone());
                        let qspec = QuerySpec::from_instance(query(), instance.clone()).unwrap();
                        let ukey = uspec.key();
                        let qkey = front.key_for("main", &qspec).unwrap();
                        assert!(ukey.bytes().ends_with(&ends(&|enc| match mode {
                            Some(m) => explicit(enc, m),
                            None => enc.write_str("mode:full"),
                        })));
                        assert!(qkey.bytes().ends_with(&ends(&|enc| match mode {
                            Some(m) => explicit(enc, m),
                            None => {
                                enc.write_str("mode:auto");
                                enc.write_usize(qspec.auto_budget());
                            }
                        })));

                        // The four-argument constructors build the same
                        // instance.
                        let four = UniverseSpec::new(tuples(3), rel.clone(), dis.clone(), lambda);
                        let four = match mode {
                            Some(m) => four.with_coreset(m),
                            None => four,
                        };
                        assert_eq!(four.key(), ukey);
                    }
                }
            }
        }

        // An out-of-range λ is refused by the one constructor through
        // every door: `None` for the fallible callers (the JSON reader
        // turns it into a 400), a typed error from the decoder, the
        // documented panic from the four-argument `new`s.
        for bad in [Ratio::new(-1, 2), Ratio::new(3, 2)] {
            assert!(Instance::try_new(rel(), dis(), bad).is_none());
            let mut w = ByteWriter::new();
            Instance::new(rel(), dis(), Ratio::new(1, 2)).encode(&mut w);
            let mut half = ByteWriter::new();
            half.write_ratio(Ratio::new(1, 2));
            let mut corrupt = w.into_bytes();
            let at = corrupt
                .windows(half.bytes().len())
                .rposition(|win| win == half.bytes())
                .unwrap();
            let mut lambda = ByteWriter::new();
            lambda.write_ratio(bad);
            corrupt[at..at + lambda.bytes().len()].copy_from_slice(lambda.bytes());
            assert_eq!(
                Instance::decode(&mut ByteReader::new(&corrupt)).err(),
                Some(CodecError::Invalid("lambda range"))
            );
            let panics = |f: &(dyn Fn() + std::panic::RefUnwindSafe)| {
                let payload = std::panic::catch_unwind(f).unwrap_err();
                let text = payload.downcast_ref::<String>().unwrap();
                assert!(text.contains("λ must lie in [0, 1]"), "{text}");
            };
            panics(&|| drop(UniverseSpec::new(tuples(2), rel(), dis(), bad)));
            panics(&|| drop(QuerySpec::new(query(), rel(), dis(), bad)));
        }

        // An oracle whose tag no decoder knows has no durable form, in
        // either kind of record.
        struct Alien;
        impl divr_core::distance::Distance for Alien {
            fn dist(&self, _: &Tuple, _: &Tuple) -> Ratio {
                Ratio::ONE
            }
        }
        impl Fingerprintable for Alien {
            fn fingerprint(&self, enc: &mut FingerprintEncoder) {
                enc.write_str("dis:alien");
            }
        }
        let alien = Instance::new(rel(), Arc::new(Alien), Ratio::new(1, 2));
        assert!(!alien.persistable());
        let rec = Record::WarmQuery {
            db: "main".into(),
            entry: WarmQueryRecord {
                spec: QuerySpec::from_instance(query(), alien).unwrap(),
                universe: tuples(2),
                kind: WarmKind::Full,
                base_len: 2,
            },
        };
        assert_eq!(encode_record(&rec), Err(Unpersistable));
    }

    fn instance_bytes(spec: &QuerySpec) -> Vec<u8> {
        let mut w = ByteWriter::new();
        spec.instance().encode(&mut w);
        w.into_bytes()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len() / 2)
            .map(|i| u8::from_str_radix(&text[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    /// Golden byte vectors: cache keys and durable payloads are one
    /// vocabulary written by one encoder, and a change to either must
    /// be a decision, not a side effect — these literals were recorded
    /// before the key encoder and the record encoder became one type.
    /// A new literal here means every persisted data directory and
    /// every warm cache key from older builds stops matching.
    #[test]
    fn golden_key_and_wal_bytes_do_not_drift() {
        use crate::query::QueryFrontDoor;
        use crate::registry::Registry;
        let universe = vec![
            Tuple::ints([1, 2]),
            Tuple::new(vec![Value::int(-3), Value::str("a")]),
        ];
        let full = UniverseSpec::new(universe, rel(), dis(), Ratio::new(1, 2));
        let coreset = full.clone().with_coreset(CoresetSpec {
            budget: 8,
            refine_rounds: 2,
        });
        let full_key = concat!(
            "0800000000000000756e69766572736502000000000000000200000000000000",
            "000100000000000000000200000000000000020000000000000000fdffffffff",
            "ffffff01010000000000000061030000000000000072656c0800000000000000",
            "72656c3a61747472010000000000000000000000000000000000000000000000",
            "0100000000000000000000000000000003000000000000006469730b00000000",
            "0000006469733a6e756d65726963000000000000000001000000000000000000",
            "0000000000000100000000000000000000000000000006000000000000006c61",
            "6d62646101000000000000000000000000000000020000000000000000000000",
            "0000000009000000000000006d6f64653a66756c6c",
        );
        assert_eq!(hex(full.key().bytes()), full_key);
        let coreset_key = concat!(
            "0800000000000000756e69766572736502000000000000000200000000000000",
            "000100000000000000000200000000000000020000000000000000fdffffffff",
            "ffffff01010000000000000061030000000000000072656c0800000000000000",
            "72656c3a61747472010000000000000000000000000000000000000000000000",
            "0100000000000000000000000000000003000000000000006469730b00000000",
            "0000006469733a6e756d65726963000000000000000001000000000000000000",
            "0000000000000100000000000000000000000000000006000000000000006c61",
            "6d62646101000000000000000000000000000000020000000000000000000000",
            "000000000c000000000000006d6f64653a636f72657365740800000000000000",
            "0200000000000000",
        );
        assert_eq!(hex(coreset.key().bytes()), coreset_key);

        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        db.create_relation("S", &["y", "z"]).unwrap();
        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("main", db);
        let q = QuerySpec::new(
            parse_query("Q(x, z) :- R(x, y), S(y, z)").unwrap(),
            rel(),
            dis(),
            Ratio::new(1, 3),
        )
        .unwrap();
        let query_key = concat!(
            "0500000000000000717565727904000000000000006d61696e05000000000000",
            "0063616e6f6e7b00000000000000430200000000000000010000000000000000",
            "0101000000000000000200000000000000240000000000000002000000000000",
            "0000520200000000000000010000000000000000010200000000000000240000",
            "0000000000020000000000000000530200000000000000010200000000000000",
            "010100000000000000040000000000000072656c730200000000000000010000",
            "0000000000520000000000000000010000000000000053000000000000000003",
            "0000000000000072656c080000000000000072656c3a61747472010000000000",
            "0000000000000000000000000000000000000100000000000000000000000000",
            "000003000000000000006469730b000000000000006469733a6e756d65726963",
            "0000000000000000010000000000000000000000000000000100000000000000",
            "000000000000000006000000000000006c616d62646101000000000000000000",
            "0000000000000300000000000000000000000000000009000000000000006d6f",
            "64653a6175746f0004000000000000",
        );
        assert_eq!(hex(front.key_for("main", &q).unwrap().bytes()), query_key);

        // The coreset `WarmUniverse` record as every daemon has written
        // it (taken from the encoder that still had a version and a
        // delta log to write): both reserved words zero.
        let wal_payload = concat!(
            "0102000000000000000200000000000000000100000000000000000200000000",
            "000000020000000000000000fdffffffffffffff010100000000000000613800",
            "000000000000080000000000000072656c3a6174747201000000000000000000",
            "0000000000000000000000000000010000000000000000000000000000003b00",
            "0000000000000b000000000000006469733a6e756d6572696300000000000000",
            "0001000000000000000000000000000000010000000000000000000000000000",
            "0001000000000000000000000000000000020000000000000000000000000000",
            "0001080000000000000002000000000000000000000000000000000000000000",
            "0000",
        );
        let rec = Record::WarmUniverse { spec: coreset.clone() };
        assert_eq!(hex(&encode_record(&rec).unwrap()), wal_payload);
        match decode_record(&unhex(wal_payload)).unwrap() {
            Record::WarmUniverse { spec } => assert_eq!(spec.key(), coreset.key()),
            other => panic!("wrong record: {other:?}"),
        }

        // The same record at version 3 with two logged ops — the
        // literal this test pinned while the universe-keyed delta path
        // existed. Same layout: today's payload is its bytes up to the
        // version word, then zeros. No daemon wrote a non-zero count, so
        // the reader refuses it, typed.
        let versioned = concat!(
            "0102000000000000000200000000000000000100000000000000000200000000",
            "000000020000000000000000fdffffffffffffff010100000000000000613800",
            "000000000000080000000000000072656c3a6174747201000000000000000000",
            "0000000000000000000000000000010000000000000000000000000000003b00",
            "0000000000000b000000000000006469733a6e756d6572696300000000000000",
            "0001000000000000000000000000000000010000000000000000000000000000",
            "0001000000000000000000000000000000020000000000000000000000000000",
            "0001080000000000000002000000000000000300000000000000020000000000",
            "0000000200000000000000000900000000000000000100000000000000010000",
            "000000000000",
        );
        let words = wal_payload.len() - 32;
        assert_eq!(wal_payload[..words], versioned[..words]);
        assert_eq!(wal_payload[words..], "0".repeat(32));
        assert_eq!(
            decode_record(&unhex(versioned)).err(),
            Some(CodecError::Invalid("universe op count"))
        );
        // Tag 2, a universe-keyed delta as the old encoder spelled it:
        // reserved, so replay stops there (the consistent-prefix rule).
        let delta = "020300000000000000010203000200000000000000000700000000000000000800000000000000";
        assert_eq!(
            decode_record(&unhex(delta)).err(),
            Some(CodecError::Invalid("record tag"))
        );

        // A `WarmQuery` record does carry a non-zero version word in
        // data directories written before this one was reserved (each
        // base edit added the ops it planned): `q` over two tuples at
        // version 5, from the old encoder. It decodes to the same spec,
        // sequence, kind and base length, and re-encodes with the word
        // zeroed in place.
        let warm_query_v5 = concat!(
            "0604000000000000006d61696e1b000000000000005128782c207a29203a2d20",
            "5228782c2079292c205328792c207a293800000000000000080000000000000072",
            "656c3a617474720100000000000000000000000000000000000000000000000100",
            "00000000000000000000000000003b000000000000000b000000000000006469",
            "733a6e756d65726963000000000000000001000000000000000000000000000000",
            "0100000000000000000000000000000001000000000000000000000000000000",
            "0300000000000000000000000000000000400000000000000002000000000000",
            "0002000000000000000001000000000000000002000000000000000200000000",
            "0000000003000000000000000004000000000000000002000000000000000500",
            "000000000000",
        );
        let old = unhex(warm_query_v5);
        let rec = decode_record(&old).unwrap();
        match &rec {
            Record::WarmQuery { db, entry } => {
                assert_eq!(db, "main");
                assert_eq!(entry.spec.canon().bytes(), q.canon().bytes());
                assert_eq!(instance_bytes(&entry.spec), instance_bytes(&q));
                assert_eq!(entry.spec.max_k(), q.max_k());
                assert_eq!(entry.universe, [Tuple::ints([1, 2]), Tuple::ints([3, 4])]);
                assert_eq!((entry.kind, entry.base_len), (WarmKind::Full, 2));
            }
            other => panic!("wrong record: {other:?}"),
        }
        let new = encode_record(&rec).unwrap();
        assert_eq!(new[..new.len() - 8], old[..old.len() - 8]);
        assert_eq!(new[new.len() - 8..], [0; 8]);
    }
}
