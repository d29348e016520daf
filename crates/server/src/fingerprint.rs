//! Universe fingerprinting: canonical, **injective** byte encodings.
//!
//! The registry must decide in `O(content)` time whether two serving
//! requests address the same universe `(Q(D), δ_rel, δ_dis, λ)`. A
//! plain hash would make that decision probabilistic — and a hash
//! collision between two *different* universes would silently serve one
//! tenant another tenant's prepared matrix. The cache key is therefore
//! the full canonical encoding of the universe content, not a digest of
//! it: every encoder primitive is length- or tag-prefixed, so the
//! encoding is injective by construction and **distinct content implies
//! distinct keys** — not merely with high probability
//! (`crates/server/tests/cache_coherence.rs` property-tests this). A
//! 128-bit FNV-1a digest of the same bytes rides along for cheap
//! hashing and shard selection; it is never trusted for equality.
//!
//! One consumer outside this crate uses the digest **in place of** the
//! bytes: the service's admission ledger remembers a charged universe
//! as `(digest, encoded length)` so that a never-refunded row does not
//! keep a key's bytes alive. That trust is for quota deduplication
//! only — a collision under-charges one tenant for one universe and
//! cannot change an answer, because the universe is still looked up,
//! prepared and served under its full bytes here
//! (see `divr_service::admission`).
//!
//! Relevance and distance functions participate through
//! [`Fingerprintable`]: a function fingerprint encodes a type tag plus
//! the full configuration (table entries in sorted order, attribute
//! indices, defaults). The closure-based functions of `divr_core`
//! cannot be content-addressed and so are deliberately not servable.
//!
//! This module owns the **oracle tag vocabulary** (`rel:attr`,
//! `dis:numeric`, …) in both directions: each tag is written by a
//! [`Fingerprintable`] impl below and read back by
//! `read_relevance` / `read_distance` beside it — in place inside a
//! cache key (`UniverseSpec::from_key`), or whole by
//! `decode_relevance` / `decode_distance`, which is how the durable
//! formats (`crate::persist`) persist an oracle: as its fingerprint
//! bytes. A new servable oracle kind is one impl and one reader arm
//! here (plus its JSON spelling in the wire layer), and nothing else.

use crate::spec::{ServableDistance, ServableRelevance};
use divr_core::distance::{ConstantDistance, HammingDistance, NumericDistance, TableDistance};
use divr_core::relevance::{AttributeRelevance, ConstantRelevance, TableRelevance};
use divr_core::{ByteReader, CodecError, Ratio};
use divr_relquery::Tuple;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const FNV128_OFFSET: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// The key encoder *is* the workspace's canonical byte writer: cache
/// keys and the durable formats share one vocabulary (length-prefixed
/// strings and tags, little-endian fixed-width integers, sort-tagged
/// values, arity-prefixed tuples), which is what lets the persist
/// codec parse fingerprint bytes back with
/// [`ByteReader`]. Finish a key with
/// [`UniverseKey::from_bytes`].
pub type FingerprintEncoder = divr_core::ByteWriter;

/// A registry cache key: the canonical content encoding (authoritative
/// for equality) plus its 128-bit digest (used for hashing and shard
/// selection). Cloning is `O(1)`.
#[derive(Clone, Debug)]
pub struct UniverseKey {
    digest: u128,
    bytes: Arc<Vec<u8>>,
}

impl UniverseKey {
    /// The key for a canonical content encoding (one FNV-1a pass for
    /// the digest, one copy into the shared bytes) — how an encoder
    /// finishes, and the durability layer's path from persisted key
    /// bytes back to a live cache key. For any key,
    /// `UniverseKey::from_bytes(key.bytes()) == key`.
    pub fn from_bytes(bytes: &[u8]) -> UniverseKey {
        Self::from_shared(Arc::new(bytes.to_vec()))
    }

    /// The key over bytes its holder shares, with no copy: a
    /// [`UniverseSpec`](crate::UniverseSpec)'s key is the spec's own
    /// bytes.
    pub(crate) fn from_shared(bytes: Arc<Vec<u8>>) -> UniverseKey {
        let mut digest = FNV128_OFFSET;
        for &b in bytes.iter() {
            digest ^= u128::from(b);
            digest = digest.wrapping_mul(FNV128_PRIME);
        }
        UniverseKey { digest, bytes }
    }

    /// The 128-bit content digest (shard selector, hash value).
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// The canonical content encoding.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The shared allocation behind [`UniverseKey::bytes`].
    pub(crate) fn shared(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// Whether this key's bytes fill their allocation exactly.
    pub(crate) fn is_exact(&self) -> bool {
        self.bytes.capacity() == self.bytes.len()
    }

    /// This key with its bytes in an allocation of exactly their
    /// length — what a cache entry keeps. A spec's key is written row by
    /// row and shares the writer's growth headroom, up to its own size
    /// again; resident, that headroom would stay for the entry's life.
    pub(crate) fn exact(&self) -> UniverseKey {
        if self.is_exact() {
            return self.clone();
        }
        UniverseKey {
            digest: self.digest,
            bytes: Arc::new(self.bytes.to_vec()),
        }
    }
}

impl PartialEq for UniverseKey {
    fn eq(&self, other: &Self) -> bool {
        // The digest comparison is a fast reject; bytes decide.
        self.digest == other.digest && self.bytes == other.bytes
    }
}

impl Eq for UniverseKey {}

impl Hash for UniverseKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.digest);
    }
}

/// Content-addressable: writes a canonical encoding of the full
/// configuration into the encoder.
pub trait Fingerprintable {
    /// Encodes this function's identity and configuration.
    fn fingerprint(&self, enc: &mut FingerprintEncoder);
}

impl Fingerprintable for ConstantRelevance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("rel:const");
        enc.write_ratio(self.0);
    }
}

impl Fingerprintable for AttributeRelevance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("rel:attr");
        enc.write_usize(self.attr);
        enc.write_ratio(self.default);
    }
}

impl Fingerprintable for TableRelevance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("rel:table");
        enc.write_ratio(self.default_value());
        let mut entries: Vec<(&Tuple, Ratio)> = self.entries().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        enc.write_usize(entries.len());
        for (t, v) in entries {
            enc.write_tuple(t);
            enc.write_ratio(v);
        }
    }
}

impl Fingerprintable for ConstantDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("dis:const");
        enc.write_ratio(self.0);
    }
}

impl Fingerprintable for NumericDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("dis:numeric");
        enc.write_usize(self.attr);
        enc.write_ratio(self.fallback);
    }
}

impl Fingerprintable for HammingDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("dis:hamming");
        enc.write_ratio(self.weight);
    }
}

impl Fingerprintable for TableDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("dis:table");
        enc.write_ratio(self.default_value());
        let mut entries: Vec<(&(Tuple, Tuple), Ratio)> = self.entries().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        enc.write_usize(entries.len());
        for ((a, b), v) in entries {
            enc.write_tuple(a);
            enc.write_tuple(b);
            enc.write_ratio(v);
        }
    }
}

/// The fingerprint bytes of one oracle — its persisted form.
pub(crate) fn fingerprint_bytes(oracle: &(impl Fingerprintable + ?Sized)) -> Vec<u8> {
    let mut enc = FingerprintEncoder::new();
    oracle.fingerprint(&mut enc);
    enc.into_bytes()
}

/// Reads one oracle that must fill `bytes` exactly and re-fingerprint
/// to exactly `bytes` — decode is the inverse of the fingerprint or it
/// fails.
fn decode_whole<T: Fingerprintable + ?Sized>(
    bytes: &[u8],
    read: fn(&mut ByteReader<'_>) -> Result<Arc<T>, CodecError>,
) -> Result<Arc<T>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let out = read(&mut r)?;
    if !r.is_empty() || fingerprint_bytes(&*out) != bytes {
        return Err(CodecError::Invalid("oracle round-trip"));
    }
    Ok(out)
}

/// Rebuilds a relevance oracle from its fingerprint bytes; an unknown
/// tag (an oracle with no durable form) is an error, never a panic.
pub(crate) fn decode_relevance(bytes: &[u8]) -> Result<Arc<dyn ServableRelevance>, CodecError> {
    decode_whole(bytes, read_relevance)
}

/// Rebuilds a distance oracle from its fingerprint bytes (same
/// contract as [`decode_relevance`]).
pub(crate) fn decode_distance(bytes: &[u8]) -> Result<Arc<dyn ServableDistance>, CodecError> {
    decode_whole(bytes, read_distance)
}

/// Reads one relevance fingerprint in place — inside a cache key, or
/// the whole of a persisted oracle. No round-trip check of its own: the
/// caller holds the bytes the oracle must re-fingerprint to.
pub(crate) fn read_relevance(
    r: &mut ByteReader<'_>,
) -> Result<Arc<dyn ServableRelevance>, CodecError> {
    Ok(match r.read_str()? {
        "rel:const" => Arc::new(ConstantRelevance(r.read_ratio()?)),
        "rel:attr" => Arc::new(AttributeRelevance {
            attr: r.read_usize()?,
            default: r.read_ratio()?,
        }),
        "rel:table" => {
            let mut table = TableRelevance::with_default(r.read_ratio()?);
            for _ in 0..r.read_usize()? {
                let t = r.read_tuple()?;
                table = table.with(t, r.read_ratio()?);
            }
            Arc::new(table)
        }
        _ => return Err(CodecError::Invalid("relevance tag")),
    })
}

/// Reads one distance fingerprint in place (same contract as
/// [`read_relevance`]).
pub(crate) fn read_distance(
    r: &mut ByteReader<'_>,
) -> Result<Arc<dyn ServableDistance>, CodecError> {
    Ok(match r.read_str()? {
        "dis:const" => Arc::new(ConstantDistance(r.read_ratio()?)),
        "dis:numeric" => Arc::new(NumericDistance {
            attr: r.read_usize()?,
            fallback: r.read_ratio()?,
        }),
        "dis:hamming" => Arc::new(HammingDistance {
            weight: r.read_ratio()?,
        }),
        "dis:table" => {
            let mut table = TableDistance::with_default(r.read_ratio()?);
            for _ in 0..r.read_usize()? {
                let (a, b) = (r.read_tuple()?, r.read_tuple()?);
                table = table.with(a, b, r.read_ratio()?);
            }
            Arc::new(table)
        }
        _ => return Err(CodecError::Invalid("distance tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_relquery::Value;

    fn key_of(f: impl Fn(&mut FingerprintEncoder)) -> UniverseKey {
        let mut enc = FingerprintEncoder::new();
        f(&mut enc);
        UniverseKey::from_bytes(enc.bytes())
    }

    #[test]
    fn equal_content_equal_keys() {
        let a = key_of(|e| {
            e.write_tuple(&Tuple::ints([1, 2]));
            e.write_ratio(Ratio::new(1, 2));
        });
        let b = key_of(|e| {
            e.write_tuple(&Tuple::ints([1, 2]));
            e.write_ratio(Ratio::new(2, 4)); // same reduced rational
        });
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn length_prefixes_prevent_field_bleed() {
        // Without prefixes, ["ab", "c"] and ["a", "bc"] would encode
        // to the same bytes.
        let a = key_of(|e| {
            e.write_str("ab");
            e.write_str("c");
        });
        let b = key_of(|e| {
            e.write_str("a");
            e.write_str("bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn value_sorts_are_tagged() {
        let a = key_of(|e| e.write_value(&Value::int(65)));
        let b = key_of(|e| e.write_value(&Value::str("A")));
        assert_ne!(a, b);
    }

    #[test]
    fn table_fingerprints_ignore_insertion_order() {
        let t = |i| Tuple::ints([i]);
        let d1 = TableDistance::with_default(Ratio::ZERO)
            .with(t(0), t(1), Ratio::ONE)
            .with(t(1), t(2), Ratio::int(2));
        let d2 = TableDistance::with_default(Ratio::ZERO)
            .with(t(2), t(1), Ratio::int(2))
            .with(t(1), t(0), Ratio::ONE);
        let k1 = key_of(|e| d1.fingerprint(e));
        let k2 = key_of(|e| d2.fingerprint(e));
        assert_eq!(k1, k2);
    }

    #[test]
    fn different_function_types_never_collide() {
        let c = ConstantDistance(Ratio::ONE);
        let h = HammingDistance { weight: Ratio::ONE };
        assert_ne!(key_of(|e| c.fingerprint(e)), key_of(|e| h.fingerprint(e)));
    }
}
