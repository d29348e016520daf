//! Canonical binary codecs: the byte vocabulary durability speaks.
//!
//! The serving registry content-addresses every cache entry by an
//! injective canonical encoding. This module is that vocabulary, in
//! both directions: a [`ByteWriter`] — the registry's key encoder and
//! the durable formats' record encoder are this one type — that emits
//! the primitives (little-endian fixed-width integers, length-prefixed
//! strings, tag-byte-discriminated values, arity-prefixed tuples) and
//! a [`ByteReader`] that parses them back without ever panicking —
//! every read returns a typed [`CodecError`] on truncated or malformed
//! input, because the reader's job is to survive torn write-ahead-log
//! tails and corrupted snapshots, not to trust them.
//!
//! A hand-rolled CRC-32 (IEEE 802.3, the zlib polynomial) rides along
//! for framing: durability stores every record as
//! `[len][crc][payload]` and drops anything whose checksum disagrees.
//! No external dependencies — the table is built in a `const` context.

use crate::ratio::Ratio;
use divr_relquery::{Tuple, Value};

/// Why a decode stopped: the reader never panics, it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the field did.
    Truncated,
    /// A discriminant or length field held a value the format does not
    /// define; the message names the field.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC-32 lookup table for the IEEE 802.3 polynomial (reflected:
/// `0xEDB8_8320`), built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum zlib, PNG and Ethernet use.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Accumulates the canonical binary encoding. The registry's cache
/// keys are written with this type too, so fingerprint bytes (oracle
/// configurations in particular) parse with the same [`ByteReader`].
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Finishes into the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// A single raw byte (format discriminants).
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// An unsigned 64-bit integer, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length or index (as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// A signed 64-bit integer, little-endian.
    fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A signed 128-bit integer, little-endian.
    fn write_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An exact rational: reduced numerator then denominator.
    pub fn write_ratio(&mut self, r: Ratio) {
        self.write_i128(r.numerator());
        self.write_i128(r.denominator());
    }

    /// A string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A raw byte string, length-prefixed — for embedding an already
    /// canonical encoding (a fingerprint, a query's tableau key).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// An attribute value, tagged by sort (`0` = int, `1` = string).
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.write_u8(0);
                self.write_i64(*i);
            }
            Value::Str(s) => {
                self.write_u8(1);
                self.write_str(s);
            }
        }
    }

    /// A tuple, arity-prefixed.
    pub fn write_tuple(&mut self, t: &Tuple) {
        self.write_usize(t.arity());
        for v in t.iter() {
            self.write_value(v);
        }
    }

    /// A tuple sequence, count-prefixed — a universe, a relation's rows.
    pub fn write_tuples(&mut self, tuples: &[Tuple]) {
        self.write_usize(tuples.len());
        for t in tuples {
            self.write_tuple(t);
        }
    }
}

/// Sanity cap on decoded length prefixes: no legitimate record in this
/// workspace holds a single field beyond a few hundred megabytes, and a
/// corrupted length must fail fast instead of asking the allocator for
/// 2⁶⁴ bytes.
const MAX_FIELD_LEN: u64 = 1 << 30;

/// Parses the canonical binary encoding back out. Every method is
/// total: malformed input yields [`CodecError`], never a panic and
/// never an attempt to allocate a corrupted length.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is fully consumed — decoders check this to
    /// reject records with trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one raw byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length or index, rejecting values that could not be a
    /// real in-memory size.
    pub fn read_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.read_u64()?;
        if v > MAX_FIELD_LEN {
            return Err(CodecError::Invalid("length prefix"));
        }
        Ok(v as usize)
    }

    /// Reads a little-endian `i64`.
    fn read_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i128`.
    fn read_i128(&mut self) -> Result<i128, CodecError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an exact rational; rejects a zero denominator.
    pub fn read_ratio(&mut self) -> Result<Ratio, CodecError> {
        let num = self.read_i128()?;
        let den = self.read_i128()?;
        if den == 0 {
            return Err(CodecError::Invalid("ratio denominator"));
        }
        Ok(Ratio::new_i128(num, den))
    }

    /// Reads a length-prefixed string.
    pub fn read_str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.read_usize()?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| CodecError::Invalid("utf-8 string"))
    }

    /// Reads a length-prefixed byte string.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.read_usize()?;
        self.take(len)
    }

    /// Reads a sort-tagged attribute value.
    fn read_value(&mut self) -> Result<Value, CodecError> {
        match self.read_u8()? {
            0 => Ok(Value::Int(self.read_i64()?)),
            1 => Ok(Value::str(self.read_str()?)),
            _ => Err(CodecError::Invalid("value sort tag")),
        }
    }

    /// Reads an arity-prefixed tuple.
    pub fn read_tuple(&mut self) -> Result<Tuple, CodecError> {
        let arity = self.read_usize()?;
        // An arity beyond the remaining byte count is unsatisfiable
        // (every value takes ≥ 1 byte) — reject before reserving.
        if arity > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.read_value()?);
        }
        Ok(Tuple::new(values))
    }

    /// Reads a count-prefixed tuple sequence.
    pub fn read_tuples(&mut self) -> Result<Vec<Tuple>, CodecError> {
        let n = self.read_usize()?;
        // Every tuple takes ≥ 8 bytes (its arity): a count beyond the
        // remaining bytes is unsatisfiable — reject before reserving.
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            tuples.push(self.read_tuple()?);
        }
        Ok(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_usize(42);
        w.write_i64(-5);
        w.write_ratio(Ratio::new(-3, 7));
        w.write_str("hello");
        w.write_bytes(&[1, 2, 3]);
        w.write_value(&Value::str("x"));
        w.write_tuple(&Tuple::ints([1, 2, 3]));
        w.write_tuples(&[Tuple::ints([4]), Tuple::ints([])]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_usize().unwrap(), 42);
        assert_eq!(r.read_i64().unwrap(), -5);
        assert_eq!(r.read_ratio().unwrap(), Ratio::new(-3, 7));
        assert_eq!(r.read_str().unwrap(), "hello");
        assert_eq!(r.read_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.read_value().unwrap(), Value::str("x"));
        assert_eq!(r.read_tuple().unwrap(), Tuple::ints([1, 2, 3]));
        assert_eq!(
            r.read_tuples().unwrap(),
            vec![Tuple::ints([4]), Tuple::ints([])]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = ByteWriter::new();
        w.write_tuple(&Tuple::ints([1, 2, 3]));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.read_tuple().is_err(), "prefix of length {cut} decoded");
        }
    }

    #[test]
    fn corrupted_length_prefix_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.write_u64(u64::MAX); // an absurd length prefix
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_usize(), Err(CodecError::Invalid("length prefix")));
        // A plausible count the input cannot hold is refused before
        // anything is reserved for it.
        let mut w = ByteWriter::new();
        w.write_usize(1 << 20);
        assert_eq!(
            ByteReader::new(w.bytes()).read_tuples(),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn bad_discriminants_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(r.read_value().is_err());
    }
}
