//! A minimal, dependency-free JSON value, parser and serializer.
//!
//! The container is fully offline, so the wire layer cannot lean on
//! serde; this module implements exactly the JSON subset the protocol
//! uses. Two deliberate simplifications relative to a general-purpose
//! library:
//!
//! * objects preserve insertion order in a `Vec<(String, Value)>` —
//!   lookups are linear, which is fine for the protocol's single-digit
//!   key counts and keeps serialization deterministic;
//! * numbers that fit an `i64` parse as [`Value::Int`]; everything
//!   else falls back to [`Value::Float`]. The protocol itself never
//!   puts exact quantities in floats — `Ratio`s travel as `[num, den]`
//!   integer pairs — so float lossiness can never corrupt an answer.
//!
//! Reading is one pull tokenizer, `Reader`: [`parse`] builds a tree
//! with it, and the daemon's frame path reads a frame with it without
//! building a tree of the rows.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits an `i64` exactly.
    Int(i64),
    /// Any other number (never produced by the protocol's encoders).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Value::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string slice, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to compact JSON (no whitespace). Non-finite floats
    /// serialize as `null` — JSON has no spelling for them, and the
    /// protocol never emits floats for exact data anyway.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds an object value from `(key, value)` pairs.
pub fn object(members: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, and a stack overflow is an abort no `catch_unwind`
/// sees, so the depth an input can demand must be bounded. The
/// protocol's deepest legitimate document nests 6 levels.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage is an error, nesting past [`MAX_DEPTH`] is an error).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Why a document failed to parse (byte offset + message).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// The one JSON tokenizer: a pull reader over one document. [`parse`]
/// builds a [`Value`] tree with it; the frame path (`wire::Frame`) walks
/// a frame with it and builds rows straight into tuples. Both see the
/// same grammar, the same depth bound and the same error at the same
/// byte, because there is one reader.
///
/// A container is walked as `open`, then `key` (objects) or `item`
/// (arrays) until it reports the close; each `Some` key or `true` item
/// leaves the cursor on a value the caller must consume — [`value`],
/// [`skip`] or a nested `open`.
///
/// [`value`]: Reader::value
/// [`skip`]: Reader::skip
pub(crate) struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// A container was just opened: its first key or item comes next.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader on the first value of `input` (leading whitespace skipped).
    pub(crate) fn new(input: &'a str) -> Reader<'a> {
        let mut reader = Reader {
            input,
            pos: 0,
            depth: 0,
            fresh: false,
        };
        reader.skip_ws();
        reader
    }

    /// Checks that only whitespace follows the document.
    pub(crate) fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters after JSON document"));
        }
        Ok(())
    }

    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            message,
        }
    }

    /// The byte under the cursor: `{`, `[` and `"` say what the next
    /// value is.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// Opens the array or object under the cursor, a level deeper.
    pub(crate) fn open(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than the limit of 64 levels"));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// The next key of the open object, the cursor left on its value;
    /// `None` once the object is closed.
    pub(crate) fn key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.more(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "expected ':' after object key")?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Whether the open array has another item, the cursor left on it;
    /// `false` once the array is closed.
    pub(crate) fn item(&mut self) -> Result<bool, ParseError> {
        self.more(b']', "expected ',' or ']' in array")
    }

    /// Steps past the separator before the next member of the open
    /// container, or past its `close` byte.
    fn more(&mut self, close: u8, message: &'static str) -> Result<bool, ParseError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            Some(b',') if !first => self.pos += 1,
            _ if !first => return Err(self.err(message)),
            _ => {}
        }
        self.skip_ws();
        Ok(true)
    }

    /// Reads the value under the cursor into a tree.
    pub(crate) fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => {
                self.open()?;
                let mut members = Vec::new();
                while let Some(key) = self.key()? {
                    members.push((key.into_owned(), self.value()?));
                }
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                self.open()?;
                let mut items = Vec::new();
                while self.item()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Reads past the value under the cursor, checking it as [`value`]
    /// would and building nothing.
    ///
    /// [`value`]: Reader::value
    pub(crate) fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'{') => {
                self.open()?;
                while self.key()?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.open()?;
                while self.item()? {
                    self.skip()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            _ => {
                self.value()?;
            }
        }
        Ok(())
    }

    fn literal(&mut self, literal: &str, value: Value) -> Result<Value, ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Reads the string under the cursor: borrowed from the input when
    /// it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        let input = self.input;
        let plain = input.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        let Some(end) = plain.map(|n| start + n) else {
            self.pos = input.len();
            return Err(self.err("unterminated string"));
        };
        self.pos = end;
        if input.as_bytes()[end] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(&input[start..end]));
        }
        let mut out = input[start..end].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired
                                // low surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate escape")?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&second) {
                                        return Err(self.err("invalid unicode escape"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    let c = input[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Exactly four hex digits (RFC 8259 §7: no sign, no fewer).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let Some(hex) = self.input.as_bytes().get(self.pos..end) else {
            return Err(self.err("truncated unicode escape"));
        };
        let mut value = 0;
        for &b in hex {
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("invalid unicode escape"))?;
            value = value * 16 + digit;
        }
        self.pos = end;
        Ok(value)
    }

    /// Reads the longest run of number characters, then holds it to the
    /// RFC 8259 §6 grammar `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`:
    /// no leading zero, no empty integer, fraction or exponent.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        // Exact while at most 18 digits: 10^18 - 1 < i64::MAX.
        let mut magnitude = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            self.pos += 1;
        }
        let int_digits = self.pos - int_start;
        let mut grammatical = int_digits == 1
            || (int_digits > 1 && self.input.as_bytes()[int_start] != b'0');
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            grammatical &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            grammatical &= self.digits() > 0;
        }
        if !grammatical {
            return Err(self.err("invalid number"));
        }
        if !is_float && int_digits <= 18 {
            let magnitude = magnitude as i64;
            return Ok(Value::Int(if int_start > start { -magnitude } else { magnitude }));
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }

    /// Steps past a run of decimal digits, returning its length.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let doc = r#"{"op":"serve","tenant":"alice","lambda":[1,2],"requests":[{"objective":"max_sum","k":4}],"flag":true,"none":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("serve"));
        assert_eq!(
            v.get("lambda").unwrap().as_array().unwrap()[1].as_i64(),
            Some(2)
        );
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Value::Str("a\"b\\c\nd\u{1F600}".to_string());
        let parsed = parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
        // Surrogate-pair escapes decode too.
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
    }

    #[test]
    fn high_surrogate_needs_a_low_surrogate_escape_after_it() {
        // `second - 0xDC00` on anything else underflowed: a panic in
        // debug builds, U+2441 *accepted* in release builds.
        for bad in [
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800\ue000""#,
        ] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.message, "invalid unicode escape", "{bad}");
        }
        assert!(parse(r#""\ud800x""#).is_err());
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        // Both ends of the low range pair up.
        assert_eq!(
            parse(r#""\ud800\udc00\udbff\udfff""#).unwrap(),
            Value::Str("\u{10000}\u{10FFFF}".to_string())
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]")] {
            let levels = open.matches(['[', '{']).count();
            let at_limit = nested(open, close, MAX_DEPTH / levels).replace(":}", ":1}");
            assert!(parse(&at_limit).is_ok(), "{MAX_DEPTH} levels of {open}");
            let past = nested(open, close, MAX_DEPTH / levels + 1).replace(":}", ":1}");
            let e = parse(&past).unwrap_err();
            assert!(e.message.contains(&MAX_DEPTH.to_string()), "{e}");
        }
        // Depth, not length: siblings do not accumulate.
        let wide = format!("[{}[]]", "[[]],".repeat(10_000));
        assert!(parse(&wide).is_ok());
        // What used to overflow the stack and abort the process.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "01x", "[1] tail", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// RFC 8259 §6 and §7 exactly: `u32::from_str_radix` took a sign in
    /// a `\u` escape, and `str::parse` took a leading zero, an empty
    /// fraction and an empty integer part.
    #[test]
    fn escapes_and_numbers_follow_rfc_8259_exactly() {
        for (bad, message, at) in [
            (r#""\u+041""#, "invalid unicode escape", 3),
            (r#""\u-041""#, "invalid unicode escape", 3),
            (r#""\ud800\u+c00""#, "invalid unicode escape", 9),
            ("01", "invalid number", 2),
            ("-01", "invalid number", 3),
            ("00", "invalid number", 2),
            ("1.", "invalid number", 2),
            ("1.e3", "invalid number", 4),
            ("-.5", "invalid number", 3),
            ("[1.]", "invalid number", 3),
            ("-", "invalid number", 1),
            ("1e", "invalid number", 2),
            ("1e+", "invalid number", 3),
        ] {
            assert_eq!(parse(bad), Err(ParseError { at, message }), "{bad}");
        }
        for (good, value) in [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("10", Value::Int(10)),
            ("0.5", Value::Float(0.5)),
            ("-0.5e1", Value::Float(-5.0)),
            ("1E+2", Value::Float(100.0)),
            ("0e0", Value::Float(0.0)),
            ("9223372036854775808", Value::Float(9_223_372_036_854_775_808.0)),
            (r#""\u0041\u00e9\uFFFF""#, Value::Str("A\u{e9}\u{ffff}".to_string())),
        ] {
            assert_eq!(parse(good), Ok(value), "{good}");
        }
    }

    /// A string without an escape is borrowed from the input; one with
    /// an escape is decoded, its unescaped prefix kept.
    #[test]
    fn plain_strings_borrow_and_escaped_ones_decode() {
        let mut reader = Reader::new(r#""abc""#);
        assert!(matches!(reader.string(), Ok(Cow::Borrowed("abc"))));
        let mut reader = Reader::new(r#""ab\ncé""#);
        assert!(matches!(reader.string(), Ok(Cow::Owned(s)) if s == "ab\ncé"));
        for (bad, at) in [(r#""abc"#, 4), (r#""ab\"#, 4), (r#""ab\q""#, 5)] {
            assert_eq!(parse(bad).unwrap_err().at, at, "{bad}");
        }
    }

    /// `skip` walks what `value` walks: the same refusal at the same
    /// byte, nothing built.
    #[test]
    fn skip_refuses_what_value_refuses() {
        for doc in [
            "[1, [2, {\"a\": [3]}], \"x\"]",
            "[1, [2, {\"a\": [3}], \"x\"]",
            "{\"a\": tru}",
            "[1,]",
            "{\"a\" 1}",
            "[\"\\u12\"]",
            "[".repeat(70).as_str(),
        ] {
            let mut skipped = Reader::new(doc);
            let skipped = skipped.skip().and_then(|()| skipped.finish());
            assert_eq!(skipped, parse(doc).map(drop), "{doc}");
        }
    }
}
