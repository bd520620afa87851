//! A small dependency-free JSON toolkit shared by every layer that
//! speaks JSON: sketch persistence ([`crate::persist`]), the CLI's
//! machine-readable reports, and the `sketch-server` HTTP service.
//!
//! Reading comes in two shapes over one grammar: [`parse`], a
//! recursive-descent parser into a [`Value`] tree (numbers keep their
//! raw text so `u64` identifiers and counters survive without a
//! round-trip through `f64`), and [`Reader`], a pull reader that walks a
//! document without building one — what the server's request path uses
//! to hash query keys as they are read. Writing is a
//! pair of append helpers ([`push_string`], [`push_f64`]) chosen so that
//! the output of a given value is deterministic byte for byte — the
//! property the server's response cache and the store equivalence tests
//! rely on.

use crate::error::SketchError;

/// Append `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes, and control characters.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append the shortest decimal representation of `v` that round-trips
/// through `f64` parsing (Rust's `Debug` float formatting guarantees
/// this). The caller must ensure `v` is finite — JSON has no inf/NaN.
pub fn push_f64(out: &mut String, v: f64) {
    out.push_str(&format!("{v:?}"));
}

/// A parsed JSON value. Numbers keep their raw text so `u64` keys and
/// counters survive without a round-trip through `f64`.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, unparsed.
    Num(String),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// View as an object; `what` names the value in the error message.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not an object.
    pub fn as_object(&self, what: &str) -> Result<Obj<'_>, SketchError> {
        match self {
            Value::Obj(fields) => Ok(Obj(fields)),
            _ => Err(SketchError::Corrupt(format!("{what}: expected object"))),
        }
    }

    /// View as an array.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not an array.
    pub fn as_array(&self, what: &str) -> Result<&[Value], SketchError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(SketchError::Corrupt(format!("{what}: expected array"))),
        }
    }

    /// View as a string.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, SketchError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(SketchError::Corrupt(format!("{what}: expected string"))),
        }
    }

    /// View as a bool.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not a bool.
    pub fn as_bool(&self, what: &str) -> Result<bool, SketchError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(SketchError::Corrupt(format!("{what}: expected bool"))),
        }
    }

    /// Parse as `u64`.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not an unsigned
    /// integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, SketchError> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|e| SketchError::Corrupt(format!("{what}: {e}"))),
            _ => Err(SketchError::Corrupt(format!("{what}: expected integer"))),
        }
    }

    /// Parse as `f64`.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not a number.
    pub fn as_f64(&self, what: &str) -> Result<f64, SketchError> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|e| SketchError::Corrupt(format!("{what}: {e}"))),
            _ => Err(SketchError::Corrupt(format!("{what}: expected number"))),
        }
    }
}

/// Borrowed field list of a [`Value::Obj`], so lookups read as
/// `obj.get("field")?`.
#[derive(Clone, Copy)]
pub struct Obj<'a>(&'a [(String, Value)]);

impl<'a> Obj<'a> {
    /// Look up a required field.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the field is absent.
    pub fn get(&self, field: &str) -> Result<&'a Value, SketchError> {
        self.0
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v)
            .ok_or_else(|| SketchError::Corrupt(format!("missing field '{field}'")))
    }

    /// Look up an optional field (`None` when absent).
    #[must_use]
    pub fn opt(&self, field: &str) -> Option<&'a Value> {
        self.0.iter().find(|(k, _)| k == field).map(|(_, v)| v)
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else
/// after the value).
///
/// # Errors
///
/// A human-readable description of the first malformed byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut cur = Cursor::new(text);
    let value = cur.value(&mut String::new())?;
    cur.end()?;
    Ok(value)
}

/// Maximum container nesting. The parser is recursive-descent, so
/// without a ceiling a few tens of KB of `[` bytes from an untrusted
/// source would overflow the thread stack; 64 is far beyond any
/// document this workspace exchanges.
const MAX_DEPTH: usize = 64;

/// A pull reader over one JSON document: the caller walks objects field
/// by field and arrays element by element and takes each scalar through
/// a typed accessor, so no [`Value`] tree is built. A string without
/// escapes is handed out borrowed from the document; one with escapes
/// is decoded into a single scratch buffer the reader reuses.
///
/// The grammar, escape rules, number token rule and nesting limit are
/// [`parse`]'s own (both run on the same cursor), and
/// [`Reader::skip_value`] checks a skipped value with `parse` itself —
/// so a document the reader walks to [`Reader::finish`] is one `parse`
/// accepts.
pub struct Reader<'a> {
    cur: Cursor<'a>,
    scratch: String,
    /// Just past an opening bracket: the next member needs no `,`.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the document's first value.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            cur: Cursor::new(text),
            scratch: String::new(),
            fresh: false,
        }
    }

    /// Enter an object; `what` names it in a type error.
    ///
    /// # Errors
    ///
    /// When the next value is not an object, or nesting is too deep.
    pub fn begin_object(&mut self, what: &str) -> Result<(), String> {
        self.check(Kind::Object, what, "object")?;
        self.cur.enter()?;
        self.cur.expect(b'{')?;
        self.fresh = true;
        Ok(())
    }

    /// The next field name of the object being walked (its `:`
    /// consumed; the caller then reads or skips the value), or `None`
    /// once the closing `}` is consumed.
    ///
    /// # Errors
    ///
    /// A malformed separator or field name.
    pub fn next_field(&mut self) -> Result<Option<&str>, String> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let name = self.cur.string(&mut self.scratch)?;
        self.cur.skip_ws();
        self.cur.expect(b':')?;
        Ok(Some(name))
    }

    /// Enter an array; `what` names it in a type error.
    ///
    /// # Errors
    ///
    /// When the next value is not an array, or nesting is too deep.
    pub fn begin_array(&mut self, what: &str) -> Result<(), String> {
        self.check(Kind::Array, what, "array")?;
        self.cur.enter()?;
        self.cur.expect(b'[')?;
        self.fresh = true;
        Ok(())
    }

    /// Whether another element of the array being walked follows (the
    /// caller then reads or skips it); `false` once the closing `]` is
    /// consumed.
    ///
    /// # Errors
    ///
    /// A malformed separator.
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.next_member(b']')
    }

    /// A string value, escapes resolved.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed string.
    pub fn string(&mut self, what: &str) -> Result<&str, String> {
        self.check(Kind::String, what, "string")?;
        self.cur.string(&mut self.scratch)
    }

    /// A number value parsed as `u64` (as [`Value::as_u64`]).
    ///
    /// # Errors
    ///
    /// When the next value is not an unsigned integer.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        self.check(Kind::Number, what, "integer")?;
        self.cur
            .number()?
            .parse()
            .map_err(|e| format!("{what}: {e}"))
    }

    /// A number value parsed as `f64` (as [`Value::as_f64`]).
    ///
    /// # Errors
    ///
    /// When the next value is not a number.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        self.check(Kind::Number, what, "number")?;
        self.cur
            .number()?
            .parse()
            .map_err(|e| format!("{what}: {e}"))
    }

    /// A `true` / `false` value.
    ///
    /// # Errors
    ///
    /// When the next value is not a bool.
    pub fn bool(&mut self, what: &str) -> Result<bool, String> {
        self.check(Kind::Bool, what, "bool")?;
        Ok(self.cur.boolean())
    }

    /// Read past one value of any kind, checked exactly as [`parse`]
    /// checks it.
    ///
    /// # Errors
    ///
    /// The value is malformed or nested too deeply.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.cur.skip_ws();
        self.cur.value(&mut self.scratch).map(drop)
    }

    /// Accept the end of the document: nothing but whitespace may
    /// follow the value walked.
    ///
    /// # Errors
    ///
    /// Trailing bytes.
    pub fn finish(mut self) -> Result<(), String> {
        self.cur.end()
    }

    /// Step to the next member of the container being walked, or leave
    /// it at its `close` byte (returning `false`).
    fn next_member(&mut self, close: u8) -> Result<bool, String> {
        let first = std::mem::take(&mut self.fresh);
        self.cur.skip_ws();
        if self.cur.peek() == Some(close) {
            self.cur.pos += 1;
            self.cur.depth = self.cur.depth.saturating_sub(1);
            return Ok(false);
        }
        if !first {
            if self.cur.peek() != Some(b',') {
                let close = if close == b'}' { '}' } else { ']' };
                return Err(format!(
                    "expected ',' or '{close}' at offset {}",
                    self.cur.pos
                ));
            }
            self.cur.pos += 1;
            self.cur.skip_ws();
        }
        Ok(true)
    }

    /// Check the next value's kind: a type error names `what` and the
    /// `expected` noun, as the [`Value`] accessors do.
    fn check(&mut self, kind: Kind, what: &str, expected: &str) -> Result<(), String> {
        self.cur.skip_ws();
        match self.cur.kind() {
            Some(k) if k == kind => Ok(()),
            Some(_) => Err(format!("{what}: expected {expected}")),
            None => Err(self.cur.unexpected()),
        }
    }
}

/// A value's kind, told from its first bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// Position in a document, shared by the tree parser and [`Reader`].
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        let mut cur = Self {
            text,
            pos: 0,
            depth: 0,
        };
        cur.skip_ws();
        cur
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn starts_with(&self, word: &str) -> bool {
        self.text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()))
    }

    fn literal(&mut self, word: &str) -> bool {
        let found = self.starts_with(word);
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Consume the `true` or `false` that [`Self::kind`] found here.
    fn boolean(&mut self) -> bool {
        let value = self.literal("true");
        if !value {
            self.literal("false");
        }
        value
    }

    fn unexpected(&self) -> String {
        format!("unexpected byte at offset {}", self.pos)
    }

    /// The kind of the value starting here; `None` where [`Self::value`]
    /// would fail on the first byte.
    fn kind(&self) -> Option<Kind> {
        match self.peek()? {
            b'n' if self.starts_with("null") => Some(Kind::Null),
            b't' if self.starts_with("true") => Some(Kind::Bool),
            b'f' if self.starts_with("false") => Some(Kind::Bool),
            b'"' => Some(Kind::String),
            b'[' => Some(Kind::Array),
            b'{' => Some(Kind::Object),
            b'-' | b'0'..=b'9' => Some(Kind::Number),
            _ => None,
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at offset {}", self.pos))
        }
    }

    /// Count one more level of nesting, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn value(&mut self, scratch: &mut String) -> Result<Value, String> {
        match self.kind() {
            Some(Kind::Null) if self.literal("null") => Ok(Value::Null),
            Some(Kind::Bool) => Ok(Value::Bool(self.boolean())),
            Some(Kind::String) => self.string(scratch).map(|s| Value::Str(s.to_owned())),
            Some(Kind::Array) => self.nested(scratch, Self::array),
            Some(Kind::Object) => self.nested(scratch, Self::object),
            Some(Kind::Number) => self.number().map(|raw| Value::Num(raw.to_owned())),
            _ => Err(self.unexpected()),
        }
    }

    /// The number token starting here: a run of digits and `.eE+-`,
    /// checked by whoever parses it.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        match self.text.get(start..self.pos) {
            Some(raw) if !raw.is_empty() && raw != "-" => Ok(raw),
            _ => Err(format!("malformed number at offset {start}")),
        }
    }

    /// The string starting here: borrowed from the document when it has
    /// no escapes, otherwise decoded into `scratch`.
    fn string<'s>(&mut self, scratch: &'s mut String) -> Result<&'s str, String>
    where
        'a: 's,
    {
        self.expect(b'"')?;
        let mut start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            let s = self.run(start)?;
            self.pos += 1;
            return Ok(s);
        }
        scratch.clear();
        loop {
            scratch.push_str(self.run(start)?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(scratch.as_str());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    scratch.push(self.escape(esc)?);
                }
                _ => return Err("unterminated string".into()),
            }
            start = self.pos;
            self.skip_plain();
        }
    }

    /// Step over an escape-free run of string bytes.
    fn skip_plain(&mut self) {
        while self
            .peek()
            .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            self.pos += 1;
        }
    }

    /// The text from `start` to here. Both ends sit on ASCII bytes (or
    /// the end of the text), so they are char boundaries of the valid
    /// UTF-8 document.
    fn run(&self, start: usize) -> Result<&'a str, String> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| "invalid utf-8 in string".to_string())
    }

    /// Decode the escape whose letter `esc` was just consumed.
    fn escape(&mut self, esc: u8) -> Result<char, String> {
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                let ch = if (0xd800..0xdc00).contains(&cp) {
                    // Surrogate pair.
                    if !self.literal("\\u") {
                        return Err("lone high surrogate".into());
                    }
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err("bad low surrogate".into());
                    }
                    char::from_u32(0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00))
                } else {
                    char::from_u32(cp)
                };
                ch.ok_or("bad \\u escape")?
            }
            other => return Err(format!("unknown escape '\\{}'", char::from(other))),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.text.len())
            .ok_or("truncated \\u escape")?;
        let hex = self.text.get(self.pos..end).ok_or("bad \\u escape")?;
        self.pos = end;
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))
    }

    fn nested(
        &mut self,
        scratch: &mut String,
        f: fn(&mut Self, &mut String) -> Result<Value, String>,
    ) -> Result<Value, String> {
        self.enter()?;
        let v = f(self, scratch)?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self, scratch: &mut String) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(scratch)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, scratch: &mut String) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string(scratch)?.to_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(scratch)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}"#).unwrap();
        let obj = v.as_object("root").unwrap();
        let arr = obj.get("a").unwrap().as_array("a").unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64("a0").unwrap(), 1);
        assert_eq!(arr[1].as_f64("a1").unwrap(), 2.5);
        assert_eq!(arr[2].as_f64("a2").unwrap(), -300.0);
        assert_eq!(obj.get("b").unwrap().as_str("b").unwrap(), "x\ny");
        assert!(obj.get("c").unwrap().as_bool("c").unwrap());
        assert!(matches!(obj.get("d").unwrap(), Value::Null));
        assert!(obj.opt("missing").is_none());
        assert!(obj.get("missing").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_type_confusion() {
        assert!(parse("{} junk").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        let v = parse("[1]").unwrap();
        assert!(v.as_object("v").is_err());
        assert!(v.as_str("v").is_err());
        assert!(v.as_u64("v").is_err());
        assert!(v.as_bool("v").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // At the limit: fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        // One past: typed error, not a stack overflow.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&over).unwrap_err().contains("nesting"));
        // The attack shape: a huge run of '[' must not crash the
        // process (pre-fix this overflowed a 2 MiB thread stack).
        let bomb = "[".repeat(512 * 1024);
        assert!(parse(&bomb).is_err());
        // Objects count toward the same depth, and mixed nesting too.
        let obj_bomb = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj_bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn string_writer_roundtrips_through_parser() {
        let nasty = "quote \" slash \\ nl \n tab \t bell \u{7} unicode ✓";
        let mut out = String::new();
        push_string(&mut out, nasty);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str("s").unwrap(), nasty);
    }

    #[test]
    fn f64_writer_roundtrips_exactly() {
        for v in [0.0, -0.0, 1.5, 1e-300, 123_456_789.123_456_78, f64::MIN] {
            let mut out = String::new();
            push_f64(&mut out, v);
            let back: f64 = out.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{out}");
        }
    }

    #[test]
    fn reader_walks_fields_and_arrays() {
        let text = r#" {"id":"q\"1","keys":["a","b\u00e9",""],"n":[1,-2.5e1],
                        "deep":{"x":[{}]},"t":true,"f":false} "#;
        let mut r = Reader::new(text);
        r.begin_object("root").unwrap();
        assert_eq!(r.next_field().unwrap(), Some("id"));
        assert_eq!(r.string("id").unwrap(), "q\"1");
        assert_eq!(r.next_field().unwrap(), Some("keys"));
        r.begin_array("keys").unwrap();
        let mut keys = Vec::new();
        while r.next_element().unwrap() {
            keys.push(r.string("keys[]").unwrap().to_string());
        }
        assert_eq!(keys, ["a", "b\u{e9}", ""]);
        assert_eq!(r.next_field().unwrap(), Some("n"));
        r.begin_array("n").unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.u64("n[0]").unwrap(), 1);
        assert!(r.next_element().unwrap());
        assert_eq!(r.f64("n[1]").unwrap(), -25.0);
        assert!(!r.next_element().unwrap());
        assert_eq!(r.next_field().unwrap(), Some("deep"));
        r.skip_value().unwrap();
        assert_eq!(r.next_field().unwrap(), Some("t"));
        assert!(r.bool("t").unwrap());
        assert_eq!(r.next_field().unwrap(), Some("f"));
        assert!(!r.bool("f").unwrap());
        assert_eq!(r.next_field().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn reader_type_and_syntax_errors() {
        let mut r = Reader::new("[1,2]");
        assert_eq!(
            r.begin_object("request").unwrap_err(),
            "request: expected object"
        );
        let mut r = Reader::new("nope");
        assert!(r
            .begin_object("request")
            .unwrap_err()
            .contains("unexpected"));
        let mut r = Reader::new(r#"{"a":1 "b":2}"#);
        r.begin_object("o").unwrap();
        r.next_field().unwrap();
        r.skip_value().unwrap();
        assert!(r.next_field().unwrap_err().contains("expected ','"));
        let mut r = Reader::new("[1,]");
        r.begin_array("a").unwrap();
        assert!(r.next_element().unwrap());
        r.u64("a[]").unwrap();
        assert!(r.next_element().unwrap());
        assert!(r.u64("a[]").unwrap_err().contains("unexpected"));
        let mut r = Reader::new(r#"["x", 1.5, null]"#);
        r.begin_array("a").unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.f64("v").unwrap_err(), "v: expected number");
        r.skip_value().unwrap();
        assert!(r.next_element().unwrap());
        assert!(r.u64("k").unwrap_err().starts_with("k: "));
        let mut r = Reader::new("{} x");
        r.begin_object("o").unwrap();
        assert_eq!(r.next_field().unwrap(), None);
        assert!(r.finish().unwrap_err().contains("trailing"));
    }

    #[test]
    fn reader_skip_applies_the_nesting_limit() {
        // One level for the outer object, so MAX_DEPTH - 1 inside fits.
        let fits = format!(
            "{{\"x\":{}{}}}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        let over = format!(
            "{{\"x\":{}{}}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        for (text, ok) in [(fits, true), (over, false)] {
            assert_eq!(parse(&text).is_ok(), ok);
            let mut r = Reader::new(&text);
            r.begin_object("o").unwrap();
            r.next_field().unwrap();
            let skipped = r.skip_value();
            assert_eq!(skipped.is_ok(), ok, "{skipped:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str("s").unwrap(),
            "\u{1f600}"
        );
        assert!(parse(r#""\ud83d""#).is_err());
    }
}
