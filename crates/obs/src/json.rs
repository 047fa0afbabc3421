//! The workspace's one JSON codec: a string escaper, an `f64` formatter,
//! a compact or two-space-pretty writer for [`Value`] trees, and a pull
//! [`Reader`] that follows at most [`MAX_DEPTH`] nested containers, so a
//! hostile document is a typed [`Error`], not a stack overflow.
//!
//! Strings escape `"` `\` `\n` `\r` `\t` `\b` `\f` by name and any other
//! control character as `\u00XX`; everything else passes through. Floats
//! print in Rust's shortest round-trip form, except that integral values
//! below `1e15` keep a `.0` and non-finite values print as `null`.

use std::fmt::{self, Write as _};

/// Deepest container nesting the [`Reader`] accepts.
pub const MAX_DEPTH: usize = 64;

/// Append `s` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` lies on char boundaries.
        out.push_str(s.get(run..i).unwrap_or_default());
        let _ = match named {
            "" => write!(out, "\\u{b:04x}"),
            _ => out.write_str(named),
        };
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// Append `f` as a JSON number (see the module docs).
fn write_f64(out: &mut String, f: f64) {
    let _ = if !f.is_finite() {
        out.write_str("null")
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        write!(out, "{f:.1}")
    } else {
        write!(out, "{f}")
    };
}

/// A JSON document to write, borrowing its strings from the data it
/// describes. (Reading goes through [`Reader`] instead, which never
/// builds a tree.)
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, exact over the full range.
    U64(u64),
    /// A float (see the module docs for its format).
    F64(f64),
    /// A string, written by [`write_str`].
    Str(&'a str),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object; keys are written in order.
    Object(Vec<(&'a str, Value<'a>)>),
}

/// Append `value` as JSON: compact, or `pretty` with one entry per line
/// indented two spaces per level (empty containers stay `[]` / `{}`).
pub fn write(out: &mut String, value: &Value<'_>, pretty: bool) {
    write_at(out, value, pretty.then_some(0));
}

/// `level` is the indent level in pretty mode, `None` when compact.
fn write_at(out: &mut String, value: &Value<'_>, level: Option<usize>) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => write_seq(out, level, "[]", items.iter().map(|v| (None, v))),
        Value::Object(fields) => {
            write_seq(out, level, "{}", fields.iter().map(|(k, v)| (Some(*k), v)));
        }
    }
}

/// A container: its `brackets` around comma-separated entries, each with
/// its key when the container is an object.
fn write_seq<'v>(
    out: &mut String,
    level: Option<usize>,
    brackets: &str,
    entries: impl Iterator<Item = (Option<&'v str>, &'v Value<'v>)>,
) {
    let inner = level.map(|l| l + 1);
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let mut empty = true;
    for (key, value) in entries {
        if !std::mem::replace(&mut empty, false) {
            out.push(',');
        }
        newline(out, inner);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if level.is_some() { ": " } else { ":" });
        }
        write_at(out, value, inner);
    }
    if !empty {
        newline(out, level);
    }
    out.push_str(close);
}

fn newline(out: &mut String, level: Option<usize>) {
    if let Some(level) = level {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    }
}

/// A malformed document: what was wrong, and the byte offset at which
/// the reader noticed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the document.
    pub offset: usize,
    /// What was expected or found.
    pub reason: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for Error {}

/// Result of a [`Reader`] step.
pub type Result<T = ()> = std::result::Result<T, Error>;

/// Pull reader over one JSON document. Callers walk the shape they
/// expect: [`Reader::object`] hands each key to a closure that consumes
/// its value (a typed read or [`Reader::skip`]), and [`Reader::finish`]
/// rejects trailing input. JSON whitespace is accepted between tokens.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `text` at its first byte.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// An error at the current position.
    pub fn error(&self, reason: impl Into<String>) -> Error {
        let (offset, reason) = (self.pos, reason.into());
        Error { offset, reason }
    }

    /// Succeed iff only whitespace remains.
    pub fn finish(mut self) -> Result {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    /// Skip whitespace and return the next byte without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let rest = self.rest().as_bytes();
        let ws = rest.iter().take_while(|b| b" \t\n\r".contains(b)).count();
        self.pos += ws;
        rest.get(ws).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn require(&mut self, b: u8) -> Result {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.error(format!("expected `{}`", char::from(b)))),
        }
    }

    /// `open`, then comma-separated `item`s, then `close`.
    fn seq(&mut self, open: u8, close: u8, mut item: impl FnMut(&mut Self) -> Result) -> Result {
        self.require(open)?;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.require(close);
            }
        }
    }

    /// Read an object, calling `field(self, key)` once per entry; `field`
    /// must consume the entry's value.
    pub fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Result) -> Result {
        self.seq(b'{', b'}', |r| {
            let key = r.string()?;
            r.require(b':')?;
            field(r, &key)
        })
    }

    /// Read an array, calling `item(self)` once per element; `item` must
    /// consume the element.
    pub fn array(&mut self, item: impl FnMut(&mut Self) -> Result) -> Result {
        self.seq(b'[', b']', item)
    }

    /// Read a string, decoding escapes (surrogate pairs included).
    pub fn string(&mut self) -> Result<String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let Some(stop) = rest.find(['"', '\\']) else {
                self.pos = self.text.len();
                return Err(self.error("unterminated string"));
            };
            out.push_str(rest.get(..stop).unwrap_or_default());
            self.pos += stop + 1;
            if rest.as_bytes().get(stop) == Some(&b'"') {
                return Ok(out);
            }
            self.pos += 1;
            out.push(match rest.as_bytes().get(stop + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{08}',
                Some(b'f') => '\u{0C}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.error("invalid escape")),
            });
        }
    }

    /// The hex digits of a `\u` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.rest().starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self.rest().get(..4);
        let hex = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = hex.and_then(|d| u32::from_str_radix(d, 16).ok());
        self.pos += 4;
        code.ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// The text of the number here: an optional `-`, a digit, then
    /// anything Rust parses as an `f64`.
    fn number(&mut self) -> Result<&'a str> {
        self.peek();
        let rest = self.rest();
        let sign = usize::from(rest.starts_with('-'));
        let body = rest.get(sign..).unwrap_or_default();
        let len = sign
            + body
                .bytes()
                .take_while(|b| b"0123456789+-.eE".contains(b))
                .count();
        let text = rest.get(..len).unwrap_or_default();
        if !body.starts_with(|c: char| c.is_ascii_digit()) || text.parse::<f64>().is_err() {
            return Err(self.error("expected a number"));
        }
        self.pos += len;
        Ok(text)
    }

    /// Read a non-negative integer; fractions, exponents, signs and
    /// values above `u64::MAX` are errors.
    pub fn u64(&mut self) -> Result<u64> {
        let text = self.number()?;
        text.parse().map_err(|_| {
            self.pos -= text.len();
            self.error(format!("expected an unsigned 64-bit integer, got {text}"))
        })
    }

    /// Skip one value of any type, nested at most [`MAX_DEPTH`] deep.
    pub fn skip(&mut self) -> Result {
        self.skip_nested(0)
    }

    fn skip_nested(&mut self, depth: usize) -> Result {
        if depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_nested(depth + 1)),
            Some(b'[') => self.array(|r| r.skip_nested(depth + 1)),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => {
                let rest = self.rest();
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| rest.starts_with(w));
                self.pos += word.map_or(0, str::len);
                word.map(drop).ok_or_else(|| self.error("expected a value"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    fn float(f: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, f);
        out
    }

    fn read_string(text: &str) -> Result<String> {
        let mut r = Reader::new(text);
        let s = r.string()?;
        r.finish()?;
        Ok(s)
    }

    fn skip_all(text: &str) -> Result {
        let mut r = Reader::new(text);
        r.skip()?;
        r.finish()
    }

    #[test]
    fn string_escapes() {
        assert_eq!(escaped("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(escaped("\r\t\u{8}\u{c}"), r#""\r\t\b\f""#);
        assert_eq!(escaped("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(
            escaped("caf\u{e9} \u{1F600} /"),
            "\"caf\u{e9} \u{1F600} /\""
        );
        assert_eq!(escaped(""), "\"\"");

        let original = "q\" b\\ \n\r\t\u{8}\u{c}\u{1} caf\u{e9} \u{1F600}";
        assert_eq!(read_string(&escaped(original)).unwrap(), original);
        assert_eq!(read_string(r#""\/ A""#).unwrap(), "/ A");
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""open"#,
            r#""end\"#,
        ] {
            assert!(read_string(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(read_string(r#""😀""#).unwrap(), "\u{1F600}");
        assert_eq!(read_string("\"\u{1F600}\"").unwrap(), "\u{1F600}");
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#] {
            assert!(read_string(lone).is_err(), "{lone} should be rejected");
        }
    }

    fn compact(value: Value<'_>) -> String {
        let mut out = String::new();
        write(&mut out, &value, false);
        out
    }

    #[test]
    fn scalar_round_trips() {
        for text in ["0", "18446744073709551615"] {
            assert_eq!(compact(Value::U64(Reader::new(text).u64().unwrap())), text);
        }
        assert_eq!(compact(Value::F64(1.5)), "1.5");
        assert_eq!(compact(Value::Str("hi")), "\"hi\"");
        assert_eq!(read_string("\"hi\"").unwrap(), "hi");
        for (text, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            assert_eq!(compact(value), text);
            skip_all(text).unwrap();
        }
    }

    #[test]
    fn float_display_round_trips() {
        assert_eq!(float(3.0), "3.0");
        assert_eq!(float(-0.0), "-0.0");
        assert_eq!(float(1e15), "1000000000000000");
        assert_eq!(float(529930770365.0), "529930770365.0");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
        for f in [0.1 + 0.2, -0.49377945548419416, 1e300, 5e-324] {
            assert_eq!(float(f).parse::<f64>().unwrap(), f);
        }
    }

    #[test]
    fn pretty_printing_indents() {
        let doc = Value::Object(vec![
            ("a", Value::U64(1)),
            (
                "b",
                Value::Array(vec![
                    Value::F64(0.5),
                    Value::Bool(true),
                    Value::Null,
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                ]),
            ),
            ("c", Value::Str("x")),
        ]);
        let mut out = String::new();
        write(&mut out, &doc, false);
        assert_eq!(out, r#"{"a":1,"b":[0.5,true,null,[],{}],"c":"x"}"#);
        let mut out = String::new();
        write(&mut out, &doc, true);
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": [\n    0.5,\n    true,\n    null,\n    [],\n    {}\n  ],\n  \"c\": \"x\"\n}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        for bad in [
            "1 2",
            "{",
            "",
            "[1,]",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "tru",
            "-x",
            "01x",
            "[1}",
        ] {
            assert!(skip_all(bad).is_err(), "{bad} should be rejected");
        }
        let err = Reader::new("[1, 2").skip().unwrap_err();
        assert_eq!(err.offset, 5);
        assert_eq!(err.to_string(), "expected `]` at byte 5");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        skip_all(&deep).unwrap();
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = skip_all(&too_deep).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
        let hostile = "{\"k\":".repeat(150_000) + &"[".repeat(150_000);
        assert!(skip_all(&hostile).is_err());
    }
}
