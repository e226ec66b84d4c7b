//! The strict JSON codec behind every artifact the simulator persists:
//! sweep cache records, journals, shard and failure files, telemetry
//! exports and speedcheck reports. [`Value`] objects keep insertion
//! order and numbers keep their literal token (a `u64` never passes
//! through `f64`); [`parse`] accepts exactly one RFC 8259 document and
//! names the byte offset of truncation, trailing bytes or duplicate
//! keys; [`Value::field`] names a missing or mistyped key.

use std::fmt::Write as _;

/// Nesting bound for [`parse`]: keeps its stack bounded on hostile input.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members in insertion order, keys unique.
    Object(Vec<(String, Value)>),
    /// A document already rendered by [`Value::to_compact`], written
    /// verbatim and laid out like a container: lets a span log of 10^5+
    /// events be rendered element by element, never held as one tree.
    Raw(String),
}

/// An object literal, `obj! { "key": value, ... }`: members in order,
/// each value converted with `Value::from`.
#[macro_export]
macro_rules! obj {
    ($($key:tt: $value:expr),* $(,)?) => {
        $crate::json::Value::object([$(($key, $crate::json::Value::from($value))),*])
    };
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Types a member decodes into (see [`Value::field`]).
pub trait FromJson: Sized {
    /// Decodes `v` (`None` = member absent); `None` when it does not fit.
    fn from_json(v: Option<&Value>) -> Option<Self>;
}

/// `From<T> for Value` and [`FromJson`] for the scalars artifacts carry
/// (`f64` only decodes: write floats with [`Value::fixed`]).
macro_rules! scalars {
    ($($t:ty: $v:ident => $encode:expr, $decoded:pat => $decode:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $encode
            }
        }
        impl FromJson for $t {
            fn from_json(v: Option<&Value>) -> Option<$t> {
                match v? {
                    $decoded => $decode,
                    _ => None,
                }
            }
        }
    )*};
}
scalars! {
    u16: v => Value::Num(v.to_string()), Value::Num(t) => t.parse().ok();
    u32: v => Value::Num(v.to_string()), Value::Num(t) => t.parse().ok();
    u64: v => Value::Num(v.to_string()), Value::Num(t) => t.parse().ok();
    usize: v => Value::Num(v.to_string()), Value::Num(t) => t.parse().ok();
    bool: v => Value::Bool(v), Value::Bool(b) => Some(*b);
    String: v => Value::Str(v), Value::Str(s) => Some(s.clone());
}

impl FromJson for f64 {
    fn from_json(v: Option<&Value>) -> Option<f64> {
        match v? {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }
}

/// An absent or `null` member decodes as `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: Option<&Value>) -> Option<Option<T>> {
        match v {
            None | Some(Value::Null) => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl Value {
    /// An object from `(key, value)` members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// This object with `other`'s members appended (panics unless both
    /// are objects).
    pub fn concat(self, other: Value) -> Value {
        let (Value::Object(mut a), Value::Object(b)) = (self, other) else {
            panic!("Value::concat joins objects");
        };
        a.extend(b);
        Value::Object(a)
    }

    /// `x` written with `decimals` fixed fractional digits (`null` when
    /// not finite — JSON has no NaN or infinity).
    pub fn fixed(x: f64, decimals: usize) -> Value {
        if x.is_finite() {
            Value::Num(format!("{x:.decimals$}"))
        } else {
            Value::Null
        }
    }

    /// The member `key` of an object (`None` if absent or not an object).
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key` decoded as `T`; the error for a missing (unless
    /// `T` is an `Option`) or mistyped member names the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key);
        T::from_json(v).ok_or_else(|| match v {
            None => format!("missing key \"{key}\""),
            Some(_) => format!("key \"{key}\": expected {}", std::any::type_name::<T>()),
        })
    }

    /// Every element of the array member `key` decoded with `f`; errors
    /// name the missing array or the failing `key[i]`.
    pub fn array_of<T>(
        &self,
        key: &str,
        f: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let Some(Value::Array(items)) = self.get(key) else {
            return Err(format!("missing array \"{key}\""));
        };
        let decode = |(i, v)| f(v).map_err(|e| format!("{key}[{i}]: {e}"));
        items.iter().enumerate().map(decode).collect()
    }

    /// Single-line rendering: `{"k": 1, "a": [1, 2]}`.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 0);
        out
    }

    /// Newline-terminated multi-line rendering: containers nested less
    /// than `depth` levels deep put one member per line (two-space
    /// indent); deeper containers, and arrays holding only scalars, stay
    /// compact.
    pub fn to_pretty(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, depth, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, expand: usize, indent: usize) {
        let (open, close, len, scalars_only) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(t) | Value::Raw(t) => return out.push_str(t),
            Value::Str(s) => return write_str(out, s),
            Value::Array(items) => {
                let scalar =
                    |v: &Value| !matches!(v, Value::Array(_) | Value::Object(_) | Value::Raw(_));
                ('[', ']', items.len(), items.iter().all(scalar))
            }
            Value::Object(members) => ('{', '}', members.len(), false),
        };
        let multiline = expand > 0 && len > 0 && !scalars_only;
        let newline = |out: &mut String, level: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", level));
        };
        out.push(open);
        for i in 0..len {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            if multiline {
                newline(out, indent + 1);
            }
            let v = match self {
                Value::Array(items) => &items[i],
                Value::Object(members) => {
                    write_str(out, &members[i].0);
                    out.push_str(": ");
                    &members[i].1
                }
                _ => unreachable!("scalars returned above"),
            };
            v.write(out, expand.saturating_sub(1), indent + 1);
        }
        if multiline {
            newline(out, indent);
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// The error is `byte N: <what>` for the first violation.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.pos < text.len() {
        return Err(p.err("trailing bytes after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `s` if the input continues with it.
    fn eat(&mut self, s: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(s);
        self.pos += if hit { s.len() } else { 0 };
        hit
    }

    fn ws(&mut self) {
        self.skip(|c| matches!(c, ' ' | '\t' | '\n' | '\r'));
    }

    /// Skips the chars matching `p`, returning how many bytes that was.
    fn skip(&mut self, p: impl Fn(char) -> bool) -> usize {
        let rest = &self.text[self.pos..];
        let n = rest.len() - rest.trim_start_matches(p).len();
        self.pos += n;
        n
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        for (word, v) in [("true", Value::Bool(true)), ("false", Value::Bool(false))] {
            if self.eat(word) {
                return Ok(v);
            }
        }
        if self.eat("null") {
            return Ok(Value::Null);
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members("]", |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Value)> = Vec::new();
                self.members("}", |p| {
                    p.ws();
                    let (at, key) = (p.pos, p.string()?);
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(format!("byte {at}: duplicate key \"{key}\""));
                    }
                    p.ws();
                    if !p.eat(":") {
                        return Err(p.err("expected ':'"));
                    }
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
        }
    }

    /// Parses a container through `close`, calling `member` per member.
    fn members(
        &mut self,
        close: &str,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return Err(self.err(&format!("expected ',' or '{close}'")));
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let (start, digit) = (self.pos, |c: char| c.is_ascii_digit());
        self.eat("-");
        let int = self.skip(digit);
        let leading_zero = int > 1 && self.text.as_bytes()[self.pos - int] == b'0';
        let fraction_ok = !self.eat(".") || self.skip(digit) > 0;
        let exponent_ok = !(self.eat("e") || self.eat("E")) || {
            let _sign = self.eat("+") || self.eat("-");
            self.skip(digit) > 0
        };
        if int == 0 || leading_zero || !fraction_ok || !exponent_ok {
            return Err(self.err("malformed number"));
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Runs stop only at ASCII bytes, so slice bounds are char
            // boundaries.
            let rest = &self.text[self.pos..];
            let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ');
            out.push_str(&rest[..run.unwrap_or(rest.len())]);
            self.pos += run.unwrap_or(rest.len());
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| e == c) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if c != b'u' {
            return Err(self.err("invalid escape"));
        }
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // A surrogate left unpaired is not a char.
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = hex.ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(code, 16).expect("checked hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("n", Value::from(18_446_744_073_709_551_615u64)),
            ("x", Value::fixed(2.0 / 3.0, 4)),
            ("s", Value::from("a\"b\\c\nd\u{1}é")),
            ("list", [1u64, 2].into_iter().collect()),
            (
                "rows",
                Value::Array(vec![Value::object([("k", Value::Null)])]),
            ),
            ("empty", Value::Array(vec![])),
        ])
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let v = sample();
        assert_eq!(
            v.to_compact(),
            "{\"n\": 18446744073709551615, \"x\": 0.6667, \"s\": \"a\\\"b\\\\c\\nd\\u0001é\", \
             \"list\": [1, 2], \"rows\": [{\"k\": null}], \"empty\": []}"
        );
        assert_eq!(
            v.to_pretty(2),
            "{\n  \"n\": 18446744073709551615,\n  \"x\": 0.6667,\n  \
             \"s\": \"a\\\"b\\\\c\\nd\\u0001é\",\n  \"list\": [1, 2],\n  \"rows\": [\n    \
             {\"k\": null}\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn parse_round_trips_and_keeps_number_tokens() {
        let v = sample();
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty(1)).unwrap(), v);
        assert_eq!(v.field::<u64>("n"), Ok(u64::MAX));
        assert_eq!(v.field::<f64>("x"), Ok(0.6667));
        assert_eq!(v.field::<Option<f64>>("absent"), Ok(None));
        assert_eq!(v.field::<String>("s").unwrap(), "a\"b\\c\nd\u{1}é");
        let escaped = parse(r#""\u00e9\ud83d\ude00\/""#).unwrap();
        assert_eq!(escaped, Value::from("é😀/"));
    }

    #[test]
    fn field_errors_name_the_key() {
        let v = sample();
        assert_eq!(v.field::<u64>("nope").unwrap_err(), "missing key \"nope\"");
        assert!(v.field::<u64>("x").unwrap_err().contains("key \"x\""));
        assert!(v.field::<bool>("s").is_err());
        let err = v.array_of("rows", |r| r.field::<u64>("k")).unwrap_err();
        assert!(err.starts_with("rows[0]: key \"k\""), "{err}");
        assert_eq!(
            v.array_of("list", |r| r.field::<u64>("k")).unwrap_err(),
            "list[0]: missing key \"k\""
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (bad, at) in [
            ("", 0),
            ("{\"a\": 1", 7),
            ("{\"a\": 1} x", 9),
            ("{\"a\": 1, \"a\": 2}", 9),
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("01", 2),
            ("1.", 2),
            ("-", 1),
            ("\"a\nb\"", 2),
            ("\"\\x\"", 3),
            ("\"\\ud800\"", 7),
            ("nul", 0),
            ("{\"a\": 1,}", 8),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with(&format!("byte {at}:")), "{bad:?}: {err}");
        }
        assert!(parse(&"[".repeat(MAX_DEPTH + 1)).is_err());
        assert!(parse(" {\"a\": [true, false, null, -1.5e+3]}\n").is_ok());
    }
}
