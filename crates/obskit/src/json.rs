//! The workspace's one JSON stack: an ordered value tree, a writer, a
//! strict parser, and the [`ToJson`]/[`FromJson`] conversions of every
//! type that crosses a file boundary.
//!
//! obskit has no dependencies (it is linked into every hot-path crate),
//! so it carries its own JSON support. The same code writes and reads the
//! bench reports and traces, the run artifacts (`RunArtifacts`), the
//! speclint JSON report and certkit's repro files. Object keys keep
//! insertion order, so golden files diff cleanly; the pretty layout
//! indents by two spaces.
//!
//! # Numbers
//!
//! An integral [`Value::Num`] renders as an integer (`3`), which counters
//! and sizes want. A [`Value::Float`] renders an integral value below
//! `1e15` in magnitude with a trailing `.0` (`3.0`), any other finite
//! value in Rust's shortest round-trip form, and a non-finite one as
//! `null`. `Float` exists so the run artifacts keep the bytes they have
//! always had: a zero LoRA weight is `0.0`, not `0`. [`parse`] never
//! produces it; the float conversions read both variants, and `null` as
//! NaN. An `f32` widens exactly through `f64::from`, so its f64 rendering
//! reads back as the same `f32`.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so that serialized
/// reports are byte-stable across runs with identical data.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive up to 2^53 exactly and render
    /// without a fraction.
    Num(f64),
    /// A float that keeps its `.0` when integral (see the module docs).
    /// Written by [`ToJson`] for `f32`/`f64`; never produced by [`parse`].
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) | Value::Float(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Float(x) => write_float(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; fail soft.
    } else if n.fract() == 0.0 && n.abs() < MAX_EXACT_INT {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep a trailing ".0" so the value reads as a float.
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl Value {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The field `key` of an object, or an error naming it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when `self` is not an object or has no
    /// such field.
    pub fn field(&self, key: &str) -> Result<&Value, DecodeError> {
        self.get(key)
            .ok_or_else(|| DecodeError(format!("missing field `{key}`")))
    }

    /// Decodes the field `key` of an object as `T`. Errors are prefixed
    /// with the field name, so nested failures read as a path.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the field is missing or does not
    /// decode as `T`.
    pub fn field_as<T: FromJson>(&self, key: &str) -> Result<T, DecodeError> {
        T::from_json(self.field(key)?).map_err(|e| DecodeError(format!("{key}: {}", e.0)))
    }
}

/// A well-formed document without the shape a [`FromJson`] type expects:
/// a missing field, a value of the wrong kind, or a number out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Conversion into a [`Value`] tree, for the types written to files.
pub trait ToJson {
    /// The value tree of `self`.
    fn to_json(&self) -> Value;
}

/// Conversion out of a parsed [`Value`]: the inverse of [`ToJson`].
pub trait FromJson: Sized {
    /// Rebuilds a value from its tree.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when `v` does not have the expected
    /// shape.
    fn from_json(v: &Value) -> Result<Self, DecodeError>;
}

/// Implements [`ToJson`] and [`FromJson`] for a struct whose fields all
/// convert: an object keyed by field name, in the order listed (list
/// them in declaration order).
///
/// ```
/// struct Point {
///     x: usize,
///     y: f32,
/// }
/// obskit::json_struct!(Point, [x, y]);
///
/// use obskit::json::ToJson;
/// assert_eq!(Point { x: 1, y: 2.0 }.to_json().to_json(), r#"{"x":1,"y":2.0}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident, [$($field:ident),+ $(,)?]) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                use $crate::json::ToJson as _;
                $crate::json::Value::obj([$((stringify!($field), self.$field.to_json())),+])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
                Ok($ty { $($field: v.field_as(stringify!($field))?),+ })
            }
        }
    };
}

fn expected(what: &str, found: &Value) -> DecodeError {
    let found = match found {
        Value::Str(_) => "a string".to_owned(),
        Value::Arr(_) => "an array".to_owned(),
        Value::Obj(_) => "an object".to_owned(),
        scalar => scalar.to_json(),
    };
    DecodeError(format!("expected {what}, found {found}"))
}

/// Largest integer an `f64` holds exactly (2^53).
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }

        /// Accepts only exact non-negative integers that fit the type.
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, DecodeError> {
                match v {
                    Value::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(n) => {
                        <$t>::try_from(*n as u64).ok()
                    }
                    _ => None,
                }
                .ok_or_else(|| expected(concat!("a ", stringify!($t)), v))
            }
        }
    )*};
}
unsigned_json!(u32, usize);

macro_rules! float_json {
    ($($t:ty),*) => {$(
        /// Written as a [`Value::Float`]; an `f32` widens exactly.
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Float(f64::from(*self))
            }
        }

        /// Reads any number, and `null` (how a non-finite float is
        /// written) as NaN.
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, DecodeError> {
                match v {
                    Value::Num(x) | Value::Float(x) => Ok(*x as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(expected("a number", v)),
                }
            }
        }
    )*};
}
float_json!(f32, f64);

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(expected("a boolean", v)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("a string", v))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let items = v.as_arr().ok_or_else(|| expected("an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| DecodeError(format!("[{i}]: {}", e.0))))
            .collect()
    }
}

/// A range is `{"start": .., "end": ..}`.
impl<T: ToJson> ToJson for std::ops::Range<T> {
    fn to_json(&self) -> Value {
        Value::obj([("start", self.start.to_json()), ("end", self.end.to_json())])
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so a bound keeps hostile input (a million `[`s) an
/// error instead of a stack overflow; reports nest a few levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending byte offset on malformed
/// input, trailing garbage, or arrays/objects nested deeper than 128
/// levels.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting, at most [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `container` one nesting level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = container(self);
        self.depth -= 1;
        parsed
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates render as the replacement char:
                            // the report writer never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8: it
                    // arrived as &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    /// Reads the JSON number grammar exactly:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_like_document() {
        let v = Value::Obj(vec![
            ("schema".into(), Value::Str("obskit.bench.v2".into())),
            ("wall_ms".into(), Value::Num(12.5)),
            (
                "counters".into(),
                Value::Obj(vec![("a.b".into(), Value::Num(3.0))]),
            ),
            (
                "arr".into(),
                Value::Arr(vec![Value::Null, Value::Bool(true), Value::Num(-2.0)]),
            ),
        ]);
        for rendered in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(parse(&rendered), Ok(v.clone()), "{rendered}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::Num(3.0).to_json(), "3");
        assert_eq!(Value::Num(3.5).to_json(), "3.5");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn floats_keep_their_fraction() {
        let floats = [3.0, 0.0, -2.0, 0.1, 1e15, f64::NAN, f64::INFINITY];
        let texts = [
            "3.0",
            "0.0",
            "-2.0",
            "0.1",
            "1000000000000000",
            "null",
            "null",
        ];
        assert_eq!(floats.map(|x| Value::Float(x).to_json()), texts);
        assert_eq!(0.0f32.to_json().to_json(), "0.0");
        assert_eq!(Value::Float(2.5).as_num(), Some(2.5));
        // The parser reads every number as `Num`.
        assert_eq!(parse("3.0"), Ok(Value::Num(3.0)));
    }

    #[test]
    fn decoders_accept_only_their_shape() {
        assert_eq!(usize::from_json(&Value::Num(7.0)), Ok(7));
        for bad in [-1.0, 2.5, 1e300, f64::NAN] {
            assert!(usize::from_json(&Value::Num(bad)).is_err(), "{bad}");
        }
        assert!(usize::from_json(&Value::Str("7".into())).is_err());
        assert!(u32::from_json(&Value::Num(4_294_967_296.0)).is_err());
        assert!(f64::from_json(&Value::Null).is_ok_and(f64::is_nan));
        assert_eq!(f32::from_json(&Value::Num(0.5)), Ok(0.5));
        assert!(bool::from_json(&Value::Num(1.0)).is_err());
        let doc = parse(r#"{"a": [1, 2]}"#).unwrap_or(Value::Null);
        assert_eq!(doc.field_as::<Vec<u32>>("a"), Ok(vec![1, 2]));
        let missing = doc.field_as::<usize>("zz");
        assert!(missing.is_err_and(|e| e.0.contains("`zz`")));
        let nested = doc.field_as::<Vec<bool>>("a");
        assert!(nested.is_err_and(|e| e.0.starts_with("a: [0]:")));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\tü";
        let rendered = Value::Str(s.into()).to_json();
        assert_eq!(parse(&rendered), Ok(Value::Str(s.into())));
        let from_unicode_escape = parse(r#""ü""#).ok();
        assert_eq!(from_unicode_escape, Some(Value::Str("ü".into())));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Numbers outside the JSON grammar, and a signed `\u` escape.
        for bad in ["-.5", "01", "1.", r#""\u+041""#] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = 100_000;
        for doc in [
            format!("{}{}", "[".repeat(deep), "]".repeat(deep)),
            format!("{}1{}", "{\"a\":".repeat(deep), "}".repeat(deep)),
        ] {
            let err = parse(&doc).unwrap_err();
            assert!(err.msg.contains("nested deeper"), "{}", err.msg);
        }
        // The bound itself still parses, one level more does not.
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(r#"{"a": 1, "b": [true], "c": "x"}"#).ok();
        let v = v.as_ref();
        assert_eq!(
            v.and_then(|v| v.get("a")).and_then(Value::as_num),
            Some(1.0)
        );
        assert_eq!(
            v.and_then(|v| v.get("b"))
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(
            v.and_then(|v| v.get("c")).and_then(Value::as_str),
            Some("x")
        );
        assert_eq!(v.and_then(|v| v.get("missing")), None);
    }
}
