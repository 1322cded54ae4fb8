//! The workspace's one JSON codec: a [`Json`] value, one string
//! escaper, a compact renderer for JSON Lines records (`Display`), a
//! pretty renderer for documents ([`Json::pretty`]), and a bounded
//! recursive-descent reader ([`parse`]). No other module frames JSON.
//!
//! Numbers keep their validated decimal text, so `u64` counters
//! round-trip exactly and each emitter picks its precision. Like
//! [`crate::ByteReader`], the reader treats its input as hostile:
//! malformed or trailing input and nesting deeper than [`MAX_DEPTH`]
//! are an `Err`, never a panic.

use core::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON number, held as its validated decimal text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

/// A JSON value, one variant per JSON type. Object members keep their
/// insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Json {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn object() -> Self {
        Json::Obj(Vec::new())
    }

    /// This object with `key: value` appended.
    ///
    /// # Panics
    ///
    /// If `self` is not an object: a builder bug.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        let Json::Obj(members) = &mut self else { panic!("Json::with on a non-object") };
        members.push((key.to_string(), value.into()));
        self
    }

    /// A float in its shortest round-trip form; `null` if not finite.
    pub fn float(v: f64) -> Self {
        Self::finite(v, format!("{v}"))
    }

    /// A float with `decimals` digits after the point; `null` if not
    /// finite.
    pub fn fixed(v: f64, decimals: usize) -> Self {
        Self::finite(v, format!("{v:.decimals$}"))
    }

    fn finite(v: f64, text: String) -> Self {
        // A finite f64 renders without an exponent: valid JSON.
        if v.is_finite() {
            Json::Num(Number(text))
        } else {
            Json::Null
        }
    }

    /// The first member named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `T` (`u64`, `f64`, …), if this is a number that
    /// `T` can hold: `12.5` is no `u64`.
    pub fn number<T: core::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The document layout, newline-terminated: the root object's
    /// members and every array's elements one per line, everything
    /// else inline with `": "` and `", "` separators.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Compact when `depth` is `None`, else the pretty layout with this
    /// value's closing bracket indented `depth` levels.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.0),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let items: Vec<(Option<&str>, &Json)> = items.iter().map(|v| (None, v)).collect();
                write_items(out, ['[', ']'], &items, depth, true);
            }
            Json::Obj(members) => {
                let members: Vec<_> = members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_items(out, ['{', '}'], &members, depth, depth == Some(0));
            }
        }
    }
}

/// A container's items between `brackets`. In the pretty layout a
/// non-empty container with `one_per_line` puts each on its own line.
fn write_items(
    out: &mut String,
    brackets: [char; 2],
    items: &[(Option<&str>, &Json)],
    depth: Option<usize>,
    one_per_line: bool,
) {
    let line = depth.filter(|_| one_per_line && !items.is_empty());
    let (comma, colon) = if depth.is_some() { (", ", ": ") } else { (",", ":") };
    out.push(brackets[0]);
    for (i, (key, value)) in items.iter().enumerate() {
        match line {
            Some(d) => {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(d + 1));
            }
            None if i > 0 => out.push_str(comma),
            None => {}
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(colon);
        }
        value.write(out, line.map_or(depth, |d| Some(d + 1)));
    }
    if let Some(d) = line {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(brackets[1]);
}

/// The compact layout: no whitespace, one line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// `s` as a quoted JSON string: `"` and `\` backslash-escaped, control
/// characters as `\u00XX`, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

json_from! {
    u64 => |v| Json::Num(Number(v.to_string())),
    u32 => |v| Json::Num(Number(v.to_string())),
    usize => |v| Json::Num(Number(v.to_string())),
    bool => |v| Json::Bool(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Arr(v),
}

/// Read one JSON value, with optional surrounding whitespace.
///
/// # Errors
///
/// What is wrong and at which byte, for malformed input, trailing
/// characters, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos < text.len() {
        return Err(r.error("trailing characters"));
    }
    Ok(value)
}

/// The reader's cursor: `pos` is a char boundary, never past the end.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, reason: &str) -> String {
        format!("{reason} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, reason: &str) -> Result<(), String> {
        self.eat(b).then_some(()).ok_or_else(|| self.error(reason))
    }

    /// Consume a run of ASCII digits; whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(open @ (b'[' | b'{')) => {
                let object = open == b'{';
                let close = if object { b'}' } else { b']' };
                let mut items = Vec::new();
                self.pos += 1;
                self.skip_ws();
                if !self.eat(close) {
                    loop {
                        let key = if object {
                            self.skip_ws();
                            let key = self.string()?;
                            self.skip_ws();
                            self.expect(b':', "expected ':'")?;
                            key
                        } else {
                            String::new()
                        };
                        items.push((key, self.value(depth + 1)?));
                        self.skip_ws();
                        if self.eat(close) {
                            break;
                        }
                        self.expect(b',', "expected ',' or a closing bracket")?;
                    }
                }
                Ok(if object {
                    Json::Obj(items)
                } else {
                    Json::Arr(items.into_iter().map(|(_, v)| v).collect())
                })
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let rest = self.text.get(self.pos..).unwrap_or_default();
                let literals = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                let (word, value) = literals
                    .into_iter()
                    .find(|(word, _)| rest.starts_with(word))
                    .ok_or_else(|| self.error("expected a value"))?;
                self.pos += word.len();
                Ok(value)
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.pos;
        let leading_zero = self.text.as_bytes().get(int) == Some(&b'0');
        let mut ok = self.digits() && (!leading_zero || self.pos == int + 1);
        if self.eat(b'.') {
            ok &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits();
        }
        match self.text.get(start..self.pos) {
            Some(text) if ok => Ok(Json::Num(Number(text.to_string()))),
            _ => Err(self.error("invalid number")),
        }
    }

    /// A quoted string, escapes resolved.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= b' ') {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("unterminated string or control character"));
            }
            out.push(self.escape()?);
        }
    }

    /// The character an escape stands for, after its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let b = self.peek().ok_or_else(|| self.error("unterminated string"))?;
        self.pos += 1;
        Ok(match b {
            b'"' | b'\\' | b'/' => char::from(b),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            // The renderers write non-ASCII verbatim, so UTF-16
            // surrogate escapes never occur in our files: rejected.
            b'u' => char::from_u32(self.hex4()?).ok_or_else(|| self.error("surrogate escape"))?,
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.error("invalid \\u escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCH_sweep.json`-shaped document.
    fn sweep_doc() -> Json {
        let wall = Json::object().with("cells", 125u64).with("mean_ms", Json::fixed(7.45, 1));
        Json::object()
            .with("bench", "sweep")
            .with("wall_clock_s", Json::fixed(5.956, 3))
            .with(
                "aggregate",
                Json::object()
                    .with("ops_per_sec", Json::fixed(42_133_745.4, 0))
                    .with("cell_wall_ms", wall.clone()),
            )
            .with("phases", vec![Json::object().with("name", "grid")])
            .with(
                "prefetchers",
                vec![
                    Json::object().with("name", "pmp").with("wall_ms", wall.clone()),
                    Json::object().with("name", "bingo").with("wall_ms", wall),
                ],
            )
            .with("empty", Json::Arr(Vec::new()))
            .with("none", Json::object())
    }

    /// A journal-record-shaped line.
    fn record_line() -> String {
        Json::object()
            .with("key", "spec06.mcf_2|pmp|Small|0123456789abcdef")
            .with("suite", 0u64)
            .with("wall_ms", 137u64)
            .with("outcome", "ok")
            .with("stats", Json::object().with("ipc", Json::float(1.25)).with("l1", Json::object()))
            .to_string()
    }

    /// A value exercising every variant and the escaping edge cases.
    fn awkward() -> Json {
        Json::object()
            .with("max", u64::MAX)
            .with("quote\"back\\slash", "tab\tnl\ncr\r\u{1}\u{1f}\"\\/ é 🎉")
            .with("nan", Json::float(f64::NAN))
            .with("inf", Json::fixed(f64::INFINITY, 3))
            .with("neg", Json::float(-0.5))
            .with("tiny", Json::float(1e-300))
            .with("huge", Json::float(1e300))
            .with("flags", vec![true.into(), false.into(), Json::Null])
            .with("nested", vec![Json::Arr(vec![Json::Arr(Vec::new())]), Json::object()])
    }

    #[test]
    fn json_renders_compact_and_pretty_layouts() {
        let doc = Json::object()
            .with("bench", "sim")
            .with("workloads", vec![Json::object().with("name", "a").with("ops", 1u64)])
            .with("cells", Json::object().with("done", 2u64));
        assert_eq!(
            doc.to_string(),
            r#"{"bench":"sim","workloads":[{"name":"a","ops":1}],"cells":{"done":2}}"#
        );
        assert_eq!(
            doc.pretty(),
            concat!(
                "{\n  \"bench\": \"sim\",\n  \"workloads\": [\n",
                "    {\"name\": \"a\", \"ops\": 1}\n  ],\n  \"cells\": {\"done\": 2}\n}\n"
            )
        );
        assert_eq!(Json::object().pretty(), "{}\n");
    }

    #[test]
    fn json_numbers_keep_caller_precision() {
        assert_eq!(Json::fixed(2.0, 3).to_string(), "2.000");
        assert_eq!(Json::fixed(7_480_823.4, 0).to_string(), "7480823");
        assert_eq!(Json::float(3.5959397439557303).to_string(), "3.5959397439557303");
        assert_eq!(Json::float(f64::NAN), Json::Null);
        assert_eq!(Json::fixed(f64::NEG_INFINITY, 1), Json::Null);
        assert_eq!(Json::from(u64::MAX).number::<u64>(), Some(u64::MAX));
        assert_eq!(Json::float(-1.5).number::<u64>(), None);
    }

    #[test]
    fn json_round_trips_through_both_renderers() {
        for v in [awkward(), sweep_doc(), Json::Null, Json::from("bare"), Json::Arr(Vec::new())] {
            assert_eq!(parse(&v.to_string()).as_ref(), Ok(&v), "compact: {v}");
            assert_eq!(parse(&v.pretty()).as_ref(), Ok(&v), "pretty: {}", v.pretty());
        }
        let v = awkward();
        assert_eq!(v.get("max").and_then(Json::number::<u64>), Some(u64::MAX));
        assert_eq!(v.get("nan"), Some(&Json::Null));
        assert!(v.to_string().contains(r#""tab\u0009nl\u000acr\u000d\u0001\u001f\"\\/ é 🎉""#));
    }

    #[test]
    fn json_reads_standard_escapes_and_spacing() {
        let v = parse(" { \"a\" : [ 1 , -2.5e+3 , \"\\n\\t\\\"\\/\\u00e9🎉\" ] } \n")
            .expect("valid");
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[0].number::<u64>(), Some(1));
        assert_eq!(arr[1].number::<f64>(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("\n\t\"/é🎉"));
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "", " ", "{", "}", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "[1 2]", "01", "1.",
            ".5", "-", "1e", "+1", "tru", "nul", "\"open", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"",
            "\"\\ud83c\\udf89\"", "\"\\udc00\"", "\"a\u{1}b\"", "{} {}", "[]x", "NaN", "Infinity",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("[1,]").expect_err("trailing comma");
        assert_eq!(err, "expected a value at byte 3");
    }

    #[test]
    fn json_deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert_eq!(parse(&deep), Err("nesting too deep at byte 128".to_string()));
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    /// Every truncation and every single-bit flip of `body` reads as
    /// `Ok` or `Err`; none panics. Cuts and flips that leave invalid
    /// UTF-8 are tried through the lossy decoding.
    fn survives_hostile_mutations(body: &str) {
        let bytes = body.as_bytes();
        for cut in 0..bytes.len() {
            let _ = parse(&String::from_utf8_lossy(&bytes[..cut]));
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                let _ = parse(&String::from_utf8_lossy(&flipped));
            }
        }
        assert!(parse(body).is_ok());
    }

    #[test]
    fn json_survives_truncation_and_bit_flips_of_a_sweep_document() {
        survives_hostile_mutations(&sweep_doc().pretty());
    }

    #[test]
    fn json_survives_truncation_and_bit_flips_of_a_journal_record() {
        survives_hostile_mutations(&record_line());
        survives_hostile_mutations(&awkward().to_string());
    }
}
