//! A minimal JSON value, writer and parser.
//!
//! The telemetry crate stays dependency-free (see `Cargo.toml`), so the
//! Chrome-trace and run-manifest exporters carry their own small JSON
//! implementation instead of pulling in `serde_json`. The subset is
//! complete for what the exporters emit — objects, arrays, strings,
//! finite numbers, booleans, null — and the parser exists so tests can
//! round-trip exporter output and so downstream tooling can re-read
//! manifests without another dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects use a `BTreeMap` so emitted documents are
/// deterministically ordered (stable golden files).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite floats are rejected at write time.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value at an object key, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Every place `other` differs from `self`, one line per differing
    /// leaf: `benches[2].outcome_fingerprints.w8: "9294…" -> "a1b2…"`.
    /// Empty means the documents are the same. Schema-blind and exact:
    /// numbers compare by bit pattern (one ulp differs, `0` and `-0`
    /// differ), and a missing key, an extra key, an array-length change
    /// and a type change are all differences. This is the whole
    /// regression gate over the committed `BENCH_*.json` documents,
    /// which carry simulated values only (BENCHMARKS.md, "Pins").
    pub fn diff(&self, other: &Json) -> Vec<String> {
        let mut out = Vec::new();
        self.diff_at("", other, &mut out);
        out
    }

    fn diff_at(&self, path: &str, other: &Json, out: &mut Vec<String>) {
        match (self, other) {
            (Json::Obj(a), Json::Obj(b)) => {
                let dot = if path.is_empty() { "" } else { "." };
                for (k, va) in a {
                    let at = format!("{path}{dot}{k}");
                    match b.get(k) {
                        Some(vb) => va.diff_at(&at, vb, out),
                        None => out.push(format!("{at}: {} -> (missing)", va.brief())),
                    }
                }
                for (k, vb) in b.iter().filter(|(k, _)| !a.contains_key(*k)) {
                    out.push(format!("{path}{dot}{k}: (missing) -> {}", vb.brief()));
                }
            }
            (Json::Arr(a), Json::Arr(b)) => {
                for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                    va.diff_at(&format!("{path}[{i}]"), vb, out);
                }
                if a.len() != b.len() {
                    out.push(format!("{path}: array length {} -> {}", a.len(), b.len()));
                }
            }
            (Json::Num(a), Json::Num(b)) if a.to_bits() == b.to_bits() => {}
            (Json::Str(a), Json::Str(b)) if a == b => {}
            (Json::Bool(a), Json::Bool(b)) if a == b => {}
            (Json::Null, Json::Null) => {}
            (a, b) => out.push(format!("{path}: {} -> {}", a.brief(), b.brief())),
        }
    }

    /// The serialized value, cut to one report line's worth.
    fn brief(&self) -> String {
        const MAX: usize = 48;
        let text = self.to_string();
        match text.char_indices().nth(MAX) {
            Some((cut, _)) => format!("{}…", &text[..cut]),
            None => text,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's `Display` for f64 never uses exponent
                    // notation and round-trips exactly, both of which
                    // chrome://tracing relies on.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serialization is via `Display` (and hence `.to_string()`): compact,
/// deterministic key order. Non-finite numbers (NaN, ±∞) have no JSON
/// representation and are written as `null`, which keeps documents
/// loadable everywhere.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile document from
/// overflowing the stack; every document this workspace writes nests a
/// few levels deep.
const MAX_DEPTH: usize = 512;

/// Parse a JSON document. Returns a readable error with a byte offset on
/// malformed input, including nesting deeper than 512 levels.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects open around `at`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len()
            && matches!(self.bytes[self.at], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.at
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.at;
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let at = self.at - 1;
                            if self.at + 5 > self.bytes.len() {
                                return Err(format!("truncated \\u escape at byte {at}"));
                            }
                            let bad = || format!("bad \\u escape at byte {at}");
                            let hex = std::str::from_utf8(&self.bytes[self.at + 1..self.at + 5])
                                .map_err(|_| bad())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
                            // Surrogate pairs are not needed by our
                            // emitters; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (`at` is on a char
                    // boundary: only ASCII has been consumed byte-wise).
                    let c = (self.text.get(self.at..).and_then(|t| t.chars().next()))
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.at))?;
                    s.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    /// An RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`,
    /// finite as an `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let digits = |p: &mut Self| {
            let from = p.at;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.at += 1;
            }
            p.at - from
        };
        self.at += usize::from(self.peek() == Some(b'-'));
        let int = digits(self);
        let mut ok = int == 1 || (int > 1 && self.bytes[self.at - int] != b'0');
        if self.peek() == Some(b'.') {
            self.at += 1;
            ok &= digits(self) > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            self.at += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            ok &= digits(self) > 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        match text.parse::<f64>() {
            Ok(v) if ok && v.is_finite() => Ok(Json::Num(v)),
            Ok(_) if ok => Err(format!("number {text:?} out of range at byte {start}")),
            _ => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("name", Json::str("ping \"pong\"\n")),
            ("count", Json::Num(24.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(-1.5), Json::Num(0.000125), Json::str("x")]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn numbers_avoid_exponent_notation() {
        assert_eq!(Json::Num(1e-5).to_string(), "0.00001");
        assert_eq!(Json::Num(2.5e6).to_string(), "2500000");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"b\\u0041\\n\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Num(1.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::str("bA\n"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    /// Each input is an `Err` naming the byte where its number starts.
    #[test]
    fn numbers_outside_the_rfc_8259_grammar_are_errors() {
        for (text, at) in [
            ("01", 0),
            ("1.", 0),
            ("-01.e5", 0),
            ("[1, -]", 4),
            ("[.5]", 1),
            ("1e", 0),
            ("1e+", 0),
            ("-", 0),
            ("[2, 007]", 4),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(&format!("at byte {at}")), "{text}: {err}");
        }
        for (text, want) in [("0", 0.0), ("-0.5", -0.5), ("10", 10.0), ("1E+2", 100.0)] {
            assert_eq!(parse(text), Ok(Json::Num(want)), "{text}");
        }
        assert_eq!(parse("2.5e-3"), Ok(Json::Num(0.0025)));
    }

    /// A number that overflows `f64` would be written back as `null`, so
    /// a parse/write round trip would change it: it is an `Err`.
    #[test]
    fn a_number_beyond_f64_is_an_error_not_infinity() {
        for (text, at) in [("1e999", 0), ("[-1e400]", 1), ("{\"a\": 2E+999}", 6)] {
            let err = parse(text).unwrap_err();
            assert!(
                err.contains(&format!("out of range at byte {at}")),
                "{text}: {err}"
            );
        }
        assert_eq!(parse("1e-999"), Ok(Json::Num(0.0)));
    }

    #[test]
    fn string_errors_name_their_byte() {
        for (text, want) in [
            ("\"open", "unterminated string at byte 0"),
            ("[1, \"ab", "unterminated string at byte 4"),
            ("\"\\u12", "truncated \\u escape at byte 1"),
            ("[\"x\\u00g1\"]", "bad \\u escape at byte 3"),
        ] {
            assert_eq!(parse(text), Err(want.to_string()), "{text}");
        }
    }

    /// Nesting is bounded, so a hostile document is an `Err` naming the
    /// byte where it went too deep, not a stack overflow — here on a
    /// thread with the 2 MiB stack a test thread gets by default.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let run = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("at byte 512"), "{err}");
            let err = parse(&"[".repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 512"), "{err}");
            assert!(parse(&r#"{"a":"#.repeat(100_000)).is_err());
        });
        run.unwrap().join().expect("parse stayed on the stack");
    }

    /// Seeded malformed-input sweep over a committed pin: truncations
    /// and byte flips must come back as `Ok` or `Err`, never a panic,
    /// and every cut before the closing brace must be an `Err`.
    #[test]
    fn truncated_and_flipped_bench_documents_never_panic() {
        const DOC: &str = include_str!("../../../BENCH_sched_smoke.json");
        assert!(parse(DOC).is_ok());
        let close = DOC.rfind('}').expect("an object document");
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for _ in 0..1_000 {
            let cut = next(close + 1);
            assert!(
                parse(&DOC[..cut]).is_err(),
                "a prefix of {cut} bytes parsed"
            );
        }
        const BYTES: &[u8] = b"[]{}\",:\\-+.0123456789eEtfnu \x7f\xc3\xff";
        let mut bytes = DOC.as_bytes().to_vec();
        for _ in 0..2_000 {
            let (at, flips) = (next(bytes.len()), 1 + next(3));
            let saved = bytes[at..(at + flips).min(bytes.len())].to_vec();
            for (k, b) in bytes[at..].iter_mut().take(flips).enumerate() {
                *b = if k % 2 == 0 {
                    BYTES[next(BYTES.len())]
                } else {
                    *b ^ (1 << next(8))
                };
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
            bytes[at..at + saved.len()].copy_from_slice(&saved);
        }
    }

    /// One row per way a regenerated BENCH document can stop matching
    /// its committed twin: `(case, text to replace, replacement,
    /// expected report lines)` against one small mixed document.
    #[test]
    fn diff_reports_every_differing_leaf_with_its_path() {
        const BASE: &str = concat!(
            r#"{"benches":[{"name":"allreduce_32x4","virtual_makespan_s":0.25,"#,
            r#""identical_across_policies":true,"#,
            r#""outcome_fingerprints":{"seq":"9294aa","w8":"9294aa"}},{"name":"ring_4KiBx4"}],"#,
            r#""scenarios":[{"drift":0,"classes":[{"label":"batch","shed":25}],"mgk":null}]}"#,
        );
        let ulp = f64::from_bits(0.25f64.to_bits() + 1).to_string();
        let cases: [(&str, &str, &str, &[&str]); 13] = [
            ("identical documents", "", "", &[]),
            (
                "a one-ulp makespan",
                "0.25",
                &ulp,
                &["benches[0].virtual_makespan_s: 0.25 -> 0.25000000000000006"],
            ),
            (
                "0.0 against -0.0",
                r#""drift":0"#,
                r#""drift":-0"#,
                &["scenarios[0].drift: 0 -> -0"],
            ),
            (
                "a changed fingerprint, nested path rendered exactly",
                r#""w8":"9294aa""#,
                r#""w8":"a1b2aa""#,
                &[r#"benches[0].outcome_fingerprints.w8: "9294aa" -> "a1b2aa""#],
            ),
            (
                "two leaves at once, in document order",
                "9294aa",
                "a1b2aa",
                &[
                    r#"benches[0].outcome_fingerprints.seq: "9294aa" -> "a1b2aa""#,
                    r#"benches[0].outcome_fingerprints.w8: "9294aa" -> "a1b2aa""#,
                ],
            ),
            (
                "identical_across_policies flipped",
                "true",
                "false",
                &["benches[0].identical_across_policies: true -> false"],
            ),
            (
                "a class count off by one",
                r#""shed":25"#,
                r#""shed":26"#,
                &["scenarios[0].classes[0].shed: 25 -> 26"],
            ),
            (
                "a missing key",
                r#","mgk":null"#,
                "",
                &["scenarios[0].mgk: null -> (missing)"],
            ),
            (
                "an extra key",
                r#"{"name":"ring_4KiBx4"}"#,
                r#"{"name":"ring_4KiBx4","gflops":1.5}"#,
                &["benches[1].gflops: (missing) -> 1.5"],
            ),
            (
                "a shorter array",
                r#",{"name":"ring_4KiBx4"}"#,
                "",
                &["benches: array length 2 -> 1"],
            ),
            (
                "null against an object",
                r#""mgk":null"#,
                r#""mgk":{"k":6}"#,
                &[r#"scenarios[0].mgk: null -> {"k":6}"#],
            ),
            (
                "a number against a string",
                r#""shed":25"#,
                r#""shed":"25""#,
                &[r#"scenarios[0].classes[0].shed: 25 -> "25""#],
            ),
            (
                "a long value cut to one line",
                r#""label":"batch""#,
                r#""label":"a label that runs well past the forty-eight characters a line shows""#,
                &[
                    r#"scenarios[0].classes[0].label: "batch" -> "a label that runs well past the forty-eight cha…"#,
                ],
            ),
        ];
        let base = parse(BASE).unwrap();
        for (case, from, to, expected) in cases {
            let other = parse(&BASE.replace(from, to)).unwrap();
            assert_eq!(base.diff(&other), expected, "{case}");
        }
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let mut m = BTreeMap::new();
        m.insert("zeta".to_string(), Json::Num(1.0));
        m.insert("alpha".to_string(), Json::Num(2.0));
        assert_eq!(Json::Obj(m).to_string(), "{\"alpha\":2,\"zeta\":1}");
    }
}
