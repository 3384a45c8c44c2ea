//! A minimal JSON reader for the workspace's own artifacts.
//!
//! The workspace builds hermetically (no external crates), and the
//! only JSON it ever reads is what its own writers produce: the
//! `deact-microbench-v1` schema of `microbench --out` (read back by
//! `bench-diff`) and the Chrome trace-event files of
//! [`write_chrome_trace`](crate::trace::write_chrome_trace) (checked
//! by [`validate_chrome_json`](crate::trace::validate_chrome_json)).
//! This parser covers full JSON anyway — escapes, nesting, scientific
//! notation — so a hand-edited baseline cannot silently mis-parse.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; stored as `f64`, which is exact for every count the
    /// microbench schema emits (all well below 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` so traversal order is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace only).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        format!("json: {msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.fail("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't appear in the
                            // microbench schema; map them to the
                            // replacement character rather than error.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Every other step
                    // advances over ASCII only, so `pos` is always on a
                    // char boundary of `text`.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.fail("bad utf-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse()
            .map(Json::Num)
            .map_err(|_| self.fail("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_microbench_schema() {
        let doc = r#"{
  "schema": "deact-microbench-v1",
  "iters": 2000000,
  "host_threads": 4,
  "entries": [
    {"label": "tlb_lookup", "ns_per_op": 15.423},
    {"label": "sched_per_ref/4_cores", "ns_per_op": 1360.451}
  ],
  "parallel_speedup_4t": 0.973,
  "throughput": {"refs_per_sec": 726451.7}
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("deact-microbench-v1")
        );
        let entries = v.get("entries").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[1].get("ns_per_op").and_then(Json::as_f64),
            Some(1360.451)
        );
        assert_eq!(
            v.get("throughput")
                .and_then(|t| t.get("refs_per_sec"))
                .and_then(Json::as_f64),
            Some(726451.7)
        );
    }

    #[test]
    fn full_json_round_trips_escapes_and_nesting() {
        let v = Json::parse(r#"{"a": [1, -2.5e3, "x\n\"yA", true, null, {}]}"#).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[1], Json::Num(-2500.0));
        assert_eq!(a[2], Json::Str("x\n\"yA".into()));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(a[5], Json::Obj(Default::default()));
        assert_eq!(Json::parse("\"é→\"").unwrap(), Json::Str("é→".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
