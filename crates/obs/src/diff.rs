//! Comparing two `OBS_report.json` files: the perf-regression gate behind
//! `gvex obs diff`.
//!
//! The reader is hand-rolled (like the writer in [`crate::report`] —
//! `gvex-obs` sits below the serde stand-ins and stays dependency-free) and
//! **backward-compatible**: it accepts both schema v1 reports (no
//! percentiles, no requests) and v2, so a freshly built binary can gate
//! against a baseline committed before the schema bump.
//!
//! Comparison is asymmetric by design — it looks for *regressions* in `new`
//! relative to `old`:
//!
//! * **span totals** — `new.total_ms > old.total_ms × (1 + span_pct/100)`,
//!   skipping spans whose old total is below `min_span_ms` (noise floor)
//!   and spans present in only one report (a renamed span is not a
//!   slowdown);
//! * **counters** — same ratio test with `counter_pct`, skipping counters
//!   whose old value is below `min_counter` (a 1→3 jitter is not a
//!   regression);
//! * **p99 latency** — same ratio test with `p99_pct`, only where both
//!   reports carry percentiles (v2) and the span passes the noise floor.
//!
//! Thresholds are percentages of allowed growth: `span_pct = 50` tolerates
//! up to 1.5× the old total. CI uses deliberately generous values — the
//! gate exists to catch *gross* regressions, not machine jitter.

use std::collections::BTreeMap;
use std::fmt;

/// Allowed growth before a metric counts as regressed. See module docs.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Max span total_ms growth, percent (50 ⇒ 1.5× allowed).
    pub span_pct: f64,
    /// Max counter growth, percent.
    pub counter_pct: f64,
    /// Max span p99 growth, percent.
    pub p99_pct: f64,
    /// Spans with an old total below this (ms) are never compared.
    pub min_span_ms: f64,
    /// Counters with an old value below this are never compared.
    pub min_counter: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            span_pct: 50.0,
            counter_pct: 50.0,
            p99_pct: 100.0,
            min_span_ms: 1.0,
            min_counter: 100,
        }
    }
}

/// What regressed and by how much.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// `"span"`, `"counter"`, or `"p99"`.
    pub kind: &'static str,
    /// Span path or counter name.
    pub name: String,
    /// Old value (ms for spans/p99, count for counters).
    pub old: f64,
    /// New value.
    pub new: f64,
    /// The limit that was breached, as a ratio (e.g. 1.5).
    pub limit: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:<44} {:>12.3} -> {:>12.3}  ({:.2}x, limit {:.2}x)",
            self.kind,
            self.name,
            self.old,
            self.new,
            if self.old > 0.0 { self.new / self.old } else { f64::INFINITY },
            self.limit
        )
    }
}

/// One span row as read from a report (v1 fields always present, v2
/// percentile fields optional).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEntry {
    /// Completed guards.
    pub count: u64,
    /// Total wall-clock, milliseconds.
    pub total_ms: f64,
    /// p50 (v2 reports only).
    pub p50_ms: Option<f64>,
    /// p99 (v2 reports only).
    pub p99_ms: Option<f64>,
}

/// The slice of a report the diff needs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportData {
    /// `schema_version` field.
    pub schema_version: u64,
    /// Spans keyed by path.
    pub spans: BTreeMap<String, SpanEntry>,
    /// Counters keyed by name.
    pub counters: BTreeMap<String, u64>,
}

/// Parses an `OBS_report.json` document (schema v1 or v2).
pub fn parse_report(text: &str) -> Result<ReportData, String> {
    let value = json::parse(text)?;
    let obj = value.as_obj().ok_or("report root is not an object")?;
    let mut data = ReportData {
        schema_version: get(obj, "schema_version")
            .and_then(Value::as_u64)
            .ok_or("missing schema_version")?,
        ..ReportData::default()
    };
    let spans = get(obj, "spans").and_then(Value::as_arr).ok_or("missing spans array")?;
    for span in spans {
        let s = span.as_obj().ok_or("span entry is not an object")?;
        let path = get(s, "path").and_then(Value::as_str).ok_or("span without path")?;
        data.spans.insert(
            path.to_string(),
            SpanEntry {
                count: get(s, "count").and_then(Value::as_u64).unwrap_or(0),
                total_ms: get(s, "total_ms").and_then(Value::as_f64).unwrap_or(0.0),
                p50_ms: get(s, "p50_ms").and_then(Value::as_f64),
                p99_ms: get(s, "p99_ms").and_then(Value::as_f64),
            },
        );
    }
    let counters = get(obj, "counters").and_then(Value::as_obj).ok_or("missing counters object")?;
    for (name, v) in counters {
        data.counters.insert(name.clone(), v.as_u64().unwrap_or(0));
    }
    Ok(data)
}

/// All regressions of `new` against `old` under `thr`, sorted worst-first
/// within each kind (spans, then p99, then counters).
pub fn compare(old: &ReportData, new: &ReportData, thr: &Thresholds) -> Vec<Regression> {
    let mut out = Vec::new();
    for (path, o) in &old.spans {
        let Some(n) = new.spans.get(path) else { continue };
        if o.total_ms < thr.min_span_ms {
            continue;
        }
        let limit = 1.0 + thr.span_pct / 100.0;
        if n.total_ms > o.total_ms * limit {
            out.push(Regression {
                kind: "span",
                name: path.clone(),
                old: o.total_ms,
                new: n.total_ms,
                limit,
            });
        }
        if let (Some(op99), Some(np99)) = (o.p99_ms, n.p99_ms) {
            let limit = 1.0 + thr.p99_pct / 100.0;
            if op99 > 0.0 && np99 > op99 * limit {
                out.push(Regression {
                    kind: "p99",
                    name: path.clone(),
                    old: op99,
                    new: np99,
                    limit,
                });
            }
        }
    }
    for (name, &o) in &old.counters {
        let Some(&n) = new.counters.get(name) else { continue };
        if o < thr.min_counter {
            continue;
        }
        let limit = 1.0 + thr.counter_pct / 100.0;
        if n as f64 > o as f64 * limit {
            out.push(Regression {
                kind: "counter",
                name: name.clone(),
                old: o as f64,
                new: n as f64,
                limit,
            });
        }
    }
    out.sort_by(|a, b| {
        let rank = |k: &str| match k {
            "span" => 0,
            "p99" => 1,
            _ => 2,
        };
        let ra = if a.old > 0.0 { a.new / a.old } else { f64::INFINITY };
        let rb = if b.old > 0.0 { b.new / b.old } else { f64::INFINITY };
        rank(a.kind).cmp(&rank(b.kind)).then(rb.total_cmp(&ra))
    });
    out
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) use json::Value;

/// A minimal recursive-descent JSON reader, sized for gvex's own reports
/// (objects, arrays, strings with the escapes the writer emits, numbers,
/// booleans, null). Not a general-purpose validator. Nesting stops at
/// [`json::MAX_DEPTH`], so a corrupt or hostile file is an error, not a
/// stack overflow.
mod json {
    /// Containers a document may nest: the `MAX_DEPTH`-th opening bracket
    /// is an error, the limit `serde_json` applies by default.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, as `f64`.
        Num(f64),
        /// A string literal, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in document order (duplicate keys keep the first).
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub(crate) fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub(crate) fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 => Some(*n as u64),
                _ => None,
            }
        }
        pub(crate) fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub(crate) fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub(crate) fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub(crate) fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
        /// Containers open around the cursor.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn eat_literal(&mut self, lit: &str) -> bool {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{' | b'[') => self.nested(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
                Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!("unexpected {other:?} at byte {}", self.i)),
            }
        }

        fn nested(&mut self) -> Result<Value, String> {
            if self.depth + 1 >= MAX_DEPTH {
                return Err(format!("recursion limit exceeded at byte {}", self.i));
            }
            self.depth += 1;
            let v = if self.peek() == Some(b'{') { self.object() } else { self.array() };
            self.depth -= 1;
            v
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(Value::Obj(out));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                out.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::Obj(out));
                    }
                    other => return Err(format!("expected , or }} got {other:?} at {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Value::Arr(out));
                    }
                    other => return Err(format!("expected , or ] got {other:?} at {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.i += 1;
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
                                if self.i + 4 >= self.b.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                    .map_err(|_| "bad \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.i += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        self.i += 1;
                    }
                    Some(_) => {
                        // consume one UTF-8 scalar; the cursor only ever
                        // stops on char boundaries, so the slice is valid
                        let c = std::str::from_utf8(&self.b[self.i..])
                            .map_err(|_| "invalid UTF-8 in string")?
                            .chars()
                            .next()
                            .expect("nonempty");
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                    self.i += 1;
                } else {
                    break;
                }
            }
            let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
            s.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number {s:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1: &str = r#"{
      "schema_version": 1,
      "threads": 4,
      "open_spans": 0,
      "spans": [
        {"path": "explain_db", "count": 1, "total_ms": 120.5, "min_ms": 120.5, "max_ms": 120.5},
        {"path": "explain_db/predict", "count": 2, "total_ms": 30.0, "min_ms": 10.0, "max_ms": 20.0}
      ],
      "counters": {"gnn.trace_cache.hits": 500, "tiny": 2},
      "histograms": {}
    }"#;

    fn v2_with(total: f64, p99: f64, hits: u64) -> String {
        format!(
            r#"{{
              "schema_version": 2,
              "spans": [
                {{"path": "explain_db", "count": 1, "total_ms": {total}, "min_ms": 1.0,
                  "max_ms": 2.0, "p50_ms": 1.0, "p90_ms": 1.5, "p99_ms": {p99}, "p999_ms": {p99}}}
              ],
              "counters": {{"gnn.trace_cache.hits": {hits}, "tiny": 2}}
            }}"#
        )
    }

    #[test]
    fn reads_v1_reports_without_percentiles() {
        let r = parse_report(V1).unwrap();
        assert_eq!(r.schema_version, 1);
        assert_eq!(r.spans["explain_db"].total_ms, 120.5);
        assert_eq!(r.spans["explain_db"].p99_ms, None);
        assert_eq!(r.counters["gnn.trace_cache.hits"], 500);
    }

    #[test]
    fn reads_v2_percentiles() {
        let r = parse_report(&v2_with(100.0, 5.0, 500)).unwrap();
        assert_eq!(r.schema_version, 2);
        assert_eq!(r.spans["explain_db"].p99_ms, Some(5.0));
    }

    #[test]
    fn flags_span_counter_and_p99_regressions() {
        let old = parse_report(&v2_with(100.0, 5.0, 500)).unwrap();
        let new = parse_report(&v2_with(400.0, 25.0, 2000)).unwrap();
        let regs = compare(&old, &new, &Thresholds::default());
        let kinds: Vec<&str> = regs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&"span"), "{regs:?}");
        assert!(kinds.contains(&"p99"), "{regs:?}");
        assert!(kinds.contains(&"counter"), "{regs:?}");
        // the 2->2 "tiny" counter sits under min_counter and never fires
        assert!(!regs.iter().any(|r| r.name == "tiny"));
    }

    #[test]
    fn within_threshold_passes_and_improvements_never_fire() {
        let old = parse_report(&v2_with(100.0, 5.0, 500)).unwrap();
        let same = compare(&old, &old, &Thresholds::default());
        assert!(same.is_empty(), "{same:?}");
        let better = parse_report(&v2_with(50.0, 2.0, 100)).unwrap();
        assert!(compare(&old, &better, &Thresholds::default()).is_empty());
    }

    #[test]
    fn v1_vs_v2_skips_percentiles_but_compares_totals() {
        let old = parse_report(V1).unwrap();
        let new = parse_report(&v2_with(500.0, 9.0, 200)).unwrap();
        let regs = compare(&old, &new, &Thresholds::default());
        assert!(regs.iter().any(|r| r.kind == "span" && r.name == "explain_db"));
        assert!(!regs.iter().any(|r| r.kind == "p99"), "v1 has no percentiles to compare");
        // hits shrank 500 -> 200: an improvement, not a regression
        assert!(!regs.iter().any(|r| r.kind == "counter"));
    }

    #[test]
    fn missing_entries_are_skipped() {
        let old = parse_report(V1).unwrap();
        let mut new = old.clone();
        new.spans.remove("explain_db");
        new.counters.remove("gnn.trace_cache.hits");
        assert!(compare(&old, &new, &Thresholds::default()).is_empty());
    }

    #[test]
    fn nesting_stops_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(json::parse(&nested(json::MAX_DEPTH - 1)).is_ok());
        let err = json::parse(&nested(json::MAX_DEPTH)).unwrap_err();
        assert!(err.contains("recursion limit exceeded"), "{err}");
        let objects = r#"{"a":"#.repeat(json::MAX_DEPTH) + "1" + &"}".repeat(json::MAX_DEPTH);
        assert!(json::parse(&objects).is_err());
        // far past the limit: a typed parse error, not a stack overflow
        assert!(parse_report(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = json::parse(r#"{"a\n": [1, -2.5e3, true, null, "x\"y"]}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "a\n");
        let arr = obj[0].1.as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[4].as_str(), Some("x\"y"));
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{} trailing").is_err());
    }
}
