//! The benchmark's summary math and its output format: medians, the
//! tail-percentile rule, and the JSON result line (rendered and parsed).
//! The workspace has no serde, so the JSON is handled here by hand.

use std::fmt::Write as _;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer make the figure one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
pub const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 75];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median of `xs`: the middle sample, or the mean of the two middle
/// samples for an even count.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
#[must_use]
pub fn tail(xs: &[f64], p: u32) -> Option<f64> {
    let n = xs.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// The highest of [`TAIL_PERCENTILES`] that [`tail`] reports for `xs`,
/// as `(percentile, value)`.
#[must_use]
pub fn highest_tail(xs: &[f64]) -> Option<(u32, f64)> {
    TAIL_PERCENTILES.iter().find_map(|&p| tail(xs, p).map(|v| (p, v)))
}

/// One reported figure: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// The last line a run prints: whether every output was correct, how
/// many `run_mm` calls were attempted and failed, and the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every checked output was correct.
    pub correct: bool,
    /// `run_mm` calls attempted (warm-up included).
    pub attempted: u64,
    /// Calls that returned an error or failed a check.
    pub failed: u64,
    /// The metrics of the run, in print order.
    pub metrics: Vec<Metric>,
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Outcome {
    /// Renders the one-line JSON result, the last line a run prints.
    /// Values print in Rust's shortest round-trip form, so no digit is
    /// lost.
    ///
    /// # Panics
    /// Panics on a non-finite value, which JSON cannot carry.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            let _ = write!(out, "{}", m.value);
            out.push_str(", \"unit\": ");
            push_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a result line, enforcing its exact shape: the four keys
    /// and nothing else, whole counts, `attempted` at least 1, and a
    /// numeric value and a unit for every metric.
    ///
    /// # Errors
    /// A message naming the first violation.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let json = Json::parse(line)?;
        let Json::Obj(fields) = &json else { return Err("result is not an object".into()) };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result keys are {keys:?}"));
        }
        let count = |key: &str| -> Result<u64, String> {
            let v = json.get(key).and_then(Json::as_f64).ok_or(format!("{key} is not a number"))?;
            if v < 0.0 || v.fract() != 0.0 || v > 9.0e15 {
                return Err(format!("{key} = {v} is not a whole count"));
            }
            Ok(v as u64)
        };
        let attempted = count("attempted")?;
        let failed = count("failed")?;
        if attempted == 0 {
            return Err("attempted must be at least 1".into());
        }
        let correct = match json.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("correct is not a boolean".into()),
        };
        let Some(Json::Obj(ms)) = json.get("metrics") else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(ms.len());
        for (name, m) in ms {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric {name} lacks a numeric value or a unit"));
            };
            metrics.push(Metric { name: name.clone(), value, unit: unit.to_string() });
        }
        Ok(Outcome { correct, attempted, failed, metrics })
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in input order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    /// A message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// The field `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.i))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.ws();
        match self.b.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            self.err("unknown literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(self.b[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() && !text.is_empty() => Ok(Json::Num(x)),
            _ => Err(format!("bad number '{text}' at offset {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.i + 1).copied();
                    self.i += 2;
                    let c = match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return self.err("bad escape"),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[2.0, 2.0, 9.0, -1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_refuses_no_samples() {
        let _ = median(&[]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples beyond it.
        assert_eq!(tail(&xs, 99), Some(990.0));
        assert_eq!(tail(&xs[..999], 99), None, "nine beyond is too few");
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 95), Some(190.0), "order of the input does not matter");
        assert_eq!(tail(&xs, 99), None);
        assert_eq!(tail(&[], 50), None);
    }

    #[test]
    fn highest_tail_picks_the_highest_qualifying_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), Some((95, 190.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), Some((75, 30.0)));
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), None, "39 samples support no tail figure");
    }

    fn sample() -> Outcome {
        Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric { name: "run_s".into(), value: 0.123_456_789_012_345_6, unit: "s".into() },
                Metric { name: "rounds".into(), value: 61.0, unit: "count".into() },
                Metric { name: "odd\"name".into(), value: 1e-7, unit: "1/s".into() },
            ],
        }
    }

    #[test]
    fn result_line_round_trips() {
        let o = sample();
        let line = o.to_json();
        assert!(!line.contains('\n'), "the result is one line");
        assert!(line.contains("\"rounds\": {\"value\": 61, \"unit\": \"count\"}"), "{line}");
        assert_eq!(Outcome::parse(&line).unwrap(), o, "every digit survives the trip");
    }

    #[test]
    fn result_line_shape_is_enforced() {
        let ok = r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"x": {"value": 1.5, "unit": "ms"}}}"#;
        let o = Outcome::parse(ok).unwrap();
        assert!(!o.correct);
        assert_eq!((o.attempted, o.failed), (3, 1));
        assert_eq!(o.metrics[0].name, "x");
        for bad in [
            r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}"#,
            r#"{"correct": true, "attempted": 1, "metrics": {}}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": "1"}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} trailing"#,
            "not json",
        ] {
            assert!(Outcome::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn json_parses_nested_documents() {
        let doc = r#" {"records": [{"spec": "torus:1000x1000", "rounds": 61, "ok": true},
                       {"spec": "a\"bA", "x": -2.5e3, "n": null}], "e": []} "#;
        let j = Json::parse(doc).unwrap();
        let recs = j.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(recs[0].get("spec").and_then(Json::as_str), Some("torus:1000x1000"));
        assert_eq!(recs[0].get("rounds").and_then(Json::as_f64), Some(61.0));
        assert_eq!(recs[1].get("spec").and_then(Json::as_str), Some("a\"bA"));
        assert_eq!(recs[1].get("x").and_then(Json::as_f64), Some(-2500.0));
        assert_eq!(recs[1].get("n"), Some(&Json::Null));
        assert_eq!(j.get("e").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse(&"[".repeat(100)).is_err(), "deep nesting is refused");
    }
}
