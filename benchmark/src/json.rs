//! A JSON value with a writer — enough for the result line, the
//! results file and (in tests) reading both back.

use std::fmt;

// The harness writes neither nulls nor arrays; the test-only reader
// needs both for `BENCHMARK.json`.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Indented multi-line form, for files people read.
    pub fn pretty(&self) -> String {
        fn go(v: &Json, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth + 1);
            match v {
                Json::Obj(fields) if !fields.is_empty() => {
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        out.push_str(&format!("{pad}{}: ", Json::str(k.as_str())));
                        // A leaf object (one metric) stays on its line.
                        match v {
                            Json::Obj(leaf)
                                if leaf
                                    .iter()
                                    .all(|(_, x)| !matches!(x, Json::Obj(_) | Json::Arr(_))) =>
                            {
                                out.push_str(&v.to_string())
                            }
                            _ => go(v, depth + 1, out),
                        }
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&"  ".repeat(depth));
                    out.push('}');
                }
                other => out.push_str(&other.to_string()),
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out.push('\n');
        out
    }

    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Whether `name` is a metric or workload name the benchmark contract
/// accepts: 1 to 64 of letters, digits, `_`, `.`, `-`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `(name, {"value": v, "unit": u})` — one reported metric.
///
/// # Panics
/// Panics on a name outside the contract's alphabet: the metric tables
/// are constants of this program.
pub fn metric<'a>(name: &'a str, value: f64, unit: &str) -> (&'a str, Json) {
    assert!(valid_name(name), "metric name {name:?}");
    let body = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
    (name, body)
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact single-line JSON. Numbers print with every digit that
/// round-trips; a non-finite number has no JSON form and prints `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A reader for what the writer writes (and `BENCHMARK.json`), used by
/// the tests only.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Json, String> {
    struct P<'a> {
        s: &'a [u8],
        at: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
                self.at += 1;
            }
        }
        fn eat(&mut self, lit: &str) -> bool {
            if self.s[self.at..].starts_with(lit.as_bytes()) {
                self.at += lit.len();
                true
            } else {
                false
            }
        }
        fn expect(&mut self, lit: &str) -> Result<(), String> {
            self.ws();
            if self.eat(lit) {
                Ok(())
            } else {
                Err(format!("expected {lit:?} at byte {}", self.at))
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.expect("\"")?;
            let mut out = Vec::new();
            loop {
                let c = *self.s.get(self.at).ok_or("unterminated string")?;
                self.at += 1;
                match c {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    b'\\' => {
                        let e = *self.s.get(self.at).ok_or("unterminated escape")?;
                        self.at += 1;
                        match e {
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                let c = char::from_u32(code).ok_or("bad \\u code point")?;
                                out.extend_from_slice(c.to_string().as_bytes());
                                self.at += 4;
                            }
                            other => out.push(other),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match *self.s.get(self.at).ok_or("unexpected end")? {
                b'{' => {
                    self.at += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let k = self.string()?;
                        self.expect(":")?;
                        fields.push((k, self.value()?));
                        self.ws();
                        if self.eat("}") {
                            return Ok(Json::Obj(fields));
                        }
                        self.expect(",")?;
                    }
                }
                b'[' => {
                    self.at += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.eat("]") {
                            return Ok(Json::Arr(items));
                        }
                        self.expect(",")?;
                    }
                }
                b'"' => Ok(Json::Str(self.string()?)),
                _ if self.eat("true") => Ok(Json::Bool(true)),
                _ if self.eat("false") => Ok(Json::Bool(false)),
                _ if self.eat("null") => Ok(Json::Null),
                _ => {
                    let start = self.at;
                    while self.at < self.s.len()
                        && matches!(
                            self.s[self.at],
                            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                        )
                    {
                        self.at += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.at])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad value at byte {start}"))
                }
            }
        }
    }
    let mut p = P {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at {}", p.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_restricted_to_the_contract_alphabet() {
        for good in ["setup_s", "core.method.refit_ms_p50", "1-a", "x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "_x", "a b", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_round_trips_names_and_every_digit() {
        let values = [1.2034, 0.1 + 0.2, 1e-9, 123456789.125, 0.0, -3.5];
        let names = [
            "setup_s",
            "core.method.refit_ms_p50",
            "net.wire.round_bytes",
        ];
        let metrics = Json::obj(names.iter().zip(values).map(|(n, v)| metric(n, v, "ms")));
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(4032.0)),
            ("failed", Json::Num(0.0)),
            ("note", Json::str("a \"quoted\"\\ line\n")),
            ("metrics", metrics),
        ])
        .to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"attempted\":4032,"));
        let back = parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("note"), Some(&Json::str("a \"quoted\"\\ line\n")));
        let Some(Json::Obj(fields)) = back.get("metrics") else {
            panic!("metrics is not an object");
        };
        for ((name, value), (k, v)) in names.iter().zip(values).zip(fields) {
            assert_eq!(k, name);
            assert!(valid_name(k));
            assert_eq!(v.get("value"), Some(&Json::Num(value)));
            assert_eq!(v.get("unit"), Some(&Json::str("ms")));
        }
    }

    #[test]
    fn pretty_form_parses_back_to_the_same_value() {
        let doc = Json::obj([
            (
                "host",
                Json::obj([("nproc", Json::Num(2.0)), ("cpu", Json::str("x"))]),
            ),
            (
                "workloads",
                Json::obj([("a", Json::obj([metric("m", 1.5, "s")]))]),
            ),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
            ("list", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        let text = doc.pretty();
        assert!(text.lines().count() > 5);
        assert!(text.contains("\"m\": {\"value\":1.5,\"unit\":\"s\"}"));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn non_finite_numbers_print_null() {
        assert_eq!(Json::Arr(vec![Json::Num(f64::NAN)]).to_string(), "[null]");
    }
}
