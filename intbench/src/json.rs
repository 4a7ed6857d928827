//! JSON in and out through the workspace's vendored `serde_json`, which
//! renders and parses `serde::Value` trees. `Json` is the thin adapter
//! that lets a hand-built tree go through it.

use serde::{DeError, Deserialize, Serialize, Value};

/// A JSON tree that serializes as itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// One metric as the benchmark contract writes it.
pub fn metric(value: f64, unit: &str) -> Value {
    obj([("value", Value::F64(value)), ("unit", s(unit))])
}

/// Compact one-line rendering.
pub fn to_line(v: &Value) -> String {
    serde_json::to_string(&Json(v.clone())).expect("a value tree always serializes")
}

/// Pretty rendering for files.
pub fn to_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Json(v.clone())).expect("a value tree always serializes")
}

/// Parse a document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Any JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_round_trips() {
        let v = obj([
            ("name", s("quote \" backslash \\ newline \n tab \t µs")),
            ("n", Value::U64(u64::MAX)),
            ("neg", Value::I64(-3)),
            ("x", Value::F64(1.2034)),
            ("list", Value::Array(vec![Value::Bool(true), Value::Null])),
            ("m", metric(0.5, "ms")),
        ]);
        let line = to_line(&v);
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(parse(&to_pretty(&v)).unwrap(), v);
        assert!(parse("{\"a\":").is_err());
    }
}
