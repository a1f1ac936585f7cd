//! Small helpers over the compat `serde::Value` tree: building report
//! objects and reading values by dotted key path, so that a counter a
//! later change removes reads as `null` here, not as a compile error.

pub use serde::Value;

/// An object from `(key, value)` pairs, in the order given.
pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array of strings.
pub fn texts<'a>(items: impl IntoIterator<Item = &'a str>) -> Value {
    Value::Array(items.into_iter().map(text).collect())
}

/// A number, or `null` when absent or not finite.
pub fn num(v: impl Into<Option<f64>>) -> Value {
    match v.into() {
        Some(f) if f.is_finite() => Value::Float(f),
        _ => Value::Null,
    }
}

/// A string value.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// The value at a dotted key path. Each segment names an object field;
/// an array of `[key, value]` pairs (how the compat serializer renders a
/// map such as `phase_nanos`) is searched the same way.
pub fn at<'a>(root: &'a Value, dotted: &str) -> Option<&'a Value> {
    dotted.split('.').try_fold(root, |v, key| match v {
        Value::Object(fields) => serde::object_get(fields, key),
        Value::Array(pairs) => pairs.iter().find_map(|p| match p.as_array() {
            Some([k, val]) if k.as_str() == Some(key) => Some(val),
            _ => None,
        }),
        _ => None,
    })
}

/// The number at a dotted key path.
pub fn f64_at(root: &Value, dotted: &str) -> Option<f64> {
    at(root, dotted).and_then(Value::as_f64)
}

/// The strings of the array at a dotted key path (none when absent).
pub fn strs_at<'a>(root: &'a Value, dotted: &str) -> impl Iterator<Item = &'a str> {
    at(root, dotted)
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(Value::as_str)
}

/// The string at a dotted key path.
pub fn str_at<'a>(root: &'a Value, dotted: &str) -> Option<&'a str> {
    at(root, dotted).and_then(Value::as_str)
}

/// Compact JSON text.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always serializes")
}

/// Pretty JSON text.
pub fn render_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value tree always serializes")
}

/// Parse JSON text.
pub fn parse(s: &str) -> Result<Value, String> {
    serde_json::parse_value_str(s).map_err(|e| e.to_string())
}

/// Read and parse a JSON file.
pub fn load(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_paths_cross_objects_and_pair_arrays() {
        let v = parse(r#"{"a":{"b":3},"phase_nanos":[["gossip",7],["bittorrent",9]]}"#).unwrap();
        assert_eq!(f64_at(&v, "a.b"), Some(3.0));
        assert_eq!(f64_at(&v, "phase_nanos.bittorrent"), Some(9.0));
        assert_eq!(f64_at(&v, "a.gone"), None);
        assert_eq!(f64_at(&v, "gone.b"), None);
    }
}
