//! The one JSON writer behind every artifact the workspace emits: the
//! checked-in `BENCH_*.json` documents, the metrics JSONL timeline and
//! `marea-trace --json`.
//!
//! A [`Json`] value renders inline with `Display`: objects as
//! `{"k": v, "k2": v2}`, arrays as `[a, b]`, strings escaped, `None` as
//! `null`. [`Object::document`] renders the BENCH layout: a top-level
//! object with one `"key": value` per line at two spaces, where each
//! non-empty array puts one inline row per line at four spaces:
//!
//! ```
//! use marea_core::json::{Json, Object};
//!
//! let doc = Object::new()
//!     .field("id", "f1")
//!     .field("rows", vec![Object::new().field("ms", Json::Fixed(2.0, 1))]);
//! assert_eq!(doc.document(), "{\n  \"id\": \"f1\",\n  \"rows\": [\n    {\"ms\": 2.0}\n  ]\n}\n");
//! ```
//!
//! Rendering is a pure function of the value, so same input ⇒ same
//! bytes.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    Uint(u64),
    /// A float in Rust's shortest round-trip form (`0`, `0.001`);
    /// `null` when not finite.
    Float(f64),
    /// A float with a fixed number of decimals (`2985.0` for one);
    /// `null` when not finite.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(Object),
}

/// A JSON object: its fields in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(pub Vec<(String, Json)>);

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends the field `"key": value`.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Object {
        self.0.push((key.into(), value.into()));
        self
    }

    /// Renders the object in the BENCH layout (see the module docs),
    /// ending with a newline. An empty array renders as `[]`.
    pub fn document(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            let _ = write!(out, "  {}: ", Quoted(key));
            match value {
                Json::Array(rows) if !rows.is_empty() => {
                    out.push_str("[\n");
                    for (j, row) in rows.iter().enumerate() {
                        let sep = if j + 1 < rows.len() { "," } else { "" };
                        let _ = writeln!(out, "    {row}{sep}");
                    }
                    out.push_str("  ]");
                }
                other => {
                    let _ = write!(out, "{other}");
                }
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        for (i, (key, value)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {value}", Quoted(key))?;
        }
        f.write_char('}')
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Float(x) | Json::Fixed(x, _) if !x.is_finite() => f.write_str("null"),
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Uint(n) => write!(f, "{n}"),
            Json::Float(x) => write!(f, "{x}"),
            Json::Fixed(x, decimals) => write!(f, "{x:.decimals$}"),
            Json::Str(s) => write!(f, "{}", Quoted(s)),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Object(o) => write!(f, "{o}"),
        }
    }
}

/// A string rendered as a quoted, escaped JSON string.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

macro_rules! from_into {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
from_into!(bool => Bool, u32 => Uint, u64 => Uint, f64 => Float, String => Str, Object => Object);

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Uint(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("a\"b\\c\nd\te\u{1}f");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn none_renders_as_null() {
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(7u64)).to_string(), "7");
    }

    #[test]
    fn floats_render_fixed_or_shortest() {
        assert_eq!(Json::Fixed(200.0, 3).to_string(), "200.000");
        assert_eq!(Json::Fixed(2985.0, 1).to_string(), "2985.0");
        assert_eq!(Json::from(0.0).to_string(), "0");
        assert_eq!(Json::from(0.001).to_string(), "0.001");
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nested_values_render_inline() {
        let row = Object::new()
            .field("node", 1u32)
            .field("lines", vec!["x", "y"])
            .field("empty", Vec::<Json>::new())
            .field("h", Object::new().field("p50_us", None::<u64>));
        assert_eq!(
            row.to_string(),
            r#"{"node": 1, "lines": ["x", "y"], "empty": [], "h": {"p50_us": null}}"#
        );
    }

    #[test]
    fn two_row_document_matches_the_bench_layout() {
        let rows = vec![
            Object::new().field("path", "same container").field("mean_us", Json::Fixed(0.0, 3)),
            Object::new().field("path", "across the LAN").field("mean_us", Json::Fixed(200.0, 3)),
        ];
        let doc = Object::new()
            .field("params", Object::new().field("seed", 7u64).field("traced", true))
            .field("rows", rows)
            .field("none", Vec::<Json>::new())
            .field("gate", "g");
        assert_eq!(
            doc.document(),
            "{\n  \"params\": {\"seed\": 7, \"traced\": true},\n  \"rows\": [\n    \
             {\"path\": \"same container\", \"mean_us\": 0.000},\n    \
             {\"path\": \"across the LAN\", \"mean_us\": 200.000}\n  ],\n  \
             \"none\": [],\n  \"gate\": \"g\"\n}\n"
        );
    }
}
