//! A minimal JSON reader/writer for document instances.
//!
//! Built in-crate (no serde) per the workspace's "implement everything"
//! rule; supports exactly the JSON subset the schema formalism needs:
//! objects, arrays, strings (with the standard escapes), 64-bit integers,
//! and booleans. The toplevel document maps record type names to arrays of
//! record objects:
//!
//! ```json
//! { "Univ": [ { "id": 1, "name": "U1", "Admit": [ {"uid": 1, "count": 10} ] } ] }
//! ```

use std::fmt::{self, Write as _};
use std::sync::Arc;

use dynamite_schema::Schema;

use crate::record::{Field, Instance, Record};
use crate::value::Value;

/// Errors raised while reading document instances from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Lexical or structural JSON error with byte offset.
    Syntax { message: String, offset: usize },
    /// The document does not fit the schema (unknown record/attribute,
    /// wrong value type, missing attribute).
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { message, offset } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Schema(m) => write!(f, "JSON does not match schema: {m}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document into an [`Instance`] of `schema`.
pub fn parse_document(input: &str, schema: Arc<Schema>) -> Result<Instance, JsonError> {
    let mut p = Lexer { src: input, pos: 0 };
    let mut instance = Instance::new(schema.clone());
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    if p.peek() != Some(b'}') {
        loop {
            let name = p.string()?;
            if !schema.is_record(&name) || schema.is_nested(&name) {
                return Err(JsonError::Schema(format!(
                    "`{name}` is not a top-level record type"
                )));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            p.expect(b'[')?;
            p.skip_ws();
            if p.peek() != Some(b']') {
                loop {
                    let record = parse_record(&mut p, &schema, &name)?;
                    instance
                        .insert(&name, record)
                        .map_err(|e| JsonError::Schema(e.to_string()))?;
                    p.skip_ws();
                    if !p.eat(b',') {
                        break;
                    }
                    p.skip_ws();
                }
            }
            p.expect(b']')?;
            p.skip_ws();
            if !p.eat(b',') {
                break;
            }
            p.skip_ws();
        }
    }
    p.expect(b'}')?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after document"));
    }
    Ok(instance)
}

fn parse_record(p: &mut Lexer, schema: &Schema, record_type: &str) -> Result<Record, JsonError> {
    p.skip_ws();
    p.expect(b'{')?;
    let attrs = schema.attrs(record_type);
    let mut fields: Vec<Option<Field>> = vec![None; attrs.len()];
    p.skip_ws();
    if p.peek() != Some(b'}') {
        loop {
            let key = p.string()?;
            let idx = attrs.iter().position(|a| *a == key).ok_or_else(|| {
                JsonError::Schema(format!("record `{record_type}` has no attribute `{key}`"))
            })?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let field = if schema.is_record(&key) {
                p.expect(b'[')?;
                let mut children = Vec::new();
                p.skip_ws();
                if p.peek() != Some(b']') {
                    loop {
                        children.push(parse_record(p, schema, &key)?);
                        p.skip_ws();
                        if !p.eat(b',') {
                            break;
                        }
                        p.skip_ws();
                    }
                }
                p.expect(b']')?;
                Field::Children(children)
            } else {
                Field::Prim(p.value()?)
            };
            if fields[idx].is_some() {
                return Err(JsonError::Schema(format!(
                    "record `{record_type}` sets attribute `{key}` twice"
                )));
            }
            fields[idx] = Some(field);
            p.skip_ws();
            if !p.eat(b',') {
                break;
            }
            p.skip_ws();
        }
    }
    p.expect(b'}')?;
    let fields = fields
        .into_iter()
        .zip(attrs)
        .map(|(f, a)| {
            f.ok_or_else(|| {
                JsonError::Schema(format!("record `{record_type}` is missing attribute `{a}`"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Record::with_fields(fields))
}

/// Renders an [`Instance`] as pretty-printed JSON in the same toplevel
/// layout [`parse_document`] reads.
pub fn write_document(instance: &Instance) -> String {
    let schema = instance.schema();
    let mut out = String::from("{\n");
    let mut first_type = true;
    for (record_type, records) in instance.iter() {
        if !first_type {
            out.push_str(",\n");
        }
        first_type = false;
        out.push_str("  ");
        push_string(&mut out, record_type);
        out.push_str(": [");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            write_record(schema, record_type, r, 2, &mut out);
        }
        if !records.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push(']');
    }
    out.push_str("\n}\n");
    out
}

fn write_record(schema: &Schema, record_type: &str, r: &Record, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push('{');
    let mut first = true;
    for (attr, field) in schema.attrs(record_type).iter().zip(r.fields()) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        push_string(out, attr);
        out.push_str(": ");
        match field {
            Field::Prim(v) => match v {
                Value::Str(s) => push_string(out, s.as_str()),
                other => {
                    let _ = write!(out, "{other}");
                }
            },
            Field::Children(children) => {
                out.push('[');
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    write_record(schema, attr, c, indent + 1, out);
                }
                if !children.is_empty() {
                    out.push('\n');
                    out.push_str(&pad);
                }
                out.push(']');
            }
        }
    }
    out.push('}');
}

/// Appends `s` as a JSON string literal that [`parse_document`] reads
/// back as `s`: `"`, `\\` and the common control characters get their
/// short escapes, every other control character a `\u00XX` escape, and
/// everything else is raw UTF-8.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl Lexer<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::Syntax {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // ASCII bytes or whole chars, so it sits on a char
                    // boundary.
                    let ch = self.src[self.pos..].chars().next().expect("nonempty");
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::str(self.string()?)),
            Some(b't') => {
                self.keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
                    return Err(self.err("floating-point numbers are not supported"));
                }
                self.src[start..self.pos]
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| self.err("integer out of range"))
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.src[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamite_schema::Schema;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::parse(
                "@document
                 Univ { id: Int, name: String, Admit { uid: Int, count: Int } }",
            )
            .unwrap(),
        )
    }

    const DOC: &str = r#"{
      "Univ": [
        { "id": 1, "name": "U1", "Admit": [ {"uid": 1, "count": 10}, {"uid": 2, "count": 50} ] },
        { "id": 2, "name": "U2", "Admit": [ {"uid": 2, "count": 20}, {"uid": 1, "count": 40} ] }
      ]
    }"#;

    #[test]
    fn parses_figure2_input() {
        let inst = parse_document(DOC, schema()).unwrap();
        assert_eq!(inst.records("Univ").len(), 2);
        assert_eq!(inst.num_records(), 6);
        assert_eq!(inst.records("Univ")[0].prim(1), Some(&Value::str("U1")));
    }

    #[test]
    fn round_trip() {
        let inst = parse_document(DOC, schema()).unwrap();
        let text = write_document(&inst);
        let again = parse_document(&text, schema()).unwrap();
        assert!(inst.canon_eq(&again));
    }

    #[test]
    fn control_and_combining_characters_round_trip() {
        // Rust's `{:?}` escapes (`\u{301}`, `\0`, `\u{1f}`, …) are not
        // JSON, so the writer used to print documents the reader rejects.
        let name = "e\u{301}\0\u{1f}\u{200b}\u{7f}\u{85}\"\\/\n\r\t\u{8}\u{c}zürich";
        let mut inst = Instance::new(schema());
        let univ = Record::with_fields(vec![
            Value::Int(1).into(),
            Value::str(name).into(),
            Vec::<Record>::new().into(),
        ]);
        inst.insert("Univ", univ).unwrap();
        let text = write_document(&inst);
        let again = parse_document(&text, schema()).unwrap();
        assert_eq!(again.records("Univ")[0].prim(1), Some(&Value::str(name)));
        assert_eq!(write_document(&again), text);
        assert!(text.contains("e\u{301}\\u0000\\u001f\u{200b}\\u007f"));
    }

    #[test]
    fn out_of_order_keys_ok() {
        let doc = r#"{"Univ": [ {"name": "U1", "Admit": [], "id": 1} ]}"#;
        let inst = parse_document(doc, schema()).unwrap();
        assert_eq!(inst.records("Univ")[0].prim(0), Some(&Value::Int(1)));
    }

    #[test]
    fn missing_attribute_rejected() {
        let doc = r#"{"Univ": [ {"id": 1, "Admit": []} ]}"#;
        let err = parse_document(doc, schema()).unwrap_err();
        assert!(matches!(err, JsonError::Schema(_)));
    }

    #[test]
    fn unknown_record_type_rejected() {
        let doc = r#"{"College": []}"#;
        let err = parse_document(doc, schema()).unwrap_err();
        assert!(matches!(err, JsonError::Schema(_)));
    }

    #[test]
    fn floats_rejected() {
        let doc = r#"{"Univ": [ {"id": 1.5, "name": "U", "Admit": []} ]}"#;
        let err = parse_document(doc, schema()).unwrap_err();
        assert!(matches!(err, JsonError::Syntax { .. }));
    }

    #[test]
    fn string_escapes() {
        let doc = r#"{"Univ": [ {"id": 1, "name": "a\"bA\n", "Admit": []} ]}"#;
        let inst = parse_document(doc, schema()).unwrap();
        assert_eq!(
            inst.records("Univ")[0].prim(1),
            Some(&Value::str("a\"bA\n"))
        );
    }

    #[test]
    fn large_document_parses_in_linear_time() {
        // Re-validating the rest of the input per string character made
        // this quadratic: minutes for a few MB. Linear is well under a
        // second even in a debug build; the bound only catches the blowup.
        let mut doc = String::from(r#"{"Univ": ["#);
        let mut n = 0;
        while doc.len() < 2 << 20 {
            if n > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                r#"{{"id": {n}, "name": "université numéro {n}", "Admit": [{{"uid": {n}, "count": 1}}]}}"#
            ));
            n += 1;
        }
        doc.push_str("]}");
        let start = std::time::Instant::now();
        let inst = parse_document(&doc, schema()).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(inst.records("Univ").len(), n);
        assert!(elapsed.as_secs() < 60, "2 MB document took {elapsed:?}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let doc = r#"{"Univ": []} extra"#;
        assert!(parse_document(doc, schema()).is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        // Previously the second value silently overwrote the first.
        let doc = r#"{"Univ": [ {"id": 1, "id": 2, "name": "U", "Admit": []} ]}"#;
        let err = parse_document(doc, schema()).unwrap_err();
        assert!(matches!(err, JsonError::Schema(m) if m.contains("twice")));
    }

    #[test]
    fn truncated_document_is_a_syntax_error_not_a_panic() {
        for doc in [
            "",
            "{",
            r#"{"Univ""#,
            r#"{"Univ": ["#,
            r#"{"Univ": [ {"id": 1, "name": "U1", "Admit": ["#,
            r#"{"Univ": [ {"id": 1, "name": "unterminated"#,
            r#"{"Univ": [ {"id": 1, "name": "bad \u12"#,
        ] {
            let err = parse_document(doc, schema()).unwrap_err();
            assert!(matches!(err, JsonError::Syntax { .. }), "doc: {doc:?}");
        }
    }
}
