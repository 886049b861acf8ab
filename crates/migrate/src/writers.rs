//! Output writers: render migrated instances in the natural format of
//! their database kind (JSON documents, CSV tables, graph node/edge
//! lists).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dynamite_instance::{write_document, Database, Field, Instance, Value};
use dynamite_schema::DbKind;

/// Renders `instance` according to its schema's [`DbKind`]: one output
/// "file" per top-level record type for relational/graph schemas, or a
/// single `document.json` for document schemas.
pub fn render(instance: &Instance) -> BTreeMap<String, String> {
    match instance.schema().kind() {
        DbKind::Document => {
            let mut m = BTreeMap::new();
            m.insert("document.json".to_string(), write_document(instance));
            m
        }
        DbKind::Relational => render_tables(instance, "csv"),
        DbKind::Graph => render_tables(instance, "graph"),
    }
}

/// Renders each top-level record type as a CSV table (`<name>.<ext>`),
/// header row first. Nested record attributes (absent in relational and
/// graph schemas, but tolerated) render as a child count.
fn render_tables(instance: &Instance, ext: &str) -> BTreeMap<String, String> {
    let schema = instance.schema();
    let mut out = BTreeMap::new();
    for (record_type, records) in instance.iter() {
        let attrs = schema.attrs(record_type);
        let mut s = String::new();
        s.push_str(&attrs.join(","));
        s.push('\n');
        for r in records {
            let cells: Vec<String> = r
                .fields()
                .iter()
                .map(|f| match f {
                    Field::Prim(v) => csv_cell(v),
                    Field::Children(c) => format!("<{} nested>", c.len()),
                })
                .collect();
            s.push_str(&cells.join(","));
            s.push('\n');
        }
        out.insert(format!("{record_type}.{ext}"), s);
    }
    out
}

/// Renders a fact database in Soufflé's tab-separated `.facts` format,
/// one "file" per relation (the export format of the paper's backend).
/// Rows stream straight off the columnar store's row views.
pub fn render_facts(db: &Database) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (name, rel) in db.iter() {
        let mut s = String::new();
        for row in rel.iter() {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    s.push('\t');
                }
                match v {
                    // Bare string content, Soufflé-style (no quotes), but
                    // with the format's structural characters escaped so a
                    // tab, newline or carriage return inside the value
                    // cannot change the row/column shape of the file.
                    Value::Str(sym) => {
                        for ch in sym.as_str().chars() {
                            match ch {
                                '\\' => s.push_str("\\\\"),
                                '\t' => s.push_str("\\t"),
                                '\n' => s.push_str("\\n"),
                                '\r' => s.push_str("\\r"),
                                c => s.push(c),
                            }
                        }
                    }
                    other => {
                        let _ = write!(s, "{other}");
                    }
                }
            }
            s.push('\n');
        }
        out.insert(format!("{name}.facts"), s);
    }
    out
}

fn csv_cell(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        other => other.to_string().trim_matches('"').to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamite_instance::Record;
    use dynamite_schema::Schema;
    use std::sync::Arc;

    #[test]
    fn relational_renders_csv() {
        let schema = Arc::new(Schema::parse("@relational T { a: Int, b: String }").unwrap());
        let mut inst = Instance::new(schema);
        inst.insert("T", Record::from_values(vec![1.into(), "x,y".into()]))
            .unwrap();
        let files = render(&inst);
        let csv = &files["T.csv"];
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("1,\"x,y\""));
    }

    #[test]
    fn document_renders_json() {
        let schema = Arc::new(Schema::parse("@document D { k: Int }").unwrap());
        let mut inst = Instance::new(schema.clone());
        inst.insert("D", Record::from_values(vec![5.into()]))
            .unwrap();
        let files = render(&inst);
        assert!(files.contains_key("document.json"));
        let parsed = dynamite_instance::parse_document(&files["document.json"], schema).unwrap();
        assert!(parsed.canon_eq(&inst));
    }

    #[test]
    fn facts_render_souffle_style() {
        let mut db = Database::new();
        db.insert("Univ", vec![1.into(), "U1".into(), Value::Id(100)]);
        db.insert("Univ", vec![2.into(), "U2".into(), Value::Id(200)]);
        db.insert("Admit", vec![Value::Id(100), 2.into(), 50.into()]);
        let files = render_facts(&db);
        assert_eq!(files["Univ.facts"], "1\tU1\t#100\n2\tU2\t#200\n");
        assert_eq!(files["Admit.facts"], "#100\t2\t50\n");
    }

    #[test]
    fn facts_escape_structural_characters() {
        let mut db = Database::new();
        db.insert("R", vec!["a\tb".into(), "c\nd\\e".into()]);
        let files = render_facts(&db);
        assert_eq!(files["R.facts"], "a\\tb\tc\\nd\\\\e\n");
    }

    #[test]
    fn rendered_facts_parse_back_bit_identically() {
        // Every cell kind the format carries: ints (negative and zero),
        // `#id` references, bools, plain strings, and strings holding
        // every escaped structural character.
        let mut db = Database::new();
        db.insert("Univ", vec![1.into(), "U1".into(), Value::Id(100)]);
        db.insert("Univ", vec![2.into(), "U2".into(), Value::Id(200)]);
        db.insert("Admit", vec![Value::Id(100), 2.into(), 50.into()]);
        db.insert("R", vec!["a\tb".into(), "c\nd\\e".into()]);
        // A raw `\r` before the row's newline would read back as a CRLF
        // line ending and vanish.
        db.insert("R", vec!["x\ry".into(), "cr\r".into()]);
        db.insert(
            "Mix",
            vec![Value::Bool(true), (-7).into(), "plain".into(), Value::Id(0)],
        );
        db.insert(
            "Mix",
            vec![
                Value::Bool(false),
                0.into(),
                "\\t is not a tab".into(),
                Value::Id(9),
            ],
        );
        let files = render_facts(&db);
        let back = dynamite_instance::parse_facts_files(
            files.iter().map(|(n, t)| (n.as_str(), t.as_str())),
        )
        .unwrap();
        // Set equality first (the headline contract)...
        assert_eq!(back, db);
        // ...then the stronger bit-identity: the same relations holding
        // the same rows in the same order, cell for cell.
        assert_eq!(back.iter().count(), db.iter().count());
        for ((name, rel), (back_name, back_rel)) in db.iter().zip(back.iter()) {
            assert_eq!(name, back_name);
            assert_eq!(rel.arity(), back_rel.arity(), "{name} arity");
            assert_eq!(rel.len(), back_rel.len(), "{name} row count");
            for (i, (row, back_row)) in rel.iter().zip(back_rel.iter()).enumerate() {
                let want: Vec<Value> = row.iter().collect();
                let got: Vec<Value> = back_row.iter().collect();
                assert_eq!(got, want, "{name} row {i}");
            }
        }
        // Re-rendering the parsed database reproduces the files byte for
        // byte, so export → import → export is a fixed point.
        assert_eq!(render_facts(&back), files);
        // The single-relation entry point agrees with the bulk one.
        for (file, text) in &files {
            let rel_name = file.strip_suffix(".facts").unwrap();
            let rel = dynamite_instance::parse_facts(rel_name, text).unwrap();
            assert_eq!(&rel, back.relation(rel_name).unwrap(), "{rel_name}");
        }
    }

    #[test]
    fn graph_renders_tables() {
        let schema =
            Arc::new(Schema::parse("@graph N { nid: Int } E { src: Int, dst: Int }").unwrap());
        let mut inst = Instance::new(schema);
        inst.insert("N", Record::from_values(vec![1.into()]))
            .unwrap();
        inst.insert("E", Record::from_values(vec![1.into(), 1.into()]))
            .unwrap();
        let files = render(&inst);
        assert!(files.contains_key("N.graph"));
        assert!(files.contains_key("E.graph"));
        assert!(files["E.graph"].contains("src,dst"));
    }

    #[test]
    fn quoted_cells_escape_quotes() {
        assert_eq!(csv_cell(&Value::str("a\"b")), "\"a\"\"b\"");
        // A bare line break of either kind would end the record early.
        assert_eq!(csv_cell(&Value::str("a\nb")), "\"a\nb\"");
        assert_eq!(csv_cell(&Value::str("a\rb")), "\"a\rb\"");
        assert_eq!(csv_cell(&Value::Int(3)), "3");
    }
}
