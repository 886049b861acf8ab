//! A small text DSL for schemas.
//!
//! Grammar (comments start with `//` or `#` and run to end of line):
//!
//! ```text
//! schema  := kind? record*
//! kind    := '@relational' | '@document' | '@graph'
//! record  := NAME '{' field (',' field)* ','? '}'
//! field   := NAME ':' prim        // primitive attribute
//!          | record               // nested record type
//! prim    := 'Int' | 'String' | 'Bool'
//! ```
//!
//! Records nest at most [`MAX_DEPTH`] levels deep.

use std::collections::HashMap;

use crate::error::SchemaError;
use crate::types::{DbKind, PrimType, Schema, TypeDef};

/// The deepest record nesting the parser accepts; a top-level record is
/// level 1. The parser recurses once per level, so the cap bounds its
/// stack use on hostile input.
const MAX_DEPTH: usize = 64;

/// Parses the schema DSL. See the module-level documentation for the grammar.
pub fn parse_schema(input: &str) -> Result<Schema, SchemaError> {
    let mut p = Parser {
        src: input.as_bytes(),
        pos: 0,
    };
    let mut kind = DbKind::Relational;
    p.skip_ws();
    if p.peek() == Some(b'@') {
        p.pos += 1;
        let word = p.ident()?;
        kind = match word.as_str() {
            "relational" => DbKind::Relational,
            "document" => DbKind::Document,
            "graph" => DbKind::Graph,
            other => {
                return Err(p.err(format!(
                    "unknown schema kind `@{other}` (expected @relational, @document, or @graph)"
                )))
            }
        };
    }
    let mut defs = HashMap::new();
    let mut top_level = Vec::new();
    let mut duplicate = None;
    p.skip_ws();
    while !p.at_end() {
        let name = p.record(&mut defs, &mut duplicate, 1)?;
        top_level.push(name);
        p.skip_ws();
    }
    if let Some(d) = duplicate {
        return Err(SchemaError::DuplicateName(d));
    }
    if top_level.is_empty() {
        return Err(SchemaError::Parse {
            message: "schema defines no record types".into(),
            offset: 0,
        });
    }
    Schema::from_parts(kind, defs, top_level)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: String) -> SchemaError {
        SchemaError::Parse {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'#') => self.skip_line(),
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => self.skip_line(),
                _ => break,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == b'\n' {
                break;
            }
        }
    }

    fn ident(&mut self) -> Result<String, SchemaError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected identifier".into()));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), SchemaError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    /// Parses one record definition at nesting level `depth`; installs it
    /// (and nested records) into `defs` and returns the record's name.
    fn record(
        &mut self,
        defs: &mut HashMap<String, TypeDef>,
        duplicate: &mut Option<String>,
        depth: usize,
    ) -> Result<String, SchemaError> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(self.err(format!("records nest deeper than {MAX_DEPTH} levels")));
        }
        let name = self.ident()?;
        self.expect(b'{')?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                break;
            }
            let save = self.pos;
            let field = self.ident()?;
            self.skip_ws();
            match self.peek() {
                Some(b':') => {
                    self.pos += 1;
                    self.skip_ws();
                    let ty = self.ident()?;
                    let prim = match ty.as_str() {
                        "Int" => PrimType::Int,
                        "String" | "Str" => PrimType::Str,
                        "Bool" => PrimType::Bool,
                        other => {
                            return Err(self.err(format!(
                                "unknown primitive type `{other}` (expected Int, String, Bool)"
                            )))
                        }
                    };
                    attrs.push(field.clone());
                    if defs.insert(field.clone(), TypeDef::Prim(prim)).is_some()
                        && duplicate.is_none()
                    {
                        *duplicate = Some(field);
                    }
                }
                Some(b'{') => {
                    // Nested record: re-parse from the name.
                    self.pos = save;
                    let nested = self.record(defs, duplicate, depth + 1)?;
                    attrs.push(nested);
                }
                _ => return Err(self.err("expected `:` or `{` after field name".into())),
            }
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            }
        }
        if defs.insert(name.clone(), TypeDef::Record(attrs)).is_some() && duplicate.is_none() {
            *duplicate = Some(name.clone());
        }
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_relational_default_kind() {
        let s = parse_schema("User { uid: Int, uname: String, addr: String }").unwrap();
        assert_eq!(s.kind(), DbKind::Relational);
        assert_eq!(s.attrs("User"), ["uid", "uname", "addr"]);
    }

    #[test]
    fn parses_trailing_commas_and_comments() {
        let s = parse_schema(
            "@document
             // universities
             Univ {
               id: Int,   # primary key
               name: String,
               Admit { uid: Int, count: Int, },
             }",
        )
        .unwrap();
        assert_eq!(s.prim_attrs(), vec!["id", "name", "uid", "count"]);
    }

    #[test]
    fn rejects_unknown_kind() {
        let e = parse_schema("@nosql T { a: Int }").unwrap_err();
        assert!(matches!(e, SchemaError::Parse { .. }));
    }

    #[test]
    fn rejects_unknown_type() {
        let e = parse_schema("T { a: Float128 }").unwrap_err();
        assert!(matches!(e, SchemaError::Parse { .. }));
    }

    #[test]
    fn rejects_duplicate_attribute_names_across_records() {
        let e = parse_schema("T { a: Int } U { a: Int }").unwrap_err();
        assert_eq!(e, SchemaError::DuplicateName("a".into()));
    }

    #[test]
    fn rejects_an_empty_record() {
        let e = parse_schema("T { }").unwrap_err();
        assert_eq!(e, SchemaError::EmptyRecord("T".into()));
    }

    /// `r1 { r2 { ... r{levels} { a: Int } ... } }`.
    fn nested(levels: usize) -> String {
        let mut s: String = (1..=levels).map(|i| format!("r{i} {{ ")).collect();
        s.push_str("a: Int");
        s.push_str(&" }".repeat(levels));
        s
    }

    #[test]
    fn accepts_nesting_up_to_the_cap() {
        let s = parse_schema(&nested(MAX_DEPTH)).unwrap();
        let parent = format!("r{}", MAX_DEPTH - 1);
        assert_eq!(s.parent(&format!("r{MAX_DEPTH}")), Some(parent.as_str()));
        let e = parse_schema(&nested(MAX_DEPTH + 1)).unwrap_err();
        let offset = nested(MAX_DEPTH).find("a: Int").unwrap();
        assert!(matches!(e, SchemaError::Parse { offset: o, .. } if o == offset));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Level `MAX_DEPTH + 1` starts after `MAX_DEPTH` copies of `a{`.
        let e = parse_schema(&"a{".repeat(1_000_000)).unwrap_err();
        let at = 2 * MAX_DEPTH;
        assert!(
            matches!(e, SchemaError::Parse { offset, .. } if offset == at),
            "{e:?}"
        );
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_schema("").is_err());
        assert!(parse_schema("   // nothing\n").is_err());
    }

    #[test]
    fn multiple_top_level_records() {
        let s = parse_schema(
            "@relational
             Emp { ename: String, deptId: Int }
             Dept { did: Int, dname: String }",
        )
        .unwrap();
        assert_eq!(
            s.top_level_records().collect::<Vec<_>>(),
            vec!["Emp", "Dept"]
        );
        assert_eq!(s.num_attrs(), 4);
    }
}
