//! Text parser for Datalog programs, Soufflé-flavoured:
//!
//! ```text
//! program  := clause*
//! clause   := atoms ( ':-' literals )? '.'
//! atoms    := atom (',' atom)*            // multi-head shorthand
//! literals := literal (',' literal)*
//! literal  := '!'? atom
//! atom     := NAME '(' term (',' term)* ')'
//! term     := NAME | '_' | INT | STRING | 'true' | 'false'
//! ```
//!
//! Identifiers starting with a letter or `_` are variables or relation
//! names depending on position. Comments `//` run to end of line (`#` is
//! reserved for synthetic id constants like `#7`).

use std::fmt;

use dynamite_instance::Value;

use crate::ast::{Atom, Literal, Program, Rule, Term};

/// A parse failure, with byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "datalog parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a Datalog program.
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    let mut p = Parser { src: input, pos: 0 };
    let mut rules = Vec::new();
    p.skip_ws();
    while !p.at_end() {
        rules.push(p.rule()?);
        p.skip_ws();
    }
    Ok(Program::new(rules))
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
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
        loop {
            while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'/') => {
                    self.skip_line()
                }
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

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if !matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == b'_') {
            return Err(self.err("expected identifier"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let mut heads = vec![self.atom()?];
        loop {
            self.skip_ws();
            if self.eat(b'.') {
                return Ok(Rule {
                    heads,
                    body: vec![],
                });
            }
            if self.eat(b',') {
                heads.push(self.atom()?);
                continue;
            }
            break;
        }
        self.skip_ws();
        if !(self.eat(b':') && self.eat(b'-')) {
            return Err(self.err("expected `:-`, `,`, or `.` after head"));
        }
        let mut body = vec![self.literal()?];
        while self.eat(b',') {
            body.push(self.literal()?);
        }
        self.expect(b'.')?;
        Ok(Rule { heads, body })
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        self.skip_ws();
        let negated = self.eat(b'!');
        Ok(Literal {
            atom: self.atom()?,
            negated,
        })
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let relation = self.ident()?;
        self.expect(b'(')?;
        let mut terms = vec![self.term()?];
        while self.eat(b',') {
            terms.push(self.term()?);
        }
        self.expect(b')')?;
        Ok(Atom { relation, terms })
    }

    /// Decodes the escape after a `\\` in a string literal: every escape
    /// that `Value`'s `Display` (Rust's `{:?}` for `str`) can emit.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'0') => '\0',
            Some(b'u') if self.src.as_bytes().get(self.pos + 1) == Some(&b'{') => {
                let start = self.pos + 2;
                let len = self.src[start..]
                    .find('}')
                    .ok_or_else(|| self.err("unterminated unicode escape"))?;
                let hex = &self.src[start..start + len];
                let c = Some(hex)
                    .filter(|h| h.len() <= 6 && h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("bad unicode escape in string"))?;
                self.pos = start + len + 1;
                return Ok(c);
            }
            _ => return Err(self.err("bad escape in string")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.peek() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            break;
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            s.push(self.escape()?);
                        }
                        Some(_) => {
                            // `pos` only ever advances by ASCII bytes or
                            // whole chars, so it sits on a char boundary.
                            let c = self.src[self.pos..].chars().next().expect("non-empty");
                            s.push(c);
                            self.pos += c.len_utf8();
                        }
                    }
                }
                Ok(Term::Const(Value::str(s)))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.pos += 1;
                }
                self.src[start..self.pos]
                    .parse::<i64>()
                    .map(|i| Term::Const(Value::Int(i)))
                    .map_err(|_| self.err("integer out of range"))
            }
            Some(b'#') => {
                // Synthetic identifier constant `#N` (printed by Display).
                self.pos += 1;
                let start = self.pos;
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.pos += 1;
                }
                self.src[start..self.pos]
                    .parse::<u64>()
                    .map(|i| Term::Const(Value::Id(i)))
                    .map_err(|_| self.err("bad id constant"))
            }
            _ => {
                let id = self.ident()?;
                Ok(match id.as_str() {
                    "_" => Term::Wildcard,
                    "true" => Term::Const(Value::Bool(true)),
                    "false" => Term::Const(Value::Bool(false)),
                    _ => Term::Var(id),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_motivating_program() {
        let p = parse_program(
            "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].heads[0].relation, "Admission");
        assert_eq!(p.rules[0].body.len(), 3);
        assert_eq!(p.rules[0].body[2].atom.terms[2], Term::Wildcard);
    }

    #[test]
    fn parses_multi_head() {
        let p = parse_program("A(x), B(x, y) :- C(x, y).").unwrap();
        assert_eq!(p.rules[0].heads.len(), 2);
    }

    #[test]
    fn parses_facts() {
        let p = parse_program("Edge(1, 2). Edge(2, 3).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.rules[0].body.is_empty());
    }

    #[test]
    fn parses_constants() {
        let p = parse_program(r#"A(x) :- B(x, "hi", -3, true, #7)."#).unwrap();
        let terms = &p.rules[0].body[0].atom.terms;
        assert_eq!(terms[1], Term::Const(Value::str("hi")));
        assert_eq!(terms[2], Term::Const(Value::Int(-3)));
        assert_eq!(terms[3], Term::Const(Value::Bool(true)));
        assert_eq!(terms[4], Term::Const(Value::Id(7)));
    }

    #[test]
    fn parses_negation() {
        let p = parse_program("A(x) :- B(x), !C(x).").unwrap();
        assert!(p.rules[0].body[1].negated);
    }

    #[test]
    fn comments_are_skipped() {
        let p =
            parse_program("// rule one\nA(x) :- B(x). // trailing\n// full line\nC(y) :- D(y).")
                .unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn round_trip_display_parse() {
        // String constants with UTF-8 and the escapes `Value`'s `Display`
        // prints for control and invisible characters.
        let src = r#"A(x, y) :- B(x, z), !C(z, "s"), D(3, _).
E(q) :- F(q, true).
G(x) :- H(x, "café", "a\rb\0", "\"q\" \\ 't'", "zw\u{200b}j\u{7f}").
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(
            p.rules[2].body[0].atom.terms[1..3],
            [
                Term::Const(Value::str("café")),
                Term::Const(Value::str("a\rb\0"))
            ]
        );
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn rejects_malformed_unicode_escapes() {
        for src in [
            r#"A("\u{}")."#,
            r#"A("\u{d800}")."#,
            r#"A("\u{1234567}")."#,
            r#"A("\u{+41}")."#,
            r#"A("\u{41")."#,
            r#"A("\u41")."#,
        ] {
            assert!(parse_program(src).is_err(), "{src}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_program("A(x) : B(x).").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn rejects_missing_period() {
        assert!(parse_program("A(x) :- B(x)").is_err());
    }
}
