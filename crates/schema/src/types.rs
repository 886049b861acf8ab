use std::collections::HashMap;
use std::fmt;

use crate::error::SchemaError;

/// Primitive attribute types supported by the schema formalism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimType {
    /// 64-bit signed integers.
    Int,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl fmt::Display for PrimType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimType::Int => write!(f, "Int"),
            PrimType::Str => write!(f, "String"),
            PrimType::Bool => write!(f, "Bool"),
        }
    }
}

/// Definition of a schema name: either a primitive type or a record type
/// listing its attribute names in declaration order (paper §3.1:
/// `T ::= τ | {N1, …, Nn}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDef {
    /// A primitive attribute.
    Prim(PrimType),
    /// A record type with ordered attribute names.
    Record(Vec<String>),
}

impl TypeDef {
    /// Returns `true` if this definition is a record type.
    pub fn is_record(&self) -> bool {
        matches!(self, TypeDef::Record(_))
    }
}

/// What kind of database a schema describes. Purely descriptive: the
/// formalism is uniform, but writers/readers and the paper's tables ("R",
/// "D", "G") distinguish the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DbKind {
    /// Relational database: flat top-level records only.
    #[default]
    Relational,
    /// Document database: records may nest.
    Document,
    /// Graph database: node tables plus edge tables with
    /// `source`/`target` attributes (paper §3.1, Example 3).
    Graph,
}

impl DbKind {
    /// One-letter code used by Table 2 of the paper.
    pub fn code(self) -> &'static str {
        match self {
            DbKind::Relational => "R",
            DbKind::Document => "D",
            DbKind::Graph => "G",
        }
    }
}

impl fmt::Display for DbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbKind::Relational => write!(f, "relational"),
            DbKind::Document => write!(f, "document"),
            DbKind::Graph => write!(f, "graph"),
        }
    }
}

/// A validated schema: a mapping from names to type definitions with
/// globally unique names, acyclic nesting, and single-parent records.
///
/// Construct via [`Schema::parse`] (DSL).
#[derive(Debug, Clone)]
pub struct Schema {
    kind: DbKind,
    /// Name -> definition.
    defs: HashMap<String, TypeDef>,
    /// Name -> containing record type (for both nested records and
    /// attributes). Top-level records have no parent.
    parent: HashMap<String, String>,
    /// Record type names in declaration order (top-level first, then
    /// nested in discovery order) for deterministic iteration.
    record_order: Vec<String>,
    /// Top-level record type names in declaration order.
    top_level: Vec<String>,
}

impl Schema {
    /// Parses a schema from the DSL (see [`crate::parse_schema`]).
    pub fn parse(input: &str) -> Result<Schema, SchemaError> {
        crate::dsl::parse_schema(input)
    }

    pub(crate) fn from_parts(
        kind: DbKind,
        defs: HashMap<String, TypeDef>,
        top_level: Vec<String>,
    ) -> Result<Schema, SchemaError> {
        // Validate: all referenced names defined; every record nonempty.
        for (name, def) in &defs {
            if let TypeDef::Record(attrs) = def {
                if attrs.is_empty() {
                    return Err(SchemaError::EmptyRecord(name.clone()));
                }
                for a in attrs {
                    if !defs.contains_key(a) {
                        return Err(SchemaError::UndefinedName(a.clone()));
                    }
                }
            }
        }
        // Compute parents; detect multiple parents.
        let mut parent: HashMap<String, String> = HashMap::new();
        for (name, def) in &defs {
            if let TypeDef::Record(attrs) = def {
                for a in attrs {
                    if parent.insert(a.clone(), name.clone()).is_some() {
                        return Err(SchemaError::MultipleParents(a.clone()));
                    }
                }
            }
        }
        // Detect nesting cycles by chasing parents.
        for name in defs.keys() {
            let mut seen = 0usize;
            let mut cur = name.as_str();
            while let Some(p) = parent.get(cur) {
                cur = p;
                seen += 1;
                if seen > defs.len() {
                    return Err(SchemaError::RecursiveType(name.clone()));
                }
            }
        }
        // Deterministic record order: top-level records in declaration
        // order, each followed by its nested records depth-first.
        let mut record_order = Vec::new();
        fn visit(name: &str, defs: &HashMap<String, TypeDef>, out: &mut Vec<String>) {
            if let Some(TypeDef::Record(attrs)) = defs.get(name) {
                out.push(name.to_string());
                for a in attrs {
                    visit(a, defs, out);
                }
            }
        }
        for t in &top_level {
            visit(t, &defs, &mut record_order);
        }
        Ok(Schema {
            kind,
            defs,
            parent,
            record_order,
            top_level,
        })
    }

    /// The database kind this schema describes.
    pub fn kind(&self) -> DbKind {
        self.kind
    }

    /// Looks up the definition of `name`.
    pub fn def(&self, name: &str) -> Option<&TypeDef> {
        self.defs.get(name)
    }

    /// Returns `true` if `name` is a record type.
    pub fn is_record(&self, name: &str) -> bool {
        matches!(self.defs.get(name), Some(TypeDef::Record(_)))
    }

    /// Returns `true` if `name` is a primitive attribute.
    pub fn is_prim(&self, name: &str) -> bool {
        matches!(self.defs.get(name), Some(TypeDef::Prim(_)))
    }

    /// The primitive type of attribute `name`, if it is one.
    pub fn prim_type(&self, name: &str) -> Option<PrimType> {
        match self.defs.get(name) {
            Some(TypeDef::Prim(t)) => Some(*t),
            _ => None,
        }
    }

    /// Ordered attribute names of record type `record`.
    pub fn attrs(&self, record: &str) -> &[String] {
        match self.defs.get(record) {
            Some(TypeDef::Record(attrs)) => attrs,
            _ => &[],
        }
    }

    /// The containing record of an attribute or nested record
    /// (`parent(N) = N'` iff `N ∈ S(N')`).
    pub fn parent(&self, name: &str) -> Option<&str> {
        self.parent.get(name).map(String::as_str)
    }

    /// Returns `true` if record type `record` is nested inside another record.
    pub fn is_nested(&self, record: &str) -> bool {
        self.is_record(record) && self.parent.contains_key(record)
    }

    /// Top-level record types in declaration order.
    pub fn top_level_records(&self) -> impl Iterator<Item = &str> {
        self.top_level.iter().map(String::as_str)
    }

    /// All record types (top-level first, nested depth-first), deterministic.
    pub fn records(&self) -> impl Iterator<Item = &str> {
        self.record_order.iter().map(String::as_str)
    }

    /// All primitive attributes of the whole schema, in record order
    /// (`PrimAttrbs(S)` in the paper).
    pub fn prim_attrs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for r in &self.record_order {
            for a in self.attrs(r) {
                if self.is_prim(a) {
                    out.push(a.as_str());
                }
            }
        }
        out
    }

    /// Primitive attributes of `record` and everything transitively nested
    /// in it (`PrimAttrbs(N)` in Algorithm 2).
    pub fn prim_attrs_of(&self, record: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack = vec![record];
        while let Some(r) = stack.pop() {
            // Depth-first, preserving attribute order by pushing in reverse.
            let attrs = self.attrs(r);
            for a in attrs {
                if self.is_prim(a) {
                    out.push(a.as_str());
                }
            }
            for a in attrs.iter().rev() {
                if self.is_record(a) {
                    stack.push(a.as_str());
                }
            }
        }
        out
    }

    /// The record type that attribute `attr` belongs to (`RecName(a)`).
    pub fn record_of(&self, attr: &str) -> Option<&str> {
        if self.is_prim(attr) {
            self.parent(attr)
        } else {
            None
        }
    }

    /// The nesting chain from the top-level ancestor down to `record`
    /// (inclusive): `[top, …, record]`.
    pub fn chain_to<'s>(&'s self, record: &'s str) -> Vec<&'s str> {
        let mut chain = vec![record];
        let mut cur = record;
        while let Some(p) = self.parent.get(cur) {
            chain.push(p.as_str());
            cur = p.as_str();
        }
        chain.reverse();
        chain
    }

    /// Number of columns in the Datalog relation for `record`: one per
    /// attribute plus a leading parent-id column when nested (§3.3).
    pub fn fact_arity(&self, record: &str) -> usize {
        let n = self.attrs(record).len();
        if self.is_nested(record) {
            n + 1
        } else {
            n
        }
    }

    /// Total number of record types.
    pub fn num_records(&self) -> usize {
        self.record_order.len()
    }

    /// Total number of attributes across all record types (primitive and
    /// record-typed), as counted by Table 2 of the paper.
    pub fn num_attrs(&self) -> usize {
        self.record_order.iter().map(|r| self.attrs(r).len()).sum()
    }

    /// Renders the schema back to DSL syntax.
    pub fn to_dsl(&self) -> String {
        fn render(s: &Schema, record: &str, indent: usize, out: &mut String) {
            out.push_str(&"  ".repeat(indent));
            out.push_str(record);
            out.push_str(" {\n");
            for a in s.attrs(record) {
                match s.def(a) {
                    Some(TypeDef::Prim(t)) => {
                        out.push_str(&"  ".repeat(indent + 1));
                        out.push_str(&format!("{a}: {t},\n"));
                    }
                    Some(TypeDef::Record(_)) => {
                        render(s, a, indent + 1, out);
                    }
                    None => unreachable!("validated schema"),
                }
            }
            out.push_str(&"  ".repeat(indent));
            out.push_str("}\n");
        }
        let mut out = format!("@{}\n", self.kind);
        for t in &self.top_level {
            render(self, t, 0, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn univ() -> Schema {
        Schema::parse(
            "@document
             Univ { id: Int, name: String, Admit { uid: Int, count: Int } }",
        )
        .unwrap()
    }

    #[test]
    fn motivating_example_queries() {
        let s = univ();
        assert_eq!(s.top_level_records().collect::<Vec<_>>(), vec!["Univ"]);
        assert_eq!(s.records().collect::<Vec<_>>(), vec!["Univ", "Admit"]);
        assert!(s.is_nested("Admit"));
        assert!(!s.is_nested("Univ"));
        assert_eq!(s.parent("Admit"), Some("Univ"));
        assert_eq!(s.parent("count"), Some("Admit"));
        assert_eq!(s.prim_attrs(), vec!["id", "name", "uid", "count"]);
        assert_eq!(s.prim_attrs_of("Univ"), vec!["id", "name", "uid", "count"]);
        assert_eq!(s.prim_attrs_of("Admit"), vec!["uid", "count"]);
        assert_eq!(s.record_of("count"), Some("Admit"));
        assert_eq!(s.chain_to("Admit"), vec!["Univ", "Admit"]);
        assert_eq!(s.chain_to("Univ"), vec!["Univ"]);
        assert_eq!(s.fact_arity("Univ"), 3);
        assert_eq!(s.fact_arity("Admit"), 3);
        assert_eq!(s.num_records(), 2);
        assert_eq!(s.num_attrs(), 5);
    }

    #[test]
    fn dsl_round_trip() {
        let s = univ();
        let s2 = Schema::parse(&s.to_dsl()).unwrap();
        assert_eq!(s2.prim_attrs(), s.prim_attrs());
        assert_eq!(s2.kind(), DbKind::Document);
        assert_eq!(
            s2.records().collect::<Vec<_>>(),
            s.records().collect::<Vec<_>>()
        );
    }

    #[test]
    fn fact_arity_counts_parent_column() {
        let s = univ();
        // Admit is nested: uid, count plus the parent-id column.
        assert_eq!(s.fact_arity("Admit"), 3);
    }

    #[test]
    fn deep_nesting_chain() {
        let s = Schema::parse(
            "@document
             A { x: Int, B { y: Int, C { z: Int } } }",
        )
        .unwrap();
        assert_eq!(s.chain_to("C"), vec!["A", "B", "C"]);
        assert_eq!(s.prim_attrs_of("A"), vec!["x", "y", "z"]);
        assert_eq!(s.fact_arity("C"), 2);
    }

    #[test]
    fn prim_attrs_of_respects_order_with_siblings() {
        let s = Schema::parse(
            "@document
             A { x: Int, B { y: Int }, C { z: Int }, w: Int }",
        )
        .unwrap();
        assert_eq!(s.prim_attrs_of("A"), vec!["x", "w", "y", "z"]);
    }
}
