//! Instance ⇄ Datalog fact translation (paper §3.3).
//!
//! *From instances to facts*: each record type `N` becomes an extensional
//! relation `R_N`; each record `r = {a1: v1, …, an: vn}` becomes a fact
//! `R_N(c0, c1, …, cn)` where `c0` is the parent's identifier when `N` is
//! nested, `ci` is `vi` for primitive attributes, and `ci` is `Id(r)` for
//! record-typed attributes.
//!
//! *From facts to instances*: `BuildRecord` rebuilds records recursively by
//! chasing identifiers from record-typed columns into the first column of
//! the nested relation (the paper's implementation indexes that column in
//! MongoDB, §5).
//!
//! Both directions resolve the schema once into [`RecordTypes`]: per
//! record type, its relation's slot and each attribute's primitive type
//! or child type, so no walk looks a name up per record. [`to_facts`]
//! builds every fact in one reused row buffer. [`from_facts`] links each
//! nested relation's rows by parent id once (the first row per id, then
//! a `next` link per row) and follows the links. That facts walk,
//! [`walk_facts`], also serves the flat tables of `flatten.rs`; a
//! [`FactSink`] decides what a fact becomes.

use std::fmt;
use std::sync::Arc;

use dynamite_schema::{PrimType, Schema, TypeDef};

use crate::database::{Database, Relation};
use crate::hash::FxHashMap;
use crate::record::{Field, Instance, InstanceError, Record};
use crate::tuple_store::RowRef;
use crate::value::Value;

/// Generator of fresh synthetic record identifiers.
#[derive(Debug, Default)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> IdGen {
        IdGen::default()
    }

    /// Returns a fresh identifier.
    pub fn fresh(&mut self) -> Value {
        let v = Value::Id(self.next);
        self.next += 1;
        v
    }
}

/// Errors raised while rebuilding instances from facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactsError {
    /// A relation's arity does not match what the schema dictates (§3.3).
    Arity {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// A rebuilt record failed schema validation (e.g. a value of the wrong
    /// primitive type in some column).
    Validation(InstanceError),
}

impl fmt::Display for FactsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactsError::Arity {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation `{relation}` has arity {got}, schema requires {expected}"
            ),
            FactsError::Validation(e) => write!(f, "invalid rebuilt record: {e}"),
        }
    }
}

impl std::error::Error for FactsError {}

impl From<InstanceError> for FactsError {
    fn from(e: InstanceError) -> FactsError {
        FactsError::Validation(e)
    }
}

/// Errors raised while parsing Soufflé-style `.facts` text.
///
/// Every variant carries the relation name and a 1-based line number, so
/// malformed external input produces a pinpointed diagnostic instead of a
/// panic deep inside tuple-store code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactsParseError {
    /// A row's column count differs from the preceding rows'.
    Ragged {
        relation: String,
        line: usize,
        expected: usize,
        got: usize,
    },
    /// A string cell ends in a dangling `\` or uses an escape other than
    /// `\\`, `\t`, `\n`, `\r`.
    BadEscape {
        relation: String,
        line: usize,
        column: usize,
    },
    /// The same relation appears twice in one file set.
    DuplicateRelation { relation: String },
}

impl fmt::Display for FactsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactsParseError::Ragged {
                relation,
                line,
                expected,
                got,
            } => write!(
                f,
                "{relation}.facts line {line}: row has {got} columns, expected {expected}"
            ),
            FactsParseError::BadEscape {
                relation,
                line,
                column,
            } => write!(
                f,
                "{relation}.facts line {line}, column {column}: bad escape sequence \
                 (only \\\\, \\t, \\n, \\r are recognized)"
            ),
            FactsParseError::DuplicateRelation { relation } => {
                write!(f, "relation `{relation}` appears more than once")
            }
        }
    }
}

impl std::error::Error for FactsParseError {}

/// Parses one relation's `.facts` text — the reader for the format
/// `dynamite_migrate::writers::render_facts` emits: one tab-separated row
/// per line, `\\`/`\t`/`\n`/`\r` escapes inside string cells, `#N` synthetic
/// identifiers, bare integers, and `true`/`false` booleans.
///
/// Like Soufflé's, the format is not self-describing: a cell that *looks*
/// numeric (or boolean, or like an id) is read as that value, so
/// `Value::Str("7")` does not survive a round trip as a string — schema
/// validation downstream ([`from_facts`]) is what assigns final types.
/// Blank lines are skipped; the relation's arity is fixed by its first
/// row, and a ragged row is a typed error, not a panic.
pub fn parse_facts(relation: &str, text: &str) -> Result<Relation, FactsParseError> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut arity: Option<usize> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let row = line
            .split('\t')
            .enumerate()
            .map(|(col, cell)| parse_cell(relation, idx + 1, col + 1, cell))
            .collect::<Result<Vec<Value>, FactsParseError>>()?;
        match arity {
            None => arity = Some(row.len()),
            Some(a) if a != row.len() => {
                return Err(FactsParseError::Ragged {
                    relation: relation.to_string(),
                    line: idx + 1,
                    expected: a,
                    got: row.len(),
                })
            }
            Some(_) => {}
        }
        rows.push(row);
    }
    let mut rel = Relation::new(arity.unwrap_or(0));
    for row in &rows {
        rel.insert(row);
    }
    Ok(rel)
}

/// Parses a set of `(file name, contents)` pairs — as produced by
/// `render_facts` — into a fact [`Database`]. A trailing `.facts`
/// extension on a name is stripped; the remainder is the relation name.
pub fn parse_facts_files<'a, I>(files: I) -> Result<Database, FactsParseError>
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut relations = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (name, text) in files {
        let relation = name.strip_suffix(".facts").unwrap_or(name);
        if !seen.insert(relation.to_string()) {
            return Err(FactsParseError::DuplicateRelation {
                relation: relation.to_string(),
            });
        }
        relations.push((relation.to_string(), parse_facts(relation, text)?));
    }
    Ok(Database::from_relations(relations))
}

fn parse_cell(
    relation: &str,
    line: usize,
    column: usize,
    cell: &str,
) -> Result<Value, FactsParseError> {
    if let Some(digits) = cell.strip_prefix('#') {
        if let Ok(n) = digits.parse::<u64>() {
            return Ok(Value::Id(n));
        }
    }
    if let Ok(n) = cell.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    match cell {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let mut s = String::with_capacity(cell.len());
    let mut chars = cell.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            s.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => s.push('\\'),
            Some('t') => s.push('\t'),
            Some('n') => s.push('\n'),
            Some('r') => s.push('\r'),
            _ => {
                return Err(FactsParseError::BadEscape {
                    relation: relation.to_string(),
                    line,
                    column,
                })
            }
        }
    }
    Ok(Value::str(s))
}

/// Translates a database instance into Datalog facts (§3.3).
pub fn to_facts(instance: &Instance) -> Database {
    let mut gen = IdGen::new();
    to_facts_with(instance, &mut gen)
}

/// Like [`to_facts`], but drawing identifiers from the supplied generator,
/// so several instances can share one id space.
///
/// Every record takes a fresh id, in depth-first order: top-level types
/// by name, records in order, each record before its children and the
/// children attribute by attribute. Every record type of the schema gets
/// a relation, empty or not.
pub fn to_facts_with(instance: &Instance, gen: &mut IdGen) -> Database {
    let types = RecordTypes::new(instance.schema());
    let mut rels: Vec<Relation> = types
        .types
        .iter()
        .map(|t| Relation::new(t.arity()))
        .collect();

    /// Inserts the fact of `record` (of type `k`) and then its
    /// children's, building each in the one `row` buffer.
    fn emit(
        types: &RecordTypes,
        rels: &mut [Relation],
        row: &mut Vec<Value>,
        gen: &mut IdGen,
        k: usize,
        record: &Record,
        parent: Option<Value>,
    ) {
        let my_id = gen.fresh();
        row.clear();
        row.extend(parent);
        row.extend(record.fields().iter().map(|field| match field {
            Field::Prim(v) => *v,
            Field::Children(_) => my_id,
        }));
        rels[k].insert(row);
        for ((_, attr), field) in types.types[k].attrs.iter().zip(record.fields()) {
            if let (Attr::Record(j), Field::Children(children)) = (attr, field) {
                for c in children {
                    emit(types, rels, row, gen, *j, c, Some(my_id));
                }
            }
        }
    }

    let mut row = Vec::new();
    for (record_type, records) in instance.iter() {
        let k = types.index(record_type).expect("top-level record type");
        for r in records {
            emit(&types, &mut rels, &mut row, gen, k, r, None);
        }
    }
    let names = types.types.into_iter().map(|t| t.name);
    Database::from_relations(names.zip(rels))
}

/// The up-front arity check of [`walk_facts`]: every non-empty relation
/// of `types` must have the arity §3.3 dictates.
fn check_arities(facts: &Database, types: &RecordTypes) -> Result<(), FactsError> {
    for t in &types.types {
        let expected = t.arity();
        if let Some(rel) = facts.relation(&t.name) {
            if !rel.is_empty() && rel.arity() != expected {
                return Err(FactsError::Arity {
                    relation: t.name.clone(),
                    expected,
                    got: rel.arity(),
                });
            }
        }
    }
    Ok(())
}

/// Rebuilds a database instance from Datalog facts over `schema`'s record
/// relations (the `BuildRecord` procedure of §3.3).
///
/// Relations missing from `facts` are treated as empty. Extra relations in
/// `facts` that are not record types of `schema` are ignored, and so are
/// child facts no parent reaches. A record's children come in fact order.
/// The error is that of `Instance::insert`'s validation of the first bad
/// record: after an arity check, the first value of the wrong primitive
/// type (an `Id` included), top-level types in declaration order, each
/// record's attributes in schema order and a record-typed attribute's
/// children before the next attribute.
pub fn from_facts(facts: &Database, schema: Arc<Schema>) -> Result<Instance, FactsError> {
    let types = RecordTypes::new(&schema);
    let mut roots: Vec<Vec<Record>> = vec![Vec::new(); types.types.len()];
    walk_facts(&types, facts, &mut BuildRecords, |k, record| {
        roots[k].push(record)
    })?;
    let mut instance = Instance::new(schema);
    for &k in &types.roots {
        instance.extend_valid(&types.types[k].name, std::mem::take(&mut roots[k]));
    }
    Ok(instance)
}

/// One record type of a schema, resolved once for the walks between
/// instances and facts.
#[derive(Debug, Clone)]
pub(crate) struct RecordType {
    pub(crate) name: String,
    /// Nested types' facts hold the parent's id in column 0.
    pub(crate) nested: bool,
    /// Each attribute, in schema order, and what its fact column holds.
    pub(crate) attrs: Vec<(String, Attr)>,
}

impl RecordType {
    /// The arity of the type's fact relation.
    pub(crate) fn arity(&self) -> usize {
        self.attrs.len() + usize::from(self.nested)
    }
}

/// What one attribute's fact column holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Attr {
    /// A primitive value of this type; `.1` is the attribute's position
    /// in [`Schema::prim_attrs`].
    Prim(PrimType, usize),
    /// The id the children's facts hold in column 0; the children are of
    /// record type `types[.0]`.
    Record(usize),
}

/// A schema's record types, resolved once per walk.
#[derive(Debug, Clone)]
pub(crate) struct RecordTypes {
    /// In [`Schema::records`] order.
    pub(crate) types: Vec<RecordType>,
    /// The top-level record types, in declaration order.
    pub(crate) roots: Vec<usize>,
}

impl RecordTypes {
    pub(crate) fn new(schema: &Schema) -> RecordTypes {
        let names: Vec<&str> = schema.records().collect();
        let type_of = |name: &str| names.iter().position(|&n| n == name).expect("record type");
        let prims = schema.prim_attrs();
        let types = names
            .iter()
            .map(|&name| RecordType {
                name: name.to_string(),
                nested: schema.is_nested(name),
                attrs: schema
                    .attrs(name)
                    .iter()
                    .map(|a| {
                        let kind = match schema.def(a).expect("schemas define every attribute") {
                            TypeDef::Record(_) => Attr::Record(type_of(a)),
                            TypeDef::Prim(t) => {
                                let p = prims.iter().position(|&p| p == a).expect("prim attr");
                                Attr::Prim(*t, p)
                            }
                        };
                        (a.clone(), kind)
                    })
                    .collect(),
            })
            .collect();
        RecordTypes {
            types,
            roots: schema.top_level_records().map(type_of).collect(),
        }
    }

    /// The index of record type `name`.
    pub(crate) fn index(&self, name: &str) -> Option<usize> {
        self.types.iter().position(|t| t.name == name)
    }
}

/// Builds one node per fact of a [`walk_facts`] walk.
pub(crate) trait FactSink {
    /// A node under construction.
    type Open;
    /// A finished node.
    type Node;
    /// Starts the node of `tuple`, a fact of record type `ty`, before any
    /// of its values is type-checked.
    fn open(&mut self, ty: &RecordType, tuple: RowRef<'_>) -> Self::Open;
    /// Adds the value of the next (primitive, well-typed) attribute.
    fn prim(&mut self, open: &mut Self::Open, v: Value);
    /// Adds the children of the next (record-typed) attribute.
    fn children(&mut self, open: &mut Self::Open, children: Vec<Self::Node>);
    /// Finishes the node of a fact of record type `k`.
    fn close(&mut self, k: usize, open: Self::Open) -> Self::Node;
}

/// End of a child list in [`Links::next`].
const NO_ROW: u32 = u32::MAX;

/// One record type's facts, with the rows of each parent id linked.
struct Links<'a> {
    /// The type's fact relation, if `facts` has one.
    rel: Option<&'a Relation>,
    /// Nested types: the first row of `rel` with each parent id; `next`
    /// links each row to the next with the same parent, ascending.
    first: FxHashMap<Value, u32>,
    next: Vec<u32>,
}

impl<'a> Links<'a> {
    fn new(facts: &'a Database, ty: &RecordType) -> Links<'a> {
        let rel = facts.relation(&ty.name);
        let mut first: FxHashMap<Value, u32> = FxHashMap::default();
        let mut next = Vec::new();
        if let Some(rel) = rel.filter(|r| ty.nested && !r.is_empty()) {
            let parents = rel.column(0);
            next.resize(parents.len(), NO_ROW);
            for i in (0..parents.len()).rev() {
                if let Some(later) = first.insert(parents.value(i), i as u32) {
                    next[i] = later;
                }
            }
        }
        Links { rel, first, next }
    }
}

/// The one facts walk (`BuildRecord`'s order): after the arity check,
/// builds the node of every fact reachable from a top-level one, depth
/// first, and hands each top-level node to `root` with its type. Checks
/// each primitive value's type in [`from_facts`]'s validation order and
/// stops at the first bad one.
pub(crate) fn walk_facts<S: FactSink>(
    types: &RecordTypes,
    facts: &Database,
    sink: &mut S,
    mut root: impl FnMut(usize, S::Node),
) -> Result<(), FactsError> {
    check_arities(facts, types)?;
    let links: Vec<Links<'_>> = types.types.iter().map(|t| Links::new(facts, t)).collect();
    for &k in &types.roots {
        if let Some(rel) = links[k].rel {
            for tuple in rel.iter() {
                root(k, visit(types, &links, sink, k, tuple)?);
            }
        }
    }
    Ok(())
}

/// The node of `tuple`, a fact of record type `k`, built depth first.
fn visit<S: FactSink>(
    types: &RecordTypes,
    links: &[Links<'_>],
    sink: &mut S,
    k: usize,
    tuple: RowRef<'_>,
) -> Result<S::Node, FactsError> {
    let ty = &types.types[k];
    let first_col = usize::from(ty.nested);
    let mut open = sink.open(ty, tuple);
    for (i, (name, attr)) in ty.attrs.iter().enumerate() {
        let v = tuple.at(first_col + i);
        match *attr {
            Attr::Prim(t, _) => {
                if v.prim_type() != Some(t) {
                    return Err(FactsError::Validation(InstanceError::FieldType {
                        record: ty.name.clone(),
                        attr: name.clone(),
                    }));
                }
                sink.prim(&mut open, v);
            }
            Attr::Record(j) => {
                let child = &links[j];
                let mut children = Vec::new();
                if let Some(rel) = child.rel {
                    let mut c = child.first.get(&v).copied().unwrap_or(NO_ROW);
                    while c != NO_ROW {
                        let fact = rel.get(c as usize).expect("row in range");
                        children.push(visit(types, links, sink, j, fact)?);
                        c = child.next[c as usize];
                    }
                }
                sink.children(&mut open, children);
            }
        }
    }
    Ok(sink.close(k, open))
}

/// The [`FactSink`] of [`from_facts`]: one [`Record`] per fact.
struct BuildRecords;

impl FactSink for BuildRecords {
    type Open = Vec<Field>;
    type Node = Record;

    fn open(&mut self, ty: &RecordType, _: RowRef<'_>) -> Vec<Field> {
        Vec::with_capacity(ty.attrs.len())
    }

    fn prim(&mut self, fields: &mut Vec<Field>, v: Value) {
        fields.push(Field::Prim(v));
    }

    fn children(&mut self, fields: &mut Vec<Field>, children: Vec<Record>) {
        fields.push(Field::Children(children));
    }

    fn close(&mut self, _: usize, fields: Vec<Field>) -> Record {
        Record::with_fields(fields)
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

    fn example_instance() -> Instance {
        // Figure 2(a) of the paper.
        let mut inst = Instance::new(schema());
        for (id, name, admits) in [
            (1, "U1", vec![(1, 10), (2, 50)]),
            (2, "U2", vec![(2, 20), (1, 40)]),
        ] {
            inst.insert(
                "Univ",
                Record::with_fields(vec![
                    Value::Int(id).into(),
                    Value::str(name).into(),
                    admits
                        .iter()
                        .map(|&(u, c)| Record::from_values(vec![u.into(), c.into()]))
                        .collect::<Vec<_>>()
                        .into(),
                ]),
            )
            .unwrap();
        }
        inst
    }

    #[test]
    fn example4_fact_shape() {
        // Example 4: Univ(1, "U1", id1), Admit(id1, 1, 10), …
        let facts = to_facts(&example_instance());
        let univ = facts.relation("Univ").unwrap();
        let admit = facts.relation("Admit").unwrap();
        assert_eq!(univ.len(), 2);
        assert_eq!(admit.len(), 4);
        assert_eq!(univ.arity(), 3);
        assert_eq!(admit.arity(), 3);
        // Each Univ fact's third column is an id that exactly the right two
        // Admit facts reference in their first column.
        for u in univ.iter() {
            let uid = u.at(2);
            assert!(uid.is_id());
            let children: Vec<_> = admit.iter().filter(|a| a.at(0) == uid).collect();
            assert_eq!(children.len(), 2);
        }
    }

    #[test]
    fn round_trip_preserves_canonical_instance() {
        let inst = example_instance();
        let back = from_facts(&to_facts(&inst), schema()).unwrap();
        assert!(inst.canon_eq(&back));
        assert_eq!(back.num_records(), 6);
    }

    #[test]
    fn missing_nested_relation_means_no_children() {
        let inst = example_instance();
        let mut facts = to_facts(&inst);
        facts = {
            // Rebuild a database without the Admit relation.
            let mut db = Database::new();
            let univ = facts.relation("Univ").unwrap();
            for t in univ.iter() {
                db.relation_mut("Univ", 3).insert_row(t);
            }
            db
        };
        let back = from_facts(&facts, schema()).unwrap();
        assert_eq!(back.records("Univ").len(), 2);
        assert!(back.records("Univ")[0].children(2).unwrap().is_empty());
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut db = Database::new();
        db.insert("Univ", vec![Value::Int(1)]);
        let err = from_facts(&db, schema()).unwrap_err();
        assert!(matches!(err, FactsError::Arity { .. }));
    }

    #[test]
    fn ill_typed_facts_are_rejected() {
        let mut db = Database::new();
        // name column holds an Int — violates the schema.
        db.insert("Univ", vec![Value::Int(1), Value::Int(99), Value::Id(0)]);
        let err = from_facts(&db, schema()).unwrap_err();
        assert!(matches!(err, FactsError::Validation(_)));
    }

    #[test]
    fn parse_facts_reads_the_rendered_format() {
        // Pins of `render_facts` output (see dynamite-migrate's writers
        // tests): ints, strings, and ids round-trip.
        let rel = parse_facts("Univ", "1\tU1\t#100\n2\tU2\t#200\n").unwrap();
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.len(), 2);
        let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(
            rows[0],
            vec![Value::Int(1), Value::str("U1"), Value::Id(100)]
        );
        assert_eq!(
            rows[1],
            vec![Value::Int(2), Value::str("U2"), Value::Id(200)]
        );
    }

    #[test]
    fn parse_facts_unescapes_structural_characters() {
        let rel = parse_facts("R", "a\\tb\tc\\nd\\\\e\n").unwrap();
        let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(rows, vec![vec![Value::str("a\tb"), Value::str("c\nd\\e")]]);
    }

    #[test]
    fn parse_facts_reads_bools_and_negative_ints() {
        let rel = parse_facts("R", "true\t-7\nfalse\t0\n").unwrap();
        let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(rows[0], vec![Value::Bool(true), Value::Int(-7)]);
        assert_eq!(rows[1], vec![Value::Bool(false), Value::Int(0)]);
    }

    #[test]
    fn ragged_row_is_a_typed_error_with_line_number() {
        let err = parse_facts("R", "1\t2\n1\t2\t3\n").unwrap_err();
        assert_eq!(
            err,
            FactsParseError::Ragged {
                relation: "R".to_string(),
                line: 2,
                expected: 2,
                got: 3,
            }
        );
    }

    #[test]
    fn bad_escape_is_a_typed_error() {
        let err = parse_facts("R", "oops\\q\n").unwrap_err();
        assert!(matches!(
            err,
            FactsParseError::BadEscape {
                line: 1,
                column: 1,
                ..
            }
        ));
        // Dangling backslash at end of cell.
        let err = parse_facts("R", "x\ttrailing\\\n").unwrap_err();
        assert!(matches!(err, FactsParseError::BadEscape { column: 2, .. }));
    }

    #[test]
    fn parse_facts_files_builds_a_database() {
        let db = parse_facts_files([
            ("Univ.facts", "1\tU1\t#0\n"),
            ("Admit.facts", "#0\t1\t10\n#0\t2\t50\n"),
        ])
        .unwrap();
        assert_eq!(db.relation("Univ").unwrap().len(), 1);
        assert_eq!(db.relation("Admit").unwrap().len(), 2);
        // The rebuilt facts pass the full §3.3 instance reconstruction.
        let inst = from_facts(&db, schema()).unwrap();
        assert_eq!(inst.num_records(), 3);

        let err = parse_facts_files([("R.facts", "1\n"), ("R", "2\n")]).unwrap_err();
        assert!(matches!(err, FactsParseError::DuplicateRelation { .. }));
    }

    #[test]
    fn shared_id_space() {
        let mut gen = IdGen::new();
        let a = to_facts_with(&example_instance(), &mut gen);
        let b = to_facts_with(&example_instance(), &mut gen);
        let ids = |db: &Database| -> std::collections::HashSet<Value> {
            db.relation("Univ")
                .unwrap()
                .iter()
                .map(|t| t.at(2))
                .collect()
        };
        assert!(ids(&a).is_disjoint(&ids(&b)));
    }
}
