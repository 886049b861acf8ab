//! Canonical, id-free flattening of instances.
//!
//! The paper compares the actual Datalog output `O′` against the expected
//! output `O` (§4.1) and computes minimal distinguishing projections over
//! output *attributes* (§4.3). When the target schema contains nested
//! records, raw output facts carry synthetic record identifiers that differ
//! between runs, so fact-level comparison is not meaningful. Flattening
//! eliminates identifiers: each record type `N` becomes a table whose
//! columns are the primitive attributes of `N`'s ancestors followed by
//! `N`'s own primitive attributes, and whose rows are the root-to-record
//! paths. Two instances have equal flattenings iff they agree on all data
//! and all parent/child groupings, independent of id values, record order,
//! and duplicates.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dynamite_schema::{PrimType, Schema, TypeDef};

use crate::database::{Database, Relation};
use crate::facts::{check_arities, FactsError};
use crate::hash::FxHashMap;
use crate::record::{Field, Instance, InstanceError, Record};
use crate::tuple_store::RowRef;
use crate::value::Value;

/// One flattened table: named columns plus a canonical row set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTable {
    /// Column names: ancestor primitive attributes (outermost first), then
    /// the record type's own primitive attributes, in schema order.
    pub columns: Vec<String>,
    /// Canonical set of rows.
    pub rows: BTreeSet<Vec<Value>>,
}

impl FlatTable {
    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Projects the rows onto the given column indices (set semantics).
    pub fn project(&self, cols: &[usize]) -> BTreeSet<Vec<Value>> {
        self.rows
            .iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect()
    }
}

/// The canonical flattening of an instance: one [`FlatTable`] per record
/// type (including nested types), keyed by record type name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flattened(pub BTreeMap<String, FlatTable>);

impl Flattened {
    /// The table for record type `name`.
    pub fn table(&self, name: &str) -> Option<&FlatTable> {
        self.0.get(name)
    }

    /// Iterates `(record type, table)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FlatTable)> {
        self.0.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// The flattening of the instance [`from_facts`](crate::from_facts)
    /// rebuilds from `facts`, read straight off the facts: equal to
    /// `from_facts(facts, schema)?.flatten()` and failing in exactly the
    /// same cases with the same error (an arity mismatch, or the first
    /// value of the wrong primitive type — an `Id` included — in
    /// `from_facts`'s validation order), without building the records.
    /// Child facts no parent reaches are ignored, as `BuildRecord` does.
    ///
    /// This is the CEGIS candidate check's path from a candidate's output
    /// to the comparison with the expected flattening: it collects each
    /// table's rows and builds its row set in bulk.
    pub fn from_facts(facts: &Database, schema: &Schema) -> Result<Flattened, FactsError> {
        check_arities(facts, schema)?;
        let names: Vec<&str> = schema.records().collect();
        let plans: Vec<Plan<'_>> = names
            .iter()
            .map(|&name| Plan::new(facts, schema, &names, name))
            .collect();
        let mut rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); plans.len()];
        for top in schema.top_level_records() {
            let k = names.iter().position(|&n| n == top).expect("record type");
            if let Some(rel) = plans[k].rel {
                for tuple in rel.iter() {
                    walk_facts(&plans, &mut rows, k, tuple, &[])?;
                }
            }
        }
        let tables = names
            .iter()
            .zip(rows)
            .map(|(&name, rows)| {
                let table = FlatTable {
                    columns: flat_columns(schema, name),
                    rows: rows.into_iter().collect(),
                };
                (name.to_string(), table)
            })
            .collect();
        Ok(Flattened(tables))
    }
}

/// One record type of a [`Flattened::from_facts`] walk.
struct Plan<'a> {
    name: &'a str,
    /// The type's fact relation, if `facts` has one.
    rel: Option<&'a Relation>,
    /// 1 for nested types (column 0 holds the parent id), else 0.
    first_col: usize,
    attrs: Vec<(&'a str, Attr)>,
    /// Nested types: the rows of `rel` by parent id, ascending (the
    /// order `from_facts`'s parent-id index yields them in).
    by_parent: FxHashMap<Value, Vec<usize>>,
}

/// What one attribute's fact column holds.
enum Attr {
    /// A primitive value of this type.
    Prim(PrimType),
    /// The id the children's facts hold in column 0; the children are
    /// of the record type `plans[i]` walks.
    Record(usize),
}

impl<'a> Plan<'a> {
    fn new(facts: &'a Database, schema: &'a Schema, names: &[&str], name: &'a str) -> Plan<'a> {
        let rel = facts.relation(name);
        let nested = schema.is_nested(name);
        let attrs = schema
            .attrs(name)
            .iter()
            .map(|a| {
                let kind = match schema.def(a).expect("schemas define every attribute") {
                    TypeDef::Record(_) => {
                        Attr::Record(names.iter().position(|n| n == a).expect("record type"))
                    }
                    TypeDef::Prim(t) => Attr::Prim(*t),
                };
                (a.as_str(), kind)
            })
            .collect();
        let mut by_parent: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
        if let Some(rel) = rel.filter(|r| nested && !r.is_empty()) {
            for (i, parent) in rel.column(0).iter().enumerate() {
                by_parent.entry(parent).or_default().push(i);
            }
        }
        Plan {
            name,
            rel,
            first_col: usize::from(nested),
            attrs,
            by_parent,
        }
    }
}

/// Emits the flat row of `tuple` (a fact of record type `plans[k]`) and,
/// depth first, its children's, validating in `from_facts`'s order: the
/// attributes in schema order, each record-typed one's children before
/// the next attribute.
fn walk_facts(
    plans: &[Plan<'_>],
    rows: &mut [Vec<Vec<Value>>],
    k: usize,
    tuple: RowRef<'_>,
    prefix: &[Value],
) -> Result<(), FactsError> {
    let plan = &plans[k];
    let mut row = prefix.to_vec();
    for (i, (_, attr)) in plan.attrs.iter().enumerate() {
        if let Attr::Prim(_) = attr {
            row.push(tuple.at(plan.first_col + i));
        }
    }
    for (i, (name, attr)) in plan.attrs.iter().enumerate() {
        let v = tuple.at(plan.first_col + i);
        match attr {
            Attr::Prim(t) => {
                if v.prim_type() != Some(*t) {
                    return Err(FactsError::Validation(InstanceError::FieldType {
                        record: plan.name.to_string(),
                        attr: name.to_string(),
                    }));
                }
            }
            Attr::Record(j) => {
                let child = &plans[*j];
                let (Some(rel), Some(ids)) = (child.rel, child.by_parent.get(&v)) else {
                    continue;
                };
                for &c in ids {
                    let fact = rel.get(c).expect("index in range");
                    walk_facts(plans, rows, *j, fact, &row)?;
                }
            }
        }
    }
    rows[k].push(row);
    Ok(())
}

/// The columns of record type `record`'s flat table: the primitive
/// attributes of its ancestors (outermost first), then its own.
fn flat_columns(schema: &Schema, record: &str) -> Vec<String> {
    schema
        .chain_to(record)
        .into_iter()
        .flat_map(|ancestor| schema.attrs(ancestor))
        .filter(|a| schema.is_prim(a))
        .cloned()
        .collect()
}

impl fmt::Display for Flattened {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, table) in &self.0 {
            writeln!(f, "{name}({}):", table.columns.join(", "))?;
            for row in &table.rows {
                let cells: Vec<String> = row.iter().map(Value::to_string).collect();
                writeln!(f, "  ({})", cells.join(", "))?;
            }
        }
        Ok(())
    }
}

/// Computes the canonical flattening of `instance`.
pub fn flatten(instance: &Instance) -> Flattened {
    let schema = instance.schema();
    let mut tables: BTreeMap<String, FlatTable> = BTreeMap::new();
    // Pre-create a table for every record type so empty types still appear
    // (distinguishing "no records" from "type absent").
    for record in schema.records() {
        tables.insert(
            record.to_string(),
            FlatTable {
                columns: flat_columns(schema, record),
                rows: BTreeSet::new(),
            },
        );
    }

    fn walk(
        schema: &Schema,
        record_type: &str,
        record: &Record,
        prefix: &[Value],
        tables: &mut BTreeMap<String, FlatTable>,
    ) {
        let mut row: Vec<Value> = prefix.to_vec();
        for (attr, field) in schema.attrs(record_type).iter().zip(record.fields()) {
            if schema.is_prim(attr) {
                if let Field::Prim(v) = field {
                    row.push(*v);
                }
            }
        }
        tables
            .get_mut(record_type)
            .expect("all record types pre-created")
            .rows
            .insert(row.clone());
        for (attr, field) in schema.attrs(record_type).iter().zip(record.fields()) {
            if let Field::Children(children) = field {
                for c in children {
                    walk(schema, attr, c, &row, tables);
                }
            }
        }
    }

    for (record_type, records) in instance.iter() {
        for r in records {
            walk(schema, record_type, r, &[], &mut tables);
        }
    }
    Flattened(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamite_schema::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::parse(
                "@document
                 Univ { id: Int, name: String, Admit { uid: Int, count: Int } }",
            )
            .unwrap(),
        )
    }

    fn univ(id: i64, name: &str, admits: &[(i64, i64)]) -> Record {
        Record::with_fields(vec![
            Value::Int(id).into(),
            Value::str(name).into(),
            admits
                .iter()
                .map(|&(u, c)| Record::from_values(vec![u.into(), c.into()]))
                .collect::<Vec<_>>()
                .into(),
        ])
    }

    #[test]
    fn child_rows_carry_parent_attributes() {
        let mut inst = Instance::new(schema());
        inst.insert("Univ", univ(1, "U1", &[(2, 50)])).unwrap();
        let flat = flatten(&inst);
        let admit = flat.table("Admit").unwrap();
        assert_eq!(admit.columns, vec!["id", "name", "uid", "count"]);
        let row = admit.rows.iter().next().unwrap();
        assert_eq!(
            row,
            &vec![
                Value::Int(1),
                Value::str("U1"),
                Value::Int(2),
                Value::Int(50)
            ]
        );
    }

    #[test]
    fn grouping_differences_are_visible() {
        // Same multiset of parent and child data, different grouping.
        let mut a = Instance::new(schema());
        a.insert("Univ", univ(1, "U1", &[(1, 10)])).unwrap();
        a.insert("Univ", univ(2, "U2", &[(2, 20)])).unwrap();
        let mut b = Instance::new(schema());
        b.insert("Univ", univ(1, "U1", &[(2, 20)])).unwrap();
        b.insert("Univ", univ(2, "U2", &[(1, 10)])).unwrap();
        assert_ne!(flatten(&a), flatten(&b));
    }

    #[test]
    fn empty_record_types_present() {
        let inst = Instance::new(schema());
        let flat = flatten(&inst);
        assert!(flat.table("Univ").unwrap().rows.is_empty());
        assert!(flat.table("Admit").unwrap().rows.is_empty());
    }

    #[test]
    fn projection_by_column_name() {
        let mut inst = Instance::new(schema());
        inst.insert("Univ", univ(1, "U1", &[(1, 10), (2, 50)]))
            .unwrap();
        let flat = flatten(&inst);
        let admit = flat.table("Admit").unwrap();
        let c = admit.column_index("count").unwrap();
        let proj = admit.project(&[c]);
        assert_eq!(proj.len(), 2);
        assert!(proj.contains(&vec![Value::Int(10)]));
    }
}
