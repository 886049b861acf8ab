use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dynamite_schema::{Schema, TypeDef};

use crate::value::Value;

/// One field of a record: a primitive value or the list of nested child
/// records for a record-typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// A primitive value.
    Prim(Value),
    /// Instances of a nested record type.
    Children(Vec<Record>),
}

impl From<Value> for Field {
    fn from(v: Value) -> Field {
        Field::Prim(v)
    }
}

impl From<Vec<Record>> for Field {
    fn from(rs: Vec<Record>) -> Field {
        Field::Children(rs)
    }
}

/// A record instance: field values in the schema's attribute order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    fields: Vec<Field>,
}

impl Record {
    /// Builds a record from explicit fields (attribute order of the schema).
    pub fn with_fields(fields: Vec<Field>) -> Record {
        Record { fields }
    }

    /// Builds a flat record from primitive values only.
    pub fn from_values(values: Vec<Value>) -> Record {
        Record {
            fields: values.into_iter().map(Field::Prim).collect(),
        }
    }

    /// The fields in attribute order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The `i`-th field.
    pub fn field(&self, i: usize) -> Option<&Field> {
        self.fields.get(i)
    }

    /// The `i`-th field as a primitive value.
    pub fn prim(&self, i: usize) -> Option<&Value> {
        match self.fields.get(i) {
            Some(Field::Prim(v)) => Some(v),
            _ => None,
        }
    }

    /// The `i`-th field as nested children.
    pub fn children(&self, i: usize) -> Option<&[Record]> {
        match self.fields.get(i) {
            Some(Field::Children(c)) => Some(c),
            _ => None,
        }
    }
}

/// Errors raised when inserting records that do not match the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// The record type is not a top-level record of the schema.
    UnknownRecordType(String),
    /// The record has the wrong number of fields for its type.
    FieldCount {
        record: String,
        expected: usize,
        got: usize,
    },
    /// A field holds the wrong shape (primitive vs. children) or a value of
    /// the wrong primitive type.
    FieldType { record: String, attr: String },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::UnknownRecordType(n) => {
                write!(f, "`{n}` is not a top-level record type of the schema")
            }
            InstanceError::FieldCount {
                record,
                expected,
                got,
            } => write!(f, "record `{record}` expects {expected} fields, got {got}"),
            InstanceError::FieldType { record, attr } => {
                write!(f, "field `{attr}` of record `{record}` has the wrong type")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A database instance: for each top-level record type, a list of records.
///
/// Relational tables, JSON document collections, and graph node/edge tables
/// are all represented this way (graph edges are flat records with
/// source/target attributes; see paper §3.1, Example 3).
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    data: BTreeMap<String, Vec<Record>>,
}

impl Instance {
    /// Creates an empty instance of `schema`.
    pub fn new(schema: Arc<Schema>) -> Instance {
        let data = schema
            .top_level_records()
            .map(|r| (r.to_string(), Vec::new()))
            .collect();
        Instance { schema, data }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Validates `record` against record type `name` and inserts it.
    pub fn insert(&mut self, name: &str, record: Record) -> Result<(), InstanceError> {
        if !self.data.contains_key(name) {
            return Err(InstanceError::UnknownRecordType(name.to_string()));
        }
        self.validate(name, &record)?;
        self.data.get_mut(name).expect("checked").push(record);
        Ok(())
    }

    /// Appends records of top-level type `name` that are valid by
    /// construction, without validating them again (`from_facts` checks
    /// every value as it builds).
    pub(crate) fn extend_valid(&mut self, name: &str, records: Vec<Record>) {
        self.data
            .get_mut(name)
            .expect("top-level record type")
            .extend(records);
    }

    fn validate(&self, name: &str, record: &Record) -> Result<(), InstanceError> {
        let attrs = self.schema.attrs(name);
        if record.fields().len() != attrs.len() {
            return Err(InstanceError::FieldCount {
                record: name.to_string(),
                expected: attrs.len(),
                got: record.fields().len(),
            });
        }
        for (attr, field) in attrs.iter().zip(record.fields()) {
            match (self.schema.def(attr), field) {
                (Some(TypeDef::Prim(t)), Field::Prim(v)) => {
                    if v.prim_type() != Some(*t) {
                        return Err(InstanceError::FieldType {
                            record: name.to_string(),
                            attr: attr.clone(),
                        });
                    }
                }
                (Some(TypeDef::Record(_)), Field::Children(children)) => {
                    for c in children {
                        self.validate(attr, c)?;
                    }
                }
                _ => {
                    return Err(InstanceError::FieldType {
                        record: name.to_string(),
                        attr: attr.clone(),
                    })
                }
            }
        }
        Ok(())
    }

    /// The records of top-level type `name`.
    pub fn records(&self, name: &str) -> &[Record] {
        self.data.get(name).map_or(&[], Vec::as_slice)
    }

    /// Iterates `(record type, records)` for all top-level types.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Record])> {
        self.data.iter().map(|(n, rs)| (n.as_str(), rs.as_slice()))
    }

    /// Total number of records, including nested ones.
    pub fn num_records(&self) -> usize {
        fn count(r: &Record) -> usize {
            1 + r
                .fields()
                .iter()
                .map(|f| match f {
                    Field::Prim(_) => 0,
                    Field::Children(c) => c.iter().map(count).sum(),
                })
                .sum::<usize>()
        }
        self.data.values().flatten().map(count).sum()
    }

    /// Returns `true` if the instance holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.data.values().all(Vec::is_empty)
    }

    /// Canonical equality: equal iff the two instances have the same
    /// [flattening](crate::Flattened). This is invariant to record order,
    /// duplicate records, and synthetic identifier values, which makes it
    /// the right notion for comparing migration outputs (§4.1's
    /// `O′ = O` test).
    pub fn canon_eq(&self, other: &Instance) -> bool {
        crate::flatten::flatten(self) == crate::flatten::flatten(other)
    }

    /// Canonical flattening of this instance (see [`crate::Flattened`]).
    pub fn flatten(&self) -> crate::flatten::Flattened {
        crate::flatten::flatten(self)
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
    fn insert_and_query() {
        let mut inst = Instance::new(schema());
        inst.insert("Univ", univ(1, "U1", &[(1, 10), (2, 50)]))
            .unwrap();
        assert_eq!(inst.records("Univ").len(), 1);
        assert_eq!(inst.num_records(), 3);
        let r = &inst.records("Univ")[0];
        assert_eq!(r.prim(0), Some(&Value::Int(1)));
        assert_eq!(r.children(2).unwrap().len(), 2);
    }

    #[test]
    fn rejects_wrong_record_type() {
        let mut inst = Instance::new(schema());
        let err = inst
            .insert("Admit", Record::from_values(vec![]))
            .unwrap_err();
        assert_eq!(err, InstanceError::UnknownRecordType("Admit".into()));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let mut inst = Instance::new(schema());
        let err = inst
            .insert("Univ", Record::from_values(vec![1.into()]))
            .unwrap_err();
        assert!(matches!(err, InstanceError::FieldCount { .. }));
    }

    #[test]
    fn rejects_wrong_prim_type() {
        let mut inst = Instance::new(schema());
        let bad = Record::with_fields(vec![
            Value::str("oops").into(), // id must be Int
            Value::str("U1").into(),
            Vec::<Record>::new().into(),
        ]);
        let err = inst.insert("Univ", bad).unwrap_err();
        assert!(matches!(err, InstanceError::FieldType { .. }));
    }

    #[test]
    fn rejects_bad_nested_record() {
        let mut inst = Instance::new(schema());
        let bad = Record::with_fields(vec![
            Value::Int(1).into(),
            Value::str("U1").into(),
            vec![Record::from_values(vec![Value::str("no"), 10.into()])].into(),
        ]);
        let err = inst.insert("Univ", bad).unwrap_err();
        assert!(matches!(err, InstanceError::FieldType { .. }));
    }

    #[test]
    fn canon_eq_ignores_order_and_duplicates() {
        let mut a = Instance::new(schema());
        a.insert("Univ", univ(1, "U1", &[(1, 10)])).unwrap();
        a.insert("Univ", univ(2, "U2", &[(2, 20)])).unwrap();
        let mut b = Instance::new(schema());
        b.insert("Univ", univ(2, "U2", &[(2, 20)])).unwrap();
        b.insert("Univ", univ(1, "U1", &[(1, 10)])).unwrap();
        b.insert("Univ", univ(1, "U1", &[(1, 10)])).unwrap();
        assert!(a.canon_eq(&b));

        let mut c = Instance::new(schema());
        c.insert("Univ", univ(1, "U1", &[(1, 11)])).unwrap();
        c.insert("Univ", univ(2, "U2", &[(2, 20)])).unwrap();
        assert!(!a.canon_eq(&c));
    }
}
