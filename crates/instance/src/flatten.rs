//! Canonical, id-free flattening of instances, and its dictionary-encoded
//! form for the CEGIS candidate check.
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
//!
//! The synthesizer rejects almost every candidate, so it never builds
//! [`Value`] rows for one. A [`FlatCodec`] holds one value dictionary per
//! flat column name, i.e. per primitive attribute. A child table shares
//! its ancestors' dictionaries, so a parent's ids are valid as the prefix
//! of its children's rows. The expected outputs are encoded once, growing
//! the dictionaries ([`FlatCodec::learn`]). [`FlatCodec::encode`] walks a
//! candidate's output facts straight into [`IdTable`]s, whose rows are
//! sorted and distinct. A value missing from a dictionary gets a fresh id
//! for that call, past the dictionary's own ids. Ids are therefore
//! injective per column, and two tables encoded by one codec are equal
//! iff their id rows are. The MDP search (`dynamite_core::analyze`) takes
//! the ids as given.
//!
//! One facts walker serves both this module and `from_facts`: the
//! `walk_facts` of `facts.rs`, which checks every value in `from_facts`'s
//! validation order. `from_facts` builds a record per fact with it; the
//! codec emits a flat id row per fact instead, so no record is built.
//! [`Flattened::from_facts`] is that encoding, with empty dictionaries,
//! followed by [`FlatCodec::decode`]. [`flatten`] walks an [`Instance`]'s
//! records instead; it is the oracle the encoding is tested against.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dynamite_schema::Schema;

use crate::database::{Database, Relation};
use crate::facts::{walk_facts, Attr, FactSink, FactsError, RecordType, RecordTypes};
use crate::hash::FxHashMap;
use crate::record::{Field, Instance, Record};
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
    /// This is [`FlatCodec::encode`] with empty dictionaries, decoded.
    pub fn from_facts(facts: &Database, schema: &Schema) -> Result<Flattened, FactsError> {
        let codec = FlatCodec::new(schema);
        codec.encode(facts).map(|flat| codec.decode(&flat))
    }
}

/// A flat table in dictionary ids: `len` distinct rows of `width` ids,
/// row-major, in ascending lexicographic order. Column `c` holds the ids
/// of one dictionary, so equal tables (of one [`FlatCodec`]) mean equal
/// row sets.
///
/// The row count is stored, not derived from the ids: a zero-width table
/// (a record type with no primitive attribute in its chain) has the one
/// row `()` when the type has records and none when it has not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdTable {
    width: usize,
    len: usize,
    ids: Vec<u32>,
}

impl IdTable {
    /// The canonical table of `len` rows of `width` ids each, given
    /// row-major in any order, duplicates allowed. The rows are sorted on
    /// packed `u64` keys when the columns' bit widths (of their largest
    /// ids) sum to at most 64, else on the id slices.
    ///
    /// # Panics
    /// Panics if `ids.len() != width * len`.
    pub fn from_rows(width: usize, len: usize, ids: Vec<u32>) -> IdTable {
        assert_eq!(ids.len(), width * len, "row-major ids of `len` rows");
        if width == 0 {
            return IdTable {
                width,
                len: len.min(1),
                ids,
            };
        }
        let mut max = vec![0u32; width];
        for row in ids.chunks_exact(width) {
            for (m, &id) in max.iter_mut().zip(row) {
                *m = (*m).max(id);
            }
        }
        let bits: Vec<u32> = max.iter().map(|m| u32::BITS - m.leading_zeros()).collect();
        if bits.iter().sum::<u32>() <= u64::BITS {
            let mut keys: Vec<u64> = ids
                .chunks_exact(width)
                .map(|row| {
                    row.iter()
                        .zip(&bits)
                        .fold(0, |key, (&id, &b)| (key << b) | u64::from(id))
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut ids = ids;
            ids.truncate(keys.len() * width);
            for (row, mut key) in ids.chunks_exact_mut(width).zip(keys.iter().copied()) {
                for (id, &b) in row.iter_mut().zip(&bits).rev() {
                    *id = (key & ((1 << b) - 1)) as u32;
                    key >>= b;
                }
            }
            return IdTable {
                width,
                len: keys.len(),
                ids,
            };
        }
        let row = |i: usize| &ids[i * width..(i + 1) * width];
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        IdTable {
            width,
            len: order.len(),
            ids: order.iter().flat_map(|&i| row(i)).copied().collect(),
        }
    }

    /// Encodes flat tables that share columns with one dictionary per
    /// column, shared by all of them: two tables' ids in a column are
    /// equal iff their values are.
    ///
    /// # Panics
    /// Panics if the tables' columns differ.
    pub fn encode_flat<const N: usize>(tables: [&FlatTable; N]) -> [IdTable; N] {
        let width = tables.first().map_or(0, |t| t.columns.len());
        assert!(
            tables.iter().all(|t| t.columns == tables[0].columns),
            "flat tables must share columns"
        );
        let mut dicts = vec![Dict::default(); width];
        tables.map(|table| {
            let mut ids = Vec::with_capacity(table.rows.len() * width);
            for row in &table.rows {
                ids.extend(dicts.iter_mut().zip(row).map(|(d, &v)| d.intern(v)));
            }
            IdTable::from_rows(width, table.rows.len(), ids)
        })
    }

    /// The number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s ids.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[u32] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    /// The rows in ascending order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }
}

/// The flat tables of one instance in a [`FlatCodec`]'s ids.
#[derive(Debug, Clone)]
pub struct EncodedFlat {
    /// One table per record type, in the codec's order.
    tables: Vec<IdTable>,
    /// Per dictionary, the values of the fresh ids this encoding assigned,
    /// in id order (after the dictionary's own ids).
    fresh: Vec<Vec<Value>>,
}

impl EncodedFlat {
    /// The table of record type `k` (see [`FlatCodec::table_index`]).
    pub fn table(&self, k: usize) -> &IdTable {
        &self.tables[k]
    }
}

/// Value dictionaries for the flat tables of one schema, one per flat
/// column name (see the module docs).
#[derive(Debug, Clone)]
pub struct FlatCodec {
    /// The schema's record types, one table each, in
    /// [`Schema::records`] order.
    types: RecordTypes,
    /// Per record type, its table's shape.
    tables: Vec<Shape>,
    /// One dictionary per primitive attribute, in
    /// [`Schema::prim_attrs`] order (a primitive attribute's
    /// [`Attr::Prim`] position).
    dicts: Vec<Dict>,
}

/// The flat table of one record type of a [`FlatCodec`].
#[derive(Debug, Clone)]
struct Shape {
    /// The flat table's columns, as in [`FlatTable::columns`].
    columns: Vec<String>,
    /// Each column's dictionary.
    dicts: Vec<usize>,
}

/// Values and their dense ids, in first-seen order.
#[derive(Debug, Clone, Default)]
struct Dict {
    ids: FxHashMap<Value, u32>,
    values: Vec<Value>,
}

impl Dict {
    fn intern(&mut self, v: Value) -> u32 {
        match self.ids.entry(v) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.values.push(v);
                *e.insert(self.values.len() as u32 - 1)
            }
        }
    }
}

impl FlatCodec {
    /// A codec for `schema`'s flat tables, with empty dictionaries.
    pub fn new(schema: &Schema) -> FlatCodec {
        let prims = schema.prim_attrs();
        let dict_of = |attr: &str| prims.iter().position(|&a| a == attr).expect("prim attr");
        let types = RecordTypes::new(schema);
        let tables = types
            .types
            .iter()
            .map(|t| {
                let columns = flat_columns(schema, &t.name);
                Shape {
                    dicts: columns.iter().map(|c| dict_of(c)).collect(),
                    columns,
                }
            })
            .collect();
        FlatCodec {
            types,
            tables,
            dicts: vec![Dict::default(); prims.len()],
        }
    }

    /// The index of record type `name`'s table, if the schema has it.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.types.index(name)
    }

    /// Table `k`'s column names, as in [`FlatTable::columns`].
    pub fn columns(&self, k: usize) -> &[String] {
        &self.tables[k].columns
    }

    /// Encodes the flattening of `facts`, adding every value it meets to
    /// the dictionaries (so the result has no fresh ids). Errors as
    /// [`Flattened::from_facts`] does; the dictionaries may then hold
    /// values of the failed walk, which leaves ids injective.
    pub fn learn(&mut self, facts: &Database) -> Result<EncodedFlat, FactsError> {
        let dicts = &mut self.dicts;
        let tables = encode_facts(&self.types, &self.tables, facts, |d, v| dicts[d].intern(v))?;
        Ok(EncodedFlat {
            tables,
            fresh: vec![Vec::new(); dicts.len()],
        })
    }

    /// Encodes the flattening of `facts`, giving each value missing from
    /// a dictionary a fresh id for this call. Errors as
    /// [`Flattened::from_facts`] does.
    pub fn encode(&self, facts: &Database) -> Result<EncodedFlat, FactsError> {
        let mut fresh = vec![Dict::default(); self.dicts.len()];
        let tables = encode_facts(&self.types, &self.tables, facts, |d, v| {
            let dict = &self.dicts[d];
            match dict.ids.get(&v) {
                Some(&id) => id,
                None => dict.values.len() as u32 + fresh[d].intern(v),
            }
        })?;
        Ok(EncodedFlat {
            tables,
            fresh: fresh.into_iter().map(|d| d.values).collect(),
        })
    }

    /// The value rows of `flat`, which this codec returned with no
    /// [`learn`](Self::learn) since (a later `learn` reuses the ids
    /// `flat`'s fresh values took).
    pub fn decode(&self, flat: &EncodedFlat) -> Flattened {
        let value = |d: usize, id: u32| {
            let own = &self.dicts[d].values;
            match own.get(id as usize) {
                Some(&v) => v,
                None => flat.fresh[d][id as usize - own.len()],
            }
        };
        let tables = self
            .types
            .types
            .iter()
            .zip(&self.tables)
            .zip(&flat.tables)
            .map(|((ty, shape), table)| {
                let rows = table
                    .rows()
                    .map(|row| row.iter().zip(&shape.dicts).map(|(&id, &d)| value(d, id)))
                    .map(Iterator::collect)
                    .collect();
                let table = FlatTable {
                    columns: shape.columns.clone(),
                    rows,
                };
                (ty.name.clone(), table)
            })
            .collect();
        Flattened(tables)
    }
}

/// The [`FactSink`] of the flat encoding: each fact's node is its flat
/// row, the path of ids from its root, emitted when the fact closes.
struct FlatRows<F> {
    /// Per record type: its rows so far (row-major ids) and their count.
    out: Vec<(Vec<u32>, usize)>,
    /// The ids of the current root-to-record path.
    path: Vec<u32>,
    /// The id of a value in a dictionary.
    id_of: F,
}

impl<F: FnMut(usize, Value) -> u32> FactSink for FlatRows<F> {
    /// The path length before the fact's own ids.
    type Open = usize;
    type Node = ();

    fn open(&mut self, ty: &RecordType, tuple: RowRef<'_>) -> usize {
        let base = self.path.len();
        let first_col = usize::from(ty.nested);
        for (i, (_, attr)) in ty.attrs.iter().enumerate() {
            if let Attr::Prim(_, d) = *attr {
                let id = (self.id_of)(d, tuple.at(first_col + i));
                self.path.push(id);
            }
        }
        base
    }

    fn prim(&mut self, _: &mut usize, _: Value) {}

    fn children(&mut self, _: &mut usize, _: Vec<()>) {}

    fn close(&mut self, k: usize, base: usize) {
        let (ids, len) = &mut self.out[k];
        ids.extend_from_slice(&self.path);
        *len += 1;
        self.path.truncate(base);
    }
}

/// Encodes every root-to-record path of `facts` through
/// `id_of(dictionary, value)`, failing as `from_facts` does.
fn encode_facts<F: FnMut(usize, Value) -> u32>(
    types: &RecordTypes,
    tables: &[Shape],
    facts: &Database,
    id_of: F,
) -> Result<Vec<IdTable>, FactsError> {
    let out = types
        .types
        .iter()
        .zip(tables)
        .map(|(t, shape)| {
            let rows = facts.relation(&t.name).map_or(0, Relation::len);
            (Vec::with_capacity(rows * shape.columns.len()), 0)
        })
        .collect();
    let mut sink = FlatRows {
        out,
        path: Vec::new(),
        id_of,
    };
    walk_facts(types, facts, &mut sink, |_, ()| {})?;
    Ok(sink
        .out
        .into_iter()
        .zip(tables)
        .map(|((ids, len), shape)| IdTable::from_rows(shape.columns.len(), len, ids))
        .collect())
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

    /// `from_rows` sorts and deduplicates, on packed keys (narrow ids) and
    /// on id slices (ids too wide to pack), into the same order.
    #[test]
    fn id_rows_are_sorted_and_distinct_on_both_paths() {
        let rows: Vec<[u32; 3]> = vec![[2, 0, 1], [0, 5, 5], [2, 0, 1], [0, 5, 4], [1, 0, 0]];
        for scale in [1u32, 1 << 28] {
            let scaled: Vec<Vec<u32>> = rows
                .iter()
                .map(|r| r.iter().map(|&id| id * scale).collect())
                .collect();
            let table = IdTable::from_rows(3, scaled.len(), scaled.concat());
            let want: BTreeSet<Vec<u32>> = scaled.into_iter().collect();
            assert_eq!(table.len(), want.len(), "scale {scale}");
            assert!(
                table.rows().eq(want.iter().map(Vec::as_slice)),
                "scale {scale}"
            );
        }
    }

    /// A record type with no primitive attribute in its chain flattens to
    /// `{()}` when it has records and to `{}` when it has none; the
    /// encoded table keeps that distinction.
    #[test]
    fn zero_width_tables_keep_row_existence() {
        let schema = Arc::new(Schema::parse("@document A { B { x: Int } }").unwrap());
        let mut some = Database::new();
        some.insert("A", vec![Value::Id(0)]);
        some.insert("A", vec![Value::Id(1)]);
        some.insert("B", vec![Value::Id(0), Value::Int(5)]);
        let none = Database::new();
        let mut codec = FlatCodec::new(&schema);
        let learned = codec.learn(&some).unwrap();
        let a = codec.table_index("A").unwrap();
        assert_eq!(codec.columns(a), &[] as &[String]);
        for (db, rows) in [(&some, 1), (&none, 0)] {
            let want = crate::from_facts(db, schema.clone()).unwrap().flatten();
            assert_eq!(want.table("A").unwrap().rows.len(), rows);
            assert_eq!(Flattened::from_facts(db, &schema).unwrap(), want);
            let encoded = codec.encode(db).unwrap();
            assert_eq!(encoded.table(a).width(), 0);
            assert_eq!(encoded.table(a).len(), rows);
            assert_eq!(encoded.table(a) == learned.table(a), rows == 1);
            assert_eq!(codec.decode(&encoded), want);
        }
    }

    /// Values outside the dictionaries get fresh ids per call: equal
    /// values share one, and decoding restores them.
    #[test]
    fn fresh_ids_decode_to_their_values() {
        let schema = schema();
        let mut known = Instance::new(schema.clone());
        known.insert("Univ", univ(1, "U1", &[(2, 50)])).unwrap();
        let mut codec = FlatCodec::new(&schema);
        let learned = codec.learn(&crate::to_facts(&known)).unwrap();
        let mut other = Instance::new(schema.clone());
        other
            .insert("Univ", univ(1, "U9", &[(2, 50), (3, 50)]))
            .unwrap();
        let encoded = codec.encode(&crate::to_facts(&other)).unwrap();
        assert_eq!(codec.decode(&encoded), flatten(&other));
        let admit = codec.table_index("Admit").unwrap();
        assert_ne!(encoded.table(admit), learned.table(admit));
        // `U9` is fresh in `name`; `50` is known in `count`.
        let rows: Vec<&[u32]> = encoded.table(admit).rows().collect();
        assert_eq!(rows[0][1], rows[1][1]);
        assert_eq!(rows[0][3], learned.table(admit).row(0)[3]);
        assert_eq!(
            codec.encode(&crate::to_facts(&known)).unwrap().table(admit),
            learned.table(admit)
        );
    }
}
