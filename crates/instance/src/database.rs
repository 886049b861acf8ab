use std::collections::BTreeMap;

use crate::hash::FxHashMap;
use std::fmt;

use crate::posting::{post, unpost, Posting, RowChange};
use crate::tuple_store::{RowRef, TupleStore};
use crate::value::Value;

/// A set of tuples of fixed arity with insertion-ordered, deduplicated
/// iteration. This is both the extensional input and the intensional output
/// format of the Datalog engine.
///
/// `Relation` is a semantic alias for the columnar [`TupleStore`]: the
/// storage layer (structure-of-arrays tag/payload streams per column,
/// row-hash dedup, borrowed [`RowRef`](crate::RowRef) row views) lives in
/// [`tuple_store`](crate::TupleStore), while this module layers the
/// database vocabulary — named relations, join indexes — on top of it.
pub type Relation = TupleStore;

/// A collection of named relations: the uniform format for Datalog inputs
/// (extensional facts) and outputs (intensional facts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Builds a database directly from named relations (no per-tuple
    /// re-hashing; later duplicates of a name replace earlier ones).
    pub fn from_relations(relations: impl IntoIterator<Item = (String, Relation)>) -> Database {
        Database {
            relations: relations.into_iter().collect(),
        }
    }

    /// Ensures relation `name` exists with the given arity and returns a
    /// mutable reference to it.
    ///
    /// # Panics
    /// Panics if the relation exists with a different arity.
    pub fn relation_mut(&mut self, name: &str, arity: usize) -> &mut Relation {
        match self.relations.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(e) => {
                let r = e.into_mut();
                assert_eq!(r.arity(), arity, "relation `{name}` arity mismatch");
                r
            }
            std::collections::btree_map::Entry::Vacant(e) => e.insert(Relation::new(arity)),
        }
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Inserts a fact `name(values…)`, creating the relation on demand.
    pub fn insert(&mut self, name: &str, values: Vec<Value>) -> bool {
        let arity = values.len();
        self.relation_mut(name, arity).insert(&values)
    }

    /// Bulk-inserts rows into relation `name` (created on demand with the
    /// given arity) — the columnar loading path for dataset builders.
    pub fn extend_rows<I>(&mut self, name: &str, arity: usize, rows: I)
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        self.relation_mut(name, arity).extend_rows(rows);
    }

    /// Iterates `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Consumes the database into its named relations, in name order —
    /// the inverse of [`Database::from_relations`].
    pub fn into_relations(self) -> impl Iterator<Item = (String, Relation)> {
        self.relations.into_iter()
    }

    /// Relation names in name order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of facts across all relations.
    pub fn num_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Merges another database into this one (set union per relation).
    pub fn merge(&mut self, other: &Database) {
        for (name, rel) in other.iter() {
            let dst = self.relation_mut(name, rel.arity());
            for t in rel.iter() {
                dst.insert_row(t);
            }
        }
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            for t in rel.iter() {
                write!(f, "{name}(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                writeln!(f, ").")?;
            }
        }
        Ok(())
    }
}

/// A hash index from key columns to tuple positions, used by the Datalog
/// evaluator for joins and by the incremental maintainer.
///
/// Each key's posting holds its row ids ascending, with a single id
/// stored inline. [`ColumnIndex::update`] keeps an index equal to a fresh
/// [`ColumnIndex::build`] across every row-id change of its relation, so
/// a maintained index is state updated per batch, never rebuilt.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    map: FxHashMap<Vec<Value>, Posting>,
}

impl ColumnIndex {
    /// Builds an index of `rel` on the given key columns.
    ///
    /// With columnar storage this is a contiguous sweep over the key
    /// columns' tag/payload streams
    /// ([`ColumnSlices`](crate::ColumnSlices)) — no per-tuple pointer
    /// chase; values reassemble from their pairs as they are gathered.
    pub fn build(rel: &Relation, cols: &[usize]) -> ColumnIndex {
        // Callers may index a stand-in empty relation whose arity does not
        // cover `cols` (missing EDB relations are treated as empty).
        if rel.is_empty() {
            return ColumnIndex::default();
        }
        let mut map: FxHashMap<Vec<Value>, Posting> = FxHashMap::default();
        match cols {
            // Single-column fast path: one stream pair, one value per key.
            [c] => {
                for (i, v) in rel.column(*c).iter().enumerate() {
                    post(&mut map, vec![v], i as u32);
                }
            }
            _ => {
                let slices: Vec<_> = cols.iter().map(|&c| rel.column(c)).collect();
                for i in 0..rel.len() {
                    post(
                        &mut map,
                        slices.iter().map(|s| s.value(i)).collect(),
                        i as u32,
                    );
                }
            }
        }
        ColumnIndex { map }
    }

    /// Tuple positions whose key columns equal `key`, ascending.
    pub fn get(&self, key: &[Value]) -> &[u32] {
        self.map.get(key).map_or(&[], Posting::ids)
    }

    /// Applies one row-id change of the indexed relation, keeping this
    /// index on `cols` equal to a fresh build over the current rows.
    /// `row` views the changed row: the appended row, the row being
    /// removed, or the row being moved (see
    /// [`TupleStore::remove_rows_with`]). Costs one key lookup plus a
    /// binary search in that key's posting.
    pub fn update(&mut self, cols: &[usize], row: RowRef<'_>, change: RowChange) {
        let key: Vec<Value> = cols.iter().map(|&c| row.at(c)).collect();
        match change {
            RowChange::Appended(id) => post(&mut self.map, key, id),
            RowChange::Removed(id) => unpost(&mut self.map, key.as_slice(), id),
            RowChange::Moved { from, to } => self
                .map
                .get_mut(&key)
                .expect("moved row is indexed")
                .relocate(from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn relation_dedupes_and_keeps_order() {
        let mut r = Relation::new(2);
        assert!(r.insert(&t(&[1, 2])));
        assert!(r.insert(&t(&[3, 4])));
        assert!(!r.insert(&t(&[1, 2])));
        assert_eq!(r.len(), 2);
        let rows: Vec<_> = r.iter().map(|x| x.at(0)).collect();
        assert_eq!(rows, vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(&t(&[1]));
    }

    #[test]
    fn set_equality_ignores_order() {
        let mut a = Relation::new(1);
        a.insert(&t(&[1]));
        a.insert(&t(&[2]));
        let mut b = Relation::new(1);
        b.insert(&t(&[2]));
        b.insert(&t(&[1]));
        assert_eq!(a, b);
    }

    #[test]
    fn projection() {
        let mut r = Relation::new(3);
        r.insert(&t(&[1, 2, 3]));
        r.insert(&t(&[1, 5, 3]));
        let p = r.project(&[0, 2]);
        assert_eq!(p.len(), 1);
        assert!(p.contains(&t(&[1, 3])));
    }

    #[test]
    fn database_round_trip() {
        let mut db = Database::new();
        db.insert("R", t(&[1, 2]));
        db.insert("R", t(&[1, 2]));
        db.insert("S", t(&[7]));
        assert_eq!(db.num_facts(), 2);
        assert_eq!(db.relation("R").unwrap().len(), 1);
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["R", "S"]);
    }

    #[test]
    fn column_index_lookup() {
        let mut r = Relation::new(2);
        r.insert(&t(&[1, 10]));
        r.insert(&t(&[1, 20]));
        r.insert(&t(&[2, 30]));
        let idx = ColumnIndex::build(&r, &[0]);
        assert_eq!(idx.get(&t(&[1])).len(), 2);
        assert_eq!(idx.get(&t(&[2])).len(), 1);
        assert_eq!(idx.get(&t(&[9])).len(), 0);
    }

    #[test]
    fn multi_column_index_lookup() {
        let mut r = Relation::new(3);
        r.insert(&t(&[1, 10, 5]));
        r.insert(&t(&[1, 10, 6]));
        r.insert(&t(&[1, 20, 7]));
        let idx = ColumnIndex::build(&r, &[0, 1]);
        assert_eq!(idx.get(&t(&[1, 10])), &[0, 1]);
        assert_eq!(idx.get(&t(&[1, 20])), &[2]);
    }

    #[test]
    fn updated_index_equals_a_fresh_build() {
        // Seeded inserts and swap-remove deletes over a low-cardinality
        // key (long postings) and a two-column key; after every batch
        // each maintained index equals a fresh build, postings ascending.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m) as i64
        };
        let keys: [&[usize]; 2] = [&[0], &[1, 0]];
        let mut r = Relation::new(2);
        let mut idx: Vec<ColumnIndex> = keys.iter().map(|k| ColumnIndex::build(&r, k)).collect();
        for batch in 0..300 {
            for _ in 0..rnd(6) {
                let row = t(&[rnd(5), rnd(40)]);
                if r.insert(&row) {
                    let id = r.len() - 1;
                    for (ix, cols) in idx.iter_mut().zip(keys) {
                        ix.update(cols, r.get(id).unwrap(), RowChange::Appended(id as u32));
                    }
                }
            }
            let dead: Vec<Vec<Value>> = (0..rnd(6)).map(|_| t(&[rnd(5), rnd(40)])).collect();
            r.remove_rows_with(&dead, |row, change| {
                for (ix, cols) in idx.iter_mut().zip(keys) {
                    ix.update(cols, row, change);
                }
            });
            for (ix, cols) in idx.iter().zip(keys) {
                assert_eq!(
                    *ix,
                    ColumnIndex::build(&r, cols),
                    "batch {batch}, key {cols:?}"
                );
            }
        }
        assert!(!r.is_empty());
    }

    #[test]
    fn bulk_extend_rows() {
        let mut db = Database::new();
        db.extend_rows("R", 2, (0..5i64).map(|i| t(&[i, i * 10])));
        db.extend_rows("R", 2, [t(&[0, 0]), t(&[9, 9])]);
        // (0, 0) is a duplicate of the first batch's row.
        assert_eq!(db.relation("R").unwrap().len(), 6);
    }

    #[test]
    fn merge_unions() {
        let mut a = Database::new();
        a.insert("R", t(&[1]));
        let mut b = Database::new();
        b.insert("R", t(&[1]));
        b.insert("R", t(&[2]));
        a.merge(&b);
        assert_eq!(a.relation("R").unwrap().len(), 2);
    }
}
