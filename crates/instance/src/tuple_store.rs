//! Columnar tuple storage in structure-of-arrays (tag/payload) form.
//!
//! [`TupleStore`] keeps a relation's tuples column-major, and each column
//! itself split into **two parallel streams** (a structure-of-arrays
//! layout): a `Vec<u8>` of variant *tags* and a `Vec<u64>` of canonical
//! *payload* words — the [`Value::to_raw`] decomposition, under which two
//! values are equal iff their tags and payloads both are. A compact
//! row-hash deduplication table maps a 64-bit row hash to the row indices
//! bearing that hash. Because [`Value`] is `Copy` (and reassembles from a
//! `(tag, payload)` pair in a couple of instructions), a tuple is never
//! materialized on insert or lookup — the store is the only owner of the
//! data, and every consumer sees rows through the borrowed [`RowRef`]
//! view or columns through the borrowed [`ColumnSlices`] view.
//!
//! # Why split tags from payloads?
//!
//! `Value` is a 16-byte tagged enum. Stored as two streams,
//!
//! ```text
//!   column c:   tags      [ t0 t1 t2 t3 … ]   one byte  per row
//!               payloads  [ p0 p1 p2 p3 … ]   one u64   per row
//! ```
//!
//! a column costs 9 bytes per value instead of 16, an equality probe
//! against a value `(t, p)` is two integer compares (the dedup probe's
//! row comparison), and index builds and projections sweep dense
//! homogeneous streams.
//!
//! # Invariants
//!
//! - **Equal lengths.** All `2 × arity` streams have exactly `len()`
//!   entries; row `i`'s value in column `c` is
//!   `(tags[i], payloads[i])` of column `c`.
//! - **Row-hash dedup.** `dedup` maps the hash of a row's value sequence
//!   to the ids of the rows bearing it (almost always exactly one — the
//!   table stores a single word per entry in the collision-free case).
//!   Every insert path probes it first, so the store never holds two
//!   equal rows and `insert` can report freshness without a scan.
//! - **Insertion order, swap-remove deletes.** Row `i` is the `i`-th
//!   distinct tuple inserted while the store only grows; inserts append.
//!   [`TupleStore::remove_rows_with`] deletes by swap-remove (the last
//!   row fills each hole, highest hole first) and reports each removal
//!   and move, so id-keyed structures over the store are repaired for
//!   exactly those rows: O(batch) work, whatever the store's size.
//! - **Valid payloads only.** Payload words are only ever produced by
//!   [`Value::to_raw`] on a real value, so reassembly (including interned
//!   [`Symbol`](crate::Symbol) indices) is always sound.
//! - **Tracked vs untracked statistics.** A tracked store folds every
//!   accepted insert into its per-column [`ColumnStats`]; an *untracked*
//!   store ([`TupleStore::new_untracked`]) maintains none and returns
//!   `None` from [`TupleStore::column_stats`].

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::hash::{FxHashMap, FxHasher};
use crate::posting::{post, unpost, Posting, RowChange};
use crate::stats::ColumnStats;
use crate::value::Value;

/// Hash of one row, independent of storage layout.
fn hash_values(values: impl Iterator<Item = Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// One column in structure-of-arrays form: the variant-tag byte stream
/// and the canonical payload word stream, always of equal length.
#[derive(Clone, Default)]
struct Column {
    tags: Vec<u8>,
    payloads: Vec<u64>,
}

impl Column {
    fn with_capacity(rows: usize) -> Column {
        Column {
            tags: Vec::with_capacity(rows),
            payloads: Vec::with_capacity(rows),
        }
    }

    #[inline(always)]
    fn push(&mut self, v: Value) {
        let (t, p) = v.to_raw();
        self.tags.push(t);
        self.payloads.push(p);
    }

    /// The value at row `i` without bounds checks — the innermost
    /// join-loop accessor, where checked indexing's extra compares are
    /// measurable on candidate-sweep workloads.
    ///
    /// # Safety
    /// `i` must be less than the column length.
    #[inline(always)]
    unsafe fn value_unchecked(&self, i: usize) -> Value {
        debug_assert!(i < self.tags.len());
        Value::from_raw(*self.tags.get_unchecked(i), *self.payloads.get_unchecked(i))
    }

    /// Raw equality probe: `true` iff row `i` holds exactly `(t, p)`.
    #[inline(always)]
    fn is(&self, i: usize, t: u8, p: u64) -> bool {
        self.tags[i] == t && self.payloads[i] == p
    }
}

/// A deduplicated, insertion-ordered set of fixed-arity tuples, stored
/// column-major with each column split into tag/payload streams (see the
/// module docs of `tuple_store` for the layout and its invariants).
///
/// This is the storage layer beneath [`Relation`](crate::Relation): the
/// extensional input and intensional output format of the Datalog engine,
/// the fact representation of §3.3, and the unit the synthesizer's
/// example-evaluation loop iterates over.
///
/// ```
/// use dynamite_instance::{TupleStore, Value};
///
/// let mut s = TupleStore::new(2);
/// assert!(s.insert(&[Value::Int(1), Value::Int(10)]));
/// assert!(s.insert(&[Value::Int(2), Value::Int(20)]));
/// assert!(!s.insert(&[Value::Int(1), Value::Int(10)])); // duplicate
/// assert_eq!(s.len(), 2);
/// let col = s.column(1);
/// assert_eq!(col.iter().collect::<Vec<_>>(), [Value::Int(10), Value::Int(20)]);
/// let first = s.get(0).unwrap();
/// assert_eq!(first.at(0), Value::Int(1));
/// ```
#[derive(Clone, Default)]
pub struct TupleStore {
    arity: usize,
    /// Number of (distinct) rows. Tracked separately because an arity-0
    /// store has no columns to measure.
    rows: usize,
    /// One tag/payload stream pair per column; all of length `rows`.
    cols: Vec<Column>,
    /// Row-hash deduplication table: row hash → row indices.
    dedup: FxHashMap<u64, Posting>,
    /// Per-column statistics (bounds + distinct sketch), maintained
    /// incrementally on every accepted insert — the cost model behind
    /// the engine's join planner. Empty for *untracked* stores
    /// ([`TupleStore::new_untracked`]): transient buffers whose
    /// statistics nobody will ever read skip the per-insert upkeep.
    stats: Vec<ColumnStats>,
    /// Rows removed since the statistics were last rebuilt from the
    /// survivors (tombstones the statistics still reflect). Bounds and
    /// KMV sketches are add-only and cannot un-observe a value, so a
    /// removal leaves the statistics a sound over-approximation; the
    /// O(rows) re-observation sweep is deferred until tombstones reach a
    /// quarter of the live rows, amortizing small delete batches.
    stale: usize,
}

impl TupleStore {
    /// Creates an empty store of the given arity.
    pub fn new(arity: usize) -> TupleStore {
        TupleStore {
            arity,
            rows: 0,
            cols: vec![Column::default(); arity],
            dedup: FxHashMap::default(),
            stats: vec![ColumnStats::default(); arity],
            stale: 0,
        }
    }

    /// Creates an empty store of the given arity that does **not**
    /// maintain per-column statistics. For transient stores on hot
    /// insert paths whose statistics are never consulted — the Datalog
    /// engine's per-evaluation IDB overlays and delta buffers — the
    /// upkeep is pure overhead. [`TupleStore::column_stats`] returns
    /// `None` for every column.
    pub fn new_untracked(arity: usize) -> TupleStore {
        TupleStore {
            arity,
            rows: 0,
            cols: vec![Column::default(); arity],
            dedup: FxHashMap::default(),
            stats: Vec::new(),
            stale: 0,
        }
    }

    /// Creates an empty store with room for `rows` tuples per column.
    pub fn with_capacity(arity: usize, rows: usize) -> TupleStore {
        TupleStore {
            arity,
            rows: 0,
            cols: (0..arity).map(|_| Column::with_capacity(rows)).collect(),
            dedup: FxHashMap::default(),
            stats: vec![ColumnStats::default(); arity],
            stale: 0,
        }
    }

    /// Builds a store directly from column vectors (bulk columnar loading).
    /// Rows are deduplicated; later duplicates are dropped.
    ///
    /// # Panics
    /// Panics if the columns have unequal lengths.
    pub fn from_columns(cols: Vec<Vec<Value>>) -> TupleStore {
        let rows = cols.first().map_or(0, Vec::len);
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "columns have unequal lengths"
        );
        let mut store = TupleStore::with_capacity(cols.len(), rows);
        for r in 0..rows {
            let row = || cols.iter().map(|c| c[r]);
            let hash = hash_values(row());
            if store.locate(hash, row()).is_none() {
                store.push_row(hash, row());
            }
        }
        store
    }

    /// The number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of (distinct) rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` if the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The borrowed tag/payload streams of column `c` — the unit of
    /// columnar index builds and projections. Values materialize on
    /// demand through
    /// [`ColumnSlices::value`] / [`ColumnSlices::iter`].
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[inline]
    pub fn column(&self, c: usize) -> ColumnSlices<'_> {
        let col = &self.cols[c];
        ColumnSlices {
            tags: &col.tags,
            payloads: &col.payloads,
        }
    }

    /// The incrementally maintained statistics of column `c` (bounds and
    /// distinct-count sketch) — the join planner's cost inputs. `None`
    /// when the store is untracked ([`TupleStore::new_untracked`]) or
    /// `c` is out of range.
    pub fn column_stats(&self, c: usize) -> Option<&ColumnStats> {
        self.stats.get(c)
    }

    /// Locates the stored row whose values equal `probe` (with `hash`
    /// precomputed over the same values) — the one dedup lookup shared by
    /// every insert/membership entry point.
    fn locate(&self, hash: u64, probe: impl Iterator<Item = Value> + Clone) -> Option<usize> {
        // Every caller passes exactly `arity` values (checked at the
        // public entry points), so a zip-all is a full row comparison.
        let eq = |r: usize| {
            self.cols.iter().zip(probe.clone()).all(|(c, v)| {
                let (t, p) = v.to_raw();
                c.is(r, t, p)
            })
        };
        match self.dedup.get(&hash)? {
            Posting::One(r) => {
                let r = *r as usize;
                eq(r).then_some(r)
            }
            Posting::Many(rs) => rs.iter().map(|&r| r as usize).find(|&r| eq(r)),
        }
    }

    /// Appends a row known to be absent; `values` must yield `arity` items.
    fn push_row(&mut self, hash: u64, values: impl Iterator<Item = Value>) {
        let id = u32::try_from(self.rows).expect("TupleStore exceeds u32 rows");
        let mut pushed = 0;
        for (c, v) in values.enumerate() {
            self.cols[c].push(v);
            if let Some(st) = self.stats.get_mut(c) {
                st.observe(v);
            }
            pushed += 1;
        }
        debug_assert_eq!(pushed, self.arity, "row arity mismatch in push_row");
        self.rows += 1;
        post(&mut self.dedup, hash, id);
    }

    /// Inserts a row; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the row's arity does not match the store's.
    pub fn insert(&mut self, row: &[Value]) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            row.len(),
            self.arity
        );
        let hash = hash_values(row.iter().copied());
        if self.locate(hash, row.iter().copied()).is_some() {
            return false;
        }
        self.push_row(hash, row.iter().copied());
        true
    }

    /// Inserts a row built from a vector of values.
    pub fn insert_values(&mut self, values: Vec<Value>) -> bool {
        self.insert(&values)
    }

    /// Inserts a row viewed in another store (no intermediate allocation).
    ///
    /// # Panics
    /// Panics if the row's arity does not match the store's.
    pub fn insert_row(&mut self, row: RowRef<'_>) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            row.len(),
            self.arity
        );
        let hash = hash_values(row.iter());
        if self.locate(hash, row.iter()).is_some() {
            return false;
        }
        self.push_row(hash, row.iter());
        true
    }

    /// Bulk-inserts rows (deduplicating as usual).
    pub fn extend_rows<I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        for row in rows {
            self.insert(&row);
        }
    }

    /// Removes every listed row that is present (rows of the wrong arity
    /// or not in the store are ignored); returns how many rows were
    /// actually removed. See [`TupleStore::remove_rows_with`] for how
    /// surviving rows move; this wrapper is for callers that keep no
    /// id-keyed structure over the store.
    pub fn remove_rows<I, R>(&mut self, rows: I) -> usize
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        self.remove_rows_with(rows, |_, _| {})
    }

    /// [`TupleStore::remove_rows`], reporting every row-id change to
    /// `on_change` as it happens: the retraction path of incremental
    /// maintenance, and the one operation that moves row ids.
    ///
    /// Deletion is **swap-remove**. The dead ids are processed in
    /// descending order; for each, `on_change` first sees
    /// [`RowChange::Removed`] with a view of the dying row, then — unless
    /// the hole is the last row — [`RowChange::Moved`] with a view of the
    /// store's current last row, which then moves into the hole. Every
    /// callback sees the store as it is just before that change, so a
    /// join index that applies each one stays equal to a fresh build over
    /// the current rows. Removing `k` rows moves at most `k` survivors
    /// and touches only the dead and the moved rows, whatever the store's
    /// size; the dedup table is repaired the same way.
    ///
    /// A tracked store's per-column statistics are **not** swept on
    /// every call: bounds and KMV sketches are add-only and cannot
    /// "un-observe" a value, so after a removal they remain a sound
    /// over-approximation of the survivors — still safe for the
    /// planner's pruning and costing, just less tight. The O(rows)
    /// re-observation sweep is therefore deferred behind a tombstone
    /// counter ([`TupleStore::stale_stat_rows`]) and runs only once
    /// tombstones reach a quarter of the live rows, so a stream of
    /// small delete batches pays amortized-constant stats upkeep
    /// instead of O(rows) each. Batches that remove nothing return
    /// before any stats bookkeeping.
    pub fn remove_rows_with<I, R>(
        &mut self,
        rows: I,
        mut on_change: impl FnMut(RowRef<'_>, RowChange),
    ) -> usize
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let mut dead: Vec<usize> = rows
            .into_iter()
            .filter_map(|row| {
                let row = row.as_ref();
                if row.len() != self.arity {
                    return None;
                }
                let hash = hash_values(row.iter().copied());
                self.locate(hash, row.iter().copied())
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        for &hole in dead.iter().rev() {
            let last = self.rows - 1;
            let dying = self.get(hole).expect("in range");
            on_change(dying, RowChange::Removed(hole as u32));
            let hash = hash_values(dying.iter());
            unpost(&mut self.dedup, &hash, hole as u32);
            if hole != last {
                let (from, to) = (last as u32, hole as u32);
                let moved = self.get(last).expect("in range");
                on_change(moved, RowChange::Moved { from, to });
                let hash = hash_values(moved.iter());
                self.dedup
                    .get_mut(&hash)
                    .expect("every row is in the dedup table")
                    .relocate(from, to);
            }
            for col in &mut self.cols {
                col.tags.swap_remove(hole);
                col.payloads.swap_remove(hole);
            }
            self.rows -= 1;
        }
        if !dead.is_empty() && !self.stats.is_empty() {
            self.stale += dead.len();
            if self.stale * 4 >= self.rows {
                self.resweep_stats();
            }
        }
        dead.len()
    }

    /// Rebuilds the per-column statistics from the surviving rows and
    /// clears the tombstone counter. O(rows · arity).
    fn resweep_stats(&mut self) {
        self.stats = vec![ColumnStats::default(); self.arity];
        for (st, col) in self.stats.iter_mut().zip(&self.cols) {
            for (&t, &p) in col.tags.iter().zip(&col.payloads) {
                st.observe(Value::from_raw(t, p));
            }
        }
        self.stale = 0;
    }

    /// The number of removed rows the per-column statistics still
    /// reflect — tombstones accumulated since the last re-observation
    /// sweep. Always `0` right after a sweep (and for untracked stores,
    /// which keep no statistics to go stale). The statistics remain
    /// sound over-approximations while this is non-zero; see
    /// [`TupleStore::remove_rows_with`].
    pub fn stale_stat_rows(&self) -> usize {
        self.stale
    }

    /// Removes one row if present; returns `true` when it was removed.
    /// The last row moves into its slot (see
    /// [`TupleStore::remove_rows_with`]).
    pub fn remove(&mut self, row: &[Value]) -> bool {
        self.remove_rows(std::iter::once(row)) == 1
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        if row.len() != self.arity {
            return false;
        }
        let hash = hash_values(row.iter().copied());
        self.locate(hash, row.iter().copied()).is_some()
    }

    /// Membership test against a row viewed in another store.
    pub fn contains_row(&self, row: RowRef<'_>) -> bool {
        if row.len() != self.arity {
            return false;
        }
        let hash = hash_values(row.iter());
        self.locate(hash, row.iter()).is_some()
    }

    /// The `i`-th row in insertion order.
    #[inline]
    pub fn get(&self, i: usize) -> Option<RowRef<'_>> {
        (i < self.rows).then_some(RowRef {
            store: self,
            row: i,
        })
    }

    /// Iterates rows in insertion order as borrowed [`RowRef`] views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
        (0..self.rows).map(move |row| RowRef { store: self, row })
    }

    /// Set equality (ignores insertion order).
    pub fn set_eq(&self, other: &TupleStore) -> bool {
        self.arity == other.arity
            && self.rows == other.rows
            && self.iter().all(|r| other.contains_row(r))
    }

    /// Projects onto the given columns, returning the set of projected
    /// rows. The gather is a contiguous sweep over the column streams.
    pub fn project(&self, cols: &[usize]) -> HashSet<Vec<Value>> {
        let slices: Vec<ColumnSlices<'_>> = cols.iter().map(|&c| self.column(c)).collect();
        (0..self.rows)
            .map(|r| slices.iter().map(|s| s.value(r)).collect())
            .collect()
    }
}

impl PartialEq for TupleStore {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for TupleStore {}

impl FromIterator<Vec<Value>> for TupleStore {
    fn from_iter<I: IntoIterator<Item = Vec<Value>>>(iter: I) -> TupleStore {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map_or(0, Vec::len);
        let mut store = TupleStore::new(arity);
        store.extend_rows(it);
        store
    }
}

impl fmt::Debug for TupleStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TupleStore")
            .field("arity", &self.arity)
            .field("rows", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The borrowed structure-of-arrays streams of one [`TupleStore`] column:
/// the variant-tag bytes and the canonical payload words, index-aligned
/// (entry `i` of both describes row `i`; see [`Value::to_raw`]).
///
/// Consumers that only need values use [`ColumnSlices::value`] /
/// [`ColumnSlices::iter`] (reassembly is a couple of instructions);
/// consumers that compare raw words read [`ColumnSlices::tags`] /
/// [`ColumnSlices::payloads`] directly.
#[derive(Clone, Copy)]
pub struct ColumnSlices<'a> {
    tags: &'a [u8],
    payloads: &'a [u64],
}

impl<'a> ColumnSlices<'a> {
    /// The number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The contiguous variant-tag byte stream (one [`Value::to_raw`] tag
    /// per row).
    #[inline]
    pub fn tags(&self) -> &'a [u8] {
        self.tags
    }

    /// The contiguous canonical payload word stream (one
    /// [`Value::to_raw`] payload per row).
    #[inline]
    pub fn payloads(&self) -> &'a [u64] {
        self.payloads
    }

    /// The value at row `i`, reassembled from its tag/payload pair.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline(always)]
    pub fn value(&self, i: usize) -> Value {
        Value::from_raw(self.tags[i], self.payloads[i])
    }

    /// Iterates the column's values in row order.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = Value> + Clone + 'a {
        self.tags
            .iter()
            .zip(self.payloads)
            .map(|(&t, &p)| Value::from_raw(t, p))
    }
}

impl fmt::Debug for ColumnSlices<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A borrowed view of one row of a [`TupleStore`].
///
/// `RowRef` is two words (store pointer + row index) and `Copy`; access
/// resolves through the column streams and reassembles values on demand,
/// so no tuple is ever materialized.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    store: &'a TupleStore,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.arity
    }

    /// `true` for rows of an arity-0 store.
    pub fn is_empty(&self) -> bool {
        self.store.arity == 0
    }

    /// The value in column `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[inline(always)]
    pub fn at(&self, c: usize) -> Value {
        // SAFETY: a `RowRef` is only created by `TupleStore::get`
        // (bounds-checked) and `TupleStore::iter` (range-bounded), so
        // `row < rows == column length` holds at construction; removal
        // hands views to its callback only between edits, and otherwise
        // takes `&mut self`, so the bound cannot shrink underneath one.
        // The column lookup stays checked (`c` is caller-supplied).
        unsafe { self.store.cols[c].value_unchecked(self.row) }
    }

    /// The value in column `c`, or `None` when out of range.
    #[inline]
    pub fn get(&self, c: usize) -> Option<Value> {
        (c < self.store.arity).then(|| self.at(c))
    }

    /// Iterates the row's values in column order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Value> + Clone + 'a {
        let RowRef { store, row } = *self;
        // SAFETY: `row` is in range for every column — see `RowRef::at`.
        store
            .cols
            .iter()
            .map(move |c| unsafe { c.value_unchecked(row) })
    }

    /// Materializes the row as an owned vector.
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().collect()
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RowRef<'_> {}

impl PartialEq<[Value]> for RowRef<'_> {
    fn eq(&self, other: &[Value]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[Value]> for RowRef<'_> {
    fn eq(&self, other: &&[Value]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<Value>> for RowRef<'_> {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self == other.as_slice()
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn column_vec(s: &TupleStore, c: usize) -> Vec<Value> {
        s.column(c).iter().collect()
    }

    #[test]
    fn insert_dedups_and_keeps_order() {
        let mut s = TupleStore::new(2);
        assert!(s.insert(&t(&[1, 2])));
        assert!(s.insert(&t(&[3, 4])));
        assert!(!s.insert(&t(&[1, 2])));
        assert_eq!(s.len(), 2);
        assert_eq!(column_vec(&s, 0), t(&[1, 3]));
        assert_eq!(column_vec(&s, 1), t(&[2, 4]));
        let rows: Vec<Vec<Value>> = s.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![t(&[1, 2]), t(&[3, 4])]);
    }

    #[test]
    fn row_ref_access() {
        let mut s = TupleStore::new(3);
        s.insert(&t(&[7, 8, 9]));
        let r = s.get(0).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.at(1), Value::Int(8));
        assert_eq!(r.get(2), Some(Value::Int(9)));
        assert_eq!(r.get(3), None);
        assert_eq!(r, t(&[7, 8, 9]));
        assert!(s.get(1).is_none());
    }

    #[test]
    fn column_slices_expose_raw_streams() {
        let mut s = TupleStore::new(2);
        s.insert(&[Value::Int(-1), Value::str("soa-slices")]);
        s.insert(&[Value::Id(7), Value::Bool(true)]);
        let c0 = s.column(0);
        // Tags follow the to_raw convention; payloads are the canonical
        // words, index-aligned with the tags.
        assert_eq!(c0.tags(), &[0, 3]);
        assert_eq!(c0.payloads(), &[(-1i64) as u64, 7]);
        assert_eq!(c0.value(1), Value::Id(7));
        let c1 = s.column(1);
        assert_eq!(c1.len(), 2);
        assert_eq!(c1.tags(), &[1, 2]);
        assert_eq!(c1.value(0), Value::str("soa-slices"));
        assert_eq!(c1.value(1), Value::Bool(true));
        // Round trip through the streams reproduces the rows.
        for (i, row) in s.iter().enumerate() {
            for c in 0..s.arity() {
                let slices = s.column(c);
                assert_eq!(
                    Value::from_raw(slices.tags()[i], slices.payloads()[i]),
                    row.at(c)
                );
            }
        }
    }

    #[test]
    fn contains_row_across_stores() {
        let mut a = TupleStore::new(2);
        a.insert(&t(&[1, 2]));
        let mut b = TupleStore::new(2);
        b.insert(&t(&[1, 2]));
        b.insert(&t(&[3, 4]));
        assert!(b.contains_row(a.get(0).unwrap()));
        assert!(!a.contains_row(b.get(1).unwrap()));
    }

    #[test]
    fn insert_row_copies_across_stores() {
        let mut a = TupleStore::new(2);
        a.insert(&t(&[1, 2]));
        a.insert(&t(&[3, 4]));
        let mut b = TupleStore::new(2);
        b.insert(&t(&[3, 4]));
        for r in a.iter() {
            b.insert_row(r);
        }
        assert_eq!(b.len(), 2);
        // b keeps its own insertion order: [3,4] first.
        assert_eq!(b.get(0).unwrap(), t(&[3, 4]));
        assert_eq!(b.get(1).unwrap(), t(&[1, 2]));
    }

    #[test]
    fn zero_arity_store_holds_at_most_one_row() {
        let mut s = TupleStore::new(0);
        assert!(s.insert(&[]));
        assert!(!s.insert(&[]));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&[]));
        assert!(s.get(0).unwrap().is_empty());
    }

    #[test]
    fn from_columns_bulk_load() {
        let s = TupleStore::from_columns(vec![t(&[1, 1, 2]), t(&[10, 10, 20])]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.len(), 2); // (1,10) deduplicated
        assert!(s.contains(&t(&[1, 10])));
        assert!(s.contains(&t(&[2, 20])));
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn from_columns_rejects_ragged_input() {
        TupleStore::from_columns(vec![t(&[1]), t(&[1, 2])]);
    }

    #[test]
    fn arity_mismatch_contains_is_false_not_panic() {
        let mut s = TupleStore::new(2);
        s.insert(&t(&[1, 2]));
        assert!(!s.contains(&t(&[1])));
    }

    #[test]
    fn set_equality_ignores_order() {
        let mut a = TupleStore::new(1);
        a.extend_rows([t(&[1]), t(&[2])]);
        let mut b = TupleStore::new(1);
        b.extend_rows([t(&[2]), t(&[1])]);
        assert_eq!(a, b);
        b.insert(&t(&[3]));
        assert_ne!(a, b);
    }

    #[test]
    fn column_stats_track_inserted_values() {
        let mut s = TupleStore::new(2);
        for i in 0..100i64 {
            s.insert(&[Value::Int(i % 4), Value::Int(i)]);
        }
        let stats0 = s.column_stats(0).expect("tracked");
        assert_eq!(stats0.distinct_estimate(s.len()), 4);
        assert!(stats0.excludes(Value::Int(50)));
        assert!(!s.column_stats(1).expect("tracked").excludes(Value::Int(50)));
        assert!(s.column_stats(2).is_none(), "out of range");
        let mut untracked = TupleStore::new_untracked(2);
        untracked.insert(&[Value::Int(1), Value::Int(1)]);
        assert!(untracked.column_stats(0).is_none(), "untracked");
        // Duplicate-row inserts are rejected and must not perturb stats.
        assert!(!s.insert(&[Value::Int(1), Value::Int(1)]));
        assert_eq!(
            s.column_stats(0)
                .expect("tracked")
                .distinct_estimate(s.len()),
            4
        );
    }

    #[test]
    fn remove_rows_swap_removes_in_descending_order() {
        let mut s = TupleStore::new(2);
        for i in 0..10i64 {
            s.insert(&t(&[i, i * 10]));
        }
        // Remove a middle row, the first row, the last row, a duplicate
        // request, an absent row, and a wrong-arity row.
        let removed = s.remove_rows([
            t(&[4, 40]),
            t(&[0, 0]),
            t(&[9, 90]),
            t(&[4, 40]),  // duplicate request
            t(&[77, 77]), // absent
            t(&[1]),      // wrong arity
        ]);
        assert_eq!(removed, 3);
        assert_eq!(s.len(), 7);
        // Dead ids descending: 9 is the last row and just goes; row 8
        // fills hole 4; row 7 (now last) fills hole 0.
        let rows: Vec<Vec<Value>> = s.iter().map(|r| r.to_vec()).collect();
        let want: Vec<Vec<Value>> = [7i64, 1, 2, 3, 8, 5, 6]
            .iter()
            .map(|&i| t(&[i, i * 10]))
            .collect();
        assert_eq!(
            rows, want,
            "the last row fills each hole, highest hole first"
        );
        // Dedup table is consistent: membership, re-insertion, and
        // re-removal all behave on the edited store.
        assert!(!s.contains(&t(&[4, 40])));
        assert!(s.contains(&t(&[8, 80])));
        assert!(s.insert(&t(&[4, 40])), "removed row inserts as new");
        assert!(!s.insert(&t(&[8, 80])), "moved row still deduplicates");
        assert!(s.remove(&t(&[4, 40])));
        assert!(!s.remove(&t(&[4, 40])), "second removal is a no-op");
    }

    /// Removes `dead` from a `0..n` single-column store while a `Vec`
    /// model applies each reported removal with `Vec::swap_remove`,
    /// checking every view shows the row its change is about and that the
    /// store ends equal to the model. Returns the number of moves.
    fn swap_remove_against_model(n: i64, dead: &[i64]) -> usize {
        let mut s: TupleStore = (0..n).map(|i| t(&[i])).collect();
        let mut model: Vec<i64> = (0..n).collect();
        let (mut gone, mut moves) = (Vec::new(), 0);
        let removed = s.remove_rows_with(dead.iter().map(|&i| t(&[i])), |row, change| {
            match change {
                RowChange::Removed(id) => {
                    assert_eq!(row, t(&[model[id as usize]]));
                    gone.push(model.swap_remove(id as usize));
                }
                // The model already moved its last entry into `to`.
                RowChange::Moved { from, to } => {
                    assert_eq!(from as usize, model.len(), "the last row moves");
                    assert_eq!(row, t(&[model[to as usize]]));
                    moves += 1;
                }
                RowChange::Appended(_) => unreachable!("removal appends nothing"),
            }
        });
        assert_eq!(removed, dead.len());
        assert!(
            gone.iter().rev().eq(dead),
            "dead ids go in descending order"
        );
        let rows: Vec<Vec<Value>> = s.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows, model.iter().map(|&i| t(&[i])).collect::<Vec<_>>());
        assert!((0..n).all(|i| s.contains(&t(&[i])) != dead.contains(&i)));
        moves
    }

    #[test]
    fn swap_remove_matches_a_vec_model() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..200 {
            let n = 1 + rnd(40) as i64;
            let dead: Vec<i64> = (0..n).filter(|_| rnd(3) == 0).collect();
            swap_remove_against_model(n, &dead);
        }
    }

    #[test]
    fn removing_k_rows_moves_at_most_k_survivors_at_any_size() {
        // The same k = 8 removals from a store of n and of 10·n rows.
        let dead: Vec<i64> = (0..8).map(|i| i * 37 + 3).collect();
        let small = swap_remove_against_model(1_000, &dead);
        assert!(small <= dead.len());
        assert_eq!(swap_remove_against_model(10_000, &dead), small);
    }

    #[test]
    fn remove_rows_recomputes_tracked_stats() {
        let mut s = TupleStore::new(2);
        for i in 0..100i64 {
            s.insert(&[Value::Int(i % 4), Value::Int(i)]);
        }
        // Drop every row with column 0 >= 2: the observed range shrinks,
        // and only a full recompute (not add-only upkeep) can know it.
        let dead: Vec<Vec<Value>> = s
            .iter()
            .filter(|r| r.at(0) >= Value::Int(2))
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(s.remove_rows(&dead), 50);
        let stats0 = s.column_stats(0).expect("tracked");
        assert_eq!(stats0.distinct_estimate(s.len()), 2);
        assert!(stats0.excludes(Value::Int(3)), "3 no longer observed");
        assert!(!stats0.excludes(Value::Int(1)));
        // Untracked stores skip the recompute but still compact.
        let mut u = TupleStore::new_untracked(1);
        u.extend_rows([t(&[1]), t(&[2]), t(&[3])]);
        assert_eq!(u.remove_rows([t(&[2])]), 1);
        assert!(u.column_stats(0).is_none());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn remove_rows_defers_stats_sweep_for_small_batches() {
        // A small delete batch must not pay the O(rows) re-observation
        // sweep: the tombstone counter sizes the deferred work, and the
        // stats stay a sound over-approximation until the sweep runs.
        let mut s = TupleStore::new(1);
        for i in 0..1000i64 {
            s.insert(&t(&[i]));
        }
        // Remove the top 50 values: far under the quarter threshold.
        let batch: Vec<Vec<Value>> = (950..1000i64).map(|i| t(&[i])).collect();
        assert_eq!(s.remove_rows(&batch), 50);
        assert_eq!(s.stale_stat_rows(), 50, "sweep deferred, tombstones sized");
        let stats0 = s.column_stats(0).expect("tracked");
        assert!(
            !stats0.excludes(Value::Int(999)),
            "deferred stats still over-approximate the removed range"
        );
        assert!(!stats0.excludes(Value::Int(0)), "live values stay included");

        // Three more batches reach the threshold (200 tombstones against
        // 800 survivors) and trigger exactly one sweep.
        for lo in [900i64, 850, 800] {
            let batch: Vec<Vec<Value>> = (lo..lo + 50).map(|i| t(&[i])).collect();
            assert_eq!(s.remove_rows(&batch), 50);
        }
        assert_eq!(
            s.stale_stat_rows(),
            0,
            "threshold crossed: stats resweep ran"
        );
        let stats0 = s.column_stats(0).expect("tracked");
        assert!(
            stats0.excludes(Value::Int(999)),
            "after the sweep the removed range is pruned again"
        );
        assert!(!stats0.excludes(Value::Int(0)));
    }

    #[test]
    fn remove_rows_empty_batch_skips_stats_bookkeeping() {
        let mut s = TupleStore::new(1);
        for i in 0..100i64 {
            s.insert(&t(&[i]));
        }
        // Seed one tombstone so the fast path's "unchanged" is observable.
        assert_eq!(s.remove_rows([t(&[99])]), 1);
        assert_eq!(s.stale_stat_rows(), 1);
        // Absent and wrong-arity rows remove nothing: no moves, no
        // sweep, tombstone count untouched.
        assert_eq!(s.remove_rows([t(&[500]), t(&[1, 2])]), 0);
        assert_eq!(s.stale_stat_rows(), 1);
        assert_eq!(s.len(), 99);
        // Untracked stores never accumulate tombstones.
        let mut u = TupleStore::new_untracked(1);
        u.extend_rows([t(&[1]), t(&[2])]);
        u.remove_rows([t(&[1])]);
        assert_eq!(u.stale_stat_rows(), 0);
    }

    #[test]
    fn remove_rows_handles_dense_removal_and_zero_arity() {
        // Every third of 2000 rows: interleaved dead runs, each hole
        // filled by a survivor from the tail.
        let dead: Vec<i64> = (0..2000).filter(|i| i % 3 == 0).collect();
        swap_remove_against_model(2000, &dead);
        // Zero-arity stores remove their one row consistently.
        let mut z = TupleStore::new(0);
        z.insert(&[]);
        assert!(z.remove(&[]));
        assert!(z.is_empty());
        assert!(!z.contains(&[]));
        assert!(z.insert(&[]));
    }

    #[test]
    fn projection_gathers_columns() {
        let mut s = TupleStore::new(3);
        s.insert(&t(&[1, 2, 3]));
        s.insert(&t(&[1, 5, 3]));
        let p = s.project(&[0, 2]);
        assert_eq!(p.len(), 1);
        assert!(p.contains(&t(&[1, 3])));
    }
}
