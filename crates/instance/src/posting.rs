//! Row-id postings and the row-id changes that keep them current, shared
//! by the row-hash dedup table of [`TupleStore`](crate::TupleStore) and
//! the join index [`ColumnIndex`](crate::ColumnIndex).

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::hash::FxHashMap;

/// Ascending row ids filed under one key: a row hash in the dedup table,
/// a key-column tuple in a [`ColumnIndex`](crate::ColumnIndex). Most keys
/// hold a single row, so one id is stored inline and only a shared key
/// allocates.
///
/// The form is canonical: `Many` always holds at least two ids, so two
/// postings over the same ids compare equal however they were reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Posting {
    /// Exactly one row (the overwhelmingly common case).
    One(u32),
    /// Two or more rows, ascending.
    Many(Vec<u32>),
}

impl Posting {
    /// The row ids, ascending.
    #[inline]
    pub(crate) fn ids(&self) -> &[u32] {
        match self {
            Posting::One(id) => std::slice::from_ref(id),
            Posting::Many(ids) => ids,
        }
    }

    /// Appends `id`, which must exceed every id already held — true of a
    /// freshly appended row, which always has the store's highest id.
    pub(crate) fn push(&mut self, id: u32) {
        match self {
            Posting::One(first) => {
                debug_assert!(*first < id, "posting ids must ascend");
                // Four ids fill the allocator's smallest chunk anyway, and
                // spare a regrowth when a third and fourth row arrive.
                let mut ids = Vec::with_capacity(4);
                ids.extend([*first, id]);
                *self = Posting::Many(ids);
            }
            Posting::Many(ids) => {
                debug_assert!(ids.last().is_some_and(|&l| l < id));
                ids.push(id);
            }
        }
    }

    /// Removes `id` (which must be present); returns `true` when the
    /// posting is left empty and its key should go.
    pub(crate) fn remove(&mut self, id: u32) -> bool {
        match self {
            Posting::One(only) => {
                debug_assert_eq!(*only, id, "removing an unposted row id");
                true
            }
            Posting::Many(ids) => {
                if let Ok(at) = ids.binary_search(&id) {
                    ids.remove(at);
                }
                if let [only] = ids[..] {
                    *self = Posting::One(only);
                }
                false
            }
        }
    }

    /// Renumbers `from` to `to`, keeping the ids ascending. Under
    /// swap-remove `from` is the store's highest id, so it is found at
    /// the end and `to` takes a binary-searched slot.
    pub(crate) fn relocate(&mut self, from: u32, to: u32) {
        match self {
            Posting::One(only) => {
                debug_assert_eq!(*only, from, "relocating an unposted row id");
                *only = to;
            }
            Posting::Many(ids) => {
                if let Ok(at) = ids.binary_search(&from) {
                    ids.remove(at);
                }
                let at = ids.partition_point(|&x| x < to);
                ids.insert(at, to);
            }
        }
    }
}

/// Files `id` under `key` in a posting map; `id` must exceed every id
/// already filed under `key` (see [`Posting::push`]).
pub(crate) fn post<K: Hash + Eq>(map: &mut FxHashMap<K, Posting>, key: K, id: u32) {
    match map.entry(key) {
        Entry::Occupied(mut e) => e.get_mut().push(id),
        Entry::Vacant(e) => {
            e.insert(Posting::One(id));
        }
    }
}

/// Removes `id` from under `key` in a posting map, dropping the key when
/// it was the last id there. `id` must be filed under `key`.
pub(crate) fn unpost<K, Q>(map: &mut FxHashMap<K, Posting>, key: &Q, id: u32)
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
{
    let posting = map.get_mut(key).expect("a removed row id is posted");
    if posting.remove(id) {
        map.remove(key);
    }
}

/// One row-id change to a [`TupleStore`](crate::TupleStore), in the
/// terms an id-keyed structure over the store (a join index) needs to
/// stay equal to a fresh build over the current rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowChange {
    /// The row with this id was just appended; it has the store's
    /// highest id.
    Appended(u32),
    /// The row with this id is being removed.
    Removed(u32),
    /// The row at `from`, the store's highest id, moves into the hole at
    /// `to` (swap-remove).
    Moved {
        /// The moved row's id before the move.
        from: u32,
        /// Its id after the move.
        to: u32,
    },
}
