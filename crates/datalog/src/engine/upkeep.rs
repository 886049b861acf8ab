//! Test-build instrumentation of index upkeep, rule compilation, join
//! output and delta bookkeeping: per-thread counts of index builds (per
//! side), of index entries repaired, of compiled-rule builds, of tuples
//! the joins emit and of delta-relation inserts, and checks that cached
//! indexes equal fresh builds. Every counted site runs on the thread
//! that drives the evaluation (compilation, round prep, the end of a
//! round's join phase, absorb, batch edits).

use std::cell::Cell;

use super::*;

thread_local! {
    static EDB_BUILDS: Cell<usize> = const { Cell::new(0) };
    static OVERLAY_BUILDS: Cell<usize> = const { Cell::new(0) };
    static TOUCHES: Cell<usize> = const { Cell::new(0) };
    static RULE_BUILDS: Cell<usize> = const { Cell::new(0) };
    static DELTA_INSERTS: Cell<usize> = const { Cell::new(0) };
    static EMITTED: Cell<usize> = const { Cell::new(0) };
}

pub(crate) fn count_edb_build() {
    EDB_BUILDS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_overlay_build() {
    OVERLAY_BUILDS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_touch() {
    TOUCHES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_rule_build() {
    RULE_BUILDS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_emitted(n: usize) {
    EMITTED.with(|c| c.set(c.get() + n));
}

pub(crate) fn count_delta_insert() {
    DELTA_INSERTS.with(|c| c.set(c.get() + 1));
}

/// Upkeep work on this thread since the last call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Work {
    pub(crate) edb_builds: usize,
    pub(crate) overlay_builds: usize,
    /// Index entries appended, removed or renumbered.
    pub(crate) touches: usize,
    /// Rules compiled (memo misses and maintenance compiles).
    pub(crate) rule_builds: usize,
    /// Facts `absorb` wrote into a delta relation.
    pub(crate) delta_inserts: usize,
    /// Head tuples the join jobs emitted, duplicates included.
    pub(crate) emitted: usize,
}

/// Returns and resets this thread's counters.
pub(crate) fn take() -> Work {
    Work {
        edb_builds: EDB_BUILDS.with(|c| c.replace(0)),
        overlay_builds: OVERLAY_BUILDS.with(|c| c.replace(0)),
        touches: TOUCHES.with(|c| c.replace(0)),
        rule_builds: RULE_BUILDS.with(|c| c.replace(0)),
        delta_inserts: DELTA_INSERTS.with(|c| c.replace(0)),
        emitted: EMITTED.with(|c| c.replace(0)),
    }
}

/// `(relation, columns)` of one cached index, with the address of
/// the index (`Arc::as_ptr`) for the EDB side.
pub(crate) type Cached = Vec<((String, Vec<usize>), usize)>;

/// Asserts that every cached EDB index equals a fresh build over the
/// relation's current rows; returns the cache's entries, sorted.
pub(crate) fn check_edb(edb: &Database, cache: &IndexCache) -> Cached {
    let empty = Relation::new(0);
    let mut out: Cached = Vec::new();
    for (rel, by_cols) in cache {
        let relation = edb.relation(rel).unwrap_or(&empty);
        for (cols, idx) in by_cols {
            assert!(
                **idx == ColumnIndex::build(relation, cols),
                "EDB index {rel}{cols:?} differs from a fresh build"
            );
            let key = (rel.clone(), cols.clone());
            out.push((key, Arc::as_ptr(idx) as usize));
        }
    }
    out.sort();
    out
}

/// Asserts that every overlay index equals a fresh build over the
/// overlay relation's current rows; returns the indexed `(relation,
/// columns)` pairs, sorted.
pub(crate) fn check_overlay(idb: &IdbState) -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::new();
    for (rel, by_cols) in &idb.indexes {
        let relation = &idb.rels[rel];
        for (cols, idx) in by_cols {
            assert!(
                *idx == ColumnIndex::build(relation, cols),
                "overlay index {rel}{cols:?} differs from a fresh build"
            );
            out.push((rel.clone(), cols.clone()));
        }
    }
    out.sort();
    out
}

impl Evaluator {
    /// [`check_edb`] over this context's snapshot and cache.
    pub(crate) fn check_indexes(&self) -> Cached {
        let indexes = self.indexes.read().unwrap_or_else(PoisonError::into_inner);
        check_edb(&self.edb, &indexes)
    }
}
