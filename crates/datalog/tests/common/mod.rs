//! Helpers shared by the datalog integration suites. Each suite uses a
//! subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dynamite_instance::{Database, Relation, Value};

/// Deterministic LCG — streams must not depend on ambient randomness.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A scratch directory removed on drop (pass/fail alike).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dynamite-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

pub fn edge(a: u64, b: u64) -> Vec<Value> {
    vec![int(a), int(b)]
}

/// Bit-identity projection: relation contents *in row order*.
pub fn ordered_rows(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    db.iter()
        .map(|(name, rel)| {
            (
                name.to_string(),
                rel.iter().map(|r| r.iter().collect()).collect(),
            )
        })
        .collect()
}

pub fn row_set(rel: &Relation) -> HashSet<Vec<Value>> {
    rel.iter().map(|r| r.to_vec()).collect()
}

/// Full-evaluate-then-filter: the oracle every point query is pinned
/// against.
pub fn oracle(out: &Database, relation: &str, bindings: &[Option<Value>]) -> HashSet<Vec<Value>> {
    out.relation(relation)
        .map(|rel| {
            rel.iter()
                .map(|r| r.to_vec())
                .filter(|row| {
                    bindings
                        .iter()
                        .enumerate()
                        .all(|(i, b)| b.is_none_or(|v| row[i] == v))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Applies `ins`/`dels` to a plain database the way every maintainer
/// documents its semantics: deletions first, then insertions.
pub fn apply_to_shadow(shadow: &mut Database, ins: &Database, dels: &Database) {
    for (name, rel) in dels.iter() {
        if shadow.relation(name).is_none() {
            continue;
        }
        let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.iter().collect()).collect();
        shadow.relation_mut(name, rel.arity()).remove_rows(&rows);
    }
    shadow.merge(ins);
}

/// Transitive closure over `Edge`.
pub fn closure_program() -> dynamite_datalog::Program {
    dynamite_datalog::Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap()
}

/// `n` disjoint chains of `len` edges; chain `c` runs over the nodes
/// `c * (len + 1) ..= c * (len + 1) + len`. Its closure holds
/// `n * len * (len + 1) / 2` `Path` facts, `len` of them per chain head.
pub fn disjoint_chains(n: u64, len: u64) -> Database {
    let mut edb = Database::new();
    for c in 0..n {
        let base = c * (len + 1);
        for i in 0..len {
            edb.insert("Edge", edge(base + i, base + i + 1));
        }
    }
    edb
}
