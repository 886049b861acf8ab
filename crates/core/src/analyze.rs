//! Failure analysis: minimal distinguishing projections and the
//! `Generalize` pattern (§4.3, Algorithms 3 and 4).
//!
//! Given an incorrect candidate, `Analyze` produces blocking constraints
//! that rule out *many* sketch completions at once:
//!
//! 1. [`mdp_set`] computes the minimal distinguishing projections between
//!    the actual and expected outputs (Algorithm 4, breadth-first over
//!    attribute subsets, with a work budget — the paper observes this
//!    search blowing up on two benchmarks);
//! 2. [`generalize`] turns the failing assignment plus one MDP into an
//!    equality/disequality pattern `ψ = Generalize(σ, ϕ)` whose models are
//!    all guaranteed-incorrect completions (Theorem 2); the caller adds
//!    `¬ψ` as a blocking clause.
//!
//! The search runs on dictionary-encoded tables ([`IdTable`]): the
//! synthesizer's candidate check already holds the actual and expected
//! tables as `u32` rows of one [`FlatCodec`](dynamite_instance::FlatCodec),
//! and [`mdp_set_ids`] takes those ids as given. [`mdp_set`] is the same
//! search on [`FlatTable`]s, which it encodes first.
//!
//! A node `L` of the breadth-first search is decided without projecting
//! either table. Deciding `L` refines one reused row partition of the two
//! tables' union one column of `L` at a time — the stratified partition
//! refinement of TANE (Huhtala et al., Comput. J. 1999). The projections
//! onto `L` agree iff every class of the final partition holds rows of
//! both tables, and because refining only splits classes, the first
//! one-sided class ends the node early. A node that contains a known MDP
//! distinguishes too, so it is dropped before any refinement. No
//! partition is stored per queued node: a node costs `|L|` linear passes
//! over the rows, and memory stays O(rows × columns + largest id).
//!
//! The pattern is expressed over hole indices ([`PatternLit`]) and lowered
//! to solver literals by the synthesizer. Beyond the paper we must also
//! keep *rigid* domain elements (filtering constants and fixed chain
//! connectors) pinned or excluded: the variable-renaming argument of
//! Theorem 1 only applies to variables, so a hole may only swap between
//! rigid elements if the pattern says so explicitly.

use std::collections::{BTreeSet, VecDeque};

use dynamite_instance::hash::FxHashSet;
use dynamite_instance::{FlatTable, IdTable};

use crate::sketch::DomainElem;

/// Result of [`mdp_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdpResult {
    /// The minimal distinguishing projections, as sets of column indices
    /// into the flat table.
    pub mdps: Vec<BTreeSet<usize>>,
    /// `true` if the breadth-first search ran out of budget and the result
    /// fell back to the full column set.
    pub budget_exhausted: bool,
}

/// Computes the set of minimal distinguishing projections between the
/// actual output `actual` and the expected output `expected` (Algorithm 4).
///
/// Both tables must have the same columns. `budget` bounds the number of
/// candidate projections dequeued; on exhaustion the full column set is
/// returned as a (sound, maximally pinned) fallback.
///
/// This encodes both tables with [`IdTable::encode_flat`] and runs
/// [`mdp_set_ids`].
pub fn mdp_set(actual: &FlatTable, expected: &FlatTable, budget: usize) -> MdpResult {
    let [actual, expected] = IdTable::encode_flat([actual, expected]);
    mdp_set_ids(&actual, &expected, budget)
}

/// [`mdp_set`] on dictionary-encoded tables: column `c` of both tables
/// must hold ids of one dictionary (equal ids iff equal values), as the
/// tables of one [`FlatCodec`](dynamite_instance::FlatCodec) do.
pub fn mdp_set_ids(actual: &IdTable, expected: &IdTable, budget: usize) -> MdpResult {
    assert_eq!(
        actual.width(),
        expected.width(),
        "id tables must share columns"
    );
    let ncols = actual.width();
    let all: BTreeSet<usize> = (0..ncols).collect();
    if ncols == 0 {
        // Degenerate: tables differ only in row existence; the empty
        // projection cannot distinguish anything, fall back.
        return MdpResult {
            mdps: vec![all],
            budget_exhausted: false,
        };
    }

    let mut parts = Partitioner::new(actual, expected);
    let mut delta: Vec<BTreeSet<usize>> = Vec::new();
    let mut visited: FxHashSet<Vec<usize>> = FxHashSet::default();
    let mut queue: VecDeque<BTreeSet<usize>> = VecDeque::new();
    for c in 0..ncols {
        let l: BTreeSet<usize> = [c].into();
        visited.insert(l.iter().copied().collect());
        queue.push_back(l);
    }

    let mut dequeued = 0usize;
    while let Some(l) = queue.pop_front() {
        dequeued += 1;
        if dequeued > budget {
            if delta.is_empty() {
                return MdpResult {
                    mdps: vec![all],
                    budget_exhausted: true,
                };
            }
            return MdpResult {
                mdps: delta,
                budget_exhausted: true,
            };
        }
        // A superset of a distinguishing projection distinguishes, and is
        // not minimal.
        if delta.iter().any(|d| d.is_subset(&l)) {
            continue;
        }
        let cols: Vec<usize> = l.iter().copied().collect();
        if parts.projections_agree(&cols) {
            for c in 0..ncols {
                if !l.contains(&c) {
                    let mut l2 = l.clone();
                    l2.insert(c);
                    let key: Vec<usize> = l2.iter().copied().collect();
                    if visited.insert(key) {
                        queue.push_back(l2);
                    }
                }
            }
        } else {
            delta.push(l);
        }
    }
    if delta.is_empty() {
        // The full projection itself does not distinguish the outputs —
        // the caller should not have invoked Analyze. Fall back to the
        // full column set so blocking stays sound (it degenerates to
        // blocking the equality pattern of σ).
        delta.push(all);
    }
    MdpResult {
        mdps: delta,
        budget_exhausted: false,
    }
}

/// Decides [`mdp_set_ids`]' BFS nodes by partition refinement over the
/// rows of `actual ∪ expected`: rows `0..n_actual` are the actual table's,
/// the rest the expected table's.
struct Partitioner {
    rows: usize,
    n_actual: u32,
    /// The tables' ids, column-major: row `r`'s id in column `c` is
    /// `ids[c * rows + r]`.
    ids: Vec<u32>,
    /// The partition being refined: row numbers grouped by class. Each
    /// class is ascending (the scatter is stable and refinement starts
    /// from `0..rows`), so its actual rows come first.
    perm: Vec<u32>,
    /// Class `i` is `perm[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
    next_perm: Vec<u32>,
    next_bounds: Vec<u32>,
    /// Per id: its row count in the class being split, then its
    /// sub-class's write position; zero between classes.
    slot: Vec<u32>,
    /// The ids of the class being split, in first-seen order.
    seen: Vec<usize>,
}

impl Partitioner {
    fn new(actual: &IdTable, expected: &IdTable) -> Partitioner {
        let ncols = actual.width();
        let rows = actual.len() + expected.len();
        assert!(u32::try_from(rows).is_ok(), "row numbers are u32");
        let mut ids = vec![0u32; ncols * rows];
        let mut max = 0;
        for (r, row) in actual.rows().chain(expected.rows()).enumerate() {
            for (c, &id) in row.iter().enumerate() {
                ids[c * rows + r] = id;
                max = max.max(id);
            }
        }
        Partitioner {
            rows,
            n_actual: actual.len() as u32,
            ids,
            perm: Vec::with_capacity(rows),
            bounds: Vec::new(),
            next_perm: vec![0; rows],
            next_bounds: Vec::new(),
            slot: vec![0; max as usize + 1],
            seen: Vec::new(),
        }
    }

    /// `actual.project(cols) == expected.project(cols)`: refines the
    /// one-class partition by each column of `cols` and checks that every
    /// class holds rows of both tables. Refinement only splits classes,
    /// so the first one-sided class decides the node.
    fn projections_agree(&mut self, cols: &[usize]) -> bool {
        let (n, na) = (self.rows, self.n_actual);
        if n == 0 {
            return true;
        }
        // Classes are ascending: one holds rows of both tables iff its
        // first row is an actual one and its last an expected one.
        let mixed = |class: &[u32]| class[0] < na && class[class.len() - 1] >= na;
        let Partitioner {
            ids,
            perm,
            bounds,
            next_perm,
            next_bounds,
            slot,
            seen,
            ..
        } = self;
        perm.clear();
        perm.extend(0..n as u32);
        bounds.clear();
        bounds.extend([0, n as u32]);
        if !mixed(&perm[..]) {
            return false;
        }
        for &c in cols {
            let col = &ids[c * n..(c + 1) * n];
            next_bounds.clear();
            next_bounds.push(0);
            for w in bounds.windows(2) {
                let class = &perm[w[0] as usize..w[1] as usize];
                seen.clear();
                for &r in class {
                    let v = col[r as usize] as usize;
                    if slot[v] == 0 {
                        seen.push(v);
                    }
                    slot[v] += 1;
                }
                let mut at = w[0];
                for &v in seen.iter() {
                    let count = slot[v];
                    slot[v] = at;
                    at += count;
                    next_bounds.push(at);
                }
                for &r in class {
                    let v = col[r as usize] as usize;
                    next_perm[slot[v] as usize] = r;
                    slot[v] += 1;
                }
                for &v in seen.iter() {
                    slot[v] = 0;
                }
                let split = &next_bounds[next_bounds.len() - seen.len() - 1..];
                if split
                    .windows(2)
                    .any(|s| !mixed(&next_perm[s[0] as usize..s[1] as usize]))
                {
                    return false;
                }
            }
            std::mem::swap(perm, next_perm);
            std::mem::swap(bounds, next_bounds);
        }
        true
    }
}

/// A literal of the generalization pattern `ψ`, over hole indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternLit {
    /// Hole `i` keeps its assigned element (`x_i = σ(x_i)`).
    Pin(usize),
    /// Holes `i` and `j` take the same element (`x_i = x_j`).
    EqPair(usize, usize),
    /// Holes `i` and `j` take different elements (`x_i ≠ x_j`).
    NePair(usize, usize),
    /// Hole `i` does not take domain element `e` (used to exclude rigid
    /// elements the failing assignment did not use).
    NotElem(usize, DomainElem),
}

/// Computes the pattern `Generalize(σ, ϕ)` of §4.3.
///
/// * `assignment` — the failing assignment σ (one element per hole);
/// * `pinned_attrs` — the target attributes of the MDP ϕ (holes assigned
///   to these head variables are pinned);
/// * `is_rigid` — predicate identifying rigid domain elements (constants
///   and fixed body variables); rigid assignments are always pinned, and
///   unpinned holes are constrained away from every rigid element of their
///   domain via [`PatternLit::NotElem`] (the caller supplies each hole's
///   rigid candidates through `rigid_candidates`).
/// * `rigid_candidates(i)` — rigid elements in the domain of hole `i`.
pub fn generalize(
    assignment: &[DomainElem],
    pinned_attrs: &BTreeSet<String>,
    is_rigid: impl Fn(&DomainElem) -> bool,
    rigid_candidates: impl Fn(usize) -> Vec<DomainElem>,
) -> Vec<PatternLit> {
    let n = assignment.len();
    let pinned: Vec<bool> = assignment
        .iter()
        .map(|e| match e {
            DomainElem::HeadVar(a) => pinned_attrs.contains(a),
            other => is_rigid(other),
        })
        .collect();

    let mut out = Vec::new();
    for (i, &p) in pinned.iter().enumerate() {
        if p {
            out.push(PatternLit::Pin(i));
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if pinned[i] && pinned[j] {
                continue;
            }
            if assignment[i] == assignment[j] {
                out.push(PatternLit::EqPair(i, j));
            } else {
                out.push(PatternLit::NePair(i, j));
            }
        }
    }
    // Rigid-element exclusions for unpinned holes: the renaming argument
    // of Theorem 1 cannot move a variable onto a constant or a fixed
    // connector, so such moves must not be part of the blocked set.
    for (i, &p) in pinned.iter().enumerate() {
        if p {
            continue;
        }
        for e in rigid_candidates(i) {
            if e != assignment[i] {
                out.push(PatternLit::NotElem(i, e));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamite_instance::Value;
    use std::collections::BTreeSet as Set;

    fn table(cols: &[&str], rows: &[&[i64]]) -> FlatTable {
        FlatTable {
            columns: cols.iter().map(|c| c.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        }
    }

    fn table_str(cols: &[&str], rows: &[&[&str]]) -> FlatTable {
        FlatTable {
            columns: cols.iter().map(|c| c.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|&v| Value::str(v)).collect())
                .collect(),
        }
    }

    #[test]
    fn figure3_mdp_is_num_and_gradug() {
        // Figure 3: actual {(U1,U1,10),(U2,U2,20)} vs expected
        // {(U1,U1,10),(U1,U2,50),(U2,U2,20),(U2,U1,40)} over
        // (grad, ug, num). The paper derives MDPs {num} and {grad, ug}
        // (Example 9).
        let actual = table_str(
            &["grad", "ug", "num"],
            &[&["U1", "U1", "10"], &["U2", "U2", "20"]],
        );
        let expected = table_str(
            &["grad", "ug", "num"],
            &[
                &["U1", "U1", "10"],
                &["U1", "U2", "50"],
                &["U2", "U2", "20"],
                &["U2", "U1", "40"],
            ],
        );
        let r = mdp_set(&actual, &expected, 10_000);
        assert!(!r.budget_exhausted);
        let sets: Vec<Set<usize>> = r.mdps;
        // {num} = {2} and {grad, ug} = {0, 1}.
        assert!(sets.contains(&[2usize].into()));
        assert!(sets.contains(&[0usize, 1].into()));
        assert_eq!(sets.len(), 2);
    }

    #[test]
    fn mdps_are_minimal_and_distinguishing() {
        let actual = table(&["a", "b", "c"], &[&[1, 2, 3], &[4, 5, 6]]);
        let expected = table(&["a", "b", "c"], &[&[1, 2, 3], &[4, 5, 7]]);
        let r = mdp_set(&actual, &expected, 10_000);
        for mdp in &r.mdps {
            let cols: Vec<usize> = mdp.iter().copied().collect();
            assert_ne!(actual.project(&cols), expected.project(&cols));
            for &drop in mdp {
                let sub: Vec<usize> = mdp.iter().copied().filter(|&c| c != drop).collect();
                if !sub.is_empty() {
                    assert_eq!(actual.project(&sub), expected.project(&sub));
                }
            }
        }
        // c distinguishes alone (6 vs 7).
        assert!(r.mdps.contains(&[2usize].into()));
    }

    #[test]
    fn budget_exhaustion_falls_back_to_full_set() {
        // Tables that agree on every proper projection cannot exist, so
        // emulate budget pressure with budget=0.
        let actual = table(&["a", "b"], &[&[1, 2]]);
        let expected = table(&["a", "b"], &[&[1, 3]]);
        let r = mdp_set(&actual, &expected, 0);
        assert!(r.budget_exhausted);
        assert_eq!(r.mdps, vec![[0usize, 1].into()]);
    }

    #[test]
    fn generalize_example8_shape() {
        // Example 8: ϕ = {num} pins only x4 (hole 3 in 0-based indexing);
        // everything else becomes the pairwise pattern.
        let hv = |s: &str| DomainElem::HeadVar(s.to_string());
        let bv = |s: &str| DomainElem::BodyVar(s.to_string());
        let sigma = vec![
            bv("id1"),   // x1
            hv("grad"),  // x2
            bv("id1"),   // x3
            hv("num"),   // x4
            bv("id1"),   // x5
            hv("ug"),    // x6
            bv("id2"),   // x7
            bv("name1"), // x8
        ];
        let pinned: BTreeSet<String> = ["num".to_string()].into();
        let psi = generalize(&sigma, &pinned, |_| false, |_| vec![]);
        // Exactly one pin: x4.
        let pins: Vec<&PatternLit> = psi
            .iter()
            .filter(|l| matches!(l, PatternLit::Pin(_)))
            .collect();
        assert_eq!(pins, vec![&PatternLit::Pin(3)]);
        // x1 = x3, x1 = x5 (the id1 equalities of formula (5)).
        assert!(psi.contains(&PatternLit::EqPair(0, 2)));
        assert!(psi.contains(&PatternLit::EqPair(0, 4)));
        // x1 ≠ x7.
        assert!(psi.contains(&PatternLit::NePair(0, 6)));
        // grad is NOT pinned under ϕ = {num}.
        assert!(!psi.contains(&PatternLit::Pin(1)));
    }

    #[test]
    fn generalize_pins_rigid_elements() {
        let bv = |s: &str| DomainElem::BodyVar(s.to_string());
        let cst = DomainElem::Const(Value::Int(5));
        let sigma = vec![cst.clone(), bv("id1")];
        let psi = generalize(
            &sigma,
            &BTreeSet::new(),
            |e| matches!(e, DomainElem::Const(_)),
            |i| {
                if i == 1 {
                    vec![DomainElem::Const(Value::Int(5))]
                } else {
                    vec![]
                }
            },
        );
        assert!(psi.contains(&PatternLit::Pin(0)));
        // Unpinned hole 1 must not move onto the constant.
        assert!(psi
            .iter()
            .any(|l| matches!(l, PatternLit::NotElem(1, DomainElem::Const(_)))));
    }

    #[test]
    fn no_difference_falls_back_to_full_projection() {
        let t = table(&["a"], &[&[1]]);
        let r = mdp_set(&t, &t, 100);
        assert_eq!(r.mdps, vec![[0usize].into()]);
    }
}
