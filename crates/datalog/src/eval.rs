//! Stratified semi-naive Datalog evaluation.
//!
//! The paper only needs positive non-recursive programs (it delegates to
//! Soufflé); this engine additionally supports recursion and stratified
//! negation, so it stands alone as a general Datalog substrate.
//!
//! Evaluation pipeline:
//! 1. well-formedness checks ([`Program::check_well_formed`]);
//! 2. stratum assignment (iterative fixpoint; negation through a cycle is
//!    rejected as unstratifiable);
//! 3. per stratum, semi-naive fixpoint over a reusable evaluation context
//!    ([`Evaluator`](crate::Evaluator)) with persistent, incrementally
//!    maintained join indexes.
//!
//! This module holds the error type, the pieces shared by every engine
//! (arity validation and stratification), and the classic
//! [`evaluate`] entry point, which is a thin wrapper constructing a
//! single-use [`Evaluator`](crate::Evaluator). Callers that evaluate many
//! programs against the same database should construct the context once
//! instead.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dynamite_instance::{ColumnIndex, Database, Relation, RowChange};

use crate::ast::{Program, Rule, WellFormedError};
use crate::engine::{repair_index, Evaluator, IndexCache};

/// Errors raised by the evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The program is ill-formed.
    WellFormed(WellFormedError),
    /// Negation occurs inside a recursive cycle.
    Unstratifiable { relation: String },
    /// An input relation's arity disagrees with the program's usage.
    InputArity {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// An incremental delta tried to insert or delete facts of an
    /// intensional (derived) relation — only extensional facts are
    /// mutable; derived ones follow from the rules.
    IntensionalDelta { relation: String },
    /// The governor's wall-clock deadline elapsed mid-evaluation.
    DeadlineExceeded,
    /// The governor's unique-derived-fact budget was exhausted.
    FactBudgetExceeded { budget: u64 },
    /// The governor's evaluation-round cap was exceeded.
    RoundCapExceeded { cap: u64 },
    /// The evaluation was cancelled via [`Governor::cancel`](crate::Governor::cancel).
    Cancelled,
    /// An audit found the maintained overlay diverged from what full
    /// evaluation derives — see
    /// [`IncrementalEvaluator::audit`](crate::IncrementalEvaluator::audit).
    /// Not a resource trip: retrying changes nothing,
    /// [`repair`](crate::IncrementalEvaluator::repair) is the remedy.
    Drift(crate::incremental::DriftError),
}

/// Which governor limit tripped an evaluation — the payload-free
/// classification of [`EvalError`]'s resource variants, for callers that
/// tally trips per kind (the synthesizer's skip statistics, migrate's
/// summary) without carrying the budget values around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceTrip {
    /// Wall-clock deadline ([`EvalError::DeadlineExceeded`]).
    Deadline,
    /// Unique-derived-fact budget ([`EvalError::FactBudgetExceeded`]).
    FactBudget,
    /// Fixpoint-round cap ([`EvalError::RoundCapExceeded`]).
    RoundCap,
    /// External cancellation ([`EvalError::Cancelled`]).
    Cancelled,
}

impl fmt::Display for ResourceTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceTrip::Deadline => write!(f, "deadline"),
            ResourceTrip::FactBudget => write!(f, "fact budget"),
            ResourceTrip::RoundCap => write!(f, "round cap"),
            ResourceTrip::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl EvalError {
    /// `true` for the resource-governance trip causes
    /// ([`DeadlineExceeded`](EvalError::DeadlineExceeded),
    /// [`FactBudgetExceeded`](EvalError::FactBudgetExceeded),
    /// [`RoundCapExceeded`](EvalError::RoundCapExceeded),
    /// [`Cancelled`](EvalError::Cancelled)) — the errors that condemn one
    /// evaluation, not the program itself.
    pub fn is_resource_limit(&self) -> bool {
        self.resource_trip().is_some()
    }

    /// The tripped limit's kind, or `None` for non-resource errors.
    pub fn resource_trip(&self) -> Option<ResourceTrip> {
        match self {
            EvalError::DeadlineExceeded => Some(ResourceTrip::Deadline),
            EvalError::FactBudgetExceeded { .. } => Some(ResourceTrip::FactBudget),
            EvalError::RoundCapExceeded { .. } => Some(ResourceTrip::RoundCap),
            EvalError::Cancelled => Some(ResourceTrip::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::WellFormed(e) => write!(f, "{e}"),
            EvalError::Unstratifiable { relation } => {
                write!(
                    f,
                    "program is not stratifiable (negation through `{relation}`)"
                )
            }
            EvalError::InputArity {
                relation,
                expected,
                got,
            } => write!(
                f,
                "input relation `{relation}` has arity {got}, program expects {expected}"
            ),
            EvalError::IntensionalDelta { relation } => write!(
                f,
                "cannot apply a delta to intensional relation `{relation}`: derived facts follow from the rules"
            ),
            EvalError::DeadlineExceeded => write!(f, "evaluation deadline exceeded"),
            EvalError::FactBudgetExceeded { budget } => {
                write!(f, "evaluation exceeded the derived-fact budget ({budget})")
            }
            EvalError::RoundCapExceeded { cap } => {
                write!(f, "evaluation exceeded the fixpoint-round cap ({cap})")
            }
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::Drift(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<WellFormedError> for EvalError {
    fn from(e: WellFormedError) -> EvalError {
        EvalError::WellFormed(e)
    }
}

/// Evaluates `program` on `input`, returning the derived intensional
/// relations (the least Herbrand model restricted to IDB relations; §3.2).
///
/// Extensional relations missing from `input` are treated as empty.
///
/// This is the compatibility entry point for borrowed inputs: it clones
/// `input` into a fresh [`Evaluator`] and evaluates once. Callers that own
/// their facts should move them into [`Evaluator::new`] instead (no
/// clone), and workloads that evaluate many candidate programs against one
/// database (the synthesis loop) should build the context once and call
/// [`Evaluator::eval`] repeatedly.
pub fn evaluate(program: &Program, input: &Database) -> Result<Database, EvalError> {
    Evaluator::new(input.clone()).eval(program)
}

/// Validates one extensional update batch before anything is applied —
/// the check every `apply_delta` shares, so a bad batch is a typed error
/// that changes nothing. Relations `program` derives are rejected
/// ([`EvalError::IntensionalDelta`]); a non-empty relation whose arity
/// differs from the program's usage or from the live `edb`'s is an
/// [`EvalError::InputArity`]. Empty relations pass regardless of arity,
/// mirroring `check_arities`.
pub(crate) fn check_delta(
    program: &Program,
    edb: &Database,
    inserts: &Database,
    deletes: &Database,
) -> Result<(), EvalError> {
    let idb = program.intensional();
    for batch in [inserts, deletes] {
        if let Some(name) = batch.names().find(|n| idb.contains(n)) {
            return Err(EvalError::IntensionalDelta {
                relation: name.to_string(),
            });
        }
        check_arities(program, batch)?;
        for (name, rel) in batch.iter() {
            match edb.relation(name) {
                Some(cur) if !rel.is_empty() && cur.arity() != rel.arity() => {
                    return Err(EvalError::InputArity {
                        relation: name.to_string(),
                        expected: cur.arity(),
                        got: rel.arity(),
                    });
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// The rows of `deletes` present in `edb`: what deleting them removes.
pub(crate) fn present_rows(edb: &Database, deletes: &Database) -> Database {
    Database::from_relations(deletes.iter().filter_map(|(name, rel)| {
        let cur = edb.relation(name)?;
        let mut rows = Relation::new_untracked(rel.arity());
        for row in rel.iter().filter(|&row| cur.contains_row(row)) {
            rows.insert_row(row);
        }
        (!rows.is_empty()).then(|| (name.to_string(), rows))
    }))
}

/// The rows one validated update batch changed in a live EDB: the
/// deleted rows that were present and the inserted rows that were
/// absent. DRed seeds its insertion rounds from `added`, and
/// [`undo`](EdbEdit::undo) reverses exactly these rows.
pub(crate) struct EdbEdit {
    removed: Database,
    pub(crate) added: Database,
}

impl EdbEdit {
    /// Applies a validated batch to `edb`, the one place a batch mutates
    /// an EDB. Deletions go first, so a fact in both batches ends up
    /// present. Every cached EDB index of a changed relation is repaired
    /// in place: an insert appends its new row id, and a delete repairs
    /// the index for the removed row and the row swap-removal moved into
    /// its slot. The work is O(batch), never O(relation). An index some
    /// other handle still shares (so `Arc::get_mut` fails) is dropped
    /// instead and rebuilt on next use.
    pub(crate) fn apply(
        edb: &mut Database,
        indexes: &mut IndexCache,
        inserts: &Database,
        deletes: &Database,
    ) -> EdbEdit {
        let removed = present_rows(edb, deletes);
        for (name, rows) in removed.iter() {
            let mut live = unshared_indexes(indexes, name);
            edb.relation_mut(name, rows.arity()).remove_rows_with(
                rows.iter().map(|row| row.to_vec()),
                |row, change| {
                    for (cols, idx) in live.iter_mut() {
                        repair_index(idx, cols, row, change);
                    }
                },
            );
        }
        let mut added = Vec::new();
        // Empty relations carry no rows and may have any arity.
        for (name, rel) in inserts.iter().filter(|(_, rel)| !rel.is_empty()) {
            let cur = edb.relation_mut(name, rel.arity());
            let mut live = unshared_indexes(indexes, name);
            let mut rows = Relation::new_untracked(rel.arity());
            for row in rel.iter() {
                if cur.insert_row(row) {
                    let id = cur.len() - 1;
                    let at = cur.get(id).expect("just appended");
                    for (cols, idx) in live.iter_mut() {
                        repair_index(idx, cols, at, RowChange::Appended(id as u32));
                    }
                    rows.insert_row(row);
                }
            }
            if !rows.is_empty() {
                added.push((name.to_string(), rows));
            }
        }
        EdbEdit {
            removed,
            added: Database::from_relations(added),
        }
    }

    /// Reverts the edit by applying its inverse: the added rows go first,
    /// then the removed rows return, appended at the end of their
    /// relations. (Restoring first would lose a fact the batch deleted
    /// and re-inserted.)
    pub(crate) fn undo(&self, edb: &mut Database, indexes: &mut IndexCache) {
        EdbEdit::apply(edb, indexes, &self.removed, &self.added);
    }
}

/// The cached indexes of relation `name` that only the cache holds,
/// ready to repair in place. Indexes another handle still shares are
/// dropped from the cache: they cannot be edited, and a stale one must
/// not be served.
fn unshared_indexes<'c>(
    indexes: &'c mut IndexCache,
    name: &str,
) -> Vec<(&'c [usize], &'c mut ColumnIndex)> {
    let Some(by_cols) = indexes.get_mut(name) else {
        return Vec::new();
    };
    by_cols.retain(|_, idx| Arc::get_mut(idx).is_some());
    by_cols
        .iter_mut()
        .map(|(cols, idx)| {
            let idx = Arc::get_mut(idx).expect("shared indexes were dropped");
            (cols.as_slice(), idx)
        })
        .collect()
}

/// Relation arities as used by `program`, validated against `input`.
pub(crate) fn check_arities<'p>(
    program: &'p Program,
    input: &Database,
) -> Result<HashMap<&'p str, usize>, EvalError> {
    let mut arities: HashMap<&str, usize> = HashMap::new();
    for rule in &program.rules {
        for atom in rule.heads.iter().chain(rule.body.iter().map(|l| &l.atom)) {
            arities.insert(&atom.relation, atom.terms.len());
        }
    }
    for (name, rel) in input.iter() {
        if let Some(&expected) = arities.get(name) {
            if !rel.is_empty() && rel.arity() != expected {
                return Err(EvalError::InputArity {
                    relation: name.to_string(),
                    expected,
                    got: rel.arity(),
                });
            }
        }
    }
    Ok(arities)
}

/// Stratum of a rule: the maximum stratum among its head relations.
pub(crate) fn rule_stratum(rule: &Rule, strata: &HashMap<String, usize>) -> usize {
    rule.heads
        .iter()
        .filter_map(|h| strata.get(&h.relation))
        .copied()
        .max()
        .unwrap_or(0)
}

/// Iterative stratification. `stratum[h] ≥ stratum[b]` for positive body
/// literals and `stratum[h] > stratum[b]` for negated ones; failure to
/// converge within `|IDB|` rounds means negation occurs in a cycle.
pub(crate) fn stratify(
    program: &Program,
    idb: &[&str],
) -> Result<HashMap<String, usize>, EvalError> {
    let mut strata: HashMap<String, usize> = idb.iter().map(|r| (r.to_string(), 0usize)).collect();
    let bound = idb.len() + 1;
    for _ in 0..=bound {
        let mut changed = false;
        for rule in &program.rules {
            for head in &rule.heads {
                let mut need = strata.get(&head.relation).copied().unwrap_or(0);
                for l in &rule.body {
                    if let Some(&bs) = strata.get(&l.atom.relation) {
                        let req = if l.negated { bs + 1 } else { bs };
                        need = need.max(req);
                    }
                }
                if need > bound {
                    return Err(EvalError::Unstratifiable {
                        relation: head.relation.clone(),
                    });
                }
                if strata.get(&head.relation) != Some(&need) {
                    strata.insert(head.relation.clone(), need);
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(strata);
        }
    }
    Err(EvalError::Unstratifiable {
        relation: idb.first().copied().unwrap_or("?").to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamite_instance::Value;

    fn db(facts: &[(&str, &[i64])]) -> Database {
        let mut d = Database::new();
        for (rel, vals) in facts {
            d.insert(rel, vals.iter().map(|&v| Value::Int(v)).collect());
        }
        d
    }

    fn rows(out: &Database, rel: &str) -> Vec<Vec<i64>> {
        let mut v: Vec<Vec<i64>> = out
            .relation(rel)
            .map(|r| {
                r.iter()
                    .map(|t| t.iter().map(|x| x.as_int().unwrap()).collect())
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    #[test]
    fn simple_join_and_projection() {
        let p = Program::parse("Q(x, z) :- R(x, y), S(y, z).").unwrap();
        let input = db(&[
            ("R", &[1, 10]),
            ("R", &[2, 20]),
            ("S", &[10, 100]),
            ("S", &[10, 101]),
        ]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Q"), vec![vec![1, 100], vec![1, 101]]);
    }

    #[test]
    fn constants_filter() {
        let p = Program::parse("Q(x) :- R(x, 20).").unwrap();
        let input = db(&[("R", &[1, 10]), ("R", &[2, 20])]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Q"), vec![vec![2]]);
    }

    #[test]
    fn wildcards_match_anything() {
        let p = Program::parse("Q(x) :- R(x, _).").unwrap();
        let input = db(&[("R", &[1, 10]), ("R", &[1, 11]), ("R", &[2, 20])]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Q"), vec![vec![1], vec![2]]);
    }

    #[test]
    fn repeated_variable_within_literal() {
        let p = Program::parse("Q(x) :- R(x, x).").unwrap();
        let input = db(&[("R", &[1, 1]), ("R", &[1, 2])]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Q"), vec![vec![1]]);
    }

    #[test]
    fn repeated_fresh_variable_in_indexed_literal() {
        // The R literal is joined second (indexed on y); x repeats within
        // it and is not bound beforehand.
        let p = Program::parse("Q(y) :- A(y), R(x, x, y).").unwrap();
        let input = db(&[
            ("A", &[7]),
            ("A", &[8]),
            ("R", &[1, 1, 7]),
            ("R", &[1, 2, 8]),
        ]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Q"), vec![vec![7]]);
    }

    #[test]
    fn transitive_closure_recursion() {
        let p = Program::parse(
            "Path(x, y) :- Edge(x, y).
             Path(x, z) :- Path(x, y), Edge(y, z).",
        )
        .unwrap();
        let input = db(&[("Edge", &[1, 2]), ("Edge", &[2, 3]), ("Edge", &[3, 4])]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Path").len(), 6);
        assert!(rows(&out, "Path").contains(&vec![1, 4]));
    }

    #[test]
    fn recursion_with_cycle_terminates() {
        let p = Program::parse(
            "Path(x, y) :- Edge(x, y).
             Path(x, z) :- Path(x, y), Edge(y, z).",
        )
        .unwrap();
        let input = db(&[("Edge", &[1, 2]), ("Edge", &[2, 1])]);
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(
            rows(&out, "Path"),
            vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]
        );
    }

    #[test]
    fn stratified_negation() {
        let p = Program::parse(
            "Reach(x) :- Start(x).
             Reach(y) :- Reach(x), Edge(x, y).
             Unreach(x) :- Node(x), !Reach(x).",
        )
        .unwrap();
        let input = {
            let mut d = db(&[
                ("Edge", &[1, 2]),
                ("Node", &[1]),
                ("Node", &[2]),
                ("Node", &[3]),
            ]);
            d.insert("Start", vec![Value::Int(1)]);
            d
        };
        let out = evaluate(&p, &input).unwrap();
        assert_eq!(rows(&out, "Reach"), vec![vec![1], vec![2]]);
        assert_eq!(rows(&out, "Unreach"), vec![vec![3]]);
    }

    #[test]
    fn unstratifiable_rejected() {
        let p = Program::parse("A(x) :- B(x), !A(x).").unwrap();
        assert!(matches!(
            evaluate(&p, &db(&[("B", &[1])])),
            Err(EvalError::Unstratifiable { .. })
        ));
    }

    #[test]
    fn multi_head_rules() {
        let p = Program::parse("A(x), B(x, y) :- C(x, y).").unwrap();
        let out = evaluate(&p, &db(&[("C", &[1, 2])])).unwrap();
        assert_eq!(rows(&out, "A"), vec![vec![1]]);
        assert_eq!(rows(&out, "B"), vec![vec![1, 2]]);
    }

    #[test]
    fn ground_facts_in_program() {
        let p = Program::parse("A(7). A(x) :- B(x).").unwrap();
        let out = evaluate(&p, &db(&[("B", &[1])])).unwrap();
        assert_eq!(rows(&out, "A"), vec![vec![1], vec![7]]);
    }

    #[test]
    fn empty_edb_is_empty_result() {
        let p = Program::parse("Q(x, z) :- R(x, y), S(y, z).").unwrap();
        let out = evaluate(&p, &Database::new()).unwrap();
        assert!(out.relation("Q").unwrap().is_empty());
    }

    #[test]
    fn idb_used_in_later_rule() {
        let p = Program::parse(
            "Mid(x, y) :- R(x, y).
             Q(x) :- Mid(x, _).",
        )
        .unwrap();
        let out = evaluate(&p, &db(&[("R", &[5, 6])])).unwrap();
        assert_eq!(rows(&out, "Q"), vec![vec![5]]);
    }

    #[test]
    fn motivating_example_program() {
        // §2: Admission(grad, ug, num) :- Univ(id1, grad, v1),
        //     Admit(v1, id2, num), Univ(id2, ug, _).
        let p = Program::parse(
            "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
        )
        .unwrap();
        let mut input = Database::new();
        input.insert("Univ", vec![1.into(), "U1".into(), Value::Id(100)]);
        input.insert("Univ", vec![2.into(), "U2".into(), Value::Id(200)]);
        input.insert("Admit", vec![Value::Id(100), 1.into(), 10.into()]);
        input.insert("Admit", vec![Value::Id(100), 2.into(), 50.into()]);
        input.insert("Admit", vec![Value::Id(200), 2.into(), 20.into()]);
        input.insert("Admit", vec![Value::Id(200), 1.into(), 40.into()]);
        let out = evaluate(&p, &input).unwrap();
        let adm = out.relation("Admission").unwrap();
        assert_eq!(adm.len(), 4);
        assert!(adm.contains(&["U1".into(), "U2".into(), 50.into()]));
        assert!(adm.contains(&["U2".into(), "U1".into(), 40.into()]));
    }

    #[test]
    fn incorrect_program_from_figure3() {
        // The incorrect candidate P from §2 yields only the "diagonal".
        let p = Program::parse(
            "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id1, num), Univ(id1, ug, _), Univ(id2, name1, _).",
        )
        .unwrap();
        let mut input = Database::new();
        input.insert("Univ", vec![1.into(), "U1".into(), Value::Id(100)]);
        input.insert("Univ", vec![2.into(), "U2".into(), Value::Id(200)]);
        input.insert("Admit", vec![Value::Id(100), 1.into(), 10.into()]);
        input.insert("Admit", vec![Value::Id(100), 2.into(), 50.into()]);
        input.insert("Admit", vec![Value::Id(200), 2.into(), 20.into()]);
        input.insert("Admit", vec![Value::Id(200), 1.into(), 40.into()]);
        let out = evaluate(&p, &input).unwrap();
        let adm = out.relation("Admission").unwrap();
        // Figure 3(a): exactly (U1, U1, 10) and (U2, U2, 20).
        assert_eq!(adm.len(), 2);
        assert!(adm.contains(&["U1".into(), "U1".into(), 10.into()]));
        assert!(adm.contains(&["U2".into(), "U2".into(), 20.into()]));
    }

    #[test]
    fn context_reuse_matches_one_shot_evaluation() {
        let input = db(&[
            ("R", &[1, 10]),
            ("R", &[2, 20]),
            ("S", &[10, 100]),
            ("S", &[20, 200]),
        ]);
        let ctx = Evaluator::new(input.clone());
        for src in [
            "Q(x, z) :- R(x, y), S(y, z).",
            "Q(x) :- R(x, _).",
            "Q(y) :- R(_, y), S(y, _).",
            "Q(x) :- R(x, y), !S(y, 999).",
        ] {
            let p = Program::parse(src).unwrap();
            assert_eq!(
                ctx.eval(&p).unwrap(),
                evaluate(&p, &input).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn negation_probe_matches_legacy_scan() {
        let p = Program::parse(
            "Reach(x) :- Start(x).
             Reach(y) :- Reach(x), Edge(x, y).
             Unreach(x) :- Node(x), !Reach(x).
             Isolated(x) :- Node(x), !Edge(x, _), !Edge(_, x).",
        )
        .unwrap();
        let mut input = db(&[
            ("Edge", &[1, 2]),
            ("Edge", &[2, 3]),
            ("Node", &[1]),
            ("Node", &[2]),
            ("Node", &[3]),
            ("Node", &[4]),
        ]);
        input.insert("Start", vec![Value::Int(1)]);
        let new = evaluate(&p, &input).unwrap();
        let old = crate::legacy::evaluate(&p, &input).unwrap();
        assert_eq!(new, old);
        assert_eq!(rows(&new, "Isolated"), vec![vec![4]]);
    }
}
