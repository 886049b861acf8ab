//! A Mitra-like baseline for document→relational synthesis (Figure 9b).
//!
//! Mitra \[48\] enumerates tree-to-table extraction programs in a
//! type-directed DSL and validates candidates against the example. This
//! re-creation keeps that structure: for each target table it anchors on a
//! source record type, enumerates type-compatible column assignments over
//! the anchor's root-to-record path, and validates each full candidate by
//! evaluation — *without* Dynamite's conflict learning, which is precisely
//! the difference Figure 9b measures.

use std::time::{Duration, Instant};

use dynamite_core::Example;
use dynamite_datalog::{Atom, Evaluator, Governor, Literal, Program, ResourceLimits, Rule, Term};
use dynamite_instance::{to_facts, Flattened};
use dynamite_schema::Schema;

/// Result of a Mitra-like synthesis run.
#[derive(Debug, Clone)]
pub struct MitraResult {
    /// The synthesized program (one rule per target table).
    pub program: Program,
    /// Wall-clock synthesis time.
    pub time: Duration,
    /// Candidates evaluated.
    pub candidates: usize,
}

/// Errors from the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitraError {
    /// No extraction program consistent with the example was found.
    NoProgram { table: String },
    /// Exceeded the time budget.
    Timeout,
}

impl std::fmt::Display for MitraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MitraError::NoProgram { table } => {
                write!(f, "mitra baseline found no program for `{table}`")
            }
            MitraError::Timeout => write!(f, "mitra baseline timed out"),
        }
    }
}

impl std::error::Error for MitraError {}

/// Synthesizes a document→relational mapping Mitra-style.
pub fn synthesize_mitra(
    source: &Schema,
    target: &Schema,
    example: &Example,
    timeout: Duration,
) -> Result<MitraResult, MitraError> {
    let started = Instant::now();
    // One governor covers the whole odometer sweep: the deadline is
    // checked both between candidates and *inside* each candidate's
    // fixpoint, so a single pathological candidate cannot blow past the
    // budget the way the old `elapsed() > timeout` loop check could.
    let gov = Governor::new(ResourceLimits::none().with_deadline(started + timeout));
    // One prepared context for the whole odometer sweep: every candidate
    // shares the example's EDB snapshot and join indexes.
    let input_ctx = Evaluator::new(to_facts(&example.input));
    let expected_flat = example.output.flatten();
    let mut candidates = 0usize;
    let mut rules = Vec::new();

    for table in target.top_level_records() {
        let columns: Vec<(&String, dynamite_schema::PrimType)> = target
            .attrs(table)
            .iter()
            .map(|a| (a, target.prim_type(a).expect("relational target")))
            .collect();
        let mut found = None;

        // Anchor on each source record type: the candidate columns are the
        // primitive attributes along the anchor's root-to-record path.
        'anchors: for anchor in source.records() {
            let chain = source.chain_to(anchor);
            // (record, attr) pairs along the chain with their types.
            let mut path_attrs: Vec<(&str, &str, dynamite_schema::PrimType)> = Vec::new();
            for rec in &chain {
                for a in source.attrs(rec) {
                    if let Some(t) = source.prim_type(a) {
                        path_attrs.push((rec, a, t));
                    }
                }
            }
            // Per-column candidate attribute indices (type-directed).
            let cand: Vec<Vec<usize>> = columns
                .iter()
                .map(|(_, ty)| {
                    path_attrs
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, _, t))| t == ty)
                        .map(|(i, _)| i)
                        .collect()
                })
                .collect();
            if cand.iter().any(Vec::is_empty) {
                continue;
            }
            // Odometer over full column assignments, validating each
            // candidate by evaluation (no learning).
            let mut pick = vec![0usize; columns.len()];
            loop {
                if gov.check().is_err() {
                    return Err(MitraError::Timeout);
                }
                candidates += 1;
                let rule = build_rule(source, table, &chain, &path_attrs, &columns, &pick, &cand);
                let prog = Program::new(vec![rule.clone()]);
                let result = input_ctx.eval_governed(&prog, &gov);
                if result
                    .as_ref()
                    .is_err_and(dynamite_datalog::EvalError::is_resource_limit)
                {
                    return Err(MitraError::Timeout);
                }
                let ok = result
                    .ok()
                    .and_then(|out| Flattened::from_facts(&out, target).ok())
                    .is_some_and(|actual| actual.table(table) == expected_flat.table(table));
                if ok {
                    found = Some(rule);
                    break 'anchors;
                }
                // Advance the odometer; exhausting it moves to the next
                // anchor.
                let mut d = columns.len();
                loop {
                    if d == 0 {
                        continue 'anchors;
                    }
                    d -= 1;
                    pick[d] += 1;
                    if pick[d] < cand[d].len() {
                        break;
                    }
                    pick[d] = 0;
                }
            }
        }

        match found {
            Some(rule) => rules.push(rule),
            None => {
                return Err(MitraError::NoProgram {
                    table: table.to_string(),
                })
            }
        }
    }

    Ok(MitraResult {
        program: Program::new(rules),
        time: started.elapsed(),
        candidates,
    })
}

/// Builds the Datalog rule for an anchor chain and a column assignment.
#[allow(clippy::too_many_arguments)]
fn build_rule(
    source: &Schema,
    table: &str,
    chain: &[&str],
    path_attrs: &[(&str, &str, dynamite_schema::PrimType)],
    columns: &[(&String, dynamite_schema::PrimType)],
    pick: &[usize],
    cand: &[Vec<usize>],
) -> Rule {
    // Variable for every (record, attr) on the path; connectors between
    // chain levels.
    let var_of = |rec: &str, attr: &str| format!("{rec}_{attr}");
    let mut body = Vec::new();
    for (li, rec) in chain.iter().enumerate() {
        let mut terms = Vec::new();
        if li > 0 {
            terms.push(Term::Var(format!("conn{li}")));
        }
        for a in source.attrs(rec) {
            if source.is_prim(a) {
                terms.push(Term::Var(var_of(rec, a)));
            } else if chain.get(li + 1).is_some_and(|c| c == a) {
                terms.push(Term::Var(format!("conn{}", li + 1)));
            } else {
                terms.push(Term::Wildcard);
            }
        }
        body.push(Literal::pos(Atom::new(rec.to_string(), terms)));
    }
    let head_terms: Vec<Term> = columns
        .iter()
        .zip(pick)
        .zip(cand)
        .map(|(((_, _), &pi), cs)| {
            let (rec, attr, _) = path_attrs[cs[pi]];
            Term::Var(var_of(rec, attr))
        })
        .collect();
    Rule::new(Atom::new(table.to_string(), head_terms), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::by_name;
    use crate::sensitivity::correct_on;

    #[test]
    fn mitra_solves_dblp1() {
        // The sweep's shared governor arms the fault hook points, so
        // serialize against env-armed fault injection (CI fault leg).
        let _guard = dynamite_datalog::fault::test_lock();
        dynamite_datalog::fault::reset();
        let b = by_name("DBLP-1").unwrap();
        let ex = b.example();
        let r = synthesize_mitra(b.source(), b.target(), &ex, Duration::from_secs(60))
            .expect("mitra solves DBLP-1");
        let validation = b.generate_source(1, 99);
        assert!(correct_on(&b, &r.program, &validation));
        assert!(r.candidates >= 1);
    }

    #[test]
    fn mitra_solves_yelp1() {
        let _guard = dynamite_datalog::fault::test_lock();
        dynamite_datalog::fault::reset();
        let b = by_name("Yelp-1").unwrap();
        let ex = b.example();
        let r = synthesize_mitra(b.source(), b.target(), &ex, Duration::from_secs(120))
            .expect("mitra solves Yelp-1");
        let validation = b.generate_source(1, 98);
        assert!(correct_on(&b, &r.program, &validation));
    }
}
