//! The pre-context interpreter, preserved verbatim in behaviour.
//!
//! This is the original evaluator: it clones the whole EDB per call,
//! recompiles every rule in every fixpoint round, rebuilds each join
//! index from scratch per rule per round, and checks negation by scanning
//! the negated relation per emitted tuple. It is kept only as the
//! differential-testing oracle: `tests/properties.rs` evaluates random
//! stratified programs through both this interpreter and the
//! [`Evaluator`](crate::Evaluator) context and asserts identical outputs,
//! so index reuse, interning, planning and parallelism cannot drift the
//! semantics. The `perfbench` harness likewise checks every migration and
//! synthesized program it times against this interpreter, outside its
//! timed spans. Being simple is its job; do not optimise it.

use dynamite_instance::hash::FxHashMap;
use dynamite_instance::{Database, Relation, RowRef, Value};

use crate::ast::{Literal, Program, Rule, Term};
use crate::eval::{check_arities, rule_stratum, stratify, EvalError};

/// Evaluates `program` on `input` with the original one-shot interpreter.
pub fn evaluate(program: &Program, input: &Database) -> Result<Database, EvalError> {
    program.check_well_formed()?;
    let arities = check_arities(program, input)?;

    let idb: Vec<&str> = program.intensional().into_iter().collect();
    let strata = stratify(program, &idb)?;
    let max_stratum = strata.values().copied().max().unwrap_or(0);

    // `total` holds EDB + derived IDB; `out` only IDB.
    let mut total = input.clone();
    let mut out = Database::new();
    for &r in &idb {
        let arity = arities[r];
        out.relation_mut(r, arity);
        total.relation_mut(r, arity);
    }

    for s in 0..=max_stratum {
        let rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| rule_stratum(r, &strata) == s)
            .collect();
        if rules.is_empty() {
            continue;
        }
        let in_stratum: Vec<&str> = idb
            .iter()
            .copied()
            .filter(|r| strata.get(*r) == Some(&s))
            .collect();
        run_stratum(&rules, &in_stratum, &mut total, &mut out, &arities);
    }
    Ok(out)
}

/// A rule compiled for evaluation: variables become dense indices and each
/// positive literal records which columns are bound at its join position.
struct Compiled<'r> {
    rule: &'r Rule,
    nvars: usize,
    var_index: FxHashMap<&'r str, usize>,
    /// Positive literals in join order (delta occurrence first, if any),
    /// with their original body positions.
    positives: Vec<(usize, &'r Literal)>,
    negatives: Vec<&'r Literal>,
}

enum Slot {
    Const(Value),
    Bound(usize),
    Free(usize),
    Wild,
}

impl<'r> Compiled<'r> {
    fn new(rule: &'r Rule, delta_pos: Option<usize>) -> Compiled<'r> {
        let mut var_index = FxHashMap::default();
        for v in rule.all_vars() {
            let next = var_index.len();
            var_index.entry(v).or_insert(next);
        }
        let mut positives: Vec<(usize, &Literal)> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated)
            .collect();
        if let Some(d) = delta_pos {
            if let Some(i) = positives.iter().position(|(p, _)| *p == d) {
                let lit = positives.remove(i);
                positives.insert(0, lit);
            }
        }
        let negatives = rule.body.iter().filter(|l| l.negated).collect();
        Compiled {
            rule,
            nvars: var_index.len(),
            var_index,
            positives,
            negatives,
        }
    }

    /// Slot layout of `literal` given the variables bound so far; updates
    /// `bound` with this literal's new variables.
    ///
    /// A variable is `Bound` only if an *earlier* literal binds it; a
    /// repeat within this literal stays `Free` (the tuple matcher checks
    /// the environment for within-literal consistency), because index keys
    /// can only be built from values known before the literal is joined.
    fn slots(&self, literal: &Literal, bound: &mut [bool]) -> Vec<Slot> {
        let before = bound.to_vec();
        literal
            .atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => Slot::Const(*c),
                Term::Wildcard => Slot::Wild,
                Term::Var(v) => {
                    let i = self.var_index[v.as_str()];
                    if before[i] {
                        Slot::Bound(i)
                    } else {
                        bound[i] = true;
                        Slot::Free(i)
                    }
                }
            })
            .collect()
    }
}

/// Runs the semi-naive fixpoint for one stratum.
fn run_stratum(
    rules: &[&Rule],
    in_stratum: &[&str],
    total: &mut Database,
    out: &mut Database,
    arities: &std::collections::HashMap<&str, usize>,
) {
    let empty = Relation::new(0);

    // Initial round: naive evaluation of every rule against `total`.
    let mut delta: FxHashMap<String, Relation> = FxHashMap::default();
    for &r in in_stratum {
        delta.insert(r.to_string(), Relation::new(arities[r]));
    }
    for rule in rules {
        let compiled = Compiled::new(rule, None);
        let derived = eval_compiled(&compiled, total, None, &empty);
        absorb(derived, total, out, &mut delta);
    }

    // Fixpoint rounds: one delta-variant per same-stratum positive literal.
    loop {
        let mut new_delta: FxHashMap<String, Relation> = FxHashMap::default();
        for &r in in_stratum {
            new_delta.insert(r.to_string(), Relation::new(arities[r]));
        }
        let mut any = false;
        for rule in rules {
            for (pos, lit) in rule.body.iter().enumerate() {
                if lit.negated || !in_stratum.contains(&lit.atom.relation.as_str()) {
                    continue;
                }
                let d = delta.get(lit.atom.relation.as_str()).unwrap_or(&empty);
                if d.is_empty() {
                    continue;
                }
                let compiled = Compiled::new(rule, Some(pos));
                let derived = eval_compiled(&compiled, total, Some(pos), d);
                if absorb(derived, total, out, &mut new_delta) {
                    any = true;
                }
            }
        }
        delta = new_delta;
        if !any {
            break;
        }
    }
}

/// Inserts derived facts into `total`, `out`, and the delta map; returns
/// `true` if anything was new.
fn absorb(
    derived: Vec<(String, Vec<Value>)>,
    total: &mut Database,
    out: &mut Database,
    delta: &mut FxHashMap<String, Relation>,
) -> bool {
    let mut any = false;
    for (rel, tuple) in derived {
        let arity = tuple.len();
        if total.relation_mut(&rel, arity).insert_values(tuple.clone()) {
            out.relation_mut(&rel, arity).insert_values(tuple.clone());
            if let Some(d) = delta.get_mut(&rel) {
                d.insert_values(tuple);
            }
            any = true;
        }
    }
    any
}

/// Evaluates one compiled rule variant; `delta_pos`/`delta` select the body
/// occurrence that ranges over the delta relation instead of the full one.
fn eval_compiled(
    compiled: &Compiled<'_>,
    total: &Database,
    delta_pos: Option<usize>,
    delta: &Relation,
) -> Vec<(String, Vec<Value>)> {
    let empty = Relation::new(0);
    let mut results = Vec::new();
    let mut env: Vec<Option<Value>> = vec![None; compiled.nvars];

    // Precompute slot layouts and per-literal indexes.
    let mut bound = vec![false; compiled.nvars];
    let mut layouts: Vec<(Vec<Slot>, &Relation)> = Vec::with_capacity(compiled.positives.len());
    for (pos, lit) in &compiled.positives {
        let rel: &Relation = if Some(*pos) == delta_pos {
            delta
        } else {
            total.relation(&lit.atom.relation).unwrap_or(&empty)
        };
        layouts.push((compiled.slots(lit, &mut bound), rel));
    }
    // Indexes on bound+const columns for each literal after the first.
    let indexes: Vec<Option<dynamite_instance::ColumnIndex>> = layouts
        .iter()
        .enumerate()
        .map(|(i, (slots, rel))| {
            if i == 0 {
                return None;
            }
            let cols: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, Slot::Const(_) | Slot::Bound(_)))
                .map(|(c, _)| c)
                .collect();
            if cols.is_empty() {
                None
            } else {
                Some(dynamite_instance::ColumnIndex::build(rel, &cols))
            }
        })
        .collect();

    fn negation_holds(compiled: &Compiled<'_>, total: &Database, env: &[Option<Value>]) -> bool {
        'lits: for lit in &compiled.negatives {
            let rel = match total.relation(&lit.atom.relation) {
                Some(r) => r,
                None => continue,
            };
            // Wildcards/unrestricted columns require a scan; negated atoms
            // are small in practice.
            't: for t in rel.iter() {
                for (i, term) in lit.atom.terms.iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            if t.at(i) != *c {
                                continue 't;
                            }
                        }
                        Term::Var(v) => {
                            let idx = compiled.var_index[v.as_str()];
                            let val = env[idx].expect("negated vars bound");
                            if t.at(i) != val {
                                continue 't;
                            }
                        }
                        Term::Wildcard => {}
                    }
                }
                return false; // a tuple matches the negated atom
            }
            continue 'lits;
        }
        true
    }

    fn emit(
        compiled: &Compiled<'_>,
        env: &[Option<Value>],
        results: &mut Vec<(String, Vec<Value>)>,
    ) {
        for head in &compiled.rule.heads {
            let tuple: Vec<Value> = head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => env[compiled.var_index[v.as_str()]]
                        .expect("head vars bound (range restriction)"),
                    Term::Wildcard => unreachable!("no wildcards in heads"),
                })
                .collect();
            results.push((head.relation.clone(), tuple));
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn join(
        compiled: &Compiled<'_>,
        layouts: &[(Vec<Slot>, &Relation)],
        indexes: &[Option<dynamite_instance::ColumnIndex>],
        total: &Database,
        depth: usize,
        env: &mut Vec<Option<Value>>,
        results: &mut Vec<(String, Vec<Value>)>,
    ) {
        if depth == layouts.len() {
            if negation_holds(compiled, total, env) {
                emit(compiled, env, results);
            }
            return;
        }
        let (slots, rel) = &layouts[depth];
        // Rows arrive as borrowed `RowRef` views into the columnar store;
        // the matcher reads values through the view without materializing
        // the tuple, which keeps this interpreter's behaviour (and its
        // role as differential oracle) unchanged across the storage swap.
        let try_tuple = |t: RowRef<'_>, env: &mut Vec<Option<Value>>| -> Option<Vec<usize>> {
            let mut newly = Vec::new();
            for (i, s) in slots.iter().enumerate() {
                match s {
                    Slot::Const(c) => {
                        if t.at(i) != *c {
                            for &n in &newly {
                                env[n] = None;
                            }
                            return None;
                        }
                    }
                    Slot::Bound(v) => {
                        if env[*v] != Some(t.at(i)) {
                            for &n in &newly {
                                env[n] = None;
                            }
                            return None;
                        }
                    }
                    Slot::Free(v) => {
                        // Free slots may repeat within one literal
                        // (e.g. R(x, x) with x first bound here).
                        match &env[*v] {
                            Some(existing) => {
                                if *existing != t.at(i) {
                                    for &n in &newly {
                                        env[n] = None;
                                    }
                                    return None;
                                }
                            }
                            None => {
                                env[*v] = Some(t.at(i));
                                newly.push(*v);
                            }
                        }
                    }
                    Slot::Wild => {}
                }
            }
            Some(newly)
        };

        match &indexes[depth] {
            Some(index) => {
                let key: Vec<Value> = slots
                    .iter()
                    .filter_map(|s| match s {
                        Slot::Const(c) => Some(*c),
                        Slot::Bound(v) => Some(env[*v].expect("bound")),
                        _ => None,
                    })
                    .collect();
                for &ti in index.get(&key) {
                    let t = rel.get(ti as usize).expect("index in range");
                    if let Some(newly) = try_tuple(t, env) {
                        join(compiled, layouts, indexes, total, depth + 1, env, results);
                        for n in newly {
                            env[n] = None;
                        }
                    }
                }
            }
            None => {
                for t in rel.iter() {
                    if let Some(newly) = try_tuple(t, env) {
                        join(compiled, layouts, indexes, total, depth + 1, env, results);
                        for n in newly {
                            env[n] = None;
                        }
                    }
                }
            }
        }
    }

    join(
        compiled,
        &layouts,
        &indexes,
        total,
        0,
        &mut env,
        &mut results,
    );
    results
}
