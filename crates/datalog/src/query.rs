//! Demand-driven query serving: adornment, the magic-sets rewrite, and a
//! subsumption-aware query cache.
//!
//! A migration service rarely needs the whole target instance — a point
//! lookup ("user 4711's migrated rows") touches only the slice of the
//! fixpoint reachable from its bindings. This module turns such lookups
//! into *rewritten programs* the existing stratified semi-naive engine
//! evaluates unchanged:
//!
//! 1. **Adornment** annotates each predicate occurrence with a
//!    bound/free pattern (`bf` = first argument bound, second free) and
//!    propagates bindings *sideways* through rule bodies. The sideways
//!    information passing (SIP) order is the planner's own greedy join
//!    order seeded with the head's bound variables, so adornment and
//!    join order agree — the literal the planner would probe first is
//!    also the one whose bindings flow onward. With the planner off the
//!    SIP order is body order, matching body-order plans.
//! 2. The **magic-sets rewrite** (`rewrite_for_query`) emits, per
//!    adorned predicate `P^a`: a demand relation `magic_P_a` holding the
//!    bound-argument tuples `P` is called with; *guarded* variants of
//!    `P`'s rules (`goal_P_a(…) :- magic_P_a(bound…), body…`) that only
//!    fire under demand; and *magic rules* propagating demand to body
//!    subgoals through each rule's SIP prefix. The query's own bindings
//!    become a single ground **seed fact rule** (`magic_Q_a(4711).`) —
//!    the engine already evaluates ground-fact rules, so no EDB mutation
//!    or evaluator seed hook is needed and the rewritten program is
//!    self-contained.
//! 3. The engine evaluates the rewritten program with the demand
//!    relations cost-hinted tiny (the planner's demand-guard costing),
//!    and the answer is the adorned goal relation filtered by the
//!    original bindings. The final filter is load-bearing: the goal
//!    relation also holds answers to *subsidiary* demands the recursion
//!    raised (querying `Path(x, 4711)` demands predecessors of every
//!    node on the way), which are supersets of the asked-for rows.
//!
//! **Negation** is handled conservatively: if any rule reachable from
//! the queried relation (through positive or negated body literals)
//! contains a negated literal, the rewrite is skipped and the query
//! falls back to a full evaluation plus filter. Rewritten programs are
//! therefore negation-free by construction — they can never unstratify,
//! every guard is same-stratum (so semi-naive delta variants pin it
//! outermost), and the equivalence argument (DESIGN.md) stays within
//! monotone Datalog. The fallback is observable via
//! [`ServedEvaluator::stats`].
//!
//! **All-free bindings** degenerate to a full evaluation of the
//! original program; the answer is the output relation itself,
//! bit-identical in row order to [`Evaluator::eval`]'s.
//!
//! [`ServedEvaluator`] adds the serving state on top: a query cache
//! keyed by `(relation, binding pattern)` with **subsumption** — a
//! query whose bound positions extend an already-answered pattern with
//! equal values answers from the cached rows with a filter, never
//! re-running the fixpoint ([`QueryStats::fixpoints`] is the probe).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dynamite_instance::{Database, Relation, Value};

use crate::ast::{Atom, Literal, Program, Rule, Term};
use crate::engine::{CostModel, Evaluator, RuleCacheHandle};
use crate::eval::{check_arities, check_delta, EvalError};
use crate::governor::Governor;
use crate::pool::WorkerPool;

// ---------------------------------------------------------- adornment --

/// A bound/free pattern over one predicate's argument positions
/// (`true` = bound).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Adornment(Vec<bool>);

impl Adornment {
    /// The pattern of an explicit binding vector.
    fn of_bindings(bindings: &[Option<Value>]) -> Adornment {
        Adornment(bindings.iter().map(Option::is_some).collect())
    }

    /// The pattern of a subgoal's terms under the currently bound
    /// variables: constants are bound, variables are bound iff already
    /// in `bound`, wildcards are free.
    fn of_terms(terms: &[Term], bound: &[&str]) -> Adornment {
        Adornment(
            terms
                .iter()
                .map(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(&v.as_str()),
                    Term::Wildcard => false,
                })
                .collect(),
        )
    }

    fn is_all_free(&self) -> bool {
        self.0.iter().all(|&b| !b)
    }

    /// Positions marked bound, ascending.
    fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
    }

    /// The conventional `b`/`f` suffix (`"bf"`), empty for arity 0.
    fn suffix(&self) -> String {
        self.0.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
    }
}

/// Generates the `magic_*` / `goal_*` relation names of one rewrite.
///
/// `esc` is an underscore escape prepended when a user relation already
/// occupies a generated name; the rewrite retries with a longer escape
/// until the generated namespace is collision-free. Within one escape
/// the scheme is injective: the adornment suffix is the (underscore-
/// free) segment after the *last* underscore, so distinct
/// `(relation, adornment)` pairs can never render to one name.
struct NameGen {
    esc: String,
}

impl NameGen {
    /// `magic_P_bf`: the demand (bound-argument) relation of `P^a`.
    fn magic(&self, rel: &str, ad: &Adornment) -> String {
        format!("{}magic_{}_{}", self.esc, rel, ad.suffix())
    }

    /// `goal_P_bf`: the guarded answer relation of `P^a`.
    fn goal(&self, rel: &str, ad: &Adornment) -> String {
        format!("{}goal_{}_{}", self.esc, rel, ad.suffix())
    }
}

/// `name` unless a user relation already bears it.
fn fresh(used: &HashSet<&str>, name: String) -> Option<String> {
    (!used.contains(name.as_str())).then_some(name)
}

// ------------------------------------------------------------ rewrite --

/// A magic-sets-rewritten query program.
pub(crate) struct Rewritten {
    /// Self-contained program: seed fact rule + magic rules + guarded
    /// rules (+ unrewritten originals for all-free subgoals).
    pub(crate) program: Program,
    /// The adorned goal relation holding the query's answers (still to
    /// be filtered by the bindings).
    pub(crate) answer: String,
    /// Every `magic_*` relation, for the planner's demand-guard costing.
    pub(crate) demand: HashSet<String>,
}

/// What [`rewrite_for_query`] decided.
pub(crate) enum Outcome {
    /// The rewrite applies; evaluate [`Rewritten::program`].
    Rewritten(Rewritten),
    /// A rule reachable from the queried relation contains negation —
    /// staying equivalent would need demand-through-negation machinery
    /// (and the rewritten program could unstratify), so the query must
    /// run as a full evaluation plus filter.
    Fallback,
}

/// Rewrites `program` for a point query `relation(bindings)` with at
/// least one bound position. `model` is the planner's cost model when
/// join reordering is on (`None` pins the SIP order to body order,
/// matching the engine's body-order plans).
pub(crate) fn rewrite_for_query(
    program: &Program,
    relation: &str,
    bindings: &[Option<Value>],
    model: Option<&CostModel<'_>>,
    edb: &Database,
) -> Outcome {
    debug_assert!(bindings.iter().any(Option::is_some));
    // Adornment is per single-head rule; multi-head rules split into one
    // rule per head (identical semantics, shared body).
    let split: Vec<Rule> = program.rules.iter().flat_map(Rule::split_heads).collect();
    let idb: HashSet<&str> = program.intensional().into_iter().collect();
    let mut by_head: HashMap<&str, Vec<&Rule>> = HashMap::new();
    for r in &split {
        by_head.entry(&r.heads[0].relation).or_default().push(r);
    }

    // Conservative negation gate: walk every rule reachable from the
    // query (through positive *and* negated body literals); any negated
    // literal in the slice forces the full-evaluation fallback.
    let mut reach: Vec<&str> = vec![relation];
    let mut seen: HashSet<&str> = reach.iter().copied().collect();
    while let Some(p) = reach.pop() {
        for r in by_head.get(p).map_or(&[][..], |v| v) {
            for l in &r.body {
                if l.negated {
                    return Outcome::Fallback;
                }
                let dep = l.atom.relation.as_str();
                if idb.contains(dep) && seen.insert(dep) {
                    reach.push(dep);
                }
            }
        }
    }

    // Names already taken: every program relation and every EDB relation.
    let mut used: HashSet<&str> = idb.clone();
    for r in &split {
        for l in &r.body {
            used.insert(&l.atom.relation);
        }
    }
    used.extend(edb.names());

    let mut esc = String::new();
    loop {
        let names = NameGen { esc: esc.clone() };
        match rewrite_with(&by_head, &idb, &used, relation, bindings, model, &names) {
            Some(rw) => return Outcome::Rewritten(rw),
            // Collision with a user relation: lengthen the escape and
            // retry (terminates — user names are finite and each retry
            // strictly lengthens every generated name).
            None => esc.push('_'),
        }
    }
}

/// One rewrite attempt under a fixed name escape; `None` on collision.
fn rewrite_with(
    by_head: &HashMap<&str, Vec<&Rule>>,
    idb: &HashSet<&str>,
    used: &HashSet<&str>,
    relation: &str,
    bindings: &[Option<Value>],
    model: Option<&CostModel<'_>>,
    names: &NameGen,
) -> Option<Rewritten> {
    let ad0 = Adornment::of_bindings(bindings);
    let mut rules: Vec<Rule> = Vec::new();
    let mut rule_set: HashSet<Rule> = HashSet::new();
    let mut demand: HashSet<String> = HashSet::new();

    // Adorned predicates still to process; `visited` keys the worklist.
    let mut queue: Vec<(String, Adornment)> = vec![(relation.to_string(), ad0.clone())];
    let mut visited: HashSet<(String, Adornment)> = queue.iter().cloned().collect();
    // Predicates demanded with an all-free pattern keep their original
    // rules (demand constrains nothing, so `P^ff` *is* `P`).
    let mut full_queue: Vec<String> = Vec::new();
    let mut full_done: HashSet<String> = HashSet::new();

    while let Some((p, a)) = queue.pop() {
        let magic_p = fresh(used, names.magic(&p, &a))?;
        let goal_p = fresh(used, names.goal(&p, &a))?;
        demand.insert(magic_p.clone());
        for &r in by_head.get(p.as_str()).map_or(&[][..], |v| v) {
            let head = &r.heads[0];
            // The demand guard: magic over the head's bound-position
            // terms (variables get bound by probing it, constants
            // filter the demand set).
            let guard = Literal::pos(Atom::new(
                magic_p.clone(),
                a.bound_positions().map(|i| head.terms[i].clone()).collect(),
            ));
            let positives: Vec<&Literal> = r.body.iter().filter(|l| !l.negated).collect();

            // SIP order = the planner's greedy order seeded by the
            // guard (pinned first, binding the head's bound variables),
            // or body order when the planner is off.
            let order: Vec<usize> = match model {
                Some(m) if positives.len() > 1 => {
                    let mut lits: Vec<&Literal> = Vec::with_capacity(positives.len() + 1);
                    lits.push(&guard);
                    lits.extend(positives.iter().copied());
                    m.greedy(&lits, Some(0), &|_| false)
                        .into_iter()
                        .skip(1)
                        .map(|i| i - 1)
                        .collect()
                }
                _ => (0..positives.len()).collect(),
            };

            // Variables bound so far: the head's bound positions, then
            // whatever each SIP-ordered literal adds.
            let mut bound: Vec<&str> = Vec::new();
            for i in a.bound_positions() {
                if let Term::Var(v) = &head.terms[i] {
                    if !bound.contains(&v.as_str()) {
                        bound.push(v);
                    }
                }
            }

            let mut new_body: Vec<Literal> = vec![guard];
            for &pi in &order {
                let lit = positives[pi];
                let pr = lit.atom.relation.as_str();
                if idb.contains(pr) {
                    let sub_ad = Adornment::of_terms(&lit.atom.terms, &bound);
                    if sub_ad.is_all_free() {
                        // No bindings flow in: reference the original
                        // predicate and include its rules verbatim.
                        if full_done.insert(pr.to_string()) {
                            full_queue.push(pr.to_string());
                        }
                        new_body.push(lit.clone());
                    } else {
                        // Magic rule: the subgoal's bound arguments are
                        // demanded whenever the guard + SIP prefix can
                        // produce them.
                        let sub_magic = fresh(used, names.magic(pr, &sub_ad))?;
                        let sub_goal = fresh(used, names.goal(pr, &sub_ad))?;
                        demand.insert(sub_magic.clone());
                        let mhead = Atom::new(
                            sub_magic,
                            sub_ad
                                .bound_positions()
                                .map(|i| lit.atom.terms[i].clone())
                                .collect(),
                        );
                        let mrule = Rule {
                            heads: vec![mhead],
                            body: new_body.clone(),
                        };
                        if rule_set.insert(mrule.clone()) {
                            rules.push(mrule);
                        }
                        new_body.push(Literal::pos(Atom::new(sub_goal, lit.atom.terms.clone())));
                        let key = (pr.to_string(), sub_ad);
                        if visited.insert(key.clone()) {
                            queue.push(key);
                        }
                    }
                } else {
                    new_body.push(lit.clone());
                }
                for v in lit.atom.vars() {
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                }
            }

            let grule = Rule {
                heads: vec![Atom::new(goal_p.clone(), head.terms.clone())],
                body: new_body,
            };
            if rule_set.insert(grule.clone()) {
                rules.push(grule);
            }
        }
    }

    // Closure of all-free-demanded predicates: original rules verbatim,
    // plus original rules of every predicate they (positively) depend
    // on. Negation-free by the caller's reachability gate.
    while let Some(p) = full_queue.pop() {
        for &r in by_head.get(p.as_str()).map_or(&[][..], |v| v) {
            if rule_set.insert(r.clone()) {
                rules.push(r.clone());
            }
            for l in &r.body {
                let pr = l.atom.relation.as_str();
                if idb.contains(pr) && full_done.insert(pr.to_string()) {
                    full_queue.push(pr.to_string());
                }
            }
        }
    }

    // The seed: a ground fact rule carrying the query's bound values —
    // the whole reason the rewritten program is self-contained.
    let seed = Rule {
        heads: vec![Atom::new(
            names.magic(relation, &ad0),
            bindings.iter().flatten().map(|v| Term::Const(*v)).collect(),
        )],
        body: Vec::new(),
    };
    rules.push(seed);

    Some(Rewritten {
        program: Program::new(rules),
        answer: names.goal(relation, &ad0),
        demand,
    })
}

// -------------------------------------------------------------- filter --

/// Rows of `rel` matching `bindings` at every bound position, in `rel`'s
/// row order (the subsumption filter, the final answer filter, and the
/// maintained-overlay answer).
pub(crate) fn filter_rows(rel: Option<&Relation>, bindings: &[Option<Value>]) -> Relation {
    let mut out = Relation::new_untracked(bindings.len());
    if let Some(r) = rel {
        for row in r.iter() {
            let hit = bindings.iter().enumerate().all(|(i, b)| match b {
                Some(v) => row.at(i) == *v,
                None => true,
            });
            if hit {
                out.insert(&row.to_vec());
            }
        }
    }
    out
}

/// The answer-shape half of the point-query contract every entry point
/// shares: [`EvalError::InputArity`] when the program uses `relation`
/// (at `used_arity`) with another arity than `bindings` has, otherwise
/// whether the program derives `relation` at all. Unknown and
/// extensional relations answer empty — full-evaluate-then-filter, the
/// oracle, has neither in its output.
pub(crate) fn query_shape(
    relation: &str,
    bindings: &[Option<Value>],
    used_arity: Option<usize>,
    derived: bool,
) -> Result<bool, EvalError> {
    match used_arity {
        Some(arity) if arity != bindings.len() => Err(EvalError::InputArity {
            relation: relation.to_string(),
            expected: arity,
            got: bindings.len(),
        }),
        Some(_) => Ok(derived),
        None => Ok(false),
    }
}

// ----------------------------------------------------------- one-shot --

/// Which route one query took (feeds [`QueryStats`]).
enum Route {
    /// All-free bindings: full evaluation, answer is the output relation.
    Full,
    /// Magic-sets rewrite evaluated under demand-guard costing.
    Magic,
    /// Negation reachable: full evaluation plus filter.
    NegationFallback,
    /// The relation derives nothing (not an IDB head) — empty answer,
    /// matching full-evaluate-then-filter semantics.
    Empty,
}

/// Evaluates one point query against `ev`'s snapshot. Returns the exact
/// answer rows (already filtered by `bindings`) and the route taken.
fn query_once(
    ev: &Evaluator,
    program: &Program,
    relation: &str,
    bindings: &[Option<Value>],
    gov: Option<&Governor>,
) -> Result<(Relation, Route), EvalError> {
    let arities = check_arities(program, ev.database())?;
    let derived = program.intensional().contains(relation);
    if !query_shape(relation, bindings, arities.get(relation).copied(), derived)? {
        return Ok((Relation::new_untracked(bindings.len()), Route::Empty));
    }

    let full = |gov: Option<&Governor>| match gov {
        Some(g) => ev.eval_governed(program, g),
        None => ev.eval(program),
    };

    if bindings.iter().all(Option::is_none) {
        // Degenerate point query: the answer *is* the materialized
        // relation, bit-identical in row order to `Evaluator::eval`'s.
        let out = full(gov)?;
        let rel = out
            .relation(relation)
            .cloned()
            .unwrap_or_else(|| Relation::new_untracked(bindings.len()));
        return Ok((rel, Route::Full));
    }

    let model = ev.reorder().then(|| CostModel {
        edb: ev.database(),
        demand: None,
    });
    match rewrite_for_query(program, relation, bindings, model.as_ref(), ev.database()) {
        Outcome::Rewritten(rw) => {
            let out = ev.run(gov, Some(&rw.demand)).eval(&rw.program)?;
            Ok((
                filter_rows(out.relation(&rw.answer), bindings),
                Route::Magic,
            ))
        }
        Outcome::Fallback => {
            let out = full(gov)?;
            Ok((
                filter_rows(out.relation(relation), bindings),
                Route::NegationFallback,
            ))
        }
    }
}

impl Evaluator {
    /// Answers the point query `relation(bindings)` against `program`
    /// over this context's snapshot, evaluating only the demanded slice
    /// of the fixpoint (magic-sets rewrite) where possible.
    ///
    /// `bindings` has one entry per argument position: `Some(v)` pins
    /// the position to `v`, `None` leaves it free. The answer is
    /// set-identical to `Evaluator::eval` followed by a filter on the
    /// bound positions — all-free bindings return exactly that
    /// materialized relation (bit-identical row order); queries over
    /// relations the program never derives return an empty relation.
    /// Programs with negation reachable from `relation` fall back to
    /// full evaluation internally (same answer, no asymptotic win).
    ///
    /// This is the uncached one-shot entry point; a serving workload
    /// with repeated queries should hold a [`ServedEvaluator`], whose
    /// subsumption cache answers repeat patterns without re-evaluating.
    pub fn query(
        &self,
        program: &Program,
        relation: &str,
        bindings: &[Option<Value>],
    ) -> Result<Relation, EvalError> {
        query_once(self, program, relation, bindings, None).map(|(rel, _)| rel)
    }

    /// [`Evaluator::query`] under a [`Governor`] (see
    /// [`Evaluator::eval_governed`] for the resource-trip contract).
    pub fn query_governed(
        &self,
        program: &Program,
        relation: &str,
        bindings: &[Option<Value>],
        gov: &Governor,
    ) -> Result<Relation, EvalError> {
        query_once(self, program, relation, bindings, Some(gov)).map(|(rel, _)| rel)
    }
}

// ------------------------------------------------------------ serving --

/// Counters describing how a [`ServedEvaluator`] answered its queries so
/// far — the observability hooks the differential and cache property
/// tests pin against (in the spirit of the fault registry's probes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Fixpoints actually run (magic or full). A cache hit runs none.
    pub fixpoints: u64,
    /// Queries that fell back to full evaluation because negation was
    /// reachable from the queried relation.
    pub fallbacks: u64,
    /// Queries answered from the subsumption cache.
    pub cache_hits: u64,
}

/// One cached answer: the exact rows for `pattern` on `relation`.
struct CacheEntry {
    relation: String,
    pattern: Vec<Option<Value>>,
    rows: Relation,
}

/// `entry` subsumes `query` iff every position `entry` binds, `query`
/// binds to the same value — then `query`'s answer is a filter of
/// `entry`'s rows.
fn subsumes(entry: &[Option<Value>], query: &[Option<Value>]) -> bool {
    entry.iter().zip(query).all(|(e, q)| match e {
        Some(ev) => q.as_ref() == Some(ev),
        None => true,
    })
}

/// Cached patterns kept per server; oldest evicted first. Point-query
/// serving repeats a modest set of patterns (the subsumption check keeps
/// broad entries useful), so a small bound holds the hot set without
/// letting a pattern-diverse stream grow the cache without end.
const QUERY_CACHE_CAP: usize = 256;

/// A demand-driven query server over one immutable EDB snapshot: the
/// magic-sets pipeline of [`Evaluator::query`] plus a subsumption-aware
/// query cache.
///
/// Sharing: `&self` queries are safe from many threads (the cache is
/// internally locked); [`ServedEvaluator::apply_delta`] takes `&mut
/// self`, edits the snapshot in place, and invalidates the cache.
pub struct ServedEvaluator {
    ev: Evaluator,
    program: Program,
    cache: Mutex<Vec<CacheEntry>>,
    fixpoints: AtomicU64,
    fallbacks: AtomicU64,
    cache_hits: AtomicU64,
}

impl ServedEvaluator {
    /// Builds a server for `program` over `edb` with the ambient
    /// thread-pool and planner configuration (`DYNAMITE_THREADS`,
    /// `DYNAMITE_NO_REORDER`).
    ///
    /// Validates the program up front (well-formedness, stratification,
    /// EDB arities) so serving-time queries only fail for query-shaped
    /// reasons (arity mismatch, resource trips).
    pub fn new(program: Program, edb: Database) -> Result<ServedEvaluator, EvalError> {
        let pool = crate::pool::with_threads(None);
        let reorder = crate::engine::reorder_default();
        ServedEvaluator::with_config(program, edb, pool, reorder)
    }

    /// [`ServedEvaluator::new`] with an explicit pool and planner switch
    /// (not overridden by the environment — an explicit choice here is
    /// deliberate, as in [`Evaluator::with_config`]).
    pub fn with_config(
        program: Program,
        edb: Database,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<ServedEvaluator, EvalError> {
        program.check_well_formed()?;
        check_arities(&program, &edb)?;
        let idb: Vec<&str> = program.intensional().into_iter().collect();
        crate::eval::stratify(&program, &idb)?;
        let ev = Evaluator::with_config(edb, pool, RuleCacheHandle::default(), reorder);
        Ok(ServedEvaluator {
            ev,
            program,
            cache: Mutex::new(Vec::new()),
            fixpoints: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        })
    }

    /// The served program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The extensional snapshot queries are answered against.
    pub fn edb(&self) -> &Database {
        self.ev.database()
    }

    /// Counters for how queries were answered so far. Monotone across
    /// the server's lifetime (`apply_delta` clears the cache, not the
    /// counters).
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            fixpoints: self.fixpoints.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Answers `relation(bindings)` — from the subsumption cache when a
    /// previously answered pattern covers it, otherwise by evaluating
    /// (magic rewrite or fallback, see [`Evaluator::query`]) and caching
    /// the answer. Same answer contract as [`Evaluator::query`].
    pub fn query(&self, relation: &str, bindings: &[Option<Value>]) -> Result<Relation, EvalError> {
        self.query_inner(relation, bindings, None)
    }

    /// [`ServedEvaluator::query`] under a [`Governor`]. A resource trip
    /// aborts *this* query; the cache is only ever updated with answers
    /// of completed fixpoints, so a tripped query leaves it exactly as
    /// it was and the next query proceeds normally.
    pub fn query_governed(
        &self,
        relation: &str,
        bindings: &[Option<Value>],
        gov: &Governor,
    ) -> Result<Relation, EvalError> {
        self.query_inner(relation, bindings, Some(gov))
    }

    fn query_inner(
        &self,
        relation: &str,
        bindings: &[Option<Value>],
        gov: Option<&Governor>,
    ) -> Result<Relation, EvalError> {
        if let Some(hit) = self.cache_lookup(relation, bindings) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let (rows, route) = query_once(&self.ev, &self.program, relation, bindings, gov)?;
        match route {
            Route::Full | Route::Magic => {
                self.fixpoints.fetch_add(1, Ordering::Relaxed);
            }
            Route::NegationFallback => {
                self.fixpoints.fetch_add(1, Ordering::Relaxed);
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            // Nothing ran; nothing worth caching either.
            Route::Empty => return Ok(rows),
        }
        let mut cache = self.cache();
        if cache.len() >= QUERY_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(CacheEntry {
            relation: relation.to_string(),
            pattern: bindings.to_vec(),
            rows: rows.clone(),
        });
        Ok(rows)
    }

    /// The evaluation context the server answers from.
    #[cfg(test)]
    pub(crate) fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// A cached answer covering `bindings`, if any: an exact pattern
    /// match returns the rows verbatim, a subsuming broader pattern
    /// returns them filtered down to `bindings`.
    fn cache_lookup(&self, relation: &str, bindings: &[Option<Value>]) -> Option<Relation> {
        let cache = self.cache();
        for e in cache.iter() {
            if e.relation != relation || e.pattern.len() != bindings.len() {
                continue;
            }
            if e.pattern == bindings {
                return Some(e.rows.clone());
            }
            if subsumes(&e.pattern, bindings) {
                return Some(filter_rows(Some(&e.rows), bindings));
            }
        }
        None
    }

    /// The query cache. A thread that panicked while holding it may have
    /// left it half-updated, so a poisoned cache is cleared and reused —
    /// it is only a cache, and every answer can be recomputed.
    fn cache(&self) -> MutexGuard<'_, Vec<CacheEntry>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            self.cache.clear_poison();
            let mut cache = poisoned.into_inner();
            cache.clear();
            cache
        })
    }

    /// Applies an extensional delta to the served snapshot: `deletes`
    /// are removed first, then `inserts` added, and the query cache is
    /// invalidated wholesale — every subsequent query re-derives its
    /// slice against the new snapshot (demand-driven serving needs no
    /// DRed pass; the *next query* is the recomputation). The snapshot
    /// is edited in place, not copied, and keeps every cached join
    /// index: those of the changed relations are repaired in place for
    /// just the batch's rows (see `EdbEdit::apply`), so a write costs
    /// O(batch) index work and the next query rebuilds nothing.
    ///
    /// Batches are validated exactly as
    /// [`IncrementalEvaluator::apply_delta`](crate::IncrementalEvaluator::apply_delta)
    /// validates them: an intensional relation
    /// ([`EvalError::IntensionalDelta`]) or an arity mismatch
    /// ([`EvalError::InputArity`]) rejects the whole batch and changes
    /// nothing.
    pub fn apply_delta(&mut self, inserts: &Database, deletes: &Database) -> Result<(), EvalError> {
        check_delta(&self.program, self.ev.database(), inserts, deletes)?;
        self.ev.edit(inserts, deletes);
        self.cache().clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_query_cache_is_cleared_not_fatal() {
        let program = Program::parse(
            "Path(x, y) :- Edge(x, y).
             Path(x, z) :- Path(x, y), Edge(y, z).",
        )
        .unwrap();
        let mut edb = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            edb.insert("Edge", vec![a.into(), b.into()]);
        }
        let mut served = ServedEvaluator::new(program.clone(), edb.clone()).unwrap();
        let bindings = [Some(Value::Int(1)), None];
        served.query("Path", &bindings).unwrap();

        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = served.cache.lock().unwrap();
                panic!("poisoning the query cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(served.cache.is_poisoned());

        let oracle = |edb: &Database| {
            let out = Evaluator::new(edb.clone()).eval(&program).unwrap();
            filter_rows(out.relation("Path"), &bindings)
        };
        assert!(served
            .query("Path", &bindings)
            .unwrap()
            .set_eq(&oracle(&edb)));
        assert!(!served.cache.is_poisoned());

        // A delta applied after a poisoning still lands and invalidates.
        let mut ins = Database::new();
        ins.insert("Edge", vec![4.into(), 5.into()]);
        edb.insert("Edge", vec![4.into(), 5.into()]);
        served.apply_delta(&ins, &Database::new()).unwrap();
        assert!(served
            .query("Path", &bindings)
            .unwrap()
            .set_eq(&oracle(&edb)));
    }
}
