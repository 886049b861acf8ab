//! The synthesis loop (Algorithm 1 with MDP-guided blocking) replayed
//! through the library's public calls, one span per call.
//!
//! `dynamite_core::synthesize` runs its CEGIS phases inside private
//! solver code, so the benchmark cannot time them from outside. This
//! module performs the same sequence of public calls the synthesizer
//! makes — `FdSolver` over the sketch's holes and domains, `solve`,
//! `RuleSketch::instantiate`, `Evaluator::eval` on a context built like
//! the synthesizer's, `from_facts` + `flatten` + table compare,
//! `mdp_set` + `generalize`, and `simplify_rule` — in the same order, so
//! it samples the same candidates and adds the same clauses. Callers must
//! check that it did ([`Replay::mismatch`]): a replay that diverges from
//! `synthesize` measures a different program.
//!
//! Only the default search is replayed: no global timeout (the
//! configuration's `timeout` is ignored) and the sequential candidate
//! check, whose counterexample the parallel check is specified to match.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use dynamite_core::{
    generalize, generate_sketch, infer_attr_mapping, mdp_set, simplify_rule, BodySlot, DomainElem,
    Example, HoleKind, PatternLit, RuleSketch, Strategy, Synthesis, SynthesisConfig,
};
use dynamite_datalog::{
    pool, resolve_reorder, EvalError, Evaluator, Governor, Program, Rule, RuleCacheHandle,
};
use dynamite_instance::hash::FxHashMap;
use dynamite_instance::{from_facts, to_facts, Flattened};
use dynamite_schema::Schema;
use dynamite_smt::{ConstId, FdLit, FdSolver, FdVar, SatStats};

use crate::trace::span;

/// Layer names, after the library's modules.
pub const SMT: &str = "smt";
/// `dynamite_core::synthesizer`.
pub const SYNTH: &str = "core.synthesizer";
/// `dynamite_core::analyze`.
pub const ANALYZE: &str = "core.analyze";
/// `dynamite_core::simplify`.
pub const SIMPLIFY: &str = "core.simplify";
/// `dynamite_datalog` evaluation.
pub const ENGINE: &str = "datalog.engine";
/// `dynamite_instance`.
pub const INSTANCE: &str = "instance";

/// How many times a candidate whose evaluation tripped a resource limit
/// is re-checked (mirrors the synthesizer).
const CANDIDATE_RETRIES: usize = 2;

/// One completed rule.
#[derive(Debug, Clone)]
pub struct RuleReplay {
    /// The rule's top-level target record.
    pub target_record: String,
    /// The first consistent rule, before simplification.
    pub found: Rule,
    /// The rule as it enters the program (after checked simplification).
    pub rule: Rule,
    /// Candidates sampled.
    pub iterations: usize,
    /// Blocking clauses added.
    pub blocking_clauses: usize,
    /// MDPs computed.
    pub mdps_computed: usize,
    /// SAT counters of the rule's solver.
    pub sat: SatStats,
}

/// Counts taken at the replayed call sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `FdSolver::solve` calls.
    pub solve_calls: u64,
    /// `mdp_set` calls.
    pub mdp_calls: u64,
    /// `mdp_set` calls that exhausted their budget.
    pub mdp_budget_exhausted: u64,
    /// Facts derived by candidate evaluations (candidate check plus
    /// simplification check).
    pub facts_out: u64,
}

/// A replayed synthesis.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The synthesized program.
    pub program: Program,
    /// Per-rule results, in sketch order.
    pub rules: Vec<RuleReplay>,
    /// Call-site counts.
    pub counters: Counters,
}

impl Replay {
    /// Candidates sampled over all rules.
    pub fn candidates(&self) -> usize {
        self.rules.iter().map(|r| r.iterations).sum()
    }

    /// MDPs computed over all rules.
    pub fn mdps(&self) -> usize {
        self.rules.iter().map(|r| r.mdps_computed).sum()
    }

    /// SAT conflicts over all rules.
    pub fn conflicts(&self) -> u64 {
        self.rules.iter().map(|r| r.sat.conflicts).sum()
    }

    /// `None` when this replay reproduces `reference` exactly (program
    /// text, and per rule the iterations, blocking clauses and MDPs);
    /// otherwise what differs.
    pub fn mismatch(&self, reference: &Synthesis) -> Option<String> {
        if self.program.to_string() != reference.program.to_string() {
            return Some(format!(
                "program differs:\nreplay: {}\nsynthesize: {}",
                self.program, reference.program
            ));
        }
        if self.rules.len() != reference.stats.rules.len() {
            return Some("rule count differs".to_string());
        }
        for (r, s) in self.rules.iter().zip(&reference.stats.rules) {
            let got = (r.iterations, r.blocking_clauses, r.mdps_computed);
            let want = (s.iterations, s.blocking_clauses, s.mdps_computed);
            if r.target_record != s.target_record || got != want {
                return Some(format!(
                    "rule `{}`: replay (iterations, blocking clauses, MDPs) = {got:?}, synthesize = {want:?}",
                    s.target_record
                ));
            }
        }
        None
    }
}

/// The prepared problem: what `Synthesizer::new` builds.
struct Problem {
    target: Arc<Schema>,
    contexts: Vec<Evaluator>,
    expected: Vec<Flattened>,
    config: SynthesisConfig,
}

/// Replays `synthesize(source, target, examples, config)`.
pub fn replay(
    source: &Arc<Schema>,
    target: &Arc<Schema>,
    examples: &[Example],
    config: &SynthesisConfig,
) -> Result<Replay, String> {
    let mut counters = Counters::default();
    let (problem, sketch) = span(SYNTH, "prepare", || {
        let psi = infer_attr_mapping(source, target, examples);
        let sketch = generate_sketch(&psi, source, target, examples, &config.sketch);
        let pool = pool::with_threads(config.threads);
        let reorder = resolve_reorder(config.reorder);
        let rules = RuleCacheHandle::default();
        let contexts = examples
            .iter()
            .map(|e| {
                let facts = span(INSTANCE, "to_facts", || to_facts(&e.input));
                span(ENGINE, "context", || {
                    Evaluator::with_config(facts, pool.clone(), rules.clone(), reorder)
                })
            })
            .collect();
        let expected = examples
            .iter()
            .map(|e| span(INSTANCE, "flatten", || e.output.flatten()))
            .collect();
        let problem = Problem {
            target: target.clone(),
            contexts,
            expected,
            config: config.clone(),
        };
        (problem, sketch)
    });
    let mut rules = Vec::with_capacity(sketch.rules.len());
    for rs in &sketch.rules {
        let done = span(SYNTH, "rule", || {
            let mut solver = RuleReplayer::new(&problem, rs)?;
            let found = solver.next_consistent(&mut counters)?;
            let rule = if config.simplify {
                span(SIMPLIFY, "simplify", || {
                    checked_simplify(&problem, &found, &mut counters)
                })
            } else {
                found.clone()
            };
            Ok::<_, String>(RuleReplay {
                target_record: rs.target_record.clone(),
                found,
                rule,
                iterations: solver.iterations,
                blocking_clauses: solver.blocking_clauses,
                mdps_computed: solver.mdps_computed,
                sat: solver.fd.sat_stats(),
            })
        })?;
        rules.push(done);
    }
    Ok(Replay {
        program: Program::new(rules.iter().map(|r| r.rule.clone()).collect()),
        rules,
        counters,
    })
}

/// The per-rule loop state (the synthesizer's `RuleSolver`).
struct RuleReplayer<'a> {
    problem: &'a Problem,
    sketch: &'a RuleSketch,
    fd: FdSolver,
    hole_vars: Vec<FdVar>,
    elem_of: FxHashMap<ConstId, DomainElem>,
    fixed_body_vars: HashSet<String>,
    iterations: usize,
    blocking_clauses: usize,
    mdps_computed: usize,
}

enum Verdict {
    Consistent,
    Failed(Option<(Flattened, usize)>),
    Exhausted,
}

impl<'a> RuleReplayer<'a> {
    /// Encodes the sketch's holes, head coverage and connector support.
    fn new(problem: &'a Problem, sketch: &'a RuleSketch) -> Result<Self, String> {
        let no_program = || format!("no program for `{}`", sketch.target_record);
        span(SMT, "encode", || {
            let mut fd = FdSolver::new();
            let mut elem_of = FxHashMap::default();
            let mut hole_vars = Vec::with_capacity(sketch.holes.len());
            for hole in &sketch.holes {
                let ids: Vec<ConstId> = hole
                    .domain
                    .iter()
                    .map(|e| {
                        let id = fd.constant(&e.key());
                        elem_of.insert(id, e.clone());
                        id
                    })
                    .collect();
                hole_vars.push(fd.new_var(&hole.name, &ids).map_err(|_| no_program())?);
            }
            let head_vars: BTreeSet<&str> = sketch.head_vars().into_iter().collect();
            for hv in head_vars {
                let elem = DomainElem::HeadVar(hv.to_string());
                let key = elem.key();
                let mut clause = Vec::new();
                for (i, hole) in sketch.holes.iter().enumerate() {
                    if hole.kind == HoleKind::Attr && hole.domain.contains(&elem) {
                        let id = fd.constant(&key);
                        clause.push(FdLit::Eq(hole_vars[i], id));
                    }
                }
                if clause.is_empty() {
                    return Err(no_program());
                }
                fd.add_clause(&clause).map_err(|_| no_program())?;
            }
            let fixed_body_vars: HashSet<String> = sketch
                .body
                .iter()
                .flat_map(|b| {
                    b.slots.iter().filter_map(|s| match s {
                        BodySlot::Var(v) => Some(v.clone()),
                        _ => None,
                    })
                })
                .collect();
            for (c, hole) in sketch.holes.iter().enumerate() {
                if hole.kind != HoleKind::Connector {
                    continue;
                }
                for elem in &hole.domain {
                    let DomainElem::BodyVar(w) = elem else {
                        continue;
                    };
                    if fixed_body_vars.contains(w) {
                        continue;
                    }
                    let id = fd.constant(&elem.key());
                    let mut clause = vec![FdLit::Ne(hole_vars[c], id)];
                    for (i, h) in sketch.holes.iter().enumerate() {
                        if i != c && h.kind == HoleKind::Attr && h.domain.contains(elem) {
                            clause.push(FdLit::Eq(hole_vars[i], id));
                        }
                    }
                    fd.add_clause(&clause).map_err(|_| no_program())?;
                }
            }
            Ok(RuleReplayer {
                problem,
                sketch,
                fd,
                hole_vars,
                elem_of,
                fixed_body_vars,
                iterations: 0,
                blocking_clauses: 0,
                mdps_computed: 0,
            })
        })
    }

    fn is_rigid(&self, e: &DomainElem) -> bool {
        match e {
            DomainElem::Const(_) => true,
            DomainElem::BodyVar(w) => self.fixed_body_vars.contains(w),
            DomainElem::HeadVar(_) => false,
        }
    }

    /// Samples completions until one is consistent with every example.
    fn next_consistent(&mut self, counters: &mut Counters) -> Result<Rule, String> {
        loop {
            if self.iterations >= self.problem.config.max_iters_per_rule {
                return Err(format!(
                    "iteration limit for `{}`",
                    self.sketch.target_record
                ));
            }
            counters.solve_calls += 1;
            let Some(model) = span(SMT, "solve", || self.fd.solve()) else {
                return Err(format!("no program for `{}`", self.sketch.target_record));
            };
            self.iterations += 1;
            let assignment: Vec<DomainElem> = self
                .hole_vars
                .iter()
                .map(|&x| self.elem_of[&model.value(x)].clone())
                .collect();
            let rule = span(SYNTH, "instantiate", || {
                self.sketch.instantiate(&assignment)
            });
            let mut verdict = self.check(&rule, counters);
            let mut retries = 0;
            while matches!(verdict, Verdict::Exhausted) && retries < CANDIDATE_RETRIES {
                retries += 1;
                verdict = self.check(&rule, counters);
            }
            match verdict {
                Verdict::Consistent => {
                    let all_attrs: BTreeSet<String> = self
                        .sketch
                        .head_vars()
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                    let clause = self.pattern_clause(&assignment, &all_attrs);
                    self.add_clause(&clause);
                    return Ok(rule);
                }
                Verdict::Failed(actual) => {
                    self.block_failure(&assignment, actual.as_ref(), counters)
                }
                Verdict::Exhausted => self.block_exact(&assignment),
            }
        }
    }

    /// The sequential candidate check, stopping at the first failing
    /// example.
    fn check(&self, rule: &Rule, counters: &mut Counters) -> Verdict {
        let prog = Program::new(vec![rule.clone()]);
        let limits = self.problem.config.candidate_limits.resolve(None);
        for (i, (ctx, expected)) in self
            .problem
            .contexts
            .iter()
            .zip(&self.problem.expected)
            .enumerate()
        {
            let out = span(ENGINE, "eval", || match limits {
                Some(l) => ctx.eval_governed(&prog, &Governor::new(l)),
                None => ctx.eval(&prog),
            });
            let out = match out {
                Ok(out) => out,
                Err(e) if EvalError::resource_trip(&e).is_some() => return Verdict::Exhausted,
                Err(_) => return Verdict::Failed(None),
            };
            counters.facts_out += out.num_facts() as u64;
            let Ok(inst) = span(INSTANCE, "from_facts", || {
                from_facts(&out, self.problem.target.clone())
            }) else {
                return Verdict::Failed(None);
            };
            let actual = span(INSTANCE, "flatten", || inst.flatten());
            let differs = span(INSTANCE, "compare", || {
                self.sketch
                    .record_types
                    .iter()
                    .any(|rt| actual.table(rt) != expected.table(rt))
            });
            if differs {
                return Verdict::Failed(Some((actual, i)));
            }
        }
        Verdict::Consistent
    }

    fn block_failure(
        &mut self,
        assignment: &[DomainElem],
        failure: Option<&(Flattened, usize)>,
        counters: &mut Counters,
    ) {
        let (Strategy::MdpGuided, Some((actual, i))) = (self.problem.config.strategy, failure)
        else {
            self.block_exact(assignment);
            return;
        };
        let expected = &self.problem.expected[*i];
        let mut blocked_any = false;
        for rt in &self.sketch.record_types {
            let (Some(at), Some(et)) = (actual.table(rt), expected.table(rt)) else {
                continue;
            };
            if at == et {
                continue;
            }
            counters.mdp_calls += 1;
            let result = span(ANALYZE, "mdp_set", || {
                mdp_set(at, et, self.problem.config.mdp_budget)
            });
            counters.mdp_budget_exhausted += u64::from(result.budget_exhausted);
            for mdp in &result.mdps {
                self.mdps_computed += 1;
                let pinned: BTreeSet<String> = mdp.iter().map(|&c| at.columns[c].clone()).collect();
                let clause = self.pattern_clause(assignment, &pinned);
                self.add_clause(&clause);
                blocked_any = true;
            }
        }
        if !blocked_any {
            self.block_exact(assignment);
        }
    }

    fn block_exact(&mut self, assignment: &[DomainElem]) {
        let clause: Vec<FdLit> = assignment
            .iter()
            .enumerate()
            .map(|(i, e)| FdLit::Ne(self.hole_vars[i], self.fd.constant(&e.key())))
            .collect();
        self.add_clause(&clause);
    }

    fn add_clause(&mut self, clause: &[FdLit]) {
        let _ = span(SMT, "add_clause", || self.fd.add_clause(clause));
        self.blocking_clauses += 1;
    }

    /// Lowers `¬Generalize(σ, ϕ)` to a solver clause.
    fn pattern_clause(
        &mut self,
        assignment: &[DomainElem],
        pinned: &BTreeSet<String>,
    ) -> Vec<FdLit> {
        let pattern = span(ANALYZE, "generalize", || {
            generalize(
                assignment,
                pinned,
                |e| self.is_rigid(e),
                |i| {
                    self.sketch.holes[i]
                        .domain
                        .iter()
                        .filter(|e| self.is_rigid(e))
                        .cloned()
                        .collect()
                },
            )
        });
        pattern
            .into_iter()
            .map(|lit| match lit {
                PatternLit::Pin(i) => {
                    FdLit::Ne(self.hole_vars[i], self.fd.constant(&assignment[i].key()))
                }
                PatternLit::EqPair(i, j) => FdLit::VarNe(self.hole_vars[i], self.hole_vars[j]),
                PatternLit::NePair(i, j) => FdLit::VarEq(self.hole_vars[i], self.hole_vars[j]),
                PatternLit::NotElem(i, e) => {
                    FdLit::Eq(self.hole_vars[i], self.fd.constant(&e.key()))
                }
            })
            .collect()
    }
}

/// Simplifies `rule`, keeping the result only if it still reproduces
/// every example's expected output.
fn checked_simplify(problem: &Problem, rule: &Rule, counters: &mut Counters) -> Rule {
    let simplified = simplify_rule(rule);
    if simplified == *rule {
        return simplified;
    }
    let prog = Program::new(vec![simplified.clone()]);
    let record_types: Vec<&str> = rule.heads.iter().map(|h| h.relation.as_str()).collect();
    for (ctx, expected) in problem.contexts.iter().zip(&problem.expected) {
        let ok = span(ENGINE, "eval", || ctx.eval(&prog))
            .ok()
            .and_then(|out| {
                counters.facts_out += out.num_facts() as u64;
                span(INSTANCE, "from_facts", || {
                    from_facts(&out, problem.target.clone())
                })
                .ok()
            })
            .map(|inst| {
                let actual = span(INSTANCE, "flatten", || inst.flatten());
                span(INSTANCE, "compare", || {
                    record_types
                        .iter()
                        .all(|rt| actual.table(rt) == expected.table(rt))
                })
            })
            .unwrap_or(false);
        if !ok {
            return rule.clone();
        }
    }
    simplified
}
