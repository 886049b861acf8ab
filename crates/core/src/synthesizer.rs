//! The top-level synthesis algorithm (§4.1, Algorithm 1).
//!
//! For each top-level target record the sketch yields one rule sketch;
//! rules share no holes and their head relations are disjoint, so each is
//! completed independently by its own [`RuleSolver`]: encode the sketch as
//! a finite-domain formula, repeatedly sample a model, instantiate and
//! evaluate the candidate on the example input, and on failure add
//! blocking clauses — either the MDP-generalized pattern of §4.3
//! ([`Strategy::MdpGuided`]) or the bare model negation
//! ([`Strategy::Enumerative`], the paper's Dynamite-Enum baseline).

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamite_datalog::pool::{self, WorkerPool};
use dynamite_datalog::{
    resolve_fact_budget, resolve_reorder, Evaluator, Governor, Program, ResourceLimits,
    ResourceTrip, Rule, RuleCacheHandle,
};
use dynamite_instance::hash::FxHashMap;
use dynamite_instance::{to_facts, EncodedFlat, FactsError, FlatCodec};
use dynamite_schema::Schema;
use dynamite_smt::{ConstId, FdLit, FdSolver, FdVar, SatStats};

use crate::analyze::{generalize, mdp_set_ids, PatternLit};
use crate::attr_map::{infer_attr_mapping, AttrMapping};
use crate::example::Example;
use crate::simplify::simplify_rule;
use crate::sketch::{
    generate_sketch, BodySlot, DomainElem, HoleKind, RuleSketch, Sketch, SketchOptions,
};

/// Sketch-completion strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Learn from failures via minimal distinguishing projections (§4.3).
    #[default]
    MdpGuided,
    /// Block only the failing model (the paper's Dynamite-Enum baseline,
    /// §6.4).
    Enumerative,
}

/// Per-candidate evaluation limits (resource governance).
///
/// Each limit bounds ONE candidate evaluation on ONE example; the
/// synthesizer builds a fresh [`Governor`] per example evaluation, so
/// budgets are deterministic at every thread count. A candidate that
/// trips a limit is rejected and blocked like any other failing
/// candidate (after a bounded number of retries, to absorb transient
/// trips) — it does not sink the whole synthesis call. The global
/// [`SynthesisConfig::timeout`] still aborts the call as a whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateLimits {
    /// Wall-clock slice for one candidate evaluation on one example.
    pub timeout: Option<Duration>,
    /// Cap on unique facts one evaluation may derive. `None` defers to
    /// the `DYNAMITE_FACT_BUDGET` environment variable (which overrides
    /// an explicit setting either way).
    pub fact_budget: Option<u64>,
    /// Cap on fixpoint rounds one evaluation may start.
    pub round_cap: Option<u64>,
}

impl CandidateLimits {
    /// Resolves these limits (plus an optional outer deadline) into the
    /// engine's [`ResourceLimits`]. Returns `None` when nothing is
    /// limited — callers then use the ungoverned evaluation path. The
    /// fact budget goes through [`resolve_fact_budget`], so the
    /// `DYNAMITE_FACT_BUDGET` env var governs evaluations even when the
    /// config leaves every field `None`.
    pub fn resolve(&self, outer_deadline: Option<Instant>) -> Option<ResourceLimits> {
        let per_candidate = self.timeout.and_then(|t| Instant::now().checked_add(t));
        let deadline = match (outer_deadline, per_candidate) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let limits = ResourceLimits {
            deadline,
            fact_budget: resolve_fact_budget(self.fact_budget),
            round_cap: self.round_cap,
        };
        (!limits.is_unlimited()).then_some(limits)
    }
}

/// Synthesis configuration.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Completion strategy.
    pub strategy: Strategy,
    /// Wall-clock budget for the whole synthesis call.
    pub timeout: Option<Duration>,
    /// Resource limits applied to each candidate evaluation. Unlimited
    /// by default (but see [`CandidateLimits::fact_budget`] for the
    /// environment override).
    pub candidate_limits: CandidateLimits,
    /// Cap on candidate programs sampled per rule.
    pub max_iters_per_rule: usize,
    /// Sketch-generation options (filtering constants, …).
    pub sketch: SketchOptions,
    /// Work budget for each MDP breadth-first search.
    pub mdp_budget: usize,
    /// Apply basic simplification to accepted rules (§2).
    pub simplify: bool,
    /// Worker threads for fixpoint evaluation. Candidates are checked
    /// one at a time; only large fixpoint rounds fan out. `None` defers
    /// to the `DYNAMITE_THREADS` environment variable (or, absent that,
    /// the available parallelism); the env var overrides an explicit
    /// setting either way. `1` is the fully sequential path.
    pub threads: Option<usize>,
    /// Whether candidate evaluation uses the cost-based join planner.
    /// `None` defers to the `DYNAMITE_NO_REORDER` environment variable
    /// (default: enabled); the env var overrides an explicit setting
    /// either way, so planner regressions stay bisectable from the
    /// command line. `Some(false)` pins body-order plans.
    pub reorder: Option<bool>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            strategy: Strategy::MdpGuided,
            timeout: None,
            candidate_limits: CandidateLimits::default(),
            max_iters_per_rule: 1_000_000,
            sketch: SketchOptions::default(),
            mdp_budget: 20_000,
            simplify: true,
            threads: None,
            reorder: None,
        }
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// Source and target schemas share names; the Datalog encoding needs
    /// globally distinct names (rename target attributes, as the paper's
    /// benchmarks do).
    SchemaOverlap(Vec<String>),
    /// The search space contains no program consistent with the examples
    /// (Algorithm 1's `⊥`).
    NoProgram { rule: String },
    /// Timed out while completing `rule`.
    Timeout { rule: String },
    /// Iteration cap reached while completing `rule`.
    IterationLimit { rule: String },
    /// Example `example`'s output is not an instance of the target schema:
    /// its facts fail the target's arity or type checks.
    BadExample { example: usize, error: FactsError },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::SchemaOverlap(ns) => {
                write!(f, "schemas share names: {}", ns.join(", "))
            }
            SynthesisError::NoProgram { rule } => {
                write!(f, "no Datalog program exists for target record `{rule}`")
            }
            SynthesisError::Timeout { rule } => {
                write!(f, "timed out synthesizing rule for `{rule}`")
            }
            SynthesisError::IterationLimit { rule } => {
                write!(f, "iteration limit synthesizing rule for `{rule}`")
            }
            SynthesisError::BadExample { example, error } => {
                write!(
                    f,
                    "example {example}'s output is not a target instance: {error}"
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Per-rule synthesis statistics.
#[derive(Debug, Clone)]
pub struct RuleStats {
    /// The top-level target record of the rule.
    pub target_record: String,
    /// Candidate programs sampled.
    pub iterations: usize,
    /// Blocking clauses added.
    pub blocking_clauses: usize,
    /// MDPs computed across all failures.
    pub mdps_computed: usize,
    /// Candidates rejected because their evaluation tripped a resource
    /// limit ([`CandidateLimits`]) rather than producing wrong output.
    pub resource_skips: usize,
    /// `resource_skips` broken down by which limit tripped.
    pub resource_skip_kinds: TripCounts,
    /// Number of holes in the rule sketch.
    pub holes: usize,
    /// ln of the rule's completion count.
    pub ln_space: f64,
    /// The counters of the rule's SAT solver.
    pub sat: SatStats,
    /// Wall time per phase of the rule's search.
    pub phases: PhaseTimes,
}

/// Wall time one rule's CEGIS loop spent per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// SAT solving: sampling the next sketch completion.
    pub solve: Duration,
    /// Evaluating candidates on the example inputs.
    pub eval: Duration,
    /// Encoding candidate outputs into dictionary ids and comparing them
    /// with the expected tables.
    pub encode_compare: Duration,
    /// Computing minimal distinguishing projections.
    pub mdp: Duration,
    /// Blocking: `generalize` plus lowering and adding the clauses.
    pub block: Duration,
}

impl PhaseTimes {
    /// The field-wise sum.
    pub fn add(&mut self, other: &PhaseTimes) {
        self.solve += other.solve;
        self.eval += other.eval;
        self.encode_compare += other.encode_compare;
        self.mdp += other.mdp;
        self.block += other.block;
    }
}

impl fmt::Display for PhaseTimes {
    /// `solve 0.812 s, eval 1.050 s, …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solve {:.3} s, eval {:.3} s, encode+compare {:.3} s, mdp {:.3} s, block {:.3} s",
            self.solve.as_secs_f64(),
            self.eval.as_secs_f64(),
            self.encode_compare.as_secs_f64(),
            self.mdp.as_secs_f64(),
            self.block.as_secs_f64(),
        )
    }
}

/// Resource-limit trips tallied per kind (see [`ResourceTrip`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripCounts {
    /// Wall-clock deadline trips.
    pub deadline: usize,
    /// Derived-fact-budget trips.
    pub fact_budget: usize,
    /// Fixpoint-round-cap trips.
    pub round_cap: usize,
    /// External cancellations.
    pub cancelled: usize,
}

impl TripCounts {
    fn record(&mut self, trip: ResourceTrip) {
        match trip {
            ResourceTrip::Deadline => self.deadline += 1,
            ResourceTrip::FactBudget => self.fact_budget += 1,
            ResourceTrip::RoundCap => self.round_cap += 1,
            ResourceTrip::Cancelled => self.cancelled += 1,
        }
    }

    /// Total trips across all kinds.
    pub fn total(&self) -> usize {
        self.deadline + self.fact_budget + self.round_cap + self.cancelled
    }
}

impl fmt::Display for TripCounts {
    /// Renders only the non-zero kinds, e.g. `deadline ×2, round cap ×40`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (label, n) in [
            ("deadline", self.deadline),
            ("fact budget", self.fact_budget),
            ("round cap", self.round_cap),
            ("cancelled", self.cancelled),
        ] {
            if n == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{label} ×{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Whole-synthesis statistics.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Per-rule breakdown.
    pub rules: Vec<RuleStats>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// ln of the total search-space size (Table 3's "Search Space").
    pub ln_search_space: f64,
}

impl SynthStats {
    /// Total candidates sampled.
    pub fn total_iterations(&self) -> usize {
        self.rules.iter().map(|r| r.iterations).sum()
    }

    /// Phase times summed over the rules.
    pub fn phases(&self) -> PhaseTimes {
        let mut total = PhaseTimes::default();
        for r in &self.rules {
            total.add(&r.phases);
        }
        total
    }

    /// Search-space size formatted like the paper (`5.1 × 10^39`).
    pub fn search_space_string(&self) -> String {
        let log10 = self.ln_search_space / std::f64::consts::LN_10;
        let exp = log10.floor();
        let mantissa = 10f64.powf(log10 - exp);
        format!("{mantissa:.1}e{exp:.0}")
    }
}

/// The result of successful synthesis.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The synthesized migration program.
    pub program: Program,
    /// Statistics.
    pub stats: SynthStats,
}

/// Synthesizes a Datalog migration program from examples (Algorithm 1).
pub fn synthesize(
    source: &Arc<Schema>,
    target: &Arc<Schema>,
    examples: &[Example],
    config: &SynthesisConfig,
) -> Result<Synthesis, SynthesisError> {
    Synthesizer::new(
        source.clone(),
        target.clone(),
        examples.to_vec(),
        config.clone(),
    )?
    .synthesize()
}

/// A prepared synthesis problem: attribute mapping inferred, sketch
/// generated, examples preprocessed. Useful when tooling needs access to
/// the intermediate artifacts (Ψ, the sketch, search-space size) or to the
/// per-rule solvers (interactive mode).
pub struct Synthesizer {
    source: Arc<Schema>,
    target: Arc<Schema>,
    examples: Vec<Example>,
    // (examples retained for introspection via `examples()`)
    /// One prepared evaluation context per example: the fact database is
    /// snapshotted once and its join indexes are shared by every candidate
    /// program evaluated against it (the CEGIS loop's hot path).
    input_contexts: Vec<Evaluator>,
    /// The worker pool shared by every context, sized by
    /// `SynthesisConfig::threads`.
    pool: Arc<WorkerPool>,
    /// The target's flat-table dictionaries, grown by the expected outputs.
    codec: FlatCodec,
    /// Each example's expected flattening, in `codec`'s ids.
    expected: Vec<EncodedFlat>,
    psi: AttrMapping,
    sketch: Sketch,
    config: SynthesisConfig,
}

impl Synthesizer {
    /// Prepares a synthesis problem: checks schema-name disjointness and
    /// that each example's output is an instance of `target`, infers `Ψ`,
    /// generates the sketch, and preprocesses the examples.
    pub fn new(
        source: Arc<Schema>,
        target: Arc<Schema>,
        examples: Vec<Example>,
        config: SynthesisConfig,
    ) -> Result<Synthesizer, SynthesisError> {
        let src_names: HashSet<&str> = source.records().chain(source.prim_attrs()).collect();
        let overlap: Vec<String> = target
            .records()
            .chain(target.prim_attrs())
            .filter(|n| src_names.contains(n))
            .map(str::to_string)
            .collect();
        if !overlap.is_empty() {
            return Err(SynthesisError::SchemaOverlap(overlap));
        }
        let mut codec = FlatCodec::new(&target);
        let expected = examples
            .iter()
            .enumerate()
            .map(|(example, e)| {
                codec
                    .learn(&to_facts(&e.output))
                    .map_err(|error| SynthesisError::BadExample { example, error })
            })
            .collect::<Result<_, _>>()?;
        let psi = infer_attr_mapping(&source, &target, &examples);
        let sketch = generate_sketch(&psi, &source, &target, &examples, &config.sketch);
        let pool = pool::with_threads(config.threads);
        let reorder = resolve_reorder(config.reorder);
        // One compiled-rule memo across all example contexts: a plan's
        // join orders are part of its memo key, so a candidate compiled
        // while checking example 1 is a cache hit on examples 2..N
        // whenever their statistics agree on the orders — and never a
        // wrong-order plan when they do not.
        let rules = RuleCacheHandle::default();
        let input_contexts: Vec<Evaluator> = examples
            .iter()
            .map(|e| {
                Evaluator::with_config(to_facts(&e.input), pool.clone(), rules.clone(), reorder)
            })
            .collect();
        Ok(Synthesizer {
            source,
            target,
            examples,
            input_contexts,
            pool,
            codec,
            expected,
            psi,
            sketch,
            config,
        })
    }

    /// The inferred attribute mapping.
    pub fn psi(&self) -> &AttrMapping {
        &self.psi
    }

    /// The generated program sketch.
    pub fn sketch(&self) -> &Sketch {
        &self.sketch
    }

    /// The source schema.
    pub fn source(&self) -> &Arc<Schema> {
        &self.source
    }

    /// The target schema.
    pub fn target(&self) -> &Arc<Schema> {
        &self.target
    }

    /// The examples this problem was prepared with.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// The worker pool whose thread budget every example's fixpoint
    /// rounds fan out on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Creates the per-rule solver for rule index `i`.
    pub fn rule_solver(&self, i: usize) -> Result<RuleSolver<'_>, SynthesisError> {
        RuleSolver::new(self, &self.sketch.rules[i])
    }

    /// Runs Algorithm 1: completes every rule sketch and assembles the
    /// program.
    pub fn synthesize(&self) -> Result<Synthesis, SynthesisError> {
        self.synthesize_partial().map_err(|(e, _)| e)
    }

    /// Like [`synthesize`](Self::synthesize), but on failure hands back
    /// the statistics accumulated up to the abort — rules already
    /// completed plus the failing rule's partial counters — so callers
    /// hitting the global deadline (or an iteration cap) can still
    /// report how far the search got.
    pub fn synthesize_partial(&self) -> Result<Synthesis, (SynthesisError, SynthStats)> {
        let start = Instant::now();
        let deadline = self.config.timeout.and_then(|t| start.checked_add(t));
        let mut rules = Vec::new();
        let mut stats = SynthStats {
            ln_search_space: self.sketch.ln_search_space(),
            ..Default::default()
        };
        for rs in &self.sketch.rules {
            let mut solver = match RuleSolver::new(self, rs) {
                Ok(s) => s,
                Err(e) => {
                    stats.elapsed = start.elapsed();
                    return Err((e, stats));
                }
            };
            solver.deadline = deadline;
            match solver.next_consistent() {
                Ok(Some((rule, _))) => {
                    let rule = if self.config.simplify {
                        self.checked_simplify(&rule)
                    } else {
                        rule
                    };
                    rules.push(rule);
                    stats.rules.push(solver.stats());
                }
                Ok(None) => {
                    stats.rules.push(solver.stats());
                    stats.elapsed = start.elapsed();
                    return Err((
                        SynthesisError::NoProgram {
                            rule: rs.target_record.clone(),
                        },
                        stats,
                    ));
                }
                Err(e) => {
                    stats.rules.push(solver.stats());
                    stats.elapsed = start.elapsed();
                    return Err((e, stats));
                }
            }
        }
        stats.elapsed = start.elapsed();
        Ok(Synthesis {
            program: Program::new(rules),
            stats,
        })
    }

    /// Simplifies a rule, keeping the simplification only if the
    /// simplified rule still reproduces the expected output on every
    /// example (dropping a detached atom is unsound when its relation is
    /// empty in the example).
    fn checked_simplify(&self, rule: &Rule) -> Rule {
        let simplified = simplify_rule(rule);
        if simplified == *rule {
            return simplified;
        }
        let prog = Program::new(vec![simplified.clone()]);
        let tables = self.tables_of(rule.heads.iter().map(|h| h.relation.as_str()));
        for (ctx, expected) in self.input_contexts.iter().zip(&self.expected) {
            let ok = ctx
                .eval(&prog)
                .ok()
                .and_then(|out| self.codec.encode(&out).ok())
                .is_some_and(|actual| tables.iter().all(|&k| actual.table(k) == expected.table(k)));
            if !ok {
                return rule.clone();
            }
        }
        simplified
    }

    /// The flat-table indices of the given record types (names that are
    /// not target record types have no table and are skipped).
    fn tables_of<'n>(&self, record_types: impl IntoIterator<Item = &'n str>) -> Vec<usize> {
        record_types
            .into_iter()
            .filter_map(|rt| self.codec.table_index(rt))
            .collect()
    }
}

/// The sketch-completion loop for one rule (lines 4–10 of Algorithm 1).
pub struct RuleSolver<'a> {
    synth: &'a Synthesizer,
    sketch: &'a RuleSketch,
    fd: FdSolver,
    hole_vars: Vec<FdVar>,
    elem_of: FxHashMap<ConstId, DomainElem>,
    fixed_body_vars: HashSet<String>,
    /// The flat-table indices of the sketch's record types.
    tables: Vec<usize>,
    iterations: usize,
    blocking_clauses: usize,
    mdps_computed: usize,
    resource_skips: usize,
    skip_trips: TripCounts,
    phases: PhaseTimes,
    /// Optional wall-clock deadline.
    pub deadline: Option<Instant>,
}

/// How many times an [`ExampleCheck::Exhausted`] candidate is re-checked
/// before being skipped. A trip can be transient (an injected fault, a
/// deadline race near the global timeout); retrying keeps those from
/// condemning an otherwise-fine candidate, while a candidate that
/// genuinely exceeds its budget trips every time and is skipped after
/// `1 + CANDIDATE_RETRIES` attempts.
const CANDIDATE_RETRIES: usize = 2;

impl<'a> RuleSolver<'a> {
    fn new(synth: &'a Synthesizer, sketch: &'a RuleSketch) -> Result<Self, SynthesisError> {
        let mut fd = FdSolver::new();
        let mut elem_of: FxHashMap<ConstId, DomainElem> = FxHashMap::default();
        let mut hole_vars = Vec::with_capacity(sketch.holes.len());
        let no_program = || SynthesisError::NoProgram {
            rule: sketch.target_record.clone(),
        };
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
            let v = fd.new_var(&hole.name, &ids).map_err(|_| no_program())?;
            hole_vars.push(v);
        }

        // Head coverage: every target attribute variable must be picked by
        // some *attribute* hole — connector holes sit in head positions and
        // cannot bind a variable in the body.
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

        // Fixed body variables (source-chain connectors).
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

        // Connector support: a pool variable chosen by a connector hole
        // must also be chosen by some attribute hole, or the rule would
        // not be range-restricted.
        for (c, hole) in sketch.holes.iter().enumerate() {
            if hole.kind != HoleKind::Connector {
                continue;
            }
            for elem in &hole.domain {
                let DomainElem::BodyVar(w) = elem else {
                    continue;
                };
                if fixed_body_vars.contains(w) {
                    continue; // chain connectors already occur in the body
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

        Ok(RuleSolver {
            synth,
            sketch,
            fd,
            hole_vars,
            elem_of,
            fixed_body_vars,
            tables: synth.tables_of(sketch.record_types.iter().map(String::as_str)),
            iterations: 0,
            blocking_clauses: 0,
            mdps_computed: 0,
            resource_skips: 0,
            skip_trips: TripCounts::default(),
            phases: PhaseTimes::default(),
            deadline: None,
        })
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RuleStats {
        RuleStats {
            target_record: self.sketch.target_record.clone(),
            iterations: self.iterations,
            blocking_clauses: self.blocking_clauses,
            mdps_computed: self.mdps_computed,
            resource_skips: self.resource_skips,
            resource_skip_kinds: self.skip_trips,
            holes: self.sketch.holes.len(),
            ln_space: self.sketch.ln_completions(),
            sat: self.fd.sat_stats(),
            phases: self.phases,
        }
    }

    fn is_rigid(&self, e: &DomainElem) -> bool {
        match e {
            DomainElem::Const(_) => true,
            DomainElem::BodyVar(w) => self.fixed_body_vars.contains(w),
            DomainElem::HeadVar(_) => false,
        }
    }

    /// Samples sketch completions until one is consistent with every
    /// example. Returns the rule and its assignment, or `None` when the
    /// space is exhausted. After returning a rule, its whole renaming-
    /// equivalence class is blocked, so subsequent calls yield semantically
    /// distinct programs (used by interactive mode).
    pub fn next_consistent(&mut self) -> Result<Option<(Rule, Vec<DomainElem>)>, SynthesisError> {
        loop {
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    return Err(SynthesisError::Timeout {
                        rule: self.sketch.target_record.clone(),
                    });
                }
            }
            if self.iterations >= self.synth.config.max_iters_per_rule {
                return Err(SynthesisError::IterationLimit {
                    rule: self.sketch.target_record.clone(),
                });
            }
            let t = Instant::now();
            let model = self.fd.solve();
            self.phases.solve += t.elapsed();
            let Some(model) = model else {
                return Ok(None);
            };
            self.iterations += 1;
            let assignment: Vec<DomainElem> = self
                .hole_vars
                .iter()
                .map(|&x| self.elem_of[&model.value(x)].clone())
                .collect();
            let rule = self.sketch.instantiate(&assignment);

            let mut verdict = self.check(&rule);
            let mut retries = 0;
            while matches!(verdict, CheckResult::Exhausted(_)) && retries < CANDIDATE_RETRIES {
                retries += 1;
                verdict = self.check(&rule);
            }
            match verdict {
                CheckResult::Consistent => {
                    // Block the equivalence class so another call finds a
                    // semantically different program.
                    let all_attrs: BTreeSet<String> = self
                        .sketch
                        .head_vars()
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                    let t = Instant::now();
                    let psi = self.pattern_clause(&assignment, &all_attrs);
                    let _ = self.fd.add_clause(&psi);
                    self.phases.block += t.elapsed();
                    self.blocking_clauses += 1;
                    return Ok(Some((rule, assignment)));
                }
                CheckResult::Failed { actual } => {
                    self.block_failure(&assignment, actual.as_ref());
                }
                CheckResult::Exhausted(trip) => {
                    // Graceful degradation: the candidate repeatedly blew
                    // its per-candidate resource budget. Skip exactly this
                    // model (no MDP generalization — resource exhaustion
                    // says nothing about which holes are wrong) and keep
                    // searching. The global deadline check at the loop top
                    // still aborts the whole call when it expires.
                    self.resource_skips += 1;
                    self.skip_trips.record(trip);
                    self.block_exact(&assignment);
                }
            }
        }
    }

    /// Evaluates a candidate on every example in order, stopping at the
    /// first failure — the lowest failing index is the counterexample,
    /// so MDP blocking sees identical failures at any thread count.
    ///
    /// On failure the expected tables are handed back as a borrow of the
    /// synthesizer's encoded expectation.
    fn check(&mut self, rule: &Rule) -> CheckResult<'a> {
        let prog = Program::new(vec![rule.clone()]);
        let synth = self.synth;
        // Resolved once per candidate so the per-candidate timeout slice
        // covers all example evaluations together; each evaluation still
        // gets a FRESH governor (fact/round counters are per-example, so
        // budgets behave identically at any thread count).
        let limits = synth.config.candidate_limits.resolve(self.deadline);

        for (ctx, expected) in synth.input_contexts.iter().zip(&synth.expected) {
            let verdict = check_example(
                ctx,
                &prog,
                &synth.codec,
                &self.tables,
                expected,
                limits,
                &mut self.phases,
            );
            match verdict {
                ExampleCheck::Pass => {}
                ExampleCheck::Error => return CheckResult::Failed { actual: None },
                ExampleCheck::Exhausted(trip) => return CheckResult::Exhausted(trip),
                ExampleCheck::Mismatch(actual) => {
                    return CheckResult::Failed {
                        actual: Some((actual, expected)),
                    }
                }
            }
        }
        CheckResult::Consistent
    }

    /// Adds blocking clauses for a failed candidate.
    fn block_failure(
        &mut self,
        assignment: &[DomainElem],
        failure: Option<&(EncodedFlat, &EncodedFlat)>,
    ) {
        match (self.synth.config.strategy, failure) {
            (Strategy::MdpGuided, Some((actual, expected))) => {
                let mut blocked_any = false;
                for i in 0..self.tables.len() {
                    let k = self.tables[i];
                    let (at, et) = (actual.table(k), expected.table(k));
                    if at == et {
                        continue;
                    }
                    let t = Instant::now();
                    let result = mdp_set_ids(at, et, self.synth.config.mdp_budget);
                    self.phases.mdp += t.elapsed();
                    let columns = self.synth.codec.columns(k);
                    for mdp in &result.mdps {
                        let t = Instant::now();
                        self.mdps_computed += 1;
                        let pinned: BTreeSet<String> =
                            mdp.iter().map(|&c| columns[c].clone()).collect();
                        let clause = self.pattern_clause(assignment, &pinned);
                        let _ = self.fd.add_clause(&clause);
                        self.blocking_clauses += 1;
                        blocked_any = true;
                        self.phases.block += t.elapsed();
                    }
                }
                if !blocked_any {
                    self.block_exact(assignment);
                }
            }
            _ => self.block_exact(assignment),
        }
    }

    /// Blocks exactly the failing model (Dynamite-Enum behaviour).
    fn block_exact(&mut self, assignment: &[DomainElem]) {
        let t = Instant::now();
        let clause: Vec<FdLit> = assignment
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let id = self.fd.constant(&e.key());
                FdLit::Ne(self.hole_vars[i], id)
            })
            .collect();
        let _ = self.fd.add_clause(&clause);
        self.blocking_clauses += 1;
        self.phases.block += t.elapsed();
    }

    /// Lowers `¬Generalize(σ, ϕ)` to a solver clause.
    fn pattern_clause(
        &mut self,
        assignment: &[DomainElem],
        pinned_attrs: &BTreeSet<String>,
    ) -> Vec<FdLit> {
        let pattern = generalize(
            assignment,
            pinned_attrs,
            |e| self.is_rigid(e),
            |i| {
                self.sketch.holes[i]
                    .domain
                    .iter()
                    .filter(|e| self.is_rigid(e))
                    .cloned()
                    .collect()
            },
        );
        pattern
            .into_iter()
            .map(|lit| match lit {
                PatternLit::Pin(i) => {
                    let id = self.fd.constant(&assignment[i].key());
                    FdLit::Ne(self.hole_vars[i], id)
                }
                PatternLit::EqPair(i, j) => FdLit::VarNe(self.hole_vars[i], self.hole_vars[j]),
                PatternLit::NePair(i, j) => FdLit::VarEq(self.hole_vars[i], self.hole_vars[j]),
                PatternLit::NotElem(i, e) => {
                    let id = self.fd.constant(&e.key());
                    FdLit::Eq(self.hole_vars[i], id)
                }
            })
            .collect()
    }
}

/// One example's verdict on a candidate program.
enum ExampleCheck {
    Pass,
    /// Evaluation or fact-translation failed (no flattening to report).
    Error,
    /// Evaluation tripped a resource limit (deadline, fact budget, round
    /// cap, or cancellation) before producing an output.
    Exhausted(ResourceTrip),
    /// The candidate's output differs from the expected flattening.
    Mismatch(EncodedFlat),
}

/// Checks one candidate against one example: evaluates it, encodes its
/// output and compares the tables `tables` with `expected`, adding the
/// time of each step to `phases`.
fn check_example(
    ctx: &Evaluator,
    prog: &Program,
    codec: &FlatCodec,
    tables: &[usize],
    expected: &EncodedFlat,
    limits: Option<ResourceLimits>,
    phases: &mut PhaseTimes,
) -> ExampleCheck {
    let t = Instant::now();
    let result = match limits {
        Some(l) => ctx.eval_governed(prog, &Governor::new(l)),
        None => ctx.eval(prog),
    };
    phases.eval += t.elapsed();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            return match e.resource_trip() {
                Some(trip) => ExampleCheck::Exhausted(trip),
                None => ExampleCheck::Error,
            }
        }
    };
    let t = Instant::now();
    let verdict = match codec.encode(&out) {
        Err(_) => ExampleCheck::Error,
        Ok(actual) if tables.iter().any(|&k| actual.table(k) != expected.table(k)) => {
            ExampleCheck::Mismatch(actual)
        }
        Ok(_) => ExampleCheck::Pass,
    };
    phases.encode_compare += t.elapsed();
    verdict
}

enum CheckResult<'s> {
    Consistent,
    Failed {
        /// `(actual, expected)` flattenings of the first failing example,
        /// when the candidate evaluated cleanly; `expected` borrows the
        /// synthesizer's encoded expectation.
        actual: Option<(EncodedFlat, &'s EncodedFlat)>,
    },
    /// Some example evaluation tripped a per-candidate resource limit
    /// (of the carried kind); nothing is known about the candidate's
    /// semantics.
    Exhausted(ResourceTrip),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{motivating, works_in};
    use dynamite_datalog::{alpha_equivalent, evaluate};
    use dynamite_instance::from_facts;

    #[test]
    fn synthesizes_the_motivating_example() {
        let (source, target, ex) = motivating();
        let result = synthesize(
            &source,
            &target,
            std::slice::from_ref(&ex),
            &SynthesisConfig::default(),
        )
        .expect("synthesis succeeds");
        assert_eq!(result.program.rules.len(), 1);
        // The synthesized program must reproduce the example output.
        let facts = to_facts(&ex.input);
        let out = evaluate(&result.program, &facts).unwrap();
        let inst = from_facts(&out, target.clone()).unwrap();
        assert!(inst.canon_eq(&ex.output));
    }

    #[test]
    fn motivating_example_matches_golden_program() {
        let (source, target, ex) = motivating();
        let result = synthesize(&source, &target, &[ex], &SynthesisConfig::default()).unwrap();
        let golden = Program::parse(
            "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
        )
        .unwrap();
        assert!(
            alpha_equivalent(&result.program.rules[0], &golden.rules[0]),
            "got: {}",
            result.program
        );
    }

    #[test]
    fn enumerative_strategy_also_synthesizes_correctly() {
        // Both strategies must converge to a correct program; their
        // relative iteration counts are an aggregate claim (Figure 9a),
        // not a per-run invariant.
        let (source, target, ex) = motivating();
        let mdp = synthesize(
            &source,
            &target,
            std::slice::from_ref(&ex),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let enum_cfg = SynthesisConfig {
            strategy: Strategy::Enumerative,
            ..Default::default()
        };
        let enu = synthesize(&source, &target, std::slice::from_ref(&ex), &enum_cfg).unwrap();
        let facts = to_facts(&ex.input);
        for r in [&mdp, &enu] {
            let out = evaluate(&r.program, &facts).unwrap();
            let inst = from_facts(&out, target.clone()).unwrap();
            assert!(inst.canon_eq(&ex.output));
        }
    }

    #[test]
    fn search_space_matches_section2() {
        let (source, target, ex) = motivating();
        let synth = Synthesizer::new(source, target, vec![ex], SynthesisConfig::default()).unwrap();
        let n = synth.sketch().ln_search_space().exp().round() as u64;
        assert_eq!(n, 64_000);
    }

    #[test]
    fn works_in_join_example() {
        let (source, target, ex) = works_in();
        let result = synthesize(
            &source,
            &target,
            std::slice::from_ref(&ex),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let facts = to_facts(&ex.input);
        let out = evaluate(&result.program, &facts).unwrap();
        let inst = from_facts(&out, target.clone()).unwrap();
        assert!(inst.canon_eq(&ex.output));
    }

    #[test]
    fn schema_overlap_is_rejected() {
        let (source, _, ex) = motivating();
        let err =
            synthesize(&source, &source.clone(), &[ex], &SynthesisConfig::default()).unwrap_err();
        assert!(matches!(err, SynthesisError::SchemaOverlap(_)));
    }

    #[test]
    fn example_outputs_off_the_target_schema_are_rejected() {
        use dynamite_instance::{Instance, InstanceError, Record, Value};
        use dynamite_schema::Schema;
        // Same record name as the target's `Admission`, but one attribute
        // short (an arity error) or with `num` a string (a type error).
        let (source, target, ex) = motivating();
        let output = |schema: &str, num: Value| {
            let schema = Arc::new(Schema::parse(schema).unwrap());
            let mut values = vec!["U1".into(), "U2".into()];
            values.extend(schema.attrs("Admission").get(2).map(|_| num));
            let mut inst = Instance::new(schema);
            inst.insert("Admission", Record::from_values(values))
                .unwrap();
            Example::new(ex.input.clone(), inst)
        };
        let short = output(
            "@document Admission { grad: String, ug: String }",
            Value::Int(0),
        );
        let mistyped = output(
            "@document Admission { grad: String, ug: String, num: String }",
            Value::str("50"),
        );
        let err = Synthesizer::new(
            source.clone(),
            target.clone(),
            vec![ex.clone(), short],
            SynthesisConfig::default(),
        )
        .err()
        .expect("an arity error");
        assert_eq!(
            err,
            SynthesisError::BadExample {
                example: 1,
                error: FactsError::Arity {
                    relation: "Admission".into(),
                    expected: 3,
                    got: 2,
                },
            }
        );
        let err =
            synthesize(&source, &target, &[mistyped], &SynthesisConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SynthesisError::BadExample {
                example: 0,
                error: FactsError::Validation(InstanceError::FieldType {
                    record: "Admission".into(),
                    attr: "num".into(),
                }),
            }
        );
    }

    #[test]
    fn impossible_target_returns_no_program() {
        use dynamite_instance::{Instance, Record};
        use dynamite_schema::Schema;
        // Target attribute whose values never appear in the source: no
        // attribute mapping, empty coverage, ⊥.
        let (source, _, ex) = motivating();
        let target = Arc::new(Schema::parse("@relational Mystery { secret: String }").unwrap());
        let mut output = Instance::new(target.clone());
        output
            .insert("Mystery", Record::from_values(vec!["nowhere".into()]))
            .unwrap();
        let ex2 = Example::new(ex.input, output);
        let err = synthesize(&source, &target, &[ex2], &SynthesisConfig::default()).unwrap_err();
        assert!(matches!(err, SynthesisError::NoProgram { .. }));
    }

    #[test]
    fn nested_target_synthesis() {
        use dynamite_instance::{Instance, Record, Value};
        use dynamite_schema::Schema;
        let source = Arc::new(
            Schema::parse(
                "@relational
                 Teams { tid: Int, tname: String }
                 Players { pid: Int, team_id: Int, pname: String, avg: Int }",
            )
            .unwrap(),
        );
        let target = Arc::new(
            Schema::parse(
                "@document
                 Team { team_name: String, Roster { player_name: String, batting: Int } }",
            )
            .unwrap(),
        );
        let mut input = Instance::new(source.clone());
        input
            .insert("Teams", Record::from_values(vec![1.into(), "Reds".into()]))
            .unwrap();
        input
            .insert("Teams", Record::from_values(vec![2.into(), "Blues".into()]))
            .unwrap();
        input
            .insert(
                "Players",
                Record::from_values(vec![10.into(), 1.into(), "Ann".into(), 300.into()]),
            )
            .unwrap();
        input
            .insert(
                "Players",
                Record::from_values(vec![11.into(), 1.into(), "Bob".into(), 250.into()]),
            )
            .unwrap();
        input
            .insert(
                "Players",
                Record::from_values(vec![12.into(), 2.into(), "Cyd".into(), 275.into()]),
            )
            .unwrap();
        let mut output = Instance::new(target.clone());
        output
            .insert(
                "Team",
                Record::with_fields(vec![
                    Value::str("Reds").into(),
                    vec![
                        Record::from_values(vec!["Ann".into(), 300.into()]),
                        Record::from_values(vec!["Bob".into(), 250.into()]),
                    ]
                    .into(),
                ]),
            )
            .unwrap();
        output
            .insert(
                "Team",
                Record::with_fields(vec![
                    Value::str("Blues").into(),
                    vec![Record::from_values(vec!["Cyd".into(), 275.into()])].into(),
                ]),
            )
            .unwrap();
        let ex = Example::new(input.clone(), output.clone());
        let result = synthesize(&source, &target, &[ex], &SynthesisConfig::default()).unwrap();
        let facts = to_facts(&input);
        let out = evaluate(&result.program, &facts).unwrap();
        let inst = from_facts(&out, target.clone()).unwrap();
        assert!(
            inst.canon_eq(&output),
            "program: {}\ngot: {}\nwant: {}",
            result.program,
            inst.flatten(),
            output.flatten()
        );
    }

    #[test]
    fn injected_budget_fault_is_absorbed_by_candidate_retry() {
        use dynamite_datalog::fault;
        let _guard = fault::test_lock();
        fault::reset();
        // A per-candidate timeout makes every example evaluation run
        // governed, which arms the fault hook points. One injected
        // budget trip must NOT change the synthesis result: the retry
        // re-checks the candidate and the trip is absorbed.
        let (source, target, ex) = motivating();
        let cfg = SynthesisConfig {
            candidate_limits: CandidateLimits {
                timeout: Some(Duration::from_secs(60)),
                ..Default::default()
            },
            ..Default::default()
        };
        fault::arm(fault::BUDGET, 1);
        let result = synthesize(&source, &target, std::slice::from_ref(&ex), &cfg);
        fault::reset();
        let result = result.expect("a single transient trip is absorbed by candidate retries");
        let facts = to_facts(&ex.input);
        let out = evaluate(&result.program, &facts).unwrap();
        let inst = from_facts(&out, target.clone()).unwrap();
        assert!(inst.canon_eq(&ex.output));
    }

    #[test]
    fn resource_exhausted_candidates_are_skipped_not_fatal() {
        use dynamite_datalog::fault;
        let _guard = fault::test_lock();
        fault::reset();
        // A round cap of 0 exhausts EVERY candidate evaluation. Each
        // candidate is skipped (blocked exactly) instead of aborting the
        // call; the search keeps sampling until the iteration cap, and
        // the partial stats report how many candidates were skipped.
        let (source, target, ex) = motivating();
        let cfg = SynthesisConfig {
            max_iters_per_rule: 40,
            strategy: Strategy::Enumerative,
            candidate_limits: CandidateLimits {
                round_cap: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let synth = Synthesizer::new(source, target, vec![ex], cfg).unwrap();
        let (err, stats) = synth.synthesize_partial().unwrap_err();
        assert!(matches!(err, SynthesisError::IterationLimit { .. }));
        assert_eq!(stats.rules.len(), 1);
        assert_eq!(stats.rules[0].iterations, 40);
        assert_eq!(stats.rules[0].resource_skips, 40);
    }

    #[test]
    fn governed_synthesis_matches_ungoverned_result() {
        use dynamite_datalog::fault;
        let _guard = fault::test_lock();
        fault::reset();
        // Generous limits that never trip: the governed search must walk
        // the exact same candidate sequence and land on the same program.
        let (source, target, ex) = motivating();
        let plain = synthesize(
            &source,
            &target,
            std::slice::from_ref(&ex),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let governed_cfg = SynthesisConfig {
            candidate_limits: CandidateLimits {
                timeout: Some(Duration::from_secs(120)),
                fact_budget: Some(1_000_000),
                round_cap: Some(10_000),
            },
            ..Default::default()
        };
        let governed = synthesize(&source, &target, std::slice::from_ref(&ex), &governed_cfg)
            .expect("generous limits never trip");
        assert_eq!(
            format!("{}", plain.program),
            format!("{}", governed.program)
        );
        assert_eq!(
            plain.stats.total_iterations(),
            governed.stats.total_iterations()
        );
    }

    #[test]
    fn an_unrepresentable_timeout_means_no_deadline() {
        use dynamite_datalog::fault;
        let _guard = fault::test_lock();
        fault::reset();
        // `Instant + Duration::MAX` overflows; both timeouts must fall
        // back to "no deadline" instead of panicking.
        let (source, target, ex) = motivating();
        let plain = synthesize(
            &source,
            &target,
            std::slice::from_ref(&ex),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let cfg = SynthesisConfig {
            timeout: Some(Duration::MAX),
            candidate_limits: CandidateLimits {
                timeout: Some(Duration::MAX),
                ..Default::default()
            },
            ..Default::default()
        };
        let unbounded = synthesize(&source, &target, std::slice::from_ref(&ex), &cfg).unwrap();
        assert_eq!(
            format!("{}", plain.program),
            format!("{}", unbounded.program)
        );
        assert_eq!(
            CandidateLimits::default().resolve(None),
            cfg.candidate_limits.resolve(None)
        );
    }

    #[test]
    fn iteration_limit_reported() {
        let (source, target, ex) = motivating();
        let cfg = SynthesisConfig {
            max_iters_per_rule: 1,
            strategy: Strategy::Enumerative,
            ..Default::default()
        };
        // One iteration is almost surely not enough for a 64k space.
        let r = synthesize(&source, &target, &[ex], &cfg);
        assert!(matches!(
            r,
            Err(SynthesisError::IterationLimit { .. }) | Ok(_)
        ));
    }
}
