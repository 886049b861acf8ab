//! End-to-end data migration (the "Migration Framework" box of Figure 1).
//!
//! Given a synthesized (or hand-written) Datalog program, [`migrate`] runs
//! the full §3.3 pipeline on a real source instance:
//!
//! 1. translate the source instance to extensional facts;
//! 2. evaluate the Datalog program;
//! 3. rebuild the target instance from the derived facts (`BuildRecord`;
//!    each nested relation's rows are linked by parent id once, where the
//!    paper's implementation indexes that column in MongoDB, §5).
//!
//! [`synthesize_and_migrate`] composes this with the synthesizer, and
//! [`writers`] renders target instances as JSON documents, CSV tables, or
//! graph node/edge lists, and fact databases as Soufflé-style `.facts`
//! files.
//!
//! ```
//! use dynamite_core::test_fixtures::motivating;
//! use dynamite_datalog::Program;
//! use dynamite_migrate::migrate;
//!
//! let (_, target, example) = motivating();
//! let program = Program::parse(
//!     "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
//! )
//! .unwrap();
//! let (out, report) = migrate(&program, &example.input, target).unwrap();
//! assert!(out.canon_eq(&example.output));
//! assert_eq!(report.facts_in, 6);
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::path::Path;

use dynamite_core::{synthesize, Example, Synthesis, SynthesisConfig, SynthesisError};
use dynamite_datalog::{
    DriftError, DurableError, DurableEvaluator, EvalError, Evaluator, Governor, OutputDelta,
    Program, QueryStats, RecoveryReport, ServedEvaluator,
};
use dynamite_instance::{from_facts, to_facts, Database, FactsError, Instance, Relation, Value};
use dynamite_schema::Schema;

pub mod writers;

/// Errors raised by the migration pipeline.
#[derive(Debug)]
pub enum MigrateError {
    /// Program evaluation failed.
    Eval(EvalError),
    /// Rebuilding the target instance failed.
    Build(FactsError),
    /// Synthesis failed (only from [`synthesize_and_migrate`]).
    Synthesis(SynthesisError),
    /// The durability layer failed (only from [`DurableMigration`]).
    Durable(DurableError),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::Eval(e) => write!(f, "evaluation failed: {e}"),
            MigrateError::Build(e) => write!(f, "target construction failed: {e}"),
            MigrateError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            MigrateError::Durable(e) => write!(f, "durability failed: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<EvalError> for MigrateError {
    fn from(e: EvalError) -> Self {
        MigrateError::Eval(e)
    }
}

impl From<FactsError> for MigrateError {
    fn from(e: FactsError) -> Self {
        MigrateError::Build(e)
    }
}

impl From<SynthesisError> for MigrateError {
    fn from(e: SynthesisError) -> Self {
        MigrateError::Synthesis(e)
    }
}

impl From<DurableError> for MigrateError {
    fn from(e: DurableError) -> Self {
        // An `Eval` inside the durable layer is the same failure callers
        // already match on for in-memory maintenance; unwrap it.
        match e {
            DurableError::Eval(e) => MigrateError::Eval(e),
            other => MigrateError::Durable(other),
        }
    }
}

/// Timings and sizes for one migration run (Table 3's "Migration Time").
#[derive(Debug, Clone, Default)]
pub struct MigrationReport {
    /// Source records migrated (including nested records).
    pub records_in: usize,
    /// Target records produced (including nested records).
    pub records_out: usize,
    /// Extensional facts generated from the source instance.
    pub facts_in: usize,
    /// Intensional facts derived by the program.
    pub facts_out: usize,
    /// Time translating the source instance to facts.
    pub to_facts_time: Duration,
    /// Time evaluating the Datalog program.
    pub eval_time: Duration,
    /// Time rebuilding the target instance (`BuildRecord`).
    pub build_time: Duration,
}

impl MigrationReport {
    /// Total wall-clock migration time.
    pub fn total_time(&self) -> Duration {
        self.to_facts_time + self.eval_time + self.build_time
    }
}

/// Migrates `source` to the target schema by executing `program`.
pub fn migrate(
    program: &Program,
    source: &Instance,
    target_schema: Arc<Schema>,
) -> Result<(Instance, MigrationReport), MigrateError> {
    migrate_inner(program, source, target_schema, None)
}

/// Like [`migrate`], but evaluation runs under `gov`: production
/// migrations over untrusted programs (or very large sources) get a
/// wall-clock deadline, a derived-fact budget, and external cancellation.
/// A tripped limit surfaces as [`MigrateError::Eval`] with the typed
/// [`EvalError`] resource variant — no partially built target instance is
/// returned.
pub fn migrate_governed(
    program: &Program,
    source: &Instance,
    target_schema: Arc<Schema>,
    gov: &Governor,
) -> Result<(Instance, MigrationReport), MigrateError> {
    migrate_inner(program, source, target_schema, Some(gov))
}

fn migrate_inner(
    program: &Program,
    source: &Instance,
    target_schema: Arc<Schema>,
    gov: Option<&Governor>,
) -> Result<(Instance, MigrationReport), MigrateError> {
    let mut report = MigrationReport {
        records_in: source.num_records(),
        ..Default::default()
    };

    let t0 = Instant::now();
    let facts = to_facts(source);
    report.to_facts_time = t0.elapsed();
    report.facts_in = facts.num_facts();

    let t1 = Instant::now();
    let ev = Evaluator::new(facts);
    let derived = match gov {
        Some(gov) => ev.eval_governed(program, gov)?,
        None => ev.eval(program)?,
    };
    report.eval_time = t1.elapsed();
    report.facts_out = derived.num_facts();

    let t2 = Instant::now();
    let instance = from_facts(&derived, target_schema)?;
    report.build_time = t2.elapsed();
    report.records_out = instance.num_records();

    Ok((instance, report))
}

/// A migration kept incrementally up to date as the source facts change,
/// surviving process death.
///
/// Where [`migrate`] re-evaluates the whole program for every source
/// version, `DurableMigration` evaluates once at creation and then
/// maintains the derived facts through
/// [`apply_delta`](DurableMigration::apply_delta) batches — insertions
/// via warm semi-naive delta rounds, deletions via DRed retraction (see
/// `dynamite_datalog::incremental`, which also serves in-memory-only
/// maintenance). Every applied batch is durably logged before it is
/// acknowledged, and [`DurableMigration::open`] recovers the maintained
/// facts from disk with bounded replay instead of re-running the
/// migration (see `dynamite_datalog::durable` for the on-disk formats and
/// the crash-consistency guarantees). The current target instance is
/// rebuilt on demand, and [`query`](DurableMigration::query) answers point
/// lookups straight from the maintained facts.
///
/// ```
/// use dynamite_core::test_fixtures::motivating;
/// use dynamite_datalog::Program;
/// use dynamite_instance::Database;
/// use dynamite_migrate::DurableMigration;
///
/// let (_, target, ex) = motivating();
/// let program = Program::parse(
///     "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
/// )
/// .unwrap();
/// let dir = std::env::temp_dir().join(format!("dyn-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut live = DurableMigration::create(&dir, &program, &ex.input, target.clone()).unwrap();
/// assert!(live.target().unwrap().canon_eq(&ex.output));
/// drop(live); // …process dies…
///
/// let mut back = DurableMigration::open(&dir, target).unwrap();
/// assert!(back.target().unwrap().canon_eq(&ex.output));
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct DurableMigration {
    dur: DurableEvaluator,
    target_schema: Arc<Schema>,
}

impl DurableMigration {
    /// Translates `source` to facts, evaluates `program`, and starts a
    /// durable state directory at `dir` (checkpoint generation 0).
    pub fn create(
        dir: impl AsRef<Path>,
        program: &Program,
        source: &Instance,
        target_schema: Arc<Schema>,
    ) -> Result<DurableMigration, MigrateError> {
        let dur = DurableEvaluator::create(dir, program.clone(), to_facts(source))?;
        Ok(DurableMigration { dur, target_schema })
    }

    /// Recovers a durable migration from `dir` (newest valid checkpoint
    /// plus WAL replay). The program and facts come from disk; only the
    /// target schema — which the durable layer does not persist — is the
    /// caller's to supply.
    pub fn open(
        dir: impl AsRef<Path>,
        target_schema: Arc<Schema>,
    ) -> Result<DurableMigration, MigrateError> {
        let dur = DurableEvaluator::open(dir)?;
        Ok(DurableMigration { dur, target_schema })
    }

    /// Applies one batch durably (WAL append before in-memory apply) and
    /// returns the net change to the derived facts.
    pub fn apply_delta(
        &mut self,
        inserts: &Database,
        deletes: &Database,
    ) -> Result<OutputDelta, MigrateError> {
        Ok(self.dur.apply_delta(inserts, deletes)?)
    }

    /// [`apply_delta`](DurableMigration::apply_delta) under resource
    /// limits; a tripped batch is rolled back in memory *and* truncated
    /// back out of the WAL.
    pub fn apply_delta_governed(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: &Governor,
    ) -> Result<OutputDelta, MigrateError> {
        Ok(self.dur.apply_delta_governed(inserts, deletes, gov)?)
    }

    /// Verifies the maintained overlay against a from-scratch
    /// re-evaluation without modifying anything. Drift surfaces as
    /// [`MigrateError::Eval`]`(`[`EvalError::Drift`]`)`;
    /// [`repair`](DurableMigration::repair) is the remedy.
    pub fn audit(&mut self) -> Result<(), MigrateError> {
        Ok(self.dur.audit()?)
    }

    /// Rebuilds the maintained overlay from scratch and writes a fresh
    /// verified checkpoint, returning the drift the rebuild corrected
    /// (if any).
    pub fn repair(&mut self) -> Result<Option<DriftError>, MigrateError> {
        Ok(self.dur.repair()?)
    }

    /// What recovery did at [`open`](DurableMigration::open) — replayed
    /// frames, skipped checkpoints, truncated tails. `None` for a freshly
    /// created directory.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.dur.recovery_report()
    }

    /// The maintained extensional facts (post all applied batches).
    pub fn facts(&self) -> &Database {
        self.dur.edb()
    }

    /// Whether the maintained state is degraded (next batch pays a full
    /// rebuild).
    pub fn is_poisoned(&self) -> bool {
        self.dur.is_poisoned()
    }

    /// Forces a checkpoint (normally automatic via the WAL-size ratio).
    pub fn checkpoint(&mut self) -> Result<(), MigrateError> {
        Ok(self.dur.checkpoint()?)
    }

    /// Direct access to the underlying durable evaluator (recovery
    /// report, generation, WAL size).
    pub fn evaluator(&self) -> &DurableEvaluator {
        &self.dur
    }

    /// Answers `relation(bindings)` from the maintained derived facts:
    /// the rows matching the bound positions (`None` = free), with no
    /// fixpoint run — see `DurableEvaluator::query` for the contract.
    pub fn query(
        &mut self,
        relation: &str,
        bindings: &[Option<Value>],
    ) -> Result<Relation, MigrateError> {
        Ok(self.dur.query(relation, bindings)?)
    }

    /// Rebuilds the current target instance from the maintained derived
    /// facts.
    pub fn target(&mut self) -> Result<Instance, MigrateError> {
        Ok(from_facts(&self.dur.output(), self.target_schema.clone())?)
    }
}

/// A migration served on demand: point queries against the target
/// relations without materializing the whole migration first.
///
/// Where [`migrate`] derives every target fact up front,
/// `ServedMigration` answers `relation(bindings)` lookups lazily — a
/// magic-sets rewrite restricts each fixpoint to the facts the bindings
/// actually demand, and a subsumption-aware cache answers repeat and
/// narrower queries without re-running any fixpoint at all (see
/// `dynamite_datalog::query`). Use it when consumers read a small,
/// query-driven slice of a large target; a [`DurableMigration`], which
/// keeps the whole target materialized, answers the same lookups itself.
///
/// ```
/// use dynamite_core::test_fixtures::motivating;
/// use dynamite_datalog::Program;
/// use dynamite_instance::Value;
/// use dynamite_migrate::ServedMigration;
///
/// let (_, target, ex) = motivating();
/// let program = Program::parse(
///     "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
/// )
/// .unwrap();
/// let served = ServedMigration::new(&program, &ex.input, target).unwrap();
/// // Which programs admitted 20 students? Only this slice is derived.
/// let hits = served
///     .query("Admission", &[None, None, Some(Value::Int(20))])
///     .unwrap();
/// assert_eq!(hits.len(), 1);
/// ```
pub struct ServedMigration {
    served: ServedEvaluator,
    target_schema: Arc<Schema>,
}

impl ServedMigration {
    /// Translates `source` to facts and builds a query server for
    /// `program` over them. No fixpoint runs until the first query.
    pub fn new(
        program: &Program,
        source: &Instance,
        target_schema: Arc<Schema>,
    ) -> Result<ServedMigration, MigrateError> {
        let facts = to_facts(source);
        let served = ServedEvaluator::new(program.clone(), facts)?;
        Ok(ServedMigration {
            served,
            target_schema,
        })
    }

    /// Answers `relation(bindings)`: the rows of the target relation
    /// matching the bound positions (`None` = free). See
    /// `ServedEvaluator::query` for the routing and caching contract.
    pub fn query(
        &self,
        relation: &str,
        bindings: &[Option<Value>],
    ) -> Result<Relation, MigrateError> {
        Ok(self.served.query(relation, bindings)?)
    }

    /// [`query`](ServedMigration::query) under resource limits; a
    /// tripped query surfaces the typed [`EvalError`] variant and
    /// leaves the cache untouched.
    pub fn query_governed(
        &self,
        relation: &str,
        bindings: &[Option<Value>],
        gov: &Governor,
    ) -> Result<Relation, MigrateError> {
        Ok(self.served.query_governed(relation, bindings, gov)?)
    }

    /// Applies one batch of extensional fact updates (deletions first,
    /// then insertions) and invalidates every cached answer, so later
    /// queries reflect the mutated source.
    pub fn apply_delta(
        &mut self,
        inserts: &Database,
        deletes: &Database,
    ) -> Result<(), MigrateError> {
        Ok(self.served.apply_delta(inserts, deletes)?)
    }

    /// Counters for how queries were answered so far (fixpoints run,
    /// full-evaluation fallbacks, cache hits).
    pub fn stats(&self) -> QueryStats {
        self.served.stats()
    }

    /// The extensional facts queries are answered against.
    pub fn facts(&self) -> &Database {
        self.served.edb()
    }

    /// The target schema lookups are scoped to.
    pub fn target_schema(&self) -> &Arc<Schema> {
        &self.target_schema
    }
}

/// Renders a human-readable end-to-end summary: per-rule synthesis
/// effort — including candidates skipped on resource limits, broken down
/// by which governor limit tripped — and the migration's sizes and
/// timings.
pub fn render_summary(synthesis: &Synthesis, report: &MigrationReport) -> String {
    use fmt::Write;
    let stats = &synthesis.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "synthesis: {} rule(s), {} candidate(s), search space {}, {:.1?}",
        stats.rules.len(),
        stats.total_iterations(),
        stats.search_space_string(),
        stats.elapsed,
    );
    for rule in &stats.rules {
        let _ = write!(
            out,
            "  rule `{}`: {} iteration(s), {} blocking clause(s)",
            rule.target_record, rule.iterations, rule.blocking_clauses,
        );
        if rule.resource_skips > 0 {
            let _ = write!(
                out,
                ", {} resource skip(s) ({})",
                rule.resource_skips, rule.resource_skip_kinds,
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "migration: {} -> {} records, {} -> {} facts, {:.1?} total \
         ({:.1?} to-facts, {:.1?} eval, {:.1?} build)",
        report.records_in,
        report.records_out,
        report.facts_in,
        report.facts_out,
        report.total_time(),
        report.to_facts_time,
        report.eval_time,
        report.build_time,
    );
    out
}

/// Synthesizes a migration program from `examples` and immediately applies
/// it to `source` (the end-to-end Figure 1 workflow).
pub fn synthesize_and_migrate(
    source_schema: &Arc<Schema>,
    target_schema: &Arc<Schema>,
    examples: &[Example],
    source: &Instance,
    config: &SynthesisConfig,
) -> Result<(Synthesis, Instance, MigrationReport), MigrateError> {
    let synthesis = synthesize(source_schema, target_schema, examples, config)?;
    let (instance, report) = migrate(&synthesis.program, source, target_schema.clone())?;
    Ok((synthesis, instance, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamite_core::test_fixtures::motivating;
    use dynamite_datalog::{evaluate, fault};
    use std::collections::HashSet;
    use std::path::PathBuf;

    /// The motivating example's golden program.
    fn admission() -> Program {
        Program::parse(
            "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
        )
        .unwrap()
    }

    /// A fresh, empty per-process state directory for a durable test.
    fn state_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dynamite-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn migrate_runs_the_golden_program() {
        let (_, target, ex) = motivating();
        let (out, report) = migrate(&admission(), &ex.input, target).unwrap();
        assert!(out.canon_eq(&ex.output));
        assert_eq!(report.records_in, 6);
        assert_eq!(report.records_out, 4);
        assert_eq!(report.facts_in, 6);
        assert_eq!(report.facts_out, 4);
        assert!(report.total_time() >= report.eval_time);
    }

    #[test]
    fn synthesize_and_migrate_end_to_end() {
        let (source, target, ex) = motivating();
        let (synthesis, out, _report) = synthesize_and_migrate(
            &source,
            &target,
            std::slice::from_ref(&ex),
            &ex.input,
            &SynthesisConfig::default(),
        )
        .unwrap();
        assert_eq!(synthesis.program.rules.len(), 1);
        assert!(out.canon_eq(&ex.output));
    }

    #[test]
    fn governed_migration_matches_ungoverned_and_trips_cleanly() {
        use dynamite_datalog::ResourceLimits;
        let _guard = fault::test_lock();
        fault::reset();
        let (_, target, ex) = motivating();
        let program = admission();
        let (plain, _) = migrate(&program, &ex.input, target.clone()).unwrap();
        // Generous limits: identical result.
        let gov = Governor::new(ResourceLimits::none().with_fact_budget(10_000));
        let (governed, report) =
            migrate_governed(&program, &ex.input, target.clone(), &gov).unwrap();
        assert!(governed.canon_eq(&plain));
        assert_eq!(report.facts_out, 4);
        // A 1-fact budget trips with the typed error and no instance.
        let gov = Governor::new(ResourceLimits::none().with_fact_budget(1));
        let err = migrate_governed(&program, &ex.input, target, &gov).unwrap_err();
        assert!(matches!(
            err,
            MigrateError::Eval(EvalError::FactBudgetExceeded { budget: 1 })
        ));
    }

    #[test]
    fn summary_reports_resource_skip_kinds() {
        use dynamite_core::{RuleStats, SynthStats, TripCounts};
        let synthesis = Synthesis {
            program: Program::parse("T(x) :- S(x).").unwrap(),
            stats: SynthStats {
                rules: vec![RuleStats {
                    target_record: "T".into(),
                    iterations: 42,
                    blocking_clauses: 7,
                    mdps_computed: 3,
                    resource_skips: 5,
                    resource_skip_kinds: TripCounts {
                        round_cap: 4,
                        deadline: 1,
                        ..Default::default()
                    },
                    holes: 2,
                    ln_space: 10.0,
                    sat: Default::default(),
                    phases: Default::default(),
                }],
                ..Default::default()
            },
        };
        let report = MigrationReport {
            records_in: 6,
            records_out: 4,
            facts_in: 6,
            facts_out: 4,
            ..Default::default()
        };
        let text = render_summary(&synthesis, &report);
        assert!(text.contains("5 resource skip(s)"), "{text}");
        assert!(text.contains("round cap ×4"), "{text}");
        assert!(text.contains("deadline ×1"), "{text}");
        assert!(text.contains("6 -> 4 records"), "{text}");
        // Kinds always sum to the total the solver reported.
        let r = &synthesis.stats.rules[0];
        assert_eq!(r.resource_skip_kinds.total(), r.resource_skips);
    }

    #[test]
    fn durable_migration_survives_reopen() {
        let _guard = fault::test_lock();
        fault::reset();
        let dir = state_dir("durable-migrate");
        let (_, target, ex) = motivating();
        let mut live =
            DurableMigration::create(&dir, &admission(), &ex.input, target.clone()).unwrap();
        assert!(live.target().unwrap().canon_eq(&ex.output));

        // Retract one Admit fact durably, then "crash".
        let (_, dels) = admit_churn(live.facts());
        let delta = live.apply_delta(&Database::new(), &dels).unwrap();
        assert_eq!(delta.deleted.num_facts(), 1);
        let shrunk = live.target().unwrap();
        drop(live);

        // Recovery rebuilds the same shrunken target without re-running
        // the migration.
        let mut back = DurableMigration::open(&dir, target).unwrap();
        assert_eq!(
            back.evaluator().recovery_report().unwrap().frames_replayed,
            1
        );
        assert!(!back.is_poisoned());
        assert!(back.target().unwrap().canon_eq(&shrunk));
        back.checkpoint().unwrap();
        assert_eq!(back.evaluator().generation(), 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn served_migration_answers_point_queries_and_tracks_deltas() {
        let (_, target, ex) = motivating();
        let program = admission();
        let mut served = ServedMigration::new(&program, &ex.input, target).unwrap();

        // Oracle: the fully materialized migration, filtered.
        let full = evaluate(&program, &to_facts(&ex.input)).unwrap();
        let want: Vec<Vec<Value>> = full
            .relation("Admission")
            .unwrap()
            .iter()
            .map(|r| r.iter().collect())
            .filter(|row: &Vec<Value>| row[2] == Value::Int(20))
            .collect();
        let bindings = vec![None, None, Some(Value::Int(20))];
        let got = served.query("Admission", &bindings).unwrap();
        let got: Vec<Vec<Value>> = got.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "fixture has a 20-student admission");

        // A repeat is served from cache, not a fresh fixpoint.
        served.query("Admission", &bindings).unwrap();
        assert_eq!(served.stats().fixpoints, 1);
        assert_eq!(served.stats().cache_hits, 1);

        // Retract every Admit fact: the served answer empties.
        let mut dels = Database::new();
        for row in served.facts().relation("Admit").unwrap().iter() {
            dels.insert("Admit", row.iter().collect::<Vec<_>>());
        }
        served.apply_delta(&Database::new(), &dels).unwrap();
        let got = served.query("Admission", &bindings).unwrap();
        assert!(got.is_empty(), "cache must not serve the stale answer");
    }

    #[test]
    fn durable_migration_query_serves_recovered_state() {
        let _guard = fault::test_lock();
        fault::reset();
        let dir = state_dir("durable-query");
        let (_, target, ex) = motivating();
        let program = admission();
        let mut live = DurableMigration::create(&dir, &program, &ex.input, target.clone()).unwrap();
        // Retract one Admit fact durably, then "crash".
        let (_, dels) = admit_churn(live.facts());
        live.apply_delta(&Database::new(), &dels).unwrap();
        drop(live);

        // Recover and answer point queries off the maintained facts.
        let mut back = DurableMigration::open(&dir, target).unwrap();
        let full = evaluate(&program, back.facts()).unwrap();
        let admissions = full.relation("Admission").unwrap();
        assert!(!admissions.is_empty(), "recovered migration has admissions");
        let rows_with = |rel: &Relation, num: Value| -> HashSet<Vec<Value>> {
            rel.iter()
                .filter(|r| r.at(2) == num)
                .map(|r| r.to_vec())
                .collect()
        };
        for row in admissions.iter() {
            let num = row.at(2);
            let hits = back.query("Admission", &[None, None, Some(num)]).unwrap();
            assert_eq!(rows_with(&hits, num), rows_with(admissions, num));
        }
        // The contract's edges: arity errors are typed, inputs answer empty.
        assert!(matches!(
            back.query("Admission", &[None]),
            Err(MigrateError::Eval(EvalError::InputArity { .. }))
        ));
        assert!(back.query("Admit", &[None, None, None]).unwrap().is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eval_errors_are_reported() {
        let (_, target, ex) = motivating();
        // Ill-formed program: head variable not bound.
        let program = Program::parse("Admission(g, u, n) :- Univ(id1, g, _).").unwrap();
        let err = migrate(&program, &ex.input, target).unwrap_err();
        assert!(matches!(err, MigrateError::Eval(_)));
    }

    /// One Admit row from the motivating fixture, packaged as an
    /// insert batch and a delete batch for churn tests.
    fn admit_churn(live_facts: &Database) -> (Database, Database) {
        let row: Vec<_> = live_facts
            .relation("Admit")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .iter()
            .collect();
        let mut ins = Database::new();
        ins.insert("Admit", row.clone());
        let mut dels = Database::new();
        dels.insert("Admit", row);
        (ins, dels)
    }

    #[test]
    fn manual_audit_reports_drift_and_repair_returns_it() {
        let _guard = fault::test_lock();
        fault::reset();
        let dir = state_dir("manual-audit");
        let (_, target, ex) = motivating();
        let mut live = DurableMigration::create(&dir, &admission(), &ex.input, target).unwrap();
        let (ins, dels) = admit_churn(live.facts());

        // The injected drift goes unnoticed by the apply…
        fault::arm(fault::DRIFT, 1);
        live.apply_delta(&Database::new(), &dels).unwrap();
        // …until a manual audit reports it, typed.
        let err = live.audit().unwrap_err();
        assert!(matches!(err, MigrateError::Eval(EvalError::Drift(_))));
        let drift = live.repair().unwrap().expect("repair corrects the drift");
        assert!(!drift.relations.is_empty());
        live.audit().unwrap();
        live.apply_delta(&ins, &Database::new()).unwrap();
        assert!(live.target().unwrap().canon_eq(&ex.output));
        drop(live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
