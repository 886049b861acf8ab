//! Reusable evaluation contexts with persistent, incrementally maintained
//! join indexes over columnar tuple storage, and a parallel semi-naive
//! fixpoint over scoped worker threads.
//!
//! [`Evaluator`] is constructed once per fact database and amortizes all
//! per-database work across every program evaluated against it — the
//! repeated-candidate workload of the synthesis loop (§4.1 evaluates
//! hundreds of candidates against the same example input):
//!
//! - the context owns the extensional database, which is **never
//!   cloned** per evaluation; derived facts live in a per-call overlay,
//!   so each relation is the union of an immutable EDB part and a
//!   growing IDB part (copy-on-write layering);
//! - relations are columnar ([`TupleStore`](dynamite_instance::TupleStore)),
//!   each column a structure-of-arrays tag/payload stream pair
//!   ([`ColumnSlices`](dynamite_instance::ColumnSlices)): index builds
//!   sweep the contiguous streams, and the join loop sees rows as
//!   borrowed [`RowRef`](dynamite_instance::RowRef) views — no per-tuple
//!   allocation or pointer chase anywhere on the hot path;
//! - join indexes on EDB relations are keyed by `(relation, column set)`
//!   and cached inside the context, so candidate #2 onwards reuses the
//!   indexes candidate #1 built;
//! - overlay indexes are maintained **eagerly**: `absorb` extends every
//!   index of a relation as each delta tuple lands, so recursion-heavy
//!   workloads never re-scan the overlay per rule variant (an index first
//!   requested mid-evaluation is built once over the rows so far);
//! - compiled rules are memoized **across** evaluations in one memo
//!   ([`RuleCacheHandle`]), keyed by the rule and its planned join orders;
//! - positive body literals are **reordered by a cost-based planner**
//!   ([`CostModel`]): machine-generated candidate bodies arrive in
//!   arbitrary order, so each join order is chosen greedily by estimated
//!   output cardinality from the EDB's incrementally maintained
//!   [`ColumnStats`](dynamite_instance::ColumnStats) (delta literals stay
//!   pinned outermost; `DYNAMITE_NO_REORDER=1` falls back to body order);
//! - the outermost literal of every join order is a plain scan (range-
//!   partitioned across workers when large) whose constants are checked
//!   per row, exactly like the delta occurrence's; every deeper literal
//!   with a constant or an earlier-bound variable probes a cached index
//!   on those columns;
//! - negated literals probe an index on their bound columns instead of
//!   scanning the whole relation per emitted tuple.
//!
//! # Parallel fixpoint
//!
//! Each semi-naive round fans its rule variants — and, for large outer
//! scans, contiguous row-range partitions of a variant — out to the
//! context's [`WorkerPool`]. Every job of a round evaluates against the
//! *frozen* pre-round state and emits into its own thread-local buffer;
//! the buffers are then absorbed sequentially in a fixed job order
//! (variant order, then ascending partition range). Because partitions
//! tile the outer scan in ascending row order, the concatenated buffers
//! equal the sequential scan's emission order exactly, so the resulting
//! [`Database`] — contents *and* row insertion order — is bit-identical
//! for every thread count, including the sequential `threads == 1`
//! fallback.
//!
//! # Invariants worth knowing before editing
//!
//! - **Determinism**: the output `Database` — contents *and* row
//!   insertion order — is bit-identical for every thread count. It
//!   follows from (a) jobs evaluating only frozen pre-round state,
//!   (b) partitions tiling each outer scan in ascending row order, and
//!   (c) absorption in fixed job order. Breaking any of the three
//!   breaks the `tests/properties.rs` row-order pins.
//! - **Memo-key soundness**: everything [`CompiledRule`] depends on is
//!   in [`RuleKey`] — the rule, its stratum and its planned join orders
//!   (each delta order starts with its delta occurrence, so the orders
//!   also say which literals are same-stratum). If compilation starts
//!   depending on anything else, that something must go into the key,
//!   or contexts sharing a [`RuleCacheHandle`] will serve each other
//!   wrong plans.
//! - **Delta-first**: every semi-naive delta variant keeps its delta
//!   occurrence outermost; the planner may permute only the rest.
//! - **Indexes equal a fresh build**: every cached EDB index and every
//!   overlay index equals `ColumnIndex::build` over its relation's
//!   current rows, postings ascending. Inserts append the new row id
//!   (`absorb`, [`IdbState::insert`], `EdbEdit::apply`), and the
//!   retraction path repairs indexes for exactly the removed and the
//!   swap-moved rows ([`IdbState::remove_rows`], `EdbEdit::apply`), so no
//!   batch rebuilds an index. Join emission order follows posting order,
//!   which is why a session recovered from disk (whose indexes are
//!   freshly built) emits rows in the live session's order.

use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use dynamite_instance::hash::FxHashMap;
use dynamite_instance::{ColumnIndex, Database, Relation, RowChange, RowRef, Value};

use crate::ast::{Literal, Program, Rule, Term};
use crate::eval::{check_arities, rule_stratum, stratify, EdbEdit, EvalError};
use crate::fault;
use crate::governor::Governor;
use crate::pool::{self, WorkerPool};

/// A reusable evaluation context over one fact database: it owns the EDB
/// snapshot, the snapshot's join-index cache, a handle on the
/// compiled-rule memo, the worker pool and the planner switch.
///
/// Evaluations take `&self`, so one context serves many programs, and
/// many threads at once (the synthesizer checks candidates in parallel
/// against one context per example).
///
/// ```
/// use dynamite_datalog::{Evaluator, Program};
/// use dynamite_instance::Database;
///
/// let mut edb = Database::new();
/// edb.insert("Edge", vec![1.into(), 2.into()]);
/// edb.insert("Edge", vec![2.into(), 3.into()]);
/// let ctx = Evaluator::new(edb);
///
/// // Evaluate many candidate programs against the same prepared context.
/// let p1 = Program::parse("Q(x, z) :- Edge(x, y), Edge(y, z).").unwrap();
/// let p2 = Program::parse("Q(x) :- Edge(x, _).").unwrap();
/// assert_eq!(ctx.eval(&p1).unwrap().relation("Q").unwrap().len(), 1);
/// assert_eq!(ctx.eval(&p2).unwrap().relation("Q").unwrap().len(), 2);
/// ```
pub struct Evaluator {
    edb: Database,
    indexes: RwLock<IndexCache>,
    rules: RuleCacheHandle,
    pool: Arc<WorkerPool>,
    /// Whether the cost-based join planner reorders body literals.
    reorder: bool,
}

/// `relation → column-set → index`: nesting keeps the hot lookup path on
/// borrowed keys only (no per-probe allocation).
pub(crate) type IndexCache = FxHashMap<String, FxHashMap<Vec<usize>, Arc<ColumnIndex>>>;

/// Entry cap for a [`RuleCacheHandle`]: a CEGIS run rejecting thousands
/// of distinct candidates must not grow the memo without bound. Past the
/// cap, rules still compile — they just are not retained.
const RULE_CACHE_CAP: usize = 4096;

/// A shareable compiled-rule memo, the engine's one cache of compiled
/// rules, keyed by the rule, its stratum and its planned join orders. A
/// compiled plan depends on the fact database only through those orders,
/// so one memo can serve every [`Evaluator`] of a synthesis problem (one
/// per example): contexts whose statistics plan the same orders share
/// one compilation, and the others never see each other's plans.
#[derive(Clone, Default)]
pub struct RuleCacheHandle {
    inner: Arc<RwLock<FxHashMap<RuleKey, Arc<CompiledRule>>>>,
}

/// The `DYNAMITE_NO_REORDER` environment override: `Some(true)` disables
/// the cost-based join planner (body-order plans), `Some(false)` forces
/// it on, `None` (unset or unrecognized) defers to the caller. Read once
/// per process, mirroring `DYNAMITE_THREADS`.
fn env_no_reorder() -> Option<bool> {
    static ENV: OnceLock<Option<bool>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("DYNAMITE_NO_REORDER").ok()?.trim() {
        "1" | "true" | "yes" => Some(true),
        "0" | "false" | "no" => Some(false),
        _ => None,
    })
}

/// Whether ambient contexts ([`Evaluator::new`] and the other stateful
/// types' `new`) run the cost-based join planner: on unless
/// `DYNAMITE_NO_REORDER` disables it.
pub fn reorder_default() -> bool {
    resolve_reorder(None)
}

/// Resolves a configured planner preference: a *valid*
/// `DYNAMITE_NO_REORDER` environment override wins (so planner
/// regressions are bisectable without touching code), then the explicit
/// request, then the default (planner on).
pub fn resolve_reorder(requested: Option<bool>) -> bool {
    match env_no_reorder() {
        Some(no) => !no,
        None => requested.unwrap_or(true),
    }
}

impl Evaluator {
    /// Builds a context that owns `edb` as its snapshot and fans rounds
    /// out on as many threads as `DYNAMITE_THREADS` says, defaulting to
    /// the available parallelism.
    pub fn new(edb: Database) -> Evaluator {
        Evaluator::with_config(
            edb,
            pool::with_threads(None),
            RuleCacheHandle::default(),
            reorder_default(),
        )
    }

    /// Builds a context on an explicit worker pool (a pool of 1 thread
    /// runs every fixpoint round inline), sharing the compiled-rule memo
    /// `rules` with other contexts, with an explicit join-planner switch.
    ///
    /// The synthesizer hands one memo to every example's context, so a
    /// candidate compiled for example 1 is a cache hit on examples 2..N
    /// whenever their statistics plan the same join orders.
    /// `reorder = false` pins body-order plans. Unlike [`Evaluator::new`]
    /// this is **not** overridden by `DYNAMITE_NO_REORDER` — like an
    /// explicit [`WorkerPool`] size, an explicit choice here is deliberate
    /// (benchmarks compare the two modes side by side).
    pub fn with_config(
        edb: Database,
        pool: Arc<WorkerPool>,
        rules: RuleCacheHandle,
        reorder: bool,
    ) -> Evaluator {
        Evaluator {
            edb,
            indexes: RwLock::new(FxHashMap::default()),
            rules,
            pool,
            reorder,
        }
    }

    /// The extensional snapshot this context evaluates against.
    pub fn database(&self) -> &Database {
        &self.edb
    }

    /// Evaluates `program`, returning the derived intensional relations
    /// (the least Herbrand model restricted to IDB relations; §3.2).
    ///
    /// Extensional relations missing from the snapshot are treated as
    /// empty.
    pub fn eval(&self, program: &Program) -> Result<Database, EvalError> {
        self.run(None, None).eval(program)
    }

    /// Like [`Evaluator::eval`], but checked cooperatively against `gov`:
    /// the evaluation aborts with a typed resource error
    /// ([`EvalError::DeadlineExceeded`], [`EvalError::FactBudgetExceeded`],
    /// [`EvalError::RoundCapExceeded`], [`EvalError::Cancelled`]) once any
    /// of the governor's limits trips.
    ///
    /// Governance never changes a *successful* evaluation's output: any
    /// program that completes under `gov` produces a `Database` that is
    /// bit-identical (contents and row order) to the ungoverned result, at
    /// every thread count. The governor only scopes this one call —
    /// reusing one governor across calls accumulates its counters.
    pub fn eval_governed(&self, program: &Program, gov: &Governor) -> Result<Database, EvalError> {
        self.run(Some(gov), None).eval(program)
    }

    /// Renders the join plan the planner picks for each rule of `program`
    /// against this context's statistics — one line per rule, naive
    /// variant, literals in execution order with their access paths
    /// (`EXPLAIN` for the cost-based planner). Goes through the same
    /// compile path (and rule memo) as [`Evaluator::eval`].
    pub fn explain(&self, program: &Program) -> Result<Vec<String>, EvalError> {
        self.run(None, None).explain(program)
    }

    /// Applies a validated batch to the snapshot in place through
    /// [`EdbEdit::apply`], which repairs the changed relations' cached
    /// indexes rather than rebuilding them. The returned edit can be
    /// reverted with [`Evaluator::undo`].
    pub(crate) fn edit(&mut self, inserts: &Database, deletes: &Database) -> EdbEdit {
        let (edb, indexes) = self.edb_mut();
        EdbEdit::apply(edb, indexes, inserts, deletes)
    }

    /// Reverts an edit made by [`Evaluator::edit`].
    pub(crate) fn undo(&mut self, edit: &EdbEdit) {
        let (edb, indexes) = self.edb_mut();
        edit.undo(edb, indexes);
    }

    fn edb_mut(&mut self) -> (&mut Database, &mut IndexCache) {
        let indexes = self
            .indexes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        (&mut self.edb, indexes)
    }

    /// Whether this context plans join orders (`true`) or follows body
    /// order. The query rewriter aligns its sideways-information-passing
    /// order with this flag so adornment and join order agree.
    pub(crate) fn reorder(&self) -> bool {
        self.reorder
    }

    /// One evaluation over this context, under `gov` when given. The
    /// magic-sets path of [`crate::query`] passes the rewrite's `demand`
    /// relations, which the planner costs as tiny demand guards
    /// ([`DEMAND_ROWS`]) instead of the generic [`UNKNOWN_ROWS`], so
    /// magic guards order outermost in delta plans. That is sound to mix
    /// with unhinted evaluations on the same context: the hint only
    /// changes estimates of `magic_*` relations, which unhinted programs
    /// never mention.
    pub(crate) fn run<'e>(
        &'e self,
        gov: Option<&'e Governor>,
        demand: Option<&'e std::collections::HashSet<String>>,
    ) -> EvalRun<'e> {
        EvalRun {
            ev: self,
            gov,
            demand,
        }
    }
}

/// One evaluation of one program over an [`Evaluator`]'s snapshot, its
/// index cache, rule memo and pool.
///
/// The incremental-maintenance module drives individual rounds and
/// fallback full evaluations through these too, so the struct and the
/// round-level entry points are crate-visible.
pub(crate) struct EvalRun<'e> {
    ev: &'e Evaluator,
    /// Cooperative resource limits for this evaluation, absent on the
    /// ungoverned paths (which then pay no per-tuple bookkeeping beyond a
    /// predictable `None` branch).
    gov: Option<&'e Governor>,
    /// Relations the planner should cost as demand guards (the `magic_*`
    /// seed relations of a query rewrite) rather than unknown IDB
    /// relations — see [`CostModel::estimate`]. Absent everywhere except
    /// the query-serving path.
    demand: Option<&'e std::collections::HashSet<String>>,
}

/// One variant of one rule scheduled into a round, before partitioning.
pub(crate) type Spec<'r> = (&'r CompiledRule, &'r Variant, Option<&'r Relation>);

/// Output of `EvalRun::join_round`: each job's rule paired with its
/// emitted `(head index, tuple)` buffer, in deterministic job order.
pub(crate) type JoinRoundOutput<'r> = Vec<(&'r CompiledRule, Vec<(usize, Vec<Value>)>)>;

/// An outer scan shorter than this is never partitioned — below it the
/// fan-out overhead outweighs the work.
const PAR_MIN_ROWS: usize = 256;

impl EvalRun<'_> {
    pub(crate) fn eval(&self, program: &Program) -> Result<Database, EvalError> {
        if let Some(gov) = self.gov {
            gov.check()?;
        }
        program.check_well_formed()?;
        let arities = check_arities(program, &self.ev.edb)?;
        let idb: Vec<&str> = program.intensional().into_iter().collect();
        let strata = stratify(program, &idb)?;
        let max_stratum = strata.values().copied().max().unwrap_or(0);

        // Compile every rule (variable layout, planner-chosen join orders
        // for the naive variant and each same-stratum delta variant,
        // index column sets, negation probes) — served from the rule
        // memo when an earlier evaluation already compiled an identical
        // rule *with identical join orders*.
        let compiled = self.compile_program(program, &strata);

        let mut idb_state = IdbState::new(idb.iter().map(|&r| (r, arities[r])));

        for s in 0..=max_stratum {
            let stratum_rules: Vec<&CompiledRule> = compiled
                .iter()
                .map(Arc::as_ref)
                .filter(|c| c.stratum == s)
                .collect();
            if stratum_rules.is_empty() {
                continue;
            }
            self.run_stratum(&stratum_rules, &mut idb_state, &arities)?;
        }
        // A trip latched on the last round (e.g. an injected budget fault
        // that no later insert observed) still fails the evaluation.
        if let Some(gov) = self.gov {
            gov.check()?;
        }
        Ok(idb_state.into_database())
    }

    /// Compiles every rule of `program` under this run's planner mode.
    fn compile_program(
        &self,
        program: &Program,
        strata: &std::collections::HashMap<String, usize>,
    ) -> Vec<Arc<CompiledRule>> {
        let model = self.ev.reorder.then_some(CostModel {
            edb: &self.ev.edb,
            demand: self.demand,
        });
        program
            .rules
            .iter()
            .map(|r| self.compiled(r, strata, model.as_ref()))
            .collect()
    }

    /// Renders each rule's naive-variant plan (see [`Evaluator::explain`]).
    fn explain(&self, program: &Program) -> Result<Vec<String>, EvalError> {
        program.check_well_formed()?;
        check_arities(program, &self.ev.edb)?;
        let idb: Vec<&str> = program.intensional().into_iter().collect();
        let strata = stratify(program, &idb)?;
        Ok(self
            .compile_program(program, &strata)
            .iter()
            .map(|c| c.describe())
            .collect())
    }

    /// Returns the compiled form of `rule`, from the context's memo when
    /// a rule with the same stratum and the same planned join orders was
    /// compiled before. The orders are planned first, on every call: a
    /// context whose statistics order a join differently builds a
    /// different key, so it is never served another context's plan.
    fn compiled(
        &self,
        rule: &Rule,
        strata: &std::collections::HashMap<String, usize>,
        model: Option<&CostModel<'_>>,
    ) -> Arc<CompiledRule> {
        let orders = PlanOrders::of(rule, strata, model);
        let key = RuleKey::new(rule, rule_stratum(rule, strata), orders);
        let memo = &self.ev.rules.inner;
        // A panic elsewhere can poison the lock but not tear the map: each
        // critical section is one read or one insert.
        if let Some(c) = memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return c.clone();
        }
        let built = Arc::new(CompiledRule::compile(rule, key.stratum, &key.orders));
        let mut w = memo.write().unwrap_or_else(PoisonError::into_inner);
        if w.len() >= RULE_CACHE_CAP && !w.contains_key(&key) {
            return built; // full: serve uncached rather than grow
        }
        w.entry(key).or_insert(built).clone()
    }

    /// Semi-naive fixpoint for one stratum, evaluated round-by-round:
    /// every variant of a round runs against the frozen pre-round state,
    /// and the per-job buffers are absorbed in fixed job order, so the
    /// fixpoint is deterministic for any thread count.
    ///
    /// Only the relations some delta variant reads keep a delta relation,
    /// so a non-recursive stratum (no rule has a delta variant, i.e. no
    /// body literal of the stratum's own relations) is materialised by
    /// its one naive round: no delta relation is kept and no fixpoint
    /// round runs.
    fn run_stratum(
        &self,
        rules: &[&CompiledRule],
        idb: &mut IdbState,
        arities: &std::collections::HashMap<&str, usize>,
    ) -> Result<(), EvalError> {
        // Deltas (like the IDB overlay) are untracked: their statistics
        // are never consulted, and the absorb path inserts every derived
        // fact of every round.
        let fresh_delta = || -> FxHashMap<String, Relation> {
            rules
                .iter()
                .flat_map(|r| &r.deltas)
                .map(|dv| {
                    let arity = arities[dv.relation.as_str()];
                    (dv.relation.clone(), Relation::new_untracked(arity))
                })
                .collect()
        };

        // Initial round: naive evaluation of every rule.
        let mut delta = fresh_delta();
        let specs: Vec<Spec<'_>> = rules.iter().map(|&r| (r, &r.naive, None)).collect();
        self.eval_round(&specs, idb, &mut delta)?;

        // Fixpoint rounds: one delta variant per same-stratum occurrence.
        loop {
            let delta_ref = &delta;
            let specs: Vec<Spec<'_>> = rules
                .iter()
                .flat_map(|&rule| {
                    rule.deltas.iter().filter_map(move |dv| {
                        let d = delta_ref.get(dv.relation.as_str())?;
                        (!d.is_empty()).then_some((rule, &dv.variant, Some(d)))
                    })
                })
                .collect();
            if specs.is_empty() {
                break;
            }
            let mut next = fresh_delta();
            let any = self.eval_round(&specs, idb, &mut next)?;
            delta = next;
            if !any {
                break;
            }
        }
        Ok(())
    }

    /// Evaluates one round's variants (fanned out to the pool), then
    /// merges the per-job delta buffers into the overlay in job order —
    /// the deterministic merge step.
    ///
    /// Governance checkpoints (all no-ops without a governor): the round
    /// is charged against the round cap up front; jobs poll the cancel
    /// flag and deadline at coarse strides (so every pool worker drains
    /// promptly on a trip, not just the caller); and the governor is
    /// re-checked after the join phase, *before* absorbing — a tripped
    /// round's job buffers are discarded wholesale, never partially
    /// merged.
    pub(crate) fn eval_round(
        &self,
        specs: &[Spec<'_>],
        idb: &mut IdbState,
        delta_out: &mut FxHashMap<String, Relation>,
    ) -> Result<bool, EvalError> {
        let per_job = self.join_round(specs, idb)?;
        // Deterministic merge: absorb in job order.
        let mut any = false;
        for (rule, derived) in per_job {
            if absorb(rule, derived, &self.ev.edb, idb, delta_out, self.gov)? {
                any = true;
            }
        }
        Ok(any)
    }

    /// The join phase of one round without the absorb step: runs `specs`
    /// against the frozen state and returns each job's rule together with
    /// its emitted `(head index, tuple)` buffer, in the deterministic job
    /// order. DRed's over-deletion and re-derivation rounds use this
    /// directly: the former route the derivations into the deletion set,
    /// the latter move them from there back into the overlay.
    pub(crate) fn join_round<'r>(
        &self,
        specs: &[Spec<'r>],
        idb: &mut IdbState,
    ) -> Result<JoinRoundOutput<'r>, EvalError> {
        if let Some(gov) = self.gov {
            gov.begin_round()?;
        }
        let (jobs, outer_rows) = self.partition_jobs(specs, idb);

        // Mutable prep phase (sequential): register overlay indexes and
        // pin EDB index Arcs once per *spec* — partitions of one variant
        // share their prep. Established overlay indexes are extended
        // eagerly by `absorb`; `ensure_index` only catches up
        // late-created ones.
        let preps: Vec<JobPrep> = specs
            .iter()
            .map(|&(rule, variant, _)| self.prepare(rule, variant, idb))
            .collect();

        if let Some(gov) = self.gov {
            if fault::fire(fault::MID_ROUND_CANCEL) {
                gov.cancel();
            }
            gov.check()?;
        }

        // Immutable join phase: every job sees the same frozen overlay
        // and emits into its own buffer. Fan out only when the round has
        // enough outer rows to amortize the thread spawns (tiny rounds —
        // the bulk of CEGIS candidate evals — run inline, in the same job
        // order, so results are identical either way).
        let edb = &self.ev.edb;
        let idb_frozen: &IdbState = idb;
        let gov = self.gov;
        let preps = &preps;
        let run_job = |job: &RoundJob| join_job(edb, job, &preps[job.spec], idb_frozen, gov);
        let results: Vec<Vec<(usize, Vec<Value>)>> = if outer_rows >= PAR_MIN_ROWS {
            self.ev
                .pool
                .run(jobs.iter().map(|job| move || run_job(job)))
        } else {
            jobs.iter().map(run_job).collect()
        };

        // A trip during the join phase (deadline, external cancel) leaves
        // truncated job buffers; drop them all rather than absorbing a
        // partial round.
        if let Some(gov) = self.gov {
            gov.check()?;
        }
        Ok(jobs.iter().zip(results).map(|(j, r)| (j.rule, r)).collect())
    }

    /// Expands specs into jobs, splitting large outer scans into
    /// contiguous row-range partitions, and returns the round's total
    /// outer-row count (the fan-out heuristic). Partition boundaries
    /// never affect the result (partitions tile the scan in ascending
    /// order), so the chunk count is free to depend on the pool size.
    fn partition_jobs<'r>(&self, specs: &[Spec<'r>], idb: &IdbState) -> (Vec<RoundJob<'r>>, usize) {
        let threads = self.ev.pool.threads();
        let mut outer_rows = 0usize;
        let mut jobs = Vec::with_capacity(specs.len());
        for (spec, &(rule, variant, delta)) in specs.iter().enumerate() {
            // Depth 0 is always a scan (see `Variant::compile`), so every
            // outer literal can be partitioned.
            let rows = variant.lits.first().map_or(0, |lit| match delta {
                Some(d) => d.len(),
                None => {
                    self.ev.edb.relation(&lit.rel).map_or(0, Relation::len)
                        + idb.relation(&lit.rel).map_or(0, Relation::len)
                }
            });
            outer_rows += rows;
            let chunks = if threads > 1 && rows >= PAR_MIN_ROWS {
                (threads * 2).min(rows / (PAR_MIN_ROWS / 2)).max(1)
            } else {
                1
            };
            if chunks <= 1 {
                jobs.push(RoundJob {
                    rule,
                    variant,
                    delta,
                    spec,
                    range: (0, usize::MAX),
                });
            } else {
                for c in 0..chunks {
                    jobs.push(RoundJob {
                        rule,
                        variant,
                        delta,
                        spec,
                        range: (c * rows / chunks, (c + 1) * rows / chunks),
                    });
                }
            }
        }
        (jobs, outer_rows)
    }

    /// The sequential prep step for one variant: registers overlay
    /// indexes and pins the EDB-side index Arcs the parallel join will
    /// probe. Shared by every partition of the variant.
    fn prepare(&self, rule: &CompiledRule, variant: &Variant, idb: &mut IdbState) -> JobPrep {
        let lit_edb = variant
            .lits
            .iter()
            .map(|lit| {
                if lit.key_cols.is_empty() {
                    None
                } else {
                    idb.ensure_index(&lit.rel, &lit.key_cols);
                    self.edb_index(&lit.rel, &lit.key_cols)
                }
            })
            .collect();
        let neg_edb = rule
            .negs
            .iter()
            .map(|neg| {
                if neg.key_cols.is_empty() {
                    None
                } else {
                    idb.ensure_index(&neg.rel, &neg.key_cols);
                    self.edb_index(&neg.rel, &neg.key_cols)
                }
            })
            .collect();
        JobPrep { lit_edb, neg_edb }
    }

    /// Returns (building and caching on first use) the EDB-side index of
    /// `rel` on `cols`; `None` when the snapshot has no such relation.
    fn edb_index(&self, rel: &str, cols: &[usize]) -> Option<Arc<ColumnIndex>> {
        let relation = self.ev.edb.relation(rel)?;
        if let Some(idx) = self
            .ev
            .indexes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(rel)
            .and_then(|by_cols| by_cols.get(cols))
        {
            return Some(idx.clone());
        }
        #[cfg(test)]
        upkeep::count_edb_build();
        let built = Arc::new(ColumnIndex::build(relation, cols));
        let mut w = self
            .ev
            .indexes
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Some(
            w.entry(rel.to_string())
                .or_default()
                .entry(cols.to_vec())
                .or_insert(built)
                .clone(),
        )
    }
}

/// One parallel unit of round work: a single join-order variant of one
/// rule, optionally restricted to a contiguous partition of its outermost
/// scan (`range` is in the concatenated row space of the scan's parts).
struct RoundJob<'r> {
    rule: &'r CompiledRule,
    variant: &'r Variant,
    delta: Option<&'r Relation>,
    /// Index of the spec this job partitions (its slot in the shared
    /// prep vector).
    spec: usize,
    range: (usize, usize),
}

/// EDB-side index Arcs pinned for one job during the sequential prep
/// phase, so the parallel join never touches the index cache.
struct JobPrep {
    lit_edb: Vec<Option<Arc<ColumnIndex>>>,
    neg_edb: Vec<Option<Arc<ColumnIndex>>>,
}

/// Executes one job's join against the frozen round state, emitting into
/// a job-local buffer. Runs on a pool worker: everything it touches is
/// immutable shared state or the job's own scratch.
fn join_job(
    edb: &Database,
    job: &RoundJob<'_>,
    prep: &JobPrep,
    idb: &IdbState,
    gov: Option<&Governor>,
) -> Vec<(usize, Vec<Value>)> {
    if gov.is_some() && fault::fire(fault::WORKER_PANIC) {
        panic!("injected worker panic (DYNAMITE_FAULT)");
    }
    let rule = job.rule;
    let execs: Vec<LitExec<'_>> = job
        .variant
        .lits
        .iter()
        .enumerate()
        .zip(&prep.lit_edb)
        .map(|((depth, lit), edb_arc)| {
            let range = if depth == 0 {
                job.range
            } else {
                (0, usize::MAX)
            };
            let src = if !lit.key_cols.is_empty() {
                ScanSrc::Indexed {
                    edb: edb_arc
                        .as_deref()
                        .and_then(|ix| Some((edb.relation(&lit.rel)?, ix))),
                    idb: idb.indexed(&lit.rel, &lit.key_cols),
                }
            } else if depth == 0 && job.delta.is_some() {
                ScanSrc::Scan {
                    parts: [job.delta, None],
                    range,
                }
            } else {
                ScanSrc::Scan {
                    parts: [edb.relation(&lit.rel), idb.relation(&lit.rel)],
                    range,
                }
            };
            LitExec {
                slots: &lit.slots,
                src,
            }
        })
        .collect();
    let negs: Vec<NegExec<'_>> = rule
        .negs
        .iter()
        .zip(&prep.neg_edb)
        .map(|(neg, edb_arc)| NegExec {
            plan: neg,
            edb: edb_arc.as_deref(),
            edb_rel: edb.relation(&neg.rel),
            idb: if neg.key_cols.is_empty() {
                None
            } else {
                idb.indexed(&neg.rel, &neg.key_cols).map(|(_, ix)| ix)
            },
            idb_rel: idb.relation(&neg.rel),
        })
        .collect();

    let depths = execs.len();
    let mut run = JoinRun {
        rule,
        execs: &execs,
        negs: &negs,
        env: vec![None; rule.nvars],
        newly: vec![Vec::new(); depths],
        keys: vec![Vec::new(); depths],
        negkey: Vec::new(),
        results: Vec::new(),
        gov,
        ticks: 0,
        stopped: false,
    };
    run.descend(0);
    run.results
}

// ------------------------------------------------------------- planner --

/// Assumed size of a relation the cost model knows nothing about (IDB
/// relations and delta occurrences have no statistics at compile time):
/// large enough that a literal over a *known*-small relation is preferred,
/// small enough that a known-huge scan is still pushed behind it.
const UNKNOWN_ROWS: f64 = 1024.0;

/// Assumed per-column distinct count of an unknown relation — a bound
/// column still buys a healthy selectivity factor.
const UNKNOWN_DISTINCT: f64 = 32.0;

/// Assumed size of a *demand guard* — a `magic_*` relation seeded by a
/// point query. Demand sets start from one seed fact and stay small
/// relative to the EDB by construction (they enumerate only the bindings
/// the query actually reaches), and probing the demand frontier first is
/// exactly what makes the rewrite selective, so guards are costed below
/// every real relation.
const DEMAND_ROWS: f64 = 1.0;

/// The cost model behind join planning: a view over the EDB snapshot's
/// per-relation row counts and per-column [`ColumnStats`] (distinct
/// sketches and value bounds), maintained incrementally by
/// [`TupleStore`](dynamite_instance::TupleStore).
///
/// [`ColumnStats`]: dynamite_instance::ColumnStats
pub(crate) struct CostModel<'e> {
    pub(crate) edb: &'e Database,
    /// Relations to cost as query demand guards ([`DEMAND_ROWS`]); see
    /// [`EvalRun::demand`].
    pub(crate) demand: Option<&'e std::collections::HashSet<String>>,
}

impl CostModel<'_> {
    /// Greedily orders the positive body literals by estimated output
    /// cardinality: starting from the pinned `first` literal (the delta
    /// occurrence) or from nothing, repeatedly picks the literal whose
    /// estimated matching-row count under the currently bound variables
    /// is smallest (ties break toward body order, keeping the plan
    /// deterministic and the no-information case identical to the
    /// legacy order). Returns indices into `positives`.
    ///
    /// Two guards temper the raw estimates:
    ///
    /// - **Connectivity**: a literal sharing no variable with the bound
    ///   set (or, before anything is bound, with any other literal) is a
    ///   pure Cartesian multiplier — it inflates every later depth by
    ///   its own cardinality, so however small it looks it is deferred
    ///   until only disconnected literals remain. Two exceptions go
    ///   first regardless: a literal estimated *empty* (it ends the
    ///   whole join instantly), and a *ground* literal (all terms
    ///   constants — rows are deduplicated, so it matches at most one
    ///   row: a pure guard that multiplies nothing). A variable-free
    ///   literal with wildcards is **not** ground — it can match many
    ///   rows while binding nothing, the worst multiplier of all.
    /// - **`empty` hint**: literals for which `empty` holds cost zero —
    ///   used by naive variants, whose same-stratum IDB literals are
    ///   provably empty in round 1; ordering them outermost both ends
    ///   the round instantly and avoids registering an overlay index
    ///   that the fixpoint's eager maintenance would then pay for on
    ///   every absorbed row.
    pub(crate) fn greedy(
        &self,
        positives: &[&Literal],
        first: Option<usize>,
        empty: &impl Fn(&Literal) -> bool,
    ) -> Vec<usize> {
        let n = positives.len();
        // Bodies are tiny (a handful of literals, a handful of vars), and
        // this runs per rule per evaluation: linear scans over small Vecs
        // beat hash sets here.
        // A variable occurring in ≥ 2 literals can connect them; a
        // literal with none of those is isolated from the whole body.
        let isolated: Vec<bool> = positives
            .iter()
            .enumerate()
            .map(|(i, lit)| {
                lit.atom.vars().all(|v| {
                    !positives
                        .iter()
                        .enumerate()
                        .any(|(j, other)| j != i && other.atom.vars().any(|w| w == v))
                })
            })
            .collect();
        let ground: Vec<bool> = positives
            .iter()
            .map(|lit| lit.atom.terms.iter().all(|t| matches!(t, Term::Const(_))))
            .collect();

        fn bind<'p>(lit: &'p Literal, bound: &mut Vec<&'p str>) {
            for v in lit.atom.vars() {
                if !bound.contains(&v) {
                    bound.push(v);
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut bound: Vec<&str> = Vec::new();
        if let Some(f) = first {
            order.push(f);
            used[f] = true;
            bind(positives[f], &mut bound);
        }
        while order.len() < n {
            let mut best = usize::MAX;
            let mut best_cost = f64::INFINITY;
            let mut best_connected = false;
            for (i, lit) in positives.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let cost = if empty(lit) {
                    0.0
                } else {
                    self.estimate(lit, &bound)
                };
                // Empty and ground literals always qualify; otherwise a
                // candidate is "connected" if it shares a bound variable
                // — or, while nothing is bound yet, if it is not
                // isolated.
                let connected = cost == 0.0
                    || ground[i]
                    || if bound.is_empty() {
                        !isolated[i]
                    } else {
                        lit.atom.vars().any(|v| bound.contains(&v))
                    };
                // Connected candidates always beat disconnected ones;
                // within a class, smaller estimate wins (ties: body
                // order).
                let better = match (connected, best_connected) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => cost < best_cost,
                };
                if better {
                    best_cost = cost;
                    best = i;
                    best_connected = connected;
                }
            }
            order.push(best);
            used[best] = true;
            bind(positives[best], &mut bound);
        }
        order
    }

    /// Estimated number of rows of `lit`'s relation matching the already
    /// bound variables: row count divided by the distinct-count estimate
    /// of every constant-bound or variable-bound column (independence
    /// assumption), zero when a constant provably lies outside a column's
    /// observed range.
    fn estimate(&self, lit: &Literal, bound: &[&str]) -> f64 {
        if self.demand.is_some_and(|d| d.contains(&lit.atom.relation)) {
            return DEMAND_ROWS;
        }
        let rel = self.edb.relation(&lit.atom.relation);
        let mut est = match rel {
            Some(r) => r.len() as f64,
            None => UNKNOWN_ROWS,
        };
        let stats = |c: usize| rel.and_then(|r| r.column_stats(c));
        let distinct = |c: usize| match (rel, stats(c)) {
            (Some(r), Some(st)) => st.distinct_estimate(r.len()).max(1) as f64,
            _ => UNKNOWN_DISTINCT,
        };
        for (c, t) in lit.atom.terms.iter().enumerate() {
            match t {
                Term::Const(v) => {
                    if stats(c).is_some_and(|st| st.excludes(*v)) {
                        return 0.0;
                    }
                    est /= distinct(c);
                }
                Term::Var(name) if bound.contains(&name.as_str()) => est /= distinct(c),
                _ => {}
            }
        }
        est
    }
}

/// The join orders chosen for one rule — indices into its positive-literal
/// list, one permutation for the naive variant and one per same-stratum
/// delta occurrence (delta pinned first). This is everything the planner
/// contributes to compilation, and therefore exactly what [`RuleKey`]
/// must carry for the rule memo to stay sound.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct PlanOrders {
    naive: Vec<usize>,
    /// In the order the delta occurrences appear in the body.
    deltas: Vec<Vec<usize>>,
}

impl PlanOrders {
    /// Plans `rule` under `model`, or reproduces the legacy body order
    /// (delta occurrence hoisted first) when the planner is disabled.
    fn of(
        rule: &Rule,
        strata: &std::collections::HashMap<String, usize>,
        model: Option<&CostModel<'_>>,
    ) -> PlanOrders {
        Self::of_impl(rule, strata, model, false)
    }

    /// Like [`PlanOrders::of`], but plans a delta order for **every**
    /// positive occurrence — EDB and lower-stratum literals included —
    /// as incremental maintenance requires (a batch can perturb any
    /// relation, not just the same-stratum recursive ones).
    pub(crate) fn of_maintenance(
        rule: &Rule,
        strata: &std::collections::HashMap<String, usize>,
        model: Option<&CostModel<'_>>,
    ) -> PlanOrders {
        Self::of_impl(rule, strata, model, true)
    }

    fn of_impl(
        rule: &Rule,
        strata: &std::collections::HashMap<String, usize>,
        model: Option<&CostModel<'_>>,
        all_deltas: bool,
    ) -> PlanOrders {
        let stratum = rule_stratum(rule, strata);
        let positives: Vec<&Literal> = rule.body.iter().filter(|l| !l.negated).collect();
        let n = positives.len();
        let delta_idxs: Vec<usize> = (0..n)
            .filter(|&i| {
                all_deltas || strata.get(&positives[i].atom.relation).copied() == Some(stratum)
            })
            .collect();
        let same_stratum = |l: &Literal| strata.get(&l.atom.relation).copied() == Some(stratum);
        match model {
            // Single-literal bodies have exactly one order; skip the
            // planner machinery (candidate sweeps are full of them).
            Some(m) if n > 1 => PlanOrders {
                // Round 1 evaluates every naive variant against the
                // stratum's still-empty overlay, so same-stratum IDB
                // literals are empty by construction.
                naive: m.greedy(&positives, None, &same_stratum),
                deltas: delta_idxs
                    .iter()
                    .map(|&d| m.greedy(&positives, Some(d), &|_| false))
                    .collect(),
            },
            _ => PlanOrders {
                naive: (0..n).collect(),
                deltas: delta_idxs
                    .iter()
                    .map(|&d| {
                        std::iter::once(d)
                            .chain((0..n).filter(|&i| i != d))
                            .collect()
                    })
                    .collect(),
            },
        }
    }
}

// ------------------------------------------------------------ compiled --

/// A rule compiled once per evaluation: dense variable indices, the naive
/// join order, every same-stratum delta variant, and negation probes.
pub(crate) struct CompiledRule {
    pub(crate) stratum: usize,
    nvars: usize,
    /// Per head: relation name and term templates.
    heads: Vec<(String, Vec<HeadTerm>)>,
    negs: Vec<NegPlan>,
    naive: Variant,
    pub(crate) deltas: Vec<DeltaVariant>,
}

/// One semi-naive variant: the delta occurrence joined first.
pub(crate) struct DeltaVariant {
    pub(crate) relation: String,
    pub(crate) variant: Variant,
}

/// A join order over the positive body literals.
pub(crate) struct Variant {
    lits: Vec<LitPlan>,
}

/// One positive literal in a join order.
struct LitPlan {
    rel: String,
    slots: Vec<Slot>,
    /// Columns bound before this literal joins (consts and earlier-bound
    /// variables, in column order) — the index key. Empty means scan,
    /// as it always is at depth 0.
    key_cols: Vec<usize>,
}

enum Slot {
    Const(Value),
    Bound(usize),
    Free(usize),
    Wild,
}

enum HeadTerm {
    Const(Value),
    Var(usize),
}

/// A negated literal compiled to an index probe on its bound columns.
struct NegPlan {
    rel: String,
    terms: Vec<NegTerm>,
    /// Non-wildcard columns, in column order. Empty means the literal is
    /// fully unconstrained: negation fails iff the relation is non-empty.
    key_cols: Vec<usize>,
}

enum NegTerm {
    Const(Value),
    Var(usize),
    Wild,
}

/// The rule memo's key: everything [`CompiledRule::compile`] depends on.
/// The statistics reach compilation only through the planned join
/// orders, so two contexts that plan the same orders share one compiled
/// rule. Each delta order starts with its delta occurrence, so the orders
/// also record which body literals are same-stratum.
///
/// The rule is held flat, in at most three allocations: a copy of the
/// `Rule` costs one allocation per name, and a full memo of such copies
/// raised the synthesis benchmark's peak memory. Variables are numbered
/// by first occurrence, heads first, which is how compilation numbers
/// them, so rules that differ only in variable names share an entry.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct RuleKey {
    /// Every atom's relation name, heads first, then the body in order.
    relations: String,
    /// Per atom, its kind and the length of its name in `relations`,
    /// then one token per term.
    tokens: Vec<KeyToken>,
    /// The values of the `Const` tokens, in order.
    consts: Vec<Value>,
    stratum: usize,
    orders: PlanOrders,
}

#[derive(PartialEq, Eq, Hash)]
enum KeyToken {
    Atom(AtomKind, u32),
    Var(u32),
    Const,
    Wild,
}

#[derive(PartialEq, Eq, Hash)]
enum AtomKind {
    Head,
    Pos,
    Neg,
}

impl RuleKey {
    fn new(rule: &Rule, stratum: usize, orders: PlanOrders) -> RuleKey {
        let small = |n: usize| u32::try_from(n).expect("rule sizes fit in u32");
        let atoms = || {
            let body = rule.body.iter().map(|l| match l.negated {
                true => (AtomKind::Neg, &l.atom),
                false => (AtomKind::Pos, &l.atom),
            });
            rule.heads.iter().map(|h| (AtomKind::Head, h)).chain(body)
        };
        // Sized up front: an entry lives as long as the memo.
        let mut key = RuleKey {
            relations: String::with_capacity(atoms().map(|(_, a)| a.relation.len()).sum()),
            tokens: Vec::with_capacity(atoms().map(|(_, a)| 1 + a.terms.len()).sum()),
            consts: Vec::new(),
            stratum,
            orders,
        };
        let mut vars: Vec<&str> = Vec::new();
        for (kind, atom) in atoms() {
            key.relations.push_str(&atom.relation);
            let name = KeyToken::Atom(kind, small(atom.relation.len()));
            key.tokens.push(name);
            for t in &atom.terms {
                key.tokens.push(match t {
                    Term::Var(v) => {
                        let i = vars.iter().position(|w| w == v).unwrap_or_else(|| {
                            vars.push(v);
                            vars.len() - 1
                        });
                        KeyToken::Var(small(i))
                    }
                    Term::Const(c) => {
                        key.consts.push(*c);
                        KeyToken::Const
                    }
                    Term::Wildcard => KeyToken::Wild,
                });
            }
        }
        key
    }
}

impl CompiledRule {
    /// Compiles `rule`, of stratum `stratum`, with the join orders
    /// `orders`: one delta variant per delta order, for the occurrence
    /// the order starts with. The evaluation path plans delta orders for
    /// same-stratum occurrences only; the incremental maintainer plans
    /// one for every positive occurrence
    /// ([`PlanOrders::of_maintenance`]) and compiles outside the memo.
    pub(crate) fn compile(rule: &Rule, stratum: usize, orders: &PlanOrders) -> CompiledRule {
        #[cfg(test)]
        upkeep::count_rule_build();
        // Dense variable numbering: first occurrence order.
        let mut var_index: FxHashMap<&str, usize> = FxHashMap::default();
        for v in rule.all_vars() {
            let next = var_index.len();
            var_index.entry(v).or_insert(next);
        }
        let nvars = var_index.len();

        let heads = rule
            .heads
            .iter()
            .map(|h| {
                let terms = h
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => HeadTerm::Const(*c),
                        Term::Var(v) => HeadTerm::Var(var_index[v.as_str()]),
                        Term::Wildcard => unreachable!("no wildcards in heads"),
                    })
                    .collect();
                (h.relation.clone(), terms)
            })
            .collect();

        let negs = rule
            .body
            .iter()
            .filter(|l| l.negated)
            .map(|l| {
                let terms: Vec<NegTerm> = l
                    .atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => NegTerm::Const(*c),
                        Term::Var(v) => NegTerm::Var(var_index[v.as_str()]),
                        Term::Wildcard => NegTerm::Wild,
                    })
                    .collect();
                let key_cols = terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !matches!(t, NegTerm::Wild))
                    .map(|(c, _)| c)
                    .collect();
                NegPlan {
                    rel: l.atom.relation.clone(),
                    terms,
                    key_cols,
                }
            })
            .collect();

        let positives: Vec<(usize, &Literal)> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated)
            .collect();

        let naive = Variant::compile(&positives, &var_index, nvars, &orders.naive);
        let deltas = orders
            .deltas
            .iter()
            .map(|order| DeltaVariant {
                relation: positives[order[0]].1.atom.relation.clone(),
                variant: Variant::compile(&positives, &var_index, nvars, order),
            })
            .collect();

        CompiledRule {
            stratum,
            nvars,
            heads,
            negs,
            naive,
            deltas,
        }
    }

    /// The relation of head `i`.
    pub(crate) fn head(&self, i: usize) -> &str {
        &self.heads[i].0
    }

    /// One-line plan rendering: heads, then the naive variant's literals
    /// in execution order with their access paths, then negation probes.
    fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, (rel, _)) in self.heads.iter().enumerate() {
            if i > 0 {
                s.push('/');
            }
            s.push_str(rel);
        }
        s.push_str(" :- ");
        for (i, lit) in self.naive.lits.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = if lit.key_cols.is_empty() {
                write!(s, "{}[scan]", lit.rel)
            } else {
                write!(s, "{}[index {:?}]", lit.rel, lit.key_cols)
            };
        }
        for neg in &self.negs {
            let _ = write!(s, ", !{}[probe {:?}]", neg.rel, neg.key_cols);
        }
        s
    }
}

impl Variant {
    /// Compiles one join order — the planner-chosen (or body-order)
    /// permutation `order` of `positives` (a delta variant's order
    /// starts with its delta occurrence) — into slot layouts and
    /// per-literal index key columns.
    fn compile(
        positives: &[(usize, &Literal)],
        var_index: &FxHashMap<&str, usize>,
        nvars: usize,
        order: &[usize],
    ) -> Variant {
        let mut bound = vec![false; nvars];
        debug_assert_eq!(order.len(), positives.len(), "order must be a permutation");
        let ordered: Vec<(usize, &Literal)> = order.iter().map(|&i| positives[i]).collect();
        let lits = ordered
            .iter()
            .enumerate()
            .map(|(join_i, &(_pos, lit))| {
                let before = bound.clone();
                let slots: Vec<Slot> = lit
                    .atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => Slot::Const(*c),
                        Term::Wildcard => Slot::Wild,
                        Term::Var(v) => {
                            let i = var_index[v.as_str()];
                            if before[i] {
                                Slot::Bound(i)
                            } else {
                                bound[i] = true;
                                Slot::Free(i)
                            }
                        }
                    })
                    .collect();
                // The outermost literal runs once per job, so it scans and
                // checks its constants per row in `try_tuple` (for a delta
                // occurrence as for any other). Deeper literals run once
                // per outer binding and probe an index keyed on their
                // constants and earlier-bound variables.
                let key_cols: Vec<usize> = if join_i == 0 {
                    Vec::new()
                } else {
                    slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| matches!(s, Slot::Const(_) | Slot::Bound(_)))
                        .map(|(c, _)| c)
                        .collect()
                };
                LitPlan {
                    rel: lit.atom.relation.clone(),
                    slots,
                    key_cols,
                }
            })
            .collect();
        Variant { lits }
    }
}

// ------------------------------------------------------------- overlay --

/// Applies one row-id change of a relation to one of its indexes, keeping
/// the index equal to a fresh build (see the module invariants).
pub(crate) fn repair_index(
    idx: &mut ColumnIndex,
    cols: &[usize],
    row: RowRef<'_>,
    change: RowChange,
) {
    #[cfg(test)]
    upkeep::count_touch();
    idx.update(cols, row, change);
}

/// Per-evaluation IDB overlay: derived relations plus their join indexes.
/// The incremental maintainer keeps one of these warm across batches (see
/// `crate::incremental`).
pub(crate) struct IdbState {
    rels: FxHashMap<String, Relation>,
    /// `relation → column-set → index`, borrowed-key lookups on the hot
    /// path (see [`IndexCache`]). Every index is current: built
    /// whole when registered, then kept equal to a fresh build by every
    /// insert and removal.
    indexes: FxHashMap<String, FxHashMap<Vec<usize>, ColumnIndex>>,
}

impl IdbState {
    fn new<'a>(idb: impl Iterator<Item = (&'a str, usize)>) -> IdbState {
        IdbState {
            // Untracked stores: overlay statistics are never consulted
            // (the planner reads the EDB snapshot's), so the fixpoint's
            // hottest insert path skips the per-value upkeep.
            rels: idb
                .map(|(r, arity)| (r.to_string(), Relation::new_untracked(arity)))
                .collect(),
            indexes: FxHashMap::default(),
        }
    }

    /// Rebuilds an overlay from a previously materialized output
    /// database (the warm-start path of the incremental maintainer).
    /// Indexes start empty and are built on first use via `ensure_index`.
    pub(crate) fn from_database(db: Database) -> IdbState {
        IdbState {
            rels: db.into_relations().collect(),
            indexes: FxHashMap::default(),
        }
    }

    pub(crate) fn relation(&self, name: &str) -> Option<&Relation> {
        self.rels.get(name)
    }

    /// Ensures `name` exists in the overlay (created empty, untracked).
    /// Recovery guard: `absorb` requires every intensional head relation
    /// to be present, and a checkpointed overlay legitimately omits
    /// relations only when they were empty.
    pub(crate) fn ensure_relation(&mut self, name: &str, arity: usize) {
        self.rels
            .entry(name.to_string())
            .or_insert_with(|| Relation::new_untracked(arity));
    }

    /// Registers the overlay index of `rel` on `cols`, building it over
    /// the rows absorbed so far. From then on every insert and removal
    /// keeps it current, so re-registration is a cheap no-op.
    fn ensure_index(&mut self, rel: &str, cols: &[usize]) {
        let Some(relation) = self.rels.get(rel) else {
            return; // purely extensional: no overlay side
        };
        if self
            .indexes
            .get(rel)
            .is_some_and(|by| by.contains_key(cols))
        {
            return;
        }
        #[cfg(test)]
        upkeep::count_overlay_build();
        let idx = ColumnIndex::build(relation, cols);
        self.indexes
            .entry(rel.to_string())
            .or_default()
            .insert(cols.to_vec(), idx);
    }

    /// The overlay relation and its (previously ensured) index.
    fn indexed(&self, rel: &str, cols: &[usize]) -> Option<(&Relation, &ColumnIndex)> {
        let relation = self.rels.get(rel)?;
        let idx = self.indexes.get(rel)?.get(cols)?;
        Some((relation, idx))
    }

    pub(crate) fn into_database(self) -> Database {
        Database::from_relations(self.rels)
    }

    /// A materialized copy of the overlay (the maintainer's output
    /// snapshot — the warm state itself stays live).
    pub(crate) fn to_database(&self) -> Database {
        Database::from_relations(self.rels.iter().map(|(n, r)| (n.clone(), r.clone())))
    }

    /// Removes `rows` from the overlay relation `rel`, returning how many
    /// were present. The store swap-removes them, and each of the
    /// relation's indexes is repaired for exactly the removed and the
    /// moved rows — O(batch) index work, whatever the relation's size.
    pub(crate) fn remove_rows<I, R>(&mut self, rel: &str, rows: I) -> usize
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let Some(relation) = self.rels.get_mut(rel) else {
            return 0;
        };
        let mut by_cols = self.indexes.get_mut(rel);
        relation.remove_rows_with(rows, |row, change| {
            for (cols, idx) in by_cols.iter_mut().flat_map(|by| by.iter_mut()) {
                repair_index(idx, cols, row, change);
            }
        })
    }

    /// Inserts one tuple directly (DRed's re-derivation reinsert path),
    /// extending the relation's indexes exactly as `absorb` does.
    /// Returns `false` if the tuple was already present.
    pub(crate) fn insert(&mut self, rel: &str, row: &[Value]) -> bool {
        let Some(overlay) = self.rels.get_mut(rel) else {
            return false;
        };
        if !overlay.insert(row) {
            return false;
        }
        append_to_indexes(overlay, self.indexes.get_mut(rel));
        true
    }
}

/// Extends `by_cols` (the indexes of `rel`, if any) with `rel`'s newest
/// row, just appended.
fn append_to_indexes(rel: &Relation, by_cols: Option<&mut FxHashMap<Vec<usize>, ColumnIndex>>) {
    let id = rel.len() - 1;
    let row = rel.get(id).expect("just appended");
    for (cols, idx) in by_cols.into_iter().flatten() {
        repair_index(idx, cols, row, RowChange::Appended(id as u32));
    }
}

/// Inserts derived facts; returns `true` if anything was new. A fact is
/// new when it is in neither the EDB snapshot nor the overlay.
///
/// Index maintenance is delta-driven (eager): every overlay index of the
/// head relation extends itself with the new row immediately, so
/// recursion-heavy fixpoints never re-scan the overlay per rule variant.
/// Indexes registered later (mid-evaluation) are built whole once in
/// [`IdbState::ensure_index`].
/// The fact budget is charged here — on the sequential merge path, per
/// *unique* insert, in fixed job order — so whether (and where) it trips
/// is identical at every thread count. A budget trip aborts mid-absorb;
/// the partially extended overlay is torn down with the whole evaluation.
/// Every [`GOV_STRIDE`] merged tuples the deadline/cancel state is polled
/// too, so a huge buffer cannot blow past the deadline unchecked.
fn absorb(
    rule: &CompiledRule,
    derived: Vec<(usize, Vec<Value>)>,
    edb: &Database,
    idb: &mut IdbState,
    delta: &mut FxHashMap<String, Relation>,
    gov: Option<&Governor>,
) -> Result<bool, EvalError> {
    if let Some(gov) = gov {
        if fault::fire(fault::BUDGET) {
            gov.trip_fact_budget();
        }
    }
    let mut any = false;
    let mut ticks: u32 = 0;
    let IdbState { rels, indexes } = idb;
    for (head_idx, tuple) in derived {
        if let Some(gov) = gov {
            ticks = ticks.wrapping_add(1);
            if ticks.is_multiple_of(GOV_STRIDE) {
                gov.check()?;
            }
        }
        let rel = rule.heads[head_idx].0.as_str();
        if edb.relation(rel).is_some_and(|r| r.contains(&tuple)) {
            continue;
        }
        let overlay = rels.get_mut(rel).expect("head relations are intensional");
        if overlay.insert(&tuple) {
            if let Some(gov) = gov {
                gov.count_fact()?;
            }
            append_to_indexes(overlay, indexes.get_mut(rel));
            if let Some(d) = delta.get_mut(rel) {
                d.insert(&tuple);
                #[cfg(test)]
                upkeep::count_delta_insert();
            }
            any = true;
        }
    }
    Ok(any)
}

// ---------------------------------------------------------------- join --

/// One positive literal ready to execute: slot layout plus its tuple
/// sources (EDB part, overlay part, or the delta relation).
struct LitExec<'a> {
    slots: &'a [Slot],
    src: ScanSrc<'a>,
}

enum ScanSrc<'a> {
    /// Full scan over up to two parts (EDB then overlay, or the delta),
    /// restricted to `range` in the parts' concatenated row space.
    Scan {
        parts: [Option<&'a Relation>; 2],
        range: (usize, usize),
    },
    /// Index probe on the key columns, each side with its own index.
    Indexed {
        edb: Option<(&'a Relation, &'a ColumnIndex)>,
        idb: Option<(&'a Relation, &'a ColumnIndex)>,
    },
}

struct NegExec<'a> {
    plan: &'a NegPlan,
    edb: Option<&'a ColumnIndex>,
    edb_rel: Option<&'a Relation>,
    idb: Option<&'a ColumnIndex>,
    idb_rel: Option<&'a Relation>,
}

impl NegExec<'_> {
    /// `true` when no tuple matches the negated literal under `env`.
    /// `key` is a reusable scratch buffer.
    fn holds(&self, env: &[Option<Value>], key: &mut Vec<Value>) -> bool {
        if self.plan.key_cols.is_empty() {
            // Fully unconstrained: any tuple at all falsifies it.
            return self.edb_rel.is_none_or(|r| r.is_empty())
                && self.idb_rel.is_none_or(|r| r.is_empty());
        }
        // The key covers every non-wildcard column, so a key hit IS a
        // matching tuple — no per-tuple verification needed.
        key.clear();
        key.extend(
            self.plan
                .key_cols
                .iter()
                .map(|&c| match &self.plan.terms[c] {
                    NegTerm::Const(v) => *v,
                    NegTerm::Var(i) => env[*i].expect("negated vars bound"),
                    NegTerm::Wild => unreachable!("wildcards are not key columns"),
                }),
        );
        if self.edb.as_ref().is_some_and(|ix| !ix.get(key).is_empty()) {
            return false;
        }
        self.idb.is_none_or(|ix| ix.get(key).is_empty())
    }
}

/// The recursive index-nested-loop join over one compiled variant, with
/// per-depth scratch buffers so the hot path does not allocate.
struct JoinRun<'a> {
    rule: &'a CompiledRule,
    execs: &'a [LitExec<'a>],
    negs: &'a [NegExec<'a>],
    env: Vec<Option<Value>>,
    /// Per-depth undo lists: variables bound by the tuple at that depth.
    newly: Vec<Vec<usize>>,
    /// Per-depth index-key buffers.
    keys: Vec<Vec<Value>>,
    /// Negation-probe key buffer.
    negkey: Vec<Value>,
    results: Vec<(usize, Vec<Value>)>,
    /// Governance handle for this job; ungoverned runs pay one `None`
    /// branch per considered tuple and nothing else.
    gov: Option<&'a Governor>,
    /// Tuples considered since the last governor poll.
    ticks: u32,
    /// Sticky stop flag: set when the governor trips; the whole descent
    /// unwinds without considering further tuples (the truncated buffer
    /// is discarded by the round's post-join check).
    stopped: bool,
}

/// Tuples considered between governor polls inside a join job. Coarse
/// enough that the `Instant::now()` syscall is amortized into noise, fine
/// enough that a cross-product blow-up is noticed within microseconds.
const GOV_STRIDE: u32 = 1024;

/// Binds row `t` against `slots`, extending `env`; records newly bound
/// variables in `newly`, restoring `env` on mismatch.
fn try_tuple(
    env: &mut [Option<Value>],
    newly: &mut Vec<usize>,
    slots: &[Slot],
    t: RowRef<'_>,
) -> bool {
    newly.clear();
    let undo = |newly: &[usize], env: &mut [Option<Value>]| {
        for &n in newly {
            env[n] = None;
        }
    };
    // Zipping the (lazy) row iterator walks the column streams
    // directly: values reassemble one per loop step — an early
    // mismatch stops pulling — without a per-slot column lookup.
    for (s, v) in slots.iter().zip(t.iter()) {
        match s {
            Slot::Const(c) => {
                if v != *c {
                    undo(newly, env);
                    return false;
                }
            }
            Slot::Bound(b) => {
                if env[*b] != Some(v) {
                    undo(newly, env);
                    return false;
                }
            }
            Slot::Free(f) => match env[*f] {
                // Free slots may repeat within one literal (e.g.
                // R(x, x) with x first bound here).
                Some(existing) => {
                    if existing != v {
                        undo(newly, env);
                        return false;
                    }
                }
                None => {
                    env[*f] = Some(v);
                    newly.push(*f);
                }
            },
            Slot::Wild => {}
        }
    }
    true
}

impl JoinRun<'_> {
    fn emit(&mut self) {
        for (head_idx, (_, terms)) in self.rule.heads.iter().enumerate() {
            let tuple: Vec<Value> = terms
                .iter()
                .map(|t| match t {
                    HeadTerm::Const(c) => *c,
                    HeadTerm::Var(v) => self.env[*v].expect("head vars bound (range restriction)"),
                })
                .collect();
            self.results.push((head_idx, tuple));
        }
    }

    /// Per-tuple governance tick: polls the governor every [`GOV_STRIDE`]
    /// considered tuples and latches `stopped` on a trip. Polling only
    /// observes cancel/deadline state — it never mutates the join — so a
    /// run that completes is byte-identical to an ungoverned one.
    #[inline]
    fn should_stop(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        let Some(gov) = self.gov else {
            return false;
        };
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(GOV_STRIDE) && gov.poll() {
            self.stopped = true;
        }
        self.stopped
    }

    fn descend(&mut self, depth: usize) {
        if self.stopped {
            return;
        }
        if depth == self.execs.len() {
            let mut negkey = std::mem::take(&mut self.negkey);
            let ok = self.negs.iter().all(|n| n.holds(&self.env, &mut negkey));
            self.negkey = negkey;
            if ok {
                self.emit();
            }
            return;
        }
        // Copy the shared slice reference out of `self` so borrows of the
        // exec plan do not pin `self` across the recursive calls.
        let execs = self.execs;
        let exec = &execs[depth];
        let mut newly = std::mem::take(&mut self.newly[depth]);
        match &exec.src {
            ScanSrc::Scan { parts, range } => {
                let (mut start, mut end) = *range;
                for part in parts.iter().flatten() {
                    let n = part.len();
                    for i in start.min(n)..end.min(n) {
                        if self.should_stop() {
                            break;
                        }
                        let t = part.get(i).expect("scan in range");
                        if try_tuple(&mut self.env, &mut newly, exec.slots, t) {
                            self.descend(depth + 1);
                            for &n in &newly {
                                self.env[n] = None;
                            }
                        }
                    }
                    start = start.saturating_sub(n);
                    end = end.saturating_sub(n);
                }
            }
            ScanSrc::Indexed { edb, idb } => {
                let mut key = std::mem::take(&mut self.keys[depth]);
                key.clear();
                key.extend(exec.slots.iter().filter_map(|s| match s {
                    Slot::Const(c) => Some(*c),
                    Slot::Bound(v) => Some(self.env[*v].expect("bound")),
                    _ => None,
                }));
                for (rel, positions) in edb
                    .iter()
                    .map(|(rel, ix)| (*rel, ix.get(&key)))
                    .chain(idb.iter().map(|(rel, ix)| (*rel, ix.get(&key))))
                {
                    for &ti in positions {
                        if self.should_stop() {
                            break;
                        }
                        let t = rel.get(ti as usize).expect("index in range");
                        if try_tuple(&mut self.env, &mut newly, exec.slots, t) {
                            self.descend(depth + 1);
                            for &n in &newly {
                                self.env[n] = None;
                            }
                        }
                    }
                }
                self.keys[depth] = key;
            }
        }
        self.newly[depth] = newly;
    }
}

#[cfg(test)]
pub(crate) mod upkeep;

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-relation database with a steep selectivity gradient:
    /// `Big` (4000 rows, wide join columns), `Mid` (400), `Sel` (100,
    /// whose second column has only 20 distinct values).
    fn skewed_db() -> Database {
        let mut db = Database::new();
        db.extend_rows(
            "Big",
            2,
            (0..4000i64).map(|i| vec![i.into(), (i % 400).into()]),
        );
        db.extend_rows(
            "Mid",
            2,
            (0..400i64).map(|i| vec![i.into(), (i % 100).into()]),
        );
        db.extend_rows(
            "Sel",
            2,
            (0..100i64).map(|i| vec![i.into(), (i % 20).into()]),
        );
        db
    }

    /// The adversarial candidate: biggest relation first, the selective
    /// constant literal last.
    fn adversarial() -> Program {
        Program::parse("Out(x) :- Big(x, y), Mid(y, z), Sel(z, 7).").expect("parses")
    }

    fn fresh_ctx(db: &Database, reorder: bool) -> Evaluator {
        Evaluator::with_config(
            db.clone(),
            Arc::new(WorkerPool::new(1)),
            RuleCacheHandle::default(),
            reorder,
        )
    }

    #[test]
    fn planner_hoists_the_selective_literal() {
        let db = skewed_db();
        let planned = fresh_ctx(&db, true);
        let plans = planned.explain(&adversarial()).expect("explains");
        assert_eq!(plans.len(), 1);
        // Sel(z, 7) is by far the cheapest entry point (100 / 20 = 5
        // estimated rows); as the outermost literal it is scanned with
        // its constant checked per row. Mid then joins on the bound z,
        // Big last on the bound y.
        assert_eq!(plans[0], "Out :- Sel[scan], Mid[index [1]], Big[index [1]]");
        // Body order, for contrast, scans Big first.
        let blind = fresh_ctx(&db, false);
        let plans = blind.explain(&adversarial()).expect("explains");
        assert_eq!(
            plans[0],
            "Out :- Big[scan], Mid[index [0]], Sel[index [0, 1]]"
        );
    }

    #[test]
    fn planner_and_body_order_agree_on_results() {
        let db = skewed_db();
        let p = adversarial();
        let planned = fresh_ctx(&db, true).eval(&p).expect("evaluates");
        let blind = fresh_ctx(&db, false).eval(&p).expect("evaluates");
        assert_eq!(planned, blind);
        // Cross-check cardinality by hand: Sel(z, 7) matches z ∈ {7, 27,
        // 47, 67, 87}; each z matches 4 Mid rows; each y matches 10 Big
        // rows — 200 bindings, all x distinct.
        assert_eq!(planned.relation("Out").expect("out").len(), 200);
    }

    #[test]
    fn out_of_range_constant_prunes_to_empty() {
        let db = skewed_db();
        let p = Program::parse("Out(x) :- Big(x, y), Sel(y, 999).").expect("parses");
        let planned = fresh_ctx(&db, true);
        // 999 is outside Sel's second column range: estimated zero rows,
        // so the planner puts Sel first and one sweep of Sel ends the join.
        let plans = planned.explain(&p).expect("explains");
        assert!(plans[0].starts_with("Out :- Sel[scan]"), "{}", plans[0]);
        assert!(planned
            .eval(&p)
            .expect("evaluates")
            .relation("Out")
            .expect("out")
            .is_empty());
    }

    #[test]
    fn shared_memo_does_not_leak_plans_across_skewed_contexts() {
        // Two databases with opposite skew: in `a` the program's first
        // body literal ranges over the huge relation, in `b` over the
        // tiny one. Both contexts share one rule memo; each must still
        // get the plan its own statistics dictate.
        let mut a = Database::new();
        a.extend_rows(
            "R",
            2,
            (0..3000i64).map(|i| vec![i.into(), (i % 500).into()]),
        );
        a.extend_rows("S", 2, (0..30i64).map(|i| vec![(i % 10).into(), i.into()]));
        let mut b = Database::new();
        b.extend_rows("R", 2, (0..30i64).map(|i| vec![i.into(), (i % 10).into()]));
        b.extend_rows(
            "S",
            2,
            (0..3000i64).map(|i| vec![(i % 500).into(), i.into()]),
        );

        let pool = Arc::new(WorkerPool::new(1));
        let rules = RuleCacheHandle::default();
        let ctx_a = Evaluator::with_config(a.clone(), pool.clone(), rules.clone(), true);
        let ctx_b = Evaluator::with_config(b.clone(), pool, rules, true);

        let p = Program::parse("Out(x, w) :- R(x, y), S(y, w).").expect("parses");
        let plan_a = ctx_a.explain(&p).expect("explains")[0].clone();
        let plan_b = ctx_b.explain(&p).expect("explains")[0].clone();
        // a: S is tiny → joined first; b: R is tiny → stays first. If the
        // memo served a's plan to b (or vice versa), these would match.
        assert_eq!(plan_a, "Out :- S[scan], R[index [1]]");
        assert_eq!(plan_b, "Out :- R[scan], S[index [0]]");

        // And both still compute the right answer (against a fresh
        // context, which never uses the shared memo).
        for (ctx, db) in [(&ctx_a, &a), (&ctx_b, &b)] {
            assert_eq!(
                ctx.eval(&p).expect("evaluates"),
                Evaluator::new(db.clone()).eval(&p).expect("evaluates")
            );
        }
        // Re-explaining is stable (second lookup is the memo hit path).
        assert_eq!(ctx_a.explain(&p).expect("explains")[0], plan_a);
        assert_eq!(ctx_b.explain(&p).expect("explains")[0], plan_b);
    }

    #[test]
    fn a_repeat_evaluation_compiles_nothing() {
        let ctx = fresh_ctx(&cyclic_edges(20), true);
        let p = Program::parse(TC).expect("parses");
        upkeep::take();
        let first = ctx.eval(&p).expect("evaluates");
        assert_eq!(upkeep::take().rule_builds, 2);
        assert_eq!(ctx.eval(&p).expect("evaluates"), first);
        assert_eq!(upkeep::take().rule_builds, 0);
        // Compilation numbers variables by first occurrence, so renaming
        // them changes nothing the memo keys on.
        let renamed = Program::parse(&TC.replace('x', "a").replace('z', "c")).expect("parses");
        assert_eq!(ctx.eval(&renamed).expect("evaluates"), first);
        assert_eq!(upkeep::take().rule_builds, 0);
    }

    #[test]
    fn memo_keys_tell_apart_rules_that_compile_differently() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (2, 2), (4, 1)] {
            db.insert("R", vec![Value::Int(a), Value::Int(b)]);
            db.insert("S", vec![Value::Int(b), Value::Int(a)]);
        }
        for (rel, a) in [("AB", 1), ("C", 1), ("A", 2), ("BC", 2)] {
            db.insert(rel, vec![Value::Int(a)]);
        }
        // Each program differs from the one before it in one thing the
        // compiled rule depends on; the relation names `AB`/`C` and
        // `A`/`BC` spell the same letters.
        let programs = [
            "Q(x) :- R(x, 1).",
            "Q(x) :- R(x, 2).",
            "Q(x) :- R(x, x).",
            "Q(x) :- R(x, y).",
            "Q(y) :- R(x, y).",
            "Q(x) :- R(x, _), S(x, _).",
            "Q(x) :- R(x, _), !S(x, _).",
            "Q(x) :- R(x, y), S(y, x).",
            "Q(x) :- S(x, y), R(y, x).",
            "Q(x) :- AB(x), C(x).",
            "Q(x) :- A(x), BC(x).",
        ];
        let shared = fresh_ctx(&db, true);
        for src in programs {
            let p = Program::parse(src).expect("parses");
            let fresh = fresh_ctx(&db, true).eval(&p).expect("evaluates");
            assert_eq!(shared.eval(&p).expect("evaluates"), fresh, "{src}");
        }
    }

    #[test]
    fn a_served_query_after_a_batch_compiles_nothing() {
        let program = Program::parse(TC).expect("parses");
        let pool = Arc::new(WorkerPool::new(1));
        let mut served =
            crate::ServedEvaluator::with_config(program, cyclic_edges(50), pool, true).unwrap();
        let bindings = [Some(Value::Int(3)), None];
        let answer = |served: &crate::ServedEvaluator| {
            let mut rows: Vec<Vec<Value>> = served
                .query("Path", &bindings)
                .expect("answers")
                .iter()
                .map(|r| r.to_vec())
                .collect();
            rows.sort();
            rows
        };
        upkeep::take();
        assert_eq!(answer(&served).len(), 50);
        assert!(upkeep::take().rule_builds > 0);
        // One more edge moves the statistics but no planned join order,
        // so the recomputed answer is served entirely from the memo.
        let mut ins = Database::new();
        ins.insert("Edge", vec![Value::Int(3), Value::Int(60)]);
        served.apply_delta(&ins, &Database::new()).expect("applies");
        let after = answer(&served);
        assert_eq!(upkeep::take().rule_builds, 0);
        assert!(after.contains(&vec![Value::Int(3), Value::Int(60)]));
    }

    #[test]
    fn contexts_with_equal_statistics_share_one_compilation() {
        let db = skewed_db();
        let pool = Arc::new(WorkerPool::new(1));
        let rules = RuleCacheHandle::default();
        let a = Evaluator::with_config(db.clone(), pool.clone(), rules.clone(), true);
        let b = Evaluator::with_config(db, pool, rules, true);
        upkeep::take();
        assert_eq!(
            a.eval(&adversarial()).expect("evaluates"),
            b.eval(&adversarial()).expect("evaluates")
        );
        assert_eq!(upkeep::take().rule_builds, 1);
    }

    #[test]
    fn ground_guard_literal_is_hoisted_not_deferred() {
        // Guard(1, 2) shares no variables with the rest of the body, but
        // a fully ground literal matches at most one (deduplicated) row:
        // it must run first as a guard, not last as a per-binding probe.
        let mut db = skewed_db();
        db.extend_rows(
            "Guard",
            2,
            (0..10i64).map(|i| vec![i.into(), (i + 1).into()]),
        );
        let p = Program::parse("Out(x) :- Big(x, y), Mid(y, z), Guard(1, 2).").expect("parses");
        let planned = fresh_ctx(&db, true);
        let plans = planned.explain(&p).expect("explains");
        assert!(plans[0].starts_with("Out :- Guard[scan]"), "{}", plans[0]);
        // Present guard: same result as body order; absent guard: empty.
        let blind = fresh_ctx(&db, false);
        assert_eq!(
            planned.eval(&p).expect("evaluates"),
            blind.eval(&p).expect("evaluates")
        );
        let absent =
            Program::parse("Out(x) :- Big(x, y), Mid(y, z), Guard(2, 2).").expect("parses");
        assert!(planned
            .eval(&absent)
            .expect("evaluates")
            .relation("Out")
            .expect("out")
            .is_empty());
        // A variable-free literal with wildcards is NOT a guard — it can
        // match many rows while binding nothing, so it defers behind the
        // connected chain even though its estimate (400 rows) beats
        // Big's (4000).
        let wild = Program::parse("Out(x) :- Mid(_, _), Big(x, y), Mid(y, z).").expect("parses");
        let plans = planned.explain(&wild).expect("explains");
        assert_eq!(plans[0], "Out :- Mid[scan], Big[index [1]], Mid[scan]");
    }

    #[test]
    fn delta_literal_stays_pinned_outermost() {
        // Recursive rule over a large EDB: the planner may order the
        // remaining literals freely but every delta variant must keep the
        // delta occurrence first (semi-naive correctness depends on it).
        let mut db = Database::new();
        db.extend_rows(
            "Edge",
            2,
            (0..500i64).map(|i| vec![i.into(), ((i + 1) % 500).into()]),
        );
        let p = Program::parse(
            "Path(x, y) :- Edge(x, y).
             Path(x, z) :- Path(x, y), Edge(y, z).",
        )
        .expect("parses");
        let planned = fresh_ctx(&db, true).eval(&p).expect("evaluates");
        let blind = fresh_ctx(&db, false).eval(&p).expect("evaluates");
        assert_eq!(planned, blind);
        assert_eq!(planned.relation("Path").expect("path").len(), 500 * 500);
    }

    #[test]
    fn resolve_reorder_prefers_explicit_request() {
        // Without the env var set (the test environment may set it; in
        // that case the env wins and this test is vacuous), an explicit
        // request decides.
        if env_no_reorder().is_none() {
            assert!(resolve_reorder(None));
            assert!(resolve_reorder(Some(true)));
            assert!(!resolve_reorder(Some(false)));
        }
        // reorder_default and resolve_reorder(None) always agree.
        assert_eq!(reorder_default(), resolve_reorder(None));
    }

    // ---------------------------------------------- resource governance --

    use crate::governor::ResourceLimits;
    use std::time::{Duration, Instant};

    fn ctx_with_threads(db: &Database, threads: usize) -> Evaluator {
        Evaluator::with_config(
            db.clone(),
            Arc::new(WorkerPool::new(threads)),
            RuleCacheHandle::default(),
            true,
        )
    }

    /// Rows per relation in insertion order — `Database` equality is
    /// set-based, so bit-identity (the governance differential contract)
    /// must compare the ordered row sequences explicitly.
    fn ordered_rows(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
        db.iter()
            .map(|(n, r)| {
                (
                    n.to_string(),
                    r.iter().map(|t| t.iter().collect()).collect(),
                )
            })
            .collect()
    }

    fn cyclic_edges(n: i64) -> Database {
        let mut db = Database::new();
        db.extend_rows(
            "Edge",
            2,
            (0..n).map(|i| vec![i.into(), ((i + 1) % n).into()]),
        );
        db
    }

    const TC: &str = "Path(x, y) :- Edge(x, y).
                      Path(x, z) :- Path(x, y), Edge(y, z).";

    #[test]
    fn round_cap_of_one_stops_the_recursive_fixpoint() {
        let _g = fault::test_lock();
        fault::reset();
        let ctx = fresh_ctx(&cyclic_edges(8), true);
        let p = Program::parse(TC).expect("parses");
        let gov = Governor::new(ResourceLimits::none().with_round_cap(1));
        assert_eq!(
            ctx.eval_governed(&p, &gov).unwrap_err(),
            EvalError::RoundCapExceeded { cap: 1 }
        );
        // A generous cap completes and matches the ungoverned run.
        let gov = Governor::new(ResourceLimits::none().with_round_cap(64));
        assert_eq!(
            ordered_rows(&ctx.eval_governed(&p, &gov).expect("in cap")),
            ordered_rows(&ctx.eval(&p).expect("ungoverned"))
        );
        assert!(gov.rounds_started() >= 2);
    }

    #[test]
    fn fact_budget_trips_mid_absorb() {
        let _g = fault::test_lock();
        fault::reset();
        // The 8-node cycle closes to 64 Path facts; a budget of 10 trips
        // partway through absorbing some round's buffer.
        let ctx = fresh_ctx(&cyclic_edges(8), true);
        let p = Program::parse(TC).expect("parses");
        let gov = Governor::new(ResourceLimits::none().with_fact_budget(10));
        assert_eq!(
            ctx.eval_governed(&p, &gov).unwrap_err(),
            EvalError::FactBudgetExceeded { budget: 10 }
        );
        // The trip point is exactly one past the budget, and it is
        // charged only for unique facts.
        assert_eq!(gov.facts_counted(), 11);
        // Within budget (64 unique Path facts) the result is identical.
        let gov = Governor::new(ResourceLimits::none().with_fact_budget(64));
        assert_eq!(
            ordered_rows(&ctx.eval_governed(&p, &gov).expect("in budget")),
            ordered_rows(&ctx.eval(&p).expect("ungoverned"))
        );
        assert_eq!(gov.facts_counted(), 64);
    }

    #[test]
    fn deadline_trips_inside_a_parallel_round() {
        let _g = fault::test_lock();
        fault::reset();
        // A 16M-row cross product: far past the deadline's reach, so the
        // only way this test finishes promptly is the in-job stride poll
        // stopping every partition early (threads=4 fans the outer scan
        // into multiple pool jobs; threads=1 covers the inline path).
        let db = skewed_db();
        let p = Program::parse("Out(x, z) :- Big(x, y), Big(z, w).").expect("parses");
        for threads in [1usize, 4] {
            let ctx = ctx_with_threads(&db, threads);
            let started = Instant::now();
            let gov = Governor::new(ResourceLimits::none().with_timeout(Duration::from_millis(5)));
            assert_eq!(
                ctx.eval_governed(&p, &gov).unwrap_err(),
                EvalError::DeadlineExceeded,
                "threads={threads}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "governed eval did not stop promptly at threads={threads}"
            );
        }
    }

    #[test]
    fn pre_cancelled_governor_rejects_immediately() {
        let _g = fault::test_lock();
        fault::reset();
        let ctx = fresh_ctx(&cyclic_edges(4), true);
        let p = Program::parse(TC).expect("parses");
        let gov = Governor::unlimited();
        gov.cancel();
        assert_eq!(
            ctx.eval_governed(&p, &gov).unwrap_err(),
            EvalError::Cancelled
        );
    }

    #[test]
    fn cancel_from_another_thread_stops_evaluation() {
        let _g = fault::test_lock();
        fault::reset();
        let db = skewed_db();
        let ctx = ctx_with_threads(&db, 4);
        let p = Program::parse("Out(x, z) :- Big(x, y), Big(z, w).").expect("parses");
        let gov = Governor::unlimited();
        let handle = gov.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            handle.cancel();
        });
        let err = ctx.eval_governed(&p, &gov).unwrap_err();
        canceller.join().expect("canceller thread");
        assert_eq!(err, EvalError::Cancelled);
    }

    #[test]
    fn governed_output_is_bit_identical_to_ungoverned() {
        let _g = fault::test_lock();
        fault::reset();
        // Differential over joins, recursion, and negation, at threads=1
        // and threads=4, under limits generous enough never to trip.
        let mut db = cyclic_edges(300);
        db.extend_rows("Node", 1, (0..310i64).map(|i| vec![i.into()]));
        db.insert("Start", vec![0.into()]);
        let programs = [
            TC,
            "Q(x, z) :- Edge(x, y), Edge(y, z).",
            "Reach(x) :- Start(x).
             Reach(y) :- Reach(x), Edge(x, y).
             Unreach(x) :- Node(x), !Reach(x).",
        ];
        let limits = ResourceLimits::none()
            .with_timeout(Duration::from_secs(600))
            .with_fact_budget(10_000_000)
            .with_round_cap(100_000);
        for threads in [1usize, 4] {
            let ctx = ctx_with_threads(&db, threads);
            for src in programs {
                let p = Program::parse(src).expect("parses");
                let ungoverned = ctx.eval(&p).expect("ungoverned");
                let governed = ctx
                    .eval_governed(&p, &Governor::new(limits))
                    .expect("well within limits");
                assert_eq!(
                    ordered_rows(&governed),
                    ordered_rows(&ungoverned),
                    "threads={threads} src={src}"
                );
            }
        }
    }

    #[test]
    fn fault_mid_round_cancel_surfaces_as_cancelled() {
        let _g = fault::test_lock();
        fault::reset();
        let ctx = fresh_ctx(&cyclic_edges(4), true);
        let p = Program::parse(TC).expect("parses");
        fault::arm(fault::MID_ROUND_CANCEL, 1);
        let gov = Governor::unlimited();
        assert_eq!(
            ctx.eval_governed(&p, &gov).unwrap_err(),
            EvalError::Cancelled
        );
        // The counter drained: the next governed run is fault-free.
        let gov = Governor::unlimited();
        assert_eq!(
            ordered_rows(&ctx.eval_governed(&p, &gov).expect("fault drained")),
            ordered_rows(&ctx.eval(&p).expect("ungoverned"))
        );
        fault::reset();
    }

    #[test]
    fn fault_budget_surfaces_as_budget_exceeded() {
        let _g = fault::test_lock();
        fault::reset();
        let ctx = fresh_ctx(&cyclic_edges(4), true);
        let p = Program::parse(TC).expect("parses");
        fault::arm(fault::BUDGET, 1);
        let gov = Governor::unlimited();
        assert!(matches!(
            ctx.eval_governed(&p, &gov).unwrap_err(),
            EvalError::FactBudgetExceeded { .. }
        ));
        fault::reset();
    }

    #[test]
    fn fault_worker_panic_propagates_and_pool_survives() {
        let _g = fault::test_lock();
        fault::reset();
        // Fan out (threads=4, 4000 outer rows) so the injected panic
        // lands on a pool job; the batch must not deadlock and the panic
        // must resume on the caller.
        let db = skewed_db();
        let ctx = ctx_with_threads(&db, 4);
        let p = Program::parse("Out(x) :- Big(x, _).").expect("parses");
        fault::arm(fault::WORKER_PANIC, 1);
        let gov = Governor::unlimited();
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.eval_governed(&p, &gov)));
        assert!(r.is_err(), "injected worker panic must propagate");
        // The same context (and its pool) remain fully usable.
        let gov = Governor::unlimited();
        assert_eq!(
            ordered_rows(&ctx.eval_governed(&p, &gov).expect("pool survives")),
            ordered_rows(&ctx.eval(&p).expect("ungoverned"))
        );
        fault::reset();
    }

    /// A stratum with no delta variant runs one round and writes no
    /// delta relation; a recursive one still keeps its deltas and reaches
    /// the interpreter's fixpoint.
    #[test]
    fn only_recursive_strata_keep_delta_relations() {
        let _g = fault::test_lock();
        fault::reset();
        let mut db = cyclic_edges(40);
        db.extend_rows("Node", 1, (0..45i64).map(|i| vec![i.into()]));
        // Two non-recursive strata: `Lonely` negates `Hop`.
        let flat = Program::parse(
            "Hop(x, z) :- Edge(x, y), Edge(y, z).
             Lonely(x) :- Node(x), !Hop(x, x).",
        )
        .expect("parses");
        let recursive = Program::parse(TC).expect("parses");
        for threads in [1usize, 4] {
            let ctx = ctx_with_threads(&db, threads);
            upkeep::take();
            let gov = Governor::unlimited();
            let out = ctx.eval_governed(&flat, &gov).expect("evaluates");
            assert_eq!(upkeep::take().delta_inserts, 0, "threads={threads}");
            assert_eq!(gov.rounds_started(), 2, "one round per stratum");
            assert_eq!(out.relation("Hop").expect("hop").len(), 40);
            assert_eq!(out.relation("Lonely").expect("lonely").len(), 45);
            assert_eq!(out, crate::legacy::evaluate(&flat, &db).expect("evaluates"));

            let gov = Governor::unlimited();
            let out = ctx.eval_governed(&recursive, &gov).expect("evaluates");
            assert!(upkeep::take().delta_inserts > 0, "threads={threads}");
            assert!(gov.rounds_started() > 2);
            assert_eq!(out.relation("Path").expect("path").len(), 40 * 40);
            let want = crate::legacy::evaluate(&recursive, &db).expect("evaluates");
            assert_eq!(out, want, "threads={threads}");
        }
    }

    /// A panic while a cache lock is held poisons it but leaves its map
    /// whole, so evaluation and edits carry on with the same output.
    #[test]
    fn poisoned_cache_locks_are_recovered() {
        let db = skewed_db();
        let p = adversarial();
        let mut ctx = fresh_ctx(&db, true);
        let want = ordered_rows(&ctx.eval(&p).expect("evaluates"));
        std::thread::scope(|s| {
            let rules = &ctx.rules.inner;
            let indexes = &ctx.indexes;
            let r = s.spawn(move || {
                let _held = rules.write().unwrap();
                panic!("poisons the rule memo");
            });
            assert!(r.join().is_err());
            let i = s.spawn(move || {
                let _held = indexes.write().unwrap();
                panic!("poisons the index cache");
            });
            assert!(i.join().is_err());
        });
        assert!(ctx.rules.inner.is_poisoned() && ctx.indexes.is_poisoned());
        assert_eq!(ordered_rows(&ctx.eval(&p).expect("evaluates")), want);
        // A fresh rule compiles and caches; a fresh index builds.
        let other = Program::parse("Out(x) :- Mid(x, y), Sel(y, 3).").expect("parses");
        let fresh = fresh_ctx(&db, true).eval(&other).expect("evaluates");
        assert_eq!(
            ordered_rows(&ctx.eval(&other).expect("evaluates")),
            ordered_rows(&fresh)
        );
        // The edit path takes the index cache through `get_mut`.
        let mut ins = Database::new();
        ins.insert("Sel", vec![Value::Int(5000), Value::Int(7)]);
        ctx.edit(&ins, &Database::new());
        let mut edited = db.clone();
        edited.insert("Sel", vec![Value::Int(5000), Value::Int(7)]);
        assert_eq!(
            ordered_rows(&ctx.eval(&p).expect("evaluates")),
            ordered_rows(&fresh_ctx(&edited, true).eval(&p).expect("evaluates"))
        );
        ctx.check_indexes();
    }

    #[test]
    fn ungoverned_faults_never_fire() {
        let _g = fault::test_lock();
        fault::reset();
        // Armed faults must not leak into plain (ungoverned) evaluation.
        fault::arm(fault::WORKER_PANIC, 1);
        fault::arm(fault::MID_ROUND_CANCEL, 1);
        fault::arm(fault::BUDGET, 1);
        let db = skewed_db();
        let ctx = ctx_with_threads(&db, 4);
        let p = Program::parse("Out(x) :- Big(x, _).").expect("parses");
        assert!(ctx.eval(&p).is_ok());
        fault::reset();
    }
}
