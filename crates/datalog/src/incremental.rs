//! Incremental view maintenance over a warm evaluator state.
//!
//! [`IncrementalEvaluator`] keeps a Datalog program's output materialized
//! across batches of extensional (EDB) updates. A batch is applied with
//! [`apply_delta`](IncrementalEvaluator::apply_delta), which returns the
//! net change to the derived relations — without re-evaluating the
//! program from scratch.
//!
//! # Algorithm
//!
//! Insertions reuse the engine's semi-naive delta machinery: the batch's
//! genuinely-new facts seed delta rounds against the warm overlay, so
//! only derivations that involve at least one new fact are recomputed.
//! Deletions use **DRed** (delete-and-rederive):
//!
//! 1. **Over-delete** — propagate the deleted facts through the rules
//!    against the *pre-deletion* database, collecting every derived fact
//!    with at least one deleted fact in some derivation. This
//!    over-approximates: a collected fact may have other derivations.
//! 2. **Remove** — physically delete the batch's EDB facts and the
//!    over-deleted derived facts.
//! 3. **Re-derive** — each head `H(h)` of each rule is also compiled as
//!    the rule `H(h) :- H(h), body`. A delta round of these rules whose
//!    outer literal scans `H`'s remaining over-deleted facts emits exactly
//!    those the surviving database still derives; they are reinstated.
//!    Reinstated facts can support further reinstatements, so rounds
//!    repeat per stratum while one reinstates anything. Because
//!    re-derivation joins against the final surviving state directly,
//!    reinstated facts need no extra insert-propagation pass.
//! 4. **Insert** — apply the batch's insertions and run semi-naive delta
//!    rounds seeded from them.
//!
//! The maintained output is *set-identical* to a from-scratch evaluation
//! of the mutated EDB after every batch — the differential tests in
//! `tests/incremental.rs` pin this at multiple thread counts, with and
//! without the cost-based planner.
//!
//! DRed was chosen over counting-based maintenance because the engine's
//! stores are sets: tracking multiplicities would tax the non-incremental
//! fixpoint's hottest path (every `absorb` insert) for the benefit of the
//! maintenance path only, and recursive rules make exact counts expensive
//! to maintain. DRed pays its cost only when deletions actually cascade.
//!
//! # Warm-state invariants
//!
//! - The EDB snapshot and the derived-fact overlay (`IdbState`) persist
//!   across batches, and so do both sides' join indexes: inserts append
//!   their row ids, and removals (swap-remove) repair only the removed
//!   and the moved rows. A batch's index work is O(batch); no index is
//!   rebuilt after warm-up.
//! - Programs with negation fall back to full re-evaluation plus output
//!   diffing — DRed's over-delete is unsound under negation (removing a
//!   fact can *add* derivations). The public contract is unchanged.
//! - A governed batch that trips a resource limit leaves the maintainer
//!   **poisoned**: the EDB is rolled back to its pre-batch state (a
//!   failed batch is atomic), but the overlay may hold partial work. The
//!   next call (or [`output`](IncrementalEvaluator::output)) rebuilds the
//!   overlay by full evaluation before proceeding.
//!
//! # Governor interaction
//!
//! Maintenance rounds run through the same engine entry points as full
//! evaluation, so a [`Governor`] passed to
//! [`apply_delta_governed`](IncrementalEvaluator::apply_delta_governed)
//! observes them identically: every over-deletion, re-derivation and
//! insertion round is charged against the round cap, facts the insertion
//! rounds derive are charged against the fact budget, and the
//! deadline/cancel flags are polled at the same strides. Reinstated
//! facts are not charged to the fact budget: they were in the output
//! before the batch.

use std::collections::HashMap;
use std::sync::Arc;

use dynamite_instance::hash::FxHashMap;
use dynamite_instance::{Database, Relation, Value};

use crate::ast::{Literal, Program, Rule};
use crate::engine::{
    CompiledRule, CostModel, Evaluator, IdbState, JoinRoundOutput, PlanOrders, RuleCacheHandle,
    Spec,
};
use crate::eval::{check_arities, check_delta, present_rows, rule_stratum, stratify, EvalError};
use crate::fault;
use crate::governor::Governor;
use crate::pool::{self, WorkerPool};
use crate::query::{filter_rows, query_shape};

/// The net change to the derived (intensional) relations produced by one
/// [`IncrementalEvaluator::apply_delta`] batch.
///
/// Only *net* changes appear: a fact deleted and re-derived within the
/// same batch is in neither side. Relations with no changes are omitted.
/// The extensional change is the caller's own input and is not repeated
/// here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputDelta {
    /// Derived facts that are in the output now but were not before.
    pub inserted: Database,
    /// Derived facts that were in the output before but are not now.
    pub deleted: Database,
}

impl OutputDelta {
    /// Whether the batch changed no derived facts.
    pub fn is_empty(&self) -> bool {
        self.inserted.num_facts() == 0 && self.deleted.num_facts() == 0
    }
}

/// One relation's divergence between the maintained overlay and a
/// from-scratch re-evaluation, as found by
/// [`IncrementalEvaluator::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDrift {
    /// The derived relation that diverged.
    pub relation: String,
    /// Rows a from-scratch evaluation derives that the overlay lost.
    pub missing: u64,
    /// Rows the overlay holds that a from-scratch evaluation refutes.
    pub extra: u64,
}

/// The maintained overlay no longer equals what full evaluation derives
/// — silent corruption the WAL/checkpoint machinery cannot see (it
/// faithfully persists whatever the overlay says). Returned by
/// [`IncrementalEvaluator::audit`]; erased by
/// [`IncrementalEvaluator::repair`].
///
/// The comparison is **set**-wise per relation: a row-order difference
/// alone is not drift (maintained insertion order legitimately differs
/// from fixpoint order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftError {
    /// Every diverged relation, name-ascending.
    pub relations: Vec<RelationDrift>,
}

impl std::fmt::Display for DriftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "maintained overlay drifted from re-evaluation:")?;
        for d in &self.relations {
            write!(f, " {}(-{} +{})", d.relation, d.missing, d.extra)?;
        }
        Ok(())
    }
}

/// The drift between a maintained `overlay` and a from-scratch `scratch`
/// output, or `None` when they hold the same fact sets.
fn drift_between(overlay: &Database, scratch: &Database) -> Option<DriftError> {
    let d = diff(overlay, scratch);
    if d.is_empty() {
        return None;
    }
    let mut by_rel: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for (name, rel) in d.inserted.iter() {
        by_rel.entry(name.to_string()).or_default().0 = rel.len() as u64;
    }
    for (name, rel) in d.deleted.iter() {
        by_rel.entry(name.to_string()).or_default().1 = rel.len() as u64;
    }
    Some(DriftError {
        relations: by_rel
            .into_iter()
            .map(|(relation, (missing, extra))| RelationDrift {
                relation,
                missing,
                extra,
            })
            .collect(),
    })
}

/// A materialized Datalog output maintained incrementally under
/// extensional updates. See the [module docs](self) for the algorithm.
///
/// ```
/// use dynamite_datalog::{IncrementalEvaluator, Program};
/// use dynamite_instance::Database;
///
/// let program = Program::parse(
///     "Path(x, y) :- Edge(x, y).
///      Path(x, z) :- Path(x, y), Edge(y, z).",
/// )
/// .unwrap();
/// let mut edb = Database::new();
/// edb.insert("Edge", vec![1.into(), 2.into()]);
/// edb.insert("Edge", vec![2.into(), 3.into()]);
/// let mut inc = IncrementalEvaluator::new(program, edb).unwrap();
/// assert_eq!(inc.output().relation("Path").unwrap().len(), 3);
///
/// // Retract Edge(2, 3): Path(2, 3) and Path(1, 3) disappear.
/// let mut dels = Database::new();
/// dels.insert("Edge", vec![2.into(), 3.into()]);
/// let delta = inc.apply_delta(&Database::new(), &dels).unwrap();
/// assert_eq!(delta.deleted.relation("Path").unwrap().len(), 2);
/// assert_eq!(inc.output().relation("Path").unwrap().len(), 1);
/// ```
pub struct IncrementalEvaluator {
    program: Program,
    /// Stratum of every intensional relation (the key set *is* the IDB).
    strata: HashMap<String, usize>,
    max_stratum: usize,
    /// Arity of every program-referenced relation.
    arities: HashMap<String, usize>,
    /// Intensional `(name, arity)` pairs grouped by stratum — the delta
    /// maps of insertion rounds are pre-populated from these (`absorb`
    /// records only into existing entries).
    stratum_rels: Vec<Vec<(String, usize)>>,
    /// Maintenance-compiled rules: a delta variant per *positive
    /// occurrence* (extensional and lower-stratum ones included), unlike
    /// the evaluation path's same-stratum-only variants. Compiled
    /// privately — never exchanged with the shared rule memo.
    compiled: Vec<CompiledRule>,
    /// Re-derivation rules, `H(h) :- H(h), body` per head `H(h)` of every
    /// rule, compiled like `compiled`; empty for programs with negation.
    rederive: Vec<CompiledRule>,
    /// The EDB side: the extensional snapshot with its join indexes, the
    /// pool and the planner switch.
    ev: Evaluator,
    idb: IdbState,
    has_negation: bool,
    /// Set while the overlay may be inconsistent (failed governed batch);
    /// cleared by `refresh`.
    poisoned: bool,
}

/// Compiles `program`'s maintenance rules, planned against `ev`'s
/// current statistics when its planner is on: the rules themselves, and —
/// unless the program negates — the re-derivation rules. Both sets come
/// from one call, so every replan keeps them in step.
///
/// The re-derivation rule of head `H(h)` of rule `heads :- body` is
/// `H(h) :- H(h), body`. Only its delta variant on the leading `H(h)`
/// copy is kept: fed the over-deleted facts of `H`, it emits exactly those
/// the surviving database still derives.
fn compile_maintenance(
    program: &Program,
    strata: &HashMap<String, usize>,
    ev: &Evaluator,
    has_negation: bool,
) -> (Vec<CompiledRule>, Vec<CompiledRule>) {
    let model = ev.reorder().then_some(CostModel {
        edb: ev.database(),
        demand: None,
    });
    let compile = |r: &Rule| {
        let orders = PlanOrders::of_maintenance(r, strata, model.as_ref());
        CompiledRule::compile(r, rule_stratum(r, strata), &orders)
    };
    let compiled = program.rules.iter().map(compile).collect();
    let rederive = if has_negation {
        Vec::new()
    } else {
        let per_head = program.rules.iter().flat_map(|r| {
            r.heads.iter().map(|h| Rule {
                heads: vec![h.clone()],
                body: std::iter::once(Literal::pos(h.clone()))
                    .chain(r.body.iter().cloned())
                    .collect(),
            })
        });
        per_head
            .map(|r| {
                let mut c = compile(&r);
                c.deltas.truncate(1);
                c
            })
            .collect()
    };
    (compiled, rederive)
}

impl IncrementalEvaluator {
    /// Evaluates `program` over `edb` and keeps the result maintained.
    ///
    /// Uses the `DYNAMITE_THREADS` / `DYNAMITE_NO_REORDER` environment
    /// defaults; [`with_config`](IncrementalEvaluator::with_config) takes
    /// them explicitly.
    pub fn new(program: Program, edb: Database) -> Result<IncrementalEvaluator, EvalError> {
        IncrementalEvaluator::with_config(
            program,
            edb,
            pool::with_threads(None),
            crate::engine::reorder_default(),
        )
    }

    /// [`new`](IncrementalEvaluator::new) with an explicit worker pool
    /// and planner mode.
    pub fn with_config(
        program: Program,
        edb: Database,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<IncrementalEvaluator, EvalError> {
        let mut this = IncrementalEvaluator::assemble(program, edb, pool, reorder)?;
        this.refresh(None)?;
        Ok(this)
    }

    /// Compiles and wires every persistent part *except* the derived
    /// overlay, which is left empty and poisoned. [`with_config`]
    /// materializes it by full evaluation; [`from_parts`] installs a
    /// previously checkpointed overlay instead.
    ///
    /// [`with_config`]: IncrementalEvaluator::with_config
    /// [`from_parts`]: IncrementalEvaluator::from_parts
    fn assemble(
        program: Program,
        edb: Database,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<IncrementalEvaluator, EvalError> {
        program.check_well_formed()?;
        let arities: HashMap<String, usize> = check_arities(&program, &edb)?
            .into_iter()
            .map(|(name, arity)| (name.to_string(), arity))
            .collect();
        let idb: Vec<&str> = program.intensional().into_iter().collect();
        let strata = stratify(&program, &idb)?;
        let max_stratum = strata.values().copied().max().unwrap_or(0);
        let has_negation = program
            .rules
            .iter()
            .any(|r| r.body.iter().any(|l| l.negated));

        // Plan against the initial statistics. The snapshot's stats drift
        // as batches land (like any warm context's would); plans stay
        // valid — only their cost estimates age.
        let ev = Evaluator::with_config(edb, pool, RuleCacheHandle::default(), reorder);
        let (compiled, rederive) = compile_maintenance(&program, &strata, &ev, has_negation);

        let stratum_rels: Vec<Vec<(String, usize)>> = (0..=max_stratum)
            .map(|s| {
                idb.iter()
                    .filter(|r| strata.get(**r).copied() == Some(s))
                    .map(|r| (r.to_string(), arities[*r]))
                    .collect()
            })
            .collect();

        Ok(IncrementalEvaluator {
            program,
            strata,
            max_stratum,
            arities,
            stratum_rels,
            compiled,
            rederive,
            ev,
            idb: IdbState::from_database(Database::new()),
            has_negation,
            poisoned: true,
        })
    }

    /// Reconstructs a maintainer from a checkpointed `(program, edb,
    /// overlay)` triple **without re-evaluating the program** — the
    /// durability layer's recovery constructor. The caller asserts that
    /// `overlay` is exactly the derived output of `program` over `edb`
    /// (checkpoints record precisely that); nothing here re-verifies it.
    ///
    /// The overlay is validated structurally: every relation it names
    /// must be intensional with the program's arity (a mismatch means the
    /// checkpoint is corrupt or from a different program — recovery maps
    /// the error to "corrupt, fall back"). Intensional relations *absent*
    /// from the overlay are created empty: the maintenance rounds'
    /// `absorb` requires every head relation to exist.
    ///
    /// Join plans are computed from the restored EDB's statistics, which
    /// equal the checkpointing process's — statistics are a function of
    /// the current distinct-value set, and the codec round-trips values
    /// exactly. (Cross-process, `Str` statistics can still differ through
    /// interner layout; see `durable`'s module docs for the determinism
    /// contract.)
    pub(crate) fn from_parts(
        program: Program,
        edb: Database,
        overlay: Database,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<IncrementalEvaluator, EvalError> {
        let mut this = IncrementalEvaluator::assemble(program, edb, pool, reorder)?;
        for (name, rel) in overlay.iter() {
            match this.strata.get(name) {
                None => {
                    return Err(EvalError::IntensionalDelta {
                        relation: name.to_string(),
                    })
                }
                Some(_) => {
                    let expected = this.arities[name];
                    if rel.arity() != expected {
                        return Err(EvalError::InputArity {
                            relation: name.to_string(),
                            expected,
                            got: rel.arity(),
                        });
                    }
                }
            }
        }
        let mut idb = IdbState::from_database(overlay);
        for rels in &this.stratum_rels {
            for (name, arity) in rels {
                idb.ensure_relation(name, *arity);
            }
        }
        this.idb = idb;
        this.poisoned = false;
        Ok(this)
    }

    /// Recomputes the join plans from the *current* EDB statistics.
    ///
    /// Plans are normally computed once at construction and allowed to
    /// age as batches land. The durability layer calls this at every
    /// checkpoint so that the live maintainer's plans equal the plans a
    /// recovery from that checkpoint would compute — the root of the
    /// bit-identical-recovery guarantee under the cost-based planner.
    pub(crate) fn replan(&mut self) {
        (self.compiled, self.rederive) =
            compile_maintenance(&self.program, &self.strata, &self.ev, self.has_negation);
    }

    /// The maintained program (the durability layer serializes its text).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The maintained extensional database (post all applied batches).
    pub fn edb(&self) -> &Database {
        self.ev.database()
    }

    /// Whether the derived overlay is in the degraded (poisoned) state: a
    /// previous governed batch failed (or panicked) mid-maintenance, so
    /// the next batch — or the next [`output`] call — first pays a full
    /// re-evaluation to rebuild the overlay. The EDB itself is never
    /// degraded: failed batches roll it back atomically.
    ///
    /// Service callers use this to observe that the next operation will
    /// be expensive (and, say, schedule it off-peak) — the state is
    /// otherwise self-healing.
    ///
    /// [`output`]: IncrementalEvaluator::output
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// A materialized copy of the maintained derived relations.
    ///
    /// If a previous governed batch failed, this first rebuilds the
    /// overlay by (ungoverned) full evaluation.
    pub fn output(&mut self) -> Database {
        if self.poisoned {
            self.refresh(None).expect(
                "ungoverned refresh cannot fail: the program was validated at construction",
            );
        }
        self.idb.to_database()
    }

    /// Answers the point query `relation(bindings)` from the maintained
    /// overlay: its rows matching every bound position, with
    /// [`Evaluator::query`](crate::Evaluator::query)'s answer contract
    /// (typed arity error, empty answer for relations the program does not
    /// derive). Set-identical to full-evaluate-then-filter; rows come in
    /// overlay order. Runs no fixpoint unless the overlay is poisoned, in
    /// which case it is rebuilt first, as [`output`] documents.
    ///
    /// [`output`]: IncrementalEvaluator::output
    pub(crate) fn query(
        &mut self,
        relation: &str,
        bindings: &[Option<Value>],
    ) -> Result<Relation, EvalError> {
        let arity = self.arities.get(relation).copied();
        if !query_shape(
            relation,
            bindings,
            arity,
            self.strata.contains_key(relation),
        )? {
            return Ok(Relation::new_untracked(bindings.len()));
        }
        if self.poisoned {
            self.refresh(None)?;
        }
        Ok(filter_rows(self.idb.relation(relation), bindings))
    }

    /// Applies one batch of extensional updates and returns the net
    /// change to the derived relations.
    ///
    /// Deletions are applied before insertions; a fact in both batches
    /// ends up present. Deleting an absent fact or inserting a present
    /// one is a no-op. Both batches may only name extensional relations
    /// ([`EvalError::IntensionalDelta`] otherwise), with arities matching
    /// the program's usage and the current database.
    pub fn apply_delta(
        &mut self,
        inserts: &Database,
        deletes: &Database,
    ) -> Result<OutputDelta, EvalError> {
        self.apply(inserts, deletes, None)
    }

    /// [`apply_delta`](IncrementalEvaluator::apply_delta) under
    /// cooperative resource limits. On `Err` the EDB is unchanged (the
    /// batch is atomic) but the maintainer is poisoned: the next batch
    /// first rebuilds the overlay by full (governed) evaluation.
    pub fn apply_delta_governed(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: &Governor,
    ) -> Result<OutputDelta, EvalError> {
        self.apply(inserts, deletes, Some(gov))
    }

    /// Verifies the maintained overlay against a from-scratch
    /// re-evaluation of the current EDB, **without modifying anything**
    /// (a poisoned overlay is rebuilt first — it is *known* stale, and
    /// rebuilding is its documented self-healing path). Returns
    /// [`EvalError::Drift`] when the fact sets diverge — the one failure
    /// mode (a maintenance bug, a stray bit flip in overlay memory) that
    /// no checksum on the persistence path can catch, because the
    /// persistence path faithfully records whatever the overlay claims.
    pub fn audit(&mut self) -> Result<(), EvalError> {
        if self.poisoned {
            self.refresh(None)?;
        }
        let scratch = self.full_eval_database(None)?;
        match drift_between(&self.idb.to_database(), &scratch) {
            None => Ok(()),
            Some(drift) => Err(EvalError::Drift(drift)),
        }
    }

    /// Rebuilds the overlay from scratch, erasing any drift, and reports
    /// the drift that was present (`None` when the overlay was already
    /// correct). The EDB is untouched — drift is an *overlay* disease.
    pub fn repair(&mut self) -> Result<Option<DriftError>, EvalError> {
        if self.poisoned {
            // Known-stale overlay: the rebuild is the ordinary healing
            // path, and comparing against poisoned garbage would report
            // phantom drift.
            self.refresh(None)?;
            return Ok(None);
        }
        let scratch = self.full_eval_database(None)?;
        let drift = drift_between(&self.idb.to_database(), &scratch);
        self.idb = IdbState::from_database(scratch);
        Ok(drift)
    }

    /// Fault-injection support ([`fault::DRIFT`]): silently removes one
    /// derived row from the overlay — the first row of the
    /// lexicographically first non-empty derived relation, so the damage
    /// is deterministic. Models the corruption class `audit` exists for.
    fn inject_drift(&mut self) {
        let mut names: Vec<&String> = self.strata.keys().collect();
        names.sort();
        for name in names {
            let Some(rel) = self.idb.relation(name) else {
                continue;
            };
            let Some(row) = rel.iter().next() else {
                continue;
            };
            let row: Vec<Value> = row.iter().collect();
            let name = name.clone();
            self.idb.remove_rows(&name, [row]);
            return;
        }
    }

    fn apply(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: Option<&Governor>,
    ) -> Result<OutputDelta, EvalError> {
        if let Some(gov) = gov {
            gov.check()?;
        }
        check_delta(&self.program, self.ev.database(), inserts, deletes)?;
        if self.poisoned {
            // A previous governed batch tripped mid-maintenance: its EDB
            // mutations were rolled back, but the overlay may hold
            // partial work. Rebuild before trusting it again.
            self.refresh(gov)?;
        }
        // Poison on entry, clear on success: if maintenance *panics*
        // (worker panic propagated through the pool) and the caller
        // catches the unwind, the overlay must already read as degraded —
        // an `Err`-path flag set after the fact would never run.
        self.poisoned = true;
        let result = if self.has_negation {
            self.apply_fallback(inserts, deletes, gov)
        } else {
            self.apply_dred(inserts, deletes, gov)
        };
        if result.is_ok() {
            self.poisoned = false;
            if fault::fire(fault::DRIFT) {
                self.inject_drift();
            }
        }
        result
    }

    /// Rebuilds the overlay by full evaluation of the current EDB.
    fn refresh(&mut self, gov: Option<&Governor>) -> Result<(), EvalError> {
        self.idb = IdbState::from_database(self.full_eval_database(gov)?);
        self.poisoned = false;
        Ok(())
    }

    // ---------------------------------------------------------- DRed --

    fn apply_dred(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: Option<&Governor>,
    ) -> Result<OutputDelta, EvalError> {
        // Seed: the deleted extensional facts actually present.
        let seeds = present_rows(self.ev.database(), deletes);

        // Phase 1 (read-only): over-delete derived consequences against
        // the pre-deletion database.
        let mut over = if seeds.num_facts() == 0 {
            FxHashMap::default()
        } else {
            self.dred_overdelete(&seeds, gov)?
        };

        // Phase 2 (infallible): physical removal.
        let mut edit = self.ev.edit(&Database::new(), &seeds);
        for (name, dels) in &over {
            self.idb
                .remove_rows(name, dels.iter().map(|row| row.to_vec()));
        }

        // Phases 3–5, with the EDB rolled back on error so a failed
        // governed batch never leaves a half-applied database.
        let tail = self.dred_rederive(&mut over, gov).and_then(|()| {
            edit.added = self.ev.edit(inserts, &Database::new()).added;
            self.dred_insert(&edit.added, &mut over, gov)
        });
        match tail {
            Ok(added) => {
                let inserted =
                    Database::from_relations(added.into_iter().filter(|(_, r)| !r.is_empty()));
                let deleted =
                    Database::from_relations(over.into_iter().filter(|(_, r)| !r.is_empty()));
                Ok(OutputDelta { inserted, deleted })
            }
            Err(e) => {
                self.ev.undo(&edit);
                Err(e)
            }
        }
    }

    /// DRed phase 1: propagates `edb_dels` through the rules against the
    /// pre-deletion database, returning all over-deleted derived facts.
    /// Read-only: the overlay is only consulted (a derived fact not
    /// currently in the output cannot be retracted).
    fn dred_overdelete(
        &mut self,
        edb_dels: &Database,
        gov: Option<&Governor>,
    ) -> Result<FxHashMap<String, Relation>, EvalError> {
        let mut over: FxHashMap<String, Relation> = FxHashMap::default();
        let run = self.ev.run(gov, None);
        for s in 0..=self.max_stratum {
            // Round 1 of each stratum seeds from every deletion so far
            // (the EDB seeds plus lower strata's over-deletions); later
            // rounds propagate only the previous round's fresh ones.
            let mut fresh: Option<FxHashMap<String, Relation>> = None;
            loop {
                let specs = match &fresh {
                    None => delta_specs(&self.compiled, s, |n| {
                        edb_dels.relation(n).or_else(|| over.get(n))
                    }),
                    Some(f) => delta_specs(&self.compiled, s, |n| f.get(n)),
                };
                if specs.is_empty() {
                    break;
                }
                let batch = owned_facts(run.join_round(&specs, &mut self.idb)?);
                drop(specs);
                let mut next: FxHashMap<String, Relation> = FxHashMap::default();
                for (rel, tuple) in batch {
                    // Only facts currently in the output can be retracted.
                    if !self.idb.relation(&rel).is_some_and(|r| r.contains(&tuple)) {
                        continue;
                    }
                    let entry = over
                        .entry(rel.clone())
                        .or_insert_with(|| Relation::new_untracked(tuple.len()));
                    if entry.insert(&tuple) {
                        next.entry(rel)
                            .or_insert_with(|| Relation::new_untracked(tuple.len()))
                            .insert(&tuple);
                    }
                }
                if next.is_empty() {
                    break;
                }
                fresh = Some(next);
            }
        }
        Ok(over)
    }

    /// DRed phase 3: reinstates every over-deleted fact that still has a
    /// derivation from the surviving database, removing it from `over`.
    /// Each round runs the re-derivation rules of one stratum over that
    /// stratum's remaining over-deleted facts, through the engine's join;
    /// rounds repeat while one reinstates anything (a reinstated fact can
    /// support another). Strata ascend: bodies only reference strata ≤
    /// the head's.
    fn dred_rederive(
        &mut self,
        over: &mut FxHashMap<String, Relation>,
        gov: Option<&Governor>,
    ) -> Result<(), EvalError> {
        if over.is_empty() {
            return Ok(());
        }
        let run = self.ev.run(gov, None);
        for s in 0..=self.max_stratum {
            loop {
                let specs = delta_specs(&self.rederive, s, |n| over.get(n));
                if specs.is_empty() {
                    break;
                }
                let batch = owned_facts(run.join_round(&specs, &mut self.idb)?);
                drop(specs);
                let mut reinstated = false;
                for (rel, tuple) in batch {
                    if over.get_mut(&rel).is_some_and(|o| o.remove(&tuple)) {
                        self.idb.insert(&rel, &tuple);
                        reinstated = true;
                    }
                }
                if !reinstated {
                    break;
                }
            }
        }
        Ok(())
    }

    /// DRed phases 4–5: semi-naive delta rounds seeded from the batch's
    /// genuinely-new EDB rows (`applied_ins`, already in the EDB).
    /// Returns the net-added derived facts; facts re-derived after being
    /// net-deleted are removed from `over` instead (net zero).
    fn dred_insert(
        &mut self,
        applied_ins: &Database,
        over: &mut FxHashMap<String, Relation>,
        gov: Option<&Governor>,
    ) -> Result<FxHashMap<String, Relation>, EvalError> {
        let mut added: FxHashMap<String, Relation> = FxHashMap::default();
        if applied_ins.num_facts() == 0 {
            return Ok(added);
        }
        // The cumulative delta: joined-against facts for round 1 of each
        // stratum. Non-delta body positions read the post-insertion
        // database directly, so pairing a new fact with another new fact
        // is covered (and deduplicated) without delta-delta rounds.
        let mut accum: FxHashMap<String, Relation> = applied_ins
            .iter()
            .map(|(n, r)| (n.to_string(), r.clone()))
            .collect();
        let run = self.ev.run(gov, None);
        for s in 0..=self.max_stratum {
            let mut prev: Option<FxHashMap<String, Relation>> = None;
            loop {
                let specs = delta_specs(&self.compiled, s, |n| {
                    prev.as_ref().unwrap_or(&accum).get(n)
                });
                if specs.is_empty() {
                    break;
                }
                let mut fresh: FxHashMap<String, Relation> = self.stratum_rels[s]
                    .iter()
                    .map(|(n, a)| (n.clone(), Relation::new_untracked(*a)))
                    .collect();
                let any = run.eval_round(&specs, &mut self.idb, &mut fresh)?;
                drop(specs);
                if !any {
                    break;
                }
                for (name, d) in &fresh {
                    if d.is_empty() {
                        continue;
                    }
                    let mut o = over.get_mut(name.as_str());
                    let a = added
                        .entry(name.clone())
                        .or_insert_with(|| Relation::new_untracked(d.arity()));
                    let acc = accum
                        .entry(name.clone())
                        .or_insert_with(|| Relation::new_untracked(d.arity()));
                    for r in d.iter() {
                        let row: Vec<Value> = r.iter().collect();
                        // Re-deriving a net-deleted fact cancels out.
                        let resurrected = o.as_ref().is_some_and(|o| o.contains(&row));
                        if resurrected {
                            o.as_deref_mut().expect("checked above").remove(&row);
                        } else {
                            a.insert(&row);
                        }
                        acc.insert_row(r);
                    }
                }
                prev = Some(fresh);
            }
        }
        Ok(added)
    }

    // ------------------------------------------------ negation fallback --

    /// Maintenance under negation: apply the EDB mutations, re-evaluate
    /// from scratch, and diff the outputs. Same public contract, none of
    /// DRed's savings — stratified-negation-aware retraction is future
    /// work (see `DESIGN.md`).
    fn apply_fallback(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: Option<&Governor>,
    ) -> Result<OutputDelta, EvalError> {
        let edit = self.ev.edit(inserts, deletes);
        let old = self.idb.to_database();
        match self.full_eval_database(gov) {
            Ok(new) => {
                let delta = diff(&old, &new);
                self.idb = IdbState::from_database(new);
                Ok(delta)
            }
            Err(e) => {
                // Roll the EDB back: the failed batch is atomic.
                self.ev.undo(&edit);
                Err(e)
            }
        }
    }

    fn full_eval_database(&mut self, gov: Option<&Governor>) -> Result<Database, EvalError> {
        self.ev.run(gov, None).eval(&self.program)
    }
}

/// One round's specs for stratum `s`: every delta variant of the
/// stratum's rules whose delta relation has rows in `delta`. DRed's
/// over-delete, re-derive and insert rounds share it.
fn delta_specs<'r>(
    compiled: &'r [CompiledRule],
    s: usize,
    delta: impl Fn(&str) -> Option<&'r Relation>,
) -> Vec<Spec<'r>> {
    let delta = &delta;
    compiled
        .iter()
        .filter(|c| c.stratum == s)
        .flat_map(|rule| {
            rule.deltas.iter().filter_map(move |dv| {
                let d = delta(&dv.relation)?;
                (!d.is_empty()).then_some((rule, &dv.variant, Some(d)))
            })
        })
        .collect()
}

/// A join round's emitted facts as owned `(relation, tuple)` pairs. The
/// round's output borrows its specs, and through them `over`, so DRed
/// buffers the facts before editing `over`.
fn owned_facts(per_job: JoinRoundOutput<'_>) -> Vec<(String, Vec<Value>)> {
    per_job
        .into_iter()
        .flat_map(|(rule, derived)| {
            derived
                .into_iter()
                .map(|(head_idx, tuple)| (rule.head(head_idx).to_string(), tuple))
        })
        .collect()
}

/// Set difference of two outputs, relation by relation.
fn diff(old: &Database, new: &Database) -> OutputDelta {
    let mut inserted = Database::new();
    let mut deleted = Database::new();
    for (name, nrel) in new.iter() {
        let orel = old.relation(name);
        for row in nrel.iter() {
            if !orel.is_some_and(|o| o.contains_row(row)) {
                inserted.relation_mut(name, nrel.arity()).insert_row(row);
            }
        }
    }
    for (name, orel) in old.iter() {
        let nrel = new.relation(name);
        for row in orel.iter() {
            if !nrel.is_some_and(|n| n.contains_row(row)) {
                deleted.relation_mut(name, orel.arity()).insert_row(row);
            }
        }
    }
    OutputDelta { inserted, deleted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::upkeep::{self, Cached, Work};
    use crate::governor::ResourceLimits;
    use crate::query::ServedEvaluator;

    /// Joins on every EDB relation, recursion through the overlay, and
    /// `Tag`, which starts empty.
    const PROGRAM: &str = "
        Path(x, y) :- Edge(x, y).
        Path(x, z) :- Path(x, y), Edge(y, z).
        Named(x, n) :- Node(x, n), Edge(x, _).
        Tagged(n, t) :- Tag(x, t), Node(x, n).
    ";

    /// A seeded xorshift stream; `pick(m)` is uniform-ish in `0..m`.
    struct Rng(u64);

    impl Rng {
        fn pick(&mut self, m: u64) -> i64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % m) as i64
        }
    }

    fn fact(rng: &mut Rng, rel: &str) -> Vec<Value> {
        let node = |rng: &mut Rng| Value::Int(rng.pick(10));
        match rel {
            "Edge" => vec![node(rng), node(rng)],
            "Node" => vec![node(rng), Value::Int(100 + rng.pick(4))],
            _ => vec![node(rng), Value::Int(200 + rng.pick(3))],
        }
    }

    fn start_edb(rng: &mut Rng) -> Database {
        let mut edb = Database::new();
        edb.relation_mut("Tag", 2);
        for _ in 0..25 {
            let f = fact(rng, "Edge");
            edb.insert("Edge", f);
            let f = fact(rng, "Node");
            edb.insert("Node", f);
        }
        edb
    }

    /// One random batch against `edb`: inserts and deletes on every
    /// relation, plus one present fact both deleted and re-inserted.
    fn batch(rng: &mut Rng, edb: &Database) -> (Database, Database) {
        let (mut ins, mut dels) = (Database::new(), Database::new());
        for rel in ["Edge", "Node", "Tag"] {
            for _ in 0..rng.pick(4) {
                ins.insert(rel, fact(rng, rel));
            }
            let Some(cur) = edb.relation(rel).filter(|r| !r.is_empty()) else {
                continue;
            };
            for _ in 0..rng.pick(4) {
                let row = cur.get(rng.pick(cur.len() as u64) as usize).unwrap();
                dels.insert(rel, row.to_vec());
            }
        }
        let edges = edb.relation("Edge").unwrap();
        let both = edges.get(rng.pick(edges.len() as u64) as usize).unwrap();
        dels.insert("Edge", both.to_vec());
        ins.insert("Edge", both.to_vec());
        (ins, dels)
    }

    /// The number of `now` entries absent from `before`, after asserting
    /// that every entry of `before` survives with the same index (same
    /// `Arc` allocation): nothing cached was dropped or rebuilt.
    fn new_entries<K: Ord + std::fmt::Debug>(before: &[K], now: &[K]) -> usize {
        for k in before {
            assert!(
                now.binary_search(k).is_ok(),
                "cached index {k:?} was replaced"
            );
        }
        now.len() - before.len()
    }

    #[test]
    fn maintained_indexes_equal_fresh_builds_and_are_never_rebuilt() {
        let program = Program::parse(PROGRAM).unwrap();
        let mut rng = Rng(0x5eed_1dec_0de5_f00d);
        let edb = start_edb(&mut rng);
        let pool = pool::with_threads(Some(1));
        let mut inc =
            IncrementalEvaluator::with_config(program, edb, pool, true).expect("valid program");
        upkeep::take();
        let (mut edb_before, mut overlay_before): (Cached, Vec<_>) = (Vec::new(), Vec::new());
        for b in 0..80 {
            let (ins, dels) = batch(&mut rng, inc.edb());
            if b == 40 {
                // A governed trip after the deletions landed: DRed's
                // insert rounds exceed the fact budget, so the edit is
                // undone through `EdbEdit::undo`.
                let mut ins = ins.clone();
                for x in 0..10 {
                    ins.insert("Edge", vec![Value::Int(x), Value::Int(x + 50)]);
                }
                let edb_rows = inc.edb().clone();
                let gov = Governor::new(ResourceLimits::none().with_fact_budget(1));
                assert!(inc.apply_delta_governed(&ins, &dels, &gov).is_err());
                assert_eq!(
                    inc.edb(),
                    &edb_rows,
                    "a failed batch leaves the EDB as it was"
                );
            } else {
                inc.apply_delta(&ins, &dels).expect("batch applies");
            }
            let work = upkeep::take();
            let edb_now = inc.ev.check_indexes();
            if b >= 10 {
                assert_eq!(
                    work.edb_builds,
                    new_entries(&edb_before, &edb_now),
                    "batch {b}: an EDB index was rebuilt"
                );
            }
            edb_before = edb_now;
            if inc.poisoned {
                continue; // batch 41 rebuilds the overlay wholesale
            }
            let overlay_now = upkeep::check_overlay(&inc.idb);
            if b >= 10 && b != 41 {
                assert_eq!(
                    work.overlay_builds,
                    new_entries(&overlay_before, &overlay_now),
                    "batch {b}: an overlay index was rebuilt"
                );
            }
            overlay_before = overlay_now;
            inc.audit()
                .expect("maintained overlay equals a full evaluation");
            upkeep::take(); // the audit's own evaluation is not upkeep
        }
        assert!(!inc.edb().relation("Tag").unwrap().is_empty());
        assert!(!edb_before.is_empty() && !overlay_before.is_empty());
    }

    #[test]
    fn served_indexes_equal_fresh_builds_and_are_never_rebuilt() {
        let program = Program::parse(PROGRAM).unwrap();
        let mut rng = Rng(0x0dd_ba11_cafe_f00d);
        let edb = start_edb(&mut rng);
        let pool = pool::with_threads(Some(1));
        let mut served = ServedEvaluator::with_config(program, edb, pool, true).unwrap();
        let mut before: Cached = Vec::new();
        for b in 0..60 {
            let (ins, dels) = batch(&mut rng, served.evaluator().database());
            served.apply_delta(&ins, &dels).expect("batch applies");
            for (rel, bound) in [("Path", 0), ("Named", 0), ("Tagged", 1), ("Path", 1)] {
                let mut bindings = vec![None, None];
                bindings[bound] = Some(Value::Int(rng.pick(10)));
                if rel == "Tagged" {
                    bindings[bound] = Some(Value::Int(200 + rng.pick(3)));
                }
                served.query(rel, &bindings).expect("query answers");
            }
            let work = upkeep::take();
            let now = served.evaluator().check_indexes();
            if b >= 10 {
                assert_eq!(
                    work.edb_builds,
                    new_entries(&before, &now),
                    "batch {b}: an EDB index was rebuilt"
                );
            }
            before = now;
        }
        assert!(!before.is_empty());
    }

    /// Index work of one fixed batch against a chain graph of `n` nodes.
    fn batch_work(n: i64) -> Work {
        let program = Program::parse(
            "Hop2(x, z) :- Edge(x, y), Edge(y, z).
             Named(x, m) :- Node(x, m), Edge(x, _).",
        )
        .unwrap();
        let mut edb = Database::new();
        for i in 0..n {
            edb.insert("Edge", vec![Value::Int(i), Value::Int(i + 1)]);
            edb.insert("Node", vec![Value::Int(i), Value::Int(i % 7)]);
        }
        let pool = pool::with_threads(Some(1));
        let mut inc = IncrementalEvaluator::with_config(program, edb, pool, false).unwrap();
        // Warm-up: a first batch touching both relations builds every
        // index the maintenance plans use.
        let (mut ins, mut dels) = (Database::new(), Database::new());
        dels.insert("Edge", vec![Value::Int(10), Value::Int(11)]);
        ins.insert("Edge", vec![Value::Int(10), Value::Int(11)]);
        dels.insert("Node", vec![Value::Int(10), Value::Int(3)]);
        ins.insert("Node", vec![Value::Int(10), Value::Int(3)]);
        inc.apply_delta(&ins, &dels).unwrap();
        inc.apply_delta(&dels, &ins).unwrap();
        upkeep::take();
        // The measured batch: 8 deletions and 8 insertions, all local.
        let (mut ins, mut dels) = (Database::new(), Database::new());
        for i in 100..108i64 {
            dels.insert("Edge", vec![Value::Int(i), Value::Int(i + 1)]);
            ins.insert("Edge", vec![Value::Int(i), Value::Int(i + 2)]);
        }
        inc.apply_delta(&ins, &dels).unwrap();
        upkeep::take()
    }

    #[test]
    fn from_parts_rejects_an_empty_overlay_relation_of_the_wrong_arity() {
        let program = Program::parse("Path(x, y) :- Edge(x, y).").unwrap();
        let mut edb = Database::new();
        edb.insert("Edge", vec![Value::Int(1), Value::Int(2)]);
        let mut overlay = Database::new();
        overlay.relation_mut("Path", 3);
        let restored = IncrementalEvaluator::from_parts(
            program,
            edb,
            overlay,
            pool::with_threads(Some(1)),
            true,
        );
        assert!(matches!(
            restored,
            Err(EvalError::InputArity {
                expected: 2,
                got: 3,
                ..
            })
        ));
    }

    #[test]
    fn batch_index_work_does_not_grow_with_the_edb() {
        let small = batch_work(1_000);
        let large = batch_work(10_000);
        assert_eq!(small.edb_builds + small.overlay_builds, 0, "{small:?}");
        assert!(small.touches > 0);
        assert_eq!(small, large, "index work must not depend on the EDB size");
    }
}
