//! End-to-end resource-governance acceptance tests (ISSUE: PR 6).
//!
//! Pins the cross-crate contract: an evaluation (or a synthesis call
//! whose candidate fixpoints explode) returns a *typed* resource error
//! within the configured deadline — at one worker thread and at four —
//! and a governed run that never trips a limit is bit-identical to the
//! ungoverned run, output row order included.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamite::core::test_fixtures::motivating;
use dynamite::core::{synthesize, CandidateLimits, SynthesisConfig, SynthesisError, Synthesizer};
use dynamite::datalog::{
    fault, EvalError, Evaluator, Governor, IncrementalEvaluator, Program, ResourceLimits,
    RuleCacheHandle, ServedEvaluator, WorkerPool,
};
use dynamite::instance::{to_facts, Database, Value};
use dynamite::migrate::{migrate_governed, MigrateError};
use dynamite_bench_suite::benchmarks::by_name;

fn ctx_with_threads(db: Database, threads: usize) -> Evaluator {
    Evaluator::with_config(
        db,
        Arc::new(WorkerPool::new(threads)),
        RuleCacheHandle::default(),
        true,
    )
}

/// Bit-identity comparison: `Database` equality treats relations as sets,
/// so compare the ordered row sequences explicitly.
fn ordered_rows(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    db.iter()
        .map(|(name, rel)| {
            (
                name.to_string(),
                rel.iter().map(|r| r.iter().collect()).collect(),
            )
        })
        .collect()
}

/// A program whose fixpoint is far too large to finish within the
/// deadline: a full cross product over `n` rows (`n*n` output tuples).
fn cross_product_db(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert("Big", vec![Value::Int(i), Value::Int(i + 1)]);
    }
    db
}

#[test]
fn runaway_evaluation_hits_the_deadline_not_a_hang() {
    let _guard = fault::test_lock();
    fault::reset();
    let prog = Program::parse("Out(x, z) :- Big(x, y), Big(z, w).").unwrap();
    for threads in [1, 4] {
        let ctx = ctx_with_threads(cross_product_db(4_000), threads);
        let gov = Governor::new(ResourceLimits::none().with_timeout(Duration::from_millis(50)));
        let started = Instant::now();
        let err = ctx.eval_governed(&prog, &gov).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err, EvalError::DeadlineExceeded, "threads={threads}");
        // Cooperative checks are strided, so allow generous slack — but a
        // 16M-tuple cross product left ungoverned would take far longer.
        assert!(
            elapsed < Duration::from_secs(10),
            "threads={threads}: took {elapsed:?}"
        );
    }
}

#[test]
fn synthesis_over_exploding_candidates_returns_a_typed_error() {
    let _guard = fault::test_lock();
    fault::reset();
    // A round cap of 0 exhausts EVERY candidate evaluation before it can
    // derive anything — standing in for candidates whose fixpoints
    // derive unboundedly many facts: each one is cut off inside the
    // engine, skipped, and the call returns a typed error instead of
    // hanging — at one thread and at four. (A fact budget would read
    // more literally, but `DYNAMITE_FACT_BUDGET` deliberately overrides
    // explicit budgets, and the CI fault-injection leg sets it.)
    let (source, target, ex) = motivating();
    for threads in [1, 4] {
        let cfg = SynthesisConfig {
            timeout: Some(Duration::from_secs(60)),
            max_iters_per_rule: 25,
            threads: Some(threads),
            candidate_limits: CandidateLimits {
                round_cap: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let synth =
            Synthesizer::new(source.clone(), target.clone(), vec![ex.clone()], cfg).unwrap();
        let started = Instant::now();
        let (err, stats) = synth.synthesize_partial().unwrap_err();
        assert!(
            matches!(
                err,
                SynthesisError::IterationLimit { .. } | SynthesisError::NoProgram { .. }
            ),
            "threads={threads}: got {err:?}"
        );
        // Partial stats still describe the aborted search.
        assert_eq!(stats.rules.len(), 1);
        assert!(stats.rules[0].resource_skips > 0, "threads={threads}");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "threads={threads}"
        );
    }
}

#[test]
fn worker_panic_mid_maintenance_poisons_then_recovers() {
    // PR 6 deliberately left `worker-panic` out of the CI env matrix (an
    // env-armed panic fires in whichever governed test runs first); this
    // serial test arms it via the programmatic hooks instead, on the
    // *maintained* path: the panic must propagate out of
    // `apply_delta_governed`, the worker pool must survive it, the
    // maintainer must read as poisoned, and the next batch must
    // transparently rebuild to the correct output.
    let _guard = fault::test_lock();
    fault::reset();
    let prog = Program::parse("Out(x, z) :- Big(x, y), Big(y, z).").unwrap();
    let base = cross_product_db(512);
    let mut ev = IncrementalEvaluator::with_config(
        prog.clone(),
        base.clone(),
        Arc::new(WorkerPool::new(4)),
        true,
    )
    .unwrap();

    // A 4000-row insert batch: large enough that the maintenance join
    // fans out to pool workers, so the injected panic lands on one.
    let mut ins = Database::new();
    for i in 10_000..14_000i64 {
        ins.insert("Big", vec![Value::Int(i), Value::Int(i + 1)]);
    }
    fault::arm(fault::WORKER_PANIC, 1);
    let gov = Governor::unlimited();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ev.apply_delta_governed(&ins, &Database::new(), &gov)
    }));
    assert!(r.is_err(), "injected worker panic must propagate");
    assert!(ev.is_poisoned(), "caught panic must leave degraded state");

    // Re-submitting the batch rebuilds the overlay first (re-inserting
    // any rows the interrupted batch already applied is a no-op), and the
    // same pool serves the rebuild.
    ev.apply_delta(&ins, &Database::new()).unwrap();
    assert!(!ev.is_poisoned());
    let mut full = base;
    for row in ins.relation("Big").unwrap().iter() {
        full.insert("Big", row.iter().collect());
    }
    let reference = ctx_with_threads(full, 4).eval(&prog).unwrap();
    assert_eq!(ev.output(), reference);
    fault::reset();
}

#[test]
fn budget_fault_under_served_query_leaves_cache_unpoisoned() {
    // A `budget` fault armed while a served query's fixpoint runs must
    // surface as the typed resource error, cache nothing partial, and
    // leave the server fully usable: the next query recomputes the
    // right answer (ISSUE: PR 10).
    let _guard = fault::test_lock();
    fault::reset();
    let prog = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 0..40i64 {
        db.insert("Edge", vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let reference = ctx_with_threads(db.clone(), 4).eval(&prog).unwrap();
    let served =
        ServedEvaluator::with_config(prog, db, Arc::new(WorkerPool::new(4)), true).unwrap();

    let bindings = vec![Some(Value::Int(0)), None];
    fault::arm(fault::BUDGET, 1);
    let gov = Governor::unlimited();
    let err = served.query_governed("Path", &bindings, &gov).unwrap_err();
    assert!(
        matches!(err, EvalError::FactBudgetExceeded { .. }),
        "got {err:?}"
    );
    fault::reset();
    assert_eq!(
        served.stats().fixpoints,
        0,
        "tripped query is not a fixpoint"
    );

    // Ungoverned follow-up: recomputes (no poisoned cache entry) and
    // matches the from-scratch reference.
    let got = served.query("Path", &bindings).unwrap();
    let want: Vec<Vec<Value>> = reference
        .relation("Path")
        .unwrap()
        .iter()
        .map(|r| r.iter().collect())
        .filter(|row: &Vec<Value>| row[0] == Value::Int(0))
        .collect();
    let mut got_rows: Vec<Vec<Value>> = got.iter().map(|r| r.iter().collect()).collect();
    let mut want = want;
    got_rows.sort();
    want.sort();
    assert_eq!(got_rows, want);
    let stats = served.stats();
    assert_eq!(stats.fixpoints, 1, "post-trip query must recompute");
    assert_eq!(stats.cache_hits, 0, "nothing cacheable survived the trip");
}

#[test]
fn governed_evaluation_is_bit_identical_to_ungoverned() {
    let _guard = fault::test_lock();
    fault::reset();
    let prog = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 0..60i64 {
        db.insert("Edge", vec![Value::Int(i), Value::Int((i + 1) % 60)]);
    }
    for threads in [1, 4] {
        let ctx = ctx_with_threads(db.clone(), threads);
        let plain = ctx.eval(&prog).unwrap();
        let gov = Governor::new(
            ResourceLimits::none()
                .with_timeout(Duration::from_secs(120))
                .with_fact_budget(1_000_000)
                .with_round_cap(100_000),
        );
        let governed = ctx.eval_governed(&prog, &gov).unwrap();
        assert_eq!(
            ordered_rows(&plain),
            ordered_rows(&governed),
            "threads={threads}"
        );
    }
}

#[test]
fn governed_synthesis_matches_ungoverned_at_both_thread_counts() {
    let _guard = fault::test_lock();
    fault::reset();
    let (source, target, ex) = motivating();
    for threads in [1, 4] {
        let plain_cfg = SynthesisConfig {
            threads: Some(threads),
            ..Default::default()
        };
        let plain = synthesize(&source, &target, std::slice::from_ref(&ex), &plain_cfg).unwrap();
        let governed_cfg = SynthesisConfig {
            threads: Some(threads),
            candidate_limits: CandidateLimits {
                timeout: Some(Duration::from_secs(120)),
                fact_budget: Some(1_000_000),
                round_cap: Some(100_000),
            },
            ..plain_cfg
        };
        let governed =
            synthesize(&source, &target, std::slice::from_ref(&ex), &governed_cfg).unwrap();
        assert_eq!(
            format!("{}", plain.program),
            format!("{}", governed.program),
            "threads={threads}"
        );
        assert_eq!(
            plain.stats.total_iterations(),
            governed.stats.total_iterations(),
            "threads={threads}"
        );
    }
}

/// The Yelp-2 program Table 3's synthesizer finds: its `RevN` rule binds
/// four variables that no head reads, and a join that walked every
/// combination of them filled its buffer super-linearly in the source
/// before `absorb` could charge a single fact.
const YELP_2_SYNTHESIZED: &str = "
    BizN(gb_id, gb_name) :- Business(gb_id, gb_name, _, _, _, _).
    RevN(gr_id, gr_stars) :- Business(_, _, _, gr_stars, _, _), \
        Business(_, _, _, bstars1, v1, _), Review(v1, gr_id, gr_stars, _), \
        Business(_, _, _, _, v2, _), Review(v2, _, bstars1, _).
    HasRev(hr_biz, hr_rev) :- Business(hr_biz, _, _, _, v1, _), Review(v1, hr_rev, _, _).";

#[test]
fn a_fact_budget_stops_a_migration_with_dead_variables() {
    let _guard = fault::test_lock();
    fault::reset();
    let bench = by_name("Yelp-2").expect("Yelp-2 exists");
    let program = Program::parse(YELP_2_SYNTHESIZED).unwrap();
    let source = bench.generate_source(40, 11);
    let budget = 1_000;
    let limits = ResourceLimits::none().with_fact_budget(budget);
    let err = migrate_governed(
        &program,
        &source,
        bench.target().clone(),
        &Governor::new(limits),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            MigrateError::Eval(EvalError::FactBudgetExceeded { budget: 1_000 })
        ),
        "{err}"
    );
    // The trip point is the same at every worker count.
    let facts = to_facts(&source);
    for threads in [1, 4] {
        let ctx = ctx_with_threads(facts.clone(), threads);
        let gov = Governor::new(limits);
        assert_eq!(
            ctx.eval_governed(&program, &gov).unwrap_err(),
            EvalError::FactBudgetExceeded { budget },
            "threads={threads}"
        );
        assert_eq!(gov.facts_counted(), budget + 1, "threads={threads}");
    }
}
