//! Differential pin for incremental maintenance: after every batch of a
//! randomized update stream, the maintained output must be set-identical
//! to a from-scratch evaluation of the mutated EDB — at thread counts 1
//! and 4, with and without the cost-based join planner.

use std::sync::Arc;

use dynamite_datalog::pool::WorkerPool;
use dynamite_datalog::{
    evaluate, fault, EvalError, Evaluator, Governor, IncrementalEvaluator, Program, ResourceLimits,
    RuleCacheHandle,
};
use dynamite_instance::{Database, Value};

mod common;
use common::{apply_to_shadow, closure_program, disjoint_chains, edge, Lcg};

fn recursive_program() -> Program {
    Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).
         Reach(y) :- Source(x), Path(x, y).",
    )
    .unwrap()
}

/// Checks one batch's `OutputDelta` against the before/after outputs:
/// `old ∪ inserted ∖ deleted = new`, inserted facts are genuinely new,
/// deleted facts were genuinely present.
fn check_delta(
    old: &Database,
    new: &Database,
    delta: &dynamite_datalog::OutputDelta,
    context: &str,
) {
    let mut rebuilt = old.clone();
    rebuilt.merge(&delta.inserted);
    for (name, rel) in delta.deleted.iter() {
        let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.iter().collect()).collect();
        rebuilt.relation_mut(name, rel.arity()).remove_rows(&rows);
    }
    assert_eq!(
        &rebuilt, new,
        "delta does not reconstruct output ({context})"
    );
    for (name, rel) in delta.inserted.iter() {
        for row in rel.iter() {
            assert!(
                !old.relation(name).is_some_and(|o| o.contains_row(row)),
                "inserted fact was already present in {name} ({context})"
            );
        }
    }
    for (name, rel) in delta.deleted.iter() {
        for row in rel.iter() {
            assert!(
                old.relation(name).is_some_and(|o| o.contains_row(row)),
                "deleted fact was not present in {name} ({context})"
            );
        }
    }
}

/// The core differential: a randomized stream of mixed batches
/// (insertions that may duplicate live facts, deletions that may miss),
/// pinned against scratch evaluation after every batch.
fn run_stream(threads: usize, reorder: bool) {
    const NODES: u64 = 24;
    let program = recursive_program();
    let mut rng = Lcg(0x5eed_cafe ^ ((threads as u64) << 32) ^ ((reorder as u64) << 16));

    let mut edb = Database::new();
    for _ in 0..60 {
        edb.insert("Edge", edge(rng.next() % NODES, rng.next() % NODES));
    }
    edb.insert("Source", vec![Value::Int(0)]);

    let pool = Arc::new(WorkerPool::new(threads));
    let mut inc =
        IncrementalEvaluator::with_config(program.clone(), edb.clone(), pool, reorder).unwrap();
    let mut shadow = edb;
    assert_eq!(
        inc.output(),
        evaluate(&program, &shadow).unwrap(),
        "initial state diverged"
    );

    for batch in 0..12 {
        let mut ins = Database::new();
        let mut dels = Database::new();
        for _ in 0..6 {
            ins.insert("Edge", edge(rng.next() % NODES, rng.next() % NODES));
        }
        let live: Vec<Vec<Value>> = shadow
            .relation("Edge")
            .map(|r| r.iter().map(|row| row.iter().collect()).collect())
            .unwrap_or_default();
        for _ in 0..5 {
            if live.is_empty() {
                break;
            }
            dels.insert("Edge", live[(rng.next() as usize) % live.len()].clone());
        }
        // A guaranteed-absent deletion and an occasional second source.
        dels.insert("Edge", edge(NODES + 5, NODES + 6));
        if batch == 4 {
            ins.insert("Source", vec![Value::Int((rng.next() % NODES) as i64)]);
        }

        let old = inc.output();
        let delta = inc.apply_delta(&ins, &dels).unwrap();
        apply_to_shadow(&mut shadow, &ins, &dels);

        let maintained = inc.output();
        let scratch = evaluate(&program, &shadow).unwrap();
        let context = format!("batch {batch}, threads {threads}, reorder {reorder}");
        assert_eq!(
            maintained, scratch,
            "maintained output diverged ({context})"
        );
        assert_eq!(inc.edb(), &shadow, "maintained EDB diverged ({context})");
        check_delta(&old, &maintained, &delta, &context);
    }
}

#[test]
fn update_stream_matches_scratch_t1() {
    run_stream(1, true);
}

#[test]
fn update_stream_matches_scratch_t1_no_planner() {
    run_stream(1, false);
}

#[test]
fn update_stream_matches_scratch_t4() {
    run_stream(4, true);
}

#[test]
fn update_stream_matches_scratch_t4_no_planner() {
    run_stream(4, false);
}

#[test]
fn noop_batch_is_empty_delta() {
    let program = recursive_program();
    let mut edb = Database::new();
    edb.insert("Edge", edge(1, 2));
    edb.insert("Source", vec![Value::Int(1)]);
    let mut inc = IncrementalEvaluator::new(program, edb).unwrap();
    let before = inc.output();

    // Empty batch, re-inserting a live fact, deleting an absent one —
    // all net no-ops.
    let delta = inc.apply_delta(&Database::new(), &Database::new()).unwrap();
    assert!(delta.is_empty());
    let mut ins = Database::new();
    ins.insert("Edge", edge(1, 2));
    let mut dels = Database::new();
    dels.insert("Edge", edge(7, 9));
    let delta = inc.apply_delta(&ins, &dels).unwrap();
    assert!(
        delta.is_empty(),
        "re-insert + absent delete must be a no-op"
    );
    assert_eq!(inc.output(), before);
}

#[test]
fn delete_then_reinsert_same_batch_nets_zero() {
    let program = recursive_program();
    let mut edb = Database::new();
    edb.insert("Edge", edge(1, 2));
    edb.insert("Edge", edge(2, 3));
    edb.insert("Source", vec![Value::Int(1)]);
    let mut inc = IncrementalEvaluator::new(program, edb).unwrap();
    let before = inc.output();

    let mut both = Database::new();
    both.insert("Edge", edge(2, 3));
    let delta = inc.apply_delta(&both, &both).unwrap();
    assert!(
        delta.is_empty(),
        "delete+reinsert of the same fact must cancel, got {delta:?}"
    );
    assert_eq!(inc.output(), before);
}

#[test]
fn negation_falls_back_to_full_reeval() {
    let program = Program::parse(
        "Reach(x) :- Source(x).
         Reach(y) :- Reach(x), Edge(x, y).
         Unreached(x) :- Node(x), !Reach(x).",
    )
    .unwrap();
    const NODES: u64 = 12;
    let mut rng = Lcg(0xbead);
    let mut edb = Database::new();
    for n in 0..NODES {
        edb.insert("Node", vec![Value::Int(n as i64)]);
    }
    for _ in 0..20 {
        edb.insert("Edge", edge(rng.next() % NODES, rng.next() % NODES));
    }
    edb.insert("Source", vec![Value::Int(0)]);

    let mut inc = IncrementalEvaluator::new(program.clone(), edb.clone()).unwrap();
    let mut shadow = edb;
    for batch in 0..6 {
        let mut ins = Database::new();
        let mut dels = Database::new();
        ins.insert("Edge", edge(rng.next() % NODES, rng.next() % NODES));
        let live: Vec<Vec<Value>> = shadow
            .relation("Edge")
            .map(|r| r.iter().map(|row| row.iter().collect()).collect())
            .unwrap_or_default();
        if !live.is_empty() {
            dels.insert("Edge", live[(rng.next() as usize) % live.len()].clone());
        }
        let old = inc.output();
        let delta = inc.apply_delta(&ins, &dels).unwrap();
        apply_to_shadow(&mut shadow, &ins, &dels);
        let maintained = inc.output();
        let scratch = evaluate(&program, &shadow).unwrap();
        let context = format!("negation batch {batch}");
        assert_eq!(maintained, scratch, "fallback diverged ({context})");
        check_delta(&old, &maintained, &delta, &context);
    }
}

#[test]
fn intensional_delta_is_rejected() {
    let program = recursive_program();
    let mut edb = Database::new();
    edb.insert("Edge", edge(1, 2));
    edb.insert("Source", vec![Value::Int(1)]);
    let mut inc = IncrementalEvaluator::new(program, edb).unwrap();

    let mut ins = Database::new();
    ins.insert("Path", edge(1, 9));
    match inc.apply_delta(&ins, &Database::new()) {
        Err(EvalError::IntensionalDelta { relation }) => assert_eq!(relation, "Path"),
        other => panic!("expected IntensionalDelta, got {other:?}"),
    }
    match inc.apply_delta(&Database::new(), &ins) {
        Err(EvalError::IntensionalDelta { relation }) => assert_eq!(relation, "Path"),
        other => panic!("expected IntensionalDelta, got {other:?}"),
    }
}

#[test]
fn arity_mismatch_is_rejected() {
    let program = recursive_program();
    let mut edb = Database::new();
    edb.insert("Edge", edge(1, 2));
    edb.insert("Source", vec![Value::Int(1)]);
    let mut inc = IncrementalEvaluator::new(program, edb).unwrap();

    let mut ins = Database::new();
    ins.insert("Edge", vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    match inc.apply_delta(&ins, &Database::new()) {
        Err(EvalError::InputArity { relation, .. }) => assert_eq!(relation, "Edge"),
        other => panic!("expected InputArity, got {other:?}"),
    }
}

#[test]
fn governed_trip_is_atomic_and_recoverable() {
    let program = recursive_program();
    // A chain makes retraction cascade through many rounds, so a tight
    // round cap reliably trips mid-maintenance.
    let mut edb = Database::new();
    for n in 0..10 {
        edb.insert("Edge", edge(n, n + 1));
    }
    edb.insert("Source", vec![Value::Int(0)]);
    let mut inc = IncrementalEvaluator::new(program.clone(), edb.clone()).unwrap();

    let mut dels = Database::new();
    dels.insert("Edge", edge(0, 1));
    let gov = Governor::new(ResourceLimits::none().with_round_cap(1));
    let err = inc.apply_delta_governed(&Database::new(), &dels, &gov);
    assert!(err.is_err(), "round cap 1 must trip a cascading retraction");
    // Atomicity: the failed batch left the EDB untouched.
    assert_eq!(inc.edb(), &edb, "failed batch must roll the EDB back");

    // Recovery: the same batch applies ungoverned, and the rebuilt
    // state matches scratch evaluation.
    let delta = inc.apply_delta(&Database::new(), &dels).unwrap();
    assert!(!delta.is_empty());
    let mut shadow = edb;
    apply_to_shadow(&mut shadow, &Database::new(), &dels);
    assert_eq!(inc.output(), evaluate(&program, &shadow).unwrap());
    assert_eq!(inc.edb(), &shadow);
}

#[test]
fn governed_trip_restores_a_fact_deleted_and_reinserted() {
    // DRed, and the full re-evaluation fallback negation forces.
    let negated = "Path(x, y) :- Edge(x, y).
                   Path(x, z) :- Path(x, y), Edge(y, z).
                   Reach(y) :- Source(x), Path(x, y).
                   Unreached(x) :- Source(x), !Reach(x).";
    for program in [recursive_program(), Program::parse(negated).unwrap()] {
        let mut edb = Database::new();
        for n in 0..10 {
            edb.insert("Edge", edge(n, n + 1));
        }
        edb.insert("Source", vec![Value::Int(0)]);
        let mut inc = IncrementalEvaluator::new(program, edb.clone()).unwrap();

        // Edge(9, 10) is deleted and re-inserted in one batch; the new
        // Edge(10, 11) then derives past the fact budget, so the trip
        // lands after both EDB edits. Rolling back must leave
        // Edge(9, 10) present, as it was before the batch.
        let mut dels = Database::new();
        dels.insert("Edge", edge(9, 10));
        let mut ins = dels.clone();
        ins.insert("Edge", edge(10, 11));
        let gov = Governor::new(ResourceLimits::none().with_fact_budget(1));
        assert!(inc.apply_delta_governed(&ins, &dels, &gov).is_err());
        assert_eq!(inc.edb(), &edb, "failed batch must roll the EDB back");
    }
}

#[test]
fn output_after_governed_trip_rebuilds() {
    let program = recursive_program();
    let mut edb = Database::new();
    for n in 0..10 {
        edb.insert("Edge", edge(n, n + 1));
    }
    edb.insert("Source", vec![Value::Int(0)]);
    let mut inc = IncrementalEvaluator::new(program.clone(), edb.clone()).unwrap();

    let mut dels = Database::new();
    dels.insert("Edge", edge(3, 4));
    let gov = Governor::new(ResourceLimits::none().with_round_cap(1));
    assert!(inc
        .apply_delta_governed(&Database::new(), &dels, &gov)
        .is_err());
    // `output` on a poisoned maintainer rebuilds from the (rolled-back)
    // EDB rather than serving the inconsistent overlay.
    assert_eq!(inc.output(), evaluate(&program, &edb).unwrap());
}

#[test]
fn explicit_config_maintainer_matches_context() {
    let program = recursive_program();
    let mut edb = Database::new();
    edb.insert("Edge", edge(1, 2));
    edb.insert("Source", vec![Value::Int(1)]);
    let pool = Arc::new(WorkerPool::new(1));
    let ev = Evaluator::with_config(edb.clone(), pool.clone(), RuleCacheHandle::default(), false);
    let mut inc = IncrementalEvaluator::with_config(program.clone(), edb, pool, false).unwrap();
    assert_eq!(inc.output(), ev.eval(&program).unwrap());
}

/// Maintenance must stay proportional to the batch: extending one of 200
/// disjoint 30-edge chains by an edge derives that chain's 31 new paths,
/// not the 93,000-fact closure. Counted as facts charged to the governor,
/// so the pin is deterministic where a timing ratio would be noise.
#[test]
fn one_edge_batch_work_is_proportional_to_the_delta() {
    let _g = fault::test_lock();
    fault::reset();
    let program = closure_program();
    let edb = disjoint_chains(200, 30);

    let full = Governor::unlimited();
    Evaluator::new(edb.clone())
        .eval_governed(&program, &full)
        .unwrap();
    assert_eq!(full.facts_counted(), 93_000);

    let mut inc = IncrementalEvaluator::new(program, edb).unwrap();
    let mut ins = Database::new();
    ins.insert("Edge", edge(30, 200 * 31));
    let gov = Governor::unlimited();
    inc.apply_delta_governed(&ins, &Database::new(), &gov)
        .unwrap();
    assert_eq!(inc.output().relation("Path").unwrap().len(), 93_031);
    // Deriving the delta is charged too, so the count cannot be vacuous.
    assert!(gov.facts_counted() >= 31, "{}", gov.facts_counted());
    assert!(
        gov.facts_counted() * 100 <= full.facts_counted(),
        "one-edge batch charged {} facts, full evaluation {}",
        gov.facts_counted(),
        full.facts_counted()
    );
}
