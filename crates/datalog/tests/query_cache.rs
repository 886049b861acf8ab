//! Property pins for the subsumptive query cache: interleaved query
//! streams must answer identically whether served warm or cold; a
//! subsumed query must never re-run the fixpoint (pinned through the
//! server's probe counters); `apply_delta` must invalidate every cached
//! answer; a governed trip mid-query must leave the cache unpoisoned.

use std::sync::Arc;

use dynamite_datalog::pool::WorkerPool;
use dynamite_datalog::{
    evaluate, fault, EvalError, Evaluator, Governor, Program, ResourceLimits, ServedEvaluator,
};
use dynamite_instance::{Database, Value};

mod common;
use common::{int, oracle, row_set, Lcg};

const DOMAIN: u64 = 10;

fn path_program() -> Program {
    Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap()
}

fn random_edges(rng: &mut Lcg, n: usize) -> Database {
    let mut edb = Database::new();
    for _ in 0..n {
        edb.insert(
            "Edge",
            vec![int(rng.next() % DOMAIN), int(rng.next() % DOMAIN)],
        );
    }
    edb
}

/// Interleaved random query streams with deliberate repeats: every warm
/// answer must be identical to what a cold server (fresh cache) returns
/// for the same query, and repeats must be served from cache.
#[test]
fn warm_answers_match_cold_across_interleaved_streams() {
    let mut rng = Lcg(0xcac4_e5e7);
    let program = path_program();
    let edb = random_edges(&mut rng, 45);
    let warm = ServedEvaluator::new(program.clone(), edb.clone()).unwrap();

    // A pool of patterns with repeats baked in.
    let mut patterns: Vec<Vec<Option<Value>>> = Vec::new();
    for _ in 0..10 {
        patterns.push(
            (0..2)
                .map(|_| {
                    rng.next()
                        .is_multiple_of(2)
                        .then(|| int(rng.next() % DOMAIN))
                })
                .collect(),
        );
    }
    for step in 0..40 {
        let bindings = patterns[(rng.next() as usize) % patterns.len()].clone();
        let got = warm.query("Path", &bindings).unwrap();
        // Cold control: a fresh server with an empty cache.
        let cold = ServedEvaluator::new(program.clone(), edb.clone()).unwrap();
        let want = cold.query("Path", &bindings).unwrap();
        assert_eq!(
            row_set(&got),
            row_set(&want),
            "step {step}: warm diverged from cold on Path({bindings:?})"
        );
    }
    let stats = warm.stats();
    assert_eq!(
        stats.fixpoints + stats.cache_hits,
        40,
        "every query accounted for"
    );
    assert!(stats.cache_hits > 0, "repeated patterns must hit the cache");
}

/// A query subsumed by an earlier, more general one must be answered by
/// filtering the cached rows — never by re-running the fixpoint.
#[test]
fn subsumed_query_never_reruns_fixpoint() {
    let mut rng = Lcg(0x5ab5_0000 ^ 0xbeef);
    let program = path_program();
    let edb = random_edges(&mut rng, 45);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let served = ServedEvaluator::new(program, edb).unwrap();

    // General query: source 3, any destination.
    let general = vec![Some(int(3)), None];
    served.query("Path", &general).unwrap();
    assert_eq!(served.stats().fixpoints, 1);

    // Strictly narrower queries: same source, pinned destination.
    for dest in 0..DOMAIN {
        let narrow = vec![Some(int(3)), Some(int(dest))];
        let got = served.query("Path", &narrow).unwrap();
        assert_eq!(row_set(&got), oracle(&full, "Path", &narrow), "dest {dest}");
    }
    let stats = served.stats();
    assert_eq!(
        stats.fixpoints, 1,
        "subsumed queries must not re-run the fixpoint"
    );
    assert_eq!(stats.cache_hits, DOMAIN);

    // An exact repeat of the general query is also a hit.
    served.query("Path", &general).unwrap();
    assert_eq!(served.stats().fixpoints, 1);
    assert_eq!(served.stats().cache_hits, DOMAIN + 1);
}

/// The all-free pattern subsumes every pattern over its relation.
#[test]
fn all_free_subsumes_every_pattern() {
    let mut rng = Lcg(0xa11_f4ee);
    let program = path_program();
    let edb = random_edges(&mut rng, 45);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let served = ServedEvaluator::new(program, edb).unwrap();

    served.query("Path", &[None, None]).unwrap();
    assert_eq!(served.stats().fixpoints, 1);
    for _ in 0..20 {
        let bindings: Vec<Option<Value>> = (0..2)
            .map(|_| {
                rng.next()
                    .is_multiple_of(2)
                    .then(|| int(rng.next() % DOMAIN))
            })
            .collect();
        let got = served.query("Path", &bindings).unwrap();
        assert_eq!(row_set(&got), oracle(&full, "Path", &bindings));
    }
    assert_eq!(
        served.stats().fixpoints,
        1,
        "all-free answer subsumes everything"
    );
}

/// Subsumption is per-relation and value-exact: a different bound value
/// or a different relation must miss.
#[test]
fn subsumption_requires_matching_bound_values() {
    let program = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).
         Rev(y, x) :- Path(x, y).",
    )
    .unwrap();
    let mut rng = Lcg(0xd1ff_e4e2);
    let served = ServedEvaluator::new(program, random_edges(&mut rng, 40)).unwrap();

    served.query("Path", &[Some(int(1)), None]).unwrap();
    assert_eq!(served.stats().fixpoints, 1);
    // Different bound value: miss.
    served.query("Path", &[Some(int(2)), None]).unwrap();
    assert_eq!(served.stats().fixpoints, 2);
    // Different relation, same pattern: miss.
    served.query("Rev", &[Some(int(1)), None]).unwrap();
    assert_eq!(served.stats().fixpoints, 3);
    // Swapped bound position: miss (entry binds col 0, query binds col 1).
    served.query("Path", &[None, Some(int(1))]).unwrap();
    assert_eq!(served.stats().fixpoints, 4);
    assert_eq!(served.stats().cache_hits, 0);
}

/// `apply_delta` must invalidate the cache: post-delta answers match a
/// scratch oracle over the mutated EDB, not the stale cached rows.
#[test]
fn apply_delta_invalidates_cached_answers() {
    let mut rng = Lcg(0xde17_a001);
    let program = path_program();
    let mut shadow = random_edges(&mut rng, 30);
    let mut served = ServedEvaluator::new(program.clone(), shadow.clone()).unwrap();

    for round in 0..6 {
        let bindings = vec![Some(int(rng.next() % DOMAIN)), None];
        let got = served.query("Path", &bindings).unwrap();
        let full = evaluate(&program, &shadow).unwrap();
        assert_eq!(
            row_set(&got),
            oracle(&full, "Path", &bindings),
            "round {round}: answer must reflect the current EDB"
        );

        // Mutate: a few inserts and a delete of one live edge.
        let mut ins = Database::new();
        for _ in 0..3 {
            let row = vec![int(rng.next() % DOMAIN), int(rng.next() % DOMAIN)];
            ins.insert("Edge", row.clone());
            shadow.insert("Edge", row);
        }
        let mut dels = Database::new();
        if let Some(edges) = shadow.relation("Edge") {
            let live: Vec<Vec<Value>> = edges.iter().map(|r| r.to_vec()).collect();
            if !live.is_empty() {
                let victim = live[(rng.next() as usize) % live.len()].clone();
                dels.insert("Edge", victim);
            }
        }
        served.apply_delta(&ins, &dels).unwrap();
        if let Some(rel) = dels.relation("Edge") {
            let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.to_vec()).collect();
            shadow.relation_mut("Edge", 2).remove_rows(&rows);
        }
        shadow.merge(&ins);
        // The snapshot is edited in place; it must hold exactly the
        // shadow's facts (deletes first, then inserts).
        assert_eq!(served.edb(), &shadow, "round {round}: served snapshot");
    }
    // The cache was cleared each round, so repeats across rounds re-ran.
    assert!(served.stats().fixpoints >= 6);
}

/// Deltas touching intensional relations are rejected and leave the
/// server fully usable.
#[test]
fn intensional_delta_is_rejected_and_harmless() {
    let mut rng = Lcg(0x001d_bbad);
    let program = path_program();
    let edb = random_edges(&mut rng, 20);
    let mut served = ServedEvaluator::new(program.clone(), edb.clone()).unwrap();

    let before = served.query("Path", &[Some(int(1)), None]).unwrap();
    let mut ins = Database::new();
    ins.insert("Path", vec![int(7), int(7)]);
    match served.apply_delta(&ins, &Database::new()) {
        Err(EvalError::IntensionalDelta { relation }) => assert_eq!(relation, "Path"),
        other => panic!("expected IntensionalDelta, got {other:?}"),
    }
    // Server still answers, identically (rejected delta changed nothing).
    let after = served.query("Path", &[Some(int(1)), None]).unwrap();
    assert_eq!(row_set(&before), row_set(&after));
}

/// A batch whose arity disagrees with the live EDB or with the program's
/// usage is rejected with a typed error before anything changes — no
/// panic inside the snapshot merge, and the server keeps answering.
#[test]
fn arity_mismatched_delta_is_rejected_and_harmless() {
    let mut rng = Lcg(0x0a21_7e55);
    let program = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).
         Hub(x) :- Path(x, _), Seed(x).",
    )
    .unwrap();
    let edb = random_edges(&mut rng, 20);
    let mut served = ServedEvaluator::new(program, edb).unwrap();
    let before = served.query("Path", &[Some(int(1)), None]).unwrap();

    // Wider than the live `Edge` relation.
    let mut wide = Database::new();
    wide.insert("Edge", vec![int(1), int(2), int(3)]);
    // `Seed` is absent from the EDB, but the program reads it as unary.
    let mut seed = Database::new();
    seed.insert("Seed", vec![int(1), int(2)]);
    for (ins, dels) in [
        (&wide, &Database::new()),
        (&Database::new(), &wide),
        (&seed, &Database::new()),
    ] {
        match served.apply_delta(ins, dels) {
            Err(EvalError::InputArity { relation, got, .. }) => {
                assert!(relation == "Edge" || relation == "Seed");
                assert_eq!(got, if relation == "Edge" { 3 } else { 2 });
            }
            other => panic!("expected InputArity, got {other:?}"),
        }
    }
    assert!(served.edb().relation("Seed").is_none(), "nothing applied");
    let after = served.query("Path", &[Some(int(1)), None]).unwrap();
    assert_eq!(row_set(&before), row_set(&after));
    assert!(served.query("Hub", &[None]).is_ok());
}

/// A governed trip mid-query surfaces the error but must not poison the
/// cache: nothing partial is cached, and the next (ungoverned) query
/// recomputes and succeeds.
#[test]
fn governed_trip_leaves_cache_unpoisoned() {
    // Serialize against the fault registry and clear any env-armed
    // faults (CI's injection legs target the first governed evaluation
    // in the binary — this test pins the round cap, not those).
    let _guard = fault::test_lock();
    fault::reset();
    let program = path_program();
    // A chain long enough that a 1-round cap always trips the recursion.
    let mut edb = Database::new();
    for n in 0..12u64 {
        edb.insert("Edge", vec![int(n), int(n + 1)]);
    }
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let served = ServedEvaluator::new(program, edb).unwrap();

    let bindings = vec![Some(int(0)), None];
    let gov = Governor::new(ResourceLimits::none().with_round_cap(1));
    let err = served.query_governed("Path", &bindings, &gov).unwrap_err();
    assert!(
        matches!(err, EvalError::RoundCapExceeded { .. }),
        "expected a round-cap trip, got {err:?}"
    );
    let tripped = served.stats();
    assert_eq!(
        tripped.fixpoints, 0,
        "a failed query must not count as a fixpoint"
    );
    assert_eq!(tripped.cache_hits, 0);

    // The follow-up query recomputes from scratch — a cache hit here
    // would mean the trip left a partial answer behind.
    let got = served.query("Path", &bindings).unwrap();
    assert_eq!(row_set(&got), oracle(&full, "Path", &bindings));
    let stats = served.stats();
    assert_eq!(stats.fixpoints, 1, "post-trip query must recompute");
    assert_eq!(stats.cache_hits, 0, "nothing cacheable survived the trip");

    // And now the cache works as usual.
    served.query("Path", &[Some(int(0)), Some(int(5))]).unwrap();
    assert_eq!(served.stats().cache_hits, 1);
}

/// The cache is bounded: far more distinct patterns than the cap still
/// answer correctly (eviction, not corruption).
#[test]
fn cache_eviction_preserves_correctness() {
    let program = path_program();
    let mut rng = Lcg(0xcab_ca11);
    let edb = random_edges(&mut rng, 40);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let pool = Arc::new(WorkerPool::new(1));
    let served = ServedEvaluator::with_config(path_program(), edb, pool, true).unwrap();

    // 300 distinct patterns > the 256-entry cap.
    for a in 0..DOMAIN {
        for b in 0..DOMAIN {
            for (bindings_idx, bindings) in [
                vec![Some(int(a)), Some(int(b))],
                vec![Some(int(a * DOMAIN + b)), None],
                vec![None, Some(int(a * DOMAIN + b))],
            ]
            .into_iter()
            .enumerate()
            {
                let got = served.query("Path", &bindings).unwrap();
                assert_eq!(
                    row_set(&got),
                    oracle(&full, "Path", &bindings),
                    "({a},{b},{bindings_idx})"
                );
            }
        }
    }
}
