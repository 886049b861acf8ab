//! Differential pin for demand-driven query serving: for seeded-random
//! stratified programs and random binding patterns, `query(rel,
//! bindings)` must be set-identical to full evaluation followed by a
//! filter — at thread counts 1 and 4, with and without the cost-based
//! join planner (mirroring the incremental suite's matrix). Three
//! answerers are pinned: the cached server, the one-shot
//! `Evaluator::query`, and a durable session's maintained overlay, the
//! last two before and after a random update batch. Negation
//! programs must take the full-evaluation fallback (and answer
//! identically); recursive closure queries exercise magic-set
//! propagation through both argument positions; all-free bindings must
//! degenerate to full evaluation with bit-identical row order.

use std::collections::HashSet;
use std::sync::Arc;

use dynamite_datalog::pool::WorkerPool;
use dynamite_datalog::{
    fault, DurableEvaluator, DurableOptions, EvalError, Evaluator, Governor, Program,
    RuleCacheHandle, ServedEvaluator,
};
use dynamite_instance::{Database, Relation, Value};

mod common;
use common::{
    apply_to_shadow, closure_program, disjoint_chains, int, oracle, row_set, Lcg, TempDir,
};

const DOMAIN: u64 = 8;

/// A small EDB over `Edge(2)`, `Label(2)`, `Node(1)`, `Source(1)`.
fn random_edb(rng: &mut Lcg) -> Database {
    let mut edb = Database::new();
    for _ in 0..40 {
        edb.insert(
            "Edge",
            vec![int(rng.next() % DOMAIN), int(rng.next() % DOMAIN)],
        );
    }
    for _ in 0..15 {
        edb.insert(
            "Label",
            vec![int(rng.next() % DOMAIN), int(rng.next() % DOMAIN)],
        );
    }
    for n in 0..DOMAIN {
        edb.insert("Node", vec![int(n)]);
    }
    edb.insert("Source", vec![int(rng.next() % DOMAIN)]);
    edb
}

/// A seeded-random stratified program: `n_idb` derived relations
/// (`P0..`), each defined by 1–2 rules over the EDB relations and the
/// previously defined IDB relations, with random variable sharing,
/// occasional body constants, occasional self-recursion, and (when
/// `with_negation`) safely stratified negation over strictly earlier
/// relations. Always well-formed and stratifiable by construction.
fn random_program(rng: &mut Lcg, n_idb: usize, with_negation: bool) -> Program {
    const VARS: [&str; 4] = ["x", "y", "z", "w"];
    // (name, arity) of every relation a body may reference.
    let mut pool: Vec<(String, usize)> = vec![
        ("Edge".into(), 2),
        ("Label".into(), 2),
        ("Node".into(), 1),
        ("Source".into(), 1),
    ];
    let mut text = String::new();
    for i in 0..n_idb {
        let name = format!("P{i}");
        let arity = 1 + (rng.next() % 2) as usize;
        let n_rules = 1 + (rng.next() % 2) as usize;
        for _ in 0..n_rules {
            let n_lits = 1 + (rng.next() % 3) as usize;
            let mut body: Vec<String> = Vec::new();
            let mut body_vars: Vec<&str> = Vec::new();
            for _ in 0..n_lits {
                let (rel, ar) = &pool[(rng.next() as usize) % pool.len()];
                let terms: Vec<String> = (0..*ar)
                    .map(|_| {
                        if rng.next().is_multiple_of(5) {
                            format!("{}", rng.next() % DOMAIN)
                        } else {
                            let v = VARS[(rng.next() as usize) % VARS.len()];
                            if !body_vars.contains(&v) {
                                body_vars.push(v);
                            }
                            v.to_string()
                        }
                    })
                    .collect();
                body.push(format!("{rel}({})", terms.join(", ")));
            }
            // Safe stratified negation: a strictly earlier relation over
            // variables the positive body already binds.
            if with_negation && rng.next().is_multiple_of(3) && !body_vars.is_empty() {
                let neg_pool: Vec<(String, usize)> = pool
                    .iter()
                    .filter(|(_, ar)| *ar <= body_vars.len())
                    .cloned()
                    .collect();
                if !neg_pool.is_empty() {
                    let (rel, ar) = &neg_pool[(rng.next() as usize) % neg_pool.len()];
                    let terms: Vec<String> = (0..*ar)
                        .map(|p| body_vars[p % body_vars.len()].to_string())
                        .collect();
                    body.push(format!("!{rel}({})", terms.join(", ")));
                }
            }
            let head_terms: Vec<String> = (0..arity)
                .map(|_| {
                    if body_vars.is_empty() {
                        format!("{}", rng.next() % DOMAIN)
                    } else {
                        body_vars[(rng.next() as usize) % body_vars.len()].to_string()
                    }
                })
                .collect();
            text.push_str(&format!(
                "{name}({}) :- {}.\n",
                head_terms.join(", "),
                body.join(", ")
            ));
        }
        // Occasional self-recursion on binary relations (base rules above
        // guarantee the recursion is productive and stratified).
        if arity == 2 && rng.next().is_multiple_of(2) {
            text.push_str(&format!("{name}(x, z) :- {name}(x, y), Edge(y, z).\n"));
        }
        pool.push((name, arity));
    }
    Program::parse(&text).expect("generated program must parse")
}

/// A random binding pattern for an `arity`-column relation: each
/// position bound with probability ~1/2, values mostly in-domain with
/// an occasional guaranteed miss.
fn random_bindings(rng: &mut Lcg, arity: usize) -> Vec<Option<Value>> {
    (0..arity)
        .map(|_| {
            if rng.next().is_multiple_of(2) {
                let v = if rng.next().is_multiple_of(8) {
                    99 // out of domain: the answer must be empty-compatible
                } else {
                    rng.next() % DOMAIN
                };
                Some(int(v))
            } else {
                None
            }
        })
        .collect()
}

/// A random update batch against `shadow`: a few fresh rows per EDB
/// relation and deletions of live `Edge`/`Label` rows (plus one miss).
fn random_delta(rng: &mut Lcg, shadow: &Database) -> (Database, Database) {
    let fresh = random_edb(rng);
    let mut ins = Database::new();
    for (name, rel) in fresh.iter() {
        for row in rel.iter().take(3) {
            ins.insert(name, row.to_vec());
        }
    }
    let mut dels = Database::new();
    for name in ["Edge", "Label"] {
        let live: Vec<Vec<Value>> = shadow
            .relation(name)
            .map(|r| r.iter().map(|row| row.to_vec()).collect())
            .unwrap_or_default();
        for _ in 0..3 {
            if !live.is_empty() {
                dels.insert(name, live[(rng.next() as usize) % live.len()].clone());
            }
        }
    }
    dels.insert("Edge", vec![int(99), int(99)]);
    (ins, dels)
}

/// The core differential: seeded-random programs × random binding
/// patterns, query answers pinned set-identical to the oracle through
/// the cached server, the one-shot `Evaluator::query`, and a durable
/// session's maintained overlay — first on the initial EDB, then again
/// after one random update batch applied to every stateful answerer.
fn run_matrix(threads: usize, reorder: bool, with_negation: bool) {
    let mut rng = Lcg(0x9a61_c0de
        ^ ((threads as u64) << 40)
        ^ ((reorder as u64) << 24)
        ^ ((with_negation as u64) << 8));
    for round in 0..5 {
        let program = random_program(&mut rng, 1 + (round % 3), with_negation);
        let mut shadow = random_edb(&mut rng);
        let pool = Arc::new(WorkerPool::new(threads));
        let mut served =
            ServedEvaluator::with_config(program.clone(), shadow.clone(), pool.clone(), reorder)
                .expect("server");
        let dir = TempDir::new("query-diff");
        let mut durable = DurableEvaluator::create_with_config(
            dir.path(),
            program.clone(),
            shadow.clone(),
            DurableOptions::default(),
            pool.clone(),
            reorder,
        )
        .expect("durable session");

        let idb: Vec<String> = program
            .intensional()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for phase in ["initial", "after delta"] {
            if phase == "after delta" {
                let (ins, dels) = random_delta(&mut rng, &shadow);
                served.apply_delta(&ins, &dels).expect("served delta");
                durable.apply_delta(&ins, &dels).expect("durable delta");
                apply_to_shadow(&mut shadow, &ins, &dels);
            }
            let ev = Evaluator::with_config(
                shadow.clone(),
                pool.clone(),
                RuleCacheHandle::default(),
                reorder,
            );
            let full = ev.eval(&program).expect("full evaluation");
            for q in 0..8 {
                let rel = &idb[(rng.next() as usize) % idb.len()];
                let arity = full
                    .relation(rel)
                    .map(Relation::arity)
                    .unwrap_or_else(|| 1 + (rng.next() % 2) as usize);
                let bindings = random_bindings(&mut rng, arity);
                let want = oracle(&full, rel, &bindings);
                let ctx = format!(
                    "threads {threads}, reorder {reorder}, neg {with_negation}, round {round}, \
                     {phase}, query {q}: {rel}({bindings:?})"
                );

                let got_served = served.query(rel, &bindings).expect(&ctx);
                assert_eq!(row_set(&got_served), want, "served diverged ({ctx})");

                let got_once = ev.query(&program, rel, &bindings).expect(&ctx);
                assert_eq!(row_set(&got_once), want, "one-shot diverged ({ctx})");

                let got_durable = durable.query(rel, &bindings).expect(&ctx);
                assert_eq!(row_set(&got_durable), want, "durable diverged ({ctx})");
            }
        }
        if with_negation {
            // Every non-all-free query over a negation-reachable slice
            // must have taken the fallback, never a magic rewrite that
            // could unstratify. (Some generated relations may not reach
            // negation, so only assert when the program negates at all.)
            let stats = served.stats();
            assert!(
                stats.fixpoints >= stats.fallbacks,
                "counter consistency ({threads}/{reorder})"
            );
        }
    }
}

#[test]
fn query_matches_oracle_t1() {
    run_matrix(1, true, false);
}

#[test]
fn query_matches_oracle_t1_no_planner() {
    run_matrix(1, false, false);
}

#[test]
fn query_matches_oracle_t4() {
    run_matrix(4, true, false);
}

#[test]
fn query_matches_oracle_t4_no_planner() {
    run_matrix(4, false, false);
}

#[test]
fn query_matches_oracle_with_negation_t1() {
    run_matrix(1, true, true);
}

#[test]
fn query_matches_oracle_with_negation_t4_no_planner() {
    run_matrix(4, false, true);
}

/// Negation reachable from the queried relation pins the fallback route
/// — observable through the server's probe counters — and still answers
/// identically to the oracle.
#[test]
fn negation_fallback_fires_and_matches() {
    let program = Program::parse(
        "Reach(y) :- Source(x), Edge(x, y).
         Reach(z) :- Reach(y), Edge(y, z).
         Unreached(x) :- Node(x), !Reach(x).",
    )
    .unwrap();
    let mut rng = Lcg(0xfa11_bacc);
    let edb = random_edb(&mut rng);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let served = ServedEvaluator::new(program, edb).unwrap();

    // `Unreached` negates `Reach`: rewrite must fall back.
    let bindings = vec![Some(int(3))];
    let got = served.query("Unreached", &bindings).unwrap();
    assert_eq!(row_set(&got), oracle(&full, "Unreached", &bindings));
    let stats = served.stats();
    assert_eq!(stats.fallbacks, 1, "negation query must take the fallback");
    assert_eq!(stats.fixpoints, 1);

    // `Reach` itself is negation-free upstream of the negation — wait,
    // `Reach` does not depend on `Unreached` at all, so its slice is
    // negation-free and the magic rewrite applies (no fallback bump).
    let got = served.query("Reach", &bindings).unwrap();
    assert_eq!(row_set(&got), oracle(&full, "Reach", &bindings));
    let stats = served.stats();
    assert_eq!(stats.fallbacks, 1, "negation-free slice must not fall back");
    assert_eq!(stats.fixpoints, 2);
}

/// Recursive closure queried through either argument: demand propagates
/// forward (`Path(c, ?)`) and backward (`Path(?, c)`) through the
/// recursion, including across adornment patterns (`Path(c1, c2)`
/// demands `Path^bf` subgoals).
#[test]
fn recursive_closure_point_queries() {
    let program = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap();
    // A two-chain graph with a bridge: 0→1→…→5, 10→11→…→15, 5→10.
    let mut edb = Database::new();
    for n in 0..5u64 {
        edb.insert("Edge", vec![int(n), int(n + 1)]);
        edb.insert("Edge", vec![int(n + 10), int(n + 11)]);
    }
    edb.insert("Edge", vec![int(5), int(10)]);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let served = ServedEvaluator::new(program.clone(), edb).unwrap();

    for bindings in [
        vec![Some(int(0)), None],          // forward: everything after 0
        vec![None, Some(int(12))],         // backward: everything before 12
        vec![Some(int(3)), Some(int(11))], // both bound: membership
        vec![Some(int(11)), Some(int(3))], // both bound: provably absent
        vec![Some(int(99)), None],         // unknown source: empty
    ] {
        let want = oracle(&full, "Path", &bindings);
        let got = served.query("Path", &bindings).unwrap();
        assert_eq!(row_set(&got), want, "Path({bindings:?})");
        let got = ev.query(&program, "Path", &bindings).unwrap();
        assert_eq!(row_set(&got), want, "one-shot Path({bindings:?})");
    }
    // Sanity: the forward query actually had answers (the test bites).
    assert!(!oracle(&full, "Path", &[Some(int(0)), None]).is_empty());
}

/// All-free bindings degenerate to full evaluation: the answer is the
/// materialized relation itself, **bit-identical in row order**.
#[test]
fn all_free_bindings_are_bit_identical_to_full_eval() {
    let mut rng = Lcg(0x0a11_f4ee);
    let program = random_program(&mut rng, 3, false);
    let edb = random_edb(&mut rng);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();
    let served = ServedEvaluator::new(program.clone(), edb).unwrap();

    for rel in program.intensional() {
        let arity = match full.relation(rel) {
            Some(r) => r.arity(),
            None => continue,
        };
        let bindings = vec![None; arity];
        let got = served.query(rel, &bindings).unwrap();
        let want: Vec<Vec<Value>> = full
            .relation(rel)
            .unwrap()
            .iter()
            .map(|r| r.to_vec())
            .collect();
        let got_rows: Vec<Vec<Value>> = got.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got_rows, want, "row order must be bit-identical ({rel})");

        let got = ev.query(&program, rel, &bindings).unwrap();
        let got_rows: Vec<Vec<Value>> = got.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got_rows, want, "one-shot row order ({rel})");
    }
}

/// Query-shaped error and edge cases: arity mismatches are typed
/// errors, unknown and extensional relations answer empty (matching
/// full-evaluate-then-filter, whose output has neither).
#[test]
fn query_edge_cases() {
    let program = Program::parse("Path(x, y) :- Edge(x, y).").unwrap();
    let mut edb = Database::new();
    edb.insert("Edge", vec![int(1), int(2)]);
    let ev = Evaluator::new(edb.clone());

    match ev.query(&program, "Path", &[Some(int(1))]) {
        Err(EvalError::InputArity {
            relation,
            expected,
            got,
        }) => {
            assert_eq!(relation, "Path");
            assert_eq!((expected, got), (2, 1));
        }
        other => panic!("expected InputArity, got {other:?}"),
    }
    // Extensional relation: inputs are not answers.
    let got = ev.query(&program, "Edge", &[Some(int(1)), None]).unwrap();
    assert!(got.is_empty());
    // Unknown relation: nothing derives it.
    let got = ev.query(&program, "Nope", &[None]).unwrap();
    assert!(got.is_empty());

    // A durable session's overlay answers under the same contract.
    let dir = TempDir::new("query-edge");
    let mut durable = DurableEvaluator::create(dir.path(), program, edb).unwrap();
    assert!(matches!(
        durable.query("Path", &[Some(int(1))]),
        Err(EvalError::InputArity {
            expected: 2,
            got: 1,
            ..
        })
    ));
    assert!(durable
        .query("Edge", &[Some(int(1)), None])
        .unwrap()
        .is_empty());
    assert!(durable.query("Nope", &[None]).unwrap().is_empty());
    let got = durable.query("Path", &[Some(int(1)), None]).unwrap();
    assert_eq!(row_set(&got), HashSet::from([vec![int(1), int(2)]]));
}

/// A user program that already uses `magic_*`/`goal_*` names must not
/// collide with the rewrite's generated namespace.
#[test]
fn generated_names_escape_user_collisions() {
    let program = Program::parse(
        "magic_Path_bf(x) :- Edge(x, x).
         goal_Path_bf(x) :- magic_Path_bf(x).
         Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap();
    let mut edb = Database::new();
    for n in 0..4u64 {
        edb.insert("Edge", vec![int(n), int(n + 1)]);
    }
    edb.insert("Edge", vec![int(2), int(2)]);
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();

    for rel in ["Path", "magic_Path_bf", "goal_Path_bf"] {
        let arity = full.relation(rel).unwrap().arity();
        let mut bindings = vec![None; arity];
        bindings[0] = Some(int(2));
        let got = ev.query(&program, rel, &bindings).unwrap();
        assert_eq!(row_set(&got), oracle(&full, rel, &bindings), "{rel}");
    }
}

/// Multi-head rules split correctly through the rewrite (adornment is a
/// single-head notion; semantics must be preserved).
#[test]
fn multi_head_rules_are_split_for_rewrite() {
    let program = Program::parse(
        "Fwd(x, y), Rev(y, x) :- Edge(x, y).
         Fwd(x, z) :- Fwd(x, y), Fwd(y, z).",
    )
    .unwrap();
    let mut edb = Database::new();
    for n in 0..5u64 {
        edb.insert("Edge", vec![int(n), int(n + 1)]);
    }
    let ev = Evaluator::new(edb.clone());
    let full = ev.eval(&program).unwrap();

    for (rel, bindings) in [
        ("Fwd", vec![Some(int(1)), None]),
        ("Rev", vec![None, Some(int(2))]),
        ("Rev", vec![Some(int(3)), Some(int(2))]),
    ] {
        let got = ev.query(&program, rel, &bindings).unwrap();
        assert_eq!(
            row_set(&got),
            oracle(&full, rel, &bindings),
            "{rel}({bindings:?})"
        );
    }
}

/// Magic sets must prune: a point query on one chain head of 200 disjoint
/// 30-edge chains derives that chain's 30 answers (plus one demand fact),
/// not the 93,000-fact closure. Counted as facts charged to the governor,
/// so the pin is deterministic where a timing ratio would be noise.
#[test]
fn point_query_work_is_proportional_to_the_answer() {
    let _g = fault::test_lock();
    fault::reset();
    let program = closure_program();
    let ev = Evaluator::new(disjoint_chains(200, 30));

    let full = Governor::unlimited();
    ev.eval_governed(&program, &full).unwrap();
    assert_eq!(full.facts_counted(), 93_000);

    let head = int(7 * 31);
    let gov = Governor::unlimited();
    let answer = ev
        .query_governed(&program, "Path", &[Some(head), None], &gov)
        .unwrap();
    assert_eq!(answer.len(), 30);
    // Deriving the answer is charged too, so the count cannot be vacuous.
    assert!(gov.facts_counted() >= 30, "{}", gov.facts_counted());
    assert!(
        gov.facts_counted() * 100 <= full.facts_counted(),
        "point query charged {} facts, full evaluation {}",
        gov.facts_counted(),
        full.facts_counted()
    );
}
