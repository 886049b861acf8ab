//! Cross-crate property-based tests on the core invariants listed in
//! DESIGN.md.
//!
//! The build environment is offline, so instead of `proptest` these use
//! hand-rolled generators over the vendored deterministic [`rand`] shim:
//! each property runs a fixed number of seeded cases, and failures report
//! the seed for replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynamite::datalog::{
    evaluate, legacy, reorder_default, Evaluator, Program, RuleCacheHandle, WorkerPool,
};
use dynamite::instance::{from_facts, to_facts, Database, Instance, Record, TupleStore, Value};
use dynamite::schema::Schema;
use dynamite::smt::{FdLit, FdSolver, Lit, SatSolver};
use std::sync::Arc;

// ---------------------------------------------------------------- SAT --

/// A small random CNF: clauses over `nvars` variables, literals as signed
/// ints (like DIMACS).
fn random_cnf(rng: &mut StdRng, nvars: usize) -> Vec<Vec<i32>> {
    let nclauses = rng.gen_range(0..12);
    (0..nclauses)
        .map(|_| {
            let len = rng.gen_range(1..4);
            (0..len)
                .map(|_| {
                    let v = rng.gen_range(1..=nvars as i32);
                    if rng.gen_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect()
}

fn brute_force_sat(nvars: usize, cnf: &[Vec<i32>]) -> bool {
    (0u32..(1 << nvars)).any(|m| {
        cnf.iter().all(|c| {
            c.iter().any(|&l| {
                let v = l.unsigned_abs() - 1;
                let val = (m >> v) & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            })
        })
    })
}

/// CDCL agrees with brute force on small CNFs, and SAT models satisfy
/// every clause.
#[test]
fn sat_matches_brute_force() {
    let nvars = 6usize;
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cnf = random_cnf(&mut rng, nvars);
        let mut s = SatSolver::new();
        let vars: Vec<_> = (0..nvars).map(|_| s.new_var()).collect();
        let mut ok = true;
        for c in &cnf {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&l| {
                    let v = vars[(l.unsigned_abs() - 1) as usize];
                    if l > 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            ok &= s.add_clause(&lits);
        }
        let sat = ok && s.solve();
        assert_eq!(sat, brute_force_sat(nvars, &cnf), "seed {seed}: {cnf:?}");
        if sat {
            for c in &cnf {
                let satisfied = c.iter().any(|&l| {
                    let val = s.model_value(vars[(l.unsigned_abs() - 1) as usize]);
                    if l > 0 {
                        val
                    } else {
                        !val
                    }
                });
                assert!(satisfied, "seed {seed}: model violates {c:?}");
            }
        }
    }
}

/// Every model returned by the finite-domain layer satisfies every clause
/// that was added.
#[test]
fn fd_models_satisfy_clauses() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let mut s = FdSolver::new();
        let consts: Vec<_> = (0..6).map(|i| s.constant(&format!("k{i}"))).collect();
        let nvars = rng.gen_range(2..5);
        let vars: Vec<_> = (0..nvars)
            .map(|i| {
                let d = rng.gen_range(1usize..4);
                s.new_var(&format!("x{i}"), &consts[..d]).expect("var")
            })
            .collect();
        let mut clauses = Vec::new();
        for _ in 0..rng.gen_range(0..6) {
            let clause: Vec<FdLit> = (0..rng.gen_range(1..3))
                .map(|_| {
                    let x = vars[rng.gen_range(0..vars.len())];
                    let c = consts[rng.gen_range(0..consts.len())];
                    if rng.gen_bool(0.5) {
                        FdLit::Ne(x, c)
                    } else {
                        FdLit::Eq(x, c)
                    }
                })
                .collect();
            s.add_clause(&clause).expect("add");
            clauses.push(clause);
        }
        if let Some(model) = s.solve() {
            for c in &clauses {
                assert!(model.satisfies_clause(c), "seed {seed}: {c:?}");
            }
        }
    }
}

// ------------------------------------------------------- tuple store --

/// A random row over a small mixed domain (collision-prone on purpose so
/// the dedup table's hash-bucket handling is exercised).
fn random_row(rng: &mut StdRng, arity: usize) -> Vec<Value> {
    (0..arity)
        .map(|_| match rng.gen_range(0..4) {
            0 => Value::str(if rng.gen_bool(0.5) { "a" } else { "b" }),
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Id(rng.gen_range(0u64..4)),
            _ => Value::Int(rng.gen_range(0i64..4)),
        })
        .collect()
}

/// The columnar `TupleStore` round-trips insertion order and dedup
/// decisions against the obvious `Vec` + `HashSet` model.
#[test]
fn tuple_store_matches_vec_set_model() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let arity = rng.gen_range(1usize..5);
        let mut store = TupleStore::new(arity);
        let mut model_order: Vec<Vec<Value>> = Vec::new();
        let mut model_set: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(0..60) {
            let row = random_row(&mut rng, arity);
            let fresh = store.insert(&row);
            assert_eq!(fresh, model_set.insert(row.clone()), "seed {seed}");
            if fresh {
                model_order.push(row);
            }
        }
        // Same cardinality, same insertion order, same membership.
        assert_eq!(store.len(), model_order.len(), "seed {seed}");
        for (i, row) in model_order.iter().enumerate() {
            assert_eq!(store.get(i).expect("in range"), *row, "seed {seed} row {i}");
            assert!(store.contains(row), "seed {seed}");
        }
        let via_iter: Vec<Vec<Value>> = store.iter().map(|r| r.to_vec()).collect();
        assert_eq!(via_iter, model_order, "seed {seed}");
        // Column streams are exactly the per-column transpose of the
        // rows: the materialized values, and the raw tag/payload pairs,
        // both round-trip against the row model.
        for c in 0..arity {
            let expect: Vec<Value> = model_order.iter().map(|r| r[c]).collect();
            let col = store.column(c);
            assert_eq!(
                col.iter().collect::<Vec<Value>>(),
                expect,
                "seed {seed} col {c}"
            );
            let raw: Vec<(u8, u64)> = col
                .tags()
                .iter()
                .zip(col.payloads())
                .map(|(&t, &p)| (t, p))
                .collect();
            let expect_raw: Vec<(u8, u64)> = expect.iter().map(|v| v.to_raw()).collect();
            assert_eq!(raw, expect_raw, "seed {seed} col {c} (tag/payload streams)");
            for (i, v) in expect.iter().enumerate() {
                assert_eq!(col.value(i), *v, "seed {seed} col {c} row {i}");
            }
        }
        // Absent rows are reported absent.
        for _ in 0..10 {
            let probe = random_row(&mut rng, arity);
            assert_eq!(
                store.contains(&probe),
                model_set.contains(&probe),
                "seed {seed}"
            );
        }
    }
}

/// Projection over the columnar store agrees with projecting the row
/// model, and `from_columns` bulk loading equals row-by-row insertion.
#[test]
fn tuple_store_projection_and_bulk_load_agree() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(7500 + seed);
        let arity = rng.gen_range(1usize..4);
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..40))
            .map(|_| random_row(&mut rng, arity))
            .collect();
        let mut store = TupleStore::new(arity);
        for r in &rows {
            store.insert(r);
        }
        // Random projection column set.
        let cols: Vec<usize> = (0..arity).filter(|_| rng.gen_bool(0.6)).collect();
        if !cols.is_empty() {
            let expect: std::collections::HashSet<Vec<Value>> = rows
                .iter()
                .map(|r| cols.iter().map(|&c| r[c]).collect())
                .collect();
            assert_eq!(store.project(&cols), expect, "seed {seed}");
        }
        // Bulk columnar load of the same data is the same store.
        let columns: Vec<Vec<Value>> = (0..arity)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        let bulk = TupleStore::from_columns(columns);
        assert_eq!(bulk, store, "seed {seed}");
        let bulk_rows: Vec<Vec<Value>> = bulk.iter().map(|r| r.to_vec()).collect();
        let store_rows: Vec<Vec<Value>> = store.iter().map(|r| r.to_vec()).collect();
        assert_eq!(bulk_rows, store_rows, "seed {seed} (insertion order)");
    }
}

/// A value domain that stresses the SoA split: every `Value` variant,
/// extreme payload bit patterns (sign bits, `u64::MAX`), cross-variant
/// payload *ties* (`Int(7)` / `Id(7)` / `Bool(true)` / `Int(1)` share
/// payload words and differ only in the tag stream), and interned-symbol
/// ties (the same string interned repeatedly must keep one symbol index;
/// distinct strings interned in collision-prone order must keep distinct
/// ones). The domain is deliberately float-free — `Value` has no float
/// variant, so NaN-style "bitwise-equal but semantically unequal"
/// patterns cannot arise, and payload equality is always value equality.
fn soa_adversarial_domain() -> Vec<Value> {
    vec![
        Value::Int(7),
        Value::Id(7),
        Value::Bool(true),
        Value::Int(1),
        Value::Bool(false),
        Value::Int(0),
        Value::Id(0),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Id(u64::MAX),
        Value::str("soa-tie"),
        Value::str("soa-tie"), // same symbol as the previous entry
        Value::str("soa-tie2"),
        Value::str(""),
    ]
}

/// The filter kernel on the split layout agrees with a scalar sweep over
/// materialized values for every `Value` variant and payload-tie pattern,
/// in both the sparse (conditional) and dense (SIMD bitmask) regime and
/// across chunk-unaligned ranges.
#[test]
fn soa_filter_kernel_matches_scalar_sweep_on_all_variants() {
    let domain = soa_adversarial_domain();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(12_000 + seed);
        // Large stores hit the 64-row bitmask chunks; a unique second
        // column keeps rows distinct so column 0's density is exactly
        // the generator's, dedup notwithstanding.
        let rows = if seed % 3 == 0 {
            rng.gen_range(0..64)
        } else {
            rng.gen_range(1500..4500)
        };
        // Skew the draw so one value dominates (dense regime) while the
        // rest stay sparse.
        let hot = domain[rng.gen_range(0..domain.len())];
        let mut store = TupleStore::new(2);
        for i in 0..rows {
            let v = if rng.gen_bool(0.4) {
                hot
            } else {
                domain[rng.gen_range(0..domain.len())]
            };
            store.insert(&[v, Value::Int(i as i64)]);
        }
        for &probe in &domain {
            let (lo, hi) = {
                let a = rng.gen_range(0..store.len().max(1) + 10);
                let b = rng.gen_range(0..store.len().max(1) + 10);
                (a.min(b), a.max(b))
            };
            for (start, end) in [(0, usize::MAX), (lo, hi)] {
                let expect: Vec<u32> = (start.min(store.len())..end.min(store.len()))
                    .filter(|&i| store.column(0).value(i) == probe)
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(
                    store.filter_const_rows(&[(0, probe)], start, end),
                    expect,
                    "seed {seed} probe {probe} range {start}..{end}"
                );
            }
        }
        // Two-constant probes: the second column ties every row id.
        if !store.is_empty() {
            let pick = rng.gen_range(0..store.len());
            let consts = [
                (0, store.column(0).value(pick)),
                (1, Value::Int(pick as i64)),
            ];
            let expect: Vec<u32> = (0..store.len())
                .filter(|&i| consts.iter().all(|&(c, v)| store.column(c).value(i) == v))
                .map(|i| i as u32)
                .collect();
            assert_eq!(
                store.filter_const_rows(&consts, 0, usize::MAX),
                expect,
                "seed {seed} two-const"
            );
        }
    }
}

/// Tag/payload round trip over the adversarial domain: `to_raw` composed
/// with reassembly through the column streams is the identity, and raw
/// pairs are equal exactly when the values are.
#[test]
fn soa_tag_payload_round_trip_is_identity() {
    let domain = soa_adversarial_domain();
    let mut store = TupleStore::new(1);
    for &v in &domain {
        store.insert(&[v]);
    }
    // The store deduplicated the repeated symbol; walk the survivors.
    let col = store.column(0);
    let survivors: Vec<Value> = col.iter().collect();
    for (i, &v) in survivors.iter().enumerate() {
        assert_eq!(col.value(i), v);
        assert_eq!((col.tags()[i], col.payloads()[i]), v.to_raw());
    }
    for &a in &domain {
        for &b in &domain {
            assert_eq!(a == b, a.to_raw() == b.to_raw(), "{a} vs {b}");
            assert_eq!(a == b, a.to_bits() == b.to_bits(), "{a} vs {b}");
        }
    }
}

// ----------------------------------------------------- instance/facts --

fn random_nested_instance(rng: &mut StdRng, schema: &Arc<Schema>) -> Instance {
    let mut inst = Instance::new(schema.clone());
    let word = |rng: &mut StdRng| {
        let len = rng.gen_range(1..5);
        let s: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(0u8..26)))
            .collect();
        Value::str(s)
    };
    for _ in 0..rng.gen_range(0..6) {
        let children: Vec<Record> = (0..rng.gen_range(0..4))
            .map(|_| Record::from_values(vec![Value::Int(rng.gen_range(0i64..50)), word(rng)]))
            .collect();
        let parent = Record::with_fields(vec![
            Value::Int(rng.gen_range(0i64..50)).into(),
            word(rng).into(),
            children.into(),
        ]);
        inst.insert("Parent", parent).expect("valid record");
    }
    inst
}

/// instance → facts → instance is the identity up to canonical flattening
/// (§3.3 round trip).
#[test]
fn facts_round_trip() {
    let schema = Arc::new(
        Schema::parse(
            "@document
             Parent { pk: Int, pname: String, Child { ck: Int, cval: String } }",
        )
        .expect("valid schema"),
    );
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let inst = random_nested_instance(&mut rng, &schema);
        let facts = to_facts(&inst);
        // The columnar fact relations are internally consistent: every
        // row view agrees with the column streams it is gathered from.
        for (_, rel) in facts.iter() {
            for (i, row) in rel.iter().enumerate() {
                for c in 0..rel.arity() {
                    assert_eq!(row.at(c), rel.column(c).value(i), "seed {seed}");
                }
            }
        }
        let back = from_facts(&facts, inst.schema().clone()).expect("round trip");
        assert!(inst.canon_eq(&back), "seed {seed}");
    }
}

/// Positive Datalog is monotone: adding input facts never removes output
/// facts.
#[test]
fn datalog_monotone() {
    let program = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .expect("parses");
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let mut small = Database::new();
        for _ in 0..rng.gen_range(0..12) {
            small.insert(
                "Edge",
                vec![rng.gen_range(0i64..8).into(), rng.gen_range(0i64..8).into()],
            );
        }
        let mut big = small.clone();
        for _ in 0..rng.gen_range(0..4) {
            big.insert(
                "Edge",
                vec![rng.gen_range(0i64..8).into(), rng.gen_range(0i64..8).into()],
            );
        }
        let out_small = evaluate(&program, &small).expect("eval");
        let out_big = evaluate(&program, &big).expect("eval");
        for t in out_small.relation("Path").expect("path").iter() {
            assert!(
                out_big.relation("Path").expect("path").contains_row(t),
                "seed {seed}"
            );
        }
    }
}

// ------------------------------------------------------------ analyze --

/// Every MDP returned by `mdp_set` distinguishes the tables and is
/// minimal (Definition 1).
#[test]
fn mdps_distinguish_and_are_minimal() {
    use dynamite::core::mdp_set;
    use dynamite::instance::FlatTable;
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let random_table = |rng: &mut StdRng| FlatTable {
            columns: vec!["a".into(), "b".into(), "c".into()],
            rows: (0..rng.gen_range(1..6))
                .map(|_| (0..3).map(|_| Value::Int(rng.gen_range(0i64..3))).collect())
                .collect(),
        };
        let ta = random_table(&mut rng);
        let tb = random_table(&mut rng);
        if ta == tb {
            continue;
        }
        let result = mdp_set(&ta, &tb, 10_000);
        assert!(!result.budget_exhausted, "seed {seed}");
        for mdp in &result.mdps {
            let cols: Vec<usize> = mdp.iter().copied().collect();
            assert_ne!(ta.project(&cols), tb.project(&cols), "seed {seed}");
            for &drop in mdp {
                let sub: Vec<usize> = mdp.iter().copied().filter(|&c| c != drop).collect();
                if !sub.is_empty() {
                    assert_eq!(ta.project(&sub), tb.project(&sub), "seed {seed}");
                }
            }
        }
    }
}

// ------------------------------------- evaluator differential testing --

/// Generates a random stratified program over EDB relations `E1(2)`,
/// `E2(1)`, `E3(3)` and IDB relations `I0(1)`, `I1(2)`, `I2(2)` with
/// strata 0 ≤ 1 ≤ 2: bodies draw positive literals from the EDB and from
/// IDB relations of an equal or lower stratum (recursion allowed), and
/// negated literals only from strictly lower strata, so the result is
/// stratifiable by construction. Heads are range-restricted (every head
/// var occurs in a positive body literal) and negated literals only use
/// bound variables, constants, and wildcards.
fn random_stratified_program(rng: &mut StdRng) -> Program {
    const EDB: [(&str, usize); 3] = [("E1", 2), ("E2", 1), ("E3", 3)];
    const IDB: [(&str, usize); 3] = [("I0", 1), ("I1", 2), ("I2", 2)];
    let vars = ["x", "y", "z", "w"];
    let consts = ["1", "2", "\"a\"", "\"b\""];

    let mut rules = Vec::new();
    for (stratum, &(head, head_arity)) in IDB.iter().enumerate() {
        for _ in 0..rng.gen_range(1..=2) {
            // Positive body literals: EDB, or IDB with stratum ≤ this one.
            let mut body = Vec::new();
            let mut bound: Vec<&str> = Vec::new();
            for _ in 0..rng.gen_range(1..=3) {
                let pool_extra = stratum + 1; // IDB[0..=stratum] allowed
                let pick = rng.gen_range(0..EDB.len() + pool_extra);
                let (rel, arity) = if pick < EDB.len() {
                    EDB[pick]
                } else {
                    IDB[pick - EDB.len()]
                };
                let terms: Vec<String> = (0..arity)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => consts[rng.gen_range(0..consts.len())].to_string(),
                        1 => "_".to_string(),
                        _ => {
                            let v = vars[rng.gen_range(0..vars.len())];
                            bound.push(v);
                            v.to_string()
                        }
                    })
                    .collect();
                body.push(format!("{rel}({})", terms.join(", ")));
            }
            if bound.is_empty() {
                // Ensure at least one bound variable for the head.
                body.push("E2(x)".to_string());
                bound.push("x");
            }
            // Optionally one negated literal over a strictly lower
            // stratum (or the EDB), using only bound vars / consts / _.
            if rng.gen_bool(0.4) {
                let pick = rng.gen_range(0..EDB.len() + stratum);
                let (rel, arity) = if pick < EDB.len() {
                    EDB[pick]
                } else {
                    IDB[pick - EDB.len()]
                };
                let terms: Vec<String> = (0..arity)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => consts[rng.gen_range(0..consts.len())].to_string(),
                        1 => "_".to_string(),
                        _ => bound[rng.gen_range(0..bound.len())].to_string(),
                    })
                    .collect();
                body.push(format!("!{rel}({})", terms.join(", ")));
            }
            let head_terms: Vec<String> = (0..head_arity)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        consts[rng.gen_range(0..consts.len())].to_string()
                    } else {
                        bound[rng.gen_range(0..bound.len())].to_string()
                    }
                })
                .collect();
            rules.push(format!(
                "{head}({}) :- {}.",
                head_terms.join(", "),
                body.join(", ")
            ));
        }
    }
    Program::parse(&rules.join("\n")).expect("generated program parses")
}

/// A random EDB over a small mixed int/string domain (strings exercise
/// the interner in join keys and negation probes).
fn random_edb(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    let val = |rng: &mut StdRng| -> Value {
        match rng.gen_range(0..4) {
            0 => Value::Int(rng.gen_range(1i64..3)),
            1 => Value::str(if rng.gen_bool(0.5) { "a" } else { "b" }),
            _ => Value::Int(rng.gen_range(1i64..6)),
        }
    };
    for _ in 0..rng.gen_range(0..10) {
        db.insert("E1", vec![val(rng), val(rng)]);
    }
    for _ in 0..rng.gen_range(0..5) {
        db.insert("E2", vec![val(rng)]);
    }
    for _ in 0..rng.gen_range(0..8) {
        db.insert("E3", vec![val(rng), val(rng), val(rng)]);
    }
    db
}

/// An ambient-planner context over `edb` on an explicit pool.
fn on_pool(edb: &Database, pool: &Arc<WorkerPool>) -> Evaluator {
    Evaluator::with_config(
        edb.clone(),
        pool.clone(),
        RuleCacheHandle::default(),
        reorder_default(),
    )
}

/// The reusable-context engine, the compatibility `evaluate` wrapper, and
/// the legacy one-shot interpreter agree on a corpus of random stratified
/// programs — semantics must not drift under interning and index reuse.
#[test]
fn differential_context_vs_legacy_evaluation() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let program = random_stratified_program(&mut rng);
        let edb = random_edb(&mut rng);
        let ctx = Evaluator::new(edb.clone());

        let via_legacy = legacy::evaluate(&program, &edb).expect("legacy evaluates");
        let via_wrapper = evaluate(&program, &edb).expect("wrapper evaluates");
        let via_context = ctx.eval(&program).expect("context evaluates");

        assert_eq!(
            via_context, via_legacy,
            "seed {seed} diverged (context vs legacy) on:\n{program}\nEDB:\n{edb}"
        );
        assert_eq!(
            via_wrapper, via_legacy,
            "seed {seed} diverged (wrapper vs legacy) on:\n{program}\nEDB:\n{edb}"
        );
    }
}

/// Exact-order equality of two evaluation results: every relation holds
/// the same rows in the same insertion order (strictly stronger than
/// `Database`'s set-semantics `==`).
fn assert_identical_row_order(a: &Database, b: &Database, what: &str) {
    let names_a: Vec<&str> = a.names().collect();
    let names_b: Vec<&str> = b.names().collect();
    assert_eq!(names_a, names_b, "{what}: relation sets differ");
    for (name, rel_a) in a.iter() {
        let rel_b = b.relation(name).expect("same names");
        let rows_a: Vec<Vec<Value>> = rel_a.iter().map(|r| r.to_vec()).collect();
        let rows_b: Vec<Vec<Value>> = rel_b.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows_a, rows_b, "{what}: `{name}` row order diverged");
    }
}

/// Parallel evaluation is deterministic: for any thread count the result
/// `Database` is bit-identical — same relations, same rows, same
/// insertion order — to the sequential (`threads = 1`) result.
#[test]
fn parallel_eval_is_deterministic() {
    let pools: Vec<Arc<WorkerPool>> = [1usize, 2, 4]
        .iter()
        .map(|&n| Arc::new(WorkerPool::new(n)))
        .collect();
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(8000 + seed);
        let program = random_stratified_program(&mut rng);
        let edb = random_edb(&mut rng);
        let base = on_pool(&edb, &pools[0])
            .eval(&program)
            .expect("sequential evaluates");
        for pool in &pools[1..] {
            let out = on_pool(&edb, pool)
                .eval(&program)
                .expect("parallel evaluates");
            assert_identical_row_order(
                &base,
                &out,
                &format!(
                    "seed {seed}, {} threads, program:\n{program}",
                    pool.threads()
                ),
            );
        }
    }
}

/// Same determinism pin on a recursive workload large enough to trigger
/// the partitioned outer-scan path (delta relations of thousands of
/// rows), which the small random EDBs above never reach.
#[test]
fn parallel_eval_deterministic_on_large_closure() {
    let closure = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .expect("parses");
    let mut edb = Database::new();
    for i in 0..500i64 {
        edb.insert("Edge", vec![i.into(), (i + 1).into()]);
        if i % 9 == 0 {
            edb.insert("Edge", vec![i.into(), ((i + 37) % 500).into()]);
        }
    }
    let base = on_pool(&edb, &Arc::new(WorkerPool::new(1)))
        .eval(&closure)
        .expect("sequential evaluates");
    assert!(base.relation("Path").expect("path").len() > 100_000);
    for threads in [2usize, 4] {
        let out = on_pool(&edb, &Arc::new(WorkerPool::new(threads)))
            .eval(&closure)
            .expect("parallel evaluates");
        assert_identical_row_order(&base, &out, &format!("{threads} threads"));
    }
}

/// The parallel path agrees with the legacy one-shot interpreter (set
/// semantics) on random stratified programs — fan-out, partitioning, and
/// the deterministic merge must not drift the model computed.
#[test]
fn differential_parallel_vs_legacy_evaluation() {
    let pool = Arc::new(WorkerPool::new(3));
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let program = random_stratified_program(&mut rng);
        let edb = random_edb(&mut rng);
        let via_legacy = legacy::evaluate(&program, &edb).expect("legacy evaluates");
        let via_parallel = on_pool(&edb, &pool)
            .eval(&program)
            .expect("parallel evaluates");
        assert_eq!(
            via_parallel, via_legacy,
            "seed {seed} diverged (parallel vs legacy) on:\n{program}\nEDB:\n{edb}"
        );
    }
}

/// In-place Fisher–Yates over the vendored deterministic rng.
fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        xs.swap(i, j);
    }
}

/// Join planning makes evaluation independent of the order body literals
/// are written in: for random stratified programs, every permutation of
/// every rule's body evaluates to the same database (set semantics) as
/// the legacy interpreter on the *original* program — under the
/// cost-based planner and under the body-order fallback alike. (The
/// machine-generated bodies of CEGIS candidates arrive in arbitrary
/// order, so this is the invariant the planner's correctness rests on.)
#[test]
fn evaluation_is_invariant_under_body_permutation() {
    let pool = Arc::new(WorkerPool::new(1));
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(11_000 + seed);
        let program = random_stratified_program(&mut rng);
        let edb = random_edb(&mut rng);
        let expect = legacy::evaluate(&program, &edb).expect("legacy evaluates");
        for perm in 0..4 {
            let mut permuted = program.clone();
            for rule in &mut permuted.rules {
                if perm == 0 {
                    // The fully adversarial case: reversed bodies.
                    rule.body.reverse();
                } else {
                    shuffle(&mut rng, &mut rule.body);
                }
            }
            for reorder in [true, false] {
                let out = Evaluator::with_config(
                    edb.clone(),
                    pool.clone(),
                    RuleCacheHandle::default(),
                    reorder,
                )
                .eval(&permuted)
                .expect("permuted program evaluates");
                assert_eq!(
                    out, expect,
                    "seed {seed} perm {perm} reorder {reorder} diverged on:\n{permuted}\nEDB:\n{edb}"
                );
            }
        }
    }
}

/// Re-using one context for many programs matches fresh one-shot
/// evaluation for every program (index caches must not leak state
/// between candidate programs).
#[test]
fn differential_context_reuse_many_candidates() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let edb = random_edb(&mut rng);
        let ctx = Evaluator::new(edb.clone());
        for k in 0..10 {
            let program = random_stratified_program(&mut rng);
            let via_context = ctx.eval(&program).expect("context evaluates");
            let via_legacy = legacy::evaluate(&program, &edb).expect("legacy evaluates");
            assert_eq!(
                via_context, via_legacy,
                "seed {seed} candidate {k} diverged on:\n{program}\nEDB:\n{edb}"
            );
        }
    }
}
