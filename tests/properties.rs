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
    evaluate, legacy, reorder_default, Atom, Evaluator, IncrementalEvaluator, Literal, Program,
    Rule, RuleCacheHandle, Term, WorkerPool,
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

/// A schema with two nesting levels, sibling child types, primitive
/// attributes after nested ones (so validation order is observable),
/// every primitive type and a second top-level type, for the facts→flat
/// differential.
fn facts_flat_schema() -> Arc<Schema> {
    Arc::new(
        Schema::parse(
            "@document
             Dept { did: Int, Emp { eid: Int, Skill { sname: String }, ename: String,
                    active: Bool }, dname: String, Site { city: String } }
             Proj { pid: Int, title: String }",
        )
        .expect("valid schema"),
    )
}

/// `Flattened::from_facts(db, s)` is `from_facts(db, s).map(flatten)`,
/// with the reference `from_facts` (the library's shares its walker with
/// the flat one): the same `Ok` value, or the same error.
fn assert_facts_flat_agree(db: &Database, schema: &Arc<Schema>, what: &str) {
    use dynamite::instance::Flattened;
    let direct = Flattened::from_facts(db, schema);
    let via_instance = reference_from_facts(db, schema.clone()).map(|i| i.flatten());
    assert_eq!(direct, via_instance, "{what}\nfacts:\n{db}");
}

/// The candidate check's facts→flat path agrees with rebuilding the
/// instance (by the reference walk) and flattening it, on random fact
/// databases over a nested
/// schema: wrong primitive types, ids in primitive columns, non-id
/// values in record columns, orphan, shared and duplicate children,
/// wrong arities (on empty and non-empty relations), missing and extra
/// relations — and on the facts of valid instances.
#[test]
fn flattened_from_facts_matches_from_facts_then_flatten() {
    use dynamite::schema::PrimType;
    let schema = facts_flat_schema();
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        // Share of cells drawn from the wrong kind: none, rare, common.
        let noise = [0.0, 0.03, 0.15][(seed % 3) as usize];
        let ids = rng.gen_range(1u64..5);
        let cell = |rng: &mut StdRng, attr: &str| -> Value {
            let kind = if rng.gen_bool(noise) {
                rng.gen_range(0..4)
            } else {
                match schema.prim_type(attr) {
                    Some(PrimType::Int) => 0,
                    Some(PrimType::Str) => 1,
                    Some(PrimType::Bool) => 2,
                    None => 3,
                }
            };
            match kind {
                0 => Value::Int(rng.gen_range(0i64..4)),
                1 => Value::str(["a", "b", "é"][rng.gen_range(0..3)]),
                2 => Value::Bool(rng.gen_bool(0.5)),
                _ => Value::Id(rng.gen_range(0..ids)),
            }
        };
        let mut db = Database::new();
        for record in schema.records() {
            if rng.gen_bool(0.1) {
                continue; // missing relation: no records
            }
            let mut arity = schema.fact_arity(record);
            if rng.gen_bool(0.04) {
                arity = if rng.gen_bool(0.5) {
                    arity + 1
                } else {
                    arity - 1
                };
            }
            let mut cols: Vec<&str> = Vec::new();
            if schema.is_nested(record) {
                cols.push(""); // parent id
            }
            cols.extend(schema.attrs(record).iter().map(String::as_str));
            let rel = db.relation_mut(record, arity);
            for _ in 0..rng.gen_range(0..6) {
                let row: Vec<Value> = (0..arity)
                    .map(|c| cell(&mut rng, cols.get(c).copied().unwrap_or("")))
                    .collect();
                rel.insert(&row);
            }
        }
        if rng.gen_bool(0.1) {
            db.insert("Unrelated", vec![Value::Int(1)]);
        }
        assert_facts_flat_agree(&db, &schema, &format!("seed {seed}"));
    }

    // The facts of valid instances (always `Ok`).
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(8000 + seed);
        let mut inst = Instance::new(schema.clone());
        for d in 0..rng.gen_range(0..4) {
            let emps: Vec<Record> = (0..rng.gen_range(0..3))
                .map(|e| {
                    let skills: Vec<Record> = (0..rng.gen_range(0..3))
                        .map(|k| Record::from_values(vec![Value::str(format!("s{k}"))]))
                        .collect();
                    Record::with_fields(vec![
                        Value::Int(e).into(),
                        skills.into(),
                        Value::str("n").into(),
                        Value::Bool(rng.gen_bool(0.5)).into(),
                    ])
                })
                .collect();
            let sites = vec![Record::from_values(vec![Value::str("x")])];
            let dept = Record::with_fields(vec![
                Value::Int(d).into(),
                emps.into(),
                Value::str("d").into(),
                sites.into(),
            ]);
            inst.insert("Dept", dept).expect("valid record");
        }
        let db = to_facts(&inst);
        assert!(dynamite::instance::Flattened::from_facts(&db, &schema).is_ok());
        assert_facts_flat_agree(&db, &schema, &format!("valid instance, seed {seed}"));
    }
}

/// Hand-built cases of the facts→flat differential, one per failure mode.
#[test]
fn flattened_from_facts_hand_built_cases() {
    let schema = facts_flat_schema();
    let (i, s, b, id) = (Value::Int, Value::str, Value::Bool, Value::Id);
    let db = |rels: &[(&str, Vec<Vec<Value>>)]| {
        let mut db = Database::new();
        for (name, rows) in rels {
            for row in rows {
                db.insert(name, row.clone());
            }
        }
        db
    };
    let cases: Vec<(&str, Database)> = vec![
        ("empty database", Database::new()),
        (
            "empty relations, one with the wrong arity",
            Database::from_relations([
                ("Dept".to_string(), TupleStore::new(4)),
                ("Emp".to_string(), TupleStore::new(2)),
            ]),
        ),
        (
            "valid, with shared and duplicate children",
            db(&[
                (
                    "Dept",
                    vec![
                        vec![i(1), id(0), s("d"), id(9)],
                        vec![i(2), id(0), s("e"), id(9)],
                    ],
                ),
                (
                    "Emp",
                    vec![
                        vec![id(0), i(7), id(3), s("n"), b(true)],
                        vec![id(0), i(7), id(4), s("n"), b(true)],
                    ],
                ),
                ("Skill", vec![vec![id(3), s("x")], vec![id(4), s("x")]]),
            ]),
        ),
        (
            "orphan children are ignored, even ill-typed ones",
            db(&[
                ("Dept", vec![vec![i(1), id(0), s("d"), id(1)]]),
                ("Emp", vec![vec![id(5), s("bad"), id(6), i(0), i(0)]]),
                ("Site", vec![vec![id(8), s("x")]]),
            ]),
        ),
        (
            "a non-id value links children too",
            db(&[
                ("Dept", vec![vec![i(1), i(4), s("d"), id(1)]]),
                ("Emp", vec![vec![i(4), i(7), id(2), s("n"), b(false)]]),
            ]),
        ),
        (
            "arity mismatch on a nested relation",
            db(&[
                ("Dept", vec![]),
                ("Site", vec![vec![id(0), s("x"), s("y")]]),
            ]),
        ),
        (
            "arity mismatch on a top-level relation",
            db(&[("Proj", vec![vec![i(1)]])]),
        ),
        (
            "wrong primitive type",
            db(&[("Proj", vec![vec![i(1), s("t")], vec![s("1"), s("t")]])]),
        ),
        (
            "id in a primitive column",
            db(&[("Proj", vec![vec![id(1), s("t")]])]),
        ),
        (
            "a bad child before a bad later parent attribute",
            db(&[
                ("Dept", vec![vec![i(1), id(0), i(2), id(0)]]),
                ("Emp", vec![vec![id(0), i(7), id(2), s("n"), i(1)]]),
                ("Site", vec![vec![id(0), i(3)]]),
            ]),
        ),
        (
            "a bad grandchild before a bad later child attribute",
            db(&[
                ("Dept", vec![vec![i(1), id(0), s("d"), id(0)]]),
                ("Emp", vec![vec![id(0), i(7), id(3), i(5), b(true)]]),
                ("Skill", vec![vec![id(3), i(9)]]),
            ]),
        ),
        (
            "a bad parent attribute before its children",
            db(&[
                ("Dept", vec![vec![s("1"), id(0), s("d"), id(0)]]),
                ("Emp", vec![vec![id(0), s("bad"), id(2), s("n"), b(true)]]),
            ]),
        ),
        (
            "the first of two bad children, in fact order",
            db(&[
                ("Dept", vec![vec![i(1), id(0), s("d"), id(0)]]),
                (
                    "Emp",
                    vec![
                        vec![id(0), i(7), id(2), s("n"), i(1)],
                        vec![id(0), s("e"), id(2), s("n"), b(true)],
                    ],
                ),
            ]),
        ),
    ];
    for (what, db) in &cases {
        assert_facts_flat_agree(db, &schema, what);
    }
}

/// A random nested schema: 1–3 top-level record types nested up to three
/// deep, each with 0–3 primitive attributes of random types before,
/// between and after its 0–2 nested types. A record type may have no
/// primitive attribute (its table is zero-width when its ancestors have
/// none either).
fn random_nested_schema(rng: &mut StdRng) -> Arc<Schema> {
    fn record(rng: &mut StdRng, depth: usize, names: &mut usize, out: &mut String) {
        *names += 1;
        out.push_str(&format!("R{names} {{ "));
        let mut prims = rng.gen_range(0..=3usize);
        let mut nested = if depth < 3 {
            rng.gen_range(0..=2usize)
        } else {
            0
        };
        if prims + nested == 0 {
            prims = 1;
        }
        while prims + nested > 0 {
            if rng.gen_range(0..prims + nested) < prims {
                prims -= 1;
                *names += 1;
                let ty = ["Int", "String", "Bool"][rng.gen_range(0..3)];
                out.push_str(&format!("a{names}: {ty}, "));
            } else {
                nested -= 1;
                record(rng, depth + 1, names, out);
                out.push_str(", ");
            }
        }
        out.push_str("} ");
    }
    let mut text = String::from("@document ");
    let mut names = 0;
    for _ in 0..rng.gen_range(1..=3) {
        record(rng, 0, &mut names, &mut text);
    }
    Arc::new(Schema::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}")))
}

/// Random facts over `schema`'s record relations: up to `rows` rows each,
/// values from `ints` and `strs`, and `noise` as the share of cells of the
/// wrong kind and of relations with a wrong arity. Record-typed and
/// parent columns hold ids below 4.
fn random_schema_facts(
    rng: &mut StdRng,
    schema: &Schema,
    rows: usize,
    noise: f64,
    ints: i64,
    strs: &[&str],
) -> Database {
    use dynamite::schema::PrimType;
    let mut db = Database::new();
    for record in schema.records() {
        if rng.gen_bool(0.1) {
            continue;
        }
        let mut kinds: Vec<Option<PrimType>> = Vec::new();
        if schema.is_nested(record) {
            kinds.push(None);
        }
        kinds.extend(schema.attrs(record).iter().map(|a| schema.prim_type(a)));
        let mut arity = kinds.len();
        if rng.gen_bool(noise / 2.0) {
            arity = if rng.gen_bool(0.5) || arity == 0 {
                arity + 1
            } else {
                arity - 1
            };
        }
        let rel = db.relation_mut(record, arity);
        for _ in 0..rng.gen_range(0..=rows) {
            let row: Vec<Value> = (0..arity)
                .map(|c| {
                    let kind = if rng.gen_bool(noise) {
                        rng.gen_range(0..4)
                    } else {
                        match kinds.get(c).copied().flatten() {
                            Some(PrimType::Int) => 0,
                            Some(PrimType::Str) => 1,
                            Some(PrimType::Bool) => 2,
                            None => 3,
                        }
                    };
                    match kind {
                        0 => Value::Int(rng.gen_range(0..ints)),
                        1 => Value::str(strs[rng.gen_range(0..strs.len())]),
                        2 => Value::Bool(rng.gen_bool(0.5)),
                        _ => Value::Id(rng.gen_range(0..4)),
                    }
                })
                .collect();
            rel.insert(&row);
        }
    }
    db
}

/// The §3.3 walks as they were before the schema was resolved into
/// per-type plans: a recursive `to_facts` that looks each relation and
/// attribute list up by name per record. A reference for the library's
/// relations, rows, fresh ids and row order.
fn reference_to_facts(instance: &Instance) -> Database {
    use dynamite::instance::Field;
    fn emit(
        schema: &Schema,
        record_type: &str,
        record: &Record,
        parent: Option<Value>,
        next_id: &mut u64,
        db: &mut Database,
    ) {
        let my_id = Value::Id(*next_id);
        *next_id += 1;
        let mut tuple: Vec<Value> = parent.into_iter().collect();
        for field in record.fields() {
            match field {
                Field::Prim(v) => tuple.push(*v),
                Field::Children(_) => tuple.push(my_id),
            }
        }
        db.relation_mut(record_type, tuple.len()).insert(&tuple);
        for (attr, field) in schema.attrs(record_type).iter().zip(record.fields()) {
            if let Field::Children(children) = field {
                for c in children {
                    emit(schema, attr, c, Some(my_id), next_id, db);
                }
            }
        }
    }
    let schema = instance.schema();
    let mut db = Database::new();
    for record in schema.records() {
        db.relation_mut(record, schema.fact_arity(record));
    }
    let mut next_id = 0;
    for (record_type, records) in instance.iter() {
        for r in records {
            emit(schema, record_type, r, None, &mut next_id, &mut db);
        }
    }
    db
}

/// `BuildRecord` through a hash index on each nested relation's
/// parent-id column, each top-level record validated by
/// `Instance::insert` once built: the reference for the library's
/// `from_facts`, its records, child order and errors.
fn reference_from_facts(
    facts: &Database,
    schema: Arc<Schema>,
) -> Result<Instance, dynamite::instance::FactsError> {
    use dynamite::instance::{ColumnIndex, FactsError, Field, RowRef};
    use std::collections::HashMap;
    for record in schema.records() {
        let expected = schema.fact_arity(record);
        if let Some(rel) = facts.relation(record) {
            if !rel.is_empty() && rel.arity() != expected {
                return Err(FactsError::Arity {
                    relation: record.to_string(),
                    expected,
                    got: rel.arity(),
                });
            }
        }
    }
    let mut indices = HashMap::new();
    for record in schema.records().filter(|r| schema.is_nested(r)) {
        if let Some(rel) = facts.relation(record).filter(|r| r.arity() > 0) {
            indices.insert(record, ColumnIndex::build(rel, &[0]));
        }
    }
    fn build(
        schema: &Schema,
        facts: &Database,
        indices: &HashMap<&str, ColumnIndex>,
        record_type: &str,
        tuple: RowRef<'_>,
    ) -> Record {
        let first_col = usize::from(schema.is_nested(record_type));
        let mut fields = Vec::new();
        for (col, attr) in (first_col..).zip(schema.attrs(record_type)) {
            if !schema.is_record(attr) {
                fields.push(Field::Prim(tuple.at(col)));
                continue;
            }
            let children = match (facts.relation(attr), indices.get(attr.as_str())) {
                (Some(rel), Some(idx)) => idx
                    .get(&[tuple.at(col)])
                    .iter()
                    .map(|&i| build(schema, facts, indices, attr, rel.get(i as usize).unwrap()))
                    .collect(),
                _ => Vec::new(),
            };
            fields.push(Field::Children(children));
        }
        Record::with_fields(fields)
    }
    let mut instance = Instance::new(schema.clone());
    for record_type in schema.top_level_records() {
        if let Some(rel) = facts.relation(record_type) {
            for tuple in rel.iter() {
                let record = build(&schema, facts, &indices, record_type, tuple);
                instance.insert(record_type, record)?;
            }
        }
    }
    Ok(instance)
}

/// Relations in name order, each with its rows in row order.
fn ordered_facts(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    db.iter()
        .map(|(n, r)| (n.to_string(), r.iter().map(|t| t.to_vec()).collect()))
        .collect()
}

/// Top-level record types in name order, each with its records in order.
fn ordered_records(inst: &Instance) -> Vec<(String, Vec<Record>)> {
    inst.iter()
        .map(|(n, rs)| (n.to_string(), rs.to_vec()))
        .collect()
}

/// The plan-based `to_facts` and `from_facts` against the reference
/// walks, over random nested schemas:
/// - on instances rebuilt from well-typed random facts (shared and
///   duplicate children included), `to_facts` gives the reference's
///   relations and rows, fresh ids and row order included, and
///   `from_facts(to_facts(i))` is canonically `i`;
/// - on random facts, noisy ones included (wrong arities, ill-typed
///   values at every depth), `from_facts` gives the reference's records,
///   child order included, or the same error.
#[test]
fn facts_conversions_match_reference_walks_on_random_schemas() {
    use dynamite::instance::{FactsError, InstanceError};
    let mut deep_errors = 0;
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(11_000 + seed);
        let schema = random_nested_schema(&mut rng);
        let noise = [0.0, 0.0, 0.03, 0.15][(seed % 4) as usize];
        let facts = random_schema_facts(&mut rng, &schema, 6, noise, 4, &["a", "b", "é"]);
        let got = from_facts(&facts, schema.clone());
        let want = reference_from_facts(&facts, schema.clone());
        assert_eq!(
            got.as_ref().map(ordered_records).map_err(Clone::clone),
            want.as_ref().map(ordered_records).map_err(Clone::clone),
            "seed {seed}\nfacts:\n{facts}"
        );
        if let Err(FactsError::Validation(InstanceError::FieldType { record, .. })) = &want {
            deep_errors += usize::from(schema.chain_to(record).len() >= 3);
        }
        let Ok(inst) = want else {
            continue;
        };
        let db = to_facts(&inst);
        assert_eq!(
            ordered_facts(&db),
            ordered_facts(&reference_to_facts(&inst)),
            "seed {seed}"
        );
        let back = from_facts(&db, schema.clone()).expect("facts of an instance");
        assert!(back.canon_eq(&inst), "seed {seed}");
    }
    assert!(deep_errors > 0, "no ill-typed value at depth 2 or more");
}

/// The candidate check's encoded path over random nested schemas (with
/// zero-width tables) and random facts (ill-typed values, wrong arities,
/// orphan and shared children), against a codec whose dictionaries were
/// learned from other facts, so many values are out of dictionary:
/// - decoding the encoded walk equals the reference
///   `from_facts(..).flatten()` and `Flattened::from_facts`, the same
///   error included;
/// - a learned encoding's tables equal another encoding's iff their flat
///   tables are equal;
/// - `mdp_set_ids` on the id tables equals `mdp_set` on the flat tables
///   and the by-projection reference, at every budget up to the column
///   count plus an ample one.
#[test]
fn encoded_walk_and_mdps_match_flat_tables_on_random_schemas() {
    use dynamite::core::{mdp_set, mdp_set_ids};
    use dynamite::instance::{FlatCodec, Flattened};
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let schema = random_nested_schema(&mut rng);
        let mut codec = FlatCodec::new(&schema);
        let train = random_schema_facts(&mut rng, &schema, 4, 0.0, 3, &["a", "b"]);
        let learned = codec.learn(&train).expect("well-typed facts flatten");
        let want = reference_from_facts(&train, schema.clone()).map(|i| i.flatten());
        assert_eq!(Ok(codec.decode(&learned)), want, "seed {seed}: learn");

        let noise = [0.0, 0.0, 0.03, 0.15][(seed % 4) as usize];
        let strs = ["a", "b", "é", "z"];
        let a = random_schema_facts(&mut rng, &schema, 6, noise, 6, &strs);
        // `b`: `a` with a row or two removed or added.
        let mut b = a.clone();
        let names: Vec<&str> = schema.records().collect();
        for _ in 0..rng.gen_range(1..=2) {
            let name = names[rng.gen_range(0..names.len())];
            let Some(rel) = b.relation(name) else {
                continue;
            };
            if !rel.is_empty() && rng.gen_bool(0.5) {
                let row = rel.get(rng.gen_range(0..rel.len())).expect("row").to_vec();
                b.relation_mut(name, row.len()).remove(&row);
            } else {
                let extra = random_schema_facts(&mut rng, &schema, 2, noise, 6, &strs);
                if let Some(rows) = extra.relation(name) {
                    let arity = rel.arity();
                    for row in rows.iter().filter(|r| r.len() == arity) {
                        b.relation_mut(name, arity).insert_row(row);
                    }
                }
            }
        }

        // The candidate check's roles: `b` is learned like an expected
        // output, `a` encoded like a candidate's (fresh ids and all).
        for (db, what) in [(&a, "a"), (&b, "b")] {
            let want = reference_from_facts(db, schema.clone()).map(|i| i.flatten());
            let got = codec.encode(db).map(|e| codec.decode(&e));
            assert_eq!(got, want, "seed {seed}, {what}\nfacts:\n{db}");
            assert_eq!(
                Flattened::from_facts(db, &schema),
                want,
                "seed {seed}, {what}"
            );
        }
        let mut codec = codec.clone();
        let (Ok(eb), Ok(fb)) = (codec.learn(&b), reference_from_facts(&b, schema.clone())) else {
            continue;
        };
        let (Ok(ea), Ok(fa)) = (codec.encode(&a), reference_from_facts(&a, schema.clone())) else {
            continue;
        };
        let flats = [fa.flatten(), fb.flatten()];
        assert_eq!(codec.decode(&eb), flats[1], "seed {seed}: learned b");
        assert_eq!(codec.decode(&ea), flats[0], "seed {seed}: a after b");
        for name in &names {
            let k = codec.table_index(name).expect("record type");
            let (ta, tb) = (ea.table(k), eb.table(k));
            let (fa, fb) = (&flats[0].0[*name], &flats[1].0[*name]);
            assert_eq!(ta == tb, fa == fb, "seed {seed}, table {name}");
            for budget in (0..=ta.width() + 1).chain([10_000]) {
                let ids = mdp_set_ids(ta, tb, budget);
                let (mdps, exhausted) = reference_mdp_set(fa, fb, budget);
                assert_eq!(
                    (&ids.mdps, ids.budget_exhausted),
                    (&mdps, exhausted),
                    "seed {seed}, table {name}, budget {budget}"
                );
                assert_eq!(ids, mdp_set(fa, fb, budget), "seed {seed}, table {name}");
            }
        }
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

/// Algorithm 4 by direct projection: `mdp_set`'s breadth-first search
/// with each node decided as `actual.project(L) == expected.project(L)`.
/// `mdp_set` decides nodes by partition refinement instead and must
/// return exactly this, order included.
fn reference_mdp_set(
    actual: &dynamite::instance::FlatTable,
    expected: &dynamite::instance::FlatTable,
    budget: usize,
) -> (Vec<std::collections::BTreeSet<usize>>, bool) {
    use std::collections::{BTreeSet, HashSet, VecDeque};
    let ncols = actual.columns.len();
    let all: BTreeSet<usize> = (0..ncols).collect();
    if ncols == 0 {
        return (vec![all], false);
    }
    let mut delta: Vec<BTreeSet<usize>> = Vec::new();
    let mut visited: HashSet<BTreeSet<usize>> = HashSet::new();
    let mut queue: VecDeque<BTreeSet<usize>> = VecDeque::new();
    for c in 0..ncols {
        let l: BTreeSet<usize> = [c].into();
        visited.insert(l.clone());
        queue.push_back(l);
    }
    let mut dequeued = 0;
    while let Some(l) = queue.pop_front() {
        dequeued += 1;
        if dequeued > budget {
            return (if delta.is_empty() { vec![all] } else { delta }, true);
        }
        let cols: Vec<usize> = l.iter().copied().collect();
        if actual.project(&cols) == expected.project(&cols) {
            for c in (0..ncols).filter(|c| !l.contains(c)) {
                let mut l2 = l.clone();
                l2.insert(c);
                if visited.insert(l2.clone()) {
                    queue.push_back(l2);
                }
            }
        } else if !delta.iter().any(|d| d.is_subset(&l)) {
            delta.push(l);
        }
    }
    if delta.is_empty() {
        delta.push(all);
    }
    (delta, false)
}

/// `mdp_set` equals the by-projection reference exactly (sets and
/// order, and the exhaustion flag) over 1–6 columns of integer, string
/// (ordering resolves the strings), boolean and id values, empty tables,
/// near-identical tables, and every budget from 0 to `ncols + 2` plus an
/// ample one; with an ample budget every MDP distinguishes the tables
/// and is minimal (Definition 1).
#[test]
fn mdps_distinguish_and_are_minimal() {
    use dynamite::core::mdp_set;
    use dynamite::instance::FlatTable;
    // Interned in an order unlike their lexicographic one.
    const STRS: [&str; 5] = ["zeta", "Alpha", "é", "", "alpha"];
    fn value(rng: &mut StdRng, kind: u32) -> Value {
        match kind {
            0 => Value::Int(rng.gen_range(-1i64..2)),
            1 => Value::str(STRS[rng.gen_range(0..STRS.len())]),
            2 => Value::Id(rng.gen_range(0u64..3)),
            _ => Value::Bool(rng.gen_bool(0.5)),
        }
    }
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let ncols = rng.gen_range(1..=6usize);
        // Per column: one value kind, or (kind 4) a mix of all of them.
        let kinds: Vec<u32> = (0..ncols).map(|_| rng.gen_range(0..5u32)).collect();
        let row = |rng: &mut StdRng| -> Vec<Value> {
            kinds
                .iter()
                .map(|&k| {
                    let k = if k == 4 { rng.gen_range(0..4) } else { k };
                    value(rng, k)
                })
                .collect()
        };
        let columns: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
        let table = |rng: &mut StdRng, max: usize| FlatTable {
            columns: columns.clone(),
            rows: (0..rng.gen_range(0..=max)).map(|_| row(rng)).collect(),
        };
        let ta = match seed % 4 {
            0 => FlatTable {
                columns: columns.clone(),
                rows: Default::default(),
            },
            _ => table(&mut rng, 9),
        };
        let tb = match seed % 4 {
            // Both empty, or only the actual side empty.
            0 if seed % 8 == 0 => ta.clone(),
            0 => table(&mut rng, 6),
            // Near-identical: drop, change or add a row or two, so the
            // search goes deep before a projection distinguishes.
            1 | 2 => {
                let mut rows: Vec<Vec<Value>> = ta.rows.iter().cloned().collect();
                for _ in 0..rng.gen_range(1..=2) {
                    match rng.gen_range(0..3) {
                        0 if !rows.is_empty() => {
                            let i = rng.gen_range(0..rows.len());
                            rows.remove(i);
                        }
                        1 if !rows.is_empty() => {
                            let i = rng.gen_range(0..rows.len());
                            let c = rng.gen_range(0..ncols);
                            let k = if kinds[c] == 4 {
                                rng.gen_range(0..4)
                            } else {
                                kinds[c]
                            };
                            rows[i][c] = value(&mut rng, k);
                        }
                        _ => rows.push(row(&mut rng)),
                    }
                }
                FlatTable {
                    columns: columns.clone(),
                    rows: rows.into_iter().collect(),
                }
            }
            _ => table(&mut rng, 9),
        };
        let (ta, tb) = if seed % 16 == 4 { (tb, ta) } else { (ta, tb) };
        for budget in (0..=ncols + 2).chain([10_000]) {
            let got = mdp_set(&ta, &tb, budget);
            let (mdps, exhausted) = reference_mdp_set(&ta, &tb, budget);
            assert_eq!(
                (&got.mdps, got.budget_exhausted),
                (&mdps, exhausted),
                "seed {seed}, budget {budget}:\nactual {ta:?}\nexpected {tb:?}"
            );
        }
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
    for _ in 0..rng.gen_range(0..10) {
        db.insert("E1", vec![random_value(rng), random_value(rng)]);
    }
    for _ in 0..rng.gen_range(0..5) {
        db.insert("E2", vec![random_value(rng)]);
    }
    for _ in 0..rng.gen_range(0..8) {
        db.insert(
            "E3",
            vec![random_value(rng), random_value(rng), random_value(rng)],
        );
    }
    db
}

/// One value of `random_edb`'s domain.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4) {
        0 => Value::Int(rng.gen_range(1i64..3)),
        1 => Value::str(if rng.gen_bool(0.5) { "a" } else { "b" }),
        _ => Value::Int(rng.gen_range(1i64..6)),
    }
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

/// A program whose rules carry every value of [`soa_adversarial_domain`]
/// as a body constant, `c` at index `k` (heads are numbered by `k`):
///
/// - `A{k}(i) :- Big(c, i)` and `W{k}(i, w) :- Big(c, i), Side(i, w)`:
///   the constant sits in the outermost literal of a scan over all of
///   `Big` (partitioned across workers when large);
/// - `D{k}(i, w) :- Side(i, w), Big(c, i)` and
///   `X{k}(x, i) :- Small(x, d), Big(c, i)`: the constant sits in a deeper
///   literal, probed through an index keyed on it (with and without a
///   bound variable beside it);
/// - `R{k}` and `T{k}`: recursive rules whose delta occurrence
///   (`R{k}(c, x)`, `T{k}(c, i)`) carries the constant, so every fixpoint
///   round scans the delta and checks it per row.
fn constant_program(domain: &[Value]) -> Program {
    let var = |v: &str| Term::var(v);
    let lit = |rel: &str, terms: Vec<Term>| Literal::pos(Atom::new(rel, terms));
    let head = |rel: &str, vars: &[&str]| Atom::new(rel, vars.iter().map(|&v| var(v)).collect());
    let mut rules = Vec::new();
    for (k, &c) in domain.iter().enumerate() {
        let c = Term::Const(c);
        let d = Term::Const(domain[(k + 1) % domain.len()]);
        let big = |t: Term| lit("Big", vec![t, var("i")]);
        let side = || lit("Side", vec![var("i"), var("w")]);
        let (r, t) = (format!("R{k}"), format!("T{k}"));
        rules.extend([
            Rule::new(head(&format!("A{k}"), &["i"]), vec![big(c.clone())]),
            Rule::new(
                head(&format!("W{k}"), &["i", "w"]),
                vec![big(c.clone()), side()],
            ),
            Rule::new(
                head(&format!("D{k}"), &["i", "w"]),
                vec![side(), big(c.clone())],
            ),
            Rule::new(
                head(&format!("X{k}"), &["x", "i"]),
                vec![lit("Small", vec![var("x"), d]), big(c.clone())],
            ),
            Rule::new(
                head(&r, &["x", "y"]),
                vec![lit("Small", vec![var("x"), var("y")])],
            ),
            Rule::new(
                head(&r, &["x", "y"]),
                vec![
                    lit(&r, vec![c.clone(), var("x")]),
                    lit("Small", vec![var("x"), var("y")]),
                ],
            ),
            Rule::new(head(&t, &["v", "i"]), vec![big(var("v"))]),
            Rule::new(
                head(&t, &["w", "i"]),
                vec![
                    lit(&t, vec![c.clone(), var("i")]),
                    lit("Small", vec![c, var("w")]),
                ],
            ),
        ]);
    }
    Program::new(rules)
}

/// Body constants agree with the legacy interpreter on every `Value`
/// variant and payload tie: `Id`/`Int`/`Bool` values sharing a payload
/// word, extreme bit patterns and repeated interned symbols all appear as
/// constants of an outermost literal over ≥ 1,500 rows (one hot value in
/// ~40 % of them), of a deeper literal, and of a recursive rule's delta
/// occurrence. Context evaluation at 1 and 4 workers, planner on and off,
/// equals `legacy::evaluate`; both worker counts emit rows in the same
/// order; and each outermost scan keeps exactly the rows a plain sweep of
/// `Big` finds.
#[test]
fn body_constants_match_legacy_on_all_variants() {
    let domain = soa_adversarial_domain();
    let program = constant_program(&domain);
    let pools = [Arc::new(WorkerPool::new(1)), Arc::new(WorkerPool::new(4))];
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(12_500 + seed);
        let pick = |rng: &mut StdRng| domain[rng.gen_range(0..domain.len())];
        let hot = pick(&mut rng);
        let rows = rng.gen_range(1500..3000);
        let mut edb = Database::new();
        // A unique second column keeps `Big`'s rows distinct, so column
        // 0's distribution is exactly the generator's.
        for i in 0..rows {
            let v = if rng.gen_bool(0.4) {
                hot
            } else {
                pick(&mut rng)
            };
            edb.insert("Big", vec![v, Value::Int(i)]);
            if rng.gen_bool(0.05) {
                edb.insert("Side", vec![Value::Int(i), pick(&mut rng)]);
            }
        }
        for _ in 0..40 {
            edb.insert("Small", vec![pick(&mut rng), pick(&mut rng)]);
        }
        let big = edb.relation("Big").expect("big");
        let via_legacy = legacy::evaluate(&program, &edb).expect("legacy evaluates");
        for reorder in [true, false] {
            let outs: Vec<Database> = pools
                .iter()
                .map(|pool| {
                    Evaluator::with_config(
                        edb.clone(),
                        pool.clone(),
                        RuleCacheHandle::default(),
                        reorder,
                    )
                    .eval(&program)
                    .expect("context evaluates")
                })
                .collect();
            for (out, pool) in outs.iter().zip(&pools) {
                assert_eq!(
                    *out,
                    via_legacy,
                    "seed {seed}, {} threads, reorder {reorder}",
                    pool.threads()
                );
            }
            assert_identical_row_order(
                &outs[0],
                &outs[1],
                &format!("seed {seed}, reorder {reorder}"),
            );
            for (k, &c) in domain.iter().enumerate() {
                let expect = big.iter().filter(|r| r.at(0) == c).count();
                let got = outs[1].relation(&format!("A{k}")).map_or(0, |r| r.len());
                assert_eq!(got, expect, "seed {seed}, constant {c}");
            }
        }
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

// -------------------------------------- maintained vs scratch evaluation --

/// `program` without its negated body literals. Negated literals only use
/// variables that positive literals bind, so the result stays
/// range-restricted; being negation-free, it is maintained by DRed
/// rather than by the re-evaluation fallback.
fn positive_part(program: &Program) -> Program {
    let mut positive = program.clone();
    for rule in &mut positive.rules {
        rule.body.retain(|l| !l.negated);
    }
    positive
}

/// Negation-free multi-head programs over `random_edb`'s relations (the
/// generator emits single-head rules only): heads sharing a body, head
/// constants, a repeated head variable, recursion through a second head,
/// and a rule whose only support for `Q` is `Q` itself.
const MULTI_HEAD: [&str; 2] = [
    "A(x), B(x, y) :- E1(x, y).
     A(y), B(y, 1) :- E3(x, y, _), A(x).
     C(x, x), A(x) :- E2(x), B(x, _).",
    "P(x, z), Q(z) :- E1(x, y), E1(y, z).
     P(x, y), R(y, \"a\") :- P(x, z), E3(z, y, _).
     Q(x), R(x, x) :- E2(x), Q(x).",
];

/// One random update batch against `edb`: new facts for every EDB
/// relation of `random_edb` and deletions of live rows (repeats
/// included).
fn random_batch(rng: &mut StdRng, edb: &Database) -> (Database, Database) {
    let (mut ins, mut dels) = (Database::new(), Database::new());
    for (rel, arity) in [("E1", 2), ("E2", 1), ("E3", 3)] {
        for _ in 0..rng.gen_range(0..3) {
            ins.insert(rel, (0..arity).map(|_| random_value(rng)).collect());
        }
        let live: Vec<Vec<Value>> = edb
            .relation(rel)
            .map(|r| r.iter().map(|row| row.to_vec()).collect())
            .unwrap_or_default();
        if live.is_empty() {
            continue;
        }
        for _ in 0..rng.gen_range(0..4) {
            dels.insert(rel, live[rng.gen_range(0..live.len())].clone());
        }
    }
    (ins, dels)
}

/// Maintained ≡ scratch over random programs: after every batch of a
/// random insert/delete stream, `IncrementalEvaluator`'s output equals a
/// from-scratch evaluation of the mutated EDB, at 1 and 4 workers, with
/// and without the cost-based planner. Each generated program runs as is
/// (mostly the negation fallback) and without its negated literals
/// (DRed); the multi-head programs cover re-derivation per head.
#[test]
fn maintained_equals_scratch_on_random_programs() {
    let pools = [Arc::new(WorkerPool::new(1)), Arc::new(WorkerPool::new(4))];
    let multi_head: Vec<Program> = MULTI_HEAD
        .iter()
        .map(|p| Program::parse(p).expect("parses"))
        .collect();
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(12_000 + seed);
        let generated = random_stratified_program(&mut rng);
        let edb = random_edb(&mut rng);
        let programs = [
            positive_part(&generated),
            generated,
            multi_head[seed as usize % MULTI_HEAD.len()].clone(),
        ];
        for program in &programs {
            for pool in &pools {
                for reorder in [true, false] {
                    // Every configuration sees the same batch stream.
                    let mut stream = StdRng::seed_from_u64(seed);
                    let mut inc = IncrementalEvaluator::with_config(
                        program.clone(),
                        edb.clone(),
                        pool.clone(),
                        reorder,
                    )
                    .expect("maintainer builds");
                    let mut shadow = edb.clone();
                    for batch in 0..6 {
                        let (ins, dels) = random_batch(&mut stream, &shadow);
                        inc.apply_delta(&ins, &dels).expect("batch applies");
                        for (name, rel) in dels.iter() {
                            let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.to_vec()).collect();
                            shadow.relation_mut(name, rel.arity()).remove_rows(&rows);
                        }
                        shadow.merge(&ins);
                        assert_eq!(
                            inc.output(),
                            evaluate(program, &shadow).expect("scratch evaluates"),
                            "seed {seed} batch {batch}, {} threads, reorder {reorder}, \
                             diverged on:\n{program}\nEDB:\n{shadow}",
                            pool.threads()
                        );
                    }
                }
            }
        }
    }
}
