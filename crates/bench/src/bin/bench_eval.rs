//! Evaluation-pipeline microbenchmarks with JSON output.
//!
//! Runs the `datalog/golden` evaluation cases, a recursive-closure case,
//! the synthesis microbenchmarks, the repeated-candidate workload the
//! synthesizer's CEGIS loop exercises (one EDB, many candidate programs),
//! the adversarially ordered `join_ordering` workload (cost-based planner
//! vs body-order plans), the `batch_filter` kernel microbench (scalar
//! pre-scan vs the SIMD bitmask kernel over the SoA tag/payload streams),
//! the `update_stream` incremental-maintenance workload
//! ([`IncrementalEvaluator::apply_delta`] vs full re-evaluation over a
//! stream of small mixed batches), the `point_query` demand-driven
//! serving workload (magic-sets rewrite vs full materialization vs warm
//! subsumption cache on selective lookups), the `durability` workload (the same
//! stream through a WAL-logging [`DurableEvaluator`] vs the in-memory
//! maintainer, plus checkpoint-write and cold-recovery latencies), and a
//! parallel-scaling sweep of the
//! worker-pool fixpoint (threads = 1/2/4/8, skipped on single-core
//! hardware), comparing the reusable [`Evaluator`] context against the
//! legacy one-shot interpreter. Writes `BENCH_eval.json` so later PRs
//! have a perf trajectory to compare against. See `BENCHMARKS.md` at the
//! repo root for each workload's shape and how to read the numbers.
//!
//! Usage:
//! `cargo run --release -p dynamite-bench --bin bench_eval [out.json] [--case <name>]`
//!
//! `--case` restricts the run to a single workload (an unknown name
//! lists the available ones); the JSON then contains only that
//! workload's section plus the constant cross-PR `history` block.
//!
//! With `BENCH_ASSERT=1` in the environment the run additionally asserts
//! that the filter kernel's dense and two-constant cases are at least at
//! parity with the scalar sweep, that never-tripping governance stays
//! within noise of the ungoverned path, that incremental maintenance
//! is at least at parity with full re-evaluation, that the WAL's
//! append+fsync tax stays within 1.5x of the in-memory apply, and that
//! demand-driven point queries beat full materialization by ≥2x on
//! selective lookups (≥1x for the warm all-free repeat) — the CI smoke
//! gates; absolute times are never gated — container noise swings
//! them ±10–15% across days.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamite_bench_suite::by_name;
use dynamite_core::{synthesize, SynthesisConfig};
use dynamite_datalog::{
    legacy, pool, reorder_default, DurableEvaluator, DurableOptions, Evaluator, Governor,
    IncrementalEvaluator, Program, ResourceLimits, RuleCacheHandle, ServedEvaluator, WorkerPool,
};
use dynamite_instance::{to_facts, Database, TupleStore, Value};

struct EvalCase {
    name: String,
    facts_in: usize,
    facts_out: usize,
    reps: usize,
    legacy_secs: f64,
    context_secs: f64,
}

impl EvalCase {
    fn speedup(&self) -> f64 {
        self.legacy_secs / self.context_secs.max(1e-12)
    }

    /// Derived facts per second through the context engine.
    fn facts_per_sec(&self) -> f64 {
        self.facts_out as f64 / self.context_secs.max(1e-12)
    }
}

fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (also populates the context's index caches)
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// One golden-program evaluation case: `reps` evaluations of the same
/// program against the same EDB through both engines.
fn eval_case(name: &str, program: &Program, facts: &Database, reps: usize) -> EvalCase {
    let ctx = Evaluator::new(facts.clone());
    let facts_out = ctx.eval(program).expect("evaluates").num_facts();
    let context_secs = time_reps(reps, || {
        ctx.eval(program).expect("evaluates");
    });
    let legacy_secs = time_reps(reps, || {
        legacy::evaluate(program, facts).expect("evaluates");
    });
    EvalCase {
        name: name.to_string(),
        facts_in: facts.num_facts(),
        facts_out,
        reps,
        legacy_secs,
        context_secs,
    }
}

struct GovernanceCase {
    reps: usize,
    ungoverned_secs: f64,
    governed_secs: f64,
}

impl GovernanceCase {
    /// Governed-but-never-tripping time over the ungoverned seed path.
    fn overhead(&self) -> f64 {
        self.governed_secs / self.ungoverned_secs.max(1e-12)
    }
}

/// Governance overhead: the same context and program evaluated with and
/// without a (never-tripping) `Governor`, reps interleaved A/B in the
/// same session so machine drift hits both sides alike (BENCHMARKS.md
/// methodology). The governed path's extra work is one atomic poll per
/// 1024 tuples plus per-round and per-unique-insert counter bumps, so
/// the ratio should sit within run-to-run noise.
fn governance_case(program: &Program, facts: &Database, reps: usize) -> GovernanceCase {
    let ctx = Evaluator::new(facts.clone());
    let limits = ResourceLimits::none()
        .with_timeout(Duration::from_secs(3600))
        .with_fact_budget(u64::MAX / 2)
        .with_round_cap(u64::MAX / 2);
    ctx.eval(program).expect("evaluates");
    ctx.eval_governed(program, &Governor::new(limits))
        .expect("evaluates");
    let (mut ungoverned, mut governed) = (0.0, 0.0);
    for _ in 0..reps {
        let t = Instant::now();
        ctx.eval(program).expect("evaluates");
        ungoverned += t.elapsed().as_secs_f64();
        let gov = Governor::new(limits);
        let t = Instant::now();
        ctx.eval_governed(program, &gov).expect("evaluates");
        governed += t.elapsed().as_secs_f64();
    }
    GovernanceCase {
        reps,
        ungoverned_secs: ungoverned / reps as f64,
        governed_secs: governed / reps as f64,
    }
}

/// Candidate programs shaped like the synthesizer's samples over the
/// Retina schema: joins over `Neuron`/`Contact` with varying column
/// bindings, projections, and an occasional negated literal.
fn candidate_programs(n: usize) -> Vec<Program> {
    let neuron_cols = ["n", "t", "l", "s"];
    let contact_cols = ["a", "b", "w", "k"];
    let mut out: Vec<Program> = Vec::new();
    fn push(out: &mut Vec<Program>, src: String) {
        out.push(Program::parse(&src).expect("candidate parses"));
    }
    // Single-join candidates: which Contact column joins Neuron's id.
    for (i, jc) in contact_cols.iter().enumerate() {
        let _ = jc;
        let mut c = contact_cols;
        c[i] = "n";
        push(
            &mut out,
            format!(
                "Out(n, t, x) :- Neuron(n, t, _, _), Contact({}, {}, {}, {}), E(x).",
                c[0], c[1], c[2], c[3]
            ),
        );
    }
    // Two-join candidates: vary the second Neuron's join column.
    for nc in neuron_cols {
        for cc in ["b", "w"] {
            push(
                &mut out,
                format!(
                    "Out(n, {nc}2, {cc}) :- Neuron(n, _, l, s), Contact(n, {cc}0, {cc}, _), \
                     Neuron({cc}0, {nc}2, l, s)."
                ),
            );
        }
    }
    // Three-join chains through two contacts.
    for k in 0..4 {
        push(
            &mut out,
            format!(
                "Out(n, q, w) :- Neuron(n, _, _, _), Contact(n, m, w{k}, _), Contact(m, q, w, _)."
            ),
        );
    }
    // Negation candidates.
    for col in ["l", "s"] {
        push(
            &mut out,
            format!("Out(n, {col}) :- Neuron(n, _, l, s), !Contact(n, _, _, \"chemical\")."),
        );
    }
    // Constant-filter variants to fill up to `n` distinct programs.
    let mut layer = 1;
    while out.len() < n {
        push(
            &mut out,
            format!("Out(n, q, w) :- Neuron(n, _, {layer}, _), Contact(n, q, w, _)."),
        );
        layer += 1;
    }
    out.truncate(n);
    out
}

struct RepeatedCase {
    candidates: usize,
    facts_in: usize,
    legacy_secs: f64,
    context_secs: f64,
}

/// The acceptance-criterion workload: the same EDB, ≥50 candidate
/// programs, exactly as the synthesizer loop evaluates them. The legacy
/// path pays full setup per candidate (EDB clone, per-round compiles,
/// per-round index builds); the context path prepares once.
fn repeated_candidates(facts: &Database, programs: &[Program]) -> RepeatedCase {
    // Warm-up both paths once.
    let warm = Evaluator::new(facts.clone());
    for p in programs {
        warm.eval(p).expect("candidate evaluates");
        legacy::evaluate(p, facts).expect("candidate evaluates");
    }

    // A CEGIS run evaluates its candidate pool hundreds of times; sweep
    // the pool several times so the measurement is stable.
    const SWEEPS: usize = 10;
    let start = Instant::now();
    let ctx = Evaluator::new(facts.clone()); // part of the measured cost
    for _ in 0..SWEEPS {
        for p in programs {
            ctx.eval(p).expect("candidate evaluates");
        }
    }
    let context_secs = start.elapsed().as_secs_f64() / SWEEPS as f64;

    let start = Instant::now();
    for _ in 0..SWEEPS {
        for p in programs {
            legacy::evaluate(p, facts).expect("candidate evaluates");
        }
    }
    let legacy_secs = start.elapsed().as_secs_f64() / SWEEPS as f64;

    RepeatedCase {
        candidates: programs.len(),
        facts_in: facts.num_facts(),
        legacy_secs,
        context_secs,
    }
}

struct ScalingCase {
    workload: &'static str,
    threads: usize,
    secs: f64,
}

struct JoinOrderingCase {
    candidates: usize,
    facts_in: usize,
    planner_secs: f64,
    body_order_secs: f64,
}

impl JoinOrderingCase {
    fn speedup(&self) -> f64 {
        self.body_order_secs / self.planner_secs.max(1e-12)
    }
}

/// The cost-based-planner acceptance workload: candidate bodies written
/// in adversarial order — the largest relation first, the selective
/// constant literal last — exactly the worst case a machine-generated
/// CEGIS body can hand the engine. Evaluated through two contexts over
/// the same EDB: one with the planner, one pinned to body order.
fn join_ordering() -> JoinOrderingCase {
    let mut db = Database::new();
    db.extend_rows(
        "Big",
        2,
        (0..20_000i64).map(|i| vec![i.into(), (i % 2000).into()]),
    );
    db.extend_rows(
        "Mid",
        2,
        (0..2000i64).map(|i| vec![i.into(), (i % 200).into()]),
    );
    db.extend_rows(
        "Sel",
        2,
        (0..200i64).map(|i| vec![i.into(), (i % 40).into()]),
    );
    let programs: Vec<Program> = [7i64, 13, 29]
        .iter()
        .map(|k| {
            Program::parse(&format!("Out(x) :- Big(x, y), Mid(y, z), Sel(z, {k})."))
                .expect("parses")
        })
        .collect();
    let pool = Arc::new(WorkerPool::new(1));
    let planner =
        Evaluator::with_config(db.clone(), pool.clone(), RuleCacheHandle::default(), true);
    let body_order = Evaluator::with_config(db.clone(), pool, RuleCacheHandle::default(), false);
    // Same answers through both plans, before timing anything.
    for p in &programs {
        assert_eq!(
            planner.eval(p).expect("evaluates"),
            body_order.eval(p).expect("evaluates")
        );
    }
    let planner_secs = time_reps(20, || {
        for p in &programs {
            planner.eval(p).expect("evaluates");
        }
    });
    let body_order_secs = time_reps(20, || {
        for p in &programs {
            body_order.eval(p).expect("evaluates");
        }
    });
    JoinOrderingCase {
        candidates: programs.len(),
        facts_in: db.num_facts(),
        planner_secs,
        body_order_secs,
    }
}

struct BatchFilterCase {
    /// Hit-density regime this case exercises (`sparse`, `dense`, or
    /// `two_const`) — the label the CI smoke assertion keys on.
    regime: &'static str,
    rows: usize,
    consts: usize,
    reps: usize,
    scalar_secs: f64,
    batched_secs: f64,
}

impl BatchFilterCase {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.batched_secs.max(1e-12)
    }
}

/// The scalar constant-filter pre-scan exactly as PR 3 shipped it —
/// enumerate-filter the first constant column, then `retain` per
/// additional constant — transliterated onto the SoA column streams:
/// each row materializes a `Value` and compares it whole, which is the
/// per-row scalar work the bitmask kernel avoids.
fn scalar_prescan(store: &TupleStore, consts: &[(usize, Value)]) -> Vec<u32> {
    let (c0, v0) = consts[0];
    let mut ids: Vec<u32> = store
        .column(c0)
        .iter()
        .enumerate()
        .filter(|&(_, v)| v == v0)
        .map(|(i, _)| i as u32)
        .collect();
    for &(c, v) in &consts[1..] {
        let col = store.column(c);
        ids.retain(|&i| col.value(i as usize) == v);
    }
    ids
}

/// A deterministic xorshift64 stream — workloads must not depend on
/// ambient randomness.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The transitive closure every recursive workload evaluates.
fn closure_program() -> Program {
    Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .expect("parses")
}

/// `chains` disjoint `Edge` chains of `len` edges each.
fn chain_edges(chains: i64, len: i64) -> Database {
    let mut db = Database::new();
    db.extend_rows(
        "Edge",
        2,
        (0..chains).flat_map(|c| {
            let base = c * (len + 1);
            (0..len).map(move |i| vec![(base + i).into(), (base + i + 1).into()])
        }),
    );
    db
}

/// A filter-shaped relation with *shuffled* column contents. Cyclic
/// `i % k` columns would let the branch predictor learn the scalar
/// pre-scan's append branch perfectly, which real (unordered) data never
/// does — the unpredictability is exactly what the batched kernel's
/// branch-free dense path is for.
fn filter_store(rows: usize) -> TupleStore {
    let mut rnd = xorshift(0x2545_f491_4f6c_dd1d);
    let strings = ["chemical", "electric", "mixed", "unknown"];
    TupleStore::from_columns(vec![
        (0..rows).map(|_| Value::Int((rnd() % 97) as i64)).collect(),
        (0..rows)
            .map(|_| Value::str(strings[(rnd() % 4) as usize]))
            .collect(),
        (0..rows).map(|_| Value::Id(rnd() % 53)).collect(),
        (0..rows).map(|i| Value::Int(i as i64)).collect(),
    ])
}

/// Scalar pre-scan (PR 3's code shape, column order, always-conditional)
/// vs the batched adaptive kernel (`TupleStore::filter_const_rows`, since
/// PR 5 a SIMD bitmask sweep over the SoA tag/payload streams in the
/// dense regime) over the same store and constants.
fn batch_filter_case(
    regime: &'static str,
    store: &TupleStore,
    consts: &[(usize, Value)],
    reps: usize,
) -> BatchFilterCase {
    let expect = scalar_prescan(store, consts);
    assert_eq!(
        store.filter_const_rows(consts, 0, usize::MAX),
        expect,
        "kernel disagrees with the scalar sweep"
    );
    let scalar_secs = time_reps(reps, || {
        std::hint::black_box(scalar_prescan(store, consts));
    });
    let batched_secs = time_reps(reps, || {
        std::hint::black_box(store.filter_const_rows(consts, 0, usize::MAX));
    });
    BatchFilterCase {
        regime,
        rows: store.len(),
        consts: consts.len(),
        reps,
        scalar_secs,
        batched_secs,
    }
}

struct UpdateStreamCase {
    edges: usize,
    output_facts: usize,
    batches: usize,
    batch_inserts: usize,
    batch_deletes: usize,
    /// Seconds per batch through `IncrementalEvaluator::apply_delta`.
    maintain_secs: f64,
    /// Seconds per batch through a from-scratch `Evaluator` build + eval
    /// of the mutated EDB (what a non-incremental consumer would pay).
    full_secs: f64,
}

impl UpdateStreamCase {
    fn speedup(&self) -> f64 {
        self.full_secs / self.maintain_secs.max(1e-12)
    }

    /// Maintained output facts per second of maintenance time.
    fn maintained_facts_per_sec(&self) -> f64 {
        self.output_facts as f64 / self.maintain_secs.max(1e-12)
    }
}

/// Applies one batch to the shadow database the way the maintainer
/// documents its semantics: deletions first, then insertions.
fn apply_shadow(shadow: &mut Database, ins: &Database, dels: &Database) {
    for (name, rel) in dels.iter() {
        if shadow.relation(name).is_none() {
            continue;
        }
        let rows: Vec<Vec<Value>> = rel.iter().map(|r| r.iter().collect()).collect();
        shadow.relation_mut(name, rel.arity()).remove_rows(&rows);
    }
    shadow.merge(ins);
}

/// The incremental-maintenance acceptance workload: transitive closure
/// over ~1e5 `Edge` facts (3333 disjoint chains of length 30), fed a
/// stream of small mixed batches — 32 skip-edge insertions within random
/// chains plus 32 deletions of random live edges, well under 1% of the
/// EDB per batch. Each iteration times `apply_delta` against a full
/// from-scratch re-evaluation of the same mutated EDB (interleaved A/B,
/// so machine drift hits both sides alike) and asserts the maintained
/// output is set-identical to the scratch result before timing the next
/// batch.
fn update_stream_case() -> UpdateStreamCase {
    const CHAINS: u64 = 3333;
    const LEN: u64 = 30;
    const BATCHES: usize = 8;
    const INS: usize = 32;
    const DELS: usize = 32;
    let program = closure_program();
    let db = chain_edges(CHAINS as i64, LEN as i64);
    let edges = db.num_facts();
    let mut inc = IncrementalEvaluator::new(program.clone(), db.clone()).expect("maintainer");
    let mut shadow = db;

    let mut rnd = xorshift(0x2545_f491_4f6c_dd1d);

    let (mut maintain, mut full) = (0.0f64, 0.0f64);
    let mut output_facts = 0usize;
    for batch in 0..BATCHES {
        let mut ins = Database::new();
        for _ in 0..INS {
            // A forward skip edge inside one chain: bounded closure
            // growth, still exercises the recursive delta rounds.
            let base = (rnd() % CHAINS * (LEN + 1)) as i64;
            let i = rnd() % (LEN - 1);
            let j = i + 2 + rnd() % (LEN - i - 1);
            ins.insert(
                "Edge",
                vec![(base + i as i64).into(), (base + j as i64).into()],
            );
        }
        let live: Vec<Vec<Value>> = shadow
            .relation("Edge")
            .map(|r| r.iter().map(|row| row.iter().collect()).collect())
            .unwrap_or_default();
        let mut dels = Database::new();
        for _ in 0..DELS {
            dels.insert("Edge", live[(rnd() as usize) % live.len()].clone());
        }

        let t = Instant::now();
        inc.apply_delta(&ins, &dels).expect("maintains");
        maintain += t.elapsed().as_secs_f64();

        apply_shadow(&mut shadow, &ins, &dels);
        let snapshot = shadow.clone();
        let t = Instant::now();
        let scratch = Evaluator::new(snapshot).eval(&program).expect("evaluates");
        full += t.elapsed().as_secs_f64();

        let maintained = inc.output();
        assert_eq!(
            maintained, scratch,
            "maintained output diverged from scratch at batch {batch}"
        );
        output_facts = maintained.num_facts();
    }
    UpdateStreamCase {
        edges,
        output_facts,
        batches: BATCHES,
        batch_inserts: INS,
        batch_deletes: DELS,
        maintain_secs: maintain / BATCHES as f64,
        full_secs: full / BATCHES as f64,
    }
}

struct PointQueryCase {
    edges: usize,
    /// Facts in the fully materialized closure (what the full path derives
    /// per query; the magic path derives only the demanded slice).
    closure_facts: usize,
    /// Distinct selective queries per timed sweep.
    queries: usize,
    /// Seconds per selective query via the magic-sets rewrite (one-shot
    /// `Evaluator::query`, no cache — every query runs its own fixpoint).
    magic_secs: f64,
    /// Seconds per selective query via full materialization + filter
    /// (what a consumer without the query layer pays).
    full_secs: f64,
    /// Seconds per selective query against a warm `ServedEvaluator`
    /// (subsumption cache hit, no fixpoint at all).
    cached_secs: f64,
    /// Seconds per all-free query against the warm server (cache hit:
    /// one relation clone) — the degenerate everything-bound-free case.
    allfree_cached_secs: f64,
    /// Seconds per full evaluation (the all-free baseline).
    allfree_full_secs: f64,
}

impl PointQueryCase {
    /// Magic-sets fixpoint over full materialization on selective lookups.
    fn magic_speedup(&self) -> f64 {
        self.full_secs / self.magic_secs.max(1e-12)
    }

    /// Warm-cache answer over full materialization on selective lookups.
    fn cached_speedup(&self) -> f64 {
        self.full_secs / self.cached_secs.max(1e-12)
    }

    /// Warm-cache all-free answer over a full evaluation.
    fn allfree_speedup(&self) -> f64 {
        self.allfree_full_secs / self.allfree_cached_secs.max(1e-12)
    }
}

/// The demand-driven-query acceptance workload: transitive closure over
/// disjoint chains (the same shape as `update_stream`, scaled so full
/// materialization derives ~93k facts), probed with selective
/// `Path(src, ?)` point queries whose true answer is one chain's ≤30
/// suffix facts. Three serving strategies over the same EDB, answers
/// asserted identical before timing: the magic-sets rewrite (fixpoint
/// restricted to the demanded chain), full materialization + filter, and
/// a warm subsumption cache. The all-free pattern is timed separately —
/// it degenerates to full evaluation, so only the warm-cache repeat is
/// expected to beat the baseline there.
fn point_query_case() -> PointQueryCase {
    const CHAINS: i64 = 200;
    const LEN: i64 = 30;
    const QUERIES: usize = 10;
    let program = closure_program();
    let db = chain_edges(CHAINS, LEN);
    let edges = db.num_facts();
    let ctx = Evaluator::new(db.clone());
    let full_out = ctx.eval(&program).expect("evaluates");
    let closure_facts = full_out.num_facts();

    // Chain heads, spread across the EDB: maximally selective (each
    // reaches exactly its own chain's LEN suffixes).
    let sources: Vec<Value> = (0..QUERIES as i64)
        .map(|q| Value::Int((q * 37 % CHAINS) * (LEN + 1)))
        .collect();
    let filter_full = |src: Value| -> Vec<Vec<Value>> {
        full_out
            .relation("Path")
            .expect("closure")
            .iter()
            .map(|r| r.to_vec())
            .filter(|row| row[0] == src)
            .collect()
    };
    // Same answers through every strategy, before timing anything.
    let served = ServedEvaluator::new(program.clone(), db.clone()).expect("server");
    for &src in &sources {
        let want = filter_full(src);
        assert_eq!(want.len(), LEN as usize, "selective query hits one chain");
        let bindings = [Some(src), None];
        let magic = ctx.query(&program, "Path", &bindings).expect("queries");
        assert_eq!(magic.len(), want.len(), "magic answer diverged");
        let cached = served.query("Path", &bindings).expect("queries");
        assert_eq!(cached.len(), want.len(), "served answer diverged");
    }

    // Magic path: one-shot queries, a fresh demand-restricted fixpoint
    // each time (the cacheless lower bound of the serving layer).
    let magic_secs = time_reps(3, || {
        for &src in &sources {
            std::hint::black_box(
                ctx.query(&program, "Path", &[Some(src), None])
                    .expect("queries"),
            );
        }
    }) / QUERIES as f64;

    // Full path: materialize everything, then filter — per query.
    let full_secs = time_reps(3, || {
        for &src in &sources {
            let out = ctx.eval(&program).expect("evaluates");
            std::hint::black_box(
                out.relation("Path")
                    .expect("closure")
                    .iter()
                    .filter(|r| r.at(0) == src)
                    .count(),
            );
        }
    }) / QUERIES as f64;

    // Warm cache: the correctness sweep above populated every entry.
    let cached_secs = time_reps(10, || {
        for &src in &sources {
            std::hint::black_box(served.query("Path", &[Some(src), None]).expect("queries"));
        }
    }) / QUERIES as f64;

    // All-free: full evaluation is the floor; the warm server answers
    // repeats with a relation clone.
    served.query("Path", &[None, None]).expect("queries");
    let allfree_cached_secs = time_reps(5, || {
        std::hint::black_box(served.query("Path", &[None, None]).expect("queries"));
    });
    let allfree_full_secs = time_reps(5, || {
        std::hint::black_box(ctx.eval(&program).expect("evaluates"));
    });

    PointQueryCase {
        edges,
        closure_facts,
        queries: QUERIES,
        magic_secs,
        full_secs,
        cached_secs,
        allfree_cached_secs,
        allfree_full_secs,
    }
}

struct DurabilityCase {
    edges: usize,
    batches: usize,
    /// Seconds per batch through the plain in-memory maintainer.
    memory_secs: f64,
    /// Seconds per batch through `DurableEvaluator::apply_delta` (WAL
    /// frame encode + append + fsync, then the same in-memory apply).
    durable_secs: f64,
    /// One forced checkpoint (full-state serialize + fsync + rename +
    /// read-back verification + WAL rotation) at end of stream.
    checkpoint_secs: f64,
    /// Cold `open()`: newest checkpoint load + WAL suffix replay.
    recover_secs: f64,
    /// Integrity scrub of the closed directory (CRC + fail-closed
    /// decode of every checkpoint and WAL frame, nothing applied).
    scrub_secs: f64,
    /// One drift audit on the recovered evaluator (a full from-scratch
    /// re-evaluation plus a set-wise diff against the overlay).
    audit_secs: f64,
    wal_bytes: u64,
}

impl DurabilityCase {
    /// Durable apply over in-memory apply; the WAL's append+fsync tax.
    fn overhead(&self) -> f64 {
        self.durable_secs / self.memory_secs.max(1e-12)
    }
}

/// The durability acceptance workload: the `update_stream` EDB and batch
/// shape, applied in lockstep to a plain `IncrementalEvaluator` and a
/// `DurableEvaluator` logging every batch to a fsync'd WAL (compaction
/// disabled so the stream measures the raw append tax, not an amortized
/// checkpoint). Interleaved A/B per batch, same-run relative numbers
/// only. Afterwards one forced checkpoint and one cold recovery are
/// timed, and the recovered output is asserted bit-identical (row order
/// included) to the uninterrupted run's.
fn durability_case() -> DurabilityCase {
    const CHAINS: u64 = 3333;
    const LEN: u64 = 30;
    const BATCHES: usize = 8;
    const INS: usize = 32;
    const DELS: usize = 32;
    let program = closure_program();
    let db = chain_edges(CHAINS as i64, LEN as i64);
    let edges = db.num_facts();
    let dir =
        std::env::temp_dir().join(format!("dynamite-bench-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        compact_min_wal_bytes: u64::MAX,
        ..DurableOptions::default()
    };
    let mut mem = IncrementalEvaluator::new(program.clone(), db.clone()).expect("maintainer");
    let mut dur = DurableEvaluator::create_with_config(
        &dir,
        program,
        db,
        opts,
        pool::with_threads(None),
        reorder_default(),
    )
    .expect("durable maintainer");

    let mut rnd = xorshift(0x9e37_79b9_7f4a_7c15);

    let (mut memory, mut durable) = (0.0f64, 0.0f64);
    for _ in 0..BATCHES {
        let mut ins = Database::new();
        for _ in 0..INS {
            let base = (rnd() % CHAINS * (LEN + 1)) as i64;
            let i = rnd() % (LEN - 1);
            let j = i + 2 + rnd() % (LEN - i - 1);
            ins.insert(
                "Edge",
                vec![(base + i as i64).into(), (base + j as i64).into()],
            );
        }
        // Delete from the chain interiors so both sides see identical
        // batches without tracking live rows.
        let mut dels = Database::new();
        for _ in 0..DELS {
            let base = (rnd() % CHAINS * (LEN + 1)) as i64;
            let i = (rnd() % LEN) as i64;
            dels.insert("Edge", vec![(base + i).into(), (base + i + 1).into()]);
        }

        let t = Instant::now();
        mem.apply_delta(&ins, &dels).expect("maintains");
        memory += t.elapsed().as_secs_f64();

        let t = Instant::now();
        dur.apply_delta(&ins, &dels).expect("maintains durably");
        durable += t.elapsed().as_secs_f64();
    }
    let wal_bytes = dur.wal_bytes();

    let t = Instant::now();
    dur.checkpoint().expect("checkpoints");
    let checkpoint_secs = t.elapsed().as_secs_f64();

    let live = dur.output();
    drop(dur);

    let t = Instant::now();
    let scrub = DurableEvaluator::scrub(&dir).expect("scrubs");
    let scrub_secs = t.elapsed().as_secs_f64();
    assert!(scrub.is_clean(), "scrub found damage in a clean run");

    let t = Instant::now();
    let mut back =
        DurableEvaluator::open_with_config(&dir, opts, pool::with_threads(None), reorder_default())
            .expect("recovers");
    let recover_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    back.audit().expect("audits clean");
    let audit_secs = t.elapsed().as_secs_f64();
    let rows = |d: &Database| -> Vec<(String, Vec<Vec<Value>>)> {
        d.iter()
            .map(|(n, r)| {
                (
                    n.to_string(),
                    r.iter().map(|x| x.iter().collect()).collect(),
                )
            })
            .collect()
    };
    assert_eq!(rows(&back.output()), rows(&live), "recovery diverged");
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);

    DurabilityCase {
        edges,
        batches: BATCHES,
        memory_secs: memory / BATCHES as f64,
        durable_secs: durable / BATCHES as f64,
        checkpoint_secs,
        recover_secs,
        scrub_secs,
        audit_secs,
        wal_bytes,
    }
}

/// Thread-scaling sweep over explicit pools: the recursive-closure
/// fixpoint (partitioned outer scans) and the repeated-candidate sweep
/// (whole-variant fan-out), at 1/2/4/8 workers. `threads = 1` is the
/// sequential fallback and doubles as its regression guard.
///
/// On a single-hardware-thread machine the 2/4/8 rows can only measure
/// fan-out overhead (every worker timeshares one core), so the sweep
/// collapses to the `threads = 1` row and says so in the JSON `note`.
fn parallel_scaling(
    closure: &Program,
    edges: &Database,
    facts: &Database,
    programs: &[Program],
    thread_counts: &[usize],
) -> Vec<ScalingCase> {
    let mut out = Vec::new();
    for &threads in thread_counts {
        let pool = Arc::new(WorkerPool::new(threads));
        let ctx = Evaluator::with_config(
            edges.clone(),
            pool.clone(),
            RuleCacheHandle::default(),
            reorder_default(),
        );
        let secs = time_reps(5, || {
            ctx.eval(closure).expect("evaluates");
        });
        out.push(ScalingCase {
            workload: "transitive_closure_400",
            threads,
            secs,
        });
        let ctx = Evaluator::with_config(
            facts.clone(),
            pool,
            RuleCacheHandle::default(),
            reorder_default(),
        );
        let secs = time_reps(5, || {
            for p in programs {
                ctx.eval(p).expect("candidate evaluates");
            }
        });
        out.push(ScalingCase {
            workload: "repeated_candidates_sweep",
            threads,
            secs,
        });
        eprintln!("parallel_scaling threads={threads} done");
    }
    out
}

struct SynthCase {
    name: String,
    secs: f64,
    iterations: usize,
}

fn synth_case(name: &str) -> SynthCase {
    let b = by_name(name).expect("benchmark exists");
    let ex = b.example();
    let start = Instant::now();
    let result = synthesize(
        b.source(),
        b.target(),
        std::slice::from_ref(&ex),
        &SynthesisConfig::default(),
    )
    .expect("synthesis succeeds");
    SynthCase {
        name: format!("synthesis/{name}"),
        secs: start.elapsed().as_secs_f64(),
        iterations: result.stats.total_iterations(),
    }
}

/// The perf trajectory: each PR's headline numbers exactly as the
/// `BENCH_eval.json` that PR committed recorded them. PR 9 committed
/// none, so its fields read "not separately measured". Constant, so every
/// run writes it verbatim; a PR that moves a headline number appends its
/// own entry, copied from its committed run.
const HISTORY: &str = r#"  "history": [
    {"pr": 1, "storage": "row (Arc<[Value]>)", "repeated_candidates_context_secs": 0.003963, "repeated_candidates_speedup": 3.90},
    {"pr": 2, "storage": "columnar (TupleStore)", "repeated_candidates_context_secs": 0.002964, "repeated_candidates_speedup": 3.91},
    {"pr": 3, "storage": "columnar + worker pool", "repeated_candidates_context_secs": 0.002893, "repeated_candidates_speedup": 3.83},
    {"pr": 4, "storage": "columnar + planner + batched prescan", "repeated_candidates_context_secs": 0.002764, "repeated_candidates_speedup": 4.49, "join_ordering_speedup": 20.23},
    {"pr": 5, "storage": "SoA tag/payload streams + SIMD bitmask kernel", "repeated_candidates_context_secs": 0.003042, "repeated_candidates_speedup": 4.15, "join_ordering_speedup": 11.42, "batch_filter_dense_100k_secs": 0.000043844},
    {"pr": 6, "storage": "SoA + resource governor (cooperative checks)", "repeated_candidates_context_secs": 0.002831, "repeated_candidates_speedup": 4.65, "join_ordering_speedup": 19.51, "governance_overhead": 1.025},
    {"pr": 7, "storage": "SoA + incremental maintenance (DRed + warm semi-naive deltas)", "repeated_candidates_context_secs": 0.003292, "repeated_candidates_speedup": 4.14, "join_ordering_speedup": 21.12, "update_stream_speedup": 5.85, "update_stream_maintain_secs_per_batch": 0.274658},
    {"pr": 8, "storage": "SoA + durable checkpoint/WAL (crash recovery)", "repeated_candidates_context_secs": 0.002795, "repeated_candidates_speedup": 4.38, "join_ordering_speedup": 18.59, "update_stream_speedup": 6.57, "durability_wal_overhead": 0.851},
    {"pr": 9, "storage": "SoA + crash harness, scrubber, drift audit, group commit", "repeated_candidates_context_secs": "not separately measured", "repeated_candidates_speedup": "not separately measured", "join_ordering_speedup": "not separately measured", "update_stream_speedup": "not separately measured", "durability_wal_overhead": "not separately measured", "durability_scrub_secs": "not separately measured", "durability_audit_secs": "not separately measured"},
    {"pr": 10, "storage": "SoA + demand-driven query serving (magic sets + subsumptive cache)", "repeated_candidates_context_secs": 0.003123, "repeated_candidates_speedup": 4.39, "join_ordering_speedup": 18.80, "update_stream_speedup": 6.23, "point_query_magic_speedup": 685.60, "point_query_cached_speedup": 216168.76}
  ]"#;

/// Workload names `--case` accepts, in run order.
const CASE_NAMES: &[&str] = &[
    "golden",
    "transitive_closure",
    "governance",
    "repeated_candidates",
    "join_ordering",
    "batch_filter",
    "update_stream",
    "point_query",
    "durability",
    "parallel_scaling",
    "synthesis",
];

fn main() {
    let mut out_path = String::from("BENCH_eval.json");
    let mut case_filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--case" {
            let Some(name) = args.next() else {
                eprintln!(
                    "--case needs a workload name; available cases: {}",
                    CASE_NAMES.join(", ")
                );
                std::process::exit(2);
            };
            if !CASE_NAMES.contains(&name.as_str()) {
                eprintln!(
                    "unknown case `{name}`; available cases: {}",
                    CASE_NAMES.join(", ")
                );
                std::process::exit(2);
            }
            case_filter = Some(name);
        } else {
            out_path = arg;
        }
    }
    let run = |name: &str| case_filter.as_deref().is_none_or(|f| f == name);

    // --- datalog/golden: join-heavy golden programs on generated data.
    let mut eval_cases = Vec::new();
    if run("golden") {
        for name in ["Bike-3", "Soccer-1"] {
            let b = by_name(name).expect("benchmark exists");
            let facts = to_facts(&b.generate_source(4, 3));
            eval_cases.push(eval_case(&format!("golden/{name}"), b.golden(), &facts, 20));
            eprintln!("done golden/{name}");
        }
    }

    // --- recursive closure (exercises semi-naive delta indexes).
    let closure = closure_program();
    let mut edges = Database::new();
    edges.extend_rows(
        "Edge",
        2,
        (0..400i64).flat_map(|i| {
            let chain = vec![i.into(), (i + 1).into()];
            let skip = (i % 7 == 0).then(|| vec![i.into(), ((i + 13) % 400).into()]);
            std::iter::once(chain).chain(skip)
        }),
    );
    if run("transitive_closure") {
        eval_cases.push(eval_case(
            "datalog/transitive_closure_400",
            &closure,
            &edges,
            5,
        ));
        eprintln!("done transitive closure");
    }

    // --- governance overhead: the same closure workload governed by a
    // never-tripping Governor vs the plain path, interleaved.
    let governance = run("governance").then(|| governance_case(&closure, &edges, 10));
    if let Some(g) = &governance {
        eprintln!(
            "governance overhead: {:.2}x ({:.6}s governed vs {:.6}s ungoverned per eval)",
            g.overhead(),
            g.governed_secs,
            g.ungoverned_secs
        );
    }

    // --- repeated candidates: one EDB, many programs (CEGIS shape).
    // The Retina EDB and candidate pool also feed the scaling sweep.
    let mut facts = Database::new();
    let mut programs = Vec::new();
    if run("repeated_candidates") || run("parallel_scaling") {
        let retina = by_name("Retina-2").expect("benchmark exists");
        facts = to_facts(&retina.generate_source(8, 7));
        // The single-join candidates also scan a tiny unary relation.
        for v in 0..5i64 {
            facts.insert("E", vec![v.into()]);
        }
        programs = candidate_programs(60);
    }
    let repeated = run("repeated_candidates").then(|| repeated_candidates(&facts, &programs));
    if let Some(r) = &repeated {
        eprintln!(
            "repeated candidates: {}x speedup ({} candidates, {} facts)",
            r.legacy_secs / r.context_secs.max(1e-12),
            r.candidates,
            r.facts_in
        );
    }

    // --- join ordering: adversarial bodies, planner vs body order.
    let ordering = run("join_ordering").then(join_ordering);
    if let Some(o) = &ordering {
        eprintln!(
            "join_ordering: {:.2}x planner speedup ({:.6}s vs {:.6}s body-order)",
            o.speedup(),
            o.planner_secs,
            o.body_order_secs
        );
    }

    // --- batch filter: scalar pre-scan vs the batched adaptive kernel,
    // in both regimes (sparse ~1% hits, dense ~25% hits) plus the
    // multi-constant staged path.
    let batch_cases: Vec<BatchFilterCase> = if run("batch_filter") {
        [(10_000usize, 400usize), (100_000, 60)]
            .into_iter()
            .flat_map(|(rows, reps)| {
                let store = filter_store(rows);
                [
                    batch_filter_case("sparse", &store, &[(0, Value::Int(7))], reps),
                    batch_filter_case("dense", &store, &[(1, Value::str("electric"))], reps),
                    batch_filter_case(
                        "two_const",
                        &store,
                        &[(1, Value::str("electric")), (0, Value::Int(7))],
                        reps,
                    ),
                ]
            })
            .collect()
    } else {
        Vec::new()
    };
    for c in &batch_cases {
        eprintln!(
            "batch_filter {} rows={} consts={}: {:.2}x batched speedup",
            c.regime,
            c.rows,
            c.consts,
            c.speedup()
        );
    }
    // --- update stream: incremental maintenance vs full re-evaluation.
    let update = run("update_stream").then(update_stream_case);
    if let Some(u) = &update {
        eprintln!(
            "update_stream: {:.1}x maintained speedup ({:.6}s maintain vs {:.6}s full \
             per batch, {:.0} maintained facts/sec)",
            u.speedup(),
            u.maintain_secs,
            u.full_secs,
            u.maintained_facts_per_sec()
        );
    }

    // --- point queries: demand-driven serving (magic sets + cache) vs
    // full materialization.
    let point = run("point_query").then(point_query_case);
    if let Some(p) = &point {
        eprintln!(
            "point_query: {:.1}x magic speedup, {:.1}x cached speedup ({:.6}s magic vs \
             {:.6}s full per query), all-free cached {:.2}x",
            p.magic_speedup(),
            p.cached_speedup(),
            p.magic_secs,
            p.full_secs,
            p.allfree_speedup()
        );
    }

    // --- durability: WAL-logged maintenance vs in-memory, plus
    // checkpoint and cold-recovery latencies.
    let durability = run("durability").then(durability_case);
    if let Some(d) = &durability {
        eprintln!(
            "durability: {:.2}x WAL overhead ({:.6}s durable vs {:.6}s in-memory per batch), \
             checkpoint {:.4}s, recovery {:.4}s, scrub {:.4}s, audit {:.4}s, {} WAL bytes",
            d.overhead(),
            d.durable_secs,
            d.memory_secs,
            d.checkpoint_secs,
            d.recover_secs,
            d.scrub_secs,
            d.audit_secs,
            d.wal_bytes
        );
    }

    // CI smoke assertions (`BENCH_ASSERT=1`): the kernel must never lose
    // to the scalar sweep in the regimes it is built for (dense and
    // two-constant probes), and incremental maintenance must never lose
    // to full re-evaluation on small batches. Absolute times are NOT
    // gated — container noise is ±10–15% across days — only the same-run
    // relative order.
    if std::env::var("BENCH_ASSERT").is_ok_and(|v| v.trim() == "1") {
        for c in batch_cases.iter().filter(|c| c.regime != "sparse") {
            assert!(
                c.speedup() >= 1.0,
                "batch_filter regression: {} rows={} consts={} speedup {:.2} < 1.0 \
                 (kernel slower than the scalar sweep)",
                c.regime,
                c.rows,
                c.consts,
                c.speedup()
            );
        }
        if !batch_cases.is_empty() {
            eprintln!("BENCH_ASSERT: batch_filter dense/two_const >= 1.0x ok");
        }
        // Governance must be within noise of the seed path when no limit
        // trips; 1.25x is the noise band (±10–15%) plus headroom. The
        // two sides are interleaved in one session, so a systematic gap
        // here is real per-tuple overhead, not machine drift.
        if let Some(g) = &governance {
            assert!(
                g.overhead() <= 1.25,
                "governance overhead regression: governed {:.6}s vs ungoverned {:.6}s per eval \
                 ({:.2}x > 1.25x)",
                g.governed_secs,
                g.ungoverned_secs,
                g.overhead()
            );
            eprintln!(
                "BENCH_ASSERT: governance overhead {:.2}x <= 1.25x ok",
                g.overhead()
            );
        }
        // Maintenance beats full re-eval by a wide margin on this
        // workload (tens of times in local runs), but the gate is a
        // conservative parity check so scheduler noise cannot flake CI.
        if let Some(u) = &update {
            assert!(
                u.speedup() >= 1.0,
                "update_stream regression: maintenance {:.6}s/batch slower than full \
                 re-evaluation {:.6}s/batch ({:.2}x < 1.0x)",
                u.maintain_secs,
                u.full_secs,
                u.speedup()
            );
            eprintln!(
                "BENCH_ASSERT: update_stream speedup {:.1}x >= 1.0x ok",
                u.speedup()
            );
        }
        // Selective point queries are the workload the magic rewrite
        // exists for: the demanded slice is ~0.3% of the closure, so the
        // local ratio is enormous; 2.0x is a conservative floor that
        // container noise cannot flake. All-free degenerates to a full
        // evaluation, so only the warm-cache repeat is gated — at bare
        // parity, since its answer is one relation clone.
        if let Some(p) = &point {
            assert!(
                p.magic_speedup() >= 2.0,
                "point_query regression: magic {:.6}s/query vs full materialization \
                 {:.6}s/query ({:.2}x < 2.0x on selective lookups)",
                p.magic_secs,
                p.full_secs,
                p.magic_speedup()
            );
            assert!(
                p.allfree_speedup() >= 1.0,
                "point_query regression: warm all-free answer {:.6}s vs full evaluation \
                 {:.6}s ({:.2}x < 1.0x)",
                p.allfree_cached_secs,
                p.allfree_full_secs,
                p.allfree_speedup()
            );
            eprintln!(
                "BENCH_ASSERT: point_query magic {:.1}x >= 2.0x, all-free cached {:.2}x >= 1.0x ok",
                p.magic_speedup(),
                p.allfree_speedup()
            );
        }
        // The WAL tax (frame encode + append + fsync) rides on top of the
        // same in-memory apply, interleaved in one session; 1.5x is the
        // acceptance ceiling from the durability issue, with the fsync
        // cost dominated by the multi-millisecond maintenance batches.
        if let Some(d) = &durability {
            assert!(
                d.overhead() <= 1.5,
                "durability regression: durable apply {:.6}s/batch vs in-memory {:.6}s/batch \
                 ({:.2}x > 1.5x WAL overhead)",
                d.durable_secs,
                d.memory_secs,
                d.overhead()
            );
            eprintln!(
                "BENCH_ASSERT: durability WAL overhead {:.2}x <= 1.5x ok",
                d.overhead()
            );
        }
    }

    // --- parallel scaling: pool fan-out at 1/2/4/8 workers (collapsed
    // to the sequential row when the hardware cannot scale anyway).
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let thread_counts: &[usize] = if hardware_threads == 1 {
        &[1]
    } else {
        &[1, 2, 4, 8]
    };
    let scaling = if run("parallel_scaling") {
        if hardware_threads == 1 {
            eprintln!("parallel_scaling: single hardware thread, recording threads=1 only");
        }
        parallel_scaling(&closure, &edges, &facts, &programs, thread_counts)
    } else {
        Vec::new()
    };

    // --- synthesis end-to-end (the consumer of all of the above).
    let synth_cases: Vec<SynthCase> = if run("synthesis") {
        ["Tencent-1", "Bike-3", "MLB-1"]
            .iter()
            .map(|n| {
                let c = synth_case(n);
                eprintln!("done {}", c.name);
                c
            })
            .collect()
    } else {
        Vec::new()
    };

    // --- hand-rolled JSON (the workspace is dependency-free offline).
    // Each section is built as its own string and joined at the end so a
    // `--case`-filtered run still writes a valid document containing
    // only the sections that actually ran.
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs();
    let mut sections: Vec<String> = vec![format!("  \"unix_time\": {epoch}")];
    if !eval_cases.is_empty() {
        let mut s = String::from("  \"cases\": [\n");
        for (i, c) in eval_cases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"facts_in\": {}, \"facts_out\": {}, \"reps\": {}, \
                 \"legacy_secs_per_eval\": {:.6}, \"context_secs_per_eval\": {:.6}, \
                 \"speedup\": {:.2}, \"facts_per_sec\": {:.0}}}{}\n",
                c.name,
                c.facts_in,
                c.facts_out,
                c.reps,
                c.legacy_secs,
                c.context_secs,
                c.speedup(),
                c.facts_per_sec(),
                if i + 1 < eval_cases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
        sections.push(s);
    }
    if let Some(r) = &repeated {
        sections.push(format!(
            "  \"repeated_candidates\": {{\"candidates\": {}, \"facts_in\": {}, \
             \"legacy_secs\": {:.6}, \"context_secs\": {:.6}, \"speedup\": {:.2}}}",
            r.candidates,
            r.facts_in,
            r.legacy_secs,
            r.context_secs,
            r.legacy_secs / r.context_secs.max(1e-12),
        ));
    }
    if let Some(o) = &ordering {
        sections.push(format!(
            "  \"join_ordering\": {{\"candidates\": {}, \"facts_in\": {}, \
             \"planner_secs\": {:.6}, \"body_order_secs\": {:.6}, \"speedup\": {:.2}}}",
            o.candidates,
            o.facts_in,
            o.planner_secs,
            o.body_order_secs,
            o.speedup(),
        ));
    }
    if let Some(g) = &governance {
        sections.push(format!(
            "  \"governance\": {{\"reps\": {}, \"ungoverned_secs_per_eval\": {:.6}, \
             \"governed_secs_per_eval\": {:.6}, \"overhead\": {:.3}}}",
            g.reps,
            g.ungoverned_secs,
            g.governed_secs,
            g.overhead(),
        ));
    }
    if !batch_cases.is_empty() {
        let mut s = String::from("  \"batch_filter\": [\n");
        for (i, c) in batch_cases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"regime\": \"{}\", \"rows\": {}, \"consts\": {}, \"reps\": {}, \
                 \"scalar_secs_per_scan\": {:.9}, \"batched_secs_per_scan\": {:.9}, \
                 \"speedup\": {:.2}}}{}\n",
                c.regime,
                c.rows,
                c.consts,
                c.reps,
                c.scalar_secs,
                c.batched_secs,
                c.speedup(),
                if i + 1 < batch_cases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
        sections.push(s);
    }
    if let Some(u) = &update {
        sections.push(format!(
            "  \"update_stream\": {{\"edges\": {}, \"output_facts\": {}, \"batches\": {}, \
             \"batch_inserts\": {}, \"batch_deletes\": {}, \
             \"maintain_secs_per_batch\": {:.6}, \"full_secs_per_batch\": {:.6}, \
             \"speedup\": {:.2}, \"maintained_facts_per_sec\": {:.0}}}",
            u.edges,
            u.output_facts,
            u.batches,
            u.batch_inserts,
            u.batch_deletes,
            u.maintain_secs,
            u.full_secs,
            u.speedup(),
            u.maintained_facts_per_sec(),
        ));
    }
    if let Some(p) = &point {
        sections.push(format!(
            "  \"point_query\": {{\"edges\": {}, \"closure_facts\": {}, \"queries\": {}, \
             \"magic_secs_per_query\": {:.6}, \"full_secs_per_query\": {:.6}, \
             \"cached_secs_per_query\": {:.9}, \"magic_speedup\": {:.2}, \
             \"cached_speedup\": {:.2}, \"allfree_cached_secs\": {:.6}, \
             \"allfree_full_secs\": {:.6}, \"allfree_speedup\": {:.2}}}",
            p.edges,
            p.closure_facts,
            p.queries,
            p.magic_secs,
            p.full_secs,
            p.cached_secs,
            p.magic_speedup(),
            p.cached_speedup(),
            p.allfree_cached_secs,
            p.allfree_full_secs,
            p.allfree_speedup(),
        ));
    }
    if let Some(d) = &durability {
        sections.push(format!(
            "  \"durability\": {{\"edges\": {}, \"batches\": {}, \
             \"memory_secs_per_batch\": {:.6}, \"durable_secs_per_batch\": {:.6}, \
             \"wal_overhead\": {:.3}, \"checkpoint_secs\": {:.6}, \
             \"recover_secs\": {:.6}, \"scrub_secs\": {:.6}, \
             \"audit_secs\": {:.6}, \"wal_bytes\": {}}}",
            d.edges,
            d.batches,
            d.memory_secs,
            d.durable_secs,
            d.overhead(),
            d.checkpoint_secs,
            d.recover_secs,
            d.scrub_secs,
            d.audit_secs,
            d.wal_bytes,
        ));
    }
    if !scaling.is_empty() {
        let mut s = format!(
            "  \"parallel_scaling\": {{\"hardware_threads\": {hardware_threads},{} \"cases\": [\n",
            if hardware_threads == 1 {
                " \"note\": \"single hardware thread: threads>1 rows would measure fan-out \
                 overhead only, sweep collapsed to the sequential row\","
            } else {
                ""
            }
        );
        for (i, c) in scaling.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"workload\": \"{}\", \"threads\": {}, \"secs\": {:.6}}}{}\n",
                c.workload,
                c.threads,
                c.secs,
                if i + 1 < scaling.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]}");
        sections.push(s);
    }
    sections.push(HISTORY.to_string());
    if !synth_cases.is_empty() {
        let mut s = String::from("  \"synthesis\": [\n");
        for (i, c) in synth_cases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"secs\": {:.4}, \"iterations\": {}}}{}\n",
                c.name,
                c.secs,
                c.iterations,
                if i + 1 < synth_cases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
        sections.push(s);
    }
    let j = format!("{{\n{}\n}}\n", sections.join(",\n"));

    std::fs::write(&out_path, &j).expect("write BENCH_eval.json");
    println!("{j}");
    eprintln!("wrote {out_path}");
}
