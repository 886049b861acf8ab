//! Crash-recovery pins for the durability layer.
//!
//! The bar (ISSUE 8): for every injected I/O fault point and injection
//! count, recovery must yield a maintained state **bit-identical** —
//! contents *and* row order — to the uninterrupted run, at thread counts
//! 1 and 4; and a corrupt newest checkpoint must fall back to the prior
//! generation instead of erroring out.
//!
//! Every test arms process-global fault points (or must not observe
//! someone else's), so each takes `fault::test_lock()`.

use std::sync::Arc;

use dynamite_datalog::durable::{DurableError, DurableEvaluator, DurableOptions};
use dynamite_datalog::fault;
use dynamite_datalog::pool::WorkerPool;
use dynamite_datalog::{EvalError, Governor, IncrementalEvaluator, Program, ResourceLimits};
use dynamite_instance::{Database, Value};

mod common;
use common::{edge, ordered_rows, Lcg, TempDir};

fn program() -> Program {
    Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).
         Reach(y) :- Source(x), Path(x, y).",
    )
    .unwrap()
}

/// The seed EDB: a few chains plus labeled sources, with string data so
/// the by-string serialization path carries real weight.
fn seed_edb() -> Database {
    let mut edb = Database::new();
    for c in 0..20u64 {
        let base = c * 10;
        for i in 0..6 {
            edb.insert("Edge", edge(base + i, base + i + 1));
        }
        edb.insert("Source", vec![Value::Int(base as i64)]);
        edb.insert(
            "Label",
            vec![Value::Int(base as i64), Value::str(format!("chain-{c}"))],
        );
    }
    edb
}

/// A deterministic stream of insert/delete batches over the chain graph.
fn batches(n: usize, seed: u64) -> Vec<(Database, Database)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let mut ins = Database::new();
            let mut dels = Database::new();
            for _ in 0..6 {
                let a = rng.next() % 200;
                ins.insert("Edge", edge(a, rng.next() % 200));
                dels.insert("Edge", edge(rng.next() % 200, rng.next() % 200));
            }
            (ins, dels)
        })
        .collect()
}

fn assert_bit_identical(got: &Database, want: &Database, what: &str) {
    assert_eq!(ordered_rows(got), ordered_rows(want), "{what}");
}

/// Aggressive compaction so short streams still cross checkpoint
/// generations (and exercise the replan-at-rotation path).
fn aggressive() -> DurableOptions {
    DurableOptions {
        compact_wal_ratio: 0.0,
        compact_min_wal_bytes: 256,
        ..DurableOptions::default()
    }
}

/// One matrix cell: run a batch stream with `point` armed to fire
/// `count` times, then recover from disk and pin bit-identity against
/// the live (uninterrupted) evaluator's own state.
///
/// `count == 1` must self-heal — every batch lands, the evaluator stays
/// alive. `count == 2` exhausts the retry: the failing batch errors, the
/// evaluator retires (`Dead`), and recovery restores exactly the batches
/// that were acknowledged.
fn run_wal_fault_cell(point: &str, count: u64, threads: usize, opts: DurableOptions) {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new(&format!("{point}-{count}-{threads}"));
    let pool = Arc::new(WorkerPool::new(threads));
    let reorder = true;

    let mut dur = DurableEvaluator::create_with_config(
        dir.path(),
        program(),
        seed_edb(),
        opts,
        pool.clone(),
        reorder,
    )
    .unwrap();
    // Independent correctness reference (set-level semantics).
    let mut reference =
        IncrementalEvaluator::with_config(program(), seed_edb(), pool.clone(), reorder).unwrap();

    let mut failed_at: Option<usize> = None;
    // The uninterrupted run's own state after the last acknowledged
    // batch — the bit-identity baseline.
    let mut live_output = dur.output();
    let mut live_edb = dur.edb().clone();
    for (i, (ins, dels)) in batches(10, 0xD15C_0000 + count).iter().enumerate() {
        if i == 4 {
            // Arm mid-stream so the acknowledged prefix is non-trivial.
            fault::arm(point, count);
        }
        match dur.apply_delta(ins, dels) {
            Ok(_) => {
                reference.apply_delta(ins, dels).unwrap();
                live_output = dur.output();
                live_edb = dur.edb().clone();
            }
            Err(e) => {
                assert!(
                    matches!(e, DurableError::Io(_)),
                    "WAL fault must surface as Io, got: {e}"
                );
                failed_at = Some(i);
                break;
            }
        }
    }
    fault::reset();

    if count == 1 {
        assert!(failed_at.is_none(), "a single {point} fault must self-heal");
        assert!(!dur.is_dead());
    } else {
        assert!(
            failed_at.is_some(),
            "{point}={count} must exhaust the retry"
        );
        assert!(dur.is_dead(), "double fault must retire the evaluator");
        assert!(
            matches!(
                dur.apply_delta(&Database::new(), &Database::new()),
                Err(DurableError::Dead)
            ),
            "a dead evaluator must refuse further work"
        );
    }
    drop(dur);

    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, reorder).unwrap();
    let report = rec.recovery_report().unwrap().clone();
    if count > 1 {
        assert!(
            report.torn_tail_bytes > 0,
            "{point}={count} leaves a damaged tail for recovery to truncate"
        );
    }
    assert_bit_identical(
        &rec.output(),
        &live_output,
        &format!("recovered output ({point}={count}, {threads} threads)"),
    );
    assert_bit_identical(
        rec.edb(),
        &live_edb,
        &format!("recovered EDB ({point}={count}, {threads} threads)"),
    );
    // Set-level cross-check against the independent maintainer.
    assert_eq!(rec.output(), reference.output());

    // The recovered evaluator is a full citizen: it accepts new batches.
    let (ins, dels) = &batches(1, 999)[0];
    rec.apply_delta(ins, dels).unwrap();
    reference.apply_delta(ins, dels).unwrap();
    assert_eq!(rec.output(), reference.output());
}

#[test]
fn wal_torn_write_matrix() {
    for &threads in &[1usize, 4] {
        for &count in &[1u64, 2] {
            run_wal_fault_cell(fault::WAL_TORN_WRITE, count, threads, aggressive());
        }
    }
}

#[test]
fn wal_bit_flip_matrix() {
    for &threads in &[1usize, 4] {
        for &count in &[1u64, 2] {
            run_wal_fault_cell(fault::WAL_BIT_FLIP, count, threads, aggressive());
        }
    }
}

/// `checkpoint-partial` cell: a single fault self-heals inside the
/// forced checkpoint; a double fault fails the checkpoint *without*
/// advancing the generation or losing any acknowledged batch.
fn run_checkpoint_fault_cell(count: u64, threads: usize) {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new(&format!("ckpt-partial-{count}-{threads}"));
    let pool = Arc::new(WorkerPool::new(threads));
    // No auto-compaction: the forced checkpoint below is the only one.
    let opts = DurableOptions {
        compact_min_wal_bytes: u64::MAX,
        ..DurableOptions::default()
    };

    let mut dur = DurableEvaluator::create_with_config(
        dir.path(),
        program(),
        seed_edb(),
        opts,
        pool.clone(),
        true,
    )
    .unwrap();
    for (ins, dels) in &batches(4, 0xC4E0) {
        dur.apply_delta(ins, dels).unwrap();
    }

    fault::arm(fault::CHECKPOINT_PARTIAL, count);
    let result = dur.checkpoint();
    fault::reset();
    if count == 1 {
        result.expect("a single checkpoint-partial fault must self-heal");
        assert_eq!(dur.generation(), 1);
    } else {
        assert!(
            matches!(result, Err(DurableError::Corrupt { .. })),
            "verification must catch the partial checkpoint"
        );
        assert_eq!(dur.generation(), 0, "failed checkpoint must not advance");
        assert!(!dur.is_dead(), "a failed checkpoint is not fatal");
    }

    // Appends continue either way…
    for (ins, dels) in &batches(3, 0xC4E1) {
        dur.apply_delta(ins, dels).unwrap();
    }
    let live_output = dur.output();
    let live_edb = dur.edb().clone();
    drop(dur);

    // …and recovery lands on the identical state: from generation 1 when
    // the checkpoint went through, from generation 0 (skipping the
    // damaged file) when it did not.
    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, true).unwrap();
    let report = rec.recovery_report().unwrap().clone();
    if count == 1 {
        assert_eq!(report.generation, 1);
        assert_eq!(report.checkpoints_skipped, 0);
        assert_eq!(report.frames_replayed, 3);
    } else {
        assert_eq!(report.generation, 0);
        assert_eq!(
            report.checkpoints_skipped, 1,
            "damaged ckpt-1 must be skipped"
        );
        assert_eq!(report.frames_replayed, 7);
    }
    assert_bit_identical(&rec.output(), &live_output, "recovered output");
    assert_bit_identical(rec.edb(), &live_edb, "recovered EDB");
}

#[test]
fn checkpoint_partial_matrix() {
    for &threads in &[1usize, 4] {
        for &count in &[1u64, 2] {
            run_checkpoint_fault_cell(count, threads);
        }
    }
}

/// A checkpoint that was valid on disk and later rots (flipped byte)
/// must fall back to the previous generation and stitch its WAL chain
/// back together across the segment rotation.
#[test]
fn corrupt_newest_checkpoint_falls_back_a_generation() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("gen-fallback");
    let pool = Arc::new(WorkerPool::new(4));
    let opts = DurableOptions {
        compact_min_wal_bytes: u64::MAX,
        ..DurableOptions::default()
    };

    let mut dur = DurableEvaluator::create_with_config(
        dir.path(),
        program(),
        seed_edb(),
        opts,
        pool.clone(),
        true,
    )
    .unwrap();
    for (ins, dels) in &batches(3, 0xFA11) {
        dur.apply_delta(ins, dels).unwrap();
    }
    dur.checkpoint().unwrap();
    assert_eq!(dur.generation(), 1);
    for (ins, dels) in &batches(2, 0xFA12) {
        dur.apply_delta(ins, dels).unwrap();
    }
    let live_output = dur.output();
    let live_edb = dur.edb().clone();
    drop(dur);

    // Bit rot in the middle of ckpt-1.
    let ckpt = dir.path().join("ckpt-1");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&ckpt, &bytes).unwrap();

    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, true).unwrap();
    let report = rec.recovery_report().unwrap().clone();
    assert_eq!(
        report.generation, 0,
        "must fall back past the rotten ckpt-1"
    );
    assert_eq!(report.checkpoints_skipped, 1);
    // 3 frames from wal-0 plus 2 from wal-1, stitched by global seq.
    assert_eq!(report.frames_replayed, 5);
    assert_bit_identical(&rec.output(), &live_output, "fallback output");
    assert_bit_identical(rec.edb(), &live_edb, "fallback EDB");
}

/// Garbage appended to the newest segment (a crash tail that never
/// became a full frame) is truncated away, not panicked over.
#[test]
fn torn_wal_tail_is_truncated_on_recovery() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("torn-tail");
    let pool = Arc::new(WorkerPool::new(1));
    let opts = DurableOptions::default();

    let mut dur = DurableEvaluator::create_with_config(
        dir.path(),
        program(),
        seed_edb(),
        opts,
        pool.clone(),
        true,
    )
    .unwrap();
    for (ins, dels) in &batches(3, 0x7E4A) {
        dur.apply_delta(ins, dels).unwrap();
    }
    let live_output = dur.output();
    drop(dur);

    // A torn frame: plausible length prefix, missing body.
    let wal = dir.path().join("wal-0");
    let mut bytes = std::fs::read(&wal).unwrap();
    let before = bytes.len();
    bytes.extend_from_slice(&[0x40, 0, 0, 0, 0xAA, 0xBB, 0xCC]);
    std::fs::write(&wal, &bytes).unwrap();

    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, true).unwrap();
    let report = rec.recovery_report().unwrap().clone();
    assert_eq!(report.frames_replayed, 3);
    assert_eq!(report.torn_tail_bytes, 7);
    assert_bit_identical(&rec.output(), &live_output, "post-truncation output");
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        before as u64,
        "the torn tail must be physically truncated"
    );
}

/// A governed resource trip must leave the WAL equal to the applied
/// batches: the appended frame is truncated back out, and recovery lands
/// on the pre-batch state.
#[test]
fn governed_trip_truncates_the_appended_frame() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("governed-trip");
    let pool = Arc::new(WorkerPool::new(4));
    let opts = DurableOptions::default();

    let mut dur = DurableEvaluator::create_with_config(
        dir.path(),
        program(),
        seed_edb(),
        opts,
        pool.clone(),
        true,
    )
    .unwrap();
    let stream = batches(1, 0x60B0);
    dur.apply_delta(&stream[0].0, &stream[0].1).unwrap();
    let wal_before = dur.wal_bytes();
    let live_output = dur.output();

    // Bridging two chains derives dozens of new Path facts; a budget of
    // one trips mid-maintenance (after real work has started).
    let mut bridge = Database::new();
    bridge.insert("Edge", edge(6, 10));
    let gov = Governor::new(ResourceLimits::none().with_fact_budget(1));
    let err = dur
        .apply_delta_governed(&bridge, &Database::new(), &gov)
        .unwrap_err();
    assert!(matches!(err, DurableError::Eval(e) if e.is_resource_limit()));
    assert_eq!(
        dur.wal_bytes(),
        wal_before,
        "the tripped batch's frame must be truncated back out"
    );
    assert!(dur.is_poisoned(), "a tripped batch degrades the overlay");
    assert!(!dur.is_dead(), "a governed trip is not an I/O death");
    drop(dur);

    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, true).unwrap();
    assert_eq!(rec.recovery_report().unwrap().frames_replayed, 1);
    assert_bit_identical(&rec.output(), &live_output, "post-trip output");
}

/// A batch the maintainer rejects is refused before its frame is
/// written: no WAL bytes, no sequence number, and no I/O at all — an
/// armed `wal-torn-write` is still armed afterwards.
#[test]
fn rejected_batch_never_reaches_the_wal() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("rejected-batch");
    let mut dur = DurableEvaluator::create(dir.path(), program(), seed_edb()).unwrap();
    let (ins, dels) = &batches(1, 0xBAD)[0];
    dur.apply_delta(ins, dels).unwrap();
    let (wal_before, seq_before) = (dur.wal_bytes(), dur.next_seq());

    let mut wrong_arity = Database::new();
    wrong_arity.insert("Edge", vec![Value::Int(1)]);
    fault::arm(fault::WAL_TORN_WRITE, 1);
    let err = dur.apply_delta(&wrong_arity, &Database::new()).unwrap_err();
    assert!(
        matches!(err, DurableError::Eval(EvalError::InputArity { .. })),
        "{err}"
    );
    assert_eq!(dur.wal_bytes(), wal_before, "no frame written");
    assert_eq!(dur.next_seq(), seq_before, "no sequence number taken");
    assert!(
        fault::fire(fault::WAL_TORN_WRITE),
        "the rejected batch must not reach the append"
    );
    assert!(!dur.is_dead());
    fault::reset();
}

/// A failed truncate after a governed trip retires the evaluator: the
/// tripped batch's frame stays on disk, so no later frame may take its
/// sequence number. Recovery then replays that frame, exactly as after
/// `crash-after-wal-append`.
#[test]
fn failed_truncate_retires_the_evaluator() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("failed-truncate");
    let reference = TempDir::new("failed-truncate-ref");
    let pool = Arc::new(WorkerPool::new(1));
    let opts = DurableOptions::default();
    let create = |path| {
        DurableEvaluator::create_with_config(path, program(), seed_edb(), opts, pool.clone(), true)
            .unwrap()
    };
    let mut dur = create(dir.path());
    let mut want = create(reference.path());
    let stream = batches(2, 0x7A1C);
    dur.apply_delta(&stream[0].0, &stream[0].1).unwrap();
    want.apply_delta(&stream[0].0, &stream[0].1).unwrap();
    want.apply_delta(&stream[1].0, &stream[1].1).unwrap();

    fault::arm(fault::BUDGET, 1);
    fault::arm(fault::WAL_TRUNCATE, 1);
    let gov = Governor::new(ResourceLimits::none());
    let err = dur
        .apply_delta_governed(&stream[1].0, &stream[1].1, &gov)
        .unwrap_err();
    fault::reset();
    assert!(matches!(err, DurableError::Io(_)), "{err}");
    assert!(dur.is_dead(), "a failed truncate must retire the evaluator");
    assert!(matches!(
        dur.apply_delta(&stream[0].0, &stream[0].1),
        Err(DurableError::Dead)
    ));
    drop(dur);

    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, true).unwrap();
    assert_eq!(rec.next_seq(), 2, "the stuck frame replays");
    assert_bit_identical(rec.edb(), want.edb(), "recovered edb");
    assert_bit_identical(&rec.output(), &want.output(), "recovered output");
}

/// Compaction keeps exactly one fallback generation and recovery still
/// works from the newest.
#[test]
fn compaction_rotates_and_purges_generations() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("compaction");
    let pool = Arc::new(WorkerPool::new(1));
    let opts = aggressive();

    let mut dur = DurableEvaluator::create_with_config(
        dir.path(),
        program(),
        seed_edb(),
        opts,
        pool.clone(),
        true,
    )
    .unwrap();
    for (ins, dels) in &batches(12, 0xC0DE) {
        dur.apply_delta(ins, dels).unwrap();
    }
    let gen = dur.generation();
    assert!(
        gen >= 2,
        "aggressive options must have compacted repeatedly"
    );
    let live_output = dur.output();
    drop(dur);

    let mut kept: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    kept.sort();
    assert_eq!(
        kept,
        vec![
            format!("ckpt-{}", gen - 1),
            format!("ckpt-{gen}"),
            format!("wal-{}", gen - 1),
            format!("wal-{gen}"),
        ],
        "exactly the newest two generations survive"
    );

    let mut rec = DurableEvaluator::open_with_config(dir.path(), opts, pool, true).unwrap();
    assert_eq!(rec.recovery_report().unwrap().generation, gen);
    assert_bit_identical(&rec.output(), &live_output, "post-compaction output");
}

/// `open_or_create` round trip plus the plain-open error paths.
#[test]
fn open_or_create_and_error_paths() {
    let _g = fault::test_lock();
    fault::reset();
    let dir = TempDir::new("open-or-create");

    assert!(
        matches!(
            DurableEvaluator::open(dir.path().join("missing")),
            Err(DurableError::Io(_))
        ),
        "opening a missing directory is an I/O error"
    );

    let mut first = DurableEvaluator::open_or_create(dir.path(), program(), seed_edb()).unwrap();
    assert!(first.recovery_report().is_none(), "first call creates");
    let (ins, dels) = &batches(1, 0x0C)[0];
    first.apply_delta(ins, dels).unwrap();
    let live = first.output();
    drop(first);

    // Second call opens; the (program, edb) arguments are ignored.
    let mut second = DurableEvaluator::open_or_create(
        dir.path(),
        Program::parse("X(a) :- Y(a).").unwrap(),
        Database::new(),
    )
    .unwrap();
    assert!(second.recovery_report().is_some(), "second call recovers");
    assert_bit_identical(&second.output(), &live, "open_or_create reopen");
    drop(second);

    assert!(
        matches!(
            DurableEvaluator::create(dir.path(), program(), seed_edb()),
            Err(DurableError::Io(_))
        ),
        "create on a populated directory must refuse"
    );

    // A directory whose every checkpoint is rotten is unusable.
    let path = dir.path().join("ckpt-0");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        matches!(
            DurableEvaluator::open(dir.path()),
            Err(DurableError::NoUsableCheckpoint)
        ),
        "all-corrupt directory must report NoUsableCheckpoint"
    );
}

/// A checkpoint stores its program as text, so a reopened session must
/// run the program it was created with — including string constants
/// that are non-ASCII or print with escapes the parser must accept.
#[test]
fn string_constants_survive_create_drop_open() {
    let _g = fault::test_lock();
    fault::reset();
    for (i, s) in ["café", "a\rb"].into_iter().enumerate() {
        let dir = TempDir::new(&format!("string-const-{i}"));
        let program = Program::parse(&format!("Q(x) :- R(x, {}).", Value::str(s))).unwrap();
        let text = program.to_string();
        let mut edb = Database::new();
        edb.insert("R", vec![Value::Int(1), Value::str(s)]);
        let mut created = DurableEvaluator::create(dir.path(), program, edb).unwrap();
        let live = created.output();
        assert_eq!(live.relation("Q").map(|r| r.len()), Some(1), "{s:?}");
        drop(created);
        let mut reopened = DurableEvaluator::open(dir.path()).unwrap();
        assert_eq!(reopened.program().to_string(), text, "{s:?}");
        assert_bit_identical(&reopened.output(), &live, "string-constant reopen");
    }
}
