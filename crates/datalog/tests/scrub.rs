//! Pins for the integrity scrubber, the write contract, and the drift
//! auditor.
//!
//! The scrubber's contract: damage is *contained, never destroyed* —
//! corrupt checkpoints are renamed `*.quarantine`, damaged WAL tails
//! are truncated at the last valid frame boundary — and a scrubbed
//! directory opens cleanly. The write contract: every acknowledged
//! batch is in the WAL before `apply_delta` returns, so a process that
//! dies without running any destructor loses none. The auditor's contract: silent
//! overlay corruption (the one fault the WAL cannot see) is caught by
//! comparing against a from-scratch re-evaluation, and repaired by
//! rebuilding.
//!
//! Every test takes `fault::test_lock()` — the durable I/O hook sites
//! consult the process-global fault registry on every write.

use std::path::Path;

use dynamite_datalog::durable::{DurableEvaluator, DurableOptions};
use dynamite_datalog::{evaluate, fault, EvalError, IncrementalEvaluator, Program};
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

fn seed_edb() -> Database {
    let mut edb = Database::new();
    for c in 0..8u64 {
        let base = c * 10;
        for i in 0..5 {
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

fn batches(n: usize, seed: u64) -> Vec<(Database, Database)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let mut ins = Database::new();
            let mut dels = Database::new();
            for _ in 0..4 {
                let a = rng.next() % 100;
                ins.insert("Edge", edge(a, rng.next() % 100));
                dels.insert("Edge", edge(rng.next() % 100, rng.next() % 100));
            }
            (ins, dels)
        })
        .collect()
}

/// No automatic compaction: checkpoints only when the test says so.
fn manual() -> DurableOptions {
    DurableOptions {
        compact_min_wal_bytes: u64::MAX,
        ..DurableOptions::default()
    }
}

fn create(dir: &Path, opts: DurableOptions) -> DurableEvaluator {
    DurableEvaluator::create_with_config(
        dir,
        program(),
        seed_edb(),
        opts,
        dynamite_datalog::pool::with_threads(Some(1)),
        dynamite_datalog::reorder_default(),
    )
    .unwrap()
}

fn open(dir: &Path, opts: DurableOptions) -> DurableEvaluator {
    DurableEvaluator::open_with_config(
        dir,
        opts,
        dynamite_datalog::pool::with_threads(Some(1)),
        dynamite_datalog::reorder_default(),
    )
    .unwrap()
}

fn flip_byte(path: &Path, offset_from_end: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let pos = f.metadata().unwrap().len() - offset_from_end;
    f.seek(SeekFrom::Start(pos)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(pos)).unwrap();
    f.write_all(&[b[0] ^ 0x40]).unwrap();
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn scrub_quarantines_exactly_the_bitflipped_old_checkpoint() {
    let _guard = fault::test_lock();
    fault::reset();
    let tmp = TempDir::new("bitflip-ckpt");
    let mut dur = create(tmp.path(), manual());
    for (ins, dels) in batches(3, 7) {
        dur.apply_delta(&ins, &dels).unwrap();
    }
    dur.checkpoint().unwrap(); // gen 1; gen 0 kept as fallback
    for (ins, dels) in batches(2, 99) {
        dur.apply_delta(&ins, &dels).unwrap();
    }
    let want_edb = ordered_rows(dur.edb());
    let want_out = ordered_rows(&dur.output());
    drop(dur);

    // Rot the *fallback* checkpoint — the newest one stays trusted.
    flip_byte(&tmp.path().join("ckpt-0"), 5);

    let report = DurableEvaluator::scrub(tmp.path()).unwrap();
    assert_eq!(report.checkpoints_quarantined, vec![0], "{report:?}");
    assert_eq!(report.checkpoints_ok, vec![1], "{report:?}");
    // Frames are counted structurally across *every* segment, the
    // fallback generation's included.
    assert_eq!(report.wal_frames_ok, 5, "{report:?}");
    assert!(report.wal_tails_truncated.is_empty(), "{report:?}");
    assert!(report.wal_quarantined.is_empty(), "{report:?}");

    // Quarantine renames; it never deletes.
    let names = file_names(tmp.path());
    assert!(
        names.contains(&"ckpt-0.quarantine".to_string()),
        "{names:?}"
    );
    assert!(!names.contains(&"ckpt-0".to_string()), "{names:?}");

    // Idempotent: nothing left to contain.
    assert!(DurableEvaluator::scrub(tmp.path()).unwrap().is_clean());

    let mut back = open(tmp.path(), manual());
    assert_eq!(ordered_rows(back.edb()), want_edb);
    assert_eq!(ordered_rows(&back.output()), want_out);
}

#[test]
fn scrub_quarantines_everything_when_no_checkpoint_survives() {
    let _guard = fault::test_lock();
    fault::reset();
    let tmp = TempDir::new("no-ckpt");
    let mut dur = create(tmp.path(), manual());
    for (ins, dels) in batches(2, 3) {
        dur.apply_delta(&ins, &dels).unwrap();
    }
    drop(dur);

    flip_byte(&tmp.path().join("ckpt-0"), 5);
    let report = DurableEvaluator::scrub(tmp.path()).unwrap();
    assert_eq!(report.checkpoints_quarantined, vec![0]);
    // With no trusted checkpoint the WAL cannot be stitched to anything:
    // contained whole, not deleted.
    assert_eq!(report.wal_quarantined, vec![0]);
    let names = file_names(tmp.path());
    assert!(
        names.contains(&"ckpt-0.quarantine".to_string()),
        "{names:?}"
    );
    assert!(names.contains(&"wal-0.quarantine".to_string()), "{names:?}");

    // The directory now recovers only via open_or_create (a fresh
    // bootstrap); plain open has nothing to open.
    let back = DurableEvaluator::open_or_create_with_config(
        tmp.path(),
        program(),
        seed_edb(),
        manual(),
        dynamite_datalog::pool::with_threads(Some(1)),
        dynamite_datalog::reorder_default(),
    )
    .unwrap();
    assert_eq!(back.next_seq(), 0);
}

#[test]
fn scrub_then_open_equals_open_then_truncate_for_torn_tails() {
    let _guard = fault::test_lock();
    fault::reset();
    // Torn tails from zero-length (clean cut at a frame boundary, plus a
    // stray zero byte) through sub-header slivers to a partial frame.
    for tail in [1usize, 3, 7, 12, 30] {
        let a = TempDir::new("tail-scrub");
        let b = TempDir::new("tail-open");
        for dir in [a.path(), b.path()] {
            let mut dur = create(dir, manual());
            for (ins, dels) in batches(3, 11) {
                dur.apply_delta(&ins, &dels).unwrap();
            }
            drop(dur);
            // Garbage tail: looks like a frame start, never completes.
            let mut junk = vec![0xABu8; tail];
            junk[0] = 0xFF;
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal-0"))
                .unwrap();
            f.write_all(&junk).unwrap();
        }

        // Path A: scrub first (pre-truncates), then open.
        let report = DurableEvaluator::scrub(a.path()).unwrap();
        assert_eq!(
            report.wal_tails_truncated,
            vec![(0, tail as u64)],
            "tail {tail}"
        );
        assert_eq!(report.wal_frames_ok, 3, "tail {tail}");
        let mut via_scrub = open(a.path(), manual());
        assert_eq!(
            via_scrub.recovery_report().unwrap().torn_tail_bytes,
            0,
            "tail {tail}: scrub left nothing for recovery to cut"
        );

        // Path B: open directly (recovery truncates in-line).
        let mut via_open = open(b.path(), manual());
        assert_eq!(
            via_open.recovery_report().unwrap().torn_tail_bytes,
            tail as u64,
            "tail {tail}"
        );

        assert_eq!(via_scrub.next_seq(), via_open.next_seq(), "tail {tail}");
        assert_eq!(
            ordered_rows(&via_scrub.output()),
            ordered_rows(&via_open.output()),
            "tail {tail}"
        );
        assert_eq!(
            std::fs::read(a.path().join("wal-0")).unwrap(),
            std::fs::read(b.path().join("wal-0")).unwrap(),
            "tail {tail}: both paths cut at the same frame boundary"
        );
    }
}

#[test]
fn scrub_quarantines_a_segment_with_a_torn_header() {
    let _guard = fault::test_lock();
    fault::reset();
    let tmp = TempDir::new("torn-header");
    let mut dur = create(tmp.path(), manual());
    for (ins, dels) in batches(2, 5) {
        dur.apply_delta(&ins, &dels).unwrap();
    }
    dur.checkpoint().unwrap(); // gen 1, fresh empty wal-1
    let want = ordered_rows(&dur.output());
    drop(dur);

    // A rotation crash can leave a segment shorter than its 16-byte
    // header; nothing in it can be trusted.
    let wal1 = tmp.path().join("wal-1");
    let f = std::fs::OpenOptions::new().write(true).open(&wal1).unwrap();
    f.set_len(8).unwrap();
    drop(f);

    let report = DurableEvaluator::scrub(tmp.path()).unwrap();
    assert_eq!(report.wal_quarantined, vec![1], "{report:?}");
    assert!(file_names(tmp.path()).contains(&"wal-1.quarantine".to_string()));

    // The checkpoint already covers every acked batch: recovery is whole.
    let mut back = open(tmp.path(), manual());
    assert_eq!(ordered_rows(&back.output()), want);
}

#[test]
fn empty_batches_and_checkpoint_on_segment_boundary_stitch() {
    let _guard = fault::test_lock();
    fault::reset();
    let tmp = TempDir::new("boundary");
    let mut dur = create(tmp.path(), manual());
    let empty = Database::new();
    // Empty delta batches still take sequence numbers and WAL frames.
    dur.apply_delta(&empty, &empty).unwrap();
    dur.apply_delta(&empty, &empty).unwrap();
    // Checkpoint with a non-empty WAL, then again immediately: the
    // second checkpoint sits exactly on a segment boundary (its WAL
    // segment holds zero frames).
    dur.checkpoint().unwrap();
    dur.checkpoint().unwrap();
    let (ins, dels) = &batches(1, 17)[0];
    dur.apply_delta(ins, dels).unwrap();
    assert_eq!(dur.next_seq(), 3);
    let want = ordered_rows(&dur.output());
    drop(dur);

    let report = DurableEvaluator::scrub(tmp.path()).unwrap();
    assert!(report.is_clean(), "{report:?}");

    let mut back = open(tmp.path(), manual());
    assert_eq!(back.next_seq(), 3);
    let rec = back.recovery_report().unwrap();
    assert_eq!(rec.frames_replayed, 1);
    assert_eq!(ordered_rows(&back.output()), want);
}

#[test]
fn abandoned_process_keeps_every_acknowledged_batch() {
    let _guard = fault::test_lock();
    fault::reset();
    let tmp = TempDir::new("forget");
    let reference = TempDir::new("forget-ref");
    let mut dur = create(tmp.path(), DurableOptions::default());
    let stream = batches(5, 41);
    for (ins, dels) in &stream {
        dur.apply_delta(ins, dels).unwrap();
    }
    // Die without Drop: nothing buffered in this process may be needed
    // for the acknowledged batches to survive.
    std::mem::forget(dur);

    let mut back = open(tmp.path(), DurableOptions::default());
    assert_eq!(back.next_seq(), 5, "every acknowledged batch survives");

    // Bit-identical to an uninterrupted run of the same 5 batches.
    let mut want = create(reference.path(), DurableOptions::default());
    for (ins, dels) in &stream {
        want.apply_delta(ins, dels).unwrap();
    }
    assert_eq!(ordered_rows(back.edb()), ordered_rows(want.edb()));
    assert_eq!(ordered_rows(&back.output()), ordered_rows(&want.output()));
}

#[test]
fn audit_catches_injected_drift_and_repair_rebuilds() {
    let _guard = fault::test_lock();
    fault::reset();
    let mut inc = IncrementalEvaluator::new(program(), seed_edb()).unwrap();
    let stream = batches(2, 53);
    inc.apply_delta(&stream[0].0, &stream[0].1).unwrap();
    inc.audit().expect("clean overlay audits clean");
    assert_eq!(inc.repair().unwrap(), None, "no drift: repair is a no-op");

    // Silent corruption the WAL/checkpoint machinery cannot see.
    fault::arm(fault::DRIFT, 1);
    inc.apply_delta(&stream[1].0, &stream[1].1).unwrap();
    let err = inc.audit().unwrap_err();
    let EvalError::Drift(drift) = &err else {
        panic!("expected drift, got {err}");
    };
    assert_eq!(drift.relations.len(), 1);
    assert_eq!(drift.relations[0].missing, 1);
    assert_eq!(drift.relations[0].extra, 0);
    assert!(
        !err.is_resource_limit(),
        "drift is corruption, not a governable trip — it must never be retried"
    );

    let repaired = inc.repair().unwrap().expect("repair reports the drift");
    assert_eq!(repaired, *drift);
    inc.audit().expect("repaired overlay audits clean");
    let scratch = evaluate(&program(), inc.edb()).unwrap();
    assert_eq!(ordered_rows(&inc.output()), ordered_rows(&scratch));
}

#[test]
fn durable_repair_writes_a_fresh_checkpoint() {
    let _guard = fault::test_lock();
    fault::reset();
    let tmp = TempDir::new("drift-durable");
    let mut dur = create(tmp.path(), manual());
    let stream = batches(2, 61);
    dur.apply_delta(&stream[0].0, &stream[0].1).unwrap();

    fault::arm(fault::DRIFT, 1);
    dur.apply_delta(&stream[1].0, &stream[1].1).unwrap();
    assert!(matches!(
        dur.audit(),
        Err(dynamite_datalog::DurableError::Eval(EvalError::Drift(_)))
    ));

    let gen_before = dur.generation();
    let drift = dur.repair().unwrap();
    assert!(drift.is_some());
    assert!(
        dur.generation() > gen_before,
        "repair must checkpoint so the corruption can never be re-derived from disk"
    );
    dur.audit().unwrap();
    let want = ordered_rows(&dur.output());
    drop(dur);

    // The repaired state — not the drifted one — is what recovers.
    let mut back = open(tmp.path(), manual());
    back.audit().unwrap();
    assert_eq!(ordered_rows(&back.output()), want);
}
