//! Real process-death crash harness (the out-of-process bar).
//!
//! The in-process durability tests (`dynamite-datalog/tests/durable.rs`)
//! simulate I/O failures as errors. This harness kills a real child
//! process — `abort(2)`, no unwinding, no destructors — at every durable
//! fault point and at arbitrary byte offsets mid-WAL-append, then
//! recovers the corpse's directory in *this* process and pins the result
//! bit-identically (contents **and** row order) against an uninterrupted
//! reference run of the same deterministic stream.
//!
//! Parent and child are different processes with different (and
//! deliberately skewed) string-interner states, so these tests are also
//! the cross-process determinism pin: join plans must be a function of
//! value content, never of interner ids.
//!
//! On any divergence the child's state directory is preserved under
//! `CARGO_TARGET_TMPDIR/crash-harness/<cell>/` for post-mortem (CI
//! uploads it as an artifact).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use dynamite_bench::crash_stream::{self, SEED, STREAM_LEN};
use dynamite_datalog::durable::DurableEvaluator;
use dynamite_datalog::{fault, pool, reorder_default};
use dynamite_instance::Value;

/// A scratch directory removed on drop (pass/fail alike — failures
/// preserve a *copy* first).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dynamite-crash-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bit-identity projection of one moment of maintained state: EDB and
/// derived output, relation contents in row order.
type Snap = (
    Vec<(String, Vec<Vec<Value>>)>,
    Vec<(String, Vec<Vec<Value>>)>,
);

fn snap(dur: &mut DurableEvaluator) -> Snap {
    let out = dur.output();
    (
        crash_stream::ordered_rows(dur.edb()),
        crash_stream::ordered_rows(&out),
    )
}

/// The uninterrupted reference timeline: `snaps[k]` is the state after
/// `k` applied batches. Runs on a real `DurableEvaluator` (not a plain
/// incremental one) so it shares the child's deterministic
/// replan-at-checkpoint schedule.
fn reference(profile: &str, threads: usize) -> Vec<Snap> {
    let tmp = TempDir::new(&format!("ref-{profile}-{threads}"));
    let mut dur = DurableEvaluator::create_with_config(
        tmp.path(),
        crash_stream::program(),
        crash_stream::seed_edb(),
        crash_stream::options(profile),
        pool::with_threads(Some(threads)),
        reorder_default(),
    )
    .expect("reference create");
    let mut snaps = vec![snap(&mut dur)];
    for (ins, dels) in crash_stream::batches(STREAM_LEN, SEED) {
        dur.apply_delta(&ins, &dels).expect("reference apply");
        snaps.push(snap(&mut dur));
    }
    snaps
}

/// Spawns the child binary on `dir` with a scrubbed `DYNAMITE_*`
/// environment plus the cell's own settings — the surrounding test
/// suite may itself run under fault-leg environment variables, and the
/// child must see only what the cell arms.
fn run_child(
    dir: &Path,
    profile: &str,
    threads: usize,
    envs: &[(&str, String)],
    extra: &[&str],
) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crash_child"));
    cmd.arg(dir)
        .arg(profile)
        .arg(threads.to_string())
        .arg(STREAM_LEN.to_string())
        .args(extra);
    for k in [
        "DYNAMITE_FAULT",
        "DYNAMITE_FAULT_MODE",
        "DYNAMITE_CRASH_OFFSET",
        "DYNAMITE_NO_REORDER",
    ] {
        cmd.env_remove(k);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn crash_child")
}

/// Recovers a (possibly mauled) child directory in this process,
/// scrubbing first when the directory exists — exactly what a
/// supervisor restarting the real service would do.
fn recover(dir: &Path, profile: &str, threads: usize, cell: &str) -> DurableEvaluator {
    let opened = (|| {
        if dir.is_dir() {
            DurableEvaluator::scrub(dir)?;
        }
        DurableEvaluator::open_or_create_with_config(
            dir,
            crash_stream::program(),
            crash_stream::seed_edb(),
            crash_stream::options(profile),
            pool::with_threads(Some(threads)),
            reorder_default(),
        )
    })();
    match opened {
        Ok(dur) => dur,
        Err(e) => {
            let kept = preserve(dir, cell);
            panic!("cell {cell}: recovery failed: {e} (state preserved at {kept:?})");
        }
    }
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_tree(&from, &to)?;
        } else {
            std::fs::copy(&from, &to)?;
        }
    }
    Ok(())
}

/// Copies a failing cell's directory somewhere `cargo clean`-stable so
/// CI can upload it; returns the destination.
fn preserve(dir: &Path, cell: &str) -> PathBuf {
    let safe: String = cell
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dest = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("crash-harness")
        .join(safe);
    let _ = std::fs::remove_dir_all(&dest);
    let _ = copy_tree(dir, &dest);
    dest
}

/// One matrix cell: kill the child at the armed point, recover here,
/// pin the recovered state against the reference timeline at whatever
/// sequence number survived, then drive the stream to completion and
/// pin the final state too.
fn run_cell(profile: &str, spec: &str, offset: Option<usize>, threads: usize, snaps: &[Snap]) {
    let cell = match offset {
        Some(o) => format!("{profile}-{spec}-off{o}-t{threads}"),
        None => format!("{profile}-{spec}-t{threads}"),
    };
    let tmp = TempDir::new("cell");
    let mut envs = vec![
        ("DYNAMITE_FAULT", spec.to_string()),
        ("DYNAMITE_FAULT_MODE", "abort".to_string()),
    ];
    if let Some(o) = offset {
        envs.push(("DYNAMITE_CRASH_OFFSET", o.to_string()));
    }
    let out = run_child(tmp.path(), profile, threads, &envs, &[]);
    if out.status.success() {
        let kept = preserve(tmp.path(), &cell);
        panic!("cell {cell}: armed fault never fired — child ran to completion ({kept:?})");
    }

    let mut dur = recover(tmp.path(), profile, threads, &cell);
    let k = dur.next_seq() as usize;
    if k > STREAM_LEN {
        let kept = preserve(tmp.path(), &cell);
        panic!("cell {cell}: recovered past the stream (seq {k}) ({kept:?})");
    }
    if snap(&mut dur) != snaps[k] {
        let kept = preserve(tmp.path(), &cell);
        panic!(
            "cell {cell}: recovered state at seq {k} is not bit-identical to the \
             uninterrupted reference ({kept:?})"
        );
    }
    for (ins, dels) in crash_stream::batches(STREAM_LEN, SEED).into_iter().skip(k) {
        dur.apply_delta(&ins, &dels)
            .expect("post-recovery apply must succeed");
    }
    if snap(&mut dur) != snaps[STREAM_LEN] {
        let kept = preserve(tmp.path(), &cell);
        panic!(
            "cell {cell}: driving the recovered evaluator to completion diverged \
             from the reference ({kept:?})"
        );
    }
}

/// The kill matrix: every durable fault point (clean crash points, plus
/// the I/O-damage points upgraded to real death via abort mode), at
/// first and mid-stream firings, at thread counts 1 and 4.
#[test]
fn kill_matrix_recovers_bit_identically() {
    fault::reset();
    // (profile, DYNAMITE_FAULT spec, DYNAMITE_CRASH_OFFSET)
    let cells: &[(&str, &str, Option<usize>)] = &[
        // Death at clean points around the WAL append.
        ("walheavy", "crash-after-wal-append", None),
        ("walheavy", "crash-after-wal-append@5", None),
        // Death mid-append: a torn tail of 1 / 7 / 23 bytes.
        ("walheavy", "crash-wal-partial@3", Some(1)),
        ("walheavy", "crash-wal-partial@3", Some(7)),
        ("walheavy", "crash-wal-partial@3", Some(23)),
        // I/O damage then death (abort mode): torn frame, flipped bit.
        ("walheavy", "wal-torn-write", None),
        ("walheavy", "wal-torn-write@4", None),
        ("walheavy", "wal-bit-flip@2", None),
        // Checkpoint writes: partial file, death around temp/rename.
        // Skip 0 fires during `create` itself (death mid-bootstrap).
        ("aggressive", "checkpoint-partial", None),
        ("aggressive", "checkpoint-partial@3", None),
        ("aggressive", "crash-after-ckpt-temp", None),
        ("aggressive", "crash-after-ckpt-temp@2", None),
        ("aggressive", "crash-after-ckpt-rename", None),
        ("aggressive", "crash-after-ckpt-rename@2", None),
        // Death around WAL rotation (checkpoint-then-rotate window).
        ("aggressive", "crash-before-wal-rotate", None),
        ("aggressive", "crash-before-wal-rotate@2", None),
        ("aggressive", "crash-after-wal-rotate", None),
        ("aggressive", "crash-after-wal-rotate@2", None),
    ];
    for threads in [1usize, 4] {
        let walheavy = reference("walheavy", threads);
        let aggressive = reference("aggressive", threads);
        for &(profile, spec, offset) in cells {
            let snaps = if profile == "walheavy" {
                &walheavy
            } else {
                &aggressive
            };
            run_cell(profile, spec, offset, threads, snaps);
        }
    }
}

/// A killed child, re-run with faults cleared, finishes the stream from
/// wherever recovery put it — the supervisor-restart path, exercised
/// across a real process boundary rather than in-parent.
#[test]
fn killed_child_rerun_completes_the_stream() {
    fault::reset();
    let cases: &[(&str, &str)] = &[
        ("walheavy", "crash-after-wal-append@5"),
        ("aggressive", "crash-after-ckpt-rename@2"),
    ];
    for threads in [1usize, 4] {
        for &(profile, spec) in cases {
            let cell = format!("rerun-{profile}-{spec}-t{threads}");
            let snaps = reference(profile, threads);
            let tmp = TempDir::new("rerun");
            let envs = vec![
                ("DYNAMITE_FAULT", spec.to_string()),
                ("DYNAMITE_FAULT_MODE", "abort".to_string()),
            ];
            let out = run_child(tmp.path(), profile, threads, &envs, &[]);
            assert!(!out.status.success(), "cell {cell}: fault never fired");

            let out = run_child(tmp.path(), profile, threads, &[], &[]);
            if !out.status.success() {
                let kept = preserve(tmp.path(), &cell);
                panic!(
                    "cell {cell}: clean re-run failed ({kept:?}): {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            let mut dur = recover(tmp.path(), profile, threads, &cell);
            if dur.next_seq() as usize != STREAM_LEN || snap(&mut dur) != snaps[STREAM_LEN] {
                let kept = preserve(tmp.path(), &cell);
                panic!("cell {cell}: re-run final state diverges from reference ({kept:?})");
            }
        }
    }
}

/// Every acknowledged batch survives process death: a child that
/// applied `K` batches and then died recovers exactly `K`, bit-identical
/// to the uninterrupted run, and completes the stream from there.
#[test]
fn abort_after_k_batches_recovers_exactly_k() {
    fault::reset();
    let threads = 1usize;
    let snaps = reference("walheavy", threads);
    for abort_after in [3usize, 6] {
        let cell = format!("abort-after-{abort_after}");
        let tmp = TempDir::new("abort-after");
        let out = run_child(
            tmp.path(),
            "walheavy",
            threads,
            &[],
            &["--abort-after", &abort_after.to_string()],
        );
        assert!(!out.status.success(), "cell {cell}: child should abort");

        let mut dur = recover(tmp.path(), "walheavy", threads, &cell);
        let k = dur.next_seq() as usize;
        if k != abort_after {
            let kept = preserve(tmp.path(), &cell);
            panic!(
                "cell {cell}: expected every one of the {abort_after} acknowledged \
                 batches to survive, recovered {k} ({kept:?})"
            );
        }
        if snap(&mut dur) != snaps[k] {
            let kept = preserve(tmp.path(), &cell);
            panic!("cell {cell}: recovered state is not bit-identical ({kept:?})");
        }
        for (ins, dels) in crash_stream::batches(STREAM_LEN, SEED).into_iter().skip(k) {
            dur.apply_delta(&ins, &dels).expect("post-recovery apply");
        }
        assert_eq!(snap(&mut dur), snaps[STREAM_LEN], "cell {cell}: completion");
    }
}

/// Cross-process determinism, no escape hatches: parent and child skew
/// their interners differently, the planner stays on, and a state
/// directory written wholly by the child recovers bit-identically in
/// the parent.
#[test]
fn cross_process_recovery_is_bit_identical_under_interner_skew() {
    fault::reset();
    crash_stream::skew_intern("parent");
    for threads in [1usize, 4] {
        let cell = format!("determinism-t{threads}");
        let snaps = reference("walheavy", threads);
        let tmp = TempDir::new("det");
        let out = run_child(
            tmp.path(),
            "walheavy",
            threads,
            &[],
            &["--skew", "child-divergent"],
        );
        assert!(
            out.status.success(),
            "cell {cell}: clean child run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut dur = recover(tmp.path(), "walheavy", threads, &cell);
        if dur.next_seq() as usize != STREAM_LEN || snap(&mut dur) != snaps[STREAM_LEN] {
            let kept = preserve(tmp.path(), &cell);
            panic!(
                "cell {cell}: child-written state does not recover bit-identically \
                 in a differently-interned parent ({kept:?})"
            );
        }
    }
}
