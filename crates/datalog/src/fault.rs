//! Deterministic fault injection for the governed evaluation paths.
//!
//! Faults are armed either from the `DYNAMITE_FAULT` environment variable
//! (`DYNAMITE_FAULT=point[=count][@skip],point2...`, count defaulting to
//! 1, skip to 0) or programmatically via [`arm`] / [`arm_at`] from tests.
//! Each armed point carries a *skip* counter (hits to let pass unharmed
//! before the first firing) and a bounded *fire* counter: [`fire`]
//! consumes one firing and returns `true` until the counter drains, after
//! which the point is inert again — injection can therefore force a
//! failure at the N-th hit of a point and let recovery logic (candidate
//! retry in the synthesizer, pool panic propagation, durable re-open) be
//! observed on the very next attempt.
//!
//! The *evaluation* hook points only fire on **governed** evaluations (a
//! [`Governor`] present); plain `evaluate()` calls never consult this
//! module's counters, so production data paths cannot trip an armed
//! fault left over in the environment. The *durable I/O* points are the
//! exception: they model disk failures, which do not care whether a
//! governor is watching, so the durability layer (`durable`) consults
//! them on every write. An armed I/O fault surfaces as an `Err` from the
//! durable API (never silent corruption of applied state), which is what
//! lets the whole test suite run under `DYNAMITE_FAULT=wal-torn-write`.
//!
//! **Abort mode** (`DYNAMITE_FAULT_MODE=abort`) upgrades the durable I/O
//! faults from simulated errors to real process death: after the point
//! does its on-disk damage, the process calls [`std::process::abort`]
//! instead of returning an error, leaving the directory exactly as a
//! power cut would. The `crash-*` points below go further: they fire at
//! *clean* code locations (no corruption first) and **always** abort,
//! modelling death between two I/O operations. Both are only meaningful
//! from a sacrificial child process — the crash harness
//! (`crates/bench/tests/crash_harness.rs`) spawns `crash_child`, arms a
//! point via the environment, and inspects the corpse's directory.
//!
//! [`Governor`]: crate::Governor
//!
//! Known points (the engine's and durability layer's hook sites):
//!
//! | point                    | effect                                          |
//! |--------------------------|-------------------------------------------------|
//! | `mid-round-cancel`       | cancels the governor between prep and join      |
//! | `worker-panic`           | panics at the start of one join job             |
//! | `budget`                 | forces a fact-budget trip at the next absorb    |
//! | `drift`                  | silently corrupts the maintained overlay after  |
//! |                          | one successful delta apply (auditor quarry)     |
//! | `wal-torn-write`         | truncates a WAL frame mid-write (no fsync)      |
//! | `wal-bit-flip`           | flips one payload bit in a written WAL frame    |
//! | `checkpoint-partial`     | truncates a checkpoint file mid-write           |
//! | `wal-truncate`           | fails the truncate that cuts a rejected WAL     |
//! |                          | frame back out (test hook; no CI leg arms it)   |
//! | `crash-after-wal-append` | aborts after a WAL frame is durable, before the |
//! |                          | in-memory apply                                 |
//! | `crash-wal-partial`      | writes a prefix of a WAL frame (length from     |
//! |                          | `DYNAMITE_CRASH_OFFSET`), then aborts           |
//! | `crash-after-ckpt-temp`  | aborts after the checkpoint temp file is synced,|
//! |                          | before the rename                               |
//! | `crash-after-ckpt-rename`| aborts after the rename is durable, before the  |
//! |                          | read-back verify / generation advance           |
//! | `crash-before-wal-rotate`| aborts after a checkpoint lands, before the new |
//! |                          | WAL segment starts                              |
//! | `crash-after-wal-rotate` | aborts after the new WAL segment starts, before |
//! |                          | old generations are purged                      |

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Cancels the governor between a round's prep and join phases.
pub const MID_ROUND_CANCEL: &str = "mid-round-cancel";
/// Panics at the start of one join job (exercises pool panic recovery).
pub const WORKER_PANIC: &str = "worker-panic";
/// Forces a fact-budget trip at the next absorb.
pub const BUDGET: &str = "budget";
/// Silently corrupts the maintained overlay after a successful apply —
/// the one fault the WAL/checkpoint machinery *cannot* see, planted for
/// the drift auditor (`IncrementalEvaluator::audit`) to catch.
pub const DRIFT: &str = "drift";
/// Truncates a WAL frame mid-write and skips its fsync (torn tail).
pub const WAL_TORN_WRITE: &str = "wal-torn-write";
/// Flips one payload bit in a written WAL frame (checksum mismatch).
pub const WAL_BIT_FLIP: &str = "wal-bit-flip";
/// Truncates a checkpoint file mid-write (partial checkpoint).
pub const CHECKPOINT_PARTIAL: &str = "checkpoint-partial";
/// Fails the truncate that cuts an appended WAL frame back out (after a
/// failed apply or a failed append attempt); the frame stays on disk and
/// the durable evaluator retires.
pub const WAL_TRUNCATE: &str = "wal-truncate";
/// Aborts after a WAL frame is durably appended, before the in-memory
/// apply — recovery must replay the frame.
pub const CRASH_AFTER_WAL_APPEND: &str = "crash-after-wal-append";
/// Writes only a prefix of a WAL frame (no fsync), then aborts — the
/// torn-tail length comes from `DYNAMITE_CRASH_OFFSET` (clamped to the
/// frame) so the harness can sweep arbitrary byte offsets.
pub const CRASH_WAL_PARTIAL: &str = "crash-wal-partial";
/// Aborts after the checkpoint temp file is written and fsynced, before
/// the rename — recovery must ignore the orphan temp file.
pub const CRASH_AFTER_CKPT_TEMP: &str = "crash-after-ckpt-temp";
/// Aborts after the checkpoint rename is durable, before the read-back
/// verify and in-memory generation advance — recovery may use either the
/// new checkpoint or the old one plus WAL.
pub const CRASH_AFTER_CKPT_RENAME: &str = "crash-after-ckpt-rename";
/// Aborts between a durable checkpoint and the start of its WAL segment.
pub const CRASH_BEFORE_WAL_ROTATE: &str = "crash-before-wal-rotate";
/// Aborts after the new WAL segment starts, before old generations are
/// purged — recovery must pick the newest usable generation.
pub const CRASH_AFTER_WAL_ROTATE: &str = "crash-after-wal-rotate";

/// Fast path: `false` until anything has ever been armed, so an inert
/// process pays one relaxed load per hook site.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Abort mode: durable I/O faults call [`std::process::abort`] after
/// their on-disk damage instead of returning an error.
static ABORT_MODE: AtomicBool = AtomicBool::new(false);

/// Per-point state: `(skip, count)` — let `skip` hits pass, then fire
/// `count` times.
fn registry() -> &'static Mutex<HashMap<String, (u64, u64)>> {
    static REG: OnceLock<Mutex<HashMap<String, (u64, u64)>>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("DYNAMITE_FAULT") {
            for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (spec, skip) = match part.split_once('@') {
                    Some((s, k)) => (s.trim(), k.trim().parse::<u64>().unwrap_or(0)),
                    None => (part, 0),
                };
                let (point, count) = match spec.split_once('=') {
                    Some((p, c)) => (p.trim(), c.trim().parse::<u64>().unwrap_or(1)),
                    None => (spec, 1),
                };
                if !point.is_empty() && count > 0 {
                    map.insert(point.to_string(), (skip, count));
                }
            }
        }
        if std::env::var("DYNAMITE_FAULT_MODE").as_deref() == Ok("abort") {
            ABORT_MODE.store(true, Ordering::Release);
        }
        if !map.is_empty() {
            ARMED.store(true, Ordering::Release);
        }
        Mutex::new(map)
    })
}

/// Consumes one firing of `point`, returning `true` when the point was
/// armed with a remaining count (after its skip allowance drained).
pub fn fire(point: &str) -> bool {
    // Force the env parse before consulting the fast path, so the first
    // hook hit in a process sees env-armed faults.
    let reg = registry();
    if !ARMED.load(Ordering::Acquire) {
        return false;
    }
    let mut reg = reg.lock().unwrap_or_else(|e| e.into_inner());
    match reg.get_mut(point) {
        Some((skip, _)) if *skip > 0 => {
            *skip -= 1;
            false
        }
        Some((_, n)) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    }
}

/// `true` when the process runs durable I/O faults in abort mode
/// (`DYNAMITE_FAULT_MODE=abort`): the armed point does its damage and
/// then dies rather than reporting an error.
pub fn abort_mode() -> bool {
    let _ = registry(); // force the env parse
    ABORT_MODE.load(Ordering::Acquire)
}

/// In abort mode, terminates the process on the spot (the damage the
/// caller just inflicted stays exactly as written — no unwinding, no
/// destructors, no flushes). No-op otherwise.
pub fn maybe_abort() {
    if abort_mode() {
        std::process::abort();
    }
}

/// A pure process-death point: if armed, aborts immediately — there is no
/// error-return variant, because the point models dying *between* two
/// I/O operations, not an I/O operation failing.
pub fn crash_point(point: &str) {
    if fire(point) {
        std::process::abort();
    }
}

/// Byte offset for [`CRASH_WAL_PARTIAL`], from `DYNAMITE_CRASH_OFFSET`
/// (defaults to 0: nothing of the frame reaches the file).
pub fn crash_offset() -> usize {
    std::env::var("DYNAMITE_CRASH_OFFSET")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Arms `point` to fire `count` times (replacing any previous counter;
/// `count == 0` disarms the point). Test hook.
#[doc(hidden)]
pub fn arm(point: &str, count: u64) {
    arm_at(point, 0, count);
}

/// Arms `point` to let `skip` hits pass and then fire `count` times.
/// Test hook.
#[doc(hidden)]
pub fn arm_at(point: &str, skip: u64, count: u64) {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if count == 0 {
        reg.remove(point);
    } else {
        reg.insert(point.to_string(), (skip, count));
        ARMED.store(true, Ordering::Release);
    }
}

/// Disarms every point (including env-armed ones). Test hook.
#[doc(hidden)]
pub fn reset() {
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Serializes tests that arm process-global fault points (and tests whose
/// governed evaluations must *not* observe someone else's armed faults).
/// The guard recovers from poisoning so one failed test does not cascade.
#[doc(hidden)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_points_fire_a_bounded_number_of_times() {
        let _g = test_lock();
        reset();
        arm("test-point", 2);
        assert!(fire("test-point"));
        assert!(fire("test-point"));
        assert!(!fire("test-point"));
        assert!(!fire("never-armed"));
        reset();
    }

    #[test]
    fn disarm_via_zero_count() {
        let _g = test_lock();
        reset();
        arm("test-point-2", 5);
        arm("test-point-2", 0);
        assert!(!fire("test-point-2"));
        reset();
    }

    #[test]
    fn skip_allowance_delays_the_first_firing() {
        let _g = test_lock();
        reset();
        arm_at("test-point-3", 2, 1);
        assert!(!fire("test-point-3"), "skip 1");
        assert!(!fire("test-point-3"), "skip 2");
        assert!(fire("test-point-3"), "fires on the third hit");
        assert!(!fire("test-point-3"), "drained");
        reset();
    }
}
