//! Durable incremental maintenance: checkpoint + write-ahead log.
//!
//! [`DurableEvaluator`] persists an [`IncrementalEvaluator`]'s state so a
//! maintained migration survives process death with **bounded replay**:
//! recovery loads the newest valid checkpoint and replays only the WAL
//! suffix, instead of re-materializing the output from scratch.
//!
//! # On-disk layout
//!
//! A durable evaluator owns a directory holding two kinds of files,
//! linked by a monotonically increasing **generation** number:
//!
//! - **Checkpoints** (`ckpt-<gen>`): a full snapshot.
//!
//!   ```text
//!   "DYNCKPT1"  magic (8 bytes)
//!   payload_len u64
//!   payload     { gen u64, program_text str, next_seq u64,
//!                 edb Database, overlay Database }
//!   crc32       u32 over the payload
//!   ```
//!
//!   Everything is serialized **by string** through
//!   [`dynamite_instance::binio`] — the process-global `Symbol` interner
//!   means raw ids must never hit disk. The overlay is the complete
//!   derived output (including empty intensional relations), so recovery
//!   reinstates it without re-evaluating the program.
//!
//! - **WAL segments** (`wal-<gen>`): the delta batches applied since
//!   checkpoint `gen` was taken, append-only.
//!
//!   ```text
//!   "DYNWAL01"  magic (8 bytes)
//!   gen         u64
//!   frames*     [ payload_len u32 ][ crc32 u32 ]
//!               [ payload { seq u64, inserts Database, deletes Database } ]
//!   ```
//!
//!   Frame sequence numbers are global and contiguous across segment
//!   rotation, which is what lets recovery stitch a fallback checkpoint
//!   to a newer segment chain (below).
//!
//! # Write path
//!
//! [`apply_delta`](DurableEvaluator::apply_delta) is **write-ahead**:
//! every acknowledged batch is in the WAL, fsync'd (configurable via
//! [`DurableOptions::fsync`]), before the in-memory apply. A batch the
//! maintainer rejects up front (an arity mismatch, a derived relation),
//! or that arrives under an already tripped or cancelled governor, is
//! refused before its frame is encoded, so it costs no write and no
//! fsync. If the apply then fails (a governed resource trip), the WAL is
//! truncated back to the pre-append offset, so the log always equals
//! exactly the applied batches. A failed *append* self-heals once —
//! truncate back, retry — which keeps a single injected I/O fault
//! (`DYNAMITE_FAULT=wal-torn-write`) survivable by the whole test suite;
//! a second consecutive failure leaves the damaged tail on disk and
//! marks the evaluator [dead](DurableError::Dead), the in-process
//! stand-in for a crash. A failed truncate retires the evaluator too:
//! the frame it could not cut stays on disk, and a later frame must not
//! reuse its sequence number, so only a re-[`open`](DurableEvaluator::open)
//! (which replays the frame) may continue.
//!
//! Checkpoints are written to a temp file, fsync'd, renamed into place,
//! and the directory fsync'd — then **read back and verified** before
//! the generation advances. A checkpoint that fails verification (e.g.
//! the `checkpoint-partial` fault) is retried once; if that also fails
//! the damaged file is left behind, the generation does *not* advance,
//! and appends continue to the current WAL — recovery will skip the
//! damaged file and fall back (below), losing nothing.
//!
//! Compaction (checkpoint + WAL rotation) triggers automatically when
//! the WAL outgrows [`DurableOptions::compact_wal_ratio`] × the
//! checkpoint size. The previous generation's files are retained (one
//! fallback level); older ones are deleted.
//!
//! # Recovery
//!
//! [`open`](DurableEvaluator::open) scans for the newest checkpoint that
//! passes magic/CRC/decode/reparse validation, falling back generation
//! by generation ([`RecoveryReport::checkpoints_skipped`] counts the
//! damaged ones). It then replays every WAL segment with generation ≥
//! the chosen checkpoint's, ascending, skipping frames the checkpoint
//! already covers (`seq < next_seq`) and requiring the rest to be
//! contiguous. A torn or corrupt frame — partial write, bad CRC, short
//! payload — is treated as the crash tail: the segment is **truncated**
//! at the last valid frame boundary and replay stops. Recovery fails
//! only when *no* checkpoint in the directory is valid
//! ([`DurableError::NoUsableCheckpoint`]).
//!
//! # Scrubbing
//!
//! [`DurableEvaluator::scrub`] walks a **closed** state directory and
//! validates every checkpoint and every WAL frame — magic, CRC,
//! fail-closed payload decode, frame-chain contiguity — without applying
//! anything. Damage is *contained*, never destroyed: a corrupt
//! checkpoint is renamed to `ckpt-<gen>.quarantine` (recovery ignores
//! it; a human or a debugger can still inspect it), a damaged WAL tail
//! is pre-truncated at the last valid frame boundary, and a WAL segment
//! that cannot be stitched to the surviving checkpoint chain is
//! quarantined whole. Scrubbing is one explicit call: a supervisor that
//! wants it runs `scrub(dir)` and then `open` (or `open_or_create`,
//! which re-creates a directory whose only checkpoint was quarantined),
//! and after a scrub `open` performs no corruption handling of its own.
//! Scrubbing an in-use directory is not supported (the scrubber takes
//! the directory by path, the evaluator owns its files).
//!
//! # Determinism
//!
//! Recovery is **bit-identical** to the uninterrupted run — same
//! derived facts *in the same row order* — the determinism bar the rest
//! of the engine sets, and it holds **across processes**: the crash
//! harness kills a child at arbitrary points and re-opens its directory
//! in the parent, asserting byte-equal output. Three mechanisms make
//! this hold under the cost-based planner: the maintainer re-plans from
//! current statistics at every checkpoint (so the live plans equal the
//! plans recovery computes from that checkpoint); per-column statistics
//! are a pure function of the current distinct-value set (the codec
//! round-trips values exactly, so the recovered EDB's statistics match);
//! and the statistics key `Str` values by a content-derived stable hash
//! ([`Value::to_stable_bits`](dynamite_instance::Value::to_stable_bits)),
//! never by process-local interner indices — so a recovering process
//! that interned other strings first still derives the same estimates,
//! the same join orders, and the same row order.
//!
//! # Fault points
//!
//! The durable write path hosts two families of injected faults (see
//! [`fault`]): *I/O faults* (`wal-torn-write`, `wal-bit-flip`,
//! `checkpoint-partial`) damage bytes and surface as errors — or, in
//! abort mode (`DYNAMITE_FAULT_MODE=abort`), kill the process right
//! after the damage lands; and *crash points* (`crash-after-wal-append`,
//! `crash-wal-partial`, `crash-after-ckpt-temp`,
//! `crash-after-ckpt-rename`, `crash-before-wal-rotate`,
//! `crash-after-wal-rotate`) always kill the process at a clean seam
//! between two I/O operations. Every one of them leaves the directory in
//! a state [`open`](DurableEvaluator::open) (or scrub-then-open)
//! recovers from with the bit-identical guarantee above. One more point,
//! `wal-truncate`, is a test hook: it fails the truncate that cuts an
//! appended frame back out (after a failed apply or a failed append
//! attempt), leaving the frame on disk and the evaluator dead.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dynamite_instance::binio::{self, BinError, Reader};
use dynamite_instance::{Database, Relation, Value};

use crate::ast::Program;
use crate::engine::reorder_default;
use crate::eval::{check_delta, EvalError};
use crate::fault;
use crate::governor::Governor;
use crate::incremental::{DriftError, IncrementalEvaluator, OutputDelta};
use crate::pool::{self, WorkerPool};

const CKPT_MAGIC: &[u8; 8] = b"DYNCKPT1";
const WAL_MAGIC: &[u8; 8] = b"DYNWAL01";
/// WAL segment header: magic + generation.
const WAL_HEADER_LEN: u64 = 16;

/// Tuning knobs for a [`DurableEvaluator`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Compact (checkpoint + rotate) when the WAL exceeds this multiple
    /// of the last checkpoint's size. Default `4.0`.
    pub compact_wal_ratio: f64,
    /// Never compact below this WAL size, whatever the ratio says —
    /// avoids checkpoint churn on small states. Default 64 KiB.
    pub compact_min_wal_bytes: u64,
    /// Whether WAL appends fsync. `true` (the default) is the durability
    /// contract — an acked batch survives power loss; `false` trades
    /// that for append speed (an OS crash can lose the tail, a clean
    /// process exit cannot). Checkpoint writes always fsync.
    pub fsync: bool,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            compact_wal_ratio: 4.0,
            compact_min_wal_bytes: 64 * 1024,
            fsync: true,
        }
    }
}

/// What [`DurableEvaluator::open`] did to get back to a consistent state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint generation recovery restarted from.
    pub generation: u64,
    /// Newer checkpoints that failed validation and were skipped.
    pub checkpoints_skipped: usize,
    /// WAL frames replayed on top of the checkpoint.
    pub frames_replayed: u64,
    /// Bytes of torn/corrupt WAL tail truncated during replay.
    pub torn_tail_bytes: u64,
}

/// What [`DurableEvaluator::scrub`] found — and contained — in a state
/// directory. Quarantined files are *renamed* (`*.quarantine`), never
/// deleted; truncated tails are cut at the last valid frame boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checkpoint generations that passed full validation.
    pub checkpoints_ok: Vec<u64>,
    /// Checkpoint generations renamed to `ckpt-<gen>.quarantine`.
    pub checkpoints_quarantined: Vec<u64>,
    /// WAL frames that passed CRC + fail-closed decode, across segments.
    pub wal_frames_ok: u64,
    /// `(generation, bytes)` of damaged WAL tails truncated away.
    pub wal_tails_truncated: Vec<(u64, u64)>,
    /// WAL segment generations renamed to `wal-<gen>.quarantine` (bad
    /// header, or unstitchable to the surviving checkpoint chain).
    pub wal_quarantined: Vec<u64>,
}

impl ScrubReport {
    /// `true` when the scrub changed nothing: every file validated.
    pub fn is_clean(&self) -> bool {
        self.checkpoints_quarantined.is_empty()
            && self.wal_tails_truncated.is_empty()
            && self.wal_quarantined.is_empty()
    }
}

/// Failures of the durable layer.
#[derive(Debug)]
pub enum DurableError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A file failed structural validation (bad magic, CRC mismatch,
    /// undecodable payload).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// No checkpoint in the directory passed validation.
    NoUsableCheckpoint,
    /// The batch failed validation (before its frame was written) or
    /// the in-memory apply failed (a governed resource trip, after which
    /// the WAL was truncated back); either way the batch left no trace.
    Eval(EvalError),
    /// A previous append failed twice, or a truncate failed, and left
    /// frames on disk that memory does not hold; this evaluator no
    /// longer accepts work. Re-[`open`] to recover.
    ///
    /// [`open`]: DurableEvaluator::open
    Dead,
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable I/O error: {e}"),
            DurableError::Corrupt { path, detail } => {
                write!(f, "corrupt durable file {}: {detail}", path.display())
            }
            DurableError::NoUsableCheckpoint => {
                write!(f, "no usable checkpoint in durable directory")
            }
            DurableError::Eval(e) => write!(f, "maintenance failed: {e}"),
            DurableError::Dead => {
                write!(
                    f,
                    "durable evaluator is dead after an unrecovered I/O failure"
                )
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Io(e)
    }
}

impl From<EvalError> for DurableError {
    fn from(e: EvalError) -> DurableError {
        DurableError::Eval(e)
    }
}

impl DurableError {
    fn corrupt(path: &Path, detail: impl Into<String>) -> DurableError {
        DurableError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

/// The decoded payload of one checkpoint file.
struct Checkpoint {
    program: Program,
    next_seq: u64,
    edb: Database,
    overlay: Database,
    /// On-disk size, the denominator of the compaction ratio.
    file_len: u64,
}

/// An [`IncrementalEvaluator`] whose state survives process death. See
/// the [module docs](self) for formats and guarantees.
///
/// ```no_run
/// use dynamite_datalog::{DurableEvaluator, Program};
/// use dynamite_instance::Database;
///
/// let program = Program::parse("Path(x, y) :- Edge(x, y).").unwrap();
/// let mut edb = Database::new();
/// edb.insert("Edge", vec![1.into(), 2.into()]);
/// let mut dur = DurableEvaluator::create("state-dir", program, edb).unwrap();
///
/// let mut ins = Database::new();
/// ins.insert("Edge", vec![2.into(), 3.into()]);
/// dur.apply_delta(&ins, &Database::new()).unwrap();
/// drop(dur); // …process dies…
///
/// let mut back = DurableEvaluator::open("state-dir").unwrap();
/// assert_eq!(back.output().relation("Path").unwrap().len(), 2);
/// ```
pub struct DurableEvaluator {
    inner: IncrementalEvaluator,
    dir: PathBuf,
    opts: DurableOptions,
    /// Generation of the checkpoint the current state descends from.
    ckpt_gen: u64,
    /// Generation of the WAL segment being appended to (≥ `ckpt_gen`;
    /// greater only after a fallback recovery found newer segments).
    wal_gen: u64,
    /// Sequence number the next appended frame will carry.
    next_seq: u64,
    wal: File,
    /// Valid length of the current WAL segment (compaction numerator).
    wal_len: u64,
    ckpt_len: u64,
    dead: bool,
    report: Option<RecoveryReport>,
}

impl DurableEvaluator {
    /// Creates a fresh durable state directory: evaluates `program` over
    /// `edb`, writes checkpoint generation 0, and opens WAL segment 0.
    /// Fails if `dir` already holds a checkpoint (use [`open`] or
    /// [`open_or_create`] for that).
    ///
    /// Uses the `DYNAMITE_THREADS` / `DYNAMITE_NO_REORDER` environment
    /// defaults and default [`DurableOptions`].
    ///
    /// [`open`]: DurableEvaluator::open
    /// [`open_or_create`]: DurableEvaluator::open_or_create
    pub fn create(
        dir: impl AsRef<Path>,
        program: Program,
        edb: Database,
    ) -> Result<DurableEvaluator, DurableError> {
        DurableEvaluator::create_with_config(
            dir,
            program,
            edb,
            DurableOptions::default(),
            pool::with_threads(None),
            reorder_default(),
        )
    }

    /// [`create`](DurableEvaluator::create) with explicit options, worker
    /// pool, and planner mode.
    pub fn create_with_config(
        dir: impl AsRef<Path>,
        program: Program,
        edb: Database,
        opts: DurableOptions,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<DurableEvaluator, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if !list_generations(&dir, "ckpt-")?.is_empty() {
            return Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "directory already holds a checkpoint; use open",
            )));
        }
        let mut inner = IncrementalEvaluator::with_config(program, edb, pool, reorder)?;
        let ckpt_len = write_checkpoint_retry(&dir, 0, &mut inner, 0)?;
        let wal = start_wal_segment(&dir, 0)?;
        Ok(DurableEvaluator {
            inner,
            dir,
            opts,
            ckpt_gen: 0,
            wal_gen: 0,
            next_seq: 0,
            wal,
            wal_len: WAL_HEADER_LEN,
            ckpt_len,
            dead: false,
            report: None,
        })
    }

    /// Recovers a durable evaluator from `dir`. See the [module
    /// docs](self) for the recovery procedure; [`recovery_report`]
    /// describes what happened.
    ///
    /// [`recovery_report`]: DurableEvaluator::recovery_report
    pub fn open(dir: impl AsRef<Path>) -> Result<DurableEvaluator, DurableError> {
        DurableEvaluator::open_with_config(
            dir,
            DurableOptions::default(),
            pool::with_threads(None),
            reorder_default(),
        )
    }

    /// [`open`](DurableEvaluator::open) with explicit options, worker
    /// pool, and planner mode.
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<DurableEvaluator, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        let mut report = RecoveryReport::default();

        // Newest checkpoint that validates *and* reconstructs wins.
        let mut gens = list_generations(&dir, "ckpt-")?;
        gens.reverse();
        let mut chosen: Option<(u64, Checkpoint, IncrementalEvaluator)> = None;
        for gen in gens {
            match load_checkpoint(&dir.join(format!("ckpt-{gen}")), gen) {
                Ok(ckpt) => {
                    match IncrementalEvaluator::from_parts(
                        ckpt.program.clone(),
                        ckpt.edb.clone(),
                        ckpt.overlay.clone(),
                        pool.clone(),
                        reorder,
                    ) {
                        Ok(inner) => {
                            chosen = Some((gen, ckpt, inner));
                            break;
                        }
                        Err(_) => report.checkpoints_skipped += 1,
                    }
                }
                Err(_) => report.checkpoints_skipped += 1,
            }
        }
        let Some((ckpt_gen, ckpt, mut inner)) = chosen else {
            return Err(DurableError::NoUsableCheckpoint);
        };
        report.generation = ckpt_gen;

        // Replay every WAL segment from the checkpoint's generation up,
        // ascending. Frame sequence numbers are globally contiguous, so
        // a fallback checkpoint stitches to newer segments seamlessly.
        let mut next_seq = ckpt.next_seq;
        let wal_gens: Vec<u64> = list_generations(&dir, "wal-")?
            .into_iter()
            .filter(|&g| g >= ckpt_gen)
            .collect();
        for &gen in &wal_gens {
            if gen > ckpt_gen {
                // A segment beyond the chosen checkpoint's exists only
                // because a later checkpoint verified and rotated — at
                // which moment the live evaluator replanned. Mirror that
                // replan here (the replayed EDB state at this boundary
                // equals the live EDB at that rotation) so the remaining
                // frames replay under the same join plans.
                inner.replan();
            }
            let path = dir.join(format!("wal-{gen}"));
            let torn = walk_segment(&path, gen, |seq, inserts, deletes| {
                if seq > next_seq {
                    // A gap cannot arise from any crash of the write
                    // path; treat the rest of the chain as unusable.
                    return Ok(false);
                }
                // Frames below `next_seq` are pre-rotation overlap the
                // chosen checkpoint already covers.
                if seq == next_seq {
                    inner
                        .apply_delta(&inserts, &deletes)
                        .map_err(|e| DurableError::corrupt(&path, format!("replay failed: {e}")))?;
                    next_seq += 1;
                    report.frames_replayed += 1;
                }
                Ok(true)
            })?;
            if let Some(bytes) = torn {
                // Later segments cannot be contiguous with a torn chain.
                report.torn_tail_bytes += bytes;
                break;
            }
        }

        // Continue appending to the newest segment present (create the
        // checkpoint's own segment if the process died mid-rotation).
        let (wal_gen, wal, wal_len) = match wal_gens.last().copied() {
            Some(gen) => {
                let wal = OpenOptions::new()
                    .append(true)
                    .open(dir.join(format!("wal-{gen}")))?;
                let len = wal.metadata()?.len();
                (gen, wal, len)
            }
            None => (ckpt_gen, start_wal_segment(&dir, ckpt_gen)?, WAL_HEADER_LEN),
        };
        Ok(DurableEvaluator {
            inner,
            dir,
            opts,
            ckpt_gen,
            wal_gen,
            next_seq,
            wal,
            wal_len,
            ckpt_len: ckpt.file_len,
            dead: false,
            report: Some(report),
        })
    }

    /// [`open`](DurableEvaluator::open) if `dir` holds any checkpoint,
    /// [`create`](DurableEvaluator::create) otherwise — the idiomatic
    /// service entry point.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        program: Program,
        edb: Database,
    ) -> Result<DurableEvaluator, DurableError> {
        DurableEvaluator::open_or_create_with_config(
            dir,
            program,
            edb,
            DurableOptions::default(),
            pool::with_threads(None),
            reorder_default(),
        )
    }

    /// [`open_or_create`](DurableEvaluator::open_or_create) with explicit
    /// options, worker pool, and planner mode. Run
    /// [`scrub`](DurableEvaluator::scrub) first to have a directory whose
    /// only checkpoint is corrupt (a crash during `create`) quarantined
    /// and re-created instead of failing with
    /// [`DurableError::NoUsableCheckpoint`].
    pub fn open_or_create_with_config(
        dir: impl AsRef<Path>,
        program: Program,
        edb: Database,
        opts: DurableOptions,
        pool: Arc<WorkerPool>,
        reorder: bool,
    ) -> Result<DurableEvaluator, DurableError> {
        let d = dir.as_ref();
        if d.is_dir() && !list_generations(d, "ckpt-")?.is_empty() {
            DurableEvaluator::open_with_config(d, opts, pool, reorder)
        } else {
            DurableEvaluator::create_with_config(d, program, edb, opts, pool, reorder)
        }
    }

    /// Applies one batch durably: validation first, WAL append (fsync'd)
    /// second, in-memory apply third, automatic compaction last. See the
    /// [module docs](self) for the failure contract.
    pub fn apply_delta(
        &mut self,
        inserts: &Database,
        deletes: &Database,
    ) -> Result<OutputDelta, DurableError> {
        self.apply(inserts, deletes, None)
    }

    /// [`apply_delta`](DurableEvaluator::apply_delta) under cooperative
    /// resource limits. A governor that has already tripped (or been
    /// cancelled) refuses the batch before its frame is written. A trip
    /// during maintenance truncates the appended frame back out of the
    /// WAL (the log always equals the applied batches) and poisons the
    /// in-memory maintainer exactly as
    /// [`IncrementalEvaluator::apply_delta_governed`] would.
    pub fn apply_delta_governed(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: &Governor,
    ) -> Result<OutputDelta, DurableError> {
        self.apply(inserts, deletes, Some(gov))
    }

    fn apply(
        &mut self,
        inserts: &Database,
        deletes: &Database,
        gov: Option<&Governor>,
    ) -> Result<OutputDelta, DurableError> {
        if self.dead {
            return Err(DurableError::Dead);
        }
        // A batch the maintainer would reject never reaches the WAL: a
        // frame that cannot replay must not be written, even briefly. Nor
        // does one under an already tripped or cancelled governor, which
        // would pay a write, an fsync and a truncate only to be refused.
        check_delta(self.inner.program(), self.inner.edb(), inserts, deletes)?;
        if let Some(gov) = gov {
            gov.check()?;
        }
        let pre_offset = self.wal_len;
        self.append_frame(&encode_frame(self.next_seq, inserts, deletes))?;

        // In-memory apply. A panic unwinding out of the engine (e.g. the
        // worker-panic fault) must not leave the WAL ahead of memory:
        // truncate back (best effort), mark dead, resume the unwind.
        let applied = panic::catch_unwind(AssertUnwindSafe(|| match gov {
            Some(gov) => self.inner.apply_delta_governed(inserts, deletes, gov),
            None => self.inner.apply_delta(inserts, deletes),
        }));
        let applied = match applied {
            Ok(result) => result,
            Err(unwind) => {
                let _ = self.truncate_wal(pre_offset);
                self.dead = true;
                panic::resume_unwind(unwind);
            }
        };
        match applied {
            Ok(delta) => {
                self.next_seq += 1;
                self.maybe_compact();
                Ok(delta)
            }
            Err(e) => {
                // A failed truncate retires the evaluator (see
                // `truncate_wal`) and surfaces as the I/O error.
                self.truncate_wal(pre_offset)?;
                Err(DurableError::Eval(e))
            }
        }
    }

    /// A materialized copy of the maintained derived relations.
    pub fn output(&mut self) -> Database {
        self.inner.output()
    }

    /// The maintained extensional database.
    pub fn edb(&self) -> &Database {
        self.inner.edb()
    }

    /// The maintained program, as recovered from (or written to) the
    /// durable directory.
    pub fn program(&self) -> &Program {
        self.inner.program()
    }

    /// Answers the point query `relation(bindings)` straight from the
    /// maintained overlay — no fixpoint, no EDB clone, unless the overlay
    /// is poisoned (then it is rebuilt first, as [`output`] documents).
    /// The answer contract is [`Evaluator::query`]'s: a typed
    /// [`EvalError::InputArity`] on an arity mismatch, an empty answer for
    /// relations the program does not derive, and rows set-identical to
    /// full-evaluate-then-filter (in overlay order). Touches no file.
    ///
    /// [`output`]: DurableEvaluator::output
    /// [`Evaluator::query`]: crate::Evaluator::query
    pub fn query(
        &mut self,
        relation: &str,
        bindings: &[Option<Value>],
    ) -> Result<Relation, EvalError> {
        self.inner.query(relation, bindings)
    }

    /// Whether the in-memory overlay is degraded (next batch pays a full
    /// rebuild) — see [`IncrementalEvaluator::is_poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Whether an unrecovered I/O failure has retired this evaluator
    /// (every further operation returns [`DurableError::Dead`]).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The generation of the checkpoint the current state descends from.
    pub fn generation(&self) -> u64 {
        self.ckpt_gen
    }

    /// What recovery did, when this evaluator came from
    /// [`open`](DurableEvaluator::open); `None` after
    /// [`create`](DurableEvaluator::create).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.report.as_ref()
    }

    /// Bytes currently in the active WAL segment (header included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// The sequence number the next applied batch will carry — equal to
    /// the number of batches applied over this state's lifetime. The
    /// crash harness uses it to locate a recovered directory on the
    /// reference timeline.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Verifies the maintained overlay against a from-scratch
    /// re-evaluation *without modifying anything* — see
    /// [`IncrementalEvaluator::audit`]. Returns
    /// [`DurableError::Eval`]`(`[`EvalError::Drift`]`)` when the overlay
    /// has silently diverged.
    ///
    /// [`EvalError::Drift`]: crate::EvalError::Drift
    pub fn audit(&mut self) -> Result<(), DurableError> {
        if self.dead {
            return Err(DurableError::Dead);
        }
        self.inner.audit().map_err(DurableError::Eval)
    }

    /// Rebuilds the maintained overlay from scratch and writes a fresh,
    /// read-back-verified checkpoint of the rebuilt state, so the repair
    /// is durable — see [`IncrementalEvaluator::repair`]. Returns the
    /// drift the rebuild erased, if any.
    pub fn repair(&mut self) -> Result<Option<DriftError>, DurableError> {
        if self.dead {
            return Err(DurableError::Dead);
        }
        let drift = self.inner.repair().map_err(DurableError::Eval)?;
        self.checkpoint()?;
        Ok(drift)
    }

    /// Forces a compaction: write a new checkpoint, verify it by reading
    /// it back, rotate the WAL, purge generations older than the
    /// previous one. On verification failure (after one retry) the
    /// generation does **not** advance and appends continue on the
    /// current WAL — nothing is lost, recovery just replays more.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        if self.dead {
            return Err(DurableError::Dead);
        }
        let prev_gen = self.ckpt_gen;
        let new_gen = self.wal_gen + 1;
        self.ckpt_len = write_checkpoint_retry(&self.dir, new_gen, &mut self.inner, self.next_seq)?;
        // Replan from the (just-checkpointed) statistics, and only now: a
        // recovery from this checkpoint plans from its EDB, so the live
        // evaluator must switch to those same plans at exactly this
        // point — and must *not* switch when the checkpoint failed
        // verification, since recovery would then fall back to an older
        // generation and replay with the older plans.
        self.inner.replan();
        fault::crash_point(fault::CRASH_BEFORE_WAL_ROTATE);
        self.wal = start_wal_segment(&self.dir, new_gen)?;
        self.wal_gen = new_gen;
        self.wal_len = WAL_HEADER_LEN;
        self.ckpt_gen = new_gen;
        fault::crash_point(fault::CRASH_AFTER_WAL_ROTATE);
        // Keep one fallback generation; purge everything older.
        for prefix in ["ckpt-", "wal-"] {
            for gen in list_generations(&self.dir, prefix)? {
                if gen < prev_gen {
                    let _ = fs::remove_file(self.dir.join(format!("{prefix}{gen}")));
                }
            }
        }
        Ok(())
    }

    /// Integrity-scrubs a **closed** state directory: every checkpoint
    /// and every WAL frame is CRC-verified and fail-closed-decoded
    /// without applying anything, and damage is contained — corrupt
    /// checkpoints are renamed to `*.quarantine` (never deleted),
    /// damaged WAL tails are truncated at the last valid frame boundary,
    /// and WAL segments that cannot be stitched to the surviving
    /// checkpoint chain are quarantined whole. A subsequent
    /// [`open`](DurableEvaluator::open) then recovers from the newest
    /// surviving generation without tripping over the damage.
    ///
    /// Scrubbing is idempotent: a second run over an already-scrubbed
    /// directory reports [`ScrubReport::is_clean`].
    pub fn scrub(dir: impl AsRef<Path>) -> Result<ScrubReport, DurableError> {
        let dir = dir.as_ref();
        let mut report = ScrubReport::default();
        let mut changed = false;

        // Pass 1: checkpoints. Full validation (magic, CRC, decode,
        // reparse, generation match); failures are quarantined so later
        // passes — and recovery — see only trusted checkpoints.
        let mut newest_valid: Option<(u64, u64)> = None; // (gen, next_seq)
        for gen in list_generations(dir, "ckpt-")? {
            let path = dir.join(format!("ckpt-{gen}"));
            match load_checkpoint(&path, gen) {
                Ok(ckpt) => {
                    newest_valid = Some((gen, ckpt.next_seq));
                    report.checkpoints_ok.push(gen);
                }
                Err(_) => {
                    quarantine(&path)?;
                    report.checkpoints_quarantined.push(gen);
                    changed = true;
                }
            }
        }

        // Pass 2: WAL segments, structural. A bad header condemns the
        // segment (no frame in it can be trusted to belong to it); a bad
        // frame condemns the tail from that offset on.
        let mut segs: Vec<(u64, Option<(u64, u64)>)> = Vec::new();
        for gen in list_generations(dir, "wal-")? {
            let path = dir.join(format!("wal-{gen}"));
            let mut span: Option<(u64, u64)> = None;
            let walked = walk_segment(&path, gen, |seq, _, _| {
                // Sequence numbers are contiguous within a segment.
                if span.is_some_and(|(_, last)| seq != last + 1) {
                    return Ok(false);
                }
                span = Some((span.map_or(seq, |(first, _)| first), seq));
                report.wal_frames_ok += 1;
                Ok(true)
            });
            match walked {
                // Only the header check reports corruption here.
                Err(DurableError::Corrupt { .. }) => {
                    quarantine(&path)?;
                    report.wal_quarantined.push(gen);
                    changed = true;
                    continue;
                }
                Ok(Some(bytes)) => {
                    report.wal_tails_truncated.push((gen, bytes));
                    changed = true;
                }
                Err(e) => return Err(e),
                Ok(None) => {}
            }
            segs.push((gen, span));
        }

        // Pass 3: stitch check. Frames replay from the newest valid
        // checkpoint through ascending segments with globally contiguous
        // sequence numbers; a segment that opens past the expected
        // sequence — possible only when bit rot destroyed part of the
        // chain — is unusable, as is everything after it. With no valid
        // checkpoint at all, every segment is unusable (and would
        // otherwise poison a future re-`create` of the directory).
        let mut expect = newest_valid.map(|(_, next_seq)| next_seq);
        for &(gen, span) in &segs {
            if newest_valid.is_some_and(|(ckpt_gen, _)| gen < ckpt_gen) {
                continue; // fallback segment, never replayed from here
            }
            match (&mut expect, span) {
                (None, _) => {
                    // Chain already broken (or no checkpoint survives).
                    quarantine(&dir.join(format!("wal-{gen}")))?;
                    report.wal_quarantined.push(gen);
                    changed = true;
                }
                (Some(_), None) => {} // empty segment: stitches trivially
                (Some(e), Some((first, last))) => {
                    if first > *e {
                        expect = None; // gap: this and all later segments
                        quarantine(&dir.join(format!("wal-{gen}")))?;
                        report.wal_quarantined.push(gen);
                        changed = true;
                    } else if last >= *e {
                        *e = last + 1;
                    }
                }
            }
        }

        if changed {
            sync_dir(dir)?;
        }
        report.wal_quarantined.sort_unstable();
        report.wal_quarantined.dedup();
        Ok(report)
    }

    // ------------------------------------------------------- internals --

    /// Opportunistic compaction after a successful apply. A *failed*
    /// compaction is deliberately not an apply failure: the batch is
    /// already durable in the WAL, the generation did not advance, and
    /// the next apply simply tries again — [`checkpoint`] is the entry
    /// point for callers who need the error.
    ///
    /// [`checkpoint`]: DurableEvaluator::checkpoint
    fn maybe_compact(&mut self) {
        let payload = self.wal_len.saturating_sub(WAL_HEADER_LEN);
        if payload >= self.opts.compact_min_wal_bytes
            && payload as f64 >= self.opts.compact_wal_ratio * self.ckpt_len as f64
        {
            let _ = self.checkpoint();
        }
    }

    /// Appends one frame, fsync'ing per [`DurableOptions::fsync`]. A
    /// failed attempt (short write, injected fault) truncates back to
    /// the pre-append offset and retries once; a second failure leaves
    /// the damaged tail in place and retires the evaluator.
    fn append_frame(&mut self, frame: &[u8]) -> Result<(), DurableError> {
        let pre_offset = self.wal_len;
        for attempt in 0..2 {
            match self.try_append(frame) {
                Ok(()) => {
                    self.wal_len = pre_offset + frame.len() as u64;
                    // The frame chain is durable; dying here models a
                    // crash between the ack and the in-memory apply.
                    fault::crash_point(fault::CRASH_AFTER_WAL_APPEND);
                    return Ok(());
                }
                Err(e) if attempt == 0 => {
                    // Self-heal: drop the partial tail and go again (a
                    // failed truncate has already retired the evaluator).
                    if self.truncate_wal(pre_offset).is_err() {
                        return Err(e);
                    }
                }
                Err(e) => {
                    self.dead = true;
                    return Err(e);
                }
            }
        }
        unreachable!("loop returns on both attempts");
    }

    /// One append attempt, with the injected-fault hooks. The fault
    /// points model disk failures, so unlike the engine's evaluation
    /// hooks they fire with or without a governor.
    fn try_append(&mut self, frame: &[u8]) -> Result<(), DurableError> {
        if fault::fire(fault::CRASH_WAL_PARTIAL) {
            // Real process death mid-write: an arbitrary prefix of the
            // frame reaches the file (offset swept by the harness via
            // DYNAMITE_CRASH_OFFSET), then the process dies — no error
            // path, no cleanup, no fsync.
            let n = fault::crash_offset().min(frame.len());
            let _ = self.wal.write_all(&frame[..n]);
            std::process::abort();
        }
        if fault::fire(fault::WAL_TORN_WRITE) {
            // A torn write: half the frame reaches the platter, the
            // fsync never happens. In abort mode the process dies on the
            // spot, damage in place.
            self.wal.write_all(&frame[..frame.len() / 2])?;
            fault::maybe_abort();
            return Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected torn write",
            )));
        }
        if fault::fire(fault::WAL_BIT_FLIP) {
            // Full-length write whose payload no longer matches its CRC.
            let mut bad = frame.to_vec();
            let last = bad.len() - 1;
            bad[last] ^= 0x40;
            self.wal.write_all(&bad)?;
            fault::maybe_abort();
            return Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "injected bit flip",
            )));
        }
        self.wal.write_all(frame)?;
        if self.opts.fsync {
            self.wal.sync_data()?;
        }
        Ok(())
    }

    /// Cuts the active WAL segment back to `offset`. Any failure retires
    /// the evaluator: the bytes past `offset` may still be on disk, and a
    /// frame appended after them would reuse their sequence number, so
    /// recovery would replay the cut frame and skip the real one.
    fn truncate_wal(&mut self, offset: u64) -> Result<(), DurableError> {
        let cut = self.try_truncate(offset);
        match cut {
            Ok(()) => self.wal_len = offset,
            Err(_) => self.dead = true,
        }
        cut
    }

    /// One truncate attempt, with the injected-fault hook.
    fn try_truncate(&mut self, offset: u64) -> Result<(), DurableError> {
        if fault::fire(fault::WAL_TRUNCATE) {
            return Err(DurableError::Io(std::io::Error::other(
                "injected truncate failure",
            )));
        }
        self.wal.set_len(offset)?;
        self.wal.seek(SeekFrom::End(0))?;
        if self.opts.fsync {
            self.wal.sync_data()?;
        }
        Ok(())
    }
}

/// Starts WAL segment `gen` (truncating any leftover file of that name)
/// and returns its append handle. The header is fsync'd immediately:
/// segment existence must be durable before frames land in it.
fn start_wal_segment(dir: &Path, gen: u64) -> Result<File, DurableError> {
    let path = dir.join(format!("wal-{gen}"));
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
    header.extend_from_slice(WAL_MAGIC);
    binio::write_u64(&mut header, gen);
    file.write_all(&header)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok(file)
}

/// [`write_checkpoint`] with one retry, so a single injected
/// `checkpoint-partial` fault self-heals (mirroring the WAL append
/// policy). On double failure the damaged file stays behind for recovery
/// to skip.
fn write_checkpoint_retry(
    dir: &Path,
    gen: u64,
    inner: &mut IncrementalEvaluator,
    next_seq: u64,
) -> Result<u64, DurableError> {
    write_checkpoint(dir, gen, inner, next_seq)
        .or_else(|_| write_checkpoint(dir, gen, inner, next_seq))
}

/// Writes checkpoint `gen` (temp file → fsync → rename → dir fsync) and
/// verifies it by reading it back. Returns the file size.
fn write_checkpoint(
    dir: &Path,
    gen: u64,
    inner: &mut IncrementalEvaluator,
    next_seq: u64,
) -> Result<u64, DurableError> {
    let overlay = inner.output();

    let mut payload = Vec::new();
    binio::write_u64(&mut payload, gen);
    binio::write_str(&mut payload, &inner.program().to_string());
    binio::write_u64(&mut payload, next_seq);
    binio::write_database(&mut payload, inner.edb());
    binio::write_database(&mut payload, &overlay);

    let mut bytes = Vec::with_capacity(payload.len() + 20);
    bytes.extend_from_slice(CKPT_MAGIC);
    binio::write_u64(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    binio::write_u32(&mut bytes, binio::crc32(&payload));

    let injected_partial = fault::fire(fault::CHECKPOINT_PARTIAL);
    if injected_partial {
        // A partial checkpoint write: the tail (CRC included) never
        // reaches the disk. The rename still happens — read-back
        // verification is what catches it.
        bytes.truncate(bytes.len() / 2);
    }

    let path = dir.join(format!("ckpt-{gen}"));
    let tmp = dir.join(format!("ckpt-{gen}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    // The temp file is durable but invisible to recovery (its name
    // matches no generation pattern); dying here must be a clean no-op.
    fault::crash_point(fault::CRASH_AFTER_CKPT_TEMP);
    fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    if injected_partial {
        // Abort mode: the truncated checkpoint is durably in place under
        // its real name — die before the read-back verify can object.
        fault::maybe_abort();
    }
    // The rename is durable but this process never verified the bytes or
    // advanced its generation; recovery is free to use either chain.
    fault::crash_point(fault::CRASH_AFTER_CKPT_RENAME);

    // Read-back verification: a checkpoint only counts once the bytes on
    // disk decode to exactly what recovery needs.
    load_checkpoint(&path, gen)?;
    Ok(bytes.len() as u64)
}

/// fsyncs a directory so renames/creations within it are durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Renames `path` aside as `<name>.quarantine` (suffixed with a counter
/// when that name is already taken — quarantined evidence is never
/// overwritten, let alone deleted).
fn quarantine(path: &Path) -> std::io::Result<()> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("damaged")
        .to_string();
    let mut dest = path.with_file_name(format!("{name}.quarantine"));
    let mut n = 1u32;
    while dest.exists() {
        dest = path.with_file_name(format!("{name}.quarantine{n}"));
        n += 1;
    }
    fs::rename(path, dest)
}

/// Decodes the frame at the start of `bytes` — [`encode_frame`]'s
/// inverse: length header in bounds, CRC match, then a fail-closed decode
/// of the sequence number and both batches with no trailing bytes.
/// Returns `(seq, inserts, deletes, encoded length)`, or `None` on any
/// damage.
fn decode_frame(bytes: &[u8]) -> Option<(u64, Database, Database, usize)> {
    let mut header = Reader::new(bytes);
    let len = header.read_u32().ok()? as usize;
    let stored = header.read_u32().ok()?;
    let end = 8usize.checked_add(len)?;
    let payload = bytes.get(8..end)?;
    if binio::crc32(payload) != stored {
        return None;
    }
    let mut r = Reader::new(payload);
    let seq = r.read_u64().ok()?;
    let inserts = binio::read_database(&mut r).ok()?;
    let deletes = binio::read_database(&mut r).ok()?;
    r.is_empty().then_some((seq, inserts, deletes, end))
}

/// Walks WAL segment `gen` at `path`, handing each decoded frame's
/// `(seq, inserts, deletes)` to `accept` in order — the segment reader
/// recovery and scrub share, so they always agree on where a tail is
/// torn. The first frame that fails to decode, or that `accept` refuses
/// with `Ok(false)`, starts the damaged tail: the file is truncated there
/// and synced, and the truncated byte count returned (`None` when every
/// frame was accepted). A bad header is [`DurableError::Corrupt`], and an
/// `Err` from `accept` aborts the walk; both leave the file untouched.
fn walk_segment(
    path: &Path,
    gen: u64,
    mut accept: impl FnMut(u64, Database, Database) -> Result<bool, DurableError>,
) -> Result<Option<u64>, DurableError> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let header_ok = bytes.len() >= WAL_HEADER_LEN as usize
        && &bytes[..8] == WAL_MAGIC
        && u64::from_le_bytes(bytes[8..16].try_into().unwrap()) == gen;
    if !header_ok {
        return Err(DurableError::corrupt(path, "bad segment header"));
    }
    let mut offset = WAL_HEADER_LEN as usize;
    while offset < bytes.len() {
        let accepted = match decode_frame(&bytes[offset..]) {
            Some((seq, inserts, deletes, len)) => accept(seq, inserts, deletes)?.then_some(len),
            None => None,
        };
        match accepted {
            Some(len) => offset += len,
            None => {
                file.set_len(offset as u64)?;
                file.sync_data()?;
                return Ok(Some((bytes.len() - offset) as u64));
            }
        }
    }
    Ok(None)
}

/// The generations present in `dir` with filename prefix `prefix`
/// (`ckpt-` / `wal-`), ascending. Non-matching names are ignored.
fn list_generations(dir: &Path, prefix: &str) -> std::io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(gen) = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix))
            .and_then(|g| g.parse::<u64>().ok())
        {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Encodes one WAL frame: `[len][crc][payload{seq, inserts, deletes}]`.
fn encode_frame(seq: u64, inserts: &Database, deletes: &Database) -> Vec<u8> {
    let mut payload = Vec::new();
    binio::write_u64(&mut payload, seq);
    binio::write_database(&mut payload, inserts);
    binio::write_database(&mut payload, deletes);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    binio::write_u32(&mut frame, payload.len() as u32);
    binio::write_u32(&mut frame, binio::crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Loads and fully validates the checkpoint at `path` (magic, length,
/// CRC, payload decode, program reparse, generation match).
fn load_checkpoint(path: &Path, expect_gen: u64) -> Result<Checkpoint, DurableError> {
    let bytes = fs::read(path)?;
    let corrupt = |detail: &str| DurableError::corrupt(path, detail);
    if bytes.len() < 16 || &bytes[..8] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let Some(total) = len.checked_add(20) else {
        return Err(corrupt("payload length overflow"));
    };
    if bytes.len() < total {
        return Err(corrupt("truncated payload"));
    }
    let payload = &bytes[16..16 + len];
    let stored = u32::from_le_bytes(bytes[16 + len..20 + len].try_into().unwrap());
    if binio::crc32(payload) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(payload);
    let decode = |e: BinError| DurableError::corrupt(path, format!("payload decode: {e}"));
    let gen = r.read_u64().map_err(decode)?;
    if gen != expect_gen {
        return Err(corrupt("generation does not match filename"));
    }
    let program_text = r.read_str().map_err(decode)?.to_string();
    let next_seq = r.read_u64().map_err(decode)?;
    let edb = binio::read_database(&mut r).map_err(decode)?;
    let overlay = binio::read_database(&mut r).map_err(decode)?;
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after payload"));
    }
    let program = Program::parse(&program_text)
        .map_err(|e| DurableError::corrupt(path, format!("program reparse: {e}")))?;
    Ok(Checkpoint {
        program,
        next_seq,
        edb,
        overlay,
        file_len: bytes.len() as u64,
    })
}
