//! Deterministic durable child for the out-of-process crash harness.
//!
//! Opens (or creates) a durable state directory, then applies the
//! canonical [`crash_stream`] batch stream to it — resuming from
//! wherever recovery says the directory stopped, so the parent can
//! re-run it after a kill to drive the same stream to completion.
//!
//! Crash faults are armed by the parent through the `DYNAMITE_FAULT*`
//! environment variables and kill this process mid-I/O with `abort(2)`
//! — no unwinding, no `Drop`, no buffered-writer flush — which is as
//! close to `kill -9` as a portable harness gets. The parent then
//! inspects what actually survived on disk.
//!
//! Usage:
//!
//! ```text
//! crash_child <dir> <profile> <threads> <total-batches>
//!     [--abort-after K] [--skew TAG]
//! ```
//!
//! Exit codes: 0 = stream complete; 2 = bad usage; 3 = open/create
//! failed; 4 = apply failed. Fault-point kills show up as SIGABRT.

#![forbid(unsafe_code)]

use std::process::exit;

use dynamite_bench::crash_stream;
use dynamite_datalog::durable::DurableEvaluator;
use dynamite_datalog::{pool, reorder_default};

fn usage() -> ! {
    eprintln!(
        "usage: crash_child <dir> <profile> <threads> <total-batches> \
         [--abort-after K] [--skew TAG]"
    );
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(dir), Some(profile), Some(threads), Some(total)) =
        (args.next(), args.next(), args.next(), args.next())
    else {
        usage()
    };
    let (Ok(threads), Ok(total)) = (threads.parse::<usize>(), total.parse::<usize>()) else {
        usage()
    };
    let mut abort_after = None;
    let mut skew = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--abort-after" => abort_after = value().parse::<usize>().ok().or_else(|| usage()),
            "--skew" => skew = Some(value()),
            _ => usage(),
        }
    }

    // Interner perturbation first, before any evaluator exists: ids for
    // every later-interned string shift relative to the parent.
    if let Some(tag) = &skew {
        crash_stream::skew_intern(tag);
    }

    let mut dur = match DurableEvaluator::open_or_create_with_config(
        &dir,
        crash_stream::program(),
        crash_stream::seed_edb(),
        crash_stream::options(&profile),
        pool::with_threads(Some(threads)),
        reorder_default(),
    ) {
        Ok(dur) => dur,
        Err(e) => {
            eprintln!("crash_child: open/create of {dir} failed: {e}");
            exit(3);
        }
    };

    let start = dur.next_seq() as usize;
    let stream = crash_stream::batches(total, crash_stream::SEED);
    let mut applied_this_run = 0usize;
    for (ins, dels) in stream.iter().skip(start) {
        if let Err(e) = dur.apply_delta(ins, dels) {
            eprintln!("crash_child: apply failed: {e}");
            exit(4);
        }
        applied_this_run += 1;
        if Some(applied_this_run) == abort_after {
            // Simulated power cut after K acknowledged batches: every
            // one of them is already in the fsync'd WAL.
            std::process::abort();
        }
    }
    exit(0);
}
