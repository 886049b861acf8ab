//! Seeded mutation fuzzing of every reader of untrusted text or bytes:
//! `Program::parse`, `parse_facts`, `binio::read_database`,
//! `parse_document`, and the durable session's WAL segments as read by
//! `DurableEvaluator::scrub` and `DurableEvaluator::open`.
//!
//! cargo-fuzz needs the network, so this is a fixed-budget, fixed-seed
//! loop over the vendored [`rand`] shim: each target mutates a corpus of
//! valid inputs (bit flips, truncations, token insertions, splices) and
//! feeds the result to its reader. The contract is a typed error or a
//! value, never a panic. The text formats that are written back out
//! must also reach a fixed point: whatever a reader accepts, printing it
//! and reading the print again must print identically. A recovered WAL
//! must yield the state after some prefix of the batches it logged, and
//! reading it must never allocate in proportion to an unchecked length
//! prefix (the largest single allocation is tracked per thread). A
//! failure reports the target, seed, iteration and the offending input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dynamite::core::test_fixtures::motivating;
use dynamite::datalog::{pool, DurableEvaluator, DurableOptions, Program};
use dynamite::instance::binio::{self, read_database, write_database, Reader};
use dynamite::instance::{parse_document, parse_facts, write_document, Database, Value};
use dynamite::migrate::writers::render_facts;

const SEED: u64 = 0x00F0_22ED;
const ITERATIONS: usize = 100_000;
/// WAL mutants go through the file system, twice each; far fewer suffice.
const WAL_ITERATIONS: usize = 1_500;

/// The system allocator, recording the largest single request made on
/// each thread so a target can bound what its reader preallocates.
struct TrackLargest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations can outlive the thread-local at exit.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; `note` touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for TrackLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: TrackLargest = TrackLargest;

/// Fragments that steer mutations toward the readers' structural
/// characters, escapes and multi-byte UTF-8.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "\"", "\\", "\\u{", "}", "{", "[", "]", "(", ")", ",", ".", ":-", ":", "!", "#", "-", "_",
    "//", "\n", "\r", "\t", "\0", "é", "\u{200b}", "\\r", "\\0", "\\n", "\\t", "\\u{e9}",
    "\\u00e9", "true", "false", "9223372036854775808", "#18446744073709551616",
    "\u{301}", "\u{1f}", "\u{7f}", "\u{85}", "\\u0000", "\\u001f", "\\u0301", "\\b",
];

fn mutate(rng: &mut StdRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = corpus.choose(rng).expect("non-empty corpus").clone();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=buf.len());
        match rng.gen_range(0..4) {
            0 if !buf.is_empty() => {
                let i = rng.gen_range(0..buf.len());
                buf[i] ^= 1 << rng.gen_range(0..8);
            }
            1 => buf.truncate(at),
            2 => {
                let token = TOKENS.choose(rng).expect("non-empty");
                buf.splice(at..at, token.bytes());
            }
            _ => {
                let other = corpus.choose(rng).expect("non-empty corpus");
                let from = rng.gen_range(0..=other.len());
                let to = rng.gen_range(from..=other.len());
                let end = rng.gen_range(at..=buf.len());
                buf.splice(at..end, other[from..to].iter().copied());
            }
        }
    }
    buf
}

/// Runs `check` on `iterations` mutants of `corpus`, turning a panic
/// into a failure that names the input.
fn fuzz(target: &str, iterations: usize, corpus: Vec<Vec<u8>>, check: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..iterations {
        let input = mutate(&mut rng, &corpus);
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!(
                "{target}: iteration {i} of seed {SEED:#x} panicked on input {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

fn text_corpus(texts: &[&str]) -> Vec<Vec<u8>> {
    texts.iter().map(|t| t.as_bytes().to_vec()).collect()
}

#[test]
fn program_parse_never_panics_and_round_trips() {
    let corpus = text_corpus(&[
        "Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num), Univ(id2, ug, _).",
        "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z).",
        "A(x), B(x, y) :- C(x, y), !D(y). // multi-head\n",
        r#"Q(x) :- R(x, "café", -3, true, #7), S("a\rb\0\"\\\u{200b}")."#,
        "Edge(1, 2). Edge(2, 3). Name(#0, \"zürich\", false).",
    ]);
    fuzz("Program::parse", ITERATIONS, corpus, |input| {
        let text = String::from_utf8_lossy(input);
        if let Ok(p) = Program::parse(&text) {
            let printed = p.to_string();
            let again = Program::parse(&printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(again.to_string(), printed);
        }
    });
}

#[test]
fn parse_facts_never_panics_and_round_trips() {
    let corpus = text_corpus(&[
        "1\tU1\t#100\n2\tU2\t#200\n",
        "a\\tb\tc\\nd\\\\e\\r\n",
        "true\t-7\nfalse\t0\n",
        "café\t\u{200b}\t#3\r\n",
    ]);
    fuzz("parse_facts", ITERATIONS, corpus, |input| {
        let text = String::from_utf8_lossy(input);
        if let Ok(rel) = parse_facts("R", &text) {
            let db = Database::from_relations([("R".to_string(), rel)]);
            let printed = &render_facts(&db)["R.facts"];
            let again = parse_facts("R", printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            let again = Database::from_relations([("R".to_string(), again)]);
            assert_eq!(&render_facts(&again)["R.facts"], printed);
        }
    });
}

#[test]
fn read_database_never_panics() {
    let mut corpus = Vec::new();
    for n in 0..4i64 {
        let mut db = Database::new();
        for i in 0..n * 3 {
            db.insert("Edge", vec![Value::Int(i), Value::Int(-i)]);
            db.insert(
                "Label",
                vec![Value::Id(i as u64), Value::str(format!("ü{i}"))],
            );
        }
        db.insert("Flag", vec![Value::Bool(n % 2 == 0)]);
        let mut buf = Vec::new();
        write_database(&mut buf, &db);
        corpus.push(buf);
    }
    fuzz("binio::read_database", ITERATIONS, corpus, |input| {
        let _ = read_database(&mut Reader::new(input));
    });
}

#[test]
fn parse_document_never_panics() {
    let (source, _, example) = motivating();
    let corpus = text_corpus(&[
        &write_document(&example.input),
        r#"{"Univ": [ {"name": "a\"bé\n\r\t\/", "Admit": [], "id": -1} ]}"#,
        r#"{"Univ": []}"#,
    ]);
    fuzz("parse_document", ITERATIONS, corpus, |input| {
        if let Ok(inst) = parse_document(&String::from_utf8_lossy(input), source.clone()) {
            let printed = write_document(&inst);
            let again = parse_document(&printed, source.clone())
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(write_document(&again), printed);
        }
    });
}

/// `write_document` prints any string so that `parse_document` reads
/// it back and printing again is a fixed point — control characters,
/// combining marks, escapes and non-ASCII text included.
#[test]
fn write_document_round_trips_any_string() {
    use dynamite::instance::{Instance, Record};
    let (source, _, _) = motivating();
    #[rustfmt::skip]
    const CHARS: &[char] = &[
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
        '\u{85}', '\u{9f}', '\u{301}', '\u{200b}', '\u{feff}', 'é', 'ü', '漢', '\u{1f600}',
    ];
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..2_000 {
        let mut word = || -> String {
            (0..rng.gen_range(0..8))
                .map(|_| *CHARS.choose(&mut rng).expect("non-empty"))
                .collect()
        };
        let mut inst = Instance::new(source.clone());
        let univ = Record::with_fields(vec![
            Value::Int(i).into(),
            Value::str(word()).into(),
            vec![Record::from_values(vec![Value::Int(1), Value::Int(2)])].into(),
        ]);
        inst.insert("Univ", univ).expect("valid record");
        let printed = write_document(&inst);
        let again = parse_document(&printed, source.clone())
            .unwrap_or_else(|e| panic!("iteration {i}: reparse of {printed:?} failed: {e}"));
        assert!(again.canon_eq(&inst), "iteration {i}: {printed:?}");
        assert_eq!(write_document(&again), printed, "iteration {i}");
    }
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("dynamite-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Lays out a state directory holding `ckpt` as checkpoint 0 and `wal`
/// as WAL segment 0, replacing whatever `dir` held.
fn state_dir(dir: &Path, ckpt: &[u8], wal: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create state dir");
    std::fs::write(dir.join("ckpt-0"), ckpt).expect("write checkpoint");
    std::fs::write(dir.join("wal-0"), wal).expect("write WAL segment");
}

/// Mutates the bytes of a real WAL segment and recovers it through the
/// public API, both straight through `open` and after a `scrub`. `open`
/// may refuse a damaged segment with a typed error, but whatever state it
/// recovers must be the state after some prefix of the logged batches,
/// and after a scrub it must recover. No reader may allocate more than a
/// small multiple of the bytes on disk.
#[test]
fn wal_segments_recover_a_prefix_or_fail_typed() {
    let program = Program::parse(
        "Path(x, y) :- Edge(x, y).
         Path(x, z) :- Path(x, y), Edge(y, z).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [(1, 2), (2, 3), (3, 4)] {
        edb.insert("Edge", vec![Value::Int(a), Value::Int(b)]);
    }
    let tmp = TempDir::new("fuzz-wal");
    let pool = pool::with_threads(Some(1));
    let opts = DurableOptions {
        compact_min_wal_bytes: u64::MAX, // one checkpoint, one segment
        ..DurableOptions::default()
    };
    let src = tmp.0.join("src");
    let mut dur =
        DurableEvaluator::create_with_config(&src, program, edb, opts, pool.clone(), true)
            .expect("create");
    let mut prefixes = vec![(dur.edb().clone(), dur.output())];
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..6 {
        let (mut ins, mut dels) = (Database::new(), Database::new());
        for _ in 0..3 {
            let e = vec![
                Value::Int(rng.gen_range(0..6)),
                Value::Int(rng.gen_range(0..6)),
            ];
            ins.insert("Edge", e);
        }
        let cur = dur.edb().relation("Edge").expect("Edge").clone();
        let dead = cur.get(rng.gen_range(0..cur.len())).expect("in range");
        dels.insert("Edge", dead.to_vec());
        dur.apply_delta(&ins, &dels).expect("apply");
        prefixes.push((dur.edb().clone(), dur.output()));
    }
    drop(dur);
    let ckpt = std::fs::read(src.join("ckpt-0")).expect("checkpoint");
    let wal = std::fs::read(src.join("wal-0")).expect("WAL segment");

    let case = tmp.0.join("case");
    // Lays out `segment`, scrubs it or not, and opens it, bounding the
    // largest single allocation; returns the recovered state.
    let recover = |segment: &[u8], scrub_first: bool| {
        state_dir(&case, &ckpt, segment);
        LARGEST.with(|c| c.set(0));
        if scrub_first {
            let _ = DurableEvaluator::scrub(&case);
        }
        let opened = DurableEvaluator::open_with_config(&case, opts, pool.clone(), true)
            .map(|mut dur| (dur.edb().clone(), dur.output()));
        let largest = LARGEST.with(Cell::get);
        let allowance = 16 * (ckpt.len() + segment.len()) + (1 << 20);
        assert!(
            largest <= allowance,
            "allocated {largest} bytes reading a {}-byte segment",
            segment.len()
        );
        opened
    };
    // Raw byte mutants: frame CRCs catch the damage, so recovery stops at
    // a frame boundary.
    fuzz("WAL segment", WAL_ITERATIONS, vec![wal.clone()], |input| {
        for scrub_first in [false, true] {
            match recover(input, scrub_first) {
                Ok(state) => assert!(
                    prefixes.contains(&state),
                    "recovered a state no batch prefix produced (scrubbed: {scrub_first})"
                ),
                Err(e) => assert!(!scrub_first, "open after scrub failed: {e}"),
            }
        }
    });
    // Resealed mutants: the third frame's payload is mutated and its
    // length and CRC recomputed, so the payload decoder itself meets the
    // damage, length prefixes included. Such a frame may decode to some
    // other valid batch, so only the no-panic and allocation bounds apply.
    let (header, frames) = split_frames(&wal);
    fuzz(
        "WAL frame payload",
        WAL_ITERATIONS,
        frames.clone(),
        |payload| {
            let mut segment = header.to_vec();
            for (i, frame) in frames.iter().enumerate() {
                seal(&mut segment, if i == 2 { payload } else { frame });
            }
            for scrub_first in [false, true] {
                let _ = recover(&segment, scrub_first);
            }
        },
    );
}

/// Splits a WAL segment into its 16-byte header and the payloads of its
/// frames (each `[len u32][crc32 u32][payload]`).
fn split_frames(segment: &[u8]) -> (&[u8], Vec<Vec<u8>>) {
    let (header, mut rest) = segment.split_at(16);
    let mut payloads = Vec::new();
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        payloads.push(rest[8..8 + len].to_vec());
        rest = &rest[8 + len..];
    }
    (header, payloads)
}

/// Appends `payload` to a WAL segment as one frame with a valid length
/// and CRC.
fn seal(segment: &mut Vec<u8>, payload: &[u8]) {
    binio::write_u32(segment, payload.len() as u32);
    binio::write_u32(segment, binio::crc32(payload));
    segment.extend_from_slice(payload);
}
