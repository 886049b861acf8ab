//! Seeded mutation fuzzing of every reader of untrusted text or bytes:
//! `Program::parse`, `parse_facts`, `binio::read_database` and
//! `parse_document`.
//!
//! cargo-fuzz needs the network, so this is a fixed-budget, fixed-seed
//! loop over the vendored [`rand`] shim: each target mutates a corpus of
//! valid inputs (bit flips, truncations, token insertions, splices) and
//! feeds the result to its reader. The contract is a typed error or a
//! value, never a panic. The text formats that are written back out
//! must also reach a fixed point: whatever a reader accepts, printing it
//! and reading the print again must print identically. A failure reports
//! the target, seed, iteration and the offending input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dynamite::core::test_fixtures::motivating;
use dynamite::datalog::Program;
use dynamite::instance::binio::{read_database, write_database, Reader};
use dynamite::instance::{parse_document, parse_facts, write_document, Database, Value};
use dynamite::migrate::writers::render_facts;

const SEED: u64 = 0x00F0_22ED;
const ITERATIONS: usize = 100_000;

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

/// Runs `check` on [`ITERATIONS`] mutants of `corpus`, turning a panic
/// into a failure that names the input.
fn fuzz(target: &str, corpus: Vec<Vec<u8>>, check: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..ITERATIONS {
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
    fuzz("Program::parse", corpus, |input| {
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
    fuzz("parse_facts", corpus, |input| {
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
    fuzz("binio::read_database", corpus, |input| {
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
    fuzz("parse_document", corpus, |input| {
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
