//! End-to-end integration: every Table 2 benchmark must synthesize from
//! its curated example and the synthesized program must agree with the
//! golden program on a fresh, larger instance (the Table 3 protocol).
//!
//! Each synthesis also pins its search path: the candidates sampled, the
//! MDPs computed, the SAT conflicts of the rules' solvers and the printed
//! program must equal the recorded counts
//! in `perfbench/expected/synth-table3.counts`, at any thread count, in
//! either planner mode, and under the CI legs' injected faults and
//! default fact budget (no Table-3 candidate comes near that budget, and
//! a single injected trip is absorbed by the candidate retry).

use std::time::Duration;

use dynamite::core::{synthesize, Synthesis, SynthesisConfig};
use dynamite::datalog::{evaluate, Program};
use dynamite::instance::{from_facts, to_facts};
use dynamite_bench_suite::benchmarks::{all, by_name, Benchmark};

/// The recorded per-scenario counts: `name candidates mdps sat_conflicts
/// program_hash` per line, `#` lines are comments.
const EXPECTED_COUNTS: &str = include_str!("../perfbench/expected/synth-table3.counts");

fn synthesize_benchmark(b: &Benchmark) -> Synthesis {
    let ex = b.example();
    // Debug builds are ~10× slower; the hardest benchmark (Retina-2, the
    // paper's pathological case) takes ~2 s in release.
    let secs = if cfg!(debug_assertions) { 1_800 } else { 200 };
    let config = SynthesisConfig {
        timeout: Some(Duration::from_secs(secs)),
        ..Default::default()
    };
    synthesize(b.source(), b.target(), &[ex], &config)
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", b.name))
}

/// 64-bit FNV-1a, the hash the counts file records programs by.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks a synthesis against its scenario's recorded counts.
fn assert_search_path(b: &Benchmark, synthesis: &Synthesis) {
    let line = EXPECTED_COUNTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(b.name))
        .unwrap_or_else(|| panic!("{}: no recorded counts", b.name));
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [_, candidates, mdps, conflicts, hash] = fields[..] else {
        panic!("malformed counts line {line:?}");
    };
    let program = synthesis.program.to_string();
    let rules = &synthesis.stats.rules;
    let got_mdps: usize = rules.iter().map(|r| r.mdps_computed).sum();
    let got_conflicts: u64 = rules.iter().map(|r| r.sat.conflicts).sum();
    assert_eq!(
        (
            synthesis.stats.total_iterations().to_string(),
            got_mdps.to_string(),
            got_conflicts.to_string(),
            format!("{:016x}", fnv1a64(program.as_bytes())),
        ),
        (
            candidates.to_string(),
            mdps.to_string(),
            conflicts.to_string(),
            hash.to_string()
        ),
        "{}: search path (candidates, mdps, sat conflicts, program hash) differs from the \
         recorded counts; program:\n{program}",
        b.name
    );
}

fn assert_correct(b: &Benchmark, program: &Program) {
    let validation = b.generate_source(1, 4242);
    let expected = b.expected_output(&validation);
    let facts = to_facts(&validation);
    let out = evaluate(program, &facts)
        .unwrap_or_else(|e| panic!("{}: synthesized program fails: {e}", b.name));
    let inst = from_facts(&out, b.target().clone())
        .unwrap_or_else(|e| panic!("{}: output does not rebuild: {e}", b.name));
    assert!(
        inst.canon_eq(&expected),
        "{}: synthesized program disagrees with golden on validation\nprogram: {}\ngolden: {}",
        b.name,
        program,
        b.golden()
    );
}

// One test per benchmark so failures are attributable and tests run in
// parallel.
macro_rules! bench_test {
    ($fn_name:ident, $name:literal) => {
        #[test]
        fn $fn_name() {
            let b = by_name($name).expect("benchmark exists");
            let synthesis = synthesize_benchmark(&b);
            assert_search_path(&b, &synthesis);
            assert_correct(&b, &synthesis.program);
        }
    };
}

bench_test!(yelp_1, "Yelp-1");
bench_test!(imdb_1, "IMDB-1");
bench_test!(dblp_1, "DBLP-1");
bench_test!(mondial_1, "Mondial-1");
bench_test!(mlb_1, "MLB-1");
bench_test!(airbnb_1, "Airbnb-1");
bench_test!(patent_1, "Patent-1");
bench_test!(bike_1, "Bike-1");
bench_test!(tencent_1, "Tencent-1");
bench_test!(retina_1, "Retina-1");
bench_test!(movie_1, "Movie-1");
bench_test!(soccer_1, "Soccer-1");
bench_test!(tencent_2, "Tencent-2");
bench_test!(retina_2, "Retina-2");
bench_test!(movie_2, "Movie-2");
bench_test!(soccer_2, "Soccer-2");
bench_test!(yelp_2, "Yelp-2");
bench_test!(imdb_2, "IMDB-2");
bench_test!(dblp_2, "DBLP-2");
bench_test!(mondial_2, "Mondial-2");
bench_test!(mlb_2, "MLB-2");
bench_test!(airbnb_2, "Airbnb-2");
bench_test!(patent_2, "Patent-2");
bench_test!(bike_2, "Bike-2");
bench_test!(mlb_3, "MLB-3");
bench_test!(airbnb_3, "Airbnb-3");
bench_test!(patent_3, "Patent-3");
bench_test!(bike_3, "Bike-3");

#[test]
fn golden_programs_match_table2_coverage() {
    // Sanity: all 28 benchmarks, and the curated example is nonempty.
    let bs = all();
    assert_eq!(bs.len(), 28);
    for b in &bs {
        assert!(!b.example().output.is_empty(), "{} example empty", b.name);
    }
}
