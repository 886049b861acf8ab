//! Self-check of the synthesis replay the traced `synth-table3` run
//! measures: for all 28 Table-3 scenarios it must reproduce
//! `synthesize` exactly — the same rules, and per rule the same
//! iterations, blocking clauses and MDPs as `RuleSolver::next_consistent`
//! — at the default pool size and on one thread.
//!
//! Synthesis is slow in debug builds; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dynamite_bench_suite::all_benchmarks;
use dynamite_core::{synthesize, SynthesisConfig, Synthesizer};
use dynamite_perfbench::replay::replay;

fn replay_matches_synthesize(threads: Option<usize>) {
    let config = SynthesisConfig {
        threads,
        ..Default::default()
    };
    for b in all_benchmarks() {
        let ex = b.example();
        let examples = std::slice::from_ref(&ex);
        let reference = synthesize(b.source(), b.target(), examples, &config)
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", b.name));
        let replayed = replay(b.source(), b.target(), examples, &config)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", b.name));
        assert_eq!(replayed.mismatch(&reference), None, "{}", b.name);

        let synth = Synthesizer::new(
            b.source().clone(),
            b.target().clone(),
            vec![ex.clone()],
            config.clone(),
        )
        .expect("scenario prepares");
        assert_eq!(
            synth.sketch().rules.len(),
            replayed.rules.len(),
            "{}",
            b.name
        );
        for (i, r) in replayed.rules.iter().enumerate() {
            let mut solver = synth.rule_solver(i).expect("rule solver");
            let (rule, _) = solver
                .next_consistent()
                .expect("no search error")
                .expect("a consistent rule");
            let stats = solver.stats();
            assert_eq!(rule, r.found, "{} rule {i}", b.name);
            assert_eq!(
                (
                    stats.iterations,
                    stats.blocking_clauses,
                    stats.mdps_computed
                ),
                (r.iterations, r.blocking_clauses, r.mdps_computed),
                "{} rule {i}",
                b.name
            );
        }
    }
}

#[test]
fn replay_matches_synthesize_at_default_pool_size() {
    replay_matches_synthesize(None);
}

#[test]
fn replay_matches_synthesize_on_one_thread() {
    replay_matches_synthesize(Some(1));
}
