//! Regenerates Table 3 (main results): per benchmark, example sizes,
//! search-space size, synthesis time, rule statistics, distance to the
//! golden program, and migration time on a generated instance. A last
//! line sums the synthesizer's per-phase times over all benchmarks.
//!
//! Usage: `table3 [--scale N]` (migration instance scale, default 4).

#![forbid(unsafe_code)]

use std::time::Duration;

use dynamite_bench_suite::all_benchmarks;
use dynamite_core::{synthesize, PhaseTimes, SynthesisConfig};
use dynamite_datalog::alpha_equivalent;
use dynamite_migrate::migrate;

fn main() {
    let scale: u64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("Table 3: main synthesis results (migration scale {scale})");
    println!(
        "{:<12} {:>7} {:>7} {:>10} {:>9} {:>7} {:>6} {:>7} {:>6} {:>9}",
        "Benchmark",
        "ExIn",
        "ExOut",
        "Space",
        "Synth(s)",
        "#Rules",
        "Preds",
        "#Optim",
        "Dist",
        "Migr(s)"
    );

    let mut tot_synth = 0.0f64;
    let mut tot_rules = 0usize;
    let mut tot_optim = 0usize;
    let mut tot_dist = 0.0f64;
    let mut tot_migr = 0.0f64;
    let mut phases = PhaseTimes::default();
    let bs = all_benchmarks();
    for b in &bs {
        let ex = b.example();
        let ex_in = ex.input_records();
        let ex_out = ex.output_records();
        let config = SynthesisConfig {
            timeout: Some(Duration::from_secs(600)),
            ..Default::default()
        };
        let result = match synthesize(b.source(), b.target(), &[ex], &config) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<12} synthesis failed: {e}", b.name);
                continue;
            }
        };
        let synth_s = result.stats.elapsed.as_secs_f64();
        phases.add(&result.stats.phases());
        let n_rules = result.program.rules.len();
        let preds_per_rule = result.program.num_body_preds() as f64 / n_rules.max(1) as f64;
        // "# Optim Rules": synthesized rules α-equivalent to golden ones.
        let optim = result
            .program
            .rules
            .iter()
            .zip(&b.golden().rules)
            .filter(|(a, g)| alpha_equivalent(a, g))
            .count();
        let dist = (result.program.num_body_preds() as i64 - b.golden().num_body_preds() as i64)
            .max(0) as f64
            / n_rules.max(1) as f64;

        let source = b.generate_source(scale, 11);
        let (out, report) =
            migrate(&result.program, &source, b.target().clone()).expect("migration succeeds");
        assert!(out.num_records() > 0 || report.facts_out == 0);
        let migr_s = report.total_time().as_secs_f64();

        println!(
            "{:<12} {:>7} {:>7} {:>10} {:>9.3} {:>7} {:>6.1} {:>7} {:>6.2} {:>9.3}",
            b.name,
            ex_in,
            ex_out,
            result.stats.search_space_string(),
            synth_s,
            n_rules,
            preds_per_rule,
            optim,
            dist,
            migr_s
        );
        tot_synth += synth_s;
        tot_rules += n_rules;
        tot_optim += optim;
        tot_dist += dist;
        tot_migr += migr_s;
    }
    let n = bs.len() as f64;
    println!(
        "{:<12} {:>7} {:>7} {:>10} {:>9.3} {:>7.1} {:>6} {:>7.1} {:>6.2} {:>9.3}",
        "Average",
        "-",
        "-",
        "-",
        tot_synth / n,
        tot_rules as f64 / n,
        "-",
        tot_optim as f64 / n,
        tot_dist / n,
        tot_migr / n
    );
    println!("Synthesis phases, total: {phases}");
}
