//! Regenerates Figure 9b: Dynamite vs the Mitra-like baseline on the four
//! document→relational benchmarks.
//!
//! Usage: `fig9b_mitra [--timeout SECS]` (default 120).

#![forbid(unsafe_code)]

use std::time::Duration;

use dynamite_bench_suite::baselines::mitra::synthesize_mitra;
use dynamite_bench_suite::by_name;
use dynamite_core::{synthesize, SynthesisConfig};

fn main() {
    let timeout: u64 = std::env::args()
        .skip_while(|a| a != "--timeout")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    println!("Figure 9b: Dynamite vs Mitra-like baseline (timeout {timeout}s)");
    println!(
        "{:<12} {:>14} {:>14} {:>12}",
        "Benchmark", "Dynamite(s)", "Mitra(s)", "Mitra cands"
    );
    for name in ["Yelp-1", "IMDB-1", "DBLP-1", "Mondial-1"] {
        let b = by_name(name).expect("benchmark exists");
        let ex = b.example();
        let config = SynthesisConfig {
            timeout: Some(Duration::from_secs(timeout)),
            ..Default::default()
        };
        let dy = synthesize(b.source(), b.target(), std::slice::from_ref(&ex), &config)
            .map(|r| r.stats.elapsed.as_secs_f64());
        let mi = synthesize_mitra(b.source(), b.target(), &ex, Duration::from_secs(timeout));
        match (&dy, &mi) {
            (Ok(d), Ok(m)) => println!(
                "{:<12} {:>14.3} {:>14.3} {:>12}",
                name,
                d,
                m.time.as_secs_f64(),
                m.candidates
            ),
            _ => println!(
                "{:<12} dynamite: {:?} mitra: {:?}",
                name,
                dy.map(|d| format!("{d:.3}s")).map_err(|e| e.to_string()),
                mi.as_ref()
                    .map(|m| format!("{:.3}s", m.time.as_secs_f64()))
                    .map_err(|e| e.to_string())
            ),
        }
    }
}
