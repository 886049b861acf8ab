//! Regenerates Figure 9a: Dynamite vs the Dynamite-Enum baseline (no MDP
//! learning) across all 28 benchmarks, as cactus-plot rows ("time to solve
//! the first n benchmarks").
//!
//! Usage: `fig9a_enum [--timeout SECS]` (default 60; the paper uses 1 h).

#![forbid(unsafe_code)]

use std::time::Duration;

use dynamite_bench_suite::all_benchmarks;
use dynamite_core::{synthesize, Strategy, SynthesisConfig};

fn main() {
    let timeout: u64 = std::env::args()
        .skip_while(|a| a != "--timeout")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    println!("Figure 9a: Dynamite vs Dynamite-Enum (timeout {timeout}s)");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        let ex = b.example();
        let mut times = [f64::INFINITY; 2];
        for (i, strategy) in [Strategy::MdpGuided, Strategy::Enumerative]
            .into_iter()
            .enumerate()
        {
            let config = SynthesisConfig {
                strategy,
                timeout: Some(Duration::from_secs(timeout)),
                ..Default::default()
            };
            if let Ok(r) = synthesize(b.source(), b.target(), std::slice::from_ref(&ex), &config) {
                times[i] = r.stats.elapsed.as_secs_f64();
            }
        }
        println!(
            "{:<12} dynamite {:>9} enum {:>9}",
            b.name,
            fmt(times[0]),
            fmt(times[1])
        );
        rows.push(times);
    }
    // Cactus rows: sort each solver's times, print cumulative.
    for (i, name) in ["Dynamite", "Dynamite-Enum"].iter().enumerate() {
        let mut ts: Vec<f64> = rows
            .iter()
            .map(|r| r[i])
            .filter(|t| t.is_finite())
            .collect();
        ts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let solved = ts.len();
        let cum: f64 = ts.iter().sum();
        println!(
            "{name}: solved {solved}/28, total time on solved {cum:.1}s, per-count cactus: {}",
            ts.iter()
                .scan(0.0, |acc, t| {
                    *acc += t;
                    Some(format!("{acc:.1}"))
                })
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

fn fmt(t: f64) -> String {
    if t.is_finite() {
        format!("{t:.2}s")
    } else {
        "timeout".to_string()
    }
}
