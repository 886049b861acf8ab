//! Regenerates Figures 7, 11, and 12: sensitivity to the number and
//! quality of example records.
//!
//! Usage: `fig7_sensitivity [--trials N] [--timeout SECS] [--bench NAME]`
//! (defaults: 10 trials, 20 s timeout, all 28 benchmarks; the paper uses
//! 100 trials and a 10-minute timeout).

#![forbid(unsafe_code)]

use std::time::Duration;

use dynamite_bench_suite::sensitivity::{run, SensitivityOptions};
use dynamite_bench_suite::{all_benchmarks, by_name};

fn arg(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let trials: usize = arg("--trials").and_then(|s| s.parse().ok()).unwrap_or(10);
    let timeout: u64 = arg("--timeout").and_then(|s| s.parse().ok()).unwrap_or(20);
    let only = arg("--bench");
    let opts = SensitivityOptions {
        trials,
        timeout: Duration::from_secs(timeout),
        ..Default::default()
    };
    let benches = match only {
        Some(name) => vec![by_name(&name).expect("unknown benchmark")],
        None => all_benchmarks(),
    };
    println!(
        "Figures 7/11/12: sensitivity ({} trials per size, {}s timeout)",
        trials, timeout
    );
    for b in &benches {
        println!("--- {}", b.name);
        println!("{:>3} {:>10} {:>12}", "r", "time(s)", "success(%)");
        for p in run(b, &opts) {
            println!(
                "{:>3} {:>10.3} {:>12.1}",
                p.r,
                p.avg_time.as_secs_f64(),
                p.success_rate()
            );
        }
    }
}
