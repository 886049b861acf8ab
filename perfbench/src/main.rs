//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth-table3|migrate-bulk|serve-live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, closed-loop with a single client, on
//! the library's default worker pool:
//!
//! - `synth-table3` synthesizes all 28 Table-3 scenarios from their
//!   curated examples with `SynthesisConfig::default()`;
//! - `migrate-bulk` migrates and renders seeded generated sources
//!   (~1.5 M records) with each scenario's golden program;
//! - `serve-live` runs a durable, served Yelp-2 session under a seeded
//!   stream of one write batch per 20 point reads.
//!
//! Every output is checked against an independent oracle outside the
//! timed regions; a mismatch counts as a failed operation. The last line
//! of standard output is the result: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`). Lines before it record the
//! run environment, the workload's own figures and exact-repeat counters.
//! A traced run also writes its spans to `perfbench/traces/`.

mod bulk;
mod report;
mod serve;
mod synth;

use std::process::ExitCode;

use report::Outcome;

const USAGE: &str = "usage: dynamite-perfbench --workload <synth-table3|migrate-bulk|serve-live> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(String::new()));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(u64, f64, bool) -> Outcome = match args.workload.as_str() {
        "synth-table3" => synth::run,
        "migrate-bulk" => bulk::run,
        "serve-live" => serve::run,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        report::environment(&args.workload, args.seed, args.seconds, args.trace)
    );
    let outcome = run(args.seed, args.seconds, args.trace);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result_line(args.trace));
    ExitCode::SUCCESS
}
