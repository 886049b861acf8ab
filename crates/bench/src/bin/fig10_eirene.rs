//! Regenerates Figure 10: Dynamite vs the Eirene-like baseline on the four
//! relational→relational benchmarks — synthesis time (10a) and mapping
//! quality as redundant-predicate distance to the optimal mapping (10b).

#![forbid(unsafe_code)]

use std::time::Duration;

use dynamite_bench_suite::baselines::eirene::{distance_to_golden, synthesize_eirene};
use dynamite_bench_suite::by_name;
use dynamite_core::{synthesize, SynthesisConfig};

fn main() {
    println!("Figure 10: Dynamite vs Eirene-like baseline");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>10}",
        "Benchmark", "Dyn time(s)", "Eir time(s)", "Dyn dist", "Eir dist"
    );
    for name in ["MLB-3", "Airbnb-3", "Patent-3", "Bike-3"] {
        let b = by_name(name).expect("benchmark exists");
        let ex = b.example();
        let config = SynthesisConfig {
            timeout: Some(Duration::from_secs(120)),
            ..Default::default()
        };
        let dy = synthesize(b.source(), b.target(), std::slice::from_ref(&ex), &config)
            .expect("dynamite solves rel->rel benchmarks");
        let dy_dist = distance_to_golden(&dy.program, b.golden());
        match synthesize_eirene(b.source(), b.target(), &ex) {
            Ok(ei) => {
                let ei_dist = distance_to_golden(&ei.program, b.golden());
                println!(
                    "{:<12} {:>12.3} {:>12.3} {:>10.2} {:>10.2}",
                    name,
                    dy.stats.elapsed.as_secs_f64(),
                    ei.time.as_secs_f64(),
                    dy_dist,
                    ei_dist
                );
            }
            Err(e) => println!("{name:<12} eirene failed: {e}"),
        }
    }
}
