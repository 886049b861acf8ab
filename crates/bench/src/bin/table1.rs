//! Regenerates Table 1: the datasets and their (synthetic) sizes.
//!
//! Usage: `table1 [--scale N]` (default 4).

#![forbid(unsafe_code)]

use dynamite_bench_suite::datasets;

fn main() {
    let scale: u64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("Table 1: datasets (synthetic stand-ins at scale {scale})");
    println!(
        "{:<10} {:>10} {:>12}  Description",
        "Name", "#Records", "#Facts"
    );
    for ds in datasets::all() {
        let inst = (ds.generate)(scale, 1);
        let facts = dynamite_instance::to_facts(&inst);
        println!(
            "{:<10} {:>10} {:>12}  {}",
            ds.name,
            inst.num_records(),
            facts.num_facts(),
            ds.description
        );
    }
}
