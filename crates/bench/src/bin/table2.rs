//! Regenerates Table 2: benchmark statistics (source/target type,
//! number of record types, number of attributes).

#![forbid(unsafe_code)]

use dynamite_bench_suite::all_benchmarks;

fn main() {
    println!("Table 2: benchmark statistics");
    println!(
        "{:<12} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7}",
        "Benchmark", "SrcT", "#Recs", "#Attrs", "TgtT", "#Recs", "#Attrs"
    );
    let (mut sr, mut sa, mut tr, mut ta) = (0usize, 0usize, 0usize, 0usize);
    let bs = all_benchmarks();
    for b in &bs {
        let (sk, tk) = b.kinds();
        println!(
            "{:<12} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7}",
            b.name,
            sk.code(),
            b.source().num_records(),
            b.source().num_attrs(),
            tk.code(),
            b.target().num_records(),
            b.target().num_attrs()
        );
        sr += b.source().num_records();
        sa += b.source().num_attrs();
        tr += b.target().num_records();
        ta += b.target().num_attrs();
    }
    let n = bs.len();
    println!(
        "{:<12} {:>4} {:>6.1} {:>7.1} {:>4} {:>6.1} {:>7.1}",
        "Average",
        "-",
        sr as f64 / n as f64,
        sa as f64 / n as f64,
        "-",
        tr as f64 / n as f64,
        ta as f64 / n as f64
    );
}
