//! Regenerates Figure 8: the (scripted) user study on Tencent-1 and
//! Retina-1. See DESIGN.md substitution 7: the Dynamite arm is fully
//! reproduced with a scripted user; the manual arm's wall-clock time is a
//! human quantity and is reported from the paper, while its correctness is
//! modeled by bug injection at the paper's observed rate.
//!
//! Usage: `fig8_user_study [--participants N]` (default 5 per arm).

#![forbid(unsafe_code)]

use dynamite_bench_suite::by_name;
use dynamite_bench_suite::user_study::{dynamite_arm, manual_arm};

fn main() {
    let n: usize = std::env::args()
        .skip_while(|a| a != "--participants")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    println!("Figure 8: user study ({n} scripted participants per arm)");
    // Paper-reported human completion times (seconds) for context.
    let paper = [("Tencent-1", 184.0, 1800.0), ("Retina-1", 579.0, 2907.0)];
    for (name, paper_dynamite_s, paper_manual_s) in paper {
        let b = by_name(name).expect("benchmark exists");
        let dy = dynamite_arm(&b, n, 17);
        let ma = manual_arm(&b, n, 17);
        let dy_correct = dy.iter().filter(|p| p.correct).count();
        let ma_correct = ma.iter().filter(|p| p.correct).count();
        let dy_time: f64 = dy.iter().map(|p| p.time.as_secs_f64()).sum::<f64>() / n as f64;
        let dy_queries: f64 = dy.iter().map(|p| p.queries as f64).sum::<f64>() / n as f64;
        println!("--- {name}");
        println!(
            "  Dynamite arm: avg tool time {dy_time:.2}s, avg queries {dy_queries:.1}, correct {dy_correct}/{n}"
        );
        println!("  Manual arm (modeled): correct {ma_correct}/{n} (bug-injection model)");
        println!(
            "  Paper-reported human completion times: Dynamite {paper_dynamite_s}s, manual {paper_manual_s}s"
        );
    }
}
