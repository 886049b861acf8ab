//! The Dynamite benchmark suite: synthetic datasets (Table 1), the 28
//! migration scenarios (Table 2), curated examples, baselines
//! (Dynamite-Enum, Mitra-like, Eirene-like), sensitivity-analysis and
//! user-study harnesses.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod benchmarks;
pub mod curated;
pub mod datasets;
pub mod sensitivity;
pub mod user_study;

pub use benchmarks::{all as all_benchmarks, by_name, Benchmark};
