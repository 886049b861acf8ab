//! Support code for the repository benchmark (`src/main.rs`): an
//! in-memory span tracer, a replay of the synthesis loop through the
//! library's public calls, and small statistics/JSON helpers.
//!
//! Everything here measures the library from outside: spans wrap the
//! benchmark's own calls into each layer's public functions, and no
//! counter, switch or environment variable is added to the library.

pub mod replay;
pub mod trace;
pub mod util;
