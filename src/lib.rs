//! Facade crate re-exporting the Dynamite workspace.
//!
//! Dynamite synthesizes Datalog programs from input-output examples to
//! migrate data between relational, document, and graph databases
//! (reproduction of "Data Migration using Datalog Program Synthesis",
//! VLDB 2020). See the individual crates for details:
//!
//! - [`schema`]: record-type schemas (§3.1)
//! - [`instance`]: database instances and Datalog facts (§3.3)
//! - [`datalog`]: the Datalog engine (substitution for Soufflé)
//! - [`smt`]: CDCL SAT + finite-domain equality solver (substitution for Z3)
//! - [`core`]: the synthesis algorithm (§4) and interactive mode (§5)
//! - [`migrate`]: the end-to-end migration pipeline
//!
//! Start with `ARCHITECTURE.md` at the repository root for the crate
//! dependency DAG, the example → synthesizer → engine → storage data
//! flow, the threading model, and the structure-of-arrays storage
//! layout; `DESIGN.md` records the decisions behind each subsystem and
//! `BENCHMARKS.md` how to run and read the `perfbench` benchmark.

#![forbid(unsafe_code)]

pub use dynamite_core as core;
pub use dynamite_datalog as datalog;
pub use dynamite_instance as instance;
pub use dynamite_migrate as migrate;
pub use dynamite_schema as schema;
pub use dynamite_smt as smt;
