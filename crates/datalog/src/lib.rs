//! A from-scratch Datalog engine (the workspace's substitute for Soufflé).
//!
//! Provides the AST ([`Program`], [`Rule`], [`Atom`], [`Term`]), a text
//! [parser](parse_program), a pretty-printer (`Display`), and a
//! [stratified semi-naive evaluator](evaluate) over the tuple stores of
//! [`dynamite_instance`].
//!
//! The [`evaluate`] below is the compatibility entry point for borrowed
//! inputs (a single-use [`Evaluator`] over a clone); everything else —
//! the synthesis loop first — uses the reusable [`Evaluator`] context,
//! the one evaluation context: it owns its fact snapshot, cached join
//! indexes, cost-based join planner switch and [`WorkerPool`] for the
//! parallel fixpoint, and shares the one compiled-rule memo
//! ([`RuleCacheHandle`], keyed by the rule and its planned join orders).
//! Maintained output lives one layer up, each keeping its facts in an
//! [`Evaluator`]: [`IncrementalEvaluator`] in memory,
//! [`DurableEvaluator`] on disk, [`ServedEvaluator`] for demand-driven
//! point queries. The engine's invariants — deterministic output at any
//! thread count, memo-key soundness, delta-first variants — are
//! documented on [`Evaluator`]'s module source (`engine.rs`); the
//! workspace-level picture lives in `ARCHITECTURE.md` at the repository
//! root.
//!
//! ```
//! use dynamite_datalog::{evaluate, Program};
//! use dynamite_instance::Database;
//!
//! let program = Program::parse(
//!     "Path(x, y) :- Edge(x, y).
//!      Path(x, z) :- Path(x, y), Edge(y, z).",
//! )
//! .unwrap();
//! let mut edges = Database::new();
//! edges.insert("Edge", vec![1.into(), 2.into()]);
//! edges.insert("Edge", vec![2.into(), 3.into()]);
//! let out = evaluate(&program, &edges).unwrap();
//! assert_eq!(out.relation("Path").unwrap().len(), 3);
//! ```

#![forbid(unsafe_code)]

mod ast;
pub mod durable;
mod engine;
mod eval;
pub mod fault;
mod governor;
pub mod incremental;
pub mod legacy;
mod parse;
pub mod pool;
pub mod query;

pub use ast::{
    alpha_equivalent, normalize_singletons, Atom, Literal, Program, Rule, Term, WellFormedError,
};
pub use durable::{
    DurableError, DurableEvaluator, DurableOptions, GroupCommit, RecoveryReport, ScrubReport,
};
pub use engine::{reorder_default, resolve_reorder, Evaluator, RuleCacheHandle};
pub use eval::{evaluate, EvalError, ResourceTrip};
pub use governor::{resolve_fact_budget, Governor, ResourceLimits};
pub use incremental::{DriftError, IncrementalEvaluator, OutputDelta, RelationDrift};
pub use parse::{parse_program, ParseError};
pub use pool::WorkerPool;
pub use query::{QueryStats, ServedEvaluator};
