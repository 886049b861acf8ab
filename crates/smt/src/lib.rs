//! SAT/SMT substrate for Dynamite (the workspace's substitute for Z3).
//!
//! Two layers:
//!
//! - [`sat`]: a CDCL SAT solver (two-watched literals, first-UIP clause
//!   learning, VSIDS activities, phase saving, Luby restarts, incremental
//!   clause addition);
//! - [`fd`]: finite-domain equality logic over interned constants — the
//!   exact fragment the paper's sketch encoding uses (`x = c` domain
//!   constraints plus `x = y` / `x ≠ y` blocking clauses, §4.3).
//!
//! ```
//! use dynamite_smt::{FdLit, FdSolver};
//!
//! let mut s = FdSolver::new();
//! let a = s.constant("id1");
//! let b = s.constant("id2");
//! let x = s.new_var("x1", &[a, b]).unwrap();
//! let y = s.new_var("x2", &[a, b]).unwrap();
//! s.add_clause(&[FdLit::VarNe(x, y)]).unwrap();
//! let model = s.solve().unwrap();
//! assert_ne!(model.value(x), model.value(y));
//! ```

#![forbid(unsafe_code)]

pub mod fd;
pub mod sat;

pub use fd::{ConstId, FdError, FdLit, FdModel, FdSolver, FdVar};
pub use sat::{Lit, SatSolver, SatStats, Var};
