//! Record-type schema representation for Dynamite (paper §3.1).
//!
//! A schema `S` maps *names* to *type definitions*: a name is either a
//! record type (relational table, JSON document, graph node/edge table) or
//! an attribute of primitive type. Nested record types (e.g. a JSON array
//! of sub-documents) are record types that appear as an attribute of
//! another record type.
//!
//! ```
//! use dynamite_schema::{Schema, PrimType};
//!
//! // The motivating example from §2 of the paper.
//! let schema = Schema::parse(
//!     "@document
//!      Univ { id: Int, name: String, Admit { uid: Int, count: Int } }",
//! )
//! .unwrap();
//!
//! assert_eq!(schema.top_level_records().collect::<Vec<_>>(), vec!["Univ"]);
//! assert!(schema.is_nested("Admit"));
//! assert_eq!(schema.parent("Admit"), Some("Univ"));
//! assert_eq!(schema.prim_type("count"), Some(PrimType::Int));
//! ```

#![forbid(unsafe_code)]

mod dsl;
mod error;
mod types;

pub use dsl::parse_schema;
pub use error::SchemaError;
pub use types::{DbKind, PrimType, Schema, TypeDef};
