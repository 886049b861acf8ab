//! Database instances and their Datalog-fact representation (paper §3.3).
//!
//! This crate provides:
//!
//! - [`Value`]: primitive constants plus synthetic record identifiers,
//!   each decomposable into a canonical `(tag, payload)` pair
//!   ([`Value::to_raw`]);
//! - [`TupleStore`] / [`RowRef`] / [`ColumnSlices`]: columnar tuple
//!   storage in structure-of-arrays form (a tag byte-stream plus a
//!   payload word-stream per column, row-hash dedup, borrowed row and
//!   column views) with incremental per-column statistics
//!   ([`ColumnStats`]);
//! - [`Database`] / [`Relation`]: named, insertion-ordered, deduplicated
//!   tuple stores shared with the Datalog engine — `Relation` is the
//!   columnar [`TupleStore`];
//! - [`Instance`] / [`Record`]: nested record forests covering relational,
//!   document, and graph databases uniformly;
//! - [`to_facts`] / [`from_facts`]: the instance ⇄ fact translation of
//!   §3.3, including the `BuildRecord` parent-chasing procedure, each a
//!   walk over the schema's record types resolved once;
//! - [`Instance::flatten`]: a canonical, id-free flattening used to compare
//!   instances and to drive MDP analysis;
//! - [`FlatCodec`]: the same flattening read straight off the facts
//!   `from_facts` would rebuild an instance from, as dictionary-encoded
//!   [`IdTable`]s (the synthesizer's candidate check compares and analyzes
//!   these), built by `from_facts`'s own facts walk.
//!   [`Flattened::from_facts`] is that encoding, decoded.
//!
//! For how this crate fits the rest of the workspace (crate DAG, data
//! flow, a diagram of the tag/payload column streams) see
//! `ARCHITECTURE.md` at the repository root.
//!
//! ```
//! use dynamite_schema::Schema;
//! use dynamite_instance::{Instance, Record, Value, to_facts, from_facts};
//! use std::sync::Arc;
//!
//! let schema = Arc::new(
//!     Schema::parse(
//!         "@document
//!          Univ { id: Int, name: String, Admit { uid: Int, count: Int } }",
//!     )
//!     .unwrap(),
//! );
//! let mut inst = Instance::new(schema.clone());
//! inst.insert(
//!     "Univ",
//!     Record::with_fields(vec![
//!         Value::from(1).into(),
//!         Value::from("U1").into(),
//!         vec![
//!             Record::from_values(vec![1.into(), 10.into()]),
//!             Record::from_values(vec![2.into(), 50.into()]),
//!         ]
//!         .into(),
//!     ]),
//! )
//! .unwrap();
//!
//! let facts = to_facts(&inst);
//! assert_eq!(facts.relation("Univ").unwrap().len(), 1);
//! assert_eq!(facts.relation("Admit").unwrap().len(), 2);
//!
//! let back = from_facts(&facts, schema).unwrap();
//! assert!(inst.canon_eq(&back));
//! ```

pub mod binio;
mod database;
mod facts;
mod flatten;
pub mod hash;
mod intern;
mod json;
mod posting;
mod record;
mod stats;
mod tuple_store;
mod value;

pub use database::{ColumnIndex, Database, Relation};
pub use facts::{
    from_facts, parse_facts, parse_facts_files, to_facts, FactsError, FactsParseError, IdGen,
};
pub use flatten::{EncodedFlat, FlatCodec, FlatTable, Flattened, IdTable};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::Symbol;
pub use json::{parse_document, write_document, JsonError};
pub use posting::RowChange;
pub use record::{Field, Instance, InstanceError, Record};
pub use stats::ColumnStats;
pub use tuple_store::{ColumnSlices, RowRef, TupleStore};
pub use value::Value;
