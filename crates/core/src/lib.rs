//! Dynamite's synthesis core: Datalog program synthesis from input-output
//! examples (paper §4–§5).
//!
//! Pipeline (Figure 1):
//!
//! 1. [`infer_attr_mapping`] — attribute mapping `Ψ` from example values;
//! 2. [`generate_sketch`] — a Datalog program sketch with holes whose
//!    domains come from `Ψ`;
//! 3. [`synthesize`] / [`Synthesizer`] — sketch completion by repeated
//!    model sampling with MDP-generalized blocking clauses;
//! 4. [`interactive`] — the interactive disambiguation mode of §5.
//!
//! ```
//! use dynamite_core::{synthesize, SynthesisConfig};
//! use dynamite_core::test_fixtures::motivating;
//!
//! let (source, target, example) = motivating();
//! let result = synthesize(&source, &target, &[example], &SynthesisConfig::default()).unwrap();
//! assert_eq!(result.program.rules.len(), 1);
//! ```

#![forbid(unsafe_code)]

mod analyze;
mod attr_map;
mod example;
pub mod interactive;
mod simplify;
mod sketch;
mod synthesizer;
pub mod test_fixtures;

pub use analyze::{generalize, mdp_set, mdp_set_ids, MdpResult, PatternLit};
pub use attr_map::{infer_attr_mapping, AttrMapping};
pub use example::Example;
pub use simplify::{simplify_program, simplify_rule};
pub use sketch::{
    generate_sketch, BodyAtom, BodySlot, DomainElem, HeadAtom, HeadSlot, Hole, HoleKind,
    RuleSketch, Sketch, SketchOptions,
};
pub use synthesizer::{
    synthesize, CandidateLimits, PhaseTimes, RuleSolver, RuleStats, Strategy, SynthStats,
    Synthesis, SynthesisConfig, SynthesisError, Synthesizer, TripCounts,
};
