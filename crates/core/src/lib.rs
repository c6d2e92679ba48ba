//! # nonrec-equivalence
//!
//! Decision procedures for the containment and equivalence of recursive and
//! nonrecursive Datalog programs, reproducing Chaudhuri & Vardi, *On the
//! Equivalence of Recursive and Nonrecursive Datalog Programs* (PODS 1992 /
//! JCSS 54, 1997).
//!
//! The paper's pipeline, and this crate's module map:
//!
//! | Paper | Module |
//! |---|---|
//! | Expansion / unfolding expansion trees (§2.3, Fig. 1) | [`expansion`] |
//! | Nonrecursive program → union of conjunctive queries (§6, Ex. 6.1/6.6) | [`unfold`] |
//! | Proof trees over `var(Π)`, connectedness, distinguished occurrences (§5.1, Fig. 2) | [`proof_tree`], [`labels`] |
//! | `A_ptrees(Q,Π)` (Prop. 5.9) | [`ptrees_automaton`] |
//! | `A_θ(Q,Π)` (Prop. 5.10) | [`cq_automaton`] |
//! | Π ⊆ UCQ via automata containment (Thms. 5.11, 5.12) | [`containment`] |
//! | UCQ ⊆ Π via canonical databases (\[CK86]) | [`cq_in_datalog`] |
//! | Π vs. nonrecursive Π′: containment and equivalence (Thms. 3.2, 6.4, 6.5, 6.7) | [`equivalence`] |
//! | Equivalence to the own depth-k unfolding (recursion elimination) | [`bounded`], [`mod@optimize`] |
//! | First-order properties of expansions, e.g. strong non-redundancy (§3) | [`properties`] |
//! | Semantics-preserving program rewrites built on containment (§1 motivation) | [`mod@optimize`] |
//!
//! ## Entry points
//!
//! A `Π(goal) ⊆ Θ` decision has two ways in:
//! [`containment::datalog_contained_in_ucq_in`] takes the
//! [`DecisionCache`] and the [`metrics::MetricsSink`] explicitly, and
//! [`containment::datalog_contained_in_ucq_with`] is the same call with
//! [`DecisionCache::global`] and [`metrics::NoMetrics`].  Every other
//! procedure takes its [`DecisionOptions`] explicitly; there are no
//! default-argument twins, so callers pass `DecisionOptions::default()`.
//!
//! ## Quick start
//!
//! Example 1.1 of the paper, end to end:
//!
//! ```
//! use datalog::parser::parse_program;
//! use datalog::atom::Pred;
//! use nonrec_equivalence::equivalence::equivalent_to_nonrecursive_with;
//! use nonrec_equivalence::DecisionOptions;
//!
//! // Π₂: buys via "knows" chains — inherently recursive.
//! let recursive = parse_program(
//!     "buys(X, Y) :- likes(X, Y).\n\
//!      buys(X, Y) :- knows(X, Z), buys(Z, Y).").unwrap();
//! // Candidate nonrecursive form (one unfolding step).
//! let nonrecursive = parse_program(
//!     "buys(X, Y) :- likes(X, Y).\n\
//!      buys(X, Y) :- knows(X, Z), likes(Z, Y).").unwrap();
//!
//! let result = equivalent_to_nonrecursive_with(
//!     &recursive,
//!     Pred::new("buys"),
//!     &nonrecursive,
//!     DecisionOptions::default(),
//! )
//! .unwrap();
//! assert!(!result.verdict.is_equivalent());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounded;
pub mod cache;
pub mod containment;
pub mod cq_automaton;
pub mod cq_in_datalog;
pub mod equivalence;
pub mod expansion;
pub mod labels;
pub mod lru;
pub mod optimize;
pub mod proof_tree;
pub mod properties;
pub mod ptrees_automaton;
pub mod snapshot;
pub mod unfold;
pub mod unify;

pub use cache::{CacheLimits, CacheSizes, CacheStats, DecisionCache, ProgramKey};
pub use containment::{
    datalog_contained_in_ucq_in, datalog_contained_in_ucq_with, ContainmentResult, Counterexample,
    DecisionOptions,
};
pub use cq_in_datalog::{cq_contained_in_datalog_with, ucq_contained_in_datalog_with};
pub use equivalence::{
    datalog_contained_in_nonrecursive_with, equivalent_to_nonrecursive_with, EquivalenceResult,
    EquivalenceVerdict,
};
pub use optimize::{eliminate_recursion_with, optimize, OptimizeOptions, OptimizeReport};
pub use snapshot::{SnapshotError, SNAPSHOT_VERSION};
pub use unfold::{expansions_up_to_depth_limited, unfold_nonrecursive};
