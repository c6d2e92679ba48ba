//! # datalog
//!
//! Datalog substrate for the reproduction of Chaudhuri & Vardi, *On the
//! Equivalence of Recursive and Nonrecursive Datalog Programs* (PODS 1992 /
//! JCSS 1997).
//!
//! This crate provides everything "below" the paper's contribution:
//!
//! * an interned AST for Datalog programs ([`Atom`], [`Rule`], [`Program`]),
//! * a parser for the usual textual syntax ([`parser::parse_program`]),
//! * the predicate dependency graph and the recursive / nonrecursive /
//!   linear classification ([`depgraph::DependencyGraph`]),
//! * an in-memory relational store ([`Database`]) with lazily indexed
//!   relations ([`index::RelationIndex`]) and naive, semi-naive, and
//!   indexed-join bottom-up evaluation ([`eval::evaluate`],
//!   [`plan::JoinPlan`]),
//! * a goal-directed planning layer: bound/free adornments under a
//!   configurable SIPS ([`adorn`]) and the magic-set rewrite ([`magic`]),
//!   surfaced as [`eval::Strategy::Magic`] via [`eval::evaluate_goal_with`],
//! * program validation ([`validate`]) and statistics ([`stats`]),
//! * generators for the paper's program families and for random instances
//!   ([`generate`]).
//!
//! The decision procedures themselves live in the `nonrec-equivalence`
//! crate; conjunctive queries in `cq`; automata in `automata`.
//!
//! ## Quick example
//!
//! ```
//! use datalog::parser::parse_program;
//! use datalog::generate::chain_database;
//! use datalog::eval::evaluate;
//! use datalog::atom::Pred;
//!
//! let program = parse_program(
//!     "p(X, Y) :- e(X, Z), p(Z, Y).\n\
//!      p(X, Y) :- e(X, Y).",
//! ).unwrap();
//! assert!(program.is_recursive());
//! assert!(program.is_linear());
//!
//! let db = chain_database("e", 4);
//! let result = evaluate(&program, &db);
//! assert_eq!(result.relation(Pred::new("p")).len(), 10); // all 4+3+2+1 paths
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adorn;
pub mod atom;
pub mod database;
pub mod depgraph;
pub mod error;
pub mod eval;
pub mod generate;
pub mod index;
pub mod intern;
pub mod lexer;
pub mod magic;
pub mod parser;
pub mod plan;
pub mod program;
pub mod rule;
pub mod stats;
pub mod substitution;
pub mod term;
pub mod validate;

pub use atom::{Atom, Fact, Pred};
pub use database::{Database, Relation};
pub use program::Program;
pub use rule::Rule;
pub use substitution::Substitution;
pub use term::{Constant, Term, Var};
