//! # automata
//!
//! Word and tree automata (Section 4 of Chaudhuri & Vardi, *On the
//! Equivalence of Recursive and Nonrecursive Datalog Programs*): the
//! machinery behind the paper's upper bounds.
//!
//! * [`word`] — nondeterministic finite automata on words: boolean
//!   operations (Prop. 4.1), emptiness (Prop. 4.2), and on-the-fly
//!   containment (Prop. 4.3), the paper's track for *linear* Datalog
//!   programs.  The decision procedures no longer use it (the tree search
//!   explores far fewer pairs on them); it remains as a test oracle.
//! * [`tree`] — nondeterministic top-down tree automata: boolean operations
//!   (Prop. 4.4), linear-time emptiness with witness extraction
//!   (Prop. 4.5), bottom-up determinization / complementation, and
//!   containment with antichain optimisation (Prop. 4.6): one min-subset
//!   worklist search, with plain rounds as its reference oracle
//!   ([`tree::containment::Schedule`]), used for arbitrary Datalog
//!   programs.
//!
//! Both modules are independent of Datalog: states are dense integers and
//! alphabets are generic, so the automata can be reused for any
//! symbolic-decision-procedure purpose.
//!
//! ```
//! use automata::tree::{Tree, TreeAutomaton};
//! use automata::tree::containment::{contained_in_with, ContainmentOptions};
//!
//! // Trees of binary 'a' nodes over 'b' leaves …
//! let mut all = TreeAutomaton::new(1);
//! all.add_initial(0);
//! all.add_transition(0, 'a', vec![0, 0]);
//! all.add_transition(0, 'b', vec![]);
//! // … versus the single leaf 'b'.
//! let mut just_leaf = TreeAutomaton::new(1);
//! just_leaf.add_initial(0);
//! just_leaf.add_transition(0, 'b', vec![]);
//!
//! let options = ContainmentOptions::default();
//! assert!(contained_in_with(&just_leaf, &all, options).is_contained());
//! let refutation = contained_in_with(&all, &just_leaf, options);
//! assert!(refutation.witness().unwrap().height() > 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dot;
pub mod tree;
pub mod word;

pub use tree::{Tree, TreeAutomaton};
pub use word::Nfa;
