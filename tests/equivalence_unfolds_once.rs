//! An `equivalence` decision unfolds its nonrecursive candidate once.
//!
//! Every unfolding renames rule variables apart with fresh interned
//! symbols, so a second unfolding of the candidate shows up as extra growth
//! of the interner.  The measurement reads the process-wide interned count,
//! so this file holds a single test: nothing else interns concurrently.

use cq::Ucq;
use datalog::atom::Pred;
use datalog::eval::Strategy;
use datalog::intern::interned_count;
use datalog::parser::parse_program;
use nonrec_equivalence::containment::{datalog_contained_in_ucq_with, DecisionOptions};
use nonrec_equivalence::cq_in_datalog::ucq_contained_in_datalog_with;
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::unfold::unfold_nonrecursive;

/// Symbols interned while `f` runs.
fn interned_by<T>(f: impl FnOnce() -> T) -> usize {
    let before = interned_count();
    let result = f();
    let grown = interned_count() - before;
    drop(result);
    grown
}

#[test]
fn equivalence_interns_like_one_unfold_and_its_two_checks() {
    // Example 1.1's Π₂ against its one-step candidate: the canonical
    // checks pass and the automata direction refutes, so both run.
    let program = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), buys(Z, Y).",
    )
    .unwrap();
    let candidate = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), likes(Z, Y).",
    )
    .unwrap();
    let goal = Pred::new("buys");
    let options = DecisionOptions {
        use_cache: false,
        ..DecisionOptions::default()
    };

    let whole = || {
        let result = equivalent_to_nonrecursive_with(&program, goal, &candidate, options).unwrap();
        assert!(matches!(
            result.verdict,
            EquivalenceVerdict::RecursiveExceeds(_)
        ));
        result
    };
    let parts = || {
        let unfolding: Ucq = unfold_nonrecursive(&candidate, goal, options.max_unfold).unwrap();
        assert!(ucq_contained_in_datalog_with(
            &unfolding,
            &program,
            goal,
            Strategy::Auto
        ));
        let result = datalog_contained_in_ucq_with(&program, goal, &unfolding, options).unwrap();
        assert!(!result.contained);
        (unfolding, result)
    };

    // Warm up: the first runs intern the names every later run reuses.
    whole();
    parts();

    let by_parts = interned_by(parts);
    assert!(by_parts > 0, "an unfolding interns fresh variables");
    assert_eq!(
        interned_by(whole),
        by_parts,
        "an equivalence must intern exactly what one unfold and its two checks do"
    );
}
