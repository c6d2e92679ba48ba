//! Integration tests for the Section 3 property checking (strong
//! non-redundancy) and for the decision options / ablations.

use datalog::atom::Pred;
use datalog::generate::{transitive_closure, transitive_closure_nonlinear};
use datalog::parser::parse_program;
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_with, is_chain_program, DecisionOptions,
};
use nonrec_equivalence::properties::{strongly_nonredundant_up_to, NonRedundancy};

#[test]
fn transitive_closure_is_strongly_nonredundant() {
    let result = strongly_nonredundant_up_to(&transitive_closure("e", "ep"), Pred::new("p"), 6);
    assert!(result.holds());
}

#[test]
fn redundant_programs_are_detected_with_a_witness_height() {
    let program = parse_program(
        "p(X, Y) :- e(X, Y), q(X, Y), r(X, Y).\n\
         q(X, Y) :- e(X, Y).\n\
         r(X, Y) :- s(X, Y).",
    )
    .unwrap();
    match strongly_nonredundant_up_to(&program, Pred::new("p"), 4) {
        NonRedundancy::Violated { height, duplicate } => {
            assert_eq!(height, 2);
            assert!(duplicate.starts_with("e("));
        }
        other => panic!("expected a violation, got {other:?}"),
    }
}

#[test]
fn nonrecursive_programs_get_an_exhaustive_answer() {
    let program = parse_program(
        "top(X) :- mid(X), mid(X).\n\
         mid(X) :- base(X).",
    )
    .unwrap();
    // The duplicated IDB atom unfolds to a duplicated EDB atom.
    let result = strongly_nonredundant_up_to(&program, Pred::new("top"), 3);
    assert!(!result.holds());

    let clean = parse_program(
        "top(X) :- mid(X), other(X).\n\
         mid(X) :- base(X).",
    )
    .unwrap();
    assert_eq!(
        strongly_nonredundant_up_to(&clean, Pred::new("top"), 3),
        NonRedundancy::HoldsUpTo {
            height: 3,
            exhaustive: true
        }
    );
}

#[test]
fn chain_program_detection_is_stricter_than_linearity() {
    assert!(is_chain_program(&transitive_closure("e", "e")));
    assert!(!is_chain_program(&transitive_closure_nonlinear("e")));
    // A linear-but-not-chain program: two IDB subgoals, only one recursive.
    let program = parse_program(
        "p(X, Y) :- q(X, Z), p(Z, Y).\n\
         p(X, Y) :- q(X, Y).\n\
         q(X, Y) :- e(X, Y).",
    )
    .unwrap();
    assert!(program.is_linear());
    assert!(!is_chain_program(&program));
}

#[test]
fn antichain_and_exhaustive_containment_agree() {
    // Ablation: the antichain optimisation must not change any verdict.
    let program = transitive_closure_nonlinear("e");
    for k in 1..=3 {
        let ucq = cq::generate::bounded_path_ucq_binary("e", k);
        let with = datalog_contained_in_ucq_with(
            &program,
            Pred::new("p"),
            &ucq,
            DecisionOptions {
                antichain: true,
                max_pairs: None,
                ..DecisionOptions::default()
            },
        )
        .unwrap();
        let without = datalog_contained_in_ucq_with(
            &program,
            Pred::new("p"),
            &ucq,
            DecisionOptions {
                antichain: false,
                max_pairs: None,
                ..DecisionOptions::default()
            },
        )
        .unwrap();
        assert_eq!(with.contained, without.contained, "k = {k}");
        assert!(with.stats.explored <= without.stats.explored);
    }
}

#[test]
fn resource_limit_is_reported_as_an_error() {
    let program = transitive_closure_nonlinear("e");
    let ucq = cq::generate::bounded_path_ucq_binary("e", 3);
    let result = datalog_contained_in_ucq_with(
        &program,
        Pred::new("p"),
        &ucq,
        DecisionOptions {
            antichain: true,
            max_pairs: Some(1),
            ..DecisionOptions::default()
        },
    );
    assert!(result.is_err());
}
