//! Integration tests reproducing the worked examples of the paper
//! (Examples 1.1, 2.5, 6.1, 6.2, 6.3, 6.6) through the public API.

use cq::containment::ucq_equivalent;
use cq::Ucq;
use datalog::atom::Pred;
use datalog::eval::evaluate;
use datalog::generate::{
    chain_database, dist_le_program, dist_program, equal_program, word_program,
};
use datalog::parser::parse_program;
use nonrec_equivalence::bounded::find_bound_with;
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::unfold::{unfold_nonrecursive, unfold_with_stats};
use nonrec_equivalence::DecisionOptions;

fn buys(recursive_edge: &str) -> datalog::Program {
    parse_program(&format!(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- {recursive_edge}(X, Z), buys(Z, Y)."
    ))
    .unwrap()
}

/// Example 1.1: Π₁ (with `trendy` as a unary guard) is equivalent to a
/// nonrecursive program; Π₂ (with a binary `knows` chain) is not.
#[test]
fn example_1_1_full_story() {
    let goal = Pred::new("buys");
    // Π₁ — note trendy is unary, so we build it directly.
    let pi1 = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), buys(Z, Y).",
    )
    .unwrap();
    let pi1_nonrec = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), likes(Z, Y).",
    )
    .unwrap();
    let r1 = equivalent_to_nonrecursive_with(&pi1, goal, &pi1_nonrec, DecisionOptions::default())
        .unwrap();
    assert!(r1.verdict.is_equivalent());

    // Π₂ and its one-step unfolding are not equivalent, and the
    // counterexample can be replayed through the evaluator.
    let pi2 = buys("knows");
    let pi2_nonrec = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), likes(Z, Y).",
    )
    .unwrap();
    let r2 = equivalent_to_nonrecursive_with(&pi2, goal, &pi2_nonrec, DecisionOptions::default())
        .unwrap();
    match r2.verdict {
        EquivalenceVerdict::RecursiveExceeds(cex) => {
            let rec = evaluate(&pi2, &cex.database);
            let nonrec = evaluate(&pi2_nonrec, &cex.database);
            assert!(rec.relation(goal).contains(&cex.goal_tuple));
            assert!(!nonrec.relation(goal).contains(&cex.goal_tuple));
        }
        other => panic!("Π₂ must strictly exceed its unfolding, got {other:?}"),
    }

    // Π₁ is bounded (depth 2); Π₂ is not bounded at any small depth.
    assert_eq!(
        find_bound_with(&pi1, goal, 4, DecisionOptions::default())
            .unwrap()
            .map(|(k, _)| k),
        Some(2)
    );
    assert!(find_bound_with(&pi2, goal, 3, DecisionOptions::default())
        .unwrap()
        .is_none());
}

/// Example 6.1: `dist_n` unfolds to a single conjunctive query of size 2^n —
/// the exponential blowup that separates Theorem 6.4 from Theorem 5.12.
#[test]
fn example_6_1_exponential_single_disjunct() {
    for n in 1..=6 {
        let (ucq, stats) =
            unfold_with_stats(&dist_program(n), Pred::new(&format!("dist{n}")), usize::MAX)
                .unwrap();
        assert_eq!(stats.disjuncts, 1);
        assert_eq!(ucq.disjuncts[0].body.len(), 1 << n);
    }
}

/// Example 6.2: the `dist≤` variant is correct on chains (paths of length at
/// most 2^n) and also unfolds with exponentially large disjuncts.
#[test]
fn example_6_2_dist_le_semantics_and_unfolding() {
    let n = 2;
    let program = dist_le_program(n);
    let goal = Pred::new(&format!("dist{n}"));
    // Correctness on a chain: all pairs at distance ≤ 4.
    let db = chain_database("e", 6);
    let result = evaluate(&program, &db);
    let reachable = result.relation(goal);
    assert!(reachable.contains(&[
        datalog::Constant::from_usize(0),
        datalog::Constant::from_usize(4)
    ]));
    assert!(!reachable.contains(&[
        datalog::Constant::from_usize(0),
        datalog::Constant::from_usize(5)
    ]));
    // The unfolding has multiple disjuncts (one per way of splitting the
    // "at most" budget), the largest of size 2^n.
    let ucq = unfold_nonrecursive(&program, goal, usize::MAX).unwrap();
    assert!(ucq.len() > 1);
    assert!(ucq.disjuncts.iter().any(|d| d.body.len() == 1 << n));
}

/// Example 6.3: `equal_n` compares the labels of two paths of length 2^n.
#[test]
fn example_6_3_equal_gadget() {
    let n = 2;
    let program = equal_program(n);
    let goal = Pred::new(&format!("equal{n}"));
    assert!(program.is_nonrecursive());
    // Two disjoint all-zero chains of length 4 are "equal".
    let mut db = datalog::Database::new();
    for i in 0..4 {
        db.insert(datalog::Fact::app(
            "e",
            [format!("a{i}").as_str(), format!("a{}", i + 1).as_str()],
        ));
        db.insert(datalog::Fact::app(
            "e",
            [format!("b{i}").as_str(), format!("b{}", i + 1).as_str()],
        ));
        db.insert(datalog::Fact::app("zero", [format!("a{i}").as_str()]));
        db.insert(datalog::Fact::app("zero", [format!("b{i}").as_str()]));
    }
    let result = evaluate(&program, &db);
    assert!(result.relation(goal).contains(&[
        datalog::Constant::new("a0"),
        datalog::Constant::new("a4"),
        datalog::Constant::new("b0"),
        datalog::Constant::new("b4")
    ]));
    // Flip one label on the b-path: no longer equal.
    let mut unequal = db.clone();
    unequal.insert(datalog::Fact::app("one", ["b2"]));
    // (zero(b2) still present, so the pair is still derivable; remove it.)
    let mut strict = datalog::Database::new();
    for fact in unequal.facts() {
        if !(fact.pred == Pred::new("zero") && fact.tuple[0] == datalog::Constant::new("b2")) {
            strict.insert(fact);
        }
    }
    let result = evaluate(&program, &strict);
    assert!(!result.relation(goal).contains(&[
        datalog::Constant::new("a0"),
        datalog::Constant::new("a4"),
        datalog::Constant::new("b0"),
        datalog::Constant::new("b4")
    ]));
}

/// Example 6.6: `word_n` (a linear nonrecursive program) unfolds to 2^n
/// disjuncts, each of size linear in n — the shape behind Theorem 6.7.
#[test]
fn example_6_6_many_small_disjuncts() {
    for n in 2..=6 {
        let (ucq, stats) =
            unfold_with_stats(&word_program(n), Pred::new(&format!("word{n}")), usize::MAX)
                .unwrap();
        assert_eq!(stats.disjuncts, 1 << n);
        assert_eq!(stats.max_disjunct_size, 2 + 3 * n);
        assert!(ucq.consistent_arity());
    }
}

/// The transitive-closure program (Example 2.5) is not equivalent to any of
/// the dist_n programs (each captures only paths of length exactly 2^n).
#[test]
fn transitive_closure_differs_from_every_dist_program() {
    let tc = parse_program(
        "dist1(X, Y) :- e(X, Z), dist1(Z, Y).\n\
         dist1(X, Y) :- e(X, Y).",
    )
    .unwrap();
    let result = equivalent_to_nonrecursive_with(
        &tc,
        Pred::new("dist1"),
        &dist_program(1),
        DecisionOptions::default(),
    )
    .unwrap();
    assert!(!result.verdict.is_equivalent());
}

/// Sanity: the Ucq parser and the unfolder agree on Π₁'s nonrecursive form.
#[test]
fn unfolding_matches_handwritten_ucq() {
    let pi1_nonrec = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), likes(Z, Y).",
    )
    .unwrap();
    let unfolded = unfold_nonrecursive(&pi1_nonrec, Pred::new("buys"), usize::MAX).unwrap();
    let handwritten = Ucq::parse(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), likes(Z, Y).",
    )
    .unwrap();
    assert!(ucq_equivalent(&unfolded, &handwritten));
}
