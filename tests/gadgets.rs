//! Integration tests for the Section 6 gadget families (`dist`, `dist≤`,
//! `equal`, `word`) and the succinctness phenomena they exhibit.

use cq::containment::ucq_contained_in;
use datalog::atom::Pred;
use datalog::generate::{chain_database, dist_le_program, dist_program, word_program};
use datalog::parser::parse_program;
use nonrec_equivalence::equivalence::{
    datalog_contained_in_nonrecursive_with, nonrecursive_contained_in_datalog_with,
};
use nonrec_equivalence::unfold::unfold_with_stats;
use nonrec_equivalence::DecisionOptions;

/// The blowup table of Examples 6.1 vs. 6.6: `dist_n` has one disjunct of
/// size Θ(2^n); `word_n` has 2^n disjuncts of size Θ(n).
#[test]
fn succinctness_profiles_of_dist_and_word() {
    for n in 1..=7usize {
        let (_, dist) =
            unfold_with_stats(&dist_program(n), Pred::new(&format!("dist{n}")), usize::MAX)
                .unwrap();
        assert_eq!(dist.disjuncts, 1);
        assert_eq!(dist.max_disjunct_size, 2 + 2 * (1 << n));
        if n >= 2 {
            let (_, word) =
                unfold_with_stats(&word_program(n), Pred::new(&format!("word{n}")), usize::MAX)
                    .unwrap();
            assert_eq!(word.disjuncts, 1 << n);
            assert_eq!(word.max_disjunct_size, 2 + 3 * n);
        }
    }
}

/// dist_n (paths of exactly 2^n) is contained in dist≤_n (paths of at most
/// 2^n) but not conversely — checked through the full recursive-vs-
/// nonrecursive machinery by treating dist_n as the "recursive" input.
#[test]
fn dist_exact_contained_in_dist_at_most() {
    let n = 2;
    let exact = dist_program(n);
    let at_most = dist_le_program(n);
    let goal = Pred::new(&format!("dist{n}"));
    // exact ⊆ at_most (both nonrecursive; the general procedure still applies).
    let forward =
        datalog_contained_in_nonrecursive_with(&exact, goal, &at_most, DecisionOptions::default())
            .unwrap();
    assert!(forward.result.contained);
    // at_most ⊄ exact: the empty path (length 0) is only in at_most.
    let backward =
        nonrecursive_contained_in_datalog_with(&at_most, goal, &exact, DecisionOptions::default())
            .unwrap();
    assert!(backward.is_err());
}

/// The transitive closure program is contained in `dist≤_n`-style bounded
/// reachability only in the direction bounded ⊆ recursive.
#[test]
fn bounded_reachability_is_contained_in_transitive_closure() {
    let tc = parse_program(
        "p(X, Y) :- e(X, Z), p(Z, Y).\n\
         p(X, Y) :- e(X, Y).",
    )
    .unwrap();
    // Rename the dist goal to p for a common vocabulary.
    let bounded = parse_program(
        "p(X, Y) :- e(X, Y).\n\
         p(X, Y) :- e(X, Z), e(Z, Y).\n\
         p(X, Y) :- e(X, Z1), e(Z1, Z2), e(Z2, Y).",
    )
    .unwrap();
    let goal = Pred::new("p");
    assert!(nonrecursive_contained_in_datalog_with(
        &bounded,
        goal,
        &tc,
        DecisionOptions::default()
    )
    .unwrap()
    .is_ok());
    let reverse =
        datalog_contained_in_nonrecursive_with(&tc, goal, &bounded, DecisionOptions::default())
            .unwrap();
    assert!(!reverse.result.contained);
    // The counterexample is a path of length 4.
    assert_eq!(
        reverse.result.counterexample.unwrap().expansion.body.len(),
        4
    );
}

/// The dist family is semantically correct: dist_n answers exactly the pairs
/// at distance 2^n on chain databases.
#[test]
fn dist_program_counts_exact_powers_of_two() {
    for n in 1..=3usize {
        let program = dist_program(n);
        let goal = Pred::new(&format!("dist{n}"));
        let len = (1 << n) + 3;
        let db = chain_database("e", len);
        let result = datalog::eval::evaluate(&program, &db);
        // Pairs (i, i + 2^n) for i = 0 .. len - 2^n.
        assert_eq!(result.relation(goal).len(), len - (1 << n) + 1);
    }
}

/// Unfolding sizes: the dist≤ family mixes both blowups (many disjuncts,
/// some of them exponentially large).
#[test]
fn dist_le_unfolding_mixes_both_blowups() {
    let n = 3;
    let (ucq, stats) = unfold_with_stats(
        &dist_le_program(n),
        Pred::new(&format!("dist{n}")),
        usize::MAX,
    )
    .unwrap();
    assert!(stats.disjuncts > 1);
    assert!(stats.max_disjunct_size >= 2 + 2 * (1 << n) - 2);
    assert!(ucq.consistent_arity());
    // Every smaller-length disjunct is contained in the dist≤ semantics:
    // sanity-check monotonicity of the family.
    let smaller = unfold_with_stats(
        &dist_le_program(n - 1),
        Pred::new(&format!("dist{}", n - 1)),
        usize::MAX,
    )
    .unwrap()
    .0;
    // dist_{n-1} (≤ 2^{n-1}) is contained in dist_n (≤ 2^n) once the head
    // predicates are aligned; compare as raw UCQs with positional heads.
    let relabel = |ucq: &cq::Ucq| -> cq::Ucq {
        ucq.disjuncts
            .iter()
            .map(|d| {
                let mut q = d.clone();
                q.head.pred = Pred::new("ans");
                q
            })
            .collect()
    };
    assert!(ucq_contained_in(&relabel(&smaller), &relabel(&ucq)));
}
