//! Quickstart: parse a recursive and a nonrecursive Datalog program, decide
//! containment and equivalence, and inspect the counterexample when they
//! differ.
//!
//! Run with `cargo run --example quickstart`.

use datalog::atom::Pred;
use datalog::eval::evaluate;
use datalog::parser::{parse_database, parse_program};
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::DecisionOptions;

fn main() {
    // The transitive-closure program: p = reachability over e.
    let recursive = parse_program(
        "p(X, Y) :- e(X, Z), p(Z, Y).\n\
         p(X, Y) :- e(X, Y).",
    )
    .expect("recursive program parses");

    // A candidate nonrecursive replacement: paths of length at most 2.
    let nonrecursive = parse_program(
        "p(X, Y) :- e(X, Y).\n\
         p(X, Y) :- e(X, Z), e(Z, Y).",
    )
    .expect("nonrecursive program parses");

    println!(
        "Recursive program (linear: {}):\n{recursive}",
        recursive.is_linear()
    );
    println!("Nonrecursive candidate:\n{nonrecursive}");

    // 1. Evaluate both on a small database, just to see them disagree.
    let db = parse_database("e(a, b). e(b, c). e(c, d).").unwrap();
    let goal = Pred::new("p");
    let rec_answers = evaluate(&recursive, &db);
    let nonrec_answers = evaluate(&nonrecursive, &db);
    println!(
        "On a 3-edge chain: recursive derives {} p-facts, nonrecursive {}.",
        rec_answers.relation(goal).len(),
        nonrec_answers.relation(goal).len()
    );

    // 2. Decide equivalence exactly (Theorem 6.5 machinery).
    let result = equivalent_to_nonrecursive_with(
        &recursive,
        goal,
        &nonrecursive,
        DecisionOptions::default(),
    )
    .expect("decision procedure succeeds");
    match &result.verdict {
        EquivalenceVerdict::Equivalent => println!("The programs are equivalent."),
        EquivalenceVerdict::RecursiveExceeds(cex) => {
            println!("Not equivalent: the recursive program derives more.");
            println!("Witness expansion: {}", cex.expansion);
            println!("Counterexample database:\n{:?}", cex.database);
            println!(
                "On that database the recursive program derives {:?}, the nonrecursive one does not.",
                cex.goal_tuple
            );
        }
        EquivalenceVerdict::NonrecursiveExceeds(i) => {
            println!("Not equivalent: nonrecursive disjunct #{i} is not covered.")
        }
    }
    if let Some(containment) = &result.containment {
        println!(
            "Proof-tree automaton: {} states / {} transitions; explored {} product states in {} µs.",
            containment.stats.ptrees.states,
            containment.stats.ptrees.transitions,
            containment.stats.explored,
            containment.stats.micros
        );
    }
}
