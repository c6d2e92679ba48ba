//! Source-to-source optimisation of Datalog programs with the containment
//! machinery: dead-rule removal, rule-body minimisation, subsumed-rule
//! elimination, inlining of non-recursive predicates, and — when the
//! program is bounded — full recursion elimination (Example 1.1).
//!
//! Run with `cargo run --example optimizer`.

use datalog::atom::Pred;
use datalog::eval::evaluate;
use datalog::generate::chain_database;
use datalog::parser::parse_program;
use nonrec_equivalence::optimize::{eliminate_recursion_with, optimize, OptimizeOptions};
use nonrec_equivalence::DecisionOptions;

fn main() {
    // A deliberately messy program: a redundant subgoal, a subsumed rule, an
    // unreachable predicate, and a non-recursive helper predicate.
    let messy = parse_program(
        "reach(X, Y) :- hop(X, Y).\n\
         reach(X, Y) :- hop(X, Z), reach(Z, Y).\n\
         reach(X, Y) :- hop(X, Y), hop(X, W).\n\
         hop(X, Y) :- e(X, Y).\n\
         hop(X, Y) :- e(X, Y), vertex(X).\n\
         audit(X) :- vertex(X), vertex(X).",
    )
    .expect("the example program parses");
    let goal = Pred::new("reach");

    println!("== input program ({} rules) ==\n{messy}", messy.len());

    let options = OptimizeOptions {
        inline_nonrecursive: true,
        ..OptimizeOptions::default()
    };
    let (optimized, report) = optimize(&messy, goal, options);
    println!(
        "== optimised program ({} rules, was {}; {} atoms, was {}) ==\n{optimized}",
        report.rules_after, report.rules_before, report.atoms_after, report.atoms_before
    );

    // The rewrite is an equivalence: same answers on any database.
    let db = chain_database("e", 6);
    let before = evaluate(&messy, &db);
    let after = evaluate(&optimized, &db);
    println!(
        "answers on a 6-edge chain: {} before, {} after (must match)",
        before.relation(goal).len(),
        after.relation(goal).len()
    );
    assert_eq!(
        before.relation(goal).iter().collect::<Vec<_>>(),
        after.relation(goal).iter().collect::<Vec<_>>()
    );

    // Recursion elimination on the bounded program of Example 1.1.
    let bounded = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), buys(Z, Y).",
    )
    .unwrap();
    match eliminate_recursion_with(&bounded, Pred::new("buys"), 4, DecisionOptions::default())
        .unwrap()
    {
        Some(nonrecursive) => {
            println!("\n== Example 1.1: equivalent nonrecursive form found ==\n{nonrecursive}")
        }
        None => println!("\n== Example 1.1: no bound found (unexpected) =="),
    }

    let unbounded = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), buys(Z, Y).",
    )
    .unwrap();
    match eliminate_recursion_with(&unbounded, Pred::new("buys"), 4, DecisionOptions::default())
        .unwrap()
    {
        Some(_) => println!("Π₂ unexpectedly collapsed"),
        None => println!(
            "Π₂ (buys via knows-chains) admits no bounded unfolding up to depth 4 — \
             it is inherently recursive, as the paper states."
        ),
    }
}
