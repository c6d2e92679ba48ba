//! Example 1.1 of the paper, end to end.
//!
//! Π₁ ("trendy buyers") is equivalent to a nonrecursive program; Π₂ ("buys
//! via knows-chains") is inherently recursive, and the decision procedure
//! produces a concrete counterexample database showing why.
//!
//! Run with `cargo run --example buys`.

use datalog::atom::Pred;
use datalog::parser::parse_program;
use nonrec_equivalence::bounded::find_bound_with;
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::DecisionOptions;

fn main() {
    let goal = Pred::new("buys");

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

    let pi2 = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), buys(Z, Y).",
    )
    .unwrap();
    let pi2_nonrec = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), likes(Z, Y).",
    )
    .unwrap();

    println!("=== Π₁ (trendy) vs. its nonrecursive candidate ===");
    let r1 = equivalent_to_nonrecursive_with(&pi1, goal, &pi1_nonrec, DecisionOptions::default())
        .unwrap();
    println!("equivalent: {}", r1.verdict.is_equivalent());

    // Π₁ is in fact bounded: its depth-2 unfolding is already equivalent.
    if let Some((depth, ucq)) = find_bound_with(&pi1, goal, 4, DecisionOptions::default()).unwrap()
    {
        println!("Π₁ is equivalent to its depth-{depth} unfolding:");
        print!("{ucq}");
    }

    println!("\n=== Π₂ (knows) vs. its nonrecursive candidate ===");
    let r2 = equivalent_to_nonrecursive_with(&pi2, goal, &pi2_nonrec, DecisionOptions::default())
        .unwrap();
    match &r2.verdict {
        EquivalenceVerdict::RecursiveExceeds(cex) => {
            println!("not equivalent — Π₂ derives strictly more.");
            println!(
                "witness expansion (a knows-chain of length 2):\n  {}",
                cex.expansion
            );
            println!("counterexample database:");
            for fact in cex.database.facts() {
                println!("  {fact}.");
            }
            println!(
                "goal tuple derived only by Π₂: buys({})",
                cex.goal_tuple
                    .iter()
                    .map(|c| c.name().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        other => println!("unexpected verdict: {other:?}"),
    }
    println!(
        "\nΠ₂ is inherently recursive: no bound below 4 exists: {:?}",
        find_bound_with(&pi2, goal, 4, DecisionOptions::default())
            .unwrap()
            .map(|(k, _)| k)
    );
}
