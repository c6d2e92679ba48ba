//! Recursion elimination: the optimisation scenario that motivates the
//! paper's introduction.  Given a recursive program, search for a depth
//! bound at which its unfolding is equivalent, and — if one exists — emit
//! the equivalent nonrecursive form (a union of conjunctive queries).
//!
//! Run with `cargo run --example recursion_elimination`.

use datalog::atom::Pred;
use datalog::parser::parse_program;
use nonrec_equivalence::bounded::find_bound_with;
use nonrec_equivalence::DecisionOptions;

fn main() {
    let cases = [
        (
            "Π₁ — trendy buyers (Example 1.1, bounded)",
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), buys(Z, Y).",
            "buys",
        ),
        (
            "Π₂ — buys via knows-chains (Example 1.1, inherently recursive)",
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), buys(Z, Y).",
            "buys",
        ),
        (
            "shortcut closure — recursion that collapses after two steps",
            "reach(X, Y) :- e(X, Y).\n\
             reach(X, Y) :- hub(X), hub(Z), reach(Z, Y).",
            "reach",
        ),
        (
            "transitive closure — the canonical unbounded program",
            "p(X, Y) :- e(X, Z), p(Z, Y).\n\
             p(X, Y) :- e(X, Y).",
            "p",
        ),
    ];

    const MAX_DEPTH: usize = 4;
    for (name, text, goal) in cases {
        let program = parse_program(text).unwrap();
        println!("=== {name} ===");
        println!("{program}");
        match find_bound_with(
            &program,
            Pred::new(goal),
            MAX_DEPTH,
            DecisionOptions::default(),
        )
        .unwrap()
        {
            Some((depth, ucq)) => {
                println!("equivalent to its depth-{depth} unfolding; nonrecursive form:");
                print!("{ucq}");
            }
            None => println!(
                "no equivalent unfolding of depth ≤ {MAX_DEPTH} (likely inherently recursive)"
            ),
        }
        println!();
    }
}
