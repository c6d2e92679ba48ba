//! Bounded-unfolding tools.
//!
//! The paper's motivating optimisation (Example 1.1) is recursion
//! elimination: replace a recursive program by a nonrecursive one when the
//! two are equivalent.  Whether *some* equivalent nonrecursive program
//! exists (boundedness) is undecidable \[GMSV93], but two practically useful
//! variants are decidable with the machinery of this crate:
//!
//! * Is Π equivalent to its own depth-`k` unfolding, for a given `k`?
//!   ([`bounded_at_depth_with`])  If yes, the depth-`k` unfolding is an
//!   equivalent union of conjunctive queries, i.e. an explicit nonrecursive
//!   form of Π.
//! * Find the least such `k` below a cutoff, if any ([`find_bound_with`]).

use cq::Ucq;
use datalog::atom::Pred;
use datalog::program::Program;

use crate::containment::{datalog_contained_in_ucq_with, DecisionError, DecisionOptions};
use crate::unfold::expansions_up_to_depth_limited;

/// The outcome of a boundedness-at-k check.
#[derive(Debug)]
pub struct BoundedResult {
    /// Is Π equivalent to its depth-`k` unfolding?
    pub bounded: bool,
    /// The depth-`k` unfolding that was compared against.
    pub unfolding: Ucq,
}

/// Is the program equivalent to its depth-`k` unfolding?
///
/// The unfolding is contained in the program by construction, so only the
/// direction Π ⊆ unfolding needs to be decided (Theorem 5.12 machinery).
/// The default options share the process-wide
/// [`crate::cache::DecisionCache`], so probing the same program repeatedly
/// — e.g. from [`find_bound_with`] and then from
/// `optimize::eliminate_recursion_with` — re-decides nothing.
pub fn bounded_at_depth_with(
    program: &Program,
    goal: Pred,
    depth: usize,
    options: DecisionOptions,
) -> Result<BoundedResult, DecisionError> {
    // The only error the depth-limited expansion can produce is the
    // `max_unfold` budget being exhausted — report it as the same resource
    // exhaustion the pair budget reports.
    let unfolding = expansions_up_to_depth_limited(program, goal, depth, options.max_unfold)
        .map_err(|_| DecisionError::ResourceLimit)?;
    let result = datalog_contained_in_ucq_with(program, goal, &unfolding, options)?;
    Ok(BoundedResult {
        bounded: result.contained,
        unfolding,
    })
}

/// Find the least depth `k ≤ max_depth` at which the program is equivalent
/// to its unfolding, if any.
pub fn find_bound_with(
    program: &Program,
    goal: Pred,
    max_depth: usize,
    options: DecisionOptions,
) -> Result<Option<(usize, Ucq)>, DecisionError> {
    for depth in 1..=max_depth {
        let result = bounded_at_depth_with(program, goal, depth, options)?;
        if result.bounded {
            return Ok(Some((depth, result.unfolding)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::parser::parse_program;

    fn bounded_at(program: &Program, goal: Pred, depth: usize) -> BoundedResult {
        bounded_at_depth_with(program, goal, depth, DecisionOptions::default()).unwrap()
    }

    fn bound(program: &Program, goal: Pred, max_depth: usize) -> Option<(usize, Ucq)> {
        find_bound_with(program, goal, max_depth, DecisionOptions::default()).unwrap()
    }

    #[test]
    fn example_1_1_pi1_is_bounded_at_depth_two() {
        let program = parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), buys(Z, Y).",
        )
        .unwrap();
        let result = bounded_at(&program, Pred::new("buys"), 2);
        assert!(result.bounded, "Π₁ collapses at depth 2 (Example 1.1)");
        assert_eq!(result.unfolding.len(), 2);
        // Depth 1 is not enough: only the likes-rule expansion is present.
        assert!(!bounded_at(&program, Pred::new("buys"), 1).bounded);
        // The search reports 2 as the least bound.
        let (k, ucq) = bound(&program, Pred::new("buys"), 4).unwrap();
        assert_eq!(k, 2);
        assert_eq!(ucq.len(), 2);
    }

    #[test]
    fn example_1_1_pi2_is_not_bounded_at_small_depths() {
        let program = parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), buys(Z, Y).",
        )
        .unwrap();
        assert!(bound(&program, Pred::new("buys"), 3).is_none());
    }

    #[test]
    fn transitive_closure_is_unbounded_at_small_depths() {
        let tc = parse_program(
            "p(X, Y) :- e(X, Z), p(Z, Y).\n\
             p(X, Y) :- e(X, Y).",
        )
        .unwrap();
        assert!(bound(&tc, Pred::new("p"), 3).is_none());
    }

    #[test]
    fn trivially_nonrecursive_program_is_bounded_at_depth_one() {
        let p = parse_program("r(X, Y) :- e(X, Y).").unwrap();
        let result = bounded_at(&p, Pred::new("r"), 1);
        assert!(result.bounded);
    }

    #[test]
    fn exploding_expansions_hit_the_unfold_budget() {
        // 16 recursive subgoals and two base rules: the depth-2 expansion
        // set is 2^16 combinations.  With `max_unfold` set, the budget
        // aborts the unfold phase (as `ResourceLimit`) before any of it is
        // materialised — the bound the server's `bounded` verb relies on.
        let chain = (0..16)
            .map(|i| format!("p(A{i}, A{})", i + 1))
            .collect::<Vec<_>>()
            .join(", ");
        let program = parse_program(&format!(
            "p(A0, A16) :- {chain}.\np(X, Y) :- e(X, Y).\np(X, Y) :- f(X, Y)."
        ))
        .unwrap();
        let options = DecisionOptions {
            max_unfold: 1_000,
            ..DecisionOptions::default()
        };
        let err = bounded_at_depth_with(&program, Pred::new("p"), 2, options).unwrap_err();
        assert_eq!(err, DecisionError::ResourceLimit);
        assert_eq!(err.code(), "resource_limit");
    }
}
