//! Containment and equivalence of recursive and nonrecursive programs —
//! Theorems 3.2, 6.4, 6.5 and 6.7.
//!
//! * `Π ⊆ Π'` (Π recursive, Π' nonrecursive): rewrite Π' into a union of
//!   conjunctive queries (possibly exponentially larger — that is the extra
//!   exponent of Theorem 6.4) and decide containment in the union with the
//!   automata machinery of [`crate::containment`].
//! * `Π' ⊆ Π`: the canonical-database method of [`crate::cq_in_datalog`],
//!   applied to each disjunct of Π'’s unfolding.
//! * Equivalence (Theorem 6.5 / Corollary 3.3) is the conjunction of both
//!   directions, and the result records which direction failed together
//!   with a concrete counterexample database.

use cq::Ucq;
use datalog::atom::Pred;
use datalog::program::Program;

use crate::containment::{
    datalog_contained_in_ucq_with, ContainmentResult, Counterexample, DecisionError,
    DecisionOptions,
};
use crate::cq_in_datalog::cq_contained_in_datalog_with;
use crate::unfold::{unfold_nonrecursive, UnfoldError, UnfoldStats};
use datalog::eval::Strategy;

/// Errors reported by the recursive-vs-nonrecursive procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivalenceError {
    /// The comparison program could not be unfolded.
    Unfold(UnfoldError),
    /// The containment decision failed.
    Decision(DecisionError),
}

impl EquivalenceError {
    /// Stable machine-readable code identifying the underlying failure, for
    /// transports (the server wire protocol) that must not couple to
    /// `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            EquivalenceError::Unfold(e) => e.code(),
            EquivalenceError::Decision(e) => e.code(),
        }
    }
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceError::Unfold(e) => write!(f, "{e}"),
            EquivalenceError::Decision(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EquivalenceError {}

impl From<UnfoldError> for EquivalenceError {
    fn from(e: UnfoldError) -> Self {
        EquivalenceError::Unfold(e)
    }
}

impl From<DecisionError> for EquivalenceError {
    fn from(e: DecisionError) -> Self {
        EquivalenceError::Decision(e)
    }
}

/// The outcome of deciding `Π ⊆ Π'` for nonrecursive Π'.
#[derive(Debug)]
pub struct NonrecursiveContainment {
    /// The containment verdict and instrumentation.
    pub result: ContainmentResult,
    /// The unfolding of Π' used for the decision, with its size statistics
    /// (the Theorem 6.4 blowup measurement).
    pub unfolding: Ucq,
    /// Statistics of the unfolding.
    pub unfold_stats: UnfoldStats,
}

/// Decide `Π(goal) ⊆ Π'(goal)` where Π' is nonrecursive (Theorem 6.4).
pub fn datalog_contained_in_nonrecursive_with(
    program: &Program,
    goal: Pred,
    nonrecursive: &Program,
    options: DecisionOptions,
) -> Result<NonrecursiveContainment, EquivalenceError> {
    let unfolding = unfold_nonrecursive(nonrecursive, goal, options.max_unfold)?;
    let unfold_stats = UnfoldStats::of(&unfolding);
    let result = datalog_contained_in_ucq_with(program, goal, &unfolding, options)?;
    Ok(NonrecursiveContainment {
        result,
        unfolding,
        unfold_stats,
    })
}

/// Decide `Π'(goal) ⊆ Π(goal)` where Π' is nonrecursive: unfold Π' (bounded
/// by `options.max_unfold` disjuncts) and check every disjunct by the
/// canonical-database method.  Returns the index of a violating disjunct on
/// failure.  With `options.use_cache` the per-disjunct checks are memoised
/// in the shared [`crate::cache::DecisionCache`]; without it they run the
/// uncached oracle.
pub fn nonrecursive_contained_in_datalog_with(
    nonrecursive: &Program,
    goal: Pred,
    program: &Program,
    options: DecisionOptions,
) -> Result<Result<(), usize>, EquivalenceError> {
    let unfolding = unfold_nonrecursive(nonrecursive, goal, options.max_unfold)?;
    Ok(unfolding_contained_in_datalog(
        &unfolding,
        program,
        goal,
        options.use_cache,
    ))
}

/// The canonical-database checks of an unfolding against Π, in disjunct
/// order, stopping at the first violating disjunct.  Every check evaluates
/// under [`Strategy::Auto`]: the planner picks goal-directed (magic-set)
/// evaluation when the adorned goal can prune.
fn unfolding_contained_in_datalog(
    unfolding: &Ucq,
    program: &Program,
    goal: Pred,
    use_cache: bool,
) -> Result<(), usize> {
    let program_key = use_cache.then(|| crate::cache::ProgramKey::of(program));
    for (index, disjunct) in unfolding.disjuncts.iter().enumerate() {
        let contained = match &program_key {
            Some(key) => {
                crate::cq_in_datalog::cq_contained_in_datalog_keyed(disjunct, program, key, goal)
            }
            None => cq_contained_in_datalog_with(disjunct, program, goal, Strategy::Auto),
        };
        if !contained {
            return Err(index);
        }
    }
    Ok(())
}

/// Which direction of an equivalence check failed.
#[derive(Debug)]
pub enum EquivalenceVerdict {
    /// The two programs are equivalent.
    Equivalent,
    /// The recursive program derives facts the nonrecursive one does not;
    /// the counterexample exhibits such a database and tuple.
    RecursiveExceeds(Box<Counterexample>),
    /// The nonrecursive program derives facts the recursive one does not;
    /// the payload is the index of a violating disjunct of
    /// [`EquivalenceResult::unfolding`].
    NonrecursiveExceeds(usize),
}

impl EquivalenceVerdict {
    /// Are the programs equivalent?
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceVerdict::Equivalent)
    }
}

/// The outcome of an equivalence check (Theorem 6.5).
#[derive(Debug)]
pub struct EquivalenceResult {
    /// The verdict, with a witness when the programs differ.
    pub verdict: EquivalenceVerdict,
    /// The unfolding of Π' both directions were decided on.
    pub unfolding: Ucq,
    /// The Π ⊆ Π' decision, when the Π' ⊆ Π direction held and it ran.
    pub containment: Option<ContainmentResult>,
}

/// Decide whether a (recursive) program and a nonrecursive program are
/// equivalent on the given goal predicate (Theorem 6.5, Corollary 3.3).
///
/// Π' is unfolded once; the canonical-database checks (Π' ⊆ Π) and the
/// automata containment (Π ⊆ Π') both run on that one unfolding.
pub fn equivalent_to_nonrecursive_with(
    program: &Program,
    goal: Pred,
    nonrecursive: &Program,
    options: DecisionOptions,
) -> Result<EquivalenceResult, EquivalenceError> {
    let unfolding = unfold_nonrecursive(nonrecursive, goal, options.max_unfold)?;
    // Cheap direction first: Π' ⊆ Π by canonical databases.
    if let Err(index) = unfolding_contained_in_datalog(&unfolding, program, goal, options.use_cache)
    {
        return Ok(EquivalenceResult {
            verdict: EquivalenceVerdict::NonrecursiveExceeds(index),
            unfolding,
            containment: None,
        });
    }
    // Expensive direction: Π ⊆ Π' via the automata construction.
    let containment = datalog_contained_in_ucq_with(program, goal, &unfolding, options)?;
    let verdict = if containment.contained {
        EquivalenceVerdict::Equivalent
    } else {
        let counterexample = containment
            .counterexample
            .clone()
            .expect("non-containment always carries a counterexample");
        EquivalenceVerdict::RecursiveExceeds(Box::new(counterexample))
    };
    Ok(EquivalenceResult {
        verdict,
        unfolding,
        containment: Some(containment),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::eval::evaluate;
    use datalog::parser::parse_program;

    fn equivalent(program: &Program, goal: Pred, nonrecursive: &Program) -> EquivalenceResult {
        equivalent_to_nonrecursive_with(program, goal, nonrecursive, DecisionOptions::default())
            .unwrap()
    }

    fn buys1() -> Program {
        parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), buys(Z, Y).",
        )
        .unwrap()
    }

    fn buys1_nonrec() -> Program {
        parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), likes(Z, Y).",
        )
        .unwrap()
    }

    fn buys2() -> Program {
        parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), buys(Z, Y).",
        )
        .unwrap()
    }

    fn buys2_nonrec() -> Program {
        parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), likes(Z, Y).",
        )
        .unwrap()
    }

    #[test]
    fn example_1_1_pi1_is_equivalent_to_its_nonrecursive_form() {
        let result = equivalent(&buys1(), Pred::new("buys"), &buys1_nonrec());
        assert!(
            result.verdict.is_equivalent(),
            "Example 1.1: Π₁ ≡ nonrecursive form"
        );
    }

    #[test]
    fn example_1_1_pi2_is_not_equivalent_and_the_witness_checks_out() {
        let result = equivalent(&buys2(), Pred::new("buys"), &buys2_nonrec());
        match result.verdict {
            EquivalenceVerdict::RecursiveExceeds(cex) => {
                // Verify the counterexample by brute force.
                let rec = evaluate(&buys2(), &cex.database);
                let nonrec = evaluate(&buys2_nonrec(), &cex.database);
                assert!(rec.relation(Pred::new("buys")).contains(&cex.goal_tuple));
                assert!(!nonrec.relation(Pred::new("buys")).contains(&cex.goal_tuple));
                // The minimal witness is a knows-chain of length 2.
                assert_eq!(cex.expansion.body.len(), 3);
            }
            other => panic!("expected RecursiveExceeds, got {other:?}"),
        }
    }

    #[test]
    fn nonrecursive_exceeding_direction_is_detected() {
        // Π misses the 2-step rule that Π' has.
        let program = parse_program("r(X, Y) :- e(X, Y).").unwrap();
        let nonrec = parse_program(
            "r(X, Y) :- e(X, Y).\n\
             r(X, Y) :- e(X, Z), e(Z, Y).",
        )
        .unwrap();
        let result = equivalent(&program, Pred::new("r"), &nonrec);
        assert!(matches!(
            result.verdict,
            EquivalenceVerdict::NonrecursiveExceeds(_)
        ));
    }

    #[test]
    fn transitive_closure_is_not_equivalent_to_any_bounded_unfolding() {
        // TC vs. the dist-style "paths of length ≤ 2" nonrecursive program.
        let tc = parse_program(
            "p(X, Y) :- e(X, Z), p(Z, Y).\n\
             p(X, Y) :- e(X, Y).",
        )
        .unwrap();
        let bounded = parse_program(
            "p(X, Y) :- e(X, Y).\n\
             p(X, Y) :- e(X, Z), e(Z, Y).",
        )
        .unwrap();
        let result = equivalent(&tc, Pred::new("p"), &bounded);
        match result.verdict {
            EquivalenceVerdict::RecursiveExceeds(cex) => {
                assert_eq!(cex.expansion.body.len(), 3, "shortest gap is the 3-path");
            }
            other => panic!("expected RecursiveExceeds, got {other:?}"),
        }
    }

    #[test]
    fn containment_direction_reports_unfold_stats() {
        let r = datalog_contained_in_nonrecursive_with(
            &buys1(),
            Pred::new("buys"),
            &buys1_nonrec(),
            DecisionOptions::default(),
        )
        .unwrap();
        assert!(r.result.contained);
        assert_eq!(r.unfold_stats.disjuncts, 2);
        assert_eq!(r.unfolding.len(), 2);
    }

    #[test]
    fn recursive_comparison_program_is_rejected() {
        let err = datalog_contained_in_nonrecursive_with(
            &buys1(),
            Pred::new("buys"),
            &buys2(),
            DecisionOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EquivalenceError::Unfold(UnfoldError::Recursive)
        ));
    }

    #[test]
    fn identical_nonrecursive_programs_are_equivalent() {
        // Both inputs nonrecursive: the procedure still applies.
        let p = buys1_nonrec();
        let result = equivalent(&p, Pred::new("buys"), &p);
        assert!(result.verdict.is_equivalent());
    }
}
