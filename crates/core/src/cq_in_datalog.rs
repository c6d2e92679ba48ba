//! Containment of (unions of) conjunctive queries in a Datalog program.
//!
//! This is the *other* direction of the equivalence problem — the one the
//! paper's introduction notes was already known to be decidable (it is
//! EXPTIME-complete in general and NP-complete for bounded arity
//! [CK86, CLM81, Sa88b]).  The classical algorithm is the canonical-database
//! (frozen query) method: `θ ⊆ Π(Q)` iff evaluating Π on the canonical
//! database of θ derives the frozen head tuple of θ.
//!
//! The frozen head tuple is all constants, so the goal pattern handed to the
//! evaluator is fully bound — the best case for goal-directed evaluation.
//! Every check goes through [`datalog::eval::evaluate_goal_with`], which
//! under [`Strategy::Magic`] adorns the program on that pattern and runs the
//! magic-set rewrite so the fixpoint derives only goal-relevant facts.  The
//! verdict is strategy-independent; each evaluated check is tallied per
//! strategy in the [`metrics::global`] registry (the `strategy_*` counters;
//! a cached verdict re-used by [`cq_contained_in_datalog_keyed`] runs no
//! evaluation and counts nothing) so serve-side adoption is observable.

use cq::canonical::canonical_database;
use cq::{ConjunctiveQuery, Ucq};
use datalog::atom::{Atom, Pred};
use datalog::eval::{evaluate_goal_with, EvalOptions, Strategy};
use datalog::program::Program;
use datalog::term::Term;
use metrics::global::StrategyDecision;

/// Is the conjunctive query contained in the Datalog program's goal
/// predicate, evaluating under `strategy`?  The decision is
/// strategy-independent (all strategies compute the same goal
/// relation — see `tests/strategy_differential.rs`); the knob exists so the
/// decision procedures can be cross-checked against the naive reference
/// engine and so callers can opt into [`Strategy::Magic`], which seeds the
/// magic predicates from the (fully bound) frozen head tuple, or
/// [`Strategy::Auto`], which lets the planner pick magic exactly when the
/// adorned goal can prune the fixpoint on this frozen database.
pub fn cq_contained_in_datalog_with(
    theta: &ConjunctiveQuery,
    program: &Program,
    goal: Pred,
    strategy: Strategy,
) -> bool {
    let frozen = canonical_database(theta);
    let pattern = Atom::new(
        goal,
        frozen.head_tuple.iter().map(|&c| Term::Const(c)).collect(),
    );
    // Resolve the planner's choice here rather than inside the evaluator so
    // the tally can distinguish auto-resolved-to-magic from
    // auto-resolved-to-indexed.
    let resolved = match strategy {
        Strategy::Auto => datalog::eval::resolve_auto_strategy(program, &frozen.database, &pattern),
        explicit => explicit,
    };
    let result = evaluate_goal_with(
        program,
        &frozen.database,
        &pattern,
        EvalOptions {
            strategy: resolved,
            ..EvalOptions::default()
        },
    );
    // Tally under the strategy the caller *requested*; auto decisions
    // carry what the planner resolved them to.
    metrics::global::record_strategy_decision(match (strategy, resolved) {
        (Strategy::Auto, Strategy::Magic) => StrategyDecision::AutoMagic,
        (Strategy::Auto, _) => StrategyDecision::AutoIndexed,
        (Strategy::Naive, _) => StrategyDecision::Naive,
        (Strategy::SemiNaive, _) => StrategyDecision::SemiNaive,
        (Strategy::Indexed, _) => StrategyDecision::Indexed,
        (Strategy::Magic, _) => StrategyDecision::Magic,
    });
    result.relation(goal).contains(&frozen.head_tuple)
}

/// As [`cq_contained_in_datalog_with`] under [`Strategy::Auto`], memoised
/// in the shared
/// [`crate::cache::DecisionCache`] under a precomputed program key (so
/// callers checking many disjuncts against the same program intern the
/// program once).  A cache miss is computed under [`Strategy::Auto`].
pub fn cq_contained_in_datalog_keyed(
    theta: &ConjunctiveQuery,
    program: &Program,
    program_key: &crate::cache::ProgramKey,
    goal: Pred,
) -> bool {
    let cache = crate::cache::DecisionCache::global();
    let key = cq::CqKey::of(theta);
    let (verdict, _) = cache.cq_in_datalog_cached(program_key, goal, &key, || {
        // Containment is invariant under canonicalisation; freeze the
        // canonical form carried by the key.
        cq_contained_in_datalog_with(key.as_query(), program, goal, Strategy::Auto)
    });
    verdict
}

/// Is every disjunct of the union contained in the program (i.e. is the
/// union contained in the program), evaluating each canonical-database
/// check under `strategy`?
pub fn ucq_contained_in_datalog_with(
    ucq: &Ucq,
    program: &Program,
    goal: Pred,
    strategy: Strategy,
) -> bool {
    ucq.disjuncts
        .iter()
        .all(|theta| cq_contained_in_datalog_with(theta, program, goal, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::generate::transitive_closure;
    use datalog::parser::parse_program;

    fn tc() -> datalog::Program {
        transitive_closure("e", "e")
    }

    /// Decide under the default evaluation strategy.
    fn contained(theta: &ConjunctiveQuery, program: &Program, goal: Pred) -> bool {
        cq_contained_in_datalog_with(theta, program, goal, EvalOptions::default().strategy)
    }

    #[test]
    fn path_queries_are_contained_in_transitive_closure() {
        for n in 1..=5 {
            let q = cq::generate::path_query("e", n);
            assert!(
                contained(&q, &tc(), Pred::new("p")),
                "path of length {n} must be contained in TC"
            );
        }
    }

    #[test]
    fn wrong_predicate_queries_are_not_contained() {
        let q = ConjunctiveQuery::parse("q(X, Y) :- f(X, Y).").unwrap();
        assert!(!contained(&q, &tc(), Pred::new("p")));
    }

    #[test]
    fn disconnected_query_is_not_contained() {
        // Two separate edges do not witness a path between the endpoints.
        let q = ConjunctiveQuery::parse("q(X, Y) :- e(X, A), e(B, Y).").unwrap();
        assert!(!contained(&q, &tc(), Pred::new("p")));
    }

    #[test]
    fn ucq_containment_requires_every_disjunct() {
        let ok = Ucq::parse("q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), e(Z, Y).").unwrap();
        let mixed = Ucq::parse("q(X, Y) :- e(X, Y).\nq(X, Y) :- f(X, Y).").unwrap();
        let strategy = EvalOptions::default().strategy;
        assert!(ucq_contained_in_datalog_with(
            &ok,
            &tc(),
            Pred::new("p"),
            strategy
        ));
        assert!(!ucq_contained_in_datalog_with(
            &mixed,
            &tc(),
            Pred::new("p"),
            strategy
        ));
    }

    #[test]
    fn decision_is_strategy_independent() {
        let queries = [
            cq::generate::path_query("e", 3),
            ConjunctiveQuery::parse("q(X, Y) :- e(X, A), e(B, Y).").unwrap(),
            ConjunctiveQuery::parse("q(X, X) :- e(X, X).").unwrap(),
        ];
        for q in &queries {
            let reference = cq_contained_in_datalog_with(q, &tc(), Pred::new("p"), Strategy::Naive);
            for strategy in [
                Strategy::SemiNaive,
                Strategy::Indexed,
                Strategy::Magic,
                Strategy::Auto,
            ] {
                assert_eq!(
                    reference,
                    cq_contained_in_datalog_with(q, &tc(), Pred::new("p"), strategy),
                    "{q:?} under {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_head_variables_freeze_correctly() {
        // q(X, X) :- e(X, X): a self-loop, which TC derives as p(a, a).
        let q = ConjunctiveQuery::parse("q(X, X) :- e(X, X).").unwrap();
        assert!(contained(&q, &tc(), Pred::new("p")));
    }

    #[test]
    fn containment_respects_nonrecursive_comparison_programs() {
        // Θ = single edge is contained in the nonrecursive "edge or 2-path"
        // program.
        let program = parse_program(
            "r(X, Y) :- e(X, Y).\n\
             r(X, Y) :- e(X, Z), e(Z, Y).",
        )
        .unwrap();
        let q = ConjunctiveQuery::parse("q(X, Y) :- e(X, Y).").unwrap();
        assert!(contained(&q, &program, Pred::new("r")));
        let three = cq::generate::path_query("e", 3);
        assert!(!contained(&three, &program, Pred::new("r")));
    }

    #[test]
    fn strategy_counters_tally_decisions() {
        let q = cq::generate::path_query("e", 2);
        let before = metrics::global::snapshot();
        assert!(cq_contained_in_datalog_with(
            &q,
            &tc(),
            Pred::new("p"),
            Strategy::Magic
        ));
        assert!(cq_contained_in_datalog_with(
            &q,
            &tc(),
            Pred::new("p"),
            Strategy::Indexed
        ));
        let delta = metrics::global::snapshot().since(&before);
        // Other tests run concurrently, so counters may overshoot; they must
        // at least account for the two decisions above.
        assert!(
            delta.strategy_magic >= 1,
            "magic decisions uncounted: {delta:?}"
        );
        assert!(
            delta.strategy_indexed >= 1,
            "indexed decisions uncounted: {delta:?}"
        );
    }

    #[test]
    fn auto_decisions_are_tallied_by_what_the_planner_resolved() {
        // The frozen head tuple of a path query is fully bound and the
        // canonical database of a path is acyclic, so on TC the planner
        // resolves auto to magic — and the tally must land in the auto
        // bucket, not in the explicit-magic one attributed to callers who
        // pinned the strategy themselves.
        let q = cq::generate::path_query("e", 2);
        let before = metrics::global::snapshot();
        assert!(cq_contained_in_datalog_with(
            &q,
            &tc(),
            Pred::new("p"),
            Strategy::Auto
        ));
        let delta = metrics::global::snapshot().since(&before);
        assert!(
            delta.strategy_auto_magic >= 1,
            "auto-resolved-to-magic decision uncounted: {delta:?}"
        );

        // A self-loop query freezes to a cyclic canonical database: demand
        // saturates, the planner resolves auto to indexed.
        let looped = ConjunctiveQuery::parse("q(X, X) :- e(X, X).").unwrap();
        let before = metrics::global::snapshot();
        assert!(cq_contained_in_datalog_with(
            &looped,
            &tc(),
            Pred::new("p"),
            Strategy::Auto
        ));
        let delta = metrics::global::snapshot().since(&before);
        assert!(
            delta.strategy_auto_indexed >= 1,
            "auto-resolved-to-indexed decision uncounted: {delta:?}"
        );
    }
}
