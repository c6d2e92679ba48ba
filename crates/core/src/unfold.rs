//! Unfolding programs into unions of conjunctive queries.
//!
//! * A **nonrecursive** program has finitely many expansions, so it can be
//!   rewritten as a UCQ (Section 2.1).  This rewriting may blow up
//!   exponentially — Example 6.1 produces a single disjunct of size `2^n`,
//!   Example 6.6 produces `2^n` disjuncts of linear size — and that blowup
//!   is exactly the gap between the 2EXPTIME bound of Theorem 5.12 and the
//!   3EXPTIME bound of Theorem 6.4.  [`unfold_nonrecursive`] performs the
//!   rewriting and reports size statistics.
//! * For a **recursive** program the set of expansions is infinite;
//!   [`expansions_up_to_depth_limited`] enumerates the expansions of unfolding
//!   trees of bounded height, which is what the boundedness tools
//!   ([`crate::bounded`]) and the differential tests use.

use cq::{ConjunctiveQuery, Ucq};
use datalog::atom::{Atom, Pred};
use datalog::program::Program;
use datalog::rule::Rule;

use crate::unify::Unifier;

/// Errors reported by the unfolder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnfoldError {
    /// The program is recursive, so it has no finite unfolding.
    Recursive,
    /// The goal predicate has no rules in the program.
    UnknownGoal(Pred),
    /// The expansion limit was exceeded.
    TooLarge {
        /// The configured limit on generated expansions per predicate
        /// (counted before deduplication, so it bounds work, not just the
        /// surviving disjunct count).
        limit: usize,
    },
}

impl UnfoldError {
    /// Stable machine-readable code identifying the variant, for transports
    /// (the server wire protocol) that must not couple to `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            UnfoldError::Recursive => "recursive_candidate",
            UnfoldError::UnknownGoal(_) => "unknown_goal",
            UnfoldError::TooLarge { .. } => "unfolding_too_large",
        }
    }
}

impl std::fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnfoldError::Recursive => write!(f, "cannot finitely unfold a recursive program"),
            UnfoldError::UnknownGoal(p) => write!(f, "goal predicate `{p}` has no rules"),
            UnfoldError::TooLarge { limit } => {
                write!(f, "unfolding exceeded the limit of {limit} disjuncts")
            }
        }
    }
}

impl std::error::Error for UnfoldError {}

/// Size statistics of an unfolding, recorded for EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnfoldStats {
    /// Number of disjuncts produced.
    pub disjuncts: usize,
    /// Total number of term positions over all disjuncts.
    pub total_size: usize,
    /// Size of the largest disjunct.
    pub max_disjunct_size: usize,
}

impl UnfoldStats {
    /// Compute statistics for a UCQ.
    pub fn of(ucq: &Ucq) -> Self {
        UnfoldStats {
            disjuncts: ucq.len(),
            total_size: ucq.size(),
            max_disjunct_size: ucq.max_disjunct_size(),
        }
    }
}

/// Rewrite a nonrecursive program as a union of conjunctive queries for the
/// given goal predicate.
///
/// `limit` bounds the number of disjuncts (per predicate) to keep runaway
/// inputs from exhausting memory; pass `usize::MAX` for no limit.
pub fn unfold_nonrecursive(
    program: &Program,
    goal: Pred,
    limit: usize,
) -> Result<Ucq, UnfoldError> {
    if !program.is_nonrecursive() {
        return Err(UnfoldError::Recursive);
    }
    if !program.is_idb(goal) {
        return Err(UnfoldError::UnknownGoal(goal));
    }
    let mut memo: std::collections::BTreeMap<Pred, Vec<ConjunctiveQuery>> =
        std::collections::BTreeMap::new();
    // Process IDB predicates bottom-up along the dependency order.
    let order = program.dependency_graph().topological_order();
    for pred in order {
        if !program.is_idb(pred) {
            continue;
        }
        let expansions = expand_predicate(program, pred, &|p| memo.get(&p).cloned(), limit)?;
        memo.insert(pred, expansions);
    }
    Ok(Ucq::new(memo.remove(&goal).unwrap_or_default()))
}

/// The expansions of unfolding trees of height at most `depth` for the goal
/// predicate.  Works for recursive programs; the result under-approximates
/// `Q_Π` and converges to it as `depth` grows.
///
/// Aborts with [`UnfoldError::TooLarge`] once any predicate accumulates
/// more than `limit` expansions (`usize::MAX`: never) — the expansion count
/// grows exponentially in `depth` for nonlinear programs, and long-running
/// callers (the server's `bounded` verb) must be able to bound that phase.
pub fn expansions_up_to_depth_limited(
    program: &Program,
    goal: Pred,
    depth: usize,
    limit: usize,
) -> Result<Ucq, UnfoldError> {
    // memo[d][pred] = expansions of height ≤ d.
    let idb = program.idb_predicates();
    let mut previous: std::collections::BTreeMap<Pred, Vec<ConjunctiveQuery>> =
        idb.iter().map(|&p| (p, Vec::new())).collect();
    for _ in 0..depth {
        let snapshot = previous.clone();
        let mut next = std::collections::BTreeMap::new();
        for &pred in &idb {
            let expansions =
                expand_predicate(program, pred, &|p| snapshot.get(&p).cloned(), limit)?;
            next.insert(pred, expansions);
        }
        previous = next;
    }
    let disjuncts = previous.remove(&goal).unwrap_or_default();
    Ok(Ucq::new(disjuncts).dedup())
}

/// One round of unfolding for a predicate: take every rule for `pred` and
/// replace every IDB body atom by one of the expansions provided by
/// `lookup` (renamed apart and unified with the atom).
fn expand_predicate(
    program: &Program,
    pred: Pred,
    lookup: &dyn Fn(Pred) -> Option<Vec<ConjunctiveQuery>>,
    limit: usize,
) -> Result<Vec<ConjunctiveQuery>, UnfoldError> {
    let idb = program.idb_predicates();
    let mut out: Vec<ConjunctiveQuery> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    // The budget counts *generated* expansions, not distinct ones: for
    // nonlinear rules exponentially many combinations can deduplicate to a
    // handful of disjuncts, and a budget on the deduplicated count would
    // bound memory but not work.  Distinct ≤ generated, so this is the
    // stricter (and the only time-bounding) reading of `limit`.
    let mut generated = 0usize;
    for (_, rule) in program.rules_for(pred) {
        // Rename the rule apart so that expansions of different rules (and
        // recursive re-entries) never clash.
        let (rule, _) = rule.freshen("u");
        expand_rule(&rule, &idb, lookup, &mut |cq| {
            generated += 1;
            if generated > limit {
                return Err(UnfoldError::TooLarge { limit });
            }
            let canon = cq.canonicalize_names();
            if seen.insert(canon) {
                out.push(cq);
            }
            Ok(())
        })?;
    }
    Ok(out)
}

/// Enumerate the expansions of a single (already renamed-apart) rule.
fn expand_rule(
    rule: &Rule,
    idb: &std::collections::BTreeSet<Pred>,
    lookup: &dyn Fn(Pred) -> Option<Vec<ConjunctiveQuery>>,
    emit: &mut dyn FnMut(ConjunctiveQuery) -> Result<(), UnfoldError>,
) -> Result<(), UnfoldError> {
    // Depth-first over the IDB body atoms, accumulating the unifier and the
    // EDB atoms gathered so far.  The per-rule fixed inputs travel in a
    // context struct; only the traversal state is passed per call.
    struct ExpandCtx<'a> {
        head: &'a Atom,
        body: &'a [Atom],
        idb: &'a std::collections::BTreeSet<Pred>,
        lookup: &'a dyn Fn(Pred) -> Option<Vec<ConjunctiveQuery>>,
    }

    fn go(
        ctx: &ExpandCtx<'_>,
        position: usize,
        unifier: &Unifier,
        collected: &[Atom],
        emit: &mut dyn FnMut(ConjunctiveQuery) -> Result<(), UnfoldError>,
    ) -> Result<(), UnfoldError> {
        if position == ctx.body.len() {
            let head = unifier.apply_atom(ctx.head);
            let body = collected.iter().map(|a| unifier.apply_atom(a)).collect();
            return emit(ConjunctiveQuery::new(head, body));
        }
        let atom = &ctx.body[position];
        if !ctx.idb.contains(&atom.pred) {
            let mut collected = collected.to_vec();
            collected.push(atom.clone());
            return go(ctx, position + 1, unifier, &collected, emit);
        }
        let Some(expansions) = (ctx.lookup)(atom.pred) else {
            return Ok(()); // no expansions yet (depth exhausted) — prune
        };
        for expansion in expansions {
            let fresh = expansion.rename_apart("w");
            let mut extended = unifier.clone();
            if !extended.unify_atoms(&fresh.head, atom) {
                continue;
            }
            let mut collected = collected.to_vec();
            collected.extend(fresh.body.iter().cloned());
            go(ctx, position + 1, &extended, &collected, emit)?;
        }
        Ok(())
    }

    let ctx = ExpandCtx {
        head: &rule.head,
        body: &rule.body,
        idb,
        lookup,
    };
    go(&ctx, 0, &Unifier::new(), &[], emit)
}

/// Unfold and report statistics in one call (the shape used by the benches).
pub fn unfold_with_stats(
    program: &Program,
    goal: Pred,
    limit: usize,
) -> Result<(Ucq, UnfoldStats), UnfoldError> {
    let ucq = unfold_nonrecursive(program, goal, limit)?;
    let stats = UnfoldStats::of(&ucq);
    Ok((ucq, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::containment::ucq_equivalent;
    use cq::eval::evaluate_ucq;
    use datalog::eval::evaluate;
    use datalog::generate::{chain_database, dist_program, transitive_closure, word_program};

    #[test]
    fn example_6_1_dist_unfolds_to_a_single_exponential_disjunct() {
        for n in 1..=5 {
            let program = dist_program(n);
            let goal = Pred::new(&format!("dist{n}"));
            let (ucq, stats) = unfold_with_stats(&program, goal, usize::MAX).unwrap();
            assert_eq!(stats.disjuncts, 1, "dist_{n} has a single expansion");
            // The single disjunct is a path of length 2^n: 2^n body atoms.
            assert_eq!(ucq.disjuncts[0].body.len(), 1 << n);
            assert_eq!(stats.max_disjunct_size, 2 + 2 * (1 << n));
        }
    }

    #[test]
    fn example_6_6_word_unfolds_to_exponentially_many_linear_disjuncts() {
        for n in 2..=6 {
            let program = word_program(n);
            let goal = Pred::new(&format!("word{n}"));
            let (ucq, stats) = unfold_with_stats(&program, goal, usize::MAX).unwrap();
            assert_eq!(stats.disjuncts, 1 << n, "2^{n} label patterns");
            // Every disjunct has n edge atoms + n label atoms.
            assert!(ucq.disjuncts.iter().all(|d| d.body.len() == 2 * n));
            assert_eq!(stats.max_disjunct_size, 2 + 2 * n + n);
        }
    }

    #[test]
    fn recursive_programs_are_rejected() {
        let tc = transitive_closure("e", "e");
        assert_eq!(
            unfold_nonrecursive(&tc, Pred::new("p"), usize::MAX).unwrap_err(),
            UnfoldError::Recursive
        );
    }

    #[test]
    fn unknown_goal_is_rejected() {
        let p = dist_program(2);
        assert!(matches!(
            unfold_nonrecursive(&p, Pred::new("nope"), usize::MAX),
            Err(UnfoldError::UnknownGoal(_))
        ));
    }

    #[test]
    fn disjunct_limit_is_enforced() {
        let program = word_program(6);
        let goal = Pred::new("word6");
        assert!(matches!(
            unfold_nonrecursive(&program, goal, 10),
            Err(UnfoldError::TooLarge { limit: 10 })
        ));
    }

    #[test]
    fn unfolding_agrees_with_evaluation_on_sample_databases() {
        // For a nonrecursive program, the UCQ and the program must give the
        // same answers on every database; check on chains.
        let program = dist_program(2);
        let goal = Pred::new("dist2");
        let ucq = unfold_nonrecursive(&program, goal, usize::MAX).unwrap();
        for n in 0..6 {
            let db = chain_database("e", n);
            let via_program: std::collections::BTreeSet<_> = evaluate(&program, &db)
                .relation(goal)
                .iter()
                .cloned()
                .collect();
            let via_ucq = evaluate_ucq(&ucq, &db);
            assert_eq!(via_program, via_ucq, "chain length {n}");
        }
    }

    #[test]
    fn bounded_expansions_of_transitive_closure_are_the_path_queries() {
        let tc = transitive_closure("e", "e");
        let goal = Pred::new("p");
        // Depth 1: only the exit rule fires → the single-edge query.
        let d1 = expansions_up_to_depth_limited(&tc, goal, 1, usize::MAX).unwrap();
        assert_eq!(d1.len(), 1);
        assert_eq!(d1.disjuncts[0].body.len(), 1);
        // Depth 3: paths of length 1, 2, 3.
        let d3 = expansions_up_to_depth_limited(&tc, goal, 3, usize::MAX).unwrap();
        assert_eq!(d3.len(), 3);
        let mut lengths: Vec<usize> = d3.disjuncts.iter().map(|d| d.body.len()).collect();
        lengths.sort();
        assert_eq!(lengths, vec![1, 2, 3]);
        // The depth-3 expansions are equivalent to the bounded-path UCQ.
        let reference = cq::generate::bounded_path_ucq_binary("e", 3);
        assert!(ucq_equivalent(&d3, &reference));
    }

    #[test]
    fn bounded_expansions_grow_monotonically() {
        let tc = transitive_closure("e", "e");
        let goal = Pred::new("p");
        let d2 = expansions_up_to_depth_limited(&tc, goal, 2, usize::MAX).unwrap();
        let d4 = expansions_up_to_depth_limited(&tc, goal, 4, usize::MAX).unwrap();
        assert!(cq::containment::ucq_contained_in(&d2, &d4));
        assert!(!cq::containment::ucq_contained_in(&d4, &d2));
    }

    #[test]
    fn repeated_head_variables_unfold_via_unification() {
        // r(X) :- q(X, X).  q(A, B) :- e(A, B).  Unfolding must unify A = B.
        let program = datalog::parser::parse_program(
            "r(X) :- q(X, X).\n\
             q(A, B) :- e(A, B).",
        )
        .unwrap();
        let ucq = unfold_nonrecursive(&program, Pred::new("r"), usize::MAX).unwrap();
        assert_eq!(ucq.len(), 1);
        let d = &ucq.disjuncts[0];
        assert_eq!(d.body.len(), 1);
        // The edge atom must have both positions equal to the head variable.
        assert_eq!(d.body[0].terms[0], d.body[0].terms[1]);
        assert_eq!(d.body[0].terms[0], d.head.terms[0]);
    }

    #[test]
    fn diamond_dependencies_multiply_disjuncts() {
        // top :- left, right; left and right each have 2 rules → 4 disjuncts.
        let program = datalog::parser::parse_program(
            "top(X) :- left(X), right(X).\n\
             left(X) :- a(X).\n\
             left(X) :- b(X).\n\
             right(X) :- c(X).\n\
             right(X) :- d(X).",
        )
        .unwrap();
        let ucq = unfold_nonrecursive(&program, Pred::new("top"), usize::MAX).unwrap();
        assert_eq!(ucq.len(), 4);
        assert!(ucq.disjuncts.iter().all(|d| d.body.len() == 2));
    }
}
