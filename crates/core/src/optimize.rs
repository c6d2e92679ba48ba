//! Source-to-source Datalog program optimisation.
//!
//! The paper motivates the containment machinery with query optimisation
//! ("determining equivalence of queries is one of the most fundamental
//! optimization problems", §1); this module packages the classical
//! semantics-preserving rewrites that the containment substrate makes
//! possible:
//!
//! * [`remove_unreachable_rules`] — drop rules for predicates the goal does
//!   not depend on.
//! * [`minimize_rule_bodies`] — minimise every rule body as a conjunctive
//!   query (remove redundant subgoals; cf. the cores of [`cq::minimize`]).
//! * [`remove_subsumed_rules`] — drop a rule when another rule for the same
//!   predicate subsumes it (there is a containment mapping into it), so the
//!   subsumed rule can never contribute new facts.
//! * [`inline_nonrecursive_predicates`] — resolve away non-recursive
//!   intermediate predicates, trading rule count for rule size (the inverse
//!   of the succinctness phenomenon of Examples 6.1–6.3).
//! * [`eliminate_recursion_with`] — Example 1.1 as a transformation: when the
//!   program is equivalent to its depth-`k` unfolding (decided by
//!   [`crate::bounded`]), return that unfolding as a nonrecursive program.
//!
//! Every rewrite preserves `Q_Π(D)` for the goal predicate on every
//! database; the tests check this differentially against bottom-up
//! evaluation on random instances.

use std::collections::BTreeSet;

use cq::canonical::CqKey;
use cq::minimize::minimize_cq_with;
use cq::ConjunctiveQuery;
use datalog::atom::{Atom, Pred};
use datalog::program::Program;
use datalog::rule::Rule;

use crate::bounded::find_bound_with;
use crate::cache::DecisionCache;
use crate::containment::{DecisionError, DecisionOptions};
use crate::unify::Unifier;

/// A CQ-containment oracle that answers through the shared
/// [`DecisionCache`] and counts the calls it was asked and the calls the
/// cache answered — the numbers [`OptimizeReport`] surfaces.
#[derive(Default)]
struct CountingOracle {
    calls: usize,
    hits: usize,
}

impl CountingOracle {
    /// Is `theta ⊆ psi`, with precomputed keys?
    fn contained_keyed(&mut self, theta: &CqKey, psi: &CqKey) -> bool {
        self.calls += 1;
        let (verdict, hit) = DecisionCache::global().cq_contained_keyed(theta, psi);
        if hit {
            self.hits += 1;
        }
        verdict
    }

    /// Is `a` equivalent to `b` (two containment calls)?
    fn equivalent(&mut self, a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
        let (ka, kb) = (CqKey::of(a), CqKey::of(b));
        self.contained_keyed(&ka, &kb) && self.contained_keyed(&kb, &ka)
    }
}

/// Options for the composite [`optimize`] pass.
#[derive(Clone, Copy, Debug)]
pub struct OptimizeOptions {
    /// Run [`minimize_rule_bodies`].
    pub minimize_bodies: bool,
    /// Run [`remove_subsumed_rules`].
    pub remove_subsumed: bool,
    /// Run [`inline_nonrecursive_predicates`].
    pub inline_nonrecursive: bool,
    /// Abort inlining when the program would grow beyond this many rules.
    pub inline_rule_limit: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            minimize_bodies: true,
            remove_subsumed: true,
            inline_nonrecursive: false,
            inline_rule_limit: 256,
        }
    }
}

/// Size and containment-work accounting for an optimisation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Rules before.
    pub rules_before: usize,
    /// Rules after.
    pub rules_after: usize,
    /// Total atom count before.
    pub atoms_before: usize,
    /// Total atom count after.
    pub atoms_after: usize,
    /// CQ-containment decisions the passes asked for.
    pub containment_calls: usize,
    /// How many of those the shared [`DecisionCache`] answered without
    /// re-deciding (repeated `optimize` runs over the same program answer
    /// everything from the cache).
    pub containment_cache_hits: usize,
    /// How far the [`metrics::global`] registry moved during this pass; its
    /// `strategy_*` counters tally the canonical-database decisions the pass
    /// evaluated.  Process-global counters sampled around the pass, so
    /// concurrent work in other threads can inflate the numbers; cache hits
    /// evaluate nothing and count nothing.
    pub metrics: metrics::MetricsSnapshot,
}

/// Run the configured pipeline: unreachable-rule removal, body minimisation,
/// subsumed-rule removal, optional inlining of non-recursive predicates.
pub fn optimize(
    program: &Program,
    goal: Pred,
    options: OptimizeOptions,
) -> (Program, OptimizeReport) {
    let mut report = OptimizeReport {
        rules_before: program.len(),
        atoms_before: program.atom_count(),
        ..OptimizeReport::default()
    };
    let metrics_before = metrics::global::snapshot();
    let mut oracle = CountingOracle::default();
    let mut current = remove_unreachable_rules(program, goal);
    if options.minimize_bodies {
        current = minimize_rule_bodies_with(&current, &mut oracle);
    }
    if options.remove_subsumed {
        current = remove_subsumed_rules_with(&current, &mut oracle);
    }
    if options.inline_nonrecursive {
        current = inline_nonrecursive_predicates(&current, goal, options.inline_rule_limit);
    }
    report.rules_after = current.len();
    report.atoms_after = current.atom_count();
    report.containment_calls = oracle.calls;
    report.containment_cache_hits = oracle.hits;
    report.metrics = metrics::global::snapshot().since(&metrics_before);
    (current, report)
}

/// Keep only the rules of predicates the goal (transitively) depends on.
pub fn remove_unreachable_rules(program: &Program, goal: Pred) -> Program {
    let mut needed: BTreeSet<Pred> = BTreeSet::from([goal]);
    let mut changed = true;
    while changed {
        changed = false;
        for rule in program.rules() {
            if !needed.contains(&rule.head_pred()) {
                continue;
            }
            for atom in &rule.body {
                if needed.insert(atom.pred) {
                    changed = true;
                }
            }
        }
    }
    Program::new(
        program
            .rules()
            .iter()
            .filter(|r| needed.contains(&r.head_pred()))
            .cloned()
            .collect(),
    )
}

/// Minimise every rule body as a conjunctive query over its (EDB and IDB)
/// body predicates.  Sound for recursive programs because a rule application
/// treats every body predicate as a fixed relation.  Equivalence checks are
/// answered through the shared [`DecisionCache`].
pub fn minimize_rule_bodies(program: &Program) -> Program {
    minimize_rule_bodies_with(program, &mut CountingOracle::default())
}

fn minimize_rule_bodies_with(program: &Program, oracle: &mut CountingOracle) -> Program {
    Program::new(
        program
            .rules()
            .iter()
            .map(|rule| {
                minimize_cq_with(&ConjunctiveQuery::from_rule(rule), &mut |a, b| {
                    oracle.equivalent(a, b)
                })
                .to_rule()
            })
            .collect(),
    )
}

/// Remove rules that are subsumed by another rule for the same predicate:
/// if there is a containment mapping from rule `r'` into rule `r` (both read
/// as conjunctive queries), every fact `r` derives is also derived by `r'`,
/// so `r` can be dropped.  Mutually subsuming (equivalent) rules keep their
/// first representative.
pub fn remove_subsumed_rules(program: &Program) -> Program {
    remove_subsumed_rules_with(program, &mut CountingOracle::default())
}

fn remove_subsumed_rules_with(program: &Program, oracle: &mut CountingOracle) -> Program {
    // Canonicalise (= compute the cache key of) every rule once; the
    // quadratic containment sweep below then runs entirely on keys.
    let queries: Vec<CqKey> = program
        .rules()
        .iter()
        .map(|r| CqKey::of(&ConjunctiveQuery::from_rule(r)))
        .collect();
    let mut keep = vec![true; queries.len()];
    for i in 0..queries.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..queries.len() {
            if i == j || !keep[j] || queries[i].as_query().name() != queries[j].as_query().name() {
                continue;
            }
            // Drop rule i if it is contained in rule j; on equivalence keep
            // the smaller index.
            if oracle.contained_keyed(&queries[i], &queries[j]) {
                let mutual = oracle.contained_keyed(&queries[j], &queries[i]);
                if !mutual || j < i {
                    keep[i] = false;
                    break;
                }
            }
        }
    }
    Program::new(
        program
            .rules()
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(r, _)| r.clone())
            .collect(),
    )
}

/// Resolve one body atom of `rule` against a defining rule of its predicate.
/// Returns `None` when the heads do not unify.
fn resolve_body_atom(rule: &Rule, index: usize, definition: &Rule, fresh: usize) -> Option<Rule> {
    let (definition, _) = definition.freshen(&format!("inl{fresh}_"));
    let mut unifier = Unifier::new();
    if !unifier.unify_atoms(&definition.head, &rule.body[index]) {
        return None;
    }
    let mut body: Vec<Atom> = Vec::with_capacity(rule.body.len() + definition.body.len() - 1);
    body.extend_from_slice(&rule.body[..index]);
    body.extend(definition.body.iter().cloned());
    body.extend_from_slice(&rule.body[index + 1..]);
    Some(Rule::new(
        unifier.apply_atom(&rule.head),
        body.iter().map(|a| unifier.apply_atom(a)).collect(),
    ))
}

/// Inline away every non-recursive IDB predicate other than the goal,
/// resolving each occurrence against all of its defining rules.  Stops (and
/// returns the program built so far) when the result would exceed
/// `rule_limit` rules.
pub fn inline_nonrecursive_predicates(program: &Program, goal: Pred, rule_limit: usize) -> Program {
    let mut current = program.clone();
    let mut fresh = 0usize;
    loop {
        let graph = current.dependency_graph();
        // A predicate is inlinable when it is IDB, not the goal, not
        // involved in any recursion, and actually used in some body.
        let candidate = current.idb_predicates().into_iter().find(|&p| {
            p != goal
                && !graph.is_recursive_pred(p)
                && current
                    .rules()
                    .iter()
                    .any(|r| r.body.iter().any(|a| a.pred == p))
        });
        let Some(target) = candidate else {
            return current;
        };
        let definitions: Vec<Rule> = current.rules_for(target).map(|(_, r)| r.clone()).collect();
        let mut next: Vec<Rule> = Vec::new();
        for rule in current.rules() {
            if rule.head_pred() == target {
                continue; // the definitions themselves disappear
            }
            // Resolve occurrences of `target` one at a time (a rule may
            // mention it several times).  Each pending rule carries its own
            // next occurrence position: the definitions may have different
            // body lengths, so positions are not shared across rules.
            let mut pending = vec![rule.clone()];
            while pending
                .iter()
                .any(|r| r.body.iter().any(|a| a.pred == target))
            {
                // Expansion is multiplicative per occurrence (d^k rules for
                // k occurrences with d definitions), so the limit must be
                // enforced mid-rule, not only after full expansion.
                if pending.len() > rule_limit {
                    return current;
                }
                let mut resolved = Vec::new();
                for r in &pending {
                    let Some(position) = r.body.iter().position(|a| a.pred == target) else {
                        resolved.push(r.clone()); // already fully resolved
                        continue;
                    };
                    for definition in &definitions {
                        fresh += 1;
                        if let Some(new_rule) = resolve_body_atom(r, position, definition, fresh) {
                            resolved.push(new_rule);
                        }
                    }
                }
                pending = resolved;
            }
            next.extend(pending);
            if next.len() > rule_limit {
                return current;
            }
        }
        current = Program::new(next);
    }
}

/// Recursion elimination (Example 1.1 as a transformation): if the program
/// is equivalent to its depth-`k` unfolding for some `k ≤ max_depth`,
/// return that unfolding as a nonrecursive program with the same goal
/// predicate; otherwise return `Ok(None)`.  The default options share the
/// [`DecisionCache`], so a boundedness probe already paid for by
/// [`crate::bounded::find_bound_with`] is never re-decided here.
pub fn eliminate_recursion_with(
    program: &Program,
    goal: Pred,
    max_depth: usize,
    options: DecisionOptions,
) -> Result<Option<Program>, DecisionError> {
    let Some((_, unfolding)) = find_bound_with(program, goal, max_depth, options)? else {
        return Ok(None);
    };
    let rules: Vec<Rule> = unfolding.disjuncts.iter().map(|d| d.to_rule()).collect();
    let nonrecursive = Program::new(rules);
    debug_assert!(nonrecursive.is_nonrecursive());
    Ok(Some(nonrecursive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::eval::evaluate;
    use datalog::generate::{
        chain_database, random_database, random_program, transitive_closure, RandomDatabaseConfig,
        RandomProgramConfig,
    };
    use datalog::parser::parse_program;

    fn goal_answers(
        program: &Program,
        goal: Pred,
        db: &datalog::database::Database,
    ) -> BTreeSet<Vec<datalog::term::Constant>> {
        evaluate(program, db)
            .relation(goal)
            .iter()
            .cloned()
            .collect()
    }

    #[test]
    fn unreachable_rules_are_removed() {
        let program = parse_program(
            "p(X, Y) :- e(X, Y).\n\
             p(X, Y) :- e(X, Z), p(Z, Y).\n\
             junk(X) :- other(X).\n\
             more_junk(X) :- junk(X).",
        )
        .unwrap();
        let cleaned = remove_unreachable_rules(&program, Pred::new("p"));
        assert_eq!(cleaned.len(), 2);
        assert!(cleaned
            .rules()
            .iter()
            .all(|r| r.head_pred() == Pred::new("p")));
    }

    #[test]
    fn redundant_subgoals_are_removed_from_rule_bodies() {
        // The second e-atom is a homomorphic image of the first.
        let program = parse_program("p(X, Y) :- e(X, Y), e(X, W).").unwrap();
        let minimized = minimize_rule_bodies(&program);
        assert_eq!(minimized.rules()[0].body.len(), 1);
        // Semantics preserved on a sample database.
        let db = chain_database("e", 4);
        assert_eq!(
            goal_answers(&program, Pred::new("p"), &db),
            goal_answers(&minimized, Pred::new("p"), &db)
        );
    }

    #[test]
    fn subsumed_rules_are_removed() {
        // The second rule is an instance of the first (more constrained), so
        // it never derives anything new.
        let program = parse_program(
            "p(X, Y) :- e(X, Y).\n\
             p(X, X) :- e(X, X).\n\
             p(X, Y) :- e(X, Y), f(Y).",
        )
        .unwrap();
        let slim = remove_subsumed_rules(&program);
        assert_eq!(slim.len(), 1);
        assert_eq!(slim.rules()[0].body.len(), 1);
    }

    #[test]
    fn equivalent_duplicate_rules_keep_one_copy() {
        let program = parse_program(
            "p(X, Y) :- e(X, Z), e(Z, Y).\n\
             p(A, B) :- e(A, C), e(C, B).",
        )
        .unwrap();
        let slim = remove_subsumed_rules(&program);
        assert_eq!(slim.len(), 1);
    }

    #[test]
    fn recursive_rules_are_never_subsumed_incorrectly() {
        let tc = transitive_closure("e", "e");
        let slim = remove_subsumed_rules(&tc);
        assert_eq!(slim.len(), tc.len(), "neither TC rule subsumes the other");
    }

    #[test]
    fn inlining_eliminates_intermediate_predicates() {
        let program = parse_program(
            "p(X, Y) :- hop(X, Z), hop(Z, Y).\n\
             hop(X, Y) :- e(X, Y).\n\
             hop(X, Y) :- f(X, Y).",
        )
        .unwrap();
        let inlined = inline_nonrecursive_predicates(&program, Pred::new("p"), 64);
        // hop is gone; p now has 2 × 2 = 4 rules over e/f directly.
        assert!(!inlined.idb_predicates().contains(&Pred::new("hop")));
        assert_eq!(inlined.len(), 4);
        let db = {
            let mut db = chain_database("e", 5);
            db.absorb(&chain_database("f", 5));
            db
        };
        assert_eq!(
            goal_answers(&program, Pred::new("p"), &db),
            goal_answers(&inlined, Pred::new("p"), &db)
        );
    }

    #[test]
    fn inlining_handles_definitions_of_different_body_lengths() {
        // After resolving the first `hop` occurrence, the two pending rules
        // have different body lengths, so the second occurrence sits at
        // different positions — a shared position would silently drop the
        // mixed disjuncts (regression test).
        let program = parse_program(
            "p(X, Y) :- hop(X, Z), hop(Z, Y).\n\
             hop(X, Y) :- e(X, Y).\n\
             hop(X, Y) :- e(X, W), e(W, Y).",
        )
        .unwrap();
        let inlined = inline_nonrecursive_predicates(&program, Pred::new("p"), 64);
        assert!(!inlined.idb_predicates().contains(&Pred::new("hop")));
        assert_eq!(inlined.len(), 4, "2 definitions x 2 occurrences");
        let db = chain_database("e", 6);
        assert_eq!(
            goal_answers(&program, Pred::new("p"), &db),
            goal_answers(&inlined, Pred::new("p"), &db)
        );
    }

    #[test]
    fn inlining_respects_the_rule_limit_and_recursion() {
        let tc = transitive_closure("e", "e");
        // The only IDB predicate is recursive, so nothing changes.
        let same = inline_nonrecursive_predicates(&tc, Pred::new("p"), 64);
        assert_eq!(same.len(), tc.len());
        // A tiny limit aborts the transformation and returns the input.
        let program = parse_program(
            "p(X, Y) :- hop(X, Z), hop(Z, Y).\n\
             hop(X, Y) :- e(X, Y).\n\
             hop(X, Y) :- f(X, Y).\n\
             hop(X, Y) :- g(X, Y).",
        )
        .unwrap();
        let aborted = inline_nonrecursive_predicates(&program, Pred::new("p"), 2);
        assert_eq!(aborted.len(), program.len());
        // Mid-rule blow-up: three hop occurrences x four definitions would
        // materialise 4^3 intermediate rules; the limit must abort during
        // the expansion, not only after it.
        let wide = parse_program(
            "p(X, Y) :- hop(X, Z), hop(Z, W), hop(W, Y).\n\
             hop(X, Y) :- e(X, Y).\n\
             hop(X, Y) :- f(X, Y).\n\
             hop(X, Y) :- g(X, Y).\n\
             hop(X, Y) :- h(X, Y).",
        )
        .unwrap();
        let aborted = inline_nonrecursive_predicates(&wide, Pred::new("p"), 8);
        assert_eq!(aborted.len(), wide.len());
    }

    #[test]
    fn recursion_elimination_reproduces_example_1_1() {
        let bounded = parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), buys(Z, Y).",
        )
        .unwrap();
        let nonrec =
            eliminate_recursion_with(&bounded, Pred::new("buys"), 3, DecisionOptions::default())
                .unwrap()
                .expect("Π₁ of Example 1.1 is bounded");
        assert!(nonrec.is_nonrecursive());
        assert_eq!(nonrec.len(), 2);

        let unbounded = parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), buys(Z, Y).",
        )
        .unwrap();
        assert!(eliminate_recursion_with(
            &unbounded,
            Pred::new("buys"),
            3,
            DecisionOptions::default()
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn full_pipeline_preserves_semantics_on_random_programs() {
        let program_config = RandomProgramConfig {
            edb_predicates: 2,
            idb_predicates: 2,
            rules: 5,
            max_body_atoms: 3,
            max_variables: 4,
            idb_probability: 0.35,
        };
        let db_config = RandomDatabaseConfig {
            domain_size: 4,
            relations: vec![("e0".into(), 2, 7), ("e1".into(), 2, 7)],
        };
        let goal = Pred::new("q0");
        for seed in 0..40u64 {
            let program = random_program(&program_config, seed);
            let (optimized, report) = optimize(
                &program,
                goal,
                OptimizeOptions {
                    inline_nonrecursive: true,
                    ..OptimizeOptions::default()
                },
            );
            assert!(report.rules_after <= report.rules_before + 64);
            for db_seed in 0..3u64 {
                let db = random_database(&db_config, seed * 17 + db_seed);
                assert_eq!(
                    goal_answers(&program, goal, &db),
                    goal_answers(&optimized, goal, &db),
                    "optimisation changed the goal relation (seed {seed}, db {db_seed})"
                );
            }
        }
    }

    #[test]
    fn repeated_optimize_answers_containment_from_the_cache() {
        // The ablation bench's messy workload: the first pass may or may not
        // be warm (other tests share the global cache), but a repeated pass
        // must answer every containment question it asks from the cache.
        let messy = parse_program(
            "reach(X, Y) :- hop(X, Y).\n\
             reach(X, Y) :- hop(X, Z), reach(Z, Y).\n\
             reach(X, Y) :- hop(X, Y), hop(X, W), hop(X, W2).\n\
             reach(X, Y) :- hop(X, Z), hop(X, Z2), reach(Z, Y).\n\
             hop(X, Y) :- e(X, Y).\n\
             hop(X, Y) :- e(X, Y), e(X, W).",
        )
        .unwrap();
        let goal = Pred::new("reach");
        let (first_program, first) = optimize(&messy, goal, OptimizeOptions::default());
        assert!(first.containment_calls > 0);
        let (second_program, second) = optimize(&messy, goal, OptimizeOptions::default());
        assert_eq!(first_program, second_program);
        assert_eq!(second.containment_calls, first.containment_calls);
        assert!(
            second.containment_cache_hits > 0,
            "repeated pass must hit the shared cache"
        );
        assert_eq!(second.containment_cache_hits, second.containment_calls);
    }

    #[test]
    fn report_accounts_for_removed_rules_and_atoms() {
        let program = parse_program(
            "p(X, Y) :- e(X, Y), e(X, Y).\n\
             p(X, Y) :- e(X, Y).\n\
             junk(X) :- e(X, X).",
        )
        .unwrap();
        let (optimized, report) = optimize(&program, Pred::new("p"), OptimizeOptions::default());
        assert_eq!(report.rules_before, 3);
        assert_eq!(report.rules_after, 1);
        assert!(report.atoms_after < report.atoms_before);
        assert_eq!(optimized.len(), 1);
    }
}
