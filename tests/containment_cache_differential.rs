//! Differential lock between the cached decision engine and the uncached
//! reference oracle.
//!
//! The `DecisionCache` (PR 3) makes memoised decisions the default across
//! `datalog_contained_in_ucq_with`, `bounded::find_bound_with`, `equivalence`,
//! and the `optimize` passes.  This suite pins the cached engine to the
//! uncached path the same way `tests/strategy_differential.rs` pins the
//! indexed evaluation engine to the naive one:
//!
//! * ≥ 200 generated (program, UCQ) pairs: verdicts must agree between the
//!   cached call, a repeated (hence cache-served) call, and the uncached
//!   oracle — and every counterexample, fresh or recalled, must be
//!   verifiable by brute-force evaluation;
//! * generated (program, candidate-program) equivalence instances: the
//!   full pipeline must agree with the uncached pipeline;
//! * the worklist-vs-rounds agreement on the tree-containment fixtures
//!   lives next to the engines (`automata::tree::containment` unit tests
//!   and `crates/automata/tests/prop.rs`).

use cq::eval::evaluate_ucq;
use cq::generate::{random_cq, RandomCqConfig};
use cq::Ucq;
use datalog::atom::Pred;
use datalog::eval::evaluate;
use datalog::generate::{random_program, RandomProgramConfig};
use datalog::program::Program;
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_with, ContainmentResult, DecisionOptions,
};
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::expansions_up_to_depth_limited;

const PAIRS: u64 = 220;

fn program_config() -> RandomProgramConfig {
    RandomProgramConfig {
        edb_predicates: 2,
        idb_predicates: 2,
        rules: 3,
        max_body_atoms: 2,
        max_variables: 3,
        idb_probability: 0.3,
    }
}

/// A random UCQ whose disjuncts all have the goal's arity (2).
fn random_ucq(seed: u64) -> Ucq {
    let config = RandomCqConfig {
        body_atoms: 2,
        variables: 3,
        distinguished: 2,
        predicates: vec!["e0".into(), "e1".into()],
    };
    let disjuncts = 1 + (seed % 3) as usize;
    let mut out = Ucq::empty();
    let mut attempt = seed.wrapping_mul(97);
    while out.len() < disjuncts {
        let candidate = random_cq(&config, attempt);
        attempt = attempt.wrapping_add(1);
        if candidate.arity() == 2 {
            out.push(candidate);
        }
    }
    out
}

fn options(use_cache: bool) -> DecisionOptions {
    DecisionOptions {
        use_cache,
        // A safety valve so a pathological generated pair cannot hang the
        // suite; the limit is part of the cache key, so cached and uncached
        // runs see identical budgets.
        max_pairs: Some(50_000),
        ..DecisionOptions::default()
    }
}

/// Brute-force check of a non-containment counterexample.
fn assert_counterexample_is_valid(
    program: &Program,
    goal: Pred,
    ucq: &Ucq,
    result: &ContainmentResult,
    context: &str,
) {
    let cex = result
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("{context}: non-containment without counterexample"));
    let derived = evaluate(program, &cex.database);
    assert!(
        derived.relation(goal).contains(&cex.goal_tuple),
        "{context}: program does not derive the goal tuple on the witness database"
    );
    assert!(
        !evaluate_ucq(ucq, &cex.database).contains(&cex.goal_tuple),
        "{context}: the UCQ answers the goal tuple on the witness database"
    );
}

#[test]
fn cached_and_uncached_containment_verdicts_agree_on_generated_pairs() {
    let goal = Pred::new("q0");
    let mut decided = 0u32;
    let mut not_contained = 0u32;
    for seed in 0..PAIRS {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);

        let uncached = datalog_contained_in_ucq_with(&program, goal, &ucq, options(false));
        let cached = datalog_contained_in_ucq_with(&program, goal, &ucq, options(true));
        // A second cached call must be served from the cache (same key) and
        // still agree — this exercises the recall path including the stored
        // counterexample.
        let recalled = datalog_contained_in_ucq_with(&program, goal, &ucq, options(true));

        match (&uncached, &cached, &recalled) {
            (Ok(u), Ok(c), Ok(r)) => {
                assert_eq!(u.contained, c.contained, "seed {seed}: cached diverged");
                assert_eq!(u.contained, r.contained, "seed {seed}: recall diverged");
                decided += 1;
                if !u.contained {
                    not_contained += 1;
                    assert_counterexample_is_valid(&program, goal, &ucq, u, "uncached");
                    assert_counterexample_is_valid(&program, goal, &ucq, c, "cached");
                    assert_counterexample_is_valid(&program, goal, &ucq, r, "recalled");
                }
            }
            (Err(u), Err(c), Err(r)) => {
                assert_eq!(u, c, "seed {seed}: cached error diverged");
                assert_eq!(u, r, "seed {seed}: recalled error diverged");
            }
            _ => panic!(
                "seed {seed}: cached and uncached disagree on success vs error: \
                 uncached={uncached:?} cached={cached:?}"
            ),
        }
    }
    // The sweep must actually exercise both verdicts, not degenerate.
    assert!(decided >= 200, "only {decided} pairs decided");
    assert!(not_contained > 0, "no non-containment was generated");
    assert!(
        decided > not_contained,
        "no containment was generated (all {decided} pairs refuted)"
    );
}

#[test]
fn cached_and_uncached_equivalence_verdicts_agree_on_generated_instances() {
    let goal = Pred::new("q0");
    let mut equivalent = 0u32;
    let mut inequivalent = 0u32;
    for seed in 0..40u64 {
        let program = random_program(&program_config(), seed);
        // Candidate: the program's own unfolding to a shallow depth, as a
        // nonrecursive program.  Bounded programs make it equivalent;
        // genuinely recursive ones make the recursive side exceed.
        let unfolding = expansions_up_to_depth_limited(&program, goal, 2, usize::MAX).unwrap();
        if unfolding.is_empty() || unfolding.len() > 24 {
            continue;
        }
        let candidate = Program::new(unfolding.disjuncts.iter().map(|d| d.to_rule()).collect());

        let uncached = equivalent_to_nonrecursive_with(&program, goal, &candidate, options(false));
        let cached = equivalent_to_nonrecursive_with(&program, goal, &candidate, options(true));
        match (&uncached, &cached) {
            (Ok(u), Ok(c)) => {
                assert_eq!(
                    u.verdict.is_equivalent(),
                    c.verdict.is_equivalent(),
                    "seed {seed}: equivalence verdict diverged"
                );
                if u.verdict.is_equivalent() {
                    equivalent += 1;
                } else {
                    inequivalent += 1;
                }
                // When the recursive side exceeds, both pipelines must carry
                // brute-force-verifiable counterexamples.
                for (label, result) in [("uncached", u), ("cached", c)] {
                    if let EquivalenceVerdict::RecursiveExceeds(cex) = &result.verdict {
                        let rec = evaluate(&program, &cex.database);
                        let nonrec = evaluate(&candidate, &cex.database);
                        assert!(
                            rec.relation(goal).contains(&cex.goal_tuple),
                            "seed {seed} ({label}): witness tuple not derived"
                        );
                        assert!(
                            !nonrec.relation(goal).contains(&cex.goal_tuple),
                            "seed {seed} ({label}): witness tuple derived by candidate"
                        );
                    }
                }
            }
            (Err(_), Err(_)) => {}
            _ => panic!("seed {seed}: cached and uncached disagree on success vs error"),
        }
    }
    assert!(equivalent > 0, "no equivalent instance generated");
    assert!(inequivalent > 0, "no inequivalent instance generated");
}

#[test]
fn cq_pair_cache_agrees_with_direct_containment() {
    use cq::containment::cq_contained_in;
    use nonrec_equivalence::cache::DecisionCache;
    let config = RandomCqConfig {
        body_atoms: 3,
        variables: 3,
        distinguished: 1,
        predicates: vec!["e".into(), "f".into()],
    };
    let cache = DecisionCache::new();
    for seed in 0..200u64 {
        let a = random_cq(&config, seed);
        let b = random_cq(&config, seed.wrapping_add(1_000));
        let direct = cq_contained_in(&a, &b);
        let (first, _) = cache.cq_contained(&a, &b);
        let (second, hit) = cache.cq_contained(&a, &b);
        assert_eq!(direct, first, "seed {seed}: cached verdict diverged");
        assert_eq!(direct, second, "seed {seed}: recalled verdict diverged");
        assert!(hit, "seed {seed}: repeat lookup missed the cache");
    }
    let stats = cache.stats();
    assert!(stats.hits >= 200);
}
