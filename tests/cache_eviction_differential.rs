//! Differential lock for cache **eviction**: a tiny bounded cache, the
//! unbounded reference cache, and the uncached oracle must answer every
//! instance identically.
//!
//! `tests/containment_cache_differential.rs` (PR 3) pinned *memoisation*
//! to the uncached path; this suite pins *forgetting*.  The bounded cache
//! is capped at roughly **1/10th of the working set**, so the sweep
//! constantly evicts — and eviction must be invisible in every answer:
//!
//! * ≥ 200 generated (program, UCQ) pairs: verdicts and counterexample
//!   witnesses identical across the three engines, including a re-query
//!   after churn (which may hit, or recompute an evicted entry — both
//!   must answer the same);
//! * the CQ-pair and canonical-database segments get the same treatment
//!   against their own oracles;
//! * the bounded cache's stats must show evictions actually occurred and
//!   its occupancy must respect the caps throughout — otherwise this
//!   suite would be vacuously passing on an effectively unbounded cache.

use cq::canonical::CqKey;
use cq::generate::{random_cq, RandomCqConfig};
use cq::Ucq;
use datalog::atom::Pred;
use datalog::generate::{random_program, RandomProgramConfig};
use metrics::NoMetrics;
use nonrec_equivalence::cache::{CacheLimits, DecisionCache, ProgramKey};
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_in, ContainmentResult, DecisionError, DecisionOptions,
};

const PAIRS: u64 = 220;

/// 1/10th of the decision working set (one decision key per seed).
const DECISION_CAP: usize = (PAIRS / 10) as usize;

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
        max_pairs: Some(50_000),
        ..DecisionOptions::default()
    }
}

/// The comparable shape of an outcome: verdict plus the full witness
/// (expansion, sorted canonical database, goal tuple) when refuted.  The
/// decision engine is deterministic, so evicted-and-recomputed entries
/// must reproduce their witness *exactly*, not just validly.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Decided {
        contained: bool,
        witness: Option<(String, Vec<String>, Vec<String>)>,
    },
    Failed(String),
}

fn outcome(result: &Result<ContainmentResult, DecisionError>) -> Outcome {
    match result {
        Ok(result) => Outcome::Decided {
            contained: result.contained,
            witness: result.counterexample.as_ref().map(|cex| {
                let mut facts: Vec<String> = cex.database.facts().map(|f| f.to_string()).collect();
                facts.sort();
                (
                    cex.expansion.to_string(),
                    facts,
                    cex.goal_tuple
                        .iter()
                        .map(|c| c.name().to_string())
                        .collect(),
                )
            }),
        },
        Err(e) => Outcome::Failed(e.code().to_string()),
    }
}

#[test]
fn tiny_bounded_cache_answers_like_the_unbounded_and_uncached_engines() {
    let goal = Pred::new("q0");
    let tiny = DecisionCache::with_limits(CacheLimits {
        max_decisions: Some(DECISION_CAP),
        ..CacheLimits::default()
    });
    let unbounded = DecisionCache::new();

    let mut refuted = 0u32;
    for seed in 0..PAIRS {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);

        let reference = outcome(&datalog_contained_in_ucq_in(
            &unbounded,
            &program,
            goal,
            &ucq,
            options(false),
            &mut NoMetrics,
        ));
        let via_unbounded = outcome(&datalog_contained_in_ucq_in(
            &unbounded,
            &program,
            goal,
            &ucq,
            options(true),
            &mut NoMetrics,
        ));
        let via_tiny = outcome(&datalog_contained_in_ucq_in(
            &tiny,
            &program,
            goal,
            &ucq,
            options(true),
            &mut NoMetrics,
        ));
        // Under churn a repeat may hit or recompute an evicted entry —
        // either way the answer must not move.
        let via_tiny_again = outcome(&datalog_contained_in_ucq_in(
            &tiny,
            &program,
            goal,
            &ucq,
            options(true),
            &mut NoMetrics,
        ));

        assert_eq!(reference, via_unbounded, "seed {seed}: unbounded diverged");
        assert_eq!(reference, via_tiny, "seed {seed}: bounded diverged");
        assert_eq!(
            reference, via_tiny_again,
            "seed {seed}: churn re-query diverged"
        );
        if matches!(
            reference,
            Outcome::Decided {
                witness: Some(_),
                ..
            }
        ) {
            refuted += 1;
        }

        // The cap is an invariant, not an end-state: check it mid-sweep.
        assert!(
            tiny.sizes().decisions <= DECISION_CAP,
            "seed {seed}: bounded cache grew past its cap"
        );
    }

    assert!(
        refuted > 0,
        "the sweep must exercise witness-carrying entries"
    );
    let tiny_stats = tiny.stats();
    assert!(
        tiny_stats.evicted_decisions > 0,
        "a 1/10th-working-set cap must actually evict"
    );
    assert!(
        tiny_stats.hits > 0,
        "re-queries before eviction must still hit"
    );
    let unbounded_stats = unbounded.stats();
    assert_eq!(
        unbounded_stats.evictions(),
        0,
        "the unbounded reference must never evict"
    );
    assert!(
        unbounded.sizes().decisions >= 10 * DECISION_CAP,
        "working set must be >= 10x the bounded cap for the ratio to mean anything"
    );
}

#[test]
fn cq_pair_segment_stays_truthful_under_eviction() {
    let config = RandomCqConfig {
        body_atoms: 2,
        variables: 3,
        distinguished: 1,
        predicates: vec!["e0".into(), "e1".into()],
    };
    let tiny = DecisionCache::with_limits(CacheLimits {
        max_cq_pairs: Some(12),
        ..CacheLimits::default()
    });
    for seed in 0..200u64 {
        let theta = random_cq(&config, seed);
        let psi = random_cq(&config, seed.wrapping_add(100_000));
        let oracle = cq::containment::cq_contained_in(&theta, &psi);
        let (first, _) = tiny.cq_contained(&theta, &psi);
        let (second, _) = tiny.cq_contained(&theta, &psi);
        assert_eq!(oracle, first, "seed {seed}: bounded cq-pair cache diverged");
        assert_eq!(oracle, second, "seed {seed}: churn re-query diverged");
        assert!(tiny.sizes().cq_pairs <= 12, "seed {seed}: cap violated");
    }
    assert!(tiny.stats().evicted_cq_pairs > 0);
}

#[test]
fn canonical_db_segment_stays_truthful_under_eviction() {
    let goal = Pred::new("q0");
    let cq_config = RandomCqConfig {
        body_atoms: 2,
        variables: 3,
        distinguished: 2,
        predicates: vec!["e0".into(), "e1".into()],
    };
    let tiny = DecisionCache::with_limits(CacheLimits {
        max_cq_in_program: Some(8),
        ..CacheLimits::default()
    });
    let mut computes = 0u32;
    let probe = |seed: u64, computes: &mut u32| {
        let program = random_program(&program_config(), seed % 6);
        let program_key = ProgramKey::of(&program);
        let theta = CqKey::of(&random_cq(&cq_config, seed));
        // The oracle is the compute closure itself: deterministic in the
        // key, so a recomputation after eviction must reproduce it.
        let oracle = seed.is_multiple_of(3);
        for round in 0..2 {
            let (verdict, _) = tiny.cq_in_datalog_cached(&program_key, goal, &theta, || {
                *computes += 1;
                oracle
            });
            assert_eq!(oracle, verdict, "seed {seed} round {round}: verdict moved");
        }
        assert!(tiny.sizes().cq_in_program <= 8, "seed {seed}: cap violated");
    };
    for seed in 0..120u64 {
        probe(seed, &mut computes);
    }
    assert!(tiny.stats().evicted_cq_in_program > 0);
    // Re-query the earliest keys: long since evicted by the churn above,
    // so they must recompute — to the same verdicts.
    let before_resweep = computes;
    for seed in 0..20u64 {
        probe(seed, &mut computes);
    }
    assert!(
        computes > before_resweep,
        "eviction must force recomputation of forgotten entries"
    );
}
