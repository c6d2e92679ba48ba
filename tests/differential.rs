//! Differential and property-based tests: the decision procedures are
//! checked against brute-force evaluation on concrete databases, and the
//! substrate invariants (Chandra–Merlin, naive vs. semi-naive evaluation)
//! are checked on randomly generated instances.

use cq::canonical::canonical_database;
use cq::containment::{cq_contained_in, ucq_contained_in};
use cq::eval::{evaluate_cq, evaluate_ucq};
use cq::generate::{bounded_path_ucq_binary, random_cq, RandomCqConfig};
use datalog::atom::Pred;
use datalog::eval::{evaluate, evaluate_with, EvalOptions, Strategy};
use datalog::generate::{
    random_database, random_program, RandomDatabaseConfig, RandomProgramConfig,
};
use nonrec_equivalence::containment::{datalog_contained_in_ucq_with, DecisionOptions};
use nonrec_equivalence::expansions_up_to_depth_limited;

const CASES: u64 = 48;

/// Spread consecutive case indices across decorrelated seed streams (the
/// offline build has no `proptest`; properties run as deterministic seed
/// loops instead — see `rng::spread_seed`).
fn spread(case: u64) -> u64 {
    rng::spread_seed(case)
}

/// If the decision procedure says Π ⊆ Θ, then on every sampled database the
/// program's answers are a subset of the union's answers; if it says the
/// opposite, the produced counterexample must check out.
#[test]
fn containment_decision_agrees_with_evaluation_on_random_inputs() {
    let program_config = RandomProgramConfig {
        edb_predicates: 1,
        idb_predicates: 1,
        rules: 3,
        max_body_atoms: 2,
        max_variables: 3,
        idb_probability: 0.4,
    };
    let db_config = RandomDatabaseConfig {
        domain_size: 4,
        relations: vec![("e0".into(), 2, 8)],
    };
    let goal = Pred::new("q0");
    let mut decided_contained = 0;
    let mut decided_not = 0;
    for seed in 0..25u64 {
        let program = random_program(&program_config, seed);
        for depth in 1..=2usize {
            let ucq = expansions_up_to_depth_limited(&program, goal, depth, usize::MAX).unwrap();
            if ucq.is_empty() || ucq.len() > 40 {
                continue;
            }
            let Ok(result) =
                datalog_contained_in_ucq_with(&program, goal, &ucq, DecisionOptions::default())
            else {
                continue;
            };
            if result.contained {
                decided_contained += 1;
                for db_seed in 0..3u64 {
                    let db = random_database(&db_config, seed * 31 + db_seed);
                    let evaluated = evaluate(&program, &db);
                    let program_answers: std::collections::BTreeSet<_> =
                        evaluated.relation(goal).iter().cloned().collect();
                    let ucq_answers = evaluate_ucq(&ucq, &db);
                    assert!(
                        program_answers.is_subset(&ucq_answers),
                        "seed {seed}, depth {depth}: decision said contained but evaluation disagrees"
                    );
                }
            } else {
                decided_not += 1;
                let cex = result.counterexample.expect("counterexample present");
                let evaluated = evaluate(&program, &cex.database);
                assert!(evaluated.relation(goal).contains(&cex.goal_tuple));
                assert!(!evaluate_ucq(&ucq, &cex.database).contains(&cex.goal_tuple));
            }
        }
    }
    // The workload must exercise both outcomes to be meaningful.
    assert!(decided_contained > 0, "no contained instances sampled");
    assert!(decided_not > 0, "no non-contained instances sampled");
}

/// The bounded unfolding is always contained in the program (it is a union
/// of expansions), and the decision procedure agrees.
#[test]
fn bounded_unfoldings_are_always_contained_in_the_program() {
    let tc = datalog::generate::transitive_closure("e", "e");
    for depth in 1..=4 {
        let ucq = expansions_up_to_depth_limited(&tc, Pred::new("p"), depth, usize::MAX).unwrap();
        assert!(nonrec_equivalence::ucq_contained_in_datalog_with(
            &ucq,
            &tc,
            Pred::new("p"),
            datalog::eval::EvalOptions::default().strategy,
        ));
    }
    // And the converse only at no finite depth: Π ⊄ unfolding.
    for depth in 1..=3 {
        let ucq = expansions_up_to_depth_limited(&tc, Pred::new("p"), depth, usize::MAX).unwrap();
        let r =
            datalog_contained_in_ucq_with(&tc, Pred::new("p"), &ucq, DecisionOptions::default())
                .unwrap();
        assert!(!r.contained);
    }
}

/// The word-automata fast path and the tree-automata path always agree on
/// chain-shaped programs.
#[test]
fn word_and_tree_decision_paths_agree() {
    let tc = datalog::generate::transitive_closure("e", "e");
    for k in 1..=3 {
        let ucq = bounded_path_ucq_binary("e", k);
        let word = datalog_contained_in_ucq_with(
            &tc,
            Pred::new("p"),
            &ucq,
            DecisionOptions {
                allow_word_path: true,
                ..Default::default()
            },
        )
        .unwrap();
        let tree = datalog_contained_in_ucq_with(
            &tc,
            Pred::new("p"),
            &ucq,
            DecisionOptions {
                allow_word_path: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(word.contained, tree.contained, "k = {k}");
    }
}

/// Chandra–Merlin, sampled: θ ⊆ ψ (decided by containment mapping) iff
/// ψ answers θ's canonical database at θ's frozen head tuple.
#[test]
fn chandra_merlin_on_random_cq_pairs() {
    let config = RandomCqConfig {
        body_atoms: 3,
        variables: 3,
        distinguished: 1,
        predicates: vec!["e".into()],
    };
    for case in 0..CASES {
        let seed_a = spread(case);
        let seed_b = spread(case.wrapping_add(CASES));
        let theta = random_cq(&config, seed_a);
        let psi = random_cq(&config, seed_b);
        let decided = cq_contained_in(&theta, &psi);
        let frozen = canonical_database(&theta);
        let semantic = evaluate_cq(&psi, &frozen.database).contains(&frozen.head_tuple);
        assert_eq!(decided, semantic, "case {case}");
    }
}

/// Naive and semi-naive evaluation always compute the same fixpoint.
/// (The indexed strategy — the default — is locked to both across a larger
/// seed range in `tests/strategy_differential.rs`.)
#[test]
fn naive_and_semi_naive_agree_on_random_programs() {
    for case in 0..CASES {
        let seed = spread(case);
        let program = random_program(&RandomProgramConfig::default(), seed);
        let db = random_database(
            &RandomDatabaseConfig {
                domain_size: 4,
                relations: vec![("e0".into(), 2, 6), ("e1".into(), 2, 6)],
            },
            seed,
        );
        let naive = evaluate_with(
            &program,
            &db,
            EvalOptions {
                strategy: Strategy::Naive,
                ..Default::default()
            },
        );
        let semi = evaluate_with(
            &program,
            &db,
            EvalOptions {
                strategy: Strategy::SemiNaive,
                ..Default::default()
            },
        );
        assert_eq!(naive.database, semi.database, "case {case}");
    }
}

/// Sagiv–Yannakakis containment is sound on sampled databases: whenever
/// Φ ⊆ Ψ is decided, the evaluated answers are included.
#[test]
fn ucq_containment_is_sound_on_samples() {
    for case in 0..CASES {
        let seed = spread(case);
        let n = 2 + (case % 3) as usize; // n in 2..5
        let phi = bounded_path_ucq_binary("e", n - 1);
        let psi = bounded_path_ucq_binary("e", n);
        assert!(ucq_contained_in(&phi, &psi), "case {case}");
        let db = random_database(
            &RandomDatabaseConfig {
                domain_size: 5,
                relations: vec![("e".into(), 2, 10)],
            },
            seed,
        );
        let phi_answers = evaluate_ucq(&phi, &db);
        let psi_answers = evaluate_ucq(&psi, &db);
        assert!(phi_answers.is_subset(&psi_answers), "case {case}");
    }
}

/// Expansions of bounded depth under-approximate the fixpoint, and the
/// depth-d expansions answer exactly what d rounds of semi-naive
/// evaluation derive (Proposition 2.6, bounded form) on chain databases.
#[test]
fn bounded_expansions_match_bounded_evaluation() {
    for len in 1usize..6 {
        for depth in 1usize..5 {
            let tc = datalog::generate::transitive_closure("e", "e");
            let db = datalog::generate::chain_database("e", len);
            let ucq =
                expansions_up_to_depth_limited(&tc, Pred::new("p"), depth, usize::MAX).unwrap();
            let expansions = evaluate_ucq(&ucq, &db);
            let bounded = evaluate_with(
                &tc,
                &db,
                EvalOptions {
                    max_iterations: Some(depth),
                    ..Default::default()
                },
            );
            let bounded_answers: std::collections::BTreeSet<_> =
                bounded.relation(Pred::new("p")).iter().cloned().collect();
            assert_eq!(expansions, bounded_answers, "len {len}, depth {depth}");
        }
    }
}
