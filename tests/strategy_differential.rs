//! Differential harness locking the optimized evaluation paths to the
//! naive semantics.
//!
//! The indexed join engine (`datalog::eval::Strategy::Indexed`, the
//! default) and the sharded UCQ evaluator (`cq::eval::evaluate_ucq`) exist
//! purely for speed; this suite pins them, on generated instances, to the
//! reference implementations they optimize:
//!
//! * Naive, SemiNaive, and Indexed compute identical fixpoints and
//!   identical bounded prefixes `Q^i_Π(D)` on ~200 random program/database
//!   pairs (deterministic seed loop via `rng::spread_seed`);
//! * Indexed never does more join probes than SemiNaive on the
//!   `[bench] evaluation/*` workload shapes (the probe-count regression
//!   gate, also enforced by the bench target itself under
//!   `scripts/verify.sh`);
//! * the goal-directed magic rewrite (`Strategy::Magic` through
//!   `evaluate_goal_with`) returns exactly the indexed engine's
//!   goal-restricted answers on ~200 random program/database/pattern
//!   triples, agrees with every other strategy on the canonical-database
//!   containment verdicts of ~200 random query/program pairs, and probes
//!   no more than indexed on the selective bench shape (chain);
//! * parallel UCQ evaluation returns the same answer set, in the same
//!   iteration order, as the sequential path on the Section 5.3
//!   lower-bound error-query unions, for several forced thread counts.
//!
//! Magic is deliberately exempt from the iteration-for-iteration `Q^i`
//! agreement below: its stats describe the rewritten program's fixpoint,
//! not the original's.

use cq::eval::{evaluate_ucq_sequential, evaluate_ucq_with, UcqEvalOptions};
use datalog::atom::Pred;
use datalog::eval::{evaluate_with, EvalOptions, EvalResult, Strategy};
use datalog::generate::{
    chain_database, cycle_database, random_database, random_program, transitive_closure,
    RandomDatabaseConfig, RandomProgramConfig,
};
use datalog::Database;
use datalog::Program;

const CASES: u64 = 200;

fn spread(case: u64) -> u64 {
    rng::spread_seed(case)
}

fn run(program: &Program, db: &Database, strategy: Strategy, bound: Option<usize>) -> EvalResult {
    evaluate_with(
        program,
        db,
        EvalOptions {
            strategy,
            max_iterations: bound,
            // Safety valve: random recursive programs over this domain stay
            // tiny, but a runaway case should fail the assert, not hang.
            max_facts: Some(20_000),
        },
    )
}

fn program_config() -> RandomProgramConfig {
    RandomProgramConfig {
        edb_predicates: 2,
        idb_predicates: 2,
        rules: 5,
        max_body_atoms: 3,
        max_variables: 4,
        idb_probability: 0.4,
    }
}

fn db_config() -> RandomDatabaseConfig {
    RandomDatabaseConfig {
        domain_size: 4,
        relations: vec![("e0".into(), 2, 7), ("e1".into(), 2, 7)],
    }
}

/// Naive, SemiNaive, and Indexed produce identical fixpoints on ~200
/// generated program/database pairs.
#[test]
fn all_strategies_compute_identical_fixpoints() {
    for case in 0..CASES {
        let seed = spread(case);
        let program = random_program(&program_config(), seed);
        let db = random_database(&db_config(), spread(case.wrapping_add(CASES)));
        let naive = run(&program, &db, Strategy::Naive, None);
        let semi = run(&program, &db, Strategy::SemiNaive, None);
        let indexed = run(&program, &db, Strategy::Indexed, None);
        assert_eq!(naive.database, semi.database, "case {case}: semi-naive");
        assert_eq!(naive.database, indexed.database, "case {case}: indexed");
        assert_eq!(
            semi.stats.derived_facts, indexed.stats.derived_facts,
            "case {case}: derived-fact counts"
        );
        assert_eq!(
            semi.stats.iterations, indexed.stats.iterations,
            "case {case}: iteration counts"
        );
    }
}

/// The bounded prefixes `Q^i_Π(D)` agree across strategies: iteration `i`
/// of every engine derives exactly the facts of naive iteration `i`.
#[test]
fn all_strategies_compute_identical_bounded_prefixes() {
    // Fewer cases — each runs 4 bounded evaluations per strategy.
    for case in 0..CASES / 4 {
        let seed = spread(case.wrapping_add(2 * CASES));
        let program = random_program(&program_config(), seed);
        let db = random_database(&db_config(), spread(case.wrapping_add(3 * CASES)));
        for bound in 0..4usize {
            let naive = run(&program, &db, Strategy::Naive, Some(bound));
            let semi = run(&program, &db, Strategy::SemiNaive, Some(bound));
            let indexed = run(&program, &db, Strategy::Indexed, Some(bound));
            assert_eq!(
                naive.database, semi.database,
                "case {case}, bound {bound}: semi-naive prefix"
            );
            assert_eq!(
                naive.database, indexed.database,
                "case {case}, bound {bound}: indexed prefix"
            );
        }
    }
}

/// Probe-count regression gate: on the `[bench] evaluation/*` workload
/// shapes (transitive closure over chains and cycles), the indexed engine
/// never does more join probes than scan-based semi-naive, and the gap
/// widens with the instance.
#[test]
fn indexed_probes_do_not_regress_past_semi_naive_on_bench_shapes() {
    let program = transitive_closure("e", "e");
    let mut chain_ratios: Vec<f64> = Vec::new();
    for n in [8usize, 16, 32] {
        for (db_name, db) in [
            ("chain", chain_database("e", n)),
            ("cycle", cycle_database("e", n)),
        ] {
            let semi = run(&program, &db, Strategy::SemiNaive, None);
            let indexed = run(&program, &db, Strategy::Indexed, None);
            assert_eq!(semi.database, indexed.database, "{db_name} n={n}");
            assert!(
                indexed.stats.probes <= semi.stats.probes,
                "{db_name} n={n}: indexed {} probes > semi-naive {}",
                indexed.stats.probes,
                semi.stats.probes
            );
            if db_name == "chain" {
                chain_ratios.push(indexed.stats.probes as f64 / semi.stats.probes as f64);
            }
        }
    }
    // The relative advantage must grow with the instance: the
    // indexed/semi-naive probe ratio on chains is non-increasing in n and
    // strictly better at n = 32 than at n = 8.
    assert!(
        chain_ratios.windows(2).all(|w| w[1] <= w[0]),
        "probe ratio increased with n: {chain_ratios:?}"
    );
    assert!(
        chain_ratios.last().unwrap() < chain_ratios.first().unwrap(),
        "no asymptotic improvement: {chain_ratios:?}"
    );
}

/// Magic-vs-indexed differential: on ~200 random program/database pairs,
/// `evaluate_goal_with` under `Strategy::Magic` returns exactly the same
/// database (EDB + matching goal facts) as under `Strategy::Indexed`, for
/// an all-free pattern, fully bound patterns taken from derivable tuples,
/// and a (usually underivable) repeated-constant pattern.
#[test]
fn magic_goal_evaluation_matches_indexed_on_random_instances() {
    use datalog::atom::Atom;
    use datalog::eval::evaluate_goal_with;
    use datalog::term::{Constant, Term, Var};
    for case in 0..CASES {
        let seed = spread(case.wrapping_add(5 * CASES));
        let program = random_program(&program_config(), seed);
        let db = random_database(&db_config(), spread(case.wrapping_add(6 * CASES)));
        let full = run(&program, &db, Strategy::Indexed, None);
        for goal_name in ["q0", "q1"] {
            let goal = Pred::new(goal_name);
            let Some(arity) = program.arity_of(goal) else {
                continue;
            };
            let mut patterns: Vec<Atom> = vec![Atom::new(
                goal,
                (0..arity)
                    .map(|i| Term::Var(Var::new(&format!("X{i}"))))
                    .collect(),
            )];
            // Fully bound patterns: up to two derivable tuples, plus the
            // all-c0 tuple (present or not — both sides must agree).
            for tuple in full.relation(goal).iter().take(2) {
                patterns.push(Atom::new(
                    goal,
                    tuple.iter().map(|&c| Term::Const(c)).collect(),
                ));
            }
            patterns.push(Atom::new(
                goal,
                (0..arity)
                    .map(|_| Term::Const(Constant::from_usize(0)))
                    .collect(),
            ));
            for pattern in &patterns {
                let options = |strategy| EvalOptions {
                    strategy,
                    max_iterations: None,
                    max_facts: Some(20_000),
                };
                let indexed =
                    evaluate_goal_with(&program, &db, pattern, options(Strategy::Indexed));
                let magic = evaluate_goal_with(&program, &db, pattern, options(Strategy::Magic));
                assert_eq!(
                    indexed.database, magic.database,
                    "case {case}: goal {goal_name}, pattern {pattern}"
                );
            }
        }
    }
}

/// Containment-verdict differential: the canonical-database decision
/// `θ ⊆ Π(goal)` answers identically under every strategy on ~200 random
/// query/program pairs.  This is the decision the whole pipeline bottoms
/// out in, and the one `Strategy::Magic` accelerates (the frozen head
/// tuple is all constants — the fully bound adornment).
#[test]
fn magic_containment_verdicts_agree_with_all_strategies() {
    use cq::generate::{random_cq, RandomCqConfig};
    use nonrec_equivalence::cq_contained_in_datalog_with;
    let cq_config = RandomCqConfig {
        body_atoms: 3,
        variables: 4,
        distinguished: 2,
        predicates: vec!["e0".into(), "e1".into()],
    };
    let mut positive = 0usize;
    for case in 0..CASES {
        let program = random_program(&program_config(), spread(case.wrapping_add(7 * CASES)));
        let theta = random_cq(&cq_config, spread(case.wrapping_add(8 * CASES)));
        for goal_name in ["q0", "q1"] {
            let goal = Pred::new(goal_name);
            if program.arity_of(goal).is_none() {
                continue;
            }
            let reference = cq_contained_in_datalog_with(&theta, &program, goal, Strategy::Naive);
            positive += usize::from(reference);
            for strategy in [
                Strategy::SemiNaive,
                Strategy::Indexed,
                Strategy::Magic,
                Strategy::Auto,
            ] {
                assert_eq!(
                    reference,
                    cq_contained_in_datalog_with(&theta, &program, goal, strategy),
                    "case {case}: goal {goal_name} under {strategy:?}"
                );
            }
        }
    }
    // The sweep must exercise both verdicts, or the agreement is vacuous.
    assert!(positive > 0, "no positive containment verdict generated");
}

/// Probe-count gate for the goal-directed engine on the bench shapes: with
/// the fully bound goal the decision procedure issues, magic probes no more
/// than indexed on the chain (where the pattern prunes the closure) and no
/// more than scan-based semi-naive anywhere, while always materialising
/// strictly fewer facts than the full closure.  The cycle's probe overhead
/// vs indexed is the documented counter-shape (see the `evaluation` bench).
#[test]
fn magic_probes_do_not_regress_on_bench_shapes() {
    use datalog::atom::Atom;
    use datalog::eval::evaluate_goal_with;
    use datalog::term::{Constant, Term};
    let program = transitive_closure("e", "e");
    for n in [8usize, 16, 32] {
        for (db_name, db, target) in [
            ("chain", chain_database("e", n), n),
            ("cycle", cycle_database("e", n), 0),
        ] {
            let pattern = Atom::new(
                Pred::new("p"),
                vec![
                    Term::Const(Constant::from_usize(0)),
                    Term::Const(Constant::from_usize(target)),
                ],
            );
            let options = |strategy| EvalOptions {
                strategy,
                max_iterations: None,
                max_facts: None,
            };
            let magic = evaluate_goal_with(&program, &db, &pattern, options(Strategy::Magic));
            let indexed = evaluate_goal_with(&program, &db, &pattern, options(Strategy::Indexed));
            assert_eq!(magic.database, indexed.database, "{db_name} n={n}");
            let semi = run(&program, &db, Strategy::SemiNaive, None);
            if db_name == "chain" {
                assert!(
                    magic.stats.probes <= indexed.stats.probes,
                    "{db_name} n={n}: magic {} probes > indexed {}",
                    magic.stats.probes,
                    indexed.stats.probes
                );
            }
            assert!(
                magic.stats.probes <= semi.stats.probes,
                "{db_name} n={n}: magic {} probes > semi-naive {}",
                magic.stats.probes,
                semi.stats.probes
            );
            assert!(
                magic.stats.derived_facts < indexed.stats.derived_facts,
                "{db_name} n={n}: magic derived {} >= full fixpoint {}",
                magic.stats.derived_facts,
                indexed.stats.derived_facts
            );
        }
    }
}

/// Parallel UCQ evaluation is deterministic: same answer set and same
/// `BTreeSet` iteration order as the sequential path on the lower-bound
/// error-query unions, for every forced shard count.
#[test]
fn parallel_ucq_evaluation_matches_sequential_on_lower_bound_queries() {
    use tmenc::encode::{encode_machine, trace_database};
    use tmenc::tm::{never_accepting_machine, trivially_accepting_machine};
    for (machine, n) in [
        (trivially_accepting_machine(), 2usize),
        (never_accepting_machine(), 1),
    ] {
        let enc = encode_machine(&machine, n);
        assert!(
            enc.queries.len() > 16,
            "expected a large error-query union, got {}",
            enc.queries.len()
        );
        let space = 1usize << n;
        let trace = machine.trace_empty_tape(space, 64);
        let db = trace_database(&machine, n, &trace);
        let sequential = evaluate_ucq_sequential(&enc.queries, &db);
        for threads in [2usize, 3, 8] {
            let parallel = evaluate_ucq_with(
                &enc.queries,
                &db,
                UcqEvalOptions {
                    threads: Some(threads),
                },
            );
            assert_eq!(sequential, parallel, "threads = {threads}");
            assert!(
                sequential.iter().eq(parallel.iter()),
                "threads = {threads}: iteration order diverged"
            );
        }
    }
}

/// The default options route through the indexed engine, and the default
/// UCQ path matches the sequential one on a nontrivial union — the
/// end-to-end shape every caller (core, tmenc, examples, benches) relies
/// on.
#[test]
fn default_paths_are_the_optimized_ones_and_stay_locked() {
    assert_eq!(EvalOptions::default().strategy, Strategy::Indexed);
    let ucq = cq::generate::bounded_path_ucq_binary("e", 6);
    let db = random_database(
        &RandomDatabaseConfig {
            domain_size: 5,
            relations: vec![("e".into(), 2, 12)],
        },
        spread(7),
    );
    assert_eq!(
        cq::eval::evaluate_ucq(&ucq, &db),
        evaluate_ucq_sequential(&ucq, &db)
    );
    let goal = Pred::new("p");
    let program = transitive_closure("e", "e");
    let via_default = datalog::eval::evaluate(&program, &db);
    let via_naive = run(&program, &db, Strategy::Naive, None);
    assert_eq!(via_default.relation(goal), via_naive.relation(goal));
}
