//! End-to-end pipeline tests exercising every crate together: parse →
//! classify → unfold → build automata → decide → extract counterexample →
//! verify by evaluation.

use automata::tree::containment::{contained_in_with, ContainmentOptions};
use automata::tree::emptiness::find_witness;
use automata::tree::ops::union as tree_union;
use datalog::atom::Pred;
use datalog::eval::evaluate;
use datalog::parser::parse_program;
use nonrec_equivalence::cq_automaton::CqAutomaton;
use nonrec_equivalence::equivalence::equivalent_to_nonrecursive_with;
use nonrec_equivalence::proof_tree::{is_valid_proof_tree, ProofTreeAnalysis};
use nonrec_equivalence::ptrees_automaton::PtreesAutomaton;
use nonrec_equivalence::unfold::unfold_nonrecursive;
use nonrec_equivalence::DecisionOptions;

/// Drive the Theorem 5.11 reduction by hand — build A_ptrees and the A_θ
/// union explicitly, run raw tree-automata containment, and check that the
/// witness round-trips through the proof-tree analysis into a verified
/// counterexample database.
#[test]
fn manual_theorem_5_11_pipeline() {
    let program = parse_program(
        "p(X, Y) :- e(X, Z), p(Z, Y).\n\
         p(X, Y) :- e(X, Y).",
    )
    .unwrap();
    let goal = Pred::new("p");
    let comparison = parse_program(
        "p(X, Y) :- e(X, Y).\n\
         p(X, Y) :- e(X, Z), e(Z, Y).",
    )
    .unwrap();

    // 1. Unfold the nonrecursive comparison program into a UCQ.
    let ucq = unfold_nonrecursive(&comparison, goal, usize::MAX).unwrap();
    assert_eq!(ucq.len(), 2);

    // 2. Build the two automata families over a shared label context.
    let ptrees = PtreesAutomaton::build(&program, goal);
    let mut union = automata::tree::TreeAutomaton::new(0);
    for disjunct in &ucq.disjuncts {
        let a_theta = CqAutomaton::build(&ptrees.context, goal, disjunct);
        // Each A_θ must at least accept something here (paths exist).
        assert!(find_witness(&a_theta.automaton).is_some());
        union = tree_union(&union, &a_theta.automaton);
    }

    // 3. Raw containment: T(A_ptrees) ⊄ ∪ T(A_θ).
    let outcome = contained_in_with(&ptrees.automaton, &union, ContainmentOptions::default());
    let witness = outcome.witness().expect("TC exceeds bounded paths").clone();
    assert!(is_valid_proof_tree(&program, &witness));
    assert!(ptrees.automaton.accepts(&witness));
    assert!(!union.accepts(&witness));

    // 4. The witness corresponds to a 3-step path expansion; freezing it
    // yields a database on which the program answers and the UCQ does not.
    let expansion = ProofTreeAnalysis::new(&witness).to_expansion(&ptrees.context);
    assert_eq!(expansion.body.len(), 3);
    let frozen = cq::canonical::canonical_database(&expansion);
    let evaluated = evaluate(&program, &frozen.database);
    assert!(evaluated.relation(goal).contains(&frozen.head_tuple));
    assert!(!cq::eval::evaluate_ucq(&ucq, &frozen.database).contains(&frozen.head_tuple));

    // 5. The packaged equivalence API reaches the same verdict.
    let packaged =
        equivalent_to_nonrecursive_with(&program, goal, &comparison, DecisionOptions::default())
            .unwrap();
    assert!(!packaged.verdict.is_equivalent());
}

/// A positive end-to-end case: a recursive rule that can only rederive the
/// facts it already depends on is vacuous, so the program is equivalent to
/// its nonrecursive core — and the decision procedure recognises it.
#[test]
fn vacuous_recursion_is_eliminated() {
    // The recursive rule re-derives p(X, Y) from p(X, Y) itself (plus a
    // guard), so it never adds anything: the program collapses to the exit
    // rule.
    let program = parse_program(
        "p(X, Y) :- never(X, X), p(X, Y).\n\
         p(X, Y) :- e(X, Y).",
    )
    .unwrap();
    let nonrec = parse_program("p(X, Y) :- e(X, Y).").unwrap();
    let goal = Pred::new("p");
    let result =
        equivalent_to_nonrecursive_with(&program, goal, &nonrec, DecisionOptions::default())
            .unwrap();
    assert!(result.verdict.is_equivalent());

    // A genuinely productive recursive rule, in contrast, breaks the
    // equivalence: chaining through `e` derives longer paths.
    let productive = parse_program(
        "p(X, Y) :- e(X, Z), p(Z, Y).\n\
         p(X, Y) :- e(X, Y).",
    )
    .unwrap();
    let broken =
        equivalent_to_nonrecursive_with(&productive, goal, &nonrec, DecisionOptions::default())
            .unwrap();
    assert!(!broken.verdict.is_equivalent());
    // The sound direction still holds: the nonrecursive core is contained in
    // both programs.
    for candidate in [&program, &productive] {
        assert!(
            nonrec_equivalence::equivalence::nonrecursive_contained_in_datalog_with(
                &nonrec,
                goal,
                candidate,
                DecisionOptions::default(),
            )
            .unwrap()
            .is_ok()
        );
    }
}

/// The full workspace types compose: statistics from every layer can be
/// collected into one report (what the bench harness does).
#[test]
fn statistics_compose_across_crates() {
    let program = datalog::generate::transitive_closure("e", "e");
    let goal = Pred::new("p");
    let program_stats = datalog::stats::ProgramStats::of(&program);
    let ptrees = PtreesAutomaton::build(&program, goal);
    let automaton_stats = ptrees.stats();
    let ucq =
        nonrec_equivalence::expansions_up_to_depth_limited(&program, goal, 2, usize::MAX).unwrap();
    let decision = nonrec_equivalence::datalog_contained_in_ucq_with(
        &program,
        goal,
        &ucq,
        DecisionOptions::default(),
    )
    .unwrap();

    assert!(program_stats.recursive && program_stats.linear);
    assert_eq!(automaton_stats.states, 36);
    assert!(decision.stats.explored > 0);
    assert!(!decision.contained);
    assert!(decision.stats.micros > 0);
}
