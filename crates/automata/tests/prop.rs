//! Property-based tests for the automata substrate: random NFAs and tree
//! automata are generated from the in-repo seeded PRNG and the boolean
//! operations, trimming, determinization, and minimization are checked
//! against each other on sampled inputs.
//!
//! The offline build has no `proptest`, so the properties run as
//! deterministic loops: each case draws its automaton from an `rng::StdRng`
//! seeded with the case index, making every failure reproducible.

use std::collections::BTreeSet;

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};

use automata::tree::reduce::reduce;
use automata::tree::{Tree, TreeAutomaton};
use automata::word::containment::{contained_in, equivalent};
use automata::word::minimize::{dfa_to_nfa, minimal_dfa, minimize, trim};
use automata::word::ops::{complement, determinize, intersection, union};
use automata::word::Nfa;

const SIGMA: [char; 2] = ['a', 'b'];
const CASES: u64 = 64;
const TREE_CASES: u64 = 48;
/// The containment differentials run more instances than the structural
/// properties: they are the lock on the priority-scheduled engine.
const CONTAINMENT_CASES: u64 = 200;

fn alphabet() -> BTreeSet<char> {
    SIGMA.iter().copied().collect()
}

/// A small random NFA over {a, b}: 1–5 states, up to 3n transitions, one or
/// two initial states, each state accepting with probability 1/2.
fn random_nfa(rng: &mut StdRng) -> Nfa<char> {
    let n = rng.random_range(1..6usize);
    let mut nfa = Nfa::new(n);
    for _ in 0..rng.random_range(1..=n.min(2)) {
        nfa.add_initial(rng.random_range(0..n));
    }
    for state in 0..n {
        if rng.random_bool(0.5) {
            nfa.add_accepting(state);
        }
    }
    for _ in 0..rng.random_range(0..3 * n) {
        let from = rng.random_range(0..n);
        let symbol = SIGMA[rng.random_range(0..SIGMA.len())];
        let to = rng.random_range(0..n);
        nfa.add_transition(from, symbol, to);
    }
    nfa
}

/// A small random tree automaton over a binary label 'a' and leaf labels
/// 'b', 'c': 1–4 states, up to 2n binary and 2n leaf transitions.
fn random_tree_automaton(rng: &mut StdRng) -> TreeAutomaton<char> {
    let n = rng.random_range(1..5usize);
    let mut automaton = TreeAutomaton::new(n);
    for _ in 0..rng.random_range(1..=n.min(2)) {
        automaton.add_initial(rng.random_range(0..n));
    }
    for _ in 0..rng.random_range(0..2 * n) {
        let s = rng.random_range(0..n);
        let l = rng.random_range(0..n);
        let r = rng.random_range(0..n);
        automaton.add_transition(s, 'a', vec![l, r]);
    }
    for _ in 0..rng.random_range(0..2 * n) {
        let s = rng.random_range(0..n);
        let label = if rng.random_bool(0.5) { 'b' } else { 'c' };
        automaton.add_transition(s, label, vec![]);
    }
    automaton
}

/// All words over {a, b} of length at most `max_len`.
fn short_words(max_len: usize) -> Vec<Vec<char>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for word in &frontier {
            for &c in &SIGMA {
                let mut extended = word.clone();
                extended.push(c);
                out.push(extended.clone());
                next.push(extended);
            }
        }
        frontier = next;
    }
    out
}

/// All trees over binary 'a' and leaves {b, c} of height at most 3.
fn small_trees() -> Vec<Tree<char>> {
    let leaves = vec![Tree::leaf('b'), Tree::leaf('c')];
    let mut all = leaves;
    for _ in 0..2 {
        let mut next = Vec::new();
        for left in &all {
            for right in &all {
                next.push(Tree::node('a', vec![left.clone(), right.clone()]));
            }
        }
        all.extend(next);
    }
    all // 2 leaves -> 6 -> 42 trees
}

/// Trimming never changes the language.
#[test]
fn trim_preserves_the_language() {
    for case in 0..CASES {
        let nfa = random_nfa(&mut StdRng::seed_from_u64(case));
        let trimmed = trim(&nfa);
        assert!(trimmed.state_count() <= nfa.state_count(), "case {case}");
        assert!(equivalent(&nfa, &trimmed), "case {case}");
    }
}

/// The minimal DFA accepts exactly the words the NFA accepts, and
/// minimization is idempotent.
#[test]
fn minimal_dfa_agrees_with_the_nfa_on_short_words() {
    for case in 0..CASES {
        let nfa = random_nfa(&mut StdRng::seed_from_u64(case));
        let dfa = minimal_dfa(&nfa, &alphabet());
        for word in short_words(5) {
            assert_eq!(
                nfa.accepts(&word),
                dfa.accepts(&word),
                "case {case}, word {word:?}"
            );
        }
        let again = minimize(&dfa);
        assert_eq!(again.state_count, dfa.state_count, "case {case}");
    }
}

/// The minimal DFA is never larger than the subset-construction DFA.
#[test]
fn minimization_never_grows_the_automaton() {
    for case in 0..CASES {
        let nfa = random_nfa(&mut StdRng::seed_from_u64(case));
        let dfa = determinize(&nfa, &alphabet());
        let minimal = minimize(&dfa);
        assert!(minimal.state_count <= dfa.state_count, "case {case}");
        assert!(
            equivalent(&dfa_to_nfa(&dfa), &dfa_to_nfa(&minimal)),
            "case {case}"
        );
    }
}

/// Complement really is complement (checked on short words), and the
/// double complement is the original language.
#[test]
fn complement_is_an_involution() {
    for case in 0..CASES {
        let nfa = random_nfa(&mut StdRng::seed_from_u64(case));
        let sigma = alphabet();
        let co = complement(&nfa, &sigma);
        for word in short_words(4) {
            assert_eq!(
                nfa.accepts(&word),
                !co.accepts(&word),
                "case {case}, word {word:?}"
            );
        }
        let co_co = complement(&co, &sigma);
        assert!(equivalent(&nfa, &co_co), "case {case}");
    }
}

/// Union and intersection behave like the boolean operations they claim
/// to be (Proposition 4.1), checked on short words.
#[test]
fn union_and_intersection_are_boolean() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let a = random_nfa(&mut rng);
        let b = random_nfa(&mut rng);
        let u = union(&a, &b);
        let i = intersection(&a, &b);
        for word in short_words(4) {
            assert_eq!(
                u.accepts(&word),
                a.accepts(&word) || b.accepts(&word),
                "case {case}, word {word:?}"
            );
            assert_eq!(
                i.accepts(&word),
                a.accepts(&word) && b.accepts(&word),
                "case {case}, word {word:?}"
            );
        }
    }
}

/// Containment of A in A ∪ B always holds, and containment agrees with
/// word-level inclusion when it reports a counterexample.
#[test]
fn containment_in_the_union_holds() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let a = random_nfa(&mut rng);
        let b = random_nfa(&mut rng);
        let u = union(&a, &b);
        assert!(contained_in(&a, &u).is_contained(), "case {case}");
        match contained_in(&a, &b) {
            result if result.is_contained() => {
                for word in short_words(4) {
                    if a.accepts(&word) {
                        assert!(b.accepts(&word), "case {case}, word {word:?}");
                    }
                }
            }
            result => {
                // The reported witness is accepted by a but not by b.
                if let automata::word::containment::WordContainment::NotContained {
                    witness, ..
                } = result
                {
                    assert!(a.accepts(&witness), "case {case}");
                    assert!(!b.accepts(&witness), "case {case}");
                }
            }
        }
    }
}

/// Reduction (useless-state removal) never changes acceptance.
#[test]
fn tree_reduction_preserves_acceptance() {
    for case in 0..TREE_CASES {
        let automaton = random_tree_automaton(&mut StdRng::seed_from_u64(case));
        let reduced = reduce(&automaton);
        assert!(
            reduced.state_count() <= automaton.state_count(),
            "case {case}"
        );
        for tree in small_trees().into_iter().take(60) {
            assert_eq!(
                automaton.accepts(&tree),
                reduced.accepts(&tree),
                "case {case}"
            );
        }
    }
}

/// Tree-automata union and intersection are boolean on sampled trees
/// (Proposition 4.4).
#[test]
fn tree_union_and_intersection_are_boolean() {
    for case in 0..TREE_CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let a = random_tree_automaton(&mut rng);
        let b = random_tree_automaton(&mut rng);
        let u = automata::tree::ops::union(&a, &b);
        let i = automata::tree::ops::intersection(&a, &b);
        for tree in small_trees().into_iter().take(40) {
            assert_eq!(
                u.accepts(&tree),
                a.accepts(&tree) || b.accepts(&tree),
                "case {case}"
            );
            assert_eq!(
                i.accepts(&tree),
                a.accepts(&tree) && b.accepts(&tree),
                "case {case}"
            );
        }
    }
}

/// The interned/memoised min-subset worklist agrees with the plain-rounds
/// reference oracle (`Schedule::Rounds`) on random automaton pairs, under
/// both antichain modes, and every reported witness is a genuine separator
/// (brute-force validated against both automata).
#[test]
fn tree_containment_worklist_agrees_with_rounds_oracle() {
    use automata::tree::containment::{contained_in_with, ContainmentOptions, Schedule};
    for case in 0..CONTAINMENT_CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0xC0_07A1);
        let a = random_tree_automaton(&mut rng);
        let b = random_tree_automaton(&mut rng);
        for antichain in [true, false] {
            let options = ContainmentOptions {
                antichain,
                max_pairs: None,
                schedule: Schedule::MinSubset,
            };
            let worklist = contained_in_with(&a, &b, options);
            let rounds = contained_in_with(
                &a,
                &b,
                ContainmentOptions {
                    schedule: Schedule::Rounds,
                    ..options
                },
            );
            assert_eq!(
                worklist.is_contained(),
                rounds.is_contained(),
                "case {case}, antichain {antichain}"
            );
            for witness in [worklist.witness(), rounds.witness()].into_iter().flatten() {
                assert!(a.accepts(witness), "case {case}: witness not in T(A1)");
                assert!(!b.accepts(witness), "case {case}: witness in T(A2)");
            }
            // Containment verdicts must also survive the brute-force
            // cross-check on contained cases (cheap here: the generated
            // automata are tiny).
            if worklist.is_contained() {
                for tree in small_trees().into_iter().take(40) {
                    if a.accepts(&tree) {
                        assert!(b.accepts(&tree), "case {case}: containment lied");
                    }
                }
            }
        }
    }
}

/// Scheduling invariant of the default (min-subset) engine: every frontier
/// pop is a minimum of the frontier at that moment — the popped subset is
/// never larger than anything still queued.  (Popped sizes as a sequence
/// are *not* monotone: propagation is contracting, so smaller subsets are
/// pushed behind larger queued ones; the per-pop minimality plus the
/// dead-skip accounting is the checkable form of "non-decreasing modulo
/// dead skips".)  The antichain also never retires an admitted pair late on
/// these runs' motivating shapes: dominators are established first.
#[test]
fn tree_containment_scheduled_pops_are_frontier_minima() {
    use automata::tree::containment::{contained_in_with_sink, ContainmentOptions};
    use metrics::{MetricsLevel, RecordingSink};
    for case in 0..CONTAINMENT_CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0x5C_4EDC);
        let a = random_tree_automaton(&mut rng);
        let b = random_tree_automaton(&mut rng);
        let mut sink = RecordingSink::new(MetricsLevel::Trace, usize::MAX);
        let result = contained_in_with_sink(&a, &b, ContainmentOptions::default(), &mut sink);
        let pops: Vec<_> = sink.events.iter().filter(|e| e.kind == "pop").collect();
        for (i, pop) in pops.iter().enumerate() {
            let size = pop.num("size").unwrap();
            if let Some(next) = pop.num("next_size") {
                assert!(
                    size <= next,
                    "case {case}, pop {i}: popped size {size} exceeds queued size {next}"
                );
            }
        }
        // Every admitted pop is a counted pair; skipped pops are counted as
        // dead skips and nothing else.
        let admitted = pops
            .iter()
            .filter(|p| p.flag("admitted") == Some(true))
            .count();
        assert_eq!(admitted, result.stats().pairs, "case {case}");
        assert_eq!(
            pops.len() - admitted,
            result.stats().pops_skipped_dead,
            "case {case}"
        );
    }
}

/// Emptiness agrees with the witness extractor: a witness exists iff the
/// language is nonempty, and the witness is indeed accepted.
#[test]
fn tree_emptiness_agrees_with_witness_extraction() {
    use automata::tree::emptiness::{find_witness, is_empty};
    for case in 0..TREE_CASES {
        let automaton = random_tree_automaton(&mut StdRng::seed_from_u64(case));
        match find_witness(&automaton) {
            Some(witness) => {
                assert!(!is_empty(&automaton), "case {case}");
                assert!(automaton.accepts(&witness), "case {case}");
            }
            None => assert!(is_empty(&automaton), "case {case}"),
        }
    }
}
