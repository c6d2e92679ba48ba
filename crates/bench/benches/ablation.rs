//! Ablation benches for the engineering levers called out in DESIGN.md §8:
//!
//! * tree-automata containment on raw versus reduced (useless-state-free)
//!   automata,
//! * word-automata containment on raw NFAs versus minimal DFAs,
//! * bottom-up evaluation of a redundant program versus its optimised form
//!   (the [`nonrec_equivalence::optimize`] pipeline).
//!
//! None of these change any verdict — the benches demonstrate how much of
//! the constant-factor cost each lever removes.

use bench::report_shape;
use bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use automata::tree::containment::{contained_in_with, ContainmentOptions};
use automata::tree::reduce::reduce_with_stats;
use automata::tree::TreeAutomaton;
use automata::word::containment::contained_in as word_contained_in;
use automata::word::minimize::{dfa_to_nfa, minimal_dfa, trim};
use automata::word::Nfa;
use datalog::atom::Pred;
use datalog::eval::evaluate;
use datalog::generate::chain_database;
use datalog::parser::parse_program;
use nonrec_equivalence::optimize::{optimize, OptimizeOptions};

/// Trees of binary 'a' nodes over 'b' leaves of height ≤ h, padded with
/// `junk` states that are reachable but unproductive.
fn bounded_height_with_junk(h: usize, junk: usize) -> TreeAutomaton<char> {
    let mut t = TreeAutomaton::new(h + junk);
    t.add_initial(h - 1);
    for i in 0..h {
        t.add_transition(i, 'b', vec![]);
        if i > 0 {
            t.add_transition(i, 'a', vec![i - 1, i - 1]);
        }
    }
    for j in 0..junk {
        let state = h + j;
        // Reachable from the root but never productive (no leaf rule).
        t.add_transition(h - 1, 'a', vec![state, h - 1]);
        t.add_transition(state, 'a', vec![state, state]);
    }
    t
}

fn all_ab_trees() -> TreeAutomaton<char> {
    let mut t = TreeAutomaton::new(1);
    t.add_initial(0);
    t.add_transition(0, 'a', vec![0, 0]);
    t.add_transition(0, 'b', vec![]);
    t
}

/// Words over {a, b} with an `a` in the n-th position from the end, padded
/// with dead states.
fn nth_from_end_with_junk(n: usize, junk: usize) -> Nfa<char> {
    let mut a = Nfa::new(n + 1 + junk);
    a.add_initial(0);
    a.add_accepting(n);
    for c in ['a', 'b'] {
        a.add_transition(0, c, 0);
    }
    a.add_transition(0, 'a', 1);
    for i in 1..n {
        for c in ['a', 'b'] {
            a.add_transition(i, c, i + 1);
        }
    }
    for j in 0..junk {
        let state = n + 1 + j;
        a.add_transition(0, 'a', state);
        a.add_transition(state, 'b', state);
    }
    a
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));

    // -- Tree-automata reduction ahead of containment. -----------------------
    for h in [3usize, 5] {
        let raw = bounded_height_with_junk(h, 3 * h);
        let (reduced, stats) = reduce_with_stats(&raw);
        let all = all_ab_trees();
        report_shape(
            "ablation_tree_reduce",
            h,
            &[
                ("states_before", stats.states_before.to_string()),
                ("states_after", stats.states_after.to_string()),
                (
                    "explored_raw",
                    contained_in_with(&raw, &all, ContainmentOptions::default())
                        .explored()
                        .to_string(),
                ),
                (
                    "explored_reduced",
                    contained_in_with(&reduced, &all, ContainmentOptions::default())
                        .explored()
                        .to_string(),
                ),
            ],
        );
        group.bench_function(format!("tree_containment_raw_h{h}"), |b| {
            b.iter(|| {
                black_box(contained_in_with(
                    black_box(&raw),
                    black_box(&all),
                    ContainmentOptions::default(),
                ))
            })
        });
        group.bench_function(format!("tree_containment_reduced_h{h}"), |b| {
            b.iter(|| {
                black_box(contained_in_with(
                    black_box(&reduced),
                    black_box(&all),
                    ContainmentOptions::default(),
                ))
            })
        });
    }

    // -- NFA trimming / DFA minimization ahead of word containment. ----------
    let alphabet: std::collections::BTreeSet<char> = ['a', 'b'].into_iter().collect();
    for n in [6usize, 9] {
        let raw = nth_from_end_with_junk(n, 2 * n);
        let trimmed = trim(&raw);
        let minimal = dfa_to_nfa(&minimal_dfa(&raw, &alphabet));
        let superset = nth_from_end_with_junk(n, 0);
        report_shape(
            "ablation_word_minimize",
            n,
            &[
                ("states_raw", raw.state_count().to_string()),
                ("states_trimmed", trimmed.state_count().to_string()),
                ("states_minimal_dfa", minimal.state_count().to_string()),
            ],
        );
        for (variant, automaton) in [("raw", &raw), ("trimmed", &trimmed), ("minimal", &minimal)] {
            group.bench_function(format!("word_containment_{variant}_n{n}"), |b| {
                b.iter(|| {
                    black_box(word_contained_in(
                        black_box(automaton),
                        black_box(&superset),
                    ))
                })
            });
        }
    }

    // -- Program optimisation ahead of evaluation. ----------------------------
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
    let (optimized, report) = optimize(
        &messy,
        goal,
        OptimizeOptions {
            inline_nonrecursive: true,
            ..OptimizeOptions::default()
        },
    );
    for size in [24usize, 48] {
        let db = chain_database("e", size);
        report_shape(
            "ablation_optimize",
            size,
            &[
                ("rules_before", report.rules_before.to_string()),
                ("rules_after", report.rules_after.to_string()),
                ("atoms_before", report.atoms_before.to_string()),
                ("atoms_after", report.atoms_after.to_string()),
            ],
        );
        group.bench_function(format!("evaluate_messy_chain{size}"), |b| {
            b.iter(|| black_box(evaluate(black_box(&messy), black_box(&db))))
        });
        group.bench_function(format!("evaluate_optimized_chain{size}"), |b| {
            b.iter(|| black_box(evaluate(black_box(&optimized), black_box(&db))))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
