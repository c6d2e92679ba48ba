//! Experiment E5: containment of a recursive Datalog program in a union of
//! conjunctive queries (Theorem 5.12).  The shape to reproduce: the
//! proof-tree automaton grows exponentially with the program's variable
//! budget, and the decision cost grows with both the program and the number
//! / size of the disjuncts.

use bench::report_shape;
use bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cq::generate::bounded_path_ucq_binary;
use datalog::atom::Pred;
use datalog::generate::transitive_closure;
use nonrec_equivalence::containment::{datalog_contained_in_ucq_with, DecisionOptions};
use nonrec_equivalence::ptrees_automaton::PtreesAutomaton;

fn bench_datalog_in_ucq(c: &mut Criterion) {
    let goal = Pred::new("p");
    let tc = transitive_closure("e", "e");

    // Automaton-size shape: states/transitions of A_ptrees for growing
    // chain-of-predicates programs (exponential alphabet in the rule width).
    for width in [1usize, 2, 3] {
        // A program family with `width` extra body variables per rule.
        let mids: Vec<String> = (0..width).map(|i| format!("M{i}")).collect();
        let mut body = vec![format!("e(X, {})", mids[0])];
        for i in 1..width {
            body.push(format!("e({}, {})", mids[i - 1], mids[i]));
        }
        body.push(format!("p({}, Y)", mids[width - 1]));
        let text = format!("p(X, Y) :- {}.\np(X, Y) :- e(X, Y).", body.join(", "));
        let program = datalog::parser::parse_program(&text).unwrap();
        let ptrees = PtreesAutomaton::build(&program, goal);
        let stats = ptrees.stats();
        report_shape(
            "E5_ptrees_size",
            width,
            &[
                ("varnum", program.varnum().to_string()),
                ("states", stats.states.to_string()),
                ("transitions", stats.transitions.to_string()),
            ],
        );
    }

    let mut group = c.benchmark_group("datalog_in_ucq");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for k in [1usize, 2, 3, 4] {
        let ucq = bounded_path_ucq_binary("e", k);
        let result =
            datalog_contained_in_ucq_with(&tc, goal, &ucq, DecisionOptions::default()).unwrap();
        report_shape(
            "E5_tc_vs_bounded_paths",
            k,
            &[
                ("contained", result.contained.to_string()),
                ("ptrees_states", result.stats.ptrees.states.to_string()),
                ("query_states", result.stats.queries.states.to_string()),
                ("explored", result.stats.explored.to_string()),
            ],
        );
        group.bench_function(format!("tc_in_paths_le_{k}"), |b| {
            b.iter(|| {
                black_box(datalog_contained_in_ucq_with(
                    black_box(&tc),
                    goal,
                    black_box(&ucq),
                    DecisionOptions::default(),
                ))
            })
        });
    }

    // A positive (contained) case: TC restricted by an impossible guard is
    // contained in the single-edge query.
    let guarded = datalog::parser::parse_program(
        "p(X, Y) :- e(X, Y).\n\
         p(X, Y) :- e(X, Z), e(Z, Y), e(X, Y).",
    )
    .unwrap();
    let edge = cq::Ucq::parse("q(X, Y) :- e(X, Y).").unwrap();
    let triangle_free =
        datalog_contained_in_ucq_with(&guarded, goal, &edge, DecisionOptions::default()).unwrap();
    report_shape(
        "E5_contained_case",
        1,
        &[("contained", triangle_free.contained.to_string())],
    );
    group.bench_function("shortcut_closure_in_edge", |b| {
        b.iter(|| {
            black_box(datalog_contained_in_ucq_with(
                black_box(&guarded),
                goal,
                black_box(&edge),
                DecisionOptions::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_datalog_in_ucq);
criterion_main!(benches);
