//! Experiments E1, E11, E12: containment / equivalence of recursive and
//! nonrecursive programs (Theorems 6.4, 6.5, 6.7).  The shape to
//! reproduce: the cost is the unfolding blowup of the nonrecursive side
//! (exponential for `dist`-style comparisons, polynomial per disjunct for
//! linear nonrecursive programs) multiplied by the automata decision.

use bench::report_shape;
use bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use datalog::atom::Pred;
use datalog::parser::parse_program;
use nonrec_equivalence::equivalence::{
    datalog_contained_in_nonrecursive_with, equivalent_to_nonrecursive_with,
};
use nonrec_equivalence::DecisionOptions;

fn buys_programs() -> (datalog::Program, datalog::Program, datalog::Program) {
    let pi1 = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), buys(Z, Y).",
    )
    .unwrap();
    let pi1_nonrec = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), likes(Z, Y).",
    )
    .unwrap();
    let pi2 = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- knows(X, Z), buys(Z, Y).",
    )
    .unwrap();
    (pi1, pi1_nonrec, pi2)
}

/// A nonrecursive comparison program capturing paths of length ≤ k, written
/// with k separate rules (linear in k, unlike the dist-style doubling).
fn bounded_path_program(k: usize) -> datalog::Program {
    let mut rules = vec!["p(X, Y) :- e(X, Y).".to_string()];
    for len in 2..=k {
        let mids: Vec<String> = (1..len).map(|i| format!("Z{i}")).collect();
        let mut atoms = vec![format!("e(X, {})", mids[0])];
        for i in 1..len - 1 {
            atoms.push(format!("e({}, {})", mids[i - 1], mids[i]));
        }
        atoms.push(format!("e({}, Y)", mids[len - 2]));
        rules.push(format!("p(X, Y) :- {}.", atoms.join(", ")));
    }
    parse_program(&rules.join("\n")).unwrap()
}

fn bench_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("equivalence");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));

    // E1: Example 1.1 both ways.
    let (pi1, pi1_nonrec, pi2) = buys_programs();
    let goal = Pred::new("buys");
    let equivalent =
        equivalent_to_nonrecursive_with(&pi1, goal, &pi1_nonrec, DecisionOptions::default())
            .unwrap();
    report_shape(
        "E1_buys",
        1,
        &[(
            "pi1_equivalent",
            equivalent.verdict.is_equivalent().to_string(),
        )],
    );
    group.bench_function("example_1_1_pi1_equivalent", |b| {
        b.iter(|| {
            black_box(equivalent_to_nonrecursive_with(
                black_box(&pi1),
                goal,
                black_box(&pi1_nonrec),
                DecisionOptions::default(),
            ))
        })
    });
    group.bench_function("example_1_1_pi2_not_equivalent", |b| {
        b.iter(|| {
            black_box(equivalent_to_nonrecursive_with(
                black_box(&pi2),
                goal,
                black_box(&pi1_nonrec),
                DecisionOptions::default(),
            ))
        })
    });

    // E11/E12: transitive closure vs. bounded-path programs of growing k —
    // the unfolding has k disjuncts of linear size (the Theorem 6.7 shape).
    let tc = parse_program(
        "p(X, Y) :- e(X, Z), p(Z, Y).\n\
         p(X, Y) :- e(X, Y).",
    )
    .unwrap();
    let goal = Pred::new("p");
    for k in [1usize, 2, 3, 4] {
        let comparison = bounded_path_program(k);
        let outcome = datalog_contained_in_nonrecursive_with(
            &tc,
            goal,
            &comparison,
            DecisionOptions::default(),
        )
        .unwrap();
        report_shape(
            "E11_tc_vs_bounded_paths",
            k,
            &[
                ("contained", outcome.result.contained.to_string()),
                (
                    "unfold_disjuncts",
                    outcome.unfold_stats.disjuncts.to_string(),
                ),
                (
                    "unfold_max_size",
                    outcome.unfold_stats.max_disjunct_size.to_string(),
                ),
                ("explored", outcome.result.stats.explored.to_string()),
            ],
        );
        group.bench_function(format!("tc_vs_paths_le_{k}"), |b| {
            b.iter(|| {
                black_box(datalog_contained_in_nonrecursive_with(
                    black_box(&tc),
                    goal,
                    black_box(&comparison),
                    DecisionOptions::default(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_equivalence);
criterion_main!(benches);
