//! Experiment E6: linear vs nonlinear programs on one decision procedure.
//! The same semantic question (is reachability contained in bounded-length
//! paths?) is decided, uncached, for the linear transitive-closure program
//! and for the nonlinear (doubling) program; both run the min-subset
//! tree-automata search.
//!
//! Measured finding: Theorem 5.12's EXPSPACE word-automata track for linear
//! programs does not pay here.  On linear TC against the k-path UCQ the
//! word search explored 145 / 288 / 704 / 1503 product pairs for k = 1–4,
//! where the tree search explores 3 / 4 / 5 / 6, and it was 3–5× slower in
//! wall-clock (cache off, best of 5, 2-core box).  The decision therefore always takes the tree path, and the
//! word engine (`automata::word`) survives only as a test oracle.

use bench::report_shape;
use bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cq::generate::bounded_path_ucq_binary;
use datalog::atom::Pred;
use datalog::generate::{transitive_closure, transitive_closure_nonlinear};
use nonrec_equivalence::containment::{datalog_contained_in_ucq_with, DecisionOptions};

fn bench_linear_vs_nonlinear(c: &mut Criterion) {
    let goal = Pred::new("p");
    let linear = transitive_closure("e", "e");
    let nonlinear = transitive_closure_nonlinear("e");
    // Time the decision itself, not a cache hit.
    let options = DecisionOptions {
        use_cache: false,
        ..Default::default()
    };

    let mut group = c.benchmark_group("linear_vs_nonlinear");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for k in [1usize, 2, 3] {
        let ucq = bounded_path_ucq_binary("e", k);
        for (name, program) in [("linear_tree", &linear), ("nonlinear_tree", &nonlinear)] {
            let result = datalog_contained_in_ucq_with(program, goal, &ucq, options).unwrap();
            report_shape(
                "E6_linear_vs_nonlinear",
                k,
                &[
                    ("variant", name.to_string()),
                    ("explored", result.stats.explored.to_string()),
                    ("contained", result.contained.to_string()),
                ],
            );
            group.bench_function(format!("{name}_k{k}"), |b| {
                b.iter(|| {
                    black_box(datalog_contained_in_ucq_with(
                        black_box(program),
                        goal,
                        black_box(&ucq),
                        options,
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_linear_vs_nonlinear);
criterion_main!(benches);
