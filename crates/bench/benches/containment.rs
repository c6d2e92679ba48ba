//! Experiment E13 (engine ablation): the interned, memoised, worklist tree
//! containment engine versus the plain-rounds reference oracle, and the
//! shared `DecisionCache` on the optimizer workloads.
//!
//! Doubles as the containment regression gate for `scripts/verify.sh`:
//!
//! * on every `E13_tree_containment` shape the worklist engine must answer
//!   the same verdict as the rounds oracle while rescanning `δ2`
//!   (`propagate` misses) no more often than the rounds engine evaluates
//!   combinations — the pair-work reduction PR 3 exists for;
//! * a repeated `optimize` pass must answer **all** its containment
//!   questions from the cache;
//! * when `NONREC_BENCH_JSON` names a file the per-shape counts are written
//!   there as a JSON snapshot (`BENCH_containment.json` in CI).

use bench::report_shape;
use bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use automata::tree::containment::{contained_in_with, ContainmentOptions, EngineStats, Schedule};
use automata::tree::TreeAutomaton;
use datalog::atom::Pred;
use datalog::parser::parse_program;
use nonrec_equivalence::equivalence::equivalent_to_nonrecursive_with;
use nonrec_equivalence::optimize::{optimize, OptimizeOptions};
use nonrec_equivalence::DecisionOptions;

/// Trees of binary 'a' nodes over 'b' leaves of height ≤ h.
fn bounded_height(h: usize) -> TreeAutomaton<char> {
    let mut t = TreeAutomaton::new(h);
    t.add_initial(h - 1);
    for i in 0..h {
        t.add_transition(i, 'b', vec![]);
        if i > 0 {
            t.add_transition(i, 'a', vec![i - 1, i - 1]);
        }
    }
    t
}

/// Unbounded ab-trees.
fn all_ab_trees() -> TreeAutomaton<char> {
    let mut t = TreeAutomaton::new(1);
    t.add_initial(0);
    t.add_transition(0, 'a', vec![0, 0]);
    t.add_transition(0, 'b', vec![]);
    t
}

struct EngineRow {
    h: usize,
    variant: String,
    contained: bool,
    stats: EngineStats,
}

struct CacheRow {
    pass: usize,
    calls: usize,
    hits: usize,
}

fn bench_containment(c: &mut Criterion) {
    let mut group = c.benchmark_group("containment");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));

    // -- Worklist engine vs. rounds oracle on the E13 ablation shapes. -------
    // Two families: `height ≤ h ⊆ all ab-trees` (the original E13 shape, a
    // trivial right-hand automaton) and `height ≤ h ⊆ height ≤ h+1` (a
    // growing right-hand automaton, so subsets and the antichain matter).
    // Two engines per shape: the min-subset worklist (`worklist`) and the
    // rounds oracle (`rounds`).
    let mut engine_rows: Vec<EngineRow> = Vec::new();
    for h in [2usize, 4, 6, 8] {
        for (family, bounded, all) in [
            ("vs_all", bounded_height(h), all_ab_trees()),
            ("nested", bounded_height(h), bounded_height(h + 1)),
        ] {
            for (mode, antichain) in [("antichain", true), ("exhaustive", false)] {
                let options = |schedule| ContainmentOptions {
                    antichain,
                    max_pairs: None,
                    schedule,
                };
                let worklist = contained_in_with(&bounded, &all, options(Schedule::MinSubset));
                let rounds = contained_in_with(&bounded, &all, options(Schedule::Rounds));
                assert_eq!(
                    worklist.is_contained(),
                    rounds.is_contained(),
                    "verdict mismatch on h={h} ({family}, {mode})"
                );
                for (engine, result) in [("worklist", &worklist), ("rounds", &rounds)] {
                    let stats = *result.stats();
                    report_shape(
                        "E13_tree_containment",
                        h,
                        &[
                            ("variant", format!("{family}_{engine}_{mode}")),
                            ("explored", stats.pairs.to_string()),
                            ("combinations", stats.combinations.to_string()),
                            ("propagate_hits", stats.propagate_hits.to_string()),
                            ("propagate_misses", stats.propagate_misses.to_string()),
                            ("subsets", stats.subsets_interned.to_string()),
                            ("pairs_dominated", stats.pairs_dominated.to_string()),
                            ("pops_skipped_dead", stats.pops_skipped_dead.to_string()),
                            ("max_frontier", stats.max_frontier.to_string()),
                        ],
                    );
                    engine_rows.push(EngineRow {
                        h,
                        variant: format!("{family}_{engine}_{mode}"),
                        contained: result.is_contained(),
                        stats,
                    });
                }
                // Pair-work regression gate: the worklist may not rescan δ2
                // more often than the rounds oracle enumerates combinations
                // on any saturating shape.
                assert!(
                    worklist.stats().propagate_misses <= rounds.stats().combinations,
                    "containment work regression on h={h} ({family}, {mode}): worklist \
                     misses {} > rounds combinations {}",
                    worklist.stats().propagate_misses,
                    rounds.stats().combinations
                );
                // Scheduling gate (the point of the MinSubset frontier): with
                // the antichain on, the scheduled engine must match the
                // rounds oracle's pair count exactly — establishing
                // ⊆-minimal subsets first means no transient dominated pair
                // is ever admitted.
                if antichain {
                    assert_eq!(
                        worklist.stats().pairs,
                        rounds.stats().pairs,
                        "scheduled pair count diverged from rounds on h={h} ({family})"
                    );
                    assert_eq!(
                        worklist.stats().pairs_dominated,
                        0,
                        "scheduled engine admitted a dominated pair on h={h} ({family})"
                    );
                    if family == "nested" && h == 8 {
                        assert!(
                            worklist.stats().pairs <= 8,
                            "nested h=8 scheduled pairs {} > 8",
                            worklist.stats().pairs
                        );
                    }
                }
            }
        }
    }
    for h in [4usize, 6] {
        let bounded = bounded_height(h);
        let larger = bounded_height(h + 1);
        let options = ContainmentOptions::default();
        group.bench_function(format!("worklist_antichain_h{h}"), |b| {
            b.iter(|| {
                black_box(contained_in_with(
                    black_box(&bounded),
                    black_box(&larger),
                    options,
                ))
            })
        });
        group.bench_function(format!("rounds_antichain_h{h}"), |b| {
            let rounds = ContainmentOptions {
                schedule: Schedule::Rounds,
                ..options
            };
            b.iter(|| {
                black_box(contained_in_with(
                    black_box(&bounded),
                    black_box(&larger),
                    rounds,
                ))
            })
        });
    }

    // -- DecisionCache on the optimizer / equivalence workloads. -------------
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
    let mut cache_rows: Vec<CacheRow> = Vec::new();
    for pass in 1..=2usize {
        let (_, report) = optimize(&messy, goal, OptimizeOptions::default());
        report_shape(
            "E13_decision_cache",
            pass,
            &[
                ("containment_calls", report.containment_calls.to_string()),
                (
                    "containment_cache_hits",
                    report.containment_cache_hits.to_string(),
                ),
            ],
        );
        cache_rows.push(CacheRow {
            pass,
            calls: report.containment_calls,
            hits: report.containment_cache_hits,
        });
    }
    let second = &cache_rows[1];
    assert!(
        second.hits > 0 && second.hits == second.calls,
        "repeated optimize pass must answer containment from the cache ({}/{} hits)",
        second.hits,
        second.calls
    );

    // Repeated full decisions (Example 1.1) must be recalled, not re-run.
    let recursive = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), buys(Z, Y).",
    )
    .unwrap();
    let candidate = parse_program(
        "buys(X, Y) :- likes(X, Y).\n\
         buys(X, Y) :- trendy(X), likes(Z, Y).",
    )
    .unwrap();
    let cache = nonrec_equivalence::cache::DecisionCache::global();
    let equivalence = || {
        equivalent_to_nonrecursive_with(
            &recursive,
            Pred::new("buys"),
            &candidate,
            DecisionOptions::default(),
        )
        .unwrap()
    };
    let warm = equivalence();
    assert!(warm.verdict.is_equivalent());
    let before = cache.stats();
    let again = equivalence();
    assert!(again.verdict.is_equivalent());
    let after = cache.stats();
    assert!(
        after.hits > before.hits && after.misses == before.misses,
        "repeated equivalence decision must be served from the cache"
    );
    report_shape(
        "E13_decision_cache_equivalence",
        2,
        &[
            ("hits_delta", (after.hits - before.hits).to_string()),
            ("pairs_saved", after.pairs_saved.to_string()),
        ],
    );

    group.finish();

    if let Some(path) = std::env::var_os("NONREC_BENCH_JSON") {
        let rows: Vec<String> = engine_rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"group\": \"containment\", \"kind\": \"tree_containment\", \"h\": {}, \
                     \"variant\": \"{}\", \"contained\": {}, \"pairs\": {}, \"combinations\": {}, \
                     \"propagate_hits\": {}, \"propagate_misses\": {}, \"subsets\": {}, \
                     \"pairs_dominated\": {}, \"pops_skipped_dead\": {}, \"max_frontier\": {}}}",
                    r.h,
                    r.variant,
                    r.contained,
                    r.stats.pairs,
                    r.stats.combinations,
                    r.stats.propagate_hits,
                    r.stats.propagate_misses,
                    r.stats.subsets_interned,
                    r.stats.pairs_dominated,
                    r.stats.pops_skipped_dead,
                    r.stats.max_frontier
                )
            })
            .chain(cache_rows.iter().map(|r| {
                format!(
                    "{{\"group\": \"containment\", \"kind\": \"optimize_cache\", \"pass\": {}, \
                     \"containment_calls\": {}, \"containment_cache_hits\": {}}}",
                    r.pass, r.calls, r.hits
                )
            }))
            .collect();
        bench::write_json_rows(&path, &rows).expect("writing bench snapshot");
        println!("[snapshot] wrote {}", path.to_string_lossy());
    }
}

criterion_group!(benches, bench_containment);
criterion_main!(benches);
