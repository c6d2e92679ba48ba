//! The always-on counter registry costs no allocation.
//!
//! Every default entry point records its run's totals in
//! `metrics::global` through typed calls, so it must allocate exactly as
//! often as its sink-taking sibling run with `NoMetrics`: recording builds
//! no `Event` and no `String`.  A counting global allocator tallies the
//! calling thread's allocations only, so tests running concurrently on
//! other threads cannot perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use automata::tree::containment::{contained_in_with, contained_in_with_sink, ContainmentOptions};
use automata::tree::TreeAutomaton;
use datalog::atom::{Atom, Pred};
use datalog::eval::{evaluate_goal_with, evaluate_goal_with_sink, EvalOptions, Strategy};
use datalog::generate::{chain_database, transitive_closure};
use datalog::parser::parse_program;
use datalog::term::{Constant, Term};
use metrics::{MetricsLevel, NoMetrics, RecordingSink, DEFAULT_MAX_EVENTS};
use nonrec_equivalence::cache::DecisionCache;
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_in, datalog_contained_in_ucq_with, DecisionOptions,
};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; counting touches only a
// thread-local integer, never the allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread, not counting the drop of its result.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

#[test]
fn default_goal_evaluation_allocates_like_the_off_sink() {
    let program = transitive_closure("e", "e");
    let db = chain_database("e", 6);
    let goal = Atom::new(
        Pred::new("p"),
        vec![
            Term::Const(Constant::from_usize(0)),
            Term::Const(Constant::from_usize(6)),
        ],
    );
    let options = EvalOptions {
        strategy: Strategy::Auto,
        ..EvalOptions::default()
    };
    let default = || evaluate_goal_with(&program, &db, &goal, options);
    let off = || evaluate_goal_with_sink(&program, &db, &goal, options, &mut NoMetrics);
    // Warm up: the magic rewrite interns its predicate names once.
    default();
    off();
    assert_eq!(allocations(default), allocations(off));
}

#[test]
fn default_tree_containment_allocates_like_the_off_sink() {
    // All binary 'a'-trees over 'b' leaves, versus those of height ≤ 2.
    let mut all = TreeAutomaton::new(1);
    all.add_initial(0);
    all.add_transition(0, 'a', vec![0, 0]);
    all.add_transition(0, 'b', vec![]);
    let mut bounded = TreeAutomaton::new(2);
    bounded.add_initial(1);
    bounded.add_transition(0, 'b', vec![]);
    bounded.add_transition(1, 'b', vec![]);
    bounded.add_transition(1, 'a', vec![0, 0]);
    let options = ContainmentOptions::default();
    for (a, b) in [(&bounded, &all), (&all, &bounded)] {
        let default = || contained_in_with(a, b, options);
        let off = || contained_in_with_sink(a, b, options, &mut NoMetrics);
        default();
        off();
        assert_eq!(allocations(default), allocations(off));
    }
}

#[test]
fn default_decision_allocates_like_an_off_level_trace() {
    // A bounded nonlinear program, contained in its one-step query: the
    // tree path, with a fixpoint-free verdict and no counterexample.
    let program = parse_program("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Y), p(X, Y).").unwrap();
    let ucq = cq::Ucq::parse("q(X, Y) :- e(X, Y).").unwrap();
    let goal = Pred::new("p");
    let options = DecisionOptions {
        use_cache: false,
        ..DecisionOptions::default()
    };
    let default = || datalog_contained_in_ucq_with(&program, goal, &ucq, options).unwrap();
    let traced = || {
        let mut sink = RecordingSink::new(MetricsLevel::Off, DEFAULT_MAX_EVENTS);
        datalog_contained_in_ucq_in(
            DecisionCache::global(),
            &program,
            goal,
            &ucq,
            options,
            &mut sink,
        )
        .unwrap()
    };
    assert!(default().contained);
    assert!(traced().contained);
    let symbols = datalog::intern::interned_count();
    assert_eq!(allocations(default), allocations(traced));
    assert_eq!(
        datalog::intern::interned_count(),
        symbols,
        "the measured decisions interned new symbols"
    );
}
