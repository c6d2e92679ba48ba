//! Containment of a Datalog program in a union of conjunctive queries —
//! Theorems 5.11 and 5.12.
//!
//! `Π(Q) ⊆ Θ` iff `T(A_ptrees(Q,Π)) ⊆ ∪ᵢ T(A_θᵢ(Q,Π))`.  The right-hand side
//! is a single tree automaton (disjoint union of the per-disjunct automata),
//! so the decision reduces to tree-automata containment.  Every decision
//! runs the min-subset tree search, linear programs included.  Theorem
//! 5.12's EXPSPACE word-automata track for programs whose proof trees are
//! paths explored 145–1503 product pairs on linear transitive closure
//! where the tree search explores 3–6, so the word engine of the `automata`
//! crate survives only as a test oracle (docs/ARCHITECTURE.md).
//!
//! When containment fails the witness proof tree is converted into a
//! counterexample: the expansion it represents, and the canonical database
//! of that expansion on which `Q_Π` derives a tuple that Θ does not.

use std::time::Instant;

use automata::tree::containment::{
    contained_in_with_sink, ContainmentOptions, Schedule, TreeContainment,
};
use automata::tree::ops::union as tree_union;
use automata::tree::TreeAutomaton;
use cq::{ConjunctiveQuery, Ucq};
use datalog::atom::Pred;
use datalog::database::Database;
use datalog::eval::Strategy;
use datalog::program::Program;
use datalog::term::Constant;
use metrics::{Event, FieldValue, MetricsLevel, MetricsSink, NoMetrics};

use crate::cache::DecisionCache;
use crate::cq_automaton::CqAutomaton;
use crate::labels::ProofLabel;
use crate::proof_tree::{ProofTree, ProofTreeAnalysis};
use crate::ptrees_automaton::{AutomatonStats, PtreesAutomaton};

/// Instrumentation collected during a containment decision; the benches and
/// EXPERIMENTS.md report these.
#[derive(Clone, Debug)]
pub struct ContainmentStats {
    /// Size of the proof-tree automaton.
    pub ptrees: AutomatonStats,
    /// Combined size of the per-disjunct query automata.
    pub queries: AutomatonStats,
    /// Number of product states explored by the containment check.
    pub explored: usize,
    /// Antichain entries retired because a later, smaller subset dominated
    /// them.
    pub pairs_dominated: usize,
    /// Scheduled candidates discarded at pop time because a dominating pair
    /// was admitted first.
    pub pops_skipped_dead: usize,
    /// High-water mark of the scheduler frontier.
    pub max_frontier: usize,
    /// Wall-clock time of the whole decision, in microseconds.
    pub micros: u128,
}

/// A concrete refutation of `Π ⊆ Θ`.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The offending proof tree.
    pub proof_tree: ProofTree,
    /// The expansion (conjunctive query) the proof tree represents.
    pub expansion: ConjunctiveQuery,
    /// The canonical database of the expansion.
    pub database: Database,
    /// The goal tuple derived by Π on [`Counterexample::database`] but not
    /// answered by Θ.
    pub goal_tuple: Vec<Constant>,
}

/// The outcome of a containment decision.
#[derive(Clone, Debug)]
pub struct ContainmentResult {
    /// Does the containment hold?
    pub contained: bool,
    /// A counterexample when it does not.
    pub counterexample: Option<Counterexample>,
    /// Instrumentation.
    pub stats: ContainmentStats,
}

/// Options for [`datalog_contained_in_ucq_with`] and
/// [`datalog_contained_in_ucq_in`].
#[derive(Clone, Copy, Debug)]
pub struct DecisionOptions {
    /// Read by nothing in this workspace: every decision runs the tree
    /// search.  The field remains, defaulting to `false`, because the
    /// repository benchmark's traced pass (`perfbench/src/trace.rs`) reads
    /// it when it rebuilds a decision from its phases.
    pub allow_word_path: bool,
    /// Use the antichain optimisation in tree containment.
    pub antichain: bool,
    /// Abort the containment search after this many product pairs
    /// (`None`: never).
    pub max_pairs: Option<usize>,
    /// Consult (and populate) the [`DecisionCache`].
    /// On by default; switch off to run the uncached reference path the
    /// differential tests lock the cache against.
    pub use_cache: bool,
    /// Abort unfolding (the `equivalence` candidate's rewriting into a UCQ,
    /// or the depth-`k` expansions of `bounded`) once any predicate
    /// accumulates this many disjuncts.  Unfoldings can be exponentially
    /// large, and this budget is the only bound on that phase —
    /// [`DecisionOptions::max_pairs`] kicks in only later, during the
    /// automata containment.  Not part of the cache key: a budget either
    /// errors before any cache interaction or leaves the unfolding (and
    /// hence every verdict) unchanged.
    pub max_unfold: usize,
}

impl Default for DecisionOptions {
    fn default() -> Self {
        DecisionOptions {
            allow_word_path: false,
            antichain: true,
            max_pairs: None,
            use_cache: true,
            max_unfold: usize::MAX,
        }
    }
}

/// Errors reported by the decision procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecisionError {
    /// The goal predicate does not occur in the program.
    UnknownGoal(Pred),
    /// The union of conjunctive queries mixes arities.
    InconsistentUcq,
    /// The search exceeded the configured pair limit.
    ResourceLimit,
}

impl DecisionError {
    /// Stable machine-readable code identifying the variant, for transports
    /// (the server wire protocol) that must not couple to `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            DecisionError::UnknownGoal(_) => "unknown_goal",
            DecisionError::InconsistentUcq => "inconsistent_ucq",
            DecisionError::ResourceLimit => "resource_limit",
        }
    }
}

impl std::fmt::Display for DecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionError::UnknownGoal(p) => write!(f, "goal predicate `{p}` not found in program"),
            DecisionError::InconsistentUcq => {
                write!(f, "disjuncts of the UCQ have different arities")
            }
            DecisionError::ResourceLimit => {
                write!(f, "containment search exceeded its resource limit")
            }
        }
    }
}

impl std::error::Error for DecisionError {}

/// Decide `Π(goal) ⊆ Θ` (Theorem 5.12) against the process-wide
/// [`DecisionCache`], recording no events: [`datalog_contained_in_ucq_in`]
/// with [`DecisionCache::global`] and [`NoMetrics`].
pub fn datalog_contained_in_ucq_with(
    program: &Program,
    goal: Pred,
    ucq: &Ucq,
    options: DecisionOptions,
) -> Result<ContainmentResult, DecisionError> {
    datalog_contained_in_ucq_in(
        DecisionCache::global(),
        program,
        goal,
        ucq,
        options,
        &mut NoMetrics,
    )
}

/// Decide `Π(goal) ⊆ Θ` (Theorem 5.12) against an explicit cache, emitting
/// structured events into `sink` — the one full decision entry point.
///
/// Unless `options.use_cache` is off, the decision is memoised in `cache`
/// keyed on the interned program structure, goal, query key, and options:
/// repeated calls (from [`crate::bounded::find_bound_with`],
/// [`crate::equivalence`], or the [`mod@crate::optimize`] passes) recall the
/// stored verdict, counterexample, and instrumentation instead of
/// rebuilding the automata; a hit records only the `decision` span event.
/// With `use_cache` off, `cache` is ignored and the uncached reference path
/// runs.  Suites that must not share state across tests (the eviction
/// differential, the snapshot property tests) pass a private cache.
///
/// At [`MetricsLevel::Debug`] and above, a produced counterexample is
/// additionally *verified*: the program is re-evaluated goal-directed on the
/// counterexample's canonical database, which is where per-iteration
/// fixpoint events (and the strategy-planner decision) enter a trace,
/// followed by one `witness_check` event.  The server's `trace` verb is this
/// call with a [`metrics::RecordingSink`].
pub fn datalog_contained_in_ucq_in<S: MetricsSink>(
    cache: &DecisionCache,
    program: &Program,
    goal: Pred,
    ucq: &Ucq,
    options: DecisionOptions,
    sink: &mut S,
) -> Result<ContainmentResult, DecisionError> {
    if !program.predicates().contains(&goal) {
        return Err(DecisionError::UnknownGoal(goal));
    }
    if !ucq.consistent_arity() {
        return Err(DecisionError::InconsistentUcq);
    }
    let start = (sink.level() >= MetricsLevel::Counters).then(Instant::now);
    let (result, cache_hit) = if options.use_cache {
        let key = crate::cache::DecisionKey::new(program, goal, ucq, options);
        match cache.lookup_decision(&key) {
            Some(result) => (result, true),
            None => {
                let result = decide_uncached(program, goal, ucq, options, sink)?;
                cache.store_decision(key, &result);
                (result, false)
            }
        }
    } else {
        (decide_uncached(program, goal, ucq, options, sink)?, false)
    };
    finish_decision(sink, &result, cache_hit, options, start);
    if sink.level() >= MetricsLevel::Debug {
        if let Some(cex) = &result.counterexample {
            check_witness(program, goal, cex, sink);
        }
    }
    Ok(result)
}

/// Re-derive a counterexample's goal tuple by goal-directed evaluation of
/// the program on its canonical database, and emit the `witness_check`
/// verdict.
fn check_witness<S: MetricsSink>(
    program: &Program,
    goal: Pred,
    cex: &Counterexample,
    sink: &mut S,
) {
    let pattern = datalog::atom::Atom::new(
        goal,
        cex.goal_tuple
            .iter()
            .map(|&c| datalog::term::Term::Const(c))
            .collect(),
    );
    let eval = datalog::eval::evaluate_goal_with_sink(
        program,
        &cex.database,
        &pattern,
        datalog::eval::EvalOptions {
            strategy: Strategy::Auto,
            ..Default::default()
        },
        sink,
    );
    sink.emit(Event::new(
        "witness_check",
        vec![("derived", FieldValue::Flag(!eval.relation(goal).is_empty()))],
    ));
}

/// Record a completed decision in the registry and, at
/// [`MetricsLevel::Counters`] and above, emit its `decision` span event.
fn finish_decision<S: MetricsSink>(
    sink: &mut S,
    result: &ContainmentResult,
    cache_hit: bool,
    options: DecisionOptions,
    start: Option<Instant>,
) {
    metrics::global::record_decision(cache_hit);
    if sink.level() < MetricsLevel::Counters {
        return;
    }
    let mut fields = vec![
        ("cache_hit", FieldValue::Flag(cache_hit)),
        ("contained", FieldValue::Flag(result.contained)),
        ("explored", FieldValue::Num(result.stats.explored as u64)),
        ("max_unfold", FieldValue::Num(options.max_unfold as u64)),
    ];
    if let Some(start) = start {
        fields.push((
            "micros",
            FieldValue::Num(start.elapsed().as_micros() as u64),
        ));
    }
    sink.emit(Event::new("decision", fields));
}

/// The uncached decision path (the reference oracle).
fn decide_uncached<S: MetricsSink>(
    program: &Program,
    goal: Pred,
    ucq: &Ucq,
    options: DecisionOptions,
    sink: &mut S,
) -> Result<ContainmentResult, DecisionError> {
    let start = Instant::now();

    // Build A_ptrees(Q, Π).
    let ptrees = PtreesAutomaton::build(program, goal);
    let ptrees_stats = ptrees.stats();

    // Build the union of the A_θ automata over the same label context.
    let mut query_automaton: TreeAutomaton<ProofLabel> = TreeAutomaton::new(0);
    let mut query_stats = AutomatonStats::default();
    for disjunct in &ucq.disjuncts {
        let a_theta = CqAutomaton::build(&ptrees.context, goal, disjunct);
        let stats = a_theta.stats();
        query_stats.states += stats.states;
        query_stats.transitions += stats.transitions;
        query_automaton = tree_union(&query_automaton, &a_theta.automaton);
    }

    // Tree-automata containment (the min-subset search).
    let outcome = contained_in_with_sink(
        &ptrees.automaton,
        &query_automaton,
        ContainmentOptions {
            antichain: options.antichain,
            max_pairs: options.max_pairs,
            schedule: Schedule::MinSubset,
        },
        sink,
    );
    let engine_stats = *outcome.stats();
    let explored = engine_stats.pairs;
    let (contained, counterexample) = match outcome {
        TreeContainment::Contained { .. } => (true, None),
        TreeContainment::NotContained { witness, .. } => {
            (false, Some(build_counterexample(&ptrees, witness)))
        }
        TreeContainment::Unknown { .. } => return Err(DecisionError::ResourceLimit),
    };
    Ok(ContainmentResult {
        contained,
        counterexample,
        stats: ContainmentStats {
            ptrees: ptrees_stats,
            queries: query_stats,
            explored,
            pairs_dominated: engine_stats.pairs_dominated,
            pops_skipped_dead: engine_stats.pops_skipped_dead,
            max_frontier: engine_stats.max_frontier,
            micros: start.elapsed().as_micros(),
        },
    })
}

/// Does every rule of the program have at most one IDB body atom?  For such
/// programs every proof tree is a path, so word automata would suffice
/// (Theorem 5.12's EXPSPACE track).  The decision does not read it: the
/// repository benchmark and the tests use it to sort requests into linear
/// and nonlinear.  (This strengthens the paper's "linear" condition, which
/// only restricts *recursive* subgoals.)
pub fn is_chain_program(program: &Program) -> bool {
    let idb = program.idb_predicates();
    program.rules().iter().all(|rule| {
        rule.body
            .iter()
            .filter(|atom| idb.contains(&atom.pred))
            .count()
            <= 1
    })
}

/// Materialise a counterexample from a witness proof tree.
fn build_counterexample(ptrees: &PtreesAutomaton, witness: ProofTree) -> Counterexample {
    let analysis = ProofTreeAnalysis::new(&witness);
    let expansion = analysis.to_expansion(&ptrees.context);
    let frozen = cq::canonical::canonical_database(&expansion);
    Counterexample {
        proof_tree: witness,
        expansion,
        database: frozen.database,
        goal_tuple: frozen.head_tuple,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::eval::evaluate_ucq;
    use cq::generate::{boolean_path_query, bounded_path_ucq_binary};
    use datalog::eval::evaluate;
    use datalog::generate::{transitive_closure, transitive_closure_nonlinear};
    use datalog::parser::parse_program;

    fn tc() -> Program {
        transitive_closure("e", "e")
    }

    fn decide(
        program: &Program,
        goal: Pred,
        ucq: &Ucq,
    ) -> Result<ContainmentResult, DecisionError> {
        datalog_contained_in_ucq_with(program, goal, ucq, DecisionOptions::default())
    }

    #[test]
    fn transitive_closure_not_contained_in_bounded_paths() {
        // TC produces paths of every length, so it is not contained in the
        // union of path queries of length ≤ 3.
        let ucq = bounded_path_ucq_binary("e", 3);
        let result = decide(&tc(), Pred::new("p"), &ucq).unwrap();
        assert!(!result.contained);

        // The counterexample must be verifiable by brute force: Π derives
        // the goal tuple on the canonical database, Θ does not answer it.
        let cex = result.counterexample.unwrap();
        let eval = evaluate(&tc(), &cex.database);
        assert!(eval.relation(Pred::new("p")).contains(&cex.goal_tuple));
        assert!(!evaluate_ucq(&ucq, &cex.database).contains(&cex.goal_tuple));
        // The shortest refutation is a path of length 4.
        assert_eq!(cex.expansion.body.len(), 4);
    }

    #[test]
    fn single_edge_program_is_contained_in_its_own_query() {
        // Π: p(X, Y) :- e(X, Y).  Θ: q(X, Y) :- e(X, Y).  Containment holds.
        let program = parse_program("p(X, Y) :- e(X, Y).").unwrap();
        let ucq = Ucq::parse("q(X, Y) :- e(X, Y).").unwrap();
        let result = decide(&program, Pred::new("p"), &ucq).unwrap();
        assert!(result.contained);
        assert!(result.counterexample.is_none());
    }

    #[test]
    fn tc_contained_in_boolean_edge_query() {
        // Every expansion of TC contains at least one edge, so TC (as a
        // Boolean implication: whenever p(x,y) holds, some edge exists) is
        // contained in the Boolean query ∃ e.  Arities differ (2 vs 0), so
        // we phrase Θ with the same arity but existential body.
        let ucq = Ucq::parse("q(X, Y) :- e(U, V).").unwrap();
        let result = decide(&tc(), Pred::new("p"), &ucq).unwrap();
        assert!(result.contained);
    }

    #[test]
    fn tc_contained_in_reachability_superset_fails_for_wrong_edge() {
        // Θ uses a different EDB predicate; containment must fail.
        let ucq = Ucq::parse("q(X, Y) :- f(X, Y).").unwrap();
        let result = decide(&tc(), Pred::new("p"), &ucq).unwrap();
        assert!(!result.contained);
    }

    #[test]
    fn nonlinear_tc_uses_tree_path_and_agrees_with_linear_tc() {
        let linear = tc();
        let nonlinear = transitive_closure_nonlinear("e");
        let ucq = bounded_path_ucq_binary("e", 2);
        let r1 = decide(&linear, Pred::new("p"), &ucq).unwrap();
        let r2 = decide(&nonlinear, Pred::new("p"), &ucq).unwrap();
        assert_eq!(r1.contained, r2.contained);
        assert!(!r2.contained);
        // The nonlinear counterexample is also verifiable.
        let cex = r2.counterexample.unwrap();
        let eval = evaluate(&nonlinear, &cex.database);
        assert!(eval.relation(Pred::new("p")).contains(&cex.goal_tuple));
    }

    #[test]
    fn example_1_1_pi1_is_contained_in_its_nonrecursive_unfolding() {
        // Π₁ from Example 1.1 is equivalent to a UCQ; containment in that
        // UCQ holds.
        let program = parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), buys(Z, Y).",
        )
        .unwrap();
        let ucq = Ucq::parse(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- trendy(X), likes(Z, Y).",
        )
        .unwrap();
        let result = decide(&program, Pred::new("buys"), &ucq).unwrap();
        assert!(result.contained, "Π₁ ⊆ Θ must hold (Example 1.1)");
    }

    #[test]
    fn example_1_1_pi2_is_not_contained_in_the_analogous_ucq() {
        let program = parse_program(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), buys(Z, Y).",
        )
        .unwrap();
        let ucq = Ucq::parse(
            "buys(X, Y) :- likes(X, Y).\n\
             buys(X, Y) :- knows(X, Z), likes(Z, Y).",
        )
        .unwrap();
        let result = decide(&program, Pred::new("buys"), &ucq).unwrap();
        assert!(!result.contained, "Π₂ ⊄ Θ (Example 1.1)");
        // Verify the counterexample concretely.
        let cex = result.counterexample.unwrap();
        let eval = evaluate(&program, &cex.database);
        assert!(eval.relation(Pred::new("buys")).contains(&cex.goal_tuple));
        assert!(!evaluate_ucq(&ucq, &cex.database).contains(&cex.goal_tuple));
    }

    #[test]
    fn boolean_goal_containment() {
        // Π: c :- p(X, Y), p recursive; Θ: Boolean "some edge exists".
        let program = parse_program(
            "c :- p(X, Y).\n\
             p(X, Y) :- e(X, Z), p(Z, Y).\n\
             p(X, Y) :- e(X, Y).",
        )
        .unwrap();
        let yes = Ucq::parse("q :- e(U, V).").unwrap();
        let no = Ucq::parse("q :- e(U, U).").unwrap();
        assert!(decide(&program, Pred::new("c"), &yes).unwrap().contained);
        assert!(!decide(&program, Pred::new("c"), &no).unwrap().contained);
    }

    #[test]
    fn unknown_goal_and_inconsistent_ucq_are_errors() {
        let ucq = Ucq::parse("q(X) :- e(X, Y).\nq(X, Y) :- e(X, Y).").unwrap();
        assert_eq!(
            decide(&tc(), Pred::new("zzz"), &Ucq::empty()).unwrap_err(),
            DecisionError::UnknownGoal(Pred::new("zzz"))
        );
        assert_eq!(
            decide(&tc(), Pred::new("p"), &ucq).unwrap_err(),
            DecisionError::InconsistentUcq
        );
    }

    #[test]
    fn empty_ucq_contains_only_programs_with_empty_goal() {
        // TC derives facts, so it is not contained in the empty union…
        assert!(
            !decide(&tc(), Pred::new("p"), &Ucq::empty())
                .unwrap()
                .contained
        );
        // …but a program with no exit rule is.
        let no_exit = parse_program("p(X, Y) :- e(X, Z), p(Z, Y).").unwrap();
        assert!(
            decide(&no_exit, Pred::new("p"), &Ucq::empty())
                .unwrap()
                .contained
        );
    }

    #[test]
    fn containment_in_boolean_path_queries_of_increasing_length() {
        // Boolean path queries: a k-path query contains TC's Boolean
        // projection only for k = 1 (every expansion has ≥ 1 edge), not for
        // k = 2 (the single-edge expansion has no 2-path).
        let one = Ucq::singleton(boolean_path_query("e", 1));
        let two = Ucq::singleton(boolean_path_query("e", 2));
        let program = parse_program(
            "c :- p(X, Y).\n\
             p(X, Y) :- e(X, Z), p(Z, Y).\n\
             p(X, Y) :- e(X, Y).",
        )
        .unwrap();
        assert!(decide(&program, Pred::new("c"), &one).unwrap().contained);
        assert!(!decide(&program, Pred::new("c"), &two).unwrap().contained);
    }

    #[test]
    fn stats_are_populated() {
        let ucq = bounded_path_ucq_binary("e", 2);
        let result = decide(&tc(), Pred::new("p"), &ucq).unwrap();
        assert!(result.stats.ptrees.states > 0);
        assert!(result.stats.queries.states > 0);
        assert!(result.stats.explored > 0);
    }

    #[test]
    fn traced_decision_matches_untraced_and_records_events() {
        use metrics::RecordingSink;
        use std::collections::BTreeSet;
        let ucq = bounded_path_ucq_binary("e", 3);
        // Skip the cache so the engines actually run.
        let options = DecisionOptions {
            use_cache: false,
            ..DecisionOptions::default()
        };
        let plain = datalog_contained_in_ucq_with(&tc(), Pred::new("p"), &ucq, options).unwrap();
        let mut sink = RecordingSink::new(MetricsLevel::Trace, usize::MAX);
        let traced = datalog_contained_in_ucq_in(
            DecisionCache::global(),
            &tc(),
            Pred::new("p"),
            &ucq,
            options,
            &mut sink,
        )
        .unwrap();
        assert_eq!(plain.contained, traced.contained);
        assert_eq!(plain.stats.explored, traced.stats.explored);
        assert!(!sink.truncated());
        let kinds: BTreeSet<&str> = sink.events.iter().map(|e| e.kind).collect();
        for kind in [
            "pop",
            "propagate",
            "containment",
            "decision",
            "strategy",
            "iteration",
            "eval",
            "witness_check",
        ] {
            assert!(kinds.contains(kind), "missing event kind {kind}");
        }
        // The witness check must re-derive the counterexample's goal tuple.
        let check = sink
            .events
            .iter()
            .find(|e| e.kind == "witness_check")
            .unwrap();
        assert_eq!(check.flag("derived"), Some(true));
        let span = sink.events.iter().find(|e| e.kind == "decision").unwrap();
        assert_eq!(span.flag("cache_hit"), Some(false));
        assert_eq!(span.text("path"), None);
    }

    #[test]
    fn traced_decision_honours_the_event_budget() {
        use metrics::RecordingSink;
        let ucq = bounded_path_ucq_binary("e", 3);
        let options = DecisionOptions {
            use_cache: false,
            ..DecisionOptions::default()
        };
        let mut sink = RecordingSink::new(MetricsLevel::Trace, 3);
        datalog_contained_in_ucq_in(
            DecisionCache::global(),
            &tc(),
            Pred::new("p"),
            &ucq,
            options,
            &mut sink,
        )
        .unwrap();
        assert!(sink.truncated());
        assert_eq!(sink.events.len(), 3);
        assert!(sink.dropped > 0);
    }
}
