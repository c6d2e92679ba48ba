//! Bottom-up evaluation of Datalog programs.
//!
//! Implements three fixpoint strategies — *naive*, *semi-naive*, and
//! *indexed* (semi-naive iteration with hash-index joins and join-order
//! selection, the default) — plus bounded evaluation `Q^i_Π(D)` (at most
//! `i` rule applications, §2.1), which the test suite uses for differential
//! testing of the containment decision procedures.
//!
//! All three strategies compute the same fixpoint, and iteration-for-
//! iteration the same bounded prefixes `Q^i_Π(D)`; `tests/
//! strategy_differential.rs` locks the optimized paths to the naive
//! semantics on generated instances.  [`EvalStats::probes`] (rule-body
//! match attempts) is the machine-independent cost measure the benches
//! snapshot: scans charge one probe per tuple considered, indexed joins one
//! probe per index candidate considered.
//!
//! A fourth, *goal-directed* strategy — [`Strategy::Magic`] — needs a goal
//! pattern in addition to the program and enters through
//! [`evaluate_goal_with`]: it adorns the program ([`crate::adorn`]),
//! rewrites it with magic predicates ([`crate::magic`]), runs the rewritten
//! rules through the indexed engine, and projects the guarded goal relation
//! back onto the goal predicate.  It computes the same goal-pattern answers
//! as the other strategies but not the same fixpoint (that is the point),
//! so it is exempt from the iteration-for-iteration guarantee; its
//! [`EvalStats`] describe the rewritten program's run.
//!
//! [`Strategy::Auto`] closes the loop: a planner heuristic
//! ([`resolve_auto_strategy`]) inspects the adorned dependency graph and
//! the goal-reachable region of the EDB constant graph and resolves each
//! goal evaluation to `Magic` when the goal bindings can actually prune
//! (acyclic demand region, bindings reaching the recursive calls) and to
//! `Indexed` when they cannot (all-free goals, saturating cyclic regions,
//! inapplicable programs).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use metrics::{Event, FieldValue, MetricsLevel, MetricsSink, NoMetrics};

use crate::atom::{Atom, Fact, Pred};
use crate::database::Database;
use crate::index::RelationIndex;
use crate::plan::JoinPlan;
use crate::program::Program;
use crate::substitution::Substitution;
use crate::term::Term;

/// Evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Recompute every rule over the whole database each iteration by
    /// scanning relations in textual body order.  The reference semantics.
    Naive,
    /// Only join rule bodies against at least one delta fact per iteration,
    /// still by scanning.  Kept as the scan-based baseline the probe
    /// regression tests compare against.
    SemiNaive,
    /// Semi-naive iteration with per-(predicate, column) hash-index joins
    /// ([`crate::index::RelationIndex`]) and join-order selection
    /// ([`crate::plan::JoinPlan`]).  The default.
    Indexed,
    /// Goal-directed evaluation: adorn the program for a goal pattern
    /// ([`crate::adorn`]), rewrite it with magic predicates
    /// ([`crate::magic`]), and run the rewritten rules through the indexed
    /// engine, deriving only goal-relevant facts.  Needs a goal pattern, so
    /// it only takes effect through [`evaluate_goal_with`];
    /// [`evaluate_with`] has no pattern to seed from and falls back to
    /// [`Strategy::Indexed`].
    Magic,
    /// Let the planner decide between [`Strategy::Magic`] and
    /// [`Strategy::Indexed`] per goal: magic only when the heuristic
    /// ([`resolve_auto_strategy`]) concludes the goal bindings can actually
    /// prune the fixpoint, indexed otherwise.  Like `Magic`, it needs a
    /// goal pattern; [`evaluate_with`] falls back to `Indexed`.
    Auto,
}

impl Strategy {
    /// Every strategy, in refinement order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Naive,
        Strategy::SemiNaive,
        Strategy::Indexed,
        Strategy::Magic,
        Strategy::Auto,
    ];

    /// The stable name of the strategy, as trace events and bench rows
    /// print it.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "semi_naive",
            Strategy::Indexed => "indexed",
            Strategy::Magic => "magic",
            Strategy::Auto => "auto",
        }
    }
}

/// Options controlling evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Which fixpoint strategy to use.
    pub strategy: Strategy,
    /// If set, stop after this many iterations of the fixpoint loop
    /// (computes `Q^i_Π(D)` rather than `Q_Π(D)`).
    pub max_iterations: Option<usize>,
    /// If set, abort (returning the partial result) once this many IDB facts
    /// have been derived.  A safety valve for randomly generated inputs.
    pub max_facts: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            strategy: Strategy::Indexed,
            max_iterations: None,
            max_facts: None,
        }
    }
}

/// Statistics reported by an evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint iterations executed.
    pub iterations: usize,
    /// Number of IDB facts derived (excluding EDB facts).
    pub derived_facts: usize,
    /// Number of rule-body match attempts (join probes), a machine-
    /// independent cost measure used by the evaluation benches.
    pub probes: usize,
}

/// The result of evaluating a program on a database.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// EDB facts plus all derived IDB facts.
    pub database: Database,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl EvalResult {
    /// The relation computed for a goal predicate.
    pub fn relation(&self, goal: Pred) -> &crate::database::Relation {
        self.database.relation(goal)
    }
}

/// Evaluate `program` on `edb` with default options (indexed joins, to
/// fixpoint).
pub fn evaluate(program: &Program, edb: &Database) -> EvalResult {
    evaluate_with(program, edb, EvalOptions::default())
}

/// Evaluate `program` on `edb` with explicit options.
///
/// [`Strategy::Magic`] needs a goal pattern to seed from; without one it
/// falls back to [`Strategy::Indexed`] here.  Use [`evaluate_goal_with`]
/// to actually run goal-directed.
pub fn evaluate_with(program: &Program, edb: &Database, options: EvalOptions) -> EvalResult {
    evaluate_with_sink(program, edb, options, &mut NoMetrics)
}

/// [`evaluate_with`], emitting structured events into `sink`.
///
/// The engine is generic over the sink and guards every emission with a
/// level check, so a [`metrics::NoMetrics`] sink monomorphizes to the
/// uninstrumented loop.  Whatever the sink, every completed run is recorded
/// in the [`metrics::global`] registry.  At [`MetricsLevel::Counters`] one
/// `eval` summary event is emitted per run; [`MetricsLevel::Debug`] adds
/// per-`iteration` events and per-predicate `delta` sizes;
/// [`MetricsLevel::Trace`] adds one `join` event per rule derivation
/// carrying its probe delta.
pub fn evaluate_with_sink<S: MetricsSink>(
    program: &Program,
    edb: &Database,
    options: EvalOptions,
    sink: &mut S,
) -> EvalResult {
    match options.strategy {
        Strategy::Naive => naive(program, edb, options, sink),
        Strategy::SemiNaive => delta_fixpoint(program, edb, options, JoinMode::Scan, sink),
        Strategy::Indexed | Strategy::Magic | Strategy::Auto => {
            delta_fixpoint(program, edb, options, JoinMode::Indexed, sink)
        }
    }
}

/// Evaluate `program` on `edb` *for a goal pattern*: constant positions of
/// `goal_pattern` are bound, variable positions free.  The result database
/// is the EDB plus exactly the goal-predicate facts of the fixpoint that
/// match the pattern — identical for every strategy, which is what the
/// magic-vs-indexed differential suite locks.
///
/// Under [`Strategy::Magic`] (and when [`crate::magic::magic_applicable`]
/// holds — otherwise this falls back to the indexed fixpoint with the same
/// restricted result) the program is adorned and rewritten so the fixpoint
/// derives only goal-relevant facts; on selective patterns this probes far
/// fewer tuples than evaluating blind.  The returned [`EvalStats`] then
/// describe the rewritten program's run: `derived_facts` counts magic +
/// guarded facts, `iterations` counts the rewritten fixpoint's rounds, and
/// neither is comparable to the unrewritten `Q^i_Π(D)` prefixes.
///
/// ```
/// use datalog::atom::{Atom, Fact, Pred};
/// use datalog::eval::{evaluate_goal_with, EvalOptions, Strategy};
/// use datalog::generate::chain_database;
/// use datalog::program::Program;
/// use datalog::rule::Rule;
/// use datalog::term::{Constant, Term};
///
/// // Transitive closure of a 4-edge chain, asked only for p(c0, c4).
/// let tc = Program::new(vec![
///     Rule::new(
///         Atom::app("p", ["X", "Y"]),
///         vec![Atom::app("e", ["X", "Z"]), Atom::app("p", ["Z", "Y"])],
///     ),
///     Rule::new(Atom::app("p", ["X", "Y"]), vec![Atom::app("e", ["X", "Y"])]),
/// ]);
/// let db = chain_database("e", 4);
/// let goal = Atom::new(
///     Pred::new("p"),
///     vec![
///         Term::Const(Constant::from_usize(0)),
///         Term::Const(Constant::from_usize(4)),
///     ],
/// );
/// let result = evaluate_goal_with(
///     &tc,
///     &db,
///     &goal,
///     EvalOptions { strategy: Strategy::Auto, ..EvalOptions::default() },
/// );
/// assert!(result.database.contains(&Fact::app("p", ["c0", "c4"])));
/// assert_eq!(result.relation(Pred::new("p")).len(), 1);
/// ```
pub fn evaluate_goal_with(
    program: &Program,
    edb: &Database,
    goal_pattern: &Atom,
    options: EvalOptions,
) -> EvalResult {
    evaluate_goal_with_sink(program, edb, goal_pattern, options, &mut NoMetrics)
}

/// [`evaluate_goal_with`], emitting structured events into `sink`.
///
/// In addition to the fixpoint events of [`evaluate_with_sink`], at
/// [`MetricsLevel::Counters`] and above this emits one `strategy` event per
/// goal evaluation recording the requested strategy, what it resolved to,
/// and the planner's reason (for [`Strategy::Auto`], which of the four
/// [`resolve_auto_strategy`] conditions decided).
pub fn evaluate_goal_with_sink<S: MetricsSink>(
    program: &Program,
    edb: &Database,
    goal_pattern: &Atom,
    options: EvalOptions,
    sink: &mut S,
) -> EvalResult {
    let mut options = options;
    let requested = options.strategy;
    let mut reason = "strategy requested explicitly";
    if options.strategy == Strategy::Auto {
        let (resolved, why) = resolve_auto_strategy_explained(program, edb, goal_pattern);
        options.strategy = resolved;
        reason = why;
    }
    let goal = goal_pattern.pred;
    let magic_path =
        options.strategy == Strategy::Magic && crate::magic::magic_applicable(program, goal, edb);
    let effective = match options.strategy {
        Strategy::Magic if !magic_path => {
            reason = "magic requested but inapplicable; indexed fallback";
            Strategy::Indexed
        }
        other => other,
    };
    if sink.level() >= MetricsLevel::Counters {
        sink.emit(Event::new(
            "strategy",
            vec![
                ("goal", FieldValue::Text(goal.name().to_string())),
                ("requested", FieldValue::Text(requested.name().to_string())),
                ("resolved", FieldValue::Text(effective.name().to_string())),
                ("reason", FieldValue::Text(reason.to_string())),
            ],
        ));
    }
    if magic_path {
        let adorned =
            crate::adorn::adorn_program(program, goal_pattern, crate::adorn::Sips::default());
        let magic = crate::magic::magic_rewrite(&adorned);
        let inner = evaluate_with_sink(&magic.program, edb, options, sink);
        return restrict_to_goal(edb, &inner, magic.goal, goal, goal_pattern);
    }
    let inner = evaluate_with_sink(
        program,
        edb,
        EvalOptions {
            strategy: effective,
            ..options
        },
        sink,
    );
    restrict_to_goal(edb, &inner, goal, goal, goal_pattern)
}

/// The [`Strategy::Auto`] planner: decide, for one goal pattern, whether
/// the magic-set rewrite can actually prune the fixpoint ([`Strategy::
/// Magic`]) or would only add rewrite overhead ([`Strategy::Indexed`]).
///
/// Magic wins exactly when the demand set it seeds from the goal's bound
/// constants stays a *strict* frontier of the database.  The heuristic
/// checks, in order:
///
/// 1. **Applicability** — [`crate::magic::magic_applicable`] must hold
///    (otherwise [`evaluate_goal_with`] would silently fall back anyway).
/// 2. **Goal bindings** — the goal adornment must bind at least one
///    position; an all-free goal passes nothing sideways and the rewrite
///    degenerates to the plain program plus guard bookkeeping.
/// 3. **Binding propagation** — over the adorned dependency graph
///    ([`crate::adorn::adorn_program`], which already restricts to the
///    rules reachable from the goal), some reachable IDB call must receive
///    a binding.  If every reachable call site is all-free, each recursive
///    step drops the goal's bindings on the floor and the magic predicates
///    degenerate to "everything".
/// 4. **Demand saturation** — the data-level check that separates workloads
///    the program-level analysis cannot (chain and cycle databases adorn
///    identically): walk the directed constant graph induced by the binary
///    EDB relations the reachable rules join over, starting from the goal's
///    bound constants.  If that reachable region contains a cycle, the
///    demand frontier saturates — every fact becomes goal-relevant, magic
///    derives the same facts *plus* the magic relations, and indexed
///    evaluation is cheaper.  Acyclic regions keep the frontier strict and
///    magic prunes.
///
/// The result is what [`evaluate_goal_with`] resolves `Auto` to; it is
/// exported so decision-procedure layers can resolve (and count) the
/// choice themselves.
pub fn resolve_auto_strategy(program: &Program, edb: &Database, goal_pattern: &Atom) -> Strategy {
    resolve_auto_strategy_explained(program, edb, goal_pattern).0
}

/// [`resolve_auto_strategy`] plus a stable one-line reason naming which of
/// the four planner conditions decided.  The reason strings are wire
/// vocabulary: the `trace` verb reports them verbatim in its `strategy`
/// event.
pub fn resolve_auto_strategy_explained(
    program: &Program,
    edb: &Database,
    goal_pattern: &Atom,
) -> (Strategy, &'static str) {
    if !crate::magic::magic_applicable(program, goal_pattern.pred, edb) {
        return (
            Strategy::Indexed,
            "magic rewrite inapplicable to this program/database",
        );
    }
    let adorned = crate::adorn::adorn_program(program, goal_pattern, crate::adorn::Sips::default());
    if adorned.goal_adornment.is_all_free() {
        return (Strategy::Indexed, "goal adornment binds no position");
    }
    let idb_calls: Vec<&crate::adorn::Adornment> = adorned
        .rules
        .iter()
        .flat_map(|rule| rule.body.iter())
        .filter_map(|body_atom| body_atom.adornment.as_ref())
        .collect();
    if !idb_calls.is_empty() && idb_calls.iter().all(|a| a.is_all_free()) {
        return (
            Strategy::Indexed,
            "no reachable IDB call receives a binding",
        );
    }
    // The EDB relations the reachable rules actually join over.
    let edb_preds: BTreeSet<Pred> = adorned
        .rules
        .iter()
        .flat_map(|rule| rule.body.iter())
        .filter(|body_atom| body_atom.adornment.is_none())
        .map(|body_atom| body_atom.atom.pred)
        .collect();
    let seeds: Vec<crate::term::Constant> = goal_pattern
        .terms
        .iter()
        .filter_map(|t| match *t {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        })
        .collect();
    if demand_region_has_cycle(edb, &edb_preds, &seeds) {
        (
            Strategy::Indexed,
            "demand region is cyclic; the frontier saturates",
        )
    } else {
        (
            Strategy::Magic,
            "bound goal with an acyclic demand region; magic prunes",
        )
    }
}

/// Is there a cycle in the portion of the EDB constant graph reachable
/// from `seeds`?  Edges come from the binary relations in `edb_preds`
/// (first column → second column); wider or narrower relations induce no
/// traversal edges and are ignored.  Iterative colour DFS, so deep chains
/// cannot overflow the stack.
fn demand_region_has_cycle(
    edb: &Database,
    edb_preds: &BTreeSet<Pred>,
    seeds: &[crate::term::Constant],
) -> bool {
    use crate::term::Constant;
    let mut adjacency: std::collections::BTreeMap<Constant, Vec<Constant>> =
        std::collections::BTreeMap::new();
    for &pred in edb_preds {
        for tuple in edb.relation(pred).iter() {
            if let [from, to] = tuple.as_slice() {
                adjacency.entry(*from).or_default().push(*to);
            }
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        OnPath,
        Done,
    }
    let mut colour: std::collections::BTreeMap<Constant, Colour> =
        std::collections::BTreeMap::new();
    for &seed in seeds {
        if colour.contains_key(&seed) {
            continue;
        }
        // Stack of (node, next child position) frames.
        let mut stack: Vec<(Constant, usize)> = vec![(seed, 0)];
        colour.insert(seed, Colour::OnPath);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = adjacency.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < children.len() {
                let child = children[*next];
                *next += 1;
                match colour.get(&child) {
                    Some(Colour::OnPath) => return true, // back edge
                    Some(Colour::Done) => {}
                    None => {
                        colour.insert(child, Colour::OnPath);
                        stack.push((child, 0));
                    }
                }
            } else {
                colour.insert(node, Colour::Done);
                stack.pop();
            }
        }
    }
    false
}

/// Build the strategy-independent result of [`evaluate_goal_with`]: the
/// EDB plus the `source` relation's tuples that match the pattern, stored
/// under `goal`.
fn restrict_to_goal(
    edb: &Database,
    inner: &EvalResult,
    source: Pred,
    goal: Pred,
    goal_pattern: &Atom,
) -> EvalResult {
    let mut database = edb.clone();
    for tuple in inner.database.relation(source).iter() {
        if Substitution::new().match_tuple(goal_pattern, tuple) {
            database.insert(Fact::new(goal, tuple.clone()));
        }
    }
    EvalResult {
        database,
        stats: inner.stats,
    }
}

/// How [`derive_rule`] enumerates candidate tuples for each body atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JoinMode {
    /// Scan the whole relation per atom, in textual body order.  The
    /// reference behaviour; probe counts match the pre-index engine.
    Scan,
    /// Probe [`RelationIndex`] posting lists, joining in [`JoinPlan`] order.
    Indexed,
}

/// Emit the per-iteration `iteration` + per-predicate `delta` events shared
/// by both fixpoint loops.  Callers guard at [`MetricsLevel::Debug`].
fn emit_iteration_events<S: MetricsSink>(
    sink: &mut S,
    iteration: usize,
    inserted: &BTreeMap<Pred, u64>,
    probes: usize,
) {
    let new_facts: u64 = inserted.values().sum();
    sink.emit(Event::new(
        "iteration",
        vec![
            ("index", FieldValue::Num(iteration as u64)),
            ("new_facts", FieldValue::Num(new_facts)),
            ("probes", FieldValue::Num(probes as u64)),
        ],
    ));
    for (&pred, &count) in inserted {
        sink.emit(Event::new(
            "delta",
            vec![
                ("iteration", FieldValue::Num(iteration as u64)),
                ("pred", FieldValue::Text(pred.name().to_string())),
                ("facts", FieldValue::Num(count)),
            ],
        ));
    }
}

/// Record a finished run in the registry and, at [`MetricsLevel::Counters`]
/// and above, emit its `eval` summary event.
fn finish_run<S: MetricsSink>(sink: &mut S, strategy: &'static str, stats: &EvalStats) {
    metrics::global::record_eval(stats.iterations, stats.probes, stats.derived_facts);
    if sink.level() < MetricsLevel::Counters {
        return;
    }
    sink.emit(Event::new(
        "eval",
        vec![
            ("strategy", FieldValue::Text(strategy.to_string())),
            ("iterations", FieldValue::Num(stats.iterations as u64)),
            ("derived_facts", FieldValue::Num(stats.derived_facts as u64)),
            ("probes", FieldValue::Num(stats.probes as u64)),
        ],
    ));
}

/// Naive evaluation: repeat "apply every rule to the full database" until no
/// new facts appear.
fn naive<S: MetricsSink>(
    program: &Program,
    edb: &Database,
    options: EvalOptions,
    sink: &mut S,
) -> EvalResult {
    let mut db = edb.clone();
    let mut stats = EvalStats::default();
    loop {
        if options
            .max_iterations
            .is_some_and(|max| stats.iterations >= max)
        {
            break;
        }
        stats.iterations += 1;
        let mut new_facts: Vec<Fact> = Vec::new();
        for (rule_index, rule) in program.rules().iter().enumerate() {
            let probes_before = stats.probes;
            derive_rule(
                rule.head.clone(),
                &rule.body,
                &db,
                None,
                JoinMode::Scan,
                &mut new_facts,
                &mut stats.probes,
            );
            if sink.level() >= MetricsLevel::Trace {
                sink.emit(Event::new(
                    "join",
                    vec![
                        ("iteration", FieldValue::Num(stats.iterations as u64)),
                        ("rule", FieldValue::Num(rule_index as u64)),
                        (
                            "probes",
                            FieldValue::Num((stats.probes - probes_before) as u64),
                        ),
                    ],
                ));
            }
        }
        let mut changed = false;
        let mut inserted: BTreeMap<Pred, u64> = BTreeMap::new();
        for fact in new_facts {
            let pred = fact.pred;
            if db.insert(fact) {
                stats.derived_facts += 1;
                changed = true;
                if sink.level() >= MetricsLevel::Debug {
                    *inserted.entry(pred).or_insert(0) += 1;
                }
            }
        }
        if sink.level() >= MetricsLevel::Debug {
            emit_iteration_events(sink, stats.iterations, &inserted, stats.probes);
        }
        if options
            .max_facts
            .is_some_and(|max| stats.derived_facts >= max)
        {
            break;
        }
        if !changed {
            break;
        }
    }
    finish_run(sink, "naive", &stats);
    EvalResult {
        database: db,
        stats,
    }
}

/// Semi-naive fixpoint shared by [`Strategy::SemiNaive`] (scan joins) and
/// [`Strategy::Indexed`] (index joins): each iteration after the first only
/// considers rule instantiations whose body uses at least one fact derived
/// in the previous iteration.  Iteration `i` derives exactly the new facts
/// of naive iteration `i`, so bounded prefixes `Q^i_Π(D)` agree across all
/// strategies.
fn delta_fixpoint<S: MetricsSink>(
    program: &Program,
    edb: &Database,
    options: EvalOptions,
    mode: JoinMode,
    sink: &mut S,
) -> EvalResult {
    let mut db = edb.clone();
    let mut stats = EvalStats::default();

    // Iteration 1 is a full (naive) pass: the "delta" is the EDB itself.
    let mut delta: BTreeSet<Fact> = BTreeSet::new();
    if options.max_iterations != Some(0) {
        stats.iterations += 1;
        let mut new_facts = Vec::new();
        for (rule_index, rule) in program.rules().iter().enumerate() {
            let probes_before = stats.probes;
            derive_rule(
                rule.head.clone(),
                &rule.body,
                &db,
                None,
                mode,
                &mut new_facts,
                &mut stats.probes,
            );
            if sink.level() >= MetricsLevel::Trace {
                sink.emit(Event::new(
                    "join",
                    vec![
                        ("iteration", FieldValue::Num(stats.iterations as u64)),
                        ("rule", FieldValue::Num(rule_index as u64)),
                        (
                            "probes",
                            FieldValue::Num((stats.probes - probes_before) as u64),
                        ),
                    ],
                ));
            }
        }
        for fact in new_facts {
            if db.insert(fact.clone()) {
                stats.derived_facts += 1;
                delta.insert(fact);
            }
        }
        if sink.level() >= MetricsLevel::Debug {
            let inserted = count_by_pred(&delta);
            emit_iteration_events(sink, stats.iterations, &inserted, stats.probes);
        }
    }

    while !delta.is_empty() {
        if options
            .max_iterations
            .is_some_and(|max| stats.iterations >= max)
        {
            break;
        }
        if options
            .max_facts
            .is_some_and(|max| stats.derived_facts >= max)
        {
            break;
        }
        stats.iterations += 1;
        let mut new_facts: Vec<Fact> = Vec::new();
        let delta_db = Database::from_facts(delta.iter().cloned());
        for (rule_index, rule) in program.rules().iter().enumerate() {
            // For each body position holding a predicate present in the
            // delta, require that position to match a delta fact.
            for (pos, atom) in rule.body.iter().enumerate() {
                if delta_db.relation(atom.pred).is_empty() {
                    continue;
                }
                let probes_before = stats.probes;
                derive_rule(
                    rule.head.clone(),
                    &rule.body,
                    &db,
                    Some((pos, &delta_db)),
                    mode,
                    &mut new_facts,
                    &mut stats.probes,
                );
                if sink.level() >= MetricsLevel::Trace {
                    sink.emit(Event::new(
                        "join",
                        vec![
                            ("iteration", FieldValue::Num(stats.iterations as u64)),
                            ("rule", FieldValue::Num(rule_index as u64)),
                            ("delta_pos", FieldValue::Num(pos as u64)),
                            (
                                "probes",
                                FieldValue::Num((stats.probes - probes_before) as u64),
                            ),
                        ],
                    ));
                }
            }
            // Rules with empty bodies fire once, in the first iteration,
            // which the full pass above already handled.
        }
        let mut next_delta = BTreeSet::new();
        for fact in new_facts {
            if db.insert(fact.clone()) {
                stats.derived_facts += 1;
                next_delta.insert(fact);
            }
        }
        if sink.level() >= MetricsLevel::Debug {
            let inserted = count_by_pred(&next_delta);
            emit_iteration_events(sink, stats.iterations, &inserted, stats.probes);
        }
        delta = next_delta;
    }

    let strategy = match mode {
        JoinMode::Scan => "semi_naive",
        JoinMode::Indexed => "indexed",
    };
    finish_run(sink, strategy, &stats);
    EvalResult {
        database: db,
        stats,
    }
}

/// Count a delta set's facts per predicate (for the Debug `delta` events).
fn count_by_pred(delta: &BTreeSet<Fact>) -> BTreeMap<Pred, u64> {
    let mut counts = BTreeMap::new();
    for fact in delta {
        *counts.entry(fact.pred).or_insert(0) += 1;
    }
    counts
}

/// Enumerate all instantiations of `body` against `db` (with the atom at
/// `delta_pos`, if given, matched against the delta database instead) and
/// emit the corresponding ground heads.
///
/// In [`JoinMode::Scan`] the body is joined in textual order, each atom
/// against a full scan of its relation.  In [`JoinMode::Indexed`] the body
/// is joined in [`JoinPlan`] order and each atom enumerates only the rows
/// of the most selective bound-column posting list
/// ([`RelationIndex::candidates`]).  Both modes charge one probe per
/// candidate tuple considered.
fn derive_rule(
    head: Atom,
    body: &[Atom],
    db: &Database,
    delta: Option<(usize, &Database)>,
    mode: JoinMode,
    out: &mut Vec<Fact>,
    probes: &mut usize,
) {
    struct JoinCtx<'a> {
        head: &'a Atom,
        body: &'a [Atom],
        db: &'a Database,
        delta: Option<(usize, &'a Database)>,
        /// Body positions in join order (identity for scans).
        order: Vec<usize>,
        /// Index snapshot per body position; `None` in scan mode.
        indexes: Vec<Option<Arc<RelationIndex>>>,
    }

    fn source_db<'a>(
        db: &'a Database,
        delta: Option<(usize, &'a Database)>,
        pos: usize,
    ) -> &'a Database {
        match delta {
            Some((dpos, delta_db)) if dpos == pos => delta_db,
            _ => db,
        }
    }

    fn rec(
        ctx: &JoinCtx<'_>,
        step: usize,
        subst: &mut Substitution,
        out: &mut Vec<Fact>,
        probes: &mut usize,
    ) {
        if step == ctx.order.len() {
            let ground = subst.apply_atom(ctx.head);
            if let Some(fact) = ground.to_fact() {
                out.push(fact);
            }
            return;
        }
        let pos = ctx.order[step];
        let atom = &ctx.body[pos];
        // One loop body for both modes — only the candidate source differs
        // (the probe accounting below must stay identical across modes; the
        // probe regression gate compares the two).
        let mut indexed_candidates;
        let mut scan_candidates;
        let candidates: &mut dyn Iterator<Item = &[crate::term::Constant]> = match &ctx.indexes[pos]
        {
            Some(index) => {
                indexed_candidates = index.candidates(atom, subst);
                &mut indexed_candidates
            }
            None => {
                let source = source_db(ctx.db, ctx.delta, pos);
                scan_candidates = source.relation(atom.pred).iter().map(Vec::as_slice);
                &mut scan_candidates
            }
        };
        for tuple in candidates {
            *probes += 1;
            let mut attempt = subst.clone();
            if attempt.match_tuple(atom, tuple) {
                rec(ctx, step + 1, &mut attempt, out, probes);
            }
        }
    }

    // Rules with empty bodies: emit the head if it is ground.
    if body.is_empty() {
        if let Some(fact) = head.to_fact() {
            out.push(fact);
        } else if head.terms.iter().any(|t| matches!(t, Term::Var(_))) {
            // Non-ground empty-body rules (e.g. `dist0(x, x) :-` from
            // Example 6.2) are instantiated over the active domain of the
            // database, the standard finite-domain reading.
            instantiate_over_domain(&head, db, out);
        }
        return;
    }
    let (order, indexes) = match mode {
        JoinMode::Scan => ((0..body.len()).collect(), vec![None; body.len()]),
        JoinMode::Indexed => {
            let plan = match delta {
                Some((dpos, _)) => JoinPlan::for_body_with_delta(body, db, dpos),
                None => JoinPlan::for_body(body, db),
            };
            // Snapshot each atom's source index once per derivation; new
            // facts are buffered by the caller, so the snapshots stay valid
            // for the whole derivation.
            let indexes = body
                .iter()
                .enumerate()
                .map(|(pos, atom)| Some(source_db(db, delta, pos).index(atom.pred)))
                .collect();
            (plan.order().to_vec(), indexes)
        }
    };
    let ctx = JoinCtx {
        head: &head,
        body,
        db,
        delta,
        order,
        indexes,
    };
    let mut subst = Substitution::new();
    rec(&ctx, 0, &mut subst, out, probes);
}

/// Instantiate a non-ground atom over the active domain of the database
/// (all variables range over all constants).
fn instantiate_over_domain(head: &Atom, db: &Database, out: &mut Vec<Fact>) {
    let domain: Vec<_> = db.active_domain().into_iter().collect();
    if domain.is_empty() {
        return;
    }
    let vars: Vec<_> = {
        let mut seen = BTreeSet::new();
        head.variables().filter(|v| seen.insert(*v)).collect()
    };
    let mut assignment = vec![0usize; vars.len()];
    loop {
        let mut subst = Substitution::new();
        for (v, &i) in vars.iter().zip(&assignment) {
            subst.bind_var(*v, Term::Const(domain[i]));
        }
        if let Some(fact) = subst.apply_atom(head).to_fact() {
            out.push(fact);
        }
        // Advance the odometer.
        let mut carry = true;
        for slot in assignment.iter_mut() {
            if carry {
                *slot += 1;
                if *slot == domain.len() {
                    *slot = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::rule::Rule;
    use crate::term::Constant;

    fn tc() -> Program {
        Program::new(vec![
            Rule::new(
                Atom::app("p", ["X", "Y"]),
                vec![Atom::app("e", ["X", "Z"]), Atom::app("p", ["Z", "Y"])],
            ),
            Rule::new(Atom::app("p", ["X", "Y"]), vec![Atom::app("e", ["X", "Y"])]),
        ])
    }

    fn chain(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_tuple(
                Pred::new("e"),
                vec![Constant::from_usize(i), Constant::from_usize(i + 1)],
            );
        }
        db
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let db = chain(5);
        let result = evaluate(&tc(), &db);
        // All pairs (i, j) with i < j ≤ 5: 5+4+3+2+1 = 15.
        assert_eq!(result.relation(Pred::new("p")).len(), 15);
        assert!(result.database.contains(&Fact::app("p", ["c0", "c5"])));
        assert!(!result.database.contains(&Fact::app("p", ["c5", "c0"])));
    }

    fn with_strategy(strategy: Strategy) -> EvalOptions {
        EvalOptions {
            strategy,
            ..EvalOptions::default()
        }
    }

    #[test]
    fn all_strategies_agree() {
        let db = chain(8);
        let naive = evaluate_with(&tc(), &db, with_strategy(Strategy::Naive));
        let semi = evaluate_with(&tc(), &db, with_strategy(Strategy::SemiNaive));
        let indexed = evaluate_with(&tc(), &db, EvalOptions::default());
        assert_eq!(
            naive.relation(Pred::new("p")),
            semi.relation(Pred::new("p"))
        );
        assert_eq!(naive.database, indexed.database);
        // Each refinement must not do more probes than the one it refines
        // on this workload.
        assert!(semi.stats.probes <= naive.stats.probes);
        assert!(indexed.stats.probes <= semi.stats.probes);
    }

    #[test]
    fn indexed_is_the_default_strategy() {
        assert_eq!(EvalOptions::default().strategy, Strategy::Indexed);
    }

    #[test]
    fn strategies_agree_iteration_by_iteration() {
        let db = chain(6);
        for i in 0..=5 {
            let mut results = [Strategy::Naive, Strategy::SemiNaive, Strategy::Indexed]
                .map(|strategy| {
                    evaluate_with(
                        &tc(),
                        &db,
                        EvalOptions {
                            max_iterations: Some(i),
                            ..with_strategy(strategy)
                        },
                    )
                })
                .into_iter();
            let reference = results.next().unwrap();
            for other in results {
                assert_eq!(reference.database, other.database, "iteration bound {i}");
            }
        }
    }

    #[test]
    fn bounded_evaluation_computes_partial_fixpoint() {
        let db = chain(6);
        // One iteration: only paths of length 1.
        let one = evaluate_with(
            &tc(),
            &db,
            EvalOptions {
                max_iterations: Some(1),
                ..EvalOptions::default()
            },
        );
        assert_eq!(one.relation(Pred::new("p")).len(), 6);
        // Two iterations: paths of length ≤ 2.
        let two = evaluate_with(
            &tc(),
            &db,
            EvalOptions {
                max_iterations: Some(2),
                ..EvalOptions::default()
            },
        );
        assert_eq!(two.relation(Pred::new("p")).len(), 6 + 5);
    }

    #[test]
    fn zero_iterations_derives_nothing() {
        let db = chain(3);
        let r = evaluate_with(
            &tc(),
            &db,
            EvalOptions {
                max_iterations: Some(0),
                ..EvalOptions::default()
            },
        );
        assert!(r.relation(Pred::new("p")).is_empty());
        assert_eq!(r.stats.derived_facts, 0);
    }

    #[test]
    fn empty_body_ground_rule_fires_once() {
        let p = Program::new(vec![Rule::fact(Atom::app("t", ["a", "b"]))]);
        let r = evaluate(&p, &Database::new());
        assert!(r.database.contains(&Fact::app("t", ["a", "b"])));
    }

    #[test]
    fn empty_body_nonground_rule_ranges_over_active_domain() {
        // dist0(X, X). over a database with domain {a, b}.
        let p = Program::new(vec![Rule::fact(Atom::app("d", ["X", "X"]))]);
        let db = Database::from_facts([Fact::app("e", ["a", "b"])]);
        let r = evaluate(&p, &db);
        assert!(r.database.contains(&Fact::app("d", ["a", "a"])));
        assert!(r.database.contains(&Fact::app("d", ["b", "b"])));
        assert_eq!(r.relation(Pred::new("d")).len(), 2);
    }

    #[test]
    fn mutually_recursive_even_odd() {
        let p = Program::new(vec![
            Rule::new(Atom::app("even", ["X"]), vec![Atom::app("zero", ["X"])]),
            Rule::new(
                Atom::app("even", ["X"]),
                vec![Atom::app("succ", ["Y", "X"]), Atom::app("odd", ["Y"])],
            ),
            Rule::new(
                Atom::app("odd", ["X"]),
                vec![Atom::app("succ", ["Y", "X"]), Atom::app("even", ["Y"])],
            ),
        ]);
        let mut db = Database::new();
        db.insert(Fact::app("zero", ["n0"]));
        for i in 0..6 {
            db.insert(Fact::app(
                "succ",
                [format!("n{i}").as_str(), format!("n{}", i + 1).as_str()],
            ));
        }
        let r = evaluate(&p, &db);
        assert!(r.database.contains(&Fact::app("even", ["n4"])));
        assert!(r.database.contains(&Fact::app("odd", ["n5"])));
        assert!(!r.database.contains(&Fact::app("even", ["n5"])));
    }

    #[test]
    fn fact_limit_stops_evaluation_early() {
        let db = chain(30);
        let r = evaluate_with(
            &tc(),
            &db,
            EvalOptions {
                max_facts: Some(10),
                ..EvalOptions::default()
            },
        );
        assert!(r.stats.derived_facts >= 10);
        assert!(r.stats.derived_facts < 30 * 31 / 2);
    }

    #[test]
    fn result_contains_edb_facts() {
        let db = chain(2);
        let r = evaluate(&tc(), &db);
        assert!(r.database.contains(&Fact::app("e", ["c0", "c1"])));
    }

    fn bound_goal(n: usize) -> Atom {
        Atom::new(
            Pred::new("p"),
            vec![
                Term::Const(Constant::from_usize(0)),
                Term::Const(Constant::from_usize(n)),
            ],
        )
    }

    #[test]
    fn goal_directed_strategies_agree_on_the_pattern() {
        let db = chain(8);
        let goal = bound_goal(8);
        let mut results = Strategy::ALL
            .map(|strategy| evaluate_goal_with(&tc(), &db, &goal, with_strategy(strategy)))
            .into_iter();
        let reference = results.next().unwrap();
        assert!(reference.database.contains(&Fact::app("p", ["c0", "c8"])));
        // The restricted result is one goal fact plus the EDB, regardless
        // of strategy.
        assert_eq!(reference.relation(Pred::new("p")).len(), 1);
        for other in results {
            assert_eq!(reference.database, other.database);
        }
    }

    #[test]
    fn magic_probes_beat_indexed_on_a_bound_chain_query() {
        let db = chain(16);
        let goal = bound_goal(16);
        let indexed = evaluate_goal_with(&tc(), &db, &goal, with_strategy(Strategy::Indexed));
        let magic = evaluate_goal_with(&tc(), &db, &goal, with_strategy(Strategy::Magic));
        assert_eq!(indexed.database, magic.database);
        assert!(
            magic.stats.probes < indexed.stats.probes,
            "magic {} probes >= indexed {}",
            magic.stats.probes,
            indexed.stats.probes
        );
        assert!(magic.stats.derived_facts < indexed.stats.derived_facts);
    }

    #[test]
    fn magic_without_a_pattern_falls_back_to_indexed() {
        let db = chain(6);
        let via_magic = evaluate_with(&tc(), &db, with_strategy(Strategy::Magic));
        let via_indexed = evaluate_with(&tc(), &db, with_strategy(Strategy::Indexed));
        assert_eq!(via_magic.database, via_indexed.database);
        assert_eq!(via_magic.stats, via_indexed.stats);
    }

    #[test]
    fn magic_falls_back_when_the_edb_holds_idb_facts() {
        // Canonical databases of queries that mention the goal predicate
        // store base facts under it; magic must not lose them.
        let mut db = chain(4);
        db.insert(Fact::app("p", ["c4", "c9"]));
        let goal = Atom::new(
            Pred::new("p"),
            vec![
                Term::Const(Constant::from_usize(0)),
                Term::Const(Constant::new("c9")),
            ],
        );
        let magic = evaluate_goal_with(&tc(), &db, &goal, with_strategy(Strategy::Magic));
        let indexed = evaluate_goal_with(&tc(), &db, &goal, with_strategy(Strategy::Indexed));
        assert_eq!(magic.database, indexed.database);
        // Reachable only through the seeded IDB fact: c0 →* c4 → c9.
        assert!(magic.database.contains(&Fact::app("p", ["c0", "c9"])));
    }

    #[test]
    fn magic_falls_back_on_nonground_empty_body_rules() {
        let mut rules = tc().rules().to_vec();
        rules.push(Rule::fact(Atom::app("p", ["X", "X"])));
        let program = Program::new(rules);
        let db = chain(4);
        let goal = Atom::new(
            Pred::new("p"),
            vec![
                Term::Const(Constant::from_usize(2)),
                Term::Const(Constant::from_usize(2)),
            ],
        );
        let magic = evaluate_goal_with(&program, &db, &goal, with_strategy(Strategy::Magic));
        let indexed = evaluate_goal_with(&program, &db, &goal, with_strategy(Strategy::Indexed));
        assert_eq!(magic.database, indexed.database);
        // The reflexive fact comes from domain instantiation only.
        assert!(magic.database.contains(&Fact::app("p", ["c2", "c2"])));
    }

    #[test]
    fn auto_resolves_to_magic_only_when_pruning_is_possible() {
        use crate::generate::{chain_database, cycle_database};
        // Chain data, bound goal: the demand region is acyclic, magic prunes.
        assert_eq!(
            resolve_auto_strategy(&tc(), &chain_database("e", 8), &bound_goal(8)),
            Strategy::Magic
        );
        // Cycle data, same program and adornments: the demand region
        // saturates, indexed wins.
        assert_eq!(
            resolve_auto_strategy(&tc(), &cycle_database("e", 8), &bound_goal(0)),
            Strategy::Indexed
        );
        // All-free goal: nothing to pass sideways.
        assert_eq!(
            resolve_auto_strategy(&tc(), &chain_database("e", 8), &Atom::app("p", ["X", "Y"])),
            Strategy::Indexed
        );
        // Magic-inapplicable input (IDB facts in the EDB): indexed.
        let mut db = chain(4);
        db.insert(Fact::app("p", ["c0", "c9"]));
        assert_eq!(
            resolve_auto_strategy(&tc(), &db, &bound_goal(4)),
            Strategy::Indexed
        );
    }

    #[test]
    fn auto_evaluation_matches_its_resolved_strategy_probe_for_probe() {
        use crate::generate::{chain_database, cycle_database};
        let chain_db = chain_database("e", 16);
        let goal = bound_goal(16);
        let auto = evaluate_goal_with(&tc(), &chain_db, &goal, with_strategy(Strategy::Auto));
        let magic = evaluate_goal_with(&tc(), &chain_db, &goal, with_strategy(Strategy::Magic));
        assert_eq!(auto.database, magic.database);
        assert_eq!(auto.stats, magic.stats, "auto must *be* magic here");

        let cycle_db = cycle_database("e", 16);
        let cyc_goal = bound_goal(0);
        let auto = evaluate_goal_with(&tc(), &cycle_db, &cyc_goal, with_strategy(Strategy::Auto));
        let indexed = evaluate_goal_with(
            &tc(),
            &cycle_db,
            &cyc_goal,
            with_strategy(Strategy::Indexed),
        );
        assert_eq!(auto.database, indexed.database);
        assert_eq!(auto.stats, indexed.stats, "auto must *be* indexed here");
    }

    #[test]
    fn free_variable_patterns_restrict_to_matching_tuples() {
        let db = chain(4);
        // p(c1, Y): all nodes reachable from c1.
        let goal = Atom::new(
            Pred::new("p"),
            vec![
                Term::Const(Constant::from_usize(1)),
                Term::Var(crate::term::Var::new("Y")),
            ],
        );
        for strategy in Strategy::ALL {
            let r = evaluate_goal_with(&tc(), &db, &goal, with_strategy(strategy));
            assert_eq!(
                r.relation(Pred::new("p")).len(),
                3,
                "{}: c2, c3, c4 reachable from c1",
                strategy.name()
            );
        }
    }

    #[test]
    fn sinks_observe_without_perturbing_the_run() {
        use metrics::{MetricsLevel, NoMetrics, RecordingSink};
        let db = chain(8);
        let goal = bound_goal(8);
        let plain = evaluate_goal_with(&tc(), &db, &goal, with_strategy(Strategy::Auto));
        let off = evaluate_goal_with_sink(
            &tc(),
            &db,
            &goal,
            with_strategy(Strategy::Auto),
            &mut NoMetrics,
        );
        assert_eq!(plain.stats, off.stats);

        let mut sink = RecordingSink::new(MetricsLevel::Trace, usize::MAX);
        let traced =
            evaluate_goal_with_sink(&tc(), &db, &goal, with_strategy(Strategy::Auto), &mut sink);
        assert_eq!(plain.stats, traced.stats, "tracing must be observational");
        assert_eq!(plain.database, traced.database);
        let kinds: BTreeSet<&str> = sink.events.iter().map(|e| e.kind).collect();
        for kind in ["strategy", "iteration", "delta", "join", "eval"] {
            assert!(kinds.contains(kind), "missing event kind {kind}");
        }
        let strategy = sink.events.iter().find(|e| e.kind == "strategy").unwrap();
        assert_eq!(strategy.text("requested"), Some("auto"));
        assert_eq!(strategy.text("resolved"), Some("magic"));
        assert_eq!(
            strategy.text("reason"),
            Some("bound goal with an acyclic demand region; magic prunes")
        );
        let summary = sink.events.iter().find(|e| e.kind == "eval").unwrap();
        assert_eq!(summary.num("probes"), Some(plain.stats.probes as u64));
    }

    #[test]
    fn counters_level_skips_per_iteration_detail() {
        use metrics::{MetricsLevel, RecordingSink};
        let mut sink = RecordingSink::new(MetricsLevel::Counters, usize::MAX);
        evaluate_goal_with_sink(
            &tc(),
            &chain(4),
            &bound_goal(4),
            with_strategy(Strategy::Auto),
            &mut sink,
        );
        let kinds: BTreeSet<&str> = sink.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains("strategy"));
        assert!(kinds.contains("eval"));
        assert!(!kinds.contains("iteration"));
        assert!(!kinds.contains("join"));
    }
}
