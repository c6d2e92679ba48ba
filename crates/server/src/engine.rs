//! Execution of single (non-batch) commands against the decision
//! procedures of [`nonrec_equivalence`].
//!
//! This is the only module that touches the decision layer.  All calls go
//! through the default decision paths, which consult the process-wide
//! [`nonrec_equivalence::cache::DecisionCache`] — the whole point of the
//! server: one cache amortised across every request of every connection.
//!
//! Datalog parsing happens here (on a worker thread), not on the
//! connection threads, so a slow parse cannot stall the read loop.

use cq::minimize::minimize_ucq_with;
use cq::{ConjunctiveQuery, CqKey, Ucq};
use datalog::atom::Pred;
use datalog::parser::parse_program;
use datalog::program::Program;
use metrics::{MetricsSink, RecordingSink};
use nonrec_equivalence::bounded::find_bound_with;
use nonrec_equivalence::cache::DecisionCache;
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_in, datalog_contained_in_ucq_with, ContainmentResult,
    ContainmentStats, Counterexample, DecisionOptions,
};
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::optimize::{eliminate_recursion_with, optimize, OptimizeOptions};
use nonrec_equivalence::proof_tree::{render_proof_tree, ProofTree};
use nonrec_equivalence::unfold::UnfoldStats;

use crate::json::{obj, Value};
use crate::protocol::{Command, RequestOptions, WireError};

/// A cap on the containment search's pairs, applied to every request that
/// does not set `max_pairs` itself.  It bounds the search only: the
/// A_ptrees and A_θ builds before it have no budget, so one pathological
/// input can still occupy a worker for as long as those builds take
/// (ROADMAP item 4).  Generous: the repo's whole generated differential
/// suite stays well under it.
pub const DEFAULT_MAX_PAIRS: usize = 5_000_000;

/// Input-size caps for the `optimize` and `minimize` verbs.  Their
/// CQ-containment oracle is a homomorphism search (exponential in rule size
/// in the worst case) and has no `max_pairs`-style budget, so the server
/// bounds the *input* instead: total atoms across the input, and atoms in
/// any single rule body or disjunct (the quantity the search is exponential
/// in).
pub const MAX_OPTIMIZE_ATOMS: usize = 4_096;
/// See [`MAX_OPTIMIZE_ATOMS`].
pub const MAX_OPTIMIZE_BODY_ATOMS: usize = 64;

/// Unfolding budget applied to every decision verb: the `equivalence` and
/// `bounded` verbs materialise a candidate's (or the program's own)
/// unfolding, which can be exponentially large; beyond this many disjuncts
/// per predicate the decision answers `unfolding_too_large` / a
/// `resource_limit` instead of pinning a worker until the process OOMs.
pub const DEFAULT_MAX_UNFOLD: usize = 20_000;

/// Largest `max_depth` the `bounded` verb accepts (the unfolding budget
/// bounds the work per depth; this bounds the number of depths probed).
pub const MAX_BOUNDED_DEPTH: usize = 32;

fn decision_options(options: RequestOptions) -> DecisionOptions {
    DecisionOptions {
        use_cache: options.use_cache,
        max_pairs: Some(options.max_pairs.unwrap_or(DEFAULT_MAX_PAIRS)),
        max_unfold: DEFAULT_MAX_UNFOLD,
        ..DecisionOptions::default()
    }
}

fn parse_program_field(field: &'static str, text: &str) -> Result<Program, WireError> {
    parse_program(text).map_err(|e| WireError::new(e.code(), format!("in field `{field}`: {e}")))
}

fn parse_query_field(field: &'static str, text: &str) -> Result<Ucq, WireError> {
    Ucq::parse_checked(text)
        .map_err(|e| WireError::new(e.code(), format!("in field `{field}`: {e}")))
}

fn stats_json(stats: &ContainmentStats) -> Value {
    obj(vec![
        ("explored", Value::num(stats.explored as f64)),
        ("pairs_dominated", Value::num(stats.pairs_dominated as f64)),
        (
            "pops_skipped_dead",
            Value::num(stats.pops_skipped_dead as f64),
        ),
        ("max_frontier", Value::num(stats.max_frontier as f64)),
        ("micros", Value::num(stats.micros as f64)),
    ])
}

/// One proof-tree node as structured JSON: the goal atom it derives, the
/// originating rule index, the full rule instance, and the child subtrees
/// (one per IDB body atom, in order).  This is the `options.provenance`
/// payload — machine-readable where the flat `proof_tree` rendering is for
/// humans.
fn proof_tree_json(tree: &ProofTree) -> Value {
    obj(vec![
        ("atom", Value::str(tree.label.atom().to_string())),
        ("rule_index", Value::num(tree.label.rule_index as f64)),
        ("rule", Value::str(tree.label.instance.to_string())),
        (
            "children",
            Value::Arr(tree.children.iter().map(proof_tree_json).collect()),
        ),
    ])
}

fn counterexample_json(cex: &Counterexample, provenance: bool) -> Value {
    let facts: Vec<Value> = cex
        .database
        .facts()
        .map(|fact| Value::str(fact.to_string()))
        .collect();
    let tuple: Vec<Value> = cex
        .goal_tuple
        .iter()
        .map(|c| Value::str(c.name()))
        .collect();
    let mut fields = vec![
        ("expansion", Value::str(cex.expansion.to_string())),
        ("database", Value::Arr(facts)),
        ("goal_tuple", Value::Arr(tuple)),
        ("proof_tree", Value::str(render_proof_tree(&cex.proof_tree))),
    ];
    if provenance {
        fields.push(("provenance", proof_tree_json(&cex.proof_tree)));
    }
    obj(fields)
}

/// The result payload of the `containment` and `trace` verbs: the verdict,
/// the decision's `stats`, and the counterexample when it is refuted.  A
/// `trace` passes its recording, which adds the `level` after the verdict
/// and the `events`, `truncated`, and `dropped` fields after the stats.
fn decision_json(
    result: &ContainmentResult,
    provenance: bool,
    trace: Option<&RecordingSink>,
) -> Value {
    let mut fields = vec![("contained", Value::Bool(result.contained))];
    if let Some(sink) = trace {
        fields.push(("level", Value::str(sink.level().name())));
    }
    fields.push(("stats", stats_json(&result.stats)));
    if let Some(sink) = trace {
        let events = sink.events.iter().map(crate::metrics::event_json).collect();
        fields.push(("events", Value::Arr(events)));
        fields.push(("truncated", Value::Bool(sink.truncated())));
        fields.push(("dropped", Value::num(sink.dropped as f64)));
    }
    if let Some(cex) = &result.counterexample {
        fields.push(("counterexample", counterexample_json(cex, provenance)));
    }
    obj(fields)
}

/// Refuse an `optimize` or `minimize` input over the caps of
/// [`MAX_OPTIMIZE_ATOMS`] and [`MAX_OPTIMIZE_BODY_ATOMS`].  `atoms` is the
/// total atom count; `bodies` names each rule or disjunct with its body
/// size.
fn check_input_size<T: std::fmt::Display>(
    verb: &str,
    unit: &str,
    atoms: usize,
    mut bodies: impl Iterator<Item = (T, usize)>,
) -> Result<(), WireError> {
    if atoms > MAX_OPTIMIZE_ATOMS {
        return Err(WireError::new(
            "resource_limit",
            format!("{verb} input has {atoms} atoms; at most {MAX_OPTIMIZE_ATOMS} are allowed"),
        ));
    }
    if let Some((oversized, size)) = bodies.find(|&(_, size)| size > MAX_OPTIMIZE_BODY_ATOMS) {
        return Err(WireError::new(
            "resource_limit",
            format!(
                "{verb} input {unit} `{oversized}` has {size} body atoms; \
                 at most {MAX_OPTIMIZE_BODY_ATOMS} are allowed"
            ),
        ));
    }
    Ok(())
}

/// The CQ-containment oracle behind the `minimize` verb: every call counts,
/// and with `use_cache` the verdict goes through the shared
/// [`DecisionCache`] (recording hits), mirroring the optimisation passes'
/// memoising oracle.  Without it, the classical containment test runs
/// directly — the uncached reference path the differential suites compare
/// against.
struct MinimizeOracle {
    use_cache: bool,
    calls: u64,
    hits: u64,
}

impl MinimizeOracle {
    fn new(use_cache: bool) -> MinimizeOracle {
        MinimizeOracle {
            use_cache,
            calls: 0,
            hits: 0,
        }
    }

    fn contained(&mut self, theta: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> bool {
        self.calls += 1;
        if self.use_cache {
            let (verdict, hit) =
                DecisionCache::global().cq_contained_keyed(&CqKey::of(theta), &CqKey::of(psi));
            if hit {
                self.hits += 1;
            }
            verdict
        } else {
            cq::containment::cq_contained_in(theta, psi)
        }
    }
}

/// Execute one non-batch, non-stats command, producing the `result` payload
/// of the success response.
pub fn execute(command: &Command) -> Result<Value, WireError> {
    match command {
        Command::Containment {
            program,
            goal,
            query,
            options,
        } => {
            let program = parse_program_field("program", program)?;
            let ucq = parse_query_field("query", query)?;
            let result = datalog_contained_in_ucq_with(
                &program,
                Pred::new(goal),
                &ucq,
                decision_options(*options),
            )
            .map_err(|e| WireError::new(e.code(), e.to_string()))?;
            Ok(decision_json(&result, options.provenance, None))
        }
        Command::Trace {
            program,
            goal,
            query,
            level,
            max_events,
            options,
        } => {
            let program = parse_program_field("program", program)?;
            let ucq = parse_query_field("query", query)?;
            let mut sink = RecordingSink::new(*level, *max_events);
            let result = datalog_contained_in_ucq_in(
                DecisionCache::global(),
                &program,
                Pred::new(goal),
                &ucq,
                decision_options(*options),
                &mut sink,
            )
            .map_err(|e| WireError::new(e.code(), e.to_string()))?;
            Ok(decision_json(&result, options.provenance, Some(&sink)))
        }
        Command::Equivalence {
            program,
            goal,
            candidate,
            options,
        } => {
            let program = parse_program_field("program", program)?;
            let candidate = parse_program_field("candidate", candidate)?;
            let result = equivalent_to_nonrecursive_with(
                &program,
                Pred::new(goal),
                &candidate,
                decision_options(*options),
            )
            .map_err(|e| WireError::new(e.code(), e.to_string()))?;
            let verdict = match &result.verdict {
                EquivalenceVerdict::Equivalent => "equivalent",
                EquivalenceVerdict::RecursiveExceeds(_) => "recursive_exceeds",
                EquivalenceVerdict::NonrecursiveExceeds(_) => "nonrecursive_exceeds",
            };
            let mut fields = vec![
                ("equivalent", Value::Bool(result.verdict.is_equivalent())),
                ("verdict", Value::str(verdict)),
            ];
            match &result.verdict {
                EquivalenceVerdict::RecursiveExceeds(cex) => {
                    fields.push((
                        "counterexample",
                        counterexample_json(cex, options.provenance),
                    ));
                }
                EquivalenceVerdict::NonrecursiveExceeds(index) => {
                    fields.push(("violating_disjunct", Value::num(*index as f64)));
                }
                EquivalenceVerdict::Equivalent => {}
            }
            if let Some(containment) = &result.containment {
                let unfold = UnfoldStats::of(&result.unfolding);
                fields.push(("stats", stats_json(&containment.stats)));
                fields.push((
                    "unfold",
                    obj(vec![
                        ("disjuncts", Value::num(unfold.disjuncts as f64)),
                        (
                            "max_disjunct_size",
                            Value::num(unfold.max_disjunct_size as f64),
                        ),
                    ]),
                ));
            }
            Ok(obj(fields))
        }
        Command::Bounded {
            program,
            goal,
            max_depth,
            options,
        } => {
            if *max_depth > MAX_BOUNDED_DEPTH {
                return Err(WireError::bad_request(format!(
                    "max_depth {max_depth} exceeds the limit of {MAX_BOUNDED_DEPTH}"
                )));
            }
            let program = parse_program_field("program", program)?;
            let found = find_bound_with(
                &program,
                Pred::new(goal),
                *max_depth,
                decision_options(*options),
            )
            .map_err(|e| WireError::new(e.code(), e.to_string()))?;
            let mut fields = vec![
                ("bounded", Value::Bool(found.is_some())),
                ("max_depth", Value::num(*max_depth as f64)),
            ];
            match found {
                Some((bound, unfolding)) => {
                    fields.push(("bound", Value::num(bound as f64)));
                    fields.push(("disjuncts", Value::num(unfolding.len() as f64)));
                }
                None => fields.push(("bound", Value::Null)),
            }
            Ok(obj(fields))
        }
        Command::Optimize {
            program,
            goal,
            minimize_bodies,
            remove_subsumed,
            inline_nonrecursive,
            options,
        } => {
            // The optimisation passes have no uncached reference path, so
            // silently accepting `no_cache` would report cache hits from
            // the very cache the client asked to bypass.  Refuse instead.
            if !options.use_cache {
                return Err(WireError::bad_request(
                    "`no_cache` is not supported for optimize",
                ));
            }
            let program = parse_program_field("program", program)?;
            check_input_size(
                "optimize",
                "rule",
                program.atom_count(),
                program.rules().iter().map(|rule| (rule, rule.body.len())),
            )?;
            let options = OptimizeOptions {
                minimize_bodies: *minimize_bodies,
                remove_subsumed: *remove_subsumed,
                inline_nonrecursive: *inline_nonrecursive,
                ..OptimizeOptions::default()
            };
            let (optimized, report) = optimize(&program, Pred::new(goal), options);
            Ok(obj(vec![
                ("program", Value::str(optimized.to_string())),
                ("rules_before", Value::num(report.rules_before as f64)),
                ("rules_after", Value::num(report.rules_after as f64)),
                ("atoms_before", Value::num(report.atoms_before as f64)),
                ("atoms_after", Value::num(report.atoms_after as f64)),
                (
                    "containment_calls",
                    Value::num(report.containment_calls as f64),
                ),
                (
                    "containment_cache_hits",
                    Value::num(report.containment_cache_hits as f64),
                ),
                (
                    "strategy_decisions",
                    crate::metrics::block_json(&report.metrics, "strategy_decisions"),
                ),
            ]))
        }
        Command::Minimize { query, options } => {
            let ucq = parse_query_field("query", query)?;
            let atoms: usize = ucq.disjuncts.iter().map(|d| d.body.len()).sum();
            check_input_size(
                "minimize",
                "disjunct",
                atoms,
                ucq.disjuncts.iter().map(|d| (d, d.body.len())),
            )?;
            let mut oracle = MinimizeOracle::new(options.use_cache);
            let minimized = minimize_ucq_with(&ucq, &mut |a, b| oracle.contained(a, b));
            let kept: Vec<String> = minimized.disjuncts.iter().map(|q| q.to_string()).collect();
            let atoms_after: usize = minimized.disjuncts.iter().map(|q| q.body.len()).sum();
            Ok(obj(vec![
                ("query", Value::str(kept.join("\n"))),
                ("disjuncts_before", Value::num(ucq.len() as f64)),
                ("disjuncts_after", Value::num(minimized.len() as f64)),
                ("atoms_before", Value::num(atoms as f64)),
                ("atoms_after", Value::num(atoms_after as f64)),
                ("containment_calls", Value::num(oracle.calls as f64)),
                ("containment_cache_hits", Value::num(oracle.hits as f64)),
            ]))
        }
        Command::Rewrite {
            program,
            goal,
            max_depth,
            options,
        } => {
            // The rewrite is a boundedness probe plus an unfolding dump, so
            // it shares the `bounded` verb's depth cap.
            if *max_depth > MAX_BOUNDED_DEPTH {
                return Err(WireError::bad_request(format!(
                    "max_depth {max_depth} exceeds the limit of {MAX_BOUNDED_DEPTH}"
                )));
            }
            let program = parse_program_field("program", program)?;
            let rules_before = program.len();
            let rewritten = eliminate_recursion_with(
                &program,
                Pred::new(goal),
                *max_depth,
                decision_options(*options),
            )
            .map_err(|e| WireError::new(e.code(), e.to_string()))?;
            let mut fields = vec![
                ("nonrecursive", Value::Bool(rewritten.is_some())),
                ("max_depth", Value::num(*max_depth as f64)),
                ("rules_before", Value::num(rules_before as f64)),
            ];
            match rewritten {
                Some(nonrecursive) => {
                    // The unfolding introduces fresh internal variables whose
                    // names (`u#12`) the wire parser rejects; rename each
                    // rule's variables to `V1, V2, …` in first-occurrence
                    // order so the returned text round-trips through `parse`.
                    let rules = nonrecursive
                        .rules()
                        .iter()
                        .map(|rule| {
                            let mut subst = datalog::Substitution::new();
                            for (i, v) in rule.variables().into_iter().enumerate() {
                                subst.bind_var(
                                    v,
                                    datalog::Term::Var(datalog::Var::new(&format!("V{}", i + 1))),
                                );
                            }
                            rule.apply(&subst)
                        })
                        .collect();
                    let renamed = datalog::Program::new(rules);
                    fields.push(("rules_after", Value::num(renamed.len() as f64)));
                    fields.push(("program", Value::str(renamed.to_string())));
                }
                None => {
                    fields.push(("rules_after", Value::Null));
                    fields.push(("program", Value::Null));
                }
            }
            Ok(obj(fields))
        }
        // Batches are unrolled by the pool; `stats`, `metrics_text`, and
        // the admin verbs are answered on the connection thread (see
        // `crate::server` and `crate::admin`) — none of them may reach the
        // engine.
        Command::Batch { .. }
        | Command::Stats
        | Command::MetricsText
        | Command::ClearCache
        | Command::CacheLimits { .. }
        | Command::SaveCache { .. }
        | Command::LoadCache { .. } => Err(WireError::new(
            "internal",
            format!("`{}` is not executed by the engine", command.verb()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    fn run(text: &str) -> Result<Value, WireError> {
        let value = crate::json::parse(text).unwrap();
        let Request { command, .. } = parse_request(&value, false).unwrap();
        execute(&command)
    }

    const TC: &str = "p(X, Y) :- e(X, Z), p(Z, Y).\\np(X, Y) :- e(X, Y).";
    /// Nonlinear transitive closure: its proof trees branch.
    const NONLINEAR_TC: &str = "p(X, Y) :- p(X, Z), p(Z, Y).\\np(X, Y) :- e(X, Y).";

    #[test]
    fn containment_verb_agrees_with_the_library() {
        let result = run(&format!(
            r#"{{"op":"containment","program":"{TC}","goal":"p","query":"q(X, Y) :- e(X, Y)."}}"#
        ))
        .unwrap();
        assert_eq!(result.get("contained").unwrap().as_bool(), Some(false));
        let cex = result.get("counterexample").unwrap();
        assert!(!cex.get("database").unwrap().as_arr().unwrap().is_empty());
        assert!(result.get("stats").unwrap().get("path").is_none());
    }

    #[test]
    fn trace_verb_returns_structured_events() {
        // The tree search emits per-pop events; the counterexample then adds
        // a goal-directed evaluation (iteration events) plus its
        // `witness_check` verdict.
        let result = run(&format!(
            r#"{{"op":"trace","program":"{NONLINEAR_TC}","goal":"p","query":"q(X, Y) :- e(X, Y).","level":"trace","options":{{"no_cache":true}}}}"#
        ))
        .unwrap();
        assert_eq!(result.get("contained").unwrap().as_bool(), Some(false));
        assert_eq!(result.get("truncated").unwrap().as_bool(), Some(false));
        assert_eq!(result.get("dropped").unwrap().as_u64(), Some(0));
        assert_eq!(result.get("level").unwrap().as_str(), Some("trace"));
        let events = result.get("events").unwrap().as_arr().unwrap();
        let kinds: Vec<_> = events
            .iter()
            .filter_map(|e| e.get("kind").unwrap().as_str())
            .collect();
        for kind in [
            "pop",
            "containment",
            "decision",
            "strategy",
            "witness_check",
        ] {
            assert!(kinds.contains(&kind), "no `{kind}` event in {kinds:?}");
        }
        // The decision span carries the cache verdict.
        let decision = events
            .iter()
            .find(|e| e.get("kind").unwrap().as_str() == Some("decision"))
            .unwrap();
        assert!(decision.get("path").is_none());
        assert_eq!(decision.get("cache_hit").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn equivalence_verb_reports_verdicts_and_witnesses() {
        let equivalent = run(
            r#"{"op":"equivalence","program":"buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).","goal":"buys","candidate":"buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), likes(Z, Y)."}"#,
        )
        .unwrap();
        assert_eq!(equivalent.get("equivalent").unwrap().as_bool(), Some(true));
        assert_eq!(
            equivalent.get("verdict").unwrap().as_str(),
            Some("equivalent")
        );

        let exceeds = run(&format!(
            r#"{{"op":"equivalence","program":"{TC}","goal":"p","candidate":"p(X, Y) :- e(X, Y)."}}"#
        ))
        .unwrap();
        assert_eq!(
            exceeds.get("verdict").unwrap().as_str(),
            Some("recursive_exceeds")
        );
        assert!(exceeds.get("counterexample").is_some());

        let other_way = run(
            r#"{"op":"equivalence","program":"r(X, Y) :- e(X, Y).","goal":"r","candidate":"r(X, Y) :- e(X, Y).\nr(X, Y) :- e(X, Z), e(Z, Y)."}"#,
        )
        .unwrap();
        assert_eq!(
            other_way.get("verdict").unwrap().as_str(),
            Some("nonrecursive_exceeds")
        );
        assert!(other_way
            .get("violating_disjunct")
            .unwrap()
            .as_u64()
            .is_some());
    }

    #[test]
    fn bounded_verb_finds_bounds_and_their_absence() {
        let bounded = run(
            r#"{"op":"bounded","program":"buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).","goal":"buys","max_depth":4}"#,
        )
        .unwrap();
        assert_eq!(bounded.get("bounded").unwrap().as_bool(), Some(true));
        assert!(bounded.get("bound").unwrap().as_u64().unwrap() <= 4);

        let unbounded = run(&format!(
            r#"{{"op":"bounded","program":"{TC}","goal":"p","max_depth":3}}"#
        ))
        .unwrap();
        assert_eq!(unbounded.get("bounded").unwrap().as_bool(), Some(false));
        assert_eq!(unbounded.get("bound"), Some(&Value::Null));
    }

    #[test]
    fn optimize_verb_returns_a_parseable_program() {
        let result = run(
            r#"{"op":"optimize","program":"p(X) :- e(X, Y), e(X, Y).\np(X) :- e(X, Y).\nq(X) :- p(X).","goal":"q"}"#,
        )
        .unwrap();
        let text = result.get("program").unwrap().as_str().unwrap();
        let reparsed = datalog::parser::parse_program(text).unwrap();
        assert_eq!(
            reparsed.len(),
            result.get("rules_after").unwrap().as_u64().unwrap() as usize
        );
        assert!(
            result.get("rules_after").unwrap().as_u64()
                <= result.get("rules_before").unwrap().as_u64()
        );
    }

    #[test]
    fn minimize_verb_agrees_with_the_library() {
        let result =
            run(r#"{"op":"minimize","query":"q(X, Y) :- e(X, Y), e(X, Z).\nq(A, B) :- e(A, B)."}"#)
                .unwrap();
        let text = result.get("query").unwrap().as_str().unwrap();
        let served = Ucq::parse_checked(text).unwrap();
        let expected = cq::minimize::minimize_ucq(
            &Ucq::parse_checked("q(X, Y) :- e(X, Y), e(X, Z).\nq(A, B) :- e(A, B).").unwrap(),
        );
        assert_eq!(served.len(), expected.len());
        assert!(cq::containment::ucq_equivalent(&served, &expected));
        assert_eq!(result.get("disjuncts_before").unwrap().as_u64(), Some(2));
        assert_eq!(result.get("disjuncts_after").unwrap().as_u64(), Some(1));
        assert_eq!(result.get("atoms_before").unwrap().as_u64(), Some(3));
        assert_eq!(result.get("atoms_after").unwrap().as_u64(), Some(1));
        assert!(result.get("containment_calls").unwrap().as_u64().unwrap() > 0);

        // The uncached path answers identically with zero reported hits.
        let uncached = run(
            r#"{"op":"minimize","query":"q(X, Y) :- e(X, Y), e(X, Z).\nq(A, B) :- e(A, B).","options":{"no_cache":true}}"#,
        )
        .unwrap();
        assert_eq!(
            uncached.get("query").unwrap().as_str(),
            result.get("query").unwrap().as_str()
        );
        assert_eq!(
            uncached.get("containment_cache_hits").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn minimize_rejects_oversized_inputs() {
        let body = (0..=MAX_OPTIMIZE_BODY_ATOMS)
            .map(|i| format!("e(X{i}, X{})", i + 1))
            .collect::<Vec<_>>()
            .join(", ");
        let err = run(&format!(
            r#"{{"op":"minimize","query":"q(X0) :- {body}."}}"#
        ))
        .unwrap_err();
        assert_eq!(err.code, "resource_limit");
        assert!(err.message.contains("body atoms"));
    }

    #[test]
    fn rewrite_verb_eliminates_recursion_when_bounded() {
        // Example 1.1: the trendy-buys program is bounded, so the rewrite
        // returns a nonrecursive program equivalent to it.
        let result = run(
            r#"{"op":"rewrite","program":"buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).","goal":"buys","max_depth":4}"#,
        )
        .unwrap();
        assert_eq!(result.get("nonrecursive").unwrap().as_bool(), Some(true));
        let text = result.get("program").unwrap().as_str().unwrap();
        let rewritten = datalog::parser::parse_program(text).unwrap();
        assert!(rewritten.is_nonrecursive());
        assert_eq!(
            rewritten.len() as u64,
            result.get("rules_after").unwrap().as_u64().unwrap()
        );

        // Transitive closure is unbounded: no rewrite exists at any depth.
        let none = run(&format!(
            r#"{{"op":"rewrite","program":"{TC}","goal":"p","max_depth":3}}"#
        ))
        .unwrap();
        assert_eq!(none.get("nonrecursive").unwrap().as_bool(), Some(false));
        assert_eq!(none.get("program"), Some(&Value::Null));
        assert_eq!(none.get("rules_after"), Some(&Value::Null));

        // The depth cap matches the `bounded` verb's.
        let err = run(&format!(
            r#"{{"op":"rewrite","program":"p(X) :- e(X, X).","goal":"p","max_depth":{}}}"#,
            MAX_BOUNDED_DEPTH + 1
        ))
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn provenance_flag_attaches_a_structured_proof_tree() {
        let with = run(&format!(
            r#"{{"op":"containment","program":"{TC}","goal":"p","query":"q(X, Y) :- e(X, Y).","options":{{"provenance":true,"no_cache":true}}}}"#
        ))
        .unwrap();
        let cex = with.get("counterexample").unwrap();
        let tree = cex.get("provenance").unwrap();
        // The structured tree mirrors the flat rendering: same node count,
        // every node naming its goal atom and an in-range rule index.
        let rendered_nodes = cex
            .get("proof_tree")
            .unwrap()
            .as_str()
            .unwrap()
            .lines()
            .count();
        fn walk(node: &Value, count: &mut usize) {
            *count += 1;
            assert!(node.get("atom").unwrap().as_str().unwrap().contains('('));
            assert!(node.get("rule_index").unwrap().as_u64().unwrap() < 2);
            assert!(node.get("rule").unwrap().as_str().unwrap().contains(":-"));
            for child in node.get("children").unwrap().as_arr().unwrap() {
                walk(child, count);
            }
        }
        let mut nodes = 0;
        walk(tree, &mut nodes);
        assert_eq!(nodes, rendered_nodes);

        // Without the flag the counterexample carries no provenance field.
        let without = run(&format!(
            r#"{{"op":"containment","program":"{TC}","goal":"p","query":"q(X, Y) :- e(X, Y).","options":{{"no_cache":true}}}}"#
        ))
        .unwrap();
        assert!(without
            .get("counterexample")
            .unwrap()
            .get("provenance")
            .is_none());
    }

    #[test]
    fn exponential_unfoldings_are_budgeted() {
        // The paper's Example 6.6 `word_n` family unfolds to 2^n disjuncts;
        // at n = 16 that crosses the server's generation budget, which must
        // abort instead of materialising the union.
        let candidate = datalog::generate::word_program(16)
            .to_string()
            .replace('\n', "\\n");
        let err = run(&format!(
            r#"{{"op":"equivalence","program":"word16(X, Y) :- e(X, Y).","goal":"word16","candidate":"{candidate}"}}"#
        ))
        .unwrap_err();
        assert_eq!(err.code, "unfolding_too_large");

        // `bounded` depth cap.
        let err = run(&format!(
            r#"{{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":{}}}"#,
            MAX_BOUNDED_DEPTH + 1
        ))
        .unwrap_err();
        assert_eq!(err.code, "bad_request");

        // The `bounded` verb's unfold budget (TooLarge → `resource_limit`)
        // is exercised directly against the core API in
        // `nonrec_equivalence::bounded` — through the wire it would need an
        // expensive containment probe before the explosive depth.
    }

    #[test]
    fn optimize_rejects_oversized_inputs() {
        // One rule whose body exceeds the per-rule atom cap.
        let body = (0..=MAX_OPTIMIZE_BODY_ATOMS)
            .map(|i| format!("e(X{i}, X{})", i + 1))
            .collect::<Vec<_>>()
            .join(", ");
        let err = run(&format!(
            r#"{{"op":"optimize","program":"p(X0) :- {body}.","goal":"p"}}"#
        ))
        .unwrap_err();
        assert_eq!(err.code, "resource_limit");
        assert!(err.message.contains("body atoms"));

        // `no_cache` has no uncached path to offer on this verb — it must
        // be refused, not silently ignored.
        let err = run(
            r#"{"op":"optimize","program":"p(X) :- e(X, X).","goal":"p","options":{"no_cache":true}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("no_cache"));

        // Many small rules exceeding the total atom cap.
        let rules = (0..=MAX_OPTIMIZE_ATOMS / 2)
            .map(|i| format!("p(X) :- e{i}(X, Y)."))
            .collect::<Vec<_>>()
            .join("\\n");
        let err = run(&format!(
            r#"{{"op":"optimize","program":"{rules}","goal":"p"}}"#
        ))
        .unwrap_err();
        assert_eq!(err.code, "resource_limit");
        assert!(err.message.contains("atoms"));
    }

    #[test]
    fn errors_carry_the_library_codes() {
        let parse =
            run(r#"{"op":"containment","program":"p(X :-","goal":"p","query":"q(X) :- e(X)."}"#)
                .unwrap_err();
        assert_eq!(parse.code, "parse_error");
        assert!(parse.message.contains("`program`"));

        let mixed = run(&format!(
            r#"{{"op":"containment","program":"{TC}","goal":"p","query":"q(X) :- e(X, X).\nq(X, Y) :- e(X, Y)."}}"#
        ))
        .unwrap_err();
        assert_eq!(mixed.code, "mixed_arity");

        let goal = run(
            r#"{"op":"containment","program":"p(X) :- e(X, X).","goal":"nope","query":"q(X) :- e(X, X)."}"#,
        )
        .unwrap_err();
        assert_eq!(goal.code, "unknown_goal");

        let recursive = run(&format!(
            r#"{{"op":"equivalence","program":"{TC}","goal":"p","candidate":"{TC}"}}"#
        ))
        .unwrap_err();
        assert_eq!(recursive.code, "recursive_candidate");

        let limit = run(&format!(
            r#"{{"op":"containment","program":"{NONLINEAR_TC}","goal":"p","query":"q(X, Y) :- e(X, Y).","options":{{"max_pairs":1}}}}"#
        ))
        .unwrap_err();
        assert_eq!(limit.code, "resource_limit");
    }
}
