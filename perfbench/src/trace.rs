//! The traced pass: the same seeded `cold_mix` and `warm_zipf` lines,
//! handled in-process by calling each layer's public functions in the order
//! the server does, with a span recorded around every call.
//!
//! Spans stay in memory and are written out when the pass ends.  A span's
//! self time is its duration minus the time its child spans cover.  Counts
//! (automaton states, product pairs, probes) are recorded at the same
//! boundaries.
//!
//! A cold request is traced twice over:
//!
//! * `request` — the server's own path: frame parse, memo probe,
//!   `engine::execute` (one opaque call, exactly as a worker runs it), and
//!   render;
//! * `decompose` — the same decision rebuilt from the layers' public
//!   functions (parse, keys, unfold, canonical check, `A_ptrees`, `A_θ`,
//!   union, search, witness), next to `core.decide`, the uncached reference
//!   call whose time the parts must add up to.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use automata::tree::containment::{
    contained_in_with, ContainmentOptions, Schedule, TreeContainment,
};
use automata::tree::ops::union as tree_union;
use automata::tree::{Tree, TreeAutomaton};
use automata::word::containment::{contained_in as word_contained_in, WordContainment};
use automata::word::Nfa;
use cq::Ucq;
use datalog::atom::Pred;
use datalog::eval::Strategy;
use datalog::parser::parse_program;
use datalog::program::Program;
use nonrec_equivalence::cache::{DecisionCache, DecisionKey, ProgramKey};
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_with, is_chain_program, DecisionOptions,
};
use nonrec_equivalence::cq_automaton::CqAutomaton;
use nonrec_equivalence::cq_in_datalog::ucq_contained_in_datalog_with;
use nonrec_equivalence::labels::ProofLabel;
use nonrec_equivalence::proof_tree::ProofTreeAnalysis;
use nonrec_equivalence::ptrees_automaton::PtreesAutomaton;
use nonrec_equivalence::unfold::{expansions_up_to_depth_limited, unfold_nonrecursive};
use server::engine::{execute, DEFAULT_MAX_PAIRS, DEFAULT_MAX_UNFOLD};
use server::json;
use server::memo::{memo_key, LineMemo, ResponseMemo};
use server::protocol::{ok_response, parse_request, Command};

use crate::check::{check_lines, expect_catalog_line, expect_family};
use crate::stats::median;
use crate::stream::{ColdRequest, Family};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer function(s) the span times, `layer.phase`.
    pub name: &'static str,
    /// Start, in nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: usize,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One count recorded at a span boundary.
#[derive(Clone, Debug)]
pub struct Count {
    /// What was counted, `layer.quantity`.
    pub name: &'static str,
    /// The request it belongs to.
    pub request: usize,
    /// The count.
    pub value: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Every count, in record order.
    pub counts: Vec<Count>,
    stack: Vec<usize>,
    request: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Attribute the following spans and counts to `request`.
    pub fn begin_request(&mut self, request: usize) {
        self.request = request;
    }

    /// Time `f` as a span named `name`, nested in the current span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record a count against the current request.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push(Count {
            name,
            request: self.request,
            value,
        });
    }

    /// Self time of every span, in microseconds: its duration minus the
    /// time its direct children cover.
    pub fn self_micros(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| {
                (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e3
            })
            .collect()
    }

    /// Per request, the summed duration (µs) of the spans named `name`.
    pub fn micros_by_request(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(span.request).or_insert(0.0) += span.micros();
        }
        out
    }

    /// Per request, the summed counts named `name`.
    pub fn counts_by_request(&self, name: &str) -> BTreeMap<usize, u64> {
        let mut out = BTreeMap::new();
        for count in self.counts.iter().filter(|c| c.name == name) {
            *out.entry(count.request).or_insert(0) += count.value;
        }
        out
    }

    /// Write every span (with its self time) and count as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_us)) in self.spans.iter().zip(self.self_micros()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_us\":{self_us:.3}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        for count in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{}\",\"request\":{},\"value\":{}}}",
                count.name, count.request, count.value
            )?;
        }
        out.flush()
    }
}

/// Reinterpret a tree automaton whose transitions have arity ≤ 1 as a word
/// automaton, as the decision layer does before its word-path search.
fn tree_to_word(automaton: &TreeAutomaton<ProofLabel>) -> Nfa<ProofLabel> {
    let mut nfa = Nfa::new(automaton.state_count() + 1);
    let accept = automaton.state_count();
    nfa.add_accepting(accept);
    for &s in automaton.initial() {
        nfa.add_initial(s);
    }
    for (state, label, tuple) in automaton.transitions() {
        match tuple.as_slice() {
            [] => nfa.add_transition(state, label.clone(), accept),
            [child] => nfa.add_transition(state, label.clone(), *child),
            _ => unreachable!("chain programs have no branching transitions"),
        }
    }
    nfa
}

/// The unary proof tree a root-to-leaf label word denotes.
fn word_to_tree(word: &[ProofLabel]) -> Tree<ProofLabel> {
    let mut labels = word.iter().rev();
    let mut tree = Tree::leaf(labels.next().expect("witness words are non-empty").clone());
    for label in labels {
        tree = Tree::node(label.clone(), vec![tree]);
    }
    tree
}

/// Materialise the counterexample of a witness proof tree.
fn witness(t: &mut Tracer, ptrees: &PtreesAutomaton, tree: &Tree<ProofLabel>) {
    t.span("core.witness", |_| {
        let expansion = ProofTreeAnalysis::new(tree).to_expansion(&ptrees.context);
        black_box(cq::canonical::canonical_database(&expansion));
    });
}

/// The decision options the server passes for a request without options.
fn server_options() -> DecisionOptions {
    DecisionOptions {
        max_pairs: Some(DEFAULT_MAX_PAIRS),
        max_unfold: DEFAULT_MAX_UNFOLD,
        ..DecisionOptions::default()
    }
}

/// The decision rebuilt from the layer functions, as `decide_uncached`
/// runs it.
fn rebuilt(
    t: &mut Tracer,
    options: &DecisionOptions,
    program: &Program,
    goal: Pred,
    ucq: &Ucq,
) -> Result<bool, String> {
    t.span("core.decision", |t| {
        let ptrees = t.span("core.ptrees", |_| PtreesAutomaton::build(program, goal));
        t.count("core.ptrees_states", ptrees.stats().states as u64);
        let mut query: TreeAutomaton<ProofLabel> = TreeAutomaton::new(0);
        let mut states = 0;
        for disjunct in &ucq.disjuncts {
            let a_theta = t.span("core.a_theta", |_| {
                CqAutomaton::build(&ptrees.context, goal, disjunct)
            });
            states += a_theta.stats().states;
            let merged = t.span("core.union", |_| tree_union(&query, &a_theta.automaton));
            let previous = std::mem::replace(&mut query, merged);
            t.span("core.free", |_| drop((previous, a_theta)));
        }
        t.count("core.a_theta_states", states as u64);
        let verdict = if options.allow_word_path && is_chain_program(program) {
            let outcome = t.span("core.word_path", |_| {
                word_contained_in(&tree_to_word(&ptrees.automaton), &tree_to_word(&query))
            });
            t.count("automata.word_explored", outcome.explored() as u64);
            match outcome {
                WordContainment::Contained { .. } => Ok(true),
                WordContainment::NotContained { witness: word, .. } => {
                    witness(t, &ptrees, &word_to_tree(&word));
                    Ok(false)
                }
            }
        } else {
            let outcome = t.span("automata.search", |_| {
                contained_in_with(
                    &ptrees.automaton,
                    &query,
                    ContainmentOptions {
                        antichain: options.antichain,
                        max_pairs: options.max_pairs,
                        schedule: Schedule::MinSubset,
                    },
                )
            });
            let stats = *outcome.stats();
            t.count("automata.pairs", stats.pairs as u64);
            t.count("automata.propagate_misses", stats.propagate_misses as u64);
            t.count("automata.max_frontier", stats.max_frontier as u64);
            match outcome {
                TreeContainment::Contained { .. } => Ok(true),
                TreeContainment::NotContained { witness: tree, .. } => {
                    witness(t, &ptrees, &tree);
                    Ok(false)
                }
                TreeContainment::Unknown { .. } => {
                    Err("tree search hit the pair limit".to_string())
                }
            }
        };
        t.span("core.free", |_| drop((ptrees, query)));
        verdict
    })
}

/// One `Π(goal) ⊆ Θ` decision rebuilt from the layer functions, then the
/// uncached reference call.  Returns the verdict, or a message when the
/// rebuilt decision and the reference disagree.
fn decision(t: &mut Tracer, program: &Program, goal: Pred, ucq: &Ucq) -> Result<bool, String> {
    let options = server_options();
    t.span("cq.key", |_| {
        black_box(DecisionKey::new(program, goal, ucq, options));
    });
    // Alternate which of the two runs first, so neither gains from the
    // other having warmed caches and the allocator.
    let reference = |t: &mut Tracer| {
        t.span("core.decide", |_| {
            datalog_contained_in_ucq_with(
                program,
                goal,
                ucq,
                DecisionOptions {
                    use_cache: false,
                    ..DecisionOptions::default()
                },
            )
        })
    };
    let (contained, reference) = if t.request.is_multiple_of(2) {
        let contained = rebuilt(t, &options, program, goal, ucq)?;
        (contained, reference(t))
    } else {
        let reference = reference(t);
        (rebuilt(t, &options, program, goal, ucq)?, reference)
    };
    match reference {
        Ok(result) if result.contained == contained => Ok(contained),
        Ok(_) => Err("the rebuilt decision disagrees with the reference".to_string()),
        Err(e) => Err(format!("reference decision failed: {e}")),
    }
}

fn parsed(text: &str) -> Result<Program, String> {
    parse_program(text).map_err(|e| e.to_string())
}

/// Rebuild one cold request from the layer functions.
fn decompose(t: &mut Tracer, command: &Command) -> Result<(), String> {
    match command {
        Command::Containment {
            program,
            goal,
            query,
            ..
        } => {
            let (program, ucq) = t.span("datalog.parse", |_| {
                (
                    parsed(program),
                    Ucq::parse_checked(query).map_err(|e| e.to_string()),
                )
            });
            decision(t, &program?, Pred::new(goal), &ucq?)?;
        }
        Command::Equivalence {
            program,
            goal,
            candidate,
            ..
        } => {
            let goal = Pred::new(goal);
            let (program, candidate) =
                t.span("datalog.parse", |_| (parsed(program), parsed(candidate)));
            let (program, candidate) = (program?, candidate?);
            let unfold = |t: &mut Tracer| -> Result<Ucq, String> {
                let unfolding = t.span("core.unfold", |_| {
                    unfold_nonrecursive(&candidate, goal, DEFAULT_MAX_UNFOLD)
                });
                let unfolding = unfolding.map_err(|e| e.to_string())?;
                t.count("core.unfold_disjuncts", unfolding.len() as u64);
                Ok(unfolding)
            };
            // The cheap direction first, as the server decides it.
            let unfolding = unfold(t)?;
            t.span("cq.key", |_| {
                black_box(ProgramKey::of(&program));
            });
            let holds = t.span("core.canonical_check", |_| {
                ucq_contained_in_datalog_with(&unfolding, &program, goal, Strategy::Auto)
            });
            if holds {
                let unfolding = unfold(t)?;
                decision(t, &program, goal, &unfolding)?;
            }
        }
        Command::Bounded {
            program,
            goal,
            max_depth,
            ..
        } => {
            let goal = Pred::new(goal);
            let program = t.span("datalog.parse", |_| parsed(program))?;
            for depth in 1..=*max_depth {
                let unfolding = t.span("core.unfold", |_| {
                    expansions_up_to_depth_limited(&program, goal, depth, DEFAULT_MAX_UNFOLD)
                });
                let unfolding = unfolding.map_err(|e| e.to_string())?;
                t.count("core.unfold_disjuncts", unfolding.len() as u64);
                if decision(t, &program, goal, &unfolding)? {
                    break;
                }
            }
        }
        other => return Err(format!("`{}` is not a cold_mix verb", other.verb())),
    }
    Ok(())
}

/// Handle one line the way a server worker does, under a `request` span.
/// Returns the rendered response and the parsed command.
fn serve_line(
    t: &mut Tracer,
    line: &str,
    memo: &ResponseMemo,
    line_memo: &LineMemo,
) -> Result<(String, Command, bool), String> {
    t.span("request", |t| {
        let recalled = t.span("server.line_memo", |_| line_memo.lookup(line));
        if recalled.is_some() {
            return Err("a unique-id line hit the line memo".to_string());
        }
        let request = t.span("server.frame", |_| {
            json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|value| parse_request(&value, true).map_err(|e| e.message))
        })?;
        let verb = request.command.verb();
        let (key, hit) = t.span("server.memo_probe", |_| {
            let key = memo_key(&request.command);
            let hit = key.as_ref().and_then(|k| memo.lookup(k));
            (key, hit)
        });
        let memo_hit = hit.is_some();
        let result = match hit {
            Some(result) => result,
            None => {
                let symbols = datalog::intern::interned_count();
                let probes = metrics::global::snapshot().eval_probes;
                let result = t.span("server.execute", |_| execute(&request.command));
                t.count(
                    "datalog.interned_symbols",
                    (datalog::intern::interned_count() - symbols) as u64,
                );
                t.count(
                    "datalog.eval_probes",
                    metrics::global::snapshot().eval_probes - probes,
                );
                let result = result.map_err(|e| format!("{}: {}", e.code, e.message))?;
                if let Some(key) = key {
                    memo.store(key, &result);
                }
                result
            }
        };
        let rendered = t.span("server.render", |_| {
            ok_response(&request.id, verb, result).render()
        });
        if memo_hit {
            t.span("server.line_memo", |_| {
                line_memo.store(line.to_string(), verb, rendered.clone())
            });
        }
        Ok((rendered, request.command, memo_hit))
    })
}

/// What the traced pass found.
pub struct TracedPass {
    /// Every span and count.
    pub tracer: Tracer,
    /// The cold requests, by request number.
    pub cold: BTreeMap<usize, Family>,
    /// Request numbers of the warm (memo-hit) requests.
    pub warm: BTreeSet<usize>,
    /// `DecisionCache` hits while the cold lines ran (must be zero).
    pub cold_cache_hits: u64,
    /// Wrong answers and disagreements, described.
    pub problems: Vec<String>,
}

/// Request numbers of warm lines start here, after the cold ones.
pub const WARM_BASE: usize = 1 << 20;

/// Run the traced pass over `cold` (request number = index) and `warm`
/// (request number = [`WARM_BASE`] + index) lines.
///
/// Every distinct warm request is executed once, untraced, before the warm
/// lines run, so each traced warm line is a response-memo hit — as on a
/// pre-warmed server.
pub fn run(cold: &[ColdRequest], warm: &[String]) -> TracedPass {
    let mut t = Tracer::default();
    let memo = ResponseMemo::new();
    let line_memo = LineMemo::new();
    let mut problems = Vec::new();
    let mut families = BTreeMap::new();

    let hits_before = DecisionCache::global().stats().hits;
    for (i, request) in cold.iter().enumerate() {
        t.begin_request(i);
        families.insert(i, request.family);
        match serve_line(&mut t, &request.line, &memo, &line_memo) {
            Ok((response, command, _)) => {
                if let Err(e) = check_lines(&request.line, &response, expect_family(request.family))
                {
                    problems.push(format!("{} c{i}: {e:?}", request.family.name()));
                }
                t.begin_request(i);
                if let Err(e) = t.span("decompose", |t| decompose(t, &command)) {
                    problems.push(format!("{} c{i}: {e}", request.family.name()));
                }
            }
            Err(e) => problems.push(format!("{} c{i}: {e}", request.family.name())),
        }
    }
    let cold_cache_hits = DecisionCache::global().stats().hits - hits_before;

    // Pre-warm: one untraced execution per distinct memo key.
    let mut warmed: HashMap<String, ()> = HashMap::new();
    let mut untraced = Tracer::default();
    for line in warm {
        let Some(key) = json::parse(line)
            .ok()
            .and_then(|v| parse_request(&v, true).ok())
            .and_then(|r| memo_key(&r.command))
        else {
            problems.push(format!("warm line is not memoisable: {line}"));
            continue;
        };
        if warmed.insert(key, ()).is_none() {
            match serve_line(&mut untraced, line, &memo, &LineMemo::new()) {
                Ok((response, _, _)) => {
                    let expect = expect_catalog_line(line).expect("catalog verbs only");
                    if let Err(e) = check_lines(line, &response, expect) {
                        problems.push(format!("warm-up: {e:?}"));
                    }
                }
                Err(e) => problems.push(format!("warm-up: {e}")),
            }
        }
    }
    let mut warm_requests = BTreeSet::new();
    for (j, line) in warm.iter().enumerate() {
        let request = WARM_BASE + j;
        t.begin_request(request);
        match serve_line(&mut t, line, &memo, &line_memo) {
            Ok((_, _, true)) => {
                warm_requests.insert(request);
            }
            Ok((_, _, false)) => problems.push(format!("warm line {j} missed the memo")),
            Err(e) => problems.push(format!("warm line {j}: {e}")),
        }
    }
    TracedPass {
        tracer: t,
        cold: families,
        warm: warm_requests,
        cold_cache_hits,
        problems,
    }
}

/// The phase-sum gate of one family: the rebuilt parts against the
/// reference decision.
#[derive(Clone, Debug)]
pub struct PhaseSum {
    /// The family.
    pub family: Family,
    /// Σ A_ptrees + A_θ + union + search (word or tree) + witness + free,
    /// in µs, summed over the family's requests.
    pub parts_us: f64,
    /// Σ `core.decide`, in µs, summed over the family's requests.
    pub decide_us: f64,
    /// Median over the family's requests of parts / decide.  Each request
    /// runs both back to back, so a preemption spike skews one ratio, not
    /// the gate.
    pub ratio: f64,
}

impl PhaseSum {
    /// |parts / decide − 1|, the quantity the 10% gate bounds.
    pub fn gap(&self) -> f64 {
        (self.ratio - 1.0).abs()
    }
}

/// The spans whose times make up a decision.
const DECISION_PARTS: [&str; 7] = [
    "core.ptrees",
    "core.a_theta",
    "core.union",
    "core.word_path",
    "automata.search",
    "core.witness",
    "core.free",
];

impl TracedPass {
    fn requests_where(&self, keep: impl Fn(Family) -> bool) -> BTreeSet<usize> {
        self.cold
            .iter()
            .filter(|(_, f)| keep(**f))
            .map(|(r, _)| *r)
            .collect()
    }

    /// Median over `requests` of the per-request summed time of `name`
    /// (requests without such a span are skipped).
    pub fn median_micros(&self, name: &str, requests: &BTreeSet<usize>) -> f64 {
        let values: Vec<f64> = self
            .tracer
            .micros_by_request(name)
            .into_iter()
            .filter(|(r, _)| requests.contains(r))
            .map(|(_, v)| v)
            .collect();
        median(&values)
    }

    /// Median over `requests` of the per-request summed count `name`.
    pub fn median_count(&self, name: &str, requests: &BTreeSet<usize>) -> f64 {
        let values: Vec<f64> = self
            .tracer
            .counts_by_request(name)
            .into_iter()
            .filter(|(r, _)| requests.contains(r))
            .map(|(_, v)| v as f64)
            .collect();
        median(&values)
    }

    /// Mean over `requests` of the per-request summed count `name`: the
    /// right aggregate for a count that accumulates, like leaked symbols.
    pub fn mean_count(&self, name: &str, requests: &BTreeSet<usize>) -> f64 {
        let counts = self.tracer.counts_by_request(name);
        let total: u64 = requests.iter().filter_map(|r| counts.get(r)).sum();
        total as f64 / requests.len().max(1) as f64
    }

    /// Per request, Σ decision parts (µs).
    fn parts_by_request(&self) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for name in DECISION_PARTS {
            for (r, us) in self.tracer.micros_by_request(name) {
                *out.entry(r).or_insert(0.0) += us;
            }
        }
        out
    }

    /// The phase-sum gate, per family.
    pub fn phase_sums(&self) -> Vec<PhaseSum> {
        let parts = self.parts_by_request();
        let decide = self.tracer.micros_by_request("core.decide");
        Family::ALL
            .iter()
            .map(|&family| {
                let requests = self.requests_where(|f| f == family);
                let pairs: Vec<(f64, f64)> = requests
                    .iter()
                    .filter_map(|r| Some((*parts.get(r)?, *decide.get(r)?)))
                    .collect();
                let ratios: Vec<f64> = pairs.iter().map(|(p, d)| p / d).collect();
                PhaseSum {
                    family,
                    parts_us: pairs.iter().map(|(p, _)| p).sum(),
                    decide_us: pairs.iter().map(|(_, d)| d).sum(),
                    ratio: median(&ratios),
                }
            })
            .collect()
    }

    /// The per-layer metrics this pass measures, as `(name, value, unit)`.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let all = self.requests_where(|_| true);
        let equivalence = self.requests_where(|f| matches!(f, Family::EquivTc | Family::EquivBuys));
        let unfolding = self
            .requests_where(|f| matches!(f, Family::EquivTc | Family::EquivBuys | Family::Bounded));
        let tree = self.requests_where(Family::nonlinear);
        let word = self.requests_where(|f| !f.nonlinear());
        let with_witness: BTreeSet<usize> = self
            .tracer
            .micros_by_request("core.witness")
            .into_keys()
            .filter(|r| all.contains(r))
            .collect();
        let parts = self.parts_by_request();
        let residual: Vec<f64> = self
            .tracer
            .micros_by_request("core.decide")
            .into_iter()
            .filter(|(r, _)| all.contains(r))
            .map(|(r, decide)| decide - parts.get(&r).copied().unwrap_or(0.0))
            .collect();
        let gap = self
            .phase_sums()
            .iter()
            .map(PhaseSum::gap)
            .fold(0.0, f64::max);
        vec![
            (
                "datalog.parse_us",
                self.median_micros("datalog.parse", &all),
                "us",
            ),
            (
                "datalog.interned_symbols_per_req",
                self.mean_count("datalog.interned_symbols", &all),
                "count",
            ),
            (
                "datalog.eval_probes",
                self.median_count("datalog.eval_probes", &equivalence),
                "count",
            ),
            ("cq.key_us", self.median_micros("cq.key", &all), "us"),
            (
                "core.ptrees_us",
                self.median_micros("core.ptrees", &all),
                "us",
            ),
            (
                "core.ptrees_states",
                self.median_count("core.ptrees_states", &all),
                "count",
            ),
            (
                "core.a_theta_us",
                self.median_micros("core.a_theta", &all),
                "us",
            ),
            (
                "core.a_theta_states",
                self.median_count("core.a_theta_states", &all),
                "count",
            ),
            (
                "core.union_us",
                self.median_micros("core.union", &all),
                "us",
            ),
            (
                "core.unfold_us",
                self.median_micros("core.unfold", &unfolding),
                "us",
            ),
            (
                "core.unfold_disjuncts",
                self.median_count("core.unfold_disjuncts", &unfolding),
                "count",
            ),
            (
                "core.canonical_check_us",
                self.median_micros("core.canonical_check", &equivalence),
                "us",
            ),
            (
                "core.decide_us",
                self.median_micros("core.decide", &all),
                "us",
            ),
            (
                "core.word_path_us",
                self.median_micros("core.word_path", &word),
                "us",
            ),
            (
                "core.witness_us",
                self.median_micros("core.witness", &with_witness),
                "us",
            ),
            ("core.free_us", self.median_micros("core.free", &all), "us"),
            ("core.residual_us", median(&residual), "us"),
            ("core.phase_sum_gap", gap, "ratio"),
            (
                "automata.search_us",
                self.median_micros("automata.search", &tree),
                "us",
            ),
            (
                "automata.pairs",
                self.median_count("automata.pairs", &tree),
                "count",
            ),
            (
                "automata.propagate_misses",
                self.median_count("automata.propagate_misses", &tree),
                "count",
            ),
            (
                "automata.max_frontier",
                self.median_count("automata.max_frontier", &tree),
                "count",
            ),
            (
                "automata.word_explored",
                self.median_count("automata.word_explored", &word),
                "count",
            ),
            (
                "server.execute_us",
                self.median_micros("server.execute", &all),
                "us",
            ),
            (
                "server.frame_us",
                self.median_micros("server.frame", &self.warm),
                "us",
            ),
            (
                "server.memo_probe_us",
                self.median_micros("server.memo_probe", &self.warm),
                "us",
            ),
            (
                "server.render_us",
                self.median_micros("server.render", &self.warm),
                "us",
            ),
            (
                "server.line_memo_us",
                self.median_micros("server.line_memo", &self.warm),
                "us",
            ),
        ]
    }
}
