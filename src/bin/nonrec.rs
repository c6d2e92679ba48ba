//! `nonrec` — command-line front-end for the equivalence pipeline.
//!
//! Decides whether a (possibly recursive) Datalog program and a
//! nonrecursive candidate program (equivalently, a union of conjunctive
//! queries written one rule per line) compute the same goal relation on
//! every database, and prints a witness when they do not — the first step
//! of the ROADMAP's "serve the decision procedures" track.
//!
//! ```text
//! USAGE:
//!     nonrec --program <FILE> --goal <PRED> --candidate <FILE> [OPTIONS]
//!
//! OPTIONS:
//!     --stats           print decision instrumentation and cache statistics
//!     --no-cache        bypass the shared decision cache
//!     --max-pairs <N>   abort tree containment after N product pairs
//!     --trace-level <L> re-run the program ⊆ candidate direction with a
//!                       recording metrics sink and print its events:
//!                       off | counters | debug | trace (default: off)
//!
//! EXIT CODES:
//!     0  the programs are equivalent
//!     1  the programs are NOT equivalent (a witness is printed)
//!     2  usage, parse, or decision error
//! ```

use std::process::ExitCode;

use cq::Ucq;
use datalog::atom::Pred;
use datalog::parser::parse_program;
use datalog::program::Program;
use metrics::{FieldValue, MetricsLevel, RecordingSink, DEFAULT_MAX_EVENTS};
use nonrec_equivalence::cache::DecisionCache;
use nonrec_equivalence::containment::{datalog_contained_in_ucq_in, DecisionOptions};
use nonrec_equivalence::equivalence::{equivalent_to_nonrecursive_with, EquivalenceVerdict};
use nonrec_equivalence::unfold::UnfoldStats;

struct Args {
    program: String,
    goal: String,
    candidate: String,
    stats: bool,
    trace_level: MetricsLevel,
    options: DecisionOptions,
}

fn usage() -> &'static str {
    "usage: nonrec --program <FILE> --goal <PRED> --candidate <FILE> \
     [--stats] [--no-cache] [--max-pairs <N>] \
     [--trace-level <off|counters|debug|trace>]"
}

/// Why argument parsing stopped without producing an [`Args`].
enum ArgsError {
    /// `--help` was requested: print usage to stdout and exit 0.
    Help,
    /// Genuine usage error: print to stderr and exit 2.
    Bad(String),
}

impl From<&str> for ArgsError {
    fn from(message: &str) -> Self {
        ArgsError::Bad(message.to_string())
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, ArgsError> {
    let mut program = None;
    let mut goal = None;
    let mut candidate = None;
    let mut stats = false;
    let mut trace_level = MetricsLevel::Off;
    let mut options = DecisionOptions::default();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--program" => program = Some(argv.next().ok_or("--program needs a file")?),
            "--goal" => goal = Some(argv.next().ok_or("--goal needs a predicate name")?),
            "--candidate" => candidate = Some(argv.next().ok_or("--candidate needs a file")?),
            "--stats" => stats = true,
            "--no-cache" => options.use_cache = false,
            "--max-pairs" => {
                let n = argv.next().ok_or("--max-pairs needs a number")?;
                options.max_pairs = Some(
                    n.parse()
                        .map_err(|_| ArgsError::Bad(format!("invalid --max-pairs: {n}")))?,
                );
            }
            "--trace-level" => {
                let name = argv.next().ok_or("--trace-level needs a level")?;
                trace_level = MetricsLevel::parse(&name).ok_or_else(|| {
                    ArgsError::Bad(format!(
                        "invalid --trace-level: {name} (expected off, counters, debug, or trace)"
                    ))
                })?;
            }
            "--help" | "-h" => return Err(ArgsError::Help),
            other => return Err(ArgsError::Bad(format!("unknown argument: {other}"))),
        }
    }
    Ok(Args {
        program: program.ok_or("missing --program")?,
        goal: goal.ok_or("missing --goal")?,
        candidate: candidate.ok_or("missing --candidate")?,
        stats,
        trace_level,
        options,
    })
}

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(&text).map_err(|e| format!("parse error in {path}: {e}"))
}

/// Re-runs the program ⊆ candidate direction on the candidate's unfolding
/// with a recording sink at the requested level and prints the events one
/// per line — the CLI face of the server's `trace` verb.
fn print_trace(program: &Program, goal: Pred, unfolding: &Ucq, args: &Args) -> Result<(), String> {
    let mut sink = RecordingSink::new(args.trace_level, DEFAULT_MAX_EVENTS);
    datalog_contained_in_ucq_in(
        DecisionCache::global(),
        program,
        goal,
        unfolding,
        args.options,
        &mut sink,
    )
    .map_err(|e| format!("trace failed: {e}"))?;
    println!(
        "\n[trace] program \u{2286} candidate at level {}: {} events{}",
        args.trace_level.name(),
        sink.events.len(),
        if sink.truncated() {
            format!(" ({} dropped over the budget)", sink.dropped)
        } else {
            String::new()
        }
    );
    for event in &sink.events {
        print!("[trace] {}", event.kind);
        for (name, value) in &event.fields {
            match value {
                FieldValue::Num(n) => print!(" {name}={n}"),
                FieldValue::Text(s) => print!(" {name}={s}"),
                FieldValue::Flag(b) => print!(" {name}={b}"),
            }
        }
        println!();
    }
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let program = load_program(&args.program)?;
    let candidate = load_program(&args.candidate)?;
    let goal = Pred::new(&args.goal);

    let result = equivalent_to_nonrecursive_with(&program, goal, &candidate, args.options)
        .map_err(|e| format!("decision failed: {e}"))?;

    let equivalent = match &result.verdict {
        EquivalenceVerdict::Equivalent => {
            println!("EQUIVALENT: the programs agree on `{goal}` over every database.");
            true
        }
        EquivalenceVerdict::RecursiveExceeds(cex) => {
            println!(
                "NOT EQUIVALENT: `{}` derives facts the candidate misses.",
                args.program
            );
            println!("\nWitness expansion (derivable by the program, not by the candidate):");
            println!("  {}", cex.expansion);
            println!("Counterexample database:");
            for fact in cex.database.facts() {
                println!("  {fact}.");
            }
            let tuple = cex
                .goal_tuple
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", ");
            println!("On it the program derives `{goal}({tuple})`; the candidate does not.");
            println!("\nProof tree of the witness:");
            print!("{}", cex.proof_tree.render());
            false
        }
        EquivalenceVerdict::NonrecursiveExceeds(index) => {
            println!(
                "NOT EQUIVALENT: the candidate derives facts `{}` misses.",
                args.program
            );
            println!("Violating disjunct of the candidate's unfolding (index {index}):");
            println!("  {}", result.unfolding.disjuncts[*index]);
            false
        }
    };

    if args.trace_level > MetricsLevel::Off {
        print_trace(&program, goal, &result.unfolding, args)?;
    }

    if args.stats {
        if let Some(containment) = &result.containment {
            let s = &containment.stats;
            println!(
                "\n[stats] decision: ptrees {} states / {} transitions, \
                 queries {} states / {} transitions, explored {} pairs in {} µs",
                s.ptrees.states,
                s.ptrees.transitions,
                s.queries.states,
                s.queries.transitions,
                s.explored,
                s.micros
            );
            println!(
                "[stats] scheduler: {} pairs dominated, {} dead pops skipped, \
                 frontier high-water {}",
                s.pairs_dominated, s.pops_skipped_dead, s.max_frontier
            );
            let unfold = UnfoldStats::of(&result.unfolding);
            println!(
                "[stats] unfolding: {} disjuncts, max disjunct size {}",
                unfold.disjuncts, unfold.max_disjunct_size
            );
        }
        let cache = DecisionCache::global().stats();
        println!(
            "[stats] decision cache: {} hits / {} misses, {} pairs explored, {} pairs saved",
            cache.hits, cache.misses, cache.pairs_explored, cache.pairs_saved
        );
        let decisions: Vec<String> = metrics::global::snapshot()
            .values()
            .filter(|(counter, _)| counter.block == "strategy_decisions")
            .map(|(counter, value)| format!("{} {value}", counter.key))
            .collect();
        println!(
            "[stats] canonical-db decisions by strategy: {}",
            decisions.join(", ")
        );
    }

    Ok(equivalent)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(ArgsError::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(ArgsError::Bad(message)) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
