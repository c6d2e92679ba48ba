//! Leveled observability shared by the evaluation and containment engines.
//!
//! The crate is dependency-free so that every layer of the workspace —
//! `datalog`, `automata`, `core`, and `server` — can speak one vocabulary of
//! levels and events without coupling the engines to each other.
//!
//! The design has three parts:
//!
//! * [`MetricsSink`] — a trait the hot loops are generic over. Call sites
//!   guard every emission with `if sink.level() >= MetricsLevel::Debug { .. }`
//!   so the [`NoMetrics`] zero-sized sink (level [`MetricsLevel::Off`])
//!   monomorphizes to nothing: the instrumented code compiles to the same
//!   loop as before the trait existed. A bench gate holds this to account by
//!   asserting probe counts are byte-identical to the pre-trait baseline.
//! * [`RecordingSink`] — buffers structured [`Event`]s up to a `max_events`
//!   budget with an explicit truncation flag; backs the wire-level `trace`
//!   verb.
//! * [`global`] — the one process-wide counter registry. Each counter is
//!   declared once, with its `stats` block and key and, for the engine
//!   counters, its Prometheus name and help. The engines record into it
//!   through typed calls once per completed run, whatever sink is attached,
//!   so traced runs count like untraced ones. The server's `stats` verb and
//!   `metrics_text` exposition render the [`global::snapshot`] by iterating
//!   [`global::COUNTERS`].
//!
//! Level semantics, from cheapest to most verbose:
//!
//! | level | emits |
//! |---|---|
//! | `Off` | nothing |
//! | `Counters` | one summary event per evaluation / containment / decision |
//! | `Debug` | + per-iteration fixpoint events, per-predicate deltas, phase timings |
//! | `Trace` | + per-pop, per-propagate, and per-join probe-delta events |
//!
//! The registry does not depend on the level: it counts at `Off` too.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};

/// How much instrumentation an engine should emit.
///
/// Levels are totally ordered: a sink at `Debug` receives everything a
/// `Counters` sink would, plus the per-iteration detail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricsLevel {
    /// No events at all; the [`NoMetrics`] sink compiles away.
    #[default]
    Off,
    /// One summary event per run: evaluation, containment, decision.
    Counters,
    /// Per-iteration fixpoint events, per-predicate deltas, phase timings.
    Debug,
    /// Everything: per-pop, per-propagate-lookup, per-join probe deltas.
    Trace,
}

impl MetricsLevel {
    /// Every level, cheapest first.
    pub const ALL: [MetricsLevel; 4] = [
        MetricsLevel::Off,
        MetricsLevel::Counters,
        MetricsLevel::Debug,
        MetricsLevel::Trace,
    ];

    /// The wire name of the level.
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Counters => "counters",
            MetricsLevel::Debug => "debug",
            MetricsLevel::Trace => "trace",
        }
    }

    /// Parse a wire name back into a level.
    ///
    /// ```
    /// use metrics::MetricsLevel;
    /// assert_eq!(MetricsLevel::parse("debug"), Some(MetricsLevel::Debug));
    /// assert_eq!(MetricsLevel::parse("verbose"), None);
    /// ```
    pub fn parse(name: &str) -> Option<MetricsLevel> {
        MetricsLevel::ALL.iter().copied().find(|l| l.name() == name)
    }
}

/// One field of a structured [`Event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned counter or size.
    Num(u64),
    /// A short name: a predicate, a strategy, a reason.
    Text(String),
    /// A boolean outcome: admitted, cache hit, contained.
    Flag(bool),
}

/// A structured trace event: a static kind plus named fields.
///
/// Kinds are stable wire vocabulary (`"iteration"`, `"pop"`, `"decision"`, …);
/// field names are static so events allocate only for text payloads.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// The event kind; stable across releases, documented per emitter.
    pub kind: &'static str,
    /// Named field values, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Build an event from a kind and its fields.
    pub fn new(kind: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Event {
        Event { kind, fields }
    }

    /// Look up a numeric field by name.
    pub fn num(&self, name: &str) -> Option<u64> {
        self.fields.iter().find_map(|(n, v)| match v {
            FieldValue::Num(x) if *n == name => Some(*x),
            _ => None,
        })
    }

    /// Look up a text field by name.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.fields.iter().find_map(|(n, v)| match v {
            FieldValue::Text(s) if *n == name => Some(s.as_str()),
            _ => None,
        })
    }

    /// Look up a flag field by name.
    pub fn flag(&self, name: &str) -> Option<bool> {
        self.fields.iter().find_map(|(n, v)| match v {
            FieldValue::Flag(b) if *n == name => Some(*b),
            _ => None,
        })
    }
}

/// A destination for structured events.
///
/// Implementors advertise a [`MetricsLevel`]; emitters must guard each
/// emission with a level check so that low-level sinks never pay for
/// high-level detail. The idiom at every call site is:
///
/// ```ignore
/// if sink.level() >= MetricsLevel::Debug {
///     sink.emit(Event::new("iteration", vec![("index", FieldValue::Num(i))]));
/// }
/// ```
pub trait MetricsSink {
    /// The most verbose level this sink wants to receive.
    fn level(&self) -> MetricsLevel;
    /// Accept one event. Only called when the emitter's guard passed.
    fn emit(&mut self, event: Event);
}

impl<S: MetricsSink + ?Sized> MetricsSink for &mut S {
    #[inline]
    fn level(&self) -> MetricsLevel {
        (**self).level()
    }
    #[inline]
    fn emit(&mut self, event: Event) {
        (**self).emit(event);
    }
}

/// The zero-sized no-op sink: level [`MetricsLevel::Off`], discards nothing
/// because it is never offered anything. The default sink of every
/// non-traced entry point; the [`global`] registry still counts those runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMetrics;

impl MetricsSink for NoMetrics {
    #[inline(always)]
    fn level(&self) -> MetricsLevel {
        MetricsLevel::Off
    }
    #[inline(always)]
    fn emit(&mut self, _event: Event) {}
}

/// Buffers events up to a budget; backs the wire-level `trace` verb.
#[derive(Clone, Debug)]
pub struct RecordingSink {
    level: MetricsLevel,
    max_events: usize,
    /// The recorded events, in emission order, at most `max_events` of them.
    pub events: Vec<Event>,
    /// How many events arrived after the budget was exhausted.
    pub dropped: usize,
}

/// The event budget of a trace whose caller sets none: the `trace` verb's
/// `max_events` default and the `nonrec --trace-level` budget.
pub const DEFAULT_MAX_EVENTS: usize = 512;

impl RecordingSink {
    /// A sink that records at `level`, keeping at most `max_events` events.
    pub fn new(level: MetricsLevel, max_events: usize) -> RecordingSink {
        RecordingSink {
            level,
            max_events,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// True when at least one event was discarded for exceeding the budget.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

impl MetricsSink for RecordingSink {
    fn level(&self) -> MetricsLevel {
        self.level
    }
    fn emit(&mut self, event: Event) {
        if self.events.len() < self.max_events {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// The process-wide counter registry: every count the engines keep across
/// runs, declared once with where it renders.
///
/// The engines record into it through the typed `record_*` calls, once per
/// completed run and whatever sink is attached — no [`Event`] is built and
/// no string is matched. All loads and stores are `Relaxed`: the counters
/// are monotone telemetry, not synchronization.
pub mod global {
    use super::{AtomicU64, Ordering};

    /// Where one registry counter renders.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Counter {
        /// The block of the server's `stats` payload that holds the
        /// counter: `eval`, `containment` or `decision` inside `metrics`,
        /// or the top-level `strategy_decisions`.
        pub block: &'static str,
        /// The counter's key inside its block.
        pub key: &'static str,
        /// The Prometheus family name and `# HELP` text, for the counters
        /// the `metrics_text` exposition carries.
        pub exposition: Option<(&'static str, &'static str)>,
    }

    macro_rules! counters {
        (@exposition) => { None };
        (@exposition $family:literal $help:literal) => { Some(($family, $help)) };
        ($($(#[$doc:meta])* $name:ident: $block:literal . $key:literal
            $(=> $family:literal, $help:literal)?;)+) => {
            $(#[allow(non_upper_case_globals)]
            static $name: AtomicU64 = AtomicU64::new(0);)+

            /// Every registry counter, in declaration order (the order of
            /// [`MetricsSnapshot::values`] and of every rendering).
            pub const COUNTERS: &[Counter] = &[$(Counter {
                block: $block,
                key: $key,
                exposition: counters!(@exposition $($family $help)?),
            },)+];

            /// A point-in-time copy of every process-wide counter.
            #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
            pub struct MetricsSnapshot {
                $($(#[$doc])* pub $name: u64,)+
            }

            /// Read every counter at once (each individually `Relaxed`).
            pub fn snapshot() -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: $name.load(Ordering::Relaxed),)+
                }
            }

            impl MetricsSnapshot {
                /// Every counter's registry entry with its value, in the
                /// order of [`COUNTERS`].
                pub fn values(&self) -> impl Iterator<Item = (&'static Counter, u64)> {
                    COUNTERS.iter().zip([$(self.$name),+])
                }

                /// Counter-wise difference `self - earlier`, for the counts
                /// attributable to a bounded span of work. Saturates at zero.
                pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                    MetricsSnapshot {
                        $($name: self.$name.saturating_sub(earlier.$name),)+
                    }
                }
            }
        };
    }

    counters! {
        /// Datalog fixpoint runs completed.
        evals: "eval"."runs"
            => "nonrec_eval_runs_total", "Datalog fixpoint evaluations completed.";
        /// Fixpoint iterations summed over all runs.
        eval_iterations: "eval"."iterations"
            => "nonrec_eval_iterations_total", "Fixpoint iterations summed over all evaluations.";
        /// Join candidate probes summed over all runs.
        eval_probes: "eval"."probes"
            => "nonrec_eval_probes_total", "Join candidate probes summed over all evaluations.";
        /// Facts derived, summed over all runs.
        eval_facts: "eval"."derived_facts"
            => "nonrec_eval_derived_facts_total", "Facts derived, summed over all evaluations.";
        /// Tree-automata containment runs completed.
        containments: "containment"."runs"
            => "nonrec_containment_runs_total", "Tree-automata containment runs completed.";
        /// (state, subset) pairs admitted to frontiers, summed.
        containment_pairs: "containment"."pairs"
            => "nonrec_containment_pairs_total", "Product pairs admitted to containment frontiers.";
        /// Propagate-cache hits, summed.
        propagate_hits: "containment"."propagate_hits"
            => "nonrec_containment_propagate_hits_total",
               "Propagate-cache hits in the containment engines.";
        /// Propagate-cache misses, summed.
        propagate_misses: "containment"."propagate_misses"
            => "nonrec_containment_propagate_misses_total",
               "Propagate-cache misses in the containment engines.";
        /// Frontier pairs dominated away by the antichain, summed.
        pairs_dominated: "containment"."pairs_dominated"
            => "nonrec_containment_pairs_dominated_total",
               "Frontier pairs dominated away by the antichain.";
        /// Dead frontier pops skipped by the scheduler, summed.
        pops_skipped_dead: "containment"."pops_skipped_dead"
            => "nonrec_containment_pops_skipped_dead_total",
               "Dead frontier pops skipped by the scheduler.";
        /// Containment decisions completed at the `core` layer.
        decisions: "decision"."runs"
            => "nonrec_decision_runs_total", "Containment decisions completed.";
        /// Decisions answered from the `DecisionCache`.
        decision_cache_hits: "decision"."cache_hits"
            => "nonrec_decision_cache_hits_total", "Decisions answered from the shared decision cache.";
        /// Decisions computed fresh.
        decision_cache_misses: "decision"."cache_misses"
            => "nonrec_decision_cache_misses_total", "Decisions computed fresh.";
        /// Decisions routed through the word-automata fast path.
        decisions_word_path: "decision"."word_path"
            => "nonrec_decision_word_path_total",
               "Decisions routed through the word-automata fast path.";
        /// Decisions routed through the tree-automata path.
        decisions_tree_path: "decision"."tree_path"
            => "nonrec_decision_tree_path_total", "Decisions routed through the tree-automata path.";
        /// Canonical-database decisions under an explicit naive strategy.
        strategy_naive: "strategy_decisions"."naive";
        /// Canonical-database decisions under an explicit semi-naive strategy.
        strategy_semi_naive: "strategy_decisions"."semi_naive";
        /// Canonical-database decisions under an explicit indexed strategy.
        strategy_indexed: "strategy_decisions"."indexed";
        /// Canonical-database decisions under an explicit magic strategy.
        strategy_magic: "strategy_decisions"."magic";
        /// Canonical-database decisions the auto planner resolved to magic.
        strategy_auto_magic: "strategy_decisions"."auto_magic";
        /// Canonical-database decisions the auto planner resolved to indexed.
        strategy_auto_indexed: "strategy_decisions"."auto_indexed";
    }

    fn add(counter: &AtomicU64, value: usize) {
        counter.fetch_add(value as u64, Ordering::Relaxed);
    }

    /// Record one completed fixpoint run.
    pub fn record_eval(iterations: usize, probes: usize, facts: usize) {
        add(&evals, 1);
        add(&eval_iterations, iterations);
        add(&eval_probes, probes);
        add(&eval_facts, facts);
    }

    /// Record one completed tree-automata containment run.
    pub fn record_containment(
        pairs: usize,
        hits: usize,
        misses: usize,
        dominated: usize,
        skipped_dead: usize,
    ) {
        add(&containments, 1);
        add(&containment_pairs, pairs);
        add(&propagate_hits, hits);
        add(&propagate_misses, misses);
        add(&pairs_dominated, dominated);
        add(&pops_skipped_dead, skipped_dead);
    }

    /// Record one completed containment decision: answered from the cache
    /// or not, and carried by the word or the tree automata.
    pub fn record_decision(cache_hit: bool, word_path: bool) {
        add(&decisions, 1);
        add(
            if cache_hit {
                &decision_cache_hits
            } else {
                &decision_cache_misses
            },
            1,
        );
        add(
            if word_path {
                &decisions_word_path
            } else {
                &decisions_tree_path
            },
            1,
        );
    }

    /// Which strategy served a canonical-database decision; auto decisions
    /// carry what the planner resolved them to.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum StrategyDecision {
        /// An explicitly requested naive evaluation.
        Naive,
        /// An explicitly requested semi-naive evaluation.
        SemiNaive,
        /// An explicitly requested indexed evaluation.
        Indexed,
        /// An explicitly requested magic-set evaluation.
        Magic,
        /// An auto request the planner resolved to magic.
        AutoMagic,
        /// An auto request the planner resolved to indexed.
        AutoIndexed,
    }

    /// Record one canonical-database decision under its strategy.
    pub fn record_strategy_decision(decision: StrategyDecision) {
        add(
            match decision {
                StrategyDecision::Naive => &strategy_naive,
                StrategyDecision::SemiNaive => &strategy_semi_naive,
                StrategyDecision::Indexed => &strategy_indexed,
                StrategyDecision::Magic => &strategy_magic,
                StrategyDecision::AutoMagic => &strategy_auto_magic,
                StrategyDecision::AutoIndexed => &strategy_auto_indexed,
            },
            1,
        );
    }
}

pub use global::MetricsSnapshot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_round_trip_through_names() {
        assert!(MetricsLevel::Off < MetricsLevel::Counters);
        assert!(MetricsLevel::Counters < MetricsLevel::Debug);
        assert!(MetricsLevel::Debug < MetricsLevel::Trace);
        for level in MetricsLevel::ALL {
            assert_eq!(MetricsLevel::parse(level.name()), Some(level));
        }
        assert_eq!(MetricsLevel::parse("TRACE"), None);
        assert_eq!(MetricsLevel::parse(""), None);
    }

    #[test]
    fn recording_sink_respects_the_budget_and_reports_truncation() {
        let mut sink = RecordingSink::new(MetricsLevel::Trace, 2);
        for i in 0..5 {
            sink.emit(Event::new("pop", vec![("size", FieldValue::Num(i))]));
        }
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.dropped, 3);
        assert!(sink.truncated());
        assert_eq!(sink.events[1].num("size"), Some(1));
    }

    #[test]
    fn no_metrics_is_off_and_zero_sized() {
        assert_eq!(NoMetrics.level(), MetricsLevel::Off);
        assert_eq!(std::mem::size_of::<NoMetrics>(), 0);
    }

    #[test]
    fn typed_records_land_in_the_snapshot() {
        let before = global::snapshot();
        global::record_eval(3, 100, 7);
        global::record_decision(false, false);
        global::record_strategy_decision(global::StrategyDecision::AutoMagic);
        let delta = global::snapshot().since(&before);
        assert_eq!(delta.evals, 1);
        assert_eq!(delta.eval_iterations, 3);
        assert_eq!(delta.eval_probes, 100);
        assert_eq!(delta.eval_facts, 7);
        assert_eq!(delta.decisions, 1);
        assert_eq!(delta.decision_cache_misses, 1);
        assert_eq!(delta.decision_cache_hits, 0);
        assert_eq!(delta.decisions_tree_path, 1);
        assert_eq!(delta.decisions_word_path, 0);
        assert_eq!(delta.strategy_auto_magic, 1);
        assert_eq!(delta.strategy_naive, 0);
        assert_eq!(delta.strategy_semi_naive, 0);
        assert_eq!(delta.strategy_indexed, 0);
        assert_eq!(delta.strategy_magic, 0);
        assert_eq!(delta.strategy_auto_indexed, 0);
    }

    #[test]
    fn every_counter_has_one_block_and_key() {
        let mut seen = std::collections::BTreeSet::new();
        for counter in global::COUNTERS {
            assert!(
                seen.insert((counter.block, counter.key)),
                "{counter:?} declared twice"
            );
        }
        let exposed = global::COUNTERS
            .iter()
            .filter(|c| c.exposition.is_some())
            .count();
        assert_eq!(exposed, 15);
        assert_eq!(global::snapshot().values().count(), global::COUNTERS.len());
    }

    #[test]
    fn event_field_lookups_distinguish_types() {
        let event = Event::new(
            "decision",
            vec![
                ("cache_hit", FieldValue::Flag(true)),
                ("path", FieldValue::Text("word".to_string())),
                ("micros", FieldValue::Num(12)),
            ],
        );
        assert_eq!(event.flag("cache_hit"), Some(true));
        assert_eq!(event.text("path"), Some("word"));
        assert_eq!(event.num("micros"), Some(12));
        assert_eq!(event.num("path"), None);
        assert_eq!(event.flag("missing"), None);
    }
}
