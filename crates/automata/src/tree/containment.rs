//! Containment of tree-automata languages (Proposition 4.6), with witness
//! extraction.
//!
//! `T(A1) ⊆ T(A2)` iff `T(A1) ∩ complement(T(A2))` is empty.  The
//! materialised route (determinize `A2`, complement, product, emptiness) is
//! available in [`contained_in_via_complement`] and is used for
//! cross-checking and for the ablation bench, but the primary algorithm is
//! an **on-the-fly bottom-up subset construction**:
//!
//! explore pairs `(s, S)` where `s` is an `A1` state and
//! `S = { q ∈ states(A2) | the same witness subtree admits a run from q }`.
//! A pair is derivable if some transition `(c1, …, ck) ∈ δ1(s, a)` has all
//! its children derivable with subset annotations `S1, …, Sk`, and then
//! `S = { q | ∃ (q1, …, qk) ∈ δ2(q, a), qi ∈ Si }`.  A derivable pair with
//! `s` initial in `A1` and `S` containing no initial state of `A2`
//! corresponds to a tree accepted by `A1` and rejected by `A2`.
//!
//! The engine ([`contained_in_with`], or [`contained_in_with_sink`] to
//! observe it) is **interned, memoised, and worklist-driven**:
//!
//! * subsets `S` are interned into a [`SubsetArena`], so pairs carry compact
//!   `Copy` ids and subset equality is id equality;
//! * the `propagate` step is memoised by `(label, child subset ids)` —
//!   distinct derivations that combine the same child subsets under the same
//!   label cost one lookup instead of a rescan of `δ2`;
//! * saturation is driven by a worklist of newly derived pairs: a
//!   transition's combinations are only re-enumerated when one of its child
//!   states actually gained a pair, instead of re-enumerating every
//!   combination each round;
//! * derived pairs store compact derivation pointers (transition index +
//!   child entry keys) instead of cloning a witness `Tree` per combination;
//!   the witness is reconstructed only when a counterexample is reported.
//!
//! The plain-rounds engine is kept as [`Schedule::Rounds`]: it is the
//! uncached reference oracle the differential tests lock the worklist
//! engine against, exactly as `Strategy::Naive` anchors the indexed
//! evaluation engine.
//!
//! The optional **antichain optimisation** keeps, for each `s`, only the
//! ⊆-minimal subsets `S`: the subset computation is monotone, so smaller
//! subsets derive smaller subsets and dominate larger ones both for
//! violation detection and for propagation.  This is the standard antichain
//! technique for automata inclusion and is one of the ablations called out
//! in DESIGN.md.
//!
//! **Scheduling** decides how much the antichain actually prunes.  Draining
//! the worklist first-in-first-out derives transient dominated pairs that a
//! ⊆-minimal pair discovered later retroactively kills — work the rounds
//! engine's level order never does.  The worklist ([`Schedule::MinSubset`])
//! therefore holds *candidate* pairs in
//! a priority frontier ordered by subset size (smallest first, state id
//! then arrival order as deterministic tie-breaks) and admits a candidate
//! into the antichain only when it is popped: by then every ⊆-smaller
//! subset has already been established, so a dominated candidate is
//! discarded at the pop ([`EngineStats::pops_skipped_dead`]) instead of
//! being expanded.  This is the antichain-checking insight of De Wulf /
//! Doyen / Henzinger / Raskin: establish minimal elements first and the
//! dominated ones are never explored at all.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::time::Instant;

use metrics::{Event, FieldValue, MetricsLevel, MetricsSink, NoMetrics};

use super::emptiness::is_empty;
use super::ops::{complement, intersection, BottomUpDeterministic};
use super::subset::{SubsetArena, SubsetId};
use super::{State, Tree, TreeAutomaton};

/// How the search orders the pairs it has derived but not yet expanded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Plain rounds: re-enumerate every combination each round, recompute
    /// `propagate` per combination, and clone a witness tree per derived
    /// pair.  The uncached reference oracle; it emits no `pop` or
    /// `propagate` events, reports every combination as a propagate miss,
    /// and interns no subsets.
    Rounds,
    /// Priority frontier ordered by subset size — smallest `A2`-subsets
    /// first, state id then arrival order as tie-breaks.  Candidates join
    /// the antichain only at pop time, after every ⊆-smaller subset has
    /// been established, so dominated pairs are skipped instead of
    /// expanded.  The default.
    #[default]
    MinSubset,
}

/// Options for the containment check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainmentOptions {
    /// Keep only ⊆-minimal right-hand subsets per left state.
    pub antichain: bool,
    /// Safety valve: abort (conservatively reporting `Unknown`) after this
    /// many derived pairs.  `None` = no limit.
    pub max_pairs: Option<usize>,
    /// Worklist order; see [`Schedule`].
    pub schedule: Schedule,
}

impl Default for ContainmentOptions {
    fn default() -> Self {
        ContainmentOptions {
            antichain: true,
            max_pairs: None,
            schedule: Schedule::MinSubset,
        }
    }
}

/// Instrumentation of a containment run.
///
/// `pairs` is the effective product size (the old bare `explored` count);
/// the remaining counters expose how much work the interned/memoised engine
/// actually did versus saved.  The rounds reference engine fills `pairs` and
/// `combinations` and reports every combination as a propagate miss (it has
/// no cache and no arena).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of `(state, subset)` pairs derived (inserted).
    pub pairs: usize,
    /// Number of child-subset combinations evaluated (propagate requests).
    pub combinations: usize,
    /// Propagate-memo hits: combinations answered without rescanning `δ2`.
    pub propagate_hits: usize,
    /// Propagate-memo misses: combinations that had to compute the subset.
    pub propagate_misses: usize,
    /// Number of distinct subsets interned in the arena.
    pub subsets_interned: usize,
    /// Antichain kills: previously admitted pairs retired because a later
    /// ⊆-smaller subset dominated them.  Under the min-subset schedule this
    /// stays at (or near) zero — dominators are established first.
    pub pairs_dominated: usize,
    /// Frontier pops discarded at pop time: candidates that became
    /// dominated (or duplicate) between push and pop.
    pub pops_skipped_dead: usize,
    /// High-water mark of the pending worklist / priority frontier.
    pub max_frontier: usize,
}

/// The outcome of a tree-language containment check.
#[derive(Clone, Debug)]
pub enum TreeContainment<L> {
    /// `T(A1) ⊆ T(A2)`.
    Contained {
        /// Engine instrumentation.
        stats: EngineStats,
    },
    /// Not contained, with a witness tree in `T(A1) \ T(A2)`.
    NotContained {
        /// A tree accepted by `A1` and rejected by `A2`.
        witness: Tree<L>,
        /// Engine instrumentation.
        stats: EngineStats,
    },
    /// The pair limit was reached before an answer was found.
    Unknown {
        /// Engine instrumentation up to the point of giving up.
        stats: EngineStats,
    },
}

impl<L> TreeContainment<L> {
    /// Is the answer "contained"?
    pub fn is_contained(&self) -> bool {
        matches!(self, TreeContainment::Contained { .. })
    }

    /// Is the answer "not contained"?
    pub fn is_not_contained(&self) -> bool {
        matches!(self, TreeContainment::NotContained { .. })
    }

    /// Engine instrumentation for the run.
    pub fn stats(&self) -> &EngineStats {
        match self {
            TreeContainment::Contained { stats }
            | TreeContainment::NotContained { stats, .. }
            | TreeContainment::Unknown { stats } => stats,
        }
    }

    /// Number of explored pairs (the effective product size).
    pub fn explored(&self) -> usize {
        self.stats().pairs
    }

    /// The witness tree, if the answer is "not contained".
    pub fn witness(&self) -> Option<&Tree<L>> {
        match self {
            TreeContainment::NotContained { witness, .. } => Some(witness),
            _ => None,
        }
    }
}

/// A derived pair: the interned `A2` subset, a liveness flag (antichain
/// domination marks entries dead instead of removing them, so entry indices
/// stay stable for derivation pointers), and the derivation that produced
/// the pair — the `A1` transition index plus the child entry keys.
struct Entry {
    subset: SubsetId,
    alive: bool,
    derivation: (usize, Vec<(State, usize)>),
}

/// A pair awaiting admission under the min-subset schedule: the propagated
/// subset plus the derivation that produced it.  Ordered by `(subset size,
/// state, arrival)`, so the frontier pops the smallest subset first and
/// ties resolve deterministically.
struct Candidate {
    size: usize,
    state: State,
    seq: usize,
    subset: SubsetId,
    derivation: (usize, Vec<(State, usize)>),
}

impl Candidate {
    fn key(&self) -> (usize, State, usize) {
        (self.size, self.state, self.seq)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Mutable state of the worklist engine, bundled so the helper methods can
/// split-borrow its fields.
struct Engine<'b, L: Ord> {
    arena: SubsetArena,
    /// `label id → child subset ids → propagated subset id`.  Nested so the
    /// hot hit path can look up by borrowed slice without allocating a key.
    propagate_cache: HashMap<u32, HashMap<Vec<SubsetId>, SubsetId>>,
    /// Derived pairs per `A1` state.  Append-only: dominated entries are
    /// marked dead but stay put, because derivation pointers and queued
    /// worklist keys reference them by index.
    entries: Vec<Vec<Entry>>,
    /// Per-state indices of the *live* entries, sorted by (subset size,
    /// entry index).  Dominance probes and combination enumeration walk
    /// this list, so dead entries cost nothing after their kill — the
    /// previous engine rescanned every dead entry on every insert.
    live: Vec<Vec<usize>>,
    stats: EngineStats,
    /// `A2` transitions indexed by label.
    b_by_label: BTreeMap<&'b L, Vec<(State, &'b Vec<State>)>>,
}

impl<'b, L: Ord + Clone> Engine<'b, L> {
    /// Compute (or recall) the `A2` subset reached on `label` from the child
    /// subsets.
    fn propagate(&mut self, label_id: u32, label: &L, child_ids: &[SubsetId]) -> SubsetId {
        self.stats.combinations += 1;
        if let Some(&id) = self
            .propagate_cache
            .get(&label_id)
            .and_then(|by_children| by_children.get(child_ids))
        {
            self.stats.propagate_hits += 1;
            return id;
        }
        self.stats.propagate_misses += 1;
        let mut out = BTreeSet::new();
        if let Some(entries) = self.b_by_label.get(label) {
            for (q, tuple) in entries {
                if tuple.len() == child_ids.len()
                    && tuple
                        .iter()
                        .zip(child_ids)
                        .all(|(c, &subset)| self.arena.contains(subset, *c))
                {
                    out.insert(*q);
                }
            }
        }
        let id = self.arena.intern(out);
        self.propagate_cache
            .entry(label_id)
            .or_default()
            .insert(child_ids.to_vec(), id);
        id
    }

    /// Insert a pair, honouring the antichain option.  Returns the index of
    /// the new entry, or `None` when the pair is a duplicate or dominated.
    /// Killed entries leave the live index immediately (and count as
    /// `pairs_dominated`); only their slots survive, for the derivation
    /// pointers that may still reference them.
    fn insert(
        &mut self,
        state: State,
        subset: SubsetId,
        derivation: (usize, Vec<(State, usize)>),
        antichain: bool,
    ) -> Option<usize> {
        let size = self.arena.size(subset);
        if antichain {
            let mut kills: Vec<usize> = Vec::new();
            let arena = &self.arena;
            let entries = &self.entries[state];
            for (pos, &i) in self.live[state].iter().enumerate() {
                let existing = entries[i].subset;
                // The live list is size-sorted: entries no larger than the
                // candidate can only dominate it, strictly larger ones can
                // only be dominated by it.
                if arena.size(existing) <= size {
                    if arena.is_subset(existing, subset) {
                        return None; // dominated by an existing smaller subset
                    }
                } else if arena.is_subset(subset, existing) {
                    kills.push(pos);
                }
            }
            for &pos in kills.iter().rev() {
                let i = self.live[state].remove(pos);
                self.entries[state][i].alive = false;
                self.stats.pairs_dominated += 1;
            }
        } else {
            let entries = &self.entries[state];
            if self.live[state]
                .iter()
                .any(|&i| entries[i].subset == subset)
            {
                return None;
            }
        }
        let index = self.entries[state].len();
        self.entries[state].push(Entry {
            subset,
            alive: true,
            derivation,
        });
        let at = {
            let arena = &self.arena;
            let entries = &self.entries[state];
            self.live[state].partition_point(|&i| arena.size(entries[i].subset) <= size)
        };
        self.live[state].insert(at, index);
        Some(index)
    }

    /// Would [`Engine::insert`] reject this pair right now?  The push-side
    /// pre-filter of the min-subset schedule: candidates already dominated
    /// (or, without the antichain, already present) never enter the
    /// frontier.  Pop-side re-checks still happen — the frontier can hold
    /// candidates that were viable at push time and were covered since.
    fn already_covered(&self, state: State, subset: SubsetId, antichain: bool) -> bool {
        let arena = &self.arena;
        let entries = &self.entries[state];
        if antichain {
            let size = arena.size(subset);
            self.live[state]
                .iter()
                .take_while(|&&i| arena.size(entries[i].subset) <= size)
                .any(|&i| arena.is_subset(entries[i].subset, subset))
        } else {
            self.live[state]
                .iter()
                .any(|&i| entries[i].subset == subset)
        }
    }

    /// Rebuild the witness tree of an entry from its derivation pointers.
    fn reconstruct(
        &self,
        key: (State, usize),
        a_transitions: &[(State, &L, &Vec<State>)],
    ) -> Tree<L> {
        let entry = &self.entries[key.0][key.1];
        let (transition, children) = &entry.derivation;
        Tree::node(
            a_transitions[*transition].1.clone(),
            children
                .iter()
                .map(|&child| self.reconstruct(child, a_transitions))
                .collect(),
        )
    }

    /// Does the subset witness a violation (no initial `A2` state)?
    fn violates(&self, subset: SubsetId, b_initial: &BTreeSet<State>) -> bool {
        !self.arena.get(subset).iter().any(|q| b_initial.contains(q))
    }
}

/// Decide whether `T(a) ⊆ T(b)`, searching per `options.schedule` (the
/// min-subset worklist by default; see [`Schedule`]).
///
/// ```
/// use automata::tree::containment::{contained_in_with, ContainmentOptions};
/// use automata::tree::TreeAutomaton;
///
/// // All binary 'a'-trees over 'b' leaves, versus those of height ≤ 2.
/// let mut all = TreeAutomaton::new(1);
/// all.add_initial(0);
/// all.add_transition(0, 'a', vec![0, 0]);
/// all.add_transition(0, 'b', vec![]);
/// let mut bounded = TreeAutomaton::new(2);
/// bounded.add_initial(1);
/// bounded.add_transition(0, 'b', vec![]);
/// bounded.add_transition(1, 'b', vec![]);
/// bounded.add_transition(1, 'a', vec![0, 0]);
///
/// let r = contained_in_with(&bounded, &all, ContainmentOptions::default());
/// assert!(r.is_contained());
/// let r = contained_in_with(&all, &bounded, ContainmentOptions::default());
/// assert!(r.is_not_contained());
/// assert!(r.witness().unwrap().height() > 2);
/// ```
pub fn contained_in_with<L: Ord + Clone>(
    a: &TreeAutomaton<L>,
    b: &TreeAutomaton<L>,
    options: ContainmentOptions,
) -> TreeContainment<L> {
    contained_in_with_sink(a, b, options, &mut NoMetrics)
}

/// [`contained_in_with`], emitting structured events into `sink`.
///
/// Whatever the sink, every completed run is recorded in the
/// [`metrics::global`] registry.  At [`MetricsLevel::Counters`] one
/// `containment` summary event (the [`EngineStats`] counters plus the
/// verdict) is emitted per run;
/// [`MetricsLevel::Debug`] adds `phase` timings for preparation and
/// saturation; [`MetricsLevel::Trace`] adds one `pop` event per worklist pop
/// (subset size, antichain admission, dominated kills, and the `next_size`
/// still queued) and one `propagate`
/// event per combination (memo hit/miss, resulting subset size).  Every
/// emission is level-guarded, so a [`metrics::NoMetrics`] sink monomorphizes
/// to the uninstrumented engine.
pub fn contained_in_with_sink<L: Ord + Clone, S: MetricsSink>(
    a: &TreeAutomaton<L>,
    b: &TreeAutomaton<L>,
    options: ContainmentOptions,
    sink: &mut S,
) -> TreeContainment<L> {
    let phase_start = (sink.level() >= MetricsLevel::Debug).then(Instant::now);
    let result = match options.schedule {
        Schedule::Rounds => contained_in_by_rounds(a, b, options),
        Schedule::MinSubset => contained_in_scheduled(a, b, options, sink),
    };
    if let Some(start) = phase_start {
        emit_phase(sink, "total", start);
    }
    let stats = result.stats();
    metrics::global::record_containment(
        stats.pairs,
        stats.propagate_hits,
        stats.propagate_misses,
        stats.pairs_dominated,
        stats.pops_skipped_dead,
    );
    if sink.level() >= MetricsLevel::Counters {
        sink.emit(Event::new(
            "containment",
            vec![
                ("contained", FieldValue::Flag(result.is_contained())),
                ("pairs", FieldValue::Num(stats.pairs as u64)),
                ("combinations", FieldValue::Num(stats.combinations as u64)),
                (
                    "propagate_hits",
                    FieldValue::Num(stats.propagate_hits as u64),
                ),
                (
                    "propagate_misses",
                    FieldValue::Num(stats.propagate_misses as u64),
                ),
                (
                    "subsets_interned",
                    FieldValue::Num(stats.subsets_interned as u64),
                ),
                (
                    "pairs_dominated",
                    FieldValue::Num(stats.pairs_dominated as u64),
                ),
                (
                    "pops_skipped_dead",
                    FieldValue::Num(stats.pops_skipped_dead as u64),
                ),
                ("max_frontier", FieldValue::Num(stats.max_frontier as u64)),
            ],
        ));
    }
    result
}

/// Emit a Debug-level `phase` timing event.  Callers guard the `Instant`
/// capture behind the level check, so `Off` runs never read the clock.
fn emit_phase<S: MetricsSink>(sink: &mut S, name: &'static str, start: Instant) {
    sink.emit(Event::new(
        "phase",
        vec![
            ("name", FieldValue::Text(name.to_string())),
            (
                "micros",
                FieldValue::Num(start.elapsed().as_micros() as u64),
            ),
        ],
    ));
}

/// Emit a Trace-level `propagate` event for one combination.  The hit/miss
/// outcome is recovered from the stats delta so the hot `Engine::propagate`
/// path stays sink-free.
fn emit_propagate<L: Ord, S: MetricsSink>(
    sink: &mut S,
    engine: &Engine<'_, L>,
    hits_before: usize,
    subset: SubsetId,
) {
    sink.emit(Event::new(
        "propagate",
        vec![
            (
                "hit",
                FieldValue::Flag(engine.stats.propagate_hits > hits_before),
            ),
            (
                "subset_size",
                FieldValue::Num(engine.arena.size(subset) as u64),
            ),
        ],
    ));
}

/// The min-subset schedule: derivations are *offered* to a priority
/// frontier and only admitted into the antichain when popped, by which
/// point every ⊆-smaller subset has been established — dominated pairs are
/// discarded at the pop instead of being counted and expanded.  On the
/// `nested` bench family this restores exact pair parity with the rounds
/// engine's level order.
fn contained_in_scheduled<L: Ord + Clone, S: MetricsSink>(
    a: &TreeAutomaton<L>,
    b: &TreeAutomaton<L>,
    options: ContainmentOptions,
    sink: &mut S,
) -> TreeContainment<L> {
    let phase_start = (sink.level() >= MetricsLevel::Debug).then(Instant::now);
    let a_transitions: Vec<(State, &L, &Vec<State>)> = a.transitions().collect();
    let mut b_by_label: BTreeMap<&L, Vec<(State, &Vec<State>)>> = BTreeMap::new();
    for (q, label, tuple) in b.transitions() {
        b_by_label.entry(label).or_default().push((q, tuple));
    }

    // Dense per-transition label ids: the propagate memo keys on these
    // instead of on `L` (which is only `Ord`, not `Hash`).
    let mut label_ids: BTreeMap<&L, u32> = BTreeMap::new();
    let trans_label: Vec<u32> = a_transitions
        .iter()
        .map(|&(_, label, _)| {
            let next = u32::try_from(label_ids.len()).expect("label id overflow");
            *label_ids.entry(label).or_insert(next)
        })
        .collect();

    // occurrences[c] = the (transition, child position) slots state c fills.
    let mut occurrences: Vec<Vec<(usize, usize)>> = vec![Vec::new(); a.state_count()];
    for (t, &(_, _, tuple)) in a_transitions.iter().enumerate() {
        for (pos, &child) in tuple.iter().enumerate() {
            occurrences[child].push((t, pos));
        }
    }

    let mut engine: Engine<'_, L> = Engine {
        arena: SubsetArena::new(),
        propagate_cache: HashMap::new(),
        entries: (0..a.state_count()).map(|_| Vec::new()).collect(),
        live: (0..a.state_count()).map(|_| Vec::new()).collect(),
        stats: EngineStats::default(),
        b_by_label,
    };
    if let Some(start) = phase_start {
        emit_phase(sink, "prepare", start);
    }
    let a_initial = a.initial();
    let b_initial = b.initial();
    let mut frontier: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
    let mut seq = 0usize;

    // Push a candidate unless the antichain already covers it.  Admission —
    // and with it the pair count, the violation check, and the pair limit —
    // happens at pop time.
    macro_rules! offer {
        ($state:expr, $subset:expr, $derivation:expr) => {{
            if !engine.already_covered($state, $subset, options.antichain) {
                frontier.push(Reverse(Candidate {
                    size: engine.arena.size($subset),
                    state: $state,
                    seq,
                    subset: $subset,
                    derivation: $derivation,
                }));
                seq += 1;
                engine.stats.max_frontier = engine.stats.max_frontier.max(frontier.len());
            }
        }};
    }

    // Seed: leaf transitions derive their candidates unconditionally.
    for (t, &(s, label, tuple)) in a_transitions.iter().enumerate() {
        if !tuple.is_empty() {
            continue;
        }
        let hits_before = engine.stats.propagate_hits;
        let subset = engine.propagate(trans_label[t], label, &[]);
        if sink.level() >= MetricsLevel::Trace {
            emit_propagate(sink, &engine, hits_before, subset);
        }
        offer!(s, subset, (t, Vec::new()));
    }

    while let Some(Reverse(candidate)) = frontier.pop() {
        let Candidate {
            size,
            state,
            subset,
            derivation,
            ..
        } = candidate;
        let dominated_before = engine.stats.pairs_dominated;
        let admitted = engine.insert(state, subset, derivation, options.antichain);
        if sink.level() >= MetricsLevel::Trace {
            let mut fields = vec![
                ("size", FieldValue::Num(size as u64)),
                ("admitted", FieldValue::Flag(admitted.is_some())),
                (
                    "dominated_killed",
                    FieldValue::Num((engine.stats.pairs_dominated - dominated_before) as u64),
                ),
            ];
            // The scheduling invariant — a pop is always a minimum of the
            // frontier — is observable as `size <= next_size` on every pop;
            // popped sizes as a *sequence* are not monotone, because
            // propagation is contracting and pushes smaller subsets behind
            // larger queued ones.
            if let Some(Reverse(next)) = frontier.peek() {
                fields.push(("next_size", FieldValue::Num(next.size as u64)));
            }
            sink.emit(Event::new("pop", fields));
        }
        let Some(index) = admitted else {
            engine.stats.pops_skipped_dead += 1;
            continue; // covered since it was pushed
        };
        engine.stats.pairs += 1;
        if a_initial.contains(&state) && engine.violates(subset, b_initial) {
            let witness = engine.reconstruct((state, index), &a_transitions);
            engine.stats.subsets_interned = engine.arena.len();
            return TreeContainment::NotContained {
                witness,
                stats: engine.stats,
            };
        }
        if let Some(limit) = options.max_pairs {
            if engine.stats.pairs >= limit {
                engine.stats.subsets_interned = engine.arena.len();
                return TreeContainment::Unknown {
                    stats: engine.stats,
                };
            }
        }
        // Expand: combinations of transitions in which `state` occurs, the
        // fresh entry pinned to the occurrence and the other positions
        // ranging over the live entries of their states.
        for &(t, pin) in &occurrences[state] {
            let (s, label, tuple) = a_transitions[t];
            let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(tuple.len());
            let mut feasible = true;
            for (j, &child_state) in tuple.iter().enumerate() {
                if j == pin {
                    candidates.push(vec![index]);
                    continue;
                }
                if engine.live[child_state].is_empty() {
                    feasible = false;
                    break;
                }
                candidates.push(engine.live[child_state].clone());
            }
            if !feasible {
                continue;
            }
            let mut combo = vec![0usize; tuple.len()];
            loop {
                let child_ids: Vec<SubsetId> = combo
                    .iter()
                    .zip(&candidates)
                    .zip(tuple)
                    .map(|((&i, slot), &child_state)| engine.entries[child_state][slot[i]].subset)
                    .collect();
                let hits_before = engine.stats.propagate_hits;
                let subset = engine.propagate(trans_label[t], label, &child_ids);
                if sink.level() >= MetricsLevel::Trace {
                    emit_propagate(sink, &engine, hits_before, subset);
                }
                let derivation = (
                    t,
                    combo
                        .iter()
                        .zip(&candidates)
                        .zip(tuple)
                        .map(|((&i, slot), &child_state)| (child_state, slot[i]))
                        .collect(),
                );
                offer!(s, subset, derivation);
                // Odometer over candidate indices.
                let mut carry = true;
                for (slot, cands) in combo.iter_mut().zip(&candidates) {
                    if carry {
                        *slot += 1;
                        if *slot == cands.len() {
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
    }

    engine.stats.subsets_interned = engine.arena.len();
    TreeContainment::Contained {
        stats: engine.stats,
    }
}

/// The plain-rounds reference engine ([`Schedule::Rounds`]).
fn contained_in_by_rounds<L: Ord + Clone>(
    a: &TreeAutomaton<L>,
    b: &TreeAutomaton<L>,
    options: ContainmentOptions,
) -> TreeContainment<L> {
    // Derived pairs, with the witness tree that produced them.
    // For each A1 state keep the list of derived (subset, witness) entries.
    type Derived<L> = BTreeMap<State, Vec<(BTreeSet<State>, Tree<L>)>>;
    let mut derived: Derived<L> = BTreeMap::new();
    let mut stats = EngineStats::default();

    // Group A1 transitions by state for the saturation loop, and index A2
    // transitions by label for subset propagation.
    let a_transitions: Vec<(State, &L, &Vec<State>)> = a.transitions().collect();
    let mut b_by_label: BTreeMap<&L, Vec<(State, &Vec<State>)>> = BTreeMap::new();
    for (q, label, tuple) in b.transitions() {
        b_by_label.entry(label).or_default().push((q, tuple));
    }

    // Compute the A2-subset reached on label `label` from child subsets.
    let propagate = |label: &L, child_subsets: &[&BTreeSet<State>]| -> BTreeSet<State> {
        let mut out = BTreeSet::new();
        if let Some(entries) = b_by_label.get(label) {
            for (q, tuple) in entries {
                if tuple.len() == child_subsets.len()
                    && tuple
                        .iter()
                        .zip(child_subsets)
                        .all(|(c, subset)| subset.contains(c))
                {
                    out.insert(*q);
                }
            }
        }
        out
    };

    // Insert a pair, honouring the antichain option.  Returns true if the
    // pair was actually added (i.e. it is new and not dominated).
    let insert = |derived: &mut Derived<L>,
                  state: State,
                  subset: BTreeSet<State>,
                  witness: Tree<L>,
                  antichain: bool|
     -> bool {
        let entry = derived.entry(state).or_default();
        if antichain {
            if entry
                .iter()
                .any(|(existing, _)| existing.is_subset(&subset))
            {
                return false; // dominated by an existing smaller subset
            }
            entry.retain(|(existing, _)| !subset.is_subset(existing));
        } else if entry.iter().any(|(existing, _)| *existing == subset) {
            return false;
        }
        entry.push((subset, witness));
        true
    };

    // Saturate with plain rounds until no pair changes.
    let mut changed = true;
    while changed {
        changed = false;
        for &(s, label, tuple) in &a_transitions {
            // Enumerate combinations of already-derived child pairs.
            if tuple.is_empty() {
                stats.combinations += 1;
                stats.propagate_misses += 1;
                let subset = propagate(label, &[]);
                let witness = Tree::leaf(label.clone());
                if insert(&mut derived, s, subset, witness, options.antichain) {
                    changed = true;
                    stats.pairs += 1;
                }
                continue;
            }
            // Snapshot the candidate lists to avoid borrowing issues.
            let child_candidates: Vec<Vec<(BTreeSet<State>, Tree<L>)>> = tuple
                .iter()
                .map(|c| derived.get(c).cloned().unwrap_or_default())
                .collect();
            if child_candidates.iter().any(|c| c.is_empty()) {
                continue;
            }
            let mut combo = vec![0usize; tuple.len()];
            loop {
                let child_subsets: Vec<&BTreeSet<State>> = combo
                    .iter()
                    .zip(&child_candidates)
                    .map(|(&i, cands)| &cands[i].0)
                    .collect();
                stats.combinations += 1;
                stats.propagate_misses += 1;
                let subset = propagate(label, &child_subsets);
                let witness = Tree::node(
                    label.clone(),
                    combo
                        .iter()
                        .zip(&child_candidates)
                        .map(|(&i, cands)| cands[i].1.clone())
                        .collect(),
                );
                if insert(&mut derived, s, subset, witness, options.antichain) {
                    changed = true;
                    stats.pairs += 1;
                }
                if let Some(limit) = options.max_pairs {
                    if stats.pairs >= limit {
                        return TreeContainment::Unknown { stats };
                    }
                }
                // Odometer over candidate indices.
                let mut carry = true;
                for (slot, cands) in combo.iter_mut().zip(&child_candidates) {
                    if carry {
                        *slot += 1;
                        if *slot == cands.len() {
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

        // Check for a violation after each round so witnesses stay small.
        for &s in a.initial() {
            if let Some(entries) = derived.get(&s) {
                for (subset, witness) in entries {
                    if !subset.iter().any(|q| b.initial().contains(q)) {
                        return TreeContainment::NotContained {
                            witness: witness.clone(),
                            stats,
                        };
                    }
                }
            }
        }
    }

    TreeContainment::Contained { stats }
}

/// Are the two tree languages equal?
pub fn equivalent<L: Ord + Clone>(a: &TreeAutomaton<L>, b: &TreeAutomaton<L>) -> bool {
    let options = ContainmentOptions::default();
    contained_in_with(a, b, options).is_contained()
        && contained_in_with(b, a, options).is_contained()
}

/// The materialised containment check: `T(a) ∩ complement(T(b)) = ∅`, with
/// the complement built explicitly over the union of the two ranked
/// alphabets.  Exponential in `b`; used for cross-checks and ablations.
pub fn contained_in_via_complement<L: Ord + Clone>(
    a: &TreeAutomaton<L>,
    b: &TreeAutomaton<L>,
) -> bool {
    // The complement must be taken over an alphabet covering every label and
    // arity that `a` can produce, otherwise trees using those labels would
    // be missed.
    let mut alphabet = b.ranked_alphabet();
    for (label, arities) in a.ranked_alphabet() {
        alphabet.entry(label).or_default().extend(arities);
    }
    let comp: BottomUpDeterministic<L> = complement(b, &alphabet);
    // Intersect `a` with the complement by re-encoding the complement as a
    // (deterministic, bottom-up) top-down automaton: state q of `comp`
    // becomes a state; the root states are the accepting ones.
    let mut comp_td = TreeAutomaton::new(comp.state_count);
    for &s in &comp.accepting {
        comp_td.add_initial(s);
    }
    for ((label, children), target) in &comp.transitions {
        comp_td.add_transition(*target, label.clone(), children.clone());
    }
    let product = intersection(a, &comp_td);
    is_empty(&product)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary 'a'-nodes over 'b' leaves.
    fn ab_trees() -> TreeAutomaton<char> {
        let mut t = TreeAutomaton::new(1);
        t.add_initial(0);
        t.add_transition(0, 'a', vec![0, 0]);
        t.add_transition(0, 'b', vec![]);
        t
    }

    /// ab-trees of height at most `h`.
    fn ab_trees_of_height(h: usize) -> TreeAutomaton<char> {
        // state i accepts trees of height ≤ h - i … simpler: state i accepts
        // trees of height ≤ i + 1 with 0-based depth budget; initial = h-1.
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

    /// ab-trees containing at least one 'c' leaf.
    fn ab_trees_with_c() -> TreeAutomaton<char> {
        let mut t = TreeAutomaton::new(2);
        t.add_initial(0);
        t.add_transition(0, 'c', vec![]);
        t.add_transition(0, 'a', vec![0, 1]);
        t.add_transition(0, 'a', vec![1, 0]);
        t.add_transition(1, 'a', vec![1, 1]);
        t.add_transition(1, 'b', vec![]);
        t.add_transition(1, 'c', vec![]);
        t
    }

    /// Decide with the default options (the min-subset worklist).
    fn check(a: &TreeAutomaton<char>, b: &TreeAutomaton<char>) -> TreeContainment<char> {
        contained_in_with(a, b, ContainmentOptions::default())
    }

    /// Decide with the plain-rounds reference oracle.
    fn rounds(
        a: &TreeAutomaton<char>,
        b: &TreeAutomaton<char>,
        options: ContainmentOptions,
    ) -> TreeContainment<char> {
        contained_in_with(
            a,
            b,
            ContainmentOptions {
                schedule: Schedule::Rounds,
                ..options
            },
        )
    }

    /// The unit fixtures the differential tests sweep over.
    fn fixture_pairs() -> Vec<(TreeAutomaton<char>, TreeAutomaton<char>)> {
        vec![
            (ab_trees(), ab_trees()),
            (ab_trees(), ab_trees_with_c()),
            (ab_trees_with_c(), ab_trees()),
            (ab_trees_of_height(3), ab_trees()),
            (ab_trees(), ab_trees_of_height(2)),
            (ab_trees(), ab_trees_of_height(4)),
            (ab_trees_of_height(2), ab_trees_of_height(4)),
            (ab_trees_of_height(4), ab_trees_of_height(2)),
            (TreeAutomaton::new(1), ab_trees()),
            (ab_trees(), TreeAutomaton::new(1)),
        ]
    }

    #[test]
    fn bounded_height_is_contained_in_unbounded() {
        let r = check(&ab_trees_of_height(3), &ab_trees());
        assert!(r.is_contained());
        assert!(r.explored() > 0);
    }

    #[test]
    fn unbounded_is_not_contained_in_bounded_and_witness_is_valid() {
        let bounded = ab_trees_of_height(2);
        let r = check(&ab_trees(), &bounded);
        match &r {
            TreeContainment::NotContained { witness, .. } => {
                assert!(ab_trees().accepts(witness));
                assert!(!bounded.accepts(witness));
                assert!(witness.height() > 2);
            }
            _ => panic!("expected non-containment"),
        }
    }

    #[test]
    fn language_with_c_is_not_contained_in_pure_ab() {
        let r = check(&ab_trees_with_c(), &ab_trees());
        assert!(r.is_not_contained());
        let w = r.witness().unwrap();
        assert!(ab_trees_with_c().accepts(w));
        assert!(!ab_trees().accepts(w));
    }

    #[test]
    fn pure_ab_is_not_contained_in_with_c_either() {
        // ab-trees without any c are rejected by ab_trees_with_c.
        let r = check(&ab_trees(), &ab_trees_with_c());
        assert!(r.is_not_contained());
    }

    #[test]
    fn reflexive_containment_and_equivalence() {
        assert!(check(&ab_trees(), &ab_trees()).is_contained());
        assert!(equivalent(&ab_trees(), &ab_trees()));
        assert!(!equivalent(&ab_trees(), &ab_trees_of_height(2)));
    }

    #[test]
    fn empty_language_is_contained_in_everything() {
        let empty = TreeAutomaton::<char>::new(1);
        assert!(check(&empty, &ab_trees()).is_contained());
        assert!(check(&ab_trees(), &empty).is_not_contained());
    }

    #[test]
    fn antichain_and_full_mode_agree() {
        for (a, b) in &fixture_pairs() {
            let with = check(a, b);
            let without = contained_in_with(
                a,
                b,
                ContainmentOptions {
                    antichain: false,
                    ..ContainmentOptions::default()
                },
            );
            assert_eq!(with.is_contained(), without.is_contained());
            // The antichain never explores more pairs than the full mode.
            assert!(with.explored() <= without.explored());
        }
    }

    #[test]
    fn worklist_and_rounds_engines_agree_on_the_fixtures() {
        for antichain in [true, false] {
            let options = ContainmentOptions {
                antichain,
                ..ContainmentOptions::default()
            };
            for (a, b) in &fixture_pairs() {
                let worklist = contained_in_with(a, b, options);
                let rounds = rounds(a, b, options);
                assert_eq!(
                    worklist.is_contained(),
                    rounds.is_contained(),
                    "verdict mismatch (antichain={antichain})"
                );
                // Both witnesses, when present, must be genuine separators.
                for witness in [worklist.witness(), rounds.witness()].into_iter().flatten() {
                    assert!(a.accepts(witness));
                    assert!(!b.accepts(witness));
                }
                // On saturating (contained) runs the worklist engine never
                // rescans δ2 more often than the rounds engine evaluates
                // combinations: the memo collapses re-enumerations.  (On
                // early-terminating runs either engine may stop first, so
                // work counts are not comparable there.)
                if worklist.is_contained() {
                    assert!(
                        worklist.stats().propagate_misses <= rounds.stats().combinations,
                        "work regression (antichain={antichain}): worklist misses {} > rounds combinations {}",
                        worklist.stats().propagate_misses,
                        rounds.stats().combinations
                    );
                }
            }
        }
    }

    #[test]
    fn engine_stats_expose_memoisation_and_interning() {
        // A containment that saturates: every derived subset is interned and
        // the repeated (label, child ids) combinations hit the memo.
        let r = check(&ab_trees_of_height(4), &ab_trees());
        assert!(r.is_contained());
        let stats = r.stats();
        assert!(stats.pairs > 0);
        assert!(stats.subsets_interned > 0);
        assert_eq!(
            stats.combinations,
            stats.propagate_hits + stats.propagate_misses
        );
        // The bounded-height automaton re-derives the same child subsets at
        // several heights, so the memo must have been useful.
        assert!(stats.propagate_hits > 0, "propagate memo never hit");
    }

    #[test]
    fn on_the_fly_agrees_with_materialised_complement() {
        let pairs = [
            (ab_trees(), ab_trees_with_c()),
            (ab_trees_with_c(), ab_trees()),
            (ab_trees_of_height(2), ab_trees()),
            (ab_trees(), ab_trees()),
        ];
        for (a, b) in &pairs {
            assert_eq!(
                check(a, b).is_contained(),
                contained_in_via_complement(a, b)
            );
        }
    }

    #[test]
    fn pair_limit_reports_unknown() {
        for schedule in [Schedule::MinSubset, Schedule::Rounds] {
            let r = contained_in_with(
                &ab_trees(),
                &ab_trees_with_c(),
                ContainmentOptions {
                    antichain: true,
                    max_pairs: Some(1),
                    schedule,
                },
            );
            assert!(matches!(r, TreeContainment::Unknown { .. }) || r.is_not_contained());
        }
    }

    #[test]
    fn min_subset_schedule_matches_rounds_pair_count_on_nested_heights() {
        // The motivating shape: bounded-height trees against a one-higher
        // bound.  First-in-first-out order would admit every leaf subset
        // before any refinement arrives; the min-subset schedule establishes
        // the ⊆-minimal chain first and skips the dominated seeds at pop
        // time.
        for h in [2, 4, 6, 8] {
            let a = ab_trees_of_height(h);
            let b = ab_trees_of_height(h + 1);
            let scheduled = check(&a, &b);
            let rounds = rounds(&a, &b, ContainmentOptions::default());
            assert!(scheduled.is_contained());
            assert_eq!(
                scheduled.explored(),
                rounds.explored(),
                "height {h}: scheduled pairs {} != rounds pairs {}",
                scheduled.explored(),
                rounds.explored()
            );
            let stats = scheduled.stats();
            assert_eq!(stats.pairs_dominated, 0, "dominators established first");
            assert!(stats.pops_skipped_dead > 0, "dominated seeds are skipped");
        }
    }

    #[test]
    fn sinks_observe_without_perturbing_the_engine() {
        use metrics::{MetricsLevel, NoMetrics, RecordingSink};
        let a = ab_trees_of_height(4);
        let b = ab_trees_of_height(5);
        let options = ContainmentOptions::default();
        let plain = contained_in_with(&a, &b, options);
        let off = contained_in_with_sink(&a, &b, options, &mut NoMetrics);
        assert_eq!(plain.stats(), off.stats());

        let mut sink = RecordingSink::new(MetricsLevel::Trace, usize::MAX);
        let traced = contained_in_with_sink(&a, &b, options, &mut sink);
        assert_eq!(
            plain.stats(),
            traced.stats(),
            "tracing must be observational"
        );
        let kinds: BTreeSet<&str> = sink.events.iter().map(|e| e.kind).collect();
        for kind in ["phase", "pop", "propagate", "containment"] {
            assert!(kinds.contains(kind), "missing event kind {kind}");
        }
        let summary = sink
            .events
            .iter()
            .find(|e| e.kind == "containment")
            .unwrap();
        assert_eq!(summary.flag("contained"), Some(true));
        assert_eq!(summary.num("pairs"), Some(traced.stats().pairs as u64));
        // Admission happens at the pop, so admitted pops are exactly the
        // counted pairs.
        let admitted = sink
            .events
            .iter()
            .filter(|e| e.kind == "pop" && e.flag("admitted") == Some(true))
            .count();
        assert_eq!(admitted, traced.stats().pairs);
    }

    #[test]
    fn frontier_pops_are_minima_of_the_frontier() {
        use metrics::{MetricsLevel, RecordingSink};
        for (a, b) in &fixture_pairs() {
            let mut sink = RecordingSink::new(MetricsLevel::Trace, usize::MAX);
            let result = contained_in_with_sink(a, b, ContainmentOptions::default(), &mut sink);
            assert_eq!(
                result.is_contained(),
                rounds(a, b, ContainmentOptions::default()).is_contained()
            );
            let pops: Vec<_> = sink.events.iter().filter(|e| e.kind == "pop").collect();
            for pop in &pops {
                let size = pop.num("size").unwrap();
                if let Some(next) = pop.num("next_size") {
                    assert!(
                        size <= next,
                        "popped size {size} exceeds queued size {next}"
                    );
                }
            }
            // Admitted pops are exactly the counted pairs.
            assert_eq!(
                pops.iter()
                    .filter(|p| p.flag("admitted") == Some(true))
                    .count(),
                result.stats().pairs
            );
        }
    }
}
