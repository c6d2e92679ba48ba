//! A shared, process-wide memo for containment decisions.
//!
//! Every decision procedure in this crate bottoms out in one of three pure
//! questions:
//!
//! 1. `Π(goal) ⊆ Θ`? — the automata-backed decision of
//!    [`crate::containment::datalog_contained_in_ucq_with`] (expensive:
//!    builds proof-tree automata and runs tree/word containment);
//! 2. `θ ⊆ ψ`? — conjunctive-query containment (a homomorphism search,
//!    issued in quadratic volleys by the `optimize` passes);
//! 3. `θ ⊆ Π(goal)`? — the canonical-database check of
//!    [`crate::cq_in_datalog`].
//!
//! All three are functions of the *structure* of their inputs up to
//! variable renaming, body reordering, and (for unions) disjunct order —
//! exactly what the canonical cache keys of [`cq::canonical`] quotient out.
//! The [`DecisionCache`] memoises all three maps under those keys, so
//! `bounded::find_bound_with` probing successive depths, `equivalence`
//! deciding both directions, and every `optimize` pass
//! (`minimize_rule_bodies`, `remove_subsumed_rules`,
//! `eliminate_recursion_with`) share one pool of
//! already-decided containments instead of re-deciding them.
//!
//! The cache is **on by default** (see `DecisionOptions::use_cache`); the
//! uncached path is retained as the reference oracle and the two are locked
//! differentially in `tests/containment_cache_differential.rs`.  Caching a
//! decision is sound because programs/queries with equal keys are
//! semantically identical: a stored verdict — and a stored counterexample
//! database — is valid for every input that maps to the same key.
//!
//! # Bounded operation
//!
//! A long-running server answers an unbounded keyspace of (program, goal,
//! query, options) requests, so an unbounded memo eventually exhausts
//! memory.  [`CacheLimits`] caps each of the three segments independently;
//! when a segment overflows its cap, a **cost-aware LRU** sweep evicts a
//! batch of entries: victims are drawn from the least-recently-used half of
//! the overflowing segment, largest witness payloads first (a cached
//! counterexample — proof tree, expansion, canonical database — dwarfs a
//! boolean verdict, so it is the memory that must go first).  Eviction
//! never changes a verdict — an evicted entry is simply recomputed on the
//! next miss — which `tests/cache_eviction_differential.rs` locks over
//! generated instances.  [`CacheStats`] counts evictions per segment.
//!
//! [`CacheStats`] also exposes hit/miss counts and the product-pair work
//! spent (on misses) versus recalled (on hits), which the benches report.
//! The whole cache can be snapshotted to a versioned byte format and
//! reloaded (warm start) — see [`crate::snapshot`].

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use cq::canonical::{CqKey, UcqKey};
use cq::{ConjunctiveQuery, Ucq};
use datalog::atom::Pred;
use datalog::program::Program;

use crate::containment::{ContainmentResult, DecisionOptions};

/// Structural cache key of a Datalog program: the canonical key of each
/// rule (read as a conjunctive query), in rule order.  Two programs with
/// equal keys have identical rules up to variable renaming and body-atom
/// order, hence identical semantics on every database.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramKey {
    rules: Vec<CqKey>,
}

impl ProgramKey {
    /// Compute the key of a program (one canonicalisation per rule).
    pub fn of(program: &Program) -> ProgramKey {
        ProgramKey {
            rules: program
                .rules()
                .iter()
                .map(|rule| CqKey::of(&ConjunctiveQuery::from_rule(rule)))
                .collect(),
        }
    }

    /// Rebuild a key from per-rule keys (the snapshot decoder, and any
    /// future sharding layer that routes by `ProgramKey`, come through
    /// here).
    pub fn from_rule_keys(rules: Vec<CqKey>) -> ProgramKey {
        ProgramKey { rules }
    }

    /// The per-rule keys, in rule order.
    pub fn rule_keys(&self) -> &[CqKey] {
        &self.rules
    }
}

/// Cache key of a full `Π(goal) ⊆ Θ` decision: the interned program
/// structure, the goal, the query key, and every option that can change the
/// outcome or its instrumentation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    pub(crate) program: ProgramKey,
    pub(crate) goal: Pred,
    pub(crate) query: UcqKey,
    pub(crate) allow_word_path: bool,
    pub(crate) antichain: bool,
    pub(crate) max_pairs: Option<usize>,
}

impl DecisionKey {
    /// Build the key for a decision call.  The unfolding budget is
    /// deliberately **not** part of the key: it either fails a decision
    /// before any cache interaction or leaves the verdict unchanged.  Every
    /// decision runs the min-subset schedule and the auto evaluation
    /// strategy, so the stored instrumentation is the same whichever
    /// request (`trace` included) computed it.
    pub fn new(program: &Program, goal: Pred, ucq: &Ucq, options: DecisionOptions) -> DecisionKey {
        DecisionKey {
            program: ProgramKey::of(program),
            goal,
            query: UcqKey::of(ucq),
            allow_word_path: options.allow_word_path,
            antichain: options.antichain,
            max_pairs: options.max_pairs,
        }
    }
}

/// Per-segment capacity limits of a [`DecisionCache`].  `None` means
/// unbounded (the default, and the pre-eviction behaviour); `Some(0)` is
/// legal and disables memoisation for that segment (every store is evicted
/// straight away).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Cap on memoised full `Π(goal) ⊆ Θ` decisions.
    pub max_decisions: Option<usize>,
    /// Cap on memoised `θ ⊆ ψ` conjunctive-query pairs.
    pub max_cq_pairs: Option<usize>,
    /// Cap on memoised `θ ⊆ Π(goal)` canonical-database checks.
    pub max_cq_in_program: Option<usize>,
}

impl CacheLimits {
    /// No caps anywhere (the default).
    pub fn unbounded() -> CacheLimits {
        CacheLimits::default()
    }

    /// The same cap on every segment — the shape the differential and soak
    /// suites use.
    pub fn uniform(cap: usize) -> CacheLimits {
        CacheLimits {
            max_decisions: Some(cap),
            max_cq_pairs: Some(cap),
            max_cq_in_program: Some(cap),
        }
    }
}

/// Aggregate cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then populated the cache).
    pub misses: u64,
    /// Product pairs explored by full decisions computed on misses.
    pub pairs_explored: u64,
    /// Product pairs recalled on hits — work the cache avoided re-doing.
    pub pairs_saved: u64,
    /// Full decisions evicted to stay within `max_decisions`.
    pub evicted_decisions: u64,
    /// CQ-pair verdicts evicted to stay within `max_cq_pairs`.
    pub evicted_cq_pairs: u64,
    /// Canonical-database verdicts evicted to stay within
    /// `max_cq_in_program`.
    pub evicted_cq_in_program: u64,
}

impl CacheStats {
    /// Total evictions across the three segments.
    pub fn evictions(&self) -> u64 {
        self.evicted_decisions + self.evicted_cq_pairs + self.evicted_cq_in_program
    }
}

/// Entry counts of the three memo maps, for observability surfaces (the
/// server's `stats` verb) that report cache occupancy next to hit rates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSizes {
    /// Memoised full `Π(goal) ⊆ Θ` decisions.
    pub decisions: usize,
    /// Memoised `θ ⊆ ψ` conjunctive-query pairs.
    pub cq_pairs: usize,
    /// Memoised `θ ⊆ Π(goal)` canonical-database checks.
    pub cq_in_program: usize,
}

impl CacheSizes {
    /// Total entries across the three maps.
    pub fn total(&self) -> usize {
        self.decisions + self.cq_pairs + self.cq_in_program
    }
}

/// One memoised value plus the bookkeeping eviction needs: a recency stamp
/// (a logical tick, bumped on every store and every hit) and a payload-size
/// estimate used to pick large witnesses first.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
    cost: u32,
}

/// Payload-size estimate of a stored decision, in "structure nodes".  A
/// bare verdict costs 1; a counterexample adds its proof-tree nodes, its
/// expansion atoms, and its canonical-database facts — the parts whose
/// memory footprint dominates the cache.
fn witness_cost(result: &ContainmentResult) -> u32 {
    let mut cost = 1usize;
    if let Some(cex) = &result.counterexample {
        cost += cex.proof_tree.size() + cex.expansion.body.len() + cex.database.len();
    }
    cost.min(u32::MAX as usize) as u32
}

#[derive(Default)]
struct Inner {
    decisions: HashMap<DecisionKey, Entry<ContainmentResult>>,
    /// `θ → ψ → (θ ⊆ ψ)`.  Nested so hit-path lookups borrow the keys
    /// instead of cloning them into a composite key.
    cq_pairs: HashMap<CqKey, HashMap<CqKey, Entry<bool>>>,
    /// `Π → goal → θ → (θ ⊆ Π(goal))`, nested for the same reason — the
    /// program key in particular is expensive to clone per lookup.
    cq_in_program: HashMap<ProgramKey, HashMap<Pred, HashMap<CqKey, Entry<bool>>>>,
    stats: CacheStats,
    limits: CacheLimits,
    /// Logical clock for LRU recency (monotone per cache).
    tick: u64,
}

/// When a segment overflows its cap, evict down to `cap - cap/8` in one
/// batch (bounded below by one retained entry for any nonzero cap — a cap
/// of 1 must hold one entry, only `Some(0)` means "cache nothing"), so the
/// O(n log n) victim scan amortises to O(log n) per store instead of
/// running on every insert at the boundary.
fn evict_target(cap: usize) -> usize {
    if cap == 0 {
        0
    } else {
        (cap - (cap / 8).max(1).min(cap)).max(1)
    }
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Enforce the decision-segment cap.  Victims come from the
    /// least-recently-used half of the candidates, **largest witness
    /// payloads first** — recency protects the hot set, cost decides among
    /// the cold.
    ///
    /// Recency ticks are unique per entry (one logical clock per cache),
    /// so the sweep selects victims as a set of ticks and removes them
    /// with one `retain` pass — no key is ever cloned for bookkeeping.
    fn enforce_decisions(&mut self) {
        let Some(cap) = self.limits.max_decisions else {
            return;
        };
        if self.decisions.len() <= cap {
            return;
        }
        let need = self.decisions.len() - evict_target(cap);
        let mut candidates: Vec<(u64, u32)> = self
            .decisions
            .values()
            .map(|entry| (entry.last_used, entry.cost))
            .collect();
        candidates.sort_by_key(|(last_used, _)| *last_used);
        // Keep only the coldest half (but at least `need`) as the victim
        // pool, then order that pool by descending cost.
        let pool = need.max(candidates.len() / 2).min(candidates.len());
        candidates.truncate(pool);
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let victims: std::collections::HashSet<u64> =
            candidates.into_iter().take(need).map(|(t, _)| t).collect();
        self.decisions
            .retain(|_, entry| !victims.contains(&entry.last_used));
        self.stats.evicted_decisions += victims.len() as u64;
    }

    /// The `need` oldest recency ticks of `ticks` (pure LRU victim set).
    fn oldest(mut ticks: Vec<u64>, need: usize) -> std::collections::HashSet<u64> {
        let need = need.min(ticks.len());
        let pivot = need.saturating_sub(1).min(ticks.len().saturating_sub(1));
        ticks.select_nth_unstable(pivot);
        ticks.truncate(need);
        ticks.into_iter().collect()
    }

    /// Enforce the CQ-pair cap (pure LRU: all entries cost the same).
    fn enforce_cq_pairs(&mut self) {
        let Some(cap) = self.limits.max_cq_pairs else {
            return;
        };
        let len: usize = self.cq_pairs.values().map(HashMap::len).sum();
        if len <= cap {
            return;
        }
        let need = len - evict_target(cap);
        let victims = Inner::oldest(
            self.cq_pairs
                .values()
                .flat_map(HashMap::values)
                .map(|entry| entry.last_used)
                .collect(),
            need,
        );
        self.cq_pairs.retain(|_, by_psi| {
            by_psi.retain(|_, entry| !victims.contains(&entry.last_used));
            !by_psi.is_empty()
        });
        self.stats.evicted_cq_pairs += victims.len() as u64;
    }

    /// Enforce the canonical-database cap (pure LRU).
    fn enforce_cq_in_program(&mut self) {
        let Some(cap) = self.limits.max_cq_in_program else {
            return;
        };
        let len: usize = self
            .cq_in_program
            .values()
            .flat_map(HashMap::values)
            .map(HashMap::len)
            .sum();
        if len <= cap {
            return;
        }
        let need = len - evict_target(cap);
        let victims = Inner::oldest(
            self.cq_in_program
                .values()
                .flat_map(HashMap::values)
                .flat_map(HashMap::values)
                .map(|entry| entry.last_used)
                .collect(),
            need,
        );
        self.cq_in_program.retain(|_, by_goal| {
            by_goal.retain(|_, by_theta| {
                by_theta.retain(|_, entry| !victims.contains(&entry.last_used));
                !by_theta.is_empty()
            });
            !by_goal.is_empty()
        });
        self.stats.evicted_cq_in_program += victims.len() as u64;
    }

    fn sizes(&self) -> CacheSizes {
        CacheSizes {
            decisions: self.decisions.len(),
            cq_pairs: self.cq_pairs.values().map(HashMap::len).sum(),
            cq_in_program: self
                .cq_in_program
                .values()
                .flat_map(HashMap::values)
                .map(HashMap::len)
                .sum(),
        }
    }
}

/// The shared decision memo.  See the module docs.
#[derive(Default)]
pub struct DecisionCache {
    inner: Mutex<Inner>,
}

impl DecisionCache {
    /// A fresh, empty, unbounded cache (the tests use private caches;
    /// production code shares [`DecisionCache::global`]).
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// A fresh cache with the given limits.
    pub fn with_limits(limits: CacheLimits) -> DecisionCache {
        let cache = DecisionCache::new();
        cache.set_limits(limits);
        cache
    }

    /// The process-wide cache every decision procedure shares by default.
    ///
    /// It has no scoping: state leaks across tests in one binary, which is
    /// why the differential suites run on private caches and why [`clear`]
    /// exists as the reset hook (also surfaced as the server's
    /// `clear_cache` admin verb).
    ///
    /// ```
    /// use nonrec_equivalence::cache::DecisionCache;
    ///
    /// let cache = DecisionCache::global();
    /// // The same instance every time: stats accumulate process-wide.
    /// assert!(std::ptr::eq(cache, DecisionCache::global()));
    /// let sizes = cache.sizes();
    /// assert!(sizes.decisions <= sizes.total());
    /// ```
    ///
    /// [`clear`]: DecisionCache::clear
    pub fn global() -> &'static DecisionCache {
        static GLOBAL: OnceLock<DecisionCache> = OnceLock::new();
        GLOBAL.get_or_init(DecisionCache::new)
    }

    /// A snapshot of the statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// The configured per-segment limits.
    pub fn limits(&self) -> CacheLimits {
        self.lock().limits
    }

    /// Install new per-segment limits and enforce them immediately:
    /// overflowing segments evict down right away (counted in the eviction
    /// stats), so a `cache_limits` admin call bounds memory without waiting
    /// for the next store.
    pub fn set_limits(&self, limits: CacheLimits) {
        let mut inner = self.lock();
        if inner.limits == limits {
            return;
        }
        inner.limits = limits;
        inner.enforce_decisions();
        inner.enforce_cq_pairs();
        inner.enforce_cq_in_program();
    }

    /// Number of memoised entries across all three maps.
    pub fn len(&self) -> usize {
        self.sizes().total()
    }

    /// Per-map entry counts (decisions, CQ pairs, canonical-database
    /// checks) — the occupancy breakdown the server's `stats` verb reports.
    pub fn sizes(&self) -> CacheSizes {
        self.lock().sizes()
    }

    /// True if nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every memoised entry and reset the statistics, reporting how
    /// many entries each segment held.  Configured limits survive.
    ///
    /// This is the reset hook for [`DecisionCache::global`]: test suites
    /// call it to undo cross-test pollution, and the server's `clear_cache`
    /// admin verb reports the returned drop counts on the wire.
    pub fn clear(&self) -> CacheSizes {
        let mut inner = self.lock();
        let dropped = inner.sizes();
        let limits = inner.limits;
        *inner = Inner {
            limits,
            ..Inner::default()
        };
        dropped
    }

    /// Recall a full decision.  Counts a hit or a miss; a hit refreshes the
    /// entry's LRU recency.
    pub fn lookup_decision(&self, key: &DecisionKey) -> Option<ContainmentResult> {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        match inner.decisions.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let result = entry.value.clone();
                inner.stats.hits += 1;
                inner.stats.pairs_saved += result.stats.explored as u64;
                Some(result)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Count a recall that a layer **above** this cache answered from its
    /// own memo of a decision that lives here (the server's text-level
    /// response memo fronts this cache and answers byte-identical repeats
    /// without re-canonicalising the key).  The decision was genuinely
    /// recalled rather than recomputed, so it is a hit in every sense this
    /// counter promises — recording it here keeps hit-rate observability
    /// truthful regardless of which layer short-circuited the work.
    pub fn record_memoised_hit(&self) {
        self.lock().stats.hits += 1;
    }

    /// Store a freshly computed full decision, evicting if the segment
    /// overflows its cap.
    pub fn store_decision(&self, key: DecisionKey, result: &ContainmentResult) {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        inner.stats.pairs_explored += result.stats.explored as u64;
        inner.decisions.insert(
            key,
            Entry {
                cost: witness_cost(result),
                value: result.clone(),
                last_used: tick,
            },
        );
        inner.enforce_decisions();
    }

    /// Memoised `θ ⊆ ψ` (conjunctive-query containment).  Returns the
    /// verdict and whether it was a cache hit.
    pub fn cq_contained(&self, theta: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> (bool, bool) {
        self.cq_contained_keyed(&CqKey::of(theta), &CqKey::of(psi))
    }

    /// As [`DecisionCache::cq_contained`], but keyed on precomputed
    /// [`CqKey`]s so quadratic passes canonicalise each query once.
    pub fn cq_contained_keyed(&self, theta: &CqKey, psi: &CqKey) -> (bool, bool) {
        {
            let mut inner = self.lock();
            let tick = inner.next_tick();
            if let Some(entry) = inner
                .cq_pairs
                .get_mut(theta)
                .and_then(|by_psi| by_psi.get_mut(psi))
            {
                entry.last_used = tick;
                let verdict = entry.value;
                inner.stats.hits += 1;
                return (verdict, true);
            }
            inner.stats.misses += 1;
        }
        // Compute outside the lock: containment is invariant under
        // canonicalisation, so the canonical forms inside the keys suffice.
        let verdict = cq::containment::cq_contained_in(theta.as_query(), psi.as_query());
        let mut inner = self.lock();
        let tick = inner.next_tick();
        inner.cq_pairs.entry(theta.clone()).or_default().insert(
            psi.clone(),
            Entry {
                value: verdict,
                last_used: tick,
                cost: 1,
            },
        );
        inner.enforce_cq_pairs();
        (verdict, false)
    }

    /// Memoised `θ ⊆ Π(goal)` (canonical-database check).  The caller
    /// supplies the compute path so this module does not depend on the
    /// evaluation engine; returns the verdict and whether it was a hit.
    pub fn cq_in_datalog_cached(
        &self,
        program: &ProgramKey,
        goal: Pred,
        theta: &CqKey,
        compute: impl FnOnce() -> bool,
    ) -> (bool, bool) {
        {
            let mut inner = self.lock();
            let tick = inner.next_tick();
            if let Some(entry) = inner
                .cq_in_program
                .get_mut(program)
                .and_then(|by_goal| by_goal.get_mut(&goal))
                .and_then(|by_theta| by_theta.get_mut(theta))
            {
                entry.last_used = tick;
                let verdict = entry.value;
                inner.stats.hits += 1;
                return (verdict, true);
            }
            inner.stats.misses += 1;
        }
        let verdict = compute();
        let mut inner = self.lock();
        let tick = inner.next_tick();
        inner
            .cq_in_program
            .entry(program.clone())
            .or_default()
            .entry(goal)
            .or_default()
            .insert(
                theta.clone(),
                Entry {
                    value: verdict,
                    last_used: tick,
                    cost: 1,
                },
            );
        inner.enforce_cq_in_program();
        (verdict, false)
    }

    /// Every memoised entry of every segment, cloned out — the snapshot
    /// encoder's view.  Order is unspecified (the encoder sorts).
    pub(crate) fn export_entries(&self) -> ExportedEntries {
        let inner = self.lock();
        ExportedEntries {
            decisions: inner
                .decisions
                .iter()
                .map(|(key, entry)| (key.clone(), entry.value.clone()))
                .collect(),
            cq_pairs: inner
                .cq_pairs
                .iter()
                .flat_map(|(theta, by_psi)| {
                    by_psi
                        .iter()
                        .map(move |(psi, entry)| (theta.clone(), psi.clone(), entry.value))
                })
                .collect(),
            cq_in_program: inner
                .cq_in_program
                .iter()
                .flat_map(|(program, by_goal)| {
                    by_goal.iter().flat_map(move |(goal, by_theta)| {
                        by_theta.iter().map(move |(theta, entry)| {
                            (program.clone(), *goal, theta.clone(), entry.value)
                        })
                    })
                })
                .collect(),
        }
    }

    /// Merge decoded snapshot entries into the cache (the loader's commit
    /// step).  Existing entries win — a live entry is at least as fresh as
    /// a persisted one — and limits are enforced afterwards, so loading a
    /// snapshot larger than the caps simply warms the freshest slice.
    /// Hit/miss statistics are untouched: counters describe *this*
    /// process's traffic.  Returns how many entries were actually added.
    pub(crate) fn import_entries(&self, entries: ExportedEntries) -> CacheSizes {
        let mut added = CacheSizes::default();
        let mut inner = self.lock();
        // Imported entries must rank as *older* than everything live: a
        // hot working set being served right now beats whatever a snapshot
        // remembers, and the post-merge enforcement below must shed the
        // snapshot's surplus first — not the live hot set.  Ticks stay
        // unique (the eviction sweeps identify victims by tick): live
        // entries are shifted up by the import budget, and imported
        // entries take the freed range `1..=shift` in snapshot order.
        let shift =
            (entries.decisions.len() + entries.cq_pairs.len() + entries.cq_in_program.len()) as u64;
        if shift > 0 {
            for entry in inner.decisions.values_mut() {
                entry.last_used += shift;
            }
            for by_psi in inner.cq_pairs.values_mut() {
                for entry in by_psi.values_mut() {
                    entry.last_used += shift;
                }
            }
            for by_goal in inner.cq_in_program.values_mut() {
                for by_theta in by_goal.values_mut() {
                    for entry in by_theta.values_mut() {
                        entry.last_used += shift;
                    }
                }
            }
            inner.tick += shift;
        }
        let mut import_tick = 0u64;
        for (key, result) in entries.decisions {
            import_tick += 1;
            if let std::collections::hash_map::Entry::Vacant(slot) = inner.decisions.entry(key) {
                slot.insert(Entry {
                    cost: witness_cost(&result),
                    value: result,
                    last_used: import_tick,
                });
                added.decisions += 1;
            }
        }
        for (theta, psi, verdict) in entries.cq_pairs {
            import_tick += 1;
            if let std::collections::hash_map::Entry::Vacant(slot) =
                inner.cq_pairs.entry(theta).or_default().entry(psi)
            {
                slot.insert(Entry {
                    value: verdict,
                    last_used: import_tick,
                    cost: 1,
                });
                added.cq_pairs += 1;
            }
        }
        for (program, goal, theta, verdict) in entries.cq_in_program {
            import_tick += 1;
            if let std::collections::hash_map::Entry::Vacant(slot) = inner
                .cq_in_program
                .entry(program)
                .or_default()
                .entry(goal)
                .or_default()
                .entry(theta)
            {
                slot.insert(Entry {
                    value: verdict,
                    last_used: import_tick,
                    cost: 1,
                });
                added.cq_in_program += 1;
            }
        }
        inner.enforce_decisions();
        inner.enforce_cq_pairs();
        inner.enforce_cq_in_program();
        added
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The flat, owned view of a cache's entries that travels between the
/// cache and the snapshot codec.
pub(crate) struct ExportedEntries {
    pub(crate) decisions: Vec<(DecisionKey, ContainmentResult)>,
    pub(crate) cq_pairs: Vec<(CqKey, CqKey, bool)>,
    pub(crate) cq_in_program: Vec<(ProgramKey, Pred, CqKey, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::parser::parse_program;

    fn cq(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn program_keys_identify_renamed_programs() {
        let p1 = parse_program("p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).").unwrap();
        let p2 = parse_program("p(A, B) :- e(A, C), p(C, B).\np(A, B) :- e(A, B).").unwrap();
        let p3 = parse_program("p(X, Y) :- e(X, Y).").unwrap();
        assert_eq!(ProgramKey::of(&p1), ProgramKey::of(&p2));
        assert_ne!(ProgramKey::of(&p1), ProgramKey::of(&p3));
        let rebuilt = ProgramKey::from_rule_keys(ProgramKey::of(&p1).rule_keys().to_vec());
        assert_eq!(rebuilt, ProgramKey::of(&p1));
    }

    #[test]
    fn cq_pair_cache_hits_on_renamed_queries() {
        let cache = DecisionCache::new();
        let a = cq("q(X) :- e(X, Y), e(Y, Z).");
        let b = cq("q(X) :- e(X, Y).");
        let (first, hit_first) = cache.cq_contained(&a, &b);
        assert!(first);
        assert!(!hit_first);
        // A renaming of the same pair must hit.
        let a2 = cq("q(A) :- e(A, B), e(B, C).");
        let (second, hit_second) = cache.cq_contained(&a2, &b);
        assert!(second);
        assert!(hit_second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.sizes(),
            CacheSizes {
                decisions: 0,
                cq_pairs: 1,
                cq_in_program: 0
            }
        );
        let dropped = cache.clear();
        assert_eq!(dropped.total(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn cq_in_datalog_cache_computes_once() {
        let cache = DecisionCache::new();
        let program = parse_program("p(X, Y) :- e(X, Y).").unwrap();
        let key = ProgramKey::of(&program);
        let theta = CqKey::of(&cq("q(X, Y) :- e(X, Y)."));
        let mut computed = 0;
        for _ in 0..3 {
            let (verdict, _) = cache.cq_in_datalog_cached(&key, Pred::new("p"), &theta, || {
                computed += 1;
                true
            });
            assert!(verdict);
        }
        assert_eq!(computed, 1);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn bounded_cq_pair_segment_evicts_lru_and_counts() {
        let cache = DecisionCache::with_limits(CacheLimits {
            max_cq_pairs: Some(4),
            ..CacheLimits::default()
        });
        let psi = CqKey::of(&cq("q(X) :- e(X, Y)."));
        let keys: Vec<CqKey> = (2..=8)
            .map(|n| {
                let body = (0..n)
                    .map(|i| format!("e(X{i}, X{})", i + 1))
                    .collect::<Vec<_>>()
                    .join(", ");
                CqKey::of(&cq(&format!("q(X0) :- {body}.")))
            })
            .collect();
        for key in &keys {
            cache.cq_contained_keyed(key, &psi);
        }
        let stats = cache.stats();
        assert!(
            stats.evicted_cq_pairs > 0,
            "cap 4 under 7 inserts must evict"
        );
        assert!(cache.sizes().cq_pairs <= 4);
        // The most recent insert survives; the oldest is gone (a re-query
        // recomputes, i.e. misses).
        let (_, hit_newest) = cache.cq_contained_keyed(keys.last().unwrap(), &psi);
        assert!(hit_newest, "most recent entry must survive eviction");
        let (_, hit_oldest) = cache.cq_contained_keyed(&keys[0], &psi);
        assert!(!hit_oldest, "least recent entry must have been evicted");
    }

    #[test]
    fn recency_protects_hot_entries_across_churn() {
        let cache = DecisionCache::with_limits(CacheLimits {
            max_cq_pairs: Some(8),
            ..CacheLimits::default()
        });
        let psi = CqKey::of(&cq("q(X) :- e(X, Y)."));
        let hot = CqKey::of(&cq("q(X) :- e(X, X)."));
        cache.cq_contained_keyed(&hot, &psi);
        for n in 0..64 {
            let cold = CqKey::of(&cq(&format!("q(X) :- e(X, Y), f{n}(Y, Y).")));
            cache.cq_contained_keyed(&cold, &psi);
            // Touch the hot entry each round so its recency stays fresh.
            let (_, hit) = cache.cq_contained_keyed(&hot, &psi);
            assert!(hit, "hot entry evicted after {n} cold inserts");
        }
        assert!(cache.stats().evicted_cq_pairs > 0);
        assert!(cache.sizes().cq_pairs <= 8);
    }

    #[test]
    fn zero_cap_disables_a_segment() {
        let cache = DecisionCache::with_limits(CacheLimits {
            max_cq_pairs: Some(0),
            ..CacheLimits::default()
        });
        let a = CqKey::of(&cq("q(X) :- e(X, Y)."));
        let b = CqKey::of(&cq("q(X) :- e(X, X)."));
        let (v1, hit1) = cache.cq_contained_keyed(&b, &a);
        let (v2, hit2) = cache.cq_contained_keyed(&b, &a);
        assert_eq!(v1, v2);
        assert!(!hit1 && !hit2, "a zero cap must never serve a hit");
        assert_eq!(cache.sizes().cq_pairs, 0);
        assert_eq!(cache.stats().evicted_cq_pairs, 2);
    }

    #[test]
    fn shrinking_limits_evicts_immediately_and_clear_keeps_them() {
        let cache = DecisionCache::new();
        let psi = CqKey::of(&cq("q(X) :- e(X, Y)."));
        for n in 0..10 {
            let theta = CqKey::of(&cq(&format!("q(X) :- e(X, Y), g{n}(Y, Y).")));
            cache.cq_contained_keyed(&theta, &psi);
        }
        assert_eq!(cache.sizes().cq_pairs, 10);
        cache.set_limits(CacheLimits {
            max_cq_pairs: Some(4),
            ..CacheLimits::default()
        });
        assert!(cache.sizes().cq_pairs <= 4);
        assert!(cache.stats().evicted_cq_pairs >= 6);
        let dropped = cache.clear();
        assert!(dropped.cq_pairs <= 4);
        assert_eq!(
            cache.limits(),
            CacheLimits {
                max_cq_pairs: Some(4),
                ..CacheLimits::default()
            },
            "clear drops entries and stats, not configuration"
        );
    }
}
