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
//! memory.  [`CacheLimits`] caps each of the three segments independently.
//! Every segment is an exact least-recently-used [`Lru`]: a store of a new
//! key into a full segment evicts that segment's least recently used entry,
//! so an overflowing segment holds exactly its cap.  Eviction never changes
//! a verdict — an evicted entry is simply recomputed on the next miss —
//! which `tests/cache_eviction_differential.rs` locks over generated
//! instances.  [`CacheStats`] counts evictions per segment.
//!
//! [`CacheStats`] also exposes hit/miss counts and the product-pair work
//! spent (on misses) versus recalled (on hits), which the benches report.
//! The whole cache can be snapshotted to a versioned byte format and
//! reloaded (warm start) — see [`crate::snapshot`].

use std::sync::{Mutex, OnceLock, PoisonError};

use cq::canonical::{CqKey, UcqKey};
use cq::{ConjunctiveQuery, Ucq};
use datalog::atom::Pred;
use datalog::program::Program;

use crate::containment::{ContainmentResult, DecisionOptions};
use crate::lru::Lru;

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

struct Inner {
    decisions: Lru<DecisionKey, ContainmentResult>,
    /// `(θ, ψ) → (θ ⊆ ψ)`.
    cq_pairs: Lru<(CqKey, CqKey), bool>,
    /// `(Π, goal, θ) → (θ ⊆ Π(goal))`.
    cq_in_program: Lru<(ProgramKey, Pred, CqKey), bool>,
    /// Hit, miss and pair counters; the eviction counts live in the
    /// segments.
    stats: CacheStats,
}

impl Inner {
    fn limits(&self) -> CacheLimits {
        CacheLimits {
            max_decisions: self.decisions.cap(),
            max_cq_pairs: self.cq_pairs.cap(),
            max_cq_in_program: self.cq_in_program.cap(),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            evicted_decisions: self.decisions.evictions(),
            evicted_cq_pairs: self.cq_pairs.evictions(),
            evicted_cq_in_program: self.cq_in_program.evictions(),
            ..self.stats
        }
    }

    /// Run a segment lookup, counting a hit when it answers and a miss
    /// when it does not.
    fn recall<T>(&mut self, lookup: impl FnOnce(&mut Inner) -> Option<T>) -> Option<T> {
        let found = lookup(self);
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    fn sizes(&self) -> CacheSizes {
        CacheSizes {
            decisions: self.decisions.len(),
            cq_pairs: self.cq_pairs.len(),
            cq_in_program: self.cq_in_program.len(),
        }
    }
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            decisions: Lru::new(None),
            cq_pairs: Lru::new(None),
            cq_in_program: Lru::new(None),
            stats: CacheStats::default(),
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
        self.lock().stats()
    }

    /// The configured per-segment limits.
    pub fn limits(&self) -> CacheLimits {
        self.lock().limits()
    }

    /// Install new per-segment limits and enforce them immediately:
    /// overflowing segments evict down right away (counted in the eviction
    /// stats), so a `cache_limits` admin call bounds memory without waiting
    /// for the next store.
    pub fn set_limits(&self, limits: CacheLimits) {
        let mut inner = self.lock();
        inner.decisions.set_cap(limits.max_decisions);
        inner.cq_pairs.set_cap(limits.max_cq_pairs);
        inner.cq_in_program.set_cap(limits.max_cq_in_program);
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
        inner.decisions.clear();
        inner.cq_pairs.clear();
        inner.cq_in_program.clear();
        inner.stats = CacheStats::default();
        dropped
    }

    /// Recall a full decision.  Counts a hit or a miss; a hit refreshes the
    /// entry's LRU recency.
    pub fn lookup_decision(&self, key: &DecisionKey) -> Option<ContainmentResult> {
        let mut inner = self.lock();
        let result = inner.recall(|inner| inner.decisions.get(key).cloned())?;
        inner.stats.pairs_saved += result.stats.explored as u64;
        Some(result)
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

    /// Store a freshly computed full decision, evicting the least recently
    /// used one if the segment is full.
    pub fn store_decision(&self, key: DecisionKey, result: &ContainmentResult) {
        let mut inner = self.lock();
        inner.stats.pairs_explored += result.stats.explored as u64;
        inner.decisions.insert(key, result.clone());
    }

    /// Memoised `θ ⊆ ψ` (conjunctive-query containment).  Returns the
    /// verdict and whether it was a cache hit.
    pub fn cq_contained(&self, theta: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> (bool, bool) {
        self.cq_contained_keyed(&CqKey::of(theta), &CqKey::of(psi))
    }

    /// As [`DecisionCache::cq_contained`], but keyed on precomputed
    /// [`CqKey`]s so quadratic passes canonicalise each query once.
    pub fn cq_contained_keyed(&self, theta: &CqKey, psi: &CqKey) -> (bool, bool) {
        let key = (theta.clone(), psi.clone());
        if let Some(verdict) = self
            .lock()
            .recall(|inner| inner.cq_pairs.get(&key).copied())
        {
            return (verdict, true);
        }
        // Compute outside the lock: containment is invariant under
        // canonicalisation, so the canonical forms inside the keys suffice.
        let verdict = cq::containment::cq_contained_in(theta.as_query(), psi.as_query());
        self.lock().cq_pairs.insert(key, verdict);
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
        let key = (program.clone(), goal, theta.clone());
        if let Some(verdict) = self
            .lock()
            .recall(|inner| inner.cq_in_program.get(&key).copied())
        {
            return (verdict, true);
        }
        let verdict = compute();
        self.lock().cq_in_program.insert(key, verdict);
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
                .map(|(key, result)| (key.clone(), result.clone()))
                .collect(),
            cq_pairs: inner
                .cq_pairs
                .iter()
                .map(|((theta, psi), &verdict)| (theta.clone(), psi.clone(), verdict))
                .collect(),
            cq_in_program: inner
                .cq_in_program
                .iter()
                .map(|((program, goal, theta), &verdict)| {
                    (program.clone(), *goal, theta.clone(), verdict)
                })
                .collect(),
        }
    }

    /// Merge decoded snapshot entries into the cache (the loader's commit
    /// step).  Existing entries win — a live entry is at least as fresh as
    /// a persisted one — and every imported entry ranks below every live
    /// one, so loading a snapshot larger than the caps sheds the
    /// snapshot's surplus, never the live hot set.  Within one segment the
    /// later entries in snapshot order rank higher, so they are the slice
    /// that stays.  Hit/miss statistics are untouched: counters describe
    /// *this* process's traffic.  Returns how many entries were added and
    /// stayed: one a full segment sheds at once does not count.
    pub(crate) fn import_entries(&self, entries: ExportedEntries) -> CacheSizes {
        let mut added = CacheSizes::default();
        let mut inner = self.lock();
        // Each below-live insert ranks under the previous one, so walking
        // a segment backwards leaves its first entry the least recent.
        for (key, result) in entries.decisions.into_iter().rev() {
            added.decisions += usize::from(inner.decisions.insert_below(key, result));
        }
        for (theta, psi, verdict) in entries.cq_pairs.into_iter().rev() {
            added.cq_pairs += usize::from(inner.cq_pairs.insert_below((theta, psi), verdict));
        }
        for (program, goal, theta, verdict) in entries.cq_in_program.into_iter().rev() {
            added.cq_in_program += usize::from(
                inner
                    .cq_in_program
                    .insert_below((program, goal, theta), verdict),
            );
        }
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
        assert_eq!(cache.sizes().cq_pairs, 4);
        assert_eq!(stats.evicted_cq_pairs, 3);
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
        assert_eq!(cache.sizes().cq_pairs, 8);
    }

    #[test]
    fn decision_segment_keeps_a_hot_decision_and_fills_exactly_its_cap() {
        use crate::containment::datalog_contained_in_ucq_in;
        const CAP: usize = 4;
        let cache = DecisionCache::with_limits(CacheLimits {
            max_decisions: Some(CAP),
            ..CacheLimits::default()
        });
        let instance = |e: &str| {
            (
                parse_program(&format!(
                    "p(X, Y) :- {e}(X, Z), p(Z, Y).\np(X, Y) :- {e}(X, Y)."
                ))
                .unwrap(),
                cq::Ucq::parse(&format!("q(X, Y) :- {e}(X, Y).")).unwrap(),
            )
        };
        let decide = |e: &str| {
            let (program, ucq) = instance(e);
            let options = DecisionOptions::default();
            datalog_contained_in_ucq_in(
                &cache,
                &program,
                Pred::new("p"),
                &ucq,
                options,
                &mut metrics::NoMetrics,
            )
            .unwrap();
        };
        let (program, ucq) = instance("hot");
        let hot = DecisionKey::new(&program, Pred::new("p"), &ucq, DecisionOptions::default());
        decide("hot");
        let churn = 3 * CAP;
        for n in 0..churn {
            decide(&format!("cold{n}"));
            assert!(
                cache.lookup_decision(&hot).is_some(),
                "hot decision evicted after {n} cold decisions"
            );
        }
        assert_eq!(cache.sizes().decisions, CAP, "an overflow evicts one entry");
        assert_eq!(
            cache.stats().evicted_decisions,
            (1 + churn - CAP) as u64,
            "one eviction per store past the cap"
        );
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
        assert_eq!(cache.sizes().cq_pairs, 4);
        assert_eq!(cache.stats().evicted_cq_pairs, 6);
        let dropped = cache.clear();
        assert_eq!(dropped.cq_pairs, 4);
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
