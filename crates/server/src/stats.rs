//! Server observability: request counters and per-verb latency histograms.
//!
//! The `stats` verb renders a snapshot of these next to the
//! [`nonrec_equivalence::cache::DecisionCache`] counters, so a client can
//! watch the cache amortise across requests (`tests/server.rs` asserts the
//! ≥ 90 % hit rate of a repeated batch exactly this way).
//!
//! Histograms use power-of-two microsecond buckets: bucket `i` counts
//! latencies in `[2^i, 2^(i+1))` µs.  That is coarse, cheap, lock-friendly,
//! and plenty for the quantiles the `stats` verb reports.

use std::sync::Mutex;

use nonrec_equivalence::cache::DecisionCache;

use crate::json::{obj, Value};

/// Number of power-of-two buckets; the last one absorbs everything from
/// `2^30` µs (≈ 18 minutes) up.
const BUCKETS: usize = 31;

/// A latency histogram over power-of-two microsecond buckets.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_micros: u128,
    max_micros: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_micros: 0,
            max_micros: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&mut self, micros: u128) {
        let bucket = (128 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        // Saturating: one absurd observation (the clock stepping, a u128
        // cast gone wrong) must pin the running total, not panic the worker.
        self.total_micros = self.total_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound (in µs) of the bucket containing the `q`-quantile
    /// observation, or 0 when empty.  `q` in `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> u128 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The last bucket is open-ended (it absorbs everything from
                // 2^(BUCKETS-1) µs up), so `2^(i+1)` would *understate* a
                // quantile landing there — an 18-hour outlier would report
                // as ~36 minutes.  The observed maximum is the honest upper
                // bound for that bucket.
                return if i + 1 == BUCKETS {
                    self.max_micros
                } else {
                    1u128 << (i + 1)
                };
            }
        }
        self.max_micros
    }

    /// The raw bucket counts: bucket `i` counts latencies in
    /// `[2^i, 2^(i+1))` µs, except the last, which absorbs everything
    /// above it (so a text exposition renders it as `+Inf`).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Sum of every observed latency, in µs (a Prometheus `_sum`).
    pub fn total_micros(&self) -> u128 {
        self.total_micros
    }

    fn to_json(&self) -> Value {
        let mean = if self.count == 0 {
            0
        } else {
            self.total_micros / self.count as u128
        };
        obj(vec![
            ("count", Value::num(self.count as f64)),
            ("mean_micros", Value::num(mean as f64)),
            (
                "p50_micros",
                Value::num(self.quantile_upper_bound(0.5) as f64),
            ),
            (
                "p99_micros",
                Value::num(self.quantile_upper_bound(0.99) as f64),
            ),
            ("max_micros", Value::num(self.max_micros as f64)),
        ])
    }
}

/// The verbs with their own histogram, in render order.
pub const VERBS: [&str; 14] = [
    "containment",
    "equivalence",
    "bounded",
    "optimize",
    "minimize",
    "rewrite",
    "trace",
    "batch",
    "stats",
    "metrics_text",
    "clear_cache",
    "cache_limits",
    "save_cache",
    "load_cache",
];

#[derive(Debug, Default)]
struct Inner {
    requests: u64,
    responses_ok: u64,
    responses_err: u64,
    busy_rejected: u64,
    deadline_expired: u64,
    invalid_json: u64,
    line_too_long: u64,
    conn_limit_rejected: u64,
    conn_limit_reject_write_errors: u64,
    memo_hits: u64,
    inflight: u64,
    max_inflight: u64,
    per_verb: [LatencyHistogram; 14],
}

/// Shared counters and histograms; one instance per server, updated by the
/// connection threads and the worker pool.
#[derive(Debug, Default)]
pub struct ServerStats {
    inner: Mutex<Inner>,
}

impl ServerStats {
    /// A fresh, zeroed instance.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// Count an arriving request line (before any parsing).
    pub fn record_request(&self) {
        self.lock().requests += 1;
    }

    /// Count a line that was not valid JSON.
    pub fn record_invalid_json(&self) {
        self.lock().invalid_json += 1;
    }

    /// Count a request rejected before any verb could be identified
    /// (unparseable JSON, malformed request object).  Bumps the error
    /// response counter only — there is no verb to attribute a latency
    /// sample to, and fabricating one under an empty-string key would
    /// quietly skew whatever aggregation consumes the histograms.
    pub fn record_rejected_response(&self) {
        self.lock().responses_err += 1;
    }

    /// Count a request line that exceeded [`crate::server::MAX_LINE_BYTES`].
    /// A framing failure like `invalid_json`: its own counter, an error
    /// response, and **no** per-verb latency sample.
    pub fn record_line_too_long(&self) {
        let mut inner = self.lock();
        inner.line_too_long += 1;
        inner.responses_err += 1;
    }

    /// Count a job entering the worker pool.  Together with
    /// [`ServerStats::record_retired`] this tracks the pipelining depth: how
    /// many decisions are queued or running right now, and the deepest that
    /// backlog has ever been.
    pub fn record_dispatched(&self) {
        let mut inner = self.lock();
        inner.inflight += 1;
        inner.max_inflight = inner.max_inflight.max(inner.inflight);
    }

    /// Count a job leaving the worker pool (answered, expired, or panicked
    /// — every dispatched job retires exactly once).
    pub fn record_retired(&self) {
        let mut inner = self.lock();
        inner.inflight = inner.inflight.saturating_sub(1);
    }

    /// Count a request rejected with `busy` (queue full).
    pub fn record_busy(&self) {
        let mut inner = self.lock();
        inner.busy_rejected += 1;
        inner.responses_err += 1;
    }

    /// Count a request whose deadline expired before a worker reached it.
    /// Counts as an error response but records **no** latency sample — the
    /// histograms hold genuine service times only.
    pub fn record_deadline_expired(&self) {
        let mut inner = self.lock();
        inner.deadline_expired += 1;
        inner.responses_err += 1;
    }

    /// Count a connection turned away at the accept loop (`--max-conns`
    /// reached).  The rejected connection got exactly one
    /// `connection_limit_exceeded` error line.  Deliberately **not**
    /// counted in `responses_err`: no request line was ever read, so
    /// folding rejections into the response counters would let
    /// `responses_ok + responses_err` exceed `requests` under a
    /// connection storm and wreck any error-rate computed from them.
    pub fn record_conn_limit_rejected(&self) {
        self.lock().conn_limit_rejected += 1;
    }

    /// Total connections rejected at the accept loop so far.
    pub fn conn_limit_rejected(&self) -> u64 {
        self.lock().conn_limit_rejected
    }

    /// Count a connection-limit rejection line that could not be written
    /// (the peer vanished first).  Previously discarded silently, which
    /// made "clients hang with no error line" indistinguishable from a
    /// wedged server.
    pub fn record_conn_limit_reject_write_error(&self) {
        self.lock().conn_limit_reject_write_errors += 1;
    }

    /// A request answered from the text-level response memo on the reader
    /// thread — no pool dispatch, no decision work.
    pub fn record_memo_hit(&self) {
        self.lock().memo_hits += 1;
    }

    /// Record a completed execution of `verb` (success or error response),
    /// with its service latency.
    pub fn record_completion(&self, verb: &str, micros: u128, ok: bool) {
        let mut inner = self.lock();
        if ok {
            inner.responses_ok += 1;
        } else {
            inner.responses_err += 1;
        }
        if let Some(i) = VERBS.iter().position(|v| *v == verb) {
            inner.per_verb[i].record(micros);
        }
    }

    /// Total `busy` rejections so far (used by the backpressure tests).
    pub fn busy_rejected(&self) -> u64 {
        self.lock().busy_rejected
    }

    /// The per-verb latency histograms, cloned, in [`VERBS`] order — the
    /// text exposition renders them outside the stats lock.
    pub fn verb_histograms(&self) -> Vec<(&'static str, LatencyHistogram)> {
        let inner = self.lock();
        VERBS
            .iter()
            .copied()
            .zip(inner.per_verb.iter().cloned())
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Render the `stats` verb payload: server counters, per-verb latency
    /// histograms, and the shared decision-cache statistics.
    pub fn snapshot_json(&self, cache: &DecisionCache) -> Value {
        let cache_stats = cache.stats();
        let sizes = cache.sizes();
        let limits = crate::protocol::cache_limits_json(cache.limits());
        let registry = metrics::global::snapshot();
        let inner = self.lock();
        let verbs = VERBS
            .iter()
            .zip(inner.per_verb.iter())
            .map(|(name, h)| (name.to_string(), h.to_json()))
            .collect();
        obj(vec![
            (
                "server",
                obj(vec![
                    ("requests", Value::num(inner.requests as f64)),
                    ("responses_ok", Value::num(inner.responses_ok as f64)),
                    ("responses_err", Value::num(inner.responses_err as f64)),
                    ("busy_rejected", Value::num(inner.busy_rejected as f64)),
                    (
                        "deadline_expired",
                        Value::num(inner.deadline_expired as f64),
                    ),
                    ("invalid_json", Value::num(inner.invalid_json as f64)),
                    ("line_too_long", Value::num(inner.line_too_long as f64)),
                    (
                        "conn_limit_rejected",
                        Value::num(inner.conn_limit_rejected as f64),
                    ),
                    (
                        "conn_limit_reject_write_errors",
                        Value::num(inner.conn_limit_reject_write_errors as f64),
                    ),
                    ("memo_hits", Value::num(inner.memo_hits as f64)),
                    (
                        "memo_entries",
                        Value::num(crate::memo::ResponseMemo::global().len() as f64),
                    ),
                    (
                        "memo_line_entries",
                        Value::num(crate::memo::LineMemo::global().len() as f64),
                    ),
                    ("inflight", Value::num(inner.inflight as f64)),
                    ("max_inflight", Value::num(inner.max_inflight as f64)),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", Value::num(cache_stats.hits as f64)),
                    ("misses", Value::num(cache_stats.misses as f64)),
                    (
                        "pairs_explored",
                        Value::num(cache_stats.pairs_explored as f64),
                    ),
                    ("pairs_saved", Value::num(cache_stats.pairs_saved as f64)),
                    ("entries", Value::num(sizes.total() as f64)),
                    ("decision_entries", Value::num(sizes.decisions as f64)),
                    ("cq_pair_entries", Value::num(sizes.cq_pairs as f64)),
                    (
                        "cq_in_program_entries",
                        Value::num(sizes.cq_in_program as f64),
                    ),
                    ("evictions", Value::num(cache_stats.evictions() as f64)),
                    (
                        "evicted_decisions",
                        Value::num(cache_stats.evicted_decisions as f64),
                    ),
                    (
                        "evicted_cq_pairs",
                        Value::num(cache_stats.evicted_cq_pairs as f64),
                    ),
                    (
                        "evicted_cq_in_program",
                        Value::num(cache_stats.evicted_cq_in_program as f64),
                    ),
                    ("limits", limits),
                ]),
            ),
            // The engine metrics (fixpoint, containment, decision layers)
            // and the strategy tallies, both rendered from the one counter
            // registry the text exposition iterates, so the surfaces cannot
            // drift.
            ("metrics", crate::metrics::metrics_json(&registry)),
            ("verbs", Value::Obj(verbs)),
            (
                "strategy_decisions",
                crate::metrics::block_json(&registry, "strategy_decisions"),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        for micros in [1u128, 2, 3, 4, 100, 1000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 6);
        // p50 of {1,2,3,4,100,1000}: the 3rd observation (3µs) lives in
        // bucket [2,4) whose upper bound is 4.
        assert_eq!(h.quantile_upper_bound(0.5), 4);
        assert!(h.quantile_upper_bound(1.0) >= 1000);
    }

    #[test]
    fn histogram_boundaries_land_in_stable_buckets() {
        // 0 µs records like 1 µs: bucket 0, the [1, 2) bucket.
        let mut h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.quantile_upper_bound(1.0), 2);

        // Exact powers of two open their own bucket: 2^i lands in bucket i
        // (the [2^i, 2^(i+1)) bucket), never the one below.
        for i in 0..(BUCKETS - 1) {
            let mut h = LatencyHistogram::default();
            h.record(1u128 << i);
            assert_eq!(h.bucket_counts()[i], 1, "2^{i} must land in bucket {i}");
            // And one less than a power of two stays below the boundary.
            if i > 0 {
                let mut h = LatencyHistogram::default();
                h.record((1u128 << i) - 1);
                assert_eq!(h.bucket_counts()[i - 1], 1, "2^{i}-1 in bucket {}", i - 1);
            }
        }

        // Everything from 2^(BUCKETS-1) up clamps into the last bucket.
        let mut h = LatencyHistogram::default();
        h.record(1u128 << (BUCKETS - 1));
        h.record(u64::MAX as u128);
        h.record(u128::MAX);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 3);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn quantiles_in_the_overflow_bucket_report_the_observed_max() {
        // A quantile landing in the open-ended last bucket must answer the
        // observed maximum, not the bucket's nominal 2^BUCKETS bound (which
        // would *understate* the latency the operator is chasing).
        let mut h = LatencyHistogram::default();
        let outlier = (u64::MAX as u128) / 2;
        h.record(outlier);
        assert_eq!(h.quantile_upper_bound(0.5), outlier);
        assert_eq!(h.quantile_upper_bound(1.0), outlier);
        // Mixed: the median stays in a closed bucket with its 2^(i+1)
        // bound, while the tail quantile reports the true max.
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(3);
        }
        h.record(outlier);
        assert_eq!(h.quantile_upper_bound(0.5), 4);
        assert_eq!(h.quantile_upper_bound(1.0), outlier);
        // Monotonicity across the boundary: p(q) never decreases in q.
        let quantiles: Vec<u128> = [0.1, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|q| h.quantile_upper_bound(*q))
            .collect();
        assert!(quantiles.windows(2).all(|w| w[0] <= w[1]), "{quantiles:?}");
    }

    #[test]
    fn snapshot_reports_counters_and_cache() {
        let stats = ServerStats::new();
        stats.record_request();
        stats.record_request();
        stats.record_completion("equivalence", 250, true);
        stats.record_completion("equivalence", 2500, false);
        stats.record_busy();
        stats.record_invalid_json();
        let cache = DecisionCache::new();
        let snapshot = stats.snapshot_json(&cache);
        let server = snapshot.get("server").unwrap();
        assert_eq!(server.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(server.get("responses_ok").unwrap().as_u64(), Some(1));
        assert_eq!(server.get("responses_err").unwrap().as_u64(), Some(2));
        assert_eq!(server.get("busy_rejected").unwrap().as_u64(), Some(1));
        assert_eq!(server.get("invalid_json").unwrap().as_u64(), Some(1));
        let verb = snapshot.get("verbs").unwrap().get("equivalence").unwrap();
        assert_eq!(verb.get("count").unwrap().as_u64(), Some(2));
        // The per-strategy decision tallies are present for every strategy.
        let strategies = snapshot.get("strategy_decisions").unwrap();
        for name in [
            "naive",
            "semi_naive",
            "indexed",
            "magic",
            "auto_magic",
            "auto_indexed",
        ] {
            assert!(
                strategies.get(name).unwrap().as_u64().is_some(),
                "missing strategy counter `{name}`"
            );
        }
        assert_eq!(
            snapshot
                .get("cache")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
