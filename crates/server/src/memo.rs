//! Response memo: a bounded cache of complete decision results keyed by
//! the **exact request content**.
//!
//! The structural [`DecisionCache`](nonrec_equivalence::cache::DecisionCache)
//! makes a repeated decision cheap to *decide* — but a warm request still
//! pays to parse both programs, unfold the candidate, and canonicalise
//! every rule before it can so much as look the answer up.  On the wire
//! that re-canonicalisation is pure overhead: two byte-identical requests
//! are guaranteed to produce the same result payload (decisions are pure
//! functions of the request; the cache only changes how fast they are
//! answered, never what they answer — the differential suites lock this).
//!
//! So the serving layer memoises at the text level: the first execution of
//! a request stores its `result` payload here, and a byte-identical repeat
//! is answered **on the reader thread** — no worker-pool round trip, no
//! parsing beyond the request frame, no canonicalisation.  This is what
//! lets a pipelined warm client drain at memory speed instead of decision
//! speed (experiment E14's pipelined phases gate the ratio).
//!
//! Soundness boundaries, enforced by [`memo_key`]:
//!
//! * only the pure decision verbs (`containment`, `equivalence`, `bounded`,
//!   `optimize`, `minimize`, `rewrite`) are memoised — never `trace`,
//!   `stats`, `metrics_text`, the admin verbs, or batches (batch items
//!   re-enter the pool individually and carry their own ids);
//! * a request with `"no_cache": true` never touches the memo, matching
//!   the decision layer's own contract for that flag;
//! * the key is the complete debug rendering of the parsed command —
//!   every field that reaches the engine is part of the key, so no two
//!   requests that could differ in outcome can collide;
//! * error responses are not stored (a deadline expiry or resource-limit
//!   abort may succeed on retry with different load).
//!
//! The memo is process-global (like the `DecisionCache` it fronts),
//! bounded to [`MEMO_CAP`] entries by the same least-recently-used
//! [`Lru`] that bounds the `DecisionCache` segments, and cleared by the
//! `clear_cache` admin verb so "forget everything" keeps meaning what it
//! says.
//!
//! In front of it sits a second, even earlier layer — the [`LineMemo`] —
//! which answers *byte-identical request lines* before the JSON frame is
//! parsed at all; see its docs for why that inherits this module's
//! soundness argument.

use std::sync::{Mutex, OnceLock, PoisonError};

use nonrec_equivalence::lru::Lru;

use crate::json::Value;
use crate::protocol::Command;

/// Maximum number of memoised responses.  Result payloads are single-line
/// JSON values (typically well under a kilobyte; counterexamples a few),
/// so the memo's memory footprint stays in the low megabytes.
pub const MEMO_CAP: usize = 4096;

/// The memo key of a command: `Some` exactly when the command may be
/// memoised (see the module docs for the boundaries).
pub fn memo_key(command: &Command) -> Option<String> {
    let options = match command {
        Command::Containment { options, .. }
        | Command::Equivalence { options, .. }
        | Command::Bounded { options, .. }
        | Command::Optimize { options, .. }
        | Command::Minimize { options, .. }
        | Command::Rewrite { options, .. } => options,
        // `trace` is excluded deliberately: its payload is the *events* of
        // an actual run, and replaying a stored event list would report a
        // run that never happened (a cached repeat legitimately traces as a
        // single cache-hit decision span instead).
        Command::Trace { .. }
        | Command::MetricsText
        | Command::Batch { .. }
        | Command::Stats
        | Command::ClearCache
        | Command::CacheLimits { .. }
        | Command::SaveCache { .. }
        | Command::LoadCache { .. } => return None,
    };
    if !options.use_cache {
        return None;
    }
    // The derived debug rendering covers every field of every decision
    // variant (programs, goal, query, depth, flags, options), so equal keys
    // imply equal engine inputs.
    Some(format!("{command:?}"))
}

/// The bounded text-level result cache.  See the module docs.
pub struct ResponseMemo {
    inner: Mutex<Lru<str, Value>>,
}

impl Default for ResponseMemo {
    fn default() -> ResponseMemo {
        ResponseMemo::new()
    }
}

impl ResponseMemo {
    /// A fresh, empty memo (tests; the server uses [`ResponseMemo::global`]).
    pub fn new() -> ResponseMemo {
        ResponseMemo {
            inner: Mutex::new(Lru::new(Some(MEMO_CAP))),
        }
    }

    /// The process-wide memo every connection of every in-process server
    /// shares, mirroring `DecisionCache::global()`.
    pub fn global() -> &'static ResponseMemo {
        static GLOBAL: OnceLock<ResponseMemo> = OnceLock::new();
        GLOBAL.get_or_init(ResponseMemo::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<str, Value>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Recall the stored result payload for `key`, refreshing its LRU
    /// recency.
    pub fn lookup(&self, key: &str) -> Option<Value> {
        self.lock().get(key).cloned()
    }

    /// Store the result payload of a successfully executed command,
    /// evicting the least-recently-used entry when the memo is full.
    pub fn store(&self, key: String, result: &Value) {
        self.lock().insert(key, result.clone());
    }

    /// Forget everything (the `clear_cache` admin verb).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Number of memoised responses (the `stats` verb's gauge).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The raw-line front memo: complete rendered response **lines** keyed by
/// the exact bytes of the request line.
///
/// The [`ResponseMemo`] already spares a repeated decision its
/// canonicalisation — but the reader thread still parses the JSON frame
/// and re-derives the command key on every repeat.  A pipelined warm
/// burst is byte-identical line after byte-identical line, so even that
/// parse is pure overhead.  This memo answers such repeats with a stored
/// response line before the frame is parsed at all.
///
/// Soundness is inherited, not re-argued: a line is stored **only** after
/// that exact line was parsed, proved memoisable by [`memo_key`] (pure
/// decision verb, `use_cache` in force), and answered successfully.  A
/// `stats`, admin, batch, or `no_cache` line can therefore never be in
/// here.  The request `id` is part of the line bytes, so the stored
/// response echoes the right id by construction; decision responses are
/// pure functions of the line, so replaying one verbatim is exactly what
/// the wire contract promises.  Error responses are never stored, and the
/// `clear_cache` admin verb clears this memo along with the others.
///
/// Which traffic it serves: the key includes the `id`, so it hits only on
/// id-less or replayed byte-identical lines — the serve bench's pipelined
/// warm bursts (E14) and every `nonrec-replay` pass after the first.
/// There it is most of the warm speed: with lookup and store stubbed
/// out, the serve bench's single-client pipelined warm phase
/// (`NONREC_BENCH_FAST=1`, 2 cores) fell from 306k–348k to 65k–73k rps,
/// and its E14 gate (pipelined ≥ 5× round trip) failed at 2.0–3.9× in
/// three runs.  On unique-id traffic (the repository benchmark's
/// `warm_zipf` and `warm_routed`) it never hits, and each answered line
/// costs a store.  Behind `nonrec-route` it never hits at all: every
/// forwarded line carries a unique router id, even a replayed one.
pub struct LineMemo {
    inner: Mutex<Lru<str, (&'static str, String)>>,
}

impl Default for LineMemo {
    fn default() -> LineMemo {
        LineMemo::new()
    }
}

impl LineMemo {
    /// A fresh, empty memo (tests; the server uses [`LineMemo::global`]).
    pub fn new() -> LineMemo {
        LineMemo {
            inner: Mutex::new(Lru::new(Some(MEMO_CAP))),
        }
    }

    /// The process-wide instance, mirroring [`ResponseMemo::global`].
    pub fn global() -> &'static LineMemo {
        static GLOBAL: OnceLock<LineMemo> = OnceLock::new();
        GLOBAL.get_or_init(LineMemo::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<str, (&'static str, String)>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Recall the stored response line for a request line, refreshing its
    /// LRU recency.  Returns the verb too, so the caller can record the
    /// completion under the right name without parsing anything.
    pub fn lookup(&self, line: &str) -> Option<(&'static str, String)> {
        self.lock().get(line).cloned()
    }

    /// Store the rendered response line of a successfully executed,
    /// memoisable request line, evicting the least-recently-used line when
    /// the memo is full.
    pub fn store(&self, line: String, verb: &'static str, response: String) {
        self.lock().insert(line, (verb, response));
    }

    /// Forget everything (the `clear_cache` admin verb).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Number of memoised response lines (the `stats` verb's gauge).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    fn command_of(text: &str) -> Command {
        let value = crate::json::parse(text).unwrap();
        let Request { command, .. } = parse_request(&value, true).unwrap();
        command
    }

    #[test]
    fn decision_verbs_are_keyed_and_admin_verbs_are_not() {
        let containment = command_of(
            r#"{"op":"containment","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X)."}"#,
        );
        assert!(memo_key(&containment).is_some());
        // The new decision verbs are memoisable like the original four.
        for text in [
            r#"{"op":"minimize","query":"q(X) :- e(X, X)."}"#,
            r#"{"op":"rewrite","program":"p(X) :- e(X, X).","goal":"p"}"#,
        ] {
            assert!(memo_key(&command_of(text)).is_some(), "{text}");
        }
        // The observability and admin surfaces must never be: a memoised
        // `trace` would report a run that never happened, and a memoised
        // `stats`/`metrics_text`/admin response would freeze a live gauge.
        for text in [
            r#"{"op":"stats"}"#,
            r#"{"op":"clear_cache"}"#,
            r#"{"op":"cache_limits"}"#,
            r#"{"op":"save_cache","path":"x.nrdc"}"#,
            r#"{"op":"load_cache"}"#,
            r#"{"op":"batch","requests":[{"op":"stats"}]}"#,
            r#"{"op":"trace","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X)."}"#,
            r#"{"op":"metrics_text"}"#,
        ] {
            assert_eq!(memo_key(&command_of(text)), None, "{text}");
        }
    }

    #[test]
    fn no_cache_requests_bypass_the_memo() {
        let cached =
            command_of(r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#);
        let uncached = command_of(
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2,"options":{"no_cache":true}}"#,
        );
        assert!(memo_key(&cached).is_some());
        assert_eq!(memo_key(&uncached), None);
    }

    #[test]
    fn keys_separate_every_field_that_reaches_the_engine() {
        let base = r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#;
        let variants = [
            r#"{"op":"bounded","program":"p(X) :- e(X, Y).","goal":"p","max_depth":2}"#,
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":3}"#,
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2,"options":{"max_pairs":7}}"#,
        ];
        let base_key = memo_key(&command_of(base)).unwrap();
        for variant in variants {
            assert_ne!(
                memo_key(&command_of(variant)).unwrap(),
                base_key,
                "{variant}"
            );
        }
        // The id is correlation, not content: it must NOT split the key.
        let with_id =
            r#"{"id":7,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#;
        assert_eq!(memo_key(&command_of(with_id)).unwrap(), base_key);
    }

    #[test]
    fn line_memo_recalls_verbatim_and_evicts_lru() {
        let memo = LineMemo::new();
        memo.store(
            r#"{"id":1,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#
                .into(),
            "bounded",
            r#"{"id": 1, "ok": true}"#.into(),
        );
        // Only the exact bytes hit — a different id is a different line.
        assert_eq!(
            memo.lookup(
                r#"{"id":1,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#
            ),
            Some(("bounded", r#"{"id": 1, "ok": true}"#.to_string()))
        );
        assert_eq!(
            memo.lookup(
                r#"{"id":2,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#
            ),
            None
        );
        memo.clear();
        assert!(memo.is_empty());

        let memo = LineMemo::new();
        for i in 0..=MEMO_CAP {
            memo.store(format!("line{i}"), "bounded", format!("resp{i}"));
        }
        assert_eq!(memo.len(), MEMO_CAP, "the memo is bounded to MEMO_CAP");
        assert!(memo.lookup(&format!("line{MEMO_CAP}")).is_some());
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let memo = ResponseMemo::new();
        for i in 0..=MEMO_CAP {
            memo.store(format!("k{i}"), &Value::num(i as f64));
        }
        assert_eq!(memo.len(), MEMO_CAP, "the memo is bounded to MEMO_CAP");
        assert_eq!(
            memo.lookup(&format!("k{MEMO_CAP}")),
            Some(Value::num(MEMO_CAP as f64))
        );
        memo.clear();
        assert!(memo.is_empty());
    }
}
