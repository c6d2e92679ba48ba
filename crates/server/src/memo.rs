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
//! which answers a request line before the JSON frame is parsed at all,
//! keyed on the line's bytes after its leading id ([`split_line_id`]); see
//! its docs for why that inherits this module's soundness argument.

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

/// How every response — and every line memo key — begins.
const ID_PREFIX: &str = "{\"id\":";

/// Cut a request line into its leading id token and its [`LineMemo`] key.
///
/// A line that starts `{"id":`, then a canonical token (1–15 digits with no
/// leading zero, or a string holding no `"`, no `\` and no control byte),
/// then `,` splits into that token and its bytes from the comma on.  Any
/// other line is its own key, with the token `null`.  A line that begins
/// with `,` gives `None`: it could collide with a cut key, and it is not
/// JSON anyway.
pub fn split_line_id(line: &str) -> Option<(&str, &str)> {
    if line.starts_with(',') {
        return None;
    }
    if let Some(rest) = line.strip_prefix(ID_PREFIX) {
        let len = canonical_id_len(rest.as_bytes());
        if len > 0 && rest.as_bytes().get(len) == Some(&b',') {
            return Some(rest.split_at(len));
        }
    }
    Some(("null", line))
}

/// `{"id":` + `id` + `tail`: a response (or request) line with `id` spliced
/// in front of the bytes [`split_line_id`] cut after the old one.  The one
/// splice of the line memo's hits and of both directions of
/// `nonrec-route`.
pub fn splice_id(id: &str, tail: &str) -> String {
    let mut line = String::with_capacity(ID_PREFIX.len() + id.len() + tail.len());
    line.push_str(ID_PREFIX);
    line.push_str(id);
    line.push_str(tail);
    line
}

/// The length of the canonical id token `bytes` starts with, or 0.
fn canonical_id_len(bytes: &[u8]) -> usize {
    match bytes.first() {
        Some(b'0') => 1,
        Some(b'1'..=b'9') => {
            let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
            if digits <= 15 {
                digits
            } else {
                0
            }
        }
        Some(b'"') => bytes[1..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .filter(|&end| bytes[1 + end] == b'"')
            .map_or(0, |end| end + 2),
        _ => 0,
    }
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
    /// evicting the least-recently-used entry when the memo is full.  A
    /// store never replaces a resident payload: it returns that payload
    /// instead, so two computations of one command in flight at once
    /// answer alike (see the pool's `settle`).
    pub fn store(&self, key: String, result: &Value) -> Option<Value> {
        let mut memo = self.lock();
        if let Some(resident) = memo.get(&key) {
            return Some(resident.clone());
        }
        memo.insert(key, result.clone());
        None
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

/// The raw-line front memo: rendered response lines keyed by the request
/// line's bytes **after its leading id**, answered with that id spliced
/// back in.
///
/// The [`ResponseMemo`] already spares a repeated decision its
/// canonicalisation — but the reader thread still parses the JSON frame,
/// re-derives the command key and renders a response on every repeat.
/// Warm traffic repeats a handful of commands under ever-new ids, so that
/// work is pure overhead too.  This memo answers such repeats from a
/// stored response before the frame is parsed at all.
///
/// The key is what [`split_line_id`] cuts: a line that starts `{"id":`,
/// then a *canonical* id token, then `,` keys on its bytes from that comma
/// on.  A canonical token is 1–15 digits with no leading zero, or a string
/// holding no `"`, no `\` and no control byte — exactly the ids the
/// response writer renders back verbatim.  Any other line keys on all of
/// itself with the id `null`, and a line that begins with `,` (the shape
/// of a cut key) is never looked up, so the two key forms stay disjoint.
/// The stored value is the verb and the response bytes after
/// `{"id":<token>`; a hit answers `{"id":` + its own token + those bytes.
///
/// Soundness is inherited, not re-argued: a line is stored **only** after
/// that line was parsed, proved memoisable by [`memo_key`] (pure decision
/// verb, `use_cache` in force), and answered successfully, and only when
/// the rendered response starts with `{"id":` + the line's own token + `,`.
/// That check proves the leading token was the id the parse path echoes
/// (its first-wins field lookup decides), which makes duplicate `id` keys,
/// `"id":null` and id-less lines with a later `id` safe.  Swapping one
/// canonical scalar for another keeps the line valid JSON with the same
/// parsed command, and [`memo_key`] ignores the id, so every line under a
/// key would compute the stored answer.  A `stats`, admin, batch, or
/// `no_cache` line can never be in here; error responses are never
/// stored, a store never replaces a resident entry, and the `clear_cache`
/// admin verb clears this memo along with the others.
///
/// Which traffic it serves: every warm repeat whose id is canonical — the
/// repository benchmark's unique-id `warm_zipf` stream, id-less pipelined
/// bursts (E14), `nonrec-replay` passes after the first, and the lines
/// `nonrec-route` forwards: it installs an integer router id, which is
/// canonical, as the first field of every line, in place of a client's
/// canonical leading id and in front of any other line's fields, so an
/// id-less routed line keys like a direct one.  With
/// lookup and store stubbed out, the serve bench's single-client
/// pipelined warm phase (`NONREC_BENCH_FAST=1`, 2 cores) fell from
/// 306k–348k to 65k–73k rps, and its E14 gate (pipelined ≥ 5× round trip)
/// failed at 2.0–3.9× in three runs.
///
/// [`LineMemo::lookup`] and [`LineMemo::store`] take the key as given;
/// the server goes through [`LineMemo::recall_line`] and
/// [`LineMemo::remember_line`], which cut it.
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

    /// Recall the verb and response stored under `key`, refreshing its
    /// LRU recency.
    pub fn lookup(&self, key: &str) -> Option<(&'static str, String)> {
        self.lock().get(key).cloned()
    }

    /// Store a verb and response under `key`, evicting the
    /// least-recently-used entry when the memo is full.  A resident entry
    /// is kept as it is.
    pub fn store(&self, key: String, verb: &'static str, response: String) {
        let mut memo = self.lock();
        if memo.get(&key).is_none() {
            memo.insert(key, (verb, response));
        }
    }

    /// Answer a request line from the memo: its stored response with the
    /// line's own id spliced in.  Returns the verb too, so the caller can
    /// record the completion under the right name without parsing
    /// anything.
    pub fn recall_line(&self, line: &str) -> Option<(&'static str, String)> {
        let (id, key) = split_line_id(line)?;
        let mut memo = self.lock();
        let (verb, tail) = memo.get(key)?;
        Some((*verb, splice_id(id, tail)))
    }

    /// Store the rendered response of a successfully executed, memoisable
    /// request line — when the response echoes the line's leading id token
    /// (see the type docs).
    pub fn remember_line(&self, line: &str, verb: &'static str, response: &str) {
        let Some((id, key)) = split_line_id(line) else {
            return;
        };
        let tail = response
            .strip_prefix(ID_PREFIX)
            .and_then(|rest| rest.strip_prefix(id))
            .filter(|tail| tail.starts_with(','));
        if let Some(tail) = tail {
            self.store(key.to_string(), verb, tail.to_string());
        }
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
    fn line_ids_split_only_when_rendered_back_verbatim() {
        let rest = r#","op":"stats"}"#;
        for id in [
            "0",
            "7",
            "999999999999999",
            r#""t0-00001""#,
            r#""""#,
            r#""é✓""#,
        ] {
            let line = format!(r#"{{"id":{id}{rest}"#);
            assert_eq!(split_line_id(&line), Some((id, rest)), "{line}");
        }
        for id in [
            "1.0",
            "-1",
            "007",
            "1e2",
            "1234567890123456",
            "null",
            "true",
            "{}",
            r#""a\"b""#,
            r#""\u0041""#,
            "\"a\tb\"",
            " 5",
        ] {
            let line = format!(r#"{{"id":{id}{rest}"#);
            assert_eq!(
                split_line_id(&line),
                Some(("null", line.as_str())),
                "{line}"
            );
        }
        assert_eq!(split_line_id(rest), None, "a cut key never looks up");
    }

    #[test]
    fn line_memo_splices_ids_and_stores_only_echoed_ones() {
        let memo = LineMemo::new();
        let line = |id: &str| {
            format!(
                r#"{{"id":{id},"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}}"#
            )
        };
        let answer = |id: &str| format!(r#"{{"id":{id},"ok":true,"verb":"bounded","result":1}}"#);
        // A response that echoes another id than the leading token is not
        // stored (a later duplicate `id` key won the parse).
        memo.remember_line(&line("1"), "bounded", &answer("2"));
        assert!(memo.is_empty());
        memo.remember_line(&line("1"), "bounded", &answer("1"));
        assert_eq!(
            memo.recall_line(&line(r#""x""#)),
            Some(("bounded", answer(r#""x""#)))
        );
        // A non-canonical id keys on the whole line and misses.
        assert_eq!(memo.recall_line(&line("1.0")), None);
        // A store never replaces a resident entry.
        memo.remember_line(&line("3"), "bounded", &answer("3").replace(":1}", ":2}"));
        assert_eq!(memo.recall_line(&line("4")), Some(("bounded", answer("4"))));
        // An id-less line keys on itself and answers with `null`.
        let idless = r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#;
        memo.remember_line(idless, "bounded", &answer("null"));
        assert_eq!(memo.recall_line(idless), Some(("bounded", answer("null"))));
        assert_eq!(memo.len(), 2);
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
