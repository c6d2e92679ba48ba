//! The wire protocol: request/response shapes and their JSON codecs.
//!
//! Every request and every response is one JSON object on one line (see
//! [`crate::server`] for the framing).  A request names its verb in `op`
//! and may carry a client-chosen `id`, which is echoed verbatim in the
//! response so pipelined clients can correlate:
//!
//! ```text
//! {"op":"equivalence","id":1,"program":"...","goal":"buys","candidate":"..."}
//! {"id":1,"ok":true,"verb":"equivalence","result":{"equivalent":true,...}}
//! {"id":1,"ok":false,"error":{"code":"parse_error","message":"..."}}
//! ```
//!
//! Verbs: `containment`, `equivalence`, `bounded`, `optimize`, `minimize`
//! (CQ/UCQ minimisation through the shared decision cache), `rewrite`
//! (recursion elimination, returning the equivalent nonrecursive program
//! when one exists within the probed depth), `batch`, `stats`, the
//! observability pair `trace` (a containment decision run at an explicit
//! [`MetricsLevel`], returning its recorded events) and `metrics_text`
//! (Prometheus-style text exposition), plus the admin family
//! `clear_cache`, `cache_limits`, `save_cache`, `load_cache` (executed
//! off-pool, see [`crate::admin`]).  The `containment`, `trace`, and
//! `equivalence` verbs accept `options.provenance`, which attaches the
//! witness proof tree as structured JSON to any counterexample.  Error `code`s are stable
//! strings: transport-level (`invalid_json`, `bad_request`, `busy`,
//! `deadline_exceeded`, `connection_limit_exceeded`), parse-level
//! (`parse_error`, `mixed_arity`, `empty_query`), decision-level (the
//! [`nonrec_equivalence`] error codes such as `unknown_goal`,
//! `recursive_candidate`, `resource_limit`), and admin-level (`io_error`,
//! `snapshot_error`).  `docs/WIRE_PROTOCOL.md` documents every field of
//! every verb, with one request/response example each.

use metrics::MetricsLevel;
use nonrec_equivalence::cache::CacheLimits;

use crate::json::{obj, Value};

/// Most sub-requests one `batch` may carry: a batch occupies one queue
/// slot and one worker, so its size must be bounded for the queue bound to
/// mean anything.
pub const MAX_BATCH_REQUESTS: usize = 256;

/// Largest `max_events` a `trace` request may ask for.  Every retained
/// event becomes JSON in a single response line, so an unbounded budget
/// would let one request ask the server to render an arbitrarily large
/// line; past this cap the `truncated`/`dropped` fields tell the client
/// what the run would have emitted.
pub const MAX_TRACE_EVENTS: usize = 65_536;

/// A transportable error: a stable machine-readable code plus a
/// human-readable message.  The protocol layer speaks only these; library
/// errors are converted via their `code()` accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Stable error code (see the module docs for the vocabulary).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// A `bad_request` error (malformed or missing fields).
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError::new("bad_request", message)
    }
}

/// Per-request decision knobs, all optional on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestOptions {
    /// Consult the shared decision cache (`"no_cache": true` disables).
    pub use_cache: bool,
    /// Abort tree containment after this many product pairs.
    pub max_pairs: Option<usize>,
    /// Per-request deadline override, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Attach the witness proof tree as structured JSON to any
    /// counterexample (`"provenance": true`).  Only the `containment`,
    /// `trace`, and `equivalence` verbs produce counterexamples; elsewhere
    /// the flag is accepted and ignored.
    pub provenance: bool,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            use_cache: true,
            max_pairs: None,
            timeout_ms: None,
            provenance: false,
        }
    }
}

/// A parsed request: one verb plus its payload.  Program, query, and
/// candidate texts stay unparsed here — Datalog parsing happens on a worker
/// thread, not on the connection thread.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Decide `Π(goal) ⊆ Θ` for a UCQ `Θ`.
    Containment {
        /// Datalog program text.
        program: String,
        /// Goal predicate name.
        goal: String,
        /// UCQ text, one rule per line.
        query: String,
        /// Decision knobs.
        options: RequestOptions,
    },
    /// Decide `Π ≡ Π'` for a nonrecursive candidate Π'.
    Equivalence {
        /// Datalog program text.
        program: String,
        /// Goal predicate name.
        goal: String,
        /// Nonrecursive candidate program text.
        candidate: String,
        /// Decision knobs.
        options: RequestOptions,
    },
    /// Find the least depth at which the program is bounded, if any.
    Bounded {
        /// Datalog program text.
        program: String,
        /// Goal predicate name.
        goal: String,
        /// Largest unfolding depth to probe.
        max_depth: usize,
        /// Decision knobs.
        options: RequestOptions,
    },
    /// Run the optimisation pipeline and return the rewritten program.
    Optimize {
        /// Datalog program text.
        program: String,
        /// Goal predicate name.
        goal: String,
        /// Run the body-minimisation pass.
        minimize_bodies: bool,
        /// Run the subsumed-rule-removal pass.
        remove_subsumed: bool,
        /// Inline non-recursive predicates.
        inline_nonrecursive: bool,
        /// Decision knobs (only `timeout_ms` applies to this verb; the
        /// optimisation passes are bounded by input-size caps instead of
        /// `max_pairs`, see [`crate::engine`]).
        options: RequestOptions,
    },
    /// Minimise a UCQ: compute the core of every disjunct and drop
    /// subsumed disjuncts, deciding CQ containment through the shared
    /// decision cache.
    Minimize {
        /// UCQ text, one rule per line.
        query: String,
        /// Decision knobs (only `timeout_ms` applies; the containment
        /// oracle is bounded by input-size caps, see [`crate::engine`]).
        options: RequestOptions,
    },
    /// Eliminate recursion: find the least depth at which the program is
    /// bounded and return the equivalent nonrecursive program, if any.
    Rewrite {
        /// Datalog program text.
        program: String,
        /// Goal predicate name.
        goal: String,
        /// Largest unfolding depth to probe.
        max_depth: usize,
        /// Decision knobs.
        options: RequestOptions,
    },
    /// Run a containment decision at an explicit metrics level and return
    /// the structured events it recorded (the observability verb; see
    /// [`nonrec_equivalence::containment::datalog_contained_in_ucq_in`]).
    Trace {
        /// Datalog program text.
        program: String,
        /// Goal predicate name.
        goal: String,
        /// UCQ text, one rule per line.
        query: String,
        /// How much detail to record (`"off"`, `"counters"`, `"debug"`,
        /// `"trace"`).
        level: MetricsLevel,
        /// Keep at most this many events; the rest are counted in the
        /// response's `dropped` field and flagged by `truncated`.
        max_events: usize,
        /// Decision knobs.
        options: RequestOptions,
    },
    /// Render the process-wide metrics counters and the per-verb latency
    /// histograms as Prometheus-style text exposition.  Answered on the
    /// connection thread like `stats` (scrapes must survive a saturated
    /// pool).
    MetricsText,
    /// Answer a list of sub-requests in order (one queue slot, one worker).
    Batch {
        /// The sub-requests; at most [`MAX_BATCH_REQUESTS`], nesting
        /// rejected at parse time.
        requests: Vec<Request>,
        /// Deadline for the whole batch; re-checked between items, so an
        /// expired batch stops computing and answers `deadline_exceeded`
        /// for its remaining items.
        timeout_ms: Option<u64>,
    },
    /// Report cache statistics and per-verb latency histograms.
    Stats,
    /// Drop every entry of the shared decision cache, reporting how many
    /// were held per segment.  Admin verb — answered on the connection
    /// thread, never queued.
    ClearCache,
    /// Read (no `set` field) or replace (`set` object) the cache's
    /// per-segment capacity limits.  Setting enforces immediately.
    CacheLimits {
        /// The limits to install; `None` is a pure read.  In a `set`
        /// object, an absent/`null` segment cap means unbounded.
        set: Option<CacheLimits>,
    },
    /// Persist the shared cache to a snapshot file on the **server's**
    /// filesystem (`path`, or the server's `--cache-file` default).
    SaveCache {
        /// Target path; `None` falls back to the configured default.
        path: Option<String>,
    },
    /// Merge a snapshot file into the live cache (warm start on demand).
    LoadCache {
        /// Source path; `None` falls back to the configured default.
        path: Option<String>,
    },
}

impl Command {
    /// The verb name, as it appears in `op` and in the `stats` histograms.
    pub fn verb(&self) -> &'static str {
        match self {
            Command::Containment { .. } => "containment",
            Command::Equivalence { .. } => "equivalence",
            Command::Bounded { .. } => "bounded",
            Command::Optimize { .. } => "optimize",
            Command::Minimize { .. } => "minimize",
            Command::Rewrite { .. } => "rewrite",
            Command::Trace { .. } => "trace",
            Command::MetricsText => "metrics_text",
            Command::Batch { .. } => "batch",
            Command::Stats => "stats",
            Command::ClearCache => "clear_cache",
            Command::CacheLimits { .. } => "cache_limits",
            Command::SaveCache { .. } => "save_cache",
            Command::LoadCache { .. } => "load_cache",
        }
    }

    /// The per-request deadline override, when the verb carries one.
    pub fn timeout_ms(&self) -> Option<u64> {
        match self {
            Command::Containment { options, .. }
            | Command::Equivalence { options, .. }
            | Command::Bounded { options, .. }
            | Command::Optimize { options, .. }
            | Command::Minimize { options, .. }
            | Command::Rewrite { options, .. }
            | Command::Trace { options, .. } => options.timeout_ms,
            Command::Batch { timeout_ms, .. } => *timeout_ms,
            Command::Stats
            | Command::MetricsText
            | Command::ClearCache
            | Command::CacheLimits { .. }
            | Command::SaveCache { .. }
            | Command::LoadCache { .. } => None,
        }
    }

    /// True for the admin family (`clear_cache`, `cache_limits`,
    /// `save_cache`, `load_cache`): answered on the connection thread,
    /// rejected inside batches.
    pub fn is_admin(&self) -> bool {
        ADMIN_VERBS.contains(&self.verb())
    }
}

/// The cache-admin verbs.  `nonrec-serve` answers them on the connection
/// thread and refuses them inside batches; `nonrec-route` refuses them
/// outright (the cache is per-shard state).
pub(crate) const ADMIN_VERBS: [&str; 4] =
    ["clear_cache", "cache_limits", "save_cache", "load_cache"];

/// A request: the optional client correlation `id` plus the command.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response; `null`/absent are equivalent.
    pub id: Option<Value>,
    /// The verb and payload.
    pub command: Command,
}

/// Extract the correlation id of a request value, so error responses can
/// echo it even when the rest of the request does not parse.
pub fn request_id(value: &Value) -> Option<Value> {
    match value.get("id") {
        None | Some(Value::Null) => None,
        Some(other) => Some(other.clone()),
    }
}

fn required_str(value: &Value, key: &str) -> Result<String, WireError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::bad_request(format!("missing or non-string field `{key}`")))
}

fn optional_bool(value: &Value, key: &str) -> Result<bool, WireError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| WireError::bad_request(format!("field `{key}` must be a boolean"))),
    }
}

fn optional_u64(value: &Value, key: &str) -> Result<Option<u64>, WireError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            WireError::bad_request(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

fn optional_str(value: &Value, key: &str) -> Result<Option<String>, WireError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| WireError::bad_request(format!("field `{key}` must be a string"))),
    }
}

/// Parse the `set` object of a `cache_limits` request: each segment cap is
/// an optional non-negative integer, absent/`null` meaning unbounded.
fn parse_cache_limits(value: &Value) -> Result<Option<CacheLimits>, WireError> {
    let set = match value.get("set") {
        None | Some(Value::Null) => return Ok(None),
        Some(v @ Value::Obj(_)) => v,
        Some(_) => return Err(WireError::bad_request("field `set` must be an object")),
    };
    Ok(Some(CacheLimits {
        max_decisions: optional_u64(set, "max_decisions")?.map(|n| n as usize),
        max_cq_pairs: optional_u64(set, "max_cq_pairs")?.map(|n| n as usize),
        max_cq_in_program: optional_u64(set, "max_cq_in_program")?.map(|n| n as usize),
    }))
}

/// Parse the `level` field of a `trace` request (default: `debug`, the
/// level at which per-iteration and per-pop detail appears).
fn parse_level(value: &Value) -> Result<MetricsLevel, WireError> {
    match optional_str(value, "level")? {
        None => Ok(MetricsLevel::Debug),
        Some(name) => MetricsLevel::parse(&name).ok_or_else(|| {
            WireError::bad_request(format!(
                "unknown level `{name}` (expected off, counters, debug, or trace)"
            ))
        }),
    }
}

fn parse_options(value: &Value) -> Result<RequestOptions, WireError> {
    let options = match value.get("options") {
        None | Some(Value::Null) => return Ok(RequestOptions::default()),
        Some(v @ Value::Obj(_)) => v,
        Some(_) => return Err(WireError::bad_request("field `options` must be an object")),
    };
    Ok(RequestOptions {
        use_cache: !optional_bool(options, "no_cache")?,
        max_pairs: optional_u64(options, "max_pairs")?.map(|n| n as usize),
        timeout_ms: optional_u64(options, "timeout_ms")?,
        provenance: optional_bool(options, "provenance")?,
    })
}

/// Parse one request object.  `allow_batch` is false for the elements of a
/// batch, making nesting a `bad_request` instead of a recursion hazard.
pub fn parse_request(value: &Value, allow_batch: bool) -> Result<Request, WireError> {
    if !matches!(value, Value::Obj(_)) {
        return Err(WireError::bad_request("request must be a JSON object"));
    }
    let id = request_id(value);
    let op = required_str(value, "op")?;
    let command = match op.as_str() {
        "containment" => Command::Containment {
            program: required_str(value, "program")?,
            goal: required_str(value, "goal")?,
            query: required_str(value, "query")?,
            options: parse_options(value)?,
        },
        "equivalence" => Command::Equivalence {
            program: required_str(value, "program")?,
            goal: required_str(value, "goal")?,
            candidate: required_str(value, "candidate")?,
            options: parse_options(value)?,
        },
        "bounded" => Command::Bounded {
            program: required_str(value, "program")?,
            goal: required_str(value, "goal")?,
            max_depth: optional_u64(value, "max_depth")?.unwrap_or(8) as usize,
            options: parse_options(value)?,
        },
        "optimize" => Command::Optimize {
            program: required_str(value, "program")?,
            goal: required_str(value, "goal")?,
            minimize_bodies: !optional_bool(value, "no_minimize_bodies")?,
            remove_subsumed: !optional_bool(value, "no_remove_subsumed")?,
            inline_nonrecursive: optional_bool(value, "inline_nonrecursive")?,
            options: parse_options(value)?,
        },
        "minimize" => Command::Minimize {
            query: required_str(value, "query")?,
            options: parse_options(value)?,
        },
        "rewrite" => Command::Rewrite {
            program: required_str(value, "program")?,
            goal: required_str(value, "goal")?,
            max_depth: optional_u64(value, "max_depth")?.unwrap_or(8) as usize,
            options: parse_options(value)?,
        },
        "trace" => {
            let max_events = optional_u64(value, "max_events")?
                .map_or(metrics::DEFAULT_MAX_EVENTS, |n| n as usize);
            if max_events > MAX_TRACE_EVENTS {
                return Err(WireError::bad_request(format!(
                    "max_events {max_events} exceeds the limit of {MAX_TRACE_EVENTS}"
                )));
            }
            Command::Trace {
                program: required_str(value, "program")?,
                goal: required_str(value, "goal")?,
                query: required_str(value, "query")?,
                level: parse_level(value)?,
                max_events,
                options: parse_options(value)?,
            }
        }
        "metrics_text" => Command::MetricsText,
        "batch" => {
            if !allow_batch {
                return Err(WireError::bad_request("batches cannot be nested"));
            }
            let items = value
                .get("requests")
                .and_then(Value::as_arr)
                .ok_or_else(|| WireError::bad_request("missing or non-array field `requests`"))?;
            if items.len() > MAX_BATCH_REQUESTS {
                return Err(WireError::bad_request(format!(
                    "batch has {} requests; at most {MAX_BATCH_REQUESTS} are allowed",
                    items.len()
                )));
            }
            let requests = items
                .iter()
                .map(|item| parse_request(item, false))
                .collect::<Result<Vec<_>, _>>()?;
            if let Some(admin) = requests.iter().find(|r| r.command.is_admin()) {
                // Admin verbs are answered on the connection thread; inside
                // a batch they would run on a worker, dodging that
                // guarantee (and `clear_cache` mid-batch would make the
                // batch's own cache counters unreadable).
                return Err(WireError::bad_request(format!(
                    "admin verb `{}` cannot appear inside a batch",
                    admin.command.verb()
                )));
            }
            if let Some(unbatchable) = requests
                .iter()
                .find(|r| matches!(r.command, Command::Trace { .. } | Command::MetricsText))
            {
                // `metrics_text` is answered on the connection thread like
                // the admin verbs; `trace` responses can be enormous, and a
                // batch's single response line must not smuggle an
                // unbounded number of them past the per-line budget.
                return Err(WireError::bad_request(format!(
                    "verb `{}` cannot appear inside a batch",
                    unbatchable.command.verb()
                )));
            }
            Command::Batch {
                requests,
                timeout_ms: optional_u64(value, "timeout_ms")?,
            }
        }
        "stats" => Command::Stats,
        "clear_cache" => Command::ClearCache,
        "cache_limits" => Command::CacheLimits {
            set: parse_cache_limits(value)?,
        },
        "save_cache" => Command::SaveCache {
            path: optional_str(value, "path")?,
        },
        "load_cache" => Command::LoadCache {
            path: optional_str(value, "path")?,
        },
        other => {
            return Err(WireError::bad_request(format!("unknown op `{other}`")));
        }
    };
    Ok(Request { id, command })
}

fn id_field(id: &Option<Value>) -> Value {
    id.clone().unwrap_or(Value::Null)
}

/// Build a success response.
pub fn ok_response(id: &Option<Value>, verb: &str, result: Value) -> Value {
    obj(vec![
        ("id", id_field(id)),
        ("ok", Value::Bool(true)),
        ("verb", Value::str(verb)),
        ("result", result),
    ])
}

/// Build an error response.
pub fn error_response(id: &Option<Value>, error: &WireError) -> Value {
    obj(vec![
        ("id", id_field(id)),
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Value::str(error.code)),
                ("message", Value::str(&error.message)),
            ]),
        ),
    ])
}

// ---- Request builders (used by `server::client`, the tests, and the bench).

/// Build a `containment` request value.
pub fn containment_request(program: &str, goal: &str, query: &str) -> Value {
    obj(vec![
        ("op", Value::str("containment")),
        ("program", Value::str(program)),
        ("goal", Value::str(goal)),
        ("query", Value::str(query)),
    ])
}

/// Build an `equivalence` request value.
pub fn equivalence_request(program: &str, goal: &str, candidate: &str) -> Value {
    obj(vec![
        ("op", Value::str("equivalence")),
        ("program", Value::str(program)),
        ("goal", Value::str(goal)),
        ("candidate", Value::str(candidate)),
    ])
}

/// Build a `bounded` request value.
pub fn bounded_request(program: &str, goal: &str, max_depth: usize) -> Value {
    obj(vec![
        ("op", Value::str("bounded")),
        ("program", Value::str(program)),
        ("goal", Value::str(goal)),
        ("max_depth", Value::num(max_depth as f64)),
    ])
}

/// Build an `optimize` request value.
pub fn optimize_request(program: &str, goal: &str) -> Value {
    obj(vec![
        ("op", Value::str("optimize")),
        ("program", Value::str(program)),
        ("goal", Value::str(goal)),
    ])
}

/// Build a `minimize` request value.
pub fn minimize_request(query: &str) -> Value {
    obj(vec![
        ("op", Value::str("minimize")),
        ("query", Value::str(query)),
    ])
}

/// Build a `rewrite` request value.
pub fn rewrite_request(program: &str, goal: &str, max_depth: usize) -> Value {
    obj(vec![
        ("op", Value::str("rewrite")),
        ("program", Value::str(program)),
        ("goal", Value::str(goal)),
        ("max_depth", Value::num(max_depth as f64)),
    ])
}

/// Build a `trace` request value at an explicit level.
pub fn trace_request(program: &str, goal: &str, query: &str, level: &str) -> Value {
    obj(vec![
        ("op", Value::str("trace")),
        ("program", Value::str(program)),
        ("goal", Value::str(goal)),
        ("query", Value::str(query)),
        ("level", Value::str(level)),
    ])
}

/// Build a `metrics_text` request value.
pub fn metrics_text_request() -> Value {
    obj(vec![("op", Value::str("metrics_text"))])
}

/// Build a `batch` request value from sub-request values.
pub fn batch_request(requests: Vec<Value>) -> Value {
    obj(vec![
        ("op", Value::str("batch")),
        ("requests", Value::Arr(requests)),
    ])
}

/// Build a `stats` request value.
pub fn stats_request() -> Value {
    obj(vec![("op", Value::str("stats"))])
}

/// Build a `clear_cache` request value.
pub fn clear_cache_request() -> Value {
    obj(vec![("op", Value::str("clear_cache"))])
}

/// The one wire rendering of [`CacheLimits`]: a three-field object with
/// `null` for unbounded caps.  Shared by the `cache_limits` request
/// builder, the `cache_limits` response, and the `stats` verb's `limits`
/// block, so the shape cannot drift between the three surfaces.
pub fn cache_limits_json(limits: CacheLimits) -> Value {
    let cap = |c: Option<usize>| c.map_or(Value::Null, |n| Value::num(n as f64));
    obj(vec![
        ("max_decisions", cap(limits.max_decisions)),
        ("max_cq_pairs", cap(limits.max_cq_pairs)),
        ("max_cq_in_program", cap(limits.max_cq_in_program)),
    ])
}

/// Build a `cache_limits` request value: a pure read with `set = None`, an
/// install-and-enforce with `set = Some(limits)`.
pub fn cache_limits_request(set: Option<CacheLimits>) -> Value {
    let mut fields = vec![("op", Value::str("cache_limits"))];
    if let Some(limits) = set {
        fields.push(("set", cache_limits_json(limits)));
    }
    obj(fields)
}

/// Build a `save_cache` request value (`None`: the server's default path).
pub fn save_cache_request(path: Option<&str>) -> Value {
    let mut fields = vec![("op", Value::str("save_cache"))];
    if let Some(path) = path {
        fields.push(("path", Value::str(path)));
    }
    obj(fields)
}

/// Build a `load_cache` request value (`None`: the server's default path).
pub fn load_cache_request(path: Option<&str>) -> Value {
    let mut fields = vec![("op", Value::str("load_cache"))];
    if let Some(path) = path {
        fields.push(("path", Value::str(path)));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn parses_every_verb_with_defaults() {
        let v = parse(
            r#"{"op":"containment","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X)."}"#,
        )
        .unwrap();
        let req = parse_request(&v, true).unwrap();
        assert_eq!(req.command.verb(), "containment");
        assert!(req.id.is_none());
        match req.command {
            Command::Containment { options, .. } => {
                assert_eq!(options, RequestOptions::default());
                assert!(options.use_cache);
            }
            other => panic!("wrong command {other:?}"),
        }
        let v = parse(r#"{"op":"bounded","id":"b-1","program":"p(X) :- e(X, X).","goal":"p"}"#)
            .unwrap();
        let req = parse_request(&v, true).unwrap();
        assert_eq!(req.id, Some(Value::str("b-1")));
        assert!(matches!(req.command, Command::Bounded { max_depth: 8, .. }));
        assert!(matches!(
            parse_request(&parse(r#"{"op":"stats"}"#).unwrap(), true)
                .unwrap()
                .command,
            Command::Stats
        ));
    }

    #[test]
    fn options_invert_the_wire_flags() {
        let v = parse(
            r#"{"op":"equivalence","program":"p.","goal":"p","candidate":"p.",
                "options":{"no_cache":true,"max_pairs":100,"timeout_ms":50}}"#,
        )
        .unwrap();
        match parse_request(&v, true).unwrap().command {
            Command::Equivalence { options, .. } => {
                assert!(!options.use_cache);
                assert_eq!(options.max_pairs, Some(100));
                assert_eq!(options.timeout_ms, Some(50));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn minimize_and_rewrite_parse_and_stay_batchable() {
        let v = parse(r#"{"op":"minimize","query":"q(X) :- e(X, Y), e(X, Z)."}"#).unwrap();
        let req = parse_request(&v, true).unwrap();
        assert_eq!(req.command.verb(), "minimize");
        assert!(!req.command.is_admin());
        match req.command {
            Command::Minimize { options, .. } => assert_eq!(options, RequestOptions::default()),
            other => panic!("wrong command {other:?}"),
        }
        // A missing `query` is a bad_request.
        let err = parse_request(&parse(r#"{"op":"minimize"}"#).unwrap(), true).unwrap_err();
        assert_eq!(err.code, "bad_request");

        let v = parse(
            r#"{"op":"rewrite","program":"p(X) :- e(X, X).","goal":"p","max_depth":3,
                "options":{"timeout_ms":90}}"#,
        )
        .unwrap();
        match parse_request(&v, true).unwrap().command {
            Command::Rewrite {
                max_depth, options, ..
            } => {
                assert_eq!(max_depth, 3);
                assert_eq!(options.timeout_ms, Some(90));
            }
            other => panic!("wrong command {other:?}"),
        }
        // `max_depth` defaults to 8, matching `bounded`.
        let v = parse(r#"{"op":"rewrite","program":"p(X) :- e(X, X).","goal":"p"}"#).unwrap();
        assert!(matches!(
            parse_request(&v, true).unwrap().command,
            Command::Rewrite { max_depth: 8, .. }
        ));

        // Both verbs are batchable (neither admin nor oversized-response).
        let batched = batch_request(vec![
            minimize_request("q(X) :- e(X, Y)."),
            rewrite_request("p(X) :- e(X, X).", "p", 4),
        ]);
        match parse_request(&batched, true).unwrap().command {
            Command::Batch { requests, .. } => assert_eq!(requests.len(), 2),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn provenance_option_parses_and_defaults_off() {
        let v = parse(
            r#"{"op":"containment","program":"p.","goal":"p","query":"q.",
                "options":{"provenance":true}}"#,
        )
        .unwrap();
        match parse_request(&v, true).unwrap().command {
            Command::Containment { options, .. } => assert!(options.provenance),
            other => panic!("wrong command {other:?}"),
        }
        let v = parse(r#"{"op":"containment","program":"p.","goal":"p","query":"q."}"#).unwrap();
        match parse_request(&v, true).unwrap().command {
            Command::Containment { options, .. } => assert!(!options.provenance),
            other => panic!("wrong command {other:?}"),
        }
        // Non-boolean provenance is rejected.
        let v = parse(
            r#"{"op":"containment","program":"p.","goal":"p","query":"q.",
                "options":{"provenance":"yes"}}"#,
        )
        .unwrap();
        assert_eq!(parse_request(&v, true).unwrap_err().code, "bad_request");
    }

    #[test]
    fn trace_parses_levels_and_refuses_batching() {
        let v = parse(
            r#"{"op":"trace","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X).","level":"trace","max_events":9}"#,
        )
        .unwrap();
        match parse_request(&v, true).unwrap().command {
            Command::Trace {
                level, max_events, ..
            } => {
                assert_eq!(level, MetricsLevel::Trace);
                assert_eq!(max_events, 9);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: debug level, 512-event budget.
        let v = parse(r#"{"op":"trace","program":"p.","goal":"p","query":"q."}"#).unwrap();
        let defaults = parse_request(&v, true).unwrap().command;
        match &defaults {
            Command::Trace {
                level, max_events, ..
            } => {
                assert_eq!(*level, MetricsLevel::Debug);
                assert_eq!(*max_events, 512);
            }
            other => panic!("wrong command {other:?}"),
        }
        // No key selects an engine: `schedule`, `options.strategy`, and
        // `options.no_word_path` are ignored like any unknown key.
        let v = parse(
            r#"{"op":"trace","program":"p.","goal":"p","query":"q.","schedule":"lifo","options":{"strategy":"voodoo","no_word_path":true}}"#,
        )
        .unwrap();
        assert_eq!(parse_request(&v, true).unwrap().command, defaults);
        // An unknown level or an oversized budget is a bad_request.
        let bad = r#"{"op":"trace","program":"p.","goal":"p","query":"q.","level":"verbose"}"#;
        let err = parse_request(&parse(bad).unwrap(), true).unwrap_err();
        assert_eq!(err.code, "bad_request", "for {bad}");
        let oversized = format!(
            r#"{{"op":"trace","program":"p.","goal":"p","query":"q.","max_events":{}}}"#,
            MAX_TRACE_EVENTS + 1
        );
        let err = parse_request(&parse(&oversized).unwrap(), true).unwrap_err();
        assert_eq!(err.code, "bad_request");
        // Neither observability verb may hide inside a batch.
        for sub in [
            trace_request("p.", "p", "q.", "debug"),
            metrics_text_request(),
        ] {
            let err = parse_request(&batch_request(vec![sub]), true).unwrap_err();
            assert_eq!(err.code, "bad_request");
            assert!(err.message.contains("batch"), "{}", err.message);
        }
    }

    #[test]
    fn batch_parses_and_refuses_nesting() {
        let v = parse(
            r#"{"op":"batch","requests":[{"op":"stats"},{"op":"optimize","program":"p(X) :- e(X, X).","goal":"p"}]}"#,
        )
        .unwrap();
        match parse_request(&v, true).unwrap().command {
            Command::Batch { requests, .. } => assert_eq!(requests.len(), 2),
            other => panic!("wrong command {other:?}"),
        }
        let nested = parse(r#"{"op":"batch","requests":[{"op":"batch","requests":[]}]}"#).unwrap();
        let err = parse_request(&nested, true).unwrap_err();
        assert_eq!(err.code, "bad_request");
        // Oversized batches are rejected before any sub-request parses.
        let oversized = batch_request(vec![stats_request(); MAX_BATCH_REQUESTS + 1]);
        let err = parse_request(&oversized, true).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("at most"));
        // A batch-level timeout is picked up by `timeout_ms()`.
        let timed = parse(r#"{"op":"batch","requests":[],"timeout_ms":250}"#).unwrap();
        assert_eq!(
            parse_request(&timed, true).unwrap().command.timeout_ms(),
            Some(250)
        );
    }

    #[test]
    fn admin_verbs_parse_and_refuse_batching() {
        let req = parse_request(&parse(r#"{"op":"clear_cache"}"#).unwrap(), true).unwrap();
        assert!(matches!(req.command, Command::ClearCache));
        assert!(req.command.is_admin());
        assert_eq!(req.command.timeout_ms(), None);

        let get = parse_request(&parse(r#"{"op":"cache_limits"}"#).unwrap(), true).unwrap();
        assert!(matches!(get.command, Command::CacheLimits { set: None }));
        let set = parse_request(
            &parse(r#"{"op":"cache_limits","set":{"max_decisions":64,"max_cq_pairs":null}}"#)
                .unwrap(),
            true,
        )
        .unwrap();
        match set.command {
            Command::CacheLimits { set: Some(limits) } => {
                assert_eq!(limits.max_decisions, Some(64));
                assert_eq!(limits.max_cq_pairs, None);
                assert_eq!(limits.max_cq_in_program, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // The builder round-trips through the parser.
        let built = cache_limits_request(Some(CacheLimits {
            max_decisions: Some(8),
            max_cq_pairs: Some(9),
            max_cq_in_program: None,
        }));
        match parse_request(&built, true).unwrap().command {
            Command::CacheLimits { set: Some(limits) } => {
                assert_eq!(limits.max_decisions, Some(8));
                assert_eq!(limits.max_cq_pairs, Some(9));
            }
            other => panic!("wrong command {other:?}"),
        }

        let save = parse_request(&save_cache_request(Some("/tmp/x.nrdc")), true).unwrap();
        assert!(matches!(save.command, Command::SaveCache { path: Some(p) } if p == "/tmp/x.nrdc"));
        let load = parse_request(&load_cache_request(None), true).unwrap();
        assert!(matches!(load.command, Command::LoadCache { path: None }));

        // Admin verbs cannot hide inside a batch.
        let batched = batch_request(vec![stats_request(), clear_cache_request()]);
        let err = parse_request(&batched, true).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("clear_cache"));
        // Malformed `set` payloads are rejected.
        let err = parse_request(
            &parse(r#"{"op":"cache_limits","set":{"max_decisions":"lots"}}"#).unwrap(),
            true,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn malformed_requests_are_bad_request_with_echoed_id() {
        for bad in [
            r#"{"program":"p."}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"containment","program":7,"goal":"p","query":"q."}"#,
            r#"{"op":"bounded","program":"p.","goal":"p","max_depth":-1}"#,
            r#"{"op":"containment","program":"p.","goal":"p","query":"q.","options":{"max_pairs":"many"}}"#,
            r#"[1,2,3]"#,
        ] {
            let v = parse(bad).unwrap();
            let err = parse_request(&v, true).unwrap_err();
            assert_eq!(err.code, "bad_request", "for {bad}");
        }
        let v = parse(r#"{"op":"nope","id":42}"#).unwrap();
        assert_eq!(request_id(&v), Some(Value::num(42.0)));
        let rendered = error_response(&request_id(&v), &WireError::bad_request("x")).render();
        assert!(rendered.starts_with(r#"{"id":42,"ok":false"#));
    }
}
