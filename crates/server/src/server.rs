//! The long-running server: line-delimited JSON over TCP and stdio.
//!
//! Framing: one request per line, one response per line, per connection.
//! The protocol is **pipelined**: a client may write any number of request
//! lines before reading anything, and responses to queued decisions come
//! back **out of order** — correlate by the echoed `id` (a client that
//! pipelines without ids cannot tell its responses apart).  Responses to
//! different connections interleave freely; all connections share one
//! [`WorkerPool`] and one process-wide
//! [`nonrec_equivalence::cache::DecisionCache`] — the cache amortisation
//! the ROADMAP's serving track asks for.
//!
//! Per connection there are two loops (`serve_pipelined`, which
//! `nonrec-route` runs for its client connections too):
//!
//! * the **reader** (the connection thread) drains every complete request
//!   line per wakeup, in place in its read buffer; a line that spans
//!   refills builds up in one reused buffer, capped at [`MAX_LINE_BYTES`]
//!   in the one loop that frames every line.  Invalid JSON and malformed
//!   requests are answered without spending a queue slot; `stats`,
//!   `metrics_text` and the admin verbs execute right here, **in stream
//!   order relative to each other**, so an operator's `save_cache` after
//!   `cache_limits` happens in the order written even while decisions are
//!   in flight; everything else is submitted to the bounded pool without
//!   waiting for the reply (a full queue still answers `busy` immediately
//!   — backpressure is unchanged);
//! * the **writer** (a scoped thread) receives completed responses from
//!   the reader and from the pool workers, in completion order, and
//!   coalesces every response ready at a wakeup into one buffered
//!   `write_all` — under pipelining the per-response syscall, not the
//!   decision, is the throughput floor this removes.
//!
//! At EOF the reader stops contributing, and the writer drains until the
//! last in-flight job has answered (each job holds a clone of the reply
//! sender; the channel disconnects only when all clones drop), so a
//! pipelined client that half-closes still receives every response.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nonrec_equivalence::cache::{CacheLimits, DecisionCache};

use crate::admin;
use crate::json::{self, Value};
use crate::pool::{Job, PoolConfig, WorkerPool};
use crate::protocol::{
    error_response, ok_response, parse_request, request_id, Command, Request, WireError,
};
use crate::stats::ServerStats;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker-pool sizing.
    pub pool: PoolConfig,
    /// Default per-request deadline; a request's `options.timeout_ms`
    /// overrides it.  `None`: requests never expire in the queue.
    pub default_deadline: Option<Duration>,
    /// Most simultaneous connections the accept loop admits; one over the
    /// limit is answered with a single `connection_limit_exceeded` line
    /// and closed.  `None`: unlimited (the historical behaviour).
    pub max_connections: Option<usize>,
    /// Per-segment decision-cache caps installed at startup (and
    /// changeable at runtime via the `cache_limits` admin verb).
    /// `None`: leave the cache's current limits untouched.
    pub cache_limits: Option<CacheLimits>,
    /// Default snapshot path for the `save_cache`/`load_cache` admin verbs.
    /// When the file exists at startup, the server **warm-starts** from it
    /// (a corrupt or stale-version snapshot is logged and skipped — a bad
    /// file must not keep the server down).
    pub cache_file: Option<std::path::PathBuf>,
    /// When set, every dispatched request line is appended to this capture
    /// recorder (see [`crate::replay`]) with its arrival offset — the
    /// record half of record/replay.  Shared across connections and across
    /// the TCP/stdio modes alike.
    pub record: Option<Arc<crate::replay::Recorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pool: PoolConfig::default(),
            default_deadline: Some(Duration::from_secs(30)),
            max_connections: None,
            cache_limits: None,
            cache_file: None,
            record: None,
        }
    }
}

impl ServerConfig {
    /// Apply the startup cache configuration: install limits, then warm the
    /// cache from the configured snapshot file if one exists.  Called once
    /// per server (TCP and stdio alike); failures warm-start nothing but
    /// never prevent serving.
    fn apply_cache_config(&self) {
        let cache = DecisionCache::global();
        if let Some(limits) = self.cache_limits {
            cache.set_limits(limits);
        }
        let Some(path) = &self.cache_file else {
            return;
        };
        if !path.exists() {
            return;
        }
        match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| cache.load_snapshot_bytes(&bytes).map_err(|e| e.to_string()))
        {
            Ok(added) => eprintln!(
                "warm start: loaded {} entries from {}",
                added.total(),
                path.display()
            ),
            Err(e) => eprintln!(
                "warning: cold start, snapshot {} not loaded: {e}",
                path.display()
            ),
        }
    }
}

/// A bound TCP server (see the module docs for the protocol).
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an OS-assigned port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
            stats: Arc::new(ServerStats::new()),
        })
    }

    /// The bound address (to recover the OS-assigned port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections forever, one thread per connection, all feeding
    /// one worker pool.  Only returns on an accept error.
    pub fn run(self) -> std::io::Result<()> {
        self.config.apply_cache_config();
        let pool = Arc::new(WorkerPool::new(self.config.pool, Arc::clone(&self.stats)));
        let active = Arc::new(AtomicUsize::new(0));
        loop {
            let (stream, _peer) = self.listener.accept()?;
            // One-line responses must not sit in Nagle's buffer waiting for
            // a delayed ACK (a 40 ms floor per round-trip otherwise).
            stream.set_nodelay(true)?;
            // Admission control: over the connection cap, answer one error
            // line and close — the client sees *why* instead of hanging in
            // an unbounded thread pile-up.
            let admitted = active.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| match self
                .config
                .max_connections
            {
                Some(max) if n >= max => None,
                _ => Some(n + 1),
            });
            if admitted.is_err() {
                self.stats.record_conn_limit_rejected();
                let mut response = error_response(
                    &None,
                    &WireError::new(
                        "connection_limit_exceeded",
                        format!(
                            "server is at its connection limit of {}; retry later",
                            self.config.max_connections.unwrap_or(0)
                        ),
                    ),
                )
                .render();
                response.push('\n');
                let mut stream = stream;
                // The rejection line is best-effort (the peer may already be
                // gone), but a failed delivery is still worth counting: a
                // fleet of clients hanging with no error line in hand looks
                // exactly like a wedged server unless this counter moves.
                if let Err(e) = stream
                    .write_all(response.as_bytes())
                    .and_then(|()| stream.flush())
                {
                    self.stats.record_conn_limit_reject_write_error();
                    eprintln!("warning: connection-limit rejection line not delivered: {e}");
                }
                continue;
            }
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&self.stats);
            let config = self.config.clone();
            let guard = ConnGuard(Arc::clone(&active));
            std::thread::Builder::new()
                .name("nonrec-conn".to_string())
                .spawn(move || {
                    let _guard = guard;
                    let _ = serve_connection(stream, |frame, reply| {
                        dispatch_frame(frame, reply, &pool, &stats, &config)
                    });
                })
                .expect("spawn connection thread");
        }
    }
}

/// Decrements the live-connection count when the connection thread ends —
/// by any path, including an unwind — so the admission counter can never
/// leak a slot.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest request line the server will buffer.  Without a cap, one client
/// streaming bytes with no newline would grow memory without bound, voiding
/// the bounded-queue backpressure story.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// A TCP connection's read buffer, and the most a connection's line buffer
/// keeps between lines.
const READ_BUF_BYTES: usize = 64 * 1024;

/// One frame of a connection's request stream, as [`serve_pipelined`]
/// hands it to the protocol served on that connection (the server's
/// [`dispatch_frame`] or the router's).
pub(crate) enum Frame<'a> {
    /// A complete, non-blank request line, without its terminator.
    Line(&'a str),
    /// A line over [`MAX_LINE_BYTES`].  `resynced`: its `\n` terminator
    /// was found and consumed, so the connection stays usable; otherwise
    /// the reader has given up and the connection closes once this
    /// frame's answer is written.
    TooLong {
        /// Whether the stream is back in sync after the line.
        resynced: bool,
    },
}

/// The `bad_request` answer to a [`Frame::TooLong`] — one text for the
/// server and the router alike.
pub(crate) fn line_too_long_response(resynced: bool) -> Value {
    let detail = if resynced {
        "request line exceeds the size limit; the line was discarded"
    } else {
        "request line exceeds the size limit with no terminator; closing the connection"
    };
    error_response(
        &None,
        &WireError::bad_request(format!("{detail} (limit {MAX_LINE_BYTES} bytes)")),
    )
}

/// The per-connection writer: receive completed, already-rendered lines
/// (from the reader thread and the pool workers alike, or a router's
/// senders) and coalesce everything ready at each wakeup into one buffered
/// `write_all` + flush, appending each line's newline.  Returns when every
/// sender clone has dropped or on the first write error.
pub(crate) fn write_loop<T: AsRef<str>>(
    mut writer: impl Write,
    lines: &mpsc::Receiver<T>,
) -> std::io::Result<()> {
    let mut buf = String::new();
    loop {
        let Ok(first) = lines.recv() else {
            return Ok(());
        };
        buf.clear();
        buf.push_str(first.as_ref());
        buf.push('\n');
        // Coalescing is bounded by what is already complete (the pool queue
        // plus the in-flight count, or a bounded channel's cap), so the
        // buffer cannot grow without bound.
        while let Ok(next) = lines.try_recv() {
            buf.push_str(next.as_ref());
            buf.push('\n');
        }
        writer
            .write_all(buf.as_bytes())
            .and_then(|()| writer.flush())?;
    }
}

/// The per-connection reader: split the stream into [`Frame`]s and hand
/// each to `handle` in stream order, with the sender its answers go to.
/// A line complete in the reader's buffer is handed over in place; a line
/// that spans refills builds up in one reused buffer, and is abandoned once
/// that passes [`MAX_LINE_BYTES`] with no terminator.  Returns at EOF (an
/// unterminated tail is a last line), after an abandoned line, or once the
/// writer has died.
fn read_loop(
    reader: &mut impl BufRead,
    reply: &mpsc::Sender<String>,
    writer_alive: &AtomicBool,
    handle: &mut impl FnMut(Frame<'_>, &mpsc::Sender<String>),
) -> std::io::Result<()> {
    let mut partial = Vec::new();
    loop {
        if !writer_alive.load(Ordering::Relaxed) {
            return Ok(());
        }
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if !partial.is_empty() {
                hand_over(&partial, reply, handle);
            }
            return Ok(());
        }
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            if partial.is_empty() {
                hand_over(&rest[..pos], reply, handle);
            } else {
                partial.extend_from_slice(&rest[..pos]);
                hand_over(&partial, reply, handle);
                partial.clear();
                // A 4 MiB line costs its connection 4 MiB only while it is
                // being read.
                partial.shrink_to(READ_BUF_BYTES);
            }
            rest = &rest[pos + 1..];
        }
        partial.extend_from_slice(rest);
        let read = chunk.len();
        reader.consume(read);
        if partial.len() > MAX_LINE_BYTES {
            // Resynchronising would mean buffering or scanning an amount of
            // input the client controls: answer once and close.
            handle(Frame::TooLong { resynced: false }, reply);
            return Ok(());
        }
    }
}

/// Hand one line, without its `\n`, to `handle`: a line over the cap as
/// `TooLong { resynced: true }` (its terminator was seen, so the connection
/// stays usable), a blank line not at all.  Invalid UTF-8 is copied lossily
/// and fails JSON parsing as `invalid_json`.
fn hand_over(
    line: &[u8],
    reply: &mpsc::Sender<String>,
    handle: &mut impl FnMut(Frame<'_>, &mpsc::Sender<String>),
) {
    if line.len() > MAX_LINE_BYTES {
        handle(Frame::TooLong { resynced: true }, reply);
        return;
    }
    match std::str::from_utf8(line) {
        Ok(line) if line.trim().is_empty() => {}
        Ok(line) => handle(Frame::Line(line), reply),
        Err(_) => handle(Frame::Line(&String::from_utf8_lossy(line)), reply),
    }
}

/// Run the pipelined protocol over an arbitrary reader/writer pair: the
/// calling thread becomes the reader, feeding every frame to `handle`; a
/// scoped thread becomes the writer.  At EOF the writer drains every
/// in-flight response before returning.  The one per-connection loop of
/// both `nonrec-serve` (TCP and stdio) and `nonrec-route`.
pub(crate) fn serve_pipelined<W: Write + Send>(
    reader: &mut impl BufRead,
    writer: W,
    mut handle: impl FnMut(Frame<'_>, &mpsc::Sender<String>),
) -> std::io::Result<()> {
    let (reply, responses) = mpsc::channel::<String>();
    let writer_alive = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let alive = &writer_alive;
        let writer = scope.spawn(move || {
            // A failed write means the peer is gone: the reader stops
            // accepting work for it.
            let result = write_loop(writer, &responses);
            if result.is_err() {
                alive.store(false, Ordering::Relaxed);
            }
            result
        });
        let read_result = read_loop(reader, &reply, &writer_alive, &mut handle);
        // Stop contributing responses; the writer drains until the last
        // in-flight job (each holds a sender clone) has answered.  A
        // response for a client whose writer has died finds a closed
        // channel and is dropped — the client is gone.
        drop(reply);
        let write_result = writer.join().expect("writer thread never panics");
        read_result.and(write_result)
    })
}

/// [`serve_pipelined`] over one accepted TCP connection.
pub(crate) fn serve_connection(
    stream: TcpStream,
    handle: impl FnMut(Frame<'_>, &mpsc::Sender<String>),
) -> std::io::Result<()> {
    // A large read buffer means one `fill_buf` wakeup drains a deep
    // pipelined burst, each line handed over in place.
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream.try_clone()?);
    serve_pipelined(&mut reader, stream, handle)
}

/// Serve requests from stdin to stdout (the `--stdio` mode of
/// `nonrec-serve`): same pipelined protocol, same pool, same shared cache;
/// ends cleanly at EOF once every in-flight response has been written.
pub fn serve_stdio(config: ServerConfig) -> std::io::Result<()> {
    config.apply_cache_config();
    let stats = Arc::new(ServerStats::new());
    let pool = WorkerPool::new(config.pool, Arc::clone(&stats));
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    serve_pipelined(&mut reader, std::io::stdout(), |frame, reply| {
        dispatch_frame(frame, reply, &pool, &stats, &config)
    })
}

/// Handle one frame: framing errors, `stats`, `metrics_text` and the admin
/// verbs are answered synchronously on this thread (preserving stream
/// order among them); decisions go to [`dispatch_decision`].  Exactly one
/// response per frame, always.
fn dispatch_frame(
    frame: Frame<'_>,
    reply: &mpsc::Sender<String>,
    pool: &WorkerPool,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    stats.record_request();
    let line = match frame {
        Frame::Line(line) => line,
        Frame::TooLong { resynced } => {
            // Counted like an unparseable line — a framing failure, not a
            // verb — so no per-verb latency sample is fabricated.
            stats.record_line_too_long();
            let _ = reply.send(line_too_long_response(resynced).render());
            return;
        }
    };
    // Record *before* the memo lookup: the capture is the traffic the
    // server received, not the subset it had to compute.
    if let Some(recorder) = &config.record {
        recorder.record(line);
    }
    // Repeats of proven-memoisable request lines — byte-identical after
    // their id — are answered before the frame is even parsed: the line
    // memo only ever holds lines whose parse, key, and successful
    // execution happened earlier (see `memo::LineMemo`), so replaying the
    // stored response under this line's id is sound — and it is what lets
    // a warm drain run at hash-lookup speed.
    {
        let start = Instant::now();
        if let Some((verb, response)) = crate::memo::LineMemo::global().recall_line(line) {
            stats.record_memo_hit();
            DecisionCache::global().record_memoised_hit();
            stats.record_completion(verb, start.elapsed().as_micros(), true);
            let _ = reply.send(response);
            return;
        }
    }
    let value = match json::parse(line) {
        Ok(value) => value,
        Err(e) => {
            stats.record_invalid_json();
            stats.record_rejected_response();
            let _ = reply.send(
                error_response(&None, &WireError::new("invalid_json", e.to_string())).render(),
            );
            return;
        }
    };
    let request = match parse_request(&value, true) {
        Ok(request) => request,
        Err(e) => {
            stats.record_rejected_response();
            let _ = reply.send(error_response(&request_id(&value), &e).render());
            return;
        }
    };
    // These verbs never reach the pool.  `stats` and `metrics_text`:
    // observability must survive a saturated pool, and the per-verb
    // histograms live in this server's `ServerStats`, which the pool's
    // engine cannot reach.  The admin verbs: an operator shrinking or
    // persisting the cache must not queue behind the load they are
    // managing — and running them here is what gives pipelined admin
    // verbs their in-order guarantee.
    let start = Instant::now();
    let cache = DecisionCache::global();
    let cache_file = config.cache_file.as_deref();
    let outcome = match &request.command {
        Command::Stats => Ok(stats.snapshot_json(cache)),
        Command::MetricsText => Ok(json::obj(vec![(
            "text",
            Value::str(crate::metrics::metrics_text(stats, cache)),
        )])),
        Command::ClearCache => Ok(admin::clear_cache(cache)),
        Command::CacheLimits { set } => Ok(admin::cache_limits(cache, *set)),
        Command::SaveCache { path } => admin::save_cache(cache, path, cache_file),
        Command::LoadCache { path } => admin::load_cache(cache, path, cache_file),
        _ => return dispatch_decision(line, request, reply, pool, stats, config),
    };
    let verb = request.command.verb();
    stats.record_completion(verb, start.elapsed().as_micros(), outcome.is_ok());
    let response = match outcome {
        Ok(result) => ok_response(&request.id, verb, result),
        Err(error) => error_response(&request.id, &error),
    };
    let _ = reply.send(response.render());
}

/// Answer a decision request from the command-keyed memo, or submit it to
/// the pool, which sends the response through `reply` when done.
fn dispatch_decision(
    line: &str,
    request: Request,
    reply: &mpsc::Sender<String>,
    pool: &WorkerPool,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    // Repeats of pure decision requests that differ in framing (re-ordered
    // fields, a non-canonical id) still hit the command-keyed response
    // memo right here on the reader thread: no pool dispatch, no re-parse
    // of the programs, no canonicalisation.  The recall is credited to the
    // decision cache's hit counter, since the decision was genuinely
    // remembered rather than recomputed — and the rendered response seeds
    // the line memo so the *next* repeat of this line skips the frame
    // parse too.
    let memo_key = crate::memo::memo_key(&request.command);
    if let Some(key) = &memo_key {
        let start = Instant::now();
        if let Some(result) = crate::memo::ResponseMemo::global().lookup(key) {
            stats.record_memo_hit();
            DecisionCache::global().record_memoised_hit();
            let verb = request.command.verb();
            stats.record_completion(verb, start.elapsed().as_micros(), true);
            let rendered = ok_response(&request.id, verb, result).render();
            crate::memo::LineMemo::global().remember_line(line, verb, &rendered);
            let _ = reply.send(rendered);
            return;
        }
    }
    let deadline = request
        .command
        .timeout_ms()
        .map(Duration::from_millis)
        .or(config.default_deadline)
        .map(|timeout| Instant::now() + timeout);
    if let Err(job) = pool.submit(Job {
        line: memo_key.as_ref().map(|_| line.to_string()),
        request,
        deadline,
        memo_key,
        reply: reply.clone(),
    }) {
        stats.record_busy();
        let _ = reply.send(
            error_response(
                &job.request.id,
                &WireError::new(
                    "busy",
                    "request queue is full; retry later or reduce concurrency",
                ),
            )
            .render(),
        );
    }
}

/// Handle one request line end to end, blocking until its response is
/// ready; always returns exactly one single-line response.  The one-shot
/// wrapper around [`dispatch_frame`] the unit tests drive.
#[cfg(test)]
fn process_line(
    line: &str,
    pool: &WorkerPool,
    stats: &ServerStats,
    config: &ServerConfig,
) -> String {
    let (reply, receive) = mpsc::channel();
    dispatch_frame(Frame::Line(line), &reply, pool, stats, config);
    drop(reply);
    match receive.recv() {
        Ok(response) => response,
        Err(_) => error_response(
            &None,
            &WireError::new("internal", "worker dropped the reply channel"),
        )
        .render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_setup() -> (WorkerPool, Arc<ServerStats>, ServerConfig) {
        let stats = Arc::new(ServerStats::new());
        let config = ServerConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 8,
            },
            default_deadline: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        };
        let pool = WorkerPool::new(config.pool, Arc::clone(&stats));
        (pool, stats, config)
    }

    #[test]
    fn process_line_answers_the_full_matrix() {
        let (pool, stats, config) = test_setup();
        // Invalid JSON.
        let response = process_line("{nope", &pool, &stats, &config);
        assert!(response.contains("\"invalid_json\""));
        // Bad request.
        let response = process_line(r#"{"op":"zap","id":3}"#, &pool, &stats, &config);
        assert!(response.contains("\"bad_request\""));
        assert!(response.starts_with(r#"{"id":3"#));
        // A real decision through the pool.
        let response = process_line(
            r#"{"op":"equivalence","id":"e","program":"p(X) :- e(X, X).","goal":"p","candidate":"p(X) :- e(X, X)."}"#,
            &pool,
            &stats,
            &config,
        );
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            value
                .get("result")
                .unwrap()
                .get("equivalent")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        // Stats, answered inline.
        let response = process_line(r#"{"op":"stats"}"#, &pool, &stats, &config);
        let value = json::parse(&response).unwrap();
        let server = value.get("result").unwrap().get("server").unwrap();
        assert_eq!(server.get("requests").unwrap().as_u64(), Some(4));
        // A batch mixing success and failure, answered in order.
        let response = process_line(
            r#"{"op":"batch","requests":[{"op":"optimize","program":"p(X) :- e(X, X).","goal":"p"},{"op":"containment","program":"broken(","goal":"p","query":"q(X) :- e(X, X)."}]}"#,
            &pool,
            &stats,
            &config,
        );
        let value = json::parse(&response).unwrap();
        let results = value.get("result").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            results[1]
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some("parse_error")
        );
    }

    /// A [`Frame`] as the tests record it.
    #[derive(Debug, PartialEq)]
    enum Framed {
        Line(String),
        TooLong { resynced: bool },
    }

    /// The frames [`read_loop`] hands over for `input` read through a
    /// `BufReader` of `capacity` bytes.
    fn frames(input: &[u8], capacity: usize) -> Vec<Framed> {
        let mut reader = BufReader::with_capacity(capacity, input);
        let (reply, _responses) = mpsc::channel();
        let mut out = Vec::new();
        read_loop(
            &mut reader,
            &reply,
            &AtomicBool::new(true),
            &mut |frame, _| {
                out.push(match frame {
                    Frame::Line(line) => Framed::Line(line.to_string()),
                    Frame::TooLong { resynced } => Framed::TooLong { resynced },
                });
            },
        )
        .unwrap();
        out
    }

    #[test]
    fn every_buffer_capacity_frames_a_stream_alike() {
        let input: &[u8] =
            b"{\"op\":\"stats\"}\n\n   \n\t \r\n{\"id\":1}\r\nbad \xff\xfe\n{\"tail\":true}";
        let expected = vec![
            Framed::Line(r#"{"op":"stats"}"#.to_string()),
            Framed::Line("{\"id\":1}\r".to_string()),
            Framed::Line("bad \u{fffd}\u{fffd}".to_string()),
            Framed::Line(r#"{"tail":true}"#.to_string()),
        ];
        for capacity in 1..=input.len() {
            assert_eq!(frames(input, capacity), expected, "capacity {capacity}");
        }
    }

    #[test]
    fn random_streams_frame_as_a_split_on_newlines() {
        use rng::rngs::StdRng;
        use rng::{Rng, SeedableRng};
        const ALPHABET: &[u8] = b"ab{}\" \t\r\n\n\n\xff\xc3\xa9";
        let mut rng = StdRng::seed_from_u64(601);
        for _ in 0..2_000 {
            let len = rng.random_range(0..200usize);
            let input: Vec<u8> = (0..len)
                .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
                .collect();
            let expected: Vec<Framed> = input
                .split(|&b| b == b'\n')
                .map(String::from_utf8_lossy)
                .filter(|line| !line.trim().is_empty())
                .map(|line| Framed::Line(line.into_owned()))
                .collect();
            let capacity = rng.random_range(1..=len + 1);
            assert_eq!(
                frames(&input, capacity),
                expected,
                "capacity {capacity}, input {input:?}"
            );
        }
    }

    #[test]
    fn oversized_lines_distinguish_resynced_from_abandoned() {
        let mut resynced = vec![b'x'; MAX_LINE_BYTES + 1];
        resynced.extend_from_slice(b"\nshort\n");
        // No terminator within twice the cap: nothing after it is read.
        let mut abandoned = vec![b'x'; 2 * MAX_LINE_BYTES + 1];
        abandoned.extend_from_slice(b"\nshort\n");
        for capacity in [7, READ_BUF_BYTES, 2 * MAX_LINE_BYTES] {
            // Terminator found: the oversized line is discarded but the
            // stream is back in sync, so the next line reads normally.
            assert_eq!(
                frames(&resynced, capacity),
                [
                    Framed::TooLong { resynced: true },
                    Framed::Line("short".to_string())
                ],
                "capacity {capacity}"
            );
            assert_eq!(
                frames(&abandoned, capacity),
                [Framed::TooLong { resynced: false }],
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn resynced_over_long_line_keeps_the_connection_open() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = server.run();
        });
        let mut client = crate::client::Client::connect(addr).unwrap();
        // A terminated line over the cap: answered with bad_request, and
        // the connection survives to serve the next request.
        let oversized = "x".repeat(MAX_LINE_BYTES + 1);
        let rejection = client.request_line(&oversized).unwrap();
        assert!(rejection.contains("\"bad_request\""), "got: {rejection}");
        assert!(
            rejection.contains("discarded"),
            "the resynced branch must not claim it is closing: {rejection}"
        );
        let response = client.request(&crate::protocol::stats_request()).unwrap();
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
        let server_stats = response.get("result").unwrap().get("server").unwrap();
        assert_eq!(
            server_stats.get("line_too_long").unwrap().as_u64(),
            Some(1),
            "framing failures get their own counter, not a fabricated verb sample"
        );
        // No per-verb histogram gained a sample from the framing failure
        // (the snapshot is rendered before the stats verb's own completion
        // is recorded, so every histogram is empty here).
        let verbs = response.get("result").unwrap().get("verbs").unwrap();
        for verb in crate::stats::VERBS {
            let count = verbs.get(verb).unwrap().get("count").unwrap().as_u64();
            assert_eq!(count, Some(0), "verb {verb}");
        }
    }

    /// Serialises the unit tests that clear the process-global cache (or
    /// assert on its cross-request state) against each other.  The test
    /// binary runs tests on parallel threads of one process; without this,
    /// `admin_verbs_answer_inline_and_report_drops`'s `clear_cache` could
    /// fire between `tcp_round_trip_shares_one_cache`'s two requests,
    /// forcing a recompute whose `micros` breaks its equality assertion.
    fn global_cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn admin_verbs_answer_inline_and_report_drops() {
        let _guard = global_cache_test_lock();
        let (pool, stats, config) = test_setup();
        // Warm one decision so the cache has something to drop.
        let response = process_line(
            r#"{"op":"equivalence","program":"a1(X) :- e(X, X).","goal":"a1","candidate":"a1(X) :- e(X, X)."}"#,
            &pool,
            &stats,
            &config,
        );
        assert!(response.contains("\"ok\":true"));
        let response = process_line(r#"{"op":"clear_cache","id":7}"#, &pool, &stats, &config);
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("verb").unwrap().as_str(), Some("clear_cache"));
        let dropped = value.get("result").unwrap().get("dropped").unwrap();
        assert!(
            dropped.get("entries").unwrap().as_u64().unwrap() >= 1,
            "clear_cache must report the entries it dropped"
        );
        // The `cache_limits` read works inline too.  No zero-occupancy
        // assertion here: sibling unit tests in this binary store to the
        // same global cache concurrently (the occupancy-after-clear claim
        // is locked by `tests/server.rs`, which owns its whole process).
        let response = process_line(r#"{"op":"cache_limits"}"#, &pool, &stats, &config);
        let value = json::parse(&response).unwrap();
        let result = value.get("result").unwrap();
        assert!(result.get("sizes").unwrap().get("entries").is_some());
        assert_eq!(
            result.get("limits").unwrap().get("max_decisions"),
            Some(&json::Value::Null)
        );
        // Admin verbs show up in the per-verb histograms like any other.
        let response = process_line(r#"{"op":"stats"}"#, &pool, &stats, &config);
        let value = json::parse(&response).unwrap();
        let verb = value
            .get("result")
            .unwrap()
            .get("verbs")
            .unwrap()
            .get("clear_cache")
            .unwrap();
        assert_eq!(verb.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn connection_limit_rejects_with_a_stable_code() {
        let config = ServerConfig {
            max_connections: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = server.run();
        });
        let mut first = crate::client::Client::connect(addr).unwrap();
        let response = first.request(&crate::protocol::stats_request()).unwrap();
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
        // The second simultaneous connection is turned away with one line.
        let mut second = crate::client::Client::connect(addr).unwrap();
        let line = second.request_line(r#"{"op":"stats"}"#);
        // The error line is pushed before our request even arrives, so the
        // read may race the write of our request; both orders end with the
        // rejection line being the only thing ever received.
        let rejection = line.expect("the rejected connection still gets one response line");
        assert!(
            rejection.contains("connection_limit_exceeded"),
            "got: {rejection}"
        );
        let over_limit = first.request(&crate::protocol::stats_request()).unwrap();
        assert_eq!(
            over_limit
                .get("result")
                .unwrap()
                .get("server")
                .unwrap()
                .get("conn_limit_rejected")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Freeing the slot readmits new connections.
        drop(first);
        let mut third = loop {
            let mut candidate = crate::client::Client::connect(addr).unwrap();
            match candidate.request(&crate::protocol::stats_request()) {
                Ok(response) if response.get("ok").and_then(json::Value::as_bool) == Some(true) => {
                    break candidate;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let response = third.request(&crate::protocol::stats_request()).unwrap();
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn tcp_round_trip_shares_one_cache() {
        let _guard = global_cache_test_lock();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = server.run();
        });
        let mut client = crate::client::Client::connect(addr).unwrap();
        let request = crate::protocol::equivalence_request(
            "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).",
            "p",
            "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), e(Z, Y).",
        );
        let first = client.request(&request).unwrap();
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
        // Second client, same request: the decision comes from the shared
        // process-wide cache (hits strictly increase).
        let mut other = crate::client::Client::connect(addr).unwrap();
        let before = other.request(&crate::protocol::stats_request()).unwrap();
        let second = other.request(&request).unwrap();
        assert_eq!(second.get("result"), first.get("result"));
        let after = other.request(&crate::protocol::stats_request()).unwrap();
        let hits = |v: &json::Value| {
            v.get("result")
                .unwrap()
                .get("cache")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert!(
            hits(&after) > hits(&before),
            "repeat decision must hit the cache"
        );
    }
}
