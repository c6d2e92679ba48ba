//! `nonrec-route`: a sharding front end over N `nonrec-serve` backends.
//!
//! One decision cache per process is the scaling unit — so to scale out,
//! run N `nonrec-serve` shards (each with its own `--cache-file`) and put
//! this router in front.  The router speaks the same pipelined
//! line-delimited JSON protocol on both sides:
//!
//! * each client request's **program** is hashed to a shard via
//!   [`nonrec_equivalence::ProgramKey`] — structurally equivalent programs
//!   land on the same shard, so each shard's cache (and snapshot file)
//!   stays hot for its own keyspace slice across fleet restarts.  The hash
//!   is memoised per program text (the 4096 most recently routed texts),
//!   so a repeated program is neither parsed nor canonicalised again;
//! * requests are forwarded over one **persistent pipelined connection**
//!   per backend, shared by every client, with a router-global `id`
//!   installed as the line's first field and the client's `id` restored on
//!   the way back (responses merge by id, so out-of-order completion is
//!   fine).  Both directions forward bytes through the line memo's id
//!   splice ([`splice_id`]): a request is never re-rendered, and a response
//!   — success or error — reaches the client as the shard wrote it, with
//!   only its leading `id` changed;
//! * each backend connection owns its in-flight requests and a bounded
//!   queue of lines, which a writer thread drains through
//!   `server::write_loop`, a batch per wakeup.  A full queue makes the
//!   sending client wait; `stats` and the other shards do not;
//! * when a backend dies, its in-flight requests are **requeued** to a
//!   live shard — the client sees a slower answer, not a lost one.  The
//!   connection's reader is the one death path (a failed write shuts the
//!   socket down, which ends the reader too), and it takes the in-flight
//!   table once, so each request is requeued exactly once.  A shard that
//!   accepts and stops reading is dead too: a write call that moves no
//!   bytes for `BACKEND_WRITE_TIMEOUT` (5 s) fails, and its requests go the
//!   same way.  Only when *no* shard can take a request does the router
//!   answer with its own stable `shard_unavailable` code; a backend's
//!   `busy` is forwarded verbatim, so clients can tell which tier to back
//!   off from.
//!
//! The router answers `stats` itself (router + per-shard counters) and
//! rejects the cache-admin verbs with `bad_request`: admin is per-shard
//! state, so operators address shards directly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use datalog::parser::parse_program;
use nonrec_equivalence::lru::Lru;
use nonrec_equivalence::ProgramKey;

use crate::json::{self, obj, Value};
use crate::memo::{splice_id, split_line_id};
use crate::protocol::{error_response, ok_response, WireError, ADMIN_VERBS};
use crate::server::{line_too_long_response, serve_connection, write_loop, Frame, MAX_LINE_BYTES};

/// The router's own stable error code: no shard could take the request.
/// Distinct from `busy` (a *backend's* queue is full — forwarded verbatim):
/// `busy` means back off and retry the same tier, `shard_unavailable` means
/// the fleet itself is degraded.
pub const SHARD_UNAVAILABLE: &str = "shard_unavailable";

/// How many program texts the router remembers the shard hash of.  A
/// remembered text costs one copy of it plus a `u64`.
const MEMO_CAP: usize = 4096;

/// Lines queued to one backend connection's writer before a sending client
/// thread blocks: the backpressure a stalled shard puts on its clients, and
/// the most a stalled shard's queue holds.
const QUEUE_CAP: usize = 64;

/// How long one write call to a backend may move no bytes before it fails
/// and the router declares the shard dead.  A live shard never stops
/// reading that long: when its worker queue is full its reader answers
/// `busy` rather than blocking, so only a stalled shard leaves a write
/// waiting this long.
const BACKEND_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend `nonrec-serve` addresses, one per shard.  Shard numbering
    /// follows this order.
    pub backends: Vec<String>,
    /// Minimum wait between reconnection attempts to a dead backend, so a
    /// downed shard costs one failed `connect` per cooldown instead of one
    /// per request.
    pub reconnect_cooldown: Duration,
}

impl RouterConfig {
    /// A config for the given backends with the default cooldown.
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            backends,
            reconnect_cooldown: Duration::from_millis(250),
        }
    }
}

/// A request forwarded to a backend and not yet answered.
struct Pending {
    /// Where the (id-restored) response goes: the owning client
    /// connection's writer channel.
    client: mpsc::Sender<String>,
    /// The client's `id`, rendered (`null` when it sent none), spliced into
    /// the response on the way back.
    client_id: String,
    /// The forwarded request line with the router id installed — kept so a
    /// backend death can re-send the same bytes on another shard.
    line: Arc<str>,
    /// Dispatch attempts so far; bounded by the shard count so two flapping
    /// backends cannot bounce one request forever.
    attempts: usize,
}

/// One persistent backend connection: a writer thread drains `lines` into
/// the socket, and a reader thread answers the entries in `inflight`.
struct Conn {
    shard: usize,
    /// The writer's queue, bounded by [`QUEUE_CAP`].
    lines: mpsc::SyncSender<Arc<str>>,
    /// Requests sent on this connection and not yet answered, by router id;
    /// `None` once the reader has taken them at the connection's death.
    inflight: Mutex<Option<HashMap<u64, Pending>>>,
}

/// One backend connection slot.
#[derive(Default)]
struct Slot {
    /// The live connection (`None`: not connected).
    conn: Option<Arc<Conn>>,
    /// Last connect attempt, for the reconnect cooldown.
    last_attempt: Option<Instant>,
}

struct Backend {
    addr: String,
    slot: Mutex<Slot>,
}

#[derive(Default)]
struct ShardCounters {
    forwarded: AtomicU64,
    replies: AtomicU64,
    busy: AtomicU64,
    requeued: AtomicU64,
    disconnects: AtomicU64,
}

/// The router's `stats` counters.  Each is a statistic that publishes no
/// other data, so each is read and written on its own with `Relaxed`.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    invalid_json: AtomicU64,
    bad_request: AtomicU64,
    unavailable: AtomicU64,
    shards: Vec<ShardCounters>,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// [`route_hash`] by program text, bounded to [`MEMO_CAP`] texts.
struct RouteMemo(Mutex<Lru<str, u64>>);

impl RouteMemo {
    fn new() -> RouteMemo {
        RouteMemo(Mutex::new(Lru::new(Some(MEMO_CAP))))
    }

    /// The shard hash of `text`.  A repeated text is answered from the memo;
    /// a new one is hashed outside the lock, then remembered.
    fn hash(&self, text: &str) -> u64 {
        if let Some(&hash) = lock(&self.0).get(text) {
            return hash;
        }
        let hash = route_hash(text);
        lock(&self.0).insert(text, hash);
        hash
    }
}

/// Lock `mutex`, ignoring poison: every guarded value stays consistent
/// between statements.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    backends: Vec<Backend>,
    next_id: AtomicU64,
    round_robin: AtomicUsize,
    cooldown: Duration,
    counters: Counters,
    route_memo: RouteMemo,
}

// Lock order: no thread holds a `slot` lock and an `inflight` lock at once.
// A sender clones the slot's `Conn` and releases the slot before touching
// its table; a dying connection's reader clears the slot before taking its
// table.  `route_memo` is a leaf: taken last, never held across another
// acquisition.
impl Shared {
    fn slot(&self, shard: usize) -> MutexGuard<'_, Slot> {
        lock(&self.backends[shard].slot)
    }
}

/// A bound router (see the module docs for the protocol).
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Router {
    /// Bind to `addr` (use port 0 for an OS-assigned port).  Backends are
    /// connected lazily, on first demand — the router comes up even while
    /// the fleet is still starting.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> std::io::Result<Router> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let shards = config.backends.len();
        Ok(Router {
            listener: TcpListener::bind(addr)?,
            shared: Arc::new(Shared {
                backends: config
                    .backends
                    .into_iter()
                    .map(|addr| Backend {
                        addr,
                        slot: Mutex::new(Slot::default()),
                    })
                    .collect(),
                next_id: AtomicU64::new(1),
                round_robin: AtomicUsize::new(0),
                cooldown: config.reconnect_cooldown,
                counters: Counters {
                    shards: (0..shards).map(|_| ShardCounters::default()).collect(),
                    ..Counters::default()
                },
                route_memo: RouteMemo::new(),
            }),
        })
    }

    /// The bound address (to recover the OS-assigned port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept client connections forever, one thread per connection.  Only
    /// returns on an accept error.
    pub fn run(self) -> std::io::Result<()> {
        loop {
            let (stream, _peer) = self.listener.accept()?;
            stream.set_nodelay(true)?;
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("nonrec-route-conn".to_string())
                .spawn(move || {
                    let _ =
                        serve_connection(stream, |frame, reply| route_frame(frame, reply, &shared));
                })
                .expect("spawn router connection thread");
        }
    }
}

/// FNV-1a over the *rendered canonical forms* of the program's rule keys.
///
/// [`ProgramKey`]'s derived `Hash` goes through interner indices, which
/// depend on interning order and so differ between processes; hashing the
/// rendered canonical queries instead gives every router process — across
/// restarts — the same shard assignment, which is what keeps a shard's
/// snapshot file hot for its slice of the keyspace.
fn route_hash(program_text: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let eat = |hash: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    match parse_program(program_text) {
        Ok(program) => {
            for key in ProgramKey::of(&program).rule_keys() {
                eat(&mut hash, key.as_query().to_string().as_bytes());
                eat(&mut hash, b"\n");
            }
        }
        // Unparseable programs still get a deterministic shard; the backend
        // will answer `parse_error` with full details.
        Err(_) => eat(&mut hash, program_text.as_bytes()),
    }
    hash
}

/// The program text that decides the shard: a single request's `program`,
/// or the first program-bearing item of a batch (a batch stays on one
/// shard so its response remains a single frame).
fn route_text(value: &Value) -> Option<&str> {
    if let Some(text) = value.get("program").and_then(Value::as_str) {
        return Some(text);
    }
    value
        .get("requests")
        .and_then(Value::as_arr)
        .and_then(|items| {
            items
                .iter()
                .find_map(|item| item.get("program").and_then(Value::as_str))
        })
}

/// The client's request line, a JSON object, with the router id installed
/// as its first field.  A line [`split_line_id`] cuts keeps its bytes from
/// the comma after its own id; any other line keeps its bytes after the
/// opening `{`, so a later or non-canonical `id` it carries loses to the
/// router's under the first-wins field lookup.  The shard's line memo keys
/// the result as it keys a direct client's line.
fn forwarded_line(line: &str, router_id: u64) -> String {
    let router_id = router_id.to_string();
    match split_line_id(line) {
        Some((_, tail)) if tail.starts_with(',') => splice_id(&router_id, tail),
        _ => {
            let mut head = splice_id(&router_id, ",");
            head.push_str(&line.trim_start()[1..]);
            head
        }
    }
}

/// Route one frame: answer `stats`, over-long lines and malformed input
/// locally, reject admin verbs, forward everything else to a shard.
fn route_frame(frame: Frame<'_>, reply: &mpsc::Sender<String>, shared: &Arc<Shared>) {
    add(&shared.counters.requests, 1);
    let line = match frame {
        Frame::Line(line) => line,
        Frame::TooLong { resynced } => {
            add(&shared.counters.bad_request, 1);
            let _ = reply.send(line_too_long_response(resynced).render());
            return;
        }
    };
    let value = match json::parse(line) {
        Ok(value) => value,
        Err(e) => {
            add(&shared.counters.invalid_json, 1);
            let _ = reply.send(
                error_response(&None, &WireError::new("invalid_json", e.to_string())).render(),
            );
            return;
        }
    };
    let id = crate::protocol::request_id(&value);
    let reject = |message: String| {
        add(&shared.counters.bad_request, 1);
        let _ = reply.send(error_response(&id, &WireError::bad_request(message)).render());
    };
    let Some(op) = value.get("op").and_then(Value::as_str) else {
        return reject("missing or non-string field `op`".to_string());
    };
    if op == "stats" {
        let _ = reply.send(ok_response(&id, "stats", stats_json(shared)).render());
        return;
    }
    if ADMIN_VERBS.contains(&op) {
        return reject(format!(
            "`{op}` is per-shard state; address the shard's nonrec-serve directly"
        ));
    }
    let router_id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let forwarded = forwarded_line(line, router_id);
    if forwarded.len() > MAX_LINE_BYTES {
        // The client's line fit the cap, its router id does not: the shard
        // would answer `bad_request` with id null, which no one can claim.
        return reject(format!(
            "request line exceeds the size limit once the router installs its id \
             (limit {MAX_LINE_BYTES} bytes)"
        ));
    }
    let shard = match route_text(&value) {
        Some(text) => (shared.route_memo.hash(text) % shared.backends.len() as u64) as usize,
        // Keyless requests (nothing program-bearing) round-robin: any shard
        // can answer them, so spread the load.
        None => shared.round_robin.fetch_add(1, Ordering::Relaxed) % shared.backends.len(),
    };
    dispatch(
        shared,
        router_id,
        shard,
        Pending {
            client: reply.clone(),
            client_id: id.unwrap_or(Value::Null).render(),
            line: forwarded.into(),
            attempts: 0,
        },
    );
}

/// Try to forward `pending`, starting at shard `start` and walking the
/// ring.  Answers `shard_unavailable` when every shard refuses.
fn dispatch(shared: &Arc<Shared>, router_id: u64, start: usize, mut pending: Pending) {
    let shards = shared.backends.len();
    if pending.attempts > shards {
        // Bounced around the whole ring already (backends flapping):
        // answering beats bouncing forever.
        answer_unavailable(shared, &pending);
        return;
    }
    pending.attempts += 1;
    for offset in 0..shards {
        let shard = (start + offset) % shards;
        match send_on_shard(shared, shard, router_id, pending) {
            Ok(()) => {
                add(&shared.counters.shards[shard].forwarded, 1);
                return;
            }
            Err(entry) => pending = entry,
        }
    }
    answer_unavailable(shared, &pending);
}

fn answer_unavailable(shared: &Arc<Shared>, pending: &Pending) {
    add(&shared.counters.unavailable, 1);
    let _ = pending.client.send(
        error_response(
            &json::parse(&pending.client_id).ok(),
            &WireError::new(
                SHARD_UNAVAILABLE,
                format!(
                    "no shard can take this request ({} configured)",
                    shared.backends.len()
                ),
            ),
        )
        .render(),
    );
}

/// Queue `pending`'s line on a shard's connection, connecting it if
/// necessary, or hand `pending` back when the shard cannot be reached.
/// Once in the connection's table the entry is its reader's: if the
/// connection dies, the reader requeues it, written or not.
fn send_on_shard(
    shared: &Arc<Shared>,
    shard: usize,
    router_id: u64,
    pending: Pending,
) -> Result<(), Pending> {
    loop {
        let conn = {
            let mut slot = shared.slot(shard);
            match &slot.conn {
                Some(conn) => Arc::clone(conn),
                None => match connect_backend(shared, shard, &mut slot) {
                    Some(conn) => conn,
                    None => return Err(pending),
                },
            }
        };
        let line = Arc::clone(&pending.line);
        let mut inflight = lock(&conn.inflight);
        let Some(table) = inflight.as_mut() else {
            // Died since the clone, so its reader has cleared the slot.
            continue;
        };
        // In the table *before* the line is queued: the response can race
        // back before `send` returns.
        table.insert(router_id, pending);
        drop(inflight);
        // A full queue blocks this client's thread until the shard reads.
        // A failed send means the writer has died and shut the socket down,
        // so the reader requeues the entry.
        let _ = conn.lines.send(line);
        return Ok(());
    }
}

/// Connect a backend slot and spawn the connection's writer, which runs
/// [`write_loop`] and shuts the socket down if a write fails or moves no
/// bytes for [`BACKEND_WRITE_TIMEOUT`], and its reader.  Caller holds the
/// slot lock.
fn connect_backend(shared: &Arc<Shared>, shard: usize, slot: &mut Slot) -> Option<Arc<Conn>> {
    if let Some(last) = slot.last_attempt {
        if last.elapsed() < shared.cooldown {
            return None;
        }
    }
    slot.last_attempt = Some(Instant::now());
    let stream = TcpStream::connect(&shared.backends[shard].addr).ok()?;
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone().ok()?;
    write_half
        .set_write_timeout(Some(BACKEND_WRITE_TIMEOUT))
        .ok()?;
    let (lines, queue) = mpsc::sync_channel(QUEUE_CAP);
    let conn = Arc::new(Conn {
        shard,
        lines,
        inflight: Mutex::new(Some(HashMap::new())),
    });
    std::thread::Builder::new()
        .name(format!("nonrec-route-shard-{shard}-writer"))
        .spawn(move || {
            if write_loop(&write_half, &queue).is_err() {
                let _ = write_half.shutdown(Shutdown::Both);
            }
        })
        .ok()?;
    let (shared, reader_conn) = (Arc::clone(shared), Arc::clone(&conn));
    std::thread::Builder::new()
        .name(format!("nonrec-route-shard-{shard}"))
        .spawn(move || backend_read_loop(&shared, &reader_conn, stream))
        .ok()?;
    slot.conn = Some(Arc::clone(&conn));
    Some(conn)
}

/// A shard's response line cut into its router id and its bytes after it,
/// or `None` when it does not lead with an integer id.
fn cut_router_id(line: &str) -> Option<(u64, &str)> {
    let (id, tail) = split_line_id(line)?;
    Some((id.parse().ok()?, tail))
}

/// Whether a shard's response, cut after its id, is a `busy` error: the
/// shard renders `ok`, `error` and its `code` first, in that order.
fn is_busy(tail: &str) -> bool {
    tail.starts_with(",\"ok\":false,\"error\":{\"code\":\"busy\",")
}

/// The per-backend-connection reader: match responses to the connection's
/// entries by router id, restore the client id, forward to the owning
/// client.  On EOF or error it runs the connection's one death path: shut
/// the socket down (which stops the writer), clear the slot if it still
/// holds this connection, then take the table and requeue every entry.
/// The table is taken once, so each entry is requeued exactly once.
fn backend_read_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, stream: TcpStream) {
    let shard = conn.shard;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !json::is_valid(trimmed) {
            // A backend speaking garbage is indistinguishable from a dead
            // one for the requests in flight; drop the connection and let
            // the death path requeue them.
            break;
        }
        let Some((router_id, tail)) = cut_router_id(trimmed) else {
            // Unattributable frame (e.g. the backend's one-line
            // connection-limit rejection carries id null); skip it — if
            // the backend then closes, the death path handles the fallout.
            continue;
        };
        let Some(pending) = lock(&conn.inflight)
            .as_mut()
            .and_then(|table| table.remove(&router_id))
        else {
            continue;
        };
        let counters = &shared.counters.shards[shard];
        add(&counters.replies, 1);
        if is_busy(tail) {
            // Forwarded verbatim — the client must see `busy` (backend
            // queue pressure) as distinct from `shard_unavailable` (fleet
            // degradation).
            add(&counters.busy, 1);
        }
        let _ = pending.client.send(splice_id(&pending.client_id, tail));
    }
    let _ = reader.get_ref().shutdown(Shutdown::Both);
    add(&shared.counters.shards[shard].disconnects, 1);
    {
        let mut slot = shared.slot(shard);
        if matches!(&slot.conn, Some(live) if Arc::ptr_eq(live, conn)) {
            slot.conn = None;
        }
    }
    let orphans = lock(&conn.inflight).take().unwrap_or_default();
    if orphans.is_empty() {
        return;
    }
    add(
        &shared.counters.shards[shard].requeued,
        orphans.len() as u64,
    );
    // Re-dispatch starts at the next shard on the ring (the dead one would
    // only cost a cooldown probe).
    let next = (shard + 1) % shared.backends.len();
    for (router_id, entry) in orphans {
        dispatch(shared, router_id, next, entry);
    }
}

/// The router's own `stats` payload: router-level counters plus a per-shard
/// block (liveness, forwarded/replies/busy/requeued/disconnects).
fn stats_json(shared: &Arc<Shared>) -> Value {
    let conns: Vec<Option<Arc<Conn>>> = (0..shared.backends.len())
        .map(|shard| shared.slot(shard).conn.clone())
        .collect();
    let inflight: usize = conns
        .iter()
        .flatten()
        .map(|conn| lock(&conn.inflight).as_ref().map_or(0, HashMap::len))
        .sum();
    let counters = &shared.counters;
    let num = |counter: &AtomicU64| Value::num(counter.load(Ordering::Relaxed) as f64);
    let shards: Vec<Value> = counters
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj(vec![
                ("addr", Value::str(shared.backends[i].addr.clone())),
                ("alive", Value::Bool(conns[i].is_some())),
                ("forwarded", num(&s.forwarded)),
                ("replies", num(&s.replies)),
                ("busy", num(&s.busy)),
                ("requeued", num(&s.requeued)),
                ("disconnects", num(&s.disconnects)),
            ])
        })
        .collect();
    obj(vec![
        (
            "router",
            obj(vec![
                ("requests", num(&counters.requests)),
                ("invalid_json", num(&counters.invalid_json)),
                ("bad_request", num(&counters.bad_request)),
                ("shard_unavailable", num(&counters.unavailable)),
                ("inflight", Value::num(inflight as f64)),
            ]),
        ),
        ("shards", Value::Arr(shards)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use rng::rngs::StdRng;
    use rng::{Rng, SeedableRng};
    use std::io::{Read, Write};

    #[test]
    fn route_hash_is_structural_and_deterministic() {
        // Variable names and whitespace do not change the shard; the
        // predicate structure does.
        let a = route_hash("p(X, Y) :- e(X, Z), e(Z, Y).");
        let b = route_hash("p(U, V)  :-  e(U, W),  e(W, V).");
        let c = route_hash("p(X, Y) :- f(X, Z), e(Z, Y).");
        assert_eq!(a, b, "alpha-equivalent programs must share a shard");
        assert_ne!(a, c, "structurally different programs should split");
        // Stable across calls (and, by construction, across processes:
        // the hash never sees interner indices).
        assert_eq!(a, route_hash("p(X, Y) :- e(X, Z), e(Z, Y)."));
    }

    #[test]
    fn the_route_memo_remembers_texts_and_keeps_their_shards() {
        let memo = RouteMemo::new();
        let text = "p(X, Y) :- e(X, Z), e(Z, Y).";
        let hash = memo.hash(text);
        assert_eq!(hash, route_hash(text));
        assert_eq!(lock(&memo.0).len(), 1);
        // The second route of the text is answered from the memo: a value
        // planted under it comes back instead of a recomputed hash.
        lock(&memo.0).insert(text, hash ^ 1);
        assert_eq!(memo.hash(text), hash ^ 1);
        assert_eq!(lock(&memo.0).len(), 1);
        lock(&memo.0).insert(text, hash);
        // Alpha-renamed and whitespace variants are separate texts with the
        // same shard.
        assert_eq!(memo.hash("p(U, V) :- e(U, W), e(W, V)."), hash);
        assert_eq!(memo.hash("p(X, Y)  :-  e(X, Z),  e(Z, Y)."), hash);
        assert_eq!(lock(&memo.0).len(), 3);
        // Distinct texts past the cap: the memo holds exactly its cap.
        for i in 0..=MEMO_CAP {
            memo.hash(&format!("not a program {i}"));
        }
        assert_eq!(lock(&memo.0).len(), MEMO_CAP);
        assert_eq!(lock(&memo.0).get(text), None, "the oldest text is shed");
    }

    /// Bytes that steer mutants toward the JSON grammar's branches.
    const JSON_BYTES: &[u8] = b"{}[]:,\"\\ -+.0123456789eEtrufalsn";

    /// One to three SplitMix byte edits of `line`, half of them in its
    /// first 24 bytes, where the id splice looks.
    fn mutant(line: &str, rng: &mut StdRng) -> String {
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..rng.random_range(1..=3usize) {
            let end = if rng.random_bool(0.5) {
                24
            } else {
                bytes.len()
            };
            let at = rng.random_range(0..=end.min(bytes.len()));
            let byte = if rng.random_bool(0.5) {
                JSON_BYTES[rng.random_range(0..JSON_BYTES.len())]
            } else {
                rng.random_range(0..256u32) as u8
            };
            match rng.random_range(0..4u32) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => drop(bytes.remove(at)),
                2 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
                _ => bytes.insert(at, byte),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The parse-path reference for both splices: `value` with its first
    /// `id` set to `id`, or with `id` inserted first when it has none.
    fn with_first_id(mut value: Value, id: Value) -> Value {
        if let Value::Obj(fields) = &mut value {
            match fields.iter_mut().find(|(key, _)| key == "id") {
                Some(slot) => slot.1 = id,
                None => fields.insert(0, ("id".to_string(), id)),
            }
        }
        value
    }

    /// Response lines as a shard renders them, under router ids: successes
    /// of several verbs and the errors the router forwards and counts.
    fn backend_responses() -> Vec<String> {
        let stats = crate::stats::ServerStats::new();
        let requests = [
            crate::protocol::containment_request(
                "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
                "p",
                "q(X, Y) :- e(X, Z), e(Z, Y).",
            ),
            crate::protocol::equivalence_request(
                "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).",
                "buys",
                "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), likes(Z, Y).",
            ),
            crate::protocol::minimize_request("q(X) :- e(X, Y), e(X, Z)."),
            crate::protocol::containment_request("p(X :- e(X).", "p", "q(X) :- e(X, X)."),
        ];
        let mut lines: Vec<String> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                let request = with_first_id(request, Value::num(1000.0 + i as f64));
                let request = parse_request(&request, true).unwrap();
                crate::pool::respond(&request, &stats, None).render()
            })
            .collect();
        lines.push(
            error_response(
                &Some(Value::num(7.0)),
                &WireError::new("busy", "the worker queue is full"),
            )
            .render(),
        );
        lines
    }

    #[test]
    fn splicing_matches_parse_swap_render_on_every_mutant() {
        const MUTANTS: usize = 50_000;
        let client_ids = [
            Value::str("t\"1\\\n-é✓"),
            Value::num(42.0),
            Value::num(2.5),
            Value::Null,
            json::parse(r#"{"a":[1,"b"]}"#).unwrap(),
        ];
        /// The byte path of `backend_read_loop`: valid, led by a router id.
        fn cut(line: &str) -> Option<(u64, &str)> {
            cut_router_id(line).filter(|_| json::is_valid(line))
        }
        // The reference: the parsed line, its router id, and its render
        // with the client's id set.
        let reparsed = |line: &str, client_id: &Value| -> Option<(Value, u64, String)> {
            let value = json::parse(line).ok()?;
            let router_id = value.get("id").and_then(Value::as_u64)?;
            let rendered = with_first_id(value.clone(), client_id.clone()).render();
            Some((value, router_id, rendered))
        };
        let code = |value: &Value| -> Option<String> {
            let code = value.get("error")?.get("code")?.as_str()?;
            Some(code.to_string())
        };

        let lines = backend_responses();
        let successes = lines.iter().filter(|l| l.contains(r#""ok":true"#)).count();
        assert_eq!(successes, 3, "{lines:?}");
        for line in &lines {
            // Unmutated, every line splices to exactly the re-render, and
            // only the `busy` line counts as busy.
            let client_id = &client_ids[0];
            let (router_id, tail) = cut(line).unwrap_or_else(|| panic!("{line}"));
            let (value, expected_id, expected) = reparsed(line, client_id).unwrap();
            assert_eq!(router_id, expected_id, "{line}");
            assert_eq!(splice_id(&client_id.render(), tail), expected, "{line}");
            assert_eq!(
                is_busy(tail),
                code(&value).as_deref() == Some("busy"),
                "{line}"
            );
        }

        let mut rng = StdRng::seed_from_u64(601);
        let (mut spliced, mut busy) = (0, 0);
        for n in 0..MUTANTS {
            let mutant = mutant(&lines[rng.random_range(0..lines.len())], &mut rng);
            assert_eq!(
                json::is_valid(&mutant),
                json::parse(&mutant).is_ok(),
                "{mutant}"
            );
            let client_id = &client_ids[n % client_ids.len()];
            let Some((router_id, tail)) = cut(&mutant) else {
                continue;
            };
            spliced += 1;
            let (value, expected_id, expected) = reparsed(&mutant, client_id)
                .unwrap_or_else(|| panic!("spliced a line the parse path drops: {mutant}"));
            assert_eq!(router_id, expected_id, "{mutant}");
            assert_eq!(
                json::parse(&splice_id(&client_id.render(), tail)).ok(),
                json::parse(&expected).ok(),
                "{mutant}"
            );
            // The byte check never counts a line whose parsed code is not
            // `busy`, and counts every `busy` error a shard could render.
            let parsed_busy = code(&value).as_deref() == Some("busy");
            if is_busy(tail) {
                assert!(parsed_busy, "{mutant}");
                busy += 1;
            } else if parsed_busy {
                let message = value.get("error").and_then(|e| e.get("message"));
                let rendered = message.and_then(Value::as_str).map(|message| {
                    error_response(
                        &Some(Value::num(router_id as f64)),
                        &WireError::new("busy", message),
                    )
                    .render()
                });
                assert_ne!(rendered.as_deref(), Some(mutant.as_str()), "{mutant}");
            }
        }
        // Most mutants of a response keep its head and its validity.
        assert!(spliced > MUTANTS / 10, "only {spliced} mutants spliced");
        assert!(busy > 0, "no busy mutant spliced");
    }

    #[test]
    fn forwarded_lines_lead_with_the_router_id() {
        // A canonical leading id is replaced, an id-less line gains one.
        assert_eq!(
            forwarded_line(r#"{"id":"mine","op":"stats"}"#, 42),
            "{\"id\":42,\"op\":\"stats\"}"
        );
        assert_eq!(
            forwarded_line(r#"{"op":"stats"}"#, 7),
            "{\"id\":7,\"op\":\"stats\"}"
        );
        // Any other id stays behind the router's, which wins the lookup.
        let forwarded = forwarded_line(r#" {"id":1.0,"op":"stats"}"#, 7);
        assert_eq!(forwarded, "{\"id\":7,\"id\":1.0,\"op\":\"stats\"}");
        let value = json::parse(&forwarded).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(7));
    }

    /// Every line the router forwards decodes, at the shard, as the client's
    /// line with its first `id` replaced by the router id: SplitMix mutants
    /// of the seed-601 workload lines, and the lines under hostile ids.
    #[test]
    fn forwarded_lines_decode_as_the_client_line_under_the_router_id() {
        const MUTANTS: usize = 20_000;
        const HOSTILE_IDS: &[&str] = &["1.0", "007", "null", "{}", r#""a\"b""#, "42", r#""x""#];
        let spec = workload::WorkloadSpec {
            requests: 64,
            ..workload::WorkloadSpec::default()
        };
        let lines: Vec<String> = workload::generate(&spec, 601)
            .into_iter()
            .map(|request| request.line)
            .collect();
        let mut rng = StdRng::seed_from_u64(601);
        let mut forwarded_count = 0;
        for n in 0..MUTANTS {
            let base = &lines[rng.random_range(0..lines.len())];
            let rest = &base[base.find(',').expect("a field follows the id")..];
            let open = &rest[..rest.len() - 1];
            let id = HOSTILE_IDS[rng.random_range(0..HOSTILE_IDS.len())];
            let hostile = match rng.random_range(0..4u32) {
                0 => base.clone(),
                1 => format!("{{\"id\":{id}{rest}"),
                // A duplicate later `id`.
                2 => format!("{}{open},\"id\":{id}}}", &base[..base.len() - rest.len()]),
                // An id-less line with a later `id`.
                _ => format!("{{{},\"id\":{id}}}", &open[1..]),
            };
            let line = if rng.random_bool(0.5) {
                mutant(&hostile, &mut rng)
            } else {
                hostile
            };
            // What `route_frame` forwards: an object with a string `op`
            // that is neither `stats` nor an admin verb.
            let Ok(value) = json::parse(&line) else {
                continue;
            };
            match value.get("op").and_then(Value::as_str) {
                Some(op) if op != "stats" && !ADMIN_VERBS.contains(&op) => {}
                _ => continue,
            }
            forwarded_count += 1;
            let router_id = 1000 + n as u64;
            let forwarded = forwarded_line(&line, router_id);
            let sent = json::parse(&forwarded)
                .unwrap_or_else(|e| panic!("{line} forwards as {forwarded}: {e}"));
            assert_eq!(
                sent.get("id").and_then(Value::as_u64),
                Some(router_id),
                "{forwarded}"
            );
            let expected = with_first_id(value, Value::num(router_id as f64));
            match (parse_request(&sent, true), parse_request(&expected, true)) {
                (Ok(sent), Ok(expected)) => assert_eq!(sent, expected, "{line}"),
                (Err(sent), Err(expected)) => assert_eq!(sent.code, expected.code, "{line}"),
                (sent, expected) => panic!("{line}: {sent:?} against {expected:?}"),
            }
        }
        assert!(
            forwarded_count > MUTANTS / 2,
            "only {forwarded_count} lines forwarded"
        );
    }

    #[test]
    fn batches_route_by_their_first_program() {
        let value = json::parse(
            r#"{"op":"batch","requests":[{"op":"stats"},{"op":"optimize","program":"p(X) :- e(X, X).","goal":"p"}]}"#,
        )
        .unwrap();
        assert_eq!(route_text(&value), Some("p(X) :- e(X, X)."));
        let keyless = json::parse(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(route_text(&keyless), None);
    }

    /// The one death path under churn: shard A accepts every connection and
    /// closes it at once, so each request routed to A dies in flight there
    /// and is requeued to shard B, an in-process server — answered once.
    #[test]
    fn requests_on_a_dying_shard_are_requeued_and_answered_once() {
        const N: usize = 32;
        let closer = TcpListener::bind("127.0.0.1:0").unwrap();
        let dying = closer.local_addr().unwrap().to_string();
        std::thread::spawn(move || closer.incoming().for_each(drop));
        let server =
            crate::server::Server::bind("127.0.0.1:0", crate::server::ServerConfig::default())
                .unwrap();
        let live = server.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = server.run();
        });
        // No cooldown: every request reconnects to A and dies there again.
        let config = RouterConfig {
            backends: vec![dying, live],
            reconnect_cooldown: Duration::ZERO,
        };
        let router = Router::bind("127.0.0.1:0", config).unwrap();
        let addr = router.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = router.run();
        });
        let requests: Vec<Value> = (0..)
            .map(|i| format!("p(X) :- e{i}(X, X)."))
            // Programs that route to A, shard 0 of 2.
            .filter(|program| route_hash(program).is_multiple_of(2))
            .take(N)
            .enumerate()
            .map(|(id, program)| {
                let request = crate::protocol::equivalence_request(&program, "p", &program);
                with_first_id(request, Value::num(id as f64))
            })
            .collect();
        let mut client = crate::client::Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        client.send_all(&requests).unwrap();
        let mut answered = [false; N];
        for _ in 0..N {
            let response = client.recv().unwrap();
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
            let id = response.get("id").and_then(Value::as_u64).unwrap() as usize;
            assert!(!std::mem::replace(&mut answered[id], true), "id {id} twice");
        }
        let stats = client.request(&crate::protocol::stats_request()).unwrap();
        let result = stats.get("result").unwrap();
        let router_block = result.get("router").unwrap();
        assert_eq!(router_block.get("inflight").unwrap().as_u64(), Some(0));
        let shards = result.get("shards").unwrap().as_arr().unwrap();
        let counter = |shard: usize, name: &str| shards[shard].get(name).unwrap().as_u64();
        // Every request went to A once, died there, and went to B once.
        assert_eq!(counter(0, "forwarded"), Some(N as u64));
        assert_eq!(counter(0, "requeued"), Some(N as u64));
        assert_eq!(counter(0, "replies"), Some(0));
        assert_eq!(counter(1, "forwarded"), Some(N as u64));
        assert_eq!(counter(1, "replies"), Some(N as u64));
    }

    /// A stalled shard is declared dead: shard A accepts and never reads,
    /// so the router's writes to it block until the write timeout fails
    /// one, and the requests routed to A are requeued to shard B, an
    /// in-process server — each answered once.
    #[test]
    fn a_stalled_shard_is_declared_dead_and_its_requests_answered_once() {
        const N: usize = 400;
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let stalled_addr = stalled.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            // Hold every accepted connection open, never reading from it.
            let held: Vec<_> = stalled.incoming().collect();
            drop(held);
        });
        let server =
            crate::server::Server::bind("127.0.0.1:0", crate::server::ServerConfig::default())
                .unwrap();
        let live = server.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = server.run();
        });
        // A long cooldown: once dead, A is not connected again in this test.
        let config = RouterConfig {
            backends: vec![stalled_addr, live],
            reconnect_cooldown: Duration::from_secs(600),
        };
        let router = Router::bind("127.0.0.1:0", config).unwrap();
        let addr = router.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = router.run();
        });
        let program = (0..)
            .map(|i| format!("p(X) :- e{i}(X, X)."))
            // A program that routes to A, shard 0 of 2.
            .find(|program| route_hash(program).is_multiple_of(2))
            .unwrap();
        let pad = "x".repeat(100 * 1024);
        let burst: String = (0..N)
            .map(|id| {
                let line = obj(vec![
                    ("id", Value::num(id as f64)),
                    ("op", Value::str("bounded")),
                    ("program", Value::str(program.as_str())),
                    ("goal", Value::str("p")),
                    ("max_depth", Value::num(2.0)),
                    ("pad", Value::str(pad.as_str())),
                ]);
                line.render() + "\n"
            })
            .collect();
        let mut client = crate::client::Client::connect(addr).unwrap();
        // A write call that moves any bytes returns them instead of failing,
        // and a stalled loopback peer still takes bytes in a few late steps:
        // the writer failed 15 s after the burst in this test.
        let limit = 6 * BACKEND_WRITE_TIMEOUT;
        client.set_read_timeout(Some(limit)).unwrap();
        let mut pipelined = client.writer_clone().unwrap();
        let start = Instant::now();
        // Written from a side thread: the router stops reading this client
        // while A's queue is full.
        std::thread::spawn(move || pipelined.write_all(burst.as_bytes()));
        let mut answered = [false; N];
        for _ in 0..N {
            let response = client.recv().unwrap();
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
            let id = response.get("id").and_then(Value::as_u64).unwrap() as usize;
            assert!(!std::mem::replace(&mut answered[id], true), "id {id} twice");
        }
        assert!(start.elapsed() < limit);
        let stats = client.request(&crate::protocol::stats_request()).unwrap();
        let shards = stats.get("result").unwrap().get("shards").unwrap();
        let a = &shards.as_arr().unwrap()[0];
        let counter = |name: &str| a.get(name).and_then(Value::as_u64).unwrap();
        assert!(counter("requeued") >= 1, "{}", a.render());
        assert!(counter("disconnects") >= 1, "{}", a.render());
        assert_eq!(a.get("alive").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn all_backends_down_answers_shard_unavailable() {
        // Bind-then-drop a listener to get a port with nothing behind it.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig::new(vec![dead_addr.clone(), dead_addr]),
        )
        .unwrap();
        let addr = router.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = router.run();
        });
        let mut client = crate::client::Client::connect(addr).unwrap();
        let response = client
            .request(&crate::protocol::equivalence_request(
                "p(X) :- e(X, X).",
                "p",
                "p(X) :- e(X, X).",
            ))
            .unwrap();
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            response.get("error").unwrap().get("code").unwrap().as_str(),
            Some(SHARD_UNAVAILABLE)
        );
        // Admin verbs are rejected at the router, not forwarded.
        let rejected = client
            .request(&crate::protocol::clear_cache_request())
            .unwrap();
        assert_eq!(
            rejected.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_request")
        );
        // A terminated line over the cap is answered `bad_request` with the
        // server's text, and the connection survives it.
        let oversized = "x".repeat(crate::server::MAX_LINE_BYTES + 1);
        let rejection = client.request_line(&oversized).unwrap();
        assert_eq!(rejection, line_too_long_response(true).render());
        assert!(rejection.contains(
            "request line exceeds the size limit; the line was discarded (limit 4194304 bytes)"
        ));
        // An unterminated line over the cap gets one error line, then the
        // connection closes.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(oversized.as_bytes()).unwrap();
        let mut answer = String::new();
        raw.read_to_string(&mut answer).unwrap();
        assert_eq!(answer, line_too_long_response(false).render() + "\n");
        assert!(answer.contains("with no terminator; closing the connection"));
        // The router's own stats, read on a fresh connection, reflect what
        // happened: five frames (the stats request itself included), and
        // the admin verb plus both over-long lines as bad requests.
        let mut client = crate::client::Client::connect(addr).unwrap();
        let stats = client.request(&crate::protocol::stats_request()).unwrap();
        let router_block = stats.get("result").unwrap().get("router").unwrap();
        let counter = |name: &str| router_block.get(name).unwrap().as_u64();
        assert_eq!(counter("shard_unavailable"), Some(1));
        assert_eq!(counter("requests"), Some(5));
        assert_eq!(counter("bad_request"), Some(3));
        let shards = stats.get("result").unwrap().get("shards").unwrap();
        assert_eq!(shards.as_arr().unwrap().len(), 2);
    }
}
