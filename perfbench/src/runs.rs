//! The four workloads, driven over the wire against spawned servers.
//!
//! The load generator is this process: at most `nproc` connections and
//! threads (`cold_mix` and the warm workloads: one thread per connection;
//! `mixed_open`: a sender and a receiver on one connection).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use datalog::parser::parse_program;
use nonrec_equivalence::containment::is_chain_program;
use server::json::{self, Value};
use server::memo::{memo_key, MEMO_CAP};
use server::protocol::parse_request;

use crate::check::{check_lines, expect_catalog_line, expect_family, Failure};
use crate::net::{stat, stats, wait_ready, Bins, Conn, Proc};
use crate::stats::median;
use crate::stream::{self, SplitLine};

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Stop sending after this many seconds.
    pub seconds: f64,
    /// Stop sending after this many requests, if sooner.
    pub max_requests: Option<usize>,
}

/// Connections (and load threads) the generator may use: `nproc`, at most
/// two.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The workload-property guard: what the traffic actually exercised.
#[derive(Clone, Debug, Default)]
pub struct Guard {
    /// Share of requests the server had to compute (no memo recall).
    pub cold_share: f64,
    /// Share of requests answered from the response memo.
    pub memo_hit_share: f64,
    /// Share of lines byte-identical to an earlier line (what a
    /// `LineMemo` could hit).
    pub line_memo_share: f64,
    /// Distinct memoisable requests sent.
    pub distinct_memoisable: usize,
    /// Share of program-carrying requests whose program is nonlinear.
    pub nonlinear_share: f64,
    /// Violations that fail the run.
    pub failures: Vec<String>,
}

impl Guard {
    /// One human-readable line.
    pub fn describe(&self) -> String {
        format!(
            "cold_share={:.4} memo_hit_share={:.4} line_memo_share={:.4} distinct_memoisable={} (MEMO_CAP {MEMO_CAP}) nonlinear_share={:.4}",
            self.cold_share,
            self.memo_hit_share,
            self.line_memo_share,
            self.distinct_memoisable,
            self.nonlinear_share
        )
    }
}

/// Server-side counter deltas over the measured window (summed over
/// shards on `warm_routed`).
#[derive(Clone, Debug, Default)]
pub struct ServerDelta {
    /// Response-memo hits.
    pub memo_hits: u64,
    /// `DecisionCache` hits (memo recalls included).
    pub cache_hits: u64,
    /// `DecisionCache` misses.
    pub cache_misses: u64,
    /// `DecisionCache` entries at the end.
    pub cache_entries: u64,
    /// `DecisionCache` evictions.
    pub cache_evictions: u64,
    /// Deepest pool backlog seen.
    pub max_inflight: u64,
    /// `busy` rejections.
    pub busy: u64,
}

impl ServerDelta {
    fn between(before: &Value, after: &Value) -> ServerDelta {
        let d = |path: &[&str]| stat(after, path).saturating_sub(stat(before, path));
        ServerDelta {
            memo_hits: d(&["server", "memo_hits"]),
            cache_hits: d(&["cache", "hits"]),
            cache_misses: d(&["cache", "misses"]),
            cache_entries: stat(after, &["cache", "entries"]),
            cache_evictions: d(&["cache", "evictions"]),
            max_inflight: stat(after, &["server", "max_inflight"]),
            busy: d(&["server", "busy_rejected"]),
        }
    }

    fn add(&mut self, other: &ServerDelta) {
        self.memo_hits += other.memo_hits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_entries += other.cache_entries;
        self.cache_evictions += other.cache_evictions;
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.busy += other.busy;
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Correct success responses.
    pub ok: u64,
    /// Error responses plus missing responses.
    pub errors: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// The first few errors and wrong answers, described.
    pub problems: Vec<String>,
    /// One latency per correct response, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each of those responses arrived, in seconds into the window.
    pub done_s: Vec<f64>,
    /// Length of the measured window, in seconds.
    pub window_s: f64,
    /// Median set-up time (spawn to ready, plus warm-up), in seconds.
    pub setup_s: f64,
    /// Peak RSS of the server processes, summed, in MB.
    pub rss_mb: f64,
    /// The workload-property guard.
    pub guard: Guard,
    /// Server counter deltas.
    pub server: ServerDelta,
    /// `cold_mix`: latencies by family group.
    pub group_ms: BTreeMap<&'static str, Vec<f64>>,
    /// `cold_mix`: per `containment` response, client latency minus the
    /// decision time the server reports for it (`stats.micros`), in µs.
    pub wait_us: Vec<f64>,
    /// `mixed_open`: how late the sender ran, per request, in ms.
    pub lag_ms: Vec<f64>,
    /// `warm_routed`: requests forwarded to each shard.
    pub shard_forwarded: Vec<u64>,
}

impl Outcome {
    fn record(
        &mut self,
        ms: f64,
        done_s: f64,
        verdict: Result<(), Failure>,
        what: impl FnOnce() -> String,
    ) {
        match verdict {
            Ok(()) => {
                self.ok += 1;
                self.latencies_ms.push(ms);
                self.done_s.push(done_s);
            }
            Err(failure) => {
                match failure {
                    Failure::Error(_) => self.errors += 1,
                    Failure::Wrong(_) => self.wrong += 1,
                }
                if self.problems.len() < 8 {
                    self.problems.push(format!("{}: {failure:?}", what()));
                }
            }
        }
    }

    fn missing(&mut self, count: u64) {
        self.errors += count;
        if count > 0 && self.problems.len() < 8 {
            self.problems.push(format!("{count} responses missing"));
        }
    }
}

/// Set up `times` times, keeping the last set-up; returns it with each
/// set-up's time in seconds.
fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, Vec<f64>)> {
    let mut kept = None;
    let mut seconds = Vec::new();
    for _ in 0..times.max(1) {
        // Stop the previous set-up before starting the next.
        drop(kept.take());
        let start = Instant::now();
        let value = setup()?;
        seconds.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    Ok((kept.expect("at least one set-up"), seconds))
}

/// Set up `times` more times, stopping each at once; returns each set-up's
/// time in seconds.
///
/// A measured run sets up half its `setups` times before the window (the
/// last one serves the run) and the rest after it, so their median samples
/// the host on both sides of the window.
fn setups_after<T>(times: usize, mut setup: impl FnMut() -> io::Result<T>) -> io::Result<Vec<f64>> {
    (0..times)
        .map(|_| {
            let start = Instant::now();
            let value = setup()?;
            let seconds = start.elapsed().as_secs_f64();
            drop(value);
            Ok(seconds)
        })
        .collect()
}

fn spawn_ready(bin: &std::path::Path, args: &[String]) -> io::Result<Proc> {
    let proc = Proc::spawn(bin, args)?;
    wait_ready(&proc.addr)?;
    Ok(proc)
}

fn thread_result<T>(handle: std::thread::ScopedJoinHandle<'_, io::Result<T>>) -> io::Result<T> {
    handle.join().expect("load thread panicked")
}

/// `cold_mix`: closed loop, round-trip connections, every request a fresh
/// cold decision.
pub fn cold_mix(bins: &Bins, seed: u64, budget: Budget, setups: usize) -> io::Result<Outcome> {
    let start_server = || spawn_ready(&bins.serve, &[]);
    let (server, mut setup_times) = repeat_setup(setups.div_ceil(2), start_server)?;
    let cap = budget
        .max_requests
        .unwrap_or((budget.seconds * 400.0) as usize + 64);
    let stream = stream::cold_mix(seed, cap);
    let before = stats(&server.addr)?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget.seconds);
    type Done = (usize, f64, String, Instant);
    let per_thread: Vec<Vec<Done>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections())
            .map(|_| {
                scope.spawn(|| -> io::Result<Vec<Done>> {
                    let mut conn = Conn::connect(&server.addr)?;
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stream.len() {
                            break;
                        }
                        let sent = Instant::now();
                        conn.send(&stream[i].line)?;
                        let response = conn.recv()?;
                        let now = Instant::now();
                        done.push((i, (now - sent).as_secs_f64() * 1e3, response, now));
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(thread_result)
            .collect::<io::Result<_>>()
    })?;
    let after = stats(&server.addr)?;
    let mut out = Outcome {
        rss_mb: server.peak_rss_mb(),
        server: ServerDelta::between(&before, &after),
        ..Outcome::default()
    };
    drop(server);
    setup_times.extend(setups_after(setups / 2, start_server)?);
    out.setup_s = median(&setup_times);
    let mut end = start;
    for (i, ms, response, at) in per_thread.into_iter().flatten() {
        end = end.max(at);
        let request = &stream[i];
        out.attempted += 1;
        let verdict = check_lines(&request.line, &response, expect_family(request.family));
        if verdict.is_ok() {
            out.group_ms
                .entry(request.family.group())
                .or_default()
                .push(ms);
            if let Some(decision_us) = decision_micros(&response) {
                out.wait_us.push(ms * 1e3 - decision_us);
            }
        }
        let done_s = (at - start).as_secs_f64();
        out.record(ms, done_s, verdict, || {
            format!("{} c{i}", request.family.name())
        });
    }
    out.window_s = (end - start).as_secs_f64();
    let sent = out.attempted as usize;
    let nonlinear = stream[..sent]
        .iter()
        .filter(|r| r.family.nonlinear())
        .count();
    out.guard = Guard {
        cold_share: 1.0 - out.server.memo_hits as f64 / sent.max(1) as f64,
        memo_hit_share: out.server.memo_hits as f64 / sent.max(1) as f64,
        // Every line carries a fresh id: none repeats another.
        line_memo_share: 0.0,
        distinct_memoisable: sent,
        nonlinear_share: nonlinear as f64 / sent.max(1) as f64,
        failures: Vec::new(),
    };
    if out.server.cache_hits > 0 || out.server.memo_hits > 0 {
        out.guard.failures.push(format!(
            "cold_mix must miss every cache: {} cache hits, {} memo hits",
            out.server.cache_hits, out.server.memo_hits
        ));
    }
    Ok(out)
}

/// The decision time a `containment` response reports, in µs.
fn decision_micros(response: &str) -> Option<f64> {
    let value = json::parse(response).ok()?;
    if value.get("verb")?.as_str()? != "containment" {
        return None;
    }
    value.get("result")?.get("stats")?.get("micros")?.as_f64()
}

/// The servers behind a warm workload: one `nonrec-serve`, or two shards
/// behind a `nonrec-route`.
struct Fleet {
    shards: Vec<Proc>,
    router: Option<Proc>,
}

impl Fleet {
    fn start(bins: &Bins, routed: bool) -> io::Result<Fleet> {
        let count = if routed { 2 } else { 1 };
        let shards = (0..count)
            .map(|_| spawn_ready(&bins.serve, &[]))
            .collect::<io::Result<Vec<_>>>()?;
        let router = if routed {
            let mut args = Vec::new();
            for shard in &shards {
                args.push("--backend".to_string());
                args.push(shard.addr.clone());
            }
            Some(spawn_ready(&bins.route, &args)?)
        } else {
            None
        };
        Ok(Fleet { shards, router })
    }

    fn front(&self) -> &str {
        self.router
            .as_ref()
            .unwrap_or(&self.shards[0])
            .addr
            .as_str()
    }

    fn shard_stats(&self) -> io::Result<Vec<Value>> {
        self.shards.iter().map(|s| stats(&s.addr)).collect()
    }

    fn rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .chain(self.router.as_ref())
            .map(Proc::peak_rss_mb)
            .sum()
    }
}

fn forwarded(router_stats: &Value) -> Vec<u64> {
    router_stats
        .get("shards")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| s.get("forwarded").and_then(Value::as_u64).unwrap_or(0))
        .collect()
}

/// The memo key of a request line, if it is memoisable.
pub fn line_memo_key(line: &str) -> Option<String> {
    let value = json::parse(line).ok()?;
    memo_key(&parse_request(&value, true).ok()?.command)
}

/// Share of program-carrying requests whose program is nonlinear, over
/// distinct programs weighted by use.
fn nonlinear_share<'a>(lines: impl Iterator<Item = &'a str>) -> f64 {
    let mut verdicts: HashMap<String, bool> = HashMap::new();
    let (mut with_program, mut nonlinear) = (0usize, 0usize);
    for line in lines {
        let Some(program) = json::parse(line)
            .ok()
            .and_then(|v| v.get("program").and_then(Value::as_str).map(str::to_string))
        else {
            continue;
        };
        let is_nonlinear = *verdicts
            .entry(program)
            .or_insert_with_key(|p| parse_program(p).is_ok_and(|p| !is_chain_program(&p)));
        with_program += 1;
        nonlinear += usize::from(is_nonlinear);
    }
    nonlinear as f64 / with_program.max(1) as f64
}

/// The warm stream: the base lines, each line's distinct-key index, and
/// the base index of each key's first occurrence.
pub struct WarmStream {
    /// The generator's lines.
    pub base: Vec<workload::TimedRequest>,
    /// The base lines split around their ids.
    pub split: Vec<SplitLine>,
    /// Per base line, the index of its memo key.
    pub key_of: Vec<usize>,
    /// Per key, the base index of its first occurrence.
    pub firsts: Vec<usize>,
}

impl WarmStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> WarmStream {
        let base = workload::generate(&stream::warm_spec(), seed);
        let mut keys: HashMap<String, usize> = HashMap::new();
        let mut firsts = Vec::new();
        let key_of = base
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let key = line_memo_key(&r.line).expect("catalog requests are memoisable");
                *keys.entry(key).or_insert_with(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
            })
            .collect();
        WarmStream {
            split: base.iter().map(|r| SplitLine::of(&r.line)).collect(),
            base,
            key_of,
            firsts,
        }
    }

    /// The line of sequence number `seq` (cycling the base, unique ids).
    pub fn line(&self, seq: u64) -> String {
        let mut out = Vec::new();
        let n = self.base.len() as u64;
        self.split[(seq % n) as usize].render_into(seq / n, &mut out);
        out.pop();
        String::from_utf8(out).expect("request lines are UTF-8")
    }
}

/// Warm every distinct request through the fleet's front; returns each
/// key's expected response tail (everything after the id string).  A
/// router sends program-less requests round-robin, so those are warmed once
/// per shard.
fn warm_up(
    fleet: &Fleet,
    warm: &WarmStream,
    problems: &mut Vec<String>,
) -> io::Result<Vec<Vec<u8>>> {
    let mut conn = Conn::connect(fleet.front())?;
    let mut tails = Vec::with_capacity(warm.firsts.len());
    for &b in &warm.firsts {
        let line = &warm.base[b].line;
        let keyless = json::parse(line).is_ok_and(|v| v.get("program").is_none());
        let copies = if keyless { fleet.shards.len() } else { 1 };
        let mut tail = Vec::new();
        for _ in 0..copies {
            conn.send(line)?;
            let response = conn.recv()?;
            let expect = expect_catalog_line(line).expect("catalog verbs only");
            if let Err(e) = check_lines(line, &response, expect) {
                problems.push(format!("warm-up {b}: {e:?}"));
            }
            let head = &warm.split[b].head;
            if !response.starts_with(head.as_str()) {
                problems.push(format!("warm-up {b}: response does not echo the id"));
            }
            tail = response.as_bytes()[head.len().min(response.len())..].to_vec();
        }
        tails.push(tail);
    }
    Ok(tails)
}

/// In flight at once on the pipelined warm workloads.
pub const WARM_WINDOW: usize = 64;

/// Connections of the warm workloads.  One: with two, both connections'
/// reader threads serialise on the line memo's mutex, whose eviction scan
/// runs under the lock, and the resulting lock hand-offs made throughput and
/// p99 swing far beyond any useful bound from run to run.
pub const WARM_CONNECTIONS: usize = 1;

/// `warm_zipf` (and, with `routed`, `warm_routed`): closed loop, pipelined
/// with `window` requests in flight, every measured request a
/// response-memo hit.
pub fn warm(
    bins: &Bins,
    seed: u64,
    budget: Budget,
    setups: usize,
    routed: bool,
    window: usize,
) -> io::Result<Outcome> {
    let warm = WarmStream::new(seed);
    let mut warm_problems = Vec::new();
    let ((fleet, tails), mut setup_times) = repeat_setup(setups.div_ceil(2), || {
        warm_problems.clear();
        let fleet = Fleet::start(bins, routed)?;
        let tails = warm_up(&fleet, &warm, &mut warm_problems)?;
        Ok((fleet, tails))
    })?;
    let before = fleet.shard_stats()?;
    let router_before = match &fleet.router {
        Some(r) => forwarded(&stats(&r.addr)?),
        None => Vec::new(),
    };
    let n = warm.base.len();
    let next = AtomicUsize::new(0);
    let limit = budget.max_requests.unwrap_or(usize::MAX);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget.seconds);
    struct ConnResult {
        out: Outcome,
        end: Instant,
    }
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WARM_CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> io::Result<ConnResult> {
                    let mut conn = Conn::connect(fleet.front())?;
                    let mut out = Outcome::default();
                    let mut pending: HashMap<u64, Instant> = HashMap::with_capacity(4 * window);
                    let mut buf = Vec::with_capacity(window * 512);
                    let mut batch = Vec::with_capacity(window);
                    let mut sending = true;
                    let mut end = start;
                    loop {
                        if sending && Instant::now() >= deadline {
                            sending = false;
                        }
                        if sending {
                            buf.clear();
                            batch.clear();
                            while pending.len() + batch.len() < window {
                                let seq = next.fetch_add(1, Ordering::Relaxed);
                                if seq >= limit {
                                    sending = false;
                                    break;
                                }
                                let seq = seq as u64;
                                warm.split[(seq % n as u64) as usize]
                                    .render_into(seq / n as u64, &mut buf);
                                batch.push(seq);
                            }
                            if !batch.is_empty() {
                                conn.send_raw(&buf)?;
                                let sent = Instant::now();
                                out.attempted += batch.len() as u64;
                                pending.extend(batch.iter().map(|&s| (s, sent)));
                            }
                        }
                        if pending.is_empty() {
                            if sending {
                                continue;
                            }
                            break;
                        }
                        conn.recv_ready(|line| {
                            let now = Instant::now();
                            end = now;
                            let done_s = (now - start).as_secs_f64();
                            match check_warm(line, &warm, &tails, &mut pending, now) {
                                Ok(ms) => out.record(ms, done_s, Ok(()), String::new),
                                Err(failure) => {
                                    out.record(f64::NAN, done_s, Err(failure), || {
                                        String::from_utf8_lossy(&line[..line.len().min(120)])
                                            .into_owned()
                                    });
                                }
                            }
                        })?;
                    }
                    Ok(ConnResult { out, end })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(thread_result)
            .collect::<io::Result<_>>()
    })?;
    let after = fleet.shard_stats()?;
    // A wrong warm-up answer is the reference every measured response is
    // compared with, so it counts as a wrong answer of the run.
    let mut out = Outcome {
        rss_mb: fleet.rss_mb(),
        wrong: warm_problems.len() as u64,
        problems: warm_problems,
        ..Outcome::default()
    };
    for (b, a) in before.iter().zip(&after) {
        out.server.add(&ServerDelta::between(b, a));
    }
    if let Some(router) = &fleet.router {
        let router_after = forwarded(&stats(&router.addr)?);
        out.shard_forwarded = router_after
            .iter()
            .zip(router_before.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect();
    }
    drop(fleet);
    let mut late_problems = Vec::new();
    setup_times.extend(setups_after(setups / 2, || {
        let fleet = Fleet::start(bins, routed)?;
        warm_up(&fleet, &warm, &mut late_problems)?;
        Ok(fleet)
    })?);
    out.setup_s = median(&setup_times);
    out.wrong += late_problems.len() as u64;
    out.problems.extend(late_problems);
    let mut end = start;
    for r in results {
        end = end.max(r.end);
        out.attempted += r.out.attempted;
        out.ok += r.out.ok;
        out.errors += r.out.errors;
        out.wrong += r.out.wrong;
        out.latencies_ms.extend(r.out.latencies_ms);
        out.done_s.extend(r.out.done_s);
        for p in r.out.problems {
            if out.problems.len() < 8 {
                out.problems.push(p);
            }
        }
    }
    out.window_s = (end - start).as_secs_f64();
    let sent = out.attempted.max(1) as f64;
    out.guard = Guard {
        cold_share: 1.0 - out.server.memo_hits as f64 / sent,
        memo_hit_share: out.server.memo_hits as f64 / sent,
        // Cycled ids keep every line unique: none repeats another.
        line_memo_share: 0.0,
        distinct_memoisable: warm.firsts.len(),
        nonlinear_share: nonlinear_share(warm.base.iter().map(|r| r.line.as_str())),
        failures: Vec::new(),
    };
    if out.server.cache_misses > 0 || out.server.memo_hits != out.attempted {
        out.guard.failures.push(format!(
            "warm workloads must hit the memo on every request after warm-up: {} memo hits for {} requests, {} cache misses",
            out.server.memo_hits, out.attempted, out.server.cache_misses
        ));
    }
    Ok(out)
}

/// Check one warm response byte-for-byte against the warm-up answer of
/// its request; retire it from `pending` and return its latency.
fn check_warm(
    line: &[u8],
    warm: &WarmStream,
    tails: &[Vec<u8>],
    pending: &mut HashMap<u64, Instant>,
    now: Instant,
) -> Result<f64, Failure> {
    const OPEN: &[u8] = b"{\"id\":\"";
    let wrong = |m: &str| Failure::Wrong(m.to_string());
    if !line.starts_with(OPEN) {
        return Err(wrong("response does not lead with a string id"));
    }
    let close = OPEN.len()
        + line[OPEN.len()..]
            .iter()
            .position(|&b| b == b'"')
            .ok_or_else(|| wrong("unterminated id"))?;
    let id = std::str::from_utf8(&line[OPEN.len()..close]).map_err(|_| wrong("id is not UTF-8"))?;
    let seq = stream::warm_seq(id, warm.base.len()).ok_or_else(|| wrong("unknown id"))?;
    let sent = pending
        .remove(&seq)
        .ok_or_else(|| wrong("response to a request not in flight"))?;
    let ms = (now - sent).as_secs_f64() * 1e3;
    let b = (seq % warm.base.len() as u64) as usize;
    let head = warm.split[b].head.as_bytes();
    if !line.starts_with(head) {
        return Err(wrong("id does not match its request"));
    }
    let tail = &line[close..];
    if tail == tails[warm.key_of[b]].as_slice() {
        Ok(ms)
    } else if tail.starts_with(b"\",\"ok\":false") {
        Err(Failure::Error(String::from_utf8_lossy(tail).into_owned()))
    } else {
        Err(wrong("answer differs from the warm-up answer"))
    }
}

/// The `mixed_open` server bounds every decision-cache segment, as a
/// deployment facing unbounded distinct traffic would, so the cache takes
/// evictions beside the memos'.
const MIXED_CACHE_CAPS: [&str; 3] = [
    "--cache-max-decisions",
    "--cache-max-cq-pairs",
    "--cache-max-canonical",
];
/// See [`MIXED_CACHE_CAPS`].
const MIXED_CACHE_CAP: usize = 1024;

/// `mixed_open`: open loop on one connection, arrivals on the workload
/// generator's burst/lull schedule; latency counts from each request's due
/// time.
pub fn mixed_open(bins: &Bins, seed: u64, budget: Budget) -> io::Result<Outcome> {
    let stream = stream::mixed_open(seed, budget.seconds);
    let caps: Vec<String> = MIXED_CACHE_CAPS
        .iter()
        .flat_map(|flag| [flag.to_string(), MIXED_CACHE_CAP.to_string()])
        .collect();
    let (server, setup_times) = repeat_setup(1, || spawn_ready(&bins.serve, &caps))?;
    let before = stats(&server.addr)?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut writer = conn.writer()?;
    let n = stream.len();
    // Let both threads start before the first arrival is due.
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_micros(stream[i].offset_micros);
    let (lags, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<f64>> {
            use std::io::Write;
            let mut lags = Vec::with_capacity(n);
            let mut buf = Vec::new();
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                buf.clear();
                while i < n && due(i) <= now {
                    buf.extend_from_slice(stream[i].line.as_bytes());
                    buf.push(b'\n');
                    lags.push((now - due(i)).as_secs_f64() * 1e3);
                    i += 1;
                }
                writer.write_all(&buf)?;
            }
            Ok(lags)
        });
        let receiver = scope.spawn(|| {
            let mut received: Vec<(usize, Instant, String)> = Vec::with_capacity(n);
            while received.len() < n {
                let Ok(line) = conn.recv() else { break };
                let now = Instant::now();
                let seq = json::parse(&line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
                    .and_then(|id| id.rsplit_once('-').and_then(|(_, i)| i.parse().ok()));
                match seq {
                    Some(seq) if seq < n => received.push((seq, now, line)),
                    _ => received.push((usize::MAX, now, line)),
                }
            }
            received
        });
        let lags = thread_result(sender);
        let received = receiver.join().expect("receiver thread panicked");
        lags.map(|l| (l, received))
    })?;
    let after = stats(&server.addr)?;
    let mut out = Outcome {
        setup_s: median(&setup_times),
        rss_mb: server.peak_rss_mb(),
        server: ServerDelta::between(&before, &after),
        lag_ms: lags,
        attempted: n as u64,
        ..Outcome::default()
    };
    drop(server);
    let mut end = start;
    let mut seen = HashSet::new();
    for (seq, at, response) in received {
        end = end.max(at);
        if seq == usize::MAX || !seen.insert(seq) {
            let wrong = Err(Failure::Wrong("unknown or repeated id".into()));
            out.record(f64::NAN, 0.0, wrong, || {
                response.chars().take(120).collect()
            });
            continue;
        }
        let line = &stream[seq].line;
        let expect = expect_catalog_line(line).expect("catalog verbs only");
        let ms = (at - due(seq)).as_secs_f64() * 1e3;
        let done_s = at.saturating_duration_since(start).as_secs_f64();
        out.record(ms, done_s, check_lines(line, &response, expect), || {
            format!("m{seq}")
        });
    }
    out.missing(n as u64 - seen.len() as u64);
    out.window_s = (end - start).as_secs_f64();
    let distinct: HashSet<String> = stream
        .iter()
        .filter_map(|r| line_memo_key(&r.line))
        .collect();
    let mut lines = HashSet::new();
    let repeated = stream
        .iter()
        .filter(|r| !lines.insert(r.line.as_str()))
        .count();
    out.guard = Guard {
        cold_share: 1.0 - out.server.memo_hits as f64 / n.max(1) as f64,
        memo_hit_share: out.server.memo_hits as f64 / n.max(1) as f64,
        line_memo_share: repeated as f64 / n.max(1) as f64,
        distinct_memoisable: distinct.len(),
        nonlinear_share: nonlinear_share(stream.iter().map(|r| r.line.as_str())),
        failures: Vec::new(),
    };
    Ok(out)
}
