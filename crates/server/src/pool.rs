//! A fixed-size worker pool over `std::thread` with a bounded queue.
//!
//! Concurrency control for the server, offline-style (no async runtime):
//!
//! * a fixed number of workers bounds decision-procedure parallelism;
//! * the queue is bounded: [`WorkerPool::submit`] **rejects** when it is
//!   full (the caller answers `busy`) instead of queueing unboundedly —
//!   load sheds at the edge, memory stays flat under overload;
//! * each job carries a deadline.  A worker that dequeues an
//!   already-expired job answers `deadline_exceeded` without computing, so
//!   a burst cannot make the server burn workers on answers nobody is
//!   waiting for, and a `batch` re-checks its deadline between items.  A
//!   decision already running is never preempted, and nothing bounds its
//!   runtime as a whole: the `max_pairs` cap
//!   ([`crate::engine::DEFAULT_MAX_PAIRS`]) bounds only the containment
//!   search, while the A_ptrees and A_θ automaton builds that precede it
//!   run with no budget (a 562-byte request can hold a worker for
//!   seconds and hundreds of MB; ROADMAP item 4).  The `optimize` verb,
//!   whose oracle has no search budget either, is bounded by input-size
//!   caps instead ([`crate::engine::MAX_OPTIMIZE_ATOMS`]).

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use nonrec_equivalence::cache::DecisionCache;

use crate::engine;
use crate::json::Value;
use crate::protocol::{error_response, ok_response, Command, Request, WireError};
use crate::stats::ServerStats;

/// Sizing of a [`WorkerPool`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of worker threads (min 1).
    pub workers: usize,
    /// Maximum number of queued (not yet running) jobs before `submit`
    /// rejects with busy (min 1).
    pub queue_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            queue_capacity: 64,
        }
    }
}

/// One queued request together with its reply channel.
#[derive(Debug)]
pub struct Job {
    /// The parsed request.
    pub request: Request,
    /// When the job stops being worth starting (`None`: no deadline).
    pub deadline: Option<Instant>,
    /// The response-memo key of the request (`None`: not memoisable).  A
    /// successful result is stored under it so repeats of the command are
    /// answered on the reader thread without re-entering the pool.
    pub memo_key: Option<String>,
    /// The raw request line, carried only when the request is memoisable:
    /// a successful response line is stored in the line memo under it so
    /// repeats of the line under any canonical id skip even the frame
    /// parse.
    pub line: Option<String>,
    /// Where the rendered response line is sent.
    pub reply: mpsc::Sender<String>,
}

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
    stats: Arc<ServerStats>,
}

/// The pool: workers draining the bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    capacity: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Start `config.workers` threads sharing one queue.
    pub fn new(config: PoolConfig, stats: Arc<ServerStats>) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            stats,
        });
        let handles = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nonrec-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            capacity: config.queue_capacity.max(1),
            handles,
        }
    }

    /// Enqueue a job, or hand it back (boxed) when the queue is full
    /// (backpressure: the caller must answer `busy`, it must not block).
    pub fn submit(&self, job: Job) -> Result<(), Box<Job>> {
        let mut state = lock_state(&self.shared);
        if state.shutdown || state.queue.len() >= self.capacity {
            return Err(Box::new(job));
        }
        state.queue.push_back(job);
        drop(state);
        // In-flight depth: dispatched here, retired by the worker after the
        // reply is sent — the gauge the pipelined protocol surfaces.
        self.shared.stats.record_dispatched();
        self.shared.available.notify_one();
        Ok(())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_state(&self.shared);
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// The pool must survive panics in the decision layer, so its own locks are
// poison-tolerant: the queue and counters stay structurally valid when a
// holder unwinds, and a dead-on-poison worker would silently shrink
// capacity until every client got `busy` forever.
fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock_state(shared);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let response = if job.deadline.is_some_and(|d| Instant::now() > d) {
            // Count the expiry but record no latency sample: a flood of
            // fabricated 0 µs observations would drag the verb's p50/mean
            // down exactly when the operator is diagnosing overload.
            shared.stats.record_deadline_expired();
            error_response(
                &job.request.id,
                &WireError::new(
                    "deadline_exceeded",
                    "the request spent its deadline waiting in the queue",
                ),
            )
        } else {
            // A panicking decision must not kill the worker: capacity would
            // silently shrink request by request until the whole pool was
            // gone and every client saw `busy` forever.  Contain the unwind
            // and answer `internal` instead.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                respond(&job.request, &shared.stats, job.deadline)
            }))
            .unwrap_or_else(|_| {
                shared
                    .stats
                    .record_completion(job.request.command.verb(), 0, false);
                error_response(
                    &job.request.id,
                    &WireError::new("internal", "the decision procedure panicked"),
                )
            })
        };
        let rendered = settle(
            &job.request,
            job.memo_key,
            job.line.as_deref(),
            response,
            crate::memo::ResponseMemo::global(),
            crate::memo::LineMemo::global(),
        );
        // A closed reply channel just means the client went away.
        let _ = job.reply.send(rendered);
        shared.stats.record_retired();
    }
}

/// Render a finished job's response, memoising it when it is a successful
/// memoisable decision.  Only success is worth replaying: errors (deadline
/// expiries, resource limits) may resolve differently on retry, and the
/// memo key is `None` for everything non-memoisable.
///
/// One stored answer per command: two pipelined lines of one command can
/// both be computed, and their results differ in counters such as
/// `containment_cache_hits`.  The memos keep the first result stored, and
/// a later completion answers — and seeds the line memo — from it, so
/// both memos and every answer agree.
fn settle(
    request: &Request,
    memo_key: Option<String>,
    line: Option<&str>,
    mut response: Value,
    memo: &crate::memo::ResponseMemo,
    line_memo: &crate::memo::LineMemo,
) -> String {
    let succeeded = response.get("ok").and_then(Value::as_bool) == Some(true);
    let Some(key) = memo_key.filter(|_| succeeded) else {
        return response.render();
    };
    let verb = request.command.verb();
    if let Some(resident) = response.get("result").and_then(|r| memo.store(key, r)) {
        response = ok_response(&request.id, verb, resident);
    }
    let rendered = response.render();
    if let Some(line) = line {
        line_memo.remember_line(line, verb, &rendered);
    }
    rendered
}

fn deadline_error(id: &Option<Value>) -> Value {
    error_response(
        id,
        &WireError::new(
            "deadline_exceeded",
            "the request's deadline expired before this item was reached",
        ),
    )
}

/// Execute a request (including `stats` and one level of `batch`) and
/// render the full response object, recording per-verb latency.  The
/// deadline is re-checked **between** batch items — a single decision
/// already running is not preempted, and nothing bounds it as a whole
/// (its `max_pairs` budget bounds only the containment search; see the
/// module docs) — and an expired batch answers `deadline_exceeded` for
/// its remaining items rather than burning a worker on answers nobody is
/// waiting for.
pub fn respond(request: &Request, stats: &ServerStats, deadline: Option<Instant>) -> Value {
    let start = Instant::now();
    match &request.command {
        Command::Batch { requests, .. } => {
            let results: Vec<Value> = requests
                .iter()
                .map(|r| {
                    // An item's own `options.timeout_ms` counts from the
                    // start of the batch and can only tighten the batch
                    // deadline, so a client can bound its time-to-start
                    // behind earlier items.
                    let item_deadline = match r.command.timeout_ms() {
                        Some(ms) => {
                            let own = start + std::time::Duration::from_millis(ms);
                            Some(deadline.map_or(own, |outer| outer.min(own)))
                        }
                        None => deadline,
                    };
                    if item_deadline.is_some_and(|d| Instant::now() > d) {
                        stats.record_deadline_expired();
                        deadline_error(&r.id)
                    } else {
                        respond(r, stats, item_deadline)
                    }
                })
                .collect();
            stats.record_completion("batch", start.elapsed().as_micros(), true);
            ok_response(&request.id, "batch", Value::Arr(results))
        }
        Command::Stats => {
            let snapshot = stats.snapshot_json(DecisionCache::global());
            stats.record_completion("stats", start.elapsed().as_micros(), true);
            ok_response(&request.id, "stats", snapshot)
        }
        single => match engine::execute(single) {
            Ok(result) => {
                stats.record_completion(single.verb(), start.elapsed().as_micros(), true);
                ok_response(&request.id, single.verb(), result)
            }
            Err(error) => {
                stats.record_completion(single.verb(), start.elapsed().as_micros(), false);
                error_response(&request.id, &error)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stats_job(reply: mpsc::Sender<String>, deadline: Option<Instant>) -> Job {
        Job {
            request: Request {
                id: None,
                command: Command::Stats,
            },
            deadline,
            memo_key: None,
            line: None,
            reply,
        }
    }

    fn parse_response(line: &str) -> Value {
        crate::json::parse(line).expect("worker sends well-formed JSON")
    }

    #[test]
    fn executes_jobs_and_replies() {
        let stats = Arc::new(ServerStats::new());
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 2,
                queue_capacity: 8,
            },
            Arc::clone(&stats),
        );
        let (tx, rx) = mpsc::channel();
        pool.submit(stats_job(tx, None)).unwrap();
        let response = parse_response(&rx.recv_timeout(Duration::from_secs(10)).unwrap());
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(response.get("verb").unwrap().as_str(), Some("stats"));
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        let stats = Arc::new(ServerStats::new());
        // Zero-worker pools are impossible (min 1), so saturate with a job
        // that blocks on a deadline far in the future minus... simpler: a
        // capacity-1 pool whose single worker is parked on a slow decision
        // is timing-dependent; instead drop the pool first so `shutdown`
        // also exercises the rejection path.
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 1,
            },
            Arc::clone(&stats),
        );
        drop(pool);
        // And a live pool with a full queue rejects: fill the queue while
        // the worker is busy on an expired-deadline check barrier.
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 1,
            },
            Arc::clone(&stats),
        );
        let (tx, rx) = mpsc::channel();
        // Submit many jobs quickly; with capacity 1, at least one of the
        // first three submits must be rejected or all complete — both are
        // legal interleavings, so assert only that rejection hands the job
        // back intact when it happens.
        let mut rejected = 0;
        for _ in 0..64 {
            if let Err(job) = pool.submit(stats_job(tx.clone(), None)) {
                assert!(matches!(job.request.command, Command::Stats));
                rejected += 1;
            }
        }
        drop(tx);
        let answered = rx.iter().count();
        assert_eq!(answered + rejected, 64);
    }

    #[test]
    fn expired_batches_stop_between_items() {
        let stats = ServerStats::new();
        let item = Request {
            id: None,
            command: Command::Stats,
        };
        let request = Request {
            id: None,
            command: Command::Batch {
                requests: vec![item; 3],
                timeout_ms: None,
            },
        };
        let expired = Some(Instant::now() - Duration::from_millis(5));
        let response = respond(&request, &stats, expired);
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
        let results = response.get("result").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(results.len(), 3);
        for result in &results {
            assert_eq!(
                result.get("error").unwrap().get("code").unwrap().as_str(),
                Some("deadline_exceeded")
            );
        }
    }

    /// The between-item re-check takes the *tightest* of the batch deadline
    /// and the item's own `options.timeout_ms`, in both directions: a loose
    /// item timeout cannot revive an expired batch, and a tight item
    /// timeout expires its item even under a generous batch budget.
    #[test]
    fn batch_item_deadlines_take_the_tightest_of_batch_and_item() {
        let stats = ServerStats::new();
        let parse = |line: &str| {
            crate::protocol::parse_request(&crate::json::parse(line).unwrap(), true).unwrap()
        };
        // Direction 1: the batch deadline is already expired; an item
        // declaring a one-hour `timeout_ms` must NOT win it a slot.
        let request = parse(
            r#"{"op":"batch","requests":[{"op":"containment","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X).","options":{"timeout_ms":3600000}}]}"#,
        );
        let expired = Some(Instant::now() - Duration::from_millis(5));
        let response = respond(&request, &stats, expired);
        let results = response.get("result").unwrap().as_arr().unwrap();
        assert_eq!(
            results[0]
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some("deadline_exceeded"),
            "a loose item timeout must not override the expired batch deadline"
        );
        // Direction 2: a generous batch deadline; an item with
        // `timeout_ms: 0` expires on its own, while its untimed sibling
        // still answers normally.
        let request = parse(
            r#"{"op":"batch","requests":[{"op":"containment","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X).","options":{"timeout_ms":0}},{"op":"containment","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X)."}]}"#,
        );
        let generous = Some(Instant::now() + Duration::from_secs(3600));
        let response = respond(&request, &stats, generous);
        let results = response.get("result").unwrap().as_arr().unwrap();
        assert_eq!(
            results[0]
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some("deadline_exceeded"),
            "the item's own tighter timeout must win under a loose batch budget"
        );
        assert_eq!(
            results[1].get("ok").unwrap().as_bool(),
            Some(true),
            "the untimed sibling still answers under the batch deadline"
        );
    }

    #[test]
    fn expired_deadlines_answer_without_computing() {
        let stats = Arc::new(ServerStats::new());
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 4,
            },
            Arc::clone(&stats),
        );
        let (tx, rx) = mpsc::channel();
        let expired = Instant::now() - Duration::from_millis(10);
        pool.submit(stats_job(tx, Some(expired))).unwrap();
        let response = parse_response(&rx.recv_timeout(Duration::from_secs(10)).unwrap());
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            response.get("error").unwrap().get("code").unwrap().as_str(),
            Some("deadline_exceeded")
        );
    }

    #[test]
    fn a_second_completion_of_one_command_answers_with_the_first_result() {
        use crate::memo::{memo_key, LineMemo, ResponseMemo};
        let (memo, line_memo) = (ResponseMemo::new(), LineMemo::new());
        let line = |id: u32| {
            format!(
                r#"{{"id":{id},"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}}"#
            )
        };
        let request = |id: u32| {
            let value = crate::json::parse(&line(id)).unwrap();
            crate::protocol::parse_request(&value, true).unwrap()
        };
        // Two pipelined lines of one command, both computed, with results
        // that differ the way a second run's cache counters do.
        let completions = [(1, 0.0), (2, 4.0)].map(|(id, hits)| {
            let request = request(id);
            let response = ok_response(&request.id, "bounded", Value::num(hits));
            settle(
                &request,
                memo_key(&request.command),
                Some(&line(id)),
                response,
                &memo,
                &line_memo,
            )
        });
        let first = ok_response(&Some(Value::num(1.0)), "bounded", Value::num(0.0)).render();
        let second = ok_response(&Some(Value::num(2.0)), "bounded", Value::num(0.0)).render();
        assert_eq!(completions, [first, second]);
        assert_eq!(
            memo.lookup(&memo_key(&request(3).command).unwrap()),
            Some(Value::num(0.0))
        );
        let third = ok_response(&Some(Value::num(3.0)), "bounded", Value::num(0.0)).render();
        assert_eq!(line_memo.recall_line(&line(3)), Some(("bounded", third)));
        assert_eq!(line_memo.len(), 1);
    }
}
