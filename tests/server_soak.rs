//! Soak test: a bounded-cache `nonrec-serve` under sustained multi-client
//! churn.
//!
//! Spawns the real binary with tiny `--cache-max-*` caps, drives 4 clients
//! through enough **distinct** requests that the cache must evict
//! continuously, and watches the `stats` verb from a fifth connection the
//! whole time.  Asserts the hardening properties the ROADMAP asks for:
//!
//! * every request answers `ok` — no `busy` storm (the pool absorbs 4
//!   synchronous clients without shedding), no decision errors;
//! * monotone counters: `requests`, `hits`, `misses`, `evictions` never
//!   move backwards between observations;
//! * **bounded occupancy**: every observed `CacheSizes` respects the caps
//!   — the memory bound holds *throughout*, not just at the end;
//! * **exact caps**: at the end, every segment that evicted holds exactly
//!   its cap (an overflow evicts one least-recently-used entry, not a
//!   batch);
//! * evictions actually occur (the workload is genuinely larger than the
//!   cache), and repeated keys still produce hits under churn.
//!
//! Gated: set `NONREC_SOAK_FAST=1` (CI's timed soak stage, a few seconds)
//! or `NONREC_SOAK=1` (longer) — otherwise the test is a no-op, so plain
//! `cargo test` stays fast.

use std::sync::atomic::{AtomicBool, Ordering};

use server::json::Value;
use server::protocol;
use server::Client;

const DECISION_CAP: u64 = 24;
const CQ_PAIR_CAP: u64 = 64;
const CANONICAL_CAP: u64 = 64;
const CLIENTS: usize = 4;

fn soak_requests_per_client() -> Option<usize> {
    if std::env::var_os("NONREC_SOAK").is_some() {
        Some(600)
    } else if std::env::var_os("NONREC_SOAK_FAST").is_some() {
        Some(150)
    } else {
        None
    }
}

mod common;
use common::{RouterProc, ServerProc};

/// One observation of the counters this soak watches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sample {
    requests: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    busy: u64,
    decision_entries: u64,
    cq_pair_entries: u64,
    cq_in_program_entries: u64,
    evicted_decisions: u64,
    evicted_cq_pairs: u64,
    evicted_cq_in_program: u64,
}

fn sample(client: &mut Client) -> Sample {
    let response = client.request(&protocol::stats_request()).expect("stats");
    let result = response.get("result").expect("stats result");
    let server = result.get("server").expect("server block");
    let cache = result.get("cache").expect("cache block");
    let get = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    Sample {
        requests: get(server, "requests"),
        hits: get(cache, "hits"),
        misses: get(cache, "misses"),
        evictions: get(cache, "evictions"),
        busy: get(server, "busy_rejected"),
        decision_entries: get(cache, "decision_entries"),
        cq_pair_entries: get(cache, "cq_pair_entries"),
        cq_in_program_entries: get(cache, "cq_in_program_entries"),
        evicted_decisions: get(cache, "evicted_decisions"),
        evicted_cq_pairs: get(cache, "evicted_cq_pairs"),
        evicted_cq_in_program: get(cache, "evicted_cq_in_program"),
    }
}

fn assert_bounded(sample: &Sample, context: &str) {
    assert!(
        sample.decision_entries <= DECISION_CAP,
        "{context}: {} decision entries over the cap of {DECISION_CAP}",
        sample.decision_entries
    );
    assert!(
        sample.cq_pair_entries <= CQ_PAIR_CAP,
        "{context}: {} cq-pair entries over the cap of {CQ_PAIR_CAP}",
        sample.cq_pair_entries
    );
    assert!(
        sample.cq_in_program_entries <= CANONICAL_CAP,
        "{context}: {} canonical-db entries over the cap of {CANONICAL_CAP}",
        sample.cq_in_program_entries
    );
}

/// Every segment that has evicted is full to exactly its cap: once a
/// segment overflows, each further store of a new key sheds one entry.
fn assert_full_where_evicted(sample: &Sample, context: &str) {
    for (name, evicted, entries, cap) in [
        (
            "decision",
            sample.evicted_decisions,
            sample.decision_entries,
            DECISION_CAP,
        ),
        (
            "cq-pair",
            sample.evicted_cq_pairs,
            sample.cq_pair_entries,
            CQ_PAIR_CAP,
        ),
        (
            "canonical-db",
            sample.evicted_cq_in_program,
            sample.cq_in_program_entries,
            CANONICAL_CAP,
        ),
    ] {
        if evicted > 0 {
            assert_eq!(
                entries, cap,
                "{context}: the {name} segment evicted {evicted} entries but holds \
                 {entries}, not its cap of {cap}"
            );
        }
    }
}

fn assert_monotone(previous: &Sample, current: &Sample, context: &str) {
    for (name, before, after) in [
        ("requests", previous.requests, current.requests),
        ("hits", previous.hits, current.hits),
        ("misses", previous.misses, current.misses),
        ("evictions", previous.evictions, current.evictions),
        ("busy_rejected", previous.busy, current.busy),
    ] {
        assert!(
            after >= before,
            "{context}: counter `{name}` moved backwards ({before} -> {after})"
        );
    }
}

/// The request of client `c` at step `i`: a cheap equivalence decision over
/// a client-unique predicate.  Every other step revisits an earlier key of
/// the same client, so the stream has repeats (hit opportunities) inside a
/// keyspace far wider than the caps (eviction pressure).
fn request_for(client: usize, step: usize) -> Value {
    let k = if step.is_multiple_of(2) {
        step
    } else {
        step / 4
    };
    let e = format!("e{client}_{k}");
    protocol::equivalence_request(
        &format!("b(X, Y) :- {e}(X, Y).\nb(X, Y) :- t(X), b(Z, Y)."),
        "b",
        &format!("b(X, Y) :- {e}(X, Y).\nb(X, Y) :- t(X), {e}(Z, Y)."),
    )
}

#[test]
fn bounded_cache_soak_stays_healthy_under_churn() {
    let Some(per_client) = soak_requests_per_client() else {
        eprintln!("server_soak: skipped (set NONREC_SOAK_FAST=1 or NONREC_SOAK=1 to run)");
        return;
    };

    let server = ServerProc::spawn(&[
        "--workers",
        "4",
        "--queue",
        "64",
        "--cache-max-decisions",
        &DECISION_CAP.to_string(),
        "--cache-max-cq-pairs",
        &CQ_PAIR_CAP.to_string(),
        "--cache-max-canonical",
        &CANONICAL_CAP.to_string(),
    ]);

    let done = AtomicBool::new(false);
    let (outcomes, samples) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut client = server.client();
                scope.spawn(move || {
                    let mut ok = 0usize;
                    let mut errors = Vec::new();
                    for i in 0..per_client {
                        let response = client.request(&request_for(c, i)).expect("round-trip");
                        if response.get("ok").and_then(Value::as_bool) == Some(true) {
                            ok += 1;
                        } else if errors.len() < 5 {
                            errors.push(response.render());
                        }
                    }
                    (ok, errors)
                })
            })
            .collect();

        // The observer: polls `stats` (off-pool, so it works regardless of
        // load) until the fleet finishes, checking bounds and monotonicity
        // on every observation.
        let observer = scope.spawn(|| {
            let mut client = server.client();
            let mut samples = vec![sample(&mut client)];
            while !done.load(Ordering::SeqCst) {
                let current = sample(&mut client);
                let previous = samples.last().unwrap();
                assert_monotone(previous, &current, "mid-soak");
                assert_bounded(&current, "mid-soak");
                samples.push(current);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            samples.push(sample(&mut client));
            samples
        });

        let outcomes: Vec<_> = workers
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (outcomes, observer.join().expect("observer thread"))
    });

    // Every request of every client answered ok.
    for (c, (ok, errors)) in outcomes.iter().enumerate() {
        assert_eq!(
            *ok,
            per_client,
            "client {c}: {} failures, e.g. {:?}",
            per_client - ok,
            errors
        );
    }

    let first = samples.first().unwrap();
    let last = samples.last().unwrap();
    assert!(
        samples.len() >= 3,
        "the observer must actually observe the soak"
    );
    assert_eq!(last.busy, 0, "no busy storm: {} rejections", last.busy);
    assert_bounded(last, "final");
    assert_full_where_evicted(last, "final");
    assert!(
        last.evictions > 0,
        "the workload must overflow the caps and evict"
    );
    assert!(
        last.hits > first.hits,
        "repeated keys must still hit under churn"
    );
    assert!(
        last.requests >= (CLIENTS * per_client) as u64,
        "the fleet's requests must all be visible in the counters"
    );
}

/// Give a request an `id` (the pipelined correlation token).
fn with_id(mut request: Value, id: u64) -> Value {
    if let Value::Obj(fields) = &mut request {
        fields.push(("id".into(), Value::num(id as f64)));
    }
    request
}

/// The kill-one-shard requeue scenario (acceptance criterion): a 2-shard
/// routed fleet under a deep pipelined burst loses a shard mid-flight and
/// still answers **every** request ok — the router requeues the dead
/// shard's in-flight work to the survivor; zero lost requests.
///
/// Gated like the churn soak: `NONREC_SOAK_FAST=1` / `NONREC_SOAK=1`.
#[test]
fn routed_fleet_requeues_in_flight_work_when_a_shard_dies() {
    let Some(total) = soak_requests_per_client() else {
        eprintln!("server_soak: skipped (set NONREC_SOAK_FAST=1 or NONREC_SOAK=1 to run)");
        return;
    };

    // Deep pipelining: each shard may have hundreds of requests queued at
    // once, so the shard queues must absorb the whole burst (`busy` would
    // be a test artefact, not a router property).
    let shard_args = ["--workers", "2", "--queue", "2048"];
    let mut shard_a = ServerProc::spawn(&shard_args);
    let shard_b = ServerProc::spawn(&shard_args);
    let router = RouterProc::spawn(&[shard_a.addr(), shard_b.addr()], &[]);
    let mut client = router.client();

    // All-distinct decisions (every predicate unique): nothing is answered
    // from a warm cache instantly, so work is genuinely in flight on both
    // shards when the kill lands.
    let requests: Vec<Value> = (0..total as u64)
        .map(|i| {
            with_id(
                protocol::equivalence_request(
                    &format!("b(X, Y) :- r{i}(X, Y).\nb(X, Y) :- t(X), b(Z, Y)."),
                    "b",
                    &format!("b(X, Y) :- r{i}(X, Y).\nb(X, Y) :- t(X), r{i}(Z, Y)."),
                ),
                i,
            )
        })
        .collect();
    client.send_all(&requests).expect("pipelined burst");

    // Read a quarter of the fleet's answers, then crash one shard with the
    // other three quarters still in flight.
    let mut seen = std::collections::HashMap::new();
    let mut read_one = |client: &mut Client| {
        let response = client.recv().expect("zero lost requests");
        let id = response
            .get("id")
            .and_then(Value::as_u64)
            .expect("echoed id");
        let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
        assert!(ok, "request {id} failed: {}", response.render());
        assert!(seen.insert(id, ()).is_none(), "duplicate response for {id}");
    };
    for _ in 0..total / 4 {
        read_one(&mut client);
    }
    shard_a.kill();
    for _ in total / 4..total {
        read_one(&mut client);
    }
    assert_eq!(seen.len(), total, "every request answered exactly once");

    // The router observed the death and moved the dead shard's in-flight
    // work to the survivor.
    let stats = client.request(&protocol::stats_request()).expect("stats");
    let result = stats.get("result").expect("stats result");
    let shards: Vec<&Value> = result
        .get("shards")
        .and_then(Value::as_arr)
        .expect("per-shard counters")
        .iter()
        .collect();
    assert_eq!(shards.len(), 2);
    let alive: Vec<bool> = shards
        .iter()
        .map(|s| s.get("alive").and_then(Value::as_bool).unwrap())
        .collect();
    assert_eq!(
        alive.iter().filter(|a| !**a).count(),
        1,
        "exactly one shard is down: {alive:?}"
    );
    let requeued: u64 = shards
        .iter()
        .map(|s| s.get("requeued").and_then(Value::as_u64).unwrap())
        .sum();
    assert!(
        requeued >= 1,
        "the killed shard held in-flight work; the router must have requeued it"
    );
    let unavailable = result
        .get("router")
        .and_then(|r| r.get("shard_unavailable"))
        .and_then(Value::as_u64)
        .unwrap();
    assert_eq!(
        unavailable, 0,
        "a live shard remained; nothing may have been refused"
    );
}

/// Tentpole acceptance criterion: two replays of the same capture produce
/// **byte-identical** response multisets.  The flow exercises the whole
/// record/replay surface: a seeded `workload` stream is driven through a
/// `--record`ing server, the capture on disk is checked against the sent
/// lines byte-for-byte, and the capture is then replayed twice — the first
/// replay is answered through the text memos warmed by the recording pass,
/// and the second replay's byte-identical request lines recall the exact
/// stored bytes, wall-clock `micros` fields and all.
///
/// Gated like the churn soak: `NONREC_SOAK_FAST=1` / `NONREC_SOAK=1`.
#[test]
fn replaying_one_capture_twice_is_byte_identical() {
    let Some(total) = soak_requests_per_client() else {
        eprintln!("server_soak: skipped (set NONREC_SOAK_FAST=1 or NONREC_SOAK=1 to run)");
        return;
    };
    use server::replay::{load_capture, replay, response_digest, CaptureRecord};

    let dir = std::env::temp_dir().join(format!("nonrec-replay-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let capture_path = dir.join("capture.log");

    let server = ServerProc::spawn(&[
        "--workers",
        "4",
        "--queue",
        "2048",
        "--record",
        capture_path.to_str().expect("utf-8 temp path"),
    ]);

    // A skewed, bursty, multi-tenant mix over the six decision verbs —
    // every line memoisable, every id unique.
    let spec = workload::WorkloadSpec {
        requests: total,
        tenants: 3,
        programs: 8,
        zipf_s: 1.1,
        ..workload::WorkloadSpec::default()
    };
    let stream = workload::generate(&spec, 42);
    let records: Vec<CaptureRecord> = stream
        .iter()
        .map(|r| CaptureRecord {
            offset_micros: r.offset_micros,
            line: r.line.clone(),
        })
        .collect();

    // Recording pass: drive the traffic through the recording server.
    let responses = replay(server.addr(), &records, false).expect("recording pass");
    assert_eq!(responses.len(), total);
    for response in &responses {
        assert!(
            response.contains("\"ok\":true"),
            "recording pass must be all-ok: {response}"
        );
    }

    // The capture on disk holds every sent line byte-for-byte, in arrival
    // order — the ground truth the replays run from.
    let captured = load_capture(&capture_path).expect("load capture");
    let sent: Vec<&str> = stream.iter().map(|r| r.line.as_str()).collect();
    let recorded: Vec<&str> = captured.iter().map(|r| r.line.as_str()).collect();
    assert_eq!(recorded, sent, "capture must store the lines byte-for-byte");

    // Two replays of the same capture: byte-identical response multisets,
    // id-matched.
    let first = replay(server.addr(), &captured, false).expect("replay 1");
    let second = replay(server.addr(), &captured, false).expect("replay 2");
    assert_eq!(response_digest(&first), response_digest(&second));
    let ids = |responses: &[String]| -> Vec<String> {
        let mut ids: Vec<String> = responses
            .iter()
            .map(|line| {
                let value = server::json::parse(line).expect("response is JSON");
                value
                    .get("id")
                    .and_then(Value::as_str)
                    .expect("echoed id")
                    .to_string()
            })
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(
        ids(&first),
        ids(&second),
        "same ids answered in both replays"
    );
    let mut first = first;
    let mut second = second;
    first.sort_unstable();
    second.sort_unstable();
    assert_eq!(
        first, second,
        "two replays of one capture must answer byte-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The router's byte splice under a deep pipelined stream: a recorded
/// workload capture replayed directly to one shard twice, then through a
/// one-backend router, answers the routed pass with exactly the second
/// direct pass's bytes (both passes pipelined, unpaced).  The second direct pass is answered from the line
/// memo; the routed lines carry router ids, so the shard answers them from
/// the response memo and the router splices each client id back in.
///
/// Gated like the churn soak: `NONREC_SOAK_FAST=1` / `NONREC_SOAK=1`.
#[test]
fn routed_replay_answers_like_a_direct_replay() {
    let Some(total) = soak_requests_per_client() else {
        eprintln!("server_soak: skipped (set NONREC_SOAK_FAST=1 or NONREC_SOAK=1 to run)");
        return;
    };
    use server::replay::{load_capture, replay, response_digest, write_capture, CaptureRecord};

    let spec = workload::WorkloadSpec {
        requests: 4 * total,
        tenants: 3,
        programs: 16,
        zipf_s: 1.1,
        ..workload::WorkloadSpec::default()
    };
    let records: Vec<CaptureRecord> = workload::generate(&spec, 601)
        .into_iter()
        .map(|r| CaptureRecord {
            offset_micros: r.offset_micros,
            line: r.line,
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("nonrec-routed-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let capture_path = dir.join("capture.log");
    write_capture(
        std::fs::File::create(&capture_path).expect("create capture"),
        &records,
    )
    .expect("write capture");
    let captured = load_capture(&capture_path).expect("load capture");
    assert_eq!(captured, records);

    let shard = ServerProc::spawn(&["--workers", "2", "--queue", "4096"]);
    let router = RouterProc::spawn(&[shard.addr()], &[]);
    let first = replay(shard.addr(), &captured, false).expect("direct pass 1");
    for response in &first {
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let second = replay(shard.addr(), &captured, false).expect("direct pass 2");
    let routed = replay(router.addr(), &captured, false).expect("routed pass");
    assert_eq!(routed.len(), captured.len());
    if response_digest(&routed) != response_digest(&second) {
        let mut routed = routed;
        let mut second = second;
        routed.sort_unstable();
        second.sort_unstable();
        let first_diff = routed.iter().zip(&second).find(|(a, b)| a != b);
        panic!("routed and direct replays differ; first difference: {first_diff:?}");
    }
    let stats = router
        .client()
        .request(&protocol::stats_request())
        .expect("stats");
    let shards = stats
        .get("result")
        .and_then(|r| r.get("shards"))
        .and_then(Value::as_arr)
        .expect("per-shard counters");
    assert_eq!(
        shards[0].get("replies").and_then(Value::as_u64),
        Some(captured.len() as u64),
        "every routed answer counts as a reply"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: exactly-once delivery under replayed traffic across a shard
/// death.  The capture file is the ground-truth request multiset: its raw
/// lines are streamed byte-for-byte at a 2-shard routed fleet, one shard is
/// killed mid-replay, and every captured id must come back exactly once —
/// no lost ids (the router requeued the dead shard's in-flight work), no
/// duplicated ids (nothing was delivered twice).
///
/// Gated like the churn soak: `NONREC_SOAK_FAST=1` / `NONREC_SOAK=1`.
#[test]
fn routed_replay_answers_every_captured_id_exactly_once_across_a_shard_death() {
    let Some(total) = soak_requests_per_client() else {
        eprintln!("server_soak: skipped (set NONREC_SOAK_FAST=1 or NONREC_SOAK=1 to run)");
        return;
    };
    use server::replay::{load_capture, write_capture, CaptureRecord};
    use std::io::Write;

    // Near-distinct programs (catalog as wide as the stream, uniform
    // popularity), so the burst is genuinely in flight on both shards when
    // the kill lands instead of being answered from warm memos.
    let spec = workload::WorkloadSpec {
        requests: total,
        tenants: 4,
        programs: total,
        zipf_s: 0.0,
        ..workload::WorkloadSpec::default()
    };
    let stream = workload::generate(&spec, 7);
    let dir = std::env::temp_dir().join(format!("nonrec-requeue-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let capture_path = dir.join("capture.log");
    let records: Vec<CaptureRecord> = stream
        .iter()
        .map(|r| CaptureRecord {
            offset_micros: r.offset_micros,
            line: r.line.clone(),
        })
        .collect();
    write_capture(
        std::fs::File::create(&capture_path).expect("create capture"),
        &records,
    )
    .expect("write capture");
    let captured = load_capture(&capture_path).expect("load capture");
    let mut expected_ids: Vec<String> = captured
        .iter()
        .map(|record| {
            let value = server::json::parse(&record.line).expect("captured line is JSON");
            value
                .get("id")
                .and_then(Value::as_str)
                .expect("workload lines carry ids")
                .to_string()
        })
        .collect();

    let shard_args = ["--workers", "2", "--queue", "2048"];
    let mut shard_a = ServerProc::spawn(&shard_args);
    let shard_b = ServerProc::spawn(&shard_args);
    let router = RouterProc::spawn(&[shard_a.addr(), shard_b.addr()], &[]);
    let mut client = router.client();

    // Stream the captured lines raw (byte-for-byte) in one pipelined burst.
    {
        let mut writer = client.writer_clone().expect("writer handle");
        let mut framed = String::new();
        for record in &captured {
            framed.push_str(&record.line);
            framed.push('\n');
        }
        writer.write_all(framed.as_bytes()).expect("stream capture");
        writer.flush().expect("flush capture");
    }

    // Read a quarter of the answers, then crash one shard with the rest
    // still in flight.
    let mut seen: Vec<String> = Vec::with_capacity(total);
    let read_one = |client: &mut Client| {
        let response = client.recv().expect("zero lost requests");
        let id = response
            .get("id")
            .and_then(Value::as_str)
            .expect("echoed id")
            .to_string();
        assert!(
            response.get("ok").and_then(Value::as_bool) == Some(true),
            "request {id} failed: {}",
            response.render()
        );
        id
    };
    for _ in 0..total / 4 {
        let id = read_one(&mut client);
        seen.push(id);
    }
    shard_a.kill();
    for _ in total / 4..total {
        let id = read_one(&mut client);
        seen.push(id);
    }

    // Exactly-once: the answered-id multiset equals the captured-id
    // multiset — nothing lost, nothing duplicated.
    seen.sort_unstable();
    expected_ids.sort_unstable();
    assert_eq!(
        seen, expected_ids,
        "every captured id answered exactly once"
    );

    // And the router really did requeue the dead shard's in-flight work.
    let stats = client.request(&protocol::stats_request()).expect("stats");
    let result = stats.get("result").expect("stats result");
    let shards: Vec<&Value> = result
        .get("shards")
        .and_then(Value::as_arr)
        .expect("per-shard counters")
        .iter()
        .collect();
    let requeued: u64 = shards
        .iter()
        .map(|s| s.get("requeued").and_then(Value::as_u64).unwrap())
        .sum();
    assert!(
        requeued >= 1,
        "the killed shard held in-flight work; the router must have requeued it"
    );
    std::fs::remove_dir_all(&dir).ok();
}
