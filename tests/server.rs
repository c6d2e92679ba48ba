//! Integration suite for the `nonrec-serve` server binary.
//!
//! Spawns the real binary (TCP on an OS-assigned port, and stdio mode),
//! drives it with concurrent [`server::Client`]s, and locks the wire
//! verdicts to the in-process `nonrec_equivalence` oracle:
//!
//! * ≥ 100 generated instances (containment and equivalence) answer with
//!   verdicts identical to calling the library directly;
//! * a repeated `batch` is answered ≥ 90 % from the shared decision cache,
//!   observed through the `stats` verb — the amortisation the server
//!   exists for;
//! * transport errors (`invalid_json`, `bad_request`, parse errors in
//!   payloads) answer with stable codes and never kill the connection.

use std::io::Write;
use std::process::{Command, Stdio};

use cq::generate::{random_cq, RandomCqConfig};
use cq::{ConjunctiveQuery, Ucq};
use datalog::atom::Pred;
use datalog::generate::{random_program, RandomProgramConfig};
use datalog::program::Program;
use datalog::substitution::Substitution;
use datalog::term::{Term, Var};
use nonrec_equivalence::containment::{datalog_contained_in_ucq_with, DecisionOptions};
use nonrec_equivalence::equivalence::equivalent_to_nonrecursive_with;
use nonrec_equivalence::expansions_up_to_depth_limited;
use server::json::{obj, Value};
use server::protocol;
use server::Client;

/// The generated-instance pair budget shared by the oracle sweeps; the
/// acceptance bar is ≥ 100 instances total and both sweeps contribute.
const CONTAINMENT_INSTANCES: u64 = 80;
const EQUIVALENCE_SEEDS: u64 = 40;
const MAX_PAIRS: usize = 50_000;

mod common;
use common::ServerProc;

fn program_config() -> RandomProgramConfig {
    RandomProgramConfig {
        edb_predicates: 2,
        idb_predicates: 2,
        rules: 3,
        max_body_atoms: 2,
        max_variables: 3,
        idb_probability: 0.3,
    }
}

/// A random UCQ whose disjuncts all have the goal's arity (2) — the same
/// shape the cache differential suite sweeps.
fn random_ucq(seed: u64) -> Ucq {
    let config = RandomCqConfig {
        body_atoms: 2,
        variables: 3,
        distinguished: 2,
        predicates: vec!["e0".into(), "e1".into()],
    };
    let disjuncts = 1 + (seed % 3) as usize;
    let mut out = Ucq::empty();
    let mut attempt = seed.wrapping_mul(97);
    while out.len() < disjuncts {
        let candidate = random_cq(&config, attempt);
        attempt = attempt.wrapping_add(1);
        if candidate.arity() == 2 {
            out.push(candidate);
        }
    }
    out
}

fn oracle_options() -> DecisionOptions {
    DecisionOptions {
        max_pairs: Some(MAX_PAIRS),
        ..DecisionOptions::default()
    }
}

/// Rename every variable to `V0, V1, …` so the rendered rule survives a
/// parse round-trip (the unfolder's fresh variables render as `u#7`, which
/// the lexer rejects).  A bijective renaming, so semantics are unchanged.
fn parseable(cq: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut subst = Substitution::new();
    for (i, v) in cq.variables().into_iter().enumerate() {
        subst.bind_var(v, Term::Var(Var::new(&format!("V{i}"))));
    }
    cq.apply(&subst)
}

fn ucq_text(ucq: &Ucq) -> String {
    ucq.disjuncts
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn with_budget(mut request: Value, id: u64) -> Value {
    if let Value::Obj(fields) = &mut request {
        fields.push(("id".into(), Value::num(id as f64)));
        fields.push((
            "options".into(),
            obj(vec![("max_pairs", Value::num(MAX_PAIRS as f64))]),
        ));
    }
    request
}

/// What the in-process library says about an instance, reduced to what
/// travels on the wire.
#[derive(Debug, PartialEq, Eq)]
enum Oracle {
    Verdict(bool),
    Error(&'static str),
}

fn check_against_oracle(response: &Value, oracle: &Oracle, verdict_field: &str, context: &str) {
    match oracle {
        Oracle::Verdict(expected) => {
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(true),
                "{context}: expected success, got {}",
                response.render()
            );
            let got = response
                .get("result")
                .and_then(|r| r.get(verdict_field))
                .and_then(Value::as_bool);
            assert_eq!(got, Some(*expected), "{context}: verdict mismatch");
        }
        Oracle::Error(code) => {
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(false),
                "{context}: expected error `{code}`, got {}",
                response.render()
            );
            let got = response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str);
            assert_eq!(got, Some(*code), "{context}: error code mismatch");
        }
    }
}

/// Concurrent clients, generated instances, verdicts locked to the
/// in-process oracle — the acceptance-criterion sweep.
#[test]
fn generated_instances_match_the_in_process_oracle_concurrently() {
    let goal = Pred::new("q0");

    // Containment instances.
    let mut instances: Vec<(Value, Oracle, String, &'static str)> = Vec::new();
    for seed in 0..CONTAINMENT_INSTANCES {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);
        let oracle = match datalog_contained_in_ucq_with(&program, goal, &ucq, oracle_options()) {
            Ok(result) => Oracle::Verdict(result.contained),
            Err(e) => Oracle::Error(e.code()),
        };
        let request = with_budget(
            protocol::containment_request(&program.to_string(), "q0", &ucq_text(&ucq)),
            seed,
        );
        instances.push((
            request,
            oracle,
            format!("containment seed {seed}"),
            "contained",
        ));
    }

    // Equivalence instances: each program against its own shallow
    // unfolding; bounded programs are equivalent, properly recursive ones
    // are not — both verdicts occur across the sweep.
    for seed in 0..EQUIVALENCE_SEEDS {
        let program = random_program(&program_config(), seed);
        let unfolding = expansions_up_to_depth_limited(&program, goal, 2, usize::MAX).unwrap();
        if unfolding.is_empty() || unfolding.len() > 24 {
            continue;
        }
        let candidate = Program::new(
            unfolding
                .disjuncts
                .iter()
                .map(|d| parseable(d).to_rule())
                .collect(),
        );
        let oracle =
            match equivalent_to_nonrecursive_with(&program, goal, &candidate, oracle_options()) {
                Ok(result) => Oracle::Verdict(result.verdict.is_equivalent()),
                Err(e) => Oracle::Error(e.code()),
            };
        let request = with_budget(
            protocol::equivalence_request(&program.to_string(), "q0", &candidate.to_string()),
            1000 + seed,
        );
        instances.push((
            request,
            oracle,
            format!("equivalence seed {seed}"),
            "equivalent",
        ));
    }

    assert!(
        instances.len() >= 100,
        "only {} generated instances; the sweep must cover at least 100",
        instances.len()
    );

    let server = ServerProc::spawn(&[]);
    let shards: Vec<Vec<&(Value, Oracle, String, &'static str)>> = {
        let mut shards: Vec<Vec<_>> = (0..4).map(|_| Vec::new()).collect();
        for (i, instance) in instances.iter().enumerate() {
            shards[i % 4].push(instance);
        }
        shards
    };
    std::thread::scope(|scope| {
        for shard in &shards {
            let mut client = server.client();
            scope.spawn(move || {
                for (request, oracle, context, verdict_field) in shard {
                    let response = client.request(request).expect("request round-trip");
                    check_against_oracle(&response, oracle, verdict_field, context);
                }
            });
        }
    });

    // The sweep must exercise both verdicts and at least one error path to
    // mean anything.
    let verdicts: Vec<&Oracle> = instances.iter().map(|(_, o, _, _)| o).collect();
    assert!(verdicts.iter().any(|o| matches!(o, Oracle::Verdict(true))));
    assert!(verdicts.iter().any(|o| matches!(o, Oracle::Verdict(false))));
}

fn cache_counters(client: &mut Client) -> (u64, u64) {
    let response = client.request(&protocol::stats_request()).expect("stats");
    let cache = response
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("stats carries cache counters");
    (
        cache.get("hits").and_then(Value::as_u64).expect("hits"),
        cache.get("misses").and_then(Value::as_u64).expect("misses"),
    )
}

/// A repeated batch answers ≥ 90 % of its decisions from the shared cache
/// — the acceptance criterion, measured through the `stats` verb.
#[test]
fn repeated_batch_is_answered_from_the_decision_cache() {
    let goal_text = "q0";
    let mut requests = Vec::new();
    for seed in 0..24u64 {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);
        requests.push(with_budget(
            protocol::containment_request(&program.to_string(), goal_text, &ucq_text(&ucq)),
            seed,
        ));
    }
    let batch = protocol::batch_request(requests);

    let server = ServerProc::spawn(&[]);
    let mut client = server.client();

    let first = client.request(&batch).expect("first batch");
    assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
    let (hits_before, misses_before) = cache_counters(&mut client);

    let second = client.request(&batch).expect("second batch");
    assert_eq!(
        second.get("result"),
        first.get("result"),
        "identical batches must answer identically"
    );
    let (hits_after, misses_after) = cache_counters(&mut client);

    let hits = hits_after - hits_before;
    let misses = misses_after - misses_before;
    let total = hits + misses;
    assert!(
        total > 0,
        "the second batch performed no cache lookups at all"
    );
    let rate = hits as f64 / total as f64;
    assert!(
        rate >= 0.9,
        "repeated batch hit rate {rate:.3} ({hits} hits / {misses} misses) below 90%"
    );
}

/// `clear_cache` on the wire drops everything, reports exactly how much it
/// dropped, and leaves the server deciding correctly (recomputing what it
/// forgot).
#[test]
fn clear_cache_reports_entries_dropped_and_decisions_survive() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();

    let request = with_budget(
        protocol::containment_request(
            "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).",
            "p",
            "q(X, Y) :- e(X, Y).",
        ),
        1,
    );
    let first = client.request(&request).expect("first decision");
    assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));

    let cleared = client
        .request(&protocol::clear_cache_request())
        .expect("clear_cache");
    assert_eq!(cleared.get("ok").and_then(Value::as_bool), Some(true));
    let dropped = cleared
        .get("result")
        .and_then(|r| r.get("dropped"))
        .expect("clear_cache reports drops");
    assert!(
        dropped.get("entries").and_then(Value::as_u64).unwrap() >= 1,
        "the decision above must have been cached, then dropped: {}",
        cleared.render()
    );

    // Occupancy is observably zero, and the same question re-decides to
    // the same answer (as a miss).
    let stats = client.request(&protocol::stats_request()).expect("stats");
    let cache = stats.get("result").and_then(|r| r.get("cache")).unwrap();
    assert_eq!(cache.get("entries").and_then(Value::as_u64), Some(0));
    let again = client.request(&request).expect("decision after clear");
    // The verdict and witness must reproduce exactly; only the wall-clock
    // field may differ (the entry was genuinely recomputed).
    for field in ["contained", "counterexample"] {
        assert_eq!(
            again.get("result").and_then(|r| r.get(field)),
            first.get("result").and_then(|r| r.get(field)),
            "field `{field}` changed across clear_cache"
        );
    }
}

/// The acceptance-criterion warm-start cycle: decide a batch, `save_cache`,
/// restart the server on the same `--cache-file`, and the first repetition
/// of the batch must answer ≥ 50 % of its lookups from the warmed cache.
#[test]
fn save_restart_load_answers_the_first_repeated_batch_from_the_warm_cache() {
    let snapshot =
        std::env::temp_dir().join(format!("nonrec-warm-start-{}.nrdc", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let snapshot_arg = snapshot.display().to_string();

    let mut requests = Vec::new();
    for seed in 0..24u64 {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);
        requests.push(with_budget(
            protocol::containment_request(&program.to_string(), "q0", &ucq_text(&ucq)),
            seed,
        ));
    }
    let batch = protocol::batch_request(requests);

    let first = {
        let server = ServerProc::spawn(&["--cache-file", &snapshot_arg]);
        let mut client = server.client();
        let first = client.request(&batch).expect("cold batch");
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        // Path-less save: resolves to the configured --cache-file.
        let saved = client
            .request(&protocol::save_cache_request(None))
            .expect("save_cache");
        assert_eq!(
            saved.get("ok").and_then(Value::as_bool),
            Some(true),
            "{}",
            saved.render()
        );
        assert!(
            saved
                .get("result")
                .and_then(|r| r.get("saved"))
                .and_then(|s| s.get("entries"))
                .and_then(Value::as_u64)
                .unwrap()
                >= 24
        );
        first
    }; // server killed here — the "restart"

    assert!(snapshot.exists(), "save_cache must have written the file");
    let server = ServerProc::spawn(&["--cache-file", &snapshot_arg]);
    let mut client = server.client();

    let (hits_before, misses_before) = cache_counters(&mut client);
    let repeated = client.request(&batch).expect("warm batch");
    // Item-by-item verdict/witness equality — deliberately not a full
    // `result` comparison: each item embeds its wall-clock `micros`, and
    // an item the warmed cache legitimately missed (the gate below only
    // demands ≥ 50 %) recomputes with a different timing.
    let items = |response: &Value| {
        response
            .get("result")
            .and_then(Value::as_arr)
            .expect("batch result array")
            .to_vec()
    };
    for (i, (cold, warm)) in items(&first)
        .iter()
        .zip(items(&repeated).iter())
        .enumerate()
    {
        for field in ["ok", "contained", "counterexample"] {
            let dig = |item: &Value| {
                item.get(field)
                    .or_else(|| item.get("result").and_then(|r| r.get(field)))
                    .cloned()
            };
            assert_eq!(
                dig(cold),
                dig(warm),
                "batch item {i}: field `{field}` changed across the restart"
            );
        }
    }
    let (hits_after, misses_after) = cache_counters(&mut client);
    let hits = hits_after - hits_before;
    let misses = misses_after - misses_before;
    assert!(hits + misses > 0, "the batch performed no lookups");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(
        rate >= 0.5,
        "first repeated batch after restart: warm hit rate {rate:.3} \
         ({hits} hits / {misses} misses) below 50%"
    );
    let _ = std::fs::remove_file(&snapshot);
}

/// Transport-level failures answer with stable codes and leave the
/// connection usable.
#[test]
fn malformed_input_gets_stable_error_codes_and_the_connection_survives() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();

    let raw = client.request_line("{not json").expect("error response");
    let parsed = server::json::parse(&raw).expect("error response is valid JSON");
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("invalid_json")
    );

    let response = client
        .request(&server::json::parse(r#"{"op":"containment","id":9}"#).unwrap())
        .expect("bad request response");
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(response.get("id").and_then(Value::as_u64), Some(9));
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_request")
    );

    // Payload-level parse error: the program text is broken Datalog.
    let response = client
        .request(&protocol::containment_request(
            "p(X :-",
            "p",
            "q(X) :- e(X, X).",
        ))
        .expect("parse error response");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("parse_error")
    );

    // The same connection still decides real requests afterwards.
    let response = client
        .request(&protocol::equivalence_request(
            "p(X) :- e(X, X).",
            "p",
            "p(X) :- e(X, X).",
        ))
        .expect("real request after errors");
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
}

/// The `--stdio` mode speaks the same protocol over stdin/stdout and exits
/// 0 at EOF.
#[test]
fn stdio_mode_answers_and_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nonrec-serve"))
        .arg("--stdio")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nonrec-serve --stdio");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        stdin
            .write_all(
                concat!(
                    r#"{"op":"bounded","id":1,"program":"buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).","goal":"buys","max_depth":4}"#,
                    "\n",
                    r#"{"op":"stats","id":2}"#,
                    "\n"
                )
                .as_bytes(),
            )
            .expect("write requests");
        // Dropping stdin sends EOF.
    }
    let output = child.wait_with_output().expect("wait for nonrec-serve");
    assert!(output.status.success(), "stdio mode must exit 0 at EOF");
    let lines: Vec<&str> = std::str::from_utf8(&output.stdout)
        .expect("utf8 stdout")
        .lines()
        .collect();
    assert_eq!(lines.len(), 2, "one response line per request line");
    // The protocol is pipelined: the inline-answered `stats` may complete
    // before the pooled `bounded` decision, so match responses by id
    // instead of arrival order.
    let by_id = |want: u64| {
        lines
            .iter()
            .map(|line| server::json::parse(line).expect("valid JSON response"))
            .find(|v| v.get("id").and_then(Value::as_u64) == Some(want))
            .unwrap_or_else(|| panic!("no response with id {want}"))
    };
    let bounded = by_id(1);
    assert_eq!(
        bounded
            .get("result")
            .and_then(|r| r.get("bounded"))
            .and_then(Value::as_bool),
        Some(true)
    );
    let stats = by_id(2);
    assert_eq!(
        stats
            .get("result")
            .and_then(|r| r.get("server"))
            .and_then(|s| s.get("requests"))
            .and_then(Value::as_u64),
        Some(2)
    );
}

/// The pipelining differential (acceptance criterion): one client writes
/// every request before reading anything; all responses arrive, match by
/// id, and carry verdicts identical to the in-process oracle — regardless
/// of the (completion-determined) arrival order.
#[test]
fn pipelined_client_gets_every_response_matched_by_id() {
    let goal = Pred::new("q0");
    let mut instances: Vec<(u64, Value, Oracle)> = Vec::new();
    for seed in 0..40u64 {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);
        let oracle = match datalog_contained_in_ucq_with(&program, goal, &ucq, oracle_options()) {
            Ok(result) => Oracle::Verdict(result.contained),
            Err(e) => Oracle::Error(e.code()),
        };
        let request = with_budget(
            protocol::containment_request(&program.to_string(), "q0", &ucq_text(&ucq)),
            seed,
        );
        instances.push((seed, request, oracle));
    }

    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let requests: Vec<Value> = instances.iter().map(|(_, r, _)| r.clone()).collect();
    // The whole burst goes out in one buffered write, before any read.
    client.send_all(&requests).expect("pipelined write");

    let mut responses: std::collections::HashMap<u64, Value> = std::collections::HashMap::new();
    for _ in 0..instances.len() {
        let response = client.recv().expect("pipelined read");
        let id = response
            .get("id")
            .and_then(Value::as_u64)
            .expect("every response echoes its id");
        assert!(
            responses.insert(id, response).is_none(),
            "duplicate response for id {id}"
        );
    }
    assert_eq!(responses.len(), instances.len(), "every request answered");

    for (id, _, oracle) in &instances {
        let response = responses
            .get(id)
            .unwrap_or_else(|| panic!("no response for id {id}"));
        check_against_oracle(response, oracle, "contained", &format!("pipelined id {id}"));
    }

    // The connection still works round-trip, and the server observed real
    // pipelining depth (many decisions simultaneously queued or running).
    let stats = client.request(&protocol::stats_request()).expect("stats");
    let server_block = stats
        .get("result")
        .and_then(|r| r.get("server"))
        .expect("stats carries server counters");
    let max_inflight = server_block
        .get("max_inflight")
        .and_then(Value::as_u64)
        .expect("max_inflight is reported");
    assert!(
        max_inflight >= 2,
        "a 40-deep pipelined burst should overlap decisions, max_inflight = {max_inflight}"
    );
}

/// The router front end: decisions forwarded to shards answer with the
/// oracle's verdicts (pipelined, matched by id), structurally identical
/// programs land on one shard, admin verbs are rejected at the router, and
/// the router's `stats` exposes per-shard counters.
#[test]
fn router_shards_requests_and_answers_like_the_oracle() {
    let goal = Pred::new("q0");
    let mut instances: Vec<(u64, Value, Oracle)> = Vec::new();
    for seed in 0..24u64 {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);
        let oracle = match datalog_contained_in_ucq_with(&program, goal, &ucq, oracle_options()) {
            Ok(result) => Oracle::Verdict(result.contained),
            Err(e) => Oracle::Error(e.code()),
        };
        let request = with_budget(
            protocol::containment_request(&program.to_string(), "q0", &ucq_text(&ucq)),
            seed,
        );
        instances.push((seed, request, oracle));
    }

    let shard_a = ServerProc::spawn(&[]);
    let shard_b = ServerProc::spawn(&[]);
    let router = common::RouterProc::spawn(&[shard_a.addr(), shard_b.addr()], &[]);
    let mut client = router.client();

    let requests: Vec<Value> = instances.iter().map(|(_, r, _)| r.clone()).collect();
    client.send_all(&requests).expect("pipelined write");
    let mut responses: std::collections::HashMap<u64, Value> = std::collections::HashMap::new();
    for _ in 0..instances.len() {
        let response = client.recv().expect("pipelined read");
        let id = response
            .get("id")
            .and_then(Value::as_u64)
            .expect("the router restores the client id");
        assert!(
            responses.insert(id, response).is_none(),
            "duplicate id {id}"
        );
    }
    for (id, _, oracle) in &instances {
        let response = responses
            .get(id)
            .unwrap_or_else(|| panic!("no response for id {id}"));
        check_against_oracle(response, oracle, "contained", &format!("routed id {id}"));
    }

    // Admin verbs are per-shard state; the router refuses to pick a shard
    // for them.
    let rejected = client
        .request(&protocol::clear_cache_request())
        .expect("admin rejection");
    assert_eq!(
        rejected
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_request")
    );

    // Router stats: every request forwarded and replied, no requeues (no
    // shard died), both shards visible.
    let stats = client.request(&protocol::stats_request()).expect("stats");
    let result = stats.get("result").expect("stats result");
    let shards = result
        .get("shards")
        .and_then(Value::as_arr)
        .expect("per-shard counters");
    assert_eq!(shards.len(), 2);
    let total = |field: &str| -> u64 {
        shards
            .iter()
            .map(|s| s.get(field).and_then(Value::as_u64).unwrap())
            .sum()
    };
    assert_eq!(total("forwarded"), instances.len() as u64);
    assert_eq!(total("replies"), instances.len() as u64);
    assert_eq!(total("requeued"), 0);
    assert_eq!(total("busy"), 0);
    assert_eq!(
        result
            .get("router")
            .and_then(|r| r.get("inflight"))
            .and_then(Value::as_u64),
        Some(0),
        "everything answered — nothing may remain pending"
    );

    // Shard affinity: re-sending a structurally identical program (alpha
    // renamed) moves exactly one shard's forwarded counter.
    let warm = protocol::containment_request(
        "p(A, B) :- e0(A, C), e0(C, B).",
        "p",
        "q(X, Y) :- e0(X, Y).",
    );
    let renamed = protocol::containment_request(
        "p(U, V) :- e0(U, W), e0(W, V).",
        "p",
        "q(R, S) :- e0(R, S).",
    );
    let before: Vec<u64> = {
        let stats = client.request(&protocol::stats_request()).expect("stats");
        let result = stats.get("result").unwrap().clone();
        result
            .get("shards")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("forwarded").and_then(Value::as_u64).unwrap())
            .collect()
    };
    client.request(&warm).expect("warm request");
    client.request(&renamed).expect("renamed request");
    let after: Vec<u64> = {
        let stats = client.request(&protocol::stats_request()).expect("stats");
        let result = stats.get("result").unwrap().clone();
        result
            .get("shards")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("forwarded").and_then(Value::as_u64).unwrap())
            .collect()
    };
    let deltas: Vec<u64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    assert!(
        deltas.contains(&2) && deltas.contains(&0),
        "alpha-equivalent programs must land on one shard; deltas {deltas:?}"
    );
}

// ---- Observability: the `trace` and `metrics_text` verbs, and the
// golden shape of `stats`.

/// A chain (linear) transitive-closure program: its proof trees are paths.
const CHAIN_TC: &str = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).";

/// The union of the 1-, 2- and 3-edge path queries.
const PATH_UCQ_K3: &str = "q(X, Y) :- e(X, Y).\n\
                           q(X, Y) :- e(X, Z1), e(Z1, Y).\n\
                           q(X, Y) :- e(X, Z1), e(Z1, Z2), e(Z2, Y).";

/// Example 1.1's Π₁ (a chain program) and the UCQ it is equivalent to.
const BUYS: &str = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).";
/// See [`BUYS`].
const BUYS_UCQ: &str = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), likes(Z, Y).";

/// Nonlinear transitive closure: its proof trees branch.
const NONLINEAR_TC: &str = "p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).";

/// Build a `trace` request over the nonlinear program.  `no_cache` keeps
/// repeats on the uncached path so every run records a full trace.
fn tree_trace_request(level: &str, max_events: Option<u64>) -> Value {
    let mut fields = vec![
        ("op", Value::str("trace")),
        ("program", Value::str(NONLINEAR_TC)),
        ("goal", Value::str("p")),
        ("query", Value::str("q(X, Y) :- e(X, Y).")),
        ("level", Value::str(level)),
        ("options", obj(vec![("no_cache", Value::Bool(true))])),
    ];
    if let Some(n) = max_events {
        fields.push(("max_events", Value::num(n as f64)));
    }
    obj(fields)
}

/// Send one request and return its `result`, asserting it succeeded.
fn ok(client: &mut Client, request: &Value) -> Value {
    let response = client.request(request).expect("request");
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "got {}",
        response.render()
    );
    response.get("result").unwrap().clone()
}

fn event_kinds(result: &Value) -> Vec<String> {
    result
        .get("events")
        .and_then(Value::as_arr)
        .expect("trace result carries events")
        .iter()
        .map(|e| {
            e.get("kind")
                .and_then(Value::as_str)
                .expect("every event has a kind")
                .to_string()
        })
        .collect()
}

/// The `trace` verb end to end: structured per-pop and per-iteration
/// events over the wire, the event budget with its explicit `truncated`
/// flag, level validation, and batch rejection.
#[test]
fn trace_verb_streams_events_and_enforces_its_budget() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();

    // A full-detail trace of a tree-path containment decision.
    let response = client
        .request(&tree_trace_request("trace", None))
        .expect("trace request");
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "got {}",
        response.render()
    );
    let result = response.get("result").unwrap();
    assert_eq!(
        result.get("contained").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        result.get("truncated").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(result.get("dropped").and_then(Value::as_u64), Some(0));
    let kinds = event_kinds(result);
    // Per-pop events from the tree engine, per-iteration events from the
    // counterexample's goal-directed verification, the planner's strategy
    // decision, and the enclosing decision span.
    for kind in ["pop", "iteration", "strategy", "decision", "witness_check"] {
        assert!(
            kinds.iter().any(|k| k == kind),
            "no `{kind}` event in {kinds:?}"
        );
    }

    // The budget truncates and says so.
    let response = client
        .request(&tree_trace_request("trace", Some(4)))
        .expect("budgeted trace");
    let result = response.get("result").unwrap();
    assert_eq!(result.get("truncated").and_then(Value::as_bool), Some(true));
    assert!(result.get("dropped").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(
        result.get("events").and_then(Value::as_arr).unwrap().len(),
        4
    );

    // An unknown level is a bad_request, with the connection surviving.
    let response = client
        .request(&tree_trace_request("verbose", None))
        .expect("bad-level trace");
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_request")
    );

    // `trace` may not hide inside a batch.
    let response = client
        .request(&protocol::batch_request(vec![tree_trace_request(
            "counters", None,
        )]))
        .expect("batched trace");
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_request")
    );
}

/// `request` with extra top-level fields appended.
fn with(mut request: Value, extra: Vec<(&str, Value)>) -> Value {
    if let Value::Obj(fields) = &mut request {
        fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    }
    request
}

/// No request key selects an engine: `trace`'s `schedule` and
/// `options.strategy` are ignored like any unknown key.  The shared cache
/// stores decision stats, so a `"schedule":"fifo"` trace must store what a
/// plain `containment` computes, and a `"strategy":"naive"` equivalence
/// must answer as the plain request does without running the naive
/// evaluator.
#[test]
fn removed_engine_selectors_change_no_answer_and_no_cached_stats() {
    const QUERY: &str = "q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), e(Z, Y).";
    const CANDIDATE: &str = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), e(Z, Y).";

    /// The `stats` object of a decision result, minus its wall-clock time.
    fn stats_without_micros(result: &Value) -> Value {
        match result.get("stats") {
            Some(Value::Obj(fields)) => Value::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != "micros")
                    .cloned()
                    .collect(),
            ),
            other => panic!("no stats object: {other:?}"),
        }
    }
    fn naive_decisions(client: &mut Client) -> u64 {
        ok(client, &protocol::stats_request())
            .get("strategy_decisions")
            .and_then(|b| b.get("naive"))
            .and_then(Value::as_u64)
            .expect("stats.strategy_decisions.naive")
    }

    let server = ServerProc::spawn(&[]);
    let mut client = server.client();

    let containment = protocol::containment_request(NONLINEAR_TC, "p", QUERY);
    let fifo_trace = with(
        protocol::trace_request(NONLINEAR_TC, "p", QUERY, "counters"),
        vec![("schedule", Value::str("fifo"))],
    );
    ok(&mut client, &fifo_trace);
    let cached = ok(&mut client, &containment);
    let fresh = ok(
        &mut client,
        &with(
            containment,
            vec![("options", obj(vec![("no_cache", Value::Bool(true))]))],
        ),
    );
    assert_eq!(cached.get("contained"), fresh.get("contained"));
    assert_eq!(
        stats_without_micros(&cached),
        stats_without_micros(&fresh),
        "cached stats must not depend on an earlier trace's schedule"
    );

    let equivalence = |options: Vec<(&str, Value)>| {
        with(
            protocol::equivalence_request(NONLINEAR_TC, "p", CANDIDATE),
            vec![("options", obj(options))],
        )
    };
    let plain = ok(
        &mut client,
        &equivalence(vec![("no_cache", Value::Bool(true))]),
    );
    let naive_before = naive_decisions(&mut client);
    let selected = ok(
        &mut client,
        &equivalence(vec![
            ("strategy", Value::str("naive")),
            ("no_cache", Value::Bool(true)),
        ]),
    );
    assert_eq!(selected.get("verdict"), plain.get("verdict"));
    assert_eq!(
        naive_decisions(&mut client),
        naive_before,
        "`options.strategy` must not reach the evaluator"
    );
}

/// `no_word_path` is gone from the wire: every decision runs the tree
/// search, so a request sent with it answers exactly as one sent without
/// it (wall-clock times aside), on refuted and contained chain programs
/// alike.
#[test]
fn no_word_path_is_accepted_and_ignored() {
    fn without_micros(value: &Value) -> Value {
        match value {
            Value::Obj(fields) => Value::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != "micros")
                    .map(|(k, v)| (k.clone(), without_micros(v)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.iter().map(without_micros).collect()),
            other => other.clone(),
        }
    }
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    for request in [
        protocol::containment_request(CHAIN_TC, "p", "q(X, Y) :- e(X, Y)."),
        protocol::containment_request(CHAIN_TC, "p", "q(X, Y) :- e(U, V)."),
        protocol::equivalence_request(BUYS, "buys", BUYS_UCQ),
    ] {
        let plain = client
            .request(&with(
                request.clone(),
                vec![("options", obj(vec![("no_cache", Value::Bool(true))]))],
            ))
            .expect("plain request");
        let flagged = client
            .request(&with(
                request,
                vec![(
                    "options",
                    obj(vec![
                        ("no_cache", Value::Bool(true)),
                        ("no_word_path", Value::Bool(true)),
                    ]),
                )],
            ))
            .expect("request with no_word_path");
        assert_eq!(
            plain.get("ok").and_then(Value::as_bool),
            Some(true),
            "got {}",
            plain.render()
        );
        let stats = plain.get("result").and_then(|r| r.get("stats")).unwrap();
        assert!(stats.get("path").is_none(), "got {}", plain.render());
        assert_eq!(without_micros(&flagged), without_micros(&plain));
    }
}

/// `max_pairs` bounds linear programs too: a chain containment whose tree
/// search needs more than one product pair answers `resource_limit`.
#[test]
fn max_pairs_bounds_linear_programs() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let request = protocol::containment_request(CHAIN_TC, "p", PATH_UCQ_K3);
    let bounded = client
        .request(&with(
            request.clone(),
            vec![(
                "options",
                obj(vec![
                    ("max_pairs", Value::num(1.0)),
                    ("no_cache", Value::Bool(true)),
                ]),
            )],
        ))
        .expect("bounded containment");
    assert_eq!(
        bounded
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("resource_limit"),
        "got {}",
        bounded.render()
    );
    let unbounded = client
        .request(&with(
            request,
            vec![("options", obj(vec![("no_cache", Value::Bool(true))]))],
        ))
        .expect("unbounded containment");
    assert_eq!(
        unbounded
            .get("result")
            .and_then(|r| r.get("contained"))
            .and_then(Value::as_bool),
        Some(false),
        "got {}",
        unbounded.render()
    );
}

/// A `nonrec-serve` started without cache flags caps every decision-cache
/// segment at 1024 entries; a `--cache-max-*` of 0 still means unbounded.
#[test]
fn cache_segments_are_capped_by_default() {
    fn limits(server: &ServerProc) -> Value {
        let response = server
            .client()
            .request(&protocol::cache_limits_request(None))
            .expect("cache_limits");
        response
            .get("result")
            .and_then(|r| r.get("limits"))
            .cloned()
            .unwrap_or_else(|| panic!("no limits in {}", response.render()))
    }
    let capped = limits(&ServerProc::spawn(&[]));
    for segment in ["max_decisions", "max_cq_pairs", "max_cq_in_program"] {
        assert_eq!(
            capped.get(segment).and_then(Value::as_u64),
            Some(1024),
            "{segment}"
        );
    }
    let unbounded = limits(&ServerProc::spawn(&["--cache-max-decisions", "0"]));
    assert_eq!(unbounded.get("max_decisions"), Some(&Value::Null));
    assert_eq!(
        unbounded.get("max_cq_pairs").and_then(Value::as_u64),
        Some(1024)
    );
}

/// Pipelined traces interleaved with decisions: every response correlates
/// by id echo, and the trace responses carry their events regardless of
/// arrival order.
#[test]
fn pipelined_trace_responses_correlate_by_id() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let mut requests = Vec::new();
    for id in 0..12u64 {
        let mut request = if id % 2 == 0 {
            tree_trace_request("debug", None)
        } else {
            protocol::containment_request(CHAIN_TC, "p", "q(X, Y) :- e(X, Y).")
        };
        if let Value::Obj(fields) = &mut request {
            fields.push(("id".into(), Value::num(id as f64)));
        }
        requests.push(request);
    }
    client.send_all(&requests).expect("pipelined write");
    let mut seen = std::collections::HashMap::new();
    for _ in 0..requests.len() {
        let response = client.recv().expect("pipelined read");
        let id = response
            .get("id")
            .and_then(Value::as_u64)
            .expect("every response echoes its id");
        assert!(seen.insert(id, response).is_none(), "duplicate id {id}");
    }
    for (id, response) in &seen {
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "id {id}: {}",
            response.render()
        );
        let result = response.get("result").unwrap();
        assert_eq!(
            result.get("contained").and_then(Value::as_bool),
            Some(false),
            "id {id}"
        );
        if id % 2 == 0 {
            assert!(
                !event_kinds(result).is_empty(),
                "id {id}: trace responses carry events"
            );
        } else {
            assert!(
                result.get("events").is_none(),
                "id {id}: containment responses carry no events"
            );
        }
    }
}

/// The `metrics_text` verb returns parseable Prometheus text exposition:
/// HELP/TYPE for every family, integer samples, cumulative buckets.
#[test]
fn metrics_text_is_valid_prometheus_exposition() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    // Run one decision so the counters and at least one histogram move.
    client
        .request(&protocol::containment_request(
            CHAIN_TC,
            "p",
            "q(X, Y) :- e(X, Y).",
        ))
        .expect("warm decision");
    let response = client
        .request(&protocol::metrics_text_request())
        .expect("metrics_text");
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let text = response
        .get("result")
        .and_then(|r| r.get("text"))
        .and_then(Value::as_str)
        .expect("metrics_text returns a text field");

    let mut typed = std::collections::HashMap::new();
    let mut helped = std::collections::HashSet::new();
    let mut bucket_last: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a metric").to_string();
            let kind = parts.next().expect("TYPE carries a kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind}"
            );
            typed.insert(name, kind);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a metric");
            helped.insert(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line {line}");
        // A sample: `name value` or `name{labels} value`.
        let (series, value) = line.rsplit_once(' ').expect("samples split on a space");
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-integer sample `{line}`"));
        let family = series
            .split('{')
            .next()
            .unwrap()
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count")
            .to_string();
        assert!(
            typed.contains_key(&family),
            "sample `{series}` has no TYPE line"
        );
        if series.contains("_bucket{") {
            // Cumulative within one labelled series.
            let key = series.split("le=").next().unwrap().to_string();
            let last = bucket_last.entry(key).or_insert(0);
            assert!(value >= *last, "bucket counts must be cumulative: {line}");
            *last = value;
        }
    }
    for name in typed.keys() {
        assert!(helped.contains(name), "metric {name} has TYPE but no HELP");
    }
    // The decision above must be visible in the counters and histograms.
    assert!(typed.contains_key("nonrec_decision_runs_total"));
    assert_eq!(
        typed
            .get("nonrec_request_duration_micros")
            .map(String::as_str),
        Some("histogram")
    );
    assert!(text.contains("verb=\"containment\""));
}

/// The golden shape of the `stats` payload: the exact key set of every
/// block, including the new `metrics` block (the shared-renderer lesson —
/// a drifted shape fails here, not in a consumer).
#[test]
fn stats_payload_has_the_golden_shape() {
    fn keys(value: &Value) -> Vec<&str> {
        match value {
            Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let response = client.request(&protocol::stats_request()).expect("stats");
    let result = response.get("result").expect("stats result");
    assert_eq!(
        keys(result),
        vec!["server", "cache", "metrics", "verbs", "strategy_decisions"]
    );
    assert_eq!(
        keys(result.get("server").unwrap()),
        vec![
            "requests",
            "responses_ok",
            "responses_err",
            "busy_rejected",
            "deadline_expired",
            "invalid_json",
            "line_too_long",
            "conn_limit_rejected",
            "conn_limit_reject_write_errors",
            "memo_hits",
            "memo_entries",
            "memo_line_entries",
            "inflight",
            "max_inflight",
        ]
    );
    assert_eq!(
        keys(result.get("cache").unwrap()),
        vec![
            "hits",
            "misses",
            "pairs_explored",
            "pairs_saved",
            "entries",
            "decision_entries",
            "cq_pair_entries",
            "cq_in_program_entries",
            "evictions",
            "evicted_decisions",
            "evicted_cq_pairs",
            "evicted_cq_in_program",
            "limits",
        ]
    );
    let metrics = result.get("metrics").unwrap();
    assert_eq!(keys(metrics), vec!["eval", "containment", "decision"]);
    assert_eq!(
        keys(metrics.get("eval").unwrap()),
        vec!["runs", "iterations", "probes", "derived_facts"]
    );
    assert_eq!(
        keys(metrics.get("containment").unwrap()),
        vec![
            "runs",
            "pairs",
            "propagate_hits",
            "propagate_misses",
            "pairs_dominated",
            "pops_skipped_dead",
        ]
    );
    assert_eq!(
        keys(metrics.get("decision").unwrap()),
        vec!["runs", "cache_hits", "cache_misses",]
    );
    let verbs = result.get("verbs").unwrap();
    assert_eq!(
        keys(verbs),
        vec![
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
        ]
    );
    for (_, histogram) in match verbs {
        Value::Obj(fields) => fields.iter(),
        _ => unreachable!(),
    } {
        assert_eq!(
            keys(histogram),
            vec![
                "count",
                "mean_micros",
                "p50_micros",
                "p99_micros",
                "max_micros"
            ]
        );
    }
    assert_eq!(
        keys(result.get("strategy_decisions").unwrap()),
        vec![
            "naive",
            "semi_naive",
            "indexed",
            "magic",
            "auto_magic",
            "auto_indexed",
        ]
    );
}

/// `stats.metrics` and `metrics_text` render one counter registry: after
/// a `containment`, an `equivalence` and a `trace` request every counter
/// reads the same on both surfaces.  The registry counts decisions the
/// `trace` verb runs: an uncached trace moves the decision and
/// containment runs exactly as the identical `containment` request does.
#[test]
fn stats_and_metrics_text_render_one_registry_that_counts_traces() {
    const QUERY: &str = "q(X, Y) :- e(X, Y).";

    fn metrics(client: &mut Client) -> Value {
        ok(client, &protocol::stats_request())
            .get("metrics")
            .unwrap()
            .clone()
    }
    fn read(metrics: &Value, block: &str, key: &str) -> u64 {
        metrics
            .get(block)
            .and_then(|b| b.get(key))
            .and_then(Value::as_u64)
            .unwrap()
    }
    fn uncached(mut request: Value) -> Value {
        if let Value::Obj(fields) = &mut request {
            fields.push(("options".into(), obj(vec![("no_cache", Value::Bool(true))])));
        }
        request
    }

    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let before = metrics(&mut client);
    ok(
        &mut client,
        &uncached(protocol::containment_request(NONLINEAR_TC, "p", QUERY)),
    );
    let after_containment = metrics(&mut client);
    ok(
        &mut client,
        &uncached(protocol::trace_request(NONLINEAR_TC, "p", QUERY, "debug")),
    );
    let after_trace = metrics(&mut client);
    for block in ["decision", "containment"] {
        let by_containment = read(&after_containment, block, "runs") - read(&before, block, "runs");
        let by_trace = read(&after_trace, block, "runs") - read(&after_containment, block, "runs");
        assert!(by_containment > 0, "{block}.runs did not move");
        assert_eq!(
            by_trace, by_containment,
            "{block}.runs moved differently for `trace`"
        );
    }
    // At `debug`, the trace also re-evaluates the program on the
    // counterexample's canonical database: exactly one more fixpoint run.
    let eval_by_containment =
        read(&after_containment, "eval", "runs") - read(&before, "eval", "runs");
    let eval_by_trace =
        read(&after_trace, "eval", "runs") - read(&after_containment, "eval", "runs");
    assert_eq!(eval_by_trace, eval_by_containment + 1);

    ok(
        &mut client,
        &protocol::equivalence_request(CHAIN_TC, "p", "p(X, Y) :- e(X, Y)."),
    );
    let stats = metrics(&mut client);
    let text = ok(&mut client, &protocol::metrics_text_request());
    let text = text.get("text").and_then(Value::as_str).unwrap();
    let mut compared = 0;
    for counter in metrics::global::COUNTERS {
        let Some(section) = stats.get(counter.block) else {
            continue;
        };
        let (family, _) = counter
            .exposition
            .expect("stats.metrics counters are exposed");
        let sample = text
            .lines()
            .find_map(|line| line.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no `{family}` sample"));
        assert_eq!(
            section.get(counter.key).and_then(Value::as_u64),
            sample.parse().ok(),
            "{}.{} disagrees with {family}",
            counter.block,
            counter.key
        );
        compared += 1;
    }
    assert_eq!(compared, 13, "every engine counter is compared");
}

/// Satellite: the text-level memo layers must never capture or serve
/// `trace`, `stats`, `metrics_text`, or admin responses — a memoised trace
/// would report a run that never happened.  The positive control first
/// proves the layers are live (a repeated decision IS served byte-for-byte
/// from the memo), so the "no growth" assertions below cannot pass
/// vacuously.
#[test]
fn observability_and_admin_verbs_are_never_served_from_the_text_memos() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();

    fn memo_state(client: &mut Client) -> (u64, u64, u64) {
        let response = client.request(&protocol::stats_request()).expect("stats");
        let server = response
            .get("result")
            .and_then(|r| r.get("server"))
            .expect("server block");
        let read = |key: &str| server.get(key).and_then(Value::as_u64).expect("counter");
        (
            read("memo_hits"),
            read("memo_entries"),
            read("memo_line_entries"),
        )
    }

    // Positive control: a byte-identical repeat of a decision line is
    // answered from the memo, byte-for-byte.
    let decision = r#"{"op":"containment","program":"p(X, Y) :- e(X, Y).","goal":"p","query":"q(X, Y) :- e(X, Y)."}"#;
    let first = client.request_line(decision).expect("first decision");
    let second = client.request_line(decision).expect("repeat decision");
    assert_eq!(first, second, "memoised repeat must be byte-identical");
    let (hits, entries, line_entries) = memo_state(&mut client);
    assert!(hits >= 1, "the decision repeat must register a memo hit");
    assert!(entries >= 1 && line_entries >= 1, "the memos must be live");

    // Now repeat byte-identical observability and admin lines.  None of
    // them may be captured (no entry growth) or served (no hit growth).
    let trace_line =
        protocol::trace_request(CHAIN_TC, "p", "q(X, Y) :- e(X, Y).", "trace").render();
    let non_memoisable = [
        trace_line.as_str(),
        r#"{"op":"metrics_text"}"#,
        r#"{"op":"cache_limits"}"#,
        r#"{"op":"save_cache","path":"/nonexistent-dir/nope.snapshot"}"#,
        r#"{"op":"stats"}"#,
    ];
    for line in non_memoisable {
        let first = client.request_line(line).expect("first pass");
        let _second = client.request_line(line).expect("repeat pass");
        // `save_cache` to an unwritable path errors; everything else is ok.
        // Either way the repeat must be a fresh execution.
        assert!(first.contains("\"ok\""), "got: {first}");
    }
    let (hits_after, entries_after, line_entries_after) = memo_state(&mut client);
    assert_eq!(
        hits_after, hits,
        "no observability/admin repeat may be served from a memo"
    );
    assert_eq!(
        entries_after, entries,
        "no observability/admin response may enter the command memo"
    );
    assert_eq!(
        line_entries_after, line_entries,
        "no observability/admin line may enter the line memo"
    );
}

/// The acceptance-criterion differential for the three new surfaces:
/// `minimize`, `rewrite`, and `options.provenance` each agree with their
/// in-process oracles across a 200-seed sweep (100 + 60 + 40).
#[test]
fn minimize_rewrite_and_provenance_agree_with_in_process_oracles() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let goal = Pred::new("q0");

    // `minimize` against `cq::minimize::minimize_ucq`: identical kept
    // disjuncts (string-identical — the engine transcribes the library's
    // greedy loop) and exact before/after counts.
    let mut shrunk = 0;
    for seed in 0..100u64 {
        let ucq = random_ucq(seed);
        let oracle = cq::minimize::minimize_ucq(&ucq);
        let response = client
            .request(&protocol::minimize_request(&ucq_text(&ucq)))
            .expect("minimize round-trip");
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "minimize seed {seed}: {}",
            response.render()
        );
        let result = response.get("result").unwrap();
        assert_eq!(
            result.get("query").and_then(Value::as_str),
            Some(ucq_text(&oracle).as_str()),
            "minimize seed {seed}: minimized text diverges from the library"
        );
        assert_eq!(
            result.get("disjuncts_before").and_then(Value::as_u64),
            Some(ucq.len() as u64)
        );
        assert_eq!(
            result.get("disjuncts_after").and_then(Value::as_u64),
            Some(oracle.len() as u64)
        );
        let atoms_after: usize = oracle.disjuncts.iter().map(|d| d.body.len()).sum();
        assert_eq!(
            result.get("atoms_after").and_then(Value::as_u64),
            Some(atoms_after as u64)
        );
        if result.get("atoms_before").and_then(Value::as_u64) != Some(atoms_after as u64) {
            shrunk += 1;
        }
    }
    assert!(
        shrunk > 0,
        "the sweep must contain queries that actually shrink"
    );

    // `rewrite` against `eliminate_recursion_with`: same existence verdict,
    // same rule count, and the returned text reparses to a nonrecursive
    // program.
    let (mut rewrites, mut refusals) = (0, 0);
    for seed in 0..60u64 {
        let program = random_program(&program_config(), seed);
        let oracle = nonrec_equivalence::optimize::eliminate_recursion_with(
            &program,
            goal,
            2,
            oracle_options(),
        );
        let response = client
            .request(&with_budget(
                protocol::rewrite_request(&program.to_string(), "q0", 2),
                2000 + seed,
            ))
            .expect("rewrite round-trip");
        match oracle {
            Ok(rewritten) => {
                assert_eq!(
                    response.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "rewrite seed {seed}: {}",
                    response.render()
                );
                let result = response.get("result").unwrap();
                assert_eq!(
                    result.get("nonrecursive").and_then(Value::as_bool),
                    Some(rewritten.is_some()),
                    "rewrite seed {seed}: existence verdict diverges"
                );
                match rewritten {
                    Some(oracle_program) => {
                        rewrites += 1;
                        assert_eq!(
                            result.get("rules_after").and_then(Value::as_u64),
                            Some(oracle_program.len() as u64),
                            "rewrite seed {seed}: rule count diverges"
                        );
                        let text = result.get("program").and_then(Value::as_str).unwrap();
                        let reparsed = datalog::parser::parse_program(text)
                            .unwrap_or_else(|e| panic!("rewrite seed {seed}: unparseable: {e:?}"));
                        assert!(reparsed.is_nonrecursive(), "rewrite seed {seed}");
                    }
                    None => {
                        refusals += 1;
                        assert_eq!(result.get("program"), Some(&Value::Null));
                    }
                }
            }
            Err(e) => {
                assert_eq!(
                    response
                        .get("error")
                        .and_then(|err| err.get("code"))
                        .and_then(Value::as_str),
                    Some(e.code()),
                    "rewrite seed {seed}: error code diverges"
                );
            }
        }
    }
    assert!(
        rewrites > 0 && refusals > 0,
        "the rewrite sweep must exercise both outcomes ({rewrites} rewrites, {refusals} refusals)"
    );

    // `options.provenance` against the containment oracle: the verdict
    // matches, and every not-contained response carries a structured proof
    // tree that mirrors the flat rendering node for node, with in-range
    // rule indices.
    fn walk_tree(node: &Value, rules: u64, count: &mut usize) {
        *count += 1;
        assert!(node.get("atom").and_then(Value::as_str).is_some());
        assert!(node.get("rule_index").and_then(Value::as_u64).unwrap() < rules);
        assert!(node
            .get("rule")
            .and_then(Value::as_str)
            .unwrap()
            .contains(":-"));
        for child in node.get("children").and_then(Value::as_arr).unwrap_or(&[]) {
            walk_tree(child, rules, count);
        }
    }
    let mut witnessed = 0;
    for seed in 0..40u64 {
        let program = random_program(&program_config(), seed);
        let ucq = random_ucq(seed);
        let oracle = match datalog_contained_in_ucq_with(&program, goal, &ucq, oracle_options()) {
            Ok(result) => result.contained,
            Err(_) => continue,
        };
        let mut request =
            protocol::containment_request(&program.to_string(), "q0", &ucq_text(&ucq));
        if let Value::Obj(fields) = &mut request {
            fields.push((
                "options".into(),
                obj(vec![
                    ("max_pairs", Value::num(MAX_PAIRS as f64)),
                    ("provenance", Value::Bool(true)),
                ]),
            ));
        }
        let response = client.request(&request).expect("containment round-trip");
        let result = response.get("result").unwrap();
        assert_eq!(
            result.get("contained").and_then(Value::as_bool),
            Some(oracle),
            "provenance seed {seed}: verdict diverges"
        );
        if !oracle {
            let cex = result.get("counterexample").unwrap();
            let rendered_nodes = cex
                .get("proof_tree")
                .and_then(Value::as_str)
                .unwrap()
                .lines()
                .count();
            let mut nodes = 0;
            walk_tree(
                cex.get("provenance").unwrap(),
                program.len() as u64,
                &mut nodes,
            );
            assert_eq!(
                nodes, rendered_nodes,
                "provenance seed {seed}: structured tree diverges from the rendering"
            );
            witnessed += 1;
        }
    }
    assert!(
        witnessed > 0,
        "the provenance sweep must contain not-contained instances"
    );
}
