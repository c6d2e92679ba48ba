//! Determinism self-tests: the benchmark's inputs are a pure function of
//! `--seed`, and the counts of its traced pass repeat exactly.

use std::process::Command;

use perfbench::runs::WarmStream;
use perfbench::stream;

fn warm_lines(seed: u64) -> Vec<String> {
    let warm = WarmStream::new(seed);
    // Two and a half cycles of the base stream: cycled ids included.
    (0..10_000).map(|seq| warm.line(seq)).collect()
}

#[test]
fn the_same_seed_gives_byte_identical_streams_and_another_seed_does_not() {
    // cold_mix
    assert_eq!(stream::cold_mix(7, 200), stream::cold_mix(7, 200));
    assert_ne!(stream::cold_mix(7, 200), stream::cold_mix(8, 200));
    // warm_zipf and warm_routed send the same stream.
    assert_eq!(warm_lines(7), warm_lines(7));
    assert_ne!(warm_lines(7), warm_lines(8));
    // mixed_open
    assert_eq!(stream::mixed_open(7, 2.0), stream::mixed_open(7, 2.0));
    assert_ne!(stream::mixed_open(7, 2.0), stream::mixed_open(8, 2.0));
}

#[test]
fn every_warm_line_has_a_unique_id() {
    let lines = warm_lines(3);
    let ids: std::collections::HashSet<&str> = lines
        .iter()
        .map(|l| l.split('"').nth(3).expect("the id leads the line"))
        .collect();
    assert_eq!(ids.len(), lines.len());
}

/// The counts a traced pass must repeat exactly, from one run of the
/// benchmark binary in a fresh process (the interner is process-global).
fn traced_counts() -> Vec<(String, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--pass-only", "--seed", "5"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let report = server::json::parse(stdout.lines().last().expect("a result line"))
        .expect("the result line is JSON");
    assert_eq!(report.get("correct").and_then(|v| v.as_bool()), Some(true));
    let metrics = report.get("metrics").expect("metrics");
    [
        "core.ptrees_states",
        "core.a_theta_states",
        "core.unfold_disjuncts",
        "automata.pairs",
        "automata.propagate_misses",
        "automata.max_frontier",
        "automata.word_explored",
        "datalog.eval_probes",
        "datalog.interned_symbols_per_req",
    ]
    .iter()
    .map(|name| {
        let value = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .unwrap_or_else(|| panic!("metric {name} is reported"));
        (name.to_string(), value.render())
    })
    .collect()
}

#[test]
fn two_traced_passes_repeat_their_counts_exactly() {
    assert_eq!(traced_counts(), traced_counts());
}
