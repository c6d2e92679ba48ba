//! Integration suite for the `nonrec` CLI binary.
//!
//! Spawns the built binary and locks the contract the README documents:
//! exit code 0 for equivalent, 1 for not equivalent (with a witness on
//! stdout), 2 for usage/parse/decision errors, the `--stats` output shape,
//! and the parse-error path on malformed input files.

use std::path::PathBuf;
use std::process::{Command, Output};

const TC: &str = "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n";
const TC_DEPTH2: &str = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), e(Z, Y).\n";
const BUYS: &str = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n";
const BUYS_NONREC: &str = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), likes(Z, Y).\n";

/// Write a fixture file under the cargo-managed integration-test tmpdir.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-fixtures");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nonrec"))
        .args(args)
        .output()
        .expect("spawn nonrec")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn equivalent_programs_exit_zero() {
    let program = fixture("buys.dl", BUYS);
    let candidate = fixture("buys_nonrec.dl", BUYS_NONREC);
    let output = run(&[
        "--program",
        program.to_str().unwrap(),
        "--goal",
        "buys",
        "--candidate",
        candidate.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("EQUIVALENT"));
}

#[test]
fn inequivalent_programs_exit_one_with_a_witness() {
    let program = fixture("tc.dl", TC);
    let candidate = fixture("tc_depth2.dl", TC_DEPTH2);
    let output = run(&[
        "--program",
        program.to_str().unwrap(),
        "--goal",
        "p",
        "--candidate",
        candidate.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(text.contains("NOT EQUIVALENT"));
    assert!(
        text.contains("Counterexample database:"),
        "witness database missing:\n{text}"
    );
    assert!(
        text.contains("Proof tree of the witness:"),
        "proof tree missing:\n{text}"
    );
}

#[test]
fn stats_flag_prints_the_instrumentation_shape() {
    let program = fixture("buys_stats.dl", BUYS);
    let candidate = fixture("buys_nonrec_stats.dl", BUYS_NONREC);
    let output = run(&[
        "--program",
        program.to_str().unwrap(),
        "--goal",
        "buys",
        "--candidate",
        candidate.to_str().unwrap(),
        "--stats",
    ]);
    assert_eq!(output.status.code(), Some(0));
    let text = stdout(&output);
    assert!(
        text.contains("[stats] decision:"),
        "missing decision row:\n{text}"
    );
    assert!(
        text.contains("[stats] unfolding:"),
        "missing unfolding row:\n{text}"
    );
    assert!(
        text.contains("[stats] decision cache:"),
        "missing decision cache row:\n{text}"
    );
    // The cache row carries the four counters in a fixed order.
    let cache_row = text
        .lines()
        .find(|l| l.starts_with("[stats] decision cache:"))
        .unwrap();
    assert!(cache_row.contains("hits") && cache_row.contains("misses"));
    assert!(cache_row.contains("pairs explored") && cache_row.contains("pairs saved"));
}

#[test]
fn malformed_input_files_exit_two_with_a_parse_error() {
    let broken = fixture("broken.dl", "p(X :- e(X.\n");
    let candidate = fixture("ok_candidate.dl", "p(X, Y) :- e(X, Y).\n");
    let output = run(&[
        "--program",
        broken.to_str().unwrap(),
        "--goal",
        "p",
        "--candidate",
        candidate.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    let text = stderr(&output);
    assert!(
        text.contains("parse error"),
        "stderr should name the parse error:\n{text}"
    );
    assert!(
        text.contains("broken.dl"),
        "stderr should name the offending file:\n{text}"
    );
}

#[test]
fn missing_files_and_bad_usage_exit_two() {
    // Unreadable file.
    let candidate = fixture("usage_candidate.dl", "p(X, Y) :- e(X, Y).\n");
    let output = run(&[
        "--program",
        "/nonexistent/no-such-file.dl",
        "--goal",
        "p",
        "--candidate",
        candidate.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("cannot read"));

    // Missing required argument.
    let output = run(&["--goal", "p"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("usage:"));

    // Unknown flag.
    let output = run(&["--frobnicate"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("unknown argument"));

    // --max-pairs without a number.
    let output = run(&["--max-pairs", "many"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("invalid --max-pairs"));
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let output = run(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(stdout(&output).contains("usage: nonrec --program"));
}
