//! Deterministic seed loops over the request-frame decoder.
//!
//! Real request lines (the `workload` generator's stream for a fixed seed)
//! are mutated with SplitMix-driven edits — byte set, delete, insert,
//! splice from another line, bit flip — and every mutant goes through the
//! server's decode path, `json::parse` → `parse_request(…, true)`.  Each
//! mutant must either fail with one of the two codes the server answers a
//! bad frame with (`invalid_json`, `bad_request`) or decode to a request
//! that survives a render → parse round trip unchanged.  A panic anywhere
//! fails the loop with the offending input.
//!
//! A second loop gives the same lines hostile leading ids and checks the
//! server's line memo key (`memo::split_line_id`) against the parse path.
//!
//! The same mutator drives the decoders behind a request's fields and the
//! capture files of record/replay: program texts through `parse_program`,
//! UCQ texts through `Ucq::parse_checked`, and capture files through
//! `read_capture`.  Each must fail with a documented code or decode to a
//! value that round-trips: Display → parse gives an equal program or UCQ,
//! `write_capture` → `read_capture` gives equal records.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};

use cq::ucq::Ucq;
use datalog::parser::parse_program;
use server::json::{self, Value};
use server::memo::{memo_key, split_line_id};
use server::protocol::{ok_response, parse_request};
use server::replay::{read_capture, write_capture, CaptureRecord};

const SEED: u64 = 601;
const MUTANTS: usize = 80_000;

/// Bytes that steer mutants toward the decoder's interesting branches
/// (structure, escapes, numbers, literals) rather than plain text.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\ -+.0123456789eEtrufalsn\xff";

fn corpus() -> Vec<Vec<u8>> {
    let spec = workload::WorkloadSpec {
        requests: 128,
        ..workload::WorkloadSpec::default()
    };
    workload::generate(&spec, SEED)
        .into_iter()
        .map(|request| request.line.into_bytes())
        .collect()
}

fn random_byte(rng: &mut StdRng) -> u8 {
    if rng.random_bool(0.5) {
        JSON_BYTES[rng.random_range(0..JSON_BYTES.len())]
    } else {
        rng.random_range(0..256u32) as u8
    }
}

/// Apply one to four random edits to `line`.
fn mutate(line: &[u8], corpus: &[Vec<u8>], rng: &mut StdRng) -> Vec<u8> {
    let mut out = line.to_vec();
    for _ in 0..rng.random_range(1..=4usize) {
        let at = rng.random_range(0..=out.len());
        match rng.random_range(0..5u32) {
            // Byte set.
            0 if at < out.len() => out[at] = random_byte(rng),
            // Delete a short run.
            1 if at < out.len() => {
                let end = (at + rng.random_range(1..=8usize)).min(out.len());
                out.drain(at..end);
            }
            // Insert one byte.
            2 => out.insert(at, random_byte(rng)),
            // Splice in a segment of another corpus line.
            3 => {
                let donor = &corpus[rng.random_range(0..corpus.len())];
                let from = rng.random_range(0..donor.len());
                let to = (from + rng.random_range(1..=32usize)).min(donor.len());
                out.splice(at..at, donor[from..to].iter().copied());
            }
            // Bit flip.
            _ if at < out.len() => out[at] ^= 1 << rng.random_range(0..8u32),
            _ => out.push(random_byte(rng)),
        }
    }
    out
}

#[derive(Debug)]
enum Outcome {
    InvalidJson,
    BadRequest,
    Decoded,
}

fn decode(line: &str) -> Outcome {
    let Ok(value) = json::parse(line) else {
        return Outcome::InvalidJson;
    };
    match parse_request(&value, true) {
        Err(error) => {
            assert_eq!(error.code, "bad_request", "line: {line}");
            Outcome::BadRequest
        }
        Ok(request) => {
            let rendered = value.render();
            let reparsed = json::parse(&rendered)
                .unwrap_or_else(|e| panic!("render of {line} does not parse: {rendered}: {e}"));
            let again = parse_request(&reparsed, true)
                .unwrap_or_else(|e| panic!("render of {line} does not decode: {rendered}: {e:?}"));
            assert_eq!(again, request, "line: {line}\nrendered: {rendered}");
            Outcome::Decoded
        }
    }
}

#[test]
fn mutated_request_frames_decode_or_fail_with_a_frame_code() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut counts = [0usize; 3];
    for i in 0..MUTANTS {
        let bytes = mutate(&corpus[i % corpus.len()], &corpus, &mut rng);
        // The server decodes invalid UTF-8 lossily; so does this loop.
        let line = String::from_utf8_lossy(&bytes);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&line)))
            .unwrap_or_else(|_| panic!("decoding mutant {i} panicked: {line:?}"));
        counts[outcome as usize] += 1;
    }
    // Every outcome must be reached, or the mutator is not exercising the
    // decoder (e.g. every mutant dying in the JSON reader).
    let [invalid_json, bad_request, decoded] = counts;
    assert!(
        invalid_json > 0 && bad_request > 0 && decoded > 0,
        "invalid_json {invalid_json}, bad_request {bad_request}, decoded {decoded}"
    );
}

/// Ids a hostile client may lead a line with: every form the response
/// writer would *not* render back verbatim, beside canonical ones so the
/// mutants also meet stored keys under a splice.
const LEADING_IDS: &[&str] = &[
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
    "0",
    "42",
    "999999999999999",
    r#""x""#,
    r#""""#,
    r#""é✓""#,
];

const ID_PREFIX: &str = "{\"id\":";

/// A mutant of `line` (which leads `{"id":<token>,`) with a hostile leading
/// id or id layout.
fn hostile_id_mutant(line: &str, corpus: &[Vec<u8>], rng: &mut StdRng) -> String {
    let body = line
        .strip_prefix(ID_PREFIX)
        .expect("workload lines lead with their id");
    let (token, rest) = body.split_at(body.find(',').expect("a field follows the id"));
    let open = &rest[..rest.len() - 1];
    let id = LEADING_IDS[rng.random_range(0..LEADING_IDS.len())];
    match rng.random_range(0..7u32) {
        0 | 1 => format!("{ID_PREFIX}{id}{rest}"),
        // The SplitMix mutator aimed at the id token alone.
        2 => {
            let token = mutate(token.as_bytes(), corpus, rng);
            format!("{ID_PREFIX}{}{rest}", String::from_utf8_lossy(&token))
        }
        3 => format!("{{\"id\": {id}{rest}"),
        // A duplicate later `id`.
        4 => format!("{ID_PREFIX}{token}{open},\"id\":{id}}}"),
        // An id-less line with a later `id`.
        5 => format!("{{{},\"id\":{id}}}", &open[1..]),
        // A line starting with `,`: the shape of a cut key.
        _ => rest.to_string(),
    }
}

/// The server's line memo keys a line on its bytes after a canonical
/// leading id and splices the id back into the stored response.  For every
/// mutant whose key equals a stored base line's key, the parse path must
/// decode the same memoisable command and echo exactly the spliced token.
#[test]
fn line_memo_splices_only_ids_the_parse_path_echoes_verbatim() {
    let corpus = corpus();
    let lines: Vec<String> = corpus
        .iter()
        .map(|line| String::from_utf8(line.clone()).expect("workload lines are UTF-8"))
        .collect();
    // Stored keys: each base line, and its id-less form, as `remember_line`
    // would store them.
    let mut stored: HashMap<String, String> = HashMap::new();
    for line in &lines {
        let comma = line.find(',').expect("a field follows the id");
        for base in [line.clone(), format!("{{{}", &line[comma + 1..])] {
            let (token, key) = split_line_id(&base).expect("base lines start with `{`");
            let request = parse_request(&json::parse(&base).unwrap(), true).unwrap();
            let rendered = ok_response(&request.id, request.command.verb(), Value::Null).render();
            assert!(
                rendered.starts_with(&format!("{ID_PREFIX}{token},")),
                "{base}"
            );
            let command = memo_key(&request.command).expect("workload requests are memoisable");
            stored.insert(key.to_string(), command);
        }
    }
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut spliced, mut declined) = (0usize, 0usize);
    for i in 0..MUTANTS / 4 {
        let line = hostile_id_mutant(&lines[i % lines.len()], &corpus, &mut rng);
        let Some((token, key)) = split_line_id(&line) else {
            assert!(line.starts_with(','), "only a cut key is never looked up");
            continue;
        };
        if token == "null" && line.starts_with(ID_PREFIX) {
            declined += 1;
        }
        let Some(command) = stored.get(key) else {
            continue;
        };
        spliced += 1;
        let value = json::parse(&line).unwrap_or_else(|e| panic!("mutant {i} {line}: {e}"));
        let request =
            parse_request(&value, true).unwrap_or_else(|e| panic!("mutant {i} {line}: {e:?}"));
        assert_eq!(
            memo_key(&request.command).as_ref(),
            Some(command),
            "mutant {i} {line}"
        );
        let rendered = ok_response(&request.id, request.command.verb(), Value::Null).render();
        assert!(
            rendered.starts_with(&format!("{ID_PREFIX}{token},")),
            "mutant {i} {line}: the parse path echoes {rendered}, the splice {token}"
        );
    }
    assert!(
        spliced > 0 && declined > 0,
        "spliced {spliced}, declined {declined}"
    );
}

/// The program and query texts the corpus lines carry, as bytes.
fn corpus_texts(corpus: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut texts: Vec<Vec<u8>> = corpus
        .iter()
        .flat_map(|line| {
            let value = json::parse(std::str::from_utf8(line).expect("workload lines are UTF-8"))
                .expect("workload lines are JSON");
            ["program", "query", "candidate"]
                .into_iter()
                .filter_map(|field| value.get(field).and_then(Value::as_str))
                .map(|text| text.as_bytes().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    texts.sort();
    texts.dedup();
    texts
}

/// Mutants of the corpus texts, each decoded by `decode` under
/// `catch_unwind`; returns how many decoded.
fn text_loop(mut decode: impl FnMut(&str) -> bool) -> usize {
    let texts = corpus_texts(&corpus());
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut decoded = 0;
    for i in 0..MUTANTS / 8 {
        let bytes = mutate(&texts[i % texts.len()], &texts, &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        let ok = catch_unwind(AssertUnwindSafe(|| decode(&text)))
            .unwrap_or_else(|_| panic!("decoding mutant {i} panicked: {text:?}"));
        decoded += usize::from(ok);
    }
    decoded
}

#[test]
fn mutated_programs_parse_and_round_trip_or_fail_with_parse_error() {
    let decoded = text_loop(|text| match parse_program(text) {
        Ok(program) => {
            let rendered = program.to_string();
            let again = parse_program(&rendered)
                .unwrap_or_else(|e| panic!("render of {text:?} does not parse: {rendered:?}: {e}"));
            assert_eq!(again, program, "text: {text:?}\nrendered: {rendered:?}");
            true
        }
        Err(error) => {
            assert_eq!(error.code(), "parse_error", "text: {text:?}");
            false
        }
    });
    assert!(decoded > 0, "no mutant parsed");
}

#[test]
fn mutated_ucqs_parse_and_round_trip_or_fail_with_a_query_code() {
    let mut codes: HashMap<&str, usize> = HashMap::new();
    let decoded = text_loop(|text| match Ucq::parse_checked(text) {
        Ok(ucq) => {
            let rendered = ucq.to_string();
            let again = Ucq::parse_checked(&rendered)
                .unwrap_or_else(|e| panic!("render of {text:?} does not parse: {rendered:?}: {e}"));
            assert_eq!(again, ucq, "text: {text:?}\nrendered: {rendered:?}");
            true
        }
        Err(error) => {
            let code = error.code();
            assert!(
                ["parse_error", "mixed_arity", "empty_query"].contains(&code),
                "text: {text:?}: {code}"
            );
            *codes.entry(code).or_default() += 1;
            false
        }
    });
    assert!(decoded > 0, "no mutant parsed");
    assert!(codes.len() == 3, "codes reached: {codes:?}");
}

/// A capture file as `write_capture` writes it, of the corpus lines.
fn capture(lines: &[Vec<u8>], first: usize, rng: &mut StdRng) -> Vec<u8> {
    let records: Vec<CaptureRecord> = (0..rng.random_range(1..=8usize))
        .map(|k| CaptureRecord {
            offset_micros: rng.random_range(0..1_000_000u64),
            line: String::from_utf8(lines[(first + k) % lines.len()].clone())
                .expect("workload lines are UTF-8"),
        })
        .collect();
    let mut bytes = Vec::new();
    write_capture(&mut bytes, &records).expect("write to a Vec");
    bytes
}

/// Read a capture file: records that round-trip through `write_capture`
/// give `true`, an `InvalidData` error `false`.
fn read_and_round_trip(bytes: &[u8]) -> bool {
    match read_capture(bytes) {
        Ok(records) => {
            let mut written = Vec::new();
            write_capture(&mut written, &records).expect("write to a Vec");
            let again = read_capture(&written[..])
                .unwrap_or_else(|e| panic!("the rewrite does not read: {e}: {written:?}"));
            assert_eq!(again, records, "written as {written:?}");
            true
        }
        Err(error) => {
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
            false
        }
    }
}

#[test]
fn mutated_capture_files_read_and_round_trip_or_fail_as_invalid_data() {
    // A line framed with `\r\n` by its client keeps its `\r`, and a line
    // may hold tabs.
    let records = [
        CaptureRecord {
            offset_micros: 1,
            line: "{\"op\":\"stats\"}\r".to_string(),
        },
        CaptureRecord {
            offset_micros: 2,
            line: "{\"op\":\t\"stats\"}".to_string(),
        },
    ];
    let mut file = Vec::new();
    write_capture(&mut file, &records).expect("write to a Vec");
    assert_eq!(read_capture(&file[..]).expect("read"), records);

    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut decoded, mut rejected) = (0usize, 0usize);
    for i in 0..MUTANTS / 16 {
        let file = capture(&corpus, i, &mut rng);
        let bytes = mutate(&file, &corpus, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| read_and_round_trip(&bytes)))
            .unwrap_or_else(|_| panic!("reading mutant {i} panicked: {bytes:?}"))
        {
            decoded += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        decoded > 0 && rejected > 0,
        "decoded {decoded}, rejected {rejected}"
    );
}
