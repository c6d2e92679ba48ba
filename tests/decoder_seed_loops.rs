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

use std::panic::{catch_unwind, AssertUnwindSafe};

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use server::json;
use server::protocol::parse_request;

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
