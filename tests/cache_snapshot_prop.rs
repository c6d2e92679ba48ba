//! Property suite for the decision-cache snapshot format
//! (`nonrec_equivalence::snapshot`), in the repo's deterministic-seed-loop
//! style (no proptest — the workspace is offline):
//!
//! * **round trip**: `save → load → re-save` is byte-identical, and every
//!   verdict and witness recalled from the restored cache equals the
//!   original;
//! * **robustness**: corrupted (any flipped byte), truncated (any prefix),
//!   and version-bumped snapshots load as clean errors — never a panic,
//!   never a partial merge, never a wrong verdict;
//! * **reset hook**: the suite drives `DecisionCache::global()` through
//!   `clear()` between phases, the cross-test-pollution reset the server's
//!   `clear_cache` verb exposes on the wire.

use cq::generate::{random_cq, RandomCqConfig};
use cq::Ucq;
use datalog::atom::Pred;
use datalog::generate::{random_program, RandomProgramConfig};
use datalog::program::Program;
use metrics::NoMetrics;
use nonrec_equivalence::cache::DecisionCache;
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_in, ContainmentResult, DecisionOptions,
};
use nonrec_equivalence::snapshot::{SnapshotError, SNAPSHOT_VERSION};

const SEEDS: u64 = 60;

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

fn options() -> DecisionOptions {
    DecisionOptions {
        max_pairs: Some(50_000),
        ..DecisionOptions::default()
    }
}

fn instances() -> Vec<(Program, Ucq)> {
    (0..SEEDS)
        .map(|seed| (random_program(&program_config(), seed), random_ucq(seed)))
        .collect()
}

/// Decide every instance against `cache`, returning the comparable shape
/// of each outcome (micros excluded: wall-clock is not semantics).
fn decide_all(cache: &DecisionCache, instances: &[(Program, Ucq)]) -> Vec<Option<String>> {
    let goal = Pred::new("q0");
    instances
        .iter()
        .map(|(program, ucq)| {
            datalog_contained_in_ucq_in(cache, program, goal, ucq, options(), &mut NoMetrics)
                .ok()
                .map(render)
        })
        .collect()
}

fn render(result: ContainmentResult) -> String {
    let witness = result.counterexample.map(|cex| {
        let mut facts: Vec<String> = cex.database.facts().map(|f| f.to_string()).collect();
        facts.sort();
        format!(
            "{} | {:?} | {:?}",
            cex.expansion,
            facts,
            cex.goal_tuple
                .iter()
                .map(|c| c.name().to_string())
                .collect::<Vec<_>>()
        )
    });
    format!(
        "{} {:?} explored={}",
        result.contained, witness, result.stats.explored
    )
}

#[test]
fn snapshot_round_trips_byte_identically_and_preserves_every_verdict() {
    let instances = instances();
    let cache = DecisionCache::new();
    let original = decide_all(&cache, &instances);
    assert!(
        original.iter().flatten().any(|o| o.contains("Some")),
        "sweep must include witness-carrying entries"
    );

    let bytes = cache.to_snapshot_bytes();
    let restored = DecisionCache::new();
    let added = restored.load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(added, cache.sizes());
    // Byte-identical re-save, and again after a second hop.
    let resaved = restored.to_snapshot_bytes();
    assert_eq!(bytes, resaved, "save → load → save must be byte-identical");
    let third = DecisionCache::new();
    third.load_snapshot_bytes(&resaved).unwrap();
    assert_eq!(third.to_snapshot_bytes(), bytes);

    // Every decision answers from the restored cache, identically.
    let misses_before = restored.stats().misses;
    let recalled = decide_all(&restored, &instances);
    assert_eq!(original, recalled, "restored cache changed an answer");
    assert_eq!(
        restored.stats().misses,
        misses_before,
        "every restored decision must be a cache hit"
    );

    // Loading the same snapshot twice adds nothing the second time.
    let re_added = restored.load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(re_added.total(), 0);
}

#[test]
fn corrupted_snapshots_fail_cleanly_at_every_byte() {
    let instances = instances();
    let cache = DecisionCache::new();
    decide_all(&cache, &instances);
    let bytes = cache.to_snapshot_bytes();

    // Flip one byte at a stride across the whole file (every byte would be
    // minutes of work for no extra coverage; the stride still hits every
    // region: magic, version, length, checksum, payload).
    let mut failures = 0usize;
    for offset in (0..bytes.len()).step_by(7) {
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= 0x40;
        let fresh = DecisionCache::new();
        let result = fresh.load_snapshot_bytes(&corrupted);
        assert!(result.is_err(), "flipping byte {offset} went undetected");
        assert!(
            fresh.is_empty(),
            "failed load at byte {offset} partially applied"
        );
        failures += 1;
    }
    assert!(failures > 100, "stride must cover the file");

    // Every truncation fails cleanly too.
    for len in (0..bytes.len()).step_by(11) {
        let fresh = DecisionCache::new();
        assert!(
            fresh.load_snapshot_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes went undetected"
        );
        assert!(fresh.is_empty());
    }

    // A version bump is refused by name, not misread.
    let mut bumped = bytes.clone();
    bumped[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert_eq!(
        DecisionCache::new().load_snapshot_bytes(&bumped),
        Err(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
    );

    // And after all that abuse, a load of the pristine bytes still works
    // and still answers correctly.
    let fresh = DecisionCache::new();
    fresh.load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(
        decide_all(&cache, &instances),
        decide_all(&fresh, &instances)
    );
}

#[test]
fn global_cache_clear_is_the_reset_hook_between_phases() {
    let global = DecisionCache::global();
    global.clear();
    assert!(global.is_empty());

    let instances = instances();
    let goal = Pred::new("q0");
    for (program, ucq) in instances.iter().take(10) {
        // Default-path decisions land in the global cache.
        let _ = nonrec_equivalence::containment::datalog_contained_in_ucq_with(
            program,
            goal,
            ucq,
            options(),
        );
    }
    let sizes = global.sizes();
    assert!(sizes.decisions >= 10);

    let bytes = global.to_snapshot_bytes();
    let dropped = global.clear();
    assert_eq!(dropped, sizes, "clear must report exactly what it dropped");
    assert!(global.is_empty());

    // The snapshot warms the cleared global cache back up.
    let added = global.load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(added, sizes);
    global.clear();
}
