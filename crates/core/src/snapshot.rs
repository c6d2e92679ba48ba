//! A versioned binary snapshot format for the [`DecisionCache`], so a
//! restarted server warms from disk instead of re-deciding its whole
//! working set ("persisted-cache warm start", the ROADMAP hardening item).
//!
//! # Format (version 3)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"NRDC"
//! 4       4     format version, u32 LE (currently 3)
//! 8       8     payload length in bytes, u64 LE
//! 16      8     FNV-1a 64 checksum of the payload, u64 LE
//! 24      …     payload
//! ```
//!
//! The payload is the three cache segments in order — full decisions
//! (including counterexample witnesses: proof tree, expansion, canonical
//! database, goal tuple), CQ-pair verdicts, canonical-database verdicts —
//! each as a `u32` entry count followed by the entries.  All integers are
//! little-endian; interned symbols travel as their name strings, so a
//! snapshot is valid across processes (interner ids are not stable, names
//! are).  Within each segment, entries are sorted by their encoded bytes:
//! saving is **deterministic**, and `save → load → save` round-trips
//! byte-identically (locked by `tests/cache_snapshot_prop.rs`).
//! Version 2 extended the per-decision [`ContainmentStats`] encoding with
//! the scheduler fields (`pairs_dominated`, `pops_skipped_dead`,
//! `max_frontier`).  Version 3 dropped the decision-path byte from the
//! stats and the word-path flag from the decision key, since every decision
//! now runs the tree search.  Files of versions 1 and 2 are refused, not
//! migrated.
//!
//! What is *not* persisted: [`crate::cache::CacheStats`] (counters describe
//! one process's traffic), LRU recency (a loaded entry is as good as fresh),
//! and [`crate::cache::CacheLimits`] (runtime configuration, not data).
//!
//! # Safety properties
//!
//! Decoding never panics and never partially applies: the whole snapshot is
//! staged off to the side and only merged into the cache once every byte
//! has decoded cleanly, so a corrupted, truncated, or version-bumped file
//! yields a [`SnapshotError`] and an untouched cache — never a wrong
//! verdict.  The checksum catches flipped payload bytes; the header length
//! catches truncation.  A snapshot is **trusted operator data** (whoever
//! can place one can equally issue `clear_cache` or restart the server):
//! the checksum defends against bit rot and torn writes, not against a
//! deliberate forgery, which no self-contained check could.

use std::fmt;

use cq::canonical::{CqKey, UcqKey};
use cq::ConjunctiveQuery;
use datalog::atom::{Atom, Fact, Pred};
use datalog::database::Database;
use datalog::rule::Rule;
use datalog::term::{Constant, Term, Var};

use crate::cache::{CacheSizes, DecisionCache, DecisionKey, ExportedEntries, ProgramKey};
use crate::containment::{ContainmentResult, ContainmentStats, Counterexample};
use crate::labels::ProofLabel;
use crate::proof_tree::ProofTree;
use crate::ptrees_automaton::AutomatonStats;

/// The four magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NRDC";

/// The current snapshot format version.  Bump on any encoding change; the
/// decoder refuses other versions with
/// [`SnapshotError::UnsupportedVersion`] instead of misreading them.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Nesting bound for decoded proof trees, so a hostile snapshot cannot
/// overflow the decoder's stack.  Genuine witnesses are orders of magnitude
/// shallower (their depth is bounded by the containment engine's search).
const MAX_TREE_DEPTH: usize = 512;

/// Why a snapshot failed to load.  Every variant is a clean error — the
/// cache is left exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed header.
    TooShort,
    /// The magic bytes are not `b"NRDC"`.
    BadMagic,
    /// A version this build does not speak.
    UnsupportedVersion(u32),
    /// The payload is shorter or longer than the header claims.
    LengthMismatch {
        /// Payload length the header promised.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match (bit rot, torn write).
    ChecksumMismatch,
    /// A structural decoding failure, with the byte offset.
    Corrupt {
        /// Byte offset (into the payload) where decoding failed.
        offset: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its header"),
            SnapshotError::BadMagic => write!(f, "not a decision-cache snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build speaks {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot payload is {actual} bytes, header promised {expected}"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt { offset, detail } => {
                write!(f, "corrupt snapshot at payload byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// The stable wire error code the server answers for this failure.
    pub fn code(&self) -> &'static str {
        "snapshot_error"
    }
}

// ---- FNV-1a 64 (the offline workspace has no hashing crates).

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---- Encoder.

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_term(out: &mut Vec<u8>, term: Term) {
    match term {
        Term::Var(v) => {
            out.push(0);
            put_str(out, v.name());
        }
        Term::Const(c) => {
            out.push(1);
            put_str(out, c.name());
        }
    }
}

fn put_atom(out: &mut Vec<u8>, atom: &Atom) {
    put_str(out, atom.pred.name());
    put_u32(out, atom.terms.len() as u32);
    for &term in &atom.terms {
        put_term(out, term);
    }
}

fn put_cq(out: &mut Vec<u8>, cq: &ConjunctiveQuery) {
    put_atom(out, &cq.head);
    put_u32(out, cq.body.len() as u32);
    for atom in &cq.body {
        put_atom(out, atom);
    }
}

fn put_cq_key(out: &mut Vec<u8>, key: &CqKey) {
    put_cq(out, key.as_query());
}

fn put_program_key(out: &mut Vec<u8>, key: &ProgramKey) {
    put_u32(out, key.rule_keys().len() as u32);
    for rule in key.rule_keys() {
        put_cq_key(out, rule);
    }
}

fn put_tree(out: &mut Vec<u8>, tree: &ProofTree) {
    put_u64(out, tree.label.rule_index as u64);
    put_atom(out, &tree.label.instance.head);
    put_u32(out, tree.label.instance.body.len() as u32);
    for atom in &tree.label.instance.body {
        put_atom(out, atom);
    }
    put_u32(out, tree.children.len() as u32);
    for child in &tree.children {
        put_tree(out, child);
    }
}

fn put_automaton_stats(out: &mut Vec<u8>, stats: AutomatonStats) {
    put_u64(out, stats.states as u64);
    put_u64(out, stats.transitions as u64);
}

fn put_result(out: &mut Vec<u8>, result: &ContainmentResult) {
    put_bool(out, result.contained);
    match &result.counterexample {
        None => out.push(0),
        Some(cex) => {
            out.push(1);
            put_tree(out, &cex.proof_tree);
            put_cq(out, &cex.expansion);
            let mut facts: Vec<Vec<u8>> = cex
                .database
                .facts()
                .map(|fact| {
                    let mut buf = Vec::new();
                    put_str(&mut buf, fact.pred.name());
                    put_u32(&mut buf, fact.tuple.len() as u32);
                    for &c in &fact.tuple {
                        put_str(&mut buf, c.name());
                    }
                    buf
                })
                .collect();
            // Database iteration order is deterministic within a process
            // but the byte-identical-resave guarantee must not depend on
            // it: sort the encoded facts.
            facts.sort();
            put_u32(out, facts.len() as u32);
            for fact in facts {
                out.extend_from_slice(&fact);
            }
            put_u32(out, cex.goal_tuple.len() as u32);
            for &c in &cex.goal_tuple {
                put_str(out, c.name());
            }
        }
    }
    put_automaton_stats(out, result.stats.ptrees);
    put_automaton_stats(out, result.stats.queries);
    put_u64(out, result.stats.explored as u64);
    put_u64(out, result.stats.pairs_dominated as u64);
    put_u64(out, result.stats.pops_skipped_dead as u64);
    put_u64(out, result.stats.max_frontier as u64);
    put_u64(out, result.stats.micros.min(u64::MAX as u128) as u64);
}

fn put_decision_key(out: &mut Vec<u8>, key: &DecisionKey) {
    put_program_key(out, &key.program);
    put_str(out, key.goal.name());
    put_u32(out, key.query.disjuncts().len() as u32);
    for disjunct in key.query.disjuncts() {
        put_cq_key(out, disjunct);
    }
    put_bool(out, key.antichain);
    match key.max_pairs {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_u64(out, n as u64);
        }
    }
}

/// Encode a sorted section: each entry rendered into its own buffer, the
/// buffers sorted lexicographically, then count + concatenation.  Sorting
/// on bytes makes the output independent of `HashMap` iteration order.
fn put_section(out: &mut Vec<u8>, mut entries: Vec<Vec<u8>>) {
    entries.sort();
    put_u32(out, entries.len() as u32);
    for entry in entries {
        out.extend_from_slice(&entry);
    }
}

// ---- Decoder.

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.err(format!(
                "wanted {n} bytes, {} left",
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize64(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| self.err(format!("count {n} overflows usize")))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("invalid boolean byte {other}"))),
        }
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.err("string is not valid UTF-8"))
    }

    fn term(&mut self) -> Result<Term, SnapshotError> {
        match self.u8()? {
            0 => Ok(Term::Var(Var::new(self.str()?))),
            1 => Ok(Term::Const(Constant::new(self.str()?))),
            other => Err(self.err(format!("invalid term tag {other}"))),
        }
    }

    fn atom(&mut self) -> Result<Atom, SnapshotError> {
        let pred = Pred::new(self.str()?);
        let arity = self.u32()? as usize;
        let mut terms = Vec::new();
        for _ in 0..arity {
            terms.push(self.term()?);
        }
        Ok(Atom { pred, terms })
    }

    fn cq(&mut self) -> Result<ConjunctiveQuery, SnapshotError> {
        let head = self.atom()?;
        let body_len = self.u32()? as usize;
        let mut body = Vec::new();
        for _ in 0..body_len {
            body.push(self.atom()?);
        }
        Ok(ConjunctiveQuery { head, body })
    }

    /// A decoded key, trusted as canonical: persisted keys store the
    /// canonical form their live counterparts were computed from.
    /// `canonicalize_names` is idempotent now, so re-canonicalising a key
    /// written by this build would be merely redundant — but snapshots from
    /// builds predating the fixpoint iteration may hold non-fixpoint forms,
    /// and wrapping those verbatim keeps their entries reachable under the
    /// keys they were saved with instead of orphaning them.
    fn cq_key(&mut self) -> Result<CqKey, SnapshotError> {
        Ok(CqKey::from_canonical(self.cq()?))
    }

    fn program_key(&mut self) -> Result<ProgramKey, SnapshotError> {
        let rules = self.u32()? as usize;
        let mut keys = Vec::new();
        for _ in 0..rules {
            keys.push(self.cq_key()?);
        }
        Ok(ProgramKey::from_rule_keys(keys))
    }

    fn tree(&mut self, depth: usize) -> Result<ProofTree, SnapshotError> {
        if depth > MAX_TREE_DEPTH {
            return Err(self.err("proof tree nested too deep"));
        }
        let rule_index = self.usize64()?;
        let head = self.atom()?;
        let body_len = self.u32()? as usize;
        let mut body = Vec::new();
        for _ in 0..body_len {
            body.push(self.atom()?);
        }
        let label = ProofLabel {
            rule_index,
            instance: Rule::new(head, body),
        };
        let child_count = self.u32()? as usize;
        let mut children = Vec::new();
        for _ in 0..child_count {
            children.push(self.tree(depth + 1)?);
        }
        Ok(ProofTree { label, children })
    }

    fn automaton_stats(&mut self) -> Result<AutomatonStats, SnapshotError> {
        Ok(AutomatonStats {
            states: self.usize64()?,
            transitions: self.usize64()?,
        })
    }

    fn result(&mut self) -> Result<ContainmentResult, SnapshotError> {
        let contained = self.bool()?;
        let counterexample = match self.u8()? {
            0 => None,
            1 => {
                let proof_tree = self.tree(0)?;
                let expansion = self.cq()?;
                let fact_count = self.u32()? as usize;
                let mut database = Database::new();
                for _ in 0..fact_count {
                    let pred = Pred::new(self.str()?);
                    let arity = self.u32()? as usize;
                    let mut tuple = Vec::new();
                    for _ in 0..arity {
                        tuple.push(Constant::new(self.str()?));
                    }
                    database.insert(Fact::new(pred, tuple));
                }
                let tuple_len = self.u32()? as usize;
                let mut goal_tuple = Vec::new();
                for _ in 0..tuple_len {
                    goal_tuple.push(Constant::new(self.str()?));
                }
                Some(Counterexample {
                    proof_tree,
                    expansion,
                    database,
                    goal_tuple,
                })
            }
            other => return Err(self.err(format!("invalid counterexample tag {other}"))),
        };
        let ptrees = self.automaton_stats()?;
        let queries = self.automaton_stats()?;
        let explored = self.usize64()?;
        let pairs_dominated = self.usize64()?;
        let pops_skipped_dead = self.usize64()?;
        let max_frontier = self.usize64()?;
        let micros = self.u64()? as u128;
        Ok(ContainmentResult {
            contained,
            counterexample,
            stats: ContainmentStats {
                ptrees,
                queries,
                explored,
                pairs_dominated,
                pops_skipped_dead,
                max_frontier,
                micros,
            },
        })
    }

    fn decision_key(&mut self) -> Result<DecisionKey, SnapshotError> {
        let program = self.program_key()?;
        let goal = Pred::new(self.str()?);
        let disjunct_count = self.u32()? as usize;
        let mut disjuncts = Vec::new();
        for _ in 0..disjunct_count {
            disjuncts.push(self.cq_key()?);
        }
        let query = UcqKey::from_keys(disjuncts);
        let antichain = self.bool()?;
        let max_pairs = match self.u8()? {
            0 => None,
            1 => Some(self.usize64()?),
            other => return Err(self.err(format!("invalid max_pairs tag {other}"))),
        };
        Ok(DecisionKey {
            program,
            goal,
            query,
            antichain,
            max_pairs,
        })
    }
}

impl DecisionCache {
    /// Serialise every memoised entry into the versioned snapshot format.
    /// Deterministic: the same cache contents always render the same bytes.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot().0
    }

    /// As [`DecisionCache::to_snapshot_bytes`], also reporting the
    /// per-segment counts of the entries **in the snapshot**.  On a live
    /// cache these can differ from a subsequent [`DecisionCache::sizes`]
    /// call (other threads keep storing and evicting), and the server's
    /// `save_cache` verb must report what it wrote, not what the cache
    /// holds a moment later.
    pub fn snapshot(&self) -> (Vec<u8>, CacheSizes) {
        let entries = self.export_entries();
        let sizes = CacheSizes {
            decisions: entries.decisions.len(),
            cq_pairs: entries.cq_pairs.len(),
            cq_in_program: entries.cq_in_program.len(),
        };

        let mut payload = Vec::new();
        put_section(
            &mut payload,
            entries
                .decisions
                .iter()
                .map(|(key, result)| {
                    let mut buf = Vec::new();
                    put_decision_key(&mut buf, key);
                    put_result(&mut buf, result);
                    buf
                })
                .collect(),
        );
        put_section(
            &mut payload,
            entries
                .cq_pairs
                .iter()
                .map(|(theta, psi, verdict)| {
                    let mut buf = Vec::new();
                    put_cq_key(&mut buf, theta);
                    put_cq_key(&mut buf, psi);
                    put_bool(&mut buf, *verdict);
                    buf
                })
                .collect(),
        );
        put_section(
            &mut payload,
            entries
                .cq_in_program
                .iter()
                .map(|(program, goal, theta, verdict)| {
                    let mut buf = Vec::new();
                    put_program_key(&mut buf, program);
                    put_str(&mut buf, goal.name());
                    put_cq_key(&mut buf, theta);
                    put_bool(&mut buf, *verdict);
                    buf
                })
                .collect(),
        );

        let mut out = Vec::with_capacity(24 + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        (out, sizes)
    }

    /// Decode a snapshot and merge its entries into this cache.
    ///
    /// All-or-nothing: any error leaves the cache untouched.  Existing
    /// entries win over persisted ones, hit/miss statistics are untouched,
    /// and the configured [`crate::cache::CacheLimits`] are enforced after
    /// the merge (loading can evict, never overflow).  Returns how many
    /// entries per segment were actually added.
    pub fn load_snapshot_bytes(&self, bytes: &[u8]) -> Result<CacheSizes, SnapshotError> {
        if bytes.len() < 24 {
            return Err(SnapshotError::TooShort);
        }
        if bytes[0..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let expected = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let payload = &bytes[24..];
        if payload.len() as u64 != expected {
            return Err(SnapshotError::LengthMismatch {
                expected,
                actual: payload.len() as u64,
            });
        }
        if fnv1a(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        // Stage everything before touching the cache.
        let mut reader = Reader {
            bytes: payload,
            pos: 0,
        };
        let decision_count = reader.u32()? as usize;
        let mut decisions = Vec::new();
        for _ in 0..decision_count {
            let key = reader.decision_key()?;
            let result = reader.result()?;
            decisions.push((key, result));
        }
        let pair_count = reader.u32()? as usize;
        let mut cq_pairs = Vec::new();
        for _ in 0..pair_count {
            let theta = reader.cq_key()?;
            let psi = reader.cq_key()?;
            let verdict = reader.bool()?;
            cq_pairs.push((theta, psi, verdict));
        }
        let in_program_count = reader.u32()? as usize;
        let mut cq_in_program = Vec::new();
        for _ in 0..in_program_count {
            let program = reader.program_key()?;
            let goal = Pred::new(reader.str()?);
            let theta = reader.cq_key()?;
            let verdict = reader.bool()?;
            cq_in_program.push((program, goal, theta, verdict));
        }
        if reader.pos != payload.len() {
            return Err(reader.err("trailing bytes after the last section"));
        }

        Ok(self.import_entries(ExportedEntries {
            decisions,
            cq_pairs,
            cq_in_program,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{datalog_contained_in_ucq_in, DecisionOptions};
    use datalog::parser::parse_program;

    fn warm_cache() -> DecisionCache {
        let cache = DecisionCache::new();
        let program = parse_program("p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).").unwrap();
        // One contained and one refuted decision (the latter stores a
        // counterexample witness, the payload-heavy path).
        for query in [
            "q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), e(Z, Y).",
            "q(X, Y) :- e(X, Y).",
        ] {
            let ucq = cq::Ucq::parse(query).unwrap();
            datalog_contained_in_ucq_in(
                &cache,
                &program,
                Pred::new("p"),
                &ucq,
                DecisionOptions::default(),
                &mut metrics::NoMetrics,
            )
            .unwrap();
        }
        let a = ConjunctiveQuery::parse("q(X) :- e(X, Y), e(Y, Z).").unwrap();
        let b = ConjunctiveQuery::parse("q(X) :- e(X, Y).").unwrap();
        cache.cq_contained(&a, &b);
        cache.cq_in_datalog_cached(
            &ProgramKey::of(&parse_program("p(X) :- e(X, X).").unwrap()),
            Pred::new("p"),
            &CqKey::of(&b),
            || true,
        );
        cache
    }

    #[test]
    fn snapshot_round_trips_entries_and_bytes() {
        let cache = warm_cache();
        let sizes = cache.sizes();
        assert!(sizes.decisions >= 2 && sizes.cq_pairs >= 1 && sizes.cq_in_program >= 1);

        let bytes = cache.to_snapshot_bytes();
        let restored = DecisionCache::new();
        let added = restored.load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(added, sizes);
        assert_eq!(restored.sizes(), sizes);
        // Byte-identical re-save.
        assert_eq!(restored.to_snapshot_bytes(), bytes);
        // Counters describe this process's traffic, not the snapshot's.
        assert_eq!(restored.stats().hits, 0);
        assert_eq!(restored.stats().misses, 0);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let cache = DecisionCache::new();
        let bytes = cache.to_snapshot_bytes();
        assert_eq!(bytes.len(), 24 + 12);
        let restored = DecisionCache::new();
        assert_eq!(
            restored.load_snapshot_bytes(&bytes).unwrap(),
            CacheSizes::default()
        );
    }

    #[test]
    fn loading_into_a_capped_cache_sheds_snapshot_entries_not_the_live_hot_set() {
        use crate::cache::CacheLimits;
        // A snapshot with many CQ-pair entries.
        let donor = DecisionCache::new();
        let psi = ConjunctiveQuery::parse("q(X) :- e(X, Y).").unwrap();
        for n in 0..40 {
            let theta =
                ConjunctiveQuery::parse(&format!("q(X) :- e(X, Y), cold{n}(Y, Y).")).unwrap();
            donor.cq_contained(&theta, &psi);
        }
        let bytes = donor.to_snapshot_bytes();

        // A capped cache serving a live hot set.
        let live = DecisionCache::with_limits(CacheLimits {
            max_cq_pairs: Some(8),
            ..CacheLimits::default()
        });
        let hot: Vec<ConjunctiveQuery> = (0..4)
            .map(|n| ConjunctiveQuery::parse(&format!("q(X) :- hot{n}(X, X).")).unwrap())
            .collect();
        for theta in &hot {
            live.cq_contained(theta, &psi);
        }
        live.load_snapshot_bytes(&bytes).unwrap();
        assert!(live.sizes().cq_pairs <= 8);
        // The live hot set must have survived the merge-and-enforce: the
        // snapshot's surplus is what gets shed.
        for theta in &hot {
            let (_, hit) = live.cq_contained(theta, &psi);
            assert!(hit, "live entry evicted in favour of snapshot entries");
        }
    }

    #[test]
    fn header_failures_are_clean_errors() {
        let cache = warm_cache();
        let bytes = cache.to_snapshot_bytes();
        let fresh = DecisionCache::new();

        assert_eq!(
            fresh.load_snapshot_bytes(&bytes[..10]),
            Err(SnapshotError::TooShort)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            fresh.load_snapshot_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        );
        let mut bumped = bytes.clone();
        bumped[4] = (SNAPSHOT_VERSION + 1) as u8;
        assert_eq!(
            fresh.load_snapshot_bytes(&bumped),
            Err(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
        );
        // Earlier formats are refused, not migrated.
        for old in [1u32, 2] {
            let mut older = bytes.clone();
            older[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                fresh.load_snapshot_bytes(&older),
                Err(SnapshotError::UnsupportedVersion(old))
            );
        }
        let truncated = &bytes[..bytes.len() - 3];
        assert!(matches!(
            fresh.load_snapshot_bytes(truncated),
            Err(SnapshotError::LengthMismatch { .. })
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert_eq!(
            fresh.load_snapshot_bytes(&flipped),
            Err(SnapshotError::ChecksumMismatch)
        );
        assert!(fresh.is_empty(), "failed loads must not touch the cache");
    }
}
