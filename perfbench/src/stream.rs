//! Seeded request streams for the four workloads.
//!
//! Every input is drawn from the `--seed` argument; the server only ever
//! receives the rendered request lines.

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use server::json::Value;
use server::protocol;
use workload::{Pacing, VerbMix, WorkloadSpec};

/// A cold decision family of the `cold_mix` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Linear transitive closure ⊆ the 2-step path UCQ.
    Linear2,
    /// Linear transitive closure ⊆ the 3-step path UCQ.
    Linear3,
    /// Nonlinear transitive closure ⊆ the 2-step path UCQ.
    Nonlinear2,
    /// Nonlinear transitive closure ⊆ the 3-step path UCQ.
    Nonlinear3,
    /// `equivalence` of transitive closure against its 2-step form.
    EquivTc,
    /// `equivalence` of the buys program against its 1-step form.
    EquivBuys,
    /// `bounded` on the buys program at depth 4.
    Bounded,
}

impl Family {
    /// Every family, in the order `cold_mix` interleaves them.
    pub const ALL: [Family; 7] = [
        Family::Linear2,
        Family::Nonlinear2,
        Family::EquivTc,
        Family::Linear3,
        Family::Bounded,
        Family::Nonlinear3,
        Family::EquivBuys,
    ];

    /// Stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Linear2 => "linear_k2",
            Family::Linear3 => "linear_k3",
            Family::Nonlinear2 => "nonlinear_k2",
            Family::Nonlinear3 => "nonlinear_k3",
            Family::EquivTc => "equivalence_tc",
            Family::EquivBuys => "equivalence_buys",
            Family::Bounded => "bounded_buys",
        }
    }

    /// The group whose median the benchmark reports (`linear_p50_ms`, …).
    pub fn group(self) -> &'static str {
        match self {
            Family::Linear2 | Family::Linear3 => "linear",
            Family::Nonlinear2 | Family::Nonlinear3 => "nonlinear",
            Family::EquivTc | Family::EquivBuys => "equivalence",
            Family::Bounded => "bounded",
        }
    }

    /// Is the family's program nonlinear (two IDB subgoals in a rule)?
    pub fn nonlinear(self) -> bool {
        matches!(self, Family::Nonlinear2 | Family::Nonlinear3)
    }
}

/// One `cold_mix` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdRequest {
    /// Its family.
    pub family: Family,
    /// The rendered request line, no trailing newline.
    pub line: String,
}

fn linear_tc(e: &str) -> String {
    format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- {e}(X, Z), p(Z, Y).")
}

fn nonlinear_tc(e: &str) -> String {
    format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).")
}

/// The union of the path queries of length 1 to `k` over `e`.
fn path_ucq(e: &str, k: usize) -> String {
    (1..=k)
        .map(|n| {
            let terms: Vec<String> = (0..=n)
                .map(|i| match i {
                    0 => "X".to_string(),
                    i if i == n => "Y".to_string(),
                    i => format!("Z{i}"),
                })
                .collect();
            let body: Vec<String> = terms
                .windows(2)
                .map(|w| format!("{e}({}, {})", w[0], w[1]))
                .collect();
            format!("q(X, Y) :- {}.", body.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn buys(likes: &str, trendy: &str) -> String {
    format!("buys(X, Y) :- {likes}(X, Y).\nbuys(X, Y) :- {trendy}(X), buys(Z, Y).")
}

fn with_id(mut request: Value, id: &str) -> Value {
    if let Value::Obj(fields) = &mut request {
        fields.insert(0, ("id".to_string(), Value::str(id)));
    }
    request
}

/// A fresh EDB name: seed-drawn, so no two requests of a stream share one
/// and every request misses every memo and cache.
fn fresh_name(rng: &mut StdRng, prefix: &str) -> String {
    format!("{prefix}{:012x}", rng.random_range(0..1u64 << 48))
}

/// The request of `family` over freshly drawn EDB names.
fn cold_request(family: Family, rng: &mut StdRng, id: &str) -> Value {
    let request = match family {
        Family::Linear2 | Family::Linear3 | Family::Nonlinear2 | Family::Nonlinear3 => {
            let e = fresh_name(rng, "e");
            let k = if matches!(family, Family::Linear2 | Family::Nonlinear2) {
                2
            } else {
                3
            };
            let program = if family.nonlinear() {
                nonlinear_tc(&e)
            } else {
                linear_tc(&e)
            };
            protocol::containment_request(&program, "p", &path_ucq(&e, k))
        }
        Family::EquivTc => {
            let e = fresh_name(rng, "e");
            let candidate = format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- {e}(X, Z), {e}(Z, Y).");
            protocol::equivalence_request(&linear_tc(&e), "p", &candidate)
        }
        Family::EquivBuys => {
            let likes = fresh_name(rng, "likes");
            let trendy = fresh_name(rng, "trendy");
            let candidate =
                format!("buys(X, Y) :- {likes}(X, Y).\nbuys(X, Y) :- {trendy}(X), {likes}(Z, Y).");
            protocol::equivalence_request(&buys(&likes, &trendy), "buys", &candidate)
        }
        Family::Bounded => {
            let likes = fresh_name(rng, "likes");
            let trendy = fresh_name(rng, "trendy");
            protocol::bounded_request(&buys(&likes, &trendy), "buys", 4)
        }
    };
    with_id(request, id)
}

/// The first `count` requests of the `cold_mix` stream for `seed`: the
/// families in a fixed interleaving, each over fresh seed-drawn names.
pub fn cold_mix(seed: u64, count: usize) -> Vec<ColdRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            ColdRequest {
                family,
                line: cold_request(family, &mut rng, &format!("c{i}")).render(),
            }
        })
        .collect()
}

/// Base stream of the warm workloads: the workload generator's zipf mix
/// over a 16-program catalog, all six decision verbs, unique ids.  At most
/// 96 distinct memoisable requests, far inside `MEMO_CAP`.
pub fn warm_spec() -> WorkloadSpec {
    WorkloadSpec {
        requests: 4096,
        tenants: 4,
        programs: 16,
        zipf_s: 1.0,
        verb_mix: VerbMix::default(),
        pacing: Pacing::default(),
    }
}

/// Arrival schedule of `mixed_open`: bursts of 32 requests 500 µs apart,
/// then a 48 ms lull — about 500 requests per second on average.  The
/// server stays far from saturation even when the host slows it down
/// several-fold; near saturation an open loop's latencies explode.
const MIXED_PACING: Pacing = Pacing {
    burst_len: 32,
    gap_micros: 500,
    lull_micros: 48_000,
};

/// Catalog size of `mixed_open`: its distinct memoisable requests (three
/// verbs per program) far exceed `MEMO_CAP`.
const MIXED_PROGRAMS: usize = 16_384;

/// The `mixed_open` verb mix: mostly the cheap `optimize`/`minimize`
/// verbs, whose distinct requests overflow the memos, and 3% `containment`
/// decisions, cold on a program's first sight — about 2% of all requests
/// (some ten per second), well under `cold_mix` capacity.
fn mixed_verb_mix() -> VerbMix {
    VerbMix {
        containment: 3,
        equivalence: 0,
        bounded: 0,
        optimize: 48,
        minimize: 49,
        rewrite: 0,
    }
}

/// Mean arrival gap of [`MIXED_PACING`], in microseconds.
fn mixed_mean_gap_micros() -> f64 {
    let p = MIXED_PACING;
    ((p.burst_len - 1) as f64 * p.gap_micros as f64 + p.lull_micros as f64) / p.burst_len as f64
}

/// The `mixed_open` stream covering `seconds` of arrivals.
pub fn mixed_open(seed: u64, seconds: f64) -> Vec<workload::TimedRequest> {
    let horizon = (seconds * 1e6) as u64;
    let requests = (seconds * 1e6 / mixed_mean_gap_micros()).ceil() as usize + 64;
    let spec = WorkloadSpec {
        requests,
        tenants: 4,
        programs: MIXED_PROGRAMS,
        zipf_s: 1.0,
        verb_mix: mixed_verb_mix(),
        pacing: MIXED_PACING,
    };
    let mut stream = workload::generate(&spec, seed);
    stream.retain(|r| r.offset_micros < horizon);
    stream
}

/// A base line of a warm stream, split around the end of its id so the
/// load generator can append a cycle number and keep every id unique.
#[derive(Clone, Debug)]
pub struct SplitLine {
    /// `{"id":"t3-00017` — up to, not including, the id's closing quote.
    pub head: String,
    /// `","op":…}` — the rest of the line.
    pub tail: String,
}

impl SplitLine {
    /// Split a line whose first field is a string `id`.
    pub fn of(line: &str) -> SplitLine {
        let start = "{\"id\":\"".len();
        assert!(line.starts_with("{\"id\":\""), "line must lead with its id");
        let close = start + line[start..].find('"').expect("id string is closed");
        SplitLine {
            head: line[..close].to_string(),
            tail: line[close..].to_string(),
        }
    }

    /// The line sent in `cycle`: the id gains a `.{cycle}` suffix.
    pub fn render_into(&self, cycle: u64, out: &mut Vec<u8>) {
        use std::io::Write;
        out.extend_from_slice(self.head.as_bytes());
        write!(out, ".{cycle}").expect("writing to a Vec cannot fail");
        out.extend_from_slice(self.tail.as_bytes());
        out.push(b'\n');
    }
}

/// Parse a cycled warm id (`t3-00017.5`) back to its sequence number in a
/// stream of `base` lines.
pub fn warm_seq(id: &str, base: usize) -> Option<u64> {
    let (line, cycle) = id.rsplit_once('.')?;
    let index: u64 = line.rsplit_once('-')?.1.parse().ok()?;
    let cycle: u64 = cycle.parse().ok()?;
    Some(cycle * base as u64 + index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_ucq_lists_every_length() {
        assert_eq!(
            path_ucq("e", 2),
            "q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z1), e(Z1, Y)."
        );
    }

    #[test]
    fn warm_ids_round_trip() {
        let line = SplitLine::of(r#"{"id":"t3-00017","op":"stats"}"#);
        let mut out = Vec::new();
        line.render_into(5, &mut out);
        assert_eq!(out, b"{\"id\":\"t3-00017.5\",\"op\":\"stats\"}\n");
        assert_eq!(warm_seq("t3-00017.5", 4096), Some(5 * 4096 + 17));
    }
}
