//! Rendering of the engine metrics: the `stats` verb's `metrics` and
//! `strategy_decisions` blocks, the `optimize` verb's `strategy_decisions`
//! block, the `metrics_text` verb's Prometheus-style text exposition, and
//! the `trace` verb's event objects.
//!
//! The counters come from the one typed registry,
//! [`metrics::global`]: each is declared there once with its `stats` block,
//! key and, for the engine counters, Prometheus name and help, and every
//! surface here renders by iterating [`metrics::global::COUNTERS`] — a JSON
//! consumer and a scrape pipeline can never see counters that drifted
//! apart.  The engines record into the registry on every completed run,
//! whatever sink is attached, so decisions run by the `trace` verb count
//! like any other.  The per-verb latency histograms come from
//! [`ServerStats`].
//!
//! The text exposition follows the Prometheus conventions: every metric
//! gets `# HELP` and `# TYPE` lines; counters are plain
//! `name value` samples; the latency histograms render as cumulative
//! `_bucket{le="..."}` series with `_sum` and `_count`, one labelled
//! family across all verbs.  Bucket `i` of a [`LatencyHistogram`] counts
//! latencies in `[2^i, 2^(i+1))` µs, so the `le` upper bound of bucket `i`
//! is `2^(i+1)`, and the last bucket renders as `+Inf`.

use metrics::{Event, FieldValue, MetricsSnapshot};
use nonrec_equivalence::cache::DecisionCache;

use crate::json::{obj, Value};
use crate::stats::{LatencyHistogram, ServerStats};

fn num(n: u64) -> Value {
    Value::num(n as f64)
}

/// The JSON object of one registry block: each of its counters under its
/// key, in declaration order.
pub fn block_json(snap: &MetricsSnapshot, block: &str) -> Value {
    obj(snap
        .values()
        .filter(|(counter, _)| counter.block == block)
        .map(|(counter, value)| (counter.key, num(value)))
        .collect())
}

/// The JSON rendering of the engine counters — the `stats` verb's
/// `metrics` block: one object per registry block whose counters the
/// `metrics_text` exposition carries, in declaration order.
pub fn metrics_json(snap: &MetricsSnapshot) -> Value {
    let mut blocks: Vec<&str> = Vec::new();
    for counter in metrics::global::COUNTERS {
        if counter.exposition.is_some() && !blocks.contains(&counter.block) {
            blocks.push(counter.block);
        }
    }
    obj(blocks
        .into_iter()
        .map(|block| (block, block_json(snap, block)))
        .collect())
}

/// The JSON rendering of one trace [`Event`]: its kind plus every field,
/// flattened into one object (the `trace` verb's `events` elements).
pub fn event_json(event: &Event) -> Value {
    let mut fields = vec![("kind", Value::str(event.kind))];
    for (name, value) in &event.fields {
        fields.push((
            *name,
            match value {
                FieldValue::Num(n) => num(*n),
                FieldValue::Text(s) => Value::str(s),
                FieldValue::Flag(b) => Value::Bool(*b),
            },
        ));
    }
    obj(fields)
}

/// One single-sample family: `# HELP`, `# TYPE`, and the `name value` line.
fn family(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

fn histogram_series(out: &mut String, verb: &str, histogram: &LatencyHistogram) {
    let buckets = histogram.bucket_counts();
    let mut cumulative = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        cumulative += count;
        let le = if i + 1 == buckets.len() {
            "+Inf".to_string()
        } else {
            (1u128 << (i + 1)).to_string()
        };
        out.push_str(&format!(
            "nonrec_request_duration_micros_bucket{{verb=\"{verb}\",le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "nonrec_request_duration_micros_sum{{verb=\"{verb}\"}} {}\n",
        histogram.total_micros()
    ));
    out.push_str(&format!(
        "nonrec_request_duration_micros_count{{verb=\"{verb}\"}} {}\n",
        histogram.count()
    ));
}

/// The Prometheus-style text exposition — the `metrics_text` verb's
/// payload.  Engine counters, cache occupancy, and the per-verb latency
/// histograms (verbs that have never completed a request are omitted to
/// keep the scrape compact; their series would be all zero).
pub fn metrics_text(stats: &ServerStats, cache: &DecisionCache) -> String {
    let mut out = String::new();
    for (counter, value) in metrics::global::snapshot().values() {
        if let Some((name, help)) = counter.exposition {
            family(&mut out, name, help, "counter", value);
        }
    }
    family(
        &mut out,
        "nonrec_decision_cache_entries",
        "Entries currently held by the shared decision cache.",
        "gauge",
        cache.sizes().total() as u64,
    );
    let histograms: Vec<_> = stats
        .verb_histograms()
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
        .collect();
    if !histograms.is_empty() {
        out.push_str(
            "# HELP nonrec_request_duration_micros Request service latency by verb, in microseconds.\n\
             # TYPE nonrec_request_duration_micros histogram\n",
        );
        for (verb, histogram) in &histograms {
            histogram_series(&mut out, verb, histogram);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_exposes_every_layer() {
        let snap = metrics::global::snapshot();
        let rendered = metrics_json(&snap);
        for (counter, value) in snap.values() {
            let section = rendered.get(counter.block);
            // Exactly the counters `metrics_text` exposes live in `metrics`.
            assert_eq!(
                section.is_some(),
                counter.exposition.is_some(),
                "{counter:?}"
            );
            if let Some(section) = section {
                assert_eq!(section.get(counter.key).unwrap().as_u64(), Some(value));
            }
        }
    }

    #[test]
    fn event_json_renders_every_field_type() {
        let event = Event::new(
            "pop",
            vec![
                ("size", FieldValue::Num(3)),
                ("pred", FieldValue::Text("p".into())),
                ("admitted", FieldValue::Flag(true)),
            ],
        );
        let rendered = event_json(&event);
        assert_eq!(rendered.get("kind").unwrap().as_str(), Some("pop"));
        assert_eq!(rendered.get("size").unwrap().as_u64(), Some(3));
        assert_eq!(rendered.get("pred").unwrap().as_str(), Some("p"));
        assert_eq!(rendered.get("admitted").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn text_exposition_is_well_formed() {
        let stats = ServerStats::new();
        stats.record_completion("containment", 7, true);
        stats.record_completion("containment", 4000, true);
        let cache = DecisionCache::new();
        let text = metrics_text(&stats, &cache);
        // Every non-comment sample line is `name{labels} value` or
        // `name value`, every family has HELP and TYPE, and the histogram
        // bucket counts are cumulative and end at +Inf == _count.
        let mut cumulative_ok = true;
        let mut last = 0u64;
        let mut inf = None;
        let mut count = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap();
                assert!(
                    text.contains(&format!("# HELP {name} ")),
                    "missing HELP for {name}"
                );
                assert!(matches!(
                    parts.next(),
                    Some("counter" | "gauge" | "histogram")
                ));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample lines split on space");
            assert!(!series.is_empty());
            let value: u64 = value.parse().expect("sample values are integers");
            if series.starts_with("nonrec_request_duration_micros_bucket{verb=\"containment\"") {
                cumulative_ok &= value >= last;
                last = value;
                if series.contains("+Inf") {
                    inf = Some(value);
                }
            }
            if series == "nonrec_request_duration_micros_count{verb=\"containment\"}" {
                count = Some(value);
            }
        }
        assert!(cumulative_ok, "bucket counts must be cumulative");
        assert_eq!(inf, Some(2), "+Inf bucket holds every observation");
        assert_eq!(count, inf, "_count equals the +Inf bucket");
        assert!(text.contains("nonrec_request_duration_micros_sum{verb=\"containment\"} 4007\n"));
        // Verbs with no completions are omitted entirely.
        assert!(!text.contains("verb=\"optimize\""));
    }
}
