//! `perfbench` — run one workload of the repository benchmark and print its
//! metrics.
//!
//! ```text
//! perfbench --workload <cold_mix|warm_zipf|warm_routed>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --bin-dir <dir with nonrec-serve, nonrec-route> [--out-dir <dir>]
//! perfbench --pass-only --seed <n>
//! ```
//!
//! `--trace 0` measures the named workload over the wire and prints its
//! end-to-end metrics.  `--trace 1` runs the trace suite (the traced
//! in-process pass plus short untraced probes of every workload) and prints
//! the per-layer metrics; its output does not depend on `--workload`.
//! `--pass-only` runs just the traced pass, with no servers.  The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.  Progress and diagnostics go to standard error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::net::{self, Bins};
use perfbench::runs::{self, Budget, Outcome};
use perfbench::stats::{median, quantile};
use perfbench::stream;
use perfbench::trace::{self, TracedPass};

/// The workloads of `BENCHMARK.json`.  `mixed_open` is a probe of the trace
/// suite only (see `perfbench/README.md`).
const WORKLOADS: [&str; 3] = ["cold_mix", "warm_zipf", "warm_routed"];

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Cold requests in the traced pass: ten of each family.
const TRACE_COLD: usize = 70;
/// Warm lines in the traced pass: four cycles of the base stream, so the
/// line memo fills and then evicts.
const TRACE_WARM: usize = 16_384;
/// Cold requests of the trace suite's `cold_mix` probe: ten per family.
const PROBE_COLD: usize = 70;
/// Longest `mixed_open` probe of the trace suite: long enough for its
/// distinct requests to overflow the memo, so the cache figures include
/// evictions.
const MIXED_PROBE_SECONDS: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pass_only: bool,
    bin_dir: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pass_only: false,
        bin_dir: None,
        out_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--pass-only" => args.pass_only = true,
            "--bin-dir" => args.bin_dir = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.pass_only && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if !args.pass_only && args.bin_dir.is_none() {
        return Err("--bin-dir is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A run's result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; a value that could not be measured is reported as -1.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "-1".to_string()
    }
}

fn describe(name: &str, out: &Outcome) {
    eprintln!(
        "[{name}] attempted={} ok={} errors={} wrong={} window={:.3}s samples={} setup={:.4}s rss={:.1}MB",
        out.attempted,
        out.ok,
        out.errors,
        out.wrong,
        out.window_s,
        out.latencies_ms.len(),
        out.setup_s,
        out.rss_mb
    );
    eprintln!("[{name}] guard: {}", out.guard.describe());
    for failure in &out.guard.failures {
        eprintln!("[{name}] GUARD FAILED: {failure}");
    }
    for problem in &out.problems {
        eprintln!("[{name}] problem: {problem}");
    }
}

fn run_workload(
    bins: &Bins,
    workload: &str,
    seed: u64,
    budget: Budget,
) -> std::io::Result<Outcome> {
    match workload {
        "cold_mix" => runs::cold_mix(bins, seed, budget, SETUPS),
        "warm_zipf" => runs::warm(bins, seed, budget, SETUPS, false, runs::WARM_WINDOW),
        "warm_routed" => runs::warm(bins, seed, budget, SETUPS, true, runs::WARM_WINDOW),
        other => unreachable!("workload {other} was validated"),
    }
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn measure(args: &Args, bins: &Bins) -> std::io::Result<Report> {
    let budget = Budget {
        seconds: args.seconds,
        max_requests: None,
    };
    let out = run_workload(bins, &args.workload, args.seed, budget)?;
    describe(&args.workload, &out);
    eprintln!(
        "[{}] whole window: throughput={:.3}/s p50={:.4}ms p90={:.4}ms p99={:.4}ms",
        args.workload,
        out.ok as f64 / out.window_s,
        quantile(&out.latencies_ms, 0.50),
        quantile(&out.latencies_ms, 0.90),
        quantile(&out.latencies_ms, 0.99)
    );
    let windowed = Windowed::of(&out);
    Ok(Report {
        correct: out.wrong == 0 && out.guard.failures.is_empty() && out.errors == 0,
        attempted: out.attempted,
        failed: out.errors + out.wrong,
        metrics: vec![
            ("throughput_rps", windowed.throughput, "1/s"),
            ("latency_p50_ms", windowed.p50, "ms"),
            ("latency_p99_ms", windowed.p99, "ms"),
            ("server_peak_rss_mb", out.rss_mb, "MB"),
            ("setup_s", out.setup_s, "s"),
        ],
    })
}

/// End-to-end figures as medians over equal sub-windows of the run, so a
/// burst of noise from outside the system moves one sub-window, not the
/// figure.  Each sub-window holds at least 1000 responses, so its p99 has
/// ten samples beyond it; a run with fewer is one window.
struct Windowed {
    throughput: f64,
    p50: f64,
    p99: f64,
}

impl Windowed {
    /// At most this many sub-windows.
    const MAX: usize = 10;

    fn of(out: &Outcome) -> Windowed {
        let k = (out.latencies_ms.len() / 1000).clamp(1, Self::MAX);
        let width = out.window_s / k as f64;
        let mut windows = vec![Vec::new(); k];
        for (&done, &ms) in out.done_s.iter().zip(&out.latencies_ms) {
            windows[((done / width) as usize).min(k - 1)].push(ms);
        }
        let across =
            |f: &dyn Fn(&Vec<f64>) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        Windowed {
            throughput: across(&|w| w.len() as f64 / width),
            p50: across(&|w| quantile(w, 0.50)),
            p99: across(&|w| quantile(w, 0.99)),
        }
    }
}

/// The warm lines of the traced pass.
fn warm_lines(seed: u64, count: usize) -> Vec<String> {
    let warm = runs::WarmStream::new(seed);
    (0..count as u64).map(|seq| warm.line(seq)).collect()
}

fn traced_pass(args: &Args) -> TracedPass {
    let cold = stream::cold_mix(args.seed, TRACE_COLD);
    let pass = trace::run(&cold, &warm_lines(args.seed, TRACE_WARM));
    for gate in pass.phase_sums() {
        let verdict = if gate.gap() <= 0.10 {
            "ok"
        } else {
            "MISSES the 10% gate"
        };
        eprintln!(
            "[trace] phase sum {}: parts={:.0}us decide={:.0}us median parts/decide={:.3} {verdict}",
            gate.family.name(),
            gate.parts_us,
            gate.decide_us,
            gate.ratio
        );
    }
    eprintln!(
        "[trace] {} spans, {} counts, {} DecisionCache hits on cold lines",
        pass.tracer.spans.len(),
        pass.tracer.counts.len(),
        pass.cold_cache_hits
    );
    for problem in &pass.problems {
        eprintln!("[trace] problem: {problem}");
    }
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!("spans-{}.jsonl", args.seed));
        match pass.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("[trace] spans written to {}", path.display()),
            Err(e) => eprintln!("[trace] cannot write {}: {e}", path.display()),
        }
    }
    pass
}

/// The pass is correct only if it hit no cache, met no problem, and every
/// family's rebuilt parts sum to within 10% of the reference decision.
fn pass_ok(pass: &TracedPass) -> bool {
    pass.cold_cache_hits == 0
        && pass.problems.is_empty()
        && pass.phase_sums().iter().all(|g| g.gap() <= 0.10)
}

/// `--pass-only`: the traced pass alone.
fn pass_only(args: &Args) -> Report {
    let pass = traced_pass(args);
    Report {
        correct: pass_ok(&pass),
        attempted: (pass.cold.len() + pass.warm.len()) as u64,
        failed: pass.problems.len() as u64,
        metrics: pass.layer_metrics(),
    }
}

/// `--trace 1`: the trace suite.
fn trace_suite(args: &Args, bins: &Bins) -> std::io::Result<Report> {
    let pass = traced_pass(args);
    let mut metrics = pass.layer_metrics();
    let mut correct = pass_ok(&pass);
    let mut attempted = (pass.cold.len() + pass.warm.len()) as u64;
    let mut failed = pass.problems.len() as u64;
    let mut tally = |name: &str, out: &Outcome, errors_allowed: bool| {
        describe(name, out);
        correct &=
            out.wrong == 0 && out.guard.failures.is_empty() && (errors_allowed || out.errors == 0);
        attempted += out.attempted;
        failed += out.errors + out.wrong;
    };

    // The cold families over the wire.
    let cold = runs::cold_mix(
        bins,
        args.seed,
        Budget {
            seconds: 120.0,
            max_requests: Some(PROBE_COLD),
        },
        1,
    )?;
    tally("probe cold_mix", &cold, false);
    metrics.push(("server.wait_us", median(&cold.wait_us), "us"));
    for group in ["linear", "nonlinear", "equivalence", "bounded"] {
        let name = match group {
            "linear" => "linear_p50_ms",
            "nonlinear" => "nonlinear_p50_ms",
            "equivalence" => "equivalence_p50_ms",
            _ => "bounded_p50_ms",
        };
        let samples = cold.group_ms.get(group).map_or(&[][..], Vec::as_slice);
        metrics.push((name, median(samples), "ms"));
    }

    // The caches under writes and evictions.
    let mixed = runs::mixed_open(
        bins,
        args.seed,
        Budget {
            seconds: args.seconds.min(MIXED_PROBE_SECONDS),
            max_requests: None,
        },
    )?;
    tally("probe mixed_open", &mixed, true);
    let sent = mixed.attempted.max(1) as f64;
    let lookups = (mixed.server.cache_hits + mixed.server.cache_misses).max(1) as f64;
    metrics.extend([
        (
            "core.cache.hit_ratio",
            mixed.server.cache_hits as f64 / lookups,
            "ratio",
        ),
        (
            "core.cache.entries",
            mixed.server.cache_entries as f64,
            "count",
        ),
        (
            "core.cache.evictions",
            mixed.server.cache_evictions as f64,
            "count",
        ),
        (
            "server.memo_hit_ratio",
            mixed.server.memo_hits as f64 / sent,
            "ratio",
        ),
        (
            "server.line_memo_eligible_ratio",
            mixed.guard.line_memo_share,
            "ratio",
        ),
        (
            "server.max_inflight",
            mixed.server.max_inflight as f64,
            "count",
        ),
        ("server.busy_rejected", mixed.server.busy as f64, "count"),
        ("loadgen.lag_p99_ms", quantile(&mixed.lag_ms, 0.99), "ms"),
    ]);

    // The router hop: the same warm stream, one request in flight per
    // connection, direct and routed.  (Under a deep window the two shards
    // behind the router add parallelism, which would hide the hop.)
    let warm_budget = Budget {
        seconds: (args.seconds / 3.0).min(3.0),
        max_requests: None,
    };
    let direct = runs::warm(bins, args.seed, warm_budget, 1, false, 1)?;
    tally("probe warm_zipf", &direct, false);
    let routed = runs::warm(bins, args.seed, warm_budget, 1, true, 1)?;
    tally("probe warm_routed", &routed, false);
    let total: u64 = routed.shard_forwarded.iter().sum();
    let largest = routed.shard_forwarded.iter().copied().max().unwrap_or(0);
    metrics.extend([
        (
            "router.hop_us",
            (median(&routed.latencies_ms) - median(&direct.latencies_ms)) * 1e3,
            "us",
        ),
        (
            "router.shard_split",
            largest as f64 / total.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Room for the measured window plus the set-ups (or, on the trace
    // suite, the traced pass and its probes).
    net::start_watchdog(Duration::from_secs_f64(args.seconds + 140.0));
    let report = if args.pass_only {
        Ok(pass_only(&args))
    } else {
        let bins = Bins::in_dir(args.bin_dir.as_deref().expect("checked by parse_args"));
        if args.trace {
            trace_suite(&args, &bins)
        } else {
            measure(&args, &bins)
        }
    };
    match report {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("  {name} = {value:.4} {unit}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            net::kill_all();
            ExitCode::from(1)
        }
    }
}
