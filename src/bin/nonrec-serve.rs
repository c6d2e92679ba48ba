//! `nonrec-serve` — the decision procedures as a long-running server.
//!
//! Accepts line-delimited JSON requests (`containment`, `equivalence`,
//! `bounded`, `optimize`, `minimize`, `rewrite`, `batch`, `stats`, and the
//! admin verbs `clear_cache`, `cache_limits`, `save_cache`, `load_cache`)
//! over TCP or stdio and answers them through one process-wide decision
//! cache.  See docs/WIRE_PROTOCOL.md for the full wire protocol.
//!
//! ```text
//! USAGE:
//!     nonrec-serve [--addr HOST:PORT | --stdio] [OPTIONS]
//!
//! OPTIONS:
//!     --addr <HOST:PORT>    TCP listen address (default 127.0.0.1:7474;
//!                           port 0 picks a free port, printed on stdout)
//!     --stdio               serve stdin→stdout instead of TCP
//!     --workers <N>         worker threads (default 4)
//!     --queue <N>           queue slots before `busy` rejection (default 64)
//!     --deadline-ms <N>     default per-request deadline (default 30000;
//!                           0 disables)
//!     --max-conns <N>       simultaneous connection limit (default 0 =
//!                           unlimited; one over the limit is answered
//!                           `connection_limit_exceeded` and closed)
//!     --cache-max-decisions <N>
//!     --cache-max-cq-pairs <N>
//!     --cache-max-canonical <N>
//!                           per-segment decision-cache caps (default
//!                           1024 each; 0 = unbounded); a store past
//!                           the cap evicts the least recently used entry
//!     --cache-file <PATH>   snapshot path: warm-start from it when it
//!                           exists, and the default for the `save_cache`
//!                           / `load_cache` admin verbs
//!     --record <PATH>       append every request line to a versioned
//!                           capture file (see docs/WIRE_PROTOCOL.md) for
//!                           later `nonrec-replay`
//!
//! EXIT CODES:
//!     0  clean shutdown (stdio mode reached EOF)
//!     2  usage or I/O error
//! ```

use std::process::ExitCode;
use std::time::Duration;

use nonrec_equivalence::cache::CacheLimits;
use server::{serve_stdio, PoolConfig, Server, ServerConfig};

/// Entries per decision-cache segment unless a `--cache-max-*` flag says
/// otherwise, so unbounded distinct traffic cannot grow the cache without
/// limit.
const DEFAULT_CACHE_CAP: usize = 1024;

struct Args {
    addr: String,
    stdio: bool,
    config: ServerConfig,
}

fn usage() -> &'static str {
    "usage: nonrec-serve [--addr HOST:PORT | --stdio] [--workers <N>] \
     [--queue <N>] [--deadline-ms <N>] [--max-conns <N>] \
     [--cache-max-decisions <N>] [--cache-max-cq-pairs <N>] \
     [--cache-max-canonical <N>] [--cache-file <PATH>] [--record <PATH>]"
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut addr = "127.0.0.1:7474".to_string();
    let mut stdio = false;
    let mut pool = PoolConfig::default();
    let mut deadline_ms: u64 = 30_000;
    let mut max_conns: u64 = 0;
    let mut cache_limits = CacheLimits::uniform(DEFAULT_CACHE_CAP);
    let mut cache_file = None;
    let mut record_file: Option<std::path::PathBuf> = None;
    fn number(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
        let text = argv.next().ok_or(format!("{flag} needs a number"))?;
        text.parse().map_err(|_| format!("invalid {flag}: {text}"))
    }
    // A `--cache-max-*` of 0 means unbounded, matching `--deadline-ms 0`
    // and `--max-conns 0` (the wire `cache_limits` verb instead says
    // "absent = unbounded" and reserves 0 for "cache nothing").
    fn cap(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<Option<usize>, String> {
        Ok(match number(argv, flag)? {
            0 => None,
            n => Some(n as usize),
        })
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => addr = argv.next().ok_or("--addr needs HOST:PORT")?,
            "--stdio" => stdio = true,
            "--workers" => pool.workers = number(&mut argv, "--workers")?.max(1) as usize,
            "--queue" => pool.queue_capacity = number(&mut argv, "--queue")?.max(1) as usize,
            "--deadline-ms" => deadline_ms = number(&mut argv, "--deadline-ms")?,
            "--max-conns" => max_conns = number(&mut argv, "--max-conns")?,
            "--cache-max-decisions" => {
                cache_limits.max_decisions = cap(&mut argv, "--cache-max-decisions")?;
            }
            "--cache-max-cq-pairs" => {
                cache_limits.max_cq_pairs = cap(&mut argv, "--cache-max-cq-pairs")?;
            }
            "--cache-max-canonical" => {
                cache_limits.max_cq_in_program = cap(&mut argv, "--cache-max-canonical")?;
            }
            "--cache-file" => {
                cache_file = Some(std::path::PathBuf::from(
                    argv.next().ok_or("--cache-file needs a PATH")?,
                ));
            }
            "--record" => {
                record_file = Some(std::path::PathBuf::from(
                    argv.next().ok_or("--record needs a PATH")?,
                ));
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let record = match record_file {
        Some(path) => Some(std::sync::Arc::new(
            server::replay::Recorder::create(&path)
                .map_err(|e| format!("cannot create capture file {}: {e}", path.display()))?,
        )),
        None => None,
    };
    Ok(Some(Args {
        addr,
        stdio,
        config: ServerConfig {
            pool,
            default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            max_connections: (max_conns > 0).then_some(max_conns as usize),
            cache_limits: Some(cache_limits),
            cache_file,
            record,
        },
    }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if args.stdio {
        serve_stdio(args.config)
    } else {
        match Server::bind(&args.addr, args.config) {
            Ok(server) => {
                match server.local_addr() {
                    Ok(addr) => {
                        // The one line tools scrape for the bound port; keep
                        // the format stable.
                        println!("listening on {addr}");
                    }
                    Err(e) => eprintln!("warning: cannot report local addr: {e}"),
                }
                use std::io::Write;
                let _ = std::io::stdout().flush();
                server.run()
            }
            Err(e) => Err(e),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
