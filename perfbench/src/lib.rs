//! The repository benchmark: end-to-end metrics of the `nonrec-serve`
//! decision service under four workloads, and per-layer metrics from a
//! traced in-process pass.  See `perfbench/README.md`.

pub mod check;
pub mod net;
pub mod runs;
pub mod stats;
pub mod stream;
pub mod trace;
