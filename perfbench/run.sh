#!/usr/bin/env bash
# Build the served binaries and the benchmark binary from source, then run
# the benchmark binary with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root.  Build outputs go to $CARGO_TARGET_DIR
# (default `target`); the traced pass writes its spans under it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline -q --bin nonrec-serve --bin nonrec-route
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

exec "$target/release/perfbench" --bin-dir "$target/release" \
  --out-dir "$target/perfbench" "$@"
