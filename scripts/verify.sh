#!/usr/bin/env bash
# Tier-1 verification: delegates to the staged CI pipeline so the hand-run
# gate and `.github/workflows/ci.yml` can never drift.  See scripts/ci.sh
# for the stages (fmt, build, perfbench self-tests, test, soak, clippy, doc,
# example smoke, bench-snapshot diff gates) and the NONREC_CI_REFRESH / BENCH_DIFF_TOL knobs.
#
# Usage: scripts/verify.sh [stage ...]
set -euo pipefail
exec "$(dirname "$0")/ci.sh" "$@"
