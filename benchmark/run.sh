#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package in release
# mode (a cargo package of its own; the root workspace is untouched),
# then hands every argument to the binary:
#
#   benchmark/run.sh [--seed N] [--out DIR] [--seconds S]   all workloads, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --check
#   benchmark/run.sh golden
#
# See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# An explicit CARGO_TARGET_DIR is honoured (relative to the repo root,
# where we now stand); otherwise build products stay inside benchmark/.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

export RBCAST_BENCH_DIR="benchmark"
RBCAST_BENCH_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
export RBCAST_BENCH_CLK_TCK
exec "$target/release/rbcast-benchmark" "$@"
