#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh                      every workload: end-to-end + layer ledger,
#                                         oracle-checked, benchmark/out/results.json
#   benchmark/run.sh trace                the traced (per-layer) runs only
#   benchmark/run.sh check-repeat         two sets back to back, compared to the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last stdout line is the result
#
# Builds the benchmark package (offline, release, cargo's default profile —
# the same settings the repo root builds with) and runs it. Exits non-zero,
# without a result line, when the build fails or an oracle disagrees.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))

# cargo resolves a relative CARGO_TARGET_DIR against the directory it was
# started from, which is also where we are now.
target="${CARGO_TARGET_DIR:-$here/target}"
XMAP_BENCH_BUILD_S=$(printf '%d.%03d' $((build_ms / 1000)) $((build_ms % 1000)))
export XMAP_BENCH_BUILD_S
exec "$target/release/xmap-benchmark" "$@"
