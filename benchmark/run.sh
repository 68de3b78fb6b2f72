#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the repository root:
#   bash benchmark/run.sh                       every workload, measured and traced
#   bash benchmark/run.sh --workload kv_clean --seed 3 --seconds 10 --trace 0
#   bash benchmark/run.sh --smoke | --compare A.json B.json
# See benchmark/README.md.
set -euo pipefail
here="$(dirname "$0")"
# Share the repository's target/ unless the caller chose another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/lfs-benchmark" "$@"
