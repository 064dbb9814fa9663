#!/usr/bin/env bash
# Build regmutex-cli and the benchmark from source, then run the benchmark
# with the given arguments. Run from anywhere inside the repository:
#
#   bash benchmark/bench.sh --workload fuzz --seed 1 --seconds 10 --trace 0
#   bash benchmark/bench.sh run --seed 1 --sets 2 --out results.json
#
# Both builds share $CARGO_TARGET_DIR (default: the repository's target/),
# where the benchmark also finds the regmutex-cli daemon it drives.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p regmutex-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/regmutex-benchmark" "$@"
