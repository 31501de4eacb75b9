#!/usr/bin/env bash
# Builds the benchmark binary an invocation needs and runs it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what the gate calls)
#   run.sh run --all [--seed N] [--reps R] [--smoke] [--layers] [--out FILE] [--layers-out FILE]
#   run.sh compare <A.json> <B.json>
#
# `--trace 1` is the layer pass, a binary of its own (veil-benchmark-layers),
# so that a change to a module's signature can break it without breaking the
# end-to-end binary. Works from any directory; build output goes to
# $CARGO_TARGET_DIR, or target/veil-benchmark at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../../target/veil-benchmark}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

bins=(--bin veil-benchmark)
exe=veil-benchmark
if [[ "${1:-}" == "run" ]]; then
  bins=(--bins)
else
  prev=""
  for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
      bins=(--bin veil-benchmark-layers)
      exe=veil-benchmark-layers
    fi
    prev="$arg"
  done
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "${bins[@]}" >&2
exec "$target/release/$exe" "$@"
