#!/usr/bin/env bash
# Builds the `anr` CLI and the benchmark in release mode, then runs the
# benchmark with the arguments given. Run it from anywhere, e.g.
#
#   bash crates/bench/src/bin/anr_benchmark/run.sh --workload march-paper --seed 0 --seconds 20 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, else the
# repository's `target/`), so the benchmark finds `anr` next to itself.
# Cargo's output goes to stderr; stdout carries only the benchmark's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p anr-cli --bin anr --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/anr_benchmark" "$@"
