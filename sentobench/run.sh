#!/usr/bin/env bash
# Builds the benchmark and the daemon under test (`cargo run` would build
# only one of the two binaries), then runs the benchmark with the
# arguments given. Run from the repository root:
#
#   bash sentobench/run.sh --workload remine-osc --seed 7 --seconds 20 --trace 0
set -euo pipefail
cargo build --release --quiet --offline --manifest-path sentobench/Cargo.toml
exec "${CARGO_TARGET_DIR:-sentobench/target}/release/sentobench" "$@"
