#!/usr/bin/env bash
# The benchmark's one command. Builds e2e-bench (offline, release) and runs it
# from the repository root with the arguments given:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--workload W] [--passes K] [--traced]  the suite
#   benchmark/run.sh compare A.json B.json
#
# Exits non-zero when the build fails or a correctness check does.
set -euo pipefail
cd "$(dirname "$0")/.."
# A relative CARGO_TARGET_DIR is relative to the root, not to the package.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
# Built from inside the package so that cargo reads its .cargo/config.toml,
# which puts the output under the root's target/benchmark.
(cd benchmark && cargo build --offline --release --quiet)
exec "${CARGO_TARGET_DIR:-target/benchmark}/release/e2e-bench" "$@"
