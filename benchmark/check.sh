#!/usr/bin/env bash
# Lint and unit-test the benchmark package (the root ci.sh does not know it).
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
