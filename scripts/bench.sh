#!/usr/bin/env bash
# Perf-trajectory benchmark: builds the release CLI and runs the fixed
# `parapage bench` recipe. The report is written only with `--out FILE`
# (the tracked record is `--out BENCH_5.json` on a full run).
#
# Usage: scripts/bench.sh [--quick] [--threads N] [--seed N] [--out FILE]
#                         [--baseline BENCH_n.json]
# (flags pass through to `parapage bench`).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p parapage-cli
exec cargo run --release -q -p parapage-cli -- bench "$@"
