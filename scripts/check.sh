#!/usr/bin/env bash
# Pre-PR gate and the whole of CI: formatting, lints, rustdoc with
# warnings denied (so a moved or deleted item cannot leave a dead doc
# link), the full test suite, the conformance oracle, every chaos matrix,
# the serve smokes, the bench smoke (which also enforces the ops floors),
# a quick run of every experiment binary, and the loopback benchmark's
# correctness smoke. Run from anywhere; works on the repo this script
# lives in. The bench smoke's JSON report lands in
# /tmp/parapage-bench-smoke.json.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q"
cargo test -q

echo "==> pool tests (vendored rayon shim)"
cargo test -q -p rayon

echo "==> parapage conform --quick"
cargo run -q -p parapage-cli --release -- conform --quick

echo "==> width-2 stress (PARAPAGE_THREADS=2)"
PARAPAGE_THREADS=2 cargo test -q -p parapage-conform --test concurrent_stress

echo "==> parapage chaos --quick (crash-recovery matrix)"
cargo run -q -p parapage-cli --release -- chaos --quick

echo "==> parapage chaos (full resume, snapshot and WAL matrices)"
cargo run -q -p parapage-cli --release -- chaos

echo "==> parapage bench --quick (smoke + determinism + ops-floor gate)"
cargo run -q -p parapage-cli --release -- bench --quick --out /tmp/parapage-bench-smoke.json

echo "==> experiment smoke (every exp_e* binary with --quick)"
for src in crates/bench/src/bin/exp_e*.rs; do
  exp=$(basename "$src" .rs)
  cargo run -q -p parapage-bench --release --bin "$exp" -- --quick >/dev/null \
    || { echo "experiment $exp failed"; exit 1; }
done

echo "==> parapage chaos --quick --net (network chaos matrix)"
cargo run -q -p parapage-cli --release -- chaos --quick --net

echo "==> parapage drive (serve smoke: in-process server, clean shutdown)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --expect-clean

echo "==> parapage drive --fault (recovery smoke: severed connections absorbed)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --fault cut-send --expect-clean

echo "==> parapage drive (serve smoke at 200000 requests, 4 tenants)"
cargo run -q -p parapage-cli --release -- drive --requests 200000 \
  --tenants 4 --batches 3 --expect-clean

echo "==> parapage drive --fault (recovery smoke at 100000 requests, 4 tenants)"
cargo run -q -p parapage-cli --release -- drive --requests 100000 \
  --tenants 4 --batches 3 --fault cut-send --expect-clean

echo "==> loopbench self-tests"
cargo test --release --offline --manifest-path loopbench/Cargo.toml

echo "==> loopbench correctness smoke (every reply checked, seed-42 reply chains pinned)"
python3 loopbench/run.py --workload all --seed 42 --seconds 7 --trace 0

echo "All checks passed."
