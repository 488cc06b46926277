#!/usr/bin/env sh
# Tier-1 verification, fully offline.
#
# The workspace has zero external dependencies (see tests/hermeticity.rs),
# so --offline must always succeed: if this script fails at dependency
# resolution, an external crate leaked into a manifest.
#
# Usage: scripts/verify.sh [--quick|--bench]
#   --quick   fast pre-commit gate: lint (quick walk) + build + test + the
#             serving-runtime throughput/tail-latency smoke.
#   --bench   additionally smoke-run every bench target via the in-tree
#             harness (quick budgets).

set -eu
cd "$(dirname "$0")/.."

# The lint walk is budget-gated (<0.5 s, exit 3 on overrun), so it always
# runs from the release binary: a debug walk pays ~4x on the token-tree
# pass and would trip the budget on machine noise alone.
build_lint() {
    cargo build -q --release --offline -p jarvis-lint
}

if [ "${1:-}" = "--quick" ]; then
    echo "==> jarvis-lint --quick (R1-R10 over crates/, 500ms budget)"
    build_lint
    ./target/release/jarvis-lint --quick --budget-ms 500

    echo "==> cargo build --release --offline"
    cargo build --release --offline --workspace

    echo "==> cargo test --offline"
    cargo test -q --offline --workspace

    # Kernel smoke: the neural crate's unit + integration tests (SIMD
    # conformance battery, quantization, gradcheck) in one pass.
    echo "==> neural kernel smoke (cargo test -p jarvis-neural)"
    cargo test -q --offline -p jarvis-neural

    # SIMD/quantization gates, recomputed fresh each run: quantized
    # forward >=3x over the scalar-tier f64 forward at batches 16-64 and
    # argmax agreement >=0.95 — plus <=2x regression vs BENCH_neural.json.
    # The speedup gate is a perf target calibrated on the AVX2 baseline
    # box; below AVX2 the bench demotes it to a warning so a correct build
    # on weaker hardware still verifies (agreement and the
    # bitwise-conformance tests above remain unconditional).
    echo "==> cargo bench --bench gemm -- --quick --check BENCH_neural.json"
    cargo bench --offline -p jarvis-bench --bench gemm -- --quick --check "$PWD/BENCH_neural.json"

    # Continual-learning smoke: online serving bitwise across shard
    # counts/modes, fold hysteresis, shadow-eval and promotion-gate
    # determinism, pool-size-invariant fine-tuning, rollback.
    echo "==> continual-learning smoke (cargo test -p jarvis-runtime --test online)"
    cargo test -q --offline -p jarvis-runtime --test online

    # Serving-runtime gates against the recorded BENCH_runtime.json:
    # >2x throughput regression of the gated batched path, shard-4 p99
    # above p99_ratio_gate times shard-1 p99 (latency is stamped at a
    # query's first touch; shards run as pool tasks, with no ingest ring
    # or batch stealing), the one-panic-per-499
    # chaos run not bitwise identical to the uninterrupted oracle
    # (recovery-determinism smoke) — sequential, at 4 threaded shards on
    # the worker pool, and with online learning and two swaps —
    # degraded-mode throughput below
    # degraded_ratio_gate times healthy, the hot-swap stall above one
    # batch window, or the drift-adaptation gate (continual false alarms
    # above frozen, or detection below 1.0).
    echo "==> serving-runtime + recovery smoke (throughput --quick --check BENCH_runtime.json)"
    cargo run -q --release --offline -p jarvis-bench --bin throughput -- --quick --check "$PWD/BENCH_runtime.json"

    echo "OK (quick): lint clean, workspace builds, tests, kernel and latency gates pass offline"
    exit 0
fi

# Static analysis first, one lex-and-parse pass per file: the determinism,
# wall-clock, panic-policy, float, and hermeticity rules plus the
# concurrency audit (unsafe, atomic orderings, lock discipline, result
# discards) over every workspace crate (crates/lint, DESIGN.md §12/§17).
echo "==> jarvis-lint (R1-R10 over the whole workspace, 500ms budget)"
build_lint
./target/release/jarvis-lint --budget-ms 500

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --offline"
cargo test -q --offline --workspace

# GEMM kernel verification: gradient checks, bit-identity vs the naive
# reference at every SIMD tier, and a quick bench smoke that fails if a
# blocked kernel regressed >2x against the recorded BENCH_neural.json.
echo "==> gradient checks (crates/neural/tests/gradcheck.rs)"
cargo test -q --offline -p jarvis-neural --test gradcheck

echo "==> kernel-equivalence properties (crates/neural/tests/properties.rs)"
cargo test -q --offline -p jarvis-neural --test properties

echo "==> cargo bench --bench gemm -- --quick --check BENCH_neural.json"
cargo bench --offline -p jarvis-bench --bench gemm -- --quick --check "$PWD/BENCH_neural.json"

# Self-healing battery: supervised shards, WAL crash recovery, quarantine
# and degraded serving (crates/runtime/tests/supervision.rs).
echo "==> supervision battery (cargo test -p jarvis-runtime --test supervision)"
cargo test -q --offline -p jarvis-runtime --test supervision

# Continual-learning battery: online serving determinism, fold hysteresis,
# shadow evaluation and promotion gates, fine-tuning pool invariance, and
# byte-for-byte rollback (crates/runtime/tests/online.rs).
echo "==> continual-learning battery (cargo test -p jarvis-runtime --test online)"
cargo test -q --offline -p jarvis-runtime --test online

# Serving-runtime smoke: the gated 64-home batched-inference pair, the
# threaded shard-1/shard-4 tail-latency pair (first touch → decision; each
# shard is one worker-pool task), the one-panic recovery runs
# (bitwise recovery-determinism gates: sequential, 4 threaded shards, and
# online with two swaps), and degraded-mode throughput, checked against
# the recorded BENCH_runtime.json.
echo "==> serving-runtime + recovery smoke (throughput --quick --check BENCH_runtime.json)"
cargo run -q --release --offline -p jarvis-bench --bin throughput -- --quick --check "$PWD/BENCH_runtime.json"

# Fault-matrix smoke: one seed, two drop rates, through the full
# inject → ingest → learn → detect path (crates/bench robustness harness).
echo "==> fault-matrix smoke (robustness --quick)"
cargo run -q --release --offline -p jarvis-bench --bin robustness -- --quick

if [ "${1:-}" = "--bench" ]; then
    for b in fsm neural spl dqn sim miniaction; do
        echo "==> cargo bench --bench $b -- --quick"
        cargo bench --offline -p jarvis-bench --bench "$b" -- --quick
    done
fi

echo "OK: workspace builds and tests entirely offline"
