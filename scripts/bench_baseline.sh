#!/usr/bin/env sh
# Record the neural kernel baseline that scripts/verify.sh gates against.
#
# Runs the gemm bench (schema v2: scalar and AVX2 GEMM sweep, quantized vs
# f64 forward at serving batch sizes, the DQN training step) at full
# measurement budgets and writes the medians/minima to BENCH_neural.json
# at the repo root. Re-run (and commit the result) whenever the kernels in
# crates/neural/src/{gemm,simd,quant}.rs change deliberately; verify.sh
# fails if a kernel's min gets more than 2x slower than what is recorded
# here, or when a fresh-computed gate (quant >=3x at batches 16-64,
# argmax agreement >=0.95) fails.
#
# Usage: scripts/bench_baseline.sh

set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (bench deps)"
cargo build --release --offline -p jarvis-bench

echo "==> recording GEMM baseline to BENCH_neural.json"
cargo bench --offline -p jarvis-bench --bench gemm -- --json "$PWD/BENCH_neural.json"

echo "OK: baseline written to BENCH_neural.json — commit it with the kernel change"
