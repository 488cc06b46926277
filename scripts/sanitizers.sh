#!/usr/bin/env sh
# Opt-in dynamic-analysis pass for the hand-rolled concurrency primitives
# (crates/stdkit/src/sync.rs: the bounded MPSC channel and the lock-free
# StealQueue ring under the threaded work-stealing serving runtime;
# crates/stdkit/src/pool.rs: the persistent worker pool and its scoped
# fork/join handoff). The `sync` and `pool` test filters pick up the whole
# battery: FIFO/lap ordering, full/empty boundaries, drop-with-pending leak
# checks, the seeded router/worker, owner-vs-thieves, and MPMC interleaving
# stress tests, plus pool reuse, panic containment, nested-join progress,
# and ring-overflow fallback.
#
# The supervision battery (crates/runtime/tests/supervision.rs: catch_unwind
# shard boundaries, WAL restore/replay, threaded-vs-deterministic recovery
# parity, quarantine and degraded serving) rides along under both tools —
# panic recovery plus scoped threads is exactly the code TSan and Miri are
# best at breaking. Miri never reaches the SIMD intrinsics: under
# cfg(miri), SimdTier::detect() is Scalar (crates/neural/src/gemm.rs).
#
# So does the work-stealing battery (crates/runtime/tests/stealing.rs):
# threaded serving, supervised or not, runs on the StealQueue ingest rings
# and run queues, with idle workers stealing closed batches from siblings.
#
# The continual-learning battery (crates/runtime/tests/online.rs) rides
# along too: background fine-tuning runs per-home replay passes through the
# scoped worker pool, and the battery's pool-size-invariance tests are the
# sharpest probe of that fork/join path under both tools. Sizes scale down
# automatically under Miri (cfg(miri) in the test).
#
# Static analysis (jarvis-lint) covers determinism and panic policy, and
# since lint v2 also audits the concurrency core itself: R8 requires every
# non-default atomic ordering (Relaxed outside the pure-counter idiom,
# any SeqCst) to carry a written `// ordering:` justification. Those
# justifications are memory-model *claims*, and this script is what tests
# them: every annotated site must live in a module driven here under TSan
# and Miri, which check_ordering_coverage enforces below. Data races are
# out of static reach, so this script drives ThreadSanitizer and Miri
# at the stdkit sync/channel tests. Both require a NIGHTLY toolchain with
# the matching components (rust-src for -Zbuild-std, miri). The script is
# NOT part of scripts/verify.sh — the pinned toolchain in the offline image
# is stable — and exits 0 with a notice when nightly is unavailable, so it
# is always safe to invoke.
#
# Usage: scripts/sanitizers.sh [tsan|miri|all]   (default: all)

set -eu
cd "$(dirname "$0")/.."

mode="${1:-all}"
target="$(rustc -vV | awk '/^host:/ { print $2 }')"

# Every R8 `// ordering:` annotation admits a non-default atomic ordering on
# the strength of a prose argument. Keep those arguments honest: the file
# holding one must be in the set this script actually exercises under
# TSan/Miri (stdkit sync + pool test filters, runtime via the supervision,
# stealing and online test targets). A new annotation in an undriven module means
# either extend the batteries here or move the atomic behind a driven API.
check_ordering_coverage() {
    uncovered=0
    for f in $(grep -rl -- '// ordering:' crates/*/src 2>/dev/null || true); do
        case "$f" in
            crates/stdkit/src/sync.rs | crates/stdkit/src/pool.rs) ;;
            crates/runtime/src/*) ;;
            # The analyzer necessarily spells its own tag in rule docs and
            # violation messages; the lint engine itself is single-threaded
            # and holds no atomics to annotate.
            crates/lint/src/*) ;;
            *)
                echo "sanitizers: $f has '// ordering:' sites but no TSan/Miri battery drives it" >&2
                uncovered=1
                ;;
        esac
    done
    if [ "$uncovered" -ne 0 ]; then
        echo "sanitizers: R8 ordering-annotation coverage check FAILED" >&2
        exit 1
    fi
    echo "sanitizers: R8 ordering-annotation sites are all in TSan/Miri-driven modules"
}

check_ordering_coverage

have_nightly() {
    rustup toolchain list 2>/dev/null | grep -q nightly
}

if ! command -v rustup >/dev/null 2>&1 || ! have_nightly; then
    echo "sanitizers: no nightly toolchain available; skipping (static lint still covers determinism)"
    exit 0
fi

have_component() {
    rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "^$1.*(installed)"
}

run_tsan() {
    if ! have_component rust-src; then
        echo "sanitizers: nightly rust-src not installed (needed for -Zbuild-std); skipping TSan"
        return 0
    fi
    echo "==> ThreadSanitizer: jarvis-stdkit sync + pool tests (channel, StealQueue, WorkerPool)"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test --offline -p jarvis-stdkit sync pool \
        -Zbuild-std --target "$target"
    echo "==> ThreadSanitizer: jarvis-runtime supervision battery (supervisor, WAL, chaos recovery)"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test --offline -p jarvis-runtime --test supervision \
        -Zbuild-std --target "$target"
    echo "==> ThreadSanitizer: jarvis-runtime work-stealing battery (rings, run queues, steals)"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test --offline -p jarvis-runtime --test stealing \
        -Zbuild-std --target "$target"
    echo "==> ThreadSanitizer: jarvis-runtime continual-learning battery (fine-tune pool, swaps)"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test --offline -p jarvis-runtime --test online \
        -Zbuild-std --target "$target"
}

run_miri() {
    if ! have_component miri; then
        echo "sanitizers: nightly miri not installed; skipping Miri"
        return 0
    fi
    echo "==> Miri: jarvis-stdkit sync + pool tests (channel, StealQueue, WorkerPool)"
    cargo +nightly miri test --offline -p jarvis-stdkit sync pool
    echo "==> Miri: jarvis-runtime supervision battery (supervisor, WAL, chaos recovery)"
    cargo +nightly miri test --offline -p jarvis-runtime --test supervision
    echo "==> Miri: jarvis-runtime work-stealing battery (rings, run queues, steals)"
    cargo +nightly miri test --offline -p jarvis-runtime --test stealing
    echo "==> Miri: jarvis-runtime continual-learning battery (fine-tune pool, swaps)"
    cargo +nightly miri test --offline -p jarvis-runtime --test online
}

case "$mode" in
    tsan) run_tsan ;;
    miri) run_miri ;;
    all)  run_tsan; run_miri ;;
    *)
        echo "usage: scripts/sanitizers.sh [tsan|miri|all]" >&2
        exit 2
        ;;
esac

echo "sanitizers: OK"
