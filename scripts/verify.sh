#!/usr/bin/env bash
# Standard pre-PR check: tier-1 verification plus smoke runs.
#
#   scripts/verify.sh [--quick]
#
# Tier-1 (from ROADMAP.md) is `cargo build --release && cargo test -q`.
# The kernel-identity step reruns the determinism suite in release mode:
# every benchmark's incremental scheduler kernel against the
# rescan-per-cycle reference kernel, and repeated runs (results and
# translation-cache counters) against each other. The experiments smoke
# runs `experiments fig5` twice at a tiny budget: the rerun must be
# served entirely from the result store and print the same tables. The
# fault-campaign smoke run injects every fault class once and fails on
# any host panic or unexpected outcome. Smoke reports go to throwaway
# paths so the committed BENCH_*.json files (full budgets) are not
# clobbered by smoke numbers.
#
# The fuzz smokes run two bounded differential campaigns (200 generated
# programs each, fixed seed) through the fast-vs-reference oracle and
# fail on any host panic or divergence: one clean, one with `--faults`
# armed on both kernels (every fault kind: L1 and LVC line poisoning,
# dropped and delayed port grants, corrupted forwards; grant handling
# and forwarding are where the two kernels' code differs most). The
# faulted one also fails when an armed kind injected nothing (its
# report's `faults_silent` list is not empty). The
# corpus-replay step reruns every minimized reproducer checked into
# tests/corpus/ through both kernels. All three run in normal AND
# --quick modes — they are the cheapest whole-machine bit-identity gates
# we have.
#
# `--quick` skips the fault-campaign smoke; everything else runs in both
# modes.
#
# The sampling smoke runs the interval-sampling driver end-to-end (the
# full-run CPI must land inside the sampled confidence interval), and
# the checkpoint round-trip test proves save/restore/resume is
# bit-identical to continuous simulation, fault injection included.
#
# The store-key step pins program and config fingerprints, result keys
# and a DSE request's cell labels and keys; the record-codec step (with
# the checkpoint pin in the round-trip step) pins the byte layout of
# every persisted record: results, DSE cell outcomes, checkpoints and
# cache-tag snapshots. Store keys, file names and record
# layouts are all format commitments: a renderer or encoder that drifts
# by one byte leaves every stored result and checkpoint unreachable, and
# since a miss is simply recomputed, no other gate would notice. A
# layout change takes a format version bump.
#
# The fmt gate keeps the tree `cargo fmt`-clean; the clippy gate bans
# `.unwrap()`/`.expect()` from the hot simulation crates' library code
# (tests are exempt via cfg(test)): every runtime failure
# there must surface as a typed error value. Two more clippy gates keep
# every crate free of warnings, tests and examples included: the bench
# crate with its binaries and the root package, then the simulation
# crates. The rustdoc gate keeps every doc comment's intra-doc links
# resolving, private items included.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: scripts/verify.sh [--quick]" >&2; exit 2 ;;
    esac
done

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

# The root `cargo test` runs only the `dda` package's tests; the crates'
# own unit tests and doc tests (pipeline, DSE engine, harness, ...) run
# here.
echo "== crate unit tests: cargo test -q --workspace"
cargo test -q --workspace

# The repository benchmark is a separate Cargo workspace that builds the
# crates from source; compiling and testing it here catches a removed or
# renamed public item it imports.
echo "== benchmark: cargo test --offline -q --manifest-path perfbench/Cargo.toml"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== fmt: cargo fmt --check"
cargo fmt --check

echo "== clippy: no unwrap/expect in simulation crates"
cargo clippy -q -p dda-core -p dda-vm -p dda-mem -p dda-program -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== clippy: no warnings in the bench crate, binaries and tests"
cargo clippy -q --all-targets -p dda-bench -p dda -- -D warnings

echo "== clippy: no warnings in the simulation crates, tests included"
cargo clippy -q --all-targets -p dda-core -p dda-vm -p dda-mem -p dda-program \
    -p dda-stats -p dda-isa -p dda-workloads -- -D warnings

echo "== rustdoc: no warnings, private items included"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --document-private-items

# Block-cache smoke: one loop-heavy and one call-heavy program replayed
# through the translation cache and cross-checked instruction-for-
# instruction against the interpretive front-end (final state included).
echo "== block-cache smoke (loop-heavy + call-heavy vs interpreter)"
cargo test --release -q --test block_cache quick_smoke

# Differential-fuzz smoke: 200 seeded generated/mutated programs through
# fast vs reference with the auditor armed; the binary exits nonzero on
# any host panic or (unminimized) divergence. Runs in both modes.
echo "== differential-fuzz smoke (200 programs, fixed seed)"
cargo run --release -q -p dda-bench --bin fuzz -- \
    --quick --seed 3405695742 \
    --out target/BENCH_fuzz_smoke.json --corpus target/fuzz_corpus_smoke

# The same campaign with the fault plan armed on both kernels (fault-RNG
# draw order must match too), and every armed kind must have fired.
# Runs in both modes.
echo "== differential-fuzz smoke, faults armed (200 programs, fixed seed)"
cargo run --release -q -p dda-bench --bin fuzz -- \
    --quick --faults --seed 3405695742 \
    --out target/BENCH_fuzz_faults_smoke.json --corpus target/fuzz_corpus_faults_smoke
if ! grep -q '"faults_silent": \[\],' target/BENCH_fuzz_faults_smoke.json; then
    echo "faulted fuzz smoke: an armed fault kind injected nothing" >&2
    grep '"faults_' target/BENCH_fuzz_faults_smoke.json >&2 || true
    exit 1
fi

# Corpus replay: every checked-in minimized reproducer re-assembles and
# reruns through both kernels (and planted-* entries must still
# reproduce their defect when it is armed). real-* entries are the
# hand-written quicksort/matmul/tak programs with verified answers.
echo "== corpus replay (tests/corpus/)"
cargo test --release -q --test corpus_replay

# Sampling smoke: the interval-sampling driver in --quick mode — the
# full-run CPI must land inside the sampled confidence interval or the
# binary exits nonzero.
echo "== sampling smoke (--quick)"
cargo run --release -q -p dda-bench --bin sampling -- \
    --quick --out target/BENCH_sampling_smoke.json

# Checkpoint round-trip: save -> serialize -> restore -> run must be
# bit-identical to continuous simulation, fault injection included.
echo "== checkpoint round-trip (tests/checkpoint_roundtrip.rs)"
cargo test --release -q --test checkpoint_roundtrip

# Persisted record layouts (see the header).
echo "== record codec (tests/record_codec.rs)"
cargo test --release -q --test record_codec

# Store keys (see the header).
echo "== store keys (tests/store_keys.rs)"
cargo test --release -q --test store_keys

# Kernel identity in release mode (see the header).
echo "== kernel identity (tests/determinism.rs)"
cargo test --release -q --test determinism

# Experiments smoke: the second run of a figure must simulate nothing
# and print byte-identical tables.
echo "== experiments smoke (fig5 twice, the rerun from the result store)"
fig5() {
    DDA_BUDGET=2000 DDA_PROFILE_BUDGET=20000 \
        cargo run --release -q -p dda-bench --bin experiments -- fig5
}
first=$(fig5)
second=$(fig5 2> target/experiments_smoke.err)
cat target/experiments_smoke.err >&2
if [ "$first" != "$second" ]; then
    echo "experiments smoke: the rerun printed different tables" >&2
    exit 1
fi
if ! grep -q ", 0 misses, 0 insts simulated" target/experiments_smoke.err; then
    echo "experiments smoke: the rerun was not served from the store" >&2
    exit 1
fi

if [ "$QUICK" = 0 ]; then
    echo "== fault-campaign smoke (--quick)"
    cargo run --release -q -p dda-bench --bin faults -- \
        --quick --out target/BENCH_faults_smoke.json
fi

echo "== verify OK"
