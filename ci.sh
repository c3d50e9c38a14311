#!/usr/bin/env bash
# Repository CI: build, test, format and lint gates.
#
# Mirrors what the hosted pipeline runs; keep the steps in sync with
# README.md's Testing section.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The root `cargo test -q` runs only the `slimstart` package's targets.
# The member crates' unit and doc tests (the fleet report and
# orchestrator, pyrt's restores, simcore's pinned RNG streams and hash
# values, ...) run here.
echo "==> cargo test -q --workspace --exclude slimstart"
cargo test -q --workspace --exclude slimstart

# The conformance suites guard the chaos-off byte-identity contract, the
# fault-injection invariants, the anti-pattern lint/auto-fix contract, the
# fleet scale-out determinism cells, the streaming-vs-retained oracle
# differential, the snapshot-restore equivalence (restores match the loader
# walk byte for byte across the chaos grid, and forked restores match the
# forked walk, forked-load counts included, at jittered time scales on the
# real module graphs of the above-gate catalog apps), the snapshot-pool pressure
# invariants (lazy-restore oracle, budget bound, redeploy invalidation),
# the zygote-pool dependency-sharing contract (thread-count byte identity,
# v3 passthrough when disabled), the eviction-order determinism property,
# the indexed deferral verifier's equivalence with the string-scan
# reference, the package tree's equivalence with the string-keyed
# reference tree (package set and order, children's order, the
# package-cost lints' member walk, loader ancestor chains), the two
# goldens pinning the detector's tie order (FWB-CML pipeline JSON) and
# the lints' f64 package-cost sums (R-GB lint JSON), the run-weighted
# utilization and init roll-up's equivalence with the per-sample and
# reference package-tree roll-ups, the
# sampler's equivalence with the per-boundary reference sampler and the
# CCT's node-by-node equivalence with the per-sample reference tree, on
# synthetic streams and on catalog profiles; run them by
# name so a test-harness filter or workspace reshuffle can never silently
# drop them from the gate. snapshot_pressure and
# dependency_sharing also carry the former bench gates: the budget sweep's
# shape (the unlimited point never evicts, constrained budgets do, the
# tightest hits less with no better p99) and the sharing grid's wins
# (sharing+deferral beats deferral alone on mean and p99, and the shared
# cells fork), each with a same-seed rerun.
echo "==> cargo test -q --test chaos_sweep --test golden_reports --test antipattern_lints" \
     "--test fleet_determinism --test fleet_streaming_equivalence" \
     "--test snapshot_equivalence --test snapshot_pressure" \
     "--test dependency_sharing --test snapshot_eviction_order" \
     "--test analyzer_index_equivalence --test utilization_equivalence" \
     "--test sampler_equivalence --test cct_equivalence"
cargo test -q --test chaos_sweep --test golden_reports --test antipattern_lints \
    --test fleet_determinism --test fleet_streaming_equivalence \
    --test snapshot_equivalence --test snapshot_pressure \
    --test dependency_sharing --test snapshot_eviction_order \
    --test analyzer_index_equivalence --test utilization_equivalence \
    --test sampler_equivalence --test cct_equivalence

# The catalog's five below-gate fixture apps must stay lint-clean at the
# warning level: `--deny warnings` exits 1 on any warning-or-worse
# diagnostic from the full 11-pass analyzer (core lints + the anti-pattern
# catalog).
echo "==> slimstart lint --deny warnings over the clean fixture apps"
for code in R-UL R-TN FWB-FLT FWB-JSN FL-HW; do
    cargo run --release --quiet --bin slimstart -- \
        lint "$code" --deny warnings --cold-starts 60 > /dev/null
done

# The benchmark package's own checks on tiny inputs: determinism (traced
# and untraced), the optimization gate, the analyzer re-run against the
# pre-deploy report, the timed stage engine, thread-count identity and the
# snapshot budget, on all four workloads. It exits non-zero if any fails;
# only its check and result lines are shown.
echo "==> slimstart-benchmark --smoke --trace 1"
cargo run --release --offline --quiet --manifest-path slimstart-benchmark/Cargo.toml -- \
    --smoke --trace 1 | grep -E '^(check|result) '

# Disabled tests rot: nothing under tests/ may be #[ignore]d.
echo "==> checking for #[ignore] in tests/"
if grep -rn "#\[ignore" tests/*.rs; then
    echo "error: #[ignore]d integration tests are not allowed" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every crate's API docs build without a warning: no broken, ambiguous or
# private intra-doc link.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
