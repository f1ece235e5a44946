#!/usr/bin/env bash
# Suite-level regression gate over run manifests: run every bench with
# --json, aggregate the manifests into one BENCH_suite.json via
# pfits_report, and diff it against the checked-in baseline
# (tests/baseline/BENCH_baseline.json).
#
# Numeric table drift beyond the tolerance fails the gate. Wall times
# are machine-specific, so the diff against the checked-in baseline
# runs with --ignore-time; the 15% wall-time policy is exercised by the
# unit tests (Report.DiffFlagsWallTimeRegressionBeyondThreshold) and is
# available for same-machine comparisons via pfits_report diff.
#
# Usage: bench_regress.sh <build-dir> [--update]
#   --update  regenerate tests/baseline/BENCH_baseline.json from the
#             current binaries (review the diff before committing).
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [--update]" >&2
    exit 2
fi

build="$1"
update="${2:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo/tests/baseline/BENCH_baseline.json"
report="$build/src/obs/pfits_report"

if [[ ! -x "$report" ]]; then
    echo "bench_regress: missing $report (build first)" >&2
    exit 2
fi

# The bench registry (bench/benches.txt): the same list CMake builds.
mapfile -t benches < <(grep -E '^[a-z]' "$repo/bench/benches.txt")
if [[ ${#benches[@]} -eq 0 ]]; then
    echo "bench_regress: empty bench registry $repo/bench/benches.txt" >&2
    exit 2
fi

# Fail before running anything when a listed bench has no baseline
# entry for either backend: the suite diff reports a bench the
# baseline lacks as informational, so it would go ungated.
if [[ "$update" != "--update" ]]; then
    if [[ ! -f "$baseline" ]]; then
        echo "bench_regress: MISSING BASELINE $baseline (run with --update)" >&2
        exit 1
    fi
    missing=0
    for bench in "${benches[@]}"; do
        for id in "$bench" "$bench+fast"; do
            if ! grep -qF "\"tool\": \"$id\"" "$baseline"; then
                echo "bench_regress: MISSING BASELINE ENTRY $id (run with --update)" >&2
                missing=1
            fi
        done
    done
    if [[ $missing -ne 0 ]]; then
        exit 1
    fi
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Each bench runs once per backend; the fast run writes a manifest
# under the distinct tool identity "<bench>+fast", so the suite file
# tracks the interp and fast series separately (and a table divergence
# between them trips the same gate as any other drift).
status=0
for bench in "${benches[@]}"; do
    # "<bench>+dvs" entries run the base binary with --dvs; the bench
    # stamps the manifest identity with the matching "+dvs" suffix.
    extra_flags=()
    bin_name="$bench"
    if [[ "$bench" == *"+dvs" ]]; then
        bin_name="${bench%+dvs}"
        extra_flags=(--dvs)
    fi
    bin="$build/bench/$bin_name"
    if [[ ! -x "$bin" ]]; then
        echo "bench_regress: MISSING BINARY $bench" >&2
        status=1
        continue
    fi
    for backend in interp fast; do
        out="$workdir/$bench.json"
        flags=("${extra_flags[@]}")
        if [[ "$backend" == "fast" ]]; then
            out="$workdir/$bench+fast.json"
            flags+=(--backend=fast)
        fi
        if ! "$bin" "${flags[@]}" --json "$out" > /dev/null 2>&1; then
            echo "bench_regress: $bench ($backend) FAILED" >&2
            status=1
            continue
        fi
        if ! "$report" validate "$out" > /dev/null; then
            echo "bench_regress: $bench ($backend) wrote an invalid manifest" >&2
            status=1
        fi
    done
done
if [[ $status -ne 0 ]]; then
    echo "bench_regress: FAILED before aggregation" >&2
    exit $status
fi

suite="$build/BENCH_suite.json"
"$report" aggregate "$workdir" -o "$suite"

if [[ "$update" == "--update" ]]; then
    mkdir -p "$(dirname "$baseline")"
    cp "$suite" "$baseline"
    echo "bench_regress: baseline updated ($baseline)"
    exit 0
fi

# --ignore-time: the baseline's wall times were measured on whatever
# machine last ran --update; only table values gate here.
if "$report" diff "$baseline" "$suite" --ignore-time; then
    echo "bench_regress: ok (suite matches $baseline)"
else
    echo "bench_regress: FAILED — table values drifted from the baseline" >&2
    exit 1
fi
