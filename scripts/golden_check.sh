#!/usr/bin/env bash
# Golden-snapshot gate: every figure/ablation/extension binary must
# print byte-identical output to its committed snapshot in
# tests/golden/. This guards the probe refactor's promise that
# instrumentation seams never change measured results.
#
# Usage: golden_check.sh <build-dir> [--update] [--backend=fast]
#   --update        regenerate the snapshots from the current binaries
#                   (review the diff before committing).
#   --backend=fast  run every binary on the fast simulator backend but
#                   diff against the SAME snapshots: the backends are
#                   result-equivalent by contract, so the committed
#                   interp tables are the fast backend's golden too.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [--update] [--backend=fast]" >&2
    exit 2
fi

build="$1"
shift
update=""
backend_flags=()
tag=""
for arg in "$@"; do
    case "$arg" in
    --update) update="--update" ;;
    --backend=*)
        backend_flags=("$arg")
        tag=" (${arg#--backend=})"
        ;;
    *)
        echo "golden: unknown argument '$arg'" >&2
        exit 2
        ;;
    esac
done
if [[ "$update" == "--update" && ${#backend_flags[@]} -gt 0 ]]; then
    echo "golden: snapshots are regenerated on the default backend" \
         "only; drop --backend to --update" >&2
    exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
golden="$repo/tests/golden"

# The bench registry (bench/benches.txt): the same list CMake builds.
mapfile -t benches < <(grep -E '^[a-z]' "$repo/bench/benches.txt")
if [[ ${#benches[@]} -eq 0 ]]; then
    echo "golden: empty bench registry $repo/bench/benches.txt" >&2
    exit 2
fi

mkdir -p "$golden"
status=0
for bench in "${benches[@]}"; do
    # "<bench>+dvs" entries run the base binary with --dvs and keep
    # their own snapshot; the base entry's snapshot is untouched.
    extra_flags=()
    bin_name="$bench"
    if [[ "$bench" == *"+dvs" ]]; then
        bin_name="${bench%+dvs}"
        extra_flags=(--dvs)
    fi
    bin="$build/bench/$bin_name"
    if [[ ! -x "$bin" ]]; then
        echo "golden: MISSING BINARY $bench" >&2
        status=1
        continue
    fi
    snapshot="$golden/$bench.txt"
    if [[ "$update" == "--update" ]]; then
        "$bin" "${extra_flags[@]}" 2>/dev/null > "$snapshot"
        echo "golden: updated $bench"
        continue
    fi
    if [[ ! -f "$snapshot" ]]; then
        echo "golden: MISSING SNAPSHOT $bench (run with --update)" >&2
        status=1
        continue
    fi
    if ! "$bin" "${extra_flags[@]}" "${backend_flags[@]}" 2>/dev/null |
            diff -u "$snapshot" - > /tmp/golden_diff_$$; then
        echo "golden: MISMATCH $bench$tag" >&2
        head -40 /tmp/golden_diff_$$ >&2
        status=1
    else
        echo "golden: ok $bench$tag"
    fi
    rm -f /tmp/golden_diff_$$
done

if [[ "$update" == "--update" ]]; then
    exit 0
fi
if [[ $status -ne 0 ]]; then
    echo "golden: FAILED — bench output drifted from tests/golden/" >&2
fi
exit $status
