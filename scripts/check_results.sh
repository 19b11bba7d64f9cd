#!/usr/bin/env bash
# Rerun every ready-made study into a temporary directory and compare each
# committed results/ artifact with its rerun byte for byte. Extra arguments
# go to every study, e.g.
#   scripts/check_results.sh --threads 2
# Exits 0 when all artifacts match, 1 on any difference or missing file.
# Nothing is written into results/.
set -uo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Verdict exit codes (2, 3) are not checked here: each report.json records
# its own, and the byte comparison below covers it. Exit 1 is an error: the
# study is named and the check fails.
failed=""
study() {
    local name="$1"
    shift
    "$@"
    [ $? -ne 1 ] || failed="$failed $name"
}
study weak_error scripts/run_weak_error.sh "$@" --out "$tmp/weak_error"
study stationary_gap scripts/run_stationary_gap.sh "$@" --out "$tmp/stationary_gap"
study master_check scripts/run_master_check.sh "$@" --out "$tmp/master_check"
study certify scripts/run_certify.sh "$@" --out "$tmp"

files="$(git ls-files results 2>/dev/null)" || files=""
[ -n "$files" ] || files="$(find results -type f | sort)"
bad=0
n=0
for f in $files; do
    n=$((n + 1))
    if cmp -s "$f" "$tmp/${f#results/}"; then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        bad=1
    fi
done
if [ -n "$failed" ]; then
    echo "check_results: studies exited 1:$failed" >&2
    bad=1
fi
if [ "$bad" -ne 0 ]; then
    echo "check_results: rerun does not reproduce results/ (of $n files)" >&2
    exit 1
fi
echo "check_results: all $n results/ artifacts are byte-identical"
