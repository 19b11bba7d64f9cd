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

# Exit codes of the studies are not checked here: each report.json records
# its own, and the byte comparison below covers it.
scripts/run_weak_error.sh "$@" --out "$tmp/weak_error" || true
scripts/run_stationary_gap.sh "$@" --out "$tmp/stationary_gap" || true
scripts/run_master_check.sh "$@" --out "$tmp/master_check" || true
scripts/run_certify.sh "$@" --out "$tmp" || true

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
if [ "$bad" -ne 0 ]; then
    echo "check_results: rerun artifacts differ from results/ (of $n files)" >&2
    exit 1
fi
echo "check_results: all $n results/ artifacts are byte-identical"
