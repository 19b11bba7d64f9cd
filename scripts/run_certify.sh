#!/usr/bin/env bash
# Certify (or refute) exponential ergodicity for the three two-state examples.
# Exit codes: 0 = certified, 2 = inconclusive, 3 = a condition fails with a
# witness. The non-ergodic example is *supposed* to exit 3. The script
# exits 1 if any certify run does (an error, not a verdict), else 0.
# Reports land in <root>/certify_<model>/, with root = results unless an
# `--out ROOT` is given; every other argument goes to each certify run.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

root=results
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --out) root="${2:?--out needs a directory}"; shift 2 ;;
        --out=*) root="${1#--out=}"; shift ;;
        *) args+=("$1"); shift ;;
    esac
done

status=0
for name in weak_interaction example_slow_conv example_non_erg; do
    echo "== certify $name =="
    python3 -m mfchain certify --model.name="$name" \
        --out "$root/certify_$name" "${args[@]}" && rc=0 || rc=$?
    echo "exit code $rc (report: $root/certify_$name/report.json)"
    echo
    [ "$rc" -ne 1 ] || status=1
done
exit "$status"
