#!/usr/bin/env bash
# Full weak-error study (six population sizes, 20000 replications each).
# Runtime is about 12 s in one process on a 2-vCPU host; pass e.g.
#   scripts/run_weak_error.sh --threads 2
# to fan chunks out over worker processes (results do not change; about 7 s
# at 2 workers on the same host). Results land in
# results/weak_error/ unless a later --out names another directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m mfchain weak-error --config configs/weak_error.cfg \
    --out results/weak_error "$@"
