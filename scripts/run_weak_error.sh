#!/usr/bin/env bash
# Full weak-error study (six population sizes, 20000 replications each).
# Runtime is about a minute per thread-count on one core; pass e.g.
#   scripts/run_weak_error.sh --threads 4
# to fan chunks out over threads (results do not change). Results land in
# results/weak_error/ unless a later --out names another directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m mfchain weak-error --config configs/weak_error.cfg \
    --out results/weak_error "$@"
