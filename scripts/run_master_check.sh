#!/usr/bin/env bash
# Residual scan of the propagated-observable evolution equation on the
# slow-convergence model (100 random (t, mu) cases, tolerance 1e-5).
# Results land in results/master_check/ unless a later --out names another
# directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m mfchain master-check --config configs/master_check.cfg \
    --out results/master_check "$@"
