#!/usr/bin/env bash
# Stationary occupation-gap study on the constant-rate flip chain.
# The measured gap should track 0.5/N across N = 10, 100, 1000.
# Results land in results/stationary_gap/ unless a later --out names another
# directory.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 -m mfchain stationary-gap --config configs/stationary_gap.cfg \
    --out results/stationary_gap "$@"
