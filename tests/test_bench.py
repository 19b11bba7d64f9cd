"""Smoke test of scripts/bench.py: one of its measurements on this checkout."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_master_scan_child_counts_rates_calls():
    # 206 substeps of 12 stages and one drift call (2 473, the count in
    # BENCH_master.json), plus one call per block of step propagators: 100
    # cases make a block of one substep
    rec = load_bench().child(str(ROOT), "master_scan")
    assert rec["facts"]["rates_calls"] == 12 * 206 + 1 + 206
    assert rec["facts"]["derivative_calls"] == 206
    assert rec["times"]["wall_s"] > 0
    assert len(rec["facts"]["digest"]) == 16
