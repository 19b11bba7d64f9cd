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
    # 2 473 rates calls is the scan's count recorded in BENCH_master.json
    rec = load_bench().child(str(ROOT), "master_scan")
    assert rec["facts"]["rates_calls"] == 2473
    assert rec["times"]["wall_s"] > 0
    assert len(rec["facts"]["digest"]) == 16
