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


def test_initial_counts_child_peak_does_not_grow_with_n():
    # a sampler holding (rows, N) draws peaks at 7.7 and 29.7 MiB at
    # N = 64 and 256; the blocked one holds the same 1.5 MiB at every N
    rec = load_bench().child(str(ROOT), "initial_counts")
    peaks = [rec["facts"][f"peak_mib_N{N}"] for N in (8, 64, 256)]
    assert max(peaks) < 2.0 and peaks[2] <= peaks[0]
    assert all(rec["times"][f"wall_ms_N{N}"] > 0 for N in (8, 64, 256))
    assert rec["facts"]["digest"] == "82004eb53ea3cbb2"   # whole-array counts
