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
    # BENCH_master.json), plus the step propagators' calls: 100 cases make
    # a block of one substep with 1 200 stage measures, linearized in two
    # calls of at most MARGIN_ROWS = 1024 measures
    rec = load_bench().child(str(ROOT), "master_scan")
    assert rec["facts"]["rates_calls"] == 12 * 206 + 1 + 2 * 206
    assert rec["facts"]["derivative_calls"] == 2 * 206
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


def test_peak_rss_child_reports_certify_and_simulate():
    # certify exits 2 (inconclusive) on example_slow_conv, simulate 0
    rec = load_bench().child(str(ROOT), "peak_rss")
    assert rec["facts"]["exit_codes"] == [2, 0]
    certify, simulate = rec["times"]["certify_mb"], rec["times"]["simulate_mb"]
    assert 0 < certify <= simulate


def test_count_chain_child_pins_the_tables():
    # the digest of the lattice, region flags, running totals and jump
    # table at (d, N) = (2, 256), (3, 128) and (4, 64), as the kernel's
    # inline pair-by-pair construction gave them
    rec = load_bench().child(str(ROOT), "count_chain")
    assert rec["facts"]["digest"] == "275e05f959f61565"
    assert sorted(rec["times"]) == ["build_ms_d2_N256", "build_ms_d3_N128",
                                    "build_ms_d4_N64"]
    assert all(ms > 0 for ms in rec["times"].values())
