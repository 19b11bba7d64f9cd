"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check that a corrupted artifact or a wrong exit code counts as a
failed op, that a traced pass leaves every module namespace as it found
it, and that an untraced pass installs no wrapper.
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child      # noqa: E402
import layers     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402


def committed(path):
    full = os.path.join(ROOT, path)
    if not os.path.exists(full):
        pytest.skip(f"{path} not in this checkout")
    return full


def stage(tmp_path, src, name):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(src, out / name)
    return str(out)


def corrupt(path):
    """Change the last digit of the second field of the last row: one byte,
    the file still parses and the value moves far less than its stderr."""
    data = bytearray(open(path, "rb").read())
    row = data.rindex(b"\n", 0, len(data) - 1) + 1
    i = data.index(b",", data.index(b",", row) + 1) - 1
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    open(path, "wb").write(bytes(data))


@pytest.mark.parametrize("path", sorted(workloads.REFERENCE))
def test_reference_digests_match_committed_results(path):
    assert workloads.sha256(committed(path)) == workloads.REFERENCE[path]


@pytest.mark.parametrize("N", [8, 64])
def test_corrupted_mc_csv_fails_its_op(tmp_path, N):
    op = next(o for o in workloads.mc_grid(0) if o.label == f"simulate-N{N}")
    out = stage(tmp_path, committed(f"results/weak_error/mc_N{N}.csv"), "mc.csv")
    assert run.judge(op, {"rc": 0, "wall": 1.0}, out, {})["problems"] == []
    corrupt(os.path.join(out, "mc.csv"))
    assert run.judge(op, {"rc": 0, "wall": 1.0}, out, {})["problems"]


def test_other_seed_skips_byte_identity_but_keeps_oracle(tmp_path):
    op = next(o for o in workloads.mc_grid(0) if o.label == "simulate-N8")
    other = next(o for o in workloads.mc_grid(7) if o.label == "simulate-N8")
    out = stage(tmp_path, committed("results/weak_error/mc_N8.csv"), "mc.csv")
    corrupt(os.path.join(out, "mc.csv"))          # still within 6 stderr of the exact law
    assert run.judge(op, {"rc": 0, "wall": 1.0}, out, {})["problems"]
    # the seed column no longer matches, and nothing else may be reported
    assert run.judge(other, {"rc": 0, "wall": 1.0}, out, {})["problems"] == [
        "mc.csv R/N/seed columns wrong"]


def test_wrong_exit_code_fails_its_op(tmp_path):
    op = next(o for o in workloads.flow_certify(0) if o.label == "certify-non-erg")
    out = stage(tmp_path, committed("results/certify_example_non_erg/report.json"),
                "report.json")
    assert run.judge(op, {"rc": 3, "wall": 1.0}, out, {})["problems"] == []
    assert run.judge(op, {"rc": 1, "wall": 1.0}, out, {})["problems"]


def test_rerun_must_reproduce_first_pass(tmp_path):
    op = next(o for o in workloads.flow_certify(0) if o.label == "certify-non-erg")
    out = stage(tmp_path, committed("results/certify_example_non_erg/report.json"),
                "report.json")
    outputs = {op.label: "0" * 64}
    assert run.judge(op, {"rc": 3, "wall": 1.0}, out, outputs)["problems"]


def modules():
    import mfchain.cli  # noqa: F401
    return {name: sys.modules[name] for name in layers.MODULES}


def test_traced_pass_restores_every_module_attribute(tmp_path):
    mods = modules()
    cli = mods["mfchain.cli"]
    before = layers.snapshot(mods)
    tracer = layers.Tracer()
    tracer.install(mods)
    try:
        assert tracer.absent == []
        assert layers.snapshot_diff(before, layers.snapshot(mods))
        rc = cli.main(["simulate", "--model.name=weak_interaction", "--run.N=4",
                       "--run.R=12", "--run.horizon=1", "--threads", "2",
                       "--out", str(tmp_path / "sim")])
        rc |= cli.main(["solve", "--model.name=example_slow_conv", "--run.horizon=1",
                        "--out", str(tmp_path / "solve")])
    finally:
        tracer.restore()
    assert rc == 0
    assert layers.snapshot_diff(before, layers.snapshot(mods)) == []
    model = mods["mfchain.models"].make_model("weak_interaction")
    assert not hasattr(model.rates, "__wrapped__")
    stats = tracer.stats()
    assert stats["cli.main"]["calls"] == 2
    assert stats["particles.gillespie_batch"]["work"] > 0       # events
    assert stats["kolmogorov.solve_kolmogorov"]["rhs_evals"] == 4000   # RK4, h = 1e-3
    assert tracer.root_self_sum() == pytest.approx(stats["cli.main"]["busy_s"], rel=1e-9)


def test_untraced_pass_installs_no_wrapper(tmp_path, monkeypatch):
    mods = modules()
    before = layers.snapshot(mods)

    def forbidden(self, modules):
        raise AssertionError("untraced pass installed wrappers")

    monkeypatch.setattr(layers.Tracer, "install", forbidden)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "root": ROOT, "trace": False, "result": str(tmp_path / "result.json"),
        "ops": [["solve", ["solve", "--model.name=example_slow_conv",
                           "--run.horizon=1", "--out", str(tmp_path / "solve")]]]}))
    assert child.main(str(spec)) == 0
    result = (tmp_path / "result.json").read_text()
    assert '"rc": 0' in result and '"trace"' not in result
    assert layers.snapshot_diff(before, layers.snapshot(mods)) == []


def test_exact_law_matches_committed_means():
    for N in (8, 64):
        _, data = workloads.read_csv(committed(f"results/weak_error/mc_N{N}.csv"))
        exact = workloads.exact_weak_interaction_mean(N, data[:, 0])
        z = abs(data[:, 1] - exact) / data[:, 2]
        assert z.max() < 3.0      # pure MC noise over 81 points
