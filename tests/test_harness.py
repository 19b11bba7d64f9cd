import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfchain import harness, models
from mfchain.cli import main, parse_dotted
from mfchain.errors import InputError
from mfchain.harness import (
    COMMANDS,
    _auto_value,
    _ols_loglog,
    config_hash,
    initial_measure,
    json_default,
    load_config,
    master_cases,
    mc_verdict,
    model_from_config,
    observable_from_config,
    parse_config_text,
    report_envelope,
    write_csv,
    write_json,
)
from mfchain.kolmogorov import make_grid, solve_flow, stationary_distribution
from mfchain.linearized import check_condition1, check_condition2, estimate_decay
from mfchain.models import example_chaos, weak_interaction
from mfchain.particles import sample_initial

ROOT = Path(__file__).resolve().parents[1]


def test_parse_config_text():
    cfg = parse_config_text(
        "# full-line comment\n"
        "\n"
        "model.name = weak_interaction   # trailing comment\n"
        "run.Ns = 8,16,32\n"
        "model.Q = -1,1 ; 1,-1\n"
    )
    assert cfg == {
        "model.name": "weak_interaction",
        "run.Ns": "8,16,32",
        "model.Q": "-1,1 ; 1,-1",
    }
    with pytest.raises(InputError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(InputError, match="dotted"):
        parse_config_text("horizon = 20\n")


def test_auto_value_forms():
    assert _auto_value("3") == 3 and isinstance(_auto_value("3"), int)
    assert _auto_value("2.5") == 2.5
    assert np.array_equal(_auto_value("1,2"), [1.0, 2.0])
    assert np.array_equal(_auto_value("-1,1;1,-1"), [[-1.0, 1.0], [1.0, -1.0]])
    assert _auto_value("hello") == "hello"


def test_model_from_config():
    m = model_from_config(
        {"model.name": "weak_interaction", "model.a": "1.5", "model.eps": "0.1"}
    )
    assert m.K == 0.1 and m.M == 1.6
    q = model_from_config({"model.name": "constant", "model.Q": "-1,1;2,-2"})
    assert q.M == 2.0
    z = model_from_config({"model.name": "zero", "model.d": "3"})
    assert z.d == 3
    with pytest.raises(InputError, match="model.name"):
        model_from_config({})
    with pytest.raises(InputError, match="unknown model"):
        model_from_config({"model.name": "nope"})


def test_observable_from_config():
    model = model_from_config({"model.name": "weak_interaction"})
    # default: squared distance to the stationary point, found automatically
    phi = observable_from_config({}, model)
    assert phi(np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)
    phi2 = observable_from_config(
        {"observable.name": "linear", "observable.coeffs": "1,-1"}, model
    )
    assert phi2(np.array([0.8, 0.2])) == pytest.approx(0.6)
    phi3 = observable_from_config(
        {"observable.name": "entropy", "observable.shift": "0.2"}, model
    )
    assert np.isfinite(phi3(np.array([1.0, 0.0])))


def test_initial_measure():
    model = model_from_config({"model.name": "zero", "model.d": "4"})
    assert np.array_equal(initial_measure({}, model), np.full(4, 0.25))
    got = initial_measure({"init.mu": "0.5,0.3,0.1,0.1"}, model)
    assert np.allclose(got, [0.5, 0.3, 0.1, 0.1])


def test_config_hash_canonical():
    a = {"command": "solve", "config": {"x.a": "1", "x.b": "2"}, "seed": 0}
    b = {"seed": 0, "config": {"x.b": "2", "x.a": "1"}, "command": "solve"}
    assert config_hash(a) == config_hash(b)
    c = {"command": "solve", "config": {"x.a": "1", "x.b": "3"}, "seed": 0}
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 40


def test_config_hash_is_the_git_blob_sha1():
    import hashlib                       # here only: mfchain never loads it
    payload = {"command": "certify", "config": {"model.name": "zero"}, "seed": 7}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert config_hash(payload) == hashlib.sha1(
        b"blob %d\0" % len(blob) + blob).hexdigest()
    with open(ROOT / "results" / "certify_example_slow_conv" / "report.json") as fh:
        rep = json.load(fh)
    assert rep["config_hash"] == "ac3d9a676adf0052fa7e5e256b532fd81d8ff71e"
    assert config_hash({"command": rep["command"], "config": rep["config"],
                        "seed": rep["seed"]}) == rep["config_hash"]


def test_commands_never_load_openssl(tmp_path):
    # hashlib's OpenSSL backend (_hashlib, libcrypto) costs every command
    # about 3.5 MB of resident memory; the report hash needs only _sha1.
    # simulate at R = 10 000 runs two 5000-row chunks in forked workers.
    script = f"""
import sys
from mfchain.cli import main
out = {str(tmp_path)!r}
codes = [main(["certify", "--model.name=example_slow_conv", "--out", out + "/c"]),
         main(["simulate", "--model.name=weak_interaction", "--run.N=8",
               "--run.R=10000", "--run.horizon=1", "--threads", "2",
               "--out", out + "/s"])]
print(codes, "_hashlib" in sys.modules, "hashlib" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert res.stdout.split("\n")[-2] == "[2, 0] False False"


def test_report_envelope_shape():
    env = report_envelope("solve", {"b.k": "2", "a.k": "1"}, seed=5)
    assert env["schema"] == 1
    assert env["tool"]["name"] == "mfchain"
    assert env["command"] == "solve"
    assert list(env["config"]) == ["a.k", "b.k"]          # sorted echo
    assert env["seed"] == 5
    assert env["config_hash"] == config_hash(
        {"command": "solve", "config": env["config"], "seed": 5}
    )


def test_write_csv_roundtrip(tmp_path):
    path = str(tmp_path / "vals.csv")
    write_csv(path, ["t", "v", "n"], [(0.1, 1.0 / 3.0, 7)])
    lines = open(path).read().splitlines()
    assert lines[0] == "t,v,n"
    t, v, n = lines[1].split(",")
    assert float(v) == 1.0 / 3.0                          # repr round-trips
    assert n == "7"


def test_write_json_stable(tmp_path):
    path = str(tmp_path / "r.json")
    write_json(path, {"b": np.float64(1.5), "a": np.array([1, 2])})
    text = open(path).read()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')          # sorted keys
    assert json.loads(text) == {"a": [1, 2], "b": 1.5}


def test_json_default_writes_numpy_values_as_python_ones():
    # nested numpy scalars and arrays, NaN and inf included, give the text
    # of the same Python values, with and without indent
    obj = {"x": [np.float64(0.1), np.int64(-3), np.bool_(True)],
           "y": {"z": np.array([[np.nan, np.inf], [-0.0, 1e-300]])},
           "w": (np.float32(0.5), np.array([1, 2], dtype=np.int64))}
    plain = {"x": [0.1, -3, True],
             "y": {"z": [[float("nan"), float("inf")], [-0.0, 1e-300]]},
             "w": [0.5, [1, 2]]}
    for indent in (None, 2):
        assert json.dumps(obj, indent=indent, sort_keys=True,
                          default=json_default) == json.dumps(
            plain, indent=indent, sort_keys=True)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({"s": {1}}, default=json_default)


def test_ols_loglog_exact():
    xs = np.array([8.0, 16.0, 32.0, 64.0])
    slope, intercept, sd = _ols_loglog(xs, 3.0 / xs)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert sd == pytest.approx(0.0, abs=1e-12)


def test_mc_verdict():
    Ns = [10, 100]
    ok = mc_verdict(Ns, [0.05, 0.005], [0.001, 0.002], R=100)
    assert (ok["verdict"], ok["R_needed"], ok["exit_code"]) == ("conclusive", None, 0)
    assert ok["fit"]["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert ok["fit"]["n_points"] == 2
    # the worst N has half-width 0.005 against effect 0.005: (2 * 1)^2 = 4 R
    noisy = mc_verdict(Ns, [0.05, 0.005], [0.001, 0.005], R=100)
    assert (noisy["verdict"], noisy["R_needed"], noisy["exit_code"]) == (
        "inconclusive", 400, 2)
    # an effect of exactly 0 is resolved by no R
    zero = mc_verdict(Ns, [0.05, 0.0], [0.001, 0.001], R=100)
    assert (zero["verdict"], zero["R_needed"], zero["exit_code"]) == (
        "inconclusive", None, 2)
    # an overflowing stderr: no R is named (int(inf) raised OverflowError)
    wild = mc_verdict(Ns, [0.05, 0.005], [0.001, np.inf], R=100)
    assert (wild["verdict"], wild["R_needed"]) == ("inconclusive", None)


def test_mc_verdict_fits_no_slope_through_one_size():
    # a minimum-norm lstsq used to report slope -1.013 through one point,
    # with n_points 1 for Ns = 8 and 2 for Ns = 8,8
    # the verdict and R_needed do not depend on the fit: (2 * 0.03 / 0.04)^2
    # = 2.25 R
    for Ns, effects, halves, verdict in (
            ([8], [0.05], [0.001], ("conclusive", None, 0)),
            ([8, 8], [0.05, 0.04], [0.001, 0.03], ("inconclusive", 225, 2))):
        rec = mc_verdict(Ns, effects, halves, R=100)
        assert rec["fit"] is None
        assert (rec["verdict"], rec["R_needed"], rec["exit_code"]) == verdict
    two = mc_verdict([8, 8, 16], [0.05, 0.04, 0.02], [0.001] * 3, R=100)
    assert two["fit"]["n_points"] == 3


# every refusal of a bad config value: (command, arguments, refusal); the
# refusal is the start of the message after `mfchain: error: `, and a plain
# key K stands for `config key K:`
ERG, NON_ERG = "--model.name=weak_interaction", "--model.name=example_non_erg"
Q2 = "--model.name=constant --model.Q=-1,1;1,-1"
Q3 = "--model.name=constant --model.Q=-1,0.5,0.5;0.5,-1,0.5;0.5,0.5,-1"
SMALL_WE = f"{ERG} --run.Ns=4,8 --run.R=50 --run.horizon=1"
MASTER_CFG = "--config=CONFIGS/master_check.cfg"      # CONFIGS: ROOT/configs
REFUSALS = [
    # no standard error from one replication; sq_dist's default target
    # needs a stationary search in both commands
    ("weak-error", f"{NON_ERG} --run.R=1", "run.R"),
    ("stationary-gap", f"{NON_ERG} --gap.R=1", "gap.R"),
    # N < 1, a count lattice above MAX_LATTICE (300 001 and 1e11 + 1 states
    # at d = 2), and R < 1 in simulate: weak-error's N = 0 was refused only
    # after certification, and simulate's huge N ended in a raw memory error
    ("weak-error", f"{NON_ERG} --run.Ns=0,8", "run.Ns"),
    ("weak-error", f"{NON_ERG} --run.Ns=8,300000", "run.Ns"),
    ("weak-error", f"{NON_ERG} --run.Ns=,", "run.Ns"),
    ("stationary-gap", f"{NON_ERG} --gap.Ns=10,0", "gap.Ns"),
    ("simulate", f"{NON_ERG} --run.R=5 --run.N=0", "run.N"),
    ("simulate", f"{NON_ERG} --run.R=5 --run.N=100000000000", "run.N"),
    ("simulate", f"{NON_ERG} --run.R=5 --run.N=8,16", "run.N"),
    ("simulate", f"{NON_ERG} --run.R=0", "run.R"),
    # a NaN target used to give exit 0 with a conclusive verdict and slope NaN
    ("weak-error", f"{SMALL_WE} --observable.target=nan,1",
     "observable.target"),
    ("weak-error", f"{SMALL_WE} --observable.target=0.5", "observable.target"),
    ("weak-error", f"{SMALL_WE} --observable.name=linear"
     " --observable.coeffs=inf,1", "observable.coeffs"),
    ("master-check", f"{ERG} --observable.name=linear", "observable.coeffs"),
    # a condition-2 lattice with resolution 0, or 501 501 points at d = 3;
    # at d = 9 the default resolution 15 makes 490 314 points, and the
    # message used to name no key
    ("certify", f"{Q3} --certify.resolution=0", "certify.resolution"),
    ("certify", f"{Q3} --certify.resolution=1000", "certify.resolution"),
    ("certify", "--model.name=zero --model.d=9", "certify.resolution"),
    ("certify", f"{ERG} --certify.pairs=0", "certify.pairs"),
    # above models.MAX_PAIRS; 1e11 pairs used to end in a raw memory error
    ("certify", "--model.name=example_slow_conv --certify.pairs=100000000000",
     "certify.pairs"),
    ("weak-error", f"{SMALL_WE} --certify.pairs=x", "certify.pairs"),
    # nan used to end as a certified failure (exit 3), and inf passed any
    # residual
    *[("master-check", f"{ERG} --master.tol={tol}", "master.tol")
      for tol in ("nan", "inf", "0", "-1e-5")],
    # master.* used to be refused by the library, in its own terms, and
    # only after the stationary search of sq_dist's default target
    ("master-check", f"{ERG} --master.cases=0", "master.cases"),
    ("master-check", f"{MASTER_CFG} --master.cases=-3", "master.cases"),
    ("master-check", f"{MASTER_CFG} --master.tmax=inf", "master.tmax"),
    ("master-check", f"{ERG} --master.tmax=nan", "master.tmax"),
    ("master-check", f"{MASTER_CFG} --master.floor=0.6", "master.floor"),
    ("master-check", f"{ERG} --master.floor=-0.1", "master.floor"),
    # times at or below the residual stencil's width 1e-4
    ("master-check", f"{ERG} --observable.target=0.5,0.5 --master.tmin=0"
     " --master.tmax=0.0001", "master.tmin"),
    ("master-check", f"{ERG} --master.tmin=1e-4", "master.tmin"),
    ("master-check", f"{ERG} --master.tmin=5 --master.tmax=1",
     "need master.tmin <= master.tmax"),
    # these used to end in the kernel's "need 0 <= burn < end" after the
    # stationary search and a full decay probe
    ("stationary-gap", f"{Q2} --gap.burn=1e300",
     "gap.burn + gap.window must exceed gap.burn"),
    ("stationary-gap", f"{Q2} --gap.burn=1 --gap.window=1e-17",
     "gap.burn + gap.window must exceed gap.burn"),
    ("stationary-gap", f"{Q2} --gap.burn=-1", "gap.burn"),
    ("stationary-gap", f"{Q2} --gap.burn=inf", "gap.burn"),
    ("stationary-gap", f"{Q2} --gap.window=0", "gap.window"),
    ("stationary-gap", f"{Q2} --gap.window=-5", "gap.window"),
    ("stationary-gap", f"{Q2} --gap.window=inf", "gap.window"),
    # the flow settings: each was refused by the library, if at all, after
    # the work that came before its first use
    ("solve", f"{ERG} --run.step=0", "run.step"),
    ("certify", f"{ERG} --run.step=nan", "run.step"),
    ("solve", f"{ERG} --run.horizon=-1", "run.horizon"),
    ("simulate", f"{ERG} --run.R=5 --run.horizon=inf", "run.horizon"),
    ("solve", f"{ERG} --run.spacing=0", "run.spacing"),
    ("weak-error", f"{SMALL_WE} --run.spacing=-0.5", "run.spacing"),
    ("decay-fit", f"{ERG} --decay.horizon=0", "decay.horizon"),
    ("certify", f"{ERG} --decay.horizon=inf", "decay.horizon"),
    ("certify", f"{ERG} --decay.spacing=0", "decay.spacing"),
    ("decay-fit", f"{ERG} --decay.spacing=nan", "decay.spacing"),
    ("weak-error", f"{ERG} --decay.random=-1", "decay.random"),
    ("stationary-gap", f"{Q2} --decay.random=2.5", "decay.random"),
    # the observable and the initial measure: stationary-gap reads them
    # before the search it needs for nu
    ("simulate", f"{ERG} --run.R=5 --observable.name=entropy"
     " --observable.shift=-1", "observable.shift"),
    ("stationary-gap", f"{Q2} --observable.name=entropy --observable.shift=0",
     "observable.shift"),
    ("solve", f"{ERG} --init.mu=0.5,0.6", "init.mu"),
    ("stationary-gap", f"{Q2} --init.mu=0.2,0.2", "init.mu"),
    ("weak-error", f"{SMALL_WE} --init.mu=-0.5,1.5", "init.mu"),
    ("solve", "--model.name=", "model.name"),
    ("solve", f"{ERG} --run.seed=x", "run.seed"),
    # seeds outside [0, 2**64) and fewer than one worker: each used to run,
    # 2**64 with the draws of seed 0
    ("certify", f"{ERG} --run.seed=-1", "run.seed"),
    ("certify", f"{ERG} --run.seed=18446744073709551616", "run.seed"),
    ("certify", f"{ERG} --seed -1", "need an integer 0 <= --seed"),
    ("certify", f"{ERG} --seed 18446744073709551616",
     "need an integer 0 <= --seed"),
    ("simulate", "--config=CONFIGS/weak_error.cfg --run.N=8 --run.R=200"
     " --threads -3", "need an integer --threads >= 1"),
    ("simulate", f"{ERG} --run.R=5 --threads 0",
     "need an integer --threads >= 1"),
]
NO_WORK = ["stationary_distribution", "check_condition1", "check_condition2",
           "solve_flow", "solve_kolmogorov", "master_residual_scan",
           "estimate_decay", "mc_observable", "gillespie_batch", "simulate"]
# any string names an observable; make_observable refuses an unknown name
# and lists the known ones
NO_REFUSAL = {"observable.name"}


@pytest.mark.parametrize("command, args, refusal", REFUSALS)
def test_config_values_refused_by_key_before_any_work(
        command, args, refusal, tmp_path, capfd, monkeypatch):
    for name in NO_WORK:
        monkeypatch.setattr(harness, name,
                            lambda *a, name=name, **k: pytest.fail(name + " ran"))
    argv = [a.replace("CONFIGS", str(ROOT / "configs")) for a in args.split()]
    assert main([command, *argv, "--out", str(tmp_path / "o")]) == 1
    err = capfd.readouterr().err
    start = f"config key {refusal}:" if " " not in refusal else refusal
    assert err.startswith("mfchain: error: " + start), err
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "o" / "report.json")


def test_refusal_table_covers_every_config_key():
    # a key read with cfg_value and no row above fails here
    tree = ast.parse((ROOT / "src" / "mfchain" / "harness.py").read_text())
    read = {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "cfg_value"
            and isinstance(node.args[1], ast.Constant)}
    refused = {refusal for _, _, refusal in REFUSALS}
    assert len(read) > 20
    assert read - refused == NO_REFUSAL


def test_integers_are_checked_only_in_errors():
    # a count check is errors.check_count, never one written by hand: no
    # other module names numbers.Integral
    for path in sorted((ROOT / "src" / "mfchain").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert ("Integral" in names) == (path.name == "errors.py"), path.name


def test_parse_dotted():
    assert parse_dotted(["--run.R=500"]) == {"run.R": "500"}
    assert parse_dotted(["--run.R", "500", "--model.name=zero"]) == {
        "run.R": "500",
        "model.name": "zero",
    }
    with pytest.raises(InputError, match="missing value"):
        parse_dotted(["--run.R"])
    with pytest.raises(InputError, match="unrecognized"):
        parse_dotted(["--verbose"])
    with pytest.raises(InputError, match="unrecognized"):
        parse_dotted(["stray"])


def test_commands_registry():
    assert set(COMMANDS) == {
        "solve", "simulate", "weak-error", "stationary-gap",
        "certify", "master-check", "decay-fit",
    }


# --- end-to-end CLI runs -----------------------------------------------------


def test_cli_solve_and_rerun_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["solve", "--model.name=example_slow_conv", "--init.mu=1,0",
            "--run.horizon=5", "--run.spacing=0.5", "--seed", "3"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for fname in ("trajectory.csv", "report.json"):
        b1 = open(os.path.join(out1, fname), "rb").read()
        b2 = open(os.path.join(out2, fname), "rb").read()
        assert b1 == b2
    lines = open(os.path.join(out1, "trajectory.csv")).read().splitlines()
    assert lines[0] == "t,m_1,m_2"
    rep = json.load(open(os.path.join(out1, "report.json")))
    assert rep["seed"] == 3
    assert rep["exit_code"] == 0
    assert rep["final_state"][0] == pytest.approx(0.5 + 1 / (2 * 9.0), abs=1e-9)


def test_cli_seed_resolution(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("model.name = zero\nmodel.d = 2\nrun.seed = 7\n"
                       "run.horizon = 1\nrun.spacing = 0.5\n")
    out = str(tmp_path / "o")
    assert main(["solve", "--config", str(cfgfile), "--out", out]) == 0
    assert json.load(open(os.path.join(out, "report.json")))["seed"] == 7
    assert main(["solve", "--config", str(cfgfile), "--out", out,
                 "--seed", "9"]) == 0
    assert json.load(open(os.path.join(out, "report.json")))["seed"] == 9
    # the largest seed is 2**64 - 1
    assert main(["solve", "--config", str(cfgfile), "--out", out,
                 "--seed", str(2**64 - 1)]) == 0
    assert json.load(open(os.path.join(out, "report.json")))["seed"] == 2**64 - 1


@pytest.mark.parametrize("argv, flag", [
    (["certify", "--model.name=weak_interaction", "--seed", "-1"], "--seed"),
    (["certify", "--model.name=weak_interaction", "--seed", str(2**64)],
     "--seed"),
    (["simulate", "--config", str(ROOT / "configs" / "weak_error.cfg"),
      "--run.N=8", "--run.R=200", "--threads", "-3"], "--threads"),
])
def test_cli_refuses_seeds_and_workers_by_flag(argv, flag, tmp_path):
    # each of these ran and exited 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-m", "mfchain", *argv, "--out",
                          str(tmp_path / "o")], env=env, capture_output=True,
                         text=True)
    assert res.returncode == 1
    assert res.stderr.startswith("mfchain: error: need an integer")
    assert flag in res.stderr and res.stderr.count("\n") == 1
    assert not (tmp_path / "o" / "report.json").exists()


def test_cli_simulate_outputs(tmp_path):
    out = str(tmp_path / "sim")
    rc = main(["simulate", "--model.name=weak_interaction", "--init.mu=0.9,0.1",
               "--run.N=30", "--run.horizon=2", "--run.spacing=1",
               "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "path.csv")).read().splitlines()
    assert lines[0] == "t,count_1,count_2"
    assert len(lines) == 4

    out2 = str(tmp_path / "mc")
    rc = main(["simulate", "--model.name=weak_interaction", "--init.mu=0.9,0.1",
               "--run.N=30", "--run.R=5", "--run.horizon=2",
               "--run.spacing=1", "--observable.target=0.5,0.5",
               "--out", out2])
    assert rc == 0
    lines = open(os.path.join(out2, "mc.csv")).read().splitlines()
    assert lines[0] == "t,mean,stderr,R,N,seed"


def test_cli_error_paths(tmp_path, capsys):
    assert main(["solve", "--model.name=not_a_model",
                 "--out", str(tmp_path / "x")]) == 1
    assert "unknown model" in capsys.readouterr().err
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["solve", "--badflag", "--out", str(tmp_path / "y")]) == 1
    assert "unrecognized" in capsys.readouterr().err
    # usage errors are bad input (exit 1), not argparse's 2 ("inconclusive")
    for argv, words in ((["bogus"], "invalid choice"),
                        ([], "required"),
                        (["solve", "--threads=x"], "invalid int value")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("mfchain: error:") and err.count("\n") == 1
        assert words in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


MALFORMED = [
    # the empirical measure of N = 0 particles is 0/0; this used to hang
    "simulate --model.name=weak_interaction --run.N=0 --run.horizon=1",
    "simulate --model.name=weak_interaction --run.R=0 --run.horizon=1",
    "master-check --model.name=weak_interaction --master.cases=0",
    "decay-fit --model.name=weak_interaction --decay.horizon=0",
    "decay-fit --model.name=weak_interaction --decay.random=-1",
    "solve --model.name=weak_interaction --init.mu=0.5,0.5,0",
    "solve --model.name=constant --model.Q=1,2;3",
    "solve --model.name=weak_interaction --model.foo=1",
    "solve --model.name=weak_interaction --run.horizon=abc",
    # grids whose point count numpy cannot size, or overflows to infinity
    "solve --model.name=weak_interaction --run.spacing=1e-300",
    "solve --model.name=weak_interaction --run.horizon=1e300",
    "solve --model.name=weak_interaction --run.spacing=5e-324",
    "decay-fit --model.name=weak_interaction --decay.spacing=1e-300",
    # 8e17 bytes: more than any address space, so the allocation fails at once
    "solve --model.name=weak_interaction --run.horizon=1 --run.spacing=1e-17",
    # refused before the certification bundle runs
    "weak-error --model.name=weak_interaction --observable.target=0.5,0.5 --run.R=0",
    # one replication has no standard error: it used to give a conclusive
    # verdict with half-widths 0.0
    "weak-error --model.name=weak_interaction --observable.target=0.5,0.5"
    " --run.R=1 --run.Ns=8,16 --run.horizon=2",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.R=1",
    # particle counts below 1 or with a count lattice above MAX_LATTICE,
    # refused before any certification or stationary search; a huge run.N
    # used to end in a raw memory error from sample_initial
    "weak-error --model.name=weak_interaction --observable.target=0.5,0.5"
    " --run.Ns=0,8",
    "weak-error --model.name=weak_interaction --observable.target=0.5,0.5"
    " --run.Ns=8,300000",
    "simulate --model.name=weak_interaction --run.N=100000000000 --run.horizon=1",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.Ns=0",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.Ns=10,300000",
    # substep counts far beyond MAX_SUBSTEPS: an OverflowError traceback at
    # 5e-324, and solves that ran until killed at 1e-9
    "solve --model.name=weak_interaction --run.step=5e-324",
    "solve --model.name=weak_interaction --run.step=1e-9",
    "certify --model.name=weak_interaction --run.step=1e-9",
    # expected event counts far beyond MAX_EVENTS: these used to run until
    # killed
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.window=1e300"
    " --gap.R=2 --gap.Ns=10",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.burn=1e300"
    " --gap.R=2 --gap.Ns=10",
    "simulate --model.name=weak_interaction --run.N=100 --run.horizon=1e12"
    " --run.spacing=1e11",
    "master-check --model.name=weak_interaction --observable.target=0.5,0.5"
    " --master.tmin=5 --master.tmax=1",
    # a NaN tolerance used to end as a certified failure (exit 3)
    "master-check --model.name=weak_interaction --observable.target=0.5,0.5"
    " --master.tol=nan",
    # an averaging window that is empty or unbounded, refused in config
    # terms before the stationary search and the decay probe
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.burn=-1",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.burn=inf",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.window=0",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.window=-5",
    "stationary-gap --model.name=constant --model.Q=-1,1;1,-1 --gap.window=nan",
    # a condition-2 lattice above MAX_LATTICE: a 37 GiB allocation used to
    # end in a raw memory error
    "certify --model.name=constant --model.Q=-1,0.5,0.5;0.5,-1,0.5;0.5,0.5,-1"
    " --certify.resolution=100000",
]


@pytest.mark.parametrize("line", MALFORMED)
def test_cli_rejects_malformed_input(line, tmp_path, capfd):
    assert main(line.split() + ["--out", str(tmp_path / "o")]) == 1
    err = capfd.readouterr().err
    assert err.startswith("mfchain: error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "o" / "report.json")


# small sizes for the commands, then overrides drawn from malformed and
# edge values, so every run ends in well under a second
FUZZ_SIZES = {
    "solve": st.fixed_dictionaries({
        "run.horizon": st.sampled_from(["0.5", "1", "2"]),
        "run.spacing": st.sampled_from(["0.25", "0.5"])}),
    "simulate": st.fixed_dictionaries({
        "run.N": st.sampled_from(["1", "2", "8"]),
        "run.R": st.sampled_from(["1", "2", "3"]),
        "run.horizon": st.sampled_from(["0.5", "2"]),
        "run.spacing": st.sampled_from(["0.25", "0.5"])}),
    "decay-fit": st.fixed_dictionaries({
        "decay.horizon": st.sampled_from(["1", "2"]),
        "decay.random": st.sampled_from(["0", "2"])}),
    "certify": st.fixed_dictionaries({
        "decay.horizon": st.sampled_from(["1", "2"]),
        "certify.pairs": st.sampled_from(["1", "50"]),
        "certify.resolution": st.sampled_from(["2", "5"])}),
    "master-check": st.fixed_dictionaries({
        "master.cases": st.sampled_from(["1", "3"]),
        "master.tmax": st.sampled_from(["0.5", "1"])}),
    "stationary-gap": st.fixed_dictionaries({
        "gap.R": st.sampled_from(["1", "20"]),
        "gap.Ns": st.sampled_from(["2", "2,5"]),
        "gap.window": st.sampled_from(["0.5", "1"]),
        "gap.burn": st.sampled_from(["0", "0.5"]),
        "decay.horizon": st.sampled_from(["1", "2"]),
        "decay.random": st.just("0")}),
    "weak-error": st.fixed_dictionaries({
        "run.R": st.sampled_from(["1", "20", "50"]),
        "run.Ns": st.just("2,4"),
        "run.horizon": st.sampled_from(["0.5", "1"]),
        "run.spacing": st.sampled_from(["0.25", "0.5"]),
        "decay.horizon": st.sampled_from(["1", "2"]),
        "certify.pairs": st.just("50"),
        "certify.resolution": st.just("5")}),
}
FUZZ_KEYS = ["run.N", "run.R", "run.horizon", "run.spacing", "run.step",
             "init.mu", "model.a", "model.eps", "model.d", "model.Q",
             "model.foo", "observable.name", "observable.target",
             "observable.shift", "decay.horizon", "decay.spacing",
             "decay.random", "certify.pairs", "certify.resolution", "run.Ns",
             "master.cases", "master.tmin", "master.tmax", "master.floor",
             "master.tol", "gap.burn", "gap.window"]
FUZZ_VALUES = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1e400", "0.3",
               "2", "0.5,0.5", "0.5,0.5,0", "1,0", "nan,1", "-1,1;1,-1",
               "1,2;3", "0,0;0,0", "sq_dist", "linear", "entropy"]


def assert_exit_contract(argv):
    """Run the CLI; it must end in 0-3, never a traceback, and exit 1 with
    exactly one `mfchain: error:` line or write its report."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", out])
        wrote = os.path.exists(os.path.join(out, "report.json"))
    # an unexpected exception would have propagated out of main
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("mfchain: error:"), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert wrote


@given(
    command=st.sampled_from(sorted(FUZZ_SIZES)),
    name=st.sampled_from(sorted(models._REGISTRY)),
    data=st.data(),
    overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                              st.sampled_from(FUZZ_VALUES), max_size=3),
)
def test_cli_fuzz_exit_codes(command, name, data, overrides):
    cfg = {"model.name": name, **data.draw(FUZZ_SIZES[command]), **overrides}
    assert_exit_contract([command] + [f"--{k}={v}" for k, v in cfg.items()])


@given(
    model=st.sampled_from([
        ("--model.name=constant", "--model.Q=-1,1;2,-2"),
        ("--model.name=constant", "--model.Q=-1,1;0,0"),    # rows die
        ("--model.name=zero",),                             # all rows dead
        ("--model.name=weak_interaction",),
    ]),
    sizes=FUZZ_SIZES["stationary-gap"],
    force=st.booleans(),
    overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                              st.sampled_from(FUZZ_VALUES), max_size=2),
)
def test_cli_fuzz_stationary_gap(model, sizes, force, overrides):
    # models whose runs reach the kernel's time-average mode, including
    # rows with no outgoing rate that retire before their first event
    cfg = {**sizes, **overrides}
    assert_exit_contract(["stationary-gap", *model]
                         + [f"--{k}={v}" for k, v in cfg.items()]
                         + (["--force"] if force else []))


def test_certify_reports_the_library_records(tmp_path):
    # condition1, condition2 and decay in report.json are what the checks
    # return, through a JSON round trip: the harness copies no field
    out = tmp_path / "w"
    assert main(["certify", "--model.name=weak_interaction", "--seed=7",
                 "--decay.horizon=6", "--certify.pairs=50",
                 "--certify.resolution=5", "--out", str(out)]) == 0
    rep = json.load(open(out / "report.json"))
    model = weak_interaction()
    library = {
        "condition1": check_condition1(model, n_pairs=50, seed=7),
        "condition2": check_condition2(model, resolution=5),
        "decay": estimate_decay(model, horizon=6.0, seed=7),
    }
    assert {k: rep[k] for k in library} == json.loads(
        json.dumps(library, default=json_default))


def test_flagged_and_fitted_decay_records_share_their_keys():
    # a probe that leaves the valid region (example_chaos) is recorded with
    # the six keys of a fitted one
    flagged = harness.decay_probe(example_chaos(), 0,
                                  harness.decay_settings({}))
    fitted = harness.decay_probe(weak_interaction(), 0,
                                 harness.decay_settings({"decay.horizon": "6"}))
    assert flagged["flagged"] and not fitted["flagged"]
    assert list(flagged) == list(fitted) == [
        "lambda", "c2", "per_sample_rates", "flagged", "horizon", "note"]


def test_cli_certify_chaos_records_region_exit(tmp_path):
    # the decay probe leaves the model's valid region at once; that is
    # recorded under decay, and condition 2's witness decides the verdict
    out = tmp_path / "chaos"
    assert main(["certify", "--model.name=example_chaos", "--out", str(out)]) == 3
    rep = json.load(open(out / "report.json"))
    dec = rep["decay"]
    assert dec["lambda"] is None and dec["c2"] is None and dec["flagged"]
    assert "valid region" in dec["note"] and "min_x mu_x >= 0.01" in dec["note"]
    assert "t=0.01" in dec["note"]
    assert rep["verdict"] == "fail"
    assert rep["condition2"]["margin"] == pytest.approx(-150.6, abs=0.05)
    assert (rep["condition2"]["witness"]["x"], rep["condition2"]["witness"]["y"]) == (1, 4)


def test_cli_certify_three_regimes(tmp_path):
    speed = ["--decay.horizon=6"]
    rc_pass = main(["certify", "--model.name=weak_interaction",
                    "--out", str(tmp_path / "w")] + speed)
    rc_fail = main(["certify", "--model.name=example_non_erg",
                    "--out", str(tmp_path / "n")] + speed)
    rc_inc = main(["certify", "--model.name=example_slow_conv",
                   "--out", str(tmp_path / "s")] + speed)
    assert (rc_pass, rc_fail, rc_inc) == (0, 3, 2)
    rep = json.load(open(tmp_path / "n" / "report.json"))
    assert rep["verdict"] == "fail"
    assert rep["condition2"]["witness"]["mu"] == [0.5, 0.5]
    assert rep["condition2"]["margin"] <= -0.9
    rep_w = json.load(open(tmp_path / "w" / "report.json"))
    assert rep_w["condition1"]["verdict"] == "pass"
    assert rep_w["decay"]["lambda"] == pytest.approx(2.0, abs=0.05)


def test_certify_records_each_constant_once(tmp_path):
    # condition 1 keeps its own K and L, condition 2 has no constants, and
    # lambda and c2 are recorded under decay only
    out = tmp_path / "w"
    assert main(["certify", "--model.name=weak_interaction",
                 "--decay.horizon=6", "--out", str(out)]) == 0
    rep = json.load(open(out / "report.json"))
    assert rep["condition1"]["estimated_constants"] == {"K": 0.25, "L": 1.0}
    assert rep["condition2"]["estimated_constants"] == {}
    assert "modulus" not in rep["condition2"]["notes"]
    assert rep["decay"]["lambda"] == pytest.approx(2.0, abs=0.05)
    assert rep["decay"]["c2"] > 0
    text = json.dumps({k: rep[k] for k in ("condition1", "condition2")})
    assert '"lambda"' not in text and '"c2"' not in text


def test_cli_master_check(tmp_path):
    base = ["master-check", "--model.name=weak_interaction",
            "--observable.target=0.5,0.5", "--master.cases=10"]
    out = str(tmp_path / "ok")
    assert main(base + ["--out", out]) == 0
    lines = open(os.path.join(out, "residuals.csv")).read().splitlines()
    assert lines[0] == "t,mu_1,mu_2,residual"
    assert len(lines) == 11
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["max_residual"] < 1e-8
    # an absurd tolerance turns the same scan into a certified failure
    assert main(base + ["--master.tol=1e-30",
                        "--out", str(tmp_path / "bad")]) == 3


def test_cli_decay_fit(tmp_path):
    out = str(tmp_path / "d")
    assert main(["decay-fit", "--model.name=weak_interaction",
                 "--decay.horizon=6", "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["lambda"] == pytest.approx(2.0, abs=0.05)
    assert not rep["flagged"]
    assert main(["decay-fit", "--model.name=example_non_erg",
                 "--decay.horizon=6", "--out", str(tmp_path / "d2")]) == 2


def test_cli_decay_fit_records_region_exit(tmp_path):
    # the same probe as certify's: a region exit is a flagged record, exit 2
    out = tmp_path / "chaos"
    assert main(["decay-fit", "--model.name=example_chaos", "--out", str(out)]) == 2
    rep = json.load(open(out / "report.json"))
    assert rep["lambda"] is None and rep["c2"] is None and rep["flagged"]
    assert "min_x mu_x >= 0.01" in rep["note"] and "t=0.01" in rep["note"]


def test_certify_and_decay_fit_share_one_probe(tmp_path):
    base = ["--model.name=weak_interaction", "--decay.horizon=6",
            "--certify.pairs=50", "--certify.resolution=5"]
    step = ["--decay.spacing=0.5", "--run.step=0.05"]

    def report(command, extra, name):
        main([command] + base + extra + ["--out", str(tmp_path / name)])
        return json.load(open(tmp_path / name / "report.json"))

    fit = report("decay-fit", step, "fit")
    cert = report("certify", step, "cert")["decay"]
    default = report("certify", [], "default")["decay"]
    assert cert == {k: fit[k] for k in cert}                # lambda bitwise
    # the settings reach certify's probe: every sample's rate moves (the
    # smallest, lambda, is 2 to the last bits at both settings)
    assert all(a != b for a, b in zip(cert["per_sample_rates"],
                                      default["per_sample_rates"]))


def test_reported_horizons_are_the_last_grid_time(tmp_path):
    # horizon 1 at spacing 0.3 records up to 0.9; the reports say so
    assert main(["weak-error", "--model.name=weak_interaction", "--run.R=20",
                 "--run.Ns=2,4", "--run.horizon=1", "--run.spacing=0.3",
                 "--decay.horizon=1", "--decay.spacing=0.3",
                 "--out", str(tmp_path)]) in (0, 2)
    rep = json.load(open(tmp_path / "report.json"))
    end = rep["grid"][-1]
    assert end == 0.3 * 3 == rep["tail"]["horizon"]
    lam = rep["certificates"]["decay"]["lambda"]
    assert rep["tail"]["decay_factor"] == np.exp(-lam * end)
    assert rep["certificates"]["decay"]["horizon"] == end


def test_stationary_gap_forced_past_region_exit(tmp_path, monkeypatch):
    # the barycentre is an unstable rest point, so the decay probe leaves
    # the valid region; --force then falls back to the default burn-in
    def unstable(k: float = 2.2):
        def rates(mu):
            s = k * (np.asarray(mu, dtype=float)[..., 0] - 0.5)
            A = np.zeros(np.shape(mu)[:-1] + (2, 2))
            A[..., 0, 1], A[..., 1, 0] = 1 - s, 1 + s
            A[..., 0, 0], A[..., 1, 1] = s - 1, -1 - s
            return A
        return models.Model(name="unstable", d=2, rates=rates,
                            valid_region=models.ValidRegion("min_x mu_x >= 0.2",
                                                            0.2))

    monkeypatch.setitem(models._REGISTRY, "unstable", unstable)
    base = ["stationary-gap", "--model.name=unstable",
            "--observable.target=0.5,0.5", "--gap.R=20", "--gap.Ns=2000",
            "--gap.window=1", "--out", str(tmp_path)]
    assert main(base) == 1
    assert main(base + ["--force"]) in (0, 2)
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["lambda"] is None and rep["burn"] == 5.0


def test_weak_error_refuses_uncertified(tmp_path, capsys):
    args = ["weak-error", "--model.name=example_non_erg",
            "--observable.target=0.25,0.75", "--init.mu=0.2,0.8",
            "--run.horizon=2", "--run.spacing=0.5", "--run.R=100",
            "--run.Ns=8,16", "--decay.horizon=5"]
    rc = main(args + ["--out", str(tmp_path / "refused")])
    assert rc == 1
    assert "certificate" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "refused" / "report.json")

    rc = main(args + ["--force", "--out", str(tmp_path / "forced")])
    assert rc in (0, 2)
    rep = json.load(open(tmp_path / "forced" / "report.json"))
    assert rep["certificates"]["forced"] is True
    assert rep["certificates"]["certified"] is False


def bump() -> models.Model:
    """Two states, alpha_12 = 1 + 2 exp(-((mu_1 - 0.39) / 0.002)^2) and
    alpha_21 = 1.  The narrow bump makes the drift bistable (stable rest
    points near mu_1 = 0.3878 and 0.5), yet A's off-diagonal margin is
    positive at every point of the default 51-point lattice."""
    def p(u):
        return 1.0 + 2.0 * np.exp(-((u - 0.39) / 0.002) ** 2)

    def dp(u):
        return -2.0 * (u - 0.39) / 0.002**2 * (p(u) - 1.0)

    return models._two_state_poly("bump", p, dp, np.ones_like, np.zeros_like,
                                  M=3.0, L=1.0)


def test_bump_is_not_certified(tmp_path, capsys, monkeypatch):
    # a positive lattice minimum is not a proof: bump's true minimum margin
    # is about -202 at mu_1 = 0.3914, between the lattice points
    monkeypatch.setitem(models._REGISTRY, "bump", bump)
    assert main(["certify", "--model.name=bump", "--decay.horizon=5",
                 "--out", str(tmp_path / "certify")]) == 2
    rep = json.load(open(tmp_path / "certify" / "report.json"))
    assert rep["condition1"]["verdict"] == "fail"
    assert rep["condition2"]["verdict"] == "inconclusive"
    assert rep["condition2"]["certification"] == "grid-scan"
    assert rep["condition2"]["margin"] > 0
    # a lattice fine enough to land on the dip refutes condition 2
    fine = check_condition2(bump(), resolution=5000)
    assert fine["verdict"] == "fail" and fine["margin"] < -200
    assert fine["witness"]["mu"] == [0.3914, 0.6086]

    args = ["weak-error", "--model.name=bump", "--observable.target=0.5,0.5",
            "--init.mu=0.45,0.55", "--run.horizon=2", "--run.spacing=0.5",
            "--run.R=100", "--run.Ns=8,16", "--decay.horizon=5",
            "--out", str(tmp_path / "refused")]
    capsys.readouterr()
    assert main(args) == 1
    assert "certificate" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "refused" / "report.json")


def test_weak_error_thread_and_rerun_identity(tmp_path):
    base = ["weak-error", "--model.name=weak_interaction",
            "--observable.target=0.5,0.5", "--init.mu=0.9,0.1",
            "--run.horizon=3", "--run.spacing=0.5", "--run.R=300",
            "--run.Ns=8,16", "--decay.horizon=5", "--seed", "4"]
    out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
    rc1 = main(base + ["--threads", "1", "--out", out1])
    rc8 = main(base + ["--threads", "8", "--out", out8])
    assert rc1 == rc8
    assert rc1 in (0, 2)
    for fname in ("report.json", "mc_N8.csv", "mc_N16.csv"):
        b1 = open(os.path.join(out1, fname), "rb").read()
        b8 = open(os.path.join(out8, fname), "rb").read()
        assert b1 == b8
    rep = json.load(open(os.path.join(out1, "report.json")))
    assert rep["certificates"]["certified"] is True
    assert rep["certificates"]["forced"] is False
    # exact decomposition: T1 + T2 equals the total error on every grid point
    for rec in rep["per_N"]:
        t1 = np.array(rec["T1_curve"])
        t2 = np.array(rec["T2_curve"])
        err = np.array(rec["error_curve"])
        assert np.abs(t1 + t2 - err).max() < 1e-12
    lines = open(os.path.join(out1, "mc_N8.csv")).read().splitlines()
    assert lines[0] == "t,mean,stderr,R,N,seed"
    assert len(lines) == 8                                 # 7 grid points
    # simulate and weak-error share one grid estimator and mc.csv writer:
    # same seed and config, same bytes
    out_sim = str(tmp_path / "sim")
    assert main(["simulate"] + base[1:] + ["--run.N=8", "--out", out_sim]) == 0
    b_sim = open(os.path.join(out_sim, "mc.csv"), "rb").read()
    assert b_sim == open(os.path.join(out1, "mc_N8.csv"), "rb").read()


def test_weak_error_T2_is_the_mean_flow_from_the_starts(tmp_path):
    # T2 = E[U(t, mu^N_0)] - U(t, mu0), the flow observable averaged over
    # the R sampled starts: recomputed here from the starts themselves
    R, seed, Ns = 300, 4, (8, 16)
    cfg = {"model.name": "weak_interaction", "observable.target": "0.5,0.5",
           "init.mu": "0.9,0.1", "run.horizon": "3", "run.spacing": "0.5",
           "run.R": str(R), "run.Ns": "8,16", "decay.horizon": "5"}
    out = tmp_path / "we"
    assert main(["weak-error", *[f"--{k}={v}" for k, v in cfg.items()],
                 "--seed", str(seed), "--out", str(out)]) in (0, 2)
    rep = json.load(open(out / "report.json"))
    model = model_from_config(cfg)
    phi = observable_from_config(cfg, model)
    mu0 = initial_measure(cfg, model)
    times = make_grid(3.0, 0.5)
    u_mu0 = phi(solve_flow(model, mu0[None, :], times)[0][0])
    for N, rec in zip(Ns, rep["per_N"]):
        counts0 = sample_initial(mu0, N, seed, np.arange(R))
        uniq, inv = np.unique(counts0, axis=0, return_inverse=True)
        U = phi(solve_flow(model, uniq / N, times)[0])       # (uq, T)
        expected = U[inv].mean(axis=0) - u_mu0
        assert rec["N"] == N
        assert np.abs(np.array(rec["T2_curve"]) - expected).max() <= 1e-15


def test_stationary_gap_constant_chain(tmp_path):
    out = str(tmp_path / "gap")
    rc = main(["stationary-gap", "--model.name=constant",
               "--model.Q=-1,1;1,-1", "--gap.R=150", "--gap.Ns=10,50",
               "--gap.window=2", "--decay.horizon=6", "--out", out])
    assert rc in (0, 2)
    rep = json.load(open(os.path.join(out, "report.json")))
    assert np.allclose(rep["nu_infinity"], [0.5, 0.5])
    # iid multinomial at stationarity: E|mu - nu|_2^2 = 0.5 / N
    for rec in rep["per_N"]:
        z = (rec["gap"] - 0.5 / rec["N"]) / max(rec["stderr"], 1e-12)
        assert abs(z) < 5.0
    lines = open(os.path.join(out, "gap.csv")).read().splitlines()
    assert lines[0] == "N,gap,stderr,R,window,burn"
    assert len(lines) == 3


def test_stationary_gap_measures_from_its_own_nu(tmp_path):
    # example_non_erg rests at mu_1 = 1/4, 1/2 and 3/4; the search from
    # init.mu finds 1/4, and the default sq_dist target is that same nu
    out = str(tmp_path / "gap")
    assert main(["stationary-gap", "--model.name=example_non_erg",
                 "--init.mu=0.2,0.8", "--gap.R=50", "--gap.Ns=10,100",
                 "--gap.burn=5", "--force", "--out", out]) in (0, 2)
    rep = json.load(open(os.path.join(out, "report.json")))
    assert np.allclose(rep["nu_infinity"], [0.25, 0.75])
    assert rep["phi_at_nu"] == 0.0


def _count_stationary_searches(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return stationary_distribution(*args, **kwargs)

    monkeypatch.setattr(harness, "stationary_distribution", counted)
    return calls


def test_stationary_gap_searches_once_for_nu_and_target(tmp_path, monkeypatch):
    # with observable.target unset, sq_dist's target is the nu the command
    # already found; the search used to run a second time for it
    calls = _count_stationary_searches(monkeypatch)
    out = str(tmp_path / "gap")
    assert main(["stationary-gap", "--model.name=example_non_erg",
                 "--init.mu=0.2,0.8", "--gap.R=20", "--gap.Ns=10",
                 "--gap.window=1", "--gap.burn=1", "--decay.horizon=2",
                 "--force", "--out", out]) in (0, 2)
    assert len(calls) == 1
    assert json.load(open(os.path.join(out, "report.json")))["phi_at_nu"] == 0.0


def test_stationary_gap_thread_identity(tmp_path):
    # R > 5000 gives two chunks, so the threads really split the work
    base = ["stationary-gap", "--model.name=constant", "--model.Q=-1,1;1,-1",
            "--gap.R=5001", "--gap.Ns=10", "--gap.burn=1", "--gap.window=1",
            "--decay.horizon=6"]
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    rc1 = main(base + ["--threads", "1", "--out", out1])
    rc2 = main(base + ["--threads", "2", "--out", out2])
    assert rc1 == rc2 and rc1 in (0, 2)
    for fname in ("report.json", "gap.csv"):
        b1 = open(os.path.join(out1, fname), "rb").read()
        b2 = open(os.path.join(out2, fname), "rb").read()
        assert b1 == b2



@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_reproduces_committed_mc_bytes(tmp_path, threads):
    # the weak-error study's N = 8 Monte Carlo: four 5000-row chunks, in
    # one process or in forked workers, give the committed bytes
    out = str(tmp_path / "sim")
    rc = main(["simulate", "--config", str(ROOT / "configs" / "weak_error.cfg"),
               "--run.N=8", "--seed", "12345", "--threads", threads,
               "--out", out])
    assert rc == 0
    committed = ROOT / "results" / "weak_error" / "mc_N8.csv"
    assert open(os.path.join(out, "mc.csv"), "rb").read() == committed.read_bytes()


# each study as its script runs it: (results/ directory, command line)
STUDIES = [
    *[(f"certify_{name}", ["certify", f"--model.name={name}"])
      for name in ("weak_interaction", "example_slow_conv", "example_non_erg")],
    ("master_check", ["master-check", "--config",
                      str(ROOT / "configs" / "master_check.cfg")]),
    ("stationary_gap", ["stationary-gap", "--config",
                        str(ROOT / "configs" / "stationary_gap.cfg")]),
]


@pytest.mark.parametrize("study, argv", STUDIES, ids=[s for s, _ in STUDIES])
def test_study_reproduces_committed_results(study, argv, tmp_path):
    main(argv + ["--out", str(tmp_path)])
    committed = sorted((ROOT / "results" / study).iterdir())
    assert [p.name for p in committed] == sorted(os.listdir(tmp_path))
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_master_cases_reproduce_committed_columns():
    # run_master_check writes these cases; the committed scan is at seed 0
    cfg = load_config(str(ROOT / "configs" / "master_check.cfg"))
    cases, t_range = master_cases(cfg, model_from_config(cfg), 0)
    committed = ROOT / "results" / "master_check" / "residuals.csv"
    rows = [[float(v) for v in line.split(",")[:3]]
            for line in committed.read_text().splitlines()[1:]]
    assert [[t, *mu] for t, mu in cases] == rows
    assert t_range == [0.5, 3.0]


def test_readme_library_tour_runs():
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        ns: dict = {}
        exec(compile(block, str(readme), "exec"), ns)
    assert np.allclose(ns["nu"], [0.5, 0.5])
    assert ns["dec"]["lambda"] == pytest.approx(2.0, abs=0.05)
    assert ns["states"].shape == (81, 2)
    assert ns["counts"].shape == (81, 2) and np.all(ns["counts"].sum(axis=1) == 100)
    assert ns["n_events"] > 0
    assert ns["mean"].shape == ns["stderr"].shape == (81,)
    assert np.all(ns["stderr"][1:] > 0)


def test_public_surface_resolves():
    # a name left in __all__ after its definition is gone fails here
    import mfchain
    assert len(set(mfchain.__all__)) == len(mfchain.__all__)
    missing = [n for n in mfchain.__all__ if not hasattr(mfchain, n)]
    assert missing == []
    ns: dict = {}
    exec("from mfchain import *", ns)
    assert set(mfchain.__all__) <= set(ns)
