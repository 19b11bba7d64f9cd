"""Layer tracing for the benchmark, installed from outside the library.

The tracer wraps public functions where their callers look them up
(module globals for `from x import y` callers, the CLI's command table,
the model registry) and records one span per call: name, thread,
parent span, start, end.  High-frequency leaves (`Model.rates`,
`rng.uniforms`, the observable) are aggregated on the fly instead of
stored, so a pass with a million rate evaluations stays small.

A target that no longer exists is recorded in `absent` and skipped, so a
rename inside the library shows up as a missing layer, not a crash.
`restore()` puts every original object back.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
from time import perf_counter

import numpy as np

MODULES = ("mfchain", "mfchain.rng", "mfchain.simplex", "mfchain.models",
           "mfchain.kolmogorov", "mfchain.linearized", "mfchain.master",
           "mfchain.particles", "mfchain.harness", "mfchain.cli")

# Model factories of the zoo, re-registered under the same names so every
# Model the CLI builds counts its rate (and rate-derivative) evaluations.
ZOO = ("weak_interaction", "example_slow_conv", "example_non_erg", "constant")


def _rows(args, kwargs, result):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-1], dtype=np.int64)), 0


def _draws(args, kwargs, result):
    return int(np.size(result)), 0


def _events(args, kwargs, result):
    ev = result["events"]
    return int(ev.sum()), len(ev) * int(ev.max(initial=0))


def _bytes(args, kwargs, result):
    return os.path.getsize(args[0]), 0


# (span name, call sites as (module, attribute), work counter, hot leaf).
# `rng.uniforms` is the one target the package does not re-export; it is
# the public draw function of the rng module and the RNG layer's only door.
TARGETS = (
    ("rng.uniforms", (("mfchain.rng", "uniforms"),), _draws, True),
    ("particles.gillespie_batch", (("mfchain.particles", "gillespie_batch"),
                                   ("mfchain.harness", "gillespie_batch")),
     _events, False),
    ("particles.sample_initial", (("mfchain.particles", "sample_initial"),
                                  ("mfchain.harness", "sample_initial")),
     None, False),
    ("particles.mc_observable", (("mfchain.harness", "mc_observable"),),
     None, False),
    ("kolmogorov.solve_kolmogorov", (("mfchain.harness", "solve_kolmogorov"),),
     None, False),
    ("kolmogorov.stationary_distribution",
     (("mfchain.harness", "stationary_distribution"),), None, False),
    ("linearized.estimate_decay", (("mfchain.harness", "estimate_decay"),),
     None, False),
    ("linearized.check_condition1", (("mfchain.harness", "check_condition1"),),
     None, False),
    ("linearized.check_condition2", (("mfchain.harness", "check_condition2"),),
     None, False),
    ("master.master_residual_scan",
     (("mfchain.harness", "master_residual_scan"),), None, False),
    ("harness.certification_bundle",
     (("mfchain.harness", "certification_bundle"),), None, False),
    ("harness.write", (("mfchain.harness", "write_csv"),
                       ("mfchain.harness", "write_json")), _bytes, False),
    ("cli.main", (("mfchain.cli", "main"),), None, False),
)


# What each span name accumulates.  `work` is the target's own count (rows,
# draws, events, bytes); `work2` is Σ rows x max events for gillespie_batch.
FIELDS = ("calls", "busy_s", "self_s", "rhs_evals", "work", "work2")


class _Thread:
    """Per-thread state; only its own thread writes it, so counts are exact."""

    def __init__(self):
        self.stack: list = []
        self.stats: dict = {}
        self.rhs = 0


class Tracer:
    def __init__(self):
        self.threads: dict = {}
        self.spans: list = []       # (id, parent id, thread id, name, t0, t1)
        self.absent: list = []
        self._ids = itertools.count(1)
        self._undo: list = []       # (container, key, original, is_dict)

    # -- recording -------------------------------------------------------

    def _thread(self) -> _Thread:
        tid = threading.get_ident()
        th = self.threads.get(tid)
        if th is None:
            th = self.threads[tid] = _Thread()
        return th

    def rhs_total(self) -> int:
        return sum(th.rhs for th in list(self.threads.values()))

    def wrap(self, name, fn, count=None, hot=False, rates=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            th = tracer._thread()
            if rates:
                th.rhs += 1
            span_id = 0 if hot else next(tracer._ids)
            parent = th.stack[-1][3] if th.stack and not hot else None
            frame = [perf_counter(), 0.0, 0 if hot else tracer.rhs_total(),
                     span_id]
            th.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                th.stack.pop()
                dur = t1 - frame[0]
                if th.stack:
                    th.stack[-1][1] += dur
                st = th.stats.get(name)       # indexed as FIELDS
                if st is None:
                    st = th.stats[name] = [0, 0.0, 0.0, 0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if not hot:
                    st[3] += tracer.rhs_total() - frame[2]
                    tracer.spans.append((span_id, parent, threading.get_ident(),
                                         name, frame[0], t1))
            if count is not None:
                work, work2 = count(args, kwargs, result)
                st[4] += work
                st[5] += work2
            return result

        return traced

    # -- installing ------------------------------------------------------

    def _set(self, container, key, value, is_dict):
        if is_dict:
            self._undo.append((container, key, container[key], True))
            container[key] = value
        else:
            self._undo.append((container, key, getattr(container, key), False))
            setattr(container, key, value)

    def install(self, modules: dict) -> None:
        """Wrap every target found in `modules` (name -> imported module)."""
        for name, sites, count, hot in TARGETS:
            found = [(modules.get(m), a) for m, a in sites
                     if modules.get(m) is not None and hasattr(modules[m], a)]
            if not found:
                self.absent.append(name)
                continue
            wrapped = {}
            for mod, attr in found:
                fn = getattr(mod, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, count, hot)
                self._set(mod, attr, wrapped[id(fn)], False)

        harness = modules.get("mfchain.harness")
        commands = getattr(harness, "COMMANDS", None)
        if isinstance(commands, dict):
            for key, fn in list(commands.items()):
                self._set(commands, key, self.wrap("harness.driver", fn), True)
        else:
            self.absent.append("harness.driver")

        make_obs = getattr(harness, "make_observable", None)
        if make_obs is not None:
            self._set(harness, "make_observable", self._observable_factory(make_obs),
                      False)
        else:
            self.absent.append("simplex.phi")

        models = modules.get("mfchain.models")
        register = getattr(models, "register_model", None)
        factories = [(z, getattr(models, z, None)) for z in ZOO]
        if register is None or any(f is None for _, f in factories):
            self.absent.append("models.rates")
            return
        for zname, factory in factories:
            register(zname, self._model_factory(factory))
            self._undo.append((register, zname, factory, None))

    def _observable_factory(self, make_obs):
        tracer = self

        @functools.wraps(make_obs)
        def traced(*args, **kwargs):
            field = make_obs(*args, **kwargs)
            return dataclasses.replace(
                field, fn=tracer.wrap("simplex.phi", field.fn, hot=True))

        return traced

    def _model_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            model = factory(*args, **kwargs)
            deriv = model.rate_derivative
            return dataclasses.replace(
                model,
                rates=tracer.wrap("models.rates", model.rates, _rows, hot=True,
                                  rates=True),
                rate_derivative=None if deriv is None else tracer.wrap(
                    "models.rate_derivative", deriv, hot=True),
            )

        return traced

    def restore(self) -> None:
        while self._undo:
            container, key, original, is_dict = self._undo.pop()
            if is_dict is None:
                container(key, original)            # register_model(name, factory)
            elif is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- summarising -----------------------------------------------------

    def stats(self) -> dict:
        """Per-name totals over all threads, as {field: value} (see FIELDS)."""
        total: dict = {}
        for th in self.threads.values():
            for name, st in th.stats.items():
                acc = total.setdefault(name, dict.fromkeys(FIELDS, 0))
                for field, v in zip(FIELDS, st):
                    acc[field] += v
        return total

    def root_self_sum(self) -> float:
        """Sum of self times over the span tree under the first `cli.main`
        span's thread, hot leaves included; equals that thread's `cli.main`
        time when spans nest properly."""
        roots = [s for s in self.spans if s[3] == "cli.main"]
        if not roots:
            return 0.0
        main = self.threads[roots[0][2]].stats
        return sum(st[FIELDS.index("self_s")] for st in main.values())


def snapshot(modules: dict) -> dict:
    """Identity snapshot of module namespaces and the command table."""
    snap = {name: dict(vars(mod)) for name, mod in modules.items()}
    harness = modules.get("mfchain.harness")
    if isinstance(getattr(harness, "COMMANDS", None), dict):
        snap["COMMANDS"] = dict(harness.COMMANDS)
    return snap


def snapshot_diff(before: dict, after: dict) -> list:
    """Names whose bound object changed between two snapshots."""
    diff = []
    for space, names in before.items():
        now = after.get(space, {})
        for key in set(names) | set(now):
            if names.get(key, diff) is not now.get(key, diff):
                diff.append(f"{space}.{key}")
    return sorted(diff)
