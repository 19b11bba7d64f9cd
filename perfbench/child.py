"""One benchmark pass: a fresh interpreter that runs study commands.

    python3 perfbench/child.py SPEC.json

SPEC holds `root` (the checkout), `ops` (a list of [label, argv]),
`trace` (bool), `result` (where to write the outcome) and optionally
`deadline` with `expect`: a moment on the system-wide monotonic clock and
the expected wall time of each op label.  An op that should not end by
the deadline is not started, nor are the ops after it.  The pass
imports the library from `root/src`, notes the moment it is ready to make
its first study call (`ready`, on the system-wide monotonic clock, so the
parent can subtract its spawn time), then runs each op through
`mfchain.cli.main` and records its exit code and wall time.  With `trace`
the layer wrappers are installed around the ops and removed afterwards.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import mfchain.cli

    if not os.path.abspath(mfchain.__file__).startswith(os.path.abspath(src)):
        raise RuntimeError(f"imported mfchain from {mfchain.__file__}, not {src}")
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers

        modules = {name: sys.modules[name] for name in layers.MODULES
                   if name in sys.modules}
        before = layers.snapshot(modules)
        tracer = layers.Tracer()
        tracer.install(modules)

    ops = []
    deadline, expect = spec.get("deadline"), spec.get("expect", {})
    try:
        for label, argv in spec["ops"]:
            if deadline is not None and time.monotonic() + expect.get(label, 0.0) > deadline:
                break
            t0 = time.perf_counter()
            rc = mfchain.cli.main(list(argv))
            ops.append({"label": label, "rc": rc, "wall": time.perf_counter() - t0})
    finally:
        if tracer is not None:
            tracer.restore()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"ready": ready, "ops": ops, "peak_rss_mb": max(own, kids) / 1024.0}
    if tracer is not None:
        result["trace"] = {
            "stats": tracer.stats(),
            "spans": tracer.spans,
            "absent": tracer.absent,
            "root_self_sum": tracer.root_self_sum(),
            "patch_leaks": layers.snapshot_diff(
                before, layers.snapshot(modules)),
        }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
