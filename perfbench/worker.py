"""Runs workload passes in a fresh interpreter and prints one JSON line.

Started by run.py with PYTHONPATH=src, never by hand:

    worker.py timed <workload> <seconds>
    worker.py traced <workload> <seconds> <spans-file>
    worker.py item <item-json>

Only the call into ``descent3.cli.main`` is timed; digests are taken from
the captured output after the clock stops.

The timed and traced modes pin the process to one CPU and run a speed
probe beside the passes (see speed.py): each pass also gets its time at
nominal CPU speed.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy
import sympy
from descent3 import cli

from speed import SpeedProbe, pin_to_one_cpu
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, argv_for, digest, reports_of_output


def normalize(passes, probe):
    """Add each pass's mean CPU speed and its time at nominal speed."""
    for p in passes:
        p["speed"] = probe.speed(p["start"], p["start"] + p["wall_s"])
        p["norm_wall_s"] = p["wall_s"] * p["speed"]


def run_pass(argv, main=cli.main):
    """One CLI call with stdout captured: {start, wall_s, digests, kinds,
    error}, keyed by "m,n"; kinds lists each class's verdict kind."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:                 # reported as a failed pass
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    digests, kinds = {}, {}
    if error is None:
        try:
            for key, obj in reports_of_output(buf.getvalue()).items():
                digests[key] = digest(obj)
                kinds[key] = [h["kind"] for h in obj["hasse"]]
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    return {"start": start, "wall_s": wall, "digests": digests,
            "kinds": kinds, "error": error}


def passes_for(argv, seconds):
    """Repeat the pass while one more, as long as the last, still ends
    within `seconds`; always at least one pass."""
    out, start = [], time.perf_counter()
    while True:
        out.append(run_pass(argv))
        if time.perf_counter() - start + out[-1]["wall_s"] > seconds:
            return out


def timed(workload, seconds, allowed_cpus):
    anchor = WORKLOADS[workload]["anchor"]
    with SpeedProbe() as probe:
        out = {"passes": passes_for(argv_for(anchor), seconds)}
    normalize(out["passes"], probe)
    if anchor[0] == "scan":
        # the pool needs every CPU; its workers inherit this affinity
        os.sched_setaffinity(0, allowed_cpus)
        out["jobs2"] = run_pass(argv_for(anchor, jobs=2))
    return out


def traced(workload, seconds, spans_file):
    argv = argv_for(WORKLOADS[workload]["anchor"])
    tracer = Tracer()
    with SpeedProbe() as probe:
        out = {"passes": passes_for(argv, seconds)}
        uninstall = tracer.install()
        try:
            out["traced"] = run_pass(argv,
                                     main=tracer.span("workload", cli.main))
        finally:
            uninstall()
    normalize(out["passes"] + [out["traced"]], probe)
    out["layers"] = layer_metrics(tracer)
    out["span_count"] = len(tracer.spans)
    with open(spans_file, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)
    return out


def main(argv):
    mode = argv[0]
    if mode == "timed":
        out = timed(argv[1], float(argv[2]), pin_to_one_cpu())
    elif mode == "traced":
        pin_to_one_cpu()
        out = traced(argv[1], float(argv[2]), argv[3])
    elif mode == "item":
        out = run_pass(argv_for(json.loads(argv[1])))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"python": sys.version.split()[0],
                       "sympy": sympy.__version__, "numpy": numpy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
