"""descent3 benchmark: time-to-report for the paper's headline seeds.

    python3 perfbench/run.py --workload hasse-points --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --record-golden           # rewrite golden.json

Run from the repository root.  Each workload runs in a fresh worker
interpreter, one caller, one pass after another (closed loop).  --trace 0
reports the end-to-end metrics; --trace 1 makes a separate traced run and
reports the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a human summary, the
environment record and any failure go to stderr.  See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS, metric_names  # noqa: E402
from workloads import (WORKLOADS, check, heldout_item,  # noqa: E402
                       item_label)

GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
OUT_DIR = ".perfbench"          # run records and span dumps, git-ignored
DEADLINE_S = 170                # the whole run must end within 180 s
SETUP_REPEATS = 3

# `import descent3` (which loads sympy and numpy) at nominal CPU speed
SETUP_SNIPPET = f"""
import sys, time
sys.path.insert(0, {HERE!r})
from speed import SpeedProbe, pin_to_one_cpu
pin_to_one_cpu()
with SpeedProbe() as probe:
    start = time.perf_counter()
    import descent3
    wall = time.perf_counter() - start
print(wall * probe.speed(start, start + wall))
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"      # same string-hash order in every run
    return env


def _run(cmd, deadline):
    """Run a child in its own process group; on timeout kill the whole
    group (scan's pool workers included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"no output: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _worker(args, deadline):
    return _run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                deadline)


def setup_seconds(deadline):
    """Median time of `import descent3` in a fresh interpreter, at nominal
    CPU speed, after one untimed import that writes the bytecode caches."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    _run(cmd, deadline)
    return statistics.median(_run(cmd, deadline)
                             for _ in range(SETUP_REPEATS))


def environment(load_before):
    load_after = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "loadavg1_before": load_before,
            "loadavg1_after": load_after, "commit": _commit(),
            # some other CPU-bound work was running when this run started
            "busy": load_before > nproc - 0.5}


def _commit():
    """The checked-out commit, read from .git without running git (the
    benchmark reads nothing outside its checkout); None outside git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


class Tally:
    """Seeds attempted and failed against the golden digests."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, item, result):
        want = self.golden[item_label(item)]
        if result["error"]:
            self.attempted += len(want)
            self.failed += len(want)
            self.problems.append(f"{item_label(item)}: {result['error']}")
            return
        attempted, failed = check(result["digests"], want)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{item_label(item)}: {failed} seeds differ "
                                 "from the golden digests")


def run_workload(name, seed, seconds, trace, golden, deadline):
    """Returns (metrics, tally, record)."""
    spec = WORKLOADS[name]
    anchor = spec["anchor"]
    tally = Tally(golden)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace}
    load_before = os.getloadavg()[0]

    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
        res = _worker(["traced", name, str(seconds), spans_file], deadline)
        for p in res["passes"] + [res["traced"]]:
            tally.add(anchor, p)
        if any(p["digests"] != res["traced"]["digests"]
               for p in res["passes"]):
            tally.problems.append("traced and untraced digests differ")
        untraced = statistics.median(p["norm_wall_s"] for p in res["passes"])
        traced_wall = res["traced"]["wall_s"]
        layers = res["layers"]
        # self times at nominal speed, like the untraced times
        speed = res["traced"]["speed"]
        metrics = {k: layers[k] * speed if k.endswith(".self_s") else layers[k]
                   for k in metric_names() if k in layers}
        metrics["trace.overhead_frac"] = (
            res["traced"]["norm_wall_s"] - untraced) / untraced
        # self times partition the traced wall: every layer's own time plus
        # the root's own time (glue in no traced layer) is the root span
        attributed = sum(layers[f"{layer}.self_s"] for layer, *_ in LAYERS)
        if abs(attributed + layers["trace.other_s"] - traced_wall) > 1e-3:
            tally.problems.append("layer self times do not sum to the "
                                  "traced wall")
        record.update(untraced_norm_wall_s=untraced, traced_wall_s=traced_wall,
                      other_s=layers["trace.other_s"],
                      unattributed_frac=layers["trace.other_s"] / traced_wall,
                      span_count=res["span_count"], spans_file=spans_file)
    else:
        setup = setup_seconds(deadline)
        res = _worker(["timed", name, str(seconds)], deadline)
        for p in res["passes"]:
            tally.add(anchor, p)
        wall = statistics.median(p["norm_wall_s"] for p in res["passes"])
        seeds = len(golden[item_label(anchor)])
        metrics = {"norm_wall_s": wall, "norm_seeds_per_s": seeds / wall,
                   "setup_s": setup, "peak_rss_mb": res["peak_rss_mb"]}
        record.update(
            wall_s=[p["wall_s"] for p in res["passes"]],
            speed=[p["speed"] for p in res["passes"]],
            seeds_per_s=seeds / statistics.median(p["wall_s"]
                                                 for p in res["passes"]))
        if "jobs2" in res:
            tally.add(anchor, res["jobs2"])
            record["seeds_per_s_jobs2"] = seeds / res["jobs2"]["wall_s"]
        held = heldout_item(name, seed)
        if held is not None:
            hres = _worker(["item", json.dumps(held)], deadline)
            tally.add(held, hres)
            record.update(heldout=item_label(held),
                          heldout_wall_s=hres["wall_s"])

    record.update(versions=res["versions"], env=environment(load_before),
                  attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / max(1, tally.attempted),
                  problems=tally.problems, metrics=metrics)
    return metrics, tally, record


def summarize(record, units):
    lines = [f"== {record['workload']} seed {record['seed']} "
             f"trace {record['trace']}"]
    for k, v in record["metrics"].items():
        lines.append(f"  {k:44s} {v:14.6g} {units[k]}")
    for k in ("wall_s", "speed", "seeds_per_s", "seeds_per_s_jobs2",
              "heldout", "heldout_wall_s", "untraced_norm_wall_s",
              "traced_wall_s", "unattributed_frac"):
        if k in record:
            lines.append(f"  {k:44s} {record[k]}")
    lines.append(f"  failed_frac {record['failed_frac']:.4g} "
                 f"({record['failed']} of {record['attempted']} seeds)")
    env = record["env"]
    lines.append(f"  env {record['versions']} nproc {env['nproc']} "
                 f"load {env['loadavg1_before']:.2f}->"
                 f"{env['loadavg1_after']:.2f} commit {env['commit']}")
    if env["busy"]:
        lines.append("  WARNING: the machine was busy when this run started")
    lines += [f"  FAILED: {p}" for p in record["problems"]]
    return "\n".join(lines)


def save_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"run-{record['workload']}-seed"
                        f"{record['seed']}-trace{record['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


# what every input of a hasse-* workload must show at full bounds
POOL_KINDS = {
    "hasse-points": lambda kinds: (
        all(k == "has_global_point" for k in kinds) and len(kinds) >= 4),
    "hasse-violations": lambda kinds: (
        "certified_violation" in kinds
        and set(kinds) <= {"has_global_point", "certified_violation"}),
}


def record_golden(names):
    """Digest every anchor and pool member of the named workloads from the
    current checkout, checking that each has the property its workload
    needs, and keep the other workloads' entries.  Entries of inputs no
    longer listed are dropped."""
    golden, deadline = {}, time.monotonic() + 3600
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    listed = {item_label(item) for spec in WORKLOADS.values()
              for item in [spec["anchor"]] + spec["pool"]}
    golden = {k: v for k, v in golden.items() if k in listed}
    for name in names:
        spec = WORKLOADS[name]
        for item in [spec["anchor"]] + spec["pool"]:
            res = _worker(["item", json.dumps(item)], deadline)
            if res["error"]:
                raise BenchError(f"{item_label(item)}: {res['error']}")
            kinds = sum(res["kinds"].values(), [])
            need = POOL_KINDS.get(name)
            if need and not need(kinds):
                raise BenchError(f"{item_label(item)} does not fit {name}: "
                                 f"{kinds}")
            golden[item_label(item)] = res["digests"]
            print(f"{item_label(item)}: {len(res['digests'])} seeds, "
                  f"{res['wall_s']:.2f} s, {kinds}", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "descent3", "__init__.py")):
        print("error: run from the root of a descent3 checkout "
              "(src/descent3 not found)", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden(list(WORKLOADS) if args.workload in (None, "all")
                      else [args.workload])
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (os.path.isfile(GOLDEN) and os.path.isfile(SPEC)):
        print("error: BENCHMARK.json or perfbench/golden.json is missing",
              file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    with open(SPEC) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    metrics, attempted, failed, problems = {}, 0, 0, 0
    for name in names:
        m, tally, record = run_workload(name, args.seed, args.seconds,
                                        args.trace, golden, deadline)
        save_record(record)
        print(summarize(record, units), file=sys.stderr)
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in m.items()})
        attempted += tally.attempted
        failed += tally.failed
        problems += len(tally.problems)
    print(json.dumps({"correct": problems == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
