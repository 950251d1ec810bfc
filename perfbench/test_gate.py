"""Tests of the benchmark's own correctness gate and tracer.

Run with the package on the path, e.g. `PYTHONPATH=src python -m pytest perfbench`.
"""

import contextlib
import copy
import io
import json
import os

import pytest

from descent3 import cli

from tracer import Tracer, layer_metrics, metric_names, self_times
from workloads import (WORKLOADS, argv_for, check, digest, heldout_item,
                       item_label, reports_of_output)
from worker import run_pass

# 4 classes; the one non-monic class has a global point within radius 60
SMALL_ARGV = argv_for(("analyze", -19, 13)) + ["--bound-global", "60"]


@pytest.fixture(scope="module")
def small_report():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(SMALL_ARGV) == 0
    return json.loads(buf.getvalue())


def _gate(obj, golden_obj):
    """(attempted, failed) for one printed report against its golden."""
    return check({"x": digest(obj)}, {"x": digest(golden_obj)})


def test_gate_passes_identical_report(small_report):
    assert _gate(copy.deepcopy(small_report), small_report) == (1, 0)


def test_gate_catches_flipped_verdict_kind(small_report):
    bad = copy.deepcopy(small_report)
    bad["hasse"][-1]["kind"] = "certified_violation"
    assert _gate(bad, small_report) == (1, 1)


def test_gate_catches_dropped_point(small_report):
    assert small_report["points"]
    bad = copy.deepcopy(small_report)
    bad["points"].pop()
    assert _gate(bad, small_report) == (1, 1)


def test_gate_catches_changed_bad_prime_and_global_point(small_report):
    found = [h for h in small_report["hasse"] if h["point"]]
    bad = copy.deepcopy(small_report)
    bad["hasse"][small_report["hasse"].index(found[-1])]["point"] = ["1", "0", "1"]
    assert _gate(bad, small_report) == (1, 1)
    bad = copy.deepcopy(small_report)
    bad["hasse"][0]["bad_prime"] = "7"
    assert _gate(bad, small_report) == (1, 1)


def test_gate_ignores_free_text(small_report):
    other = copy.deepcopy(small_report)
    other["provenance"]["binding_bound"] = "global_bound"
    other["parity_note"] = "reworded"
    other["hasse"][0]["notes"] = "reworded"
    assert _gate(other, small_report) == (1, 0)


def test_gate_counts_missing_and_extra_rows():
    want = {"1,1": "a", "2,1": "b"}
    assert check({"1,1": "a"}, want) == (2, 1)
    assert check({"1,1": "a", "2,1": "b", "3,1": "c"}, want) == (3, 1)


def test_heldout_selection_is_deterministic():
    for name, spec in WORKLOADS.items():
        assert heldout_item(name, 0) is None
        assert heldout_item(name, 1) == heldout_item(name, 1 + len(spec["pool"]))
        assert {item_label(heldout_item(name, s))
                for s in range(1, len(spec["pool"]) + 1)} == \
            {item_label(i) for i in spec["pool"]}


def test_scan_argv_keeps_negative_range_attached():
    argv = argv_for(WORKLOADS["scan-box"]["anchor"])
    assert "--m=-8..8" in argv and "--n=1..7" in argv


def test_self_times_subtract_direct_children():
    spans = [[0, None, "root", 0.0, 10.0], [1, 0, "a", 1.0, 5.0],
             [2, 1, "b", 2.0, 3.0], [3, 0, "c", 6.0, 7.0]]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 1.0, 3: 1.0}


def test_traced_pass_matches_untraced_and_restores_names():
    from descent3 import genus1, report
    original = report.hasse_verdict
    plain = run_pass(SMALL_ARGV)
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        assert report.hasse_verdict is not original
        traced = run_pass(SMALL_ARGV,
                          main=tracer.span("workload", cli.main))
    finally:
        uninstall()
    assert report.hasse_verdict is original is genus1.hasse_verdict
    assert plain["error"] is None and traced["digests"] == plain["digests"]

    layers = layer_metrics(tracer)
    assert set(metric_names()) - {"trace.overhead_frac"} <= set(layers)
    assert layers["genus1.hasse_verdict.calls"] == 4
    assert layers["genus1.global_search.calls"] >= 1
    assert layers["genus1.global_search.hit_frac"] == 1.0
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total + layers["trace.other_s"] == pytest.approx(traced["wall_s"],
                                                            abs=1e-3)


def test_reports_of_output_keys_by_seed(small_report):
    text = json.dumps(small_report) + "\n"
    assert list(reports_of_output(text)) == ["-19,13"]


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "norm_wall_s", "norm_seeds_per_s", "setup_s", "peak_rss_mb"}
