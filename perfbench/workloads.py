"""Workload definitions and the decision digest that gates correctness.

Imports nothing from descent3, so the controller can use it without
loading sympy or numpy.
"""

import hashlib
import json

# Every workload runs the CLI with its default bounds: rep 10^3, point
# 10^5, global 10^4, primes <= 100, effort 24.
WORKLOADS = {
    "hasse-points": {
        "anchor": ("analyze", -34, 419),
        # family seeds with >= 4 classes whose non-monic classes have
        # small global points
        "pool": [("analyze", -73, 1), ("analyze", -46, 1),
                 ("analyze", -19, 13)],
    },
    "hasse-violations": {
        "anchor": ("analyze", 229, 3),
        # family seeds whose non-monic classes are certified violations
        "pool": [("analyze", -130, 21), ("analyze", -196, 39)],
    },
    "scan-box": {
        "anchor": ("scan", (-8, 8), (1, 7)),
        # shifted boxes of the same 17 x 7 shape
        "pool": [("scan", (9, 25), (1, 7)), ("scan", (26, 42), (1, 7)),
                 ("scan", (43, 59), (1, 7))],
    },
}


def argv_for(item, jobs=1):
    """CLI argument vector for an anchor or pool item."""
    if item[0] == "analyze":
        _, m, n = item
        return ["analyze", "--m", str(m), "--n", str(n), "--format", "json"]
    _, (m0, m1), (n0, n1) = item
    # `--m -8..8` is rejected by argparse ("expected one argument"): the
    # value starts with '-' and is not a plain number, so use `--m=-8..8`
    return ["scan", f"--m={m0}..{m1}", f"--n={n0}..{n1}", "--format", "json",
            "--jobs", str(jobs)]


def item_label(item):
    if item[0] == "analyze":
        return f"analyze {item[1]},{item[2]}"
    _, (m0, m1), (n0, n1) = item
    return f"scan m={m0}..{m1} n={n0}..{n1}"


def heldout_item(workload, seed):
    """Seed 0 selects no held-out input; any other seed selects one pool
    member, so the same seed always checks the same input."""
    pool = WORKLOADS[workload]["pool"]
    if seed == 0 or not pool:
        return None
    return pool[(seed - 1) % len(pool)]


def decision(obj):
    """The decision content of one report JSON object.

    Free text (provenance, parity_note, verdict notes) and echoed settings
    (search_bound, monic_bound, primes_checked) are left out, so adding a
    provenance field is not counted as a wrong answer."""
    keys = ("seed", "r3", "classes", "monic_flags", "r3_monic_lb",
            "selmer_lambda", "selmer_lambda_dual", "points",
            "dim_quotient_lambda", "dim_mod_3", "rank_lb", "rank_ub",
            "sha_lambda_rank_conditional")
    out = {k: obj[k] for k in keys}
    out["hasse"] = [{k: h[k] for k in ("form", "kind", "point", "bad_prime")}
                    for h in obj["hasse"]]
    return out


def digest(obj) -> str:
    text = json.dumps(decision(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def reports_of_output(text: str) -> dict:
    """{"m,n": report object} for every report line the CLI printed."""
    out = {}
    for line in text.splitlines():
        if line.strip():
            obj = json.loads(line)
            out[f"{obj['seed']['m']},{obj['seed']['n']}"] = obj
    return out


def check(got: dict, want: dict):
    """(attempted, failed) over the expected and the printed seeds: a seed
    fails when its digest is missing, differs, or was not expected."""
    seeds = set(want) | set(got)
    return len(seeds), sum(1 for k in seeds if got.get(k) != want.get(k))
