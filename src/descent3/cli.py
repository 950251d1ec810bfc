"""Command-line front end.

Subcommands: analyze one seed or discriminant, scan a box of (m, n),
regenerate the bundled tables, or inspect Hasse verdicts / form classes
for a single discriminant.  Exit codes: 0 success, 2 invalid input,
3 internal inconsistency or table mismatch, 4 a computation budget ran
out (factoring gave up).
"""

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from .arith import iroot
from .cubicforms import enumerate_classes, monic_representative
from .errors import (FactorizationBudgetExceeded, InconsistencyError,
                     ValidationError)
from .genus1 import HomogeneousSpace, hasse_verdict
from .report import (build_report, report_csv_header, report_from_json,
                     report_to_csv, report_to_json)
from .seeds import make_seed, scan as seed_scan
from . import tables


_VERDICT_OPTIONS = {"--bound-rep", "--bound-global", "--primes-max", "--effort"}
_REPORT_OPTIONS = _VERDICT_OPTIONS | {"--format", "--bound-monic", "--cache"}


def _add_options(p: argparse.ArgumentParser, flags):
    """Add the options named in flags, the ones the subcommand reads; the
    bounds are stored under their build_report names."""
    def opt(flag, **kw):
        if flag in flags:
            p.add_argument(flag, **kw)
    opt("--format", dest="fmt", choices=("json", "csv", "text"),
        default="text")
    opt("--bound-monic", dest="point_bound", type=int, default=10**5,
        help="monic-point search radius, |P| <= 3x (default 1e5)")
    opt("--bound-global", dest="global_bound", type=int, default=10**4,
        help="projective cube-point search radius (default 1e4)")
    opt("--bound-rep", dest="rep_bound", type=int, default=10**3,
        help="search radius for a class to represent 1 (default 1e3)")
    opt("--primes-max", type=int, default=100,
        help="test local solvability at all p up to this bound")
    opt("--effort", type=int, default=24,
        help="recursion budget for p-adic searches")
    opt("--cache", default=None,
        help="append-only NDJSON result cache (last record wins)")
    opt("--jobs", type=int, default=1, help="parallel workers")


def _recover_seed(disc: int, search: int = 10**4):
    """(m, n) with 4m^3 - 27n^2 = disc, smallest odd n first."""
    for n in range(1, search + 1, 2):
        t = disc + 27 * n * n
        if t % 4:
            continue
        t //= 4
        m = iroot(abs(t), 3) * (1 if t >= 0 else -1)
        if m**3 != t:
            continue
        try:
            return make_seed(m, n)
        except ValidationError:
            continue
    raise ValidationError(f"no valid (m, n) with D = {disc} and n <= {search}")


def _seed_from_args(args):
    has_mn = args.m is not None or args.n is not None
    if has_mn == (args.disc is not None):
        raise ValidationError("give either --m and --n, or --disc")
    if has_mn:
        if args.m is None or args.n is None:
            raise ValidationError("--m and --n go together")
        return make_seed(args.m, args.n)
    return _recover_seed(args.disc)


# --- cache ---
#
# A record is keyed on D and on the settings its provenance names, so a
# report made under other bounds (or without Hasse verdicts) is a miss and
# is recomputed, never replayed as if it answered this run.

_SETTINGS = ("rep_bound", "point_bound", "global_bound", "primes_max",
             "effort")


def _settings(args) -> dict:
    """The bounds and budgets the subcommand has, by their build_report
    names, after checking that each of them and --jobs is positive."""
    settings = {k: getattr(args, k) for k in (*_SETTINGS, "jobs")
                if hasattr(args, k)}
    for name, value in settings.items():
        if value < 1:
            raise ValidationError(f"{name} must be positive")
    settings.pop("jobs", None)
    return settings


def _cache_key(D: int, kwargs: dict) -> tuple:
    """The key of a report on D made by build_report(**kwargs): D and the
    settings spelled as the report's provenance spells them."""
    return (D, *(str(kwargs[k]) for k in _SETTINGS),
            "computed" if kwargs["run_hasse"] else "skipped")


def _record_key(record: dict) -> tuple:
    prov = record["provenance"]
    return (int(record["seed"]["disc"]), *(prov[k] for k in _SETTINGS),
            prov["hasse"])


def _cache_load(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out[_record_key(json.loads(line))] = line
                except (ValueError, KeyError, TypeError):
                    # a torn or foreign line: recompute rather than crash
                    print(f"warning: skipping unreadable cache line {lineno} "
                          f"of {path}", file=sys.stderr)
    except FileNotFoundError:
        pass
    return out


def _cache_append(path: str | None, line: str):
    if not path:
        return
    with open(path, "ab+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            # a torn last write lacks its newline; end it so that this
            # record does not run on from it
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write(line.encode() + b"\n")


# --- subcommands ---

def _emit_report(rep, fmt: str, header: bool = False):
    if fmt == "json":
        print(report_to_json(rep))
    elif fmt == "csv":
        if header:
            print(report_csv_header())
        print(report_to_csv(rep))
    else:
        print(rep)


def cmd_analyze(args) -> int:
    kwargs = dict(_settings(args), run_hasse=args.hasse)
    seed = _seed_from_args(args)
    cache = _cache_load(args.cache)
    key = _cache_key(seed.D, kwargs)
    if key in cache:
        print(f"cache hit D = {seed.D}", file=sys.stderr)
        rep = report_from_json(cache[key])
    else:
        rep = build_report(seed, **kwargs)
        _cache_append(args.cache, report_to_json(rep))
    _emit_report(rep, args.fmt, header=True)
    return 0


_FILTER_RX = re.compile(r"^\s*(\w+)\s*(>=|<=|==|!=|>|<)\s*(-?\d+)\s*$")
_FILTER_FIELDS = ("r3", "r3_monic_lb", "selmer_lambda", "selmer_lambda_dual",
                  "dim_quotient_lambda", "dim_mod_3", "rank_lb", "rank_ub",
                  "sha_lambda_rank_conditional")


def _parse_filter(text: str):
    m = _FILTER_RX.match(text)
    if not m or m.group(1) not in _FILTER_FIELDS:
        raise ValidationError(
            f"bad filter {text!r}; use <field> <op> <int> with field in "
            f"{_FILTER_FIELDS}")
    field, op, val = m.group(1), m.group(2), int(m.group(3))
    ops = {">=": lambda a: a >= val, "<=": lambda a: a <= val,
           "==": lambda a: a == val, "!=": lambda a: a != val,
           ">": lambda a: a > val, "<": lambda a: a < val}
    return lambda rep: ops[op](getattr(rep, field))


def _parse_range(text: str):
    m = re.match(r"^(-?\d+)\.\.(-?\d+)$", text)
    if not m:
        raise ValidationError(f"bad range {text!r}; use a..b")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValidationError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _scan_worker(payload):
    m, n, kwargs = payload
    rep = build_report(make_seed(m, n), **kwargs)
    return report_to_json(rep)


def cmd_scan(args) -> int:
    kwargs = dict(_settings(args), run_hasse=args.hasse)
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    filters = [_parse_filter(f) for f in args.filter or ()]
    cache = _cache_load(args.cache)

    seeds = list(seed_scan(m_range, n_range))
    todo, lines = [], {}
    for seed in seeds:
        key = _cache_key(seed.D, kwargs)
        if key in cache:
            print(f"cache hit D = {seed.D}", file=sys.stderr)
            lines[(seed.m, seed.n)] = cache[key]
        else:
            todo.append((seed.m, seed.n, kwargs))

    if args.jobs > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for (m, n, _), line in zip(todo, pool.map(_scan_worker, todo)):
                lines[(m, n)] = line
                _cache_append(args.cache, line)
    else:
        for payload in todo:
            line = _scan_worker(payload)
            lines[(payload[0], payload[1])] = line
            _cache_append(args.cache, line)

    first = True
    for seed in seeds:                      # normalized emission order
        line = lines[(seed.m, seed.n)]
        rep = report_from_json(line)
        if all(f(rep) for f in filters):
            if args.fmt == "csv":
                _emit_report(rep, "csv", header=first)
                first = False
            elif args.fmt == "text":
                _emit_report(rep, "text")
                print()
            else:
                print(line)
    return 0


def cmd_tables(args) -> int:
    which = args.which
    if which == "1":
        problems = tables.check_table_1()
        print("a,b,c,X,Y")
        for (a, b, c), (X, Y) in tables.TABLE_1:
            print(f"{a},{b},{c},{X},{Y}")
    elif which == "3":
        problems = tables.check_discriminants() + tables.check_table_3()
        print("m,n,D,r3,rank,sha3,conditional")
        s = tables.TABLE_3_STATS
        for m, n, D in tables.TABLE_3:
            print(f"{m},{n},{D},{s['r3']},{s['rank']},{s['sha3']},parity")
    elif which == "4":
        problems = tables.check_discriminants() + tables.check_table_4()
        print("m,n,D,r3,rank,sha3,conditional")
        s = tables.TABLE_4_STATS
        for m, n, D in tables.TABLE_4:
            print(f"{m},{n},{D},{s['r3']},{s['rank']},{s['sha3']},parity")
    else:
        problems = tables.check_forms()
        print("a,b,c,d")
        for row in tables.FORMS:
            print(",".join(str(c) for c in row))
    for p in problems:
        print(f"mismatch: {p}", file=sys.stderr)
    return 3 if problems else 0


def cmd_hasse(args) -> int:
    kwargs = _settings(args)
    rep_bound = kwargs.pop("rep_bound")
    seed = _seed_from_args(args)
    for F in enumerate_classes(seed.D):
        C = HomogeneousSpace(F, seed)
        v = hasse_verdict(C, monic_representative(F, rep_bound), **kwargs,
                          enumerated=True)
        print(f"{C}: {v}" + (f"  [{v.notes}]" if v.notes else ""))
    return 0


def cmd_forms(args) -> int:
    rep_bound = _settings(args)["rep_bound"]
    seed = _seed_from_args(args)
    for F in enumerate_classes(seed.D):
        rep = monic_representative(F, rep_bound)
        print(f"{F}  {rep.status}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="descent3")
    sub = top.add_subparsers(dest="cmd", required=True)

    for name, fn, flags in (("analyze", cmd_analyze, _REPORT_OPTIONS),
                            ("hasse", cmd_hasse, _VERDICT_OPTIONS),
                            ("forms", cmd_forms, {"--bound-rep"})):
        p = sub.add_parser(name)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--disc", type=int)
        if name == "analyze":
            p.add_argument("--no-hasse", dest="hasse", action="store_false",
                           help="skip the per-class Hasse verdicts")
        _add_options(p, flags)
        p.set_defaults(fn=fn)

    p = sub.add_parser("scan")
    p.add_argument("--m", dest="m_range", required=True, metavar="A..B")
    p.add_argument("--n", dest="n_range", required=True, metavar="C..D")
    p.add_argument("--filter", action="append",
                   help="e.g. 'r3>=2'; may repeat, filters are conjoined")
    p.add_argument("--hasse", action="store_true", default=False,
                   help="also run Hasse verdicts per class (slow)")
    _add_options(p, _REPORT_OPTIONS | {"--jobs"})
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("tables")
    p.add_argument("--which", choices=("1", "3", "4", "forms"), required=True)
    p.set_defaults(fn=cmd_tables)

    return top


_RANGE_RX = re.compile(r"^-\d+\.\.-?\d+$")


def _attach_ranges(argv):
    """Rewrite `--m -8..8` as `--m=-8..8`: argparse takes a value that
    starts with '-' and is not a plain number for an option flag."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--m", "--n") and _RANGE_RX.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_ranges(argv))
    try:
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except InconsistencyError as e:
        print(f"inconsistency: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except FactorizationBudgetExceeded as e:
        print(f"budget: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
