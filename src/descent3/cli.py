"""Command-line front end.

Subcommands: analyze one seed or discriminant, scan a box of (m, n),
regenerate the bundled tables, or inspect Hasse verdicts / form classes
for a single discriminant.  Exit codes: 0 success, 2 invalid input,
3 internal inconsistency or table mismatch, 4 a computation budget ran
out (factoring or the class enumeration gave up).
"""

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from . import __version__
from .arith import iroot
from .errors import BudgetExceeded, InconsistencyError, ValidationError
from .report import (build_report, report_csv_header, report_from_json,
                     report_to_csv, report_to_json)
from .seeds import make_seed, scan as seed_scan
from . import tables


_VERDICT_OPTIONS = {"--bound-rep", "--bound-global"}
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
    opt("--cache", default=None,
        help="append-only NDJSON result cache (last record wins)")
    opt("--jobs", type=int, default=1, help="parallel workers")


def _recover_seed(disc: int):
    """(m, n) with 4m^3 - 27n^2 = disc, smallest odd n <= 10^4 first."""
    for n in range(1, 10**4 + 1, 2):
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
    raise ValidationError(f"no valid (m, n) with D = {disc} and n <= 10000")


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
# A record is keyed on D, on the package version and on the settings its
# provenance names, so a report made by other code, under other bounds or
# without Hasse verdicts is a miss and is recomputed, never replayed as if
# it answered this run.

_SETTINGS = ("rep_bound", "point_bound", "global_bound")
_UNREADABLE = (ValueError, KeyError, TypeError, ZeroDivisionError,
               ValidationError)


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
    """The key of a report on D made by build_report(**kwargs): D, the
    version and the settings spelled as the report's provenance spells
    them."""
    return (D, __version__, *(str(kwargs[k]) for k in _SETTINGS),
            "computed" if kwargs["run_hasse"] else "skipped")


def _record_key(record: dict) -> tuple:
    prov = record["provenance"]
    return (int(record["seed"]["disc"]), prov.get("version"),
            *(prov[k] for k in _SETTINGS),
            prov["hasse"])


def _skip_line(path: str, lineno: int):
    print(f"warning: skipping unreadable cache line {lineno} of {path}",
          file=sys.stderr)


def _cache_load(path: str | None) -> dict:
    """{key: (lineno, line)} of the records in the cache file."""
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
                    out[_record_key(json.loads(line))] = lineno, line
                except _UNREADABLE:
                    # a torn or foreign line: recompute rather than crash
                    _skip_line(path, lineno)
    except FileNotFoundError:
        pass
    return out


def _cache_hit(cache: dict, key: tuple, path: str | None):
    """The report cached under key, or None.  A record whose key parses
    but whose body does not is a miss too."""
    if key in cache:
        lineno, line = cache[key]
        try:
            rep = report_from_json(line)
            print(f"cache hit D = {key[0]}", file=sys.stderr)
            return rep
        except _UNREADABLE:
            _skip_line(path, lineno)


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

def _build_line(payload):
    m, n, kwargs = payload
    return report_to_json(build_report(make_seed(m, n), **kwargs))


def _print_reports(args, seeds, filters=()) -> int:
    """Print the report of each seed, in order and in args.fmt, that
    passes every filter.  A report comes from the cache when it holds one
    made under these settings; otherwise it is built, on args.jobs worker
    processes when there are several, and appended to the cache."""
    kwargs = dict(_settings(args), run_hasse=args.hasse)
    jobs = getattr(args, "jobs", 1)
    seeds = list(seeds)
    cache = _cache_load(args.cache)
    todo, lines, reps = [], {}, {}
    for seed in seeds:
        key = _cache_key(seed.D, kwargs)
        rep = _cache_hit(cache, key, args.cache)
        if rep is None:
            todo.append((seed.m, seed.n, kwargs))
        else:
            reps[seed.m, seed.n], lines[seed.m, seed.n] = rep, cache[key][1]

    parallel = jobs > 1 and len(todo) > 1
    with ProcessPoolExecutor(jobs) if parallel else nullcontext() as pool:
        built = (pool.map if parallel else map)(_build_line, todo)
        for (m, n, _), line in zip(todo, built):
            lines[m, n] = line
            _cache_append(args.cache, line)

    # A fresh line is the serialization of a report just built, so it is
    # parsed only when a filter or the format needs the object.  A cached
    # line was parsed on lookup: that is how a bad record gets caught.
    need_rep = bool(filters) or args.fmt != "json"
    first = True
    for seed in seeds:                      # normalized emission order
        line = lines[seed.m, seed.n]
        rep = reps.get((seed.m, seed.n))
        if rep is None and need_rep:
            rep = report_from_json(line)
        if not all(f(rep) for f in filters):
            continue
        if args.fmt == "csv":
            if first:
                print(report_csv_header())
            print(report_to_csv(rep))
        elif args.fmt == "text":
            if not first:
                print()
            print(rep)
        else:
            print(line)
        first = False
    return 0


def cmd_analyze(args) -> int:
    return _print_reports(args, [_seed_from_args(args)])


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


def cmd_scan(args) -> int:
    seeds = seed_scan(_parse_range(args.m_range), _parse_range(args.n_range))
    filters = [_parse_filter(f) for f in args.filter or ()]
    return _print_reports(args, seeds, filters)


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
    for v in build_report(_seed_from_args(args), **_settings(args)).hasse:
        print(f"{v.space}: {v}" + (f"  [{v.notes}]" if v.notes else ""))
    return 0


def cmd_forms(args) -> int:
    rep = build_report(_seed_from_args(args), **_settings(args),
                       run_hasse=False)
    for F, status in zip(rep.classes, rep.monic_flags):
        print(f"{F}  {status}")
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
    except BudgetExceeded as e:
        print(f"budget: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
