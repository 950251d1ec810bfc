"""Command-line front end.

Subcommands: analyze one seed or discriminant, scan a box of (m, n),
regenerate the bundled tables, or inspect Hasse verdicts / form classes
for a single discriminant.  Exit codes: 0 success or a closed stdout,
2 invalid input, 3 internal inconsistency or table mismatch, 4 a budget
ran out (factoring or the class enumeration gave up).
"""

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial

from .arith import iroot
from .errors import BudgetExceeded, InconsistencyError, ValidationError
from .report import (INT_FIELDS, SETTINGS, build_report, record_key,
                     report_csv_header, report_from_json, report_to_csv,
                     report_to_json, seed_key)
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


# --- cache: records keyed by report.record_key; a bad one is recomputed ---

_UNREADABLE = (ValueError, KeyError, TypeError, ZeroDivisionError,
               ValidationError)


def _settings(args) -> dict:
    """The bounds and budgets the subcommand has, by their build_report
    names, after checking that each of them and --jobs is positive."""
    for name in (*SETTINGS, "jobs"):
        if getattr(args, name, 1) < 1:
            raise ValidationError(f"{name} must be positive")
    return {k: getattr(args, k) for k in SETTINGS if hasattr(args, k)}


def _cache_open(path: str | None):
    """The cache file, opened to read and append, or a null context when
    there is none; a path that cannot be opened is bad input."""
    if not path:
        return nullcontext()
    try:
        return open(path, "ab+")
    except OSError as e:
        raise ValidationError(f"cannot open cache {path}: {e.strerror}")


def _skip_line(path: str, lineno: int):
    print(f"warning: skipping unreadable cache line {lineno} of {path}",
          file=sys.stderr)


def _cache_load(fh, path: str | None) -> dict:
    """{key: (lineno, line)} of the records in the cache file.  A torn
    last write lacks its newline; it gets one, so that the next record
    does not run on from it."""
    out = {}
    fh.seek(0)
    line = b"\n"
    for lineno, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            out[record_key(json.loads(line))] = lineno, line
        except _UNREADABLE:
            # a torn or foreign line: recompute rather than crash
            _skip_line(path, lineno)
    if not line.endswith(b"\n"):
        fh.write(b"\n")
        fh.flush()
    return out


def _cache_hit(cache: dict, seed, kwargs: dict, path: str | None):
    """The report on seed cached under these settings, or None.  A record
    whose key parses but whose body does not is a miss too."""
    key = seed_key(seed, **kwargs)
    if key in cache:
        lineno, line = cache[key]
        try:
            rep = report_from_json(line)
        except _UNREADABLE:
            _skip_line(path, lineno)
            return None
        print(f"cache hit D = {seed.D}", file=sys.stderr)
        return rep


# --- subcommands ---

def _print_reports(args, seeds, filters=()) -> int:
    """Print the report of each seed, in order and in args.fmt, that
    passes every filter.  A report comes from the cache when it holds one
    made under these settings; otherwise it is built, on args.jobs worker
    processes when there are several, and appended to the cache."""
    kwargs = dict(_settings(args), run_hasse=args.hasse)
    jobs = getattr(args, "jobs", 1)
    with _cache_open(args.cache) as fh:
        cache = _cache_load(fh, args.cache) if fh else {}
        reps = {seed: _cache_hit(cache, seed, kwargs, args.cache)
                for seed in seeds}
        todo = [seed for seed, rep in reps.items() if rep is None]
        parallel = jobs > 1 and len(todo) > 1
        with ProcessPoolExecutor(jobs) if parallel else nullcontext() as pool:
            built = (pool.map if parallel else map)(
                partial(build_report, **kwargs), todo)
            for seed, rep in zip(todo, built):
                reps[seed] = rep
                if fh:
                    fh.write(report_to_json(rep).encode() + b"\n")
                    fh.flush()

    first = True
    for rep in reps.values():               # normalized emission order
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
            print(report_to_json(rep))
        first = False
    return 0


def cmd_analyze(args) -> int:
    return _print_reports(args, [_seed_from_args(args)])


_FILTER_RX = re.compile(r"^\s*(\w+)\s*(>=|<=|==|!=|>|<)\s*(-?\d+)\s*$")


def _parse_filter(text: str):
    m = _FILTER_RX.match(text)
    if not m or m.group(1) not in INT_FIELDS:
        raise ValidationError(
            f"bad filter {text!r}; use <field> <op> <int> with field in "
            f"{INT_FIELDS}")
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
        code = args.fn(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has what it wanted; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
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
