"""Command line behavior: exit codes, formats, cache, scan filters."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import descent3
from descent3 import __version__, cli
from descent3.cli import main, _parse_filter, _parse_range, _recover_seed
from descent3.errors import ValidationError
from descent3.report import INT_FIELDS


def test_analyze_csv_exit_zero(capsys):
    rc = main(["analyze", "--m", "1", "--n", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[-1].startswith("1,1,-23,1,")


def test_analyze_json_fields(capsys):
    rc = main(["analyze", "--m", "2", "--n", "1", "--format", "json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["seed"] == {"m": "2", "n": "1", "disc": "5"}
    assert blob["r3"] == "0"


def test_analyze_text_mentions_conditionality(capsys):
    rc = main(["analyze", "--m", "1", "--n", "1", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-23" in out
    assert "conditional" in out.lower()


def test_analyze_gcd_violation_exit_2(capsys):
    rc = main(["analyze", "--m", "2", "--n", "2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()
    # every bad seed raises one class, so the message names the condition
    assert main(["analyze", "--m", "2", "--n", "21"]) == 2
    assert capsys.readouterr().err == \
        "error: ValidationError: D = -11875 is not squarefree\n"


def test_closed_stdout_exits_quietly():
    # the 82 kB of reports outgrow a 64 kB pipe buffer, so writes are still
    # pending when the reader closes the pipe after its first line
    env = dict(os.environ, PYTHONPATH=str(Path(descent3.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "descent3.cli", "scan", "--m=-8..8",
         "--n=-7..7", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b'{"seed": ')
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipe" not in err, err


def test_analyze_disc_recovery(capsys):
    rc = main(["analyze", "--disc", "-23", "--format", "csv"])
    assert rc == 0
    assert ",-23," in capsys.readouterr().out


def test_analyze_rejects_seed_and_disc_together(capsys):
    rc = main(["analyze", "--m", "1", "--n", "1", "--disc", "-23"])
    assert rc == 2


def _exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def _seed_args(cmd):
    return (["--m=1..1", "--n=1..1"] if cmd == "scan"
            else ["--m", "1", "--n", "1"])


# the numeric options each subcommand reads; it rejects the others
_READS = {"analyze": {"--bound-monic", "--bound-global", "--bound-rep"},
          "hasse": {"--bound-global", "--bound-rep"},
          "forms": {"--bound-rep"}}
_READS["scan"] = _READS["analyze"] | {"--jobs"}


@pytest.mark.parametrize("flag", ["--bound-monic", "--bound-global",
                                  "--bound-rep", "--primes-max", "--effort",
                                  "--jobs"])
@pytest.mark.parametrize("cmd", ["analyze", "hasse", "forms", "scan"])
def test_nonpositive_setting_exits_2(cmd, flag, capsys):
    assert _exit_code([cmd, *_seed_args(cmd), flag, "0"]) == 2
    err = capsys.readouterr().err
    if flag in _READS[cmd]:
        assert "must be positive" in err
    else:
        assert f"unrecognized arguments: {flag} 0" in err


@pytest.mark.parametrize("cmd, flag, value", [
    ("analyze", "--jobs", "2"), ("analyze", "--primes-max", "5"),
    ("hasse", "--primes-max", "5"), ("scan", "--primes-max", "5"),
    ("analyze", "--effort", "5"), ("hasse", "--effort", "5"),
    ("scan", "--effort", "5"),
    ("hasse", "--format", "json"), ("hasse", "--bound-monic", "5"),
    ("hasse", "--cache", "CACHE"), ("hasse", "--jobs", "2"),
    ("forms", "--format", "json"), ("forms", "--bound-monic", "5"),
    ("forms", "--bound-global", "5"), ("forms", "--primes-max", "5"),
    ("forms", "--effort", "5"), ("forms", "--cache", "CACHE"),
    ("forms", "--jobs", "2")])
def test_dropped_option_exits_2(cmd, flag, value, tmp_path, capsys):
    """An option the subcommand does not read is an argparse error."""
    cache = tmp_path / "cache.ndjson"
    value = str(cache) if value == "CACHE" else value
    assert _exit_code([cmd, *_seed_args(cmd), flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} {value}" in err
    assert not cache.exists()


def test_recover_seed():
    s = _recover_seed(-4897363)
    assert (s.m, s.n) == (-34, 419)
    with pytest.raises(ValidationError):
        _recover_seed(7)            # not in the family


def test_parse_range():
    assert _parse_range("1..3") == range(1, 4)
    assert _parse_range("-2..2") == range(-2, 3)
    with pytest.raises(ValidationError):
        _parse_range("3..")


def test_forms_lists_classes(capsys):
    rc = main(["forms", "--disc", "48035713"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 4
    assert "monic" in out


def test_hasse_subcommand(capsys):
    rc = main(["hasse", "--m", "1", "--n", "1"])
    assert rc == 0
    assert "HasGlobalPoint" in capsys.readouterr().out


_RECORDED = json.loads((Path(__file__).parent / "data"
                        / "cli_outputs.json").read_text())


@pytest.mark.parametrize("command", sorted(_RECORDED))
def test_subcommand_prints_recorded_bytes(command, capsys):
    # the bytes were recorded when analyze, hasse and forms each built
    # their output on a route of their own; analyze now runs as a one-seed
    # scan and hasse and forms print from one build_report, with the same
    # bytes.  scan's text put a blank line after every report then and
    # puts one between two reports now, so only the final one is gone
    assert main(shlex.split(command)) == 0
    want = _RECORDED[command]
    if command.startswith("scan") and command.endswith("text"):
        want = want[:-1]
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("cmd", ["analyze", "hasse", "forms"])
def test_class_enumeration_over_budget_exits_4_at_once(cmd, capsys):
    # D is about -2.7e61; the sieve ranges of a = 1 alone pass the budget
    start = time.perf_counter()
    assert main([cmd, "--m", "-1", "--n", "9" * 30]) == 4
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("budget: BudgetExceeded: the class enumeration")
    assert "would sieve more than" in err


def test_scan_filter_and_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "scan.ndjson"
    rc = main(["scan", "--m", "1..3", "--n", "1..3", "--format", "csv",
               "--filter", "r3>=1", "--cache", str(cache)])
    assert rc == 0
    first = capsys.readouterr().out
    rows = [l for l in first.strip().splitlines() if l and not l.startswith("m,")]
    assert len(rows) == 3                      # D = 5 fails the filter
    assert all(",5," not in l for l in rows)
    cached = [json.loads(l) for l in cache.read_text().splitlines()]
    assert len(cached) == 4                    # cache keeps everything

    rc = main(["scan", "--m", "1..3", "--n", "1..3", "--format", "csv",
               "--filter", "r3>=1", "--cache", str(cache)])
    assert rc == 0
    second = capsys.readouterr().out
    assert second == first                     # cache replay is identical


def test_scan_bad_filter_exit_2(capsys):
    rc = main(["scan", "--m", "1..2", "--n", "1..2",
               "--filter", "bogus>=1"])
    assert rc == 2


def test_scan_jobs_deterministic(tmp_path, capsys):
    rc = main(["scan", "--m", "1..3", "--n", "1..3", "--format", "csv"])
    assert rc == 0
    solo = capsys.readouterr().out
    rc = main(["scan", "--m", "1..3", "--n", "1..3", "--format", "csv",
               "--jobs", "2"])
    assert rc == 0
    assert capsys.readouterr().out == solo


def test_scan_box_with_hasse_matches_recorded_bytes(capsys):
    # 39 reports with their Hasse verdicts, recorded at default bounds; a
    # speedup anywhere in the pipeline must leave these bytes alone
    want = (Path(__file__).parent / "data"
            / "scan_-8_8_1_7_hasse.jsonl").read_bytes()
    rc = main(["scan", "--m=-8..8", "--n=1..7", "--format", "json",
               "--hasse"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 39
    assert out.encode() == want


def test_tables_regenerate(capsys):
    rc = main(["tables", "--which", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1129" in out


def test_tables_mismatch_exit_3(monkeypatch, capsys):
    import descent3.tables as tb
    monkeypatch.setitem(tb.TABLE_4_STATS, "r3", 9)
    rc = main(["tables", "--which", "4"])
    assert rc == 3


def test_torn_cache_line_is_skipped_and_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache.ndjson"
    rc = main(["analyze", "--m", "1", "--n", "1", "--format", "json",
               "--cache", str(cache)])
    assert rc == 0
    fresh = capsys.readouterr().out
    line = cache.read_text().strip()
    cache.write_text(line[: len(line) // 2])            # torn last write
    rc = main(["analyze", "--m", "1", "--n", "1", "--format", "json",
               "--cache", str(cache)])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert "skipping unreadable cache line 1" in err
    assert "cache hit" not in err
    assert cache.read_text().splitlines()[-1] == line   # recomputed, appended


def test_cache_record_with_a_broken_body_is_recomputed(tmp_path, capsys):
    # the key fields parse but the body does not: the hit is a miss, the
    # report is rebuilt, printed byte for byte and appended
    cache = tmp_path / "cache.ndjson"
    argv = ["analyze", "--m", "1", "--n", "1", "--format", "json",
            "--cache", str(cache)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    line = cache.read_text().strip()
    record = json.loads(line)
    del record["points"]
    cache.write_text(json.dumps(record) + "\n")
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert "skipping unreadable cache line 1" in err
    assert "cache hit" not in err
    assert cache.read_text().splitlines()[-1] == line
    assert main(argv) == 0                  # the appended record is a hit
    out, err = capsys.readouterr()
    assert out == fresh and "cache hit D = -23" in err
    # scan does the same; the record it appends is then the hit
    cache.write_text(json.dumps(record) + "\n")
    scan = ["scan", "--m", "1..1", "--n", "1..1", "--hasse", "--format",
            "json", "--cache", str(cache)]
    assert main(scan) == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert "skipping unreadable cache line 1" in err
    assert "cache hit" not in err
    assert cache.read_text().splitlines()[-1] == line
    assert main(scan) == 0
    out, err = capsys.readouterr()
    assert out == fresh and "cache hit D = -23" in err
    # a point that parses as a key but divides by zero is a miss as well
    record = json.loads(line)
    record["points"][0]["x"] = "1/0"
    cache.write_text(json.dumps(record) + "\n")
    for cmd in (argv, scan):
        assert main(cmd) == 0
        out, err = capsys.readouterr()
        assert out == fresh
        assert "skipping unreadable cache line 1" in err
        assert "cache hit" not in err
        assert cache.read_text().splitlines()[-1] == line
        cache.write_text(json.dumps(record) + "\n")


@pytest.mark.parametrize("argv", [["--m", "-2..2", "--n", "1..3"],
                                  ["--m=-2..2", "--n=1..3"]])
def test_scan_accepts_negative_range_both_spellings(argv, capsys):
    rc = main(["scan", *argv, "--format", "csv"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("m,n,D")
    assert any(r.startswith("-1,") for r in rows[1:])


def test_cache_misses_a_report_made_under_other_settings(tmp_path, capsys):
    cache = tmp_path / "cache.ndjson"
    base = ["analyze", "--m", "1", "--n", "1", "--format", "json",
            "--cache", str(cache)]
    assert main([*base, "--no-hasse"]) == 0
    skipped = json.loads(capsys.readouterr().out)
    assert skipped["provenance"]["hasse"] == "skipped"

    assert main([*base, "--bound-monic", "7"]) == 0
    out, err = capsys.readouterr()
    assert "cache hit" not in err
    prov = json.loads(out)["provenance"]
    assert (prov["hasse"], prov["point_bound"]) == ("computed", "7")
    assert len(cache.read_text().splitlines()) == 2    # both kept

    assert main([*base, "--bound-monic", "7"]) == 0    # same settings: hit
    out, err = capsys.readouterr()
    assert "cache hit D = -23" in err
    assert json.loads(out)["provenance"] == prov
    assert len(cache.read_text().splitlines()) == 2

    # a record made by another version of the package is a miss, and so is
    # one whose provenance names no version
    assert prov["version"] == __version__
    other = json.loads(cache.read_text().splitlines()[-1])
    other["provenance"]["version"] = "0.1.0"
    unversioned = json.loads(cache.read_text().splitlines()[-1])
    del unversioned["provenance"]["version"]
    cache.write_text(json.dumps(other) + "\n" + json.dumps(unversioned) + "\n")
    assert main([*base, "--bound-monic", "7"]) == 0
    out, err = capsys.readouterr()
    assert "cache hit" not in err and "skipping" not in err
    assert json.loads(out)["provenance"] == prov
    assert len(cache.read_text().splitlines()) == 3    # recomputed, appended


def test_factorization_budget_exit_4(monkeypatch, capsys):
    import descent3.report as report
    from descent3.errors import BudgetExceeded

    def give_up(n):
        raise BudgetExceeded(f"gave up factoring {n}")

    # the class-group cross-check factors the class number (3 for D = -23)
    monkeypatch.setattr(report, "factorize", give_up)
    rc = main(["analyze", "--m", "1", "--n", "1"])
    assert rc == 4
    assert capsys.readouterr().err == \
        "budget: BudgetExceeded: gave up factoring 3\n"


def test_readme_commands_run(capsys):
    """Every descent3 line of the README's command-line block runs and
    exits 0 (a `> file` redirect dropped), and every filter expression the
    README quotes parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("descent3 ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        if ">" in argv:
            argv = argv[:argv.index(">")]
        assert main(argv[1:]) == 0, line
    capsys.readouterr()
    filters = re.findall(r"[`'](\w+(?:>=|<=|==|!=|>|<)-?\d+)[`']", readme)
    assert len(filters) >= 2
    for text in filters:
        _parse_filter(text)


def test_readme_quick_start_outputs(capsys):
    """The README's library quick start runs, and each print whose comment
    states an output prints exactly that: 1, 2 2 and 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    comments = [l.split("#", 1)[1].strip() for l in block.splitlines()
                if l.startswith("print(") and "#" in l]
    assert out[:3] == ["1", "2 2", "0"]
    for printed, comment in zip(out[:3], comments):
        assert re.match(re.escape(printed) + r"(\W|$)", comment), comment
    assert json.loads(out[3])["seed"]["disc"] == "-23"


def test_scan_parses_only_cached_records(monkeypatch, tmp_path, capsys):
    # a fresh report is printed from the object just built, in every format
    # and under a filter; a cached record is parsed once, on lookup
    parsed = []
    real = cli.report_from_json

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(cli, "report_from_json", counting)
    box = ["scan", "--m", "1..3", "--n", "1..3"]
    for extra in ([], ["--filter", "r3>=0"], ["--format", "csv"],
                  ["--format", "text"], ["--format", "json"],
                  ["--format", "json", "--filter", "r3>=1"]):
        assert main([*box, *extra]) == 0
        assert parsed == [], extra
    capsys.readouterr()
    for fmt in ("json", "csv", "text"):
        cache = tmp_path / f"{fmt}.ndjson"
        argv = [*box, "--format", fmt, "--cache", str(cache)]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert parsed == [], fmt                # built here, not parsed
        assert main(argv) == 0                  # every record is a hit
        assert capsys.readouterr().out == fresh
        assert len(parsed) == 4 and len(set(parsed)) == 4, fmt
        parsed.clear()


def test_cache_is_keyed_on_the_seed(tmp_path, capsys):
    # (1, 1) and (1, -1) share D = -23, as (2, 1) and (2, -1) share D = 5:
    # the replay must print each seed's own report
    cache = tmp_path / "scan.ndjson"
    argv = ["scan", "--m=1..2", "--n=-1..1", "--format", "csv",
            "--cache", str(cache)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert [r.split(",")[:2] for r in first.splitlines()[1:]] == [
        ["1", "-1"], ["1", "1"], ["2", "-1"], ["2", "1"]]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == first
    assert err.count("cache hit") == 4
    # two seeds of one D far apart: D = -4897363
    base = ["analyze", "--no-hasse", "--format", "json", "--cache", str(cache)]
    for m, n in ((-34, 419), (362, -2685)):
        assert main([*base, "--m", str(m), "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        seed = json.loads(out)["seed"]
        assert (seed["m"], seed["n"], seed["disc"]) == (
            str(m), str(n), "-4897363")
        assert "cache hit" not in err


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unusable_cache_path_exits_2_before_any_build(where, monkeypatch,
                                                       tmp_path, capsys):
    path = tmp_path if where == "directory" else tmp_path / "no" / "c.ndjson"

    def no_build(*args, **kwargs):
        raise AssertionError("a report was built")

    monkeypatch.setattr(cli, "build_report", no_build)
    for cmd in (["analyze", "--m", "1", "--n", "1"],
                ["scan", "--m", "1..2", "--n", "1..2"]):
        assert main([*cmd, "--cache", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "no").exists()


def test_filter_takes_every_integer_report_field(capsys):
    argv = ["scan", "--m", "1..1", "--n", "1..1", "--format", "csv"]
    for field in INT_FIELDS:
        argv += ["--filter", f"{field}>=0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,1,-23,")
    assert main(["scan", "--m", "1..1", "--n", "1..1",
                 "--filter", "classes>=1"]) == 2
    assert "bad filter 'classes>=1'" in capsys.readouterr().err


# malformed values next to valid ones; every bound and seed stays small,
# so that a vector which happens to be valid still runs in milliseconds
_FUZZ_RANGES = ("1..2", "-2..1", "2..1", "0..0", "a..b", "1..", "..2", "",
                "1...2", "1..2..3", "x", "-3..-5", "1 .. 2", "--", "3")
_FUZZ_INTS = ("1", "2", "-1", "0", "-3", "x", "1.5", "", "1e3", "--",
              "0x10", " 2")
_FUZZ_BOUNDS = ("0", "-1", "x", "1.5", "", "1", "7", "-0", "1_0")
_FUZZ_OPTIONS = {
    "scan": [("--m", _FUZZ_RANGES), ("--n", _FUZZ_RANGES),
             ("--filter", ("r3>=1", "bogus>=1", "r3>=x", "r3", "rank_lb<9",
                           "")),
             ("--format", ("json", "csv", "text", "xml", "")),
             ("--jobs", ("0", "-1", "x", "1")), ("--hasse", None),
             ("--bound-monic", _FUZZ_BOUNDS), ("--bound-global", _FUZZ_BOUNDS),
             ("--bound-rep", _FUZZ_BOUNDS), ("--disc", _FUZZ_INTS)],
    "analyze": [("--m", _FUZZ_INTS), ("--n", _FUZZ_INTS),
                ("--disc", ("0", "1", "-3", "-4", "5", "-23", "229", "x",
                            "-" + "9" * 30, "")),
                ("--format", ("json", "csv", "text", "xml")),
                ("--no-hasse", None), ("--jobs", ("0", "1")),
                ("--bound-monic", _FUZZ_BOUNDS),
                ("--bound-global", _FUZZ_BOUNDS),
                ("--bound-rep", _FUZZ_BOUNDS), ("--m=1..2", None)],
}
_FUZZ_OPTIONS["hasse"] = [
    opt for opt in _FUZZ_OPTIONS["analyze"]
    if opt[0] not in ("--format", "--no-hasse", "--bound-monic")]
_FUZZ_OPTIONS["forms"] = [opt for opt in _FUZZ_OPTIONS["hasse"]
                          if opt[0] != "--bound-global"]
_FUZZ_BASE = {"scan": ["scan", "--m=-2..1", "--n=1..2"],
              "analyze": ["analyze", "--m", "-1", "--n", "1"],
              "hasse": ["hasse", "--m", "-1", "--n", "1"],
              "forms": ["forms", "--m", "-1", "--n", "1"]}


def _fuzz_argv(rng):
    """A valid vector with one to three edits: an option added (valid or
    not, possibly a second time), a token replaced by a bad value, or a
    token dropped."""
    cmd = rng.choice(sorted(_FUZZ_BASE))
    argv = list(_FUZZ_BASE[cmd])
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        if edit < 2:
            flag, values = rng.choice(_FUZZ_OPTIONS[cmd])
            if values is None:
                argv.append(flag)
            elif edit == 0:
                argv.append(f"{flag}={rng.choice(values)}")
            else:
                argv += [flag, rng.choice(values)]
        elif len(argv) == 1:
            continue
        elif edit == 2:
            argv[rng.randrange(1, len(argv))] = rng.choice(
                _FUZZ_RANGES + _FUZZ_INTS)
        else:
            del argv[rng.randrange(1, len(argv))]
    return argv


def test_cli_fuzz_never_exits_1(capsys):
    # 0 ok, 2 bad input, 3 inconsistency, 4 budget: an uncaught error
    # (exit 1, or an exception out of main) breaks that contract; hasse and
    # forms run build_report too, so each subcommand must also succeed
    rng = random.Random(2718)
    codes = Counter()
    for _ in range(400):
        argv = _fuzz_argv(rng)
        code = _exit_code(argv)
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        codes[code] += 1
        codes[argv[0], code] += 1
    assert codes[0] >= 15 and codes[2] >= 300, codes
    assert all(codes[cmd, 0] for cmd in _FUZZ_BASE), codes
