"""Command line behavior: exit codes, formats, cache, scan filters."""

import json
import re
import shlex
from pathlib import Path

import pytest

from descent3.cli import main, _parse_filter, _parse_range, _recover_seed
from descent3.errors import ValidationError


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
_READS = {"analyze": {"--bound-monic", "--bound-global", "--bound-rep",
                      "--primes-max", "--effort"},
          "hasse": {"--bound-global", "--bound-rep", "--primes-max",
                    "--effort"},
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
    ("analyze", "--jobs", "2"),
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


def test_factorization_budget_exit_4(monkeypatch, capsys):
    import descent3.report as report
    from descent3.errors import FactorizationBudgetExceeded

    def give_up(n, budget=10**6):
        raise FactorizationBudgetExceeded(f"gave up factoring {n}")

    # the class-group cross-check factors the class number (3 for D = -23)
    monkeypatch.setattr(report, "factorize", give_up)
    rc = main(["analyze", "--m", "1", "--n", "1"])
    assert rc == 4
    assert "FactorizationBudgetExceeded" in capsys.readouterr().err


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
