"""Class-group oracle, Selmer/rank propositions, report assembly."""

import json
import random
from pathlib import Path

import pytest

from descent3 import (build_report, class_group_imaginary,
                      conditional_rank_sha3, make_seed, r3_from_fields,
                      rank_bounds, selmer_ranks)
from descent3.errors import (ExcludedDiscriminant, InconsistencyError,
                             InconsistentInputs, PositiveDiscriminant)
from descent3.report import (report_csv_header, report_from_json,
                             report_to_csv, report_to_json,
                             report_to_json_dict)

DATA = Path(__file__).parent / "data"

KNOWN_CLASS_GROUPS = {
    -23: (3,),
    -31: (3,),
    -47: (5,),
    -71: (7,),
    -163: (),
    -5591: (99,),
}


def test_class_group_small_fixtures():
    for D, invs in KNOWN_CLASS_GROUPS.items():
        cg = class_group_imaginary(D)
        assert cg.invariants == invs, D
        h = 1
        for q in invs:
            h *= q
        assert cg.h == h
        assert len(cg.forms) == cg.h


def test_class_group_large_fixture():
    cg = class_group_imaginary(-4897363)
    assert cg.h == 297
    assert cg.invariants == (3, 3, 33)
    assert cg.rank3 == 3
    assert str(cg) == "Z/33 x Z/3 x Z/3"


def test_class_group_rejects_bad_input():
    with pytest.raises(PositiveDiscriminant):
        class_group_imaginary(229)
    with pytest.raises(ExcludedDiscriminant):
        class_group_imaginary(-20)          # 0 mod 4
    with pytest.raises(ExcludedDiscriminant):
        class_group_imaginary(-27)          # not squarefree


def test_composition_group_axioms():
    rng = random.Random(501)
    for D in (-23, -47, -5591):
        cg = class_group_imaginary(D)
        forms = list(cg.forms)          # reduced (a, b, c) triples
        # identity: the principal form has a = 1
        principal = [f for f in forms if f[0] == 1]
        assert len(principal) == 1
        from descent3.report import _qf_compose
        for _ in range(60):
            f = rng.choice(forms)
            g = rng.choice(forms)
            k = rng.choice(forms)
            left = _qf_compose(_qf_compose(f, g, D), k, D)
            right = _qf_compose(f, _qf_compose(g, k, D), D)
            assert left == right                   # compose returns reduced
            assert _qf_compose(f, principal[0], D) == f


def test_r3_matches_class_group_rank():
    for D in (-23, -31, -47, -163, -4897363):
        assert r3_from_fields(D) == class_group_imaginary(D).rank3


def test_selmer_ranks_both_signs():
    assert selmer_ranks(-23, 1) == (1, 1)
    assert selmer_ranks(1129, 1) == (1, 2)
    assert selmer_ranks(-4897363, 3) == (3, 3)
    assert selmer_ranks(48035713, 2) == (2, 3)
    with pytest.raises(ExcludedDiscriminant):
        selmer_ranks(-4, 1)


def test_rank_bounds_four_branches():
    lb, ub, note = rank_bounds(-23, 1, 1)           # odd monic, D < 0
    assert (lb, ub) == (2, 2)
    lb, ub, note = rank_bounds(1129, 1, 1)          # odd monic, D > 0
    assert (lb, ub) == (1, 3)
    lb, ub, note = rank_bounds(-4897363, 3, 2)      # even monic, D < 0
    assert (lb, ub) == (2, 6)
    lb, ub, note = rank_bounds(48035713, 2, 2)      # even monic, D > 0
    assert (lb, ub) == (3, 5)
    assert "conditional" in note


def test_rank_bounds_rejects_inconsistent():
    with pytest.raises(InconsistentInputs):
        rank_bounds(-23, 1, 0)
    with pytest.raises(InconsistentInputs):
        rank_bounds(-23, 1, 2)


def test_conditional_rank_sha3_fixtures():
    rank, sha, note = conditional_rank_sha3(-4093987, 2, 2)
    assert (rank, sha) == (2, 2)
    assert "parity-conditional" in note
    rank, sha, note = conditional_rank_sha3(1129, 1, 1)
    assert (rank, sha) == (1, 2)
    # point evidence can lift the rank within parity
    rank, sha, note = conditional_rank_sha3(-4897363, 3, 3, dim3_evidence=6)
    assert (rank, sha) == (6, 0)


def test_conditional_rank_sha3_rejects_excess_evidence():
    with pytest.raises(InconsistencyError):
        conditional_rank_sha3(-23, 1, 1, dim3_evidence=5)


def test_build_report_small_negative():
    rep = build_report(make_seed(1, 1))
    assert rep.r3 == 1
    assert len(rep.classes) == 1
    assert rep.monic_flags == ["already_monic"]
    assert rep.r3_monic_lb == 1
    assert (rep.selmer_lambda, rep.selmer_lambda_dual) == (1, 1)
    assert rep.dim_quotient_lambda == 1
    assert rep.dim_mod_3 == 2
    assert (rep.rank_lb, rep.rank_ub) == (2, 2)
    assert rep.sha_lambda_rank_conditional == 0
    assert "conditional" in rep.parity_note
    assert [v.kind for v in rep.hasse] == ["has_global_point"]
    assert rep.provenance["rank_semantics"] if "rank_semantics" in rep.provenance else True


def test_build_report_degenerate_positive():
    # D = 5 has no cubic field: zero classes, r3 = 0, everything collapses
    rep = build_report(make_seed(2, 1))
    assert rep.r3 == 0
    assert rep.classes == []
    assert rep.r3_monic_lb == 0
    assert (rep.selmer_lambda, rep.selmer_lambda_dual) == (0, 1)
    assert rep.rank_ub == 1
    assert rep.hasse == []


def test_report_json_round_trip():
    rep = build_report(make_seed(1, 1))
    blob = report_to_json(rep)
    parsed = json.loads(blob)
    assert parsed["seed"]["disc"] == "-23"         # ints travel as strings
    assert report_from_json(blob) == rep


@pytest.mark.parametrize("m, n", [(1, 1), (7, 3), (-34, 419), (-73, 1),
                                  (229, 3)])
def test_report_json_matches_recorded_bytes(m, n):
    # recorded at default bounds; a speedup must leave these bytes alone
    want = (DATA / f"report_{m}_{n}.json").read_bytes()
    assert report_to_json(build_report(make_seed(m, n))).encode() == want


def test_report_json_all_ints_stringified():
    rep = build_report(make_seed(2, 1))
    d = report_to_json_dict(rep)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, (list, tuple)):
            for v in node:
                walk(v)
        else:
            assert node is None or isinstance(node, str), repr(node)

    walk(d)


def test_report_csv_shape():
    rep = build_report(make_seed(1, 1))
    header = report_csv_header()
    row = report_to_csv(rep)
    assert len(header.split(",")) == len(row.split(","))
    cells = row.split(",")
    assert cells[0:3] == ["1", "1", "-23"]
    assert cells[-1] == "1pt/0viol"


def test_build_report_rich_negative_end_to_end():
    # the 13-class discriminant: three-dimensional monic span, rank pinned
    # at 6, and four non-monic classes whose global cube points certify
    # monic representability beyond the search bound
    rep = build_report(make_seed(-34, 419))
    assert rep.r3 == 3
    assert len(rep.classes) == 13
    assert rep.monic_flags.count("already_monic") == 6
    assert rep.monic_flags.count("found") == 3
    assert rep.monic_flags.count("not_found") == 4
    assert rep.r3_monic_lb == 3
    assert (rep.selmer_lambda, rep.selmer_lambda_dual) == (3, 3)
    assert rep.dim_quotient_lambda == 3
    assert rep.dim_mod_3 == 6
    assert (rep.rank_lb, rep.rank_ub) == (6, 6)
    assert rep.sha_lambda_rank_conditional == 0
    assert all(v.kind == "has_global_point" for v in rep.hasse)
    beyond = [v for v in rep.hasse if "beyond" in v.notes]
    assert len(beyond) == 4
    assert report_from_json(report_to_json(rep)) == rep
