"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line with its runtime straight to the
terminal (bypassing capture) and asserts the stated runtime target where
one exists.  Everything is exact arithmetic; there are no tolerances.
"""

import time

from descent3 import (BinaryCubicForm, CurvePoint, MordellCurve, QuadElem,
                      class_group_imaginary, build_report, enumerate_classes,
                      factorize, is_cube, make_seed, monic_representative,
                      r3_from_fields, search_monic_points, selmer_ranks,
                      span_dim_mod_3, span_dim_mod_lambda)
from descent3.arith import integer_roots_monic_cubic
from descent3.tables import (TABLE_1, TABLE_3, TABLE_4, check_discriminants,
                             check_forms, check_table_1, check_table_3,
                             check_table_4)

import helpers
from helpers import primes_upto


def _criterion(capsys, num, label, budget, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException as e:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"criterion {num} FAIL ({dt:.1f}s): {label}: {e}",
                  flush=True)
        raise
    dt = time.perf_counter() - t0
    over = budget is not None and dt > budget
    status = "FAIL" if over else "PASS"
    with capsys.disabled():
        print(f"criterion {num} {status} ({dt:.1f}s): {label}: {detail}",
              flush=True)
    assert not over, f"runtime {dt:.1f}s exceeds the {budget}s target"


def test_criterion_1_discriminant_reproduction(capsys):
    def body():
        assert check_discriminants() == []
        n = len(TABLE_3) + len(TABLE_4) + 2
        return f"{n} published (m, n) seeds recompute exactly"
    _criterion(capsys, 1, "discriminant reproduction", 1.0, body)


def test_criterion_2_three_rank_big_negative(capsys):
    def body():
        classes = enumerate_classes(-4897363)
        assert len(classes) == 13
        assert r3_from_fields(-4897363) == 3
        cg = class_group_imaginary(-4897363)
        assert cg.rank3 == 3
        assert cg.invariants == (3, 3, 33)
        assert str(cg) == "Z/33 x Z/3 x Z/3"
        return "13 classes = (3^3-1)/2, class group Z/33 x Z/3 x Z/3"
    _criterion(capsys, 2, "3-rank of D = -4897363", 300.0, body)


def test_criterion_3_six_points_and_spans(capsys):
    def body():
        assert check_table_1() == []
        seed = make_seed(-34, 419)
        E = MordellCurve.e_d_prime(seed.D)
        pts = [CurvePoint(E, x, y) for _, (x, y) in TABLE_1]
        for P in pts:
            assert P.y ** 2 == P.x ** 3 - 432 * seed.D
        assert span_dim_mod_lambda(pts[:3], seed.D) == 3
        assert span_dim_mod_3(pts, seed.D) == 6
        assert selmer_ranks(seed.D, 3) == (3, 3)       # upper bound 3 + 3
        return "six points exact; spans 3 and 6 meet the Selmer bound 2*r3"
    _criterion(capsys, 3, "rank 6 lower bound from the point table",
               1800.0, body)


def test_criterion_4_violations_at_48035713(capsys):
    def body():
        D = 48035713
        classes = enumerate_classes(D)
        assert len(classes) == 4
        assert check_forms() == []                     # printed G1..G4 match
        statuses = [monic_representative(F, 1000).status for F in classes]
        assert statuses[0] in ("already_monic", "found")
        assert statuses[1:] == ["not_found"] * 3
        rep = build_report(make_seed(229, 3))
        assert rep.r3 == 2
        assert rep.r3_monic_lb == 1
        assert rep.sha_lambda_rank_conditional == 1
        kinds = [v.kind for v in rep.hasse]
        assert kinds == ["has_global_point"] + ["certified_violation"] * 3
        assert rep.hasse[0].point == (1, 0, 1)
        need = set(primes_upto(100)) | set(factorize(3 * D))
        for v in rep.hasse[1:]:
            assert need <= set(v.primes_checked)
            assert v.search_bound == 10000             # no global point found
        return "4 classes; 1 monic; Sha[lambda] rank 1; 3 violations certified"
    _criterion(capsys, 4, "Hasse-principle violations at D = 48035713",
               600.0, body)


def test_criterion_5_isogeny_identities(capsys):
    def body():
        out = helpers.run_isogeny_suite(min_cases=1000, min_seeds=20)
        assert out["cases"] >= 1000 and out["seeds"] >= 20
        return f"{out['cases']} exact checks across {out['seeds']} seeds"
    _criterion(capsys, 5, "isogeny and covariant identities", None, body)


def test_criterion_6_selmer_rank_tables(capsys):
    def body():
        assert check_table_4() == []                   # all 12 rows
        assert check_table_3(rows=TABLE_3[:6]) == []   # >= 5 sampled rows
        for (m, n, D) in TABLE_4:
            assert selmer_ranks(D, 1) == (1, 2)
        pts = search_monic_points(1129, 1000)
        assert any((P.x, P.y) == (84, 324) for P in pts)
        assert 324 ** 2 == 84 ** 3 - 487728
        rep = build_report(make_seed(7, 3))
        assert "conditional" in rep.parity_note
        assert rep.provenance
        return "12 rows at (1,2), 6 rows at r3 = 2, flags conditional"
    _criterion(capsys, 6, "Selmer and rank tables", None, body)


def test_criterion_7_small_scale_oracle_equivalence(capsys):
    def body():
        out = helpers.family_box_check(5000, 24)
        return (f"{out['discs']} family discs agree with the box oracle "
                f"({out['negative']} checked against the class group)")
    _criterion(capsys, 7, "oracle equivalence for |D| <= 5000", None, body)


def test_criterion_8_cube_test_round_trip(capsys):
    def body():
        fields = (-23, -31, 5, 13, 69, -163, 229, 257, -407, -4897363)
        n = 0
        for d in fields:
            for u in range(-50, 51):
                for v in range(-50, 51):
                    if u == 0 and v == 0:
                        continue
                    beta = QuadElem.from_pair(d, u, v)
                    cube = beta * beta * beta
                    root = is_cube(cube)
                    assert root is not None, (d, u, v)
                    assert root * root * root == cube, (d, u, v)
                    n += 1
        alpha = QuadElem.from_pair(69, 108, 12)
        assert alpha.norm() == 1728                    # = 12^3, yet no root:
        assert integer_roots_monic_cubic(0, -36, -216) == []
        assert is_cube(alpha) is None
        return f"{n} cubes round-trip over {len(fields)} fields"
    _criterion(capsys, 8, "exact cube recognition", None, body)
