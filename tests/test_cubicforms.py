"""Binary cubic forms: covariants, reduction, class enumeration."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

import helpers
import descent3.cubicforms as cubicforms
from descent3 import (BinaryCubicForm, CurvePoint, MordellCurve, QuadElem,
                      act, disc, enumerate_classes, equivalent, hessian,
                      in_lambda_image, is_irreducible, lambda_dual,
                      lambda_map, make_seed, monic_representative, psi,
                      psi_prime, reduce, same_cubic_field, scan, syzygy_pair,
                      syzygy_point)
from descent3.cubicforms import candidate_forms
from descent3.errors import (BudgetExceeded, InconsistencyError,
                             ValidationError)
from helpers import rational_roots


def test_disc_matches_sympy():
    rng = random.Random(301)
    x = sympy.Symbol("x")
    for _ in range(150):
        a, b, c, d = (rng.randint(-25, 25) for _ in range(4))
        if a == 0:
            continue
        F = BinaryCubicForm(a, b, c, d)
        poly = sympy.Poly(a * x**3 + b * x**2 + c * x + d, x)
        assert disc(F) == sympy.discriminant(poly)


def test_disc_invariant_under_action():
    rng = random.Random(302)
    for _ in range(200):
        F = BinaryCubicForm(*(rng.randint(-15, 15) for _ in range(4)))
        M = helpers.random_unimodular(rng)
        assert disc(act(F, M)) == disc(F)


def test_action_is_right_action():
    rng = random.Random(303)
    for _ in range(120):
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        M1 = helpers.random_unimodular(rng)
        M2 = helpers.random_unimodular(rng)
        assert act(F, helpers.mat_mul(M1, M2)) == act(act(F, M1), M2)


def test_action_rejects_non_unimodular():
    F = BinaryCubicForm(1, 0, -1, 1)
    with pytest.raises(Exception):
        act(F, ((2, 0), (0, 1)))


# (0, 4) lies on E_1: y^2 = x^3 + 16 and (0, 36) on E_{-3}': Y^2 = X^3 +
# 1296, the kernel points that are rational only for these degenerate D
_E1_KERNEL = (MordellCurve.e_d(1), 0, 4)
_E3_KERNEL = (MordellCurve.e_d_prime(-3), 0, 36)


@pytest.mark.parametrize("call", [
    lambda: act(BinaryCubicForm(1, 0, -1, 1), ((2, 0), (0, 1))),
    lambda: reduce(BinaryCubicForm(1, 0, 0, 0)),
    lambda: reduce(BinaryCubicForm(1, 0, -1, 0)),
    lambda: monic_representative(BinaryCubicForm(2, 1, -1, 0), 10),
    lambda: same_cubic_field(QuadElem.one(-3), QuadElem.one(-3)),
    lambda: lambda_map(CurvePoint(*_E1_KERNEL), 1),
    lambda: lambda_dual(CurvePoint(*_E3_KERNEL), -3),
    lambda: psi(CurvePoint(*_E1_KERNEL), 1),
    lambda: psi_prime(CurvePoint(*_E3_KERNEL), -3),
    lambda: in_lambda_image(CurvePoint(*_E3_KERNEL), -3),
], ids=["act-det-2", "reduce-disc-0", "reduce-reducible",
        "monic-rep-reducible", "same-cubic-field-cube", "lambda-kernel",
        "lambda-dual-kernel", "psi-x0", "psi-prime-x0", "in-image-x0"])
def test_bad_inputs_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_class_count_not_of_expected_shape_is_inconsistency(monkeypatch):
    # two of the four classes of 48035713: 2*2 + 1 = 5 is no power of 3
    two = enumerate_classes(48035713)[:2]
    monkeypatch.setattr(cubicforms, "candidate_forms", lambda D: iter(two))
    with pytest.raises(InconsistencyError):
        enumerate_classes(48035713)


def test_hessian_covariance():
    rng = random.Random(304)
    dets = set()
    for _ in range(150):
        F = BinaryCubicForm(*(rng.randint(-20, 20) for _ in range(4)))
        H = hessian(F)
        assert H.disc() == -3 * disc(F)
        # the positive-disc reduction walks F and relies on this
        M = helpers.random_unimodular(rng)
        assert hessian(act(F, M)) == helpers.qf_transform(H, M), (F, M)
        dets.add(M[0][0] * M[1][1] - M[0][1] * M[1][0])
    assert dets == {1, -1}


def test_reduce_canonical_on_orbits():
    rng = random.Random(305)
    done = 0
    while done < 150:
        F = BinaryCubicForm(*(rng.randint(-8, 8) for _ in range(4)))
        if disc(F) == 0 or not is_irreducible(F):
            continue
        R = reduce(F)
        assert reduce(R) == R                      # idempotent
        for _ in range(4):
            M = helpers.random_unimodular(rng)
            assert reduce(act(F, M)) == R
        done += 1


def test_equivalent_orbit_and_separation(classes_4897363):
    rng = random.Random(306)
    F = reduce(BinaryCubicForm(1, 0, -1, 1))       # x^3 - x + 1, disc -23
    assert disc(F) == -23
    assert equivalent(F, act(F, helpers.random_unimodular(rng)))
    # x^3 - x - 1 generates the same field; the sign flip y -> -y links them
    assert equivalent(F, BinaryCubicForm(1, 0, -1, -1))
    # distinct classes of one discriminant must stay separated
    assert not equivalent(classes_4897363[0], classes_4897363[1])


def test_enumerate_classes_fixtures(classes_4897363, classes_48035713):
    assert len(enumerate_classes(-23)) == 1
    assert len(enumerate_classes(-31)) == 1
    assert len(enumerate_classes(229)) == 1
    assert len(enumerate_classes(5)) == 0
    assert len(classes_4897363) == 13
    assert len(classes_48035713) == 4
    for F in classes_4897363:
        assert disc(F) == -4897363
        assert reduce(F) == F
        assert is_irreducible(F)


def test_enumerate_monic_flags_m4897363(classes_4897363):
    monic_a1 = [F for F in classes_4897363 if F.coeffs()[0] == 1]
    assert len(monic_a1) == 6
    assert [F.coeffs() for F in monic_a1] == [
        (1, -33, 1, -34), (1, -32, 32, -51), (1, -27, 7, -64),
        (1, -20, -12, -125), (1, -14, 36, -395), (1, -9, 61, -548)]


def test_monic_representative_statuses():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    ms = monic_representative(F, 50)
    assert ms.status == "already_monic" and ms.found
    assert ms.form.coeffs()[0] == 1


def test_monic_representative_transform_is_recorded(classes_48035713):
    # only the first class of 48035713 represents 1 within the bound
    found = [monic_representative(F, 1000) for F in classes_48035713]
    statuses = [m.status for m in found]
    assert statuses.count("not_found") == 3
    hit = [m for m in found if m.found]
    assert len(hit) == 1
    assert hit[0].form.coeffs()[0] == 1
    assert disc(hit[0].form) == 48035713


def test_syzygy_point_of_x3_minus_x_plus_1():
    F = BinaryCubicForm(1, 0, -1, 1)                # x^3 - x + 1, disc -23
    P, G = syzygy_pair(F)
    assert (P, G) == (3, 27)
    S = syzygy_point(-23, P, G)
    assert (S.x, S.y) == (12, 108)
    assert syzygy_point(-23, P, -G) == -S


def test_syzygy_point_rejects_other_discriminant():
    F = BinaryCubicForm(1, 0, -229, 3)              # disc 48035713
    with pytest.raises(ValidationError, match=r"not on y\^2 = x\^3"):
        syzygy_point(-23, *syzygy_pair(F))


# the depressed-trinomial oracle in helpers, which the syzygy route is
# checked against below

def test_depress_and_point():
    D = make_seed(1, 1).D
    dc = helpers.depress(0, -1, 1)                  # x^3 - x + 1, disc -23
    assert (Fraction(4) * Fraction(dc.m) ** 3
            - Fraction(27) * Fraction(dc.n) ** 2) == -23
    P = helpers.point_from_depressed(dc, D)
    assert P.y ** 2 == P.x ** 3 - 432 * D


def test_depress_rejects_reducible():
    with pytest.raises(ValueError):
        helpers.depress(0, 0, -8)                   # x^3 - 8


def _depress_rejects(a, b, c):
    try:
        helpers.depress(a, b, c)
    except ValueError:
        return True
    return False


def test_depress_reducibility_matches_rational_roots():
    # random monic cubics, then planted (x - r)(x^2 + px + q) with
    # constant terms near 10^10, where factoring the constant was slow
    rng = random.Random(523)
    cases = [tuple(rng.randint(-40, 40) for _ in range(3))
             for _ in range(1500)]
    for _ in range(40):
        r, p, q = (rng.randint(-10**5, 10**5) for _ in range(3))
        cases.append((p - r, q - r * p, -r * q))
    reducible = 0
    for a, b, c in cases:
        want = bool(rational_roots([c, b, a, 1]))
        assert _depress_rejects(a, b, c) == want, (a, b, c)
        reducible += want
    assert reducible >= 40


def test_point_from_depressed_guards_disc():
    D = make_seed(1, 1).D
    with pytest.raises(ValidationError, match="disc 48035713 != -23$"):
        helpers.point_from_depressed(helpers.depress(0, -229, 3), D)


def _random_irreducible_monic(rng, sign, count):
    forms = []
    while len(forms) < count:
        F = BinaryCubicForm(1, *(rng.randint(-60, 60) for _ in range(3)))
        if disc(F) * sign > 0 and is_irreducible(F):
            forms.append(F)
    return forms


def test_syzygy_point_matches_depressed_route_on_random_forms():
    rng = random.Random(7107)
    for sign in (1, -1):
        for F in _random_irreducible_monic(rng, sign, 600):
            D = disc(F)
            assert (syzygy_point(D, *syzygy_pair(F))
                    == helpers.naive_depressed_point(F, D)), F


# the anchors and the pool seeds of the benchmark workloads
BENCH_SEEDS = ((1, 1), (7, 3), (-34, 419), (229, 3), (-73, 1), (-46, 1),
               (-19, 13), (-130, 21), (-196, 39))


def test_syzygy_point_matches_depressed_route_on_bench_classes():
    found = 0
    for m, n in BENCH_SEEDS:
        D = make_seed(m, n).D
        for F in enumerate_classes(D):
            rep = monic_representative(F, 1000)
            if rep.found:
                assert (syzygy_point(D, *syzygy_pair(rep.form))
                        == helpers.naive_depressed_point(rep.form, D)), (D, F)
                found += 1
    assert found >= 20, found


def test_box_oracle_small_discs():
    # quick version of the full box oracle: every irreducible box form
    # with disc in the target list reduces into the enumerated classes
    targets = (-23, -31, 229, 257)
    enums = {D: set(enumerate_classes(D)) for D in targets}
    forms = helpers.box_forms_by_disc(8, set(targets))
    for D, coeff_lists in forms.items():
        seen = set()
        for (a, b, c, d) in coeff_lists:
            F = BinaryCubicForm(a, b, c, d)
            if not is_irreducible(F):
                continue
            R = reduce(F)
            assert R in enums[D], (D, (a, b, c, d))
            seen.add(R)
        assert seen == enums[D], D


# D of (1, 1), (7, 3), (-34, 419), (229, 3) and the scan boxes m0..m1 x 1..7
ANCHOR_DISCS = (-23, 1129, -4897363, 48035713)
SCAN_BOXES = ((-8, 8), (9, 25), (26, 42), (43, 59))


def _same_candidates(D):
    got = list(candidate_forms(D))
    assert all(disc(F) == D for F in got), D
    want = helpers.naive_enum_candidates(D)
    return (Counter(F.coeffs() for F in got)
            == Counter(F.coeffs() for F in want))


def test_candidates_match_box_walk_on_anchors_and_scan_boxes():
    discs = set(ANCHOR_DISCS)
    for m0, m1 in SCAN_BOXES:
        discs.update(s.D for s in scan(range(m0, m1 + 1), range(1, 8)))
    assert len(discs) > 150
    for D in sorted(discs, key=abs):
        assert _same_candidates(D), D


@pytest.mark.parametrize("D", [-23, 1129, -31999])
def test_sieve_ranges_count_the_values_candidate_forms_sieves(D, monkeypatch):
    # the widths sieve_ranges adds up are the values of s with 4s^3 >= c
    # in the ranges candidate_forms hands to the sieve, counted one by one;
    # a budget one short of that sum stops the enumeration before it sieves
    ranges = cubicforms.sieve_ranges(D)
    predicted = sum(max(hi + 1 - lo, 0) for _, _, lo, hi, _ in ranges)
    calls = []
    real = cubicforms.cubic_square_points

    def spy(c, lo, hi):
        calls.append((c, lo, hi))
        return real(c, lo, hi)

    monkeypatch.setattr(cubicforms, "cubic_square_points", spy)
    list(candidate_forms(D))
    assert len(calls) == len(ranges)
    assert predicted == sum(1 for c, lo, hi in calls
                            for s in range(lo, hi + 1) if 4 * s**3 >= c)
    monkeypatch.setattr(cubicforms, "ENUMERATION_BUDGET", predicted)
    assert cubicforms.enumerate_classes(D)
    monkeypatch.setattr(cubicforms, "ENUMERATION_BUDGET", predicted - 1)
    calls.clear()
    with pytest.raises(BudgetExceeded, match="would sieve more than"):
        cubicforms.enumerate_classes(D)
    assert calls == []


def test_candidates_match_box_walk_on_random_family():
    # the box walk costs about 1 s at D = -4897363 and 10 s near -10^8,
    # so the random negative discriminants stop at 10^6
    rng = random.Random(311)
    discs = (helpers.random_family_discs(rng, 100, 1, 7)
             + helpers.random_family_discs(rng, 100, -1, 6))
    for D in discs:
        assert _same_candidates(D), D


def test_reduce_matches_fraction_oracle_for_negative_disc():
    rng = random.Random(312)
    done = 0
    while done < 1000:
        F = BinaryCubicForm(*(rng.randint(-60, 60) for _ in range(4)))
        if disc(F) >= 0 or not is_irreducible(F):
            continue
        R = helpers.fraction_reduce_neg(F)
        assert reduce(F) == R, F
        G = act(F, helpers.random_unimodular(rng, shift=9))
        assert reduce(G) == helpers.fraction_reduce_neg(G) == R, (F, G)
        done += 1


def test_round_u_matches_fraction_oracle():
    # coefficient sizes drawn apart, up to 10^12, so that each of b, c and
    # d in turn sets how far out in the Cauchy bracket Re(xi) lies
    rng = random.Random(316)
    done = 0
    while done < 300:
        a, b, c, d = (rng.randint(-10**e, 10**e)
                      for e in rng.choices((0, 1, 3, 6, 12), k=4))
        F = BinaryCubicForm(abs(a) or 1, b, c, d)
        if disc(F) >= 0 or not is_irreducible(F):
            continue
        assert cubicforms._round_u(F) == helpers._round_u(F), F
        done += 1


def test_reduce_matches_transform_oracle_for_positive_disc():
    rng = random.Random(315)
    done = 0
    while done < 1000:
        F = BinaryCubicForm(*(rng.randint(-60, 60) for _ in range(4)))
        if disc(F) <= 0 or not is_irreducible(F):
            continue
        R = helpers.transform_reduce_pos(F)
        assert reduce(F) == R, F
        G = act(F, helpers.random_unimodular(rng, shift=9))
        assert reduce(G) == helpers.transform_reduce_pos(G) == R, (F, G)
        done += 1


def _has_rational_zero(F):
    return F.a == 0 or F.d == 0 or bool(rational_roots([F.d, F.c, F.b, F.a]))


def _times_linear(p, q, r, s, t):
    """(px + qy)(rx^2 + sxy + ty^2)."""
    return BinaryCubicForm(p * r, p * s + q * r, p * t + q * s, q * t)


def test_is_irreducible_matches_rational_roots():
    rng = random.Random(313)
    reducible = 0
    for _ in range(3000):
        cs = [rng.randint(-60, 60) for _ in range(4)]
        if not any(cs):
            continue
        F = BinaryCubicForm(*cs)
        assert is_irreducible(F) == (not _has_rational_zero(F)), F
        reducible += not is_irreducible(F)
    for _ in range(120):
        cs = [rng.randint(-300, 300) for _ in range(5)]
        F = _times_linear(*cs)
        if not any(F.coeffs()):
            continue
        assert not is_irreducible(F) and _has_rational_zero(F), F
        reducible += 1
    assert reducible > 200


def test_is_irreducible_on_planted_large_factors():
    rng = random.Random(314)
    for _ in range(300):
        lin = [rng.randint(-10**12, 10**12) for _ in range(2)]
        quad = [rng.randint(-10**12, 10**12) for _ in range(3)]
        F = _times_linear(*lin, *quad)
        if not any(F.coeffs()):
            continue
        assert not is_irreducible(F), F
    # x^3 - 2 scaled by large coprime substitutions stays irreducible
    for _ in range(100):
        M = helpers.random_unimodular(rng, words=12, shift=10**6)
        assert is_irreducible(act(BinaryCubicForm(1, 0, 0, -2), M))
