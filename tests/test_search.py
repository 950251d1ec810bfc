"""The exact residue-sieved point searches against a scan of every cell."""

import random
from collections import Counter
from math import gcd, isqrt

import helpers
import descent3.cubicforms as cubicforms
from descent3.arith import _CUBIC_SQUARE_BLOCK, cubic_square_points
from descent3 import (BinaryCubicForm, HomogeneousSpace, act, disc,
                      global_search, is_irreducible, make_seed,
                      monic_representative, search_monic_points)
from descent3.cubicforms import _sieved_search

ACCEPT = {"cube": helpers.is_cube_value, "unit": lambda v: v == 1}


def _random_forms(rng, count):
    """Small irreducible forms, half of them monic before a random GL2(Z)
    change of variables, so that both targets have hits."""
    forms = []
    while len(forms) < count:
        a = 1 if len(forms) % 2 else rng.randint(-6, 6)
        F = (a, *(rng.randint(-6, 6) for _ in range(3)))
        if not any(F):
            continue
        F = BinaryCubicForm(*F)
        if disc(F) == 0 or not is_irreducible(F):
            continue
        if rng.random() < 0.6:
            F = act(F, helpers.random_unimodular(rng, words=4, shift=3))
        forms.append(F)
    return forms


def test_sieve_matches_naive_scan_on_random_forms():
    rng = random.Random(4411)
    found = {"cube": 0, "unit": 0}
    for i, F in enumerate(_random_forms(rng, 240)):
        bound = i % 31                       # 0..30, mostly not powers of 2
        for target, accept in ACCEPT.items():
            want = helpers.naive_first_point(F, bound, accept)
            assert _sieved_search(F, bound, target) == want, (F, bound, target)
            found[target] += want is not None
    assert found["cube"] >= 150 and found["unit"] >= 60, found


def test_sieve_matches_naive_scan_on_negated_forms():
    # F(-x, -y) = -F(x, y): the hits of -F are the mirrors of those of F
    # for cubes, and come from the cells where F = -1 for the unit target
    rng = random.Random(4411)
    for i, F in enumerate(_random_forms(rng, 240)):
        bound = i % 31
        for target, accept in ACCEPT.items():
            assert (_sieved_search(-F, bound, target)
                    == helpers.naive_first_point(-F, bound, accept)), \
                (-F, bound, target)


def test_sieve_returns_hits_that_lie_below_the_sieved_rows():
    # the first hit of each target has x < 0 and y < 0, so the sieve,
    # which walks the rows y >= 0, can only return it as a mirror: from an
    # outer row for (3, 1, -3, -6) and (-3, -4), from an inner row for
    # (-4, -1)
    cases = {(3, 1, -3, -6): {"cube": (-7, -6), "unit": (-7, -5)},
             (-3, 8, 1, -4): {"cube": (-4, -1), "unit": (-3, -4)}}
    for coeffs, first in cases.items():
        F = BinaryCubicForm(*coeffs)
        for target, accept in ACCEPT.items():
            x, y = first[target]
            norm = max(-x, -y)
            for bound in (norm - 1, norm, norm + 1, 8, 20):
                want = helpers.naive_first_point(F, bound, accept)
                if bound >= norm:
                    assert want == first[target]
                assert _sieved_search(F, bound, target) == want, \
                    (F, bound, target)


def test_unit_hit_from_minus_one_on_row_zero():
    # a = -1: the hit (-1, 0) is the mirror of (1, 0), where F = -1 on the
    # sieved row y = 0
    F = BinaryCubicForm(-1, 2, 3, -7)
    for bound in (1, 2, 5):
        want = helpers.naive_first_point(F, bound, ACCEPT["unit"])
        assert want == (-1, 0)
        assert _sieved_search(F, bound, "unit") == want
        rep = monic_representative(F, bound)
        assert (rep.matrix[0][0], rep.matrix[1][0]) == (-1, 0)
        assert rep.form.a == 1


# forms planted as act(G, N) with G monic and N(x0, y0) = (1, 0), so that
# F(x0, y0) = 1; the first hit of each is at the cell its comment names,
# in the radii bound >> i: 1, 2, 4, 8, 16 (bound 16), 1, 2, 5, 10, 20
# (bound 20) or 1, 3, 6, 13 (bound 13)
PLANTED = (
    # |x| = done + 1 = 9 on a row y <= done = 8 of radius 16
    # (the cube hit (-9, -8) is the mirror of the sieved cell (9, 8))
    ((-1779, -9713, -17675, -10720), 16, "unit", (-9, 5)),
    ((-16047, 53979, -60520, 22616), 16, "cube", (-9, -8)),
    # y = done + 1 = 9 with |x| <= done, radius 16
    ((-22762, 15010, -3296, 241), 16, "unit", (2, 9)),
    ((11719, 31533, 28284, 8457), 16, "cube", (-8, 9)),
    # |x| = done + 1 = 11 on a row y <= done = 10 of the last radius 20
    # (the cube hit (-11, -7) is the mirror of the sieved cell (11, 7))
    ((-1394, -15432, -56944, -70039), 20, "unit", (-11, 3)),
    ((2946, -13965, 22066, -11622), 20, "cube", (-11, -7)),
    # y = done + 1 = 11 with |x| <= done, radius 20
    ((10926, -14814, 6696, -1009), 20, "unit", (5, 11)),
    ((-29193, -79260, -71731, -21639), 20, "cube", (-10, 11)),
    # deeper inside the last radius 20 (done = 10): two outer rows
    ((-24425, 27618, -10397, 1303), 20, "unit", (7, 18)),
    ((434, 1703, 2086, 755), 20, "cube", (-18, 11)),
    # the odd bound 13 (done = 6): |x| = 7 on the row y = done, and the
    # outer row y = 13
    ((917, 3240, 3815, 1497), 13, "unit", (-7, 6)),
    ((-20032, -18443, -5660, -579), 13, "cube", (-4, 13)),
)


def test_sieve_finds_planted_first_hits():
    for coeffs, bound, target, first in PLANTED:
        F = BinaryCubicForm(*coeffs)
        norm = max(abs(first[0]), abs(first[1]))
        for b in (norm - 1, norm, bound):
            want = helpers.naive_first_point(F, b, ACCEPT[target])
            assert want == (first if b >= norm else None), (F, b, target)
            assert _sieved_search(F, b, target) == want, (F, b, target)


def _recording(F):
    """A copy of F that lists every cell it is evaluated at."""
    seen = []

    class Recording(BinaryCubicForm):
        def __call__(self, x, y):
            seen.append((x, y))
            return BinaryCubicForm.__call__(self, x, y)

    return Recording(*F.coeffs()), seen


def test_sieve_checks_each_cell_of_the_upper_half_box_once(monkeypatch):
    # a target that allows every residue lets every coprime cell survive,
    # so the exact checks show the geometry: each radius visits its new
    # annulus in the rows y >= 0 (its hole skips exactly the cells of the
    # previous radius), and no cell is visited twice
    monkeypatch.setitem(cubicforms._TARGETS, "any",
                        (lambda m: set(range(m)), lambda v: False))
    for bound in range(41):
        F, seen = _recording(BinaryCubicForm(1, 0, -1, 1))
        assert _sieved_search(F, bound, "any") is None
        want = [(x, y) for y in range(bound + 1)
                for x in range(-bound, bound + 1) if gcd(x, y) == 1]
        assert sorted(seen) == sorted(want), bound


def test_sieve_builds_residue_rows_on_demand(classes_4897363, monkeypatch):
    # the four classes that do not represent 1 within 10^3 have small
    # global points, so each search stops at a small radius and builds one
    # or two of the m residue rows of a modulus, each once
    spaces = [HomogeneousSpace(F) for F in classes_4897363
              if not monic_representative(F, 1000).found]
    assert len(spaces) == 4
    residue_row = cubicforms._residue_row
    built = []

    def spy(F, m, ok, y):
        built.append((m, y))
        return residue_row(F, m, ok, y)

    monkeypatch.setattr(cubicforms, "_residue_row", spy)
    for C in spaces:
        built.clear()
        assert global_search(C, 10**4) is not None
        assert built and len(set(built)) == len(built), C.form
        per_modulus = Counter(m for m, _ in built)
        assert max(per_modulus.values()) <= 2, (C.form, per_modulus)


def test_sieve_finds_no_cube_on_classes_of_48035713():
    for coeffs in ((2, -41, -45, 134), (19, -16, -83, 7), (23, -20, -75, 17)):
        F = BinaryCubicForm(*coeffs)
        assert helpers.naive_first_point(F, 200, helpers.is_cube_value) is None
        assert _sieved_search(F, 200, "cube") is None


def test_public_searches_match_naive_scan():
    rng = random.Random(907)
    for i, F in enumerate(_random_forms(rng, 60)):
        bound = 3 + i % 17
        want = helpers.naive_first_point(F, bound, helpers.is_cube_value)
        got = global_search(HomogeneousSpace(F), bound)
        if want is None:
            assert got is None
        else:
            x, y, z = got
            assert F(x, y) == z**3
            assert want in ((x, y), (-x, -y))
        if F.a == 1:
            continue
        want = helpers.naive_first_point(F, bound, ACCEPT["unit"])
        rep = monic_representative(F, bound)
        if want is None:
            assert rep.status == "not_found"
        else:
            assert rep.status == "found"
            assert (rep.matrix[0][0], rep.matrix[1][0]) == want


def test_sieve_exact_on_huge_coefficients():
    # 4 * maxc * (bound + 1)^3 >= 2^62: a 64-bit scan of these forms would
    # overflow, the sieve reduces the coefficients modulo each modulus
    k = 10**5 + 3
    M = ((k, k + 1), (1, 1))                 # det -1
    bound = 12
    for coeffs in ((1, 0, -1, 1), (2, -41, -45, 134), (17, -10, 28, -27),
                   (1, -33, 1, -34)):
        F = act(BinaryCubicForm(*coeffs), M)
        assert 4 * max(abs(c) for c in F.coeffs()) * (bound + 1)**3 >= 2**62
        for target, accept in ACCEPT.items():
            assert (_sieved_search(F, bound, target)
                    == helpers.naive_first_point(F, bound, accept))


def test_global_search_far_point_pinned():
    # a class of the seed (-196, 39): its first hit (-841, 983) has
    # max-norm 983 and is found at radius 1250 = 10**4 >> 3 (done = 625)
    C = HomogeneousSpace(BinaryCubicForm(37, -42, 70, -9))
    assert global_search(C, 10**4) == (841, -983, 4886)


# --- the monic search on E_D' against a walk over both lattices ---

def _coords(points):
    return [(P.x, P.y) for P in points]


def _assert_monic_matches(D, bound):
    got = search_monic_points(D, bound)
    assert _coords(got) == _coords(helpers.naive_monic_points(D, bound)), \
        (D, bound)
    return len(got)


def test_monic_sieve_matches_naive_walk_on_random_discriminants():
    rng = random.Random(2718)
    found = 0
    for i in range(400):
        D = rng.choice((-1, 1)) * rng.randint(1, 10**7)
        found += _assert_monic_matches(D, i % 301)
    assert found >= 10, found


def test_monic_sieve_keeps_planted_points_at_the_box_edge():
    rng = random.Random(31)
    for i in range(60):
        # lattice (i): 27k^2 = 4m^3 - D, visible from bound |m| on; k = 0
        # puts the point on the lower cutoff itself (4m^3 = D)
        m, k = rng.randint(-400, 400), rng.randint(0, 500) if i % 4 else 0
        D = 4 * m**3 - 27 * k * k
        if D:
            counts = [_assert_monic_matches(D, bound)
                      for bound in (abs(m) - 1, abs(m), abs(m) + 1)]
            assert counts[1] >= 1
        # lattice (ii): N^2 = 4M^3 - 27D, 3 not | M, visible from 3*bound >= |M|
        M, N = 0, 1
        while M % 3 == 0 or (4 * M**3 - N * N) % 27:
            M, N = rng.randint(-400, 400), rng.randint(0, 500)
        D = (4 * M**3 - N * N) // 27
        if D:
            edge = -(-abs(M) // 3)
            counts = [_assert_monic_matches(D, bound)
                      for bound in (edge - 1, edge, edge + 1)]
            assert counts[1] >= 1


def test_monic_sieve_exact_cutoff_for_huge_discriminants():
    # for D near 10^13 the least m with 4m^3 >= D is 13573 and the least M
    # with 4M^3 >= 27D is 40717..40719: bound 13572 leaves both ranges
    # empty, bound 13573 one-sided ones; for D near -10^13 the cutoffs
    # (-13572, -40716..-40718) fall inside the box at bound 14000
    m0 = 13573
    for D in (10**13 + 1, 10**13 - 27, 4 * m0**3 - 27 * 9**2,
              4 * m0**3 - 27 * 4000**2, -(10**13) + 7, -(4 * m0**3) + 27):
        for bound in (0, m0 - 1, m0, m0 + 1, 14000):
            _assert_monic_matches(D, bound)
    assert _assert_monic_matches(4 * m0**3 - 27 * 9**2, m0) == 2


def test_monic_search_drops_syzygy_points_of_no_monic_form():
    # D = 29 = 4*2^3 - 3*1^2 puts (P, G) = (6, 9), i.e. (24, +-36), on
    # E_D', but 3 | P and 27 does not divide G, so no monic form gives it
    pts = search_monic_points(29, 10)
    assert _coords(pts) == [(112, -1180), (112, 1180)]
    assert _coords(helpers.naive_monic_points(29, 10)) == _coords(pts)


def test_monic_sieve_on_bench_anchors():
    counts = {}
    for m, n in ((-34, 419), (229, 3), (1, 1), (7, 3)):
        counts[m, n] = _assert_monic_matches(make_seed(m, n).D, 10**5)
    assert counts == {(-34, 419): 22, (229, 3): 2, (1, 1): 10, (7, 3): 2}


# --- cubic_square_points across its 2^16-index blocks ---

def test_cubic_square_points_across_block_boundaries():
    # each pattern is tiled once from lo and shifted per block, so the
    # planted point sits just before, on and just after a block start
    # while lo walks 81 consecutive values (every offset mod 81 and mod
    # 64); t0 = 5 puts the point on the least cube index itself, so lo
    # starts below it for half the walk
    B = _CUBIC_SQUARE_BLOCK
    widths = (B - 1, B, B + 1, 2 * B + 81)
    cases = [(10**6 + 7, 5, 40), (-(10**6) - 3, 5, 40)]
    for off in (40, B + 40, 2 * B + 40):
        s0 = 2 * 10**6 + off
        t0 = isqrt(s0**3)                       # c ~ 3 s0^3 > 0
        cases += [(s0, t0, off), (s0, 3 * t0, off)]  # c ~ -5 s0^3 < 0
    signs = Counter()
    for s0, t0, off in cases:
        c = 4 * s0**3 - t0 * t0                 # (s0, t0) is on the curve
        signs[c > 0] += 1
        w0 = s0 - off
        want = helpers.naive_cubic_square_points(c, w0, w0 + 80 + widths[-1])
        assert (s0, t0) in want
        for k in range(81):
            lo = w0 + k
            for w in widths:
                got = list(cubic_square_points(c, lo, lo + w - 1))
                assert got == [p for p in want if lo <= p[0] < lo + w], \
                    (c, lo, w)
    assert signs == {True: 4, False: 4}
