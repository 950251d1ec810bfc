"""The exact residue-sieved point searches against a scan of every cell."""

import random
from collections import Counter
from math import gcd, isqrt

import helpers
import descent3.cubicforms as cubicforms
from descent3.arith import (_CUBIC_SQUARE_BLOCK, _CUBIC_SQUARE_GROUPS,
                            cubic_square_points)
from descent3 import (BinaryCubicForm, HomogeneousSpace, act, disc,
                      enumerate_classes, global_search, is_irreducible,
                      make_seed, monic_representative, search_monic_points)
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
# F(x0, y0) = 1; the first hit of each is at the cell its comment names.
# A hit whose sieved cell lies on a row y below its max-norm h leaves the
# rows y + 1 .. h to be sieved before the search may stop; a hit on the
# row y = h stops it at the next row
PLANTED = (
    # |x| = 9 on a row y <= 8, so the rows up to 9 are still sieved
    # (the cube hit (-9, -8) is the mirror of the sieved cell (9, 8))
    ((-1779, -9713, -17675, -10720), 16, "unit", (-9, 5)),
    ((-16047, 53979, -60520, 22616), 16, "cube", (-9, -8)),
    # the row y = 9 = max-norm, |x| < 9
    ((-22762, 15010, -3296, 241), 16, "unit", (2, 9)),
    ((11719, 31533, 28284, 8457), 16, "cube", (-8, 9)),
    # |x| = 11 on a row y <= 7 of the box of bound 20
    # (the cube hit (-11, -7) is the mirror of the sieved cell (11, 7))
    ((-1394, -15432, -56944, -70039), 20, "unit", (-11, 3)),
    ((2946, -13965, 22066, -11622), 20, "cube", (-11, -7)),
    # the row y = 11 = max-norm, |x| < 11, bound 20
    ((10926, -14814, 6696, -1009), 20, "unit", (5, 11)),
    ((-29193, -79260, -71731, -21639), 20, "cube", (-10, 11)),
    # farther out: the row y = 18 = max-norm, and |x| = 18 on the row 11
    ((-24425, 27618, -10397, 1303), 20, "unit", (7, 18)),
    ((434, 1703, 2086, 755), 20, "cube", (-18, 11)),
    # the odd bound 13: |x| = 7 on the row y = 6, and the last row
    # y = 13 = bound
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
    # so the exact checks show the geometry: each row y = 0 .. bound is
    # sieved once at full width (row 0 from its two coprime cells
    # x = +-1), and no cell is visited twice
    monkeypatch.setitem(cubicforms._TARGETS, "any",
                        (lambda m: set(range(m)), lambda v: False, True))
    for bound in range(41):
        F, seen = _recording(BinaryCubicForm(1, 0, -1, 1))
        assert _sieved_search(F, bound, "any") is None
        want = [(x, y) for y in range(bound + 1)
                for x in range(-bound, bound + 1) if gcd(x, y) == 1]
        assert sorted(seen) == sorted(want), bound


def test_sieve_builds_residue_rows_on_demand(classes_4897363, monkeypatch):
    # the four classes that do not represent 1 within 10^3 have small
    # global points, so each search stops after a few rows, builds one or
    # two of the m residue rows of a modulus, each once, and passes only a
    # few cells to the exact check.  Row 0 starts from its two coprime
    # cells x = +-1: sieved at full width, it would pass all 20,001 cells
    # of row 0 of (27, -19, 27, 8), whose leading coefficient is a cube
    forms = [F for F in classes_4897363
             if not monic_representative(F, 1000).found]
    assert len(forms) == 4
    residue_row, bit_indices = cubicforms._residue_row, cubicforms.bit_indices
    built, listed = [], []

    def spy(F, m, ok, y):
        built.append((m, y))
        return residue_row(F, m, ok, y)

    def listing(row, lo):
        for x in bit_indices(row, lo):
            listed.append(x)
            yield x

    monkeypatch.setattr(cubicforms, "_residue_row", spy)
    monkeypatch.setattr(cubicforms, "bit_indices", listing)
    for F in forms:
        built.clear()
        listed.clear()
        R, seen = _recording(F)
        assert global_search(HomogeneousSpace(R), 10**4) is not None
        assert built and len(set(built)) == len(built), F
        per_modulus = Counter(m for m, _ in built)
        assert max(per_modulus.values()) <= 2, (F, per_modulus)
        assert len(listed) <= 16 and len(seen) <= 16, (F, listed, seen)


def _row_bits(row, m):
    return [u for u in range(m) if row >> u & 1]


def test_scaled_rows_match_evaluated_rows_for_the_cube_target(
        classes_4897363, classes_48035713):
    # F(s, t) = t^3 F(s/t, 1) and t^3 is a unit cube, so for t prime to m
    # the cube row for y = t is the row for y = 1 with bit u moved to
    # u*t mod m
    allowed, _, scales = cubicforms._TARGETS["cube"]
    assert scales
    forms = (_random_forms(random.Random(1618), 40) + list(classes_4897363)
             + list(classes_48035713))
    checked = 0
    for F in forms:
        for m in cubicforms._SIEVE_MODULI:
            ok = allowed(m)
            ones = _row_bits(cubicforms._residue_row(F, m, ok, 1), m)
            for t in range(1, m):
                if gcd(t, m) == 1:
                    assert (cubicforms._scaled_row(ones, m, t)
                            == cubicforms._residue_row(F, m, ok, t)), \
                        (F, m, t)
                    checked += 1
    assert checked == len(forms) * 522, checked   # the sum of phi(m)


def test_scaled_rows_fail_for_the_unit_target():
    # {1, -1} is not closed under unit cubes mod 19 (2^3 = 8), so the
    # unit target must evaluate its rows: (2, -41, -45, 134) is +-1 mod 19
    # at (0, 1) only, but not at (0, 2), where it is 8 * 134
    allowed, _, scales = cubicforms._TARGETS["unit"]
    assert not scales
    F, m = BinaryCubicForm(2, -41, -45, 134), 19
    ok = allowed(m)
    ones = _row_bits(cubicforms._residue_row(F, m, ok, 1), m)
    assert ones == [0]
    assert cubicforms._scaled_row(ones, m, 2) == 1
    assert cubicforms._residue_row(F, m, ok, 2) != 1


def test_cube_search_evaluates_26_residue_rows(monkeypatch):
    # a full 10^4 search with no hit needs every row residue of every
    # modulus.  Only the 12 rows for y = 1, the 12 for y = 0 and the rows
    # for y = 3, 6 mod 9 evaluate F; the other 510 are scaled from the
    # row for y = 1.  Evaluating them all took sum(_SIEVE_MODULI) = 536
    residue_row, built = cubicforms._residue_row, []

    def spy(F, m, ok, y):
        built.append((m, y))
        return residue_row(F, m, ok, y)

    monkeypatch.setattr(cubicforms, "_residue_row", spy)
    assert _sieved_search(BinaryCubicForm(2, -41, -45, 134), 10**4,
                          "cube") is None
    assert len(built) <= 26 and len(set(built)) == len(built), built
    assert set(built) <= ({(m, y) for m in cubicforms._SIEVE_MODULI
                           for y in (0, 1)} | {(9, 3), (9, 6)}), built


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


def test_sieve_matches_radius_search_on_random_forms():
    # the one-pass row walk returns what the radius search did, on both
    # targets, at bounds that are and are not powers of 2, and at 0
    rng = random.Random(2718)
    checked = hits = 0
    while checked < 6400:
        F = BinaryCubicForm(*(rng.randint(-30, 30) for _ in range(4)))
        if not any(F.coeffs()) or disc(F) == 0 or not is_irreducible(F):
            continue
        for G in (F, -F):
            for bound in (0, 1, 3, 7, 13, 20, 40, 150):
                for target in ACCEPT:
                    want = helpers.radius_sieved_search(G, bound, target)
                    assert _sieved_search(G, bound, target) == want, \
                        (G, bound, target)
                    checked += 1
                    hits += want is not None
    assert hits >= 1000, hits


def test_sieve_matches_radius_search_on_bench_classes(classes_4897363,
                                                       classes_48035713):
    # every class of the anchors and the held-out seeds: hits at small and
    # far max-norms, and 20001^2 misses
    classes = list(classes_4897363) + list(classes_48035713)
    for m, n in ((-73, 1), (-46, 1), (-19, 13), (-130, 21), (-196, 39)):
        classes += enumerate_classes(make_seed(m, n).D)
    for F in classes:
        if F.a != 1:
            assert (_sieved_search(F, 10**4, "cube")
                    == helpers.radius_sieved_search(F, 10**4, "cube")), F
        assert (_sieved_search(F, 10**3, "unit")
                == helpers.radius_sieved_search(F, 10**3, "unit")), F


def test_global_search_far_point_pinned():
    # a class of the seed (-196, 39): its first hit (-841, 983) has
    # max-norm 983 and lies on the sieved row y = 983, so the search
    # sieves the rows 0 .. 983 at full width and stops at the row 984
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


# --- cubic_square_points across its blocks ---

def test_cubic_square_points_across_block_boundaries():
    # each group mask is built from lo, tiled once and shifted per block,
    # so the planted point sits just before, on and just after a block
    # start while lo walks 81 consecutive values (every offset mod 81 and
    # mod 64); t0 = 5 puts the point on the least cube index itself, so lo
    # starts below it for half the walk.  Then, for the two points at
    # off = 40 that lie well above the least cube index (one c of each
    # sign), lo walks one period of the largest group product below the
    # point, so lo covers every offset modulo every group product, in one
    # block and with the point in the second of two blocks.
    B = _CUBIC_SQUARE_BLOCK
    Qmax = max(Q for _, Q in _CUBIC_SQUARE_GROUPS)
    assert Qmax < B
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
        if off != 40 or t0 == 5:
            continue
        want = helpers.naive_cubic_square_points(c, s0 - B - Qmax, s0 + 60)
        assert 4 * (s0 - B - Qmax) ** 3 >= c    # no lo is clamped
        for k in range(Qmax):
            for lo, hi in ((s0 - k, s0 + k % 61), (s0 - B - k, s0 + 1)):
                got = list(cubic_square_points(c, lo, hi))
                assert got == [p for p in want if lo <= p[0] <= hi], \
                    (c, lo, hi)
    assert signs == {True: 4, False: 4}


def test_cubic_square_points_match_naive_scan_on_random_ranges():
    # seeded curves with a planted point (s0, t0), s0 of either sign, and
    # seeded ranges around it of one block and of up to three blocks
    rng = random.Random(17)
    B = _CUBIC_SQUARE_BLOCK
    signs, blocks = Counter(), Counter()
    for trial in range(24):
        s0 = rng.choice((-1, 1)) * rng.randrange(1, 10**7)
        t0 = rng.randrange(0, 3 * isqrt(abs(s0) ** 3) + 2)
        c = 4 * s0**3 - t0 * t0
        w = rng.randrange(1, B + 1) if trial % 2 else rng.randrange(B + 1,
                                                                    3 * B)
        lo = s0 - rng.randrange(w)
        got = list(cubic_square_points(c, lo, lo + w - 1))
        assert got == helpers.naive_cubic_square_points(c, lo, lo + w - 1)
        assert (s0, t0) in got
        signs[c > 0] += 1
        blocks[w > B] += 1
    assert len(signs) == 2 and blocks == {False: 12, True: 12}
