"""The exact residue-sieved point search against a scan of every cell."""

import random

import helpers
from descent3 import (BinaryCubicForm, HomogeneousSpace, act, disc,
                      global_search, is_irreducible, monic_representative)
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
    # the hit (-196, 39) lies in the last doubling radius before the bound
    C = HomogeneousSpace(BinaryCubicForm(37, -42, 70, -9))
    assert global_search(C, 10**4) == (841, -983, 4886)
