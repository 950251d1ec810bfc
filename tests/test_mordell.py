"""Exact group law, the 3-isogeny pair, descent maps, point search."""

import random
from fractions import Fraction
from itertools import islice, takewhile

import pytest
import sympy
from sympy.ntheory import sqrt_mod

from descent3 import (CurvePoint, MordellCurve, add, in_lambda_image, is_cube,
                      lambda_dual, lambda_map, lambda_preimage, make_seed,
                      mul_scalar, psi, psi_prime, search_monic_points,
                      span_dim_mod_3, span_dim_mod_lambda)
from descent3.errors import ValidationError
from descent3.mordell import _split_characters


E23 = MordellCurve.e_d(-23)          # y^2 = x^3 - 368
E23P = MordellCurve.e_d_prime(-23)   # y^2 = x^3 + 9936


def test_curvepoint_validates():
    P = CurvePoint(E23, 8, 12)
    assert not P.infinite
    with pytest.raises(ValidationError, match=r"^\(8, 13\) not on "):
        CurvePoint(E23, 8, 13)
    O = CurvePoint(E23)
    assert O.infinite
    # integral points are checked in integers: a pair one off the curve in
    # either coordinate is refused, and int and Fraction inputs build one
    # point; a non-integral pair is checked in Fractions
    for E, x, y in ((E23, 8, 12), (E23P, -15, 81)):
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            with pytest.raises(ValidationError, match=" not on y"):
                CurvePoint(E, x + dx, y + dy)
        P = CurvePoint(E, x, y)
        for X, Y in ((Fraction(x), Fraction(y)), (Fraction(x), y),
                     (x, Fraction(2 * y, 2))):
            Q = CurvePoint(E, X, Y)
            assert Q == P and hash(Q) == hash(P)
            assert type(Q.x) is type(Q.y) is Fraction
            assert Q.uvw() == (x, y, 1)
    T = mul_scalar(3, CurvePoint(E23, 8, 12))       # (449/25, 9207/125)
    assert CurvePoint(E23, T.x, T.y) == T
    with pytest.raises(ValidationError, match=" not on y"):
        CurvePoint(E23, T.x, T.y + 1)


def test_split_characters_match_sympy_primes_and_roots():
    # d = 1 is a nonzero square mod every l, so its split primes are the
    # primes l = 1 (mod 6) themselves, each with the roots 1 and l - 1
    primes = [l for l in range(7, 2000, 6) if sympy.isprime(l)]
    chars = list(islice(_split_characters(1, []), 2 * len(primes)))
    assert chars[::2] == [(l, 1) for l in primes]
    assert chars[1::2] == [(l, l - 1) for l in primes]
    # for seeded d of either sign and for d = -3D of a family seed, the
    # split primes below 2000 are the l = 1 (mod 6) at which sympy finds d a
    # nonzero square, and the first root is the one sqrt_mod returns
    rng = random.Random(20)
    ds = [rng.choice((-1, 1)) * rng.randrange(2, 10**9) for _ in range(40)]
    seen = set()
    for d in ds + [-3 * make_seed(-34, 419).D]:
        chars = list(takewhile(lambda ch: ch[0] < 2000,
                               _split_characters(d, [])))
        assert chars[::2] == [(l, sqrt_mod(d, l)) for l in primes
                              if d % l and sympy.legendre_symbol(d % l, l) == 1]
        assert chars[1::2] == [(l, l - r) for l, r in chars[::2]]
        seen.update(l for l, _ in chars)
    assert seen == set(primes)


def test_group_law_axioms():
    P = CurvePoint(E23P, 12, 108)
    O = CurvePoint(E23P)
    assert add(P, O) == P
    assert add(O, P) == P
    assert add(P, -P) == O
    Q = mul_scalar(2, P)
    R = mul_scalar(3, P)
    assert add(Q, P) == R
    assert add(add(P, Q), R) == add(P, add(Q, R))
    assert mul_scalar(5, P) == add(Q, R)
    assert mul_scalar(-2, P) == -Q


def test_group_law_rejects_mixed_curves():
    with pytest.raises(ValidationError, match="^points on two curves: "):
        add(CurvePoint(E23, 8, 12), CurvePoint(E23P, 12, 108))


def test_doubling_matches_known_value():
    P = CurvePoint(E23, 8, 12)
    Q = mul_scalar(3, P)
    assert (Q.x, Q.y) == (Fraction(449, 25), Fraction(9207, 125))


def test_lambda_fixed_case():
    P = CurvePoint(E23, 8, 12)
    L = lambda_map(P, -23)
    assert (L.x, L.y) == (-15, 81)
    assert 81 * 81 == (-15) ** 3 + 9936
    assert L.curve.k == 9936


def test_lambda_composition_is_multiplication_by_3():
    P = CurvePoint(E23, 8, 12)
    assert lambda_dual(lambda_map(P, -23), -23) == mul_scalar(3, P)
    S = CurvePoint(E23P, 12, 108)
    assert lambda_map(lambda_dual(S, -23), -23) == mul_scalar(3, S)


def test_lambda_at_infinity():
    O = CurvePoint(E23)
    assert lambda_map(O, -23).infinite


def test_lambda_preimage_round_trip():
    S = CurvePoint(E23P, 12, 108)
    Q = lambda_dual(S, -23)
    T = lambda_map(Q, -23)           # = 3S, inside the image by construction
    pre = lambda_preimage(T, -23)
    assert pre is not None
    assert lambda_map(pre, -23) == T


def test_lambda_preimage_missing_outside_image():
    # (12, 108) generates E_{D'}(Q)/lambda-image nontrivially, so it has
    # no rational preimage
    S = CurvePoint(E23P, 12, 108)
    assert not in_lambda_image(S, -23)
    assert lambda_preimage(S, -23) is None


def test_psi_values_and_norm():
    S = CurvePoint(E23P, 12, 108)
    v = psi_prime(S, -23)
    assert v.d == 69
    assert v == getattr(type(v), "from_pair")(69, 108, 12)
    # norm U^3 with S = (U/W^2, V/W^3)
    assert v.norm() == 12 ** 3
    P = CurvePoint(E23, 8, 12)
    w = psi(P, -23)
    assert w.d == -23
    assert w.norm() == 8 ** 3


def test_psi_at_infinity_is_trivial():
    assert psi_prime(CurvePoint(E23P), -23) is None
    assert psi(CurvePoint(E23), -23) is None


def test_psi_prime_kernel_detection():
    # points in the lambda image give cube psi' values
    S = CurvePoint(E23P, 12, 108)
    T = lambda_map(lambda_dual(S, -23), -23)
    assert in_lambda_image(T, -23)
    assert is_cube(psi_prime(T, -23)) is not None


def test_search_monic_points_lattice():
    pts = search_monic_points(-23, 700)
    xs = sorted({int(p.x) for p in pts})
    assert xs == [-20, 4, 12, 52, 660]
    for p in pts:
        assert p.x % 4 == 0                       # x = 4u on this lattice
        assert p.y ** 2 == p.x ** 3 + 432 * 23
    assert search_monic_points(-23, 0) == []
    small = search_monic_points(-23, 11)
    assert set(small) <= set(pts)                 # bound is monotone


def test_span_dims_on_small_example():
    pts = search_monic_points(-23, 700)
    assert span_dim_mod_lambda(pts, -23) == 1
    assert span_dim_mod_3(pts, -23) == 2


def test_span_empty_and_single():
    assert span_dim_mod_lambda([], -23) == 0
    S = CurvePoint(E23P, 12, 108)
    assert span_dim_mod_lambda([S, mul_scalar(2, S)], -23) == 1
