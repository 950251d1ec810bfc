"""Half-integral quadratic field arithmetic and the exact cube test."""

import random

import pytest

from descent3 import QuadElem, is_cube, make_seed, same_cubic_field, virtual_unit
from descent3.errors import ValidationError
from descent3.quadfield import yamamoto_nonprincipal

FIELDS = (-23, -31, 5, 13, 69, -163, 229, -4897363, 257, -407)


def rand_elem(rng, d, size=40):
    # (u + v sqrt(d))/2 needs u = v mod 2 to be an algebraic integer when
    # d = 1 mod 4; from_pair(d, a, b) = a + b sqrt(d) always works
    return QuadElem.from_pair(d, rng.randint(-size, size),
                              rng.randint(-size, size))


def test_ring_axioms_random():
    rng = random.Random(201)
    for d in FIELDS[:6]:
        for _ in range(50):
            a, b, c = (rand_elem(rng, d) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a - a == QuadElem.from_pair(d, 0, 0)


def test_norm_trace_conj():
    rng = random.Random(202)
    for d in FIELDS:
        for _ in range(30):
            a = rand_elem(rng, d)
            b = rand_elem(rng, d)
            assert (a * b).norm() == a.norm() * b.norm()
            prod = a * a.conj()
            assert prod.is_rational()
            assert prod.trace() == 2 * a.norm()       # a*conj(a) = N(a)
            assert (a + a.conj()).trace() == 2 * a.trace()


def test_field_mismatch_guarded():
    a = QuadElem.from_pair(-23, 1, 1)
    b = QuadElem.from_pair(5, 1, 1)
    with pytest.raises(ValidationError,
                       match="^field mismatch: d = -23 vs 5$"):
        a * b


def test_is_cube_round_trip_small():
    rng = random.Random(203)
    for d in FIELDS:
        for _ in range(40):
            beta = rand_elem(rng, d, 25)
            if beta.is_zero():
                continue
            cube = beta * beta * beta
            root = is_cube(cube)
            assert root is not None
            assert root * root * root == cube


def test_is_cube_negative_fixture():
    # 108 + 12 sqrt(69) has norm 1728 = 12^3, but a cube root would force
    # an integer T with T^3 - 36 T = 216, and x^3 - 36x - 216 has no
    # integer root, so the cube test must refuse
    alpha = QuadElem.from_pair(69, 108, 12)
    assert alpha.norm() == 1728
    assert is_cube(alpha) is None
    from descent3.arith import integer_roots_monic_cubic
    assert integer_roots_monic_cubic(0, -36, -216) == []


def test_is_cube_rejects_non_cubes_random():
    # perturb genuine cubes; a cube plus 1 is rarely a cube, verify via
    # round-trip absence
    rng = random.Random(204)
    refused = 0
    for d in FIELDS[:5]:
        for _ in range(40):
            beta = rand_elem(rng, d, 12)
            cube = beta * beta * beta
            bumped = cube + QuadElem.from_pair(d, 1, 0)
            r = is_cube(bumped)
            if r is None:
                refused += 1
            else:
                assert r * r * r == bumped
    assert refused > 150


def test_virtual_unit_norm_and_field():
    for (m, n) in ((1, 1), (7, 3), (229, 3), (-34, 419), (2, 1)):
        seed = make_seed(m, n)
        mu = virtual_unit(seed)
        assert mu.norm() == (3 * m) ** 3
        if is_cube(mu) is None:
            assert same_cubic_field(mu, mu)


def test_yamamoto_nonprincipal_witness():
    # 16^2 = 4*7^3 + 36*(-31) and 16 is a cube non-residue mod 7, so the
    # norm-equation point witnesses a nonprincipal cube ideal class
    assert yamamoto_nonprincipal(7, 16, 6, -31) is True
    # 3^2 = 4*2^3 + (-23): x = 2 has no prime divisor 1 mod 3, no witness
    assert yamamoto_nonprincipal(2, 3, 1, -23) is False
    with pytest.raises(ValidationError, match="^not on the norm equation: "):
        yamamoto_nonprincipal(7, 17, 6, -31)
