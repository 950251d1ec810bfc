"""Seed validation: D = 4m^3 - 27n^2, coprimality, squarefreeness."""

import pytest

from descent3 import disc_value, honda_divisible_by_3, make_seed, scan
from descent3.errors import (DegenerateDiscriminant, GcdViolation,
                             NotSquarefree)


def test_disc_value_formula():
    assert disc_value(-34, 419) == -4897363
    assert disc_value(229, 3) == 48035713
    assert disc_value(7, 3) == 1129
    assert disc_value(-115, 3) == -6083743
    assert disc_value(1, 1) == -23


def test_make_seed_fields():
    s = make_seed(-34, 419)
    assert (s.m, s.n, s.D) == (-34, 419, -4897363)
    assert s.d_prime == -3 * s.D == 14692089


def test_make_seed_rejects_gcd():
    # 2m and 3n must be coprime: even n shares 2, m divisible by 3 shares 3
    with pytest.raises(GcdViolation):
        make_seed(2, 2)
    with pytest.raises(GcdViolation):
        make_seed(3, 1)
    with pytest.raises(GcdViolation):
        make_seed(1, 2)


def test_make_seed_rejects_not_squarefree():
    from descent3.arith import is_squarefree

    hits = []
    for m in range(1, 40):
        for n in range(1, 40):
            try:
                make_seed(m, n)
            except NotSquarefree:
                hits.append((m, n))
            except GcdViolation:
                continue
    assert hits, "no non-squarefree D in the box; widen it"
    for m, n in hits:
        assert not is_squarefree(disc_value(m, n))


def test_degenerate_values_unreachable():
    # D = 4m^3 - 27n^2 is 0, 4 or 5 mod 9, so 1 and -3 never occur, and
    # -4 or 0 force n even or 3 | m, which the gcd check rejects first.
    # The excluded-value guard is therefore pure defense in depth.
    for m in range(-20, 21):
        for n in range(1, 40):
            try:
                s = make_seed(m, n)
            except (GcdViolation, NotSquarefree):
                continue
            except DegenerateDiscriminant:  # pragma: no cover
                raise AssertionError(f"degenerate D reached at ({m}, {n})")
            assert s.D % 9 in (0, 4, 5)
            assert s.D not in (-3, -4, 0, 1)


def test_scan_counts_and_values():
    rows = list(scan(range(1, 4), range(1, 4)))
    assert [(s.m, s.n, s.D) for s in rows] == \
        [(1, 1, -23), (1, 3, -239), (2, 1, 5), (2, 3, -211)]


def test_honda_criterion_examples():
    assert honda_divisible_by_3(1, 1)
    assert honda_divisible_by_3(229, 3)
    assert honda_divisible_by_3(-34, 419)
