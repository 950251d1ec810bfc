"""Seed validation: D = 4m^3 - 27n^2, coprimality, squarefreeness."""

import pytest

from descent3 import (disc_value, enumerate_classes, honda_divisible_by_3,
                      make_seed, scan)
from descent3.errors import BudgetExceeded, ValidationError
from descent3.seeds import check_disc


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
    with pytest.raises(ValidationError,
                       match=r"^gcd\(2m, 3n\) = 2 for \(m, n\) = \(2, 2\)$"):
        make_seed(2, 2)
    with pytest.raises(ValidationError,
                       match=r"^gcd\(2m, 3n\) = 3 for \(m, n\) = \(3, 1\)$"):
        make_seed(3, 1)
    with pytest.raises(ValidationError,
                       match=r"^gcd\(2m, 3n\) = 2 for \(m, n\) = \(1, 2\)$"):
        make_seed(1, 2)


def test_make_seed_rejects_not_squarefree():
    from descent3.arith import is_squarefree

    hits = []
    for m in range(1, 40):
        for n in range(1, 40):
            try:
                make_seed(m, n)
            except ValidationError as e:
                if str(e) == f"D = {disc_value(m, n)} is not squarefree":
                    hits.append((m, n))
                else:
                    assert str(e).startswith("gcd(2m, 3n) = "), str(e)
    assert hits, "no non-squarefree D in the box; widen it"
    for m, n in hits:
        assert not is_squarefree(disc_value(m, n))


def test_check_disc_is_the_class_enumeration_policy():
    check_disc(-23)
    for D, why in ((1, "is excluded"), (-3, "is excluded"),
                   (0, "is not 1 mod 4"), (-4, "is not 1 mod 4"),
                   (-27, "is not squarefree")):
        for check in (check_disc, enumerate_classes):
            with pytest.raises(ValidationError, match=f"^D = {D} {why}$"):
                check(D)


def test_degenerate_values_unreachable():
    # D = 4m^3 - 27n^2 is 0, 4 or 5 mod 9, so 1 and -3 never occur, and
    # -4 or 0 force n even or 3 | m, which the gcd check rejects first.
    # The excluded-value guard is therefore pure defense in depth.
    for m in range(-20, 21):
        for n in range(1, 40):
            try:
                s = make_seed(m, n)
            except ValidationError as e:
                assert (str(e).startswith("gcd(2m, 3n) = ")
                        or str(e).endswith(" is not squarefree")), \
                    f"degenerate D reached at ({m}, {n}): {e}"
                continue
            assert s.D % 9 in (0, 4, 5)
            assert s.D not in (-3, -4, 0, 1)


def test_scan_counts_and_values():
    rows = list(scan(range(1, 4), range(1, 4)))
    assert [(s.m, s.n, s.D) for s in rows] == \
        [(1, 1, -23), (1, 3, -239), (2, 1, 5), (2, 3, -211)]


def test_scan_skips_only_the_seeds_make_seed_rejects(monkeypatch):
    # (2, 2) fails the gcd test and (2, 21) has D = -11875 = -5^4 * 19, so
    # both are skipped; a squarefree test that gives up on D(2, 3) is no
    # verdict on the seed, so it stops the scan
    import descent3.seeds as seeds
    real = seeds.is_squarefree

    def give_up(n):
        if n == disc_value(2, 3):
            raise BudgetExceeded(f"gave up factoring {n}")
        return real(n)

    monkeypatch.setattr(seeds, "is_squarefree", give_up)
    rows = scan([2], [2, 21, 1, 3])
    assert next(rows).D == disc_value(2, 1)
    with pytest.raises(BudgetExceeded, match="^gave up factoring -211$"):
        next(rows)


def test_honda_criterion_examples():
    assert honda_divisible_by_3(1, 1)
    assert honda_divisible_by_3(229, 3)
    assert honda_divisible_by_3(-34, 419)
