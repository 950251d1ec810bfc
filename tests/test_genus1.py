"""Local solvability, witnesses, global search, Hasse verdicts."""

import random

import pytest
import sympy

import helpers
import descent3.genus1 as g1

from descent3 import (BinaryCubicForm, HomogeneousSpace, act, disc,
                      enumerate_classes, global_search, hasse_verdict,
                      locally_solvable, make_seed, monic_representative,
                      reduce, scan)
from descent3.arith import factorize
from descent3.errors import DiscriminantMismatch, ValidationError

# forms with 3 | disc, outside the domain of the Q_3 criterion, frozen by
# the chart oracle: (coefficients, level where the exhaustive residue scan
# over Z/3^level dies)
INSOLVABLE = (
    ((-6, 9, 9, -3), 3),
    ((3, 3, -6, 6), 2),
    ((2, 6, -6, -6), 2),
)


# one witness of each shape at 3, pinned by repr(LocalWitness) so that the
# witness assembly keeps every field: (coefficients, repr)
WITNESS_PINS = (
    # a finite root: G(1, 1) = 3
    ((1, 0, 1, 1), "LocalWitness(place=3, level=1, triple=(1, 1, 0),"
     " note='simple root mod 3; Hensel')"),
    # the root (0 : 1): G(1, t) = 1, 2, 2 (mod 3) for t = 0, 1, 2, and d = 3
    ((1, 0, 1, 3), "LocalWitness(place=3, level=1, triple=(0, 1, 0),"
     " note='simple root mod 3; Hensel')"),
    # a unit value -1 mod 9 on a class of D = 48035713: G(1, t) = 2, 5,
    # 2, 5 (mod 9) for t = 0..3, so the first unit cube is at t = 4
    ((2, -41, -45, 134), "LocalWitness(place=3, level=2, triple=(1, 4, -1),"
     " note='value -1 mod 9, a unit cube')"),
)


def test_space_guards_seed_disc():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    HomogeneousSpace(F, make_seed(1, 1))
    with pytest.raises(DiscriminantMismatch):
        HomogeneousSpace(F, make_seed(229, 3))


def test_insolvable_fixtures():
    # the criterion needs 3 not dividing disc, and these forms show why:
    # the exhaustive residue scan finds them insolvable over Z_3
    for coeffs, level in INSOLVABLE:
        F = BinaryCubicForm(*coeffs)
        assert disc(F) % 3 == 0
        with pytest.raises(ValidationError, match="3 divides disc"):
            locally_solvable(HomogeneousSpace(F))
        assert helpers.oracle_local_verdict(F, 3) == ("no", level), coeffs


def test_witness_pins():
    for coeffs, want in WITNESS_PINS:
        F = BinaryCubicForm(*coeffs)
        status, witness = locally_solvable(HomogeneousSpace(F))
        assert status == "yes" and repr(witness) == want, coeffs
        assert witness.verify(F)


def _forms_prime_to_3(rng, count):
    """`count` random forms with coefficients in [-9, 9] and 3 not
    dividing disc, the domain of the Q_3 criterion."""
    forms = []
    while len(forms) < count:
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if disc(F) % 3:
            forms.append(F)
    return forms


def test_solvable_cases_carry_verified_witnesses():
    for F in _forms_prime_to_3(random.Random(401), 1000):
        status, witness = locally_solvable(HomogeneousSpace(F))
        assert status == "yes", F.coeffs()
        assert witness.level <= 2 and witness.verify(F), F.coeffs()


def test_solver_agrees_with_residue_oracle():
    for F in _forms_prime_to_3(random.Random(402), 500):
        status, witness = locally_solvable(HomogeneousSpace(F))
        assert status == "yes" and witness.verify(F), F.coeffs()
        oracle, _lvl = helpers.oracle_local_verdict(F, 3, budget=2500)
        assert oracle == "yes", F.coeffs()


def test_unit_sweep_at_3_finds_deep_cubes():
    # F has no root mod 3 and every F(1, t) for t in {0, 1, 2} is a
    # non-cube unit mod 9, so the witness needs a lift t >= 3
    F = BinaryCubicForm(2, 5, 9, 7)
    status, witness = locally_solvable(HomogeneousSpace(F))
    assert status == "yes"
    assert witness.verify(F)
    assert witness.triple == (1, 3, -1)         # F(1, 3) = 287 = -1 mod 9


def _family_classes():
    seeds = list(scan(range(-30, 31), range(1, 12)))
    assert len(seeds) == 203
    return [(seed.D, F) for seed in seeds for F in enumerate_classes(seed.D)]


def test_q3_witness_for_every_family_class_by_theorem():
    # 3 never divides a family D, so the closed form must find a witness
    # of level <= 2 on every class and on a GL_2(Z) image of each
    rng = random.Random(405)
    classes = _family_classes()
    assert len(classes) == 237
    for D, R in classes:
        for F in (R, act(R, helpers.random_unimodular(rng))):
            status, witness = locally_solvable(HomogeneousSpace(F))
            assert status == "yes", (D, F.coeffs())
            assert witness.level <= 2 and witness.verify(F), (D, F.coeffs())


def test_solvable_off_3d_by_hasse_weil_and_hensel():
    # at p not dividing 3D the curve reduces to a smooth plane cubic over
    # F_p, which has a point (Hasse-Weil) that Hensel lifts; this is one
    # half of why hasse_verdict tests only Q_3
    small = helpers.primes_upto(200)
    calls = 0
    for D, F in _family_classes():
        for p in small:
            if (3 * D) % p:
                calls += 1
                assert helpers.smooth_point_mod_p(F, p), (F.coeffs(), p)
    assert calls == 10_460


def test_solvable_at_the_primes_of_d_by_a_smooth_point():
    # at p | D, D squarefree and prime to 6 make F = c L1^2 L2 (mod p), and
    # the value c t at (1 : t) in coordinates where F = c x^2 y is a unit
    # cube at t = 1/c; this is the other half.  The helper can fail: 2x^3
    # mod 7 takes only the non-cubes 2 and 5, and its root is singular
    assert helpers.smooth_point_mod_p(BinaryCubicForm(2, 7, 7, 7), 7) is None
    calls = 0
    for D, F in _family_classes():
        for p in factorize(D):
            calls += 1
            assert helpers.smooth_point_mod_p(F, p), (F.coeffs(), p)
    assert calls == 403


def test_global_search_finds_unit_values():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    hit = global_search(HomogeneousSpace(F), 20)
    assert hit is not None
    x, y, z = hit
    assert F(x, y) == z ** 3


def test_hasse_verdict_monic_class_constructive():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    v = hasse_verdict(HomogeneousSpace(F, make_seed(1, 1)),
                      monic_representative(F, 1000))
    assert v.kind == "has_global_point"
    x, y, z = v.point
    assert F(x, y) == z ** 3
    assert "represents 1" in v.notes


def test_hasse_verdict_certified_violation(classes_48035713):
    seed = make_seed(229, 3)
    F = classes_48035713[1]
    v = hasse_verdict(HomogeneousSpace(F, seed),
                      monic_representative(F, 1000))
    assert v.kind == "certified_violation"
    assert v.point is None
    assert v.primes_checked == (3,)
    assert "everywhere locally solvable" in v.notes
    assert str(v) == "CertifiedViolation"


def test_hasse_verdict_needs_a_seed(classes_48035713):
    F = classes_48035713[1]
    with pytest.raises(ValidationError, match="no seed"):
        hasse_verdict(HomogeneousSpace(F), monic_representative(F, 1000))


def test_hasse_verdict_tests_q3_once_per_class_and_factors_nothing(
        classes_48035713, monkeypatch):
    import descent3.arith as arith
    calls = []
    real = g1.locally_solvable

    def spy(*args):
        calls.append(args)
        return real(*args)

    def no_factoring(*_args, **_kwargs):
        raise AssertionError("hasse_verdict factored a number")

    monkeypatch.setattr(g1, "locally_solvable", spy)
    monkeypatch.setattr(arith, "factorize", no_factoring)
    monkeypatch.setattr(sympy, "factorint", no_factoring)
    seed = make_seed(229, 3)
    verdicts = [hasse_verdict(HomogeneousSpace(F, seed),
                              monic_representative(F, 1000),
                              global_bound=300)
                for F in classes_48035713]
    assert [v.kind for v in verdicts] == (["has_global_point"]
                                          + ["certified_violation"] * 3)
    # one local test per non-monic class, over Q_3 only
    assert [C.form for (C,) in calls] == list(classes_48035713[1:])
    assert all(v.primes_checked == (3,) for v in verdicts[1:])


def test_hasse_verdict_reuses_a_given_monic_search(classes_4897363,
                                                   seed_m34_419, monkeypatch):
    import descent3.cubicforms as cf
    import descent3.genus1 as g1
    F = classes_4897363[8]                   # not monic within 10^3
    C = HomogeneousSpace(F, seed_m34_419)
    rep = monic_representative(F, 1000)
    assert rep.status == "not_found"
    targets = []
    sieve = cf._sieved_search

    def spy(G, bound, target):
        targets.append(target)
        return sieve(G, bound, target)

    # every box search goes through the sieve; only the global one may run
    monkeypatch.setattr(cf, "_sieved_search", spy)
    monkeypatch.setattr(g1, "_sieved_search", spy)
    monkeypatch.setattr(cf, "monic_representative", None)
    v = hasse_verdict(C, rep)
    assert targets == ["cube"]
    assert v.point == (1, 1, 2)
    assert v.monic_bound == 1000 and v.search_bound == 10**4


def test_local_verdicts_agree_across_gl2_orbits(classes_4897363,
                                                 classes_48035713):
    # disc is a GL_2(Z) invariant, so both forms of an orbit lie in the
    # domain of the criterion, and each must carry a verified witness
    rng = random.Random(404)
    reps = list(classes_4897363) + list(classes_48035713)
    for sign in (1, -1):
        for D in helpers.random_family_discs(rng, 60, sign, 7):
            reps.extend(enumerate_classes(D))
    for R in [rng.choice(reps) for _ in range(300)]:
        G = act(R, helpers.random_unimodular(rng))
        for F in (R, G):
            status, witness = locally_solvable(HomogeneousSpace(F))
            assert status == "yes", (R.coeffs(), G.coeffs())
            assert witness.verify(F), (R.coeffs(), G.coeffs())
