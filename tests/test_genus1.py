"""Local solvability, witnesses, global search, Hasse verdicts."""

import random

import pytest

import helpers
from descent3 import (BinaryCubicForm, HomogeneousSpace, REAL_PLACE, act,
                      disc, enumerate_classes, global_search, hasse_verdict,
                      local_prime_set, locally_solvable, make_seed,
                      monic_representative, reduce)
from descent3.errors import DiscriminantMismatch

# frozen by the chart oracle: (coefficients, insolvable prime, level where
# the exhaustive residue scan dies)
INSOLVABLE = (
    ((-6, 9, 9, -3), 3, 3),
    ((2, -4, -6, 6), 2, 2),
    ((3, 3, -6, 6), 3, 2),
    ((2, 6, -6, -6), 2, 3),
    ((2, 6, -6, -6), 3, 2),
    ((2, 5, 2, 2), 13, 2),
)


# one witness of each kind, pinned by repr(LocalWitness) so that the chart
# search and the witness assembly keep every field: (coefficients, p, repr)
WITNESS_PINS = (
    # exact zero of G, reached one level down the residue tree
    ((4, -20, -21, 15), 2, "LocalWitness(place=2, level=10, triple=(1, 2, 0),"
     " note='exact zero of G')"),
    # Hensel z = 0 point: v_2 = 4 of the content-stripped chart value f
    # passes the Hensel test, and the level is v_2(G(1, 1)) = v_2(-32) = 5
    ((-2, -12, 8, -26), 2, "LocalWitness(place=2, level=5, triple=(1, 1, 0),"
     " note='z=0 branch: v(f)=4 > 2*v(df)=0, Hensel; v(G)=5')"),
    # unit cube at p = 3 below a root mod 3
    ((25, -24, -24, -2), 3, "LocalWitness(place=3, level=7,"
     " triple=(1, 11, 30), note='unit cube at level 7; v(G)=3')"),
    # unit cube at p = 7 = 1 mod 3: G(1, t) = 2(t - 1)^3 + 3*7^3 has no
    # unit cube value mod 7, so the hit t = 1 + 7*3 is found at depth 1
    ((1027, 6, -6, 2), 7, "LocalWitness(place=7, level=5,"
     " triple=(1, 22, 252), note='unit cube at level 5; v(G)=3')"),
    # the (pt : 1) chart, t = 2
    ((-50, 0, 0, -8788), 13, "LocalWitness(place=13, level=5,"
     " triple=(26, 1, 1573), note='unit cube at level 5; v(G)=3')"),
)


def test_space_guards_seed_disc():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    HomogeneousSpace(F, make_seed(1, 1))
    with pytest.raises(DiscriminantMismatch):
        HomogeneousSpace(F, make_seed(229, 3))


def test_insolvable_fixtures():
    for coeffs, p, level in INSOLVABLE:
        F = BinaryCubicForm(*coeffs)
        status, witness = locally_solvable(HomogeneousSpace(F), p)
        assert status == "no", (coeffs, p)
        assert witness is None
        # independent confirmation by exhaustive residue scan
        assert not helpers.chart_solutions_exist(F, p, level), (coeffs, p)


def test_witness_pins():
    for coeffs, p, want in WITNESS_PINS:
        F = BinaryCubicForm(*coeffs)
        status, witness = locally_solvable(HomogeneousSpace(F), p)
        assert status == "yes" and repr(witness) == want, (coeffs, p)
        assert witness.verify(F)


def test_solvable_cases_carry_verified_witnesses():
    rng = random.Random(401)
    seen_yes = 0
    for _ in range(250):
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if disc(F) == 0:
            continue
        C = HomogeneousSpace(F)
        for p in (2, 3, 5, 7, 13):
            status, witness = locally_solvable(C, p)
            if status == "yes":
                seen_yes += 1
                assert witness.verify(F), (F.coeffs(), p)
    assert seen_yes > 800


def test_solver_agrees_with_residue_oracle():
    rng = random.Random(402)
    checked = 0
    for _ in range(160):
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if disc(F) == 0:
            continue
        C = HomogeneousSpace(F)
        for p in (2, 3, 5, 7):
            status, _ = locally_solvable(C, p)
            oracle, _lvl = helpers.oracle_local_verdict(F, p, budget=2500)
            checked += 1
            if status == "no":
                assert oracle == "no", (F.coeffs(), p)
            else:
                assert oracle == "yes", (F.coeffs(), p)
    assert checked > 500


def test_unit_sweep_at_3_finds_deep_cubes():
    # F(1, -1) = -1 is a cube, but every F(1, t) for t in {0, 1, 2} is a
    # non-cube unit mod 9; the solver must sweep the class t = 2 mod 3
    F = BinaryCubicForm(2, 5, 9, 7)
    status, witness = locally_solvable(HomogeneousSpace(F), 3)
    assert status == "yes"
    assert witness.verify(F)


def test_real_place_always_solvable():
    rng = random.Random(403)
    for _ in range(40):
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if disc(F) == 0:
            continue
        status, witness = locally_solvable(HomogeneousSpace(F), REAL_PLACE)
        assert status == "yes"
        assert witness.verify(F)


def test_large_prime_fast_path():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    p = 10**12 + 39                 # prime, far beyond the exhaustive range
    status, witness = locally_solvable(HomogeneousSpace(F), p)
    assert status == "yes"
    assert witness.verify(F)


def test_local_prime_set_covers_disc_and_small():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))     # disc -23
    ps = local_prime_set(F, primes_max=50)
    assert 2 in ps and 3 in ps and 23 in ps
    assert all(p <= 50 or 23 % p == 0 or p == 23 for p in ps)


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
                      monic_representative(F, 1000), enumerated=True)
    assert v.kind == "certified_violation"
    assert v.point is None
    assert len(v.primes_checked) >= 25
    assert 2 in v.primes_checked and 3 in v.primes_checked
    assert str(v) == "CertifiedViolation"


def test_hasse_verdict_candidate_when_not_enumerated(classes_48035713):
    seed = make_seed(229, 3)
    F = classes_48035713[2]
    v = hasse_verdict(HomogeneousSpace(F, seed),
                      monic_representative(F, 1000), enumerated=False,
                      global_bound=300)
    assert v.kind == "violation_candidate"


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
    v = hasse_verdict(C, rep, enumerated=True)
    assert targets == ["cube"]
    assert v.point == (1, 1, 2)
    assert v.monic_bound == 1000 and v.search_bound == 10**4


def test_local_verdicts_agree_across_gl2_orbits(classes_4897363,
                                                 classes_48035713):
    # a 'yes' at p for one form of an orbit and a 'no' for another would
    # be a wrong answer; 'unknown' may differ.  Class representatives of
    # family discriminants are locally solvable everywhere, so the frozen
    # insolvable fixtures are added to exercise 'no' as well.
    rng = random.Random(404)
    reps = list(classes_4897363) + list(classes_48035713)
    for sign in (1, -1):
        for D in helpers.random_family_discs(rng, 60, sign, 7):
            reps.extend(enumerate_classes(D))
    reps.extend(BinaryCubicForm(*coeffs) for coeffs, _, _ in INSOLVABLE)
    answers = set()
    for _ in range(300):
        R = rng.choice(reps)
        G = act(R, helpers.random_unimodular(rng))
        for p in local_prime_set(R):
            got = {locally_solvable(HomogeneousSpace(R), p)[0],
                   locally_solvable(HomogeneousSpace(G), p)[0]}
            assert got != {"yes", "no"}, (R.coeffs(), G.coeffs(), p)
            answers |= got
    assert {"yes", "no"} <= answers
