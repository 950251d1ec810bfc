"""Local solvability, witnesses, global search, Hasse verdicts."""

import random

import pytest
import sympy

import helpers
import descent3.genus1 as g1

from descent3 import (BinaryCubicForm, HomogeneousSpace, act, build_report,
                      disc, enumerate_classes, global_search, hasse_verdict,
                      locally_solvable, make_seed, monic_representative,
                      reduce, scan)
from descent3.arith import factorize
from descent3.cli import main
from descent3.errors import (DiscriminantMismatch, InconsistencyError,
                             ValidationError)

# frozen by the chart oracle: (coefficients, level where the exhaustive
# residue scan over Z/3^level dies)
INSOLVABLE = (
    ((-6, 9, 9, -3), 3),
    ((3, 3, -6, 6), 2),
    ((2, 6, -6, -6), 2),
)


# one witness of each kind at 3, pinned by repr(LocalWitness) so that the
# chart search and the witness assembly keep every field:
# (coefficients, repr)
WITNESS_PINS = (
    # exact zero of G: G(1, t) = (t - 4)(t^2 + t + 10), whose residues at
    # t = 0, 2 are non-cube units mod 9, so the zero t = 4 is reached one
    # level down the residue tree below the root t = 1 mod 3
    ((-40, 6, -3, 1), "LocalWitness(place=3, level=10, triple=(1, 4, 0),"
     " note='exact zero of G')"),
    # Hensel z = 0 point: v_3 = 3 of the content-stripped chart value f
    # passes the Hensel test, and the level is v_3(G(1, 2)) = 4
    ((-3, -3, 0, -9), "LocalWitness(place=3, level=4, triple=(1, 2, 0),"
     " note='z=0 branch: v(f)=3 > 2*v(df)=0, Hensel; v(G)=4')"),
    # unit cube below a root mod 3
    ((25, -24, -24, -2), "LocalWitness(place=3, level=7,"
     " triple=(1, 11, 30), note='unit cube at level 7; v(G)=3')"),
    # the (3t : 1) chart, t = 0
    ((-3, -3, 3, 1), "LocalWitness(place=3, level=3, triple=(0, 1, 1),"
     " note='unit cube at level 3; v(G)=0')"),
)


def test_space_guards_seed_disc():
    F = reduce(BinaryCubicForm(1, 0, -1, 1))
    HomogeneousSpace(F, make_seed(1, 1))
    with pytest.raises(DiscriminantMismatch):
        HomogeneousSpace(F, make_seed(229, 3))


def test_insolvable_fixtures():
    for coeffs, level in INSOLVABLE:
        F = BinaryCubicForm(*coeffs)
        status, witness = locally_solvable(HomogeneousSpace(F))
        assert status == "no", coeffs
        assert witness is None
        # independent confirmation by exhaustive residue scan
        assert not helpers.chart_solutions_exist(F, 3, level), coeffs


def test_depth_cap_turns_an_exhausted_search_into_unknown(monkeypatch):
    # (-6, 9, 9, -3) is ruled out one level down the residue tree
    C = HomogeneousSpace(BinaryCubicForm(-6, 9, 9, -3))
    monkeypatch.setattr(g1, "_MAX_DEPTH", 0)
    assert locally_solvable(C) == ("unknown", None)


def test_witness_pins():
    for coeffs, want in WITNESS_PINS:
        F = BinaryCubicForm(*coeffs)
        status, witness = locally_solvable(HomogeneousSpace(F))
        assert status == "yes" and repr(witness) == want, coeffs
        assert witness.verify(F)


def test_solvable_cases_carry_verified_witnesses():
    rng = random.Random(401)
    seen_yes = 0
    for _ in range(1000):
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if disc(F) == 0:
            continue
        status, witness = locally_solvable(HomogeneousSpace(F))
        if status == "yes":
            seen_yes += 1
            assert witness.verify(F), F.coeffs()
    assert seen_yes > 900


def test_solver_agrees_with_residue_oracle():
    rng = random.Random(402)
    checked = 0
    for _ in range(600):
        F = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if disc(F) == 0:
            continue
        status, _ = locally_solvable(HomogeneousSpace(F))
        oracle, _lvl = helpers.oracle_local_verdict(F, 3, budget=2500)
        checked += 1
        if status == "no":
            assert oracle == "no", F.coeffs()
        else:
            assert oracle == "yes", F.coeffs()
    assert checked > 500


def test_unit_sweep_at_3_finds_deep_cubes():
    # F(1, -1) = -1 is a cube, but every F(1, t) for t in {0, 1, 2} is a
    # non-cube unit mod 9; the solver must sweep the class t = 2 mod 3
    F = BinaryCubicForm(2, 5, 9, 7)
    status, witness = locally_solvable(HomogeneousSpace(F))
    assert status == "yes"
    assert witness.verify(F)


def _family_classes():
    seeds = list(scan(range(-30, 31), range(1, 12)))
    assert len(seeds) == 203
    return [(seed.D, F) for seed in seeds for F in enumerate_classes(seed.D)]


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


def _answer_at_3(answer, monkeypatch):
    """Make locally_solvable answer `answer` over Q_3."""
    monkeypatch.setattr(g1, "locally_solvable", lambda C: (answer, None))


def test_hasse_verdict_candidate_when_a_local_test_is_unknown(
        classes_48035713, monkeypatch):
    F = classes_48035713[2]
    _answer_at_3("unknown", monkeypatch)
    v = hasse_verdict(HomogeneousSpace(F, make_seed(229, 3)),
                      monic_representative(F, 1000), global_bound=300)
    assert v.kind == "violation_candidate"
    assert v.notes == "local test unknown at 3"
    assert str(v) == "ViolationCandidate"


def test_local_no_on_a_family_class_is_an_inconsistency(monkeypatch, capsys):
    _answer_at_3("no", monkeypatch)
    with pytest.raises(InconsistencyError, match=r"\[2,-41,-45,134\].*Q_3"):
        build_report(make_seed(229, 3), global_bound=300)
    assert main(["hasse", "--m", "229", "--n", "3"]) == 3
    assert "Q_3" in capsys.readouterr().err


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
    # a 'yes' over Q_3 for one form of an orbit and a 'no' for another
    # would be a wrong answer; 'unknown' may differ.  Class representatives
    # of family discriminants are locally solvable everywhere, so the
    # frozen insolvable fixtures are added to exercise 'no' as well.
    rng = random.Random(404)
    reps = list(classes_4897363) + list(classes_48035713)
    for sign in (1, -1):
        for D in helpers.random_family_discs(rng, 60, sign, 7):
            reps.extend(enumerate_classes(D))
    insolvable = [BinaryCubicForm(*coeffs) for coeffs, _ in INSOLVABLE]
    answers = set()
    for R in [rng.choice(reps) for _ in range(300)] + insolvable * 20:
        G = act(R, helpers.random_unimodular(rng))
        got = {locally_solvable(HomogeneousSpace(R))[0],
               locally_solvable(HomogeneousSpace(G))[0]}
        assert got != {"yes", "no"}, (R.coeffs(), G.coeffs())
        answers |= got
    assert {"yes", "no"} <= answers
