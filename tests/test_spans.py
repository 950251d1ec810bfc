"""F_3 span dimensions: the character-rank spans against the combination
enumeration oracle, a planted input, the rank helper itself, and a JSON
round trip over a scan box."""

import random
import time

from descent3 import (QuadElem, add, build_report, is_cube, make_seed,
                      mul_scalar, psi_prime, scan, search_monic_points,
                      span_dim_mod_3, span_dim_mod_lambda)
from descent3.errors import ValidationError
from descent3.mordell import cube_class_relations
from descent3.report import report_from_json, report_to_json

from helpers import naive_span_dim

ANCHORS = [(1, 1), (7, 3), (-34, 419), (229, 3)]
POOL = [(-73, 1), (-46, 1), (-19, 13), (-130, 21), (-196, 39)]


def _assert_spans_match(D, pts):
    got = (span_dim_mod_lambda(pts, D), span_dim_mod_3(pts, D))
    want = (naive_span_dim(pts, D, "lambda"), naive_span_dim(pts, D, 3))
    assert got == want, f"D = {D}, {len(pts)} points: {got} != {want}"
    return got


def test_spans_match_oracle_on_anchor_and_pool_seeds():
    dims = {}
    for m, n in ANCHORS + POOL:
        D = make_seed(m, n).D
        dims[(m, n)] = _assert_spans_match(D, search_monic_points(D, 10**5))
    assert dims[(-34, 419)] == (3, 6)


def test_spans_match_oracle_on_scan_box():
    seeds = list(scan(range(-8, 9), range(1, 8)))
    assert len(seeds) == 39
    for seed in seeds:
        _assert_spans_match(seed.D, search_monic_points(seed.D, 10**5))


def test_spans_match_oracle_on_random_family_seeds():
    rng = random.Random(90417)
    done = 0
    while done < 100:
        m, n = rng.randint(-300, 300), rng.randint(1, 300)
        try:
            D = make_seed(m, n).D
        except ValidationError:
            continue
        pts = search_monic_points(D, 10**4)
        if len(pts) < 4:
            continue
        rng.shuffle(pts)
        _assert_spans_match(D, pts)
        done += 1


def test_planted_combinations_keep_the_dimensions():
    # the 22 points of (-34, 419) span (3, 6); sums of them with
    # coefficients +-1, +-2 and a multiple of 3 add nothing
    D = make_seed(-34, 419).D
    pts = search_monic_points(D, 10**5)
    assert len(pts) == 22
    rng = random.Random(7)
    planted = list(pts)
    for _ in range(12):
        T = mul_scalar(0, pts[0])
        for P in rng.sample(pts, 3):
            T = add(T, mul_scalar(rng.choice((-2, -1, 1, 2)), P))
        planted.append(T)
    planted.append(mul_scalar(3, pts[5]))
    rng.shuffle(planted)
    start = time.perf_counter()
    dims = span_dim_mod_lambda(planted, D), span_dim_mod_3(planted, D)
    elapsed = time.perf_counter() - start
    assert dims == (3, 6)
    assert elapsed < 1.0, f"{len(planted)} points took {elapsed:.2f} s"
    # a 10-point input: 3 lambda-independent points first, then 7 more
    ten = pts[:10]
    assert span_dim_mod_3(ten, D) == naive_span_dim(ten, D, 3)


def _elem(d, a, b):
    return QuadElem.from_pair(d, a, b)


def test_rank_helper_on_cubes_and_powers():
    d = -23
    cubes = [_elem(d, a, b) ** 3
             for a, b in ((1, 1), (2, -1), (5, 3), (-7, 2))]
    assert cube_class_relations(cubes) == [(), (), (), ()]
    alpha, beta = _elem(d, 3, 1), _elem(d, 1, 2)
    assert is_cube(alpha) is None
    rels = cube_class_relations([alpha, alpha * alpha, alpha * beta ** 3])
    assert rels == [None, (2,), (1,)]
    assert cube_class_relations([]) == []


def test_rank_helper_relations_are_certified():
    # alpha and beta need two characters to tell apart, so every relation
    # over both is found only after the second character was appended
    d = 69
    alpha, beta, gamma = _elem(d, 7, 1), _elem(d, 10, 1), _elem(d, 2, 5)
    elems = [alpha, beta, alpha * alpha * beta, beta ** 4 * gamma ** 3,
             alpha * beta * beta, gamma]
    rels = cube_class_relations(elems)
    assert rels[:5] == [None, None, (2, 1), (0, 1), (1, 2)]
    basis = [e for e, r in zip(elems, rels) if r is None]
    for e, r in zip(elems, rels):
        if r is None:
            continue
        quotient = e
        for B, c in zip(basis, r):
            quotient = quotient * B ** (3 - c) if c else quotient
        assert is_cube(quotient) is not None


def test_spans_skip_infinity_and_track_psi_prime():
    D = -23
    pts = search_monic_points(D, 700)
    O = mul_scalar(0, pts[0])
    with_o = [O] + pts + [O]
    assert span_dim_mod_lambda(with_o, D) == span_dim_mod_lambda(pts, D)
    assert span_dim_mod_3([O, O], D) == 0
    # the relation is read off psi' values: S and -S have inverse classes
    S = pts[0]
    assert cube_class_relations([psi_prime(S, D).value,
                                 psi_prime(-S, D).value]) == [None, (2,)]


def test_report_json_round_trip_over_scan_box():
    seeds = list(scan(range(-5, 6), range(1, 6)))
    assert len(seeds) == 20
    for seed in seeds:
        rep = build_report(seed, run_hasse=False)
        blob = report_to_json(rep)
        back = report_from_json(blob)
        assert back == rep, (seed.m, seed.n)
        assert report_to_json(back) == blob, (seed.m, seed.n)
