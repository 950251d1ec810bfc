"""Bundled example datasets and their from-scratch regeneration.

Four fixtures ship with the package: the six monic cubics and curve points
for the rank-6 discriminant -4897363 (table 1), two lists of seed rows
with nontrivial conditional Sha[3] (tables 3 and 4, negative and positive
discriminants), and the four form classes of discriminant 48035713.  Each
check_* function recomputes its table from first principles and returns a
list of human-readable mismatches, empty when everything agrees; the CLI
turns a nonempty list into exit code 3.

Printed points carry a positive-y convention, so point comparisons are up
to the sign of y (negating a point negates the covariant G, which turns
the monic form (1, b, c, d) into its equivalent (1, -b, c, -d)).
"""

from .cubicforms import (BinaryCubicForm, disc, enumerate_classes,
                         is_irreducible, reduce, syzygy_pair)
from .errors import DescentError
from .mordell import (search_monic_points, span_dim_mod_3,
                      span_dim_mod_lambda, syzygy_point)
from .report import conditional_rank_sha3, r3_from_fields
from .seeds import make_seed

# (m, n) = (-34, 419); rows are (coeffs (a, b, c) of x^3 + ax^2 + bx + c,
# point on Y^2 = X^3 - 432 D)
TABLE_1_SEED = (-34, 419)
TABLE_1_DISC = -4897363
TABLE_1 = (
    ((0, -362, -2685), (4344, 289980)),
    ((0, 34, -419), (-408, 45252)),
    ((-1, -145, 846), (1744, 86140)),
    ((0, -236, -1459), (2832, 157572)),
    ((-1, -539, -4660), (6472, 522692)),
    ((0, -55910, 5088413), (670920, 549548604)),
)
# the last cubic's point has P = 3 * 55910, hence this search radius
TABLE_1_POINT_BOUND = 56000

# rows (m, n, D): D < -4, r3 = 2, rank 2, dim Sha[3] = 2 (parity-conditional)
TABLE_3_STATS = {"r3": 2, "rank": 2, "sha3": 2}
TABLE_3 = (
    (-100, 59, -4093987), (-73, 5, -1556743), (-98, 19, -3774515),
    (-73, 11, -1559335), (-98, 53, -3840611), (-71, 19, -1441391),
    (-97, 29, -3673399), (-53, 19, -605255), (-94, 19, -3332083),
    (-52, 19, -572179), (-91, 19, -3024031), (-52, 37, -599395),
    (-91, 31, -3040231), (-52, 55, -644107), (-88, 49, -2790715),
    (-49, 13, -475159), (-88, 57, -2813611), (-46, 41, -434731),
    (-86, 5, -2544899), (-43, 35, -351103), (-86, 35, -2577299),
    (-41, 3, -275927), (-86, 57, -2631947), (-38, 17, -227291),
    (-83, 13, -2291711), (-37, 7, -203935), (-82, 37, -2242435),
    (-32, 23, -145355), (-79, 59, -2066143), (-32, 43, -180995),
    (-77, 39, -1867199), (-31, 53, -195007), (-74, 19, -1630643),
    (-23, 9, -50855), (-74, 35, -1653971), (-22, 49, -107419),
    (-73, 3, -1556311), (-20, 59, -125987), (-115, 3, -6083743),
)

# rows (m, n, D): D > 4, r3 = 1, rank 1, dim Sha[3] = 2 (parity-conditional)
TABLE_4_STATS = {"r3": 1, "rank": 1, "sha3": 2}
TABLE_4 = (
    (7, 3, 1129), (10, 7, 2677), (11, 3, 5081), (13, 5, 8113),
    (13, 7, 7465), (14, 3, 10733), (16, 9, 14197), (17, 7, 18329),
    (17, 9, 17465), (19, 5, 26761), (19, 7, 26113), (20, 3, 31757),
)

# the four class representatives printed for D = 48035713, first one monic
FORMS_DISC = 48035713
FORMS_SEED = (229, 3)
FORMS = (
    (1, 0, -229, 3),
    (-134, 45, 41, -2),
    (-19, 16, 83, -7),
    (23, 20, -75, -17),
)


def check_discriminants() -> list:
    """Every (m, n, D) row recomputes exactly and validates (gcd condition
    plus squarefreeness, via seed construction)."""
    problems = []
    rows = (TABLE_3 + TABLE_4
            + (TABLE_1_SEED + (TABLE_1_DISC,), FORMS_SEED + (FORMS_DISC,)))
    for m, n, D in rows:
        try:
            seed = make_seed(m, n)
        except DescentError as e:
            problems.append(f"({m}, {n}): seed invalid: {e}")
            continue
        if seed.D != D:
            problems.append(f"({m}, {n}): D = {seed.D}, expected {D}")
    return problems


def check_table_1() -> list:
    """Regenerate the rank-6 fixture: each monic cubic is irreducible with
    the right discriminant, its syzygy point is the printed one and is
    found by the monic search, the first three points span the quotient
    mod lambda, and all six are independent mod 3."""
    problems = []
    seed = make_seed(*TABLE_1_SEED)
    searched_x = {P.x for P in search_monic_points(seed.D, TABLE_1_POINT_BOUND)}
    points = []
    for coeffs, (X, Y) in TABLE_1:
        label = f"x^3 + {coeffs[0]}x^2 + {coeffs[1]}x + {coeffs[2]}"
        F = BinaryCubicForm(1, *coeffs)
        if not is_irreducible(F):
            problems.append(f"{label}: reducible")
            continue
        if disc(F) != seed.D:
            problems.append(f"{label}: disc {disc(F)} != {seed.D}")
            continue
        P = syzygy_point(seed.D, *syzygy_pair(F))
        if (P.x, abs(P.y)) != (X, abs(Y)):
            problems.append(f"{label}: point {P} != ({X}, {Y})")
            continue
        if P.x not in searched_x:
            problems.append(f"{label}: point not found by the monic search")
        points.append(P if P.y == Y else -P)
    if len(points) == len(TABLE_1):
        d_lam = span_dim_mod_lambda(points[:3], seed.D)
        if d_lam != 3:
            problems.append(f"first three points span {d_lam} != 3 mod lambda")
        d3 = span_dim_mod_3(points, seed.D)
        if d3 != 6:
            problems.append(f"six points span {d3} != 6 mod 3")
    return problems


def _check_stat_rows(table, stats, rows=None) -> list:
    problems = []
    for m, n, D in (table if rows is None else rows):
        r3 = r3_from_fields(D)
        if r3 != stats["r3"]:
            problems.append(f"({m}, {n}): r3 = {r3}, expected {stats['r3']}")
            continue
        pts = search_monic_points(D, 10**3)
        r3_monic = span_dim_mod_lambda(pts, D)
        if not 1 <= r3_monic <= r3:
            problems.append(f"({m}, {n}): r3(monic) = {r3_monic} out of range")
            continue
        rank, sha3, _note = conditional_rank_sha3(
            D, r3, r3_monic, span_dim_mod_3(pts, D))
        if (rank, sha3) != (stats["rank"], stats["sha3"]):
            problems.append(
                f"({m}, {n}): conditional (rank, sha3) = ({rank}, {sha3}), "
                f"expected ({stats['rank']}, {stats['sha3']})")
    return problems


def check_table_3(rows=None) -> list:
    """r3 = 2 for each row, and the printed rank/Sha[3] pair is the
    parity-conditional consequence of the recomputed monic data."""
    return _check_stat_rows(TABLE_3, TABLE_3_STATS, rows)


def check_table_4(rows=None) -> list:
    """Same for the positive-discriminant list (r3 = 1, rank 1, sha3 2)."""
    return _check_stat_rows(TABLE_4, TABLE_4_STATS, rows)


def check_forms() -> list:
    """The four printed forms reduce bijectively onto the enumerated
    classes of their discriminant."""
    problems = []
    classes = enumerate_classes(FORMS_DISC)
    if len(classes) != len(FORMS):
        problems.append(f"{len(classes)} classes enumerated, "
                        f"{len(FORMS)} forms printed")
    canon = {F.coeffs(): F for F in classes}
    seen = set()
    for row in FORMS:
        G = reduce(BinaryCubicForm(*row))
        if G.coeffs() not in canon:
            problems.append(f"printed form {row} reduces to {G}, "
                            "not an enumerated class")
        elif G.coeffs() in seen:
            problems.append(f"printed form {row} collides with another row")
        else:
            seen.add(G.coeffs())
    return problems
