"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: discriminants are recomputed from the textbook formula, local
solvability is decided by exhaustive residue search with the elementary
cube-mod-p^k characterization, and class completeness is certified by
reducing every form in a coefficient box.  The one exception is the
radius oracle of the box sieve, which keeps the sieve's residue rows and
changes only the order in which rows are walked.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import sympy

from dataclasses import dataclass

from descent3.arith import (bit_indices, divisors, integer_roots_monic_cubic,
                            iroot, tile_residues)
from descent3.cubicforms import _SIEVE_MODULI, _TARGETS, _residue_row
from descent3.errors import DiscriminantMismatch, PreimageMissing, ZeroInput
from descent3 import (BinaryCubicForm, CurvePoint, MordellCurve, QuadElem,
                      QuadraticForm, act, add, disc, hessian,
                      in_lambda_image, is_cube, is_irreducible, lambda_dual,
                      lambda_map, lambda_preimage, mul_scalar, psi,
                      psi_prime, reduce, scan, syzygy_pair, virtual_unit)


# ---------------------------------------------------------------------------
# small matrix helpers (2x2 integer matrices as nested tuples)

S_MAT = ((0, -1), (1, 0))
J_MAT = ((1, 0), (0, -1))


def mat_mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0],
             A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0],
             A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def shear(k):
    return ((1, k), (0, 1))


def random_unimodular(rng, words=6, shift=4):
    """Random word in S, T^k and the reflection J; det is +-1."""
    M = ((1, 0), (0, 1))
    for _ in range(words):
        pick = rng.randrange(3)
        if pick == 0:
            M = mat_mul(M, S_MAT)
        elif pick == 1:
            M = mat_mul(M, shear(rng.randint(-shift, shift)))
        else:
            M = mat_mul(M, J_MAT)
    return M


def disc_formula(a, b, c, d):
    return (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)


# ---------------------------------------------------------------------------
# primes and rational roots by the textbook routes

def primes_upto(n: int) -> list[int]:
    return list(sympy.sieve.primerange(2, n + 1))


def _horner(coeffs_desc, x):
    v = 0
    for c in coeffs_desc:
        v = v * x + c
    return v


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of c0 + c1 x + ... + cn x^n, each listed once.

    coeffs is ascending, entries int or Fraction.  Denominators are cleared,
    then candidate roots p/q run over divisor pairs of the constant and
    leading coefficients.  Exact throughout; no numerics.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ZeroInput("zero polynomial")
    lcm = 1
    for c in cs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ics = [int(c * lcm) for c in cs]
    roots: set[Fraction] = set()
    shift = 0
    while ics[0] == 0:
        roots.add(Fraction(0))
        ics = ics[1:]
        shift += 1
        if not ics:
            return sorted(roots)
    if len(ics) == 1:
        return sorted(roots)
    desc = ics[::-1]
    for p in divisors(ics[0]):
        for q in divisors(ics[-1]):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _horner(desc, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# local solvability oracle: exhaustive charts of P^1(Z/p^k) plus the exact
# criterion for v to be a cube value of Z/p^k

def cube_value_mod(v: int, p: int, k: int) -> bool:
    """True iff z^3 = v (mod p^k) has a solution z in Z/p^k."""
    v %= p**k
    if v == 0:
        return True
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    if e % 3:
        return False
    j = k - e                         # the unit part is known mod p^j, j >= 1
    if p == 3:
        return j <= 1 or v % 9 in (1, 8)
    if p % 3 == 2:
        return True
    return pow(v, (p - 1) // 3, p) == 1


def chart_solutions_exist(F, p: int, k: int) -> bool:
    """True iff some primitive (x, y) mod p^k makes F(x, y) a cube value.

    Z_p-solvability implies this for every k; insolvability implies it
    fails for every large enough k (compactness).
    """
    pk = p**k
    for t in range(pk):
        if cube_value_mod(F(1, t), p, k):
            return True
    for t in range(pk // p):
        if cube_value_mod(F(p * t, 1), p, k):
            return True
    return False


def oracle_local_verdict(F, p: int, budget: int = 20000):
    """('yes'|'no', level): deepest chart scan within p^k <= budget.

    'no' is exact (an exhausted level certifies Z_p-insolvability);
    'yes' only means no obstruction was visible up to the budget.
    """
    k = 1
    while p**(k + 1) <= budget:
        k += 1
    for level in range(1, k + 1):
        if not chart_solutions_exist(F, p, level):
            return "no", level
    return "yes", k


def smooth_point_mod_p(F, p: int):
    """A smooth point of F(x, y) = z^3 over F_p, p != 3, as (x, y), or None.

    It is a root of F mod p where the gradient of F does not vanish (so
    z = 0), or an (x, y) whose value is a nonzero cube mod p, where
    d(z^3)/dz = 3z^2 is a unit.  Hensel lifts a smooth F_p-point to a
    Q_p-point, so a hit proves local solvability at p."""
    assert p != 3
    a, b, c, d = F.coeffs()
    cube_exp = (p - 1) // gcd(3, p - 1)
    for x, y in [(1, t) for t in range(p)] + [(0, 1)]:
        v = F(x, y) % p
        if v and pow(v, cube_exp, p) == 1:
            return (x, y)
        fx = 3 * a * x * x + 2 * b * x * y + c * y * y
        fy = b * x * x + 2 * c * x * y + 3 * d * y * y
        if not v and (fx % p or fy % p):
            return (x, y)
    return None


# ---------------------------------------------------------------------------
# point-search oracle: every cell of the box, exact tests, one sort

def is_cube_value(v: int) -> bool:
    r = iroot(abs(v), 3)
    return r**3 == abs(v)


def naive_first_point(F, bound: int, accept):
    """First coprime (x, y) with |x|, |y| <= bound in the order
    (max-norm, x, y) whose value F(x, y) passes accept, or None."""
    hits = [(x, y) for y in range(-bound, bound + 1)
            for x in range(-bound, bound + 1)
            if gcd(x, y) == 1 and accept(F(x, y))]
    hits.sort(key=lambda pq: (max(abs(pq[0]), abs(pq[1])), pq))
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# radius oracle: the box sieve the library ran before its one-pass row walk.
# It searches the radii bound, bound // 2, ..., 1 in ascending order, each
# row starting from a hole mask that clears the previous radius, and stops
# at the first radius with a hit.  It shares the residue rows, masks and
# targets of cubicforms, so it checks the row order and the stop rule; it
# evaluates every residue row and ANDs the moduli in the order of
# _SIEVE_MODULI, so it also checks the scaled rows and the per-form order
# of the cube target.

def radius_sieved_search(F: BinaryCubicForm, bound: int, target: str):
    """The first coprime (x, y) with |x|, |y| <= bound, in the order
    (max(|x|, |y|), x, y), whose value F(x, y) meets the target ('cube':
    a perfect cube, 'unit': exactly 1); None when the box has none.

    Boxes of the radii bound, bound // 2, bound // 4, ..., 1 are searched
    in ascending order, and the search stops at the first radius with a
    hit.  That returns exactly the first hit of the whole box: every cell
    of smaller max-norm lies in an earlier radius, which had none, and the
    minimum is taken over the full radius that has one.  Each radius is at
    most twice the one before, so a hit of max-norm h is found below
    radius 2h, and the last box is the bound itself.  (0, 0) is never
    coprime and is never visited.

    Radius r sieves the rows y = 0 .. r over x = -r .. r in one loop; a
    row y <= done starts from a hole mask that clears |x| <= done, the
    cells the previous radius decided.  The residue row of a modulus for
    one y mod m is built the first time a row needs it and kept for the
    whole search; its mask tiled to the width of a radius is kept for
    that radius, shared by all its rows.

    Only the upper half-plane y >= 0 is sieved.  Since F(-x, -y) =
    -F(x, y), every cell with y < 0 is the mirror (-x, -y) of a sieved
    cell, and it is a hit exactly when -F(x, y) meets the target, so each
    cell of the box is still decided once (row 0 twice)."""
    allowed, accept, _ = _TARGETS[target]
    oks = [allowed(m) for m in _SIEVE_MODULI]
    rows = [[None] * m for m in _SIEVE_MODULI]
    done = 0
    for i in reversed(range(bound.bit_length())):
        r = bound >> i
        full = (1 << (2 * r + 1)) - 1
        hole = full ^ (((1 << (2 * done + 1)) - 1) << (r - done))
        sieve = [(k, m, [None] * m) for k, m in enumerate(_SIEVE_MODULI)]
        hits = []
        for y in range(r + 1):
            row = hole if y <= done else full
            for k, m, masks in sieve:
                mask = masks[y % m]
                if mask is None:
                    t = y % m
                    pat = rows[k][t]
                    if pat is None:
                        pat = rows[k][t] = _residue_row(F, m, oks[k], t)
                    mask = masks[t] = tile_residues(pat, m, -r, 2 * r + 1)
                row &= mask
                if not row:
                    break
            else:                               # the row has survivors
                for x in bit_indices(row, -r):
                    if gcd(x, y) == 1:
                        v = F(x, y)
                        if accept(v):
                            hits.append((x, y))
                        if accept(-v):
                            hits.append((-x, -y))
        if hits:
            return min(hits, key=lambda h: (max(abs(h[0]), abs(h[1])), h))
        done = r
    return None


def naive_cubic_square_points(c: int, lo: int, hi: int):
    """The (s, t), t >= 0, with t^2 = 4s^3 - c and lo <= s <= hi, by an
    isqrt at every s, ascending."""
    out = []
    for s in range(lo, hi + 1):
        v = 4 * s**3 - c
        if v >= 0 and isqrt(v) ** 2 == v:
            out.append((s, isqrt(v)))
    return out


def naive_monic_points(D: int, bound: int):
    """The monic lattice points of E_D' by walking both lattices one index
    at a time: (12m, +-108n) with 27n^2 = 4m^3 - D, |m| <= bound, and
    (4M, +-4N) with N^2 = 4M^3 - 27D, 3 not | M, |M| <= 3*bound; sorted."""
    E2 = MordellCurve.e_d_prime(D)
    out = []
    for m in range(-bound, bound + 1):
        t = 4 * m**3 - D
        if t < 0 or t % 27:
            continue
        n2 = t // 27
        n = isqrt(n2)
        if n * n != n2:
            continue
        for s in ((n, -n) if n else (0,)):
            out.append(CurvePoint(E2, 12 * m, 108 * s))
    for M in range(-3 * bound, 3 * bound + 1):
        if M % 3 == 0:
            continue
        t = 4 * M**3 - 27 * D
        if t < 0:
            continue
        N = isqrt(t)
        if N * N != t:
            continue
        for s in ((N, -N) if N else (0,)):
            out.append(CurvePoint(E2, 4 * M, 4 * s))
    out.sort(key=lambda P: (P.x, P.y))
    return out


# ---------------------------------------------------------------------------
# enumeration oracle: the (a, b, c) box walk with one quadratic in d per
# cell, the way candidates were generated before the Hessian syzygy

def _d_solutions(a: int, Bd: int, Cd: int):
    """Integer roots of 27a^2 d^2 + Bd*d + Cd = 0."""
    A2 = 27 * a * a
    dd = Bd * Bd - 4 * A2 * Cd
    if dd < 0:
        return
    s = isqrt(dd)
    if s * s != dd:
        return
    for sg in ((s, -s) if s else (0,)):
        num = -Bd + sg
        if num % (2 * A2) == 0:
            yield num // (2 * A2)


def _candidates_pos(D: int):
    """Forms (a>0,b,c,d) of discriminant D > 0 covering every class: bounds
    follow from the reduced positive-definite Hessian (P,Q,R):
    P <= sqrt(D), 4P^3 >= 27Da^2 (syzygy at (1,0)), b^2 <= P + 3a|b|
    (from 9a^2 R = P^2 - P b^2 + 3abQ with R >= P >= |Q|)."""
    sq = isqrt(D)
    amax = isqrt(max(4 * sq // 27, 1)) + 1
    for a in range(1, amax + 1):
        pmin = max(1, iroot(27 * D * a * a // 4, 3) - 1)
        bmax = (3 * a + isqrt(9 * a * a + 4 * sq)) // 2 + 1
        for b in range(-bmax, bmax + 1):
            plo = max(pmin, b * b - 3 * a * abs(b))
            if plo > sq:
                continue
            chi = (b * b - plo) // (3 * a)
            clo = -((sq - b * b) // (3 * a))
            b3 = 4 * b**3
            for c in range(clo, chi + 1):
                Bd = b3 - 18 * a * b * c
                Cd = D + 4 * a * c**3 - b * b * c * c
                for d in _d_solutions(a, Bd, Cd):
                    yield BinaryCubicForm(a, b, c, d)


def _candidates_neg(D: int):
    """Forms of discriminant D < 0 covering every class: bounds follow from
    the fundamental-domain representative (a <= (16|D|/27)^(1/4),
    |b| <= 3a/2 + (|D|/3)^(1/4), |c| <= (|D|/4a)^(1/3) + 3a/4 + (|D|/3)^(1/4))."""
    Dm = -D
    amax = iroot(16 * Dm // 27, 4) + 1
    t4 = iroot(Dm // 3, 4) + 1
    for a in range(1, amax + 1):
        bmax = (3 * a) // 2 + t4 + 1
        cmax = iroot(Dm // (4 * a), 3) + a + t4 + 2
        for b in range(-bmax, bmax + 1):
            b3 = 4 * b**3
            for c in range(-cmax, cmax + 1):
                Bd = b3 - 18 * a * b * c
                Cd = D + 4 * a * c**3 - b * b * c * c
                for d in _d_solutions(a, Bd, Cd):
                    yield BinaryCubicForm(a, b, c, d)


def naive_enum_candidates(D: int):
    """The candidate forms of the (a, b, c) box walk for discriminant D."""
    return list(_candidates_pos(D) if D > 0 else _candidates_neg(D))


# ---------------------------------------------------------------------------
# reduction oracle for disc < 0: the fundamental-domain walk with every
# comparison made on Fractions

def _eval1(F, r: Fraction):
    return ((F.a * r + F.b) * r + F.c) * r + F.d


def _u_gt(F, s: Fraction) -> bool:
    r = Fraction(-F.b, F.a) - 2 * s
    return _eval1(F, r) > 0


def _q_gt_one(F) -> bool:
    v = _eval1(F, Fraction(-F.d, F.a))
    return v > 0 if F.d < 0 else v < 0


def _theta_mid(F) -> Fraction:
    lo, hi = None, None
    if _eval1(F, Fraction(0)) > 0:
        step = 1
        while _eval1(F, Fraction(-step)) > 0:
            step *= 2
        lo, hi = Fraction(-step), Fraction(-step // 2 if step > 1 else 0)
    else:
        step = 1
        while _eval1(F, Fraction(step)) < 0:
            step *= 2
        lo, hi = Fraction(step // 2 if step > 1 else 0), Fraction(step)
    while hi - lo > Fraction(1, 8):
        mid = (lo + hi) / 2
        if _eval1(F, mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _round_u(F) -> int:
    u_est = -(Fraction(F.b, F.a) + _theta_mid(F)) / 2
    k = round(u_est)
    while not _u_gt(F, Fraction(2 * k - 1, 2)):
        k -= 1
    while _u_gt(F, Fraction(2 * k + 1, 2)):
        k += 1
    return k


def _fraction_canonical_sl2_neg(F):
    if F.a < 0:
        F = -F
    for _ in range(500):
        k = _round_u(F)
        if k:
            F = act(F, ((1, k), (0, 1)))
        if _q_gt_one(F):
            return F
        F = act(F, S_MAT)
        if F.a < 0:
            F = -F
    raise AssertionError(f"reduction loop did not terminate on {F}")


def fraction_reduce_neg(F):
    """Canonical representative of an irreducible form of disc < 0,
    computed with Fraction comparisons."""
    assert disc(F) < 0
    c1 = _fraction_canonical_sl2_neg(F)
    c2 = _fraction_canonical_sl2_neg(act(F, J_MAT))
    return min(c1, c2, key=lambda G: G.coeffs())


# ---------------------------------------------------------------------------
# reduction oracle for disc > 0: Gauss-reduce the Hessian on its own while
# tracking the transform, then move the cubic once by that matrix

def qf_transform(H, M):
    """H(px + qy, rx + sy) for M = ((p, q), (r, s))."""
    (p, q), (r, s) = M
    A, B, C = H.coeffs()
    return QuadraticForm(A * p * p + B * p * r + C * r * r,
                         2 * A * p * q + B * (p * s + q * r) + 2 * C * r * s,
                         A * q * q + B * q * s + C * s * s)


def reduce_posdef(H):
    """Gauss reduction with transform tracking: (H0, M) with
    qf_transform(H, M) = H0, the reduced form (-A < B <= A <= C, B >= 0
    when A = C)."""
    assert H.A > 0 and H.disc() < 0
    A, B, C = H.coeffs()
    M = ((1, 0), (0, 1))
    for _ in range(10000):
        if C < A or (C == A and B < 0):
            A, B, C = C, -B, A
            M = mat_mul(M, S_MAT)
            continue
        if B > A or B <= -A:
            k = (A - B) // (2 * A)
            C = A * k * k + B * k + C
            B = B + 2 * A * k
            M = mat_mul(M, shear(k))
            continue
        return QuadraticForm(A, B, C), M
    raise AssertionError("posdef reduction did not terminate")


def _transform_canonical_sl2_pos(F):
    _, M = reduce_posdef(hessian(F))
    G = act(F, M)
    return G if G.a > 0 else -G


def transform_reduce_pos(F):
    """Canonical representative of an irreducible form of disc > 0,
    computed by reducing the Hessian and carrying the transform back."""
    assert disc(F) > 0
    c1 = _transform_canonical_sl2_pos(F)
    c2 = _transform_canonical_sl2_pos(act(F, J_MAT))
    return min(c1, c2, key=lambda G: G.coeffs())


# ---------------------------------------------------------------------------
# family enumeration and the coefficient-box class oracle

def family_discs(disc_bound: int, m_lo: int = -30, m_hi: int = 30,
                 n_max: int = 199):
    """Map D -> seed for every family member found in the (m, n) box."""
    found = {}
    for seed in scan(range(m_lo, m_hi + 1), range(1, n_max + 1)):
        if abs(seed.D) <= disc_bound and seed.D not in found:
            found[seed.D] = seed
    return found


def random_family_discs(rng, count: int, sign: int, max_exp: int,
                        min_exp: int = 2):
    """`count` distinct family discriminants of the given sign, |D| spread
    log-uniformly over 10^min_exp .. 10^max_exp: pick |D| ~ X, then n, then
    the m that puts 4m^3 - 27n^2 nearest to sign * X."""
    out = set()
    while len(out) < count:
        X = int(10 ** rng.uniform(min_exp, max_exp))
        n = rng.randint(1, isqrt(X // 27) + 1)
        v = (sign * X + 27 * n * n) // 4
        m = iroot(v, 3) if v >= 0 else -iroot(-v, 3)
        for seed in scan([m], [n]):
            if seed.D * sign > 0 and abs(seed.D) <= 10**max_exp:
                out.add(seed.D)
    return sorted(out)


def box_forms_by_disc(coeff_bound: int, wanted):
    """All (a,b,c,d) in the box with disc in `wanted`, grouped by disc.

    Vectorized over (c, d) per (a, b) pair; int64 is safe because every
    term is at most 27 * coeff_bound^4.
    """
    import numpy as np

    wanted = set(wanted)
    B = coeff_bound
    vals = np.arange(-B, B + 1, dtype=np.int64)
    c = vals[None, :]
    d = vals[:, None]
    c3 = c**3
    d2 = d * d
    cc = c * c
    out = {D: [] for D in wanted}
    lo, hi = min(wanted), max(wanted)
    for a in range(-B, B + 1):
        for b in range(-B, B + 1):
            dd = ((18 * a * b) * c * d - (4 * b**3) * d + (b * b) * cc
                  - (4 * a) * c3 - (27 * a * a) * d2)
            mask = (dd >= lo) & (dd <= hi)
            for i, j in np.argwhere(mask):
                D = int(dd[i, j])
                if D in out:
                    out[D].append((a, b, int(vals[j]), int(vals[i])))
    return out


# ---------------------------------------------------------------------------
# span oracle: the combination enumeration the library used before its
# F_3 character ranks.  For each new point it tries every combination with
# the current basis (up to 3^k/2 of them), adding points on the curve and
# testing each sum with is_cube, so it is exact and slow.

def _nonzero_combos(k):
    """Representatives of nonzero F_3^k up to sign: first nonzero coord = 1."""
    def rec(i, vec, started):
        if i == k:
            if started:
                yield tuple(vec)
            return
        coeffs = (0, 1, 2) if started else (0, 1)
        for c in coeffs:
            vec.append(c)
            yield from rec(i + 1, vec, started or c != 0)
            vec.pop()
    yield from rec(0, [], False)


def _trivial_mod_3(S, D) -> bool:
    """S in 3 E_D'(Q)?  Since 3 = lambda . lambda_dual, S in 3E' iff
    S = lambda(P) for rational P and P = lambda_dual(T) for rational T;
    the first is the psi'-cube test, the second is the psi-cube test on
    the (unique) preimage."""
    if S.infinite:
        return True
    if not in_lambda_image(S, D):
        return False
    P = lambda_preimage(S, D)
    if P is None:
        raise PreimageMissing(f"psi'({S}) is a cube but no rational preimage found")
    if P.infinite or P.x == 0:
        return True
    return is_cube(psi(P, D)) is not None


def _span_dim(points, D, trivial):
    basis = []
    for S in points:
        if S.infinite:
            continue
        new_dim = True
        for combo in _nonzero_combos(len(basis) + 1):
            if combo[-1] == 0:
                continue
            T = CurvePoint(S.curve)
            for c, B in zip(combo, basis + [S]):
                T = add(T, mul_scalar(c, B))
            if trivial(T, D):
                new_dim = False
                break
        if new_dim:
            basis.append(S)
    return len(basis)


def naive_span_dim(points, D: int, mod) -> int:
    """dim of the points' image in E_D'(Q)/lambda(E_D(Q)) (mod="lambda")
    or in E_D'(Q)/3E_D'(Q) (mod=3), by combination enumeration."""
    trivial = {"lambda": in_lambda_image, 3: _trivial_mod_3}[mod]
    return _span_dim(points, D, trivial)


# ---------------------------------------------------------------------------
# isogeny / descent identity suite.  One run touches >= `min_seeds`
# discriminants and performs >= `min_cases` individual exact checks.

def property_seeds(min_seeds: int = 20):
    seeds = sorted(scan(range(-8, 9), range(1, 8)), key=lambda s: abs(s.D))
    if len(seeds) < min_seeds:
        raise AssertionError(f"seed box too small: {len(seeds)}")
    return seeds


def _quad_one(d):
    return QuadElem.from_pair(d, 1, 0)


def _hom_case(S1, S2, D, dprime):
    """psi' is a homomorphism into the cube-class group."""
    S3 = add(S1, S2)
    acc = _quad_one(dprime)
    for v in (psi_prime(S1, D), psi_prime(S2, D)):
        if v is not None:
            acc = acc * v
    v3 = psi_prime(S3, D)
    if v3 is not None:
        acc = acc * v3 * v3
    return is_cube(acc) is not None


def run_isogeny_suite(min_cases: int = 1000, min_seeds: int = 20,
                      rng_seed: int = 58231):
    """Exact identity checks; returns {'cases': ..., 'seeds': ...}.

    Raises AssertionError with context on the first violated identity.
    """
    rng = random.Random(rng_seed)
    seeds = property_seeds(min_seeds)
    cases = 0

    # fixed case: lambda((8, 12)) = (-15, 81) on D = -23, 81^2 = (-15)^3 + 9936
    P0 = CurvePoint(MordellCurve.e_d(-23), 8, 12)
    L0 = lambda_map(P0, -23)
    assert (L0.x, L0.y) == (-15, 81), f"fixed case broke: {L0.x},{L0.y}"
    assert 81 * 81 == (-15) ** 3 + 9936
    cases += 2

    for seed in seeds:
        D, dP = seed.D, seed.d_prime
        mu = virtual_unit(seed)
        assert mu.norm() == (3 * seed.m) ** 3, f"virtual unit norm at {seed}"
        cases += 1

        P = CurvePoint(MordellCurve.e_d_prime(D), 12 * seed.m, 108 * seed.n)
        mults = []
        for k in (1, 2, 3):
            Sk = mul_scalar(k, P)
            if not Sk.infinite:
                mults.append(Sk)
        for Sk in mults:
            Q = lambda_dual(Sk, D)                    # E_D point
            if Q.infinite:
                continue
            T = lambda_map(Q, D)                      # back on E_{D'}
            assert T == mul_scalar(3, Sk), f"lambda∘dual != [3] at D={D}"
            assert lambda_dual(T, D) == mul_scalar(3, Q), \
                f"dual∘lambda != [3] at D={D}"
            cases += 2
            assert in_lambda_image(T, D), f"lambda image escaped psi' at D={D}"
            v = psi_prime(T, D)
            assert v is None or is_cube(v) is not None, \
                f"psi'(lambda(Q)) not a cube at D={D}"
            cases += 2

        pairs = []
        if len(mults) >= 2:
            pairs = [(mults[0], mults[0]), (mults[0], mults[1]),
                     (mults[1], mults[1]), (mults[0], -mults[0]),
                     (mults[1], -mults[0])]
        if len(mults) >= 3:
            pairs.append((mults[2], mults[0]))
        for S1, S2 in pairs:
            assert _hom_case(S1, S2, D, dP), \
                f"psi' homomorphism failed at D={D}, {S1.x},{S2.x}"
            cases += 1

    # random covariant and syzygy identities
    for _ in range(400):
        a, b, c, d = (rng.randint(-30, 30) for _ in range(4))
        if a == b == c == d == 0:
            continue
        F = BinaryCubicForm(a, b, c, d)
        H = hessian(F)
        assert H.disc() == -3 * disc(F), f"hessian disc at {F}"
        cases += 1

    for _ in range(300):
        a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
        if a == b == c == d == 0:
            continue
        P, G = syzygy_pair(BinaryCubicForm(a, b, c, d))
        assert 4 * P**3 - 27 * disc_formula(a, b, c, d) * a * a == G * G, \
            f"syzygy fails at {(a, b, c, d)}"
        cases += 1

    for _ in range(200):
        a, b, c, d = (rng.randint(-12, 12) for _ in range(4))
        F = BinaryCubicForm(a, b, c, d)
        if disc(F) == 0 or not is_irreducible(F):
            continue
        M = random_unimodular(rng)
        assert reduce(act(F, M)) == reduce(F), f"reduction not invariant: {F}"
        cases += 1

    if cases < min_cases:
        raise AssertionError(f"suite too small: {cases} < {min_cases}")
    return {"cases": cases, "seeds": len(seeds)}


# ---------------------------------------------------------------------------
# the depressed-trinomial route from a monic form to its point of E_D'

@dataclass(frozen=True)
class DepressedCubic:
    """X^3 - mX + n; (m, n) integral or exactly (M/3, N/27)."""
    m: Fraction
    n: Fraction

    def __post_init__(self):
        dm, dn = self.m.denominator, self.n.denominator
        if (dm, dn) not in ((1, 1), (3, 27)):
            raise ValueError(f"bad denominator pattern ({dm}, {dn})")

    def disc(self) -> int:
        val = 4 * self.m**3 - 27 * self.n**2
        assert val.denominator == 1
        return int(val)

    @property
    def integral(self) -> bool:
        return self.m.denominator == 1


def depress(a: int, b: int, c: int) -> DepressedCubic:
    """Depress monic x^3 + ax^2 + bx + c (integer coefficients) to
    X^3 - mX + n; the discriminant is unchanged.  A rational root of a
    monic integer cubic is an integer, so exact root isolation decides
    reducibility without factoring c."""
    if integer_roots_monic_cubic(a, b, c):
        raise ValueError(f"x^3 + {a}x^2 + {b}x + {c} is reducible")
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    m = a * a / 3 - b
    n = c + 2 * a**3 / 27 - a * b / 3
    return DepressedCubic(m, n)


def point_from_depressed(dc: DepressedCubic, D: int):
    """The rational point (12m, 108n) on E_D': Y^2 = X^3 - 432D."""
    if dc.disc() != D:
        raise DiscriminantMismatch(f"{dc.disc()} != {D}")
    E = MordellCurve.e_d_prime(D)
    return CurvePoint(E, 12 * dc.m, 108 * dc.n)


def naive_depressed_point(F, D: int):
    """The point of E_D' of the irreducible monic form F = (1, b, c, d),
    through its depressed trinomial."""
    assert F.a == 1
    return point_from_depressed(depress(F.b, F.c, F.d), D)


# ---------------------------------------------------------------------------
# whole-family agreement check at small scale

def family_box_check(disc_bound: int = 5000, coeff_bound: int = 24):
    """Compare enumerate_classes with the coefficient-box oracle on every
    family discriminant up to disc_bound; cross-check D < 0 against the
    class-group oracle.  Returns a summary dict; raises on disagreement."""
    from descent3 import (class_group_imaginary, enumerate_classes,
                          is_irreducible, r3_from_fields)

    fam = family_discs(disc_bound)
    forms = box_forms_by_disc(coeff_bound, set(fam))
    checked = empty = 0
    for D in sorted(fam):
        enum = set(enumerate_classes(D))
        seen = set()
        for (a, b, c, d) in forms.get(D, ()):
            F = BinaryCubicForm(a, b, c, d)
            if not is_irreducible(F):
                continue
            R = reduce(F)
            assert R in enum, f"enumeration missed a class of {D}: {R}"
            seen.add(R)
        assert seen == enum, f"box oracle did not cover {D}"
        r = r3_from_fields(D)
        assert (3**r - 1) // 2 == len(enum), f"count shape broke at {D}"
        if D < 0:
            assert class_group_imaginary(D).rank3 == r, \
                f"class-group 3-rank disagrees at {D}"
        checked += 1
        empty += not enum
    return {"discs": checked, "empty": empty,
            "negative": sum(1 for D in fam if D < 0)}
