"""Homogeneous spaces C: G(x,y) = z^3 and the Hasse-principle machinery.

A class of the lambda-Selmer group is realized by a plane genus-1 curve
G(x,y) = z^3 with G an integral binary cubic of discriminant D.  Monic
classes carry the constructive rational points Q_0 = (1:0:1) and
Q_{m/n} = (n:m:n).  A non-monic class may or may not have a rational
point: the four non-monic classes of D = -4897363 all have small ones,
while those of D = 48035713 have none in the searched box.  This module
provides the three ingredients for a verdict: bounded global point
search, 3-adic solvability, and the assembly with its conditionality
bookkeeping.  The search for a representation of 1 is not one of them:
hasse_verdict takes the class's MonicSearch from its caller.

The global search is exact.  It shares the residue sieve of cubicforms
with the monic search: a cell survives only if its value is a cube modulo
each of 9, 7, 13, ..., 97, and every survivor is confirmed with an integer
cube root.  The rows y = 0, 1, ..., bound are sieved in one pass, each at
the full width of the box, and the search stops before the first row
whose index exceeds the max-norm of the best hit so far.  The returned
point is the first hit in (max-norm, x, y) order over the whole box,
because every cell of a later row has a larger max-norm and every cell
of max-norm up to the hit's lies in a row already sieved.  Only the
half-plane y >= 0 is sieved: G(-x, -y) = -G(x, y) is a cube exactly when
G(x, y) is, so each sieved hit (x, y) also stands for its mirror
(-x, -y) below.  No float enters the search.

Local solvability needs a test only at p = 3.  Over R every value of G
has a real cube root.  At p not dividing 3D, C reduces to a smooth plane
cubic over F_p, which has a point by Hasse-Weil (#C(F_p) >= p + 1 -
2 sqrt(p) > 0), and Hensel lifts it to Q_p.  At p | D the seed makes D
squarefree and prime to 6, so v_p(D) = 1 and G = c L1^2 L2 (mod p) with
c a unit and L1, L2 independent.  In coordinates where G = c x^2 y, the
value at (1 : t) is c t; t = 1/c makes it 1, and Hensel lifts
(1 : 1/c : 1) because d(z^3)/dz = 3 is a unit.  Over Q_3 the charts
(1 : t) and (3t : 1) of P^1(Z_3) are searched for a cube value (z = 0
included); a unit is a cube iff it is +-1 mod 9.  The recursion sweeps
unit values, strips powers of 3 and branches only at roots mod 3: No
means every branch was exhausted, Unknown that the depth cap was passed.
A find comes back as (t, level, z, note) in its chart's parameter, and
locally_solvable builds and checks the witness from it in one place.
"""

from dataclasses import dataclass
from math import gcd

from .arith import cube_root_exact
from .cubicforms import BinaryCubicForm, MonicSearch, _sieved_search, disc
from .errors import (DiscriminantMismatch, InconsistencyError,
                     ValidationError)
from .seeds import DiscriminantSeed


@dataclass(frozen=True)
class HomogeneousSpace:
    form: BinaryCubicForm
    seed: DiscriminantSeed | None = None

    def __post_init__(self):
        if self.seed is not None and disc(self.form) != self.seed.D:
            raise DiscriminantMismatch(
                f"form disc {disc(self.form)} != seed {self.seed.D}")

    def __str__(self):
        return f"{self.form}(x,y) = z^3"


@dataclass(frozen=True)
class LocalWitness:
    place: int                    # the prime, 3
    level: int                    # claimed precision 3^level
    triple: tuple                 # (x, y, z)
    note: str = ""

    def verify(self, F: BinaryCubicForm) -> bool:
        """Substituting the witness reproduces 0 modulo the claimed power."""
        x, y, z = self.triple
        return (F(x, y) - z**3) % self.place**self.level == 0


@dataclass(frozen=True)
class Genus1Verdict:
    kind: str       # has_global_point | violation_candidate | certified_violation
    space: HomogeneousSpace
    point: tuple | None = None
    primes_checked: tuple = ()
    search_bound: int = 0
    monic_bound: int = 0
    notes: str = ""

    def __str__(self):
        if self.kind == "has_global_point":
            x, y, z = self.point
            return f"HasGlobalPoint(({x} : {y} : {z}))"
        if self.kind == "certified_violation":
            return "CertifiedViolation"
        return "ViolationCandidate"


# --- global search ---

def _proj_normalize(x: int, y: int, z: int):
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    if g:
        x, y, z = x // g, y // g, z // g
    if x < 0 or (x == 0 and y < 0):
        x, y, z = -x, -y, -z
    return (x, y, z)


def global_search(C: HomogeneousSpace, bound: int):
    """First coprime (x, y), |x|,|y| <= bound (ordered by max-norm rings,
    then lexicographically), with G(x, y) a perfect cube z^3.  Returns the
    normalized projective triple (x : y : z), or None.

    The residue sieve of cubicforms._sieved_search skips only cells whose
    value is a non-cube modulo a sieve modulus and confirms every survivor
    with an integer cube root.  It walks the rows y = 0 .. bound once,
    each at full width, and stops at the first row beyond the max-norm of
    its best hit, yet returns the same first hit as a scan of every cell
    of the box.  Each row y < 0 is read off its mirror, since (x, y) and
    (-x, -y) have the same gcd, max-norm and cube status."""
    F = C.form
    hit = _sieved_search(F, bound, "cube")
    if hit is None:
        return None
    x, y = hit
    return _proj_normalize(x, y, cube_root_exact(F(x, y)))


# --- local solvability at 3 ---

# depth cap of the chart recursion; it guards termination only, since
# the classes of a family discriminant are decided at depth 0
_MAX_DEPTH = 24


def _v3(n: int) -> int:
    assert n != 0
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def _poly_eval(coeffs, t):
    # coeffs ascending: A0 + A1 t + A2 t^2 + A3 t^3
    v = 0
    for c in reversed(coeffs):
        v = v * t + c
    return v


def _poly_shift_scale(coeffs, t0: int):
    """f(t0 + 3*s) as a polynomial in s (degree 3, ascending coeffs)."""
    A0, A1, A2, A3 = coeffs
    B0 = _poly_eval(coeffs, t0)
    B1 = (A1 + 2 * A2 * t0 + 3 * A3 * t0 * t0) * 3
    B2 = (A2 + 3 * A3 * t0) * 9
    B3 = A3 * 27
    return (B0, B1, B2, B3)


def _unit_cube(u: int, vshift: int):
    """(level, z, note) for the value 3^vshift * u, u = +-1 (mod 9) a unit
    cube and 3 | vshift: z^3 matches the value modulo 3^level.

    The cube root r of u is lifted mod 3^(w+3) by Hensel digit steps; the
    derivative 3r^2 has valuation 1, so a digit at 3^j controls the cube
    one level higher (hence the offset), and r^2 = 1 (mod 3) makes the
    digit -rem mod 3."""
    w = vshift // 3
    r = next(t for t in (1, 2, 4, 5, 7, 8) if (t**3 - u) % 27 == 0)
    for j in range(2, w + 2):               # r^3 = u mod 3^(j+1)
        rem = (r**3 - u) // 3**(j + 1)
        r += (-rem % 3) * 3**j
    K = 4 * w + 3
    return K, 3**w * r % 3**K, f"unit cube at level {K}; v(G)={3*w}"


def _chart_search(coeffs, vshift: int, depth: int):
    """Find t in Z_3 making 3^vshift * f(t) a cube in Q_3.  Returns
    (t, level, z, note) with 3^vshift * f(t) = z^3 mod 3^level, None when
    there is no such t, or "unknown" when a branch passed the depth cap."""
    if depth > _MAX_DEPTH:
        return "unknown"
    # strip content
    v0 = min(_v3(c) for c in coeffs if c)
    if v0:
        coeffs = tuple(c // 3**v0 for c in coeffs)
        vshift += v0

    want_units = vshift % 3 == 0
    for t in range(3):
        val = _poly_eval(coeffs, t)
        if val == 0:
            # exact rational zero of G: a z = 0 point (reducible form)
            return (t, 10, 0, "exact zero of G")
        if val % 3 and want_units:
            # cube-ness of a unit is decided mod 9, and f(t + 3s) runs
            # through all three residues of val's class mod 3 when f'(t) is
            # a unit, so the whole class must be swept before giving up
            for s in (0, 1, 2):
                v2 = _poly_eval(coeffs, t + 3 * s)
                if v2 % 3 and v2 % 9 in (1, 8):
                    return (t + 3 * s, *_unit_cube(v2, vshift))
    # remaining candidates sit over roots of f mod 3, none of them exact
    unknown = False
    for t0 in (t for t in range(3) if _poly_eval(coeffs, t) % 3 == 0):
        val = _poly_eval(coeffs, t0)
        # Hensel: a simple enough root of f gives a Z_3 zero of G, i.e. a
        # projective point with z = 0
        dval = _poly_eval((coeffs[1], 2 * coeffs[2], 3 * coeffs[3], 0), t0)
        if dval != 0 and _v3(val) > 2 * _v3(dval):
            v, m = _v3(val), _v3(dval)
            return (t0, vshift + v, 0, f"z=0 branch: v(f)={v} > 2*v(df)="
                    f"{2*m}, Hensel; v(G)={vshift + v}")
        hit = _chart_search(_poly_shift_scale(coeffs, t0), vshift,
                            depth + 1)
        if hit == "unknown":
            unknown = True
        elif hit is not None:
            s, level, z, note = hit
            return (t0 + 3 * s, level, z, note)
    return "unknown" if unknown else None


def locally_solvable(C: HomogeneousSpace):
    """Tri-state test of C over Q_3, the one place a class of a family
    discriminant needs (see the module docstring).

    Returns ('yes', LocalWitness) | ('no', None) | ('unknown', None).
    'no' is exhaustive: every residue branch of P^1(Z_3) was ruled out.
    """
    F = C.form
    a, b, c, d = F.coeffs()
    charts = (
        ((a, b, c, d), lambda t: (1, t)),                     # f = G(1, t)
        ((d, 3 * c, 9 * b, 27 * a), lambda t: (3 * t, 1)),    # G(3t, 1)
    )
    unknown = False
    for coeffs, point in charts:
        hit = _chart_search(coeffs, 0, 0)
        if hit == "unknown":
            unknown = True
        elif hit is not None:
            t, level, z, note = hit
            witness = LocalWitness(3, level, (*point(t), z), note)
            assert witness.verify(F)
            return ("yes", witness)
    return ("unknown", None) if unknown else ("no", None)


# --- verdict assembly ---

def hasse_verdict(C: HomogeneousSpace, monic: MonicSearch, *,
                  global_bound: int = 10**4) -> Genus1Verdict:
    """Classify the class C of a family discriminant per the monic/non-monic
    dichotomy.  C must carry its seed, which makes 3 the only place to test.

    `monic` is the caller's monic_representative(C.form, bound); the
    verdict records its bound as monic_bound.  A class that represents 1
    gets the constructive point (p : q : 1) from the first column of the
    matrix.  The rest are Selmer elements, so everywhere locally solvable,
    and a 'no' over Q_3 raises InconsistencyError.  A global point within
    global_bound gives HasGlobalPoint.  Otherwise 'unknown' at 3 gives
    ViolationCandidate, and 'yes' gives CertifiedViolation, which is
    conditional on the monic dichotomy (which fails for some D).
    """
    if C.seed is None:
        raise ValidationError(f"{C} has no seed, so its discriminant need "
                              "not be squarefree and prime to 6")
    F = C.form
    rep_bound = monic.bound
    if monic.found:
        (p, _), (q, _) = monic.matrix
        assert F(p, q) == 1
        return Genus1Verdict("has_global_point", C,
                             point=_proj_normalize(p, q, 1),
                             monic_bound=rep_bound,
                             notes="constructive: class represents 1")

    status, _w = locally_solvable(C)
    if status == "no":
        raise InconsistencyError(
            f"{C} has no point over Q_3, but the classes of "
            f"discriminant {disc(F)} are everywhere locally solvable")

    g = global_search(C, global_bound)
    if g is not None:
        # a global point forces the class to be monic-representable
        # somewhere past rep_bound (the dichotomy); record that rather
        # than treating the bounded miss as an error
        return Genus1Verdict("has_global_point", C, point=g,
                             search_bound=global_bound, monic_bound=rep_bound,
                             primes_checked=(3,),
                             notes="global point found; the class must "
                             "represent 1 beyond the monic search bound "
                             f"{rep_bound}")

    if status == "unknown":
        return Genus1Verdict("violation_candidate", C, primes_checked=(3,),
                             search_bound=global_bound, monic_bound=rep_bound,
                             notes="local test unknown at 3")
    return Genus1Verdict(
        "certified_violation", C, primes_checked=(3,),
        search_bound=global_bound, monic_bound=rep_bound,
        notes="no monic representative within bound; everywhere locally "
        "solvable (tested at 3 and the primes of D; elsewhere by "
        "Hasse-Weil and Hensel); no global point within bound; "
        "certificate conditional on the monic-dichotomy theorem")
