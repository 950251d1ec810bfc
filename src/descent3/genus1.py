"""Homogeneous spaces C: G(x,y) = z^3 and the Hasse-principle machinery.

A class of the lambda-Selmer group is realized by a plane genus-1 curve
G(x,y) = z^3 with G an integral binary cubic of discriminant D.  Monic
classes carry the constructive rational points Q_0 = (1:0:1) and
Q_{m/n} = (n:m:n).  A non-monic class may or may not have a rational
point: the four non-monic classes of D = -4897363 all have small ones,
while those of D = 48035713 have none in the searched box.  This module
provides the three ingredients for a verdict: bounded global point
search, p-adic solvability, and the assembly with its conditionality
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

Local solvability is decided through the charts (1 : t) and (pt : 1) of
P^1(Z_p): C has a Q_p-point iff one of the chart polynomials takes a cube
value on Z_p (z = 0 points included, cube 0).  The chart recursion scans
unit values, strips p-powers, and branches only at roots mod p, so it is
O(depth) even when p has fifty digits; No is returned only when every
branch is exhausted (sound), Unknown when the effort budget runs out.  A
find comes back as (t, level, z, note) in its chart's parameter, and
locally_solvable builds and checks the witness from it in one place.
"""

from dataclasses import dataclass
from math import gcd

import sympy

from .arith import cube_root_exact, factorize
from .cubicforms import BinaryCubicForm, MonicSearch, _sieved_search, disc
from .errors import BadPrime, DiscriminantMismatch
from .seeds import DiscriminantSeed

REAL_PLACE = "real"


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
    place: object                 # prime or REAL_PLACE
    level: int                    # claimed precision p^level
    triple: tuple                 # (x, y, z); for the real place z holds G(x,y)
    note: str = ""

    def verify(self, F: BinaryCubicForm) -> bool:
        """Substituting the witness reproduces 0 modulo the claimed power
        (real place: the recorded value is correct and nonzero, so a real
        cube root exists)."""
        x, y, z = self.triple
        if self.place == REAL_PLACE:
            return F(x, y) == z and z != 0
        return (F(x, y) - z**3) % self.place**self.level == 0


@dataclass(frozen=True)
class Genus1Verdict:
    kind: str       # has_global_point | locally_insolvable | violation_candidate | certified_violation
    space: HomogeneousSpace
    point: tuple | None = None
    bad_prime: int | None = None
    primes_checked: tuple = ()
    search_bound: int = 0
    monic_bound: int = 0
    notes: str = ""

    def __str__(self):
        if self.kind == "has_global_point":
            x, y, z = self.point
            return f"HasGlobalPoint(({x} : {y} : {z}))"
        if self.kind == "locally_insolvable":
            return f"LocallyInsolvable(p = {self.bad_prime})"
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


# --- local solvability ---

def _vp(n: int, p: int) -> int:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _unit_is_cube(u: int, p: int) -> bool:
    if p == 3:
        return u % 9 in (1, 8)
    if p % 3 == 2:
        return True
    return pow(u, (p - 1) // 3, p) == 1


def _lift_cube_root(u: int, p: int, prec: int) -> int:
    """r with r^3 = u (mod p^prec), for u a unit cube of Z_p.

    Hensel digit steps; at p = 3 the derivative 3r^2 has valuation 1, so a
    digit at 3^j controls the cube one level higher (hence the offset)."""
    assert prec >= 1
    if p == 3:
        r = next(t for t in (1, 2, 4, 5, 7, 8) if (t**3 - u) % 27 == 0)
        j = 2                               # r^3 = u mod 3^(j+1)
        while j + 1 < prec:
            rem = (r**3 - u) // 3**(j + 1)
            t = (-rem * pow(r * r, -1, 3)) % 3
            r += t * 3**j
            j += 1
        return r % 3**prec
    if p % 3 == 2:
        r = pow(u % p, pow(3, -1, p - 1), p)    # cubing is a bijection
    else:
        from sympy.ntheory.residue_ntheory import nthroot_mod
        r = int(nthroot_mod(u % p, 3, p))
    j = 1                                   # r^3 = u mod p^j
    while j < prec:
        rem = (r**3 - u) // p**j
        t = (-rem * pow(3 * r * r, -1, p)) % p
        r += t * p**j
        j += 1
    return r % p**prec


def _poly_eval(coeffs, t):
    # coeffs ascending: A0 + A1 t + A2 t^2 + A3 t^3
    v = 0
    for c in reversed(coeffs):
        v = v * t + c
    return v


def _poly_shift_scale(coeffs, t0: int, p: int):
    """f(t0 + p*s) as a polynomial in s (degree 3, ascending coeffs)."""
    A0, A1, A2, A3 = coeffs
    B0 = _poly_eval(coeffs, t0)
    B1 = (A1 + 2 * A2 * t0 + 3 * A3 * t0 * t0) * p
    B2 = (A2 + 3 * A3 * t0) * p * p
    B3 = A3 * p**3
    return (B0, B1, B2, B3)


def _roots_mod_p(coeffs, p: int):
    """Roots in F_p of the (nonzero) cubic with ascending coeffs."""
    cs = [c % p for c in coeffs]
    if not any(cs):
        return list(range(p))       # callers strip content first; defensive
    if p < 600:
        return [t for t in range(p) if _poly_eval(cs, t) % p == 0]
    t = sympy.Symbol("t")
    poly = sympy.Poly(cs[3] * t**3 + cs[2] * t**2 + cs[1] * t + cs[0], t, modulus=p)
    return sorted(int(r) % p for r in poly.ground_roots())


class _Unknown(Exception):
    pass


def _unit_cube(u: int, p: int, vshift: int):
    """(level, z, note) for the value p^vshift * u, u a cube unit and
    3 | vshift: z^3 matches the value modulo p^level."""
    w = vshift // 3
    c3 = 1 if p == 3 else 0
    K = 2 * (c3 + 2 * w) + 1
    r = _lift_cube_root(u % p**max(K - 3 * w, c3 + 1), p, max(K - 3 * w, 1))
    return K, p**w * r % p**K, f"unit cube at level {K}; v(G)={3*w}"


def _chart_search(coeffs, p: int, vshift: int, depth: int, effort: int):
    """Find t in Z_p making p^vshift * f(t) a cube in Q_p.  Returns
    (t, level, z, note) with p^vshift * f(t) = z^3 mod p^level, or None;
    raises _Unknown when the depth budget runs out."""
    if depth > effort:
        raise _Unknown
    # strip content
    v0 = min(_vp(c, p) for c in coeffs if c)
    if v0:
        coeffs = tuple(c // p**v0 for c in coeffs)
        vshift += v0

    exhaustive = p < 600
    scan = range(p) if exhaustive else range(min(p, 5000))
    want_units = vshift % 3 == 0
    saw_unit_value = False
    for t in scan:
        val = _poly_eval(coeffs, t)
        if val == 0:
            # exact rational zero of G: a z = 0 point (reducible form)
            return (t, 10, 0, "exact zero of G")
        if val % p:
            saw_unit_value = True
            if not want_units:
                continue
            if p != 3:
                # unit cube-ness only depends on val mod p, constant on
                # the class t mod p
                if _unit_is_cube(val % p, p):
                    return (t, *_unit_cube(val, p, vshift))
                continue
            # p = 3: cube-ness is decided mod 9, and f(t + 3s) runs through
            # all three residues of val's class mod 3 when f'(t) is a unit,
            # so the whole class must be swept before giving up on it
            for s in (0, 1, 2):
                v2 = _poly_eval(coeffs, t + 3 * s)
                if v2 % 3 and _unit_is_cube(v2 % 9, 3):
                    return (t + 3 * s, *_unit_cube(v2, p, vshift))
    # remaining candidates sit over roots of f mod p
    unknown = False
    if not exhaustive and want_units and saw_unit_value:
        # a bounded scan over a huge prime cannot rule the unit residues
        # out; only the f = (non-cube)*(linear)^3 shape makes them all
        # dead, and then no unit value would be a cube anywhere we looked
        # by multiplicativity -- but that is a heuristic, so stay honest
        unknown = True
    for t0 in _roots_mod_p(coeffs, p):
        val = _poly_eval(coeffs, t0)
        if val == 0:
            return (t0, 10, 0, "exact zero of G")
        # Hensel: a simple enough root of f gives a Z_p zero of G, i.e. a
        # projective point with z = 0
        dval = _poly_eval((coeffs[1], 2 * coeffs[2], 3 * coeffs[3], 0), t0)
        if dval != 0 and _vp(val, p) > 2 * _vp(dval, p):
            v, m = _vp(val, p), _vp(dval, p)
            return (t0, vshift + v, 0, f"z=0 branch: v(f)={v} > 2*v(df)="
                    f"{2*m}, Hensel; v(G)={vshift + v}")
        try:
            hit = _chart_search(_poly_shift_scale(coeffs, t0, p), p,
                                vshift, depth + 1, effort)
        except _Unknown:
            unknown = True
            continue
        if hit is not None:
            s, level, z, note = hit
            return (t0 + p * s, level, z, note)
    if unknown:
        raise _Unknown
    return None


def locally_solvable(C: HomogeneousSpace, p, effort: int = 24):
    """Tri-state local test at p (or at REAL_PLACE).

    Returns ('yes', LocalWitness) | ('no', None) | ('unknown', None).
    'no' is exhaustive: every residue branch of P^1(Z_p) was ruled out.
    """
    F = C.form
    if p == REAL_PLACE:
        # odd degree in x: G(x, 1) takes a nonzero value, cube root real
        for x in range(0, 5):
            if F(x, 1) != 0:
                return ("yes", LocalWitness(REAL_PLACE, 0, (x, 1, F(x, 1)),
                                            note="real cube root"))
        raise AssertionError("cubic vanished at five points")
    if not sympy.isprime(p):
        raise BadPrime(f"{p} is not prime")

    a, b, c, d = F.coeffs()
    charts = (
        ((a, b, c, d), lambda t: (1, t)),                     # f = G(1, t)
        ((d, c * p, b * p * p, a * p**3), lambda t: (p * t, 1)),  # G(pt, 1)
    )
    unknown = False
    for coeffs, point in charts:
        try:
            hit = _chart_search(coeffs, p, 0, 0, effort)
        except _Unknown:
            unknown = True
            continue
        if hit is not None:
            t, level, z, note = hit
            witness = LocalWitness(p, level, (*point(t), z), note)
            assert witness.verify(F)
            return ("yes", witness)
    return ("unknown", None) if unknown else ("no", None)


# --- verdict assembly ---

def local_prime_set(F: BinaryCubicForm, primes_max: int = 100) -> list[int]:
    """All p <= primes_max plus the primes dividing 3*disc(F)."""
    ps = set(sympy.primerange(2, primes_max + 1))
    ps.update(factorize(3 * abs(disc(F))).keys())
    return sorted(ps)


def hasse_verdict(C: HomogeneousSpace, monic: MonicSearch, *,
                  global_bound: int = 10**4, primes_max: int = 100,
                  effort: int = 24, enumerated: bool = False) -> Genus1Verdict:
    """Classify C per the monic/non-monic dichotomy.

    `monic` is the caller's monic_representative(C.form, bound); the
    verdict records its bound as monic_bound and searches nothing itself
    for a representation of 1.  A class that represents 1 gets the
    constructive point (p : q : 1) from the first column of the matrix.
    For the rest: a local failure is decisive (LocallyInsolvable);
    all-local success plus an empty global search gives CertifiedViolation
    when the class is known to come from the full enumeration for its
    discriminant (the certificate is conditional on the monic dichotomy,
    which fails for some D, and the local evidence is recorded), else
    ViolationCandidate.
    """
    F = C.form
    rep_bound = monic.bound
    if monic.found:
        (p, _), (q, _) = monic.matrix
        assert F(p, q) == 1
        return Genus1Verdict("has_global_point", C,
                             point=_proj_normalize(p, q, 1),
                             monic_bound=rep_bound,
                             notes="constructive: class represents 1")

    primes = local_prime_set(F, primes_max)
    unknowns = []
    for p in [REAL_PLACE] + primes:
        status, _w = locally_solvable(C, p, effort)
        if status == "no":
            return Genus1Verdict("locally_insolvable", C, bad_prime=p,
                                 primes_checked=tuple(primes))
        if status == "unknown":
            unknowns.append(p)

    g = global_search(C, global_bound)
    if g is not None:
        # for an enumerated class a global point forces the class to be
        # monic-representable somewhere past rep_bound (the dichotomy);
        # record that rather than treating the bounded miss as an error
        note = ("global point found; the class must represent 1 beyond "
                f"the monic search bound {rep_bound}" if enumerated else "")
        return Genus1Verdict("has_global_point", C, point=g,
                             search_bound=global_bound, monic_bound=rep_bound,
                             primes_checked=tuple(primes), notes=note)

    if unknowns:
        return Genus1Verdict("violation_candidate", C,
                             primes_checked=tuple(primes),
                             search_bound=global_bound, monic_bound=rep_bound,
                             notes=f"local tests unknown at {unknowns}")
    kind = "certified_violation" if enumerated else "violation_candidate"
    note = ("no monic representative within bound; locally solvable at all "
            "tested places; no global point within bound"
            + ("; certificate conditional on the monic-dichotomy theorem"
               if enumerated else ""))
    return Genus1Verdict(kind, C, primes_checked=tuple(primes),
                         search_bound=global_bound, monic_bound=rep_bound,
                         notes=note)
