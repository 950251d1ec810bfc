"""Homogeneous spaces C: G(x,y) = z^3 and the Hasse-principle machinery.

A class of the lambda-Selmer group is realized by a plane genus-1 curve
G(x,y) = z^3 with G an integral binary cubic of discriminant D.  Monic
classes carry the constructive rational points Q_0 = (1:0:1) and
Q_{m/n} = (n:m:n).  A non-monic class may or may not have a rational
point: the four non-monic classes of D = -4897363 all have small ones,
while those of D = 48035713 have none in the searched box.  This module
provides the three ingredients for a verdict: bounded global point
search, a 3-adic witness, and the assembly with its conditionality
bookkeeping.  The search for a representation of 1 is not one of them:
hasse_verdict takes the class's MonicSearch from its caller.

The global search is exact.  It shares the residue sieve of cubicforms
with the monic search: a cell survives only if its value is a cube modulo
each of 9, 7, 13, ..., 97, and every survivor is confirmed with an integer
cube root.  The moduli are tried sparsest first for each form, and since
G(s, t) = t^3 G(s/t, 1) with t^3 a unit cube, the residue row of a row y
prime to m is the row of y = 1 permuted, so G is evaluated on a few rows
only; neither changes which cells survive.  The rows y = 0, 1, ..., bound
are sieved in one pass, each at the full width of the box, and the
search stops before the first row whose index exceeds the max-norm of
the best hit so far.  The returned point is the first hit in
(max-norm, x, y) order over the whole box, because every cell of a later
row has a larger max-norm and every cell of max-norm up to the hit's
lies in a row already sieved.  Only the
half-plane y >= 0 is sieved: G(-x, -y) = -G(x, y) is a cube exactly when
G(x, y) is, so each sieved hit (x, y) also stands for its mirror
(-x, -y) below.  No float enters the search.

Local solvability is a theorem at every place.  Over R every value of G
has a real cube root.  At p not dividing 3D, C reduces to a smooth plane
cubic over F_p, which has a point by Hasse-Weil (#C(F_p) >= p + 1 -
2 sqrt(p) > 0), and Hensel lifts it to Q_p.  At p | D the seed makes D
squarefree and prime to 6, so v_p(D) = 1 and G = c L1^2 L2 (mod p) with
c a unit and L1, L2 independent.  In coordinates where G = c x^2 y, the
value at (1 : t) is c t; t = 1/c makes it 1, and Hensel lifts
(1 : 1/c : 1) because d(z^3)/dz = 3 is a unit.

Over Q_3 solvability is a theorem too, whenever 3 does not divide
disc(F), which holds for every family form (gcd(2m, 3n) = 1 makes 3 prime
to m, and D = 4m^3 mod 3).  A root of F mod 3 is then simple, so Hensel
lifts it to a point (x : y : 0).  If F has no root mod 3, then b = c = 0
(mod 3) is impossible, since it would make F = (ax + dy)^3 (mod 3) and 3
divide disc(F); so f(t) = F(1, t) has f'(t) = b + 2ct a unit at some t
in 0..2.  There f(t), f(t + 3), f(t + 6) = f(t) + {0, 3, 6} f'(t)
(mod 9) run through the three lifts of the unit f(t) mod 3, and one of
them is +-1 mod 9, a cube in Z_3 because (1 + 3 Z_3)^3 = 1 + 9 Z_3.
locally_solvable returns the first such witness, so only Q_3 needs one.
"""

from dataclasses import dataclass
from math import gcd

from .arith import cube_root_exact
from .cubicforms import BinaryCubicForm, MonicSearch, _sieved_search, disc
from .errors import DiscriminantMismatch, ValidationError
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
    kind: str       # has_global_point | certified_violation
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
        return "CertifiedViolation"


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

def locally_solvable(C: HomogeneousSpace):
    """Solvability of C over Q_3, the one place a class of a family
    discriminant needs (see the module docstring).

    Returns ('yes', LocalWitness); the answer is a theorem whenever
    3 does not divide disc(F), and a ValidationError is raised otherwise.
    The witness is a root of F mod 3, which Hensel lifts to a point
    (x : y : 0), or a t in 0..8 with F(1, t) = +-1 mod 9, a unit cube.
    """
    F = C.form
    D = disc(F)
    if D % 3 == 0:
        raise ValidationError(f"{C}: 3 divides disc {D}, outside the "
                              "domain of the Q_3 criterion")
    for x, y in ((1, 0), (1, 1), (1, 2), (0, 1)):
        if F(x, y) % 3 == 0:
            witness = LocalWitness(3, 1, (x, y, 0),
                                   "simple root mod 3; Hensel")
            break
    else:
        t, z = next((t, z) for t in range(9) for z in (1, -1)
                    if (F(1, t) - z) % 9 == 0)
        witness = LocalWitness(3, 2, (1, t, z),
                               f"value {z:+d} mod 9, a unit cube")
    assert witness.verify(F)
    return ("yes", witness)


# --- verdict assembly ---

def hasse_verdict(C: HomogeneousSpace, monic: MonicSearch, *,
                  global_bound: int = 10**4) -> Genus1Verdict:
    """Classify the class C of a family discriminant per the monic/non-monic
    dichotomy.  C must carry its seed, which makes 3 the only place that
    needs a witness.

    `monic` is the caller's monic_representative(C.form, bound); the
    verdict records its bound as monic_bound.  A class that represents 1
    gets the constructive point (p : q : 1) from the first column of the
    matrix.  The rest are everywhere locally solvable by theorem, and the
    Q_3 witness is built and checked once per class.  A global point
    within global_bound gives HasGlobalPoint, and its absence gives
    CertifiedViolation, which is conditional on the monic dichotomy (which
    fails for some D).
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

    locally_solvable(C)             # builds and checks the Q_3 witness
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

    return Genus1Verdict(
        "certified_violation", C, primes_checked=(3,),
        search_bound=global_bound, monic_bound=rep_bound,
        notes="no monic representative within bound; everywhere locally "
        "solvable by theorem (Q_3 witness; Hasse-Weil and Hensel off 3D; "
        "t = 1/c at p | D); no global point within bound; certificate "
        "conditional on the monic-dichotomy theorem")
