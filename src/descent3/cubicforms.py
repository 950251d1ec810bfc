"""Binary cubic forms: Hessian, GL2(Z) action, reduction, class enumeration.

A form (a,b,c,d) is ax^3 + bx^2y + cxy^2 + dy^3.  Classes of irreducible
forms with squarefree discriminant D biject with cubic fields of
discriminant D, so enumerate_classes(D) is how the 3-rank of Q(sqrt(D))
gets counted downstream.

Enumeration goes through the syzygy 4H^3 = G^2 + 27 D F^2 between a form
F, its Hessian H and its cubic covariant G.  At (1, 0) it reads

    4P^3 - 27 D a^2 = G^2,   P = b^2 - 3ac,   G = 2b^3 - 9abc + 27a^2 d,

so for each leading coefficient a the candidates come from the integral
points (P, G) of one Mordell-type curve (after Belabas, "A fast algorithm
to compute cubic fields", 1997).  P runs over the exact range that the
reduction bounds on (a, b, c) allow; a residue sieve drops the P at which
4P^3 - 27Da^2 cannot be a square, and each survivor is checked with isqrt.
Every (P, G) then gives c and d for each admissible b by two exact
divisions (candidate_forms).

Reduction splits on the sign of the discriminant:

* disc > 0: the Hessian (b^2-3ac, bc-9ad, c^2-3bd) is positive definite;
  walk F by the swap S and shears until its Hessian is Gauss-reduced
  (each step on F moves the Hessian by the same matrix), then fix the
  residual +-F symmetry by the sign of the leading coefficient.
* disc < 0: the Hessian is indefinite, so instead canonicalize through the
  complex root: F(x,1) = a(x - theta)(x^2 + px + q) has one real root and
  the class has a unique representative (up to sign) whose complex root
  xi lies in the classical fundamental domain |Re xi| <= 1/2 <= |xi|.
  Because theta is irrational for irreducible F, xi never lands on the
  boundary and every domain test is the sign of the integer F(n, q) at
  one integer pair with q > 0, so the walk uses integers only.

Both branches are wrapped over GL2 by also canonicalizing F(x,-y) and
taking the lexicographic minimum.  Irreducibility is decided by integer
root isolation on a monic cubic, without factoring.
"""

from dataclasses import dataclass
from math import gcd, isqrt, lcm

from .arith import (bit_indices, cube_root_exact, cubic_square_points,
                    integer_roots_monic_cubic, iroot, is_squarefree,
                    tile_residues, xgcd)
from .errors import (DegenerateDiscriminant, InconsistencyError,
                     NotSquarefree, ValidationError)

_S = ((0, -1), (1, 0))
_J = ((1, 0), (0, -1))


def _det(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


@dataclass(frozen=True)
class QuadraticForm:
    A: int
    B: int
    C: int

    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def coeffs(self):
        return (self.A, self.B, self.C)


@dataclass(frozen=True)
class BinaryCubicForm:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0:
            raise ValueError("zero form")

    def coeffs(self):
        return (self.a, self.b, self.c, self.d)

    def __neg__(self):
        return BinaryCubicForm(-self.a, -self.b, -self.c, -self.d)

    def __call__(self, x, y):
        return ((self.a * x + self.b * y) * x + self.c * y * y) * x + self.d * y**3

    def __str__(self):
        return f"[{self.a},{self.b},{self.c},{self.d}]"


def disc(F: BinaryCubicForm) -> int:
    a, b, c, d = F.coeffs()
    return (18 * a * b * c * d + b * b * c * c - 4 * a * c**3
            - 4 * b**3 * d - 27 * a * a * d * d)


def hessian(F: BinaryCubicForm) -> QuadraticForm:
    a, b, c, d = F.coeffs()
    return QuadraticForm(b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d)


def syzygy_pair(F: BinaryCubicForm) -> tuple[int, int]:
    """(P, G): the Hessian and the cubic covariant of F at (1, 0),

        P = b^2 - 3ac,   G = 2b^3 - 9abc + 27a^2 d,

    which satisfy 4P^3 - 27 disc(F) a^2 = G^2.  For monic F that is the
    point (4P, 4G) of E_D': Y^2 = X^3 - 432D (mordell.syzygy_point)."""
    a, b, c, d = F.coeffs()
    return b * b - 3 * a * c, 2 * b**3 - 9 * a * b * c + 27 * a * a * d


def act(F: BinaryCubicForm, M) -> BinaryCubicForm:
    """Substitution (x, y) <- (px + qy, rx + sy) for M = ((p,q),(r,s))."""
    if _det(M) not in (1, -1):
        raise ValidationError(f"matrix is not unimodular: det = {_det(M)}")
    (p, q), (r, s) = M
    a, b, c, d = F.coeffs()
    a2 = F(p, r)
    d2 = F(q, s)
    b2 = (3 * a * p * p * q + b * (p * p * s + 2 * p * q * r)
          + c * (2 * p * r * s + q * r * r) + 3 * d * r * r * s)
    c2 = (3 * a * p * q * q + b * (q * q * r + 2 * p * q * s)
          + c * (p * s * s + 2 * q * r * s) + 3 * d * r * s * s)
    return BinaryCubicForm(a2, b2, c2, d2)


def is_irreducible(F: BinaryCubicForm) -> bool:
    """No rational zero in P^1, i.e. no linear factor over Q.

    A rational root x of F(x, 1) makes a*x an integer root of the monic
    X^3 + bX^2 + acX + a^2 d (that is a^2 F(X/a, 1)), so integer root
    isolation decides it without factoring any coefficient."""
    a, b, c, d = F.coeffs()
    if a == 0 or d == 0:
        return False
    return not integer_roots_monic_cubic(b, a * c, a * a * d)


def _check_reducible(F: BinaryCubicForm):
    if disc(F) == 0:
        raise ValidationError(f"form {F} has discriminant 0")
    if not is_irreducible(F):
        raise ValidationError(f"form {F} is reducible")


# --- exact real-root comparisons (used when disc(F) < 0) ---
#
# For a > 0 and n/q with q > 0, F(n, q) = q^3 F(n/q, 1) has the sign of
# n/q - theta (theta the real root of F(x, 1)), and it is never 0 because
# theta is irrational for irreducible F.  Every comparison below is the
# sign of F at one integer pair.

def _u_gt(F: BinaryCubicForm, two_s: int) -> bool:
    """Re(xi) > two_s/2, where xi is the complex root of F(x,1) and a > 0.

    Re(xi) = -(b/a + theta)/2, so this says r = -b/a - two_s > theta,
    i.e. F(-b - a*two_s, a) > 0."""
    return F(-F.b - F.a * two_s, F.a) > 0


def _q_gt_one(F: BinaryCubicForm) -> bool:
    """|xi|^2 > 1.  |xi|^2 = -d/(a*theta) and sign(theta) = -sign(d), so
    this compares -d/a with theta through the sign of F(-d, a)."""
    v = F(-F.d, F.a)
    return v > 0 if F.d < 0 else v < 0


def _round_u(F: BinaryCubicForm) -> int:
    """Nearest integer to Re(xi); never a tie.  The largest k with
    Re(xi) > k - 1/2, by bisection on the exact test: |Re(xi)| <= |xi| < M
    (the Cauchy bound), so k lies in the bracket [-2M, 2M + 1]."""
    M = 2 + max(abs(F.b), abs(F.c), abs(F.d)) // F.a
    lo, hi = -2 * M, 2 * M + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _u_gt(F, 2 * mid - 1):
            lo = mid
        else:
            hi = mid
    return lo


def _canonical_sl2_neg(F: BinaryCubicForm) -> BinaryCubicForm:
    if F.a < 0:
        F = -F
    for _ in range(500):
        k = _round_u(F)
        if k:
            F = act(F, ((1, k), (0, 1)))
        if _q_gt_one(F):
            return F
        F = act(F, _S)
        if F.a < 0:
            F = -F
    raise AssertionError(f"reduction loop did not terminate on {F}")


def _canonical_sl2_pos(F: BinaryCubicForm) -> BinaryCubicForm:
    """Walk F until its Hessian is Gauss-reduced (-A < B <= A <= C, and
    B >= 0 when A = C), then make the leading coefficient positive.

    For det +-1, hessian(act(F, M)) is hessian(F) moved by M, so each step
    on F is the matching Gauss step on H.  disc(H) = -3 disc(F) <= -147 for
    irreducible F, so Aut(H) = {+-I} and the stopping form is unique up to
    sign."""
    for _ in range(10000):
        A, B, C = hessian(F).coeffs()
        if C < A or (C == A and B < 0):
            F = act(F, _S)
        elif B > A or B <= -A:
            F = act(F, ((1, (A - B) // (2 * A)), (0, 1)))
        else:
            return F if F.a > 0 else -F
    raise AssertionError(f"reduction loop did not terminate on {F}")


def _canonical(F: BinaryCubicForm) -> BinaryCubicForm:
    """reduce without the discriminant and irreducibility checks."""
    branch = _canonical_sl2_pos if disc(F) > 0 else _canonical_sl2_neg
    c1 = branch(F)
    c2 = branch(act(F, _J))
    return min(c1, c2, key=lambda G: G.coeffs())


def reduce(F: BinaryCubicForm) -> BinaryCubicForm:
    """Canonical representative of the GL2(Z)-class of F.  Positive leading
    coefficient; ties between the two SL2-sheets broken lexicographically."""
    _check_reducible(F)
    return _canonical(F)


def equivalent(F: BinaryCubicForm, G: BinaryCubicForm) -> bool:
    if disc(F) != disc(G):
        _check_reducible(F)
        _check_reducible(G)
        return False
    return reduce(F) == reduce(G)


# --- complete enumeration by discriminant ---
#
# Candidates come from the points (P, G) of 4P^3 - 27Da^2 = G^2, one curve
# per leading coefficient a (see the module docstring).

def _forms_at(a: int, b: int, P: int, G: int):
    """The forms (a, b, c, d) with b^2 - 3ac = P and cubic covariant
    +-G at (1, 0); c must be integral (3a | b^2 - P)."""
    c = (b * b - P) // (3 * a)
    base = 9 * a * b * c - 2 * b**3
    A27 = 27 * a * a
    for g in ((G, -G) if G else (0,)):
        if (base + g) % A27 == 0:
            yield BinaryCubicForm(a, b, c, (base + g) // A27)


def candidate_forms(D: int):
    """Forms (a > 0, b, c, d) of discriminant D covering every class.

    D > 0: the reduced positive-definite Hessian (P, Q, R) gives
    P <= sqrt(D), 4P^3 >= 27Da^2 (the syzygy) and b^2 <= P + 3a|b| (from
    9a^2 R = P^2 - P b^2 + 3abQ with R >= P >= |Q|).  So P runs from the
    least P with 4P^3 >= 27Da^2 to isqrt(D), and b over |b| <= bmax with
    P >= b^2 - 3a|b|.

    D < 0: the fundamental-domain representative has a <= (16|D|/27)^(1/4),
    |b| <= 3a/2 + (|D|/3)^(1/4) and |c| <= cmax = (|D|/4a)^(1/3) + 3a/4
    + (|D|/3)^(1/4).  So P runs from max(-3a*cmax, the least P with
    4P^3 >= 27Da^2) to bmax^2 + 3a*cmax, and b over |b| <= bmax with
    |b^2 - P| <= 3a*cmax.

    For each survivor (P, G) of the sieve, a b with b^2 = P (mod 3a)
    gives c = (b^2 - P)/(3a) and d = (9abc - 2b^3 +- G)/(27a^2) when that
    is integral, once per sign of G.  The candidates are exactly the forms
    of discriminant D in the (a, b, c) box these bounds describe, with
    the same multiplicities as a walk over that box."""
    if D > 0:
        sq = isqrt(D)
        amax = isqrt(max(4 * sq // 27, 1)) + 1
        for a in range(1, amax + 1):
            bmax = (3 * a + isqrt(9 * a * a + 4 * sq)) // 2 + 1
            for P, G in cubic_square_points(27 * D * a * a, 1, sq):
                for b in range(-bmax, bmax + 1):
                    r = b * b - P
                    if r % (3 * a) == 0 and r <= 3 * a * abs(b):
                        yield from _forms_at(a, b, P, G)
    else:
        Dm = -D
        amax = iroot(16 * Dm // 27, 4) + 1
        t4 = iroot(Dm // 3, 4) + 1
        for a in range(1, amax + 1):
            bmax = (3 * a) // 2 + t4 + 1
            cmax = iroot(Dm // (4 * a), 3) + a + t4 + 2
            span = 3 * a * cmax
            for P, G in cubic_square_points(27 * D * a * a, -span,
                                            bmax * bmax + span):
                for b in range(-bmax, bmax + 1):
                    r = b * b - P
                    if r % (3 * a) == 0 and abs(r) <= span:
                        yield from _forms_at(a, b, P, G)


def _validate_enum_disc(D: int):
    if D in (0, 1, -3, -4):
        raise DegenerateDiscriminant(f"D = {D}")
    if D % 4 != 1:
        raise DegenerateDiscriminant(f"D = {D} is not 1 mod 4; not a seed discriminant")
    if not is_squarefree(D):
        raise NotSquarefree(f"D = {D}")


def enumerate_classes(D: int) -> list[BinaryCubicForm]:
    """All GL2(Z)-classes of irreducible integral binary cubic forms of
    discriminant exactly D, as canonical representatives, sorted.  The count
    must come out as (3^r - 1)/2 (anything else is an enumeration bug or a
    non-fundamental input).  Each candidate is tested for irreducibility
    once and then reduced without repeating the test."""
    _validate_enum_disc(D)
    reps = {}
    for F in candidate_forms(D):
        if is_irreducible(F):
            R = _canonical(F)
            reps[R.coeffs()] = R
    classes = sorted(reps.values(), key=lambda f: f.coeffs())
    if rank_of_class_count(len(classes)) is None:
        raise InconsistencyError(
            f"{len(classes)} classes for D = {D}, not (3^r - 1)/2 for any r")
    return classes


def rank_of_class_count(count: int) -> int | None:
    """The r with count = (3^r - 1)/2, or None when there is none."""
    r = 0
    while 3**r < 2 * count + 1:
        r += 1
    return r if 3**r == 2 * count + 1 else None


# --- monic representability ---

@dataclass(frozen=True)
class MonicSearch:
    status: str                      # 'already_monic' | 'found' | 'not_found'
    matrix: tuple | None = None
    form: BinaryCubicForm | None = None
    bound: int = 0

    @property
    def found(self) -> bool:
        return self.status in ('already_monic', 'found')


# --- exact sieved point search ---
#
# A ratpoints-style residue sieve (after Stoll's ratpoints): for each
# modulus m and each row residue y mod m, a bitmask over x marks the cells
# whose value F(x, y) mod m the target can take.  ANDing a row's masks
# leaves a few survivors, and each survivor is checked exactly, so the
# sieve only ever discards cells that cannot be hits.
#
# A binary cubic is odd, F(-x, -y) = -F(x, y), and (x, y), (-x, -y) share
# gcd and max-norm, so only the rows y >= 0 are sieved.  The allowed
# residues are closed under negation (the cubes are already; the unit
# target allows both 1 and -1), and a survivor (x, y) stands for itself
# when F(x, y) passes the exact test and for its mirror (-x, -y) when
# -F(x, y) does.  The rows y = 0 .. bound are sieved once each, in order,
# at the full width of the box, and the walk stops once the row index
# passes the max-norm of the best hit.
#
# The cube target is homogeneous: F(s, t) = t^3 F(s/t, 1) mod m for t
# prime to m, and t^3 is a unit cube, which maps the cube residues onto
# themselves.  So its residue row for such a t is the row for t = 1 with
# bit u moved to u*t mod m, and only t = 0 (and t = 3, 6 for m = 9)
# evaluates F.  Its moduli are also sieved sparsest first, by the share
# popcount/m of the row for t = 1, as ratpoints sorts its primes, so that
# rows die after fewer ANDs.  The unit set {1, -1} is not closed under
# unit cubes (mod 13, 7^3 = 5), and the monic search usually stops
# within a few rows, so the unit target keeps the fixed order below and
# evaluates each row it needs.

_SIEVE_MODULI = (9, 7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97)

# target -> (residues mod m of every value or its negative that can pass,
#            exact test, whether the residues are closed under
#            multiplication by unit cubes)
_TARGETS = {
    "cube": (lambda m: {t**3 % m for t in range(m)},
             lambda v: cube_root_exact(v) is not None, True),
    "unit": (lambda m: {1, m - 1}, lambda v: v == 1, False),
}


def _residue_row(F: BinaryCubicForm, m: int, ok, y: int) -> int:
    """The m-bit row for y mod m, whose bit s is set when F(s, y) mod m
    lies in `ok`."""
    a, b, c, d = (t % m for t in F.coeffs())
    by, cy, dy = b * y, c * y * y, d * y**3
    return sum(1 << s for s in range(m)
               if (((a * s + by) * s + cy) * s + dy) % m in ok)


def _scaled_row(ones, m: int, t: int) -> int:
    """The m-bit row with bit u*t mod m set for each u in `ones`: for t
    prime to m and a target closed under unit cubes, the residue row for
    y = t from the set bits `ones` of the row for y = 1."""
    return sum(1 << (u * t % m) for u in ones)


def _sieved_search(F: BinaryCubicForm, bound: int, target: str):
    """The first coprime (x, y) with |x|, |y| <= bound, in the order
    (max(|x|, |y|), x, y), whose value F(x, y) meets the target ('cube':
    a perfect cube, 'unit': exactly 1); None when the box has none.

    The rows y = 0, 1, ..., bound are sieved in one pass, each once over
    the full width x = -bound .. bound, and the search stops before the
    first row y larger than the max-norm h of the best hit so far.  That
    returns exactly the first hit of the whole box: every cell of row y
    has max-norm >= y > h, so no later row can hold a better hit, and
    every cell of max-norm <= h lies in a row already sieved.  Row 0
    starts from the two cells x = +-1, the only ones coprime to y = 0;
    a bound of 0 leaves it empty.  The full-width mask of a modulus for
    one y mod m is built the first time a row needs it and kept for the
    whole search.

    For a target closed under unit cubes ('cube'), the residue row for
    y = 1 of every modulus is evaluated up front; the row for y prime to
    m is that row with bit u moved to u*y mod m, and only the rows for y
    sharing a factor with m evaluate F.  The moduli are then sieved in
    ascending order of popcount/m of their y = 1 rows.  Neither changes
    which cells survive: a row's survivors are the AND of all its masks,
    in any order.  The 'unit' target sieves in the order of
    _SIEVE_MODULI and evaluates every row.

    Only the upper half-plane y >= 0 is sieved.  Since F(-x, -y) =
    -F(x, y), every cell with y < 0 is the mirror (-x, -y) of a sieved
    cell, and it is a hit exactly when -F(x, y) meets the target, so each
    cell of the box is still decided once (row 0 twice)."""
    allowed, accept, scales = _TARGETS[target]
    sieve = []                          # (m, ok, set bits of row 1, masks)
    for m in _SIEVE_MODULI:
        ok = allowed(m)
        ones = None
        if scales:
            one = _residue_row(F, m, ok, 1)
            ones = [u for u in range(m) if one >> u & 1]
        sieve.append((m, ok, ones, [None] * m))
    if scales:                  # sparsest first, len/m compared in integers
        L = lcm(*_SIEVE_MODULI)
        sieve.sort(key=lambda e: len(e[2]) * (L // e[0]))
    width = 2 * bound + 1
    full = (1 << width) - 1
    hits = []                                   # (max-norm, x, y)
    for y in range(bound + 1):
        if hits and y > min(hits)[0]:
            break
        row = full if y else full & (5 << bound >> 1)   # bits of x = +-1
        for m, ok, ones, masks in sieve:
            t = y % m
            mask = masks[t]
            if mask is None:
                if ones is not None and gcd(t, m) == 1:
                    pat = _scaled_row(ones, m, t)
                else:
                    pat = _residue_row(F, m, ok, t)
                mask = masks[t] = tile_residues(pat, m, -bound, width)
            row &= mask
            if not row:
                break
        else:                                   # the row has survivors
            for x in bit_indices(row, -bound):
                if gcd(x, y) == 1:
                    v = F(x, y)
                    if accept(v):
                        hits.append((max(abs(x), y), x, y))
                    if accept(-v):
                        hits.append((max(abs(x), y), -x, -y))
    return min(hits)[1:] if hits else None


def monic_representative(F: BinaryCubicForm, bound: int) -> MonicSearch:
    """Bounded search for coprime (p, q), |p|,|q| <= bound, F(p, q) = 1;
    the first hit (max-norm rings, then lexicographic) is completed to a
    unimodular matrix giving an equivalent monic form.  'not_found' is a
    semi-decision, valid only up to the bound.

    The residue sieve of _sieved_search (target residue 1 modulo each
    sieve modulus, survivors checked exactly) stops at the first row
    beyond the max-norm of its best hit and returns the same first hit as
    a full scan.  For a monic F the identity matrix is returned; its first
    column (1, 0) is the representation of 1."""
    _check_reducible(F)
    if F.a == 1:
        return MonicSearch('already_monic', ((1, 0), (0, 1)), F, bound)
    hit = _sieved_search(F, bound, "unit")
    if hit is None:
        return MonicSearch('not_found', None, None, bound)
    p, q = hit
    g, x0, y0 = xgcd(p, q)
    assert g == 1 and F(p, q) == 1
    M = ((p, -y0), (q, x0))
    G = act(F, M)
    assert G.a == 1
    return MonicSearch('found', M, G, bound)
