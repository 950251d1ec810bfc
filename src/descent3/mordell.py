"""Mordell curves y^2 = x^3 + k, the 3-isogeny pair, and descent maps.

For squarefree D the pair is E_D: y^2 = x^3 + 16D and E_D': Y^2 = X^3 - 432D,
linked by the degree-3 isogeny

    lambda(x, y) = ((y^2 + 48D)/x^2,  y(x^3 - 128D)/x^3)

whose kernel is {O, (0, +-4 sqrt(D))}.  The dual comes back with X/9, Y/27.
The descent homomorphisms land in quadratic field multiplicative groups
modulo cubes:

    psi (x, y) on E_D  -> class of  y + 4 sqrt(D)   in Q(sqrt D)* / cubes
    psi'(X, Y) on E_D' -> class of  Y + 12 sqrt(D') in Q(sqrt D')* / cubes

with D' = -3D.  ker psi' = lambda(E_D(Q)), so a point of E_D' is in the
image of lambda iff its psi'-value is a cube, and span_dim_mod_lambda /
span_dim_mod_3 turn sets of points into F_3-dimensions of the groups
E_D'(Q)/lambda(E_D(Q)) and E_D'(Q)/3E_D'(Q).

The spans are F_3 linear algebra on descent values, with no search over
combinations.  psi' embeds E_D'(Q)/lambda(E_D(Q)) in K'*/K'*^3, so the
dimension mod lambda is the rank of the psi'-values, computed by
cube_class_relations: cubic residue characters at split primes
l = 1 (mod 3) separate the basis, and every relation it reports is
certified by an explicit cube root (is_cube on the quotient).  The
dimension mod 3 follows from the exact sequence

    0 -> lambda(E_D)/3E_D' -> E_D'/3E_D' -> E_D'/lambda(E_D) -> 0:

each relation mod lambda names a point T = lambda(P) of the kernel, and
T lies in 3E_D' iff psi(P) is a cube, so the psi(P) add their rank.

A report runs psi_prime_relations once, over the searched points up to
sign and then the class points the search missed.  psi'(-S) is the
inverse class of psi'(S) and -S lies in the span of S, so one point of
each pair +-S spans what both do.  The greedy basis of a prefix spans
that prefix, so its entries among the searched points count their rank
mod lambda, and span_dim_mod_3 reuses the same relations.

Monic forms give points of E_D' through the syzygy 4H^3 = G^2 + 27DF^2
at (1, 0), which reads G^2 = 4P^3 - 27D (syzygy_point,
search_monic_points).

All arithmetic is exact (Fraction coordinates, integer root isolation),
so points with thousand-digit coordinates are fine.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import (cubic_character, cubic_square_points,
                    integer_roots_monic_cubic, is_prime)
from .errors import InconsistencyError, ValidationError
from .quadfield import QuadElem, is_cube


@dataclass(frozen=True)
class MordellCurve:
    k: int

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("k = 0 is singular")

    @staticmethod
    def e_d(D: int) -> "MordellCurve":
        return MordellCurve(16 * D)

    @staticmethod
    def e_d_prime(D: int) -> "MordellCurve":
        return MordellCurve(-432 * D)

    def __str__(self):
        return f"y^2 = x^3 + ({self.k})"


class CurvePoint:
    """A rational point, exact.  CurvePoint(E) is the point at infinity."""

    __slots__ = ("curve", "x", "y", "infinite")

    def __init__(self, curve: MordellCurve, x=None, y=None):
        self.curve = curve
        if x is None and y is None:
            self.infinite = True
            self.x = self.y = None
            return
        self.infinite = False
        x, y = Fraction(x), Fraction(y)
        # y^2 = x^3 + k, cleared of the denominators (w^2, w^3), in ints
        w2, w3 = x.denominator, y.denominator
        if y.numerator**2 * w2**3 != (x.numerator**3 + curve.k * w2**3) * w3**2:
            raise ValidationError(f"({x}, {y}) not on {curve}")
        assert isqrt(w2) ** 2 == w2 and isqrt(w2) ** 3 == w3
        self.x, self.y = x, y

    def uvw(self):
        """x = u/w^2, y = v/w^3 in lowest terms, w > 0."""
        if self.infinite:
            raise ValidationError(
                "point at infinity has no affine coordinates")
        w = isqrt(self.x.denominator)
        return (self.x.numerator, self.y.numerator, w)

    def __eq__(self, other):
        return (isinstance(other, CurvePoint) and self.curve == other.curve
                and self.infinite == other.infinite
                and self.x == other.x and self.y == other.y)

    def __hash__(self):
        return hash((self.curve.k, self.infinite, self.x, self.y))

    def __neg__(self):
        if self.infinite:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __str__(self):
        return "O" if self.infinite else f"({self.x}, {self.y})"

    __repr__ = __str__


def add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.curve != Q.curve:
        raise ValidationError(f"points on two curves: {P.curve} vs {Q.curve}")
    if P.infinite:
        return Q
    if Q.infinite:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return CurvePoint(P.curve)
        s = (3 * P.x * P.x) / (2 * P.y)
    else:
        s = (Q.y - P.y) / (Q.x - P.x)
    x3 = s * s - P.x - Q.x
    y3 = s * (P.x - x3) - P.y
    return CurvePoint(P.curve, x3, y3)


def mul_scalar(n: int, P: CurvePoint) -> CurvePoint:
    if n < 0:
        return mul_scalar(-n, -P)
    R = CurvePoint(P.curve)
    Q = P
    while n:
        if n & 1:
            R = add(R, Q)
        n >>= 1
        if n:
            Q = add(Q, Q)
    return R


# --- the isogeny pair ---

def lambda_map(P: CurvePoint, D: int) -> CurvePoint:
    """E_D -> E_D', kernel {O, (0, +-4 sqrt D)} (rational only if D square)."""
    E = MordellCurve.e_d(D)
    E2 = MordellCurve.e_d_prime(D)
    if P.curve != E:
        raise ValidationError(f"point on {P.curve}, expected {E}")
    if P.infinite:
        return CurvePoint(E2)
    if P.x == 0:
        raise ValidationError("x = 0: a kernel point maps to infinity")
    X = (P.y * P.y + 48 * D) / (P.x * P.x)
    Y = P.y * (P.x**3 - 128 * D) / P.x**3
    return CurvePoint(E2, X, Y)


def lambda_dual(S: CurvePoint, D: int) -> CurvePoint:
    """E_D' -> E_D; the composite lambda_dual . lambda_map is [3] on E_D."""
    E2 = MordellCurve.e_d_prime(D)
    E = MordellCurve.e_d(D)
    if S.curve != E2:
        raise ValidationError(f"point on {S.curve}, expected {E2}")
    if S.infinite:
        return CurvePoint(E)
    if S.x == 0:
        raise ValidationError("X = 0: a kernel point maps to infinity")
    K = -432 * D
    X = (S.y * S.y + 3 * K) / (S.x * S.x)
    Y = S.y * (S.x**3 - 8 * K) / S.x**3
    return CurvePoint(E, X / 9, Y / 27)


def lambda_preimage(S: CurvePoint, D: int) -> CurvePoint | None:
    """The rational P on E_D with lambda(P) = S, or None.

    At most one exists: two preimages differ by a kernel point, which is
    irrational for squarefree D.  x satisfies x^3 - X_S x^2 + 64D = 0;
    writing X_S = U/W^2 and z = W^2 x makes it monic integral, solved by
    exact root isolation (no factoring of 64*D*W^6 needed)."""
    E2 = MordellCurve.e_d_prime(D)
    if S.curve != E2:
        raise ValidationError(f"point on {S.curve}, expected {E2}")
    E = MordellCurve.e_d(D)
    if S.infinite:
        return CurvePoint(E)
    U, W2 = S.x.numerator, S.x.denominator
    roots = integer_roots_monic_cubic(-U, 0, 64 * D * W2**3)
    for z in roots:
        x = Fraction(z, W2)
        if x == 0:
            continue
        den = x**3 - 128 * D
        if den == 0:
            # would force y^2 = 144D, irrational for squarefree D
            continue
        y = S.y * x**3 / den
        if y * y == x**3 + 16 * D:
            P = CurvePoint(E, x, y)
            if lambda_map(P, D) == S:
                return P
    return None


# --- descent maps into quadratic fields mod cubes ---

def psi(P: CurvePoint, D: int) -> QuadElem | None:
    """P = (u/w^2, v/w^3) on E_D maps to v + 4w^3 sqrt(D), a cube times
    y + 4 sqrt(D); its norm is u^3.  O maps to None, the trivial class of
    Q(sqrt D)* / cubes."""
    if P.curve != MordellCurve.e_d(D):
        raise ValidationError(
            f"psi wants a point of E_D, got one on {P.curve}")
    if P.infinite:
        return None
    if P.x == 0:
        raise ValidationError("x = 0 is the kernel of psi's curve map")
    u, v, w = P.uvw()
    alpha = QuadElem.from_pair(D, v, 4 * w**3)
    assert alpha.norm() == u**3
    return alpha


def psi_prime(S: CurvePoint, D: int) -> QuadElem | None:
    """S = (U/W^2, V/W^3) on E_D' maps to V + 12 W^3 sqrt(D'), D' = -3D;
    its norm is U^3; O maps to None.  Kernel = lambda(E_D(Q))."""
    if S.curve != MordellCurve.e_d_prime(D):
        raise ValidationError(
            f"psi_prime wants a point of E_D', got one on {S.curve}")
    if S.infinite:
        return None
    if S.x == 0:
        raise ValidationError("X = 0 is the kernel of psi_prime's curve map")
    U, V, W = S.uvw()
    alpha = QuadElem.from_pair(-3 * D, V, 12 * W**3)
    assert alpha.norm() == U**3
    return alpha


def in_lambda_image(S: CurvePoint, D: int) -> bool:
    """S in lambda(E_D(Q)), decided through psi' (exact)."""
    if S.infinite:
        return True
    if S.x == 0:
        # (0, +-12 sqrt(-3D)) rational only for -3D square; excluded upstream
        raise ValidationError("X = 0: the torsion point has no lambda test")
    return is_cube(psi_prime(S, D)) is not None


# --- monic points ---

def syzygy_point(D: int, P: int, G: int) -> CurvePoint:
    """The point (4P, 4G) of E_D': Y^2 = X^3 - 432D, where (P, G) solves
    G^2 = 4P^3 - 27D.  For a monic form (1, b, c, d) of discriminant D,
    P = b^2 - 3c and G = 2b^3 - 9bc + 27d are its Hessian and cubic
    covariant at (1, 0) (cubicforms.syzygy_pair).  Raises ValidationError
    when (P, G) is not on that curve."""
    return CurvePoint(MordellCurve.e_d_prime(D), 4 * P, 4 * G)


def search_monic_points(D: int, bound: int) -> list[CurvePoint]:
    """The points syzygy_point(D, P, +-G) of the monic forms (1, b, c, d)
    of discriminant D with |P| <= 3*bound, sorted by (x, y).

    One pass of arith.cubic_square_points over G^2 = 4P^3 - 27D finds
    every (P, G), G >= 0.  A point with 3 | P comes from a monic form
    exactly when 27 | G: such a form has 3 | b, hence 27 | G, and
    P = 3m, G = 27n is the form (1, 0, -m, n).  Every point with 3 not
    dividing P is kept: then P = 1 (mod 3) and G = +-(3P - 1) (mod 27),
    so b = +-1, c = (1 - P)/3 and d = (G - 2b^3 + 9bc)/27 is integral."""
    pairs = []
    for P, G in cubic_square_points(27 * D, -3 * bound, 3 * bound):
        if P % 3 == 0 and G % 27:
            continue
        pairs += [(P, G), (P, -G)] if G else [(P, 0)]
    return [syzygy_point(D, P, g) for P, g in sorted(pairs)]  # (x, y) order


# --- F_3 spans of point sets in the two descent quotients ---

def _split_characters(d: int, norms: list[int]):
    """The cubic characters alpha -> chi_l((u + v*r)/2 mod l) of Q(sqrt d),
    for the primes l = 1 (mod 6) with l not dividing d or any of the
    norms, d a square mod l, and both roots r of r^2 = d (mod l).  The
    ring map sqrt(d) -> r sends every element whose norm is prime to l to
    (Z/l)*, so each character is a homomorphism that kills the cubes.
    The l run through 7, 13, 19, ... and arith.is_prime tests each; as l
    stays in the hundreds, r is the least root, found by a scan."""
    l = 7
    while True:
        if (d % l and pow(d, (l - 1) // 2, l) == 1 and is_prime(l)
                and all(N % l for N in norms)):
            r = next(r for r in range(1, l) if (r * r - d) % l == 0)
            yield l, r
            yield l, l - r
        l += 6


def _char(alpha: QuadElem, ch) -> int:
    l, r = ch
    return cubic_character((alpha.u + alpha.v * r) * ((l + 1) // 2), l)


def _solve_f3(rows, target):
    """c with sum c_i rows[i] = target over F_3, or None; the rows are
    linearly independent, so a solution is unique."""
    k = len(rows)
    eqs = [[row[j] for row in rows] + [t] for j, t in enumerate(target)]
    for col in range(k):
        p = next(i for i in range(col, len(eqs)) if eqs[i][col])
        eqs[col], eqs[p] = eqs[p], eqs[col]
        piv = [x * eqs[col][col] % 3 for x in eqs[col]]    # 1/c = c in F_3
        eqs[col] = piv
        for i, eq in enumerate(eqs):
            if i != col and eq[col]:
                eqs[i] = [(x - eq[col] * y) % 3 for x, y in zip(eq, piv)]
    if any(eq[k] for eq in eqs[k:]):
        return None
    return [eqs[i][k] for i in range(k)]


def cube_class_relations(elems: list[QuadElem]) -> list[tuple | None]:
    """F_3-linear algebra in K*/K*^3 for nonzero integral elements of one
    field K = Q(sqrt d), taken in order.

    Entry i is None when elems[i] is independent of the elements before it
    (it joins the basis), else the exponents (c_1, ..., c_k) over the basis
    so far with elems[i] / prod B_j^c_j a cube.  Each basis element is
    kept apart from the others by the cubic characters of _split_characters,
    which start as none.  When a new element's character vector lies in the
    span of the basis vectors, the quotient beta the solution names is
    multiplied out and tested by is_cube: a cube root certifies the
    relation; otherwise primes are scanned until a character is nonzero on
    beta (a non-cube is a non-residue at infinitely many split primes, by
    Chebotarev), and that character separates the element from the basis.
    Both answers are exact: "dependent" rests on a checked cube root and
    "independent" on a homomorphism that kills cubes."""
    if not elems:
        return []
    chars = _split_characters(elems[0].d, [a.norm() for a in elems])
    found, basis, rows, out = [], [], [], []
    for alpha in elems:
        vec = [_char(alpha, ch) for ch in found]
        coeffs = _solve_f3(rows, vec)
        if coeffs is not None:
            beta = alpha
            for B, c in zip(basis, coeffs):
                if c:
                    beta = beta * B ** (3 - c)     # alpha * B^-c, up to cubes
            if is_cube(beta) is not None:
                out.append(tuple(coeffs))
                continue
            ch = next(ch for ch in chars if _char(beta, ch))
            found.append(ch)
            for B, row in zip(basis, rows):
                row.append(_char(B, ch))
            vec.append(_char(alpha, ch))
        basis.append(alpha)
        rows.append(vec)
        out.append(None)
    return out


def psi_prime_relations(points, D):
    """The affine points and their cube_class_relations under psi'."""
    pts = [S for S in points if not S.infinite]
    return pts, cube_class_relations([psi_prime(S, D) for S in pts])


def span_dim_mod_lambda(points: list[CurvePoint], D: int) -> int:
    """dim of the image of the given E_D' points in E_D'(Q)/lambda(E_D(Q)).

    psi' embeds that quotient in K'*/K'*^3, K' = Q(sqrt(-3D)), so this is
    the F_3-rank of the psi'-values; no point arithmetic."""
    return psi_prime_relations(points, D)[1].count(None)


def span_dim_mod_3(points: list[CurvePoint], D: int, *, relations=None):
    """dim of the image of the given E_D' points in E_D'(Q)/3E_D'(Q).

    By the exact sequence in the module docstring, every point S that is
    dependent mod lambda, with relation c over the basis B, gives
    T = S - sum c_j B_j in lambda(E_D(Q)) (c_j = 2 is taken as -1; the
    difference lies in 3E_D'(Q)).  Its preimage P has psi(P) a cube iff
    T is in 3E_D'(Q) = lambda(lambda_dual(E_D'(Q))), so the dimension is
    the dimension mod lambda plus the F_3-rank of the psi(P).  relations
    is psi_prime_relations(points, D) when the caller already has it."""
    pts, rels = relations or psi_prime_relations(points, D)
    basis, kernel = [], []
    for S, coeffs in zip(pts, rels):
        if coeffs is None:
            basis.append(S)
            continue
        T = S
        for B, c in zip(basis, coeffs):
            if c:
                T = add(T, -B if c == 1 else B)
        P = lambda_preimage(T, D)
        if P is None:
            raise InconsistencyError(
                f"psi'({T}) is a cube but no rational preimage found")
        if not P.infinite and P.x != 0:
            kernel.append(psi(P, D))
    return len(basis) + cube_class_relations(kernel).count(None)
