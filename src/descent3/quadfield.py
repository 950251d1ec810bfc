"""Exact arithmetic in Q(sqrt(d)): half-integer coordinates, norms, cube tests.

Elements are stored as (u + v*sqrt(d))/2 with the usual integrality pattern,
so algebraic integers stay algebraic integers under ring operations.  The cube
test is fully algebraic: a candidate cube root is reconstructed from the cube
root of the norm and an integer root of T^3 - 3qT = trace, then verified by
cubing.  No floating point anywhere.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import (cube_root_exact, cubic_character, factorize,
                    integer_roots_monic_cubic, is_perfect_square)
from .errors import ValidationError


@dataclass(frozen=True)
class QuadElem:
    """(u + v*sqrt(d))/2 with d squarefree, d not 0 or 1."""
    d: int
    u: int
    v: int

    def __post_init__(self):
        if self.d in (0, 1) or (self.d > 1 and is_perfect_square(self.d)):
            raise ValueError(f"bad radicand d = {self.d}")
        if self.d % 4 == 1:
            if (self.u - self.v) % 2 != 0:
                raise ValueError(f"u, v parity mismatch for d = 1 mod 4: {self}")
        else:
            if self.u % 2 != 0 or self.v % 2 != 0:
                raise ValueError(f"u, v must be even for d = {self.d}: {self}")

    @classmethod
    def from_pair(cls, d: int, a: int, b: int) -> "QuadElem":
        """The element a + b*sqrt(d)."""
        return cls(d, 2 * a, 2 * b)

    @classmethod
    def one(cls, d: int) -> "QuadElem":
        return cls.from_pair(d, 1, 0)

    def _check(self, other: "QuadElem"):
        if self.d != other.d:
            raise ValidationError(f"field mismatch: d = {self.d} vs {other.d}")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.d, self.u + other.u, self.v + other.v)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.d, self.u - other.u, self.v - other.v)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.d, -self.u, -self.v)

    def __mul__(self, other) -> "QuadElem":
        if isinstance(other, int):
            return QuadElem(self.d, self.u * other, self.v * other)
        self._check(other)
        un = self.u * other.u + self.v * other.v * self.d
        vn = self.u * other.v + self.v * other.u
        assert un % 2 == 0 and vn % 2 == 0
        return QuadElem(self.d, un // 2, vn // 2)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QuadElem":
        assert e >= 0
        out = QuadElem.one(self.d)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conj(self) -> "QuadElem":
        return QuadElem(self.d, self.u, -self.v)

    def norm(self) -> int:
        n4 = self.u * self.u - self.v * self.v * self.d
        assert n4 % 4 == 0
        return n4 // 4

    def trace(self) -> int:
        return self.u

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_rational(self) -> bool:
        return self.v == 0

    def __str__(self):
        return f"({self.u} + {self.v}*sqrt({self.d}))/2"


def is_cube(alpha: QuadElem):
    """Return beta with beta^3 = alpha, or None.

    If alpha = beta^3 then norm(beta) is the integer cube root q of
    norm(alpha) and T = trace(beta) solves T^3 - 3qT = trace(alpha); beta is
    rebuilt from each integer root T and confirmed by cubing, so a non-None
    answer is self-certifying and None is a completeness statement.
    """
    if alpha.is_zero():
        raise ValidationError("cube test on 0")
    q = cube_root_exact(alpha.norm())
    if q is None:
        return None
    t = alpha.trace()
    for T in integer_roots_monic_cubic(0, -3 * q, -t):
        w2num = T * T - 4 * q
        if w2num % alpha.d != 0:
            continue
        w2 = w2num // alpha.d
        if w2 < 0 or not is_perfect_square(w2):
            continue
        w = isqrt(w2)
        # parity filter: (T + w sqrt(d))/2 must be an algebraic integer
        if alpha.d % 4 == 1:
            if (T - w) % 2 != 0:
                continue
        elif T % 2 != 0 or w % 2 != 0:
            continue
        for beta in (QuadElem(alpha.d, T, w), QuadElem(alpha.d, T, -w)):
            if beta**3 == alpha:
                return beta
    return None


def virtual_unit(seed) -> QuadElem:
    """mu = (27n + 3*sqrt(D'))/2 over d = D' = -3D; norm(mu) = (3m)^3."""
    mu = QuadElem(seed.d_prime, 27 * seed.n, 3)
    assert mu.norm() == (3 * seed.m) ** 3
    return mu


def same_cubic_field(mu1: QuadElem, mu2: QuadElem) -> bool:
    """Whether two non-cube virtual units generate the same cubic extension:
    true iff mu1*mu2^2 or mu1*conj(mu2)^2 is a cube (multiplying by a square
    keeps the cube class of the quotient while staying integral)."""
    if mu1.d != mu2.d:
        raise ValidationError(f"field mismatch: d = {mu1.d} vs {mu2.d}")
    if is_cube(mu1) is not None or is_cube(mu2) is not None:
        raise ValidationError("same_cubic_field needs non-cube inputs")
    return (is_cube(mu1 * mu2 * mu2) is not None
            or is_cube(mu1 * mu2.conj() * mu2.conj()) is not None)


def yamamoto_nonprincipal(x: int, y: int, z: int, D_M: int) -> bool:
    """Nonprincipality witness from the norm equation y^2 = 4x^3 + z^2*D_M:
    true iff some prime l | x with l = 1 (mod 3) has y a cube non-residue
    mod l."""
    if y * y != 4 * x**3 + z * z * D_M:
        raise ValidationError(
            f"not on the norm equation: {y}^2 != 4*{x}^3 + {z}^2*{D_M}")
    if gcd(x, y) != 1:
        raise ValidationError(f"norm equation needs gcd({x}, {y}) = 1")
    if abs(x) <= 1:
        return False
    for l in factorize(x):
        if l % 3 == 1 and cubic_character(y, l):
            return True
    return False
