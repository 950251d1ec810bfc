"""Seed discriminants D = 4m^3 - 27n^2 and the class-number divisibility test.

A valid seed needs gcd(2m, 3n) = 1 (so n odd, 3 does not divide m) and D
squarefree.  Those two conditions force D = 1 (mod 4), i.e. D is a fundamental
discriminant, which everything downstream relies on.
"""

from dataclasses import dataclass
from math import gcd

from .arith import divisors, is_squarefree
from .errors import ValidationError


def disc_value(m: int, n: int) -> int:
    return 4 * m**3 - 27 * n**2


@dataclass(frozen=True)
class DiscriminantSeed:
    m: int
    n: int
    D: int

    @property
    def d_prime(self) -> int:
        """Discriminant of the 3-isogenous side, D' = -3D."""
        return -3 * self.D


def check_disc(D: int):
    """Raise ValidationError unless D is a family discriminant: squarefree,
    1 (mod 4), and neither 1 nor -3."""
    if D in (1, -3):
        raise ValidationError(f"D = {D} is excluded")
    if D % 4 != 1:
        raise ValidationError(f"D = {D} is not 1 mod 4")
    if not is_squarefree(D):
        raise ValidationError(f"D = {D} is not squarefree")


def make_seed(m: int, n: int) -> DiscriminantSeed:
    """Validate (m, n) and build the seed.  Checks are ordered so a gcd
    violation is reported as such even when D also fails squarefreeness."""
    if gcd(2 * m, 3 * n) != 1:
        raise ValidationError(
            f"gcd(2m, 3n) = {gcd(2 * m, 3 * n)} for (m, n) = ({m}, {n})")
    D = disc_value(m, n)
    check_disc(D)
    return DiscriminantSeed(m, n, D)


def honda_divisible_by_3(m: int, n: int) -> bool:
    """True iff 3 divides the class number of Q(sqrt(D)) by the divisor
    criterion: no divisor h of n (either sign) satisfies m = (n + h^3)/h.

    Needs gcd(m, 3n) = 1.  One-directional: False only means the criterion
    does not apply, not that 3 fails to divide the class number.
    """
    if gcd(m, 3 * n) != 1:
        raise ValidationError(f"gcd(m, 3n) != 1 for (m, n) = ({m}, {n})")
    for h0 in divisors(n):
        for h in (h0, -h0):
            if (n + h**3) % h == 0 and (n + h**3) // h == m:
                return False
    return True


def scan(m_range, n_range):
    """Yield every valid seed in the box, m outer ascending, n inner
    ascending; the pairs make_seed rejects are skipped, and any other
    error (a factoring budget) propagates."""
    for m in m_range:
        for n in n_range:
            try:
                seed = make_seed(m, n)
            except ValidationError:
                continue
            yield seed
