"""Seed discriminants D = 4m^3 - 27n^2 and the class-number divisibility test.

A valid seed needs gcd(2m, 3n) = 1 (so n odd, 3 does not divide m) and D
squarefree.  Those two conditions force D = 1 (mod 4), i.e. D is a fundamental
discriminant, which everything downstream relies on.
"""

from dataclasses import dataclass
from math import gcd

from .arith import divisors, is_squarefree
from .errors import DegenerateDiscriminant, GcdViolation, NotSquarefree


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


def make_seed(m: int, n: int) -> DiscriminantSeed:
    """Validate (m, n) and build the seed.  Checks are ordered so a gcd
    violation is reported as such even when D also fails squarefreeness."""
    if gcd(2 * m, 3 * n) != 1:
        raise GcdViolation(f"gcd(2m, 3n) = {gcd(2 * m, 3 * n)} for (m, n) = ({m}, {n})")
    D = disc_value(m, n)
    if D in (-3, -4, 0, 1):
        raise DegenerateDiscriminant(f"D = {D} is excluded")
    if not is_squarefree(D):
        raise NotSquarefree(f"D = {D} is not squarefree")
    return DiscriminantSeed(m, n, D)


def honda_divisible_by_3(m: int, n: int) -> bool:
    """True iff 3 divides the class number of Q(sqrt(D)) by the divisor
    criterion: no divisor h of n (either sign) satisfies m = (n + h^3)/h.

    Needs gcd(m, 3n) = 1.  One-directional: False only means the criterion
    does not apply, not that 3 fails to divide the class number.
    """
    if gcd(m, 3 * n) != 1:
        raise GcdViolation(f"gcd(m, 3n) != 1 for (m, n) = ({m}, {n})")
    for h0 in divisors(n):
        for h in (h0, -h0):
            if (n + h**3) % h == 0 and (n + h**3) // h == m:
                return False
    return True


@dataclass
class ScanSummary:
    emitted: int = 0
    gcd_rejected: int = 0
    not_squarefree: int = 0
    degenerate: int = 0
    sign_filtered: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def scan(m_range, n_range, sign_filter: int | None = None,
         summary: ScanSummary | None = None):
    """Yield every valid seed in the box, m outer ascending, n inner ascending.

    Invalid pairs are skipped and tallied in `summary` when one is supplied.
    sign_filter: +1 keeps D > 0, -1 keeps D < 0, None keeps both.
    """
    if summary is None:
        summary = ScanSummary()
    for m in m_range:
        for n in n_range:
            try:
                seed = make_seed(m, n)
            except GcdViolation:
                summary.gcd_rejected += 1
                continue
            except DegenerateDiscriminant:
                summary.degenerate += 1
                continue
            except NotSquarefree:
                summary.not_squarefree += 1
                continue
            if sign_filter is not None and seed.D * sign_filter < 0:
                summary.sign_filtered += 1
                continue
            summary.emitted += 1
            yield seed
