"""Exact integer arithmetic helpers: roots, squarefree tests, cubic residues,
extended gcd, and the bit-packed residue sieves.

Everything here is integer arithmetic.  The Newton iteration
in iroot starts from the power of two 2^ceil(bits/k), and every sieve
survivor is checked exactly before it is returned.
"""

from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, prod

import sympy

from .errors import BudgetExceeded, ValidationError

# Trial division bound used before the rho fallback kicks in.
TRIAL_BOUND = 10**6
# Rho iterations spent on one number before factoring gives up.
RHO_BUDGET = 10**7


def is_prime(n: int) -> bool:
    """Exact primality test; the package's one call into sympy."""
    return sympy.isprime(n)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # Newton iteration on integers.  The seed 2^ceil(bits/k) exceeds the
    # root, and from above the iteration decreases monotonically, so the
    # trailing adjustments are O(1) steps.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def cube_root_exact(n: int):
    """Integer r with r^3 = n, or None.  Works for negative n."""
    if n == 0:
        return 0
    r = iroot(abs(n), 3)
    if r**3 != abs(n):
        return None
    return r if n > 0 else -r


def _pollard_rho(n: int) -> int | None:
    """Brent's rho.  Returns a nontrivial factor of composite n, or None
    once RHO_BUDGET iterations are spent."""
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, 64):
        y, m = 2, 128
        r, q, g = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += min(m, r - k)
                g = gcd(q, n)
                spent += min(m, r - k) + 1
                if spent > RHO_BUDGET:
                    return None
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({p: e}, rest) with n = rest * prod p^e for n >= 1, where rest is 1
    or exceeds TRIAL_BOUND^2 and has no prime factor up to TRIAL_BOUND.

    The divisors are 2 and the odd d up to min(isqrt(n), TRIAL_BOUND); a
    composite d never divides, as its primes are out by then.  After a hit
    the loop stops once d^2 exceeds what is left, which is then 1 or a
    prime; so is anything left at or below TRIAL_BOUND^2, and a prime
    joins the factors."""
    out = {}
    for d in chain((2,), range(3, min(isqrt(n), TRIAL_BOUND) + 1, 2)):
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
            if d * d > n:
                break
    if 1 < n <= TRIAL_BOUND**2:
        out[n], n = 1, 1
    return out, n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}.  Raises ValidationError on 0
    and BudgetExceeded if the rho fallback gives up."""
    if n == 0:
        raise ValidationError("cannot factor 0")
    out, rest = _trial_divide(abs(n))
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        f = _pollard_rho(m)
        if f is None or f in (1, m):
            raise BudgetExceeded(f"gave up factoring {m}")
        stack.extend([f, m // f])
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of |n|, sorted ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=1024)
def is_squarefree(n: int) -> bool:
    """Exact squarefree test; treats n and -n alike.  Raises
    ValidationError on 0 and BudgetExceeded if the rho fallback gives up.
    The seed, the class enumeration and the class group each test the
    same D, so the answer is kept."""
    if n == 0:
        raise ValidationError("squarefree is undefined for 0")
    small, rest = _trial_divide(abs(n))
    if any(e > 1 for e in small.values()):
        return False
    if rest == 1 or is_prime(rest):
        return True
    if is_perfect_square(rest):
        return False
    # no factor <= TRIAL_BOUND and not a square: below TRIAL_BOUND^3 the
    # rest is p*q with p != q
    return (rest < TRIAL_BOUND**3
            or all(e == 1 for e in factorize(rest).values()))


@lru_cache(maxsize=None)
def _unity_cube_root(l: int) -> int:
    """The primitive cube root of unity a^((l-1)/3) mod l for the least
    a >= 2 that is not a cube mod l; fixed per l, so characters agree."""
    if not is_prime(l) or l % 3 != 1:
        raise ValidationError(f"{l} is not a prime = 1 (mod 3)")
    a = 2
    while pow(a, (l - 1) // 3, l) == 1:
        a += 1
    return pow(a, (l - 1) // 3, l)


def cubic_character(y: int, l: int) -> int:
    """The cubic residue character of y mod the prime l = 1 (mod 3), read
    in F_3: y^((l-1)/3) is 1, omega or omega^2 (mod l), giving 0, 1 or 2,
    with omega fixed per l by _unity_cube_root, which also rejects every
    other l.  It is a homomorphism from (Z/l)* onto F_3 that kills exactly
    the cubes."""
    omega = _unity_cube_root(l)
    if y % l == 0:
        raise ValidationError(f"no cubic character: {y} is divisible by {l}")
    e = pow(y, (l - 1) // 3, l)
    return 0 if e == 1 else 1 if e == omega else 2


def xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# --- polynomial root extraction ---

def _bisect_root(f, lo: int, hi: int, increasing: bool) -> int | None:
    """Integer root of f on [lo, hi] where f is monotone there.  None if the
    sign change straddles a non-integer root."""
    if lo > hi:
        return None
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if not increasing:
        flo, fhi = fhi, flo
    if flo > 0 or fhi < 0:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = f(mid)
        if v == 0:
            return mid
        if (v < 0) == increasing:
            lo = mid
        else:
            hi = mid
    return None


def integer_roots_monic_cubic(A: int, B: int, C: int) -> list[int]:
    """Integer roots of x^3 + A x^2 + B x + C.

    Bisection between the critical points, so it stays fast when the
    coefficients have thousands of digits (no divisor enumeration).
    """
    def f(x):
        return ((x + A) * x + B) * x + C

    M = 2 + max(abs(A), abs(B), abs(C))
    t = A * A - 3 * B
    roots = []
    if t <= 0:
        r = _bisect_root(f, -M, M, True)
        return [r] if r is not None else []
    # critical points (-A -/+ sqrt(t))/3; find exact integer floors
    s = isqrt(t)

    def dval(k):
        return 3 * k * k + 2 * A * k + B

    # k1 = floor(left critical point): largest k with dval(k) >= 0, 3k <= -A
    k1 = (-A - s) // 3 - 1
    while dval(k1 + 1) >= 0 and 3 * (k1 + 1) <= -A:
        k1 += 1
    # k2 = floor(right critical point): largest k with 3k <= -A or dval(k) <= 0
    k2 = (-A + s) // 3 - 1
    while (3 * (k2 + 1) <= -A) or dval(k2 + 1) <= 0:
        k2 += 1
    for lo, hi, inc in ((-M, k1, True), (k1 + 1, k2, False), (k2 + 1, M, True)):
        r = _bisect_root(f, lo, hi, inc)
        if r is not None and r not in roots:
            roots.append(r)
    return sorted(roots)


# --- bit-packed residue sieve ---
#
# A window of consecutive integers lo .. lo + width - 1 is a Python int
# whose bit i stands for lo + i.  An m-periodic residue pattern (bit s set
# for the residues s mod m that may still hold a solution) is laid over
# the window by tile_residues; ANDing several such masks is the sieve
# (after Stoll's ratpoints), and bit_indices lists what survived.

def tile_residues(pat: int, m: int, lo: int, width: int) -> int:
    """The m-bit residue pattern `pat` laid over x = lo .. lo + width - 1:
    bit i of the result is bit (lo + i) mod m of pat."""
    k = lo % m
    pat = ((pat >> k) | (pat << (m - k))) & ((1 << m) - 1)
    n = m
    while n < width:
        pat |= pat << n
        n *= 2
    return pat & ((1 << width) - 1)


def bit_indices(row: int, lo: int):
    """lo + i for every set bit i of row, ascending.

    The row is walked by its lowest set bit, row & -row, which costs a
    few big-int operations per set bit; sieved rows keep only a handful."""
    lo -= 1
    while row:
        low = row & -row
        yield lo + low.bit_length()
        row ^= low


# --- integral points on t^2 = 4s^3 - c ---
#
# The Hessian syzygy of binary cubic forms, and with it the monic points
# of E_D', asks for the s in a run of consecutive integers at which
# 4s^3 - c is a square.  A survivor of the residue sieve only passed a
# necessary condition and is always checked exactly.  The moduli are
# grouped: by the CRT a group of coprime moduli with product Q is one
# Q-periodic mask, the AND of its members' patterns, so a block costs
# one shift and AND per group, 8 instead of 18.

_CUBIC_SQUARE_GROUPS = tuple((g, prod(g)) for g in (
    (81, 64), (5, 7, 11, 13), (17, 19, 23), (29, 31), (37, 41), (43, 47),
    (53, 59), (61,)))
# indices sieved per bitmask, which keeps memory flat for long ranges.  CPU
# time of the 39 scan-box monic searches at bound 10^5 (min of 75 rounds,
# Python 3.11, 2 cores) for 2^12 .. 2^17: 10.9 10.0 8.9 9.0 9.7 14.1 ms.
_CUBIC_SQUARE_BLOCK = 1 << 14


@lru_cache(maxsize=None)
def _cubic_square_pattern(q: int, c: int) -> int:
    """The q-bit pattern whose bit s is set when 4s^3 - c is a square
    mod q.  c is a residue mod q, so the cache holds at most a few
    hundred patterns."""
    squares = {t * t % q for t in range(q)}
    return sum(1 << s for s in range(q) if (4 * s**3 - c) % q in squares)


def least_cube_index(c: int) -> int:
    """The least integer s with 4s^3 >= c."""
    if c <= 0:
        return -iroot(-c // 4, 3)
    r = iroot(-(-c // 4), 3)
    return r if 4 * r**3 >= c else r + 1


def cubic_square_points(c: int, lo: int, hi: int):
    """The integral points (s, t), t >= 0, of t^2 = 4s^3 - c with
    lo <= s <= hi, s ascending.

    The range starts at the least s with 4s^3 >= c, found exactly with
    iroot.  Residue patterns modulo 81, 64 and the primes 5..61, ANDed
    over blocks of consecutive s (after Stoll's ratpoints), drop the s at
    which 4s^3 - c is not a square modulo some modulus; they discard only
    s that cannot be on the curve.  A group's mask is built once from lo
    at min(Q, reach) bits and tiled on to reach: the block, plus Q when
    more blocks follow, as shifting it right by (start - lo) % Q puts bit
    (start + i) mod Q at bit i.  Survivors get the exact isqrt test."""
    lo = max(lo, least_cube_index(c))
    block = min(_CUBIC_SQUARE_BLOCK, hi + 1 - lo)
    masks = {}                  # built on first use: short rows die early
    for start in range(lo, hi + 1, max(block, 1)):     # lo > hi: no blocks
        width = min(block, hi + 1 - start)
        row = (1 << width) - 1
        for group, Q in _CUBIC_SQUARE_GROUPS:
            mask = masks.get(Q)
            if mask is None:
                reach = block + Q if hi >= lo + block else block
                w = min(Q, reach)
                mask = (1 << w) - 1
                for q in group:
                    mask &= tile_residues(_cubic_square_pattern(q, c % q),
                                          q, lo, w)
                if reach > w:
                    mask = tile_residues(mask, Q, 0, reach)
                masks[Q] = mask
            row &= mask >> (start - lo) % Q
            if not row:
                break
        else:
            for s in bit_indices(row, start):
                v = 4 * s**3 - c
                t = isqrt(v)
                if t * t == v:
                    yield s, t
