"""Exact integer arithmetic helpers: roots, squarefree tests, cubic residues,
extended gcd, and the bit-packed residue sieves.

Everything here is integer arithmetic.  The Newton iteration
in iroot starts from the power of two 2^ceil(bits/k), and every sieve
survivor is checked exactly before it is returned.
"""

from functools import lru_cache
from math import gcd, isqrt

import sympy

from .errors import BadPrime, FactorizationBudgetExceeded, ZeroInput

# Trial division bound used before the rho fallback kicks in.
TRIAL_BOUND = 10**6

_small_primes: list[int] | None = None


def small_primes() -> list[int]:
    """Primes up to TRIAL_BOUND, sieved once and cached."""
    global _small_primes
    if _small_primes is None:
        _small_primes = list(sympy.sieve.primerange(2, TRIAL_BOUND + 1))
    return _small_primes


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


def _pollard_rho(n: int, budget: int) -> int | None:
    """Brent's rho.  Returns a nontrivial factor of composite n, or None
    once the iteration budget runs out."""
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
                if spent > budget:
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


def factorize(n: int, budget: int = 10**6) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}.  Raises ZeroInput on 0 and
    FactorizationBudgetExceeded if the rho fallback gives up."""
    if n == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if sympy.isprime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        f = _pollard_rho(m, budget)
        if f is None or f in (1, m):
            raise FactorizationBudgetExceeded(f"gave up factoring {m}")
        stack.extend([f, m // f])
    return out


def divisors(n: int, budget: int = 10**6) -> list[int]:
    """Positive divisors of |n|, sorted ascending."""
    fac = factorize(n, budget)
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_status(n: int, budget: int = 10**5) -> bool | None:
    """True / False / None (= could not decide within the effort budget)."""
    if n == 0:
        raise ZeroInput("squarefree is undefined for 0")
    n = abs(n)
    if n == 1:
        return True
    for p in small_primes():
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    if n == 1 or n <= TRIAL_BOUND:
        return True
    if sympy.isprime(n):
        return True
    r = isqrt(n)
    if r * r == n:
        return False
    if n < TRIAL_BOUND**3:
        # no factor <= TRIAL_BOUND and not a square: n = p or p*q, distinct
        return True
    try:
        fac = factorize(n, budget)
    except FactorizationBudgetExceeded:
        return None
    return all(e == 1 for e in fac.values())


def is_squarefree(n: int) -> bool:
    """Exact squarefree test; treats n and -n alike.  Raises ZeroInput on 0."""
    st = squarefree_status(n, budget=10**7)
    if st is None:
        raise FactorizationBudgetExceeded(f"squarefree test on {n} gave up")
    return st


def is_cubic_residue(y: int, l: int) -> bool:
    """Whether y is a cube mod the prime l = 1 (mod 3).

    Euler-style criterion: y^((l-1)/3) == 1 (mod l).
    """
    if not sympy.isprime(l):
        raise BadPrime(f"{l} is not prime")
    if l % 3 != 1:
        raise BadPrime(f"{l} is not 1 mod 3; cubing is a bijection there")
    if y % l == 0:
        raise BadPrime(f"{y} is divisible by {l}")
    return pow(y, (l - 1) // 3, l) == 1


@lru_cache(maxsize=None)
def _unity_cube_root(l: int) -> int:
    """The primitive cube root of unity a^((l-1)/3) mod l for the least
    a >= 2 that is not a cube mod l; fixed per l, so characters agree."""
    if not sympy.isprime(l) or l % 3 != 1:
        raise BadPrime(f"{l} is not a prime = 1 (mod 3)")
    a = 2
    while pow(a, (l - 1) // 3, l) == 1:
        a += 1
    return pow(a, (l - 1) // 3, l)


def cubic_character(y: int, l: int) -> int:
    """The cubic residue character of y mod the prime l = 1 (mod 3), read
    in F_3: y^((l-1)/3) is 1, omega or omega^2 (mod l), giving 0, 1 or 2,
    with omega fixed per l by _unity_cube_root.  It is a homomorphism from
    (Z/l)* onto F_3 that kills exactly the cubes."""
    if y % l == 0:
        raise BadPrime(f"{y} is divisible by {l}")
    e = pow(y, (l - 1) // 3, l)
    if e == 1:
        return 0
    return 1 if e == _unity_cube_root(l) else 2


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
# necessary condition and is always checked exactly.

_CUBIC_SQUARE_MODULI = (81, 64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                        43, 47, 53, 59, 61)
# indices sieved per bitmask, which keeps memory flat for long ranges.  CPU
# time of the 39 scan-box monic searches at bound 10^5 (min of 11 rounds,
# Python 3.11, 2 cores) for 2^12 .. 2^20: 18.0 17.5 16.6 17.9 21.7 30.5
# 44.1 41.8 42.1 ms.  2^13 .. 2^15 now beat 2^16 by ~20%; 2^16 is kept.
_CUBIC_SQUARE_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _cubic_square_pattern(q: int, c: int) -> int:
    """The q-bit pattern whose bit s is set when 4s^3 - c is a square
    mod q.  c is a residue mod q, so the cache holds at most a few
    hundred patterns."""
    squares = {t * t % q for t in range(q)}
    return sum(1 << s for s in range(q) if (4 * s**3 - c) % q in squares)


def _least_cube_index(c: int) -> int:
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
    s that cannot be on the curve.  Each pattern is tiled once from lo, q
    bits wider than a block; shifting it right by (start - lo) % q puts
    bit (start + i) mod q at bit i.  Survivors get the exact isqrt test."""
    lo = max(lo, _least_cube_index(c))
    block = min(_CUBIC_SQUARE_BLOCK, hi + 1 - lo)
    masks = {}                  # tiled on first use: short rows die early
    for start in range(lo, hi + 1, max(block, 1)):     # lo > hi: no blocks
        width = min(block, hi + 1 - start)
        row = (1 << width) - 1
        for q in _CUBIC_SQUARE_MODULI:
            mask = masks.get(q)
            if mask is None:
                mask = masks[q] = tile_residues(
                    _cubic_square_pattern(q, c % q), q, lo, block + q)
            row &= mask >> (start - lo) % q
            if not row:
                break
        else:
            for s in bit_indices(row, start):
                v = 4 * s**3 - c
                t = isqrt(v)
                if t * t == v:
                    yield s, t
