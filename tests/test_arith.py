"""Integer utilities checked against sympy and brute force."""

import ast
import random
from pathlib import Path

import pytest
import sympy

from descent3.arith import (TRIAL_BOUND, bit_indices, cube_root_exact,
                            cubic_character, divisors, factorize,
                            integer_roots_monic_cubic, iroot,
                            is_perfect_square, is_squarefree)
from descent3.errors import ValidationError
from helpers import primes_upto, rational_roots


def test_iroot_matches_sympy():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(1, 10**rng.randint(1, 30))
        k = rng.randint(2, 7)
        assert iroot(n, k) == sympy.integer_nthroot(n, k)[0]


def test_iroot_exact_powers_and_neighbors():
    rng = random.Random(102)
    for _ in range(200):
        b = rng.randrange(2, 10**6)
        k = rng.randint(2, 5)
        n = b**k
        assert iroot(n, k) == b
        assert iroot(n - 1, k) == b - 1
        assert iroot(n + 1, k) == b


def test_iroot_rejects_negative():
    with pytest.raises(ValueError):
        iroot(-27, 3)


def test_cube_root_exact():
    assert cube_root_exact(27) == 3
    assert cube_root_exact(-1) == -1
    assert cube_root_exact(0) == 0
    assert cube_root_exact(10) is None
    big = 123456789**3
    assert cube_root_exact(big) == 123456789
    assert cube_root_exact(big + 1) is None


def test_factorize_against_sympy():
    rng = random.Random(103)
    for _ in range(120):
        n = rng.randrange(2, 10**9)
        assert factorize(n) == sympy.factorint(n)


def test_is_squarefree_sieve_oracle():
    bound = 20000
    squarefree = [True] * (bound + 1)
    for q in range(2, int(bound**0.5) + 1):
        for k in range(q * q, bound + 1, q * q):
            squarefree[k] = False
    for n in range(1, bound + 1):
        assert is_squarefree(n) == squarefree[n], n
        assert is_squarefree(-n) == squarefree[n], -n


def test_is_squarefree_both_signs():
    assert is_squarefree(10**2 * 7) is False
    assert is_squarefree(-23) is True


def test_cofactor_rules_against_sympy():
    # each rule for the cofactor left by trial division up to TRIAL_BOUND:
    # up to TRIAL_BOUND^2 it is prime, a square is not squarefree, below
    # TRIAL_BOUND^3 it is a product of two distinct primes, and past that
    # rho splits it
    p, q = 1000003, 1000033               # the first primes above 10^6
    assert sympy.prevprime(p) < TRIAL_BOUND < p < q == sympy.nextprime(p)
    cases = {
        p * q: True,
        p * p: False,
        999999999989: True,               # the largest prime below 10^12
        1000000000039: True,              # the least prime above 10^12
        999983**2 * p: False,             # 999983 is the largest below 10^6
        9999999967 * 10000000019: True,   # past TRIAL_BOUND^3: rho
        p * p * q: False,                 # past TRIAL_BOUND^3, not a square
    }
    for n, squarefree in cases.items():
        expect = sympy.factorint(n)
        assert all(e == 1 for e in expect.values()) == squarefree, n
        for v in (n, -n):
            assert factorize(v) == expect, v
            assert is_squarefree(v) is squarefree, v


def test_only_arith_is_prime_names_sympy():
    # sympy stays behind one function, so replacing it touches one body
    src = Path(__file__).resolve().parents[1] / "src" / "descent3"
    paths = sorted(src.glob("*.py"))
    assert src / "arith.py" in paths
    stray = []
    for path in paths:
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [(a.name, a.asname) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [(node.module or "", "from")]
            else:
                mods = []
            stray += [(path.name, node.lineno, mod) for mod, alias in mods
                      if mod.split(".")[0] == "sympy"
                      and (path.stem, mod, alias) != ("arith", "sympy", None)]
            if (path.stem == "arith" and isinstance(node, ast.FunctionDef)
                    and node.name == "is_prime"):
                allowed |= {id(n) for n in ast.walk(node)}
        stray += [(path.name, n.lineno, n.id) for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and n.id == "sympy"
                  and id(n) not in allowed]
    assert stray == []


def test_is_perfect_square():
    for n in range(-5, 400):
        assert is_perfect_square(n) == (n >= 0 and sympy.integer_nthroot(max(n, 0), 2)[1])


def test_divisors_matches_sympy():
    rng = random.Random(104)
    for _ in range(60):
        n = rng.randrange(1, 10**7)
        assert divisors(n) == sorted(sympy.divisors(n))


def test_primes_upto():
    assert primes_upto(100) == list(sympy.primerange(2, 101))


def test_integer_roots_monic_cubic_brute():
    rng = random.Random(105)
    for _ in range(400):
        r1 = rng.randint(-40, 40)
        r2 = rng.randint(-40, 40)
        r3 = rng.randint(-40, 40)
        # (x - r1)(x - r2)(x - r3)
        A = -(r1 + r2 + r3)
        B = r1 * r2 + r1 * r3 + r2 * r3
        C = -r1 * r2 * r3
        assert integer_roots_monic_cubic(A, B, C) == sorted({r1, r2, r3})
    for _ in range(200):
        A, B, C = (rng.randint(-50, 50) for _ in range(3))
        got = integer_roots_monic_cubic(A, B, C)
        brute = [x for x in range(-200, 201)
                 if x**3 + A * x * x + B * x + C == 0]
        assert got == brute


def test_integer_roots_huge_coefficients_fast():
    r = 10**40 + 7
    A, B, C = -3 * r, 3 * r * r, -r**3
    assert integer_roots_monic_cubic(A, B, C) == [r]


def test_rational_roots_matches_sympy():
    rng = random.Random(106)
    x = sympy.Symbol("x")
    for _ in range(80):
        coeffs = [rng.randint(-12, 12) for _ in range(4)]
        if coeffs[-1] == 0:
            coeffs[-1] = 5
        poly = sum(c * x**i for i, c in enumerate(coeffs))
        expect = sorted(sympy.Rational(r) for r in sympy.roots(poly, x)
                        if r.is_rational)
        got = sorted(rational_roots(coeffs))
        assert [(f.numerator, f.denominator) for f in got] == \
            [(int(r.p), int(r.q)) for r in expect]


def test_is_cubic_residue_exhaustive():
    # the cubic character kills exactly the cubes
    for p in (7, 13, 31, 61):
        cubes = {pow(z, 3, p) for z in range(1, p)}
        for y in range(1, p):
            assert (cubic_character(y, p) == 0) == (y in cubes), (y, p)


def test_is_cubic_residue_rejects_wrong_modulus():
    # l is checked on every call, also for a y whose power is 1 mod l:
    # 5 is not 1 mod 3, and 4 and 91 = 7 * 13 are composite
    for l in (5, 4, 91):
        for y in (1, 2):
            with pytest.raises(ValidationError,
                               match=rf"^{l} is not a prime = 1 \(mod 3\)$"):
                cubic_character(y, l)
    with pytest.raises(ValidationError, match="14 is divisible by 7$"):
        cubic_character(14, 7)


def test_bit_indices_matches_a_bin_walk():
    # rows of 2 to 40 set bits, each with bit 0 and its top bit set, at
    # global-search and block widths and at a width just above the count
    def reference(row, lo):
        return [lo + i for i, ch in enumerate(bin(row)[:1:-1]) if ch == "1"]

    rng = random.Random(29)
    checked = 0
    for k in (2, 3, 8, 16, 17, 40):
        for width in (k + 1, 200, 20001, 1 << 16):
            for _ in range(5):
                inner = rng.sample(range(1, width - 1), k - 2)
                row = sum(1 << i for i in inner) | 1 | 1 << (width - 1)
                assert row.bit_count() == k
                for lo in (-10000, -1, 0, 1, 37):
                    got = list(bit_indices(row, lo))
                    assert got == reference(row, lo), (k, width, lo)
                    assert got[0] == lo and got[-1] == lo + width - 1
                    checked += 1
    assert checked == 600
    assert list(bit_indices(0, 5)) == []
    assert list(bit_indices(1, -3)) == [-3]
