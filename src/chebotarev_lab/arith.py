"""Elementary integer and polynomial arithmetic helpers.

Everything here is exact: Python integers throughout, no floating point.
"""

from __future__ import annotations

from .errors import ParameterOutOfRange

# Factoring cap for squarefree-part extraction; larger inputs are rejected
# rather than silently falling back to a probabilistic method.
FACTOR_LIMIT = 10**12

# The strong-pseudoprime test to the prime bases 2..41 decides primality
# below PRIME_TEST_LIMIT, the least number it passes that is not prime
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending the Jacobi symbol to all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # strip factors of 2 from n; (a|2) = 0, 1, -1 for a even, a = ±1 mod 8, ±3 mod 8
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    # standard Jacobi loop with quadratic reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def is_prime(n: int) -> bool:
    """Whether n is prime, by the strong-pseudoprime test to the bases
    ``_PRIME_BASES``: deterministic, and exact below PRIME_TEST_LIMIT, above
    which it raises ParameterOutOfRange."""
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    if n >= PRIME_TEST_LIMIT:
        raise ParameterOutOfRange(f"primality of {n} is decided only below {PRIME_TEST_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in _PRIME_BASES:
        y = pow(a, (n - 1) >> s, n)
        if y != 1 and n - 1 not in (pow(y, 1 << i, n) for i in range(s)):
            return False  # a^d is not 1, and no a^(2^i d) with i < s is -1: a proves n composite
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division; n must be nonzero."""
    if n == 0:
        raise ParameterOutOfRange("cannot factor 0")
    n = abs(n)
    if n > FACTOR_LIMIT:
        raise ParameterOutOfRange(f"factoring inputs above {FACTOR_LIMIT} is not supported")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """Squarefree part of n, sign retained (n = squarefree_part * square)."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            out *= p
    return sign * out


def fundamental_disc(d: int) -> int:
    """Discriminant of Q(sqrt(d)) for d != 0: the squarefree part s of d if
    s = 1 mod 4, else 4 s.  d is a fundamental discriminant when this is d.
    A factor 4 of d is stripped first, so 4 d' factors as d' does."""
    s = squarefree_part(d // 4 if d % 4 == 0 else d)
    return s if s % 4 == 1 else 4 * s


# -- dense integer polynomials, coefficient lists with constant term first --


def poly_degree(f: list[int]) -> int:
    d = len(f) - 1
    while d > 0 and f[d] == 0:
        d -= 1
    return d


def poly_trim(f: list[int]) -> list[int]:
    return f[: poly_degree(f) + 1]


def poly_derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:] or [0]


def int_det(mat: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free Gaussian elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def poly_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of integer polynomials via the Sylvester determinant."""
    f = poly_trim(f)
    g = poly_trim(g)
    m, n = poly_degree(f), poly_degree(g)
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(n):
        rows.append([0] * i + frev + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grev + [0] * (size - n - 1 - i))
    return int_det(rows)


def poly_discriminant(f: list[int]) -> int:
    """Discriminant of an integer polynomial (exact)."""
    f = poly_trim(f)
    n = poly_degree(f)
    if n < 1:
        raise ParameterOutOfRange("discriminant needs degree >= 1")
    if n == 1:
        return 1
    res = poly_resultant(f, poly_derivative(f))
    lead = f[n]
    num = res * (-1) ** (n * (n - 1) // 2)
    assert num % lead == 0
    return num // lead
