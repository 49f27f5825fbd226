"""Dense univariate polynomial arithmetic over F_p and factor degrees: the
factoring oracle of ``oracles``, which no production module imports.

Coefficient lists store the constant term first.  Factor degrees come from
squarefree decomposition followed by distinct-degree splitting: a block of
degree-d factors of total degree m holds m/d irreducibles, so no
equal-degree splitting is needed.  Everything is deterministic.  The
production routes in ``fields`` read factorization types off the Frobenius
matrix instead, by traces and ranks, so this module checks them from
outside.

The public functions take any integer lists and return reduced, trimmed
ones.  Inside, products and remainders accumulate exact integers and reduce
each output coefficient once, and lists that are already reduced and trimmed
are not trimmed again.
"""

from __future__ import annotations

Poly = list


def gf_trim(f: Poly, p: int) -> Poly:
    f = [c % p for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _strip(f: Poly) -> Poly:
    """Drop the trailing zeros of a fresh, reduced list, in place."""
    while len(f) > 1 and not f[-1]:
        f.pop()
    return f


def gf_degree(f: Poly) -> int:
    return len(f) - 1


def gf_is_zero(f: Poly) -> bool:
    return not any(f)


def gf_monic(f: Poly, p: int) -> Poly:
    lead = f[-1]
    if lead == 1:
        return f[:]
    inv = pow(lead, -1, p)
    return [(c * inv) % p for c in f]


def gf_sub(f: Poly, g: Poly, p: int) -> Poly:
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return gf_trim(out, p)


def gf_mul(f: Poly, g: Poly, p: int) -> Poly:
    if gf_is_zero(f) or gf_is_zero(g):
        return [0]
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return gf_trim(out, p)


def _divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """``gf_divmod`` of reduced, trimmed f and g; f is not changed.

    The remainder's coefficients accumulate exact integers, each read mod p
    when it leads and reduced once at the end.
    """
    if gf_is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return [0], f[:]
    inv = pow(g[-1], -1, p)
    rem = f[:]
    quo = [0] * (len(f) - dg)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + dg] * inv % p
        if c:
            quo[i] = c
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return _strip(quo), gf_trim(rem[:dg] or [0], p)


def gf_divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    return _divmod(gf_trim(f, p), gf_trim(g, p), p)


def gf_mod(f: Poly, g: Poly, p: int) -> Poly:
    return gf_divmod(f, g, p)[1]


def gf_gcd(f: Poly, g: Poly, p: int) -> Poly:
    f = gf_trim(f, p)
    g = gf_trim(g, p)
    while not gf_is_zero(g):
        f, g = g, _divmod(f, g, p)[1]
    if gf_is_zero(f):
        return [0]
    return gf_monic(f, p)


def gf_pow_mod(f: Poly, e: int, mod: Poly, p: int) -> Poly:
    """f^e modulo (mod, p) by repeated squaring."""
    mod = gf_trim(mod, p)
    result = [1]
    base = _divmod(gf_trim(f, p), mod, p)[1]
    while e > 0:
        if e & 1:
            result = _divmod(gf_mul(result, base, p), mod, p)[1]
        base = _divmod(gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def gf_derivative(f: Poly, p: int) -> Poly:
    return gf_trim([i * c for i, c in enumerate(f)][1:] or [0], p)


def _pth_root(f: Poly, p: int) -> Poly:
    # in F_p[x], f with f' = 0 is g(x^p); p-th roots of coefficients are
    # the coefficients themselves since c^p = c in F_p
    return _strip(f[::p])


def squarefree_decomposition(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Yun-style decomposition f = prod g_i^i with each g_i squarefree."""
    f = gf_monic(gf_trim(f, p), p)
    out = _sqf_inner(f, p)
    out.sort(key=lambda t: (t[1], gf_degree(t[0]), t[0]))
    return out


def _sqf_inner(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """The squarefree parts of reduced, trimmed, monic f."""
    if gf_degree(f) == 0:
        return []
    df = gf_derivative(f, p)
    if gf_is_zero(df):
        # f = g(x^p): every multiplicity gets a factor of p
        return [(g, e * p) for g, e in _sqf_inner(_pth_root(f, p), p)]
    out: list[tuple[Poly, int]] = []
    c = gf_gcd(f, df, p)
    w = _divmod(f, c, p)[0]
    i = 1
    while gf_degree(w) > 0:
        y = gf_gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if gf_degree(z) > 0:
            out.append((gf_monic(z, p), i))
        w = y
        c = _divmod(c, y, p)[0]
        i += 1
    if gf_degree(c) > 0:
        out.extend((g, e * p) for g, e in _sqf_inner(_pth_root(c, p), p))
    return out


def distinct_degree_factorization(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Split squarefree monic f into products of same-degree irreducibles.

    Returns [(product_of_degree_d_factors, d), ...] in ascending d.
    """
    out: list[tuple[Poly, int]] = []
    h = [0, 1]  # x
    rest = gf_trim(f, p)
    d = 0
    while gf_degree(rest) > 2 * d:
        d += 1
        h = gf_pow_mod(h, p, rest, p)  # x^(p^d) mod rest
        g = gf_gcd(gf_sub(h, [0, 1], p), rest, p)
        if gf_degree(g) > 0:
            out.append((g, d))
            rest = _divmod(rest, g, p)[0]
            h = gf_mod(h, rest, p)
    if gf_degree(rest) > 0:
        out.append((rest, gf_degree(rest)))
    return out


def factor_degrees(f: Poly, p: int) -> list[tuple[int, int]]:
    """Degrees of the irreducible factors of f mod p, with multiplicities.

    Sorted ascending by degree; the degree sum with multiplicity equals
    deg(f mod p).
    """
    f = gf_trim(f, p)
    out: list[tuple[int, int]] = []
    if gf_degree(f) == 0:
        return out
    for sqf, mult in squarefree_decomposition(f, p):
        for block, d in distinct_degree_factorization(sqf, p):
            out.extend([(d, mult)] * (gf_degree(block) // d))
    return sorted(out)
