"""Dirichlet coefficients of zeta_K/zeta and their symmetric-function layer.

At an unramified prime with Frobenius order d in a group of order |G|, the
local roots are the d-th roots of unity with multiplicity |G|/d, minus one
copy of 1.  The generating function of the complete homogeneous values h_k at
such a multiset is (1 - T) / (1 - T^d)^{|G|/d}, which has integer
coefficients, so every h_k, every Jacobi-Trudi Schur value, and every
coefficient a_K(n), a_{KxK'}(n) computed here is an exact integer.

The Rankin-Selberg values a_{KxK'}(p^j) are the h_j of the product multiset
{alpha beta}, whose power sums p_k(alpha) p_k(beta) are integers; Newton's
identity j h_j = sum_k p_k h_{j-k} gives them exactly.  The Cauchy sum of
paired Schur values (``schur``, ``partitions_of``) is the same number by
another route and is kept to check it.

Over a prime range, one reader, ``_unramified_orders``, takes the Frobenius
orders off ``frobenius_table`` and refuses an index divisor (p | disc f, p
not dividing D_K), which the table marks ramified.  The coefficient series,
the a_K(p) of the large-sieve prime polynomial (``prime_coefficients``) and
the sum over prime powers of |lambda_K(p^k)| log p (``mertens_partial_sum``)
all read it.  ``local_roots`` classifies one prime and refuses the same
primes.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import factorize, int_det
from .errors import (
    LimitTooLarge,
    NotCoprimeToDiscriminant,
    ParameterOutOfRange,
    PartitionTooLong,
    RamifiedPrime,
)
from .fields import FieldDescriptor, frobenius_data, frobenius_table
from .sieve import PrimeSieve, sieve_primes

MAX_PRIME_POWER_TRUNCATION = 24
MAX_SERIES_TERMS = 10**7  # _multiplicative_series holds about 200 MB per 10^6 terms


class _RootsRecord(NamedTuple):
    frobenius_order: int
    group_order: int


class LocalRootMultiset(_RootsRecord):
    """The multiset A_K(p): d-th roots of unity with multiplicity |G|/d, one 1 removed."""

    __slots__ = ()

    def __new__(cls, frobenius_order: int, group_order: int):
        if frobenius_order < 1 or group_order % frobenius_order != 0:
            raise ParameterOutOfRange(f"Frobenius order {frobenius_order} must divide |G| = {group_order}")
        return super().__new__(cls, frobenius_order, group_order)

    @classmethod
    def _make(cls, values):
        return cls(*values)  # _replace comes here: check again, as the constructor does

    @property
    def size(self) -> int:
        """m = |G| - 1, the total multiplicity."""
        return self.group_order - 1

    def multiplicities(self) -> dict[int, int]:
        """Map r -> multiplicity of the root exp(2 pi i r / d)."""
        g = self.group_order // self.frobenius_order
        out = {r: g for r in range(self.frobenius_order)}
        out[0] -= 1
        if out[0] == 0:
            del out[0]
        return out

    def roots_complex(self) -> list[complex]:
        d = self.frobenius_order
        out: list[complex] = []
        for r, mult in sorted(self.multiplicities().items()):
            out.extend([cmath.exp(2j * cmath.pi * r / d)] * mult)
        return out

    def h(self, k: int) -> int:
        """Complete homogeneous symmetric value h_k at the multiset (exact)."""
        return _homogeneous(self.frobenius_order, self.group_order, k)


def _power_sum(d: int, group_order: int, k: int) -> int:
    # p_k (k >= 1) of the d-th roots of unity with multiplicity |G|/d, one 1 removed
    return (group_order if k % d == 0 else 0) - 1


@lru_cache(maxsize=None)
def _homogeneous(d: int, group_order: int, k: int) -> int:
    # coefficient of T^k in (1 - T) (1 - T^d)^{-|G|/d}
    if k < 0:
        return 0
    g = group_order // d

    def full(j: int) -> int:
        return math.comb(g - 1 + j // d, j // d) if j % d == 0 and j >= 0 else 0

    return full(k) - full(k - 1)


@lru_cache(maxsize=None)
def _rs_homogeneous(d1: int, g1: int, d2: int, g2: int, j: int) -> int:
    # h_j of {alpha beta} by Newton's identity; p_k of the product multiset is
    # p_k(alpha) p_k(beta), and every division below is exact
    power = [_power_sum(d1, g1, k) * _power_sum(d2, g2, k) for k in range(j + 1)]
    h = [1]
    for i in range(1, j + 1):
        h.append(sum(power[k] * h[i - k] for k in range(1, i + 1)) // i)
    return h[j]


def local_roots(fd: FieldDescriptor, p: int) -> LocalRootMultiset:
    """A_K(p) for an unramified prime p."""
    data = frobenius_data(fd, p)
    if data.ramified:
        why = "is ramified" if fd.is_ramified(p) else "divides disc f but not D_K"
        raise RamifiedPrime(f"{fd.name}: p={p} {why}")
    return LocalRootMultiset(frobenius_order=data.frobenius_order, group_order=fd.group.order)


def euler_factor_series(fd: FieldDescriptor, p: int, n_terms: int) -> list[int]:
    """a_K(p^k) for k = 0..n_terms, from the local Euler factor at p."""
    if n_terms > MAX_PRIME_POWER_TRUNCATION:
        raise ParameterOutOfRange(f"prime-power truncation capped at {MAX_PRIME_POWER_TRUNCATION}")
    roots = local_roots(fd, p)
    return [roots.h(k) for k in range(n_terms + 1)]


def coeff_a_K(fd: FieldDescriptor, n: int) -> int:
    """a_K(n) for n coprime to D_K (exact integer)."""
    if n < 1:
        raise ParameterOutOfRange("n must be >= 1")
    if math.gcd(n, fd.abs_disc) != 1:
        raise NotCoprimeToDiscriminant(f"n={n} shares a factor with D_K={fd.disc_field}")
    out = 1
    for p, e in factorize(n).items():
        out *= local_roots(fd, p).h(e)
    return out


# -- partitions and Schur values ---------------------------------------------


class _PartitionRecord(NamedTuple):
    parts: tuple[int, ...]


class Partition(_PartitionRecord):
    """A partition: nonincreasing positive parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if any(a < 1 for a in parts):
            raise ParameterOutOfRange("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ParameterOutOfRange("partition parts must be nonincreasing")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, values):
        return cls(*values)  # _replace comes here: check again, as the constructor does

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)


def partitions_of(n: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of n with at most max_length parts, descending-lex order."""
    cap = n if max_length is None else max_length

    def rec(remaining: int, largest: int, slots: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        if slots == 0:
            return []
        out = []
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                out.append((first,) + rest)
        return out

    return [Partition(t) for t in rec(n, n, cap)]


def schur(partition: Partition, roots: LocalRootMultiset) -> int:
    """s_lambda at the local-root multiset, by Jacobi-Trudi in the h_k (exact).

    The determinant in complete homogeneous values avoids the bialternant's
    0/0 at repeated roots; for these conjugation-closed multisets the result
    is a rational integer.
    """
    if roots.size == 0:
        return 1 if partition.weight == 0 else 0
    if partition.length > roots.size:
        raise PartitionTooLong(
            f"partition length {partition.length} exceeds the multiset size {roots.size}"
        )
    ell = partition.length
    if ell == 0:
        return 1
    mat = [[roots.h(partition.parts[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
    return int_det(mat)


def coeff_a_KxK_prime(fd1: FieldDescriptor, fd2: FieldDescriptor, p: int, j: int) -> int:
    """a_{K x K'}(p^j): h_j of the product multiset, by Newton's identity (exact)."""
    if j < 0:
        raise ParameterOutOfRange("Rankin-Selberg exponent must be >= 0")
    if fd1.is_ramified(p) or fd2.is_ramified(p):
        raise RamifiedPrime(f"p={p} ramifies in {fd1.name} or {fd2.name}")
    if j == 0:
        return 1
    a1 = local_roots(fd1, p)
    a2 = local_roots(fd2, p)
    return _rs_homogeneous(a1.frobenius_order, a1.group_order, a2.frobenius_order, a2.group_order, j)


# -- the unramified primes of a range -------------------------------------------


def _unramified_orders(fds: tuple[FieldDescriptor, ...], sieve: PrimeSieve, y: float, x: float):
    """The primes y < p <= x of ``sieve`` that divide no D_K of ``fds``, and an
    int16 array of their Frobenius orders, one row per field.

    A prime of order 0 (ramified) in some field's ``frobenius_table`` that
    divides no D_K is an index divisor: RamifiedPrime is raised at the
    smallest, as ``local_roots`` does; one dividing another D_K is left out.
    """
    tables = [frobenius_table(fd, sieve, x) for fd in fds]
    start = sieve.count_leq(y)  # the window is the tail of the primes <= x
    primes = tables[0].primes[start:]
    # int16: a catalog polynomial of degree 16 or more can have factor degrees whose lcm exceeds 127
    orders = np.stack([np.array([data.frobenius_order or 0 for data in t.kinds], dtype=np.int16)[t.kind[start:]]
                       for t in tables])
    ramified = np.flatnonzero((orders == 0).any(axis=0))
    for i in ramified.tolist():
        p = int(primes[i])
        if all(fd.disc_field % p for fd in fds):
            name = next(fd.name for fd, row in zip(fds, orders) if row[i] == 0)
            raise RamifiedPrime(f"{name}: p={p} divides disc f but not D_K")
    return np.delete(primes, ramified), np.delete(orders, ramified, axis=1)


def prime_coefficients(fd: FieldDescriptor, sieve: PrimeSieve, y: float, x: float) -> dict[int, int]:
    """a_K(p) = |G| [Frob_p trivial] - 1 for each unramified prime y < p <= x
    of ``sieve``; an index divisor in the window raises RamifiedPrime."""
    primes, orders = _unramified_orders((fd,), sieve, y, x)
    return {p: _power_sum(d, fd.group.order, 1) for p, d in zip(primes.tolist(), orders[0].tolist())}


def mertens_partial_sum(fd: FieldDescriptor, eta: float, n_max: int) -> float:
    """Partial sum of |lambda_K(n) Lambda(n)| / n^(1+eta) over unramified prime
    powers n <= n_max; bounded by m/eta."""
    if eta <= 0:
        raise ParameterOutOfRange("eta must be positive")
    if n_max < 100:
        raise ParameterOutOfRange("truncation must be at least 100")
    primes, orders = _unramified_orders((fd,), sieve_primes(n_max), 1, n_max)
    g = fd.group.order
    terms = []
    for p, d in zip(primes.tolist(), orders[0].tolist()):
        logp = math.log(p)
        pk, k = p, 1
        while pk <= n_max:
            terms.append(abs(_power_sum(d, g, k)) * logp / pk ** (1.0 + eta))
            pk, k = pk * p, k + 1
    return math.fsum(terms)


# -- truncated Dirichlet series -------------------------------------------------


def series_a_K(fd: FieldDescriptor, n_max: int) -> dict[int, int]:
    """a_K(n) for every n <= n_max coprime to D_K."""
    g = fd.group.order
    return _multiplicative_series((fd,), n_max, lambda d, e: _homogeneous(d[0], g, e))


def series_a_KxK(fd1: FieldDescriptor, fd2: FieldDescriptor, n_max: int) -> dict[int, int]:
    """a_{K x K'}(n) for every n <= n_max coprime to D_K D_K'."""
    g1, g2 = fd1.group.order, fd2.group.order
    return _multiplicative_series((fd1, fd2), n_max, lambda d, e: _rs_homogeneous(d[0], g1, d[1], g2, e))


def _multiplicative_series(fds: tuple[FieldDescriptor, ...], n_max: int, prime_power) -> dict[int, int]:
    """A multiplicative a(n) for every n <= n_max coprime to each D_K.

    a(p^e) = prime_power(d, e), with d the tuple of orders of p in ``fds``
    from ``_unramified_orders``, and a(n) = a(n / p^e) a(p^e) for p the
    smallest prime factor of n.  More than MAX_SERIES_TERMS terms raise
    LimitTooLarge before anything is sieved.
    """
    if n_max > MAX_SERIES_TERMS:
        raise LimitTooLarge(f"series truncation must be <= {MAX_SERIES_TERMS}, got {n_max}")
    if n_max < 1:
        return {}
    sieve = sieve_primes(max(n_max, 2))
    primes, orders = _unramified_orders(fds, sieve, 1, n_max)
    key = [None] * (n_max + 1)  # the orders at each prime coprime to every D_K
    for p, d in zip(primes.tolist(), zip(*orders.tolist())):
        key[p] = d
    spf = np.zeros(n_max + 1, dtype=np.int64)  # the smallest prime factor of n, 0 at n = 0 and 1
    below = sieve.upto(n_max)
    for q in below[below * below <= n_max][::-1].tolist():  # smaller primes overwrite larger
        spf[q * q :: q] = q
    spf[below] = below
    spf = spf.tolist()
    rest = [1] * (n_max + 1)  # n with its smallest prime's power removed
    expo = [0] * (n_max + 1)  # exponent of the smallest prime of n
    coeffs = {1: 1}
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n // p
        if spf[m] == p:
            rest[n], expo[n] = rest[m], expo[m] + 1
        else:
            rest[n], expo[n] = m, 1
        if key[p] is not None and rest[n] in coeffs:
            coeffs[n] = coeffs[rest[n]] * prime_power(key[p], expo[n])
    return coeffs
