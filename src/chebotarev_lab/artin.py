"""Dirichlet coefficients of zeta_K/zeta and their symmetric-function layer.

At an unramified prime with Frobenius order d in a group of order |G|, the
local roots are the d-th roots of unity with multiplicity |G|/d, minus one
copy of 1, so their power sums p_k are the integers |G| [d | k] - 1.  One
rule gives every complete homogeneous value h_j: ``_homogeneous`` applies
Newton's identity j h_j = sum_k p_k h_{j-k} to the product of one or more
such multisets, whose p_k is the product of theirs.  With one multiset it
gives the h_k of ``LocalRootMultiset.h`` and a_K(p^k); with the multisets of
K and K' at p it gives the Rankin-Selberg a_{KxK'}(p^j) of {alpha beta}.
Every h_j and coefficient here is an exact integer.  The Cauchy sum of
paired Schur values in ``oracles`` reaches a_{KxK'}(p^j) by another route,
from the closed form of h_k, and checks it.

Over a prime range, one reader, ``_unramified_orders``, takes the Frobenius
orders off the kinds each field's table memo keeps and refuses an index
divisor (p | disc f, p not dividing D_K), which the kinds mark ramified.  The
coefficient series, the a_K(p) of the large-sieve prime polynomial
(``prime_coefficients``) and the sum over prime powers of |lambda_K(p^k)|
log p (``mertens_partial_sum``) all read it.  ``local_roots`` classifies one
prime by ``frobenius_data`` and refuses the same primes, and
(ParameterOutOfRange) a p that is not prime.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import factorize
from .errors import LimitTooLarge, NotCoprimeToDiscriminant, ParameterOutOfRange, RamifiedPrime
from .fields import FieldDescriptor, _memo, _prime, frobenius_data
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
        return _homogeneous((tuple(self),), k)


def _power_sum(d: int, group_order: int, k: int) -> int:
    # p_k (k >= 1) of the d-th roots of unity with multiplicity |G|/d, one 1 removed
    return (group_order if k % d == 0 else 0) - 1


@lru_cache(maxsize=None)
def _homogeneous(orders: tuple[tuple[int, int], ...], j: int) -> int:
    """h_j of the product of the local-root multisets of the (Frobenius order,
    |G|) pairs in ``orders``, by Newton's identity j h_j = sum_k p_k h_{j-k};
    p_k of a product of multisets is the product of their p_k, and every
    division is exact.  j < 0 gives 0, as Jacobi-Trudi needs."""
    if j < 0:
        return 0
    power = [math.prod(_power_sum(d, g, k) for d, g in orders) for k in range(j + 1)]
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


def coeff_a_KxK_prime(fd1: FieldDescriptor, fd2: FieldDescriptor, p: int, j: int) -> int:
    """a_{K x K'}(p^j): h_j of the product multiset, by Newton's identity (exact)."""
    if j < 0:
        raise ParameterOutOfRange("Rankin-Selberg exponent must be >= 0")
    p = _prime(fd1, p)  # before the ramified test, which would divide by p = 0
    if fd1.is_ramified(p) or fd2.is_ramified(p):
        raise RamifiedPrime(f"p={p} ramifies in {fd1.name} or {fd2.name}")
    if j == 0:
        return 1
    return _homogeneous((tuple(local_roots(fd1, p)), tuple(local_roots(fd2, p))), j)


# -- the unramified primes of a range -------------------------------------------


def _unramified_orders(fds: tuple[FieldDescriptor, ...], sieve: PrimeSieve, y: float, x: float):
    """The primes y < p <= x of ``sieve`` that divide no D_K of ``fds``, and an
    int16 array of their Frobenius orders, one row per field.

    A prime of order 0 (ramified) in some field's kinds that divides no D_K
    is an index divisor: RamifiedPrime is raised at the smallest, as
    ``local_roots`` does; one dividing another D_K is left out.
    """
    memos = [_memo(fd, sieve) for fd in fds]
    for memo in memos:
        stop = memo.extend(sieve, x)
    start = sieve.count_leq(y)  # the window is the tail of the primes <= x
    primes = sieve.primes[start:stop]
    # int16: a catalog polynomial of degree 16 or more can have factor degrees whose lcm exceeds 127
    orders = np.stack([np.array([data.frobenius_order or 0 for data in m.index], dtype=np.int16)[m.kind[start:stop]]
                       for m in memos])
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
    return _multiplicative_series((fd,), n_max)


def series_a_KxK(fd1: FieldDescriptor, fd2: FieldDescriptor, n_max: int) -> dict[int, int]:
    """a_{K x K'}(n) for every n <= n_max coprime to D_K D_K'."""
    return _multiplicative_series((fd1, fd2), n_max)


def _multiplicative_series(fds: tuple[FieldDescriptor, ...], n_max: int) -> dict[int, int]:
    """The multiplicative a(n) for every n <= n_max coprime to each D_K of
    ``fds``: a_K for one field, a_{K x K'} for two.

    a(p^e) = h_e of the product of the local-root multisets of p in ``fds``,
    with the orders from ``_unramified_orders``, is read off a list per tuple
    of orders, and a(n) = a(n / p^e) a(p^e) for p the smallest prime factor
    of n.  More than MAX_SERIES_TERMS terms raise LimitTooLarge before
    anything is sieved.
    """
    if n_max > MAX_SERIES_TERMS:
        raise LimitTooLarge(f"series truncation must be <= {MAX_SERIES_TERMS}, got {n_max}")
    if n_max < 1:
        return {}
    sieve = sieve_primes(max(n_max, 2))
    primes, orders = _unramified_orders(fds, sieve, 1, n_max)
    group_orders = [fd.group.order for fd in fds]
    by_orders = list(zip(*orders.tolist()))  # the orders of each prime in fds
    # a(p^e) for each e with 2^e <= n_max, one list per tuple of orders met
    powers = {d: [_homogeneous(tuple(zip(d, group_orders)), e) for e in range(n_max.bit_length())]
              for d in set(by_orders)}
    key = [None] * (n_max + 1)  # the a(p^e) list of each prime coprime to every D_K
    for p, d in zip(primes.tolist(), by_orders):
        key[p] = powers[d]
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
            coeffs[n] = coeffs[rest[n]] * key[p][expo[n]]
    return coeffs
