"""Galois field descriptors, Frobenius classes, and the field catalog.

A field is described by a monic integer defining polynomial for a subfield k,
the Galois group G of the closure K, and the (user-supplied) field
discriminant D_K.  Frobenius conjugacy classes at unramified primes come from
the factorization type of the polynomial mod p, read off the traces (for a
block of primes) or the ranks (for one prime) of the Frobenius matrix of
F_p[x]/(f); only ``oracles`` factors, with ``gfpoly``, to check them.  For
the abelian built-ins the class is resolved exactly through the residue of p
modulo the conductor (Frobenius acts on roots of unity by zeta -> zeta^p).
A quadratic Q(sqrt D_K) without a declared action is classified by the
Kronecker character chi_{D_K} alone, so its D_K is checked against f.

``frobenius_data`` classifies one prime; ``frobenius_table`` classifies the
primes of a sieve up to x at once and agrees with it prime by prime, keeping
one kind per prime: an index into the distinct records it has met.  They
only classify: an index divisor (p | disc f, p not dividing D_K) on the
polynomial route gets the ramified record, which ``artin`` refuses.  A
factorization type that is the cycle type (or order) of no element of G
proves the group wrong, and raises GroupMismatch.

The ``FieldDescriptor`` constructor is the one place a field is checked,
whether it comes from a catalog row, from code, from ``_replace`` or from a
pickle.  ``parse_catalog`` only parses, prefixes the constructor's refusals
with ``source:line:``, and refuses a name that an earlier row or a built-in
already uses, so the built-ins and a catalog are one namespace.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .arith import fundamental_disc, is_prime, kronecker_symbol, poly_discriminant, squarefree_part
from .errors import CatalogError, GroupMismatch, ParameterOutOfRange, ValidationError
from .groups import ConjugacyClass, FiniteGroup, build_group, perm_sign
from .sieve import PrimeSieve

_CHUNK_ENTRIES = 1 << 20  # int64 entries per block of Frobenius matrices


class CyclotomicAction(NamedTuple):
    """Exact Frobenius for abelian fields: Frob_p is ``residue_class[p % conductor]``, -1 when p | conductor."""

    conductor: int
    residue_class: tuple[int, ...]


class _FieldRecord(NamedTuple):
    name: str
    defining_poly: tuple[int, ...]  # constant term first, monic
    group: FiniteGroup
    disc_field: int
    residue_action: CyclotomicAction | None
    poly_disc: int  # derived: the discriminant of defining_poly


class FieldDescriptor(_FieldRecord):
    """A Galois extension K/Q presented by a defining polynomial for k.

    ``poly_disc``, the discriminant of the defining polynomial, is derived
    by the constructor, which checks the descriptor: f monic and squarefree,
    D_K nonzero, a residue action only when deg k = |G|, the D_K of a
    quadratic, every prime of D_K dividing disc f, and the group tag
    (``_check_group_tag``).
    """

    __slots__ = ()

    def __new__(cls, name: str, defining_poly: tuple[int, ...], group: FiniteGroup, disc_field: int,
                residue_action: CyclotomicAction | None = None):
        if len(defining_poly) < 2 or defining_poly[-1] != 1:
            raise ValidationError(f"{name}: defining polynomial must be monic of degree >= 1")
        disc = poly_discriminant(list(defining_poly))
        if disc == 0:
            raise ValidationError(f"{name}: defining polynomial is not squarefree over Q")
        if disc_field == 0:
            raise ValidationError(f"{name}: field discriminant must be nonzero")
        degree = len(defining_poly) - 1
        if residue_action is not None and degree != group.order:
            # the residue route reads the factorization type off the Frobenius
            # order, which needs k = K
            raise ValidationError(
                f"{name}: a residue action needs deg k = |G|, got {degree} and {group.order}"
            )
        if degree == group.order == 2:
            # k = K = Q(sqrt D_K), classified by chi_{D_K} alone
            d = disc_field
            index2, rest = divmod(disc, d)
            if rest or index2 < 1 or math.isqrt(index2) ** 2 != index2:
                raise ValidationError(f"{name}: disc f / D_K = {disc} / {d} is not a square")
            try:
                fundamental = fundamental_disc(d)
            except ParameterOutOfRange as exc:
                raise ParameterOutOfRange(f"{name}: D_K = {d} cannot be checked: {exc}") from None
            if d == 1 or fundamental != d:
                raise ValidationError(f"{name}: D_K = {d} must be a fundamental discriminant other than 1")
        stray = disc_field  # a prime ramified in K ramifies in k, so it divides disc f
        while (common := math.gcd(stray, disc)) != 1:
            stray //= common
        if abs(stray) != 1:
            raise ValidationError(f"{name}: D_K = {disc_field} has a prime factor that does not divide disc f = {disc}")
        fd = super().__new__(cls, name, defining_poly, group, disc_field, residue_action, disc)
        _check_group_tag(fd)
        return fd

    def __getnewargs__(self):
        return self[:-1]  # the constructor's arguments: poly_disc is derived

    @classmethod
    def _make(cls, values):
        # _replace comes here: check and derive again, as the constructor does
        return cls(*tuple(values)[:-1])

    @property
    def degree(self) -> int:
        """Degree of the defining polynomial (the subfield k)."""
        return len(self.defining_poly) - 1

    @property
    def m(self) -> int:
        """|G| - 1, the dimension of the character reg - 1."""
        return self.group.order - 1

    @property
    def abs_disc(self) -> int:
        return abs(self.disc_field)

    def is_ramified(self, p: int) -> bool:
        return self.abs_disc % p == 0

    def __repr__(self) -> str:
        return f"FieldDescriptor({self.name}, G={self.group.name}, D={self.disc_field})"


class FrobeniusData(NamedTuple):
    """Splitting data of a rational prime, shared by every prime of one kind."""

    ramified: bool
    factorization_type: tuple[int, ...] | None = None  # ascending factor degrees
    frobenius_order: int | None = None
    conjugacy_class: ConjugacyClass | None = None  # None when ramified or ambiguous

    @property
    def ambiguous(self) -> bool:
        """Unramified, with a class the factorization data cannot separate."""
        return not self.ramified and self.conjugacy_class is None


_RAMIFIED_DATA = FrobeniusData(ramified=True)


def _prime(fd: FieldDescriptor, p: int) -> int:
    """p as a Python int, refused with ParameterOutOfRange unless it is a prime."""
    p = operator.index(p)  # a numpy integer too: the rank route needs Python int products
    if not is_prime(p):
        raise ParameterOutOfRange(f"{fd.name}: p={p} is not a prime")
    return p


def frobenius_data(fd: FieldDescriptor, p: int) -> FrobeniusData:
    """Frobenius data at the prime p: ramified flag, type, order, class when
    unambiguous.  A p that is not a prime is a ParameterOutOfRange."""
    p = _prime(fd, p)
    if fd.is_ramified(p):
        return _RAMIFIED_DATA
    if fd.residue_action is not None:
        elem = fd.residue_action.residue_class[p % fd.residue_action.conductor]
        if elem < 0:
            return _RAMIFIED_DATA
    elif _by_legendre(fd):
        elem = 0 if kronecker_symbol(fd.disc_field, p) == 1 else 1
    else:
        if fd.poly_disc % p == 0:  # a monic f has a repeated factor mod p exactly when p | disc(f)
            return _RAMIFIED_DATA
        return _type_frobenius(fd, _rank_type(fd.defining_poly, p), p)
    return _element_frobenius(fd, elem)


def _by_legendre(fd: FieldDescriptor) -> bool:
    """A quadratic without a declared action: p is split or inert as chi_{D_K}(p) is 1 or -1."""
    return fd.residue_action is None and fd.degree == fd.group.order == 2


def _element_frobenius(fd: FieldDescriptor, elem: int) -> FrobeniusData:
    """The record of a Frobenius element from the residue or chi_{D_K} route."""
    d = fd.group.element_orders[elem]
    # k = K is Galois, so every prime above p has residue degree d
    return FrobeniusData(False, tuple([d] * (fd.degree // d)), d, fd.group.class_of(elem))


def _type_frobenius(fd: FieldDescriptor, ftype: tuple[int, ...], p: int) -> FrobeniusData:
    """The record of an unramified prime p whose factorization type is ftype.

    Frob_p has ftype as its cycle type on the roots, and lcm(ftype) as its
    order, so a group with no class of that cycle type (or, when it does not
    act on the roots, of that order) is not the Galois group: GroupMismatch.
    """
    g, d = fd.group, math.lcm(*ftype)
    if _on_roots(fd):
        candidates, fits = g.classes_of_cycle_type(ftype), ", the cycle type"
    else:
        candidates, fits = g.classes_of_order(d), f" of order {d}, the order"
    if not candidates:
        raise GroupMismatch(f"{fd.name}: p={p} has factorization type {ftype}{fits} of no element of {g.name}")
    return FrobeniusData(False, ftype, d, candidates[0] if len(candidates) == 1 else None)


def _on_roots(fd: FieldDescriptor) -> bool:
    """Whether the group is given as permutations of the deg f roots of f."""
    return fd.group.perms is not None and len(fd.group.perms[0]) == fd.degree


def _rank_type(poly: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The ascending factorization type of monic f mod a prime p not dividing
    disc f, from the ranks of the Frobenius matrix Q, whose columns are
    x^(ip) mod f (Berlekamp; Cohen, *A Course in Computational Algebraic
    Number Theory*, 3.4).  Exact in Python ints, for p of any size.

    F_p[x]/(f) is a product of fields F_{p^d_i}, one per irreducible factor,
    and a -> a^(p^d) fixes F_{p^gcd(d, d_i)} in each, so r_d = dim ker(Q^d -
    I) = sum_i gcd(d, d_i) = sum over m | d of phi(m) C_m, where C_m counts
    the factors of degree divisible by m.  The C_m follow in ascending m,
    and the number c_e of degree-e factors from them in descending e.
    """
    n = len(poly) - 1
    low = [c % p for c in poly[:-1]]  # f = x^n + sum low[j] x^j

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            for j, d in enumerate(b):
                prod[i + j] += c * d
        for i in range(len(prod) - 1, n - 1, -1):  # x^i = -sum low[j] x^(i-n+j)
            top = prod[i] % p
            for j, c in enumerate(low):
                prod[i - n + j] -= top * c
        return [c % p for c in prod[:n]]

    xp = [1] + [0] * (n - 1)
    for bit in bin(p)[2:]:
        xp = mulmod(xp, xp)
        if bit == "1":
            xp = mulmod(xp, [0, 1])
    cols = [[1] + [0] * (n - 1)]  # cols[i] = x^(ip) mod f
    for _ in range(1, n):
        cols.append(mulmod(cols[-1], xp))
    phi = [sum(math.gcd(k, m) == 1 for k in range(1, m + 1)) for m in range(n + 1)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    multiples = [0] * (n + 1)  # C_m
    for d in range(1, n + 1):
        power = [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in power]  # Q^d
        rank = _rank_mod([[(c - (i == j)) % p for j, c in enumerate(row)] for i, row in enumerate(power)], p)
        multiples[d] = (n - rank - sum(phi[m] * multiples[m] for m in range(1, d) if d % m == 0)) // phi[d]
    count = [0] * (n + 1)  # c_e
    for e in range(n, 0, -1):
        count[e] = multiples[e] - sum(count[2 * e :: e])
    return tuple(e for e in range(1, n + 1) for _ in range(count[e]))


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """The rank of a matrix over F_p, by Gaussian elimination; ``rows`` is consumed."""
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((j for j, c in enumerate(pivot) if c), None)
        if col is not None:
            rank += 1
            inv = pow(pivot[col], -1, p)
            rows = [[(a - r[col] * inv * b) % p for a, b in zip(r, pivot)] for r in rows]
    return rank


# -- Frobenius tables ----------------------------------------------------------


class FrobeniusTable(NamedTuple):
    """Frobenius data of an ascending prime array, one kind per prime.

    ``kind[i]`` indexes ``kinds``, the records met so far, so ``primes[i]``
    has the record ``kinds[kind[i]]``, for code that walks the primes (counts
    read a class tally of its kinds, and an error names its unresolved prime
    through ``_TableMemo.first_unresolved``).  The arrays are read-only.
    """

    primes: np.ndarray
    kind: np.ndarray  # int16
    kinds: tuple[FrobeniusData, ...]


def frobenius_table(fd: FieldDescriptor, sieve: PrimeSieve, x: float) -> FrobeniusTable:
    """Frobenius data of every prime p <= x of ``sieve``, at once.

    Residue fields read the class off ``p mod conductor``.  A quadratic
    without a declared action reads chi_{D_K}(p) by Euler's criterion,
    D_K^((p-1)/2) mod p, and ramifies exactly at the primes dividing D_K.
    Otherwise a prime dividing disc(f) is ramified, since f mod p then has a
    repeated factor; for p > deg f the factorization type comes from the
    traces of the Frobenius matrix (``_cycle_counts``).  The few primes
    p <= deg f, and those past the int64 bound of the vectorised routes, go
    through ``frobenius_data``, which reads the type off the ranks of the
    same matrix (``_rank_type``); the routes build their records with its
    element and type helpers, so the table agrees with ``frobenius_data``.

    The sieve keeps each field's kinds of a prefix of its primes, a
    ``_TableMemo`` in ``sieve.derived``, and returns slices of them.  A
    request beyond the prefix extends it to ``sieve.read_ahead(prefix,
    pi(x))`` primes: at least pi(x), twice the prefix and 2^10 primes, and at
    most the whole sieve.  So a session of rising x classifies each field
    O(log x) times, and once to x <= 8161, while a first request on a sieve
    of n primes classifies min(n, max(pi(x), 2^10)) of them.

    A prime whose type fits no element of the group raises GroupMismatch,
    as in ``frobenius_data``; since the prefix reads ahead, that prime may
    lie above x.  The vectorised route names the smallest such prime of the
    primes it classifies.
    """
    memo = _memo(fd, sieve)
    n = memo.extend(sieve, x)
    return FrobeniusTable(sieve.primes[:n], memo.kind[:n], tuple(memo.index))


class _ClassTally(NamedTuple):
    """The counts of the primes p <= x of a sieve, from one ``np.bincount``
    over the kinds ``frobenius_table`` keeps, with no table built.

    ``unresolved`` maps a Frobenius order to its ambiguous primes, and holds
    only orders that have some.  It is read-only, as the memo hands one
    tally to every caller.
    """

    n: int  # pi(x)
    by_class: tuple[int, ...]  # by ConjugacyClass.index
    ramified: int
    unresolved: Mapping[int, int]


def _class_tally(fd: FieldDescriptor, sieve: PrimeSieve, x: float) -> _ClassTally:
    """The class tally of the primes p <= x of ``sieve``, from the memo: an x
    asked for last is read back with no search of the sieve, and one with the
    same pi(x) with no kinds counted, so the queries of one x count once.
    A kept memo is read with one lookup, without ``_memo``'s frame."""
    memo = sieve.derived.get(fd) or _memo(fd, sieve)
    if x != memo.last_x:
        n = memo.extend(sieve, x)
        if n != memo.last.n:
            memo.last = memo.tally(n)
        memo.last_x = x
    return memo.last


def _memo(fd: FieldDescriptor, sieve: PrimeSieve) -> _TableMemo:
    """The field's memo on ``sieve``, ``sieve.derived[fd]``, made on first use."""
    return sieve.derived.get(fd) or sieve.derived.setdefault(fd, _TableMemo(fd))


def _kind_code(data: FrobeniusData) -> int:
    """The code of a record in a memo's ``kind_code``: its class index, -1 when
    ramified, and -1 - d when ambiguous with Frobenius order d (d >= 2, so the
    code is at most -3)."""
    if data.ramified:
        return -1
    if data.conjugacy_class is None:
        return -1 - data.frobenius_order
    return data.conjugacy_class.index


class _TableMemo:
    """All that a sieve keeps of one field ``fd``, as ``sieve.derived[fd]``:
    ``kind``, the kinds of a prefix of its primes, with ``index`` the records
    met so far; ``last``, the class tally of the last prime count n asked
    for, and ``last_x``, the last x it answered; and ``psi``, None or
    (params, sums), the ψ sums of every class at the last weight parameters
    asked for, set once all of them are computed (``psi_weighted_class``).

    Kind indices are assigned in the order records are first met and never
    change, so a table or tally of kind[:n] stays right as kind grows.  The
    plan is ``kind_code``, the ``_kind_code`` of each kind's record.
    ``_kinds``, the one place records are registered, refreshes it when it
    meets a new record, so the tally, ψ and their error paths read each
    kind's class and ambiguity off it, not off the records.
    """

    def __init__(self, fd: FieldDescriptor):
        self.fd = fd
        self.kind = np.zeros(0, dtype=np.int16)
        self.index: dict[FrobeniusData, int] = {}
        self.kind_code: tuple[int, ...] = ()
        self.last = _ClassTally(0, (0,) * len(fd.group.classes), 0, MappingProxyType({}))
        self.last_x: float | None = None
        self.psi: tuple | None = None
        self.residue = None if fd.residue_action is None else np.asarray(fd.residue_action.residue_class)
        if self.residue is not None or _by_legendre(fd):
            # the kind of each group element, then the ramified kind read by element -1
            records = [_element_frobenius(fd, e) for e in fd.group.elements()] + [_RAMIFIED_DATA]
            self.element_kind = self._kinds(records)

    def tally(self, n: int) -> _ClassTally:
        """The class tally of the first n primes, from one ``np.bincount`` of their kinds."""
        counts = np.bincount(self.kind[:n]).tolist()  # up to the largest kind met, where zip stops
        by_class = [0] * len(self.fd.group.classes)
        unresolved: dict[int, int] = {}
        ramified = 0
        for c, m in zip(self.kind_code, counts):
            if c >= 0:
                by_class[c] += m
            elif c == -1:
                ramified += m
            elif m:  # an order enters unresolved only with a prime
                unresolved[-1 - c] = unresolved.get(-1 - c, 0) + m
        return _ClassTally(n, tuple(by_class), ramified, MappingProxyType(unresolved))

    def extend(self, sieve: PrimeSieve, x: float) -> int:
        """pi(x), once the kinds reach the primes up to x."""
        n, k = sieve.count_leq(x), self.kind.size
        if n > k:
            size = sieve.read_ahead(k, n)
            self.kind = np.concatenate((self.kind, self._classify(sieve.primes[k:size])))
            self.kind.flags.writeable = False
        return n

    def first_unresolved(self, sieve: PrimeSieve, x: float, order: int | None = None) -> int | None:
        """The smallest prime p <= x of ``sieve`` that the field leaves
        unresolved, of Frobenius order ``order`` when it is given, or None.
        The kinds are scanned only when the plan has an ambiguous kind of
        that order."""
        n = self.extend(sieve, x)
        kinds = [k for k, c in enumerate(self.kind_code) if c < -1 and (order is None or c == -1 - order)]
        if not kinds:
            return None
        hit = np.isin(self.kind[:n], kinds)
        return int(sieve.primes[hit.argmax()]) if hit.any() else None

    def _kinds(self, records: list[FrobeniusData]) -> np.ndarray:
        """The kind of each record, registering the records not met before."""
        kinds = np.array([self.index.setdefault(data, len(self.index)) for data in records], dtype=np.int16)
        if len(self.kind_code) != len(self.index):
            self.kind_code = tuple(map(_kind_code, self.index))
        return kinds

    def _classify(self, primes: np.ndarray) -> np.ndarray:
        """The kind of each prime."""
        fd = self.fd
        disc_residue = _mod_primes(fd.disc_field, primes)
        ramified = disc_residue == 0
        if self.residue is not None:
            elem = np.where(ramified, -1, self.residue[primes % fd.residue_action.conductor])
            return self.element_kind[elem]
        legendre = _by_legendre(fd)
        if not legendre:
            # a monic f has a repeated factor mod p exactly when p | disc(f)
            ramified |= _mod_primes(fd.poly_disc, primes) == 0
        out = np.empty(primes.size, dtype=np.int16)
        out[ramified] = self._kinds([_RAMIFIED_DATA])
        n = fd.degree
        # both vectorised routes need p > n and n (p-1)^2 < 2^63
        scalar = ~ramified & ((primes <= n) | (primes > math.isqrt((2**63 - 1) // n)))
        # p divides neither D_K nor, unless legendre, disc(f)
        out[scalar] = self._kinds([frobenius_data(fd, p) for p in primes[scalar].tolist()])
        fast = ~(ramified | scalar)
        if not fast.any():
            return out
        if legendre:
            # Euler's criterion: D_K^((p-1)/2) = chi_{D_K}(p) mod p, and element 1 is Frobenius at an inert p
            p = primes[fast]
            inert = _pow_mod(disc_residue[fast], p >> 1, p) != 1
            out[fast] = self.element_kind[inert.astype(np.int64)]
            return out
        counts = _cycle_counts(fd.defining_poly, primes[fast]).astype(np.int16)
        # a 1-D unique over the rows, each read as one opaque value, groups the primes by type
        rows = counts.view(np.dtype((np.void, counts.itemsize * n))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        # the types in the order of their smallest prime, so kinds are numbered
        # as first met and a GroupMismatch names the smallest prime that fits none
        met = np.argsort(first)
        first = first[met]
        records = [_type_frobenius(fd, tuple(d for d, c in enumerate(row, start=1) for _ in range(c)), p)
                   for row, p in zip(counts[first].tolist(), primes[fast][first].tolist())]
        out[fast] = self._kinds(records)[np.argsort(met)][inverse]
        return out


def _pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod m for each m of ``mod`` by in-place square-and-multiply; needs (m-1)^2 < 2^63."""
    out = np.ones_like(mod)
    for bit in range(int(exp.max()).bit_length() - 1, -1, -1):
        out *= out
        out %= mod
        out *= np.where(exp & (1 << bit), base, 1)
        out %= mod
    return out


_HORNER_BOUND = 1 << 47  # below it the Horner step r 2^16 + (2^16 - 1) < 2^63 fits int64


def _mod_primes(value: int, primes: np.ndarray) -> np.ndarray:
    """value mod p for each prime p of ``primes``, exact for an integer of any
    size.  Primes below 2^47, every prime ``sieve_primes`` makes, are reduced
    by a 16-bit Horner step in int64; larger ones one at a time in Python ints."""
    if primes.size and primes.max() >= _HORNER_BOUND:
        big = primes >= _HORNER_BOUND
        out = np.empty_like(primes)
        out[~big] = _mod_primes(value, primes[~big])
        out[big] = [value % p for p in primes[big].tolist()]
        return out
    mag = abs(value)
    r = np.zeros_like(primes)
    for shift in range(mag.bit_length() // 16 * 16, -1, -16):
        r = (r * (1 << 16) + ((mag >> shift) & 0xFFFF)) % primes
    return r if value >= 0 else (-r) % primes


def _cycle_counts(poly: tuple[int, ...], primes: np.ndarray) -> np.ndarray:
    """c[:, d-1] = number of degree-d irreducible factors of poly mod p.

    Needs p > n = deg(poly), p not dividing disc(poly), and n (p-1)^2 < 2^63.
    Then F_p[x]/(f) is a product of fields F_{p^d}, one per factor, and the
    Frobenius a -> a^p permutes a normal basis of each in one d-cycle.  So the
    trace of its k-th power is sum over d | k of d c_d, an integer at most
    n < p, which its value mod p gives exactly; Moebius-style inversion over
    the divisors of k recovers c_k.  The Frobenius matrix has the columns
    x^(ip) mod f, from one x^p mod f per prime by square-and-multiply.

    A block of primes is worked on at once, with the prime axis last: a
    polynomial is an (n, primes) array, row j holding the coefficients of
    x^j, so every step of the arithmetic is a numpy operation on whole rows.
    """
    n = len(poly) - 1
    out = np.empty((primes.size, n), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, primes.size, step):
        out[lo : lo + step] = _cycle_counts_block(poly, primes[lo : lo + step]).T
    return out


def _cycle_counts_block(poly: tuple[int, ...], p: np.ndarray) -> np.ndarray:
    n = len(poly) - 1
    low = np.stack([_mod_primes(c, p) for c in poly[:-1]])  # f = x^n + sum low[j] x^j

    def reduce(prod: np.ndarray) -> np.ndarray:
        # fold x^i (i >= n) back with x^n = -sum low_j x^j, reducing each row as it is folded and
        # the n result rows; from a product of two reduced polynomials the entries stay within
        # +-n (p-1)^2, the bound the route requires, as a row adds at most n products and
        # subtracts at most n - 1 folds, each below (p-1)^2
        for i in range(prod.shape[0] - 1, n - 1, -1):
            prod[i - n : i] -= (prod[i] % p) * low
        return prod[:n] % p

    def mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = np.zeros((2 * n - 1, p.size), dtype=np.int64)
        for i in range(n):
            prod[i : i + n] += a[i] * b
        return reduce(prod)

    def times_x(a: np.ndarray) -> np.ndarray:
        prod = np.zeros((n + 1, p.size), dtype=np.int64)
        prod[1:] = a
        return reduce(prod)

    one = np.zeros((n, p.size), dtype=np.int64)
    one[0] = 1
    xp = one
    for bit in range(int(p.max()).bit_length() - 1, -1, -1):
        xp = mulmod(xp, xp)
        odd = ((p >> bit) & 1).astype(bool)
        if odd.any():
            xp = np.where(odd, times_x(xp), xp)
    frob = np.empty((n, n, p.size), dtype=np.int64)  # frob[:, i] holds x^(ip) mod f
    frob[:, 0] = one
    for i in range(1, n):
        frob[:, i] = xp if i == 1 else mulmod(frob[:, i - 1], xp)
    power = frob
    counts = np.zeros((n, p.size), dtype=np.int64)
    for k in range(1, n + 1):
        if k > 1:
            power = np.einsum("ijm,jkm->ikm", power, frob) % p
        rest = np.trace(power) % p
        for d in range(1, k):
            if k % d == 0:
                rest = rest - d * counts[d - 1]
        counts[k - 1] = rest // k
    return counts


# -- catalog files ------------------------------------------------------------


def parse_catalog(text: str, source: str = "<catalog>") -> list[FieldDescriptor]:
    """Parse the line-oriented catalog format.

    Records are ``name | coefficients (constant first) | group label | field
    discriminant``; ``#`` starts a comment.  Malformed lines abort with their
    line number, as do a name that an earlier line or a built-in uses and a
    row that the ``FieldDescriptor`` constructor refuses.
    """
    out: list[FieldDescriptor] = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 4:
            raise CatalogError(f"{source}:{lineno}: expected 4 '|'-separated fields, got {len(parts)}")
        name, coeff_text, group_label, disc_text = parts
        if not name:
            raise CatalogError(f"{source}:{lineno}: empty field name")
        if name in first_line:
            raise CatalogError(f"{source}:{lineno}: field name {name!r} is already used on line {first_line[name]}")
        if name in BUILTIN_CATALOG:
            raise CatalogError(f"{source}:{lineno}: field name {name!r} is already used by a built-in field")
        first_line[name] = lineno
        try:
            coeffs = tuple(int(tok) for tok in coeff_text.split())
        except ValueError:
            raise CatalogError(f"{source}:{lineno}: non-integer coefficient in {coeff_text!r}") from None
        if not coeffs:
            raise CatalogError(f"{source}:{lineno}: no coefficients given")
        try:
            disc = int(disc_text)
        except ValueError:
            raise CatalogError(f"{source}:{lineno}: non-integer discriminant {disc_text!r}") from None
        try:
            group = build_group(group_label)
            out.append(FieldDescriptor(name=name, defining_poly=coeffs, group=group, disc_field=disc))
        except ValidationError as exc:
            raise CatalogError(f"{source}:{lineno}: {exc}") from None
    return out


def _check_group_tag(fd: FieldDescriptor) -> None:
    """Refuse a group tag that the polynomial's degree or discriminant disproves.

    G permutes the deg f roots transitively, so deg f divides |G|; and G lies
    in the alternating group exactly when disc f is a square.
    """
    g, n = fd.group, fd.degree
    if g.order % n:
        raise ValidationError(f"{fd.name}: |{g.name}| = {g.order} is not a multiple of deg f = {n}")
    if _on_roots(fd):
        square = fd.poly_disc > 0 and math.isqrt(fd.poly_disc) ** 2 == fd.poly_disc
        even = all(perm_sign(perm) == 1 for perm in g.perms)
        if square != even:
            is_, not_ = ("is", "is not") if square else ("is not", "is")
            raise ValidationError(f"{fd.name}: disc f = {fd.poly_disc} {is_} a square,"
                                  f" so G {is_} in A{n}, but {g.name} {not_}")


def load_catalog(path: str | Path) -> list[FieldDescriptor]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {p}: {exc}") from None
    return parse_catalog(text, source=str(p))


# -- built-in fields -----------------------------------------------------------

# catalog rows, parsed at import; the abelian rows then get their residue action
_BUILTIN_ROWS = """\
rational   | 0 1           | C1 | 1       # x, the field Q itself
gaussian   | 1 0 1         | C2 | -4      # x^2 + 1
sqrt5      | -1 -1 1       | C2 | 5       # x^2 - x - 1
zeta5      | 1 1 1 1 1     | C4 | 125     # Phi_5
cyclo7plus | -1 -2 1 1     | C3 | 49      # x^3 + x^2 - 2x - 1, Q(zeta_7)^+
zeta7      | 1 1 1 1 1 1 1 | C6 | -16807  # Phi_7
s3cubic    | -1 -1 0 1     | S3 | -12167  # x^3 - x - 1, closure has D_K = 23^3
"""
_CONDUCTORS = {"gaussian": 4, "sqrt5": 5, "zeta5": 5, "cyclo7plus": 7, "zeta7": 7}  # Frob_p is read off p mod q


def _cyclotomic_action(q: int, group: FiniteGroup) -> CyclotomicAction:
    """Map residues mod q to the cyclic ``group`` through the quotient of
    (Z/q)^* of order |G|.

    (Z/q)^* is cyclic for the conductors used here, so that quotient is
    unique: with g the smallest primitive root mod q, g^k maps to the element
    k mod |G|.
    """
    units = [r for r in range(1, q) if math.gcd(r, q) == 1]
    if len(units) % group.order:
        raise ValidationError("cyclotomic action does not match group order")
    gen = next(g for g in units if len({pow(g, k, q) for k in range(len(units))}) == len(units))
    table = [-1] * q
    for k in range(len(units)):
        table[pow(gen, k, q)] = k % group.order
    return CyclotomicAction(conductor=q, residue_class=tuple(table))


BUILTIN_CATALOG: dict[str, FieldDescriptor] = {}  # empty while its own rows parse, as parse_catalog refuses its names
BUILTIN_CATALOG.update(
    (fd.name, fd._replace(residue_action=_cyclotomic_action(_CONDUCTORS[fd.name], fd.group))
     if fd.name in _CONDUCTORS else fd)
    for fd in parse_catalog(_BUILTIN_ROWS, source="<built-in>")
)


def builtin_field(name: str) -> FieldDescriptor:
    try:
        return BUILTIN_CATALOG[name]
    except KeyError:
        raise CatalogError(f"no built-in field named {name!r}") from None


def quadratic_field(d: int) -> FieldDescriptor:
    """Canonical descriptor for Q(sqrt(d)), d squarefree and != 0, 1.

    Uses x^2 - d (disc 4d) or x^2 - x - (d-1)/4 (disc d) so that the
    polynomial discriminant equals the field discriminant.
    """
    name = f"quad({d})"
    try:
        squarefree = squarefree_part(d)
    except ParameterOutOfRange as exc:
        raise ParameterOutOfRange(f"{name}: d = {d} cannot be checked: {exc}") from None
    if d in (0, 1) or squarefree != d:
        raise ValidationError(f"d={d} must be squarefree and different from 0, 1")
    poly, disc = ((-(d - 1) // 4, -1, 1), d) if d % 4 == 1 else ((-d, 0, 1), 4 * d)
    return FieldDescriptor(name=name, defining_poly=poly, group=build_group("C2"), disc_field=disc)
