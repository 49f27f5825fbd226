"""Galois field descriptors, Frobenius classes, and the field catalog.

A field is described by a monic integer defining polynomial for a subfield k,
the Galois group G of the closure K, and the (user-supplied) field
discriminant D_K.  Frobenius conjugacy classes at unramified primes come from
the factorization type of the polynomial mod p; for the abelian built-ins the
class is resolved exactly through the residue of p modulo the conductor
(Frobenius acts on roots of unity by zeta -> zeta^p).  A quadratic field
Q(sqrt D_K) without a declared action is classified by the Kronecker
character chi_{D_K} alone, so its D_K is checked against the polynomial.

``frobenius_data`` classifies one prime; ``frobenius_table`` classifies the
primes of a sieve up to x at once and agrees with it prime by prime, keeping
one kind per prime: an index into the distinct records it has met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .arith import fundamental_disc, kronecker_symbol, poly_discriminant, squarefree_part
from .errors import CatalogError, ParameterOutOfRange, RamifiedPrime, ValidationError
from .gfpoly import factor_degrees
from .groups import ConjugacyClass, FiniteGroup, build_group
from .sieve import PrimeSieve

RAMIFIED = -1  # FrobeniusTable.cls of a ramified prime
UNRESOLVED = -2  # FrobeniusTable.cls of an unramified prime whose class the data cannot separate
_CHUNK_ENTRIES = 1 << 20  # int64 entries per block of Frobenius matrices


@dataclass(frozen=True)
class CyclotomicAction:
    """Exact Frobenius for abelian fields: class determined by p mod q.

    ``residue_class`` maps each residue coprime to q to a group element id.
    """

    conductor: int
    residue_class: tuple[int, ...]  # indexed by residue mod conductor, -1 off-support

    def element_of(self, p: int) -> int | None:
        e = self.residue_class[p % self.conductor]
        return None if e < 0 else e


@dataclass(frozen=True)
class FieldDescriptor:
    """A Galois extension K/Q presented by a defining polynomial for k."""

    name: str
    defining_poly: tuple[int, ...]  # constant term first, monic
    group: FiniteGroup
    disc_field: int
    residue_action: CyclotomicAction | None = None
    poly_disc: int = field(init=False, compare=False)

    def __post_init__(self):
        coeffs = self.defining_poly
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValidationError(f"{self.name}: defining polynomial must be monic of degree >= 1")
        disc = poly_discriminant(list(coeffs))
        if disc == 0:
            raise ValidationError(f"{self.name}: defining polynomial is not squarefree over Q")
        if self.disc_field == 0:
            raise ValidationError(f"{self.name}: field discriminant must be nonzero")
        if self.residue_action is not None and self.degree != self.group.order:
            # the residue route reads the factorization type off the Frobenius
            # order, which needs k = K
            raise ValidationError(
                f"{self.name}: a residue action needs deg k = |G|, got {self.degree} and {self.group.order}"
            )
        if self.degree == self.group.order == 2:
            # k = K = Q(sqrt D_K), classified by chi_{D_K} alone
            d = self.disc_field
            index2, rest = divmod(disc, d)
            if rest or index2 < 1 or math.isqrt(index2) ** 2 != index2:
                raise ValidationError(f"{self.name}: disc f / D_K = {disc} / {d} is not a square")
            try:
                fundamental = fundamental_disc(d)
            except ParameterOutOfRange as exc:
                raise ParameterOutOfRange(f"{self.name}: D_K = {d} cannot be checked: {exc}") from None
            if d == 1 or fundamental != d:
                raise ValidationError(f"{self.name}: D_K = {d} must be a fundamental discriminant other than 1")
        object.__setattr__(self, "poly_disc", disc)

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


@dataclass(frozen=True)
class FrobeniusData:
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


@lru_cache(maxsize=200_000)
def _factor_type(poly: tuple[int, ...], p: int) -> tuple[tuple[int, int], ...]:
    return tuple(factor_degrees(list(poly), p))


def factor_poly_mod_p(poly: list[int] | tuple[int, ...], p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) pairs of the irreducible factors of poly mod p."""
    return list(_factor_type(tuple(poly), p))


def frobenius_data(fd: FieldDescriptor, p: int) -> FrobeniusData:
    """Frobenius data at p: ramified flag, type, order, class when unambiguous."""
    if fd.is_ramified(p):
        return _RAMIFIED_DATA
    if fd.residue_action is not None:
        elem = fd.residue_action.element_of(p)
        if elem is None:
            return _RAMIFIED_DATA
    elif _by_legendre(fd):
        elem = 0 if kronecker_symbol(fd.disc_field, p) == 1 else 1
    else:
        pairs = _factor_type(fd.defining_poly, p)
        if any(mult > 1 for _, mult in pairs):
            return _RAMIFIED_DATA
        return _type_frobenius(fd, tuple(sorted(d for d, _ in pairs)))
    return _element_frobenius(fd, elem)


def _by_legendre(fd: FieldDescriptor) -> bool:
    """A quadratic without a declared action: p is split or inert as chi_{D_K}(p) is 1 or -1."""
    return fd.residue_action is None and fd.degree == fd.group.order == 2


def _element_frobenius(fd: FieldDescriptor, elem: int) -> FrobeniusData:
    """The record of a Frobenius element from the residue or chi_{D_K} route."""
    d = fd.group.element_orders[elem]
    # k = K is Galois, so every prime above p has residue degree d
    return FrobeniusData(False, tuple([d] * (fd.degree // d)), d, fd.group.class_of(elem))


def _type_frobenius(fd: FieldDescriptor, ftype: tuple[int, ...]) -> FrobeniusData:
    """The record of an unramified prime whose factorization type is ftype."""
    g, d = fd.group, math.lcm(*ftype)
    if g.name.startswith("S") and g.perms is not None and fd.degree == len(g.perms[0]):
        # for S_n acting on the n roots, the factorization type is the cycle
        # type, a complete class invariant
        return FrobeniusData(False, ftype, d, g.class_by_cycle_type(ftype))
    candidates = g.classes_of_order(d)
    return FrobeniusData(False, ftype, d, candidates[0] if len(candidates) == 1 else None)


# -- Frobenius tables ----------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusTable:
    """Frobenius data of an ascending prime array, one kind per prime.

    ``kind[i]`` indexes ``kinds``, the records met so far, so ``primes[i]``
    has the record ``kinds[kind[i]]``.  Every count reads the histogram
    ``counts`` of the kinds; ``cls`` and ``order`` spell the records out per
    prime for code that walks the primes.  The arrays are read-only.
    """

    primes: np.ndarray
    kind: np.ndarray  # int16
    kinds: tuple[FrobeniusData, ...]

    @cached_property
    def counts(self) -> list[int]:
        """counts[k]: the number of primes of kind k."""
        return np.bincount(self.kind, minlength=len(self.kinds)).tolist()

    def count(self, match) -> int:
        """The number of primes whose record satisfies ``match``."""
        return sum(n for data, n in zip(self.kinds, self.counts) if n and match(data))

    def first(self, match) -> int | None:
        """The smallest prime whose record satisfies ``match``, or None."""
        wanted = [k for k, (data, n) in enumerate(zip(self.kinds, self.counts)) if n and match(data)]
        return int(self.primes[np.isin(self.kind, wanted).argmax()]) if wanted else None

    @property
    def cls(self) -> np.ndarray:
        """The class index of each prime, RAMIFIED or UNRESOLVED where it has none."""
        return self._per_prime([RAMIFIED if data.ramified else UNRESOLVED if data.ambiguous
                                else data.conjugacy_class.index for data in self.kinds])

    @property
    def order(self) -> np.ndarray:
        """The Frobenius order of each prime, 0 when it is ramified."""
        return self._per_prime([data.frobenius_order or 0 for data in self.kinds])

    def _per_prime(self, values: list[int]) -> np.ndarray:
        # int16: a catalog polynomial of degree 16 or more can have factor degrees whose lcm exceeds 127
        return np.array(values, dtype=np.int16)[self.kind]


def frobenius_table(fd: FieldDescriptor, sieve: PrimeSieve, x: float) -> FrobeniusTable:
    """Frobenius data of every prime p <= x of ``sieve``, at once.

    Residue fields read the class off ``p mod conductor``.  A quadratic
    without a declared action reads chi_{D_K}(p) by Euler's criterion,
    D_K^((p-1)/2) mod p, and ramifies exactly at the primes dividing D_K.
    Otherwise a prime dividing disc(f) is ramified, since f mod p then has a
    repeated factor; for p > deg f the factorization type comes from the
    traces of the Frobenius matrix (``_cycle_counts``).  On both vectorised
    routes the few primes p <= deg f go through ``frobenius_data``, and the
    routes build their records with its element and type helpers, so the
    table agrees with ``frobenius_data``.

    The sieve keeps each field's table of a prefix of its primes, in
    ``sieve.derived``, and returns slices of it.  A request beyond the prefix
    extends it to min(len(sieve), max(pi(x), 2 * prefix)) primes, so a
    session of rising x classifies O(log x) times, while a first request
    classifies exactly the pi(x) primes asked for.
    """
    memo = sieve.derived.get(("frobenius_table", fd))
    if memo is None:
        memo = sieve.derived["frobenius_table", fd] = _TableMemo(fd)
    return memo.lookup(fd, sieve, x)


def check_index_divisors(
    fds: tuple[FieldDescriptor, ...], primes: np.ndarray, orders: tuple[np.ndarray, ...]
) -> None:
    """Raise RamifiedPrime at the smallest prime of ``primes`` that divides no
    D_K of ``fds`` but has Frobenius order 0 (ramified) in one of their
    tables; ``orders`` holds each field's ``FrobeniusTable.order`` over
    ``primes``.  Such a prime divides disc(f) but not D_K: an index divisor.
    """
    bad = np.zeros(primes.size, dtype=bool)
    for order in orders:
        bad |= order == 0
    for fd in fds:
        bad &= _mod_primes(fd.disc_field, primes) != 0
    if bad.any():
        i = int(np.argmax(bad))
        name = next(fd.name for fd, order in zip(fds, orders) if order[i] == 0)
        raise RamifiedPrime(f"{name}: p={int(primes[i])} divides disc f but not D_K")


class _TableMemo:
    """One field's kinds of a prefix of the primes of the sieve that keeps it.

    Kind indices are assigned in the order records are first met and never
    change, so a table extended later keeps the indices it had.
    """

    def __init__(self, fd: FieldDescriptor):
        self.kind = np.zeros(0, dtype=np.int16)
        self.index: dict[FrobeniusData, int] = {}
        self.residue = None if fd.residue_action is None else np.asarray(fd.residue_action.residue_class)
        if self.residue is not None or _by_legendre(fd):
            # the kind of each group element, then the ramified kind read by element -1
            records = [_element_frobenius(fd, e) for e in fd.group.elements()] + [_RAMIFIED_DATA]
            self.element_kind = self._kinds(records)

    def lookup(self, fd: FieldDescriptor, sieve: PrimeSieve, x: float) -> FrobeniusTable:
        n, k = sieve.count_leq(x), self.kind.size
        if n > k:
            size = min(len(sieve), max(n, 2 * k))
            self.kind = np.concatenate((self.kind, self._classify(fd, sieve.primes[k:size])))
            self.kind.flags.writeable = False
        return FrobeniusTable(sieve.primes[:n], self.kind[:n], tuple(self.index))

    def _kinds(self, records: list[FrobeniusData]) -> np.ndarray:
        return np.array([self.index.setdefault(data, len(self.index)) for data in records], dtype=np.int16)

    def _classify(self, fd: FieldDescriptor, primes: np.ndarray) -> np.ndarray:
        """The kind of each prime."""
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
        records = [_type_frobenius(fd, tuple(d for d, c in enumerate(row, start=1) for _ in range(c)))
                   for row in counts[first].tolist()]
        out[fast] = self._kinds(records)[inverse]
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


def _mod_primes(value: int, primes: np.ndarray) -> np.ndarray:
    """value mod p for each prime p < 2^47, exact for an integer of any size."""
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
        # fold x^i (i >= n) back with x^n = -sum low_j x^j; entries stay below n p^2
        for i in range(prod.shape[0] - 1, n - 1, -1):
            prod[i - n : i] -= (prod[i] % p) * low
        return prod[:n] % p

    def mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = np.zeros((2 * n - 1, p.size), dtype=np.int64)
        for i in range(n):
            prod[i : i + n] += a[i] * b
        return reduce(prod % p)

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


# -- built-in catalog ---------------------------------------------------------


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


def _builtin_fields() -> dict[str, FieldDescriptor]:
    out: dict[str, FieldDescriptor] = {}

    out["rational"] = FieldDescriptor(
        name="rational",
        defining_poly=(0, 1),  # x, the field Q itself
        group=build_group("C1"),
        disc_field=1,
    )
    c2 = build_group("C2")
    out["gaussian"] = FieldDescriptor(
        name="gaussian",
        defining_poly=(1, 0, 1),  # x^2 + 1
        group=c2,
        disc_field=-4,
        residue_action=_cyclotomic_action(4, c2),
    )
    out["sqrt5"] = FieldDescriptor(
        name="sqrt5",
        defining_poly=(-1, -1, 1),  # x^2 - x - 1
        group=c2,
        disc_field=5,
        residue_action=_cyclotomic_action(5, c2),
    )
    c4 = build_group("C4")
    out["zeta5"] = FieldDescriptor(
        name="zeta5",
        defining_poly=(1, 1, 1, 1, 1),  # Phi_5
        group=c4,
        disc_field=125,
        residue_action=_cyclotomic_action(5, c4),
    )
    c3 = build_group("C3")
    out["cyclo7plus"] = FieldDescriptor(
        name="cyclo7plus",
        defining_poly=(-1, -2, 1, 1),  # x^3 + x^2 - 2x - 1, Q(zeta_7)^+
        group=c3,
        disc_field=49,
        residue_action=_cyclotomic_action(7, c3),
    )
    c6 = build_group("C6")
    out["zeta7"] = FieldDescriptor(
        name="zeta7",
        defining_poly=(1, 1, 1, 1, 1, 1, 1),  # Phi_7
        group=c6,
        disc_field=-16807,
        residue_action=_cyclotomic_action(7, c6),
    )
    s3 = build_group("S3")
    out["s3cubic"] = FieldDescriptor(
        name="s3cubic",
        defining_poly=(-1, -1, 0, 1),  # x^3 - x - 1, closure has D_K = 23^3
        group=s3,
        disc_field=-12167,
    )
    return out


BUILTIN_CATALOG = _builtin_fields()


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


# -- catalog files ------------------------------------------------------------


def parse_catalog(text: str, source: str = "<catalog>") -> list[FieldDescriptor]:
    """Parse the line-oriented catalog format.

    Records are ``name | coefficients (constant first) | group label | field
    discriminant``; ``#`` starts a comment.  Malformed lines abort with their
    line number.
    """
    out: list[FieldDescriptor] = []
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
            fd = FieldDescriptor(name=name, defining_poly=coeffs, group=group, disc_field=disc)
        except (ValidationError, CatalogError) as exc:
            raise CatalogError(f"{source}:{lineno}: {exc}") from None
        out.append(fd)
    return out


def load_catalog(path: str | Path) -> list[FieldDescriptor]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {p}: {exc}") from None
    return parse_catalog(text, source=str(p))
