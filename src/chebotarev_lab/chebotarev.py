"""Exact Chebotarev prime counting, weighted prime sums, admissibility
certificates, base change, and error reports.

Counting is exact: every prime up to x is classified once, through the
field's Frobenius table (``fields.frobenius_table``), and counts are sums
over the histogram of its kinds, so the class counts partition pi(x) minus
the ramified primes.  Weighted prime sums weigh the terms of every class of a
field in one pass and reduce each class's terms with exact compensated
summation, so results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AmbiguousClass,
    ParameterOutOfRange,
    SieveRangeExceeded,
    UnsupportedSubgroupAction,
)
from .fields import FieldDescriptor, frobenius_table
from .groups import ConjugacyClass, FiniteGroup
from .sieve import PrimeSieve
from .weights import WeightParams, below_support, f_eval

if TYPE_CHECKING:  # only flexi_error_report's annotations name it; counting needs no zfr
    from .zfr import EtaProfile


def pi_count(x: float, sieve: PrimeSieve) -> int:
    """pi(x), exactly."""
    return sieve.count_leq(x)


@dataclass(frozen=True)
class ChebotarevCount:
    """One exact class count against its Chebotarev expectation."""

    x: float
    class_label: str
    count: int
    expected: float
    error: float


@dataclass(frozen=True)
class SplittingTally:
    """Counts of every class (and the ramified primes) for p <= x."""

    x: float
    by_class: dict[str, int]
    ramified: int
    unresolved: int

    def total(self) -> int:
        return sum(self.by_class.values()) + self.ramified + self.unresolved


def splitting_tally(fd: FieldDescriptor, x: float, sieve: PrimeSieve) -> SplittingTally:
    """Classify every prime p <= x and count each class."""
    table = frobenius_table(fd, sieve, x)
    by_class = {c.label: 0 for c in fd.group.classes}
    ramified = unresolved = 0
    for data, n in zip(table.kinds, table.counts):
        if data.ramified:
            ramified += n
        elif data.ambiguous:
            unresolved += n
        else:
            by_class[data.conjugacy_class.label] += n
    return SplittingTally(x=x, by_class=by_class, ramified=ramified, unresolved=unresolved)


def pi_C_count(
    fd: FieldDescriptor,
    selector: ConjugacyClass | int,
    x: float,
    sieve: PrimeSieve,
) -> ChebotarevCount:
    """pi_C(x, K/Q) for a conjugacy class, or a class union by Frobenius order.

    Passing an int d counts the union of all classes of element order d.
    Raises AmbiguousClass when an exact class is requested but the
    factorization data cannot separate it.
    """
    group = fd.group
    table = frobenius_table(fd, sieve, x)
    if isinstance(selector, ConjugacyClass):
        size = selector.size
        p = table.first(lambda data: data.ambiguous and data.frobenius_order == selector.order)
        if p is not None:
            raise AmbiguousClass(
                f"{fd.name}: order-{selector.order} classes are not separated at p={p};"
                " request the class union instead"
            )
        count = table.count(lambda data: data.conjugacy_class == selector)
        label = selector.label
    else:
        d = int(selector)
        size = sum(c.size for c in group.classes_of_order(d))
        if size == 0:
            raise ParameterOutOfRange(f"{group.name} has no elements of order {d}")
        count = table.count(lambda data: data.frobenius_order == d)  # None when ramified
        label = f"order={d}"
    expected = size / group.order * table.primes.size
    return ChebotarevCount(x=x, class_label=label, count=count, expected=expected, error=count - expected)


# -- admissibility -------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Witness that a class admits the base-change subgroup of the error analysis."""

    class_label: str
    subgroup: frozenset[int]
    meets_class: bool
    entire_characters: str
    dedekind_quotient: str
    conditional: bool = False


def is_admissible(
    group: FiniteGroup, cls: ConjugacyClass, strong_artin: bool = False
) -> AdmissibilityCertificate | None:
    """Search for a subgroup H with H cap C nonempty, entire characters, and
    entire zeta_{K^H}/zeta.

    The entire-characters requirement is certified only through "H abelian"
    (or, with ``strong_artin``, asserted for H = G); the entire-quotient
    requirement through "H normal".  Central classes always succeed via the
    cyclic subgroup of a representative.  Absence of a certificate is a
    value, not an error.
    """
    for h in group.abelian_subgroups():
        if h & cls.members and group.is_normal(h):
            return AdmissibilityCertificate(
                class_label=cls.label,
                subgroup=h,
                meets_class=True,
                entire_characters="H abelian (class field theory)",
                dedekind_quotient="H normal (Aramata-Brauer)",
            )
    if strong_artin:
        full = frozenset(group.elements())
        return AdmissibilityCertificate(
            class_label=cls.label,
            subgroup=full,
            meets_class=True,
            entire_characters="strong Artin conjecture (user-asserted)",
            dedekind_quotient="H = G",
            conditional=True,
        )
    return None


# -- weighted prime sums ---------------------------------------------------------

_UNIT = 2.0**-53  # log p >= log 2 > 1/2, so the float math.log(p) is a multiple of 2^-53
_LOW = (1 << 29) - 1  # U = (U >> 29) 2^29 + (U & _LOW), parts below 2^29: pi(10^8) < 2^23 of them sum below 2^52
_LOG_CHUNK = 1 << 12  # primes turned into Python ints at a time


@lru_cache(maxsize=64)  # bounded: it keeps each group it is given alive
def _power_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """powers[c][k % |G|]: the index of the class holding the k-th powers of class c."""
    return tuple(
        tuple(group.class_of(group.power(c.representative, k)).index for k in range(group.order))
        for c in group.classes
    )


def _log_units(sieve: PrimeSieve, n: int) -> np.ndarray:
    """U[i] = math.log(p_i) / 2^-53, an exact int64 below 2^58, for the first n primes of the sieve.

    The sieve keeps U for a prefix of its primes, in ``sieve.derived``, grown
    like the Frobenius tables to min(len(sieve), max(n, 2 * prefix)) primes.
    """
    units = sieve.derived.get("psi_log_units", np.zeros(0, dtype=np.int64))
    if n > units.size:
        primes = sieve.primes[units.size : min(len(sieve), max(n, 2 * units.size))]
        chunks = (primes[i : i + _LOG_CHUNK].tolist() for i in range(0, primes.size, _LOG_CHUNK))
        logs = np.fromiter(map(math.log, chain.from_iterable(chunks)), dtype=np.float64, count=primes.size)
        units = sieve.derived["psi_log_units"] = np.concatenate((units, (logs / _UNIT).astype(np.int64)))
    return units[:n]


@dataclass(frozen=True)
class _PsiTerms:
    """Class c's weighed (p^k, term) pairs below and above the plateau block,
    each ascending in p and then k (see ``psi_weighted_items``), and the block,
    where each prime adds exactly log p = units 2^-53 to class
    ``kind_class[kind]`` (-1 for the ramified kind)."""

    lower: list[list[tuple[int, float]]]
    upper: list[list[tuple[int, float]]]
    primes: np.ndarray
    kind: np.ndarray
    units: np.ndarray
    kind_class: list[int]


def _psi_terms(fd: FieldDescriptor, params: WeightParams, sieve: PrimeSieve) -> _PsiTerms:
    """The terms of the weighted prime sum of every class, in one pass.

    Every (p, k) outside the plateau block and not below supp f is weighed
    once and goes to the class of Frob_p^k, read off ``_power_classes``.  The
    weight argument is evaluated as k*log(p)/log(x) so independent
    reimplementations of the same sum produce bit-identical terms.
    """
    x = params.x
    lx = params.log_x
    n_hi = x * math.exp(params.eps)  # supp f ends at 1 + eps/log x
    if n_hi > sieve.limit:
        raise SieveRangeExceeded(f"need primes to {n_hi:.0f} but sieve limit is {sieve.limit}")
    table = frobenius_table(fd, sieve, n_hi)
    p = table.first(attrgetter("ambiguous"))
    if p is not None:
        raise AmbiguousClass(f"{fd.name}: class not resolvable at p={p}")
    primes, kind, units = table.primes, table.kind, _log_units(sieve, table.primes.size)
    kind_class = [-1 if data.ramified else data.conjugacy_class.index for data in table.kinds]
    order, powers = fd.group.order, _power_classes(fd.group)
    # the plateau block primes[start:stop]: p > isqrt(2 n_hi), so p^2 > n_hi, and f == 1.0
    start = sieve.count_leq(math.isqrt(int(2 * n_hi)))
    stop = max(start, sieve.count_leq(x ** params.plateau[1] * (1.0 - 1e-9)))
    top = lx + params.eps
    classes = range(len(powers))

    def weigh(lo: int, hi: int) -> list[list[tuple[int, float]]]:
        pairs: list[list[tuple[int, float]]] = [[] for _ in classes]
        for p, index, u in zip(primes[lo:hi].tolist(), kind[lo:hi].tolist(), units[lo:hi].tolist()):
            c = kind_class[index]
            if c < 0:  # ramified
                continue
            power = powers[c]
            logp = u * _UNIT
            k = 1
            n = p
            while k * logp <= top:
                t = k * logp / lx
                if not below_support(params, t):
                    weight = f_eval(params, t)
                    if weight > 0.0:
                        pairs[power[k % order]].append((n, logp * weight))
                k += 1
                n *= p
        return pairs

    return _PsiTerms(weigh(0, start), weigh(stop, primes.size), primes[start:stop], kind[start:stop],
                     units[start:stop], kind_class)


def psi_weighted_items(
    fd: FieldDescriptor,
    cls: ConjugacyClass,
    params: WeightParams,
    sieve: PrimeSieve,
) -> list[tuple[int, float]]:
    """The (p^k, log p * f(log p^k / log x)) pairs of the weighted prime sum,
    over unramified p with the k-th Frobenius power in cls, ascending in p
    and then k.

    The primes up to n_hi = x e^eps, where supp f ends, fall in three segments:

    - p <= isqrt(2 n_hi): p^k may enter for k >= 2, and p may lie on the
      lower ramp, so every (p, k) is weighed by ``f_eval``, but those that
      ``below_support`` puts below supp f, where f is exactly 0.0;
    - the plateau block isqrt(2 n_hi) < p <= x (1 - 1e-9): here p^2 > n_hi, so
      only k = 1 enters, and log p / log x lies inside the plateau [1/2, 1]
      with a margin far above rounding.  Both branches of f return constants
      there, so f is exactly 1.0 and the term is exactly ``math.log(p)``;
      f is not called;
    - the upper ramp x (1 - 1e-9) < p <= n_hi, weighed by ``f_eval``.

    So the terms equal, bit for bit, those of one scalar loop that weighs
    every (p, k).  The pairs come from the pass that builds the terms of
    every class, which ``psi_weighted_class`` runs too; the pairs are not
    memoized.
    """
    terms = _psi_terms(fd, params, sieve)
    mine = np.isin(terms.kind, [k for k, c in enumerate(terms.kind_class) if c == cls.index])
    plateau = zip(terms.primes[mine].tolist(), (terms.units[mine] * _UNIT).tolist())
    return terms.lower[cls.index] + list(plateau) + terms.upper[cls.index]


def psi_weighted_class(
    fd: FieldDescriptor,
    cls: ConjugacyClass,
    params: WeightParams,
    sieve: PrimeSieve,
) -> float:
    """The weighted sum over unramified prime powers p^k with the k-th power of
    the Frobenius class equal to cls: sum of log p * f(log p^k / log x).

    Realized as a direct sum (the contour definition agrees by Mellin
    inversion) over the terms of ``psi_weighted_items``: f weighs the small
    primes and the ramps, and each plateau prime adds exactly log p, since f
    is exactly 1.0 on [1/2, 1].  The plateau logs are summed as exact
    integers: log p = U 2^-53 with U = math.log(p) / 2^-53 below 2^58, read
    from a cache the sieve keeps, and two ``np.bincount`` over the kinds of
    the block add the high and low 29 bits of U with every partial sum below
    2^52, so exactly.  Those sums and the ramp terms are reduced with exact
    compensated summation, which rounds their exact total once: the value
    equals, bit for bit, the compensated sum of the terms one at a time, and
    is independent of their order or of any work partition.

    One pass builds the terms of every class.  The sieve keeps, in
    ``sieve.derived``, the sums of every class of the field for the last
    params it was asked, so the other classes at the same parameters are
    read back without recomputation; other parameters recompute them.  A
    request that raises leaves the kept sums as they were.
    """
    kept = sieve.derived.get(("psi_weighted_class", fd))
    if kept is None or kept[0] != params:
        terms = _psi_terms(fd, params, sieve)
        size = len(terms.kind_class)
        high = np.bincount(terms.kind, terms.units >> 29, size).tolist()
        low = np.bincount(terms.kind, terms.units & _LOW, size).tolist()
        plateau: list[list[float]] = [[] for _ in terms.lower]
        for k, c in enumerate(terms.kind_class):
            if c >= 0:
                plateau[c] += (high[k] * 2.0**-24, low[k] * _UNIT)
        values = tuple(
            math.fsum(chain((t for _, t in lower), sums, (t for _, t in upper)))
            for lower, sums, upper in zip(terms.lower, plateau, terms.upper)
        )
        kept = sieve.derived["psi_weighted_class", fd] = (params, values)
    return kept[1][cls.index]


def partial_summation_pi(data: list[tuple[int, float]]) -> float:
    """Convert psi-style weighted data to a pi-style count: the exact Stieltjes
    sum of 1/log n against the point masses.

    On sharp data {(p, log p)} this reproduces the prime count exactly.
    """
    return math.fsum(v / math.log(n) for n, v in data if v != 0.0)


# -- base change -----------------------------------------------------------------


@dataclass(frozen=True)
class BaseChangeCheck:
    """Two-sided exact comparison of pi_C(x, K/Q) with the H-side count."""

    lhs: float
    rhs_bound: float
    pi_c: int
    pi_ch: int
    scale: float
    x: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs_bound


def _coset_orbit_table(
    group: FiniteGroup, h: frozenset[int], c_h: frozenset[int]
) -> dict[int, list[tuple[int, bool]]]:
    """For each conjugacy class of G: the <sigma>-orbits on G/H as
    (orbit length, Frobenius in C_H) pairs.

    A prime of the fixed field K^H above an unramified p corresponds to an
    orbit of sigma_p on the cosets; its residue degree is the orbit length f
    and its Frobenius class in H is the H-class of g^{-1} sigma^f g for the
    coset representative g.
    """
    h_sorted = sorted(h)
    reps: list[int] = []
    seen: set[int] = set()
    for g in group.elements():
        if g not in seen:
            reps.append(g)
            cos = {group.mul(g, hh) for hh in h_sorted}
            seen |= cos
    coset_index = {}
    for i, g in enumerate(reps):
        for hh in h_sorted:
            coset_index[group.mul(g, hh)] = i
    table: dict[int, list[tuple[int, bool]]] = {}
    for cls in group.classes:
        sigma = cls.representative
        visited = [False] * len(reps)
        orbits: list[tuple[int, bool]] = []
        for i, g in enumerate(reps):
            if visited[i]:
                continue
            length = 0
            j = i
            while not visited[j]:
                visited[j] = True
                j = coset_index[group.mul(sigma, reps[j])]
                length += 1
            frob = group.mul(group.mul(group.inv(g), group.power(sigma, length)), g)
            orbits.append((length, frob in c_h))
        table[cls.index] = orbits
    return table


def _iroot(n: int, k: int) -> int:
    """The largest r >= 0 with r^k <= n, for n >= 0."""
    r = int(round(n ** (1.0 / k))) if n > 0 else 0
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def base_change_compare(
    fd: FieldDescriptor,
    cls: ConjugacyClass,
    h: frozenset[int],
    x: float,
    sieve: PrimeSieve,
) -> BaseChangeCheck:
    """Check the base-change inequality: pi_C(x, K/Q) compared against
    (|C|/|G|)(|H|/|C_H|) pi_{C_H}(x, K/K^H), within
    (|C|/|G|)([K:Q] sqrt(x) + (2/log 2) log D_K).

    Both sides are counted exactly; the K^H primes come from the coset-orbit
    description of splitting in the fixed field.
    """
    group = fd.group
    if group.subgroup_closure(h) != h:
        raise UnsupportedSubgroupAction("H is not a subgroup")
    meet = sorted(h & cls.members)
    if not meet:
        raise ParameterOutOfRange("H does not meet the conjugacy class")
    g0 = meet[0]
    c_h = frozenset(group.conj(g0, hh) for hh in h)
    orbits = _coset_orbit_table(group, h, c_h)
    table = frobenius_table(fd, sieve, x)
    p = table.first(attrgetter("ambiguous"))
    if p is not None:
        raise UnsupportedSubgroupAction(f"{fd.name}: class not resolvable at p={p}")
    pi_c = table.count(lambda data: data.conjugacy_class == cls)
    # a prime of class c gives one K^H prime of norm p^f per orbit of length f
    # meeting C_H; it counts when p^f <= x, that is when p <= floor(x)^(1/f)
    pi_ch = 0
    for index, class_orbits in orbits.items():
        for length, in_ch in class_orbits:
            if in_ch:
                prefix = frobenius_table(fd, sieve, _iroot(max(int(x), 0), length))
                pi_ch += prefix.count(lambda data: data.conjugacy_class == group.classes[index])
    scale = cls.size / group.order * len(h) / len(c_h)
    lhs = abs(pi_c - scale * pi_ch)
    rhs = cls.size / group.order * (
        group.order * math.sqrt(x) + 2.0 / math.log(2.0) * math.log(fd.abs_disc)
    )
    return BaseChangeCheck(lhs=lhs, rhs_bound=rhs, pi_c=pi_c, pi_ch=pi_ch, scale=scale, x=x)


# -- error reports ----------------------------------------------------------------


@dataclass(frozen=True)
class FlexiErrorReport:
    """Actual Chebotarev error next to the eta-driven bound shapes.

    Implicit constants are symbolic (set to 1 in the shape values); the ratio
    columns are diagnostics, never assertions.
    """

    field: str
    class_label: str
    x: float
    actual_error: float
    li_shape: float
    pi_shape: float | None
    li_ratio: float
    pi_ratio: float | None
    eta_field: float
    eta_rational: float
    certificate: AdmissibilityCertificate | None


def flexi_error_report(
    fd: FieldDescriptor,
    cls: ConjugacyClass,
    x: float,
    profile_field: EtaProfile,
    profile_rational: EtaProfile,
    sieve: PrimeSieve,
) -> FlexiErrorReport:
    """|pi_C - (|C|/|G|) pi(x)| with the unconditional two-eta bound shape and,
    when an admissibility certificate exists, the single-eta shape."""
    from .zfr import error_factor  # local, as counting needs no zfr

    factor_k = error_factor(profile_field, x, fd.abs_disc)  # raises DomainTooSmall below its floor
    count = pi_C_count(fd, cls, x, sieve)
    ratio = cls.size / fd.group.order
    lx = math.log(x)
    li_shape = ratio * x / lx * (factor_k + error_factor(profile_rational, x, 1)) + ratio * x**0.75 / lx
    cert = is_admissible(fd.group, cls)
    pi_shape = None
    pi_ratio = None
    if cert is not None:
        pi_shape = ratio * x / lx * factor_k + ratio * x**0.75 / lx
        pi_ratio = abs(count.error) / pi_shape if pi_shape > 0 else math.inf
    return FlexiErrorReport(
        field=fd.name,
        class_label=cls.label,
        x=x,
        actual_error=abs(count.error),
        li_shape=li_shape,
        pi_shape=pi_shape,
        li_ratio=abs(count.error) / li_shape if li_shape > 0 else math.inf,
        pi_ratio=pi_ratio,
        eta_field=profile_field.eta(x),
        eta_rational=profile_rational.eta(x),
        certificate=cert,
    )
