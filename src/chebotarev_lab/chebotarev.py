"""Exact Chebotarev prime counting, weighted prime sums, admissibility
certificates, base change, and error reports.

Counting is exact: every prime up to x is classified once, through the
field's Frobenius table (``fields.frobenius_table``), and every count reads
the class tally the sieve keeps for the last x asked for (``fields._class_tally``):
counts by class, by ambiguous order and of the ramified primes, built from
one count of the table's kinds.  So the class counts partition pi(x) minus
the ramified and unresolved primes, and the queries of one x search the
sieve and count the kinds once.  Weighted prime sums weigh each prime
power once per sieve and weight parameters, for every field, into one
table, give a field's terms their classes by one lookup, and reduce each
class's terms with exact compensated summation, so results are bit-stable.
What a query needs of a field's kinds alone (their classes and ambiguity)
is the plan the table memo keeps, and what it needs of (G, C, H) alone is
computed once per triple, so a query at a new x reads only the kinds and
tallies.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    AmbiguousClass,
    ParameterOutOfRange,
    SieveRangeExceeded,
    UnsupportedSubgroupAction,
)
from .fields import FieldDescriptor, _TableMemo, _class_tally, _memo
from .groups import ConjugacyClass, FiniteGroup
from .sieve import PrimeSieve

if TYPE_CHECKING:  # annotations only: counting needs no zfr, and loads weights only to weigh terms
    from .weights import WeightParams
    from .zfr import EtaProfile


def pi_count(x: float, sieve: PrimeSieve) -> int:
    """pi(x), exactly."""
    return sieve.count_leq(x)


class ChebotarevCount(NamedTuple):
    """One exact class count against its Chebotarev expectation."""

    x: float
    class_label: str
    count: int
    expected: float
    error: float


class SplittingTally(NamedTuple):
    """Counts of every class (and the ramified primes) for p <= x."""

    x: float
    by_class: dict[str, int]
    ramified: int
    unresolved: int

    def total(self) -> int:
        return sum(self.by_class.values()) + self.ramified + self.unresolved


def splitting_tally(fd: FieldDescriptor, x: float, sieve: PrimeSieve) -> SplittingTally:
    """Classify every prime p <= x and count each class."""
    tally = _class_tally(fd, sieve, x)
    by_class = {c.label: n for c, n in zip(fd.group.classes, tally.by_class)}
    return SplittingTally(x=x, by_class=by_class, ramified=tally.ramified, unresolved=sum(tally.unresolved.values()))


def pi_C_count(
    fd: FieldDescriptor,
    selector: ConjugacyClass | int,
    x: float,
    sieve: PrimeSieve,
) -> ChebotarevCount:
    """pi_C(x, K/Q) for a conjugacy class, or a class union by Frobenius order.

    Passing an int d counts the union of all classes of element order d.
    Raises AmbiguousClass, naming the smallest such p <= x, when an exact
    class is requested but the factorization data cannot separate it.  The
    count and pi(x) are read off the class tally to x; only an ambiguous
    count scans the kinds, for the prime it names.
    """
    group = fd.group
    tally = _class_tally(fd, sieve, x)
    if isinstance(selector, ConjugacyClass):
        d = selector.order
        if d in tally.unresolved:
            p = _memo(fd, sieve).first_unresolved(sieve, x, d)
            raise AmbiguousClass(f"{fd.name}: order-{d} classes are not separated at p={p};"
                                 " request the class union instead")
        size, count, label = selector.size, tally.by_class[selector.index], selector.label
    else:
        d = int(selector)
        classes = group.classes_of_order(d)
        size = sum(c.size for c in classes)
        if size == 0:
            raise ParameterOutOfRange(f"{group.name} has no elements of order {d}")
        # an ambiguous prime's class is one of order d; a ramified prime has none
        count = sum(tally.by_class[c.index] for c in classes) + tally.unresolved.get(d, 0)
        label = f"order={d}"
    expected = size / group.order * tally.n
    return ChebotarevCount(x, label, count, expected, count - expected)


# -- admissibility -------------------------------------------------------------


class AdmissibilityCertificate(NamedTuple):
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


def _log_units(sieve: PrimeSieve, n: int) -> np.ndarray:
    """U[i] = math.log(p_i) / 2^-53, an exact int64 below 2^58, for the first n primes of the sieve.

    The sieve keeps U for a prefix of its primes, in ``sieve.derived``, grown
    like the Frobenius tables to ``sieve.read_ahead(prefix, n)`` primes, so a
    first request on a sieve of m primes computes min(m, max(n, 2^10)) logs.
    """
    units = sieve.derived.get("psi_log_units", np.zeros(0, dtype=np.int64))
    if n > units.size:
        primes = sieve.primes[units.size : sieve.read_ahead(units.size, n)]
        chunks = (primes[i : i + _LOG_CHUNK].tolist() for i in range(0, primes.size, _LOG_CHUNK))
        logs = np.fromiter(map(math.log, chain.from_iterable(chunks)), dtype=np.float64, count=primes.size)
        units = sieve.derived["psi_log_units"] = np.concatenate((units, (logs / _UNIT).astype(np.int64)))
    return units[:n]


class _PsiWeights(NamedTuple):
    """The terms that f weighs at one params on one sieve, which no field
    shapes: those below and above the plateau block primes[start:stop].

    They form one table, kept by column: row r is the term
    t[r] = log p * f(k log p / log x) > 0.0 of p = primes[i[r]] and k = k[r].
    The rows ascend in p and then k: first every term of p <= isqrt(2 n_hi),
    then the upper ramp, where p^2 > n_hi leaves k = 1 alone.  No row has
    i in [start, stop).
    """

    start: int
    stop: int
    i: np.ndarray  # intp
    k: np.ndarray  # intp
    t: np.ndarray  # float64


def _psi_weights(params: WeightParams, sieve: PrimeSieve, n_hi: float) -> _PsiWeights:
    """The weighed terms at params, shared by every field on the sieve.

    Every (p, k) outside the plateau block and not below supp f is weighed
    once, ramified p included, as f does not depend on the field.  The weight
    argument is evaluated as k*log(p)/log(x) so independent reimplementations
    of the same sum produce bit-identical terms.  The sieve keeps the weights
    of the last params it was asked, in ``sieve.derived``.
    """
    kept = sieve.derived.get("psi_weights")
    if kept is not None and kept[0] == params:
        return kept[1]
    from .weights import below_support, f_width  # here, past the cache: a count loads no weights

    end = sieve.count_leq(n_hi)
    units = _log_units(sieve, end)
    # the plateau block primes[start:stop]: p > isqrt(2 n_hi), so p^2 > n_hi, and f == 1.0
    start = sieve.count_leq(math.isqrt(int(2 * n_hi)))
    stop = max(start, sieve.count_leq(params.x ** params.plateau[1] * (1.0 - 1e-9)))
    lx = params.log_x
    w = params.boxcar_width
    top = lx + params.eps
    index, power, term = [], [], []  # the columns i, k and t
    for i, u in chain(zip(range(start), units[:start].tolist()), zip(range(stop, end), units[stop:end].tolist())):
        logp = u * _UNIT
        k = 1
        while k * logp <= top:
            t = k * logp / lx
            if not below_support(w, t):
                weight = f_width(w, t)
                if weight > 0.0:  # log p > 1/2, so the term is > 0.0 too
                    index.append(i)
                    power.append(k)
                    term.append(logp * weight)
            k += 1
    weights = _PsiWeights(start, stop, np.array(index, np.intp), np.array(power, np.intp), np.array(term, np.float64))
    sieve.derived["psi_weights"] = (params, weights)
    return weights


def _psi_terms(
    memo: _TableMemo, params: WeightParams, sieve: PrimeSieve
) -> tuple[_PsiWeights, np.ndarray, np.ndarray, np.ndarray]:
    """The weighed terms at params and the class of each in the memo's field
    (-1 for a ramified p), then the slot and the log units U of each prime of
    the plateau block: its class, or the number of classes for a ramified p.

    The weighed terms are the sieve's, shared by every field at params
    (``_psi_weights``).  Each term's class is one lookup: Frob_p^k lies in
    class ``power_classes[slot[kind[i]], k % |G|]``, where ``kind`` holds the
    kinds that the field's table memo keeps, ``slot`` is its plan
    (``kind_code``) with the ramified code -1 sent past the classes, and
    ``FiniteGroup.power_classes`` has its all -1 row there.  The primes are
    scanned for an ambiguous one only when the plan has an ambiguous kind;
    past that check no kind of a prime <= n_hi is ambiguous.
    """
    n_hi = params.x * math.exp(params.eps)  # supp f ends at 1 + eps/log x
    if n_hi > sieve.limit:
        raise SieveRangeExceeded(f"need primes to {n_hi:.0f} but sieve limit is {sieve.limit}")
    # extends the kinds to n_hi, and not the class tally, which would replace the one counts keep
    p = memo.first_unresolved(sieve, n_hi)
    if p is not None:
        raise AmbiguousClass(f"{memo.fd.name}: class not resolvable at p={p}")
    weights = _psi_weights(params, sieve, n_hi)
    group, start, stop = memo.fd.group, weights.start, weights.stop
    slot = np.array([c if c >= 0 else len(group.classes) for c in memo.kind_code], dtype=np.intp)
    classes = group.power_classes[slot.take(memo.kind.take(weights.i)), weights.k % group.order]
    # on the plateau block k = 1, and Frob_p^1 is in Frob_p's own class
    return weights, classes, slot.take(memo.kind[start:stop]), _log_units(sieve, stop)[start:]


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
      lower ramp, so every (p, k) is weighed by f (``f_width``), but those that
      ``below_support`` puts below supp f, where f is exactly 0.0;
    - the plateau block isqrt(2 n_hi) < p <= x (1 - 1e-9): here p^2 > n_hi, so
      only k = 1 enters, and log p / log x lies inside the plateau [1/2, 1]
      with a margin far above rounding.  Both branches of f return constants
      there, so f is exactly 1.0 and the term is exactly ``math.log(p)``;
      f is not called;
    - the upper ramp x (1 - 1e-9) < p <= n_hi, weighed by f.

    So the terms equal, bit for bit, those of one scalar loop that weighs
    every (p, k).  What f weighs does not depend on the field: the sieve
    keeps those terms for the last params, ramified primes included, in one
    table that every field and class at the same params reads
    (``_psi_weights``).  What stays per field is the class of each term, one
    lookup off the field's kinds and their plan, and the plateau primes of
    cls; the rows of cls are split at the plateau block to keep the pairs
    ascending.  The pairs are not memoized.
    """
    weights, classes, plateau, units = _psi_terms(_memo(fd, sieve), params, sieve)
    rows = classes == cls.index
    i = weights.i[rows]
    split = int(np.searchsorted(i, weights.start))
    pairs = list(zip((sieve.primes[i] ** weights.k[rows]).tolist(), weights.t[rows].tolist()))
    mine = plateau == cls.index
    block = zip(sieve.primes[weights.start : weights.stop][mine].tolist(), (units[mine] * _UNIT).tolist())
    return [*pairs[:split], *block, *pairs[split:]]


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
    from a cache the sieve keeps, and two ``np.bincount`` over the classes of
    the block add the high and low 29 bits of U with every partial sum below
    2^52, so exactly.  Those sums and the ramp terms are reduced with exact
    compensated summation, which rounds their exact total once: the value
    equals, bit for bit, the compensated sum of the terms one at a time, and
    is independent of their order or of any work partition.

    The weighed terms are the sieve's, shared by every field at the last
    params (``_psi_weights``); the sums of every class of the field at the
    last params asked for are its table memo's (``_TableMemo.psi``), so the
    other classes at those params are read back without recomputation.  A
    request that raises leaves the kept weights and sums as they were.
    """
    memo = _memo(fd, sieve)
    if memo.psi is None or memo.psi[0] != params:
        weights, classes, plateau, units = _psi_terms(memo, params, sieve)
        size = len(fd.group.classes)
        # the plateau sums by slot; the last slot, of the ramified primes, is left out
        high = np.bincount(plateau, units >> 29, size + 1).tolist()
        low = np.bincount(plateau, units & _LOW, size + 1).tolist()
        values = tuple(math.fsum([*weights.t[classes == c].tolist(), high[c] * 2.0**-24, low[c] * _UNIT])
                       for c in range(size))
        memo.psi = params, values
    return memo.psi[1][cls.index]


def partial_summation_pi(data: list[tuple[int, float]]) -> float:
    """Convert psi-style weighted data to a pi-style count: the exact Stieltjes
    sum of 1/log n against the point masses.

    On sharp data {(p, log p)} this reproduces the prime count exactly.
    """
    return math.fsum(v / math.log(n) for n, v in data if v != 0.0)


# -- base change -----------------------------------------------------------------


class BaseChangeCheck(NamedTuple):
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


def _coset_orbits_in_ch(group: FiniteGroup, h: frozenset[int], c_h: frozenset[int]) -> dict[int, list[int]]:
    """For each conjugacy class of G: the lengths of the <sigma>-orbits on G/H
    whose Frobenius lies in C_H.

    A prime of the fixed field K^H above an unramified p corresponds to an
    orbit of sigma_p on the cosets; its residue degree is the orbit length f
    and its Frobenius class in H is the H-class of g^{-1} sigma^f g for the
    coset representative g.
    """
    coset: dict[int, int] = {}  # element -> index of its coset gH in reps
    reps: list[int] = []
    for g in group.elements():
        if g not in coset:
            coset.update((group.mul(g, hh), len(reps)) for hh in h)
            reps.append(g)
    table: dict[int, list[int]] = {}
    for cls in group.classes:
        sigma = cls.representative
        visited = [False] * len(reps)
        table[cls.index] = []
        for i, g in enumerate(reps):
            length, j = 0, i
            while not visited[j]:
                visited[j] = True
                j = coset[group.mul(sigma, reps[j])]
                length += 1
            if length and group.mul(group.mul(group.inv(g), group.power(sigma, length)), g) in c_h:
                table[cls.index].append(length)
    return table


def _iroot(n: int, k: int) -> int:
    """The largest r >= 0 with r^k <= n, for n >= 0."""
    r = int(round(n ** (1.0 / k))) if n > 0 else 0
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


class _BaseChangePlan(NamedTuple):
    """What a base-change comparison needs of (G, C, H) alone: the scale
    (|C|/|G|)(|H|/|C_H|), and one (f, class index) pair per <sigma>-orbit of
    length f on G/H whose Frobenius lies in C_H, for sigma in that class."""

    scale: float
    orbits: tuple[tuple[int, int], ...]


@lru_cache(maxsize=256)
def _base_change_plan(group: FiniteGroup, cls: ConjugacyClass, h: frozenset[int]) -> _BaseChangePlan:
    """The subgroup check, the meet with C, C_H and the coset orbits, once per
    (group, class, H).  A refused H raises, and is not kept."""
    if group.subgroup_closure(h) != h:
        raise UnsupportedSubgroupAction("H is not a subgroup")
    meet = sorted(h & cls.members)
    if not meet:
        raise ParameterOutOfRange("H does not meet the conjugacy class")
    g0 = meet[0]
    c_h = frozenset(group.conj(g0, hh) for hh in h)
    orbits = tuple((f, index) for index, lengths in _coset_orbits_in_ch(group, h, c_h).items() for f in lengths)
    scale = cls.size / group.order * len(h) / len(c_h)
    return _BaseChangePlan(scale, orbits)


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
    description of splitting in the fixed field.  What depends on (G, C, H)
    alone, the subgroup check, C_H and the orbit table, is computed once per
    triple (``_base_change_plan``); a refused H raises on every call.  Each
    call then reads only the class tallies at x and at floor(x)^(1/f).
    """
    group = fd.group
    plan = _base_change_plan(group, cls, frozenset(h))
    tally = _class_tally(fd, sieve, x)
    if tally.unresolved:
        p = _memo(fd, sieve).first_unresolved(sieve, x)
        raise UnsupportedSubgroupAction(f"{fd.name}: class not resolvable at p={p}")
    pi_c = tally.by_class[cls.index]
    # a prime of class c gives one K^H prime of norm p^f per orbit of length f
    # meeting C_H; it counts when p^f <= x, that is when p <= floor(x)^(1/f)
    prefix = {f: _class_tally(fd, sieve, _iroot(max(int(x), 0), f)).by_class for f in {f for f, _ in plan.orbits}}
    pi_ch = sum(prefix[f][index] for f, index in plan.orbits)
    lhs = abs(pi_c - plan.scale * pi_ch)
    rhs = cls.size / group.order * (
        group.order * math.sqrt(x) + 2.0 / math.log(2.0) * math.log(fd.abs_disc)
    )
    return BaseChangeCheck(lhs=lhs, rhs_bound=rhs, pi_c=pi_c, pi_ch=pi_ch, scale=plan.scale, x=x)


# -- error reports ----------------------------------------------------------------


class FlexiErrorReport(NamedTuple):
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
