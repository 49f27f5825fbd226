"""Exact large-sieve quantities: mean-value integrals of Dirichlet
polynomials and bound-shape reports.

The left-hand sides are computed to rounding (Gauss-Legendre quadrature of
an entire integrand); the right-hand sides of the averaged inequalities carry
implicit constants, so reports emit their shapes and empirical ratios without
asserting anything.  The prime polynomials take their coefficients a_K(p)
from ``artin.prime_coefficients``, which also refuses index divisors.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .artin import prime_coefficients
from .errors import LimitTooLarge, ParameterOutOfRange, ValidationError
from .fields import FieldDescriptor
from .sieve import PrimeSieve

if TYPE_CHECKING:  # only annotations name it, so importing large_sieve loads no families
    from .families import Family

MSQ_NODES = 32  # Gauss-Legendre order of every panel
MSQ_PANEL_TYPE = 16.0  # bound on L h, the exponential type of |S|^2 on one panel
MAX_MSQ_EVALUATIONS = 10**9  # terms x nodes of one mean-value integral
_MSQ_BLOCK_ENTRIES = 1 << 18  # terms x nodes of S evaluated at once (4 MiB of complex)


class _DirichletRecord(NamedTuple):
    terms: dict[int, complex]


class DirichletPolynomial(_DirichletRecord):
    """Finite-support map n -> c(n) defining sum c(n) n^{-it}."""

    __slots__ = ()

    def __new__(cls, terms: dict[int, complex]):
        for n, c in terms.items():
            if n < 1:
                raise ValidationError(f"support must be positive integers, got {n}")
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValidationError(f"coefficient at {n} is not finite")
        return super().__new__(cls, terms)

    @classmethod
    def _make(cls, values):
        return cls(*values)  # _replace comes here: check again, as the constructor does

    @property
    def support(self) -> list[int]:
        return sorted(n for n, c in self.terms.items() if c != 0)


def msq_integral(poly: DirichletPolynomial, t_height: float) -> float:
    """int_{-T}^{T} |sum c(n) n^{-it}|^2 dt, by composite Gauss-Legendre quadrature.

    |S(t)|^2 is a sum of exponentials exp(i t log(q/n)) whose frequencies lie
    within L = log(n_max / n_min) of 0.  On a panel of half-width h it is, in
    the panel variable, entire of exponential type L h, so a fixed-order rule
    on panels with L h <= MSQ_PANEL_TYPE integrates it to rounding.  S(t) is
    evaluated over blocks of at most _MSQ_BLOCK_ENTRIES terms x nodes, so the
    memory is O(N + block), and a request of more than MAX_MSQ_EVALUATIONS
    terms x nodes raises LimitTooLarge before any of it is allocated.
    """
    if not (0 < t_height < math.inf):
        raise ParameterOutOfRange("T must be positive and finite")
    ns = poly.support
    if not ns:
        return 0.0
    spread = math.log(ns[-1] / ns[0])
    panels = max(1, math.ceil(t_height * spread / MSQ_PANEL_TYPE))
    nodes = panels * MSQ_NODES
    if len(ns) * nodes > MAX_MSQ_EVALUATIONS:
        raise LimitTooLarge(
            f"mean-value integral needs {len(ns)} terms x {nodes} nodes, above {MAX_MSQ_EVALUATIONS}"
        )
    from numpy.polynomial.legendre import leggauss  # lazy: adds to every CLI start-up otherwise

    x, w = leggauss(MSQ_NODES)
    c = np.array([poly.terms[n] for n in ns], dtype=complex)
    logn = np.log(np.array(ns, dtype=float))
    logn -= 0.5 * (logn[0] + logn[-1])  # a common phase leaves |S|^2 unchanged
    half = t_height / panels
    block = max(1, _MSQ_BLOCK_ENTRIES // len(ns))
    total = 0.0
    for start in range(0, nodes, block):
        k = np.arange(start, min(start + block, nodes))
        panel, j = np.divmod(k, MSQ_NODES)
        t = -t_height + half * (2 * panel + 1 + x[j])
        s = np.exp(-1j * np.outer(t, logn)) @ c
        total += float(np.dot(w[j], s.real**2 + s.imag**2))
    return half * total


class _WindowRecord(NamedTuple):
    t_height: float
    y: float
    u: float


class MeanValueWindow(_WindowRecord):
    """Height T and prime window y < p <= u of the mean-value sums."""

    __slots__ = ()

    def __new__(cls, t_height: float, y: float, u: float):
        if not y > 1:  # the mean-value shape reads log log y
            raise ValidationError("y must be > 1")
        if u < y:
            raise ValidationError("u must be >= y")
        if not (0 < t_height < math.inf):
            raise ParameterOutOfRange("T must be positive and finite")
        return super().__new__(cls, t_height, y, u)

    @classmethod
    def _make(cls, values):
        return cls(*values)  # _replace comes here: check again, as the constructor does


def prime_polynomial(fd: FieldDescriptor, y: float, u: float, sieve: PrimeSieve) -> DirichletPolynomial:
    """c(p) = a_K(p) log p / p over the window y < p <= u, unramified p, with
    a_K(p) from ``artin.prime_coefficients``; an index divisor in the window
    raises RamifiedPrime."""
    return DirichletPolynomial({p: a * math.log(p) / p for p, a in prime_coefficients(fd, sieve, y, u).items()})


def mvt_primes_lhs(family: Family, window: MeanValueWindow, sieve: PrimeSieve) -> float:
    """sum over K of the mean-value integral of the prime polynomial."""
    total = 0.0
    for fd in family.fields:
        poly = prime_polynomial(fd, window.y, window.u, sieve)
        if poly.support:
            total += msq_integral(poly, window.t_height)
    return total


# -- bound-shape reports --------------------------------------------------------


class BoundReport(NamedTuple):
    """Exact LHS next to the averaged bound's RHS shape; constants stay symbolic.

    ``rhs_shape_log`` is the natural log of the shape with implicit constant
    1; ``ratio_log`` is log(lhs) - rhs_shape_log when the lhs is available.
    The inequality itself is never asserted.
    """

    kind: str
    params: dict
    lhs: float | None
    rhs_shape_log: float
    ratio_log: float | None
    notes: tuple[str, ...] = ()


def zero_density_report(family: Family, t_height: float, sigma: float) -> BoundReport:
    """Shape m_F(Q) (QT)^{1e7 m^3 (1 - sigma)} (log QT)^{2 m^2} of the
    zero-density estimate; reported in log scale."""
    if not (0.5 <= sigma <= 1.0):
        raise ParameterOutOfRange("sigma must lie in [1/2, 1]")
    m = family.m
    qt = family.q_bound * t_height
    if qt <= 1:
        raise ParameterOutOfRange("need QT > 1")
    rhs_log = (
        math.log(family.multiplicity)
        + 1e7 * m**3 * (1.0 - sigma) * math.log(qt)
        + 2.0 * m**2 * math.log(math.log(qt))
    )
    notes = (f"field-count display: #F(Q) << Q^{52 * (m + 1)}",)
    return BoundReport(
        kind="zero-density",
        params={"sigma": sigma, "Q": family.q_bound, "T": t_height, "m": m, "m_F": family.multiplicity},
        lhs=None,
        rhs_shape_log=rhs_log,
        ratio_log=None,
        notes=notes,
    )


def mvt_report(family: Family, window: MeanValueWindow, sieve: PrimeSieve) -> BoundReport:
    """Mean-value report: exact LHS against (log y)^{2 m^2} m_F(Q) log u.

    Tags the result when the window start does not honor the admissible range
    y >= (QT)^{108 (m+1)} with implicit constant 1.
    """
    m = family.m
    lhs = mvt_primes_lhs(family, window, sieve)
    rhs_log = (
        2.0 * m**2 * math.log(math.log(window.y))
        + math.log(family.multiplicity)
        + math.log(math.log(window.u))
    )
    notes = []
    floor_log = 108 * (m + 1) * math.log(family.q_bound * window.t_height)
    if math.log(window.y) < floor_log:
        notes.append(
            "window start y=%g is below the literal admissible floor (QT)^(108(m+1)) = exp(%.4g)"
            % (window.y, floor_log)
        )
    if math.log(window.u) > 12000 * math.log(window.y):
        notes.append("window end exceeds y^12000")
    return BoundReport(
        kind="mean-value",
        params={
            "Q": family.q_bound,
            "T": window.t_height,
            "y": window.y,
            "u": window.u,
            "m": m,
            "m_F": family.multiplicity,
        },
        lhs=lhs,
        rhs_shape_log=rhs_log,
        ratio_log=(math.log(lhs) - rhs_log) if lhs > 0 else None,
        notes=tuple(notes),
    )
