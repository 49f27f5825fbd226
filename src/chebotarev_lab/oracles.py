"""Independent oracles used by the test suite and the CLI selftests.

Each oracle recomputes a quantity along a different route from the production
code: brute-force expansion, quadrature, residue arithmetic, factoring mod p
with ``gfpoly``, or grid search.  They are deliberately simple and never
share the code path they check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import int_det, kronecker_symbol
from .artin import LocalRootMultiset, local_roots
from .errors import AmbiguousClass, ComputationError, ParameterOutOfRange
from .fields import (
    _RAMIFIED_DATA,
    FieldDescriptor,
    FrobeniusData,
    _by_legendre,
    _element_frobenius,
    _type_frobenius,
)
from .gfpoly import factor_degrees
from .large_sieve import DirichletPolynomial
from .sieve import PrimeSieve
from .weights import WeightParams, f_width

# -- Frobenius data by factoring ------------------------------------------------


@lru_cache(maxsize=200_000)  # tests ask many fields, sieves and x about the same (poly, p)
def _factor_type(poly: tuple[int, ...], p: int) -> tuple[tuple[int, int], ...]:
    return tuple(factor_degrees(list(poly), p))


def factor_poly_mod_p(poly: list[int] | tuple[int, ...], p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) pairs of the irreducible factors of poly mod p."""
    return list(_factor_type(tuple(poly), p))


def frobenius_data_by_factoring(fd: FieldDescriptor, p: int) -> FrobeniusData:
    """Frobenius data at the prime p, with the factorization type of f mod p
    read off a full factorization by ``gfpoly``, not off the Frobenius matrix
    as ``fields.frobenius_data`` and ``fields.frobenius_table`` read it:
    p is ramified when f mod p has a repeated factor.  A residue field reads
    its action, and a quadratic without one chi_{D_K}(p), as production does.
    """
    if fd.is_ramified(p):
        return _RAMIFIED_DATA
    if fd.residue_action is not None:
        elem = fd.residue_action.residue_class[p % fd.residue_action.conductor]
        if elem < 0:
            return _RAMIFIED_DATA
    elif _by_legendre(fd):
        elem = 0 if kronecker_symbol(fd.disc_field, p) == 1 else 1
    else:
        pairs = _factor_type(fd.defining_poly, p)
        if any(mult > 1 for _, mult in pairs):
            return _RAMIFIED_DATA
        return _type_frobenius(fd, tuple(sorted(d for d, _ in pairs)), p)
    return _element_frobenius(fd, elem)


# -- quadrature ---------------------------------------------------------------


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 60) -> float:
    """Adaptive Simpson integration of a real integrand, breadth first.

    ``f`` maps an array of points to the array of its values.  Each level
    bisects every open interval and evaluates the new points of all of them in
    one call of ``f``.  An interval with whole estimate W and half estimates
    L, R closes when |L + R - W| <= 15 eps, or at the depth cap, with the value
    L + R + (L + R - W) / 15; eps halves from one level to the next.  The
    closed values are then added up the bisection tree, left child plus right
    child, so the result is the recursive formulation's to the last bit.
    A non-finite value of ``f`` raises ComputationError at once: its interval
    would never close, and the open intervals would double up to the depth cap.
    """

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def values(points):
        out = np.asarray(f(points), dtype=float)
        if not np.isfinite(out).all():
            raise ComputationError(f"integrand is not finite on [{a}, {b}]")
        return out

    def children(left_half, right_half, keep):
        # the two halves of each kept interval, side by side: left, right, left, right, ...
        return np.stack([left_half[keep], right_half[keep]], axis=1).ravel()

    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    ends = values(np.array([a, 0.5 * (a + b), b]))
    flo, fmid, fhi = ends[0:1], ends[1:2], ends[2:3]
    whole = simpson(lo, hi, flo, fmid, fhi)
    eps = tol
    levels = []  # per level: the closed value of each interval, and which ones stayed open
    for depth in range(max_depth, -1, -1):
        mid = 0.5 * (lo + hi)
        new = values(np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)]))
        flm, frm = new[: lo.size], new[lo.size :]
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        delta = left + right - whole
        keep = ~(np.abs(delta) <= 15.0 * eps) if depth > 0 else np.zeros(lo.size, dtype=bool)
        levels.append((left + right + delta / 15.0, keep))
        if not keep.any():
            break
        lo, hi = children(lo, mid, keep), children(mid, hi, keep)
        flo, fmid, fhi = children(flo, fmid, keep), children(flm, frm, keep), children(fmid, fhi, keep)
        whole = children(left, right, keep)
        eps = eps / 2.0
    below = np.empty(0)
    for value, keep in reversed(levels):
        value[keep] = below[0::2] + below[1::2]
        below = value
    return float(below[0])


def msq_integral_quadrature(poly: DirichletPolynomial, t_height: float, tol: float = 1e-10) -> float:
    """The mean-value integral by adaptive Simpson on |sum c(n) n^{-it}|^2."""
    ns = poly.support
    if not ns:
        return 0.0
    coeffs = np.array([poly.terms[n] for n in ns])
    logs = np.log(np.array(ns, dtype=float))

    def integrand(t: np.ndarray) -> np.ndarray:
        total = np.sum(coeffs * np.exp(-1j * t[:, None] * logs), axis=1)
        # hypot and pow, as abs() and ** 2 compute them on one numpy scalar: the
        # array forms np.abs and ** 2 differ in the last bit at some points
        return np.float_power(np.hypot(total.real, total.imag), 2.0)

    return adaptive_simpson(integrand, -t_height, t_height, tol=tol)


def msq_integral_pairwise(poly: DirichletPolynomial, t_height: float) -> float:
    """The mean-value integral in closed form, pair by pair.

    Diagonal terms give 2T |c(n)|^2; off-diagonal pairs give
    2 Re[c(n) conj(c(q))] sin(T log(q/n)) / log(q/n).  Builds N x N arrays.
    """
    ns = poly.support
    if not ns:
        return 0.0
    c = np.array([poly.terms[n] for n in ns], dtype=complex)
    logn = np.log(np.array(ns, dtype=float))
    diff = logn[None, :] - logn[:, None]  # log(q/n) at [n, q]
    kernel = np.where(diff == 0.0, 2.0 * t_height, 2.0 * np.sin(t_height * diff) / np.where(diff == 0.0, 1.0, diff))
    gram = np.outer(c, np.conjugate(c))
    return float(np.real(np.sum(gram * kernel)))


# -- Rankin-Selberg Euler product ------------------------------------------------


def rs_product_coefficients(
    fd1: FieldDescriptor, fd2: FieldDescriptor, p: int, j_max: int
) -> list[complex]:
    """Coefficients of prod over root pairs (1 - alpha alpha' T)^{-1} up to T^{j_max},
    by direct series multiplication over the complex local roots."""
    roots1 = local_roots(fd1, p).roots_complex()
    roots2 = local_roots(fd2, p).roots_complex()
    series = [0j] * (j_max + 1)
    series[0] = 1.0 + 0j
    for a in roots1:
        for b in roots2:
            beta = a * b
            # multiply by the geometric series of beta: new[k] = old[k] + beta new[k-1]
            for k in range(1, j_max + 1):
                series[k] = series[k] + beta * series[k - 1]
    return series


def rs_cauchy_coefficient(fd1: FieldDescriptor, fd2: FieldDescriptor, p: int, j: int) -> int:
    """a_{K x K'}(p^j) by the Cauchy identity: the sum over partitions of j of
    paired Schur values, each a Jacobi-Trudi determinant in the h_k (exact)."""
    a1 = local_roots(fd1, p)
    a2 = local_roots(fd2, p)
    return sum(schur(lam, a1) * schur(lam, a2) for lam in partitions_of(j, max_length=min(a1.size, a2.size)))


# -- partitions and Schur values ------------------------------------------------------


class PartitionTooLong(ComputationError):
    code = "PartitionTooLong"


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


def homogeneous_closed_form(d: int, g: int, k: int) -> int:
    """h_k of the local roots of Frobenius order d in a group of order g: the
    coefficient of t^k in (1 - t) / (1 - t^d)^(g/d), and 0 for k < 0.

    The binomial series of (1 - t^d)^(-g/d) gives it with no power sums, so
    it shares nothing with the Newton rule of ``artin``.
    """
    def full(j):
        return math.comb(g // d - 1 + j // d, j // d) if j >= 0 and j % d == 0 else 0

    return full(k) - full(k - 1)


def schur(partition: Partition, roots: LocalRootMultiset) -> int:
    """s_lambda at the local-root multiset, by Jacobi-Trudi in the closed-form h_k (exact).

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
    d, g = roots.frobenius_order, roots.group_order
    mat = [[homogeneous_closed_form(d, g, partition.parts[i] - i + j) for j in range(ell)] for i in range(ell)]
    return int_det(mat)


# -- Gallagher window integral -----------------------------------------------------


def gallagher_window_integral(terms: dict[int, complex], t_height: float) -> float:
    """int_0^infty |sum over n in (x, x e^{1/T}] of c(n)|^2 dx/x, exactly.

    The window sum is piecewise constant in x; the breakpoints are n and
    n e^{-1/T} for n in the support.
    """
    ns = sorted(n for n, c in terms.items() if c != 0)
    if not ns:
        return 0.0
    shrink = math.exp(-1.0 / t_height)
    points = sorted({float(n) for n in ns} | {n * shrink for n in ns})
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        if hi <= lo:
            continue
        mid = math.sqrt(lo * hi)
        window = sum(c for n, c in terms.items() if mid < n <= mid / shrink)
        if window != 0:
            total += abs(window) ** 2 * math.log(hi / lo)
    return total


# -- prime counting ------------------------------------------------------------------


def segmented_sieve_count(limit: int, segment: int = 1 << 16) -> int:
    """pi(limit) by a segmented sieve, independent of the numpy sieve."""
    if limit < 2:
        return 0
    root = int(math.isqrt(limit))
    base = []
    is_p = bytearray([1]) * (root + 1)
    for i in range(2, root + 1):
        if is_p[i]:
            base.append(i)
            for j in range(i * i, root + 1, i):
                is_p[j] = 0
    count = len(base)
    lo = root + 1
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        mark = bytearray([1]) * (hi - lo + 1)
        for p in base:
            start = max(p * p, (lo + p - 1) // p * p)
            for j in range(start, hi + 1, p):
                mark[j - lo] = 0
        count += sum(mark)
        lo = hi + 1
    return count


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


# -- weight function ------------------------------------------------------------------


def _laplace_F_vectorized(params: WeightParams, z: complex, omegas: np.ndarray) -> np.ndarray:
    """F(z + i omega) for an array of omegas (same closed form, vectorized)."""
    length = 0.5 + params.eps / params.log_x
    w = params.boxcar_width
    zz = z + 1j * omegas

    def phi(y):
        small = np.abs(y) < 1e-6
        safe = np.where(small, 1.0, y)
        main = (np.exp(safe) - 1.0) / safe
        taylor = 1.0 + y / 2.0 + y**2 / 6.0 + y**3 / 24.0
        return np.where(small, taylor, main)

    return np.exp(-(1.0 + params.eps / params.log_x) * zz) * length * phi(length * zz) * phi(w * zz) ** 2


def fourier_inversion_f(params: WeightParams, t: float, tol: float = 5e-9) -> float:
    """Recover f(t) from the closed-form transform by numeric Fourier inversion.

    f(t) = (1/pi) int_0^infty Re(F(i omega) e^{i omega t}) d omega, truncated
    where the |F| <= 8/(w^2 omega^3) tail integral drops below tol/2.
    """
    w = params.boxcar_width
    cutoff = math.sqrt(8.0 / (math.pi * w * w * tol))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    panel = math.pi / max(1.0, abs(t))
    n_panels = int(cutoff / panel) + 1
    total = 0.0
    chunk = 20_000
    for start in range(0, n_panels, chunk):
        stop = min(start + chunk, n_panels)
        lows = (np.arange(start, stop) * panel)[:, None]
        om = lows + 0.5 * panel * (nodes[None, :] + 1.0)
        flat = om.ravel()
        vals = np.real(_laplace_F_vectorized(params, 0.0, flat) * np.exp(1j * flat * t))
        total += 0.5 * panel * float(np.sum(vals.reshape(om.shape) @ weights))
    return total / math.pi


def laplace_transform_quadrature(params: WeightParams, z: complex, nodes: int = 24) -> complex:
    """int f(t) e^{-zt} dt by composite Gauss-Legendre over the smooth pieces."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    kn = params.knots()
    w = params.boxcar_width
    total = 0j
    for lo, hi in zip(kn[:-1], kn[1:]):
        width = hi - lo
        panels = max(1, int(abs(z) * width / 2.0) + 1)
        for i in range(panels):
            a = lo + width * i / panels
            b = lo + width * (i + 1) / panels
            tm = 0.5 * (a + b) + 0.5 * (b - a) * xs
            vals = np.array([f_width(w, t) for t in tm]) * np.exp(-z * tm)
            total += 0.5 * (b - a) * np.sum(ws * vals)
    return complex(total)


# -- eta grid searches ------------------------------------------------------------------


def grid_eta_classical(
    d_e: int, degree: int, c1: float, x: float, c_eps: float, points: int = 100_000
) -> float:
    """Grid-search oracle for the classical eta closed form."""
    lx = math.log(x)
    log_d = math.log(d_e)
    eps = 1.0 / degree
    stark = min(0.5, c_eps * d_e ** (-eps)) * lx
    u_hi = 2.0 * math.sqrt(c1 * lx / degree) + 10.0
    us = np.linspace(0.0, u_hi, points)
    denom = log_d + degree * us
    widths = np.minimum(0.5, np.where(denom > 0, c1 / np.where(denom > 0, denom, 1.0), 0.5))
    return min(stark, float(np.min(widths * lx + us)))


def grid_eta_large(
    q: float, eps: float, m: int, x: float, c1: float, points: int = 100_000
) -> float:
    """Grid-search oracle for the dyadic zero-density eta closed form."""
    n_deg = m + 1
    delta = eps / (1e9 * m**3)
    lq = math.log(q)
    lx = math.log(x)
    u_split = q ** (eps / 2.0)
    u1 = np.linspace(u_split, max(2.0 * u_split, u_split + 2.0 * math.sqrt(c1 * lx / n_deg) + 50.0), points)
    phi1 = np.minimum(0.5, c1 / (2 * lq + n_deg * u1)) * lx + u1
    u2 = np.linspace(0.0, u_split, points)
    phi2 = np.minimum(0.5, 20.0 * delta * lq / (lq + u2)) * lx + u2
    return float(min(phi1.min(), phi2.min()))


# -- naive Chebotarev loops ----------------------------------------------------------------


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def naive_psi_gaussian_split(params: WeightParams, residue: int = 1) -> float:
    """Weighted prime-power sum for Q(i) with classes read off p^k mod 4.

    Pure modular arithmetic and trial division; shares nothing with the group
    or field machinery.  Terms use the same float formula k*log(p)/log(x) as
    the production sum, so with exact compensated summation the two values
    agree bit for bit.
    """
    lx, w = params.log_x, params.boxcar_width
    terms: list[float] = []
    for p in range(3, int(math.floor(params.x * math.exp(params.eps))) + 1, 2):
        if not is_prime_trial(p):
            continue
        logp = math.log(p)
        k = 1
        while k * logp <= lx + params.eps:
            if pow(p, k, 4) == residue:
                weight = f_width(w, k * logp / lx)
                if weight > 0.0:
                    terms.append(logp * weight)
            k += 1
    return math.fsum(terms)


def psi_weighted_scalar(
    fd: FieldDescriptor, params: WeightParams, sieve: PrimeSieve
) -> list[list[tuple[int, float]]]:
    """The (p^k, term) pairs of the weighted prime sum of every class, indexed
    by class index, one prime at a time.

    Each prime is classified by ``frobenius_data_by_factoring`` and the k-th
    power of its Frobenius element is taken with ``group.power``: no
    Frobenius table, no memo and no power map.  Terms use the same float
    formulas as the production sum, so the two agree bit for bit.
    """
    group = fd.group
    lx, w = math.log(params.x), params.boxcar_width
    out: list[list[tuple[int, float]]] = [[] for _ in group.classes]
    for p in sieve.upto(params.x * math.exp(params.eps)).tolist():
        data = frobenius_data_by_factoring(fd, p)
        if data.ramified:
            continue
        if data.conjugacy_class is None:
            raise AmbiguousClass(f"{fd.name}: class not resolvable at p={p}")
        sigma = data.conjugacy_class.representative
        logp = math.log(p)
        k = 1
        while k * logp <= lx + params.eps:
            weight = f_width(w, k * logp / lx)
            if weight > 0.0:
                out[group.class_of(group.power(sigma, k)).index].append((p**k, logp * weight))
            k += 1
    return out


def gaussian_ideal_count(n: int) -> int:
    """Number of ideals of Z[i] with norm n: r_2(n) / 4 by lattice enumeration."""
    count = 0
    a = 0
    while a * a <= n:
        rest = n - a * a
        b = math.isqrt(rest)
        if b * b == rest:
            count += (2 if a > 0 else 1) * (2 if b > 0 else 1)
        a += 1
    assert count % 4 == 0
    return count // 4
