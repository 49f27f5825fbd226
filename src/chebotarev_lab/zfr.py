"""Zero-free-region data Delta(t), the error-term data eta(x), and the
closed-form optimizations behind them.

Delta is stored as a guaranteed lower bound on the zero-free width, clamped
to [0, 1/2]; compositions take pointwise maxima.  All work happens in the
log-height coordinate u = log t so that enormous heights never overflow.
eta(x) = inf over the pieces of [Delta * log x + u].  Constant-width data
keeps the height-3 domain floor (u >= log 3); the classical shape uses the
relaxed floor u >= 0 that its closed-form optimization assumes, which only
lowers the guaranteed bound.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainTooSmall, ParameterOutOfRange

U_MIN_HEIGHT3 = math.log(3.0)
ETA_GRID_POINTS = 10_000  # grid of each piece in eta_from_delta, before refinement

# Non-normative configuration constants: the classical region's c_1 and
# Stark's c(eps) are "sufficiently small"/effective without stated values.
DEFAULT_C1 = 0.05
DEFAULT_C_EPS = 0.1


class ZfrPiece(NamedTuple):
    """One piece: a Delta lower bound on the log-height interval [u_lo, u_hi]."""

    u_lo: float
    u_hi: float  # may be math.inf; u_lo == u_hi is a point piece
    delta_fn: Callable[[np.ndarray], np.ndarray]
    provenance: str = ""

    def delta(self, u) -> np.ndarray:
        vals = np.asarray(self.delta_fn(np.asarray(u, dtype=float)), dtype=float)
        return np.clip(vals, 0.0, 0.5)


class ZfrData(NamedTuple):
    """Piecewise zero-free-region data for one L-function."""

    pieces: tuple[ZfrPiece, ...]
    label: str = ""


def constant_zfr(value: float) -> ZfrData:
    """Delta identically equal to ``value`` on t >= 3 (clamped to [0, 1/2])."""
    piece = ZfrPiece(
        u_lo=U_MIN_HEIGHT3,
        u_hi=math.inf,
        delta_fn=lambda u: np.full_like(np.asarray(u, dtype=float), value),
        provenance=f"constant width {value}",
    )
    return ZfrData(pieces=(piece,), label="constant")


def classical_zfr(d_e: int, degree: int, c1: float = DEFAULT_C1, c_eps: float = DEFAULT_C_EPS) -> ZfrData:
    """Classical region plus Stark's exceptional-zero bound for zeta_E.

    The classical piece Delta >= c1 / (log D_E + degree * u) lives on u >= 0;
    the Stark piece Delta >= c(eps) D_E^{-eps}, eps = 1/degree, sits at u = 0
    and carries the at-most-one real simple exceptional zero caveat as
    provenance.
    """
    _check_classical_params(d_e, degree, c1, c_eps)
    log_d = math.log(d_e)
    stark_width = c_eps * d_e ** (-1.0 / degree)
    stark = ZfrPiece(
        u_lo=0.0,
        u_hi=0.0,
        delta_fn=lambda u, w=stark_width: np.full_like(np.asarray(u, dtype=float), w),
        provenance="stark exceptional zero (real and simple if it exists)",
    )
    classical = ZfrPiece(
        u_lo=0.0,
        u_hi=math.inf,
        delta_fn=lambda u, ld=log_d, n=degree, c=c1: c / np.maximum(ld + n * np.asarray(u, dtype=float), 1e-300),
        provenance="classical zero-free region",
    )
    return ZfrData(pieces=(stark, classical), label=f"classical(D={d_e}, n={degree})")


def eta_from_delta(zfr: ZfrData, x: float) -> float:
    """eta(x) = inf over pieces of [Delta(u) log x + u], by grid plus refinement.

    The grid spans each piece up to u_max = 1000 + log x; beyond that the
    objective exceeds u > 1000 + log x, which can never beat the grid minimum
    (every candidate is at most (1/2) log x + u_lo plus bounded terms).
    """
    if x < 3:
        raise ParameterOutOfRange("x must be >= 3")
    from scipy.optimize import minimize_scalar  # lazy: adds to every CLI start-up otherwise

    lx = math.log(x)
    u_cap = 1000.0 + lx
    best = math.inf
    for piece in zfr.pieces:
        lo = piece.u_lo
        hi = min(piece.u_hi, u_cap)
        if lo > hi:
            continue
        if lo == hi:
            best = min(best, float(piece.delta(lo)) * lx + lo)
            continue
        grid = np.linspace(lo, hi, ETA_GRID_POINTS)
        vals = piece.delta(grid) * lx + grid
        idx = int(np.argmin(vals))
        best = min(best, float(vals[idx]))
        a = grid[max(idx - 1, 0)]
        b = grid[min(idx + 1, ETA_GRID_POINTS - 1)]
        if b > a:
            res = minimize_scalar(
                lambda u: float(piece.delta(u)) * lx + u,
                bounds=(a, b),
                method="bounded",
                options={"xatol": 1e-12 * max(1.0, b)},
            )
            best = min(best, float(res.fun))
    return best


# -- closed-form optimizations -------------------------------------------------


def _check_classical_params(d_e: int, degree: int, c1: float, c_eps: float) -> None:
    if d_e < 1:
        raise ParameterOutOfRange("D_E must be >= 1")
    if degree < 1:
        raise ParameterOutOfRange("degree must be >= 1")
    if c1 <= 0 or c_eps <= 0:
        raise ParameterOutOfRange("c1 and c(eps) must be positive")


def _classical_objective(u: float, log_d: float, degree: int, c1: float, lx: float) -> float:
    width = min(0.5, c1 / (log_d + degree * u)) if (log_d + degree * u) > 0 else 0.5
    return width * lx + u


def eta_classical_closed(d_e: int, degree: int, c1: float, x: float, c_eps: float = DEFAULT_C_EPS) -> float:
    """Closed form for eta of the classical-plus-Stark data.

    Stark branch: min(1/2, c(eps) D_E^{-eps}) log x with eps = 1/degree.
    Classical branch: the convex objective c1 log x/(log D_E + n u) + u
    evaluated at the clamped minimizer u* = max(0, sqrt(c1 log x / n) - log D_E / n).
    """
    if x < 3:
        raise ParameterOutOfRange("x must be >= 3")
    _check_classical_params(d_e, degree, c1, c_eps)
    lx = math.log(x)
    log_d = math.log(d_e)
    stark = min(0.5, c_eps * d_e ** (-1.0 / degree)) * lx
    u_star = max(0.0, math.sqrt(c1 * lx / degree) - log_d / degree)
    candidates = [0.0, u_star]
    # boundary where the 1/2 clamp activates, when it lies in range
    u_clamp = (2.0 * c1 - log_d) / degree
    if u_clamp > 0:
        candidates.append(u_clamp)
    classical = min(_classical_objective(u, log_d, degree, c1, lx) for u in candidates)
    return min(stark, classical)


def _check_large_params(q: float, eps: float, m: int) -> None:
    if q < 2:
        raise ParameterOutOfRange("Q must be >= 2")
    if not (0 < eps < 1):
        raise ParameterOutOfRange("eps must lie in (0, 1)")
    if m < 1:
        raise ParameterOutOfRange("m must be >= 1")


class LargeZfrEta(NamedTuple):
    """Closed-form eta lower bound from the dyadic zero-density region."""

    eta: float
    inf_phi1: float
    inf_phi2: float
    three_term_bound: float
    delta20: float


def eta_large_zfr_closed(
    q: float, eps: float, m: int, x: float, c1: float = DEFAULT_C1
) -> LargeZfrEta:
    """eta lower bound min(inf phi1, inf phi2) with exact convex minimizers.

    phi1(u) = c1 log x / (2 log Q + n u) + u  on u >= Q^{eps/2},
    phi2(u) = 20 delta log Q log x / (log Q + u) + u  on 0 <= u <= Q^{eps/2},
    n = m + 1, delta = eps / (1e9 m^3).  Also reports the displayed
    three-term bound on e^{-eta(x)}.
    """
    _check_large_params(q, eps, m)
    if x < 3:
        raise ParameterOutOfRange("x must be >= 3")
    if c1 <= 0:
        raise ParameterOutOfRange("c1 must be positive")
    n_deg = m + 1
    delta = eps / (1e9 * m**3)
    lq = math.log(q)
    lx = math.log(x)
    u_split = q ** (eps / 2.0)

    def phi1(u: float) -> float:
        return min(0.5, c1 / (2 * lq + n_deg * u)) * lx + u

    def phi2(u: float) -> float:
        return min(0.5, 20.0 * delta * lq / (lq + u)) * lx + u

    u1 = math.sqrt(c1 * lx / n_deg) - 2.0 * lq / n_deg
    cands1 = [u_split, max(u1, u_split)]
    u_clamp = (2.0 * c1 - 2.0 * lq) / n_deg
    if u_clamp > u_split:
        cands1.append(u_clamp)
    inf1 = min(phi1(u) for u in cands1)

    u2 = math.sqrt(20.0 * delta * lq * lx) - lq
    cands2 = [0.0, u_split, min(max(u2, 0.0), u_split)]
    inf2 = min(phi2(u) for u in cands2)

    three_term = (
        x ** (-20.0 * delta)
        + math.exp(-math.sqrt(20.0 * delta * lq * lx) - lq / 2.0)
        + math.exp(-math.sqrt(c1 * lx / n_deg) - u_split)
    )
    return LargeZfrEta(
        eta=min(inf1, inf2),
        inf_phi1=inf1,
        inf_phi2=inf2,
        three_term_bound=three_term,
        delta20=20.0 * delta,
    )


# -- eta profiles and the error multiplier --------------------------------------


class EtaProfile(NamedTuple):
    """An evaluable eta(x) with provenance."""

    label: str
    eta_fn: Callable[[float], float]

    def eta(self, x: float) -> float:
        if x < 3:
            raise ParameterOutOfRange("x must be >= 3")
        return float(self.eta_fn(x))


def classical_eta_profile(d_e: int, degree: int) -> EtaProfile:
    return EtaProfile(
        label=f"classical(D={d_e}, n={degree})",
        eta_fn=lambda x: eta_classical_closed(d_e, degree, DEFAULT_C1, x),
    )


def rational_eta_profile() -> EtaProfile:
    """eta for the Riemann zeta function itself: classical data with D=1, n=1."""
    return EtaProfile(
        label="zeta",
        eta_fn=lambda x: eta_classical_closed(1, 1, DEFAULT_C1, x),
    )


def error_factor(profile: EtaProfile, x: float, d_k: int) -> float:
    """The error multiplier e^{-eta(x)/8} log(e D_K); needs x >= (log(e D_K))^4."""
    threshold = math.log(math.e * abs(d_k)) ** 4
    if x < threshold:
        raise DomainTooSmall(f"x={x} is below (log(e D_K))^4 = {threshold:.3f}")
    return math.exp(-profile.eta(x) / 8.0) * math.log(math.e * abs(d_k))
