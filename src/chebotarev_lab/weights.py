"""The explicit smooth cutoff f_{x,eps} and its Laplace transform F(z).

f is the indicator of [1/2, 1 + eps/log x] convolved twice with the
normalized boxcar of width eps/(2 log x).  That reconstruction puts the
plateau exactly on [1/2, 1], the support inside
[1/2 - eps/log x, 1 + eps/log x], and reproduces the closed-form transform

    F(z) = e^{-(1 + eps/L) z} * ((1 - e^{(1/2 + eps/L) z})/(-z))
                              * ((1 - e^{eps z/(2L)})/(-eps z/(2L)))^2,

with L = log x, exactly.  f itself is piecewise quadratic and is evaluated in
closed form.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import ParameterOutOfRange

# below this magnitude the (1 - e^y)/(-y) factors switch to a degree-8 Taylor
# expansion; relative error there is far below 1e-12
TAYLOR_THRESHOLD = 1e-4
_TAYLOR_COEFFS = [1.0 / math.factorial(j + 1) for j in range(9)]


class _WeightRecord(NamedTuple):
    x: float
    eps: float
    log_x: float  # derived, as is boxcar_width: fields, as f_eval reads them per term
    boxcar_width: float  # w = eps / (2 log x)


class WeightParams(_WeightRecord):
    """Parameters of the cutoff: x >= 3 and eps in (0, 1/4).

    The constructor derives ``log_x`` and ``boxcar_width``; equality, hash
    and repr are those of (x, eps).  The memos of weighted sums keep the
    params they were built at and compare them with the next request's, so
    the constructor builds its 4-tuple in one step and two params compare
    their x and eps directly, with no slice of either side.
    """

    __slots__ = ()

    def __new__(cls, x: float, eps: float):
        if not (3 <= x < math.inf):
            raise ParameterOutOfRange(f"x must be finite and >= 3, got {x}")
        if not (0 < eps < 0.25):
            raise ParameterOutOfRange(f"eps must lie in (0, 1/4), got {eps}")
        log_x = math.log(x)
        return tuple.__new__(cls, (x, eps, log_x, eps / (2.0 * log_x)))

    def __getnewargs__(self):
        return self[:2]

    @classmethod
    def _make(cls, values):
        # _replace comes here: check and derive again, as the constructor does
        return cls(*tuple(values)[:2])

    def __eq__(self, other):
        if isinstance(other, WeightParams):
            return self.x == other.x and self.eps == other.eps
        return self[:2] == other

    def __ne__(self, other):
        if isinstance(other, WeightParams):
            return self.x != other.x or self.eps != other.eps
        return not self[:2] == other

    def __hash__(self) -> int:
        return hash(self[:2])

    def __repr__(self) -> str:
        return f"WeightParams(x={self.x!r}, eps={self.eps!r})"

    @property
    def plateau(self) -> tuple[float, float]:
        return (0.5, 1.0)

    @property
    def support(self) -> tuple[float, float]:
        e = self.eps / self.log_x
        return (0.5 - e, 1.0 + e)

    def knots(self) -> list[float]:
        """Breakpoints of the piecewise-quadratic closed form, ascending."""
        w = self.boxcar_width
        a, b = 0.5, 1.0 + 2.0 * w
        return [a - 2 * w, a - w, a, b - 2 * w, b - w, b]


def _smoothed_step(s: float, w: float) -> float:
    """CDF at s of the triangular kernel supported on [-2w, 0]."""
    if s >= 0:
        return 1.0
    if s <= -2 * w:
        return 0.0
    if s <= -w:
        u = s + 2 * w
        return u * u / (2 * w * w)
    return 1.0 - s * s / (2 * w * w)


def below_support(params: WeightParams, t: float) -> bool:
    """Whether t - 1/2 <= -2w, the test by which both steps of ``f_eval`` give 0.0, so f(t) is exactly 0.0."""
    return t - 0.5 <= -2 * params.boxcar_width


def f_eval(params: WeightParams, t: float) -> float:
    """The weight f(t): 1 on [1/2, 1], quadratic ramps, 0 outside the support."""
    w = params.boxcar_width
    a = 0.5
    b = 1.0 + 2.0 * w
    return _smoothed_step(t - a, w) - _smoothed_step(t - b, w)


def _expm1_complex(y: complex) -> complex:
    """e^y - 1 without cancellation: expm1/cos/sin building blocks."""
    a, b = y.real, y.imag
    return complex(
        math.expm1(a) * math.cos(b) - 2.0 * math.sin(b / 2.0) ** 2,
        math.exp(a) * math.sin(b),
    )


def _phi(y: complex) -> complex:
    """(1 - e^y)/(-y), the transform of a unit-mass boxcar; entire in y."""
    if abs(y) < TAYLOR_THRESHOLD:
        total = 0.0 + 0.0j
        power = 1.0 + 0.0j
        for c in _TAYLOR_COEFFS:
            total += c * power
            power *= y
        return total
    return _expm1_complex(y) / y


def laplace_F(params: WeightParams, z: complex) -> complex:
    """Closed-form Laplace transform F(z) = int f(t) e^{-zt} dt (entire)."""
    z = complex(z)
    length = 0.5 + params.eps / params.log_x
    w = params.boxcar_width
    shift = cmath.exp(-(1.0 + params.eps / params.log_x) * z)
    return shift * length * _phi(length * z) * _phi(w * z) ** 2


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


def check_decay_right_halfplane(params: WeightParams, s: complex) -> BoundCheck:
    """Decay bound for |F(-s log x)| on the right half-plane Re(s) > 0."""
    sigma = s.real
    if sigma <= 0:
        raise ParameterOutOfRange("the half-plane decay bound needs Re(s) > 0")
    lx = params.log_x
    eps = params.eps
    lhs = abs(laplace_F(params, -s * lx))
    decay = (1.0 + params.x ** (-sigma / 2.0)) / (abs(s) * lx) * (4.0 / (eps * abs(s))) ** 2
    rhs = math.exp(sigma * eps) * params.x**sigma * min(1.0, decay)
    return BoundCheck(lhs=lhs, rhs=rhs)


def check_decay_shifted_line(params: WeightParams, t: float) -> BoundCheck:
    """Decay bound for |F(-s log x)| on the line s = -1/2 + it."""
    s = complex(-0.5, t)
    lx = params.log_x
    lhs = abs(laplace_F(params, -s * lx))
    rhs = 5.0 * params.x ** (-0.25) / lx * (4.0 / params.eps) ** 2 / (0.25 + t * t)
    return BoundCheck(lhs=lhs, rhs=rhs)
