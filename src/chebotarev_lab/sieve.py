"""Prime sieve shared by the counting and coefficient modules."""

from __future__ import annotations

import numpy as np

from .errors import LimitTooLarge, ParameterOutOfRange, SieveRangeExceeded

SIEVE_CAP = 10**8

_READ_AHEAD_FLOOR = 1 << 10
"""The least number of primes a prefix in ``derived`` grows to.

Each kernel call that fills a prefix has a fixed cost F and a cost c per
prime.  Measured with numpy on one core of a 2-vCPU x86-64 VM:

- the trace kernel of a cubic, F = 0.3-0.45 ms (~25 numpy calls per exponent
  bit) and c = 1.5-2.5 us;
- Euler's criterion for a quadratic, F = 0.06-0.1 ms and c = 0.15 us.

A call of N primes spends F / (F + cN) of its time on F, under a fifth for the
trace kernel once cN >= 4F, at N ~ 4 * 0.45 ms / 1.8 us ~ 1000, rounded to
2^10 (the primes p <= 8161).  The floor is paid once per field and sieve: the
worst case, a first request for a tiny x on a sieve of 2^10 primes or more,
classifies 2^10 primes, ~2 ms for a cubic, and keeps 2 KB of kinds and 8 KB of
log units.
"""


class PrimeSieve:
    """Ascending primes <= limit, built once and shared read-only.

    The sieve keeps its own read-only copy of ``primes``, so one sieve object
    always holds the same primes.  The layers above keep what they compute
    from those primes in ``derived``, keyed by (owner, descriptor), or by
    owner alone for what no field shapes, so it lives exactly as long as the
    sieve.  What they keep covers a prefix of the primes, grown by
    ``read_ahead`` alone.

    Its attributes are read-only, and sieves compare by identity.
    """

    __slots__ = ("limit", "primes", "derived", "__weakref__")

    def __init__(self, limit: int, primes: np.ndarray):
        primes = np.array(primes, dtype=np.int64)
        primes.flags.writeable = False
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "derived", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a PrimeSieve")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a PrimeSieve")

    def __reduce__(self):
        return PrimeSieve, (self.limit, self.primes)  # a copy starts with nothing derived

    def __repr__(self) -> str:
        return f"PrimeSieve(limit={self.limit!r})"

    def __len__(self) -> int:
        return int(self.primes.size)

    def read_ahead(self, have: int, need: int) -> int:
        """The size a prefix of ``have`` primes grows to when ``need`` > have
        primes are asked for: at least need, 2 * have and
        ``_READ_AHEAD_FLOOR``, and at most ``len(self)``.

        Doubling makes a session of rising x fill a prefix O(log x) times,
        and the floor keeps a kernel's fixed cost a small share of each fill,
        so a session to x <= 8161 fills each prefix once.
        """
        return min(len(self), max(need, 2 * have, _READ_AHEAD_FLOOR))

    def count_leq(self, x: float) -> int:
        """pi(x) for x <= limit; a NaN x is a ParameterOutOfRange."""
        if not x <= self.limit:
            _refuse(x, f"pi({x}) requested but sieve limit is {self.limit}")
        return int(self.primes.searchsorted(int(x), side="right"))

    def upto(self, x: float) -> np.ndarray:
        if not x <= self.limit:
            _refuse(x, f"primes up to {x} requested but sieve limit is {self.limit}")
        return self.primes[: self.count_leq(x)]


def _refuse(x: float, beyond: str) -> None:
    """Raise for an x that is not <= the limit: NaN, or a number beyond it."""
    if x != x:
        raise ParameterOutOfRange(f"x must be a number, got {x}")
    raise SieveRangeExceeded(beyond)


def sieve_primes(limit: int) -> PrimeSieve:
    """Sieve of Eratosthenes; limit must lie in [2, 10^8]."""
    if limit < 2:
        raise LimitTooLarge(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CAP:
        raise LimitTooLarge(f"sieve limit must be <= {SIEVE_CAP}, got {limit}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    primes = np.flatnonzero(mask)
    del mask  # freed before the sieve copies the primes
    return PrimeSieve(limit=limit, primes=primes)
