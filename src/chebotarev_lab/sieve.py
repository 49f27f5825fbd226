"""Prime sieve shared by the counting and coefficient modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LimitTooLarge, SieveRangeExceeded

SIEVE_CAP = 10**8


@dataclass(frozen=True)
class PrimeSieve:
    """Ascending primes <= limit, built once and shared read-only.

    The sieve keeps its own read-only copy of ``primes``, so one sieve object
    always holds the same primes.  The layers above keep what they compute
    from those primes in ``derived``, keyed by (owner, descriptor), or by
    owner alone for what no field shapes, so it lives exactly as long as the
    sieve.
    """

    limit: int
    primes: np.ndarray = field(repr=False)
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        primes = np.array(self.primes, dtype=np.int64)
        primes.flags.writeable = False
        object.__setattr__(self, "primes", primes)

    def __len__(self) -> int:
        return int(self.primes.size)

    def count_leq(self, x: float) -> int:
        """pi(x) for x <= limit."""
        if x > self.limit:
            raise SieveRangeExceeded(f"pi({x}) requested but sieve limit is {self.limit}")
        return int(self.primes.searchsorted(int(x), side="right"))

    def upto(self, x: float) -> np.ndarray:
        if x > self.limit:
            raise SieveRangeExceeded(f"primes up to {x} requested but sieve limit is {self.limit}")
        return self.primes[: self.count_leq(x)]


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
