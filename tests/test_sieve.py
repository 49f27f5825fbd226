import numpy as np
import pytest

from chebotarev_lab.errors import LimitTooLarge, SieveRangeExceeded
from chebotarev_lab.oracles import segmented_sieve_count, trial_division_primes
from chebotarev_lab.sieve import PrimeSieve, sieve_primes


def test_small_primes():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]


def test_hundred():
    sv = sieve_primes(100)
    assert len(sv) == 25
    assert sv.primes.tolist() == trial_division_primes(100)


def test_trial_division_oracle_to_1e4():
    assert sieve_primes(10**4).primes.tolist() == trial_division_primes(10**4)


def test_million_against_segmented_oracle():
    sv = sieve_primes(10**6)
    assert len(sv) == segmented_sieve_count(10**6) == 78498


def test_limits():
    with pytest.raises(LimitTooLarge):
        sieve_primes(1)
    with pytest.raises(LimitTooLarge):
        sieve_primes(10**8 + 1)


def test_range_guards(sieve_small):
    with pytest.raises(SieveRangeExceeded):
        sieve_small.count_leq(10**5)
    assert sieve_small.count_leq(10**4) == 1229


def test_primes_are_read_only():
    # one sieve object always holds the same primes, so what it keeps in ``derived`` stays valid
    with pytest.raises(ValueError):
        sieve_primes(100).primes[0] = 4
    given = np.array([2, 3, 5])
    hand = PrimeSieve(limit=5, primes=given)
    given[0] = 4  # the sieve holds its own copy
    assert hand.primes.tolist() == [2, 3, 5]
    with pytest.raises(ValueError):
        hand.primes[0] = 4
    with pytest.raises(ValueError):
        hand.upto(5)[1] = 4


def test_read_ahead_rule():
    sv = sieve_primes(10**5)  # 9592 primes
    # below the floor of 2^10 primes, a first request reads ahead to it
    assert [sv.read_ahead(0, need) for need in (1, 169, 1024, 1025)] == [1024, 1024, 1024, 1025]
    # past it, a prefix at least doubles, and takes all it is asked for
    assert [sv.read_ahead(have, need) for have, need in ((1024, 1025), (2048, 2049), (2048, 5000))] == [
        2048, 4096, 5000]
    # and never passes the end of the sieve
    assert [sv.read_ahead(have, need) for have, need in ((4096, 4097), (8192, 8193), (0, 9592))] == [
        8192, 9592, 9592]
    small = sieve_primes(100)  # 25 primes
    assert [small.read_ahead(0, 1), small.read_ahead(10, 25)] == [25, 25]
