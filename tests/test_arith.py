import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev_lab.arith import (
    PRIME_TEST_LIMIT,
    factorize,
    fundamental_disc,
    int_det,
    is_prime,
    kronecker_symbol,
    poly_discriminant,
    squarefree_part,
)
from chebotarev_lab.errors import ParameterOutOfRange
from chebotarev_lab.sieve import sieve_primes

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 97, 101, 997]


def test_kronecker_euler_criterion():
    # oracle: Euler's criterion at odd primes
    for p in ODD_PRIMES:
        for a in range(-50, 51):
            e = pow(a % p, (p - 1) // 2, p)
            want = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert kronecker_symbol(a, p) == want, (a, p)


def test_kronecker_at_two():
    assert kronecker_symbol(1, 2) == 1
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(3, 2) == -1
    assert kronecker_symbol(4, 2) == 0
    assert kronecker_symbol(-4, 2) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(-300, 300), st.integers(1, 300), st.integers(1, 300))
def test_kronecker_multiplicative_in_n(a, n, m):
    assert kronecker_symbol(a, n * m) == kronecker_symbol(a, n) * kronecker_symbol(a, m)


def test_factorize_and_squarefree():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert squarefree_part(8) == 2
    assert squarefree_part(-12) == -3
    assert squarefree_part(1) == 1
    with pytest.raises(ParameterOutOfRange):
        factorize(10**13)


def test_fundamental_disc():
    # the discriminant of Q(sqrt d) for any nonzero d
    assert [fundamental_disc(d) for d in (-1, 2, 3, 5, -3, 12, -45, 20, 200003, -800012)] == \
        [-4, 8, 12, 5, -3, 12, -20, 5, 800012, -200003]
    # d is fundamental exactly when it is 1 mod 4 and squarefree, or 4m with m = 2, 3 mod 4 squarefree
    for d in range(-200, 201):
        if d in (0, 1):
            continue
        m = d // 4
        want = (d % 4 == 1 and squarefree_part(d) == d) or (d % 4 == 0 and m % 4 in (2, 3) and squarefree_part(m) == m)
        assert (fundamental_disc(d) == d) == want, d


def test_poly_discriminant_values():
    assert poly_discriminant([-1, -1, 0, 1]) == -23  # x^3 - x - 1
    assert poly_discriminant([-1, 1, 0, 1]) == -31  # x^3 + x - 1
    assert poly_discriminant([1, 0, 1]) == -4  # x^2 + 1
    assert poly_discriminant([1, 1, 1, 1, 1]) == 125  # Phi_5
    assert poly_discriminant([-2, 0, 1]) == 8  # x^2 - 2
    assert poly_discriminant([-1, -2, 1, 1]) == 49  # Q(zeta_7)^+ cubic


def test_int_det():
    assert int_det([[3, 4], [1, 2]]) == 2
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0


# the least strong pseudoprimes to the first 4, 5, 6, 8, 11 and 12 prime bases, two Carmichael numbers,
# and numbers on both sides of 2^61 and 10^12
PRIMALITY_CASES = {
    3215031751: False, 2152302898747: False, 3474749660383: False, 341550071728321: False,
    3825123056546413051: False, 318665857834031151167461: False, 561: False, 41041: False,
    2**61 - 1: True, 2**61 + 1: False, 999999999989: True, 10**12 + 39: True, 10**12 + 37: False,
}


def test_is_prime_against_the_sieve_and_pseudoprimes():
    assert [n for n in range(-10, 10**5) if is_prime(n)] == sieve_primes(10**5).primes.tolist()
    assert {n: is_prime(n) for n in PRIMALITY_CASES} == PRIMALITY_CASES
    with pytest.raises(ParameterOutOfRange):
        is_prime(PRIME_TEST_LIMIT)  # the least number the test would call prime wrongly
