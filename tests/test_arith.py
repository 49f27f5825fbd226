import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev_lab.arith import (
    factorize,
    int_det,
    kronecker_symbol,
    poly_discriminant,
    squarefree_part,
)
from chebotarev_lab.errors import ParameterOutOfRange

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
