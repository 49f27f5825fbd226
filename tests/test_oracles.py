"""The Cauchy-identity oracle: partitions, Schur values from the closed-form
h_k, and its independence from the Newton rule it checks."""

import pytest

from chebotarev_lab import artin
from chebotarev_lab.arith import int_det
from chebotarev_lab.artin import LocalRootMultiset, coeff_a_KxK_prime
from chebotarev_lab.errors import ParameterOutOfRange
from chebotarev_lab.oracles import (
    Partition,
    PartitionTooLong,
    homogeneous_closed_form,
    partitions_of,
    rs_cauchy_coefficient,
    schur,
)


def test_partitions():
    parts = partitions_of(6, max_length=3)
    assert all(p.weight == 6 and p.length <= 3 for p in parts)
    assert len(partitions_of(6)) == 11
    assert partitions_of(0) == [Partition(())]
    with pytest.raises(ParameterOutOfRange):
        Partition((1, 2))


def test_schur_examples():
    ones = LocalRootMultiset(frobenius_order=1, group_order=3)  # {1, 1}
    assert schur(Partition(()), ones) == 1
    assert schur(Partition((1,)), ones) == 2
    # s_(2,1)(a, b) = ab(a + b) -> 2 at a = b = 1
    assert schur(Partition((2, 1)), ones) == 2
    with pytest.raises(PartitionTooLong):
        schur(Partition((1, 1, 1)), ones)


def test_schur_vanishing_beyond_variable_count():
    # Jacobi-Trudi gives 0 when the partition is longer than the multiset
    ell4 = Partition((2, 1, 1, 1))  # against {1, -1, -1}: Frobenius order 2 in a group of order 4
    mat = [[homogeneous_closed_form(2, 4, ell4.parts[i] - i + j) for j in range(4)] for i in range(4)]
    assert int_det(mat) == 0


def test_cauchy_oracle_does_not_read_the_newton_rule(catalog, monkeypatch):
    # with the Newton rule broken, the oracle keeps the values it had and the
    # production coefficient no longer matches them
    cases = [(catalog[a], catalog[b], p, j) for a, b, p in (("gaussian", "zeta5", 7), ("s3cubic", "zeta7", 13))
             for j in range(7)]
    want = [rs_cauchy_coefficient(*case) for case in cases]
    assert want == [coeff_a_KxK_prime(*case) for case in cases]

    def broken(orders, j):
        return 7

    monkeypatch.setattr(artin, "_homogeneous", broken)
    assert want == [rs_cauchy_coefficient(*case) for case in cases]
    assert all(coeff_a_KxK_prime(*case) == 7 for case in cases if case[3] > 0)  # j = 0 is 1 without the rule
    assert want.count(7) == 0
