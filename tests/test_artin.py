import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev_lab import artin
from chebotarev_lab.arith import factorize, kronecker_symbol
from chebotarev_lab.artin import (
    LocalRootMultiset,
    Partition,
    _unramified_orders,
    coeff_a_K,
    coeff_a_KxK_prime,
    euler_factor_series,
    local_roots,
    mertens_partial_sum,
    partitions_of,
    prime_coefficients,
    schur,
    series_a_K,
    series_a_KxK,
)
from chebotarev_lab.errors import (
    LimitTooLarge,
    NotCoprimeToDiscriminant,
    ParameterOutOfRange,
    PartitionTooLong,
    RamifiedPrime,
)
from chebotarev_lab.fields import parse_catalog, quadratic_field
from chebotarev_lab.oracles import gaussian_ideal_count, rs_cauchy_coefficient, rs_product_coefficients
from chebotarev_lab.sieve import sieve_primes
from test_fields import _table_fields

S3X2_ROW = "s3x2 | -8 -4 0 1 | S3 | -12167\n"  # s3cubic's field, with the index divisor 2


def test_local_roots_examples(catalog):
    r = LocalRootMultiset(frobenius_order=1, group_order=4)
    assert r.multiplicities() == {0: 3}
    assert r.size == 3
    inert = LocalRootMultiset(frobenius_order=6, group_order=6)
    mults = inert.multiplicities()
    assert sum(mults.values()) == 5 and mults.get(0, 0) == 0
    # Q(i) at p=3: the single root -1
    roots = local_roots(catalog["gaussian"], 3)
    assert roots.roots_complex() == [pytest.approx(-1.0)]
    with pytest.raises(RamifiedPrime):
        local_roots(catalog["gaussian"], 2)


def test_euler_factor_series_examples(catalog):
    # split prime (d=1): a(p^k) = C(m+k-1, k)
    z7 = catalog["zeta7"]  # |G| = 6, m = 5
    series = euler_factor_series(z7, 29, 8)  # 29 = 1 mod 7 splits
    assert series == [math.comb(5 + k - 1, k) for k in range(9)]
    # Q(i) at p=3: (1-T)/(1-T^2) = 1/(1+T)
    assert euler_factor_series(catalog["gaussian"], 3, 6) == [(-1) ** k for k in range(7)]
    # cyclic C3 inert: (1-T)(1+T^3+T^6+...) by long division
    series = euler_factor_series(catalog["cyclo7plus"], 2, 7)
    assert series == [1, -1, 0, 1, -1, 0, 1, -1]
    with pytest.raises(ParameterOutOfRange):
        euler_factor_series(catalog["gaussian"], 3, 25)


def test_coeff_a_K_examples(catalog):
    g = catalog["gaussian"]
    assert coeff_a_K(g, 1) == 1
    assert coeff_a_K(g, 15) == -1  # chi(3) chi(5) = (-1)(1)
    assert coeff_a_K(g, 9) == 1
    with pytest.raises(NotCoprimeToDiscriminant):
        coeff_a_K(g, 6)


def test_quadratic_character_equivalence(catalog):
    for name, disc in (("gaussian", -4), ("sqrt5", 5)):
        fd = catalog[name]
        for n in range(1, 2001):
            if math.gcd(n, abs(disc)) == 1:
                assert coeff_a_K(fd, n) == kronecker_symbol(disc, n), (name, n)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 400), st.integers(2, 400))
def test_a_K_multiplicative(n, m):
    fd_cache = test_a_K_multiplicative._fd
    if math.gcd(n, m) != 1 or math.gcd(n * m, fd_cache.abs_disc) != 1:
        return
    assert coeff_a_K(fd_cache, n * m) == coeff_a_K(fd_cache, n) * coeff_a_K(fd_cache, m)


def _attach_field():
    from chebotarev_lab.fields import builtin_field

    test_a_K_multiplicative._fd = builtin_field("zeta5")


_attach_field()


def test_zeta_consistency_ideal_counts(catalog):
    # coefficients of zeta * L(chi_K) match Z[i] ideal counts for n <= 1000
    g = catalog["gaussian"]
    series = series_a_K(g, 1000)
    for n in range(1, 1001):
        conv = sum(series.get(d, 0) for d in range(1, n + 1) if n % d == 0)
        assert conv == gaussian_ideal_count(n), n


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
    roots = LocalRootMultiset(frobenius_order=2, group_order=4)  # {1, -1, -1}
    ell4 = Partition((2, 1, 1, 1))
    mat = [[roots.h(ell4.parts[i] - (i + 1) + (j + 1)) for j in range(4)] for i in range(4)]
    from chebotarev_lab.arith import int_det

    assert int_det(mat) == 0


def test_cauchy_prime_power_values(catalog):
    g = catalog["gaussian"]
    assert coeff_a_KxK_prime(g, g, 3, 0) == 1
    assert coeff_a_KxK_prime(g, g, 3, 1) == coeff_a_K(g, 3) * coeff_a_K(g, 3) == 1
    # Euler-product oracle value: alpha = alpha' = -1 gives (1 - T)^{-1}
    assert coeff_a_KxK_prime(g, g, 3, 2) == 1
    with pytest.raises(RamifiedPrime):
        coeff_a_KxK_prime(g, g, 2, 1)


def test_rankin_selberg_beyond_exponent_8(catalog):
    # Newton's identity against the Cauchy sum and the Euler product, past the
    # exponents the Cauchy sum alone was once limited to
    pairs = [("s3cubic", "zeta7"), ("sqrt5", "zeta7"), ("zeta5", "zeta5"), ("gaussian", "rational")]
    for a, b in pairs:
        f1, f2 = catalog[a], catalog[b]
        for p in (2, 3, 11, 13, 29, 43):
            if f1.is_ramified(p) or f2.is_ramified(p):
                continue
            oracle = rs_product_coefficients(f1, f2, p, 12)
            for j in range(13):
                got = coeff_a_KxK_prime(f1, f2, p, j)
                assert abs(got - oracle[j]) < 1e-6, (a, b, p, j)
                if j <= 9:
                    assert got == rs_cauchy_coefficient(f1, f2, p, j), (a, b, p, j)
    with pytest.raises(ParameterOutOfRange):
        coeff_a_KxK_prime(catalog["gaussian"], catalog["sqrt5"], 3, -1)


def test_series_match_per_n_coefficients(catalog):
    # the sieve-built series against n-by-n factorization and frobenius_data
    for name, fd in catalog.items():
        n_max = 3000
        want = {n: coeff_a_K(fd, n) for n in range(1, n_max + 1) if math.gcd(n, fd.abs_disc) == 1}
        assert series_a_K(fd, n_max) == want, name
    for a, b in (("s3cubic", "zeta7"), ("sqrt5", "zeta7"), ("gaussian", "zeta5"), ("cyclo7plus", "cyclo7plus")):
        f1, f2 = catalog[a], catalog[b]
        want = {}
        for n in range(1, 701):
            if math.gcd(n, f1.abs_disc * f2.abs_disc) == 1:
                want[n] = 1
                for p, e in factorize(n).items():
                    want[n] *= coeff_a_KxK_prime(f1, f2, p, e)
        assert series_a_KxK(f1, f2, 700) == want, (a, b)
    assert series_a_K(catalog["gaussian"], 0) == {}
    assert series_a_K(catalog["gaussian"], 1) == {1: 1}


def test_series_index_divisor_is_ramified(catalog):
    # x^3 - 4x - 8 = 8 (y^3 - y - 1) at x = 2y generates s3cubic's field, but
    # 2 divides its disc -1472 = 2^6 (-23) and not D_K = -23^3: the table marks
    # 2 ramified, and the series fails at the smallest such prime, naming why
    s3x2 = parse_catalog("s3x2 | -8 -4 0 1 | S3 | -12167\n")[0]
    with pytest.raises(RamifiedPrime, match="^s3x2: p=2 divides disc f but not D_K$"):
        series_a_K(s3x2, 10)
    with pytest.raises(RamifiedPrime, match="^s3x2: p=2 divides disc f but not D_K$"):
        coeff_a_K(s3x2, 2)
    with pytest.raises(RamifiedPrime, match="^s3x2: p=2 divides disc f but not D_K$"):
        series_a_KxK(catalog["sqrt5"], s3x2, 10)
    with pytest.raises(RamifiedPrime, match="^s3x2: p=2 divides disc f but not D_K$"):
        mertens_partial_sum(s3x2, 1.0, 100)
    assert series_a_K(s3x2, 1) == {1: 1}


def test_quadratic_index_divisor_is_exact(catalog):
    # 2 and 3 divide disc(x^2 - 45) = 180 but not D_K = 5: chi_5 classifies them
    bad5 = parse_catalog("bad5 | -45 0 1 | C2 | 5\n")[0]
    q5 = quadratic_field(5)
    assert coeff_a_K(bad5, 3) == -1  # 3 is inert in Q(sqrt 5)
    assert series_a_K(bad5, 300) == series_a_K(q5, 300)
    assert series_a_KxK(catalog["gaussian"], bad5, 100) == series_a_KxK(catalog["gaussian"], q5, 100)
    assert mertens_partial_sum(bad5, 1.0, 100) == mertens_partial_sum(q5, 1.0, 100)


def test_a_KxK_multiplicative_and_bounded(catalog):
    g, z5 = catalog["gaussian"], catalog["zeta5"]
    g_z5 = series_a_KxK(g, z5, 21)
    assert g_z5[21] == g_z5[3] * g_z5[7]
    assert g_z5[1] == 1
    # |a_{KxK'}(n)| <= d_{m^2}(n), the coefficient of zeta^{m^2}
    r = z5.m**2
    z5_z5 = series_a_KxK(z5, z5, 63)
    for n in (3, 7, 9, 21, 49, 63):
        d_r = math.prod(math.comb(e + r - 1, r - 1) for e in factorize(n).values())
        assert abs(z5_z5[n]) <= d_r
    # m = 1: d_1(n) = 1 bounds everything
    g_g = series_a_KxK(g, g, 77)
    for n in (3, 7, 11, 21, 33, 77):
        assert abs(g_g[n]) <= 1


def test_mertens_bound_all_fields(catalog):
    for name in ("rational", "gaussian", "sqrt5", "zeta5", "cyclo7plus", "zeta7", "s3cubic"):
        fd = catalog[name]
        for eta in (0.1, 0.5, 1.0, 2.0):
            val = mertens_partial_sum(fd, eta, 2000)
            assert val <= fd.m / eta + 1e-12, (name, eta, val)


def test_mertens_oracle_value(catalog):
    # direct-summation oracle (reverse evaluation order) for Q(i), eta=1, N=1e4
    fd = catalog["gaussian"]
    value = mertens_partial_sum(fd, 1.0, 10**4)
    terms = []
    for p in range(10**4, 2, -1):
        if any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            continue
        pk = p
        while pk <= 10**4:
            terms.append(math.log(p) / pk**2)
            pk *= p
    oracle = sum(terms)  # plain sum, reversed order
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(0.3388120850385017, abs=1e-12)
    assert value < 1.0  # m / eta


def test_prime_power_sums_match_per_prime_route(catalog):
    # the table-driven sum against local_roots at each prime, with the same
    # float expression summed in the same order, so they agree exactly
    n_max = 3000
    primes = [p for p in range(2, n_max + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for name, fd in catalog.items():
        powers = []  # (p^k, log p, lambda_K(p^k)), p then k ascending
        for p in primes:
            if fd.is_ramified(p):
                continue
            roots = local_roots(fd, p)
            pk, k = p, 1
            while pk <= n_max:
                # p_k(A_K(p)), the k-th power sum of the local roots
                powers.append((pk, math.log(p), round(sum(z**k for z in roots.roots_complex()).real)))
                pk *= p
                k += 1
        for eta in (0.1, 0.5, 1.0, 2.0):
            want = math.fsum([abs(lam) * logp / pk ** (1.0 + eta) for pk, logp, lam in powers])
            assert mertens_partial_sum(fd, eta, n_max) == want, (name, eta)


def _is_multiplicative(a, n_max):
    return all(a[n * q] == a[n] * a[q] for n in a for q in a if n * q <= n_max and math.gcd(n, q) == 1)


def test_series_multiplicative(catalog):
    series = series_a_K(catalog["sqrt5"], 300)
    assert _is_multiplicative(series, 300)
    from chebotarev_lab.artin import series_a_KxK

    pair = series_a_KxK(catalog["gaussian"], catalog["zeta5"], 150)
    assert _is_multiplicative(pair, 150)


def test_local_roots_conjugation_closed(nontrivial_fields, sieve_small):
    # A_K(p) closed under complex conjugation: the multiset of residues r is
    # closed under r -> d - r; power sums (hence all coefficients) are real
    for fd in nontrivial_fields:
        for p in sieve_small.upto(60).tolist():
            if fd.is_ramified(p):
                continue
            roots = local_roots(fd, p)
            mults = roots.multiplicities()
            d = roots.frobenius_order
            assert all(mults[r] == mults[(d - r) % d] for r in mults)
            total = sum(roots.roots_complex())
            assert abs(total.imag) < 1e-10


# -- the reader of unramified Frobenius orders -----------------------------------


@pytest.mark.parametrize("fd", _table_fields() + parse_catalog(S3X2_ROW), ids=lambda fd: fd.name)
def test_unramified_orders_match_the_per_prime_route(fd):
    # the primes y < p <= x off the tables against local_roots one prime at a
    # time, which raises at an index divisor and only there
    x = 3000
    sieve = sieve_primes(x)
    raised = []
    for y in (1, 2, 2.5, 23, 23.5):
        roots, error = {}, None
        for p in sieve.upto(x).tolist():
            if p <= y or fd.is_ramified(p):
                continue
            try:
                roots[p] = local_roots(fd, p)
            except RamifiedPrime as exc:
                error = str(exc)
                break
        if error is not None:
            with pytest.raises(RamifiedPrime, match=f"^{re.escape(error)}$"):
                _unramified_orders((fd,), sieve, y, x)
            with pytest.raises(RamifiedPrime, match=f"^{re.escape(error)}$"):
                prime_coefficients(fd, sieve, y, x)
            raised.append(y)
            continue
        primes, orders = _unramified_orders((fd,), sieve, y, x)
        assert orders.dtype == np.int16 and orders.shape == (1, len(roots)), (fd.name, y)
        assert primes.tolist() == list(roots), (fd.name, y)
        assert orders[0].tolist() == [r.frobenius_order for r in roots.values()], (fd.name, y)
        assert prime_coefficients(fd, sieve, y, x) == {p: r.h(1) for p, r in roots.items()}, (fd.name, y)
    # s3x2's index divisor 2 leaves the window from y = 2 on; big has index divisors 5 and 109
    assert raised == {"s3x2": [1], "big": [1, 2, 2.5, 23, 23.5]}.get(fd.name, [])


def test_unramified_orders_of_a_pair(catalog):
    # an index divisor of one field that divides the other's D_K is left out;
    # one that divides neither raises, naming the field that has it
    s3x2, s3cubic, gaussian, sqrt5 = parse_catalog(S3X2_ROW)[0], *map(catalog.get, ("s3cubic", "gaussian", "sqrt5"))
    sieve = sieve_primes(400)
    got = _unramified_orders((s3x2, gaussian), sieve, 1, 400)
    want = _unramified_orders((s3cubic, gaussian), sieve, 1, 400)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert want[0][:2].tolist() == [3, 5] and want[1].shape == (2, want[0].size)
    assert series_a_KxK(s3x2, gaussian, 400) == series_a_KxK(s3cubic, gaussian, 400)
    for pair in ((s3x2, sqrt5), (sqrt5, s3x2)):
        with pytest.raises(RamifiedPrime, match="^s3x2: p=2 divides disc f but not D_K$"):
            _unramified_orders(pair, sieve, 1, 400)


def test_series_term_cap_raises_before_sieving(catalog, monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(artin, "sieve_primes", refuse)
    n = artin.MAX_SERIES_TERMS + 1
    message = f"^series truncation must be <= {artin.MAX_SERIES_TERMS}, got {n}$"
    with pytest.raises(LimitTooLarge, match=message):
        series_a_K(catalog["gaussian"], n)
    with pytest.raises(LimitTooLarge, match=message):
        series_a_KxK(catalog["gaussian"], catalog["zeta5"], n)
