import math
import subprocess
import sys

import numpy as np
import pytest

from chebotarev_lab.artin import coeff_a_K
from chebotarev_lab.errors import ComputationError, LimitTooLarge, ParameterOutOfRange, RamifiedPrime, ValidationError
from chebotarev_lab.families import Family
from chebotarev_lab.fields import parse_catalog, quadratic_field
from chebotarev_lab.large_sieve import (
    DirichletPolynomial,
    MeanValueWindow,
    msq_integral,
    mvt_primes_lhs,
    mvt_report,
    prime_polynomial,
    zero_density_report,
)
from chebotarev_lab.oracles import (
    adaptive_simpson,
    gallagher_window_integral,
    msq_integral_pairwise,
    msq_integral_quadrature,
)
from chebotarev_lab.sieve import sieve_primes

QUADS = [quadratic_field(d) for d in (-1, 2, 3, 5, -2, -3, 7, -7, 11, 13)]


def test_msq_examples():
    single = DirichletPolynomial({5: math.log(5) / 5})
    assert msq_integral(single, 1.0) == pytest.approx(2 * (math.log(5) / 5) ** 2, abs=1e-12)
    assert msq_integral(DirichletPolynomial({}), 1.0) == 0.0
    # two equal coefficients at n = 2, 3: integral vanishes linearly as T -> 0+
    pair = DirichletPolynomial({2: 1.0, 3: 1.0})
    small = msq_integral(pair, 1e-6)
    tiny = msq_integral(pair, 1e-7)
    assert small == pytest.approx(10 * tiny, rel=1e-4)
    for t_height, value in ((1e-6, small), (1e-7, tiny)):
        assert value == pytest.approx(msq_integral_pairwise(pair, t_height), rel=1e-12)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterOutOfRange):
            msq_integral(single, bad)


def test_msq_against_quadrature_random():
    rng = np.random.default_rng(99)
    for _ in range(20):
        ns = rng.choice(np.arange(2, 500), size=15, replace=False)
        poly = DirichletPolynomial({int(n): complex(rng.normal(), rng.normal()) for n in ns})
        for t_height in (0.5, 1.0, 10.0):
            value = msq_integral(poly, t_height)
            quad = msq_integral_quadrature(poly, t_height)
            assert value == pytest.approx(quad, abs=1e-8)
            assert value == pytest.approx(msq_integral_pairwise(poly, t_height), rel=1e-12)
            assert value >= -1e-12


def recursive_simpson(f, a, b, tol=1e-10, max_depth=60):
    """Adaptive Simpson one interval at a time, on a scalar integrand: the
    reference for the breadth-first oracle."""

    def rec(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        flm, frm = f(0.5 * (lo + mid)), f(0.5 * (mid + hi))
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + rec(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return rec(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, max_depth)


def test_adaptive_simpson_rejects_non_finite_integrand():
    # the ends are finite but the first new point, 0.25, is not; and an inf integrand
    with pytest.raises(ComputationError, match="not finite"):
        adaptive_simpson(lambda t: np.where(t == 0.25, np.nan, np.sin(t)), 0.0, 1.0)
    with pytest.raises(ComputationError, match="not finite"):
        adaptive_simpson(lambda t: np.full_like(t, np.inf), 0.0, 1.0)


def test_adaptive_simpson_matches_recursive_reference():
    # a sharp peak refines near 0 only; the depth cap closes every interval at once
    assert adaptive_simpson(lambda t: 1.0 / (1.0 + 400.0 * t * t), -1.0, 2.0) == recursive_simpson(
        lambda t: 1.0 / (1.0 + 400.0 * t * t), -1.0, 2.0
    )
    assert adaptive_simpson(lambda t: t**4, 0.0, 1.0, tol=1e-300, max_depth=6) == recursive_simpson(
        lambda t: t**4, 0.0, 1.0, tol=1e-300, max_depth=6
    )
    # at this seed, np.abs(...) ** 2 for the array integrand moves two of the six values in the last bit
    rng = np.random.default_rng(3)
    for _ in range(2):
        ns = rng.choice(np.arange(2, 400), size=30, replace=False)
        poly = DirichletPolynomial({int(n): complex(rng.normal(), rng.normal()) for n in ns})
        coeffs = np.array([poly.terms[n] for n in poly.support])
        logs = np.log(np.array(poly.support, dtype=float))
        for t_height in (0.5, 1.0, 10.0):
            reference = recursive_simpson(
                lambda t: abs(np.sum(coeffs * np.exp(-1j * t * logs))) ** 2, -t_height, t_height
            )
            assert msq_integral_quadrature(poly, t_height) == reference


def test_msq_prime_polynomial_against_pairwise(catalog):
    # the benchmark's window: N = 2761 terms, 32 nodes against N^2 pairs
    poly = prime_polynomial(catalog["gaussian"], 2.0, 25_000.0, sieve_primes(25_000))
    assert len(poly.support) == 2761
    for t_height in (1.0, 10.0):
        assert msq_integral(poly, t_height) == pytest.approx(msq_integral_pairwise(poly, t_height), rel=1e-12)


def test_msq_size_guard():
    poly = DirichletPolynomial({2: 1.0, 3: 1.0, 10**6: 1.0})
    with pytest.raises(LimitTooLarge):
        msq_integral(poly, 1e12)


def test_prime_polynomial_index_divisor(catalog, sieve_small):
    # 2 divides disc(x^3 - 4x - 8) = 2^6 (-23) but not D_K: the window must leave it out
    s3x2 = parse_catalog("s3x2 | -8 -4 0 1 | S3 | -12167\n")[0]
    with pytest.raises(RamifiedPrime, match="^s3x2: p=2 divides disc f but not D_K$"):
        prime_polynomial(s3x2, 1.0, 100.0, sieve_small)
    assert prime_polynomial(s3x2, 2.0, 100.0, sieve_small).terms == \
        prime_polynomial(catalog["s3cubic"], 2.0, 100.0, sieve_small).terms
    # a quadratic's index divisors 2 and 3 are classified by chi_{D_K}
    bad5 = parse_catalog("bad5 | -45 0 1 | C2 | 5\n")[0]
    assert prime_polynomial(bad5, 1.0, 100.0, sieve_small).terms == \
        prime_polynomial(quadratic_field(5), 1.0, 100.0, sieve_small).terms


# Starts its argv and prints the exit code and peak RSS (ru_maxrss) of that
# child alone.  A child started straight from the test process can report the
# test process's own peak RSS, which exec carries over on Linux.
_MEASURE = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_large_sieve_memory_at_u_1e5():
    # N = 9591 terms: the pairwise N x N arrays would need several GB
    cli = [sys.executable, "-m", "chebotarev_lab.cli", "large-sieve", "--fields", "gaussian,sqrt5",
           "--Q", "10", "--y", "2", "--u", "100000"]
    proc = subprocess.run([sys.executable, "-c", _MEASURE, *cli], capture_output=True, text=True, check=True)
    code, maxrss_kb = (int(tok) for tok in proc.stdout.split())
    assert code == 0, proc.stderr
    assert maxrss_kb / 1024 < 200, maxrss_kb


def test_msq_monotone_in_T():
    rng = np.random.default_rng(4)
    ns = rng.choice(np.arange(2, 100), size=8, replace=False)
    poly = DirichletPolynomial({int(n): complex(rng.normal(), rng.normal()) for n in ns})
    values = [msq_integral(poly, t) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_msq_conjugation_symmetry():
    # |sum c(n) n^{-it}|^2 integrated symmetrically: conjugating every
    # coefficient leaves the value unchanged
    rng = np.random.default_rng(21)
    ns = rng.choice(np.arange(2, 150), size=10, replace=False)
    terms = {int(n): complex(rng.normal(), rng.normal()) for n in ns}
    conj = {n: c.conjugate() for n, c in terms.items()}
    a = msq_integral(DirichletPolynomial(terms), 3.0)
    b = msq_integral(DirichletPolynomial(conj), 3.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_mvt_primes(sieve_small, catalog):
    g = catalog["gaussian"]
    family = Family(fields=(g,), q_bound=10.0)
    empty = MeanValueWindow(t_height=1.0, y=7.0, u=7.0)
    assert mvt_primes_lhs(family, empty, sieve_small) == 0.0
    lhs = mvt_primes_lhs(family, MeanValueWindow(t_height=1.0, y=2.0, u=20.0), sieve_small)
    poly = prime_polynomial(g, 2.0, 20.0, sieve_small)
    assert lhs == pytest.approx(msq_integral_quadrature(poly, 1.0), abs=1e-6)
    bigger = MeanValueWindow(t_height=2.0, y=2.0, u=20.0)
    assert mvt_primes_lhs(family, bigger, sieve_small) >= lhs - 1e-12


def test_gallagher_consistency():
    # closed integral <= C_g T^2 integral of windowed sums; C_g stable across seeds
    ratios_by_seed = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(20):
            ns = rng.choice(np.arange(2, 400), size=12, replace=False)
            terms = {int(n): complex(rng.normal(), rng.normal()) for n in ns}
            poly = DirichletPolynomial(terms)
            for t_height in (0.5, 1.0, 2.0):
                lhs = msq_integral(poly, t_height)
                rhs = t_height**2 * gallagher_window_integral(terms, t_height)
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
        ratios_by_seed.append(worst)
    a, b = ratios_by_seed
    assert 0.5 <= a / b <= 2.0, ratios_by_seed


def test_duality_eigenvalues(sieve_small):
    # max eigenvalue of M* M equals that of M M* for the coefficient matrix
    rng = np.random.default_rng(12)
    ns = [int(n) for n in rng.choice(np.arange(5, 200), size=9, replace=False)]
    mat = np.array(
        [[coeff_a_K(fd, n) if math.gcd(n, fd.abs_disc) == 1 else 0.0 for n in ns] for fd in QUADS]
    )
    left = np.max(np.linalg.eigvalsh(mat @ mat.T))
    right = np.max(np.linalg.eigvalsh(mat.T @ mat))
    assert left == pytest.approx(right, abs=1e-8)


def test_zero_density_report(catalog):
    family = Family(fields=tuple(QUADS), q_bound=60.0)
    assert family.multiplicity == 1 and family.m == 1
    at_one = zero_density_report(family, 10.0, 1.0)
    # exponent vanishes at sigma = 1: shape is m_F (log QT)^{2 m^2}
    assert at_one.rhs_shape_log == pytest.approx(2 * math.log(math.log(600.0)))
    assert at_one.params == {"sigma": 1.0, "Q": 60.0, "T": 10.0, "m": 1, "m_F": 1}
    half = zero_density_report(family, 10.0, 0.5)
    assert half.rhs_shape_log == pytest.approx(0.5 * 1e7 * math.log(600.0), rel=1e-6)
    with pytest.raises(ParameterOutOfRange):
        zero_density_report(family, 10.0, 0.3)
    # a repeated field doubles m_F, which the shape carries as log 2
    doubled = Family(fields=tuple(QUADS) + (QUADS[0],), q_bound=60.0)
    assert zero_density_report(doubled, 10.0, 1.0).rhs_shape_log == pytest.approx(
        math.log(2) + 2 * math.log(math.log(600.0))
    )


def test_mvt_report(sieve_small, catalog):
    family = Family(fields=(catalog["gaussian"],), q_bound=10.0)
    window = MeanValueWindow(t_height=1.0, y=1000.0, u=10**4)
    report = mvt_report(family, window, sieve_small)
    m = 1
    want = 2 * m**2 * math.log(math.log(1000.0)) + math.log(math.log(10**4))
    assert report.rhs_shape_log == pytest.approx(want)
    assert report.lhs is not None and report.lhs >= 0
    assert any("admissible floor" in note for note in report.notes)


def test_family_window_validation(catalog):
    with pytest.raises(ValidationError, match="exceeds Q"):
        Family(fields=(catalog["gaussian"],), q_bound=2.0)
    with pytest.raises(ValidationError, match="u must be >= y"):
        MeanValueWindow(t_height=1.0, y=5.0, u=2.0)
    for y in (0.5, 1.0):
        with pytest.raises(ValidationError, match="y must be > 1"):
            MeanValueWindow(t_height=1.0, y=y, u=2.0)
    for t_height in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterOutOfRange, match="T must be positive and finite"):
            MeanValueWindow(t_height=t_height, y=2.0, u=20.0)
