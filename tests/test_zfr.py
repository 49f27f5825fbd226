import math

import numpy as np
import pytest

from chebotarev_lab.errors import DomainTooSmall, ParameterOutOfRange
from chebotarev_lab.oracles import grid_eta_classical, grid_eta_large
from chebotarev_lab.zfr import (
    DEFAULT_C1,
    DEFAULT_C_EPS,
    EtaProfile,
    classical_eta_profile,
    classical_zfr,
    constant_zfr,
    error_factor,
    eta_classical_closed,
    eta_from_delta,
    eta_large_zfr_closed,
    rational_eta_profile,
)


def test_eta_constant_examples():
    x = 12345.0
    assert eta_from_delta(constant_zfr(0.5), x) == pytest.approx(0.5 * math.log(x) + math.log(3))
    assert eta_from_delta(constant_zfr(0.0), x) == pytest.approx(math.log(3))
    # clamping: a nominal width above 1/2 behaves like 1/2
    assert eta_from_delta(constant_zfr(0.9), x) == pytest.approx(0.5 * math.log(x) + math.log(3))


def test_classical_closed_matches_grid_data():
    # the piecewise data and the closed form describe the same infimum
    for d_e, n in ((1, 1), (229, 2), (10**6, 5)):
        for x in (10.0, 10**6, 10**12):
            closed = eta_classical_closed(d_e, n, DEFAULT_C1, x, DEFAULT_C_EPS)
            grid = eta_from_delta(classical_zfr(d_e, n, DEFAULT_C1, DEFAULT_C_EPS), x)
            assert closed == pytest.approx(grid, rel=1e-6)


def test_classical_clamp_case():
    # log D huge against log x: the minimizer clamps to u = 0
    d_e = 10**12
    x = 10.0
    closed = eta_classical_closed(d_e, 3, DEFAULT_C1, x, c_eps=10.0**6)  # kill the Stark branch
    assert closed == pytest.approx(DEFAULT_C1 * math.log(x) / math.log(d_e), rel=1e-12)


def test_classical_monotone_in_t():
    zfr = classical_zfr(229, 2)
    classical_piece = zfr.pieces[1]
    us = np.linspace(0.0, 50.0, 200)
    vals = classical_piece.delta(us)
    assert np.all(np.diff(vals) <= 1e-15)


def test_closed_vs_grid_oracles_random():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        d_e = int(rng.integers(1, 10**9))
        degree = int(rng.integers(1, 10))
        c1 = float(rng.uniform(0.005, 0.4))
        x = float(rng.uniform(3.0, 1e14))
        closed = eta_classical_closed(d_e, degree, c1, x, DEFAULT_C_EPS)
        grid = grid_eta_classical(d_e, degree, c1, x, DEFAULT_C_EPS)
        assert abs(closed - grid) / abs(grid) < 1e-5
    large_points = [(1000.0, 0.2, 2, 1e9)]
    for _ in range(40):
        q = float(rng.uniform(2.0, 10**6))
        eps = float(rng.uniform(0.02, 0.98))
        m = int(rng.integers(1, 8))
        x = float(rng.uniform(3.0, 1e15))
        large_points.append((q, eps, m, x))
    for q, eps, m, x in large_points:
        closed = eta_large_zfr_closed(q, eps, m, x).eta
        grid = grid_eta_large(q, eps, m, x, DEFAULT_C1)
        assert abs(closed - grid) / abs(grid) < 1e-5


def test_phi2_proof_displays():
    # phi2(0, x) = 20 delta log x, and phi2(u2, x) >= sqrt(20 delta log Q log x)
    # when u2 >= 0 (checked on the optimization structure with synthetic widths)
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeff = float(rng.uniform(0.01, 2.0))  # plays the role of 20 delta
        lq = float(rng.uniform(0.5, 20.0))
        lx = float(rng.uniform(1.0, 100.0))

        def phi2(u):
            return coeff * lq * lx / (lq + u) + u

        assert phi2(0.0) == pytest.approx(coeff * lx)
        u2 = math.sqrt(coeff * lq * lx) - lq
        if u2 >= 0:
            assert phi2(u2) >= math.sqrt(coeff * lq * lx) - 1e-12


def test_large_zfr_structure():
    res = eta_large_zfr_closed(100.0, 0.5, 1, 10**6)
    delta = 0.5 / 1e9
    assert res.delta20 == pytest.approx(20 * delta)
    # at desk scale the phi2 branch is the binding one: 20 delta log x
    assert res.eta == pytest.approx(res.inf_phi2)
    assert res.inf_phi2 == pytest.approx(20 * delta * math.log(10**6))
    assert res.three_term_bound > 0
    with pytest.raises(ParameterOutOfRange):
        eta_large_zfr_closed(1.0, 0.5, 1, 10**6)
    with pytest.raises(ParameterOutOfRange):
        eta_large_zfr_closed(10.0, 1.5, 1, 10**6)


def test_eta_monotone_and_halving():
    # eta nondecreasing in x; eta(sqrt x) >= eta(x)/2
    zfr = classical_zfr(4, 2)
    profiles = [
        classical_eta_profile(229, 2),
        rational_eta_profile(),
        EtaProfile(label=zfr.label, eta_fn=lambda x: eta_from_delta(zfr, x)),
    ]
    xs = np.geomspace(9.0, 1e12, 40)
    for profile in profiles:
        vals = [profile.eta(float(x)) for x in xs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        for x in xs:
            if math.sqrt(x) >= 3:
                assert profile.eta(math.sqrt(x)) >= profile.eta(float(x)) / 2 - 1e-9


def test_eta_monotone_in_delta():
    # pointwise-larger Delta gives larger eta
    x = 10**6
    small = eta_from_delta(constant_zfr(0.1), x)
    large = eta_from_delta(constant_zfr(0.3), x)
    assert large >= small


def test_exp_min_decomposition():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(0, 50.0, size=2)
        assert math.exp(-min(a, b)) <= math.exp(-a) + math.exp(-b)


def test_error_factor_examples():
    # Delta = 1/2, D_K = 1: x^{-1/16} 3^{-1/8}
    profile = EtaProfile(label="const-half", eta_fn=lambda x: 0.5 * math.log(x) + math.log(3))
    x = 10**6
    assert error_factor(profile, x, 1) == pytest.approx(x ** (-1 / 16) * 3 ** (-1 / 8))
    # monotone nonincreasing in x (above the domain threshold (log 229e)^4)
    vals = [error_factor(profile, float(x), 229) for x in (10**4, 10**5, 10**6)]
    assert vals[0] >= vals[1] >= vals[2]
    with pytest.raises(DomainTooSmall):
        error_factor(profile, 10.0, 229)


def test_rational_profile_uses_classical_data():
    prof = rational_eta_profile()
    x = 10**8
    assert prof.eta(x) == pytest.approx(eta_classical_closed(1, 1, DEFAULT_C1, x))
