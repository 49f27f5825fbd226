import cmath
import math

import numpy as np
import pytest

from chebotarev_lab.errors import ParameterOutOfRange
from chebotarev_lab.oracles import fourier_inversion_f, laplace_transform_quadrature
from chebotarev_lab.weights import (
    WeightParams,
    below_support,
    check_decay_right_halfplane,
    check_decay_shifted_line,
    f_eval,
    laplace_F,
)

PARAM_GRID = [
    WeightParams(x=x, eps=eps)
    for x in (3.0, 10.0, 100.0, 10**4, 10**6)
    for eps in (0.01, 0.05, 0.1, 0.24)
]


def test_params_validation():
    with pytest.raises(ParameterOutOfRange):
        WeightParams(x=2.0, eps=0.1)
    with pytest.raises(ParameterOutOfRange):
        WeightParams(x=10.0, eps=0.3)
    with pytest.raises(ParameterOutOfRange):
        WeightParams(x=10.0, eps=0.0)
    for x in (math.nan, math.inf):
        with pytest.raises(ParameterOutOfRange):
            WeightParams(x=x, eps=0.1)


def test_params_eq_and_hash_ignore_cached_values():
    # log x and w are fields, set bit for bit by the constructor
    read, fresh = WeightParams(x=6614.0, eps=0.1), WeightParams(x=6614.0, eps=0.1)
    assert (read.log_x, read.boxcar_width) == (math.log(6614.0), 0.1 / (2.0 * math.log(6614.0)))
    assert hash(read) == hash(fresh) == hash((6614.0, 0.1))
    assert read == fresh and repr(read) == repr(fresh) == "WeightParams(x=6614.0, eps=0.1)"
    assert read != WeightParams(x=6614.0, eps=0.2)


def test_plateau_and_support_examples():
    params = WeightParams(x=100.0, eps=0.1)
    assert f_eval(params, 0.75) == 1.0
    assert f_eval(params, 0.0) == 0.0
    # boundary point inside the upper ramp, against Fourier inversion of F
    inv_params = WeightParams(x=20.0, eps=0.2)
    t_edge = 1.0 + inv_params.eps / (2.0 * inv_params.log_x)
    val = f_eval(inv_params, t_edge)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(fourier_inversion_f(inv_params, t_edge), abs=1e-8)


def test_shape_on_grid():
    # 0 <= f <= 1, f = 1 on [1/2, 1], supp f inside the stated interval
    for params in PARAM_GRID:
        lo, hi = params.support
        ts = np.linspace(-0.2, 1.4, 10**4)
        vals = np.array([f_eval(params, t) for t in ts])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        inside = (ts >= 0.5) & (ts <= 1.0)
        assert np.all(vals[inside] == 1.0)
        outside = (ts < lo) | (ts > hi)
        assert np.all(vals[outside] == 0.0)


def test_below_support_is_where_f_vanishes_on_the_left():
    # below_support holds exactly where f is 0.0 left of the plateau, down to
    # the floats next to the edge 1/2 - 2w
    for params in PARAM_GRID:
        edge = 0.5 - 2.0 * params.boxcar_width
        ts = np.concatenate([np.linspace(-0.2, 0.5, 2001), edge + np.arange(-50, 51) * math.ulp(edge)])
        for t in ts.tolist():
            assert below_support(params, t) == (f_eval(params, t) == 0.0), (params, t)


def test_transform_quadrature_agreement():
    params = WeightParams(x=1000.0, eps=0.1)
    rng = np.random.default_rng(17)
    for _ in range(60):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        exact = laplace_F(params, z)
        quad = laplace_transform_quadrature(params, z)
        assert abs(exact - quad) <= 1e-10 * max(1.0, abs(exact))
    # tighter: 1e-12 relative out to |z| <= 100
    for _ in range(25):
        z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        exact = laplace_F(params, z)
        quad = laplace_transform_quadrature(params, z, nodes=32)
        assert abs(exact - quad) <= 1e-12 * max(1.0, abs(exact))


def test_F_at_zero():
    params = WeightParams(x=math.e**2, eps=0.1)  # log x = 2
    assert laplace_F(params, 0.0) == pytest.approx(0.55)
    for p in PARAM_GRID:
        f0 = laplace_F(p, 0.0)
        assert abs(f0.imag) < 1e-15
        assert 0.5 < f0.real < 0.75


def test_F_main_term():
    # F(-log x) = x/log x + O((eps x + sqrt x)/log x)
    for x in (100.0, 10**4, 10**6):
        for eps in (0.01, 0.1):
            params = WeightParams(x=x, eps=eps)
            val = laplace_F(params, -params.log_x).real
            main = x / params.log_x
            slack = (eps * x + math.sqrt(x)) / params.log_x
            assert abs(val - main) <= 2.0 * slack, (x, eps)


def test_F_decay_at_plus_infinity():
    params = WeightParams(x=100.0, eps=0.1)
    values = [abs(laplace_F(params, s)) for s in (10.0, 50.0, 200.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-30


def test_F_conjugate_symmetry():
    params = WeightParams(x=500.0, eps=0.07)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        assert laplace_F(params, z.conjugate()) == pytest.approx(
            laplace_F(params, z).conjugate(), rel=1e-12
        )
    # real z gives real F
    for t in np.linspace(-20, 20, 41):
        assert abs(laplace_F(params, complex(t, 0.0)).imag) < 1e-12 * max(
            1.0, abs(laplace_F(params, complex(t, 0.0)))
        )


def test_taylor_fallback_annulus():
    # direct (expm1-based) formula and degree-8 Taylor agree across the switch region
    from chebotarev_lab.weights import _expm1_complex

    coeffs = [1.0 / math.factorial(j + 1) for j in range(9)]
    rng = np.random.default_rng(8)
    for _ in range(200):
        radius = 10 ** rng.uniform(-5, -3)
        y = radius * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        direct = _expm1_complex(y) / y
        taylor = sum(c * y**j for j, c in enumerate(coeffs))
        assert abs(direct - taylor) <= 1e-12 * abs(direct)


def test_decay_right_halfplane():
    params = WeightParams(x=100.0, eps=0.1)
    assert check_decay_right_halfplane(params, 1.0 + 0j).passed
    assert check_decay_right_halfplane(params, 0.01 + 50j).passed
    rng = np.random.default_rng(41)
    for _ in range(1000):
        s = complex(rng.uniform(1e-6, 3.0), rng.uniform(-1000, 1000))
        assert check_decay_right_halfplane(params, s).passed, s
    with pytest.raises(ParameterOutOfRange):
        check_decay_right_halfplane(params, -1.0 + 0j)


def test_decay_shifted_line():
    params = WeightParams(x=100.0, eps=0.1)
    assert check_decay_shifted_line(params, 0.0).passed
    big = check_decay_shifted_line(params, 100.0)
    assert big.passed and big.rhs / max(big.lhs, 1e-300) >= 2.0
    for t in np.arange(-1000.0, 1000.0, 0.1):
        assert check_decay_shifted_line(params, float(t)).passed
