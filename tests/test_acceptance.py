"""Acceptance criteria, one test per criterion, each printing a PASS line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from chebotarev_lab.arith import kronecker_symbol
from chebotarev_lab.artin import coeff_a_K, coeff_a_KxK_prime, mertens_partial_sum
from chebotarev_lab.chebotarev import base_change_compare, pi_C_count, pi_count, splitting_tally
from chebotarev_lab.families import compositum_disc_check
from chebotarev_lab.fields import quadratic_field
from chebotarev_lab.large_sieve import DirichletPolynomial, msq_integral
from chebotarev_lab.oracles import (
    grid_eta_classical,
    grid_eta_large,
    laplace_transform_quadrature,
    msq_integral_quadrature,
    rs_cauchy_coefficient,
    rs_product_coefficients,
)
from chebotarev_lab.weights import (
    WeightParams,
    check_decay_right_halfplane,
    check_decay_shifted_line,
    laplace_F,
)
from chebotarev_lab.zfr import DEFAULT_C_EPS, eta_classical_closed, eta_large_zfr_closed


class Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded its {self.seconds}s budget"
        return False


def test_criterion_1_cauchy_identity(nontrivial_fields, sieve_small):
    with Budget("1 cauchy-identity", 60):
        worst = 0.0
        checks = 0
        for f1, f2 in itertools.combinations_with_replacement(nontrivial_fields, 2):
            for p in sieve_small.upto(50).tolist():
                if f1.is_ramified(p) or f2.is_ramified(p):
                    continue
                oracle = rs_product_coefficients(f1, f2, p, 6)
                for j in range(7):
                    got = coeff_a_KxK_prime(f1, f2, p, j)
                    worst = max(worst, abs(got - oracle[j]), abs(got - rs_cauchy_coefficient(f1, f2, p, j)))
                    checks += 1
        assert checks > 1500
        assert worst < 1e-9, worst


def test_criterion_2_quadratic_characters(catalog):
    with Budget("2 quadratic-character", 5):
        for name, disc in (("gaussian", -4), ("sqrt5", 5)):
            fd = catalog[name]
            for n in range(1, 10**4 + 1):
                if math.gcd(n, abs(disc)) == 1:
                    assert coeff_a_K(fd, n) == kronecker_symbol(disc, n), (name, n)


def test_criterion_3_chebotarev_counts(catalog, nontrivial_fields, sieve_medium):
    with Budget("3 chebotarev-exact-counts", 30):
        g = catalog["gaussian"]
        count = pi_C_count(g, g.group.class_by_label("1"), 10**5, sieve_medium).count
        residue_oracle = int(np.sum(sieve_medium.upto(10**5) % 4 == 1))
        assert count == residue_oracle == 4783
        for fd in nontrivial_fields + [catalog["rational"]]:
            for x in (10**3, 10**4, 10**5):
                tally = splitting_tally(fd, x, sieve_medium)
                assert tally.unresolved == 0
                assert tally.total() == pi_count(x, sieve_medium), (fd.name, x)


def test_criterion_4_weight_function():
    with Budget("4 weight-function", 30):
        params = WeightParams(x=1000.0, eps=0.1)
        rng = np.random.default_rng(20240801)
        for _ in range(200):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            exact = laplace_F(params, z)
            quad = laplace_transform_quadrature(params, z)
            assert abs(exact - quad) <= 1e-10 * max(1.0, abs(exact))
        for _ in range(1000):
            s = complex(rng.uniform(1e-6, 3.0), rng.uniform(-10**3, 10**3))
            assert check_decay_right_halfplane(params, s).passed, s
        for t in np.linspace(-10**3, 10**3, 1000):
            assert check_decay_shifted_line(params, float(t)).passed, t
        for x in (3.0, 10.0, 50.0, 10**3, 10**6):
            for eps in (0.01, 0.05, 0.1, 0.2):
                f0 = laplace_F(WeightParams(x=x, eps=eps), 0.0).real
                assert 0.5 < f0 < 0.75


def test_criterion_5_eta_optimization():
    with Budget("5 eta-closed-forms", 60):
        rng = np.random.default_rng(20240802)
        for _ in range(50):
            d_e = int(rng.integers(1, 10**9))
            degree = int(rng.integers(1, 10))
            c1 = float(rng.uniform(0.005, 0.4))
            x = float(rng.uniform(3.0, 1e14))
            closed = eta_classical_closed(d_e, degree, c1, x, DEFAULT_C_EPS)
            grid = grid_eta_classical(d_e, degree, c1, x, DEFAULT_C_EPS, points=100_000)
            assert abs(closed - grid) / abs(grid) < 1e-5
        for _ in range(50):
            q = float(rng.uniform(2.0, 10**6))
            eps = float(rng.uniform(0.02, 0.98))
            m = int(rng.integers(1, 8))
            x = float(rng.uniform(3.0, 1e15))
            closed = eta_large_zfr_closed(q, eps, m, x).eta
            grid = grid_eta_large(q, eps, m, x, 0.05, points=100_000)
            assert abs(closed - grid) / abs(grid) < 1e-5


def test_criterion_6_large_sieve_integral(catalog, nontrivial_fields):
    with Budget("6 large-sieve-integral", 60):
        rng = np.random.default_rng(20240803)
        for _ in range(100):
            size = int(rng.integers(2, 51))
            ns = rng.choice(np.arange(2, 400), size=size, replace=False)
            poly = DirichletPolynomial({int(n): complex(rng.normal(), rng.normal()) for n in ns})
            for t_height in (0.5, 1.0, 10.0):
                closed = msq_integral(poly, t_height)
                quad = msq_integral_quadrature(poly, t_height)
                assert abs(closed - quad) <= 1e-8, (t_height, closed, quad)
        for fd in nontrivial_fields + [catalog["rational"]]:
            for eta in (0.1, 0.5, 1.0, 2.0):
                assert mertens_partial_sum(fd, eta, 2000) <= fd.m / eta + 1e-12


def test_criterion_7_compositum_divisibility():
    with Budget("7 compositum-divisibility", 5):
        ds = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13, 14, -14, 15]
        fields = [quadratic_field(d) for d in ds]
        assert len(fields) == 20 and all(f.abs_disc <= 200 for f in fields)
        for a, b in itertools.combinations(fields, 2):
            check = compositum_disc_check(a, b)
            assert check.divides_bound and check.conductor_divides
        zeta12 = compositum_disc_check(quadratic_field(-1), quadratic_field(-3))
        assert zeta12.disc_compositum == 144
        assert abs(zeta12.subfield_discs[0] * zeta12.subfield_discs[1]) ** 2 == 144


def test_criterion_8_base_change(catalog, sieve_medium):
    with Budget("8 base-change", 60):
        s3 = catalog["s3cubic"]
        cls3 = s3.group.class_by_label("3")
        h3 = s3.group.subgroup_closure({cls3.representative})
        for x in (10**3, 10**4):
            assert base_change_compare(s3, cls3, h3, x, sieve_medium).passed
        for name in ("rational", "gaussian", "sqrt5", "zeta5", "cyclo7plus", "zeta7"):
            fd = catalog[name]
            group = fd.group
            subgroups = {frozenset(group.elements())}
            for a in group.elements():
                subgroups.add(group.subgroup_closure({a}))
            for h in sorted(subgroups, key=lambda s: (len(s), sorted(s))):
                for cls in group.classes:
                    if not (h & cls.members):
                        continue
                    for x in (10**3, 10**4):
                        check = base_change_compare(fd, cls, h, x, sieve_medium)
                        assert check.passed, (name, cls.label, sorted(h), x)


def test_criterion_9_equidistribution(catalog, sieve_large):
    with Budget("9 equidistribution-zeta5", 60):
        x = 10**6
        fd = catalog["zeta5"]
        tally = splitting_tally(fd, x, sieve_large)
        pi_x = pi_count(x, sieve_large)
        threshold = 2.0 * math.sqrt(x) * math.log(x)  # harness scale, non-normative
        worst = max(abs(tally.by_class[c.label] - pi_x / 4) for c in fd.group.classes)
        assert worst <= threshold, (worst, threshold)


def test_criterion_10_determinism():
    with Budget("10 selftest-determinism", 120):
        outputs = []
        for _ in range(2):
            chunks = []
            for sub in ("coeffs", "splitting", "large-sieve", "weights", "eta", "chebotarev", "family"):
                proc = subprocess.run(
                    [sys.executable, "-m", "chebotarev_lab.cli", sub, "--selftest"],
                    capture_output=True,
                    text=True,
                    check=True,
                )
                payload = json.loads(proc.stdout)
                assert payload["all_pass"] is True
                chunks.append(proc.stdout)
            outputs.append("".join(chunks))
        assert outputs[0] == outputs[1]
