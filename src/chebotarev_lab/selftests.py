"""The oracle comparisons behind each subcommand's ``--selftest``.

Each selftest checks a production route against an independent oracle and
returns a payload that the CLI prints as JSON.  The CLI imports this module
only when ``--selftest`` is given, so no other subcommand loads the oracles.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import oracles
from .arith import kronecker_symbol
from .artin import coeff_a_K, coeff_a_KxK_prime, mertens_partial_sum
from .chebotarev import pi_C_count, pi_count, psi_weighted_class, splitting_tally
from .families import Family, compositum_disc_check
from .fields import builtin_field, frobenius_data, quadratic_field
from .large_sieve import DirichletPolynomial, msq_integral
from .sieve import sieve_primes
from .weights import WeightParams, check_decay_right_halfplane, check_decay_shifted_line, laplace_F
from .zfr import DEFAULT_C1, DEFAULT_C_EPS, eta_classical_closed, eta_large_zfr_closed


def _rng(args) -> np.random.Generator:
    return np.random.default_rng(getattr(args, "seed", 0) or 0)


def _selftest_payload(args, name: str, checks: list[dict]) -> dict:
    return {
        "subcommand": name,
        "selftest": True,
        "seed": getattr(args, "seed", 0) or 0,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def _selftest_coeffs(args) -> dict:
    checks = []
    fd = builtin_field("gaussian")
    bad = sum(
        1
        for n in range(1, 2001)
        if n % 2 == 1 and coeff_a_K(fd, n) != kronecker_symbol(-4, n)
    )
    checks.append({"name": "gaussian-kronecker-2000", "pass": bad == 0, "failures": bad})
    fields = [builtin_field(k) for k in ("gaussian", "zeta5", "s3cubic")]
    worst = 0.0
    for f1, f2 in itertools.combinations_with_replacement(fields, 2):
        for p in (3, 7, 11, 13, 17, 19):
            if f1.is_ramified(p) or f2.is_ramified(p):
                continue
            oracle = oracles.rs_product_coefficients(f1, f2, p, 4)
            for j in range(5):
                worst = max(worst, abs(coeff_a_KxK_prime(f1, f2, p, j) - oracle[j]))
    checks.append({"name": "cauchy-identity-spot", "pass": worst < 1e-9, "worst_abs_diff": worst})
    mert = mertens_partial_sum(fd, 1.0, 2000)
    checks.append({"name": "mertens-bound", "pass": mert <= fd.m / 1.0, "value": mert})
    return _selftest_payload(args, "coeffs", checks)


def _selftest_splitting(args) -> dict:
    checks = []
    sieve = sieve_primes(2000)
    fd = builtin_field("zeta5")
    mismatch = 0
    for p in sieve.primes.tolist():
        if fd.is_ramified(p):
            continue
        data = frobenius_data(fd, p)
        pairs = oracles.factor_poly_mod_p(fd.defining_poly, p)
        ftype = tuple(sorted(d for d, _ in pairs))
        if data.factorization_type != ftype:
            mismatch += 1
    checks.append({"name": "zeta5-residue-vs-factorization", "pass": mismatch == 0, "failures": mismatch})
    ok = oracles.segmented_sieve_count(10**5) == len(sieve_primes(10**5))
    checks.append({"name": "sieve-vs-segmented-1e5", "pass": ok})
    orders = []
    for p in sieve.primes.tolist():
        if p == 5:
            continue
        q = p % 5
        k = 1
        while q != 1:
            q = q * p % 5
            k += 1
        want = k
        orders.append(frobenius_data(fd, p).frobenius_order == want)
    checks.append({"name": "zeta5-order-oracle", "pass": all(orders)})
    return _selftest_payload(args, "splitting", checks)


def _selftest_large_sieve(args) -> dict:
    rng = _rng(args)
    checks = []
    worst = 0.0
    for _ in range(20):
        ns = rng.choice(np.arange(2, 300), size=10, replace=False)
        poly = DirichletPolynomial({int(n): complex(rng.normal(), rng.normal()) for n in ns})
        for t_height in (0.5, 1.0, 10.0):
            diff = abs(msq_integral(poly, t_height) - oracles.msq_integral_quadrature(poly, t_height))
            worst = max(worst, diff)
    checks.append({"name": "msq-closed-vs-quadrature", "pass": worst < 1e-8, "worst_abs_diff": worst})
    mat = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    left = np.max(np.linalg.eigvalsh(mat @ mat.conj().T))
    right = np.max(np.linalg.eigvalsh(mat.conj().T @ mat))
    checks.append({"name": "duality-eigenvalue", "pass": abs(left - right) < 1e-8, "diff": float(abs(left - right))})
    return _selftest_payload(args, "large-sieve", checks)


def _selftest_weights(args) -> dict:
    rng = _rng(args)
    checks = []
    params = WeightParams(x=1000.0, eps=0.1)
    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        approx = oracles.laplace_transform_quadrature(params, z)
        exact = laplace_F(params, z)
        worst = max(worst, abs(approx - exact) / max(1.0, abs(exact)))
    checks.append({"name": "F-vs-quadrature", "pass": worst < 1e-10, "worst_rel": worst})
    sweep_iv = all(
        check_decay_right_halfplane(params, complex(sigma, t)).passed
        for sigma in (0.25, 1.0, 2.5)
        for t in np.linspace(-100, 100, 101)
    )
    sweep_v = all(check_decay_shifted_line(params, t).passed for t in np.linspace(-200, 200, 201))
    checks.append({"name": "halfplane-decay-sweep", "pass": sweep_iv})
    checks.append({"name": "shifted-line-decay-sweep", "pass": sweep_v})
    f0 = laplace_F(params, 0.0).real
    checks.append({"name": "F0-window", "pass": 0.5 < f0 < 0.75, "value": f0})
    return _selftest_payload(args, "weights", checks)


def _selftest_eta(args) -> dict:
    rng = _rng(args)
    checks = []
    worst = 0.0
    for _ in range(20):
        d_e = int(rng.integers(1, 10**6))
        degree = int(rng.integers(1, 9))
        c1 = float(rng.uniform(0.01, 0.3))
        x = float(rng.uniform(10.0, 1e12))
        closed = eta_classical_closed(d_e, degree, c1, x, DEFAULT_C_EPS)
        grid = oracles.grid_eta_classical(d_e, degree, c1, x, DEFAULT_C_EPS, points=20000)
        worst = max(worst, abs(closed - grid) / abs(grid))
    checks.append({"name": "classical-closed-vs-grid", "pass": worst < 1e-5, "worst_rel": worst})
    worst = 0.0
    for _ in range(20):
        q = float(rng.uniform(2.0, 1e5))
        eps = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(1, 6))
        x = float(rng.uniform(10.0, 1e15))
        closed = eta_large_zfr_closed(q, eps, m, x, DEFAULT_C1).eta
        grid = oracles.grid_eta_large(q, eps, m, x, DEFAULT_C1, points=20000)
        worst = max(worst, abs(closed - grid) / abs(grid))
    checks.append({"name": "large-closed-vs-grid", "pass": worst < 1e-5, "worst_rel": worst})
    return _selftest_payload(args, "eta", checks)


def _selftest_chebotarev(args) -> dict:
    checks = []
    sieve = sieve_primes(10**4)
    fd = builtin_field("gaussian")
    split = pi_C_count(fd, fd.group.class_by_label("1"), 10**4, sieve).count
    oracle = int(np.sum(sieve.primes % 4 == 1))
    checks.append({"name": "gaussian-split-1e4", "pass": split == oracle, "count": split, "oracle": oracle})
    all_ok = True
    for name in ("gaussian", "sqrt5", "zeta5", "cyclo7plus", "zeta7", "s3cubic"):
        f = builtin_field(name)
        tally = splitting_tally(f, 1000, sieve)
        if tally.total() != pi_count(1000, sieve) or tally.unresolved:
            all_ok = False
    checks.append({"name": "partition-identity-1e3", "pass": all_ok})
    params = WeightParams(x=500.0, eps=0.1)
    psi = psi_weighted_class(fd, fd.group.class_by_label("1"), params, sieve)
    naive = oracles.naive_psi_gaussian_split(params)
    checks.append({"name": "psi-vs-naive", "pass": psi == naive, "psi": psi, "naive": naive})
    return _selftest_payload(args, "chebotarev", checks)


def _selftest_family(args) -> dict:
    checks = []
    quads = [quadratic_field(d) for d in (-1, 2, 3, 5, -2, -3, 7, -7, 11, 13)]
    ok = True
    for a, b in itertools.combinations(quads, 2):
        res = compositum_disc_check(a, b)
        ok = ok and res.divides_bound and res.conductor_divides
    checks.append({"name": "compositum-divisibility", "pass": ok})
    fam = Family(fields=tuple(quads), q_bound=60.0)
    checks.append({"name": "distinct-quadratics-m1", "pass": fam.multiplicity == 1})
    return _selftest_payload(args, "family", checks)


# the selftest of each subcommand, by subcommand name
SELFTESTS = {
    "coeffs": _selftest_coeffs,
    "splitting": _selftest_splitting,
    "large-sieve": _selftest_large_sieve,
    "weights": _selftest_weights,
    "eta": _selftest_eta,
    "chebotarev": _selftest_chebotarev,
    "family": _selftest_family,
}
