"""Command-line interface: coeffs, splitting, large-sieve, weights, eta,
chebotarev, family.

Output is deterministic for a fixed seed and configuration: JSON is emitted
with sorted keys, floats through repr, and no timestamps.  Exit codes: 0
success, 1 validation error, 2 computation error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import oracles
from .artin import coeff_a_K, coeff_a_KxK_prime, mertens_partial_sum, series_a_K, series_a_KxK
from .chebotarev import (
    pi_C_count,
    pi_count,
    psi_weighted_class,
    splitting_tally,
)
from .errors import ChebotarevLabError, ValidationError
from .families import Family, avg_cheb_error, compositum_disc_check, intersection_multiplicity
from .fields import (
    BUILTIN_CATALOG,
    RAMIFIED,
    FieldDescriptor,
    builtin_field,
    factor_poly_mod_p,
    frobenius_data,
    frobenius_table,
    load_catalog,
    quadratic_field,
)
from .large_sieve import DirichletPolynomial, FamilyWindow, msq_integral, mvt_report, zero_density_report
from .sieve import sieve_primes
from .weights import WeightParams, check_decay_right_halfplane, check_decay_shifted_line, f_eval, laplace_F
from .zfr import (
    DEFAULT_C1,
    DEFAULT_C_EPS,
    eta_classical_closed,
    eta_large_zfr_closed,
)

CATALOG_ENV = "CHEBOTAREV_LAB_CATALOG"
SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise ValidationError(message)


def _catalog_path(args) -> str | None:
    return args.catalog or os.environ.get(CATALOG_ENV)


def _resolve_fields(args, names: list[str]) -> tuple[FieldDescriptor, ...]:
    """The descriptors of ``names``, from the built-ins and one read of the catalog.

    A built-in wins over a catalog row of the same name, and a repeated name
    yields the same descriptor, so its Frobenius table is built once.
    """
    fields = list(BUILTIN_CATALOG.values())
    path = _catalog_path(args)
    if path:
        fields.extend(load_catalog(path))
    by_name = {fd.name: fd for fd in reversed(fields)}  # the first of a name wins
    for name in names:
        if name not in by_name:
            raise ValidationError(f"unknown field {name!r}; known: {sorted(f.name for f in fields)}")
    return tuple(by_name[name] for name in names)


def _finite_float(text: str) -> float:
    """The argparse type of every float option: a finite float.  Anything else
    is a usage error, which the parser raises as a ValidationError."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    """Comma-separated finite floats."""
    return [_finite_float(tok) for tok in text.split(",")]


def _grid(text: str) -> tuple[float, float, float]:
    """lo:hi:step with finite ends and a positive step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:step, got {text!r}")
    lo, hi, step = (_finite_float(tok) for tok in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid step must be positive, got {step!r}")
    return lo, hi, step


def _emit(args, text: str) -> None:
    out = getattr(args, "output", "-") or "-"
    if not text.endswith("\n"):
        text += "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    # numpy scalars (bool_, int64, ...) are unwrapped through .item()
    return json.dumps(payload, sort_keys=True, indent=2, default=lambda o: o.item())


def _csv(rows: list[list], header: list[str]) -> str:
    def fmt(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines)


def _rng(args) -> np.random.Generator:
    return np.random.default_rng(getattr(args, "seed", 0) or 0)


def _parse_class(fd: FieldDescriptor, label: str):
    if label.startswith("order="):
        return int(label.split("=", 1)[1])
    return fd.group.class_by_label(label)


# -- subcommands -----------------------------------------------------------------


def cmd_coeffs(args) -> int:
    if args.other_field:
        series = series_a_KxK(*_resolve_fields(args, [args.field, args.other_field]), args.n)
        header = ["n", "a_KxK"]
    else:
        series = series_a_K(*_resolve_fields(args, [args.field]), args.n)
        header = ["n", "a_K"]
    rows = [[n, a] for n, a in series.coeffs.items()]
    if args.format == "json":
        _emit(args, _json({"schema": SCHEMA, "field": args.field, "other_field": args.other_field,
                           "coefficients": {str(r[0]): r[1] for r in rows}}))
    else:
        _emit(args, _csv(rows, header))
    return 0


def cmd_splitting(args) -> int:
    (fd,) = _resolve_fields(args, [args.field])
    sieve = sieve_primes(max(args.limit, 2))
    primes = sieve.upto(args.limit)
    table = frobenius_table(fd, primes)
    labels = [c.label for c in fd.group.classes]
    types = ["+".join(str(d) for d in ftype) for ftype in table.types]
    rows = []
    for p, cls, order, ftype in zip(primes.tolist(), table.cls.tolist(), table.order.tolist(), table.ftype.tolist()):
        if cls == RAMIFIED:
            rows.append([p, 1, "", "", ""])
        else:
            rows.append([p, 0, types[ftype], order, labels[cls] if cls >= 0 else "?"])
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "field": args.field,
            "rows": [
                {"p": r[0], "ramified": bool(r[1]), "type": r[2], "order": r[3], "class": r[4]}
                for r in rows
            ],
        }
        _emit(args, _json(payload))
    else:
        _emit(args, _csv(rows, ["p", "ramified", "factorization_type", "frobenius_order", "class"]))
    return 0


def cmd_large_sieve(args) -> int:
    names = [s for s in args.fields.split(",") if s]
    fields = _resolve_fields(args, names)
    window = FamilyWindow(fields=fields, q_bound=args.Q, t_height=args.T, y=args.y, u=args.u)
    family = Family(fields=fields, q_bound=args.Q, intersection_rule=args.rule)
    mult = intersection_multiplicity(family)
    sieve = sieve_primes(int(args.u) + 1)
    report = mvt_report(window, mult, sieve)
    payload = {
        "schema": SCHEMA,
        "kind": report.kind,
        "lhs": report.lhs,
        "rhs_shape_log": report.rhs_shape_log,
        "ratio_log": report.ratio_log,
        "params": report.params,
        "notes": list(report.notes),
    }
    if args.sigma is not None:
        zde = zero_density_report(window, args.sigma, mult)
        payload["zero_density"] = {
            "rhs_shape_log": zde.rhs_shape_log,
            "params": zde.params,
            "notes": list(zde.notes),
        }
    _emit(args, _json(payload))
    return 0


def cmd_weights(args) -> int:
    params = WeightParams(x=args.x, eps=args.eps)
    lo, hi, step = args.grid
    rows = []
    t = lo
    while t <= hi + 1e-12:
        fz = laplace_F(params, -t * params.log_x)
        rows.append([round(t, 12), f_eval(params, t), fz.real, fz.imag])
        t += step
    _emit(args, _csv(rows, ["t", "f", "F_real_at_minus_t_logx", "F_imag_at_minus_t_logx"]))
    return 0


def cmd_eta(args) -> int:
    xs = args.x_values
    c1 = args.c1
    if args.Q is not None:
        rows = []
        for x in xs:
            res = eta_large_zfr_closed(args.Q, args.eps, args.m, x, c1)
            rows.append([x, res.eta, res.inf_phi1, res.inf_phi2, res.three_term_bound])
        header = ["x", "eta", "inf_phi1", "inf_phi2", "three_term_bound"]
        meta = {"Q": args.Q, "eps": args.eps, "m": args.m, "c1": c1}
    else:
        rows = [[x, eta_classical_closed(args.disc, args.degree, c1, x, args.c_eps)] for x in xs]
        header = ["x", "eta"]
        meta = {"disc": args.disc, "degree": args.degree, "c1": c1, "c_eps": args.c_eps}
    if args.format == "json":
        _emit(args, _json({"schema": SCHEMA, "params": meta, "rows": [dict(zip(header, r)) for r in rows]}))
    else:
        _emit(args, _csv(rows, header))
    return 0


def cmd_chebotarev(args) -> int:
    (fd,) = _resolve_fields(args, [args.field])
    selector = _parse_class(fd, args.cls)
    limit = int(args.x * math.exp(0.25)) + 2 if args.weights_eps else int(args.x) + 1
    sieve = sieve_primes(max(limit, 100))
    count = pi_C_count(fd, selector, args.x, sieve)
    payload = {
        "schema": SCHEMA,
        "field": args.field,
        "class": count.class_label,
        "x": args.x,
        "count": count.count,
        "expected": count.expected,
        "error": count.error,
        "pi_x": pi_count(args.x, sieve),
    }
    if args.weights_eps:
        params = WeightParams(x=args.x, eps=args.weights_eps)
        if not hasattr(selector, "representative"):
            raise ValidationError("--weights-eps needs an exact class, not a union")
        payload["psi_weighted"] = psi_weighted_class(fd, selector, params, sieve)
        payload["weights_eps"] = args.weights_eps
    if args.report == "csv":
        keys = sorted(payload)
        _emit(args, _csv([[payload[k] for k in keys]], keys))
    else:
        _emit(args, _json(payload))
    return 0


def cmd_family(args) -> int:
    path = _catalog_path(args)
    if not path:
        raise ValidationError("family needs --catalog or the catalog environment variable")
    fields = tuple(load_catalog(path))
    family = Family(fields=fields, q_bound=args.Q, intersection_rule=args.rule)
    sieve = sieve_primes(int(args.x) + 1)
    report = avg_cheb_error(family, args.x, sieve, eps=args.eps)
    payload = {
        "schema": SCHEMA,
        "Q": report.q_bound,
        "size": report.size,
        "m": report.multiplicity,
        "x": report.x,
        "avg_error": report.avg_error,
        "per_field": report.per_field,
        "bound_shapes": report.diagnostics,
    }
    _emit(args, _json(payload))
    return 0


# -- selftests ---------------------------------------------------------------------


def _selftest_payload(args, name: str, checks: list[dict]) -> int:
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "schema": SCHEMA,
        "subcommand": name,
        "selftest": True,
        "seed": getattr(args, "seed", 0) or 0,
        "checks": checks,
        "all_pass": all_pass,
    }
    _emit(args, _json(payload))
    return 0 if all_pass else 2


def _selftest_coeffs(args) -> int:
    from .arith import kronecker_symbol

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


def _selftest_splitting(args) -> int:
    checks = []
    sieve = sieve_primes(2000)
    fd = builtin_field("zeta5")
    mismatch = 0
    for p in sieve.primes.tolist():
        if fd.is_ramified(p):
            continue
        data = frobenius_data(fd, p)
        pairs = factor_poly_mod_p(fd.defining_poly, p)
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


def _selftest_large_sieve(args) -> int:
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


def _selftest_weights(args) -> int:
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


def _selftest_eta(args) -> int:
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


def _selftest_chebotarev(args) -> int:
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


def _selftest_family(args) -> int:
    checks = []
    quads = [quadratic_field(d) for d in (-1, 2, 3, 5, -2, -3, 7, -7, 11, 13)]
    ok = True
    for a, b in itertools.combinations(quads, 2):
        res = compositum_disc_check(a, b)
        ok = ok and res.divides_bound and res.conductor_divides
    checks.append({"name": "compositum-divisibility", "pass": ok})
    fam = Family(fields=tuple(quads), q_bound=60.0)
    checks.append({"name": "distinct-quadratics-m1", "pass": intersection_multiplicity(fam) == 1})
    return _selftest_payload(args, "family", checks)


# -- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="chebotarev-lab", description="Chebotarev / Artin coefficient verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, selftest):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=0, help="rng seed for selftests")
        p.add_argument("--catalog", default=None, help=f"extra catalog file (or ${CATALOG_ENV})")
        # --selftest swaps the subcommand's function for its oracle comparisons
        p.add_argument("--selftest", dest="func", action="store_const", const=selftest,
                       help="run this module's oracle comparisons")

    p = sub.add_parser("coeffs", help="Dirichlet coefficients a_K(n) or a_KxK'(n)")
    common(p, _selftest_coeffs)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--other-field", default=None)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("splitting", help="Frobenius data table for primes up to a limit")
    common(p, _selftest_splitting)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("large-sieve", help="mean-value integrals and bound-shape reports")
    common(p, _selftest_large_sieve)
    p.add_argument("--fields", default="gaussian,sqrt5")
    p.add_argument("--Q", type=_finite_float, default=200.0)
    p.add_argument("--T", type=_finite_float, default=1.0)
    p.add_argument("--y", type=_finite_float, default=2.0)
    p.add_argument("--u", type=_finite_float, default=1000.0)
    p.add_argument("--sigma", type=_finite_float, default=None)
    p.add_argument("--rule", default=None, help="intersection rule override")
    p.set_defaults(func=cmd_large_sieve)

    p = sub.add_parser("weights", help="evaluate the smooth cutoff f and its transform F")
    common(p, _selftest_weights)
    p.add_argument("--x", type=_finite_float, default=1000.0)
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--grid", type=_grid, default="0:1.2:0.05", help="t grid lo:hi:step")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("eta", help="error-term data eta(x) tables")
    common(p, _selftest_eta)
    p.add_argument("--disc", type=int, default=229)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--Q", type=_finite_float, default=None, help="family mode: discriminant bound")
    p.add_argument("--eps", type=_finite_float, default=0.5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--c1", type=_finite_float, default=DEFAULT_C1)
    p.add_argument("--c-eps", type=_finite_float, default=DEFAULT_C_EPS)
    p.add_argument("--x-values", type=_float_list, default="1000,1000000,1000000000")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("chebotarev", help="exact class counts and weighted sums")
    common(p, _selftest_chebotarev)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--class", dest="cls", default="1")
    p.add_argument("--x", type=_finite_float, default=100.0)
    p.add_argument("--weights-eps", type=_finite_float, default=None)
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_chebotarev)

    p = sub.add_parser("family", help="family reports: m_F(Q) and averaged errors")
    common(p, _selftest_family)
    p.add_argument("--Q", type=_finite_float, default=200.0)
    p.add_argument("--x", type=_finite_float, default=10**4)
    p.add_argument("--eps", type=_finite_float, default=0.5)
    p.add_argument("--rule", default=None)
    p.set_defaults(func=cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(_json({"error": {"code": exc.code, "message": str(exc)}}) + "\n")
        return 1
    except ChebotarevLabError as exc:
        sys.stderr.write(_json({"error": {"code": exc.code, "message": str(exc)}}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
