"""Command-line interface: coeffs, splitting, large-sieve, weights, eta,
chebotarev, family.

Output is deterministic for a fixed seed and configuration: JSON is emitted
with sorted keys, floats through repr, and no timestamps.  Exit codes: 0
success, 1 validation error, 2 computation error.

Every process answers one command, so start-up is paid on every answer: the
functions below import the layers they run themselves, and ``--selftest``
loads the oracles from ``selftests`` only when given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import ChebotarevLabError, LimitTooLarge, ValidationError

CATALOG_ENV = "CHEBOTAREV_LAB_CATALOG"
SCHEMA = 1
MAX_GRID_POINTS = 10**5  # rows of weights --grid: 10^5 take about 1.3 s and 3.7 MB of CSV


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise ValidationError(message)


def _catalog_path(args) -> str | None:
    return args.catalog or os.environ.get(CATALOG_ENV)


def _resolve_fields(args, names: list[str]) -> tuple:
    """The descriptors of ``names``, from the built-ins and one read of the catalog.

    The two share one namespace, as the catalog refuses a built-in's name,
    and a repeated name yields the same descriptor, so its Frobenius table is
    built once.
    """
    from .fields import BUILTIN_CATALOG, load_catalog

    path = _catalog_path(args)
    by_name = dict(BUILTIN_CATALOG)
    if path:
        by_name.update((fd.name, fd) for fd in load_catalog(path))
    for name in names:
        if name not in by_name:
            raise ValidationError(f"unknown field {name!r}; known: {sorted(by_name)}")
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
    # str(float) is the shortest round-trip repr, and str of a numpy scalar is its value
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines)


def _parse_class(fd, label: str):
    if label.startswith("order="):
        order = label.split("=", 1)[1]
        try:
            return int(order)
        except ValueError:
            raise ValidationError(f"--class order=<d> needs an integer d, got {order!r}") from None
    return fd.group.class_by_label(label)


# -- subcommands -----------------------------------------------------------------


def cmd_coeffs(args) -> int:
    from .artin import series_a_K, series_a_KxK

    if args.other_field:
        series = series_a_KxK(*_resolve_fields(args, [args.field, args.other_field]), args.n)
        header = ["n", "a_KxK"]
    else:
        series = series_a_K(*_resolve_fields(args, [args.field]), args.n)
        header = ["n", "a_K"]
    if args.format == "json":
        _emit(args, _json({"schema": SCHEMA, "field": args.field, "other_field": args.other_field,
                           "coefficients": {str(n): a for n, a in series.items()}}))
    else:  # the bytes of _csv, built as one string of lines
        _emit(args, "\n".join([",".join(header), *(f"{n},{a}" for n, a in series.items())]))
    return 0


def cmd_splitting(args) -> int:
    from .fields import frobenius_table
    from .sieve import sieve_primes

    (fd,) = _resolve_fields(args, [args.field])
    table = frobenius_table(fd, sieve_primes(max(args.limit, 2)), args.limit)
    by_kind = [
        [1, "", "", ""] if data.ramified else
        [0, "+".join(map(str, data.factorization_type)), data.frobenius_order,
         "?" if data.ambiguous else data.conjugacy_class.label]
        for data in table.kinds
    ]
    rows = [[p, *by_kind[k]] for p, k in zip(table.primes.tolist(), table.kind.tolist())]
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
    from .families import Family
    from .large_sieve import MeanValueWindow, mvt_report, zero_density_report
    from .sieve import sieve_primes

    names = [s for s in args.fields.split(",") if s]
    fields = _resolve_fields(args, names)
    window = MeanValueWindow(t_height=args.T, y=args.y, u=args.u)
    family = Family(fields=fields, q_bound=args.Q, intersection_rule=args.rule)
    zde = None if args.sigma is None else zero_density_report(family, args.T, args.sigma)
    report = mvt_report(family, window, sieve_primes(math.ceil(args.u)))
    payload = {
        "schema": SCHEMA,
        "kind": report.kind,
        "lhs": report.lhs,
        "rhs_shape_log": report.rhs_shape_log,
        "ratio_log": report.ratio_log,
        "params": report.params,
        "notes": list(report.notes),
    }
    if zde is not None:
        payload["zero_density"] = {
            "rhs_shape_log": zde.rhs_shape_log,
            "params": zde.params,
            "notes": list(zde.notes),
        }
    _emit(args, _json(payload))
    return 0


def cmd_weights(args) -> int:
    from .weights import WeightParams, f_eval, laplace_F

    params = WeightParams(x=args.x, eps=args.eps)
    lo, hi, step = args.grid
    # t += step moves every t of the grid once step >= ulp(max |t|), so the loop ends
    if (hi - lo) / step >= MAX_GRID_POINTS or step < math.ulp(max(abs(lo), abs(hi))):
        raise LimitTooLarge(f"grid {lo}:{hi}:{step} has more than {MAX_GRID_POINTS} points,"
                            " or a step below the spacing of floats at its ends")
    lx = params.log_x
    rows = []
    t = lo
    while t <= hi + 1e-12:
        fz = laplace_F(params, -t * lx)
        rows.append([round(t, 12), f_eval(params, t), fz.real, fz.imag])
        t += step
    _emit(args, _csv(rows, ["t", "f", "F_real_at_minus_t_logx", "F_imag_at_minus_t_logx"]))
    return 0


def cmd_eta(args) -> int:
    from .zfr import DEFAULT_C1, DEFAULT_C_EPS, eta_classical_closed, eta_large_zfr_closed

    xs = args.x_values
    c1 = DEFAULT_C1 if args.c1 is None else args.c1
    c_eps = DEFAULT_C_EPS if args.c_eps is None else args.c_eps
    if args.Q is not None:
        rows = []
        for x in xs:
            res = eta_large_zfr_closed(args.Q, args.eps, args.m, x, c1)
            rows.append([x, res.eta, res.inf_phi1, res.inf_phi2, res.three_term_bound])
        header = ["x", "eta", "inf_phi1", "inf_phi2", "three_term_bound"]
        meta = {"Q": args.Q, "eps": args.eps, "m": args.m, "c1": c1}
    else:
        rows = [[x, eta_classical_closed(args.disc, args.degree, c1, x, c_eps)] for x in xs]
        header = ["x", "eta"]
        meta = {"disc": args.disc, "degree": args.degree, "c1": c1, "c_eps": c_eps}
    if args.format == "json":
        _emit(args, _json({"schema": SCHEMA, "params": meta, "rows": [dict(zip(header, r)) for r in rows]}))
    else:
        _emit(args, _csv(rows, header))
    return 0


def cmd_chebotarev(args) -> int:
    from .chebotarev import pi_C_count, pi_count, psi_weighted_class
    from .sieve import sieve_primes

    (fd,) = _resolve_fields(args, [args.field])
    selector = _parse_class(fd, args.cls)
    # both refusals of --weights-eps come before any sieve; psi needs primes to x e^eps
    params = None
    if args.weights_eps is not None:
        from .weights import WeightParams

        params = WeightParams(x=args.x, eps=args.weights_eps)
    if params is not None and not hasattr(selector, "representative"):
        raise ValidationError("--weights-eps needs an exact class, not a union")
    limit = math.ceil(args.x * math.exp(params.eps) if params is not None else args.x)
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
    if params is not None:
        payload["psi_weighted"] = psi_weighted_class(fd, selector, params, sieve)
        payload["weights_eps"] = args.weights_eps
    if args.report == "csv":
        keys = sorted(payload)
        _emit(args, _csv([[payload[k] for k in keys]], keys))
    else:
        _emit(args, _json(payload))
    return 0


def cmd_family(args) -> int:
    from .families import Family, avg_cheb_error
    from .fields import load_catalog
    from .sieve import sieve_primes

    path = _catalog_path(args)
    if not path:
        raise ValidationError("family needs --catalog or the catalog environment variable")
    fields = tuple(load_catalog(path))
    family = Family(fields=fields, q_bound=args.Q, intersection_rule=args.rule)
    sieve = sieve_primes(max(math.ceil(args.x), 2))  # avg_cheb_error refuses x < 2 itself
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


def cmd_selftest(args) -> int:
    """The oracle comparisons of ``args.command``: exit 0 if all pass, else 2."""
    from .selftests import SELFTESTS

    payload = SELFTESTS[args.command](args)
    _emit(args, _json({"schema": SCHEMA, **payload}))
    return 0 if payload["all_pass"] else 2


# -- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="chebotarev-lab", description="Chebotarev / Artin coefficient verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=0, help="rng seed for selftests")
        p.add_argument("--catalog", default=None, help=f"extra catalog file (or ${CATALOG_ENV})")
        # --selftest swaps the subcommand's function for its oracle comparisons
        p.add_argument("--selftest", dest="func", action="store_const", const=cmd_selftest,
                       help="run this module's oracle comparisons")

    p = sub.add_parser("coeffs", help="Dirichlet coefficients a_K(n) or a_KxK'(n)")
    common(p)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--other-field", default=None)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("splitting", help="Frobenius data table for primes up to a limit")
    common(p)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("large-sieve", help="mean-value integrals and bound-shape reports")
    common(p)
    p.add_argument("--fields", default="gaussian,sqrt5")
    p.add_argument("--Q", type=_finite_float, default=200.0)
    p.add_argument("--T", type=_finite_float, default=1.0)
    p.add_argument("--y", type=_finite_float, default=2.0)
    p.add_argument("--u", type=_finite_float, default=1000.0)
    p.add_argument("--sigma", type=_finite_float, default=None)
    p.add_argument("--rule", default=None, help="intersection rule override")
    p.set_defaults(func=cmd_large_sieve)

    p = sub.add_parser("weights", help="evaluate the smooth cutoff f and its transform F")
    common(p)
    p.add_argument("--x", type=_finite_float, default=1000.0)
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--grid", type=_grid, default="0:1.2:0.05", help="t grid lo:hi:step")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("eta", help="error-term data eta(x) tables")
    common(p)
    p.add_argument("--disc", type=int, default=229)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--Q", type=_finite_float, default=None, help="family mode: discriminant bound")
    p.add_argument("--eps", type=_finite_float, default=0.5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--c1", type=_finite_float, default=None)  # cmd_eta fills in zfr's defaults
    p.add_argument("--c-eps", type=_finite_float, default=None)
    p.add_argument("--x-values", type=_float_list, default="1000,1000000,1000000000")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("chebotarev", help="exact class counts and weighted sums")
    common(p)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--class", dest="cls", default="1")
    p.add_argument("--x", type=_finite_float, default=100.0)
    p.add_argument("--weights-eps", type=_finite_float, default=None)
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_chebotarev)

    p = sub.add_parser("family", help="family reports: m_F(Q) and averaged errors")
    common(p)
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
