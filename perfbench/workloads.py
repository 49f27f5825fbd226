"""Seeded inputs and output checks for the three workloads.

A workload is a list of operations that one pass runs in order.  The seed
picks the catalog rows, jitters every x (and n) by up to JITTER, and picks the
classes of single-class CLI counts (the session queries every class).  The
program sees only the generated argv and catalog files; every output is
checked against a reference from ``oracles``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as ref

JITTER = 0.02
WEIGHTS_EPS = 0.1
FAMILY_Q = 100
CATALOG = Path("demos") / "catalog_quadratics.txt"

# count-oneshot sizes
S3_X = 6_000
FAMILY_ROWS = 3
FAMILY_X = 3_000
GAUSSIAN_X = 150_000
ZETA7_X = 300_000
SPLIT_LIMIT = 60_000
# coeffs-meanvalue sizes
ZETA7_N = 30_000
S3_N = 8_000
RS_N = (480, 511)  # 2^9 > n keeps every Rankin-Selberg exponent <= 8
LS_FIELDS = ("gaussian", "sqrt5")
LS_Q, LS_Y, LS_U = 200, 2, 25_000  # u fixed: peak memory grows as u^2
# count-session sizes
SESSION_X = 6_000
SESSION_STEPS = 10
SESSION_CATALOG_ROWS = 2

# The rows that reproduce the open defects (ROADMAP items 3 and 5).  They run
# once per run as probes outside the timed passes, see ``run.py``.
BAD5_ROW = "bad5 | -5 0 1 | C2 | 5"
BAD5_X = 1000
RS_DEFECT_ARGV = ["coeffs", "--field", "sqrt5", "--other-field", "zeta7", "--n", "600"]

Check = Callable[[bytes], "str | None"]  # None when the output is right, else why not


@dataclass
class Op:
    """One operation of a pass, with the work its output implies."""

    name: str
    argv: list[str]  # CLI arguments (empty for a session query)
    check: Check
    primes: int  # Frobenius classifications, repeats included
    coeffs: int  # coefficients emitted plus Dirichlet terms summed
    query: dict | None = None  # library call, for the session workload


def _jitter(rng: random.Random, value: int) -> int:
    return int(round(value * (1.0 + rng.uniform(-JITTER, JITTER))))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got!r}, want {want!r}"


def catalog_rows(root: Path) -> list[str]:
    lines = (root / CATALOG).read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines if ln.split("#", 1)[0].strip()]


def _row_name_disc(row: str) -> tuple[str, int]:
    parts = [p.strip() for p in row.split("|")]
    return parts[0], int(parts[3])


# -- reference outputs ----------------------------------------------------------


def count_reference(name: str, label: str, x: float, disc: int | None = None) -> dict:
    counts, _ = ref.class_counts(name, x, disc)
    _, order, _ = ref.field_info(name, disc)
    pi_x = ref.pi(x)
    expected = ref.class_size(name, label) / order * pi_x
    return {"count": counts[label], "expected": expected, "error": counts[label] - expected}


def _compare(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if key not in got:
            return f"missing {key}"
        if isinstance(value, float):
            if not isinstance(got[key], (int, float)) or not close(got[key], value):
                return _mismatch(key, got[key], value)
        elif got[key] != value:
            return _mismatch(key, got[key], value)
    return None


def _json_check(want: dict) -> Check:
    def check(out: bytes) -> str | None:
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return _compare(got, want)

    return check


def _text_check(want: str) -> Check:
    def check(out: bytes) -> str | None:
        got = out.decode()
        if got == want:
            return None
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            if a != b:
                return _mismatch(f"line {i + 1}", a, b)
        return _mismatch("line count", got.count("\n"), want.count("\n"))

    return check


def family_reference(rows: list[str], x: float, q_bound: float) -> dict:
    pi_x = ref.pi(x)
    per_field = {}
    for row in rows:
        name, disc = _row_name_disc(row)
        counts, _ = ref.class_counts(name, x, disc)
        per_field[name] = max(abs(c - pi_x / 2) for c in counts.values())
    avg = math.fsum(per_field.values()) / len(rows)
    shape = x / math.log(x) ** 2
    discs = [_row_name_disc(r)[1] for r in rows]
    m_f = max(discs.count(d) for d in discs)
    return {
        "size": len(rows), "m": m_f, "x": x, "avg_error": avg, "per_field": per_field,
        "bound_shapes": {"eps": 0.5, "shape_x_over_logx_power": shape, "avg_over_shape": avg / shape,
                         "mF_Qeps_over_size": m_f * q_bound**0.5 / len(rows)},
    }


def _family_check(want: dict) -> Check:
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        for key in ("per_field", "bound_shapes"):
            if set(got.get(key, {})) != set(want[key]):
                return _mismatch(f"{key} keys", sorted(got.get(key, {})), sorted(want[key]))
            why = _compare(got[key], want[key])
            if why:
                return f"{key}.{why}"
        return _compare(got, {k: v for k, v in want.items() if k not in ("per_field", "bound_shapes")})

    return check


def splitting_reference(limit: int) -> str:
    primes = ref.primes_upto(limit)
    labels = ref.class_labels("cyclo7plus", primes)
    lines = ["p,ramified,factorization_type,frobenius_order,class"]
    for p, lab in zip(primes.tolist(), labels):
        if not lab:
            lines.append(f"{p},1,,,")
        elif lab == "1":
            lines.append(f"{p},0,1+1+1,1,1")
        else:
            lines.append(f"{p},0,3,3,{lab}")
    return "\n".join(lines) + "\n"


def coeffs_reference(values: dict[int, int], header: str) -> str:
    return "\n".join([header] + [f"{n},{a}" for n, a in sorted(values.items())]) + "\n"


def large_sieve_reference(fields: tuple[str, ...], q_bound: float, y: float, u: float) -> tuple[dict, int]:
    lhs = 0.0
    terms = 0
    for name in fields:
        value, n = ref.mean_value(ref.field_info(name)[0], y, u, 1.0)
        lhs += value
        terms += n
    m = 1  # every field of the family is quadratic, and their discriminants differ
    rhs = 2.0 * m**2 * math.log(math.log(y)) + math.log(1) + math.log(math.log(u))
    want = {"kind": "mean-value", "lhs": lhs, "rhs_shape_log": rhs, "ratio_log": math.log(lhs) - rhs,
            "params": {"Q": float(q_bound), "T": 1.0, "y": float(y), "u": float(u), "m": m, "m_F": 1}}
    return want, terms


def _large_sieve_check(want: dict) -> Check:
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        why = _compare(got, {k: v for k, v in want.items() if k != "params"})
        if why:
            return why
        if got.get("params") != want["params"]:
            return _mismatch("params", got.get("params"), want["params"])
        notes = got.get("notes", [])
        if len(notes) != 1 or not notes[0].startswith("window start"):
            return _mismatch("notes", notes, ["window start ... below the admissible floor"])
        return None

    return check


# -- count-oneshot ----------------------------------------------------------------


def cli_count_reference(name: str, label: str, x: int) -> dict:
    return {"field": name, "class": label, "x": float(x), "pi_x": ref.pi(x), **count_reference(name, label, x)}


def count_oneshot(seed: int, root: Path, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    x = _jitter(rng, S3_X)
    for label in ("2", "3"):
        want = cli_count_reference("s3cubic", label, x)
        ops.append(Op(f"chebotarev:s3cubic:{label}", ["chebotarev", "--field", "s3cubic", "--class", label,
                                                      "--x", str(x)], _json_check(want), ref.pi(x), 0))
    rows = rng.sample(catalog_rows(root), FAMILY_ROWS)
    catalog = work / "family_catalog.txt"
    catalog.write_text("\n".join(rows) + "\n", encoding="utf-8")
    x = _jitter(rng, FAMILY_X)
    ops.append(Op("family:quadratics", ["family", "--catalog", str(catalog), "--Q", str(FAMILY_Q), "--x", str(x)],
                  _family_check(family_reference(rows, x, FAMILY_Q)), FAMILY_ROWS * ref.pi(x), 0))
    x = _jitter(rng, GAUSSIAN_X)
    label = rng.choice(["1", "2"])
    psi, terms = ref.psi("gaussian", label, x, WEIGHTS_EPS)
    want = {"psi_weighted": psi, "weights_eps": WEIGHTS_EPS, **cli_count_reference("gaussian", label, x)}
    ops.append(Op(f"chebotarev:gaussian:{label}:weights",
                  ["chebotarev", "--field", "gaussian", "--class", label, "--x", str(x),
                   "--weights-eps", str(WEIGHTS_EPS)], _json_check(want),
                  ref.pi(x) + ref.pi(x * math.exp(WEIGHTS_EPS)), terms))
    x = _jitter(rng, ZETA7_X)
    label = rng.choice(sorted(ref.ZETA7_RESIDUES))
    want = cli_count_reference("zeta7", label, x)
    ops.append(Op(f"chebotarev:zeta7:{label}", ["chebotarev", "--field", "zeta7", "--class", label, "--x", str(x)],
                  _json_check(want), ref.pi(x), 0))
    limit = _jitter(rng, SPLIT_LIMIT)
    ops.append(Op("splitting:cyclo7plus", ["splitting", "--field", "cyclo7plus", "--limit", str(limit)],
                  _text_check(splitting_reference(limit)), ref.pi(limit), 0))
    return ops


# -- coeffs-meanvalue ----------------------------------------------------------------


def coeffs_meanvalue(seed: int, root: Path, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for name, base in (("zeta7", ZETA7_N), ("s3cubic", S3_N)):
        n = _jitter(rng, base)
        values = ref.series_a_K(name, n)
        ops.append(Op(f"coeffs:{name}", ["coeffs", "--field", name, "--n", str(n)],
                      _text_check(coeffs_reference(values, "n,a_K")), ref.omega_sum(values), len(values)))
    n = rng.randint(*RS_N)
    values = ref.rankin_selberg("s3cubic", "zeta7", n)
    ops.append(Op("coeffs:s3cubic-x-zeta7", ["coeffs", "--field", "s3cubic", "--other-field", "zeta7", "--n", str(n)],
                  _text_check(coeffs_reference(values, "n,a_KxK")), 2 * ref.omega_sum(values), len(values)))
    want, terms = large_sieve_reference(LS_FIELDS, LS_Q, LS_Y, LS_U)
    ops.append(Op("large-sieve:gaussian,sqrt5", ["large-sieve", "--fields", ",".join(LS_FIELDS), "--Q", str(LS_Q),
                                                 "--y", str(LS_Y), "--u", str(LS_U)],
                  _large_sieve_check(want), terms, terms))
    return ops


def rs_defect_probe(out: bytes, err: bytes, rc: int) -> str:
    """Classify the n = 600 Rankin-Selberg run: "fixed", "reproduced" or "wrong"."""
    if rc == 0:
        want = coeffs_reference(ref.rankin_selberg("sqrt5", "zeta7", 600), "n,a_KxK")
        return "fixed" if out.decode() == want else "wrong"
    if rc == 1 and b"Rankin-Selberg exponent capped" in err:
        return "reproduced"
    return "wrong"


# -- count-session -------------------------------------------------------------------


def session_xs(rng: random.Random) -> list[int]:
    """SESSION_STEPS values rising geometrically to SESSION_X, each jittered."""
    return [_jitter(rng, SESSION_X * 2.0 ** ((i + 1 - SESSION_STEPS) / 2)) for i in range(SESSION_STEPS)]


def count_session(seed: int, root: Path, work: Path) -> tuple[list[Op], dict]:
    """The queries of one library session, and the spec the session child runs."""
    rng = random.Random(seed)
    rows = rng.sample(catalog_rows(root), SESSION_CATALOG_ROWS)
    catalog = work / "session_catalog.txt"
    catalog.write_text("\n".join(rows) + "\n", encoding="utf-8")
    quads = [_row_name_disc(r) for r in rows]
    fields = [("s3cubic", None), ("zeta7", None)] + quads
    ops = []
    xs = session_xs(rng)
    for x in xs:
        for name, disc in fields:
            labels = list(ref.field_info(name, disc)[2])
            counts, ramified = ref.class_counts(name, x, disc)
            ops.append(Op(f"tally:{name}", [], _json_check({"by_class": counts, "ramified": ramified,
                                                            "unresolved": 0}),
                          ref.pi(x), 0, {"q": "tally", "field": name, "x": x}))
            for label in labels:
                ops.append(Op(f"count:{name}:{label}", [], _json_check(count_reference(name, label, x, disc)),
                              ref.pi(x), 0, {"q": "count", "field": name, "class": label, "x": x}))
            for label in labels:
                psi, terms = ref.psi(name, label, x, WEIGHTS_EPS, disc)
                ops.append(Op(f"psi:{name}:{label}", [], _json_check({"psi": psi}),
                              ref.pi(x * math.exp(WEIGHTS_EPS)), terms,
                              {"q": "psi", "field": name, "class": label, "x": x, "eps": WEIGHTS_EPS}))
        # base change for the 3-cycles of s3cubic with H = A3: a prime of the
        # quadratic resolvent has Frobenius g0 exactly once above each 3-cycle
        # prime, so pi_C = pi_{C_H}, the scale is 1 and the difference 0
        pi_c = ref.class_counts("s3cubic", x)[0]["3"]
        rhs = 2 / 6 * (6 * math.sqrt(x) + 2.0 / math.log(2.0) * math.log(12167))
        ops.append(Op("base_change:s3cubic:3", [], _json_check({"pi_c": pi_c, "pi_ch": pi_c, "scale": 1.0,
                                                                 "lhs": 0.0, "rhs_bound": rhs}),
                      ref.pi(x), 0, {"q": "base_change", "field": "s3cubic", "class": "3", "x": x}))
        ops.append(Op("family:session", [], _family_check(family_reference(rows, x, FAMILY_Q)),
                      len(rows) * ref.pi(x), 0, {"q": "family", "fields": [n for n, _ in quads], "x": x,
                                                 "Q": FAMILY_Q}))
    spec = {"catalog": str(catalog), "sieve_limit": int(max(xs) * math.exp(WEIGHTS_EPS)) + 2,
            "queries": [op.query for op in ops]}
    return ops, spec


def bad5_probe(result: dict) -> str:
    """Classify the bad5 tally to BAD5_X: "fixed", "reproduced" or "wrong".

    x^2 - 5 has discriminant 20 but the field Q(sqrt 5) has 5: only 5
    ramifies, and 2 is inert.  The open defect reports 2 as ramified.
    """
    counts, ramified = ref.class_counts("bad5", BAD5_X, 5)
    fixed = {"by_class": counts, "ramified": ramified, "unresolved": 0}
    if result == fixed:
        return "fixed"
    defect = {"by_class": {**counts, "2": counts["2"] - 1}, "ramified": ramified + 1, "unresolved": 0}
    return "reproduced" if result == defect else "wrong"
