"""Compare the CLI of two source trees, invocation by invocation.

    python tools/cli_parity.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding a ``chebotarev_lab`` package,
for instance that of a ``git archive`` of the parent commit and that of the
working tree.  One worker process per tree imports its package and runs
``chebotarev_lab.cli.main`` in process on a fixed matrix of argument lists:
every subcommand, over the built-in fields, the demo catalog and a few inline
rows (Dedekind's common index divisor, another index divisor, a quadratic
index divisor, S4, A4, A5, an S4 quartic tagged D4 and C4, whose tables
raise GroupMismatch, and ``late``, a quadratic whose one ramified prime 8209
lies past the first 2^10 primes), the family of the A4 row alone and of the
A5 row alone, whose counts meet an unresolved prime, and that of the demo rows
with ``late``.  ``late`` also runs ``splitting``, ``chebotarev`` (with and
without ``--weights-eps``) and ``family`` at x below and above 8209.  A last
catalog gives Q(sqrt 2) the built-in name ``gaussian``, read once by each
subcommand that reads a catalog.  A few invocations run at the benchmark's
sizes: ``coeffs --n 30000`` and ``chebotarev --x 150000 --weights-eps 0.1``.
The ψ edges run ``chebotarev --weights-eps`` on every class of gaussian,
zeta7, s3cubic, a demo quadratic, ``late`` and ``a4quartic`` (which raises)
at x = p e^-eps, which puts the prime p where supp f ends, at x = 3, which
leaves the plateau block empty, and at x = 11, a prime.
For each invocation the exit code, stdout and stderr of the two trees are
compared.
One line is printed per invocation that differs, then a summary; the exit
code is 1 if any differs, else 0.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_CATALOG = ROOT / "demos" / "catalog_quadratics.txt"

BUILTINS = {  # name -> class labels and element orders of its group
    "rational": (["1"], [1]),
    "gaussian": (["1", "2"], [1, 2]),
    "sqrt5": (["1", "2"], [1, 2]),
    "zeta5": (["1", "2", "4a", "4b"], [1, 2, 4]),
    "cyclo7plus": (["1", "3a", "3b"], [1, 3]),
    "zeta7": (["1", "2", "3a", "3b", "6a", "6b"], [1, 2, 3, 6]),
    "s3cubic": (["1", "2", "3"], [1, 2, 3]),
}
INLINE_ROWS = {  # row, class labels, element orders
    "s3x2": ("s3x2 | -8 -4 0 1 | S3 | -12167", ["1", "2", "3"], [1, 2, 3]),
    # Dedekind's cubic x^3 + x^2 - 2x + 8: 2 divides the index of every order, not D_K
    "idx": ("idx | 8 -2 1 1 | S3 | -503", ["1", "2", "3"], [1, 2, 3]),
    "bad5": ("bad5 | -5 0 1 | C2 | 5", ["1", "2"], [1, 2]),
    "s4quartic": ("s4quartic | -1 -1 0 0 1 | S4 | -283", ["1", "2a", "2b", "3", "4"], [1, 2, 3, 4]),
    "a4quartic": ("a4quartic | 12 8 0 0 1 | A4 | 331776", ["1", "2", "3a", "3b"], [1, 2, 3]),
    "a5quintic": ("a5quintic | 16 20 0 0 0 1 | A5 | 1024000000", ["1", "2", "3", "5a", "5b"], [1, 2, 3, 5]),
    "liar4": ("liar4 | -1 -1 0 0 1 | D4 | -283", ["1", "2a", "2b", "2c"], [1, 2]),
    "s4c4": ("s4c4 | -1 -1 0 0 1 | C4 | -283", ["1", "2", "4a", "4b"], [1, 2, 4]),
    # x^2 - x - 2052: disc 8209, a prime past the 1024th prime 8161
    "late": ("late | -2052 -1 1 | C2 | 8209", ["1", "2"], [1, 2]),
}
LATE_XS = ("5000", "8161", "8208.5", "8209", "8209.5", "9000", "12000.5")  # around the ramified prime 8209
AMBIGUOUS_ROWS = ("a4quartic", "a5quintic")  # each read as a catalog of its own, for a one-field family
PSI_EDGES = [(repr(p * math.exp(-eps)), str(eps)) for p, eps in ((97, 0.1), (1009, 0.01), (7919, 0.2499))] + [
    ("3", "0.1"), ("3", "0.2499"), ("11", "0.1"), ("11", "0.2499")]  # (x, eps) pairs of the psi edges
SHADOW_ROW = "gaussian | -2 0 1 | C2 | 8"  # Q(sqrt 2) under a built-in's name, read as a catalog of its own
SUBCOMMANDS = ["coeffs", "splitting", "large-sieve", "weights", "eta", "chebotarev", "family"]

WORKER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import chebotarev_lab
from chebotarev_lab.cli import main
print(json.dumps(chebotarev_lab.__file__), flush=True)
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is an outcome to compare too
            code = f"uncaught {type(exc).__name__}: {exc}"
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def matrix(catalog: str) -> list[list[str]]:
    """The argument lists, each reading ``catalog`` (the demo rows and the inline rows)."""
    quads = [line.split("|")[0].strip() for line in DEMO_CATALOG.read_text(encoding="utf-8").splitlines()
             if line.split("#", 1)[0].strip()]
    fields = {**BUILTINS, **{name: (["1", "2"], [1, 2]) for name in quads},
              **{name: spec[1:] for name, spec in INLINE_ROWS.items()}}
    cat = ["--catalog", catalog]
    runs: list[list[str]] = []
    for name, (labels, orders) in fields.items():
        for fmt in ("csv", "json"):
            runs.append(["coeffs", *cat, "--field", name, "--n", "150", "--format", fmt])
            runs.append(["coeffs", *cat, "--field", name, "--other-field", "gaussian", "--n", "100", "--format", fmt])
        runs.append(["coeffs", *cat, "--field", "zeta7", "--other-field", name, "--n", "60"])
        runs.append(["splitting", *cat, "--field", name, "--limit", "400"])
        runs.append(["splitting", *cat, "--field", name, "--limit", "100", "--format", "json"])
        for x in ("2.5", "100", "1000.5", "4999"):
            for label in labels + [f"order={d}" for d in orders]:
                runs.append(["chebotarev", *cat, "--field", name, "--class", label, "--x", x])
        for label in labels:
            runs.append(["chebotarev", *cat, "--field", name, "--class", label, "--x", "2000", "--weights-eps", "0.1"])
            runs.append(["chebotarev", *cat, "--field", name, "--class", label, "--x", "97", "--weights-eps", "0.2",
                         "--report", "csv"])
        runs.append(["chebotarev", *cat, "--field", name, "--class", f"order={orders[-1]}", "--x", "500",
                     "--report", "csv"])
    # benchmark sizes: coeffs CSVs of ~2.6e4 rows, and psi upper ramps of ~1300 primes
    for name in ("zeta7", "s3cubic"):
        for fmt in ("csv", "json"):
            runs.append(["coeffs", *cat, "--field", name, "--n", "30000", "--format", fmt])
    for name in ("gaussian", "zeta7", "s3cubic"):
        for label in BUILTINS[name][0]:
            runs.append(["chebotarev", *cat, "--field", name, "--class", label, "--x", "150000",
                         "--weights-eps", "0.1"])
    for name in ("gaussian", "zeta7", "s3cubic", quads[0], "late", "a4quartic"):
        for x, eps in PSI_EDGES:
            for label in fields[name][0]:
                runs.append(["chebotarev", *cat, "--field", name, "--class", label, "--x", x, "--weights-eps", eps])
    demo = ["--catalog", str(DEMO_CATALOG)]
    for q, x in (("50", "300"), ("200", "2000"), ("200", "7000.5"), ("1000", "1000")):
        runs.append(["family", *demo, "--Q", q, "--x", x])
    runs.append(["family", *cat, "--Q", "200", "--x", "1000"])
    late = ["--catalog", str(Path(catalog).with_name("late.txt"))]
    for limit in ("8200", "8300"):
        runs.append(["splitting", *cat, "--field", "late", "--limit", limit, "--format", "json"])
    for x in LATE_XS:
        for label in ("1", "2", "order=2"):
            runs.append(["chebotarev", *cat, "--field", "late", "--class", label, "--x", x])
        for label in ("1", "2"):
            runs.append(["chebotarev", *cat, "--field", "late", "--class", label, "--x", x, "--weights-eps", "0.1"])
        runs.append(["family", *late, "--Q", "1e4", "--x", x])
    runs.append(["family", *demo, "--rule", "explicit-pairs", "--x", "500"])
    runs.append(["family", *demo, "--rule", "bogus"])
    for name in AMBIGUOUS_ROWS:
        runs.append(["family", "--catalog", str(Path(catalog).with_name(f"{name}.txt")), "--rule", "explicit-pairs",
                     "--Q", "2e9", "--x", "1000"])
    shadow = ["--catalog", str(Path(catalog).with_name("shadow.txt"))]
    runs.append(["coeffs", *shadow, "--field", "gaussian", "--n", "12"])
    runs.append(["splitting", *shadow, "--field", "gaussian", "--limit", "100"])
    runs.append(["large-sieve", *shadow, "--fields", "gaussian,sqrt5", "--Q", "10", "--u", "300"])
    runs.append(["chebotarev", *shadow, "--field", "gaussian", "--class", "2", "--x", "100"])
    runs.append(["family", *shadow, "--Q", "100", "--x", "1000"])
    runs.append(["chebotarev", *cat, "--field", "s3cubic", "--class", "order=abc"])
    runs.append(["chebotarev", *cat, "--field", "gaussian", "--class", "1", "--weights-eps", "0"])
    for group in ("gaussian,sqrt5", "quad(-3),quad(5),quad(13)", "s3cubic,zeta7", "bad5,quad(-7)", "s3x2,gaussian",
                  "a4quartic", "zeta5,cyclo7plus"):
        for y, u in (("1.5", "300"), ("2", "1000"), ("2.5", "500"), ("23", "2000")):
            runs.append(["large-sieve", *cat, "--fields", group, "--Q", "10", "--y", y, "--u", u])
        runs.append(["large-sieve", *cat, "--fields", group, "--Q", "10", "--T", "2", "--u", "800", "--sigma", "0.75"])
    runs.append(["large-sieve", "--sigma", "0.3"])
    for x, eps, grid in (("1000", "0.1", "0:1.2:0.05"), ("50", "0.2", "0:1.1:0.1"), ("1e6", "0.01", "0.4:0.6:0.01")):
        runs.append(["weights", "--x", x, "--eps", eps, "--grid", grid])
    for fmt in ("csv", "json"):
        runs.append(["eta", "--disc", "229", "--degree", "2", "--x-values", "1e3,1e6", "--format", fmt])
        runs.append(["eta", "--Q", "100", "--m", "2", "--eps", "0.3", "--x-values", "1000,1000000", "--format", fmt])
    runs.append(["eta", "--disc", "-23", "--degree", "6", "--c1", "0.1", "--c-eps", "0.2"])
    runs.extend([sub, "--selftest"] for sub in SUBCOMMANDS)
    return runs


def run_tree(src: str, runs: list[list[str]]) -> list[list]:
    """(exit code, stdout, stderr) of each argument list, from the package under ``src``."""
    lines = "".join(json.dumps(argv) + "\n" for argv in runs)
    proc = subprocess.run([sys.executable, "-c", WORKER, src], input=lines, capture_output=True, text=True,
                          check=False, cwd=ROOT)
    if proc.returncode:
        raise SystemExit(f"worker for {src} failed:\n{proc.stderr}")
    loaded, *results = proc.stdout.splitlines()
    if not Path(json.loads(loaded)).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"worker for {src} imported chebotarev_lab from {json.loads(loaded)}")
    return [json.loads(line) for line in results]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        catalog = Path(tmp) / "parity_catalog.txt"
        rows = [DEMO_CATALOG.read_text(encoding="utf-8")] + [spec[0] for spec in INLINE_ROWS.values()]
        catalog.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for name in AMBIGUOUS_ROWS:
            (Path(tmp) / f"{name}.txt").write_text(INLINE_ROWS[name][0] + "\n", encoding="utf-8")
        (Path(tmp) / "late.txt").write_text(rows[0] + INLINE_ROWS["late"][0] + "\n", encoding="utf-8")
        (Path(tmp) / "shadow.txt").write_text(SHADOW_ROW + "\n", encoding="utf-8")
        runs = matrix(str(catalog))
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(run_tree, argv, [runs, runs])
    differ = 0
    for args, old, new in zip(runs, parent, change):
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
        if parts:
            differ += 1
            print(f"DIFFER ({', '.join(parts)}): {' '.join(args)}")
    by_sub = Counter(args[0] for args in runs)
    failing = sum(old[0] != 0 and new[0] != 0 for old, new in zip(parent, change))
    print(f"cli_parity: {len(runs)} invocations ({', '.join(f'{k} {v}' for k, v in by_sub.items())}), "
          f"{differ} differ, {failing} exit nonzero in both trees")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
