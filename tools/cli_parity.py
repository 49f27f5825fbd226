"""Compare the CLI of two source trees, invocation by invocation.

    python tools/cli_parity.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding a ``chebotarev_lab`` package,
for instance that of a ``git archive`` of the parent commit and that of the
working tree.  One worker process per tree imports its package and runs
``chebotarev_lab.cli.main`` in process on a fixed matrix of argument lists:
every subcommand, over the built-in fields, the demo catalog and a few inline
rows (an index divisor, a quadratic index divisor, S4, A4, A5, and an S4
quartic tagged D4 and C4, whose tables raise GroupMismatch), and the family of
the A4 row alone and of the A5 row alone, whose counts meet an unresolved
prime.  For each invocation the exit code, stdout and stderr of the two trees
are compared.
One line is printed per invocation that differs, then a summary; the exit
code is 1 if any differs, else 0.
"""

from __future__ import annotations

import json
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
    "bad5": ("bad5 | -5 0 1 | C2 | 5", ["1", "2"], [1, 2]),
    "s4quartic": ("s4quartic | -1 -1 0 0 1 | S4 | -283", ["1", "2a", "2b", "3", "4"], [1, 2, 3, 4]),
    "a4quartic": ("a4quartic | 12 8 0 0 1 | A4 | 331776", ["1", "2", "3a", "3b"], [1, 2, 3]),
    "a5quintic": ("a5quintic | 16 20 0 0 0 1 | A5 | 1024000000", ["1", "2", "3", "5a", "5b"], [1, 2, 3, 5]),
    "liar4": ("liar4 | -1 -1 0 0 1 | D4 | -283", ["1", "2a", "2b", "2c"], [1, 2]),
    "s4c4": ("s4c4 | -1 -1 0 0 1 | C4 | -283", ["1", "2", "4a", "4b"], [1, 2, 4]),
}
AMBIGUOUS_ROWS = ("a4quartic", "a5quintic")  # each read as a catalog of its own, for a one-field family
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
    demo = ["--catalog", str(DEMO_CATALOG)]
    for q, x in (("50", "300"), ("200", "2000"), ("200", "7000.5"), ("1000", "1000")):
        runs.append(["family", *demo, "--Q", q, "--x", x])
    runs.append(["family", *cat, "--Q", "200", "--x", "1000"])
    runs.append(["family", *demo, "--rule", "explicit-pairs", "--x", "500"])
    runs.append(["family", *demo, "--rule", "bogus"])
    for name in AMBIGUOUS_ROWS:
        runs.append(["family", "--catalog", str(Path(catalog).with_name(f"{name}.txt")), "--rule", "explicit-pairs",
                     "--Q", "2e9", "--x", "1000"])
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
