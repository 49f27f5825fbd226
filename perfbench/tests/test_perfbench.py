"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    # self times add up to the root's duration
    assert tracing.self_times(start, end, parent).sum() == 10.0


def test_summary_groups_spans_by_function_and_layer(tmp_path):
    t = tracing.Tracer()
    leaf = t.wrap("gfpoly.factor_degrees", lambda f, p: [(1, 1)])
    outer = t.wrap("fields.frobenius_like", lambda: [leaf([1, 0, 1], p) for p in (3, 5, 3)])
    outer()
    path = tmp_path / "spans.npz"
    t.save(str(path))
    s = tracing.summarize([str(path)])
    assert s["calls"]["gfpoly"] == 3 and s["calls"]["fields"] == 1
    assert s["distinct_pairs"] == 2
    total = tracing.load(str(path))
    assert s["self_s"]["fields"] + s["self_s"]["gfpoly"] == pytest.approx(total["end"][0] - total["start"][0])


def test_traced_cli_output_equals_untraced(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["chebotarev", "--field", "s3cubic", "--class", "3", "--x", "300"]
    plain = subprocess.run([sys.executable, "-m", "chebotarev_lab.cli", *argv], env=env, capture_output=True)
    spans = tmp_path / "op.npz"
    traced = subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(spans), "7", "--", *argv],
                            env=env, capture_output=True)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    s = tracing.summarize([str(spans)])
    assert s["calls"]["fields.frobenius_data"] == ref.pi(300)
    assert s["calls"]["cli.main"] == 1
    assert set(tracing.load(str(spans))["op"].tolist()) == {7}


def test_oracles_known_values():
    assert ref.pi(10_000) == 1229
    # the forms of discriminant -23 against counting roots of x^3 - x - 1 mod p
    primes = ref.primes_upto(600)
    want = {0: "3", 1: "2", 3: "1"}
    for p, label in zip(primes.tolist(), ref.class_labels("s3cubic", primes)):
        roots = sum((r**3 - r - 1) % p == 0 for r in range(p))
        assert label == ("" if p == 23 else want[roots]), p
    # 59 splits in the S3 closure: A(59) is five 1s, so a_{KxK}(59^2) = h_2(25 ones) = C(26, 2)
    assert ref.rankin_selberg("s3cubic", "s3cubic", 59**2)[59**2] == 325


def test_same_seed_same_inputs(tmp_path):
    a = [op.argv for op in wl.count_oneshot(3, ROOT, tmp_path)]
    b = [op.argv for op in wl.count_oneshot(3, ROOT, tmp_path)]
    c = [op.argv for op in wl.count_oneshot(4, ROOT, tmp_path)]
    assert a == b and a != c


@pytest.fixture
def small_oneshot(monkeypatch):
    for name, value in (("S3_X", 400), ("FAMILY_ROWS", 2), ("FAMILY_X", 300), ("GAUSSIAN_X", 2000),
                        ("ZETA7_X", 2000), ("SPLIT_LIMIT", 500)):
        monkeypatch.setattr(wl, name, value)
    return run.Runner("count-oneshot", 0, 1, trace=False)


def test_correct_outputs_pass(small_oneshot):
    assert small_oneshot.run_pass(0, traced=False).failures == []


def test_wrong_output_counts_as_failure(small_oneshot, monkeypatch):
    real_spawn = small_oneshot.spawn

    def tamper(argv):
        r = real_spawn(argv)
        if "s3cubic" in argv and "3" in argv:
            payload = json.loads(r.out)
            payload["count"] += 1
            r.out = json.dumps(payload).encode()
        return r

    monkeypatch.setattr(small_oneshot, "spawn", tamper)
    failures = small_oneshot.run_pass(0, traced=False).failures
    assert len(failures) == 1 and failures[0].startswith("chebotarev:s3cubic:3: count")


def test_failed_exit_counts_as_failure(small_oneshot, monkeypatch):
    op = small_oneshot.ops[0]
    monkeypatch.setattr(op, "argv", [*op.argv, "--no-such-flag"])
    failures = small_oneshot.run_pass(0, traced=False).failures
    assert len(failures) == 1 and "exit 1" in failures[0]


def test_defect_probes_tell_fixed_from_reproduced():
    counts, ramified = ref.class_counts("bad5", wl.BAD5_X, 5)
    assert wl.bad5_probe({"by_class": counts, "ramified": ramified, "unresolved": 0}) == "fixed"
    defect = {"by_class": {**counts, "2": counts["2"] - 1}, "ramified": 2, "unresolved": 0}
    assert wl.bad5_probe(defect) == "reproduced"
    assert wl.bad5_probe({**defect, "ramified": 3}) == "wrong"
    assert wl.rs_defect_probe(b"", b'"message": "Rankin-Selberg exponent capped at 8"', 1) == "reproduced"
    assert wl.rs_defect_probe(b"n,a_KxK\n1,1\n", b"", 0) == "wrong"
