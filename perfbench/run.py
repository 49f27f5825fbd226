"""Benchmark for chebotarev-lab: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Operations run one at a time from this process (closed loop, one client), all
pinned to one CPU: the CLI workloads start one fresh process per operation
that runs `chebotarev_lab.cli.main` as the console script does, the session
workload one library session per pass.  A pass runs every operation of the seeded workload once,
after one timed set-up; passes repeat while the next one fits in S seconds.

The speed of a shared virtual CPU swings by tens of percent within seconds
and from one run to the next.  Two things keep the figures steady.  Every
time is the fastest of its repeats (as timeit does): an operation's latency
is its fastest pass, wall_s sums those, setup_s is the fastest set-up.  And
every time is scaled to a reference CPU speed: the kernel of calibration.py
is timed on the same pinned CPU before each process this benchmark starts
and between session queries, and times are multiplied by its reference time
over its fast-end time in the run.  The raw pass times are printed too.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics.  With --trace 1 passes alternate untraced and traced (see tracer.py),
and the JSON carries the per-layer metrics.  Lines before it report every
metric by name and unit, the failure fraction, and the probes of the open
defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

RUN_DEADLINE_S = 170.0  # a run must end within 180 s; children are killed after this
PY = sys.executable or "python3"
# what the installed `chebotarev-lab` console script runs; `python -m` would
# also recompile cli.py on every call, which no installed user pays
CLI = [PY, "-c", "import sys; from chebotarev_lab.cli import main; sys.exit(main(sys.argv[1:]))"]
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("primes_per_s", "1/s"), ("coeffs_per_s", "1/s"),
              ("op_s.p50", "s"), ("op_s.p90", "s"), ("peak_rss_mb", "MB")]
# (metric, unit, source): "calls"/"self_s" read spans of a layer or function,
# "counter" reads a counter kept by a span observer
PER_LAYER = [
    ("gfpoly.calls", "count", ("calls", "gfpoly")),
    ("gfpoly.self_s", "s", ("self_s", "gfpoly")),
    ("gfpoly.calls_per_distinct", "ratio", None),
    ("fields.frobenius.calls", "count", ("calls", "fields.frobenius_data")),
    ("fields.frobenius.self_s", "s", ("self_s", "fields.frobenius_data")),
    ("fields.route.residue", "count", ("counter", "fields.route.residue")),
    ("fields.route.poly", "count", ("counter", "fields.route.poly")),
    ("fields.route.ramified", "count", ("counter", "fields.route.ramified")),
    ("fields.route.ambiguous", "count", ("counter", "fields.route.ambiguous")),
    ("chebotarev.calls", "count", ("calls", "chebotarev")),
    ("families.self_s", "s", ("self_s", "families")),
    ("weights.f_eval.calls", "count", ("calls", "weights.f_eval")),
    ("arith.factorize.calls", "count", ("calls", "arith.factorize")),
    ("artin.calls", "count", ("calls", "artin")),
    ("large_sieve.msq.calls", "count", ("calls", "large_sieve.msq_integral")),
    ("large_sieve.msq.terms", "count", ("counter", "large_sieve.msq.terms")),
    ("large_sieve.msq.peak_mb", "MB", None),
    ("sieve.calls", "count", ("calls", "sieve")),
    ("sieve.self_s", "s", ("self_s", "sieve")),
    ("cli.out_bytes", "bytes", None),
    ("trace.overhead_s", "s", None),
]
# Self times of layers that some workload never enters: they read exactly 0
# there, so they are printed and written to the trace summary but kept out of
# the JSON line, where every time must be a measurement.
REPORT_ONLY = [
    ("chebotarev.self_s", "s", ("self_s", "chebotarev")),
    ("weights.self_s", "s", ("self_s", "weights")),
    ("arith.factorize.self_s", "s", ("self_s", "arith.factorize")),
    ("artin.self_s", "s", ("self_s", "artin")),
    ("large_sieve.msq.self_s", "s", ("self_s", "large_sieve.msq_integral")),
    ("cli.self_s", "s", ("self_s", "cli")),
]
WORKLOADS = ("count-oneshot", "count-session", "coeffs-meanvalue")


@dataclass
class Spawned:
    out: bytes
    err: bytes
    rc: int
    seconds: float


@dataclass
class Pass:
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    primes: int = 0
    coeffs: int = 0
    out_bytes: int = 0
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    span_files: list = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = ROOT / ".perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.spec_path = None
        if workload == "count-session":
            self.ops, spec = wl.count_session(seed, ROOT, self.work)
            self.spec_path = self.work / "session.json"
            self.spec_path.write_text(json.dumps(spec), encoding="utf-8")
        elif workload == "count-oneshot":
            self.ops = wl.count_oneshot(seed, ROOT, self.work)
        else:
            self.ops = wl.coeffs_meanvalue(seed, ROOT, self.work)
        self.max_rss = 0.0
        self.setup: list[float] = []
        self.calib: list[float] = []

    # -- processes -----------------------------------------------------------

    def speed(self) -> float:
        """Factor from measured seconds to reference seconds: the kernel's
        reference time over its fast end (10th percentile) in this run."""
        return calibration.REFERENCE_S / statistics.quantiles(self.calib, n=10)[0]

    def spawn(self, argv: list[str]) -> Spawned:
        """Run argv to completion; time it and take its peak RSS from wait4."""
        self.calib += calibration.sample()
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss = max(self.max_rss, usage.ru_maxrss / 1024.0)
        return Spawned(out, err_path.read_bytes(), proc.returncode, seconds)

    def setup_argv(self) -> list[str]:
        if self.spec_path:
            return [PY, str(HERE / "session.py"), str(self.spec_path), "--setup-only"]
        return [PY, "-c", "import chebotarev_lab.cli"]

    def measure_setup(self) -> None:
        r = self.spawn(self.setup_argv())
        if r.rc != 0:
            raise RuntimeError(f"set-up failed: {r.err.decode(errors='replace')[-400:]}")
        self.setup.append(r.seconds)

    # -- passes --------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> Pass:
        spans_dir = self.work / "spans" / f"pass{index}"
        if traced:
            spans_dir.mkdir(parents=True)
        if self.spec_path:
            return self.session_pass(spans_dir if traced else None)
        p = Pass()
        for i, op in enumerate(self.ops):
            if traced:
                spans = spans_dir / f"op{i}.npz"
                argv = [PY, str(HERE / "traced_cli.py"), str(spans), str(i), "--", *op.argv]
                p.span_files.append(str(spans))
            else:
                argv = [*CLI, *op.argv]
            r = self.spawn(argv)
            p.latencies.append(r.seconds)
            p.out_bytes += len(r.out)
            p.digests.append(hashlib.sha256(r.out).hexdigest())
            why = f"exit {r.rc}: {r.err.decode(errors='replace')[-300:]}" if r.rc else checked(op, r.out)
            if why:
                p.failures.append(f"{op.name}: {why}")
            p.primes += op.primes
            p.coeffs += op.coeffs
        p.wall = sum(p.latencies)
        return p

    def session_pass(self, spans_dir: Path | None) -> Pass:
        argv = [PY, str(HERE / "session.py"), str(self.spec_path)]
        p = Pass()
        if spans_dir is not None:
            spans = spans_dir / "session.npz"
            argv += ["--spans", str(spans)]
            p.span_files.append(str(spans))
        r = self.spawn(argv)
        if r.rc != 0:
            p.failures.append(f"session exit {r.rc}: {r.err.decode(errors='replace')[-300:]}")
            p.wall = r.seconds
            p.latencies = [r.seconds]
            return p
        data = json.loads(r.out)
        p.latencies = data["times"]
        p.wall = sum(p.latencies)
        self.calib += data["calib"]
        for op, result in zip(self.ops, data["results"]):
            text = json.dumps(result).encode()
            p.digests.append(hashlib.sha256(text).hexdigest())
            why = result["exception"] if "exception" in result else checked(op, text)
            if why:
                p.failures.append(f"{op.name} x={op.query['x']}: {why}")
            p.primes += op.primes
            p.coeffs += op.coeffs
        if len(data["results"]) != len(self.ops):
            p.failures.append(f"session returned {len(data['results'])} of {len(self.ops)} results")
        return p

    def run_passes(self) -> list[Pass]:
        """Whole passes while the next one is expected to fit in the run length."""
        passes = []
        self.spawn(self.setup_argv())  # warm-up: byte-compiles the package once
        begin = time.perf_counter()
        while True:
            self.measure_setup()  # one set-up per pass, spread over the run like the passes
            traced = self.trace and len(passes) % 2 == 1  # traced runs alternate untraced and traced passes
            passes.append(self.run_pass(len(passes), traced))
            elapsed = time.perf_counter() - begin
            if self.trace and len(passes) < 2:
                continue
            if elapsed + passes[-1].wall > self.seconds or time.monotonic() > self.deadline - 60:
                return passes

    # -- defect probes -------------------------------------------------------------

    def probes(self) -> list[tuple[str, str]]:
        """Re-run the open defects of ROADMAP items 3 and 5 once, outside the passes."""
        if self.workload == "coeffs-meanvalue":
            r = self.spawn([*CLI, *wl.RS_DEFECT_ARGV])
            return [("rs-n600 (ROADMAP item 3)", wl.rs_defect_probe(r.out, r.err, r.rc))]
        if self.workload == "count-session":
            catalog = self.work / "bad5_catalog.txt"
            catalog.write_text(wl.BAD5_ROW + "\n", encoding="utf-8")
            spec = self.work / "bad5.json"
            spec.write_text(json.dumps({"catalog": str(catalog), "sieve_limit": wl.BAD5_X,
                                        "queries": [{"q": "tally", "field": "bad5", "x": wl.BAD5_X}]}))
            r = self.spawn([PY, str(HERE / "session.py"), str(spec)])
            state = "wrong"
            if r.rc == 0:
                state = wl.bad5_probe(json.loads(r.out)["results"][0])
            return [("bad5 tally (ROADMAP item 5)", state)]
        return []


def checked(op, out: bytes) -> str | None:
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output is a wrong output
        return f"check raised {type(exc).__name__}: {exc}"


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's fastest time over the passes."""
    return [min(ts) for ts in zip(*(p.latencies for p in passes))]


def end_to_end(runner: Runner, passes: list[Pass]) -> tuple[dict, list[str]]:
    k = runner.speed()
    setup = runner.setup
    best = [t * k for t in best_latencies(passes)]
    wall = sum(best)
    values = {
        "setup_s": min(setup) * k,
        "wall_s": wall,
        "primes_per_s": passes[0].primes / wall,
        "coeffs_per_s": passes[0].coeffs / wall,
        "op_s.p50": quantile(best, 50),
        "op_s.p90": quantile(best, 90),
        "peak_rss_mb": runner.max_rss,
    }
    notes = {
        "setup_s": f"fastest of {len(setup)} set-ups",
        "wall_s": f"sum of {len(best)} operations, each its fastest of {len(passes)} passes",
        "op_s.p50": f"over the {len(best)} operations",
        "op_s.p90": f"over the {len(best)} operations",
        "peak_rss_mb": "highest ru_maxrss of any child",
    }
    lines = [f"  {name:<26}{values[name]:>16.6g} {unit:<6} {notes.get(name, '')}" for name, unit in END_TO_END]
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(runner.ops, best):
        by_kind.setdefault(op.name.split(":")[0] if op.query else op.name, []).append(t)
    lines += [f"    {kind:<32} {sum(ts):.4f} s over {len(ts)}" for kind, ts in by_kind.items()]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lines


def per_layer(runner: Runner, passes: list[Pass]) -> tuple[dict, list[str], dict]:
    untraced, traced = passes[0::2], passes[1::2]
    overhead = sum(best_latencies(traced)) - sum(best_latencies(untraced))
    summaries = [tracing.summarize(p.span_files) for p in traced]

    def read(summary: dict, p: Pass, name: str, source) -> float:
        if name == "gfpoly.calls_per_distinct":
            distinct = summary["distinct_pairs"]
            return summary["calls"]["gfpoly"] / distinct if distinct else 0.0
        if name == "large_sieve.msq.peak_mb":
            return summary["msq_peak_bytes"] / 2**20
        if name == "cli.out_bytes":
            return p.out_bytes
        if name == "trace.overhead_s":
            return overhead
        kind, key = source
        return summary["counters"][key] if kind == "counter" else summary[kind][key]

    values, lines, summary_out = {}, [], {}
    for name, unit, source in PER_LAYER + REPORT_ONLY:
        per_pass = [read(s, p, name, source) for s, p in zip(summaries, traced)]
        if unit == "s":
            value = min(per_pass) * runner.speed()
        else:
            value = per_pass[0]
            if any(v != value for v in per_pass):
                lines.append(f"  WARNING {name} differs between traced passes: {per_pass}")
        summary_out[name] = {"value": value, "unit": unit}
        if (name, unit, source) in PER_LAYER:
            values[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<26}{value:>16.6g} {unit:<6}{'' if name in values else ' (report only)'}")
    return values, lines, summary_out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("src/chebotarev_lab/__init__.py", "demos/catalog_quadratics.txt"):
        if not (ROOT / needed).is_file():
            sys.stderr.write(f"perfbench: {needed} not found under {ROOT}; run from a chebotarev-lab checkout\n")
            return 2

    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and every child, so no operation migrates
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = runner.run_passes()
    probes = runner.probes()
    failures = [f for p in passes for f in p.failures]
    attempted = len(runner.ops) * len(passes)
    failures += [f"pass {i} output differs from pass 0"
                 for i, p in enumerate(passes) if p.digests != passes[0].digests]
    correct = not failures and all(state != "wrong" for _, state in probes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} x {len(runner.ops)} operations, "
          f"pass walls {' '.join(f'{p.wall:.3f}' for p in passes)} s (measured)")
    print(f"  calibration fast end {calibration.REFERENCE_S / runner.speed() * 1e3:.3f} ms over {len(runner.calib)} "
          f"runs, reference {calibration.REFERENCE_S * 1e3:.1f} ms: times below are measured seconds x "
          f"{runner.speed():.4f}")
    if args.trace:
        metrics, lines, summary = per_layer(runner, passes)
        (runner.work / "trace-summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    else:
        metrics, lines = end_to_end(runner, passes)
    print("\n".join(lines))
    print(f"  {'fail_frac':<26}{len(failures) / attempted:>16.6g} {'ratio':<6} {len(failures)} of {attempted}")
    for name, state in probes:
        print(f"  probe {name}: {state}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
