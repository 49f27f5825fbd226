"""One in-process library session of the count-session workload.

    python3 perfbench/session.py SPEC_JSON [--setup-only] [--spans PATH]

Set-up imports the package, parses the catalog sample and builds the sieve.
Then the queries of SPEC_JSON run in order against that one sieve, each
timed, with the calibration kernel timed between every CALIBRATE_EVERY of
them, and one JSON object with the results and timings goes to stdout.
With ``--spans`` the public functions are traced and the spans written to PATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import calibration

CALIBRATE_EVERY = 40  # queries between calibration points: the session runs for seconds

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from chebotarev_lab import chebotarev, families, fields, sieve, weights

    catalog = {fd.name: fd for fd in fields.load_catalog(spec["catalog"])}
    primes = sieve.sieve_primes(spec["sieve_limit"])
    if args.setup_only:
        return 0

    def field(name):
        return catalog[name] if name in catalog else fields.builtin_field(name)

    def run(q: dict) -> dict:
        fd = field(q["field"]) if "field" in q else None
        kind = q["q"]
        if kind == "tally":
            t = chebotarev.splitting_tally(fd, q["x"], primes)
            return {"by_class": t.by_class, "ramified": t.ramified, "unresolved": t.unresolved}
        if kind == "count":
            c = chebotarev.pi_C_count(fd, fd.group.class_by_label(q["class"]), q["x"], primes)
            return {"count": c.count, "expected": c.expected, "error": c.error}
        if kind == "psi":
            params = weights.WeightParams(x=q["x"], eps=q["eps"])
            return {"psi": chebotarev.psi_weighted_class(fd, fd.group.class_by_label(q["class"]), params, primes)}
        if kind == "base_change":
            cls = fd.group.class_by_label(q["class"])
            a3 = frozenset(e for e in fd.group.elements() if fd.group.element_orders[e] in (1, 3))
            b = chebotarev.base_change_compare(fd, cls, a3, q["x"], primes)
            return {"pi_c": b.pi_c, "pi_ch": b.pi_ch, "scale": b.scale, "lhs": b.lhs, "rhs_bound": b.rhs_bound}
        if kind == "family":
            fam = families.Family(fields=tuple(field(n) for n in q["fields"]), q_bound=q["Q"])
            r = families.avg_cheb_error(fam, q["x"], primes)
            return {"size": r.size, "m": r.multiplicity, "x": r.x, "avg_error": r.avg_error,
                    "per_field": r.per_field, "bound_shapes": r.diagnostics}
        raise ValueError(f"unknown query {kind!r}")

    results, times, calib = [], [], []
    clock = time.perf_counter
    for i, q in enumerate(spec["queries"]):
        if tracer is not None:
            tracer.op_id = i
        if i % CALIBRATE_EVERY == 0:
            calib += calibration.sample()
        t0 = clock()
        try:
            results.append(run(q))
        except Exception as exc:  # a failed query is reported, not fatal
            results.append({"exception": f"{type(exc).__name__}: {exc}"})
        times.append(clock() - t0)
    if tracer is not None:
        tracer.save(args.spans)
    json.dump({"times": times, "calib": calib, "results": results}, sys.stdout,
              default=lambda o: o.item() if hasattr(o, "item") else str(o))
    return 0


if __name__ == "__main__":
    sys.exit(main())
