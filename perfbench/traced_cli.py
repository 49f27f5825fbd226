"""Run one chebotarev-lab CLI command with its public functions traced.

    python3 perfbench/traced_cli.py SPANS_PATH OP_ID -- CLI_ARGS...

stdout, stderr and the exit code are the CLI's own; the spans go to
SPANS_PATH when the command returns.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_PATH OP_ID -- CLI_ARGS...")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op_id = int(op_id)
    from chebotarev_lab import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
