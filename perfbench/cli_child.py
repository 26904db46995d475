"""Traced stand-in for ``python -m sincprod.cli ARGS``.

Runs the CLI's main() with spans around sincprod's public functions and
prints one JSON object: exit code, the CLI's own standard output, and the
spans. The parent measures wall time around this process.

Usage: python perfbench/cli_child.py integrate 1 1/3 1/5
"""

import contextlib
import io
import json
import sys

import tracing


def main(argv) -> int:
    import sincprod
    import sincprod.cli

    tracer = tracing.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with tracing.install(tracer, sincprod), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sincprod.cli.main(argv)
    print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "spans": tracer.export()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
