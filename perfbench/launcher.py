"""Run one ``umbra`` command in-process with the benchmark's tracer installed.

Usage: ``python perfbench/launcher.py <umbra arguments>`` with ``PYTHONPATH``
naming the package source.  The spans and their summary go to the file named
by ``PERFBENCH_SPANS`` when the command ends; ``PERFBENCH_TRACE_ID`` tags them.
"""

import os
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracer.trace_id = int(os.environ.get("PERFBENCH_TRACE_ID", "0"))
    tracer.install()
    from umbralcalc import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    raise SystemExit(main())
