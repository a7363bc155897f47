"""Run gossipvote's CLI with its modules' functions wrapped by the span tracer.

    PERFBENCH_TRACE_DIR=DIR python3 perfbench/traced_cli.py [--only NAME ...] -- CLI ARGS

Spans go to DIR, one .npz file per process. --only restricts the wrappers to
the named spans (for example engine.step, to count agent-ticks cheaply).
The time to import gossipvote.cli is recorded as cli.import_s. The clock
starts before anything else is imported, so numpy and the rest of the
program's dependencies count toward it; the tracer is imported afterwards.
"""

from __future__ import annotations

import os
import sys
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ONLY_ENV = "PERFBENCH_TRACE_ONLY"


def _main(argv: list[str]) -> int:
    split = argv.index("--")
    only = tuple(name for flag, name in zip(argv[:split:2], argv[1:split:2]) if flag == "--only")
    started = time.perf_counter()
    import gossipvote.cli

    import_s = time.perf_counter() - started
    from tracer import Tracer

    os.environ[ONLY_ENV] = ",".join(only)
    tracer = Tracer(os.environ[TRACE_DIR_ENV], only)
    tracer.import_s = import_s
    tracer.install()
    try:
        return gossipvote.cli.main(argv[split + 1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
elif __name__ == "__mp_main__" and TRACE_DIR_ENV in os.environ:
    # A worker started by spawn or forkserver imports this file under this
    # name before it unpickles its job; install the wrappers there too.
    from tracer import Tracer

    _worker = Tracer(os.environ[TRACE_DIR_ENV], tuple(filter(None, os.environ.get(ONLY_ENV, "").split(","))))
    _worker.install()
