"""A traced cold CLI unit: ``python coldchild.py SPANS_JSON SPAWNED ARGS...``.

Does what ``python -m repro ARGS...`` does -- import ``repro.cli`` and
call ``main(ARGS)`` -- inside one root span, with the import in a span of
its own and every layer function wrapped once it is imported.  SPAWNED is
the worker's ``time.perf_counter()`` when it asked for this process to be
started (one clock for every process on Linux); the root span starts
there, so its self time includes interpreter start-up.  Writes the spans to SPANS_JSON and
exits with the CLI's exit code.
"""

import json
import sys

from spans import IMPORT, Tracer


def main() -> int:
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    with tracer.unit(0, started=spawned):
        with tracer.span(IMPORT):
            import repro.cli
        tracer.install()
        code = repro.cli.main(argv)
    with open(out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
