"""Run one edgedist CLI command with span tracing.

    python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Behaves like ``python -m edgedist.cli CLI_ARGS...`` (same output, same
exit code) and writes the import time and the spans of the command to
SPANS_JSON.  The caller puts the package on PYTHONPATH.
"""

import json
import sys
import time

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import edgedist
    import edgedist.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(edgedist)
    try:
        rc = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
