"""Traced CLI launcher: ``python3 cli_launch.py SPANS_OUT ARGV...``.

Times the import of hmfcert, installs the span wrappers, runs
``hmfcert.cli.run(ARGV)`` and exits with its code, like
``python -m hmfcert.cli ARGV``.  The spans go to SPANS_OUT as one JSON
list when the command has ended.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import hmfcert.cli
    tracer.add_span("import.hmfcert", t0, time.perf_counter())
    tracer.install()
    tracer.op = 0
    code = hmfcert.cli.run(argv)
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
