"""Run one ``bpl`` command in this fresh interpreter and report on stdout.

Usage: python3 perfbench/child.py '<json request>'

The request holds ``argv`` (the ``bpl`` arguments), ``cmd_id``, ``trace``
(install the span tracer) and ``spans`` (a path for the raw spans, or null).
The reply is one JSON line: the time at which ``bpl.cli`` was imported and
its parser built (``time.monotonic``, comparable with the parent's clock),
the in-process ``main()`` time, the exit code, the CSV written to stdout, the
peak RSS, and with tracing the per-span-name summary.
"""

import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bpl import cli  # noqa: E402

cli.build_parser()
ready = time.monotonic()


def run(request: dict) -> dict:
    tracer = originals = None
    if request["trace"]:
        import spans as span_trace

        tracer = span_trace.Tracer()
        originals = span_trace.install(tracer)
    captured = io.StringIO()
    real_stdout = sys.stdout
    raised = None
    sys.stdout = captured
    t0 = time.perf_counter()
    try:
        code = cli.main(request["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a traceback is a failed command, reported as such
        code = 1
        raised = traceback.format_exc()
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout = real_stdout
    reply = {
        "ready": ready,
        "main_s": main_s,
        "exit": code,
        "raised": raised,
        "csv": captured.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["trace"] = tracer.summary()
        info = originals["quadrature.jacobi_rule"].cache_info()
        reply["jacobi"] = {"hits": info.hits, "misses": info.misses}
        if request.get("spans"):
            tracer.write_spans(request["spans"], request["cmd_id"])
    return reply


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.loads(sys.argv[1]))) + "\n")
