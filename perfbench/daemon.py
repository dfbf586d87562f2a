"""The benchmark's own ``repro serve`` launcher.

Runs the same :func:`repro.service.server.run_service` the CLI does,
with the per-client rate limit raised so benchmark traffic is never
refused, on an ephemeral port (the ready line on stderr names it).
With ``--trace`` it installs the same layer wrappers as the traced
worker before serving. When its stdin closes (the worker closes it,
or dies) it shuts down as on SIGTERM and writes a JSON report: its
peak RSS and, when traced, its per-span aggregates::

    python perfbench/daemon.py --results-dir DIR --report FILE \\
        [--trace] [--spans FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
import threading
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.service.server import ServiceConfig, run_service

    recorder = None
    if args.trace:
        import layers
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder, layers.install_targets())
    config = ServiceConfig(
        host="127.0.0.1", port=0, jobs=1, results_dir=args.results_dir,
        rate=1e9, burst=1e9, max_pending=1_000_000,
    )
    def stop_on_eof():
        sys.stdin.read()
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=stop_on_eof, daemon=True).start()
    asyncio.run(run_service(config))
    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": recorder.aggregate() if recorder is not None else {},
        "spans": len(recorder.spans) if recorder is not None else 0,
    }
    if recorder is not None and args.spans:
        recorder.write(args.spans)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
