"""Run ``python -m repro serve`` and record when each job finished.

Usage::

    python3 perfbench/serve.py <done-file> <span-dir|-> serve [serve options]

When the server exits it writes ``<done-file>``: a JSON object mapping
each job id to the ``time.perf_counter()`` reading at which the server
marked the job terminal (the same clock as the load generator's on
Linux, so the load generator measures latency from the due time to
completion without the granularity of its status polls). With a span
directory instead of ``-``, the benchmark's layer spans are installed
too: the server writes its aggregates there when it exits, and its pool
worker, forked after the wrappers are in place, writes its own after
every job.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def record_done_times(done: Dict[str, float]) -> None:
    """Stamp each job when admission answers it from the cache or the
    dispatcher applies its final pool event."""
    from repro.service.app import ServiceApp

    submit, apply = ServiceApp.submit, ServiceApp._apply

    def stamped_submit(self, payload):
        answer = submit(self, payload)
        body = answer[1]
        if body.get("terminal"):
            done.setdefault(body["job"], time.perf_counter())
        return answer

    def stamped_apply(self, event):
        entry = self._in_flight.get(event.index)
        apply(self, event)
        if entry is not None and entry.job.terminal:
            done.setdefault(entry.job.id, time.perf_counter())

    ServiceApp.submit = stamped_submit
    ServiceApp._apply = stamped_apply


def main() -> int:
    from repro.cli import main as repro_main

    done_file, span_dir, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = None
    if span_dir != "-":
        from perfbench.spans import Tracer

        tracer = Tracer(Path(span_dir))
        tracer.install()
    done: Dict[str, float] = {}
    record_done_times(done)
    server = os.getpid()
    try:
        return repro_main(argv)
    finally:
        if os.getpid() == server:  # not in a forked worker leaving
            done_file.write_text(json.dumps(done))
            if tracer is not None:
                tracer.dump(force=True)


if __name__ == "__main__":
    raise SystemExit(main())
