"""``repro-sim serve`` with benchmark spans around the service's cache calls.

Used by the traced ``serve-mixed`` run in place of ``python -m repro.cli
serve``.  It wraps ``SimulationService.resolve_point`` and the
``SimulationCache`` lookup/store methods of this process with spans
(:meth:`spans.Recorder.wrapped`, as the benchmark does in its own
process), runs the unchanged ``serve`` command, and writes the spans and
counters to ``OUT`` when the service stops (SIGINT)::

    python3 perfbench/serve_traced.py OUT.json -- [serve arguments]

Each ``service.resolve_point`` span carries the request's ``tenant``
field as its ``request`` attribute; the benchmark client sends a unique
request id there, which links the span to the client request that
caused it.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack


def main(argv: list[str]) -> int:
    out, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    from spans import Recorder

    from repro import cli
    from repro.core.service import SimulationService
    from repro.core.simcache import SimulationCache

    recorder = Recorder()

    def request_id(span, args, kwargs) -> None:
        span["request"] = kwargs.get("tenant")

    with ExitStack() as stack:
        stack.enter_context(
            recorder.wrapped(SimulationService, "resolve_point", "service.resolve_point", before=request_id)
        )
        stack.enter_context(recorder.wrapped(SimulationCache, "lookup", "simcache.lookup"))
        stack.enter_context(recorder.wrapped(SimulationCache, "store", "simcache.store"))
        try:
            return cli.main(["serve", *serve_args])
        finally:
            recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
