"""Worker-pool primitives shared by every simulation fan-out.

Every point of a cache-size sweep — and most experiment loops — is an
independent, deterministic ``simulate(config, program)`` call, so they
parallelize trivially across worker processes (processes, not threads:
the simulator is pure Python and CPU-bound).  One pool does the
fanning out: :func:`repro.core.resilience.supervised_map`, with
:func:`repro.core.resilience.supervised_simulate_many` as the only way
a batch of simulation points is resolved.  An unsupervised run is the
same path with retries, backoff, timeout and checkpoint off.  The job
service keeps its own async pool (:mod:`repro.core.service`), whose
worker body (:func:`_service_point`) lives here.

This module holds what those pools share:

* job-count resolution, in priority order: an explicit ``jobs``
  argument (the ``--jobs`` CLI flag), the ``REPRO_JOBS`` environment
  variable, ``os.cpu_count()``;
* config-affinity batching (:func:`affinity_batches`), which groups
  points by kernel family so each family compiles on as few workers
  as possible;
* the worker initializers: the benchmark program is shipped to each
  worker once rather than once per point, so workers then receive only
  the small :class:`MachineConfig` per task;
* the traced fan-out (:func:`simulate_many_traced`).

Results always come back in submission order, so parallel runs are
bit-identical to serial ones.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path
from typing import Sequence

from ..asm.program import Program
from .config import MachineConfig
from .results import SimulationResult

__all__ = [
    "JOBS_ENV",
    "affinity_batches",
    "config_affinity_key",
    "resolve_jobs",
    "simulate_many_traced",
]

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_JOBS`` > cpu count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer {JOBS_ENV}={env!r}")
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Config-affinity batching: group sweep points by kernel family
# ----------------------------------------------------------------------
#: Ceiling on points per IPC batch, whatever the grid size: batches
#: bound the retry/timeout blast radius (a killed worker forfeits at
#: most one batch of work) and keep per-point fault injection precise.
MAX_AFFINITY_BATCH = 8


def config_affinity_key(config: MachineConfig) -> str:
    """The scheduling affinity key of one sweep point: its kernel family.

    Every config field except the ones that never reach the generated
    kernel text: ``icache_size``, ``memory_access_time``, and
    ``input_bus_width`` all parameterize runtime state (cache geometry
    and memory timing enter the kernel through its exec-time globals),
    so all sizes and memory speeds of one machine shape share codegen
    warmth — one generated source, one bytecode compile, one set of
    dispatch handlers.  Sweeps vary exactly these fields, which is what
    makes the grouping dense.
    """
    fields = config.to_dict()
    for name in ("icache_size", "memory_access_time", "input_bus_width"):
        fields.pop(name, None)
    return repr(sorted(fields.items()))


def affinity_batches(
    keys: Sequence[str],
    jobs: int,
    max_batch: int = MAX_AFFINITY_BATCH,
) -> list[list[int]]:
    """Deterministic point-index batches, one kernel family per batch.

    Indices are grouped by affinity key (first-occurrence order, so the
    plan is a pure function of the input), each group is chunked to at
    most ``min(max_batch, ceil(n/jobs))`` points — small enough that
    every worker gets work even when one family dominates — and chunks
    are emitted round-robin across families so distinct families run
    concurrently rather than queueing behind one another.  Order never
    affects *results*: callers merge per-point outcomes by index.
    """
    groups: dict[str, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    jobs = max(1, jobs)
    cap = max(1, min(int(max_batch), -(-len(keys) // jobs)))
    chunked = [
        [indices[start : start + cap] for start in range(0, len(indices), cap)]
        for indices in groups.values()
    ]
    batches: list[list[int]] = []
    depth = 0
    while True:
        emitted = False
        for chunks in chunked:
            if depth < len(chunks):
                batches.append(chunks[depth])
                emitted = True
        if not emitted:
            return batches
        depth += 1


# ----------------------------------------------------------------------
# Simulation fan-out: the program lives in each worker, configs travel.
# ----------------------------------------------------------------------
_worker_program: Program | None = None


def _init_simulation_worker(program: Program) -> None:
    global _worker_program
    _worker_program = program


# ----------------------------------------------------------------------
# Service fan-out: one job-service point per pool task.
# ----------------------------------------------------------------------
def _service_point(task: tuple[str, dict, tuple]):
    """Worker body for one service point: injectors, then the ladder.

    ``task`` is ``(key, config fields, rungs)`` — the rung tuple is the
    service's circuit-breaker board's surviving ladder, so a rung whose
    breaker is open is never attempted in any worker.  Returns
    ``(result, served rung, fault events)`` exactly like the supervised
    sweep's worker body, so the parent can feed its breaker board and
    fault report from the same channel.
    """
    from .faults import maybe_hang_point, maybe_kill_worker
    from .resilience import FaultReport, ladder_simulate

    key, fields, rungs = task
    maybe_kill_worker(key)
    maybe_hang_point(key)
    assert _worker_program is not None, "worker initialized without a program"
    config = MachineConfig.from_dict(fields)
    report = FaultReport()
    result, rung = ladder_simulate(
        config,
        _worker_program,
        report=report,
        point=key[:12],
        rungs=tuple(rungs),
    )
    return result, rung, report.events


# ----------------------------------------------------------------------
# Traced fan-out: workers stream each point's events to a per-point part
# file; the parts are merged in submission order, so the combined trace
# is byte-identical to a serial traced run of the same config list.
# ----------------------------------------------------------------------
_worker_trace_dir: str | None = None


def _init_traced_worker(program: Program, trace_dir: str) -> None:
    global _worker_trace_dir
    _init_simulation_worker(program)
    _worker_trace_dir = trace_dir


def _trace_part_name(index: int) -> str:
    return f"part-{index:06d}.jsonl"


def _simulate_traced_point(task: tuple[int, MachineConfig]) -> SimulationResult:
    from .simulator import simulate_traced

    index, config = task
    assert _worker_program is not None, "worker initialized without a program"
    assert _worker_trace_dir is not None, "worker initialized without a trace dir"
    part = os.path.join(_worker_trace_dir, _trace_part_name(index))
    return simulate_traced(config, _worker_program, trace_path=part)


def simulate_many_traced(
    program: Program,
    configs: Sequence[MachineConfig],
    trace_path: str | os.PathLike,
    jobs: int | None = None,
) -> list[SimulationResult]:
    """Simulate every config with tracing on, writing one merged trace.

    Every point runs with a JSONL sink (plus a metrics sink, so each
    result carries its ``trace_metrics``); the merged ``trace_path`` is
    byte-identical regardless of ``jobs``.  Points fan out through
    :func:`~repro.core.resilience.supervised_map` with retries off, so a
    failing point raises :class:`~repro.core.resilience.SweepPointError`
    once its siblings have finished.
    """
    from .resilience import supervised_map
    from .trace import merge_trace_files

    configs = list(configs)
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as staging:
        results = supervised_map(
            _simulate_traced_point,
            list(enumerate(configs)),
            jobs=jobs,
            max_retries=0,
            backoff=0,
            initializer=_init_traced_worker,
            initargs=(program, staging),
        )
        parts = [
            Path(staging) / _trace_part_name(index) for index in range(len(configs))
        ]
        merge_trace_files(parts, trace_path)
    return results
