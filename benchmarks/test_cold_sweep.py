"""Cold multi-worker sweep: warm-fleet orchestration vs naive dispatch.

A figure-scale sweep fans ~46 points (five strategies x five cache
sizes x two memory speeds) over four freshly spawned workers.  Cold,
every worker used to pay the full codegen bill for every kernel family
it happened to touch — the naive scheduler scatters points across
workers, so with four workers each family compiles up to four times,
plus a per-program dispatch table re-derived from scratch in each
worker.

The warm-fleet stack attacks that bill twice, and this benchmark times
the three rungs separately on the same grid with byte-identical
results:

* ``naive`` — one point per pool task, no persistent artifacts: the
  per-point worker body driven straight through ``supervised_map``
  with ``REPRO_NO_DISK_CODEGEN=1`` — the pre-orchestration behaviour;
* ``affinity`` — config-affinity batches keep each kernel family on as
  few workers as possible, so a family compiles once per worker that
  actually serves it instead of once per worker that happens to meet
  it;
* ``affinity+disk`` — batches plus the persistent codegen artifact
  store: the first worker to compile a family publishes source and
  bytecode, every other worker (and every later batch) warm-starts
  from the artifact instead of regenerating and re-``compile()``-ing.

Target: ``affinity+disk`` finishes the cold sweep >= 1.4x faster than
``naive`` (makespan), and all three modes return results byte-identical
to the serial reference.  The table lands in
``benchmarks/results/cold_sweep.txt``.

The 1.4x target assumes the workers can actually run concurrently.  On
a single-core host the naive baseline degenerates into accidental
affinity — one worker drains the queue in long bursts, so families
rarely scatter — and both modes bottom out at the same serialized
simulation floor; the target scales down to 1.15x there (the measured
win is then batching + artifact reuse alone).  The published table
records the host parallelism next to the numbers.
"""

import os
import tempfile
import time
from pathlib import Path

from repro.core.compiled import clear_compile_cache
from repro.core.config import PIPE_CONFIGURATIONS, MachineConfig
from repro.core.parallel import _init_simulation_worker
from repro.core.resilience import (
    _supervised_point,
    supervised_map,
    supervised_simulate_many,
)
from repro.core.simcache import sweep_point_keys
from repro.kernels.suite import build_livermore_program

_JOBS = 4
_SIZES = (32, 64, 128, 256, 512)
_MEMORY_ACCESS_TIMES = (6, 16)
_ROUNDS = 3  # min-of-3 cold runs per mode (each round fully reset)

#: the unsupervised settings: retries, backoff and timeout off
_UNSUPERVISED = {"max_retries": 0, "backoff": 0}


def _simulate_per_point(program, configs, jobs):
    """One point per pool task, no affinity batches and no priming."""
    tasks = list(zip(sweep_point_keys(program, configs), configs))
    return [
        result
        for result, _rung, _events in supervised_map(
            _supervised_point,
            tasks,
            jobs=jobs,
            initializer=_init_simulation_worker,
            initargs=(program,),
            **_UNSUPERVISED,
        )
    ]


def _simulate_batched(program, configs, jobs):
    """The one fan-out path: affinity batches plus codegen priming."""
    return supervised_simulate_many(program, configs, jobs=jobs, **_UNSUPERVISED)


_MODES = (
    ("naive", _simulate_per_point, {"REPRO_NO_DISK_CODEGEN": "1"}),
    ("affinity", _simulate_batched, {"REPRO_NO_DISK_CODEGEN": "1"}),
    ("affinity+disk", _simulate_batched, {"REPRO_NO_DISK_CODEGEN": "0"}),
)


def _grid() -> list[MachineConfig]:
    """The figure-scale point grid, in sweep enumeration order."""
    configs = []
    for name in PIPE_CONFIGURATIONS:
        for access_time in _MEMORY_ACCESS_TIMES:
            for size in _SIZES:
                try:
                    configs.append(
                        MachineConfig.pipe(
                            name, size, memory_access_time=access_time
                        )
                    )
                except ValueError:
                    continue  # cache smaller than the line size
    for access_time in _MEMORY_ACCESS_TIMES:
        for size in _SIZES:
            configs.append(
                MachineConfig.conventional(size, memory_access_time=access_time)
            )
    return configs


def test_cold_sweep_orchestration(benchmark, results_dir):
    program = build_livermore_program(scale=0.05, loops=(3,))
    configs = _grid()

    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_NO_DISK_CODEGEN", "REPRO_CACHE_DIR")
    }

    def restore():
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    try:
        # The truth: a clean serial run, orchestration out of the picture.
        os.environ["REPRO_NO_DISK_CODEGEN"] = "1"
        clear_compile_cache()
        reference = _simulate_batched(program, configs, jobs=1)

        makespans = {tag: float("inf") for tag, _run, _env in _MODES}
        with tempfile.TemporaryDirectory(prefix="repro-cold-sweep-") as scratch:
            # Rounds interleave the modes (naive, affinity, disk, naive,
            # ...) so slow drift in background load biases no mode.
            for round_id in range(_ROUNDS):
                for tag, run, env in _MODES:
                    os.environ.update(env)
                    # a pristine artifact root per round keeps every
                    # round genuinely cold (no cross-round warm starts)
                    root = Path(scratch) / f"{tag}-{round_id}"
                    os.environ["REPRO_CACHE_DIR"] = str(root)
                    clear_compile_cache()  # parent caches cold too
                    start = time.perf_counter()
                    results = run(program, configs, jobs=_JOBS)
                    elapsed = time.perf_counter() - start
                    makespans[tag] = min(makespans[tag], elapsed)
                    assert results == reference, (
                        f"{tag}: parallel sweep diverged from the serial "
                        "reference"
                    )
    finally:
        restore()
        clear_compile_cache()

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cores = os.cpu_count() or 1
    target = 1.4 if cores >= 2 else 1.15
    speedup_affinity = makespans["naive"] / makespans["affinity"]
    speedup_full = makespans["naive"] / makespans["affinity+disk"]
    lines = [
        "Cold multi-worker sweep: warm-fleet orchestration vs naive dispatch",
        f"({len(configs)} points, {_JOBS} workers on {cores} core(s), "
        f"min of {_ROUNDS} cold runs per mode,",
        " fresh worker pools and artifact roots every round; results "
        "byte-identical",
        " to the serial reference in every mode)",
        "",
        f"{'mode':<16} {'makespan':>10} {'vs naive':>9}",
    ]
    for tag, _run, _env in _MODES:
        lines.append(
            f"{tag:<16} {makespans[tag]:>9.3f}s "
            f"{makespans['naive'] / makespans[tag]:>8.2f}x"
        )
    lines += [
        "",
        f"affinity alone:  {speedup_affinity:.2f}x",
        f"affinity + disk: {speedup_full:.2f}x "
        f"(target >= {target}x at {cores} core(s); 1.4x with real "
        "worker parallelism)",
    ]
    text = "\n".join(lines) + "\n"
    print(f"\n{text}")
    (results_dir / "cold_sweep.txt").write_text(text)

    result = benchmark.pedantic(
        lambda: _simulate_batched(program, configs[:4], jobs=1)[0],
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["points"] = len(configs)
    benchmark.extra_info["jobs"] = _JOBS
    benchmark.extra_info["speedup_affinity"] = round(speedup_affinity, 2)
    benchmark.extra_info["speedup_full"] = round(speedup_full, 2)
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["cores"] = cores

    assert speedup_full >= target, (
        f"warm-fleet orchestration delivered only {speedup_full:.2f}x over "
        f"the naive cold sweep (target >= {target}x on {cores} core(s))"
    )
