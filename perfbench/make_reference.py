"""Regenerate ``perfbench/reference.json``: the expected result checksums.

Every point of both grids (``perfbench/grid.py``) is simulated once on
the interpreted reference loop, with idle skipping, loop replay and the
compiled kernel all off.  The benchmark then checks every result the
fast engines produce against these checksums.

The Livermore array data depends on the benchmark seed, but timing does
not: the script checks a few points under two other seeds and refuses
to write the table if any checksum differs.

Run from the repository root (takes several minutes)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import grid  # noqa: E402

#: seeds the seed-independence spot check uses besides the default
CHECK_SEEDS = (7, 123)


def _reference_point(task: tuple) -> tuple[str, int, str]:
    name, label, size, panel, scale, seed = task
    from repro.core.simulator import simulate
    from repro.kernels.suite import cached_livermore_suite

    program = cached_livermore_suite(scale=scale, seed=seed).program
    config = grid.machine_config(label, size, panel)
    result = simulate(config, program, skip=False, replay=False, compiled=False)
    return name, result.cycles, result.checksum()


def main() -> int:
    from repro.kernels.suite import build_livermore_suite

    default_seed = inspect.signature(build_livermore_suite).parameters["seed"].default
    tables = {
        "livermore-sweep": (grid.LIVERMORE_SCALE, grid.grid([grid.HEADLINE_PANEL])),
        "serve-mixed": (grid.SERVE_SCALE, grid.grid(grid.SERVE_PANELS)),
    }
    tasks = [
        (name, label, size, panel, scale, default_seed)
        for scale, points in tables.values()
        for name, label, size, panel in points
    ]
    spot = grid.grid([grid.HEADLINE_PANEL])[::6]
    checks = [
        (name, label, size, panel, grid.SERVE_SCALE, seed)
        for seed in CHECK_SEEDS
        for name, label, size, panel in spot
    ]
    with ProcessPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(_reference_point, tasks + checks))
    results, spot_results = done[: len(tasks)], done[len(tasks) :]

    serve_sums = {name: checksum for name, _cycles, checksum in results}
    for name, _cycles, checksum in spot_results:
        if serve_sums[name] != checksum:
            print(f"checksum of {name} depends on the array seed", file=sys.stderr)
            return 1

    out: dict = {"seed": default_seed, "engine": "reference (skip, replay, compiled off)"}
    position = 0
    for workload, (scale, points) in tables.items():
        rows = results[position : position + len(points)]
        position += len(points)
        out[workload] = {
            "scale": scale,
            "points": {
                name: {"cycles": cycles, "checksum": checksum}
                for name, cycles, checksum in rows
            },
        }
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(results)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
