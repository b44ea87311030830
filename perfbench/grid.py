"""The simulation points the benchmark workloads draw from.

Both grids use the paper's five fetch strategies and its cache sizes.

* ``livermore-sweep`` simulates the 14-loop program at full scale on the
  headline panel (memory access time 6, 4-byte input bus: Figure 5a).
* ``serve-mixed`` asks a ``repro-sim serve`` process (scale 0.25) for
  points on the paper's figure panels plus extra memory access times,
  so that every closed-loop run can find enough points that are not yet
  cached.

Every point has a name (``point_name``) under which
``perfbench/reference.json`` keeps its reference checksum.
"""

from __future__ import annotations

LIVERMORE_SCALE = 1.0
SERVE_SCALE = 0.25

#: memory access time, input bus width, pipelined memory
HEADLINE_PANEL = (6, 4, False)
SERVE_PANELS = tuple(
    [(access, width, False) for access in (1, 2, 3, 4, 6, 8, 12) for width in (4, 8)]
    + [(6, 8, True)]
)

#: the cache size of the one point per strategy that the rung ablation times
ABLATION_SIZE = 128

#: the eight distinct points of the scripted client session in
#: ``examples/service_session.py`` (conventional and PIPE 16-16 at 64 to
#: 512 bytes, ``MachineConfig`` default memory); ``serve-mixed`` prefills
#: its service's result cache with them
SESSION_PANEL = (6, 8, False)
SESSION_POINTS = tuple((label, size) for size in (64, 128, 256, 512) for label in ("conventional", "PIPE 16-16"))


def panel_overrides(panel: tuple) -> dict:
    access, width, pipelined = panel
    return {
        "memory_access_time": access,
        "input_bus_width": width,
        "memory_pipelined": pipelined,
    }


def point_name(label: str, size: int, panel: tuple) -> str:
    access, width, pipelined = panel
    memory = "pipelined" if pipelined else "flat"
    return f"{label}/{size}/t{access}/w{width}/{memory}"


def grid(panels) -> list[tuple[str, str, int, tuple]]:
    """``(name, strategy label, cache size, panel)`` for every point."""
    from repro.core.config import PAPER_CACHE_SIZES
    from repro.core.sweep import standard_strategies

    return [
        (point_name(label, size, panel), label, size, panel)
        for panel in panels
        for label in standard_strategies()
        for size in PAPER_CACHE_SIZES
    ]


def machine_config(label: str, size: int, panel: tuple):
    from repro.core.sweep import standard_strategies

    return standard_strategies()[label](size, **panel_overrides(panel))
