"""Unit tests for the steady-state replay engine's foundations.

Covers the satellite guarantees of the replay work: ``state_signature``
is pure (fingerprinting never perturbs the machine), equal machine
states produce equal (and equal-hashing) signatures, and the
:class:`~repro.core.replay.StatsBook` counter ledger is *complete* —
it covers every counter a simulation reports and fails loudly when a
stats object grows a field it cannot delta.  The last section covers the
process-wide shadow memo that lets every config after the first reuse
the functional result of a replayed iteration.
"""

import dataclasses
import itertools
import random

import pytest

from repro.asm import assemble
from repro.core import faults, replay
from repro.core import simulator as simulator_module
from repro.core.compiled import clear_compile_cache
from repro.core.config import MachineConfig
from repro.core.faults import FaultPlan
from repro.core.replay import (
    MAX_FIELDS,
    ReplayController,
    StatsBook,
    clear_shadow_memo,
    machine_signature,
    shadow_memo_stats,
)
from repro.core.resilience import FaultReport, ladder_simulate
from repro.core.simulator import Simulator, simulate, simulate_traced
from repro.kernels.generate import generate_workload
from repro.kernels.suite import (
    build_kernel_suite,
    build_livermore_program,
    build_livermore_suite,
)


@pytest.fixture(scope="module")
def loop_program():
    return build_livermore_program(scale=0.05, loops=(3,))


CONFIGS = {
    "pipe": MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "conventional": MachineConfig.conventional(128, memory_access_time=16),
    "tib": MachineConfig.tib(memory_access_time=6),
}


def _step(sim: Simulator, cycles: int, now: int = 0) -> int:
    """Drive the machine through the reference per-cycle phase order."""
    for _ in range(cycles):
        sim.memory.begin_cycle(now)
        sim.engine.update(now)
        sim.frontend.update(now)
        sim.backend.step(now)
        if sim.backend.halted:
            sim.frontend.halt()
        sim.frontend.post_issue(now)
        sim.memory.end_cycle(now)
        now += 1
    return now


# ----------------------------------------------------------------------
# Signature purity and stability
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_signature_is_pure(name, loop_program):
    """Fingerprinting mid-run must not change any machine state.

    Machine A is fingerprinted every cycle, machine B never; after the
    same number of cycles both machines must be in identical states and
    produce identical counter snapshots.
    """
    config = CONFIGS[name]
    sim_a = Simulator(config, loop_program, skip=False, replay=False)
    sim_b = Simulator(config, loop_program, skip=False, replay=False)
    book_a, book_b = StatsBook(sim_a), StatsBook(sim_b)
    now_a = now_b = 0
    for _ in range(200):
        now_a = _step(sim_a, 1, now_a)
        machine_signature(sim_a, now_a)
        machine_signature(sim_a, now_a)  # repeated calls included
        now_b = _step(sim_b, 1, now_b)
    assert machine_signature(sim_a, now_a) == machine_signature(sim_b, now_b)
    assert book_a.snapshot() == book_b.snapshot()
    assert sim_a.backend.state.snapshot() == sim_b.backend.state.snapshot()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_signature_repeated_calls_equal_and_hashable(name, loop_program):
    """The same state must fingerprint identically, with a stable hash."""
    sim = Simulator(CONFIGS[name], loop_program, skip=False, replay=False)
    now = _step(sim, 150)
    first = machine_signature(sim, now)
    second = machine_signature(sim, now)
    assert first == second
    assert hash(first) == hash(second)


def test_signature_equal_across_machines(loop_program):
    """Two identically-driven machines fingerprint identically each cycle."""
    config = CONFIGS["pipe"]
    sim_a = Simulator(config, loop_program, skip=False, replay=False)
    sim_b = Simulator(config, loop_program, skip=False, replay=False)
    now = 0
    for _ in range(120):
        now_a = _step(sim_a, 1, now)
        now_b = _step(sim_b, 1, now)
        assert now_a == now_b
        now = now_a
        assert machine_signature(sim_a, now) == machine_signature(sim_b, now)


# ----------------------------------------------------------------------
# StatsBook completeness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stats_book_covers_every_result_counter(name, loop_program):
    """Every counter surfaced by SimulationResult must be in the ledger.

    This is the tripwire for new stats: a counter added to a dataclass
    is picked up automatically (or rejected at construction), and this
    test pins the plain-attribute manifests.
    """
    sim = Simulator(CONFIGS[name], loop_program)
    book = StatsBook(sim)
    labels = set(book.labels)
    expected = {
        "backend.instructions",
        "backend.branches",
        "backend.branches_taken",
        "backend.stalls",
        "memory.external.total_accepted",
        "memory.external.busy_cycles",
        "memory.fpu.operations_started",
        "memory.fpu.results_delivered",
        "cache.hits",
        "cache.misses",
        "cache.fills",
        "cache.line_replacements",
        "mem.acceptance_conflicts",
        "mem.by_source_bytes",
        "engine.ordering_hazards",
        "engine.ldq_max_wait_entries",
        "fetch.instructions_supplied",
        "fetch.redirects",
        "fetch.squashed_instructions",
    }
    expected |= {
        f"queue.{q}.{c}"
        for q in ("LAQ", "LDQ", "SAQ", "SDQ")
        for c in ("total_pushes", "total_pops", "max_occupancy")
    }
    missing = expected - labels
    assert not missing, f"StatsBook lost counters: {sorted(missing)}"
    # Every dataclass field of every stats object must be present.
    for prefix, stats in (
        ("fetch", sim.frontend.stats),
        ("cache", sim.cache.stats),
        ("mem", sim.memory.stats),
        ("engine", sim.engine.stats),
    ):
        for field in dataclasses.fields(stats):
            assert f"{prefix}.{field.name}" in labels


def test_stats_book_rejects_unknown_field_type(loop_program):
    """A stats field the book cannot delta must fail construction."""
    sim = Simulator(CONFIGS["pipe"], loop_program)

    @dataclasses.dataclass
    class GrownStats:
        hits: int = 0
        label: str = "not-a-counter"

    sim.cache.stats = GrownStats()
    with pytest.raises(RuntimeError, match="cannot account for counter"):
        StatsBook(sim)


def test_stats_book_rejects_bool_counters(loop_program):
    sim = Simulator(CONFIGS["pipe"], loop_program)

    @dataclasses.dataclass
    class FlagStats:
        warmed_up: bool = False

    sim.cache.stats = FlagStats()
    with pytest.raises(RuntimeError, match="cannot account for counter"):
        StatsBook(sim)


def test_stats_book_diff_apply_roundtrip(loop_program):
    """diff() captures counter movement; apply() reproduces it exactly."""
    sim = Simulator(CONFIGS["pipe"], loop_program)
    book = StatsBook(sim)
    before = book.snapshot()
    backend = sim.backend
    backend.instructions += 7
    backend.stalls["frontend_empty"] += 3
    sim.engine.stats.ordering_hazards += 2
    sim.memory.stats.by_source_bytes["icache"] = 64
    sim.engine.laq.total_pushes += 5
    after = book.snapshot()
    delta = book.diff(before, after)
    assert book.max_deltas_zero(delta)
    book.apply(delta)
    doubled = book.snapshot()
    assert book.diff(after, doubled) == delta
    assert backend.instructions == 14
    assert backend.stalls["frontend_empty"] == 6
    assert sim.memory.stats.by_source_bytes["icache"] == 128


def test_stats_book_flags_moving_max_counters(loop_program):
    """A max-style counter that moved blocks engagement."""
    sim = Simulator(CONFIGS["pipe"], loop_program)
    book = StatsBook(sim)
    before = book.snapshot()
    sim.engine.stats.ldq_max_wait_entries += 1
    delta = book.diff(before, book.snapshot())
    assert not book.max_deltas_zero(delta)
    assert "ldq_max_wait_entries" in " ".join(sorted(MAX_FIELDS))


# ----------------------------------------------------------------------
# Controller bookkeeping
# ----------------------------------------------------------------------
def test_loop_reports_shape(loop_program):
    sim = Simulator(CONFIGS["pipe"], loop_program, skip=True, replay=True)
    result = sim.run()
    controller = sim.replay_controller
    assert isinstance(controller, ReplayController)
    reports = controller.loop_reports()
    assert reports, "the loop kernel must produce at least one backedge target"
    top = reports[0]
    assert top["phase"] == "engaged"
    assert top["replayed_cycles"] == controller.replayed_cycles
    assert top["replayed_cycles"] < result.cycles
    assert top["iteration_cycles"] * top["replayed_iterations"] == (
        top["replayed_cycles"]
    )
    # every shadow iteration is a memo hit or a miss, and ends in a
    # replayed iteration or the burst's divergence
    assert top["shadow_memo_hits"] + top["shadow_memo_misses"] == (
        top["replayed_iterations"] + top["divergences"]
    )


# ----------------------------------------------------------------------
# Cross-config shadow memo
# ----------------------------------------------------------------------
MEMO_CONFIGS = (
    MachineConfig.pipe("16-16", 64, memory_access_time=6, input_bus_width=8),
    MachineConfig.pipe("16-16", 128, memory_access_time=6, input_bus_width=8),
    MachineConfig.conventional(128, memory_access_time=6, input_bus_width=8),
)


def _reference(config, program):
    return simulate(config, program, skip=False, replay=False, compiled=False)


@pytest.fixture(scope="module")
def memo_program():
    return build_livermore_suite(scale=0.05, seed=1).program


@pytest.fixture
def cold_memo():
    clear_shadow_memo()
    yield
    clear_shadow_memo()


def test_warm_memo_is_byte_identical_across_configs(memo_program, cold_memo, tmp_path):
    """Configs after the first hit the memo; results, stats and JSONL
    traces stay byte-identical to the reference rung."""
    warm_hits = 0
    for index, config in enumerate(MEMO_CONFIGS):
        sim = Simulator(config, memo_program)
        result = sim.run()
        assert result.canonical_json() == _reference(config, memo_program).canonical_json()
        controller = sim.replay_controller
        divergences = sum(loop["divergences"] for loop in controller.loop_reports())
        assert controller.shadow_memo_hits + controller.shadow_memo_misses == (
            controller.replayed_iterations + divergences
        )
        if index:
            warm_hits += controller.shadow_memo_hits
        fast_path = tmp_path / f"fast-{index}.jsonl"
        reference_path = tmp_path / f"reference-{index}.jsonl"
        fast = simulate_traced(config, memo_program, fast_path)
        reference = simulate_traced(
            config, memo_program, reference_path, skip=False, replay=False, compiled=False
        )
        assert fast.canonical_json() == reference.canonical_json()
        assert fast_path.read_bytes() == reference_path.read_bytes()
    assert warm_hits > 0


def test_memo_hits_still_run_the_timing_checks(monkeypatch, memo_program, cold_memo):
    """A hit supplies only the functional result: with the SAQ-hazard
    and FPU-routing check failing, no iteration replays, warm memo or
    not, and the numbers stay those of the reference."""
    simulate(MEMO_CONFIGS[0], memo_program)  # warms the memo
    monkeypatch.setattr(ReplayController, "_check_events", lambda self, record, env: False)
    config = MEMO_CONFIGS[1]
    sim = Simulator(config, memo_program)
    result = sim.run()
    controller = sim.replay_controller
    assert controller.shadow_memo_hits > 0
    assert controller.replayed_iterations == 0
    assert result.canonical_json() == _reference(config, memo_program).canonical_json()


def _copy_program(seed: int):
    """A loop copying ``src[i] + 1`` to ``dst[i]`` through the queues only.

    Even source words are fixed and odd ones come from ``seed``.  At
    each loop boundary the LDQ value chain holds the word the next
    iteration consumes, and the iteration reads the word after it: so
    whenever the chain holds an even word, two seeds share the entry
    key but not the read set.
    """
    fixed = random.Random(0)
    seeded = random.Random(seed)
    words = [
        (fixed if index % 2 == 0 else seeded).randrange(1 << 31) for index in range(64)
    ]
    return assemble(
        f"""
    li r1, 64
    la r2, src
    la r5, dst
    li r3, 0
    lbr b0, loop
loop:
    ldx r2, r3
    addi r7, r7, 1
    stx r5, r3
    addi r3, r3, 4
    subi r1, r1, 1
    pbrne b0, r1, 2
    nop
    nop
    halt
    .align 4
src:
    .word {", ".join(map(str, words))}
dst:
    .space 256
"""
    )


def test_other_array_data_fails_the_read_set_check(monkeypatch, cold_memo):
    """The same code built at two array seeds shares one memo; where the
    entry keys match, the read-set check turns them into misses."""
    first, second = _copy_program(1), _copy_program(2)
    assert first.image != second.image
    assert replay._program_key(first) == replay._program_key(second)
    rejected = []
    unpack = replay._ShadowEnv.unpack

    def spy(summary, memory, shadow):
        env = unpack(summary, memory, shadow)
        if env is None:
            rejected.append(summary)
        return env

    monkeypatch.setattr(replay._ShadowEnv, "unpack", staticmethod(spy))
    config = MEMO_CONFIGS[1]
    for program in (first, second):
        sim = Simulator(config, program)
        result = sim.run()
        reference = Simulator(config, program, skip=False, replay=False, compiled=False)
        assert result.canonical_json() == reference.run().canonical_json()
        assert sim.engine.memory == reference.engine.memory
    assert rejected


def test_clear_compile_cache_empties_the_memo(loop_program, cold_memo):
    simulate(CONFIGS["pipe"], loop_program)
    assert shadow_memo_stats()["entries"] > 0
    clear_compile_cache()
    assert shadow_memo_stats() == {"programs": 0, "tables": 0, "entries": 0, "bytes": 0}


def test_byte_cap_holds_over_many_generated_programs(monkeypatch, cold_memo):
    """Whole programs are evicted, least recently used first, so the
    memo never holds more than its budget."""
    cap = 16 << 10
    monkeypatch.setattr(replay, "SHADOW_MEMO_MAX_BYTES", cap)
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    engaged = []
    for seed in range(12):
        workload = generate_workload(seed, "default")
        program = build_kernel_suite([workload.kernel], list(workload.arrays)).program
        sim = Simulator(config, program)
        result = sim.run()
        assert result == simulate(config, program, replay=False)
        assert shadow_memo_stats()["bytes"] <= cap
        if sim.replay_controller.shadow_memo_misses:
            engaged.append(replay._program_key(program))
    assert len(engaged) > shadow_memo_stats()["programs"]
    assert engaged[0] not in replay._MEMO
    assert engaged[-1] in replay._MEMO


def test_replay_divergence_with_a_warm_memo_degrades(monkeypatch, memo_program, cold_memo):
    """An injected replay fault that strikes after the warm memo served
    replayed iterations still degrades to identical numbers."""
    monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
    config = MEMO_CONFIGS[1]
    reference = _reference(config, memo_program)
    simulate(MEMO_CONFIGS[0], memo_program)  # warms the memo
    controllers = []
    init = ReplayController.__init__

    def tracked_init(self, sim):
        init(self, sim)
        controllers.append(self)

    monkeypatch.setattr(ReplayController, "__init__", tracked_init)
    armed_hook = simulator_module.replay_fault_hook

    def late_hook(point_config):
        hook = armed_hook(point_config)
        if hook is None:
            return None
        backedges = itertools.count()

        def fire_late(target, now):
            if next(backedges) >= 20:
                hook(target, now)

        return fire_late

    monkeypatch.setattr(simulator_module, "replay_fault_hook", late_hook)
    faults.activate(FaultPlan(replay_diverge=1.0))
    try:
        report = FaultReport()
        result, rung = ladder_simulate(config, memo_program, report=report)
    finally:
        faults.deactivate()
    assert rung == "idle-skip"
    assert result.canonical_json() == reference.canonical_json()
    assert report.counts() == {"engine_fault": 2, "degraded": 1}
    assert sum(c.shadow_memo_hits for c in controllers) > 0
