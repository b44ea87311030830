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
from repro.core.simulator import Simulator, SimulationTimeout, simulate, simulate_traced
from repro.core.trace import JsonLinesSink, Tracer
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
    assert top["replayed_iterations"] >= top["bursts"] >= 1
    assert controller.bursts == sum(report["bursts"] for report in reports)
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


def _copy_program(seed: int, period: int = 2):
    """A loop copying ``src[i] + 1`` to ``dst[i]`` through the queues only.

    Every ``period``-th source word (the odd ones by default) comes from
    ``seed``, the others are fixed.  At each loop boundary the LDQ value
    chain holds the word the next iteration consumes, and the iteration
    reads the word after it: so whenever the chain holds a fixed word
    and the next is seeded, two seeds share the entry key but not the
    read set, and where both are fixed they share the whole summary.
    """
    fixed = random.Random(0)
    seeded = random.Random(seed)
    words = [
        (seeded if index % period == period - 1 else fixed).randrange(1 << 31)
        for index in range(64)
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
    read_set_holds = replay._read_set_holds

    def spy(words, memory):
        holds = read_set_holds(words, memory)
        if not holds:
            rejected.append(bytes(words))
        return holds

    monkeypatch.setattr(replay, "_read_set_holds", spy)
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


# ----------------------------------------------------------------------
# The fused burst: one live-machine write per burst
# ----------------------------------------------------------------------
def _burst_spy(monkeypatch) -> list:
    """Record ``[start, end, cycles, hits, misses]`` of every burst."""
    bursts = []
    burst = ReplayController._burst

    def spy(self, state, now):
        hits, misses = state.memo_hits, state.memo_misses
        end = burst(self, state, now)
        bursts.append(
            [now, end, state.record.cycles, state.memo_hits - hits, state.memo_misses - misses]
        )
        return end

    monkeypatch.setattr(ReplayController, "_burst", spy)
    return bursts


def _fused(bursts) -> int:
    """Most iterations any one burst replayed."""
    return max(((end - start) // cycles for start, end, cycles, *_ in bursts), default=0)


def _run(config, program, path=None, **kwargs):
    """Run to completion, traced to JSONL at ``path`` if one is given;
    returns the simulator and its result."""
    tracer = None
    if path is not None:
        tracer = Tracer()
        tracer.attach(JsonLinesSink(path))
    sim = Simulator(config, program, tracer=tracer, **kwargs)
    try:
        return sim, sim.run()
    finally:
        if tracer is not None:
            tracer.close()


def _register_program():
    """A loop touching registers only: no memory traffic, so its trace
    batch recurs exactly and the loop engages under tracing too."""
    return assemble(
        """
    li r1, 300
    li r2, 0
    lbr b0, loop
loop:
    addi r2, r2, 3
    exch
    addi r2, r2, 5
    exch
    subi r1, r1, 1
    pbrne b0, r1, 2
    nop
    nop
    halt
"""
    )


def _words(count: int) -> str:
    rng = random.Random(0)
    return ", ".join(str(rng.randrange(1 << 31)) for _ in range(count))


def _overwrite_program():
    """Each iteration loads ``y[i]`` and then overwrites it: a write
    landing before its iteration is adopted would change what the live
    re-run of that iteration reads, and so the sum stored at the end."""
    return assemble(
        f"""
    li r1, 60
    la r2, x
    la r5, y
    li r3, 0
    lbr b0, loop
loop:
    ldx r2, r3
    addi r4, r4, 1
    ldx r5, r3
    or r7, r4, r4
    stx r5, r3
    add r6, r6, r7
    add r6, r6, r7
    addi r3, r3, 4
    subi r1, r1, 1
    pbrne b0, r1, 2
    nop
    nop
    or r7, r6, r6
    st r2, 0
    halt
    .align 4
x:
    .word {_words(64)}
y:
    .word {_words(64)}
"""
    )


def _hazard_program():
    """Loads run four iterations ahead, so each store still sits in the
    SAQ when the next iteration loads its address back: every loop
    boundary carries SAQ entries, and every iteration an ordering
    hazard that depends on them."""
    return assemble(
        f"""
    li r1, 100
    la r2, src
    la r5, dst
    ld r2, 0
    ld r2, 4
    ld r2, 8
    ld r2, 12
    lbr b0, loop
loop:
    ld r2, 16
    addi r7, r7, 1
    st r5, 0
    ld r5, -4
    add r4, r4, r7
    addi r2, r2, 4
    addi r5, r5, 4
    subi r1, r1, 1
    pbrne b0, r1, 2
    nop
    nop
    halt
    .align 4
src:
    .word {_words(128)}
    .space 4
dst:
    .space 512
"""
    )


def test_carried_key_equals_the_live_entry_key_after_every_flush(
    monkeypatch, memo_program, cold_memo
):
    """The key a burst carries is exactly the live machine's entry key
    once the burst is written back, cold memo or warm."""
    flushes = []
    flush = ReplayController._flush

    def checked_flush(self, record, key, tails, k, fpu_ops, fpu_code):
        flush(self, record, key, tails, k, fpu_ops, fpu_code)
        assert replay._entry_key(self.sim.backend.state, self.sim.engine) == key
        flushes.append(k)

    monkeypatch.setattr(ReplayController, "_flush", checked_flush)
    for config in MEMO_CONFIGS:
        flushes.clear()
        result = Simulator(config, memo_program).run()
        assert result.canonical_json() == _reference(config, memo_program).canonical_json()
        assert max(flushes) >= 2


def test_max_cycles_mid_burst_times_out_like_the_reference(monkeypatch, memo_program):
    """A wall inside a burst stops it at the last whole iteration; live
    simulation then hits the wall at the reference's cycle and count."""
    config = MEMO_CONFIGS[1]
    bursts = _burst_spy(monkeypatch)
    Simulator(config, memo_program).run()
    start, _end, cycles, *_ = max(bursts, key=lambda b: b[1] - b[0])
    wall = start + 3 * cycles + cycles // 2
    capped = config.with_overrides(max_cycles=wall)
    bursts.clear()
    with pytest.raises(SimulationTimeout) as fast:
        Simulator(capped, memo_program).run()
    assert bursts[-1][:2] == [start, start + 3 * cycles]
    with pytest.raises(SimulationTimeout) as reference:
        _reference(capped, memo_program)
    assert fast.value.cycle == reference.value.cycle == wall
    assert str(fast.value).replace("idle-skip", "reference") == str(reference.value)


def test_divergence_after_fused_iterations_is_identical(
    monkeypatch, memo_program, cold_memo, tmp_path
):
    """A check failing deep in a burst leaves exactly the iterations
    before it committed: results, stats, memory and the JSONL trace
    match the reference rung."""
    forced = []
    position = itertools.count()
    burst = ReplayController._burst
    check = ReplayController._check_events

    def counting_burst(self, state, now):
        nonlocal position
        position = itertools.count()
        return burst(self, state, now)

    def failing_check(self, record, tails):
        index = next(position)
        if index == 3 and not forced:
            forced.append(index)
            return False
        return check(self, record, tails)

    monkeypatch.setattr(ReplayController, "_burst", counting_burst)
    monkeypatch.setattr(ReplayController, "_check_events", failing_check)
    config = MEMO_CONFIGS[1]
    # Traced Livermore loops stride and stay live; the register loop
    # engages under tracing too.
    legs = (
        (memo_program, False),
        (_overwrite_program(), False),
        (_register_program(), False),
        (_register_program(), True),
    )
    for index, (program, traced) in enumerate(legs):
        forced.clear()
        paths = [tmp_path / f"{index}-{rung}.jsonl" if traced else None for rung in "fr"]
        fast, fast_result = _run(config, program, paths[0])
        reference, reference_result = _run(
            config, program, paths[1], skip=False, replay=False, compiled=False
        )
        assert forced == [3]
        assert fast_result.canonical_json() == reference_result.canonical_json()
        assert fast.engine.memory == reference.engine.memory
        if traced:
            assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bursts_mixing_memo_hits_and_misses_are_identical(monkeypatch, cold_memo):
    """A memo warmed at another array seed serves some iterations of a
    burst while others run the shadow pass; nothing shows in the
    results or the final memory."""
    bursts = _burst_spy(monkeypatch)
    config = MEMO_CONFIGS[1]
    simulate(MEMO_CONFIGS[0], _copy_program(1, period=8))  # warms the memo
    program = _copy_program(2, period=8)
    sim = Simulator(config, program)
    result = sim.run()
    reference = Simulator(config, program, skip=False, replay=False, compiled=False)
    assert result.canonical_json() == reference.run().canonical_json()
    assert sim.engine.memory == reference.engine.memory
    assert any(hits and misses for *_, hits, misses in bursts)
    assert _fused(bursts) >= 2


@pytest.mark.parametrize("config", MEMO_CONFIGS, ids=lambda config: config.describe())
def test_store_queue_tails_carry_hazards_through_a_burst(monkeypatch, config, cold_memo):
    """Entries left in the SAQ at each boundary are the ones the next
    iteration's load hazards count: the carried tails must keep them
    exact for the burst to run on, and write them back exactly."""
    bursts = _burst_spy(monkeypatch)
    program = _hazard_program()
    sim = Simulator(config, program)
    result = sim.run()
    reference = Simulator(config, program, skip=False, replay=False, compiled=False)
    assert result.canonical_json() == reference.run().canonical_json()
    assert sim.engine.memory == reference.engine.memory
    assert sim.engine.stats.ordering_hazards >= 90
    assert _fused(bursts) >= 90


# ----------------------------------------------------------------------
# Invariants the fused burst rests on
# ----------------------------------------------------------------------
def _shifted_state(name: str, sim: Simulator):
    """Every time and seq ``replay_shift`` moves in one component, or
    ``None`` while the component holds nothing to shift."""
    if name == "external":
        flights = sim.memory.external.in_flight
        return [(r.accepted_at, r.ready_at, r.seq) for r in flights] or None
    if name == "fpu":
        fpu = sim.memory.fpu
        if not (fpu._ops_pending or fpu._result_loads):
            return None
        loads = [(r.accepted_at, r.seq) for r in fpu._result_loads]
        return list(fpu._ops_pending), list(fpu._results_ready), fpu._busy_until, loads
    if name == "frontend":
        frontend = sim.frontend
        if frontend._request is None or frontend._request_accepted:
            return None
        return frontend._request.seq
    pending = sim.backend._pending
    return None if pending is None else pending.resolve_at


def _shifter(name: str, sim: Simulator):
    return {
        "external": sim.memory.external,
        "fpu": sim.memory.fpu,
        "frontend": sim.frontend,
        "backend": sim.backend,
    }[name].replay_shift


@pytest.mark.parametrize("name", ["external", "fpu", "frontend", "backend"])
def test_replay_shift_is_additive(name, loop_program):
    """Shifting by ``a`` then ``b`` equals shifting by ``a + b``, so a
    burst may shift once by its whole span."""
    config = MachineConfig.conventional(32, memory_access_time=16)
    sims = [Simulator(config, loop_program, skip=False, replay=False) for _ in range(2)]
    now = 0
    while _shifted_state(name, sims[0]) is None:
        assert now < 5_000, f"{name} never held timed state"
        now = _step(sims[0], 1, now)
        _step(sims[1], 1, now - 1)
    assert _shifted_state(name, sims[0]) == _shifted_state(name, sims[1])
    _shifter(name, sims[0])(7, 3)
    _shifter(name, sims[0])(11, 5)
    _shifter(name, sims[1])(18, 8)
    assert _shifted_state(name, sims[0]) == _shifted_state(name, sims[1])


def test_apply_plan_with_a_multiplier_equals_repeated_application(loop_program):
    """One application by ``k`` equals ``k`` single ones, dict counters
    included."""
    sims = [Simulator(CONFIGS["pipe"], loop_program) for _ in range(2)]
    books = [StatsBook(sim) for sim in sims]
    start = books[0].snapshot()
    for sim in sims:
        sim.backend.instructions += 7
        sim.backend.stalls["frontend_empty"] += 3
        sim.memory.stats.by_source_bytes["icache"] = 64
        sim.engine.sdq.total_pops += 2
    delta = books[0].diff(start, books[0].snapshot())
    StatsBook.apply_plan(books[0].plan(delta), 5)
    plan = books[1].plan(delta)
    for _ in range(5):
        StatsBook.apply_plan(plan)
    assert books[0].snapshot() == books[1].snapshot()
    assert sims[0].backend.instructions == 6 * 7
    assert sims[0].memory.stats.by_source_bytes["icache"] == 6 * 64


def test_engagement_refuses_unbalanced_store_queue_records(loop_program, cold_memo):
    """A burst carries each store queue as its last ``len`` pushes, so a
    record whose SAQ/SDQ pushes differ from its store departures never
    engages, even when it verifies."""
    sim = Simulator(CONFIGS["pipe"], loop_program)
    sim.run()
    controller = sim.replay_controller
    genuine = next(state for state in controller.loops.values() if state.record)

    def verify(events) -> int:
        record = genuine.record
        copy = replay._IterationRecord(
            record.cycles, record.seqs, record.delta, record.instrs, events, record.trace, True
        )
        state = replay._LoopState()
        state.phase, state.sig, state.candidate = replay._VERIFY, genuine.sig, copy
        controller._advance(state, copy, genuine.sig)
        return state.phase

    events = genuine.record.events
    assert verify(events) == replay._ENGAGED
    for extra in (("sd",), ("sdq", 0), ("saq", 0, None)):
        assert verify(events + (extra,)) == replay._VERIFY
