"""Tests of the parallel simulation fan-out."""

import os

import pytest

from repro.asm import assemble
from repro.core.config import MachineConfig
from repro.core.parallel import JOBS_ENV, resolve_jobs
from repro.core.resilience import (
    SweepPointError,
    supervised_map,
    supervised_simulate_many,
)
from repro.core.simcache import sweep_point_keys
from repro.core.simulator import DeadlockError, simulate
from repro.core.sweep import run_cache_sweep

#: Two SDQ pushes ahead of their store addresses: with a one-entry SDQ
#: the second push stalls forever in front of the stores that would
#: drain it, so only the ``sdq_capacity=1`` machine deadlocks.
SDQ_OVERRUN = """
    li r1, 64
    add r7, r0, r0
    add r7, r0, r0
    st r1, 0
    st r1, 4
    halt
"""

#: the unsupervised settings: retries, backoff and timeout off
UNSUPERVISED = {"max_retries": 0, "backoff": 0}


def _square(x: int) -> int:
    return x * x


def _square_unless_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x * x


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_environment_beats_cpu_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_bad_environment_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.warns(UserWarning, match="non-integer"):
            assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestParallelMap:
    """The unsupervised map: ``supervised_map`` with retries off."""

    def test_serial_path(self):
        assert supervised_map(_square, [1, 2, 3], jobs=1, **UNSUPERVISED) == [
            1,
            4,
            9,
        ]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert supervised_map(_square, items, jobs=2, **UNSUPERVISED) == [
            x * x for x in items
        ]

    def test_empty_input(self):
        assert supervised_map(_square, [], jobs=4, **UNSUPERVISED) == []

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(SweepPointError, match="boom") as excinfo:
            supervised_map(boom, [1], jobs=1, **UNSUPERVISED)
        ((_label, error),) = excinfo.value.failures
        assert isinstance(error, RuntimeError)


class TestParallelMapOutcomes:
    """Regression: one failed item must not discard completed siblings."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_item_keeps_its_siblings(self, jobs):
        delivered = {}
        with pytest.raises(SweepPointError) as excinfo:
            supervised_map(
                _square_unless_three,
                list(range(6)),
                jobs=jobs,
                **UNSUPERVISED,
                on_result=delivered.__setitem__,
            )
        assert sorted(delivered) == [0, 1, 2, 4, 5]
        assert [delivered[i] for i in sorted(delivered)] == [0, 1, 4, 16, 25]
        ((label, error),) = excinfo.value.failures
        assert label == "3"
        assert isinstance(error, ValueError)

    def test_empty_input(self):
        assert supervised_map(_square, [], jobs=4, **UNSUPERVISED) == []


class TestSimulateMany:
    def test_parallel_matches_serial_for_all_strategies(self, tiny_program):
        memory = {"memory_access_time": 6, "input_bus_width": 8}
        configs = [
            MachineConfig.pipe("8-8", 128, **memory),
            MachineConfig.pipe("16-16", 128, **memory),
            MachineConfig.pipe("16-32", 128, **memory),
            MachineConfig.pipe("32-32", 128, **memory),
            MachineConfig.conventional(128, **memory),
        ]
        serial = supervised_simulate_many(
            tiny_program, configs, jobs=1, **UNSUPERVISED
        )
        parallel = supervised_simulate_many(
            tiny_program, configs, jobs=2, **UNSUPERVISED
        )
        assert [r.cycles for r in serial] == [r.cycles for r in parallel]
        assert serial == parallel

    def test_results_align_with_configs(self, tiny_program):
        configs = [
            MachineConfig.conventional(size, memory_access_time=1)
            for size in (32, 64, 128)
        ]
        results = supervised_simulate_many(
            tiny_program, configs, jobs=2, **UNSUPERVISED
        )
        for config, result in zip(configs, results):
            assert result.config == config
            assert result == simulate(config, tiny_program)


class TestFailingPoint:
    """A point that fails surfaces after its siblings have finished."""

    CAPACITIES = (8, 1, 4, 2)  # only the second point deadlocks

    def _configs(self):
        return [
            MachineConfig.pipe("16-16", 128, sdq_capacity=capacity)
            for capacity in self.CAPACITIES
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadlock_raises_sweep_point_error_after_siblings(self, jobs):
        program = assemble(SDQ_OVERRUN)
        configs = self._configs()
        keys = sweep_point_keys(program, configs)
        delivered = []
        with pytest.raises(SweepPointError) as excinfo:
            supervised_simulate_many(
                program,
                configs,
                jobs=jobs,
                **UNSUPERVISED,
                on_result=lambda index, result: delivered.append(index),
            )
        assert sorted(delivered) == [0, 2, 3]
        ((label, error),) = excinfo.value.failures
        assert label == keys[1][:12]
        assert isinstance(error, DeadlockError)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unsupervised_sweep_surfaces_the_failure(self, jobs):
        program = assemble(SDQ_OVERRUN)
        strategies = {
            f"sdq{capacity}": (
                lambda size, _capacity=capacity, **o: MachineConfig.pipe(
                    "16-16", size, sdq_capacity=_capacity, **o
                )
            )
            for capacity in self.CAPACITIES
        }
        with pytest.raises(SweepPointError) as excinfo:
            run_cache_sweep(
                program, cache_sizes=[128], strategies=strategies, jobs=jobs
            )
        ((_label, error),) = excinfo.value.failures
        assert isinstance(error, DeadlockError)
