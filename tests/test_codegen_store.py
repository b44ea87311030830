"""Tests of the persistent codegen artifact store and warm-fleet sweeps.

Three layers are covered here.  The store itself
(``repro.core.codegen_store``): round-trip identity against the pinned
codegen goldens, atomic publish, and the quarantine path — a tampered
artifact must be set aside and regenerated, never executed.  The
compiled engine's disk integration (``repro.core.compiled``): a fresh
process warm-starts from artifacts a previous one published, and the
``REPRO_NO_DISK_CODEGEN`` hatch restores today's behaviour exactly.
And the warm-fleet orchestration (``repro.core.parallel`` /
``repro.core.resilience``): config-affinity batching is a pure
scheduling optimisation — results, reports, and checkpoint manifests
are byte-identical to the serial per-point path, including when a
worker is killed mid-batch.
"""

import json
import marshal
from pathlib import Path

import pytest

from repro.core import faults
from repro.core.codegen_store import (
    CodegenStore,
    decode_code,
    encode_code,
)
from repro.core.compiled import (
    clear_compile_cache,
    compile_stats,
    flush_codegen_artifacts,
    generate_source,
    kernel_spec_for,
)
from repro.core.config import MachineConfig
from repro.core.faults import FaultPlan
from repro.core.parallel import affinity_batches, config_affinity_key
from repro.core.resilience import (
    FaultReport,
    SweepCheckpoint,
    SweepSupervisor,
    supervised_simulate_many,
)
from repro.core.simulator import Simulator, simulate
from repro.core.sweep import run_cache_sweep
from repro.cpu.dispatch import install_handler_bundle, serialize_handlers

GOLDEN = Path(__file__).parent / "goldens" / "compiled_kernel_headline.py"
CONV_GOLDEN = Path(__file__).parent / "goldens" / "compiled_kernel_conventional.py"


def _pipe(**overrides) -> MachineConfig:
    overrides.setdefault("memory_access_time", 6)
    overrides.setdefault("input_bus_width", 8)
    return MachineConfig.pipe("16-16", overrides.pop("icache_size", 128), **overrides)


def _headline_spec(program):
    sim = Simulator(_pipe(), program, skip=True, replay=True, compiled=True)
    return kernel_spec_for(sim)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test sees empty in-process caches and leaves none behind."""
    clear_compile_cache()
    yield
    clear_compile_cache()
    faults.deactivate()


@pytest.fixture
def disk_store(tmp_path, monkeypatch):
    """Enable the persistent store against a throwaway cache root."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_DISK_CODEGEN", "0")
    clear_compile_cache()  # drop any store bound to the old root
    yield CodegenStore(tmp_path / "codegen")
    clear_compile_cache()


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------
class TestStoreRoundTrip:
    def test_kernel_round_trip_is_byte_identical_to_the_golden(
        self, tmp_path, tiny_program
    ):
        """Source published to disk comes back equal to the pinned golden."""
        spec = _headline_spec(tiny_program)
        source = generate_source(spec)
        assert source == GOLDEN.read_text()
        code = compile(source, "<golden>", "exec")

        store = CodegenStore(tmp_path)
        store.store_kernel("headline", source, code)
        reloaded = CodegenStore(tmp_path).load_kernel("headline")
        assert reloaded is not None
        loaded_source, loaded_code = reloaded
        assert loaded_source == GOLDEN.read_text()
        # marshal interns references differently after a load cycle, so
        # normalise both sides through one round-trip before comparing
        normalised = marshal.loads(marshal.dumps(code))
        assert marshal.dumps(loaded_code) == marshal.dumps(normalised)

    def test_conventional_golden_round_trips_too(self, tmp_path):
        config = MachineConfig.conventional(
            128, memory_access_time=6, input_bus_width=8
        )
        from repro.asm import assemble

        sim = Simulator(config, assemble("halt"), compiled=True)
        source = generate_source(kernel_spec_for(sim))
        assert source == CONV_GOLDEN.read_text()
        store = CodegenStore(tmp_path)
        store.store_kernel("conv", source, compile(source, "<g>", "exec"))
        assert CodegenStore(tmp_path).load_kernel("conv")[0] == source

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = CodegenStore(tmp_path)
        assert store.load_kernel("nope") is None
        assert store.stats.misses == 1

    def test_publish_is_atomic_no_temp_droppings(self, tmp_path):
        store = CodegenStore(tmp_path)
        store.store_kernel("k", "x = 1\n", compile("x = 1\n", "<k>", "exec"))
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert leftovers == []
        assert len(store.entries()) == 1

    def test_dispatch_bundles_merge_across_stores(self, tmp_path):
        code = compile("def handler(state):\n    return None\n", "<h>", "exec")
        one = {"a": {"instruction": {}, "source": "s1", "code": encode_code(code)}}
        two = {"b": {"instruction": {}, "source": "s2", "code": encode_code(code)}}
        store = CodegenStore(tmp_path)
        store.store_dispatch("prog", one)
        store.store_dispatch("prog", two)
        merged = CodegenStore(tmp_path).load_dispatch("prog")
        assert set(merged) == {"a", "b"}

    def test_clear_and_describe(self, tmp_path):
        store = CodegenStore(tmp_path)
        store.store_kernel("k", "x = 1\n", compile("x = 1\n", "<k>", "exec"))
        text = store.describe()
        assert "artifacts  : 1" in text
        assert store.clear() == 1
        assert store.entries() == []

    def test_decode_code_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_code("not-base64-marshal!!")


class TestQuarantine:
    def _publish_one(self, tmp_path) -> Path:
        store = CodegenStore(tmp_path)
        store.store_kernel("k", "x = 1\n", compile("x = 1\n", "<k>", "exec"))
        (entry,) = store.entries()
        return entry

    def test_tampered_payload_is_quarantined_not_loaded(self, tmp_path):
        entry = self._publish_one(tmp_path)
        payload = json.loads(entry.read_text())
        payload["payload"]["source"] = "import os; os.abort()\n"
        entry.write_text(json.dumps(payload))

        store = CodegenStore(tmp_path)
        assert store.load_kernel("k") is None  # checksum mismatch
        assert store.stats.quarantined == 1
        assert store.entries() == []  # moved out of the live tree
        assert len(store.quarantined_entries()) == 1

    def test_garbage_json_is_quarantined(self, tmp_path):
        entry = self._publish_one(tmp_path)
        entry.write_text("{ not json")
        store = CodegenStore(tmp_path)
        assert store.load_kernel("k") is None
        assert store.stats.quarantined == 1

    def test_undecodable_code_is_quarantined_even_with_a_valid_checksum(
        self, tmp_path
    ):
        from repro.core.codegen_store import _payload_checksum

        entry = self._publish_one(tmp_path)
        wrapper = json.loads(entry.read_text())
        wrapper["payload"]["code"] = "!!definitely-not-marshal!!"
        wrapper["checksum"] = _payload_checksum(wrapper["payload"])
        entry.write_text(json.dumps(wrapper))

        store = CodegenStore(tmp_path)
        assert store.load_kernel("k") is None
        assert store.stats.quarantined == 1


# ----------------------------------------------------------------------
# Disk integration of the compiled engine
# ----------------------------------------------------------------------
    @staticmethod
    def _corrupt_entries(tmp_path, count: int, size: int) -> CodegenStore:
        """Publish ``count`` kernel entries, overwrite each with ``size``
        bytes of garbage, and load each once (quarantining it)."""
        store = CodegenStore(tmp_path)
        code = compile("x = 1\n", "<k>", "exec")
        for index in range(count):
            store.store_kernel(f"k{index}", "x = 1\n", code)
        for entry in store.entries():
            entry.write_text("{" * size)
        for index in range(count):
            assert store.load_kernel(f"k{index}") is None
        assert store.stats.quarantined == count
        return store

    def test_many_corrupt_entries_leave_a_capped_quarantine(self, tmp_path):
        """The codegen quarantine obeys the simulation cache's byte cap."""
        from repro.core.simcache import QUARANTINE_MAX_BYTES

        count = 24  # 6 MiB of corrupt entries against a 4 MiB cap
        store = self._corrupt_entries(tmp_path, count, 256 * 1024)
        sizes = [path.stat().st_size for path in store.quarantined_entries()]
        assert 0 < len(sizes) < count
        assert sum(sizes) <= QUARANTINE_MAX_BYTES

    def test_stale_quarantined_entries_age_out(self, tmp_path):
        import os

        from repro.core.simcache import QUARANTINE_MAX_AGE_SECONDS

        store = self._corrupt_entries(tmp_path, 1, 16)
        (stale,) = store.quarantined_entries()
        old = stale.stat().st_mtime - QUARANTINE_MAX_AGE_SECONDS - 60
        os.utime(stale, (old, old))
        store.store_kernel("fresh", "x = 1\n", compile("x = 1\n", "<k>", "exec"))
        (entry,) = store.entries()
        entry.write_text("{ not json")
        assert store.load_kernel("fresh") is None
        assert [path.name for path in store.quarantined_entries()] == [entry.name]


class TestDiskWarmStart:
    def test_cold_then_warm_process_hits_disk_and_matches(
        self, disk_store, tiny_program
    ):
        reference = simulate(_pipe(), tiny_program, compiled=False)
        cold = simulate(_pipe(), tiny_program, compiled=True)
        flush_codegen_artifacts()
        assert cold == reference
        assert len(disk_store.entries()) >= 1
        stored = compile_stats()["disk_kernel_stores"]
        assert stored >= 1

        # A "new process": in-memory caches dropped, disk root kept.
        clear_compile_cache()
        before = compile_stats()
        warm = simulate(_pipe(), tiny_program, compiled=True)
        after = compile_stats()
        assert warm == reference
        assert after["disk_kernel_hits"] == before["disk_kernel_hits"] + 1
        assert after["compiles"] == before["compiles"]  # nothing recompiled

    def test_dispatch_bundle_warms_handler_cache(self, disk_store, tiny_program):
        simulate(_pipe(), tiny_program, compiled=True)
        flush_codegen_artifacts()
        clear_compile_cache()
        before = compile_stats()
        simulate(_pipe(), tiny_program, compiled=True)
        after = compile_stats()
        assert after["disk_handler_hits"] > before["disk_handler_hits"]
        assert (
            after["dispatch_handler_compiles"]
            == before["dispatch_handler_compiles"]
        )

    def test_tampered_artifacts_are_regenerated_never_executed(
        self, disk_store, tiny_program
    ):
        reference = simulate(_pipe(), tiny_program, compiled=False)
        simulate(_pipe(), tiny_program, compiled=True)
        flush_codegen_artifacts()
        assert disk_store.entries()

        # Tamper with every artifact: if the store ever trusted these,
        # the simulation would crash (or corrupt its numbers) instead of
        # matching the reference.
        for entry in disk_store.entries():
            wrapper = json.loads(entry.read_text())
            wrapper["payload"]["source"] = "raise RuntimeError('executed')\n"
            entry.write_text(json.dumps(wrapper))

        clear_compile_cache()
        result = simulate(_pipe(), tiny_program, compiled=True)
        flush_codegen_artifacts()
        assert result == reference
        assert compile_stats()["codegen_quarantined"] >= 1
        assert CodegenStore(disk_store.root).quarantined_entries()
        # the store healed: fresh artifacts were republished and verify
        fresh = CodegenStore(disk_store.root)
        assert fresh.entries()
        clear_compile_cache()
        assert simulate(_pipe(), tiny_program, compiled=True) == reference
        assert compile_stats()["disk_kernel_hits"] >= 1


class TestEscapeHatch:
    def test_no_disk_codegen_leaves_the_tree_untouched(
        self, tmp_path, monkeypatch, tiny_program
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_DISK_CODEGEN", "1")
        clear_compile_cache()
        before = compile_stats()  # counters are cumulative per process
        reference = simulate(_pipe(), tiny_program, compiled=False)
        result = simulate(_pipe(), tiny_program, compiled=True)
        flush_codegen_artifacts()
        assert result == reference
        assert not (tmp_path / "codegen").exists()
        stats = compile_stats()
        for counter in (
            "disk_kernel_hits",
            "disk_kernel_stores",
            "disk_handler_hits",
            "disk_handler_stores",
        ):
            assert stats[counter] == before[counter]


# ----------------------------------------------------------------------
# Config-affinity scheduling
# ----------------------------------------------------------------------
class TestAffinityBatches:
    KEYS = ["a", "b", "a", "c", "b", "a", "a"]

    def test_every_index_appears_exactly_once(self):
        batches = affinity_batches(self.KEYS, jobs=2)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(self.KEYS)))

    def test_batches_are_family_pure(self):
        for batch in affinity_batches(self.KEYS, jobs=2):
            assert len({self.KEYS[i] for i in batch}) == 1

    def test_deterministic(self):
        assert affinity_batches(self.KEYS, jobs=3) == affinity_batches(
            self.KEYS, jobs=3
        )

    def test_cap_limits_batch_size(self):
        batches = affinity_batches(["k"] * 40, jobs=4, max_batch=8)
        assert max(len(b) for b in batches) <= 8
        assert len(batches) >= 5

    def test_affinity_key_tracks_the_kernel_family(self):
        base = _pipe(icache_size=64)
        # size and memory timing never reach the generated kernel text
        assert config_affinity_key(base) == config_affinity_key(
            _pipe(icache_size=256)
        )
        assert config_affinity_key(base) == config_affinity_key(
            _pipe(icache_size=64, memory_access_time=8)
        )
        # a different machine shape is a different family
        assert config_affinity_key(base) != config_affinity_key(
            MachineConfig.pipe("32-32", 64, memory_access_time=6)
        )


def _matrix() -> list[MachineConfig]:
    """A small crosscheck matrix spanning three kernel families."""
    return [
        _pipe(icache_size=64),
        _pipe(icache_size=128),
        MachineConfig.conventional(128, memory_access_time=6, input_bus_width=8),
        _pipe(icache_size=64, memory_access_time=8),
        _pipe(icache_size=256),
    ]


def _unsupervised(program, configs, jobs):
    return supervised_simulate_many(
        program, configs, jobs=jobs, max_retries=0, backoff=0
    )


class TestBatchedDifferential:
    def test_batched_pool_matches_serial(self, tiny_program):
        serial = _unsupervised(tiny_program, _matrix(), jobs=1)
        batched = _unsupervised(tiny_program, _matrix(), jobs=2)
        assert batched == serial

    def test_batched_pool_with_disk_store_matches_serial(
        self, disk_store, tiny_program
    ):
        """Workers + parent priming + persistent store change nothing."""
        serial = _unsupervised(tiny_program, _matrix(), jobs=1)
        clear_compile_cache()
        batched = _unsupervised(tiny_program, _matrix(), jobs=2)
        assert batched == serial
        assert disk_store.entries()  # the fleet actually published

    def test_affinity_hatch_matches_too(self, tiny_program):
        """The per-point path (``jobs=1``, what the removed affinity
        hatch forced) and affinity batches (``jobs=2``) agree on the
        results and on which rung served every point."""
        serial_report, batched_report = FaultReport(), FaultReport()
        serial = supervised_simulate_many(
            tiny_program, _matrix(), jobs=1, max_retries=0, backoff=0,
            report=serial_report,
        )
        batched = supervised_simulate_many(
            tiny_program, _matrix(), jobs=2, max_retries=0, backoff=0,
            report=batched_report,
        )
        assert batched == serial
        assert batched_report.rungs == serial_report.rungs

    def test_supervised_batched_matches_serial(self, tiny_program):
        serial = _unsupervised(tiny_program, _matrix(), jobs=1)
        report = FaultReport()
        supervised = supervised_simulate_many(
            tiny_program, _matrix(), jobs=2, report=report
        )
        assert supervised == serial
        assert report.clean

    def test_checkpoint_manifest_bytes_identical_with_and_without_affinity(
        self, tiny_program, tmp_path
    ):
        """Affinity batches (``jobs=2``) and the per-point path
        (``jobs=1``) publish byte-identical manifests."""
        strategies = {
            "PIPE 16-16": lambda size, **o: MachineConfig.pipe("16-16", size, **o),
            "conventional": lambda size, **o: MachineConfig.conventional(
                size, **o
            ),
        }
        memory = {"memory_access_time": 6, "input_bus_width": 8}

        def run(path, jobs):
            supervisor = SweepSupervisor(
                jobs=jobs, checkpoint=SweepCheckpoint(path, interval=100)
            )
            series = run_cache_sweep(
                tiny_program,
                cache_sizes=[64, 128],
                strategies=strategies,
                supervisor=supervisor,
                **memory,
            )
            return [s.as_dict() for s in series]

        with_affinity = run(tmp_path / "on.json", jobs=2)
        without_affinity = run(tmp_path / "off.json", jobs=1)
        assert with_affinity == without_affinity
        assert (tmp_path / "on.json").read_bytes() == (
            tmp_path / "off.json"
        ).read_bytes()


class TestKillMidBatch:
    def test_worker_kill_mid_batch_converges_byte_identical(
        self, tiny_program, monkeypatch
    ):
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        configs = _matrix()
        # worker_kill only fires inside pool workers, so the serial
        # reference is safe to compute after arming.
        serial = _unsupervised(tiny_program, configs, jobs=1)
        faults.activate(FaultPlan(seed=11, worker_kill=1.0))
        report = FaultReport()
        survived = supervised_simulate_many(
            tiny_program, configs, jobs=2, max_retries=4, report=report
        )
        assert survived == serial
        assert report.counts().get("worker_crash", 0) >= 1
