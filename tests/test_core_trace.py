"""Unit tests for the trace layer primitives (repro.core.trace)."""

import enum
import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.asm import assemble
from repro.core.config import MachineConfig
from repro.core.simulator import DeadlockError, simulate_traced
from repro.core.trace import (
    NULL_TRACER,
    JsonLinesSink,
    MetricsSink,
    RingBufferSink,
    TraceMetrics,
    TraceSink,
    Tracer,
    merge_trace_files,
    read_trace,
)
from repro.kernels.suite import build_livermore_program


def _dumps_line(cycle, component, kind, fields) -> str:
    """The oracle: the record dict through ``json.dumps``."""
    record = {"c": cycle, "o": component, "k": kind}
    record.update(fields)
    return json.dumps(record, separators=(",", ":")) + "\n"


def _sink_lines(events) -> str:
    stream = io.StringIO()
    sink = JsonLinesSink(stream)
    for event in events:
        sink.emit(*event)
    sink.close()
    return stream.getvalue()


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Label(str):
    """A ``str`` subclass: encoded like a plain string."""


#: Labels that stress the pre-encoded skeleton: quotes, backslashes,
#: control characters, non-ASCII, %-format and str.format syntax, and
#: the header keys a payload may collide with.
_labels = st.text(max_size=6) | st.sampled_from(
    ["c", "o", "k", "%", "%s", "{", "}", '"', "\\", "\x00", "\n", "\u00e9", "\u2603"]
)
_scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    _labels,
    _labels.map(_Label),
    st.sampled_from(_Level),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_labels, inner, max_size=3),
    max_leaves=6,
)


class TestTracer:
    def test_no_sinks_means_disabled(self):
        assert not Tracer().enabled
        assert not NULL_TRACER.enabled

    def test_attach_enables(self):
        tracer = Tracer()
        sink = tracer.attach(RingBufferSink())
        assert tracer.enabled
        assert isinstance(sink, RingBufferSink)

    def test_emit_stamps_current_cycle(self):
        tracer = Tracer()
        ring = tracer.attach(RingBufferSink())
        tracer.cycle = 7
        tracer.emit("icache", "hit", addr=32)
        tracer.cycle = 9
        tracer.emit("icache", "miss", addr=48, seq=3)
        assert [e["c"] for e in ring.events] == [7, 9]
        assert ring.events[0] == {"c": 7, "o": "icache", "k": "hit", "addr": 32}

    def test_fan_out_to_multiple_sinks(self):
        tracer = Tracer()
        a = tracer.attach(RingBufferSink())
        b = tracer.attach(RingBufferSink())
        tracer.emit("sim", "end", cycles=1, instructions=0, halted=True)
        assert a.total_events == b.total_events == 1

    def test_metrics_finds_first_metrics_sink(self):
        tracer = Tracer()
        assert tracer.metrics() is None
        tracer.attach(RingBufferSink())
        sink = tracer.attach(MetricsSink())
        assert tracer.metrics() is sink.metrics

    def test_null_tracer_emit_is_harmless(self):
        # Emit sites guard with ``if tracer.enabled``, but a stray call
        # on the shared disabled tracer must still be a no-op.
        NULL_TRACER.emit("icache", "hit", addr=0)


class TestJsonLinesSink:
    def test_writes_canonical_lines_to_stream(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        sink.emit(3, "iq", "push", {"pc": 16, "depth": 1, "bytes": 4})
        sink.close()  # caller-owned stream: flushed, not closed
        assert not stream.closed
        assert stream.getvalue() == (
            '{"c":3,"o":"iq","k":"push","pc":16,"depth":1,"bytes":4}\n'
        )
        assert sink.events_written == 1

    def test_owns_and_closes_path_target(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path)
        sink.emit(0, "sim", "begin", {"strategy": "pipe", "config": "x"})
        sink.close()
        sink.close()  # idempotent
        [record] = list(read_trace(path))
        assert record == {"c": 0, "o": "sim", "k": "begin",
                          "strategy": "pipe", "config": "x"}

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"c":0,"o":"a","k":"b"}\n\n{"c":1,"o":"a","k":"b"}\n')
        assert len(list(read_trace(path))) == 2

    def test_header_key_fields_overwrite_in_place(self):
        events = [(4, "a", "b", {"x": 1, "c": 9}), (5, "a", "b", {"o": "p"})]
        assert _sink_lines(events) == (
            '{"c":9,"o":"a","k":"b","x":1}\n{"c":5,"o":"p","k":"b"}\n'
        )

    def test_equal_non_string_labels_keep_their_own_encoding(self):
        # 1 == True == 1.0, so these shapes are equal as tuples yet
        # json.dumps writes each label differently.
        events = [
            (0, 1, "k", {}),
            (1, True, "k", {}),
            (2, 1.0, "k", {}),
            (3, "x", "k", {1: "a"}),
            (4, "x", "k", {True: "b"}),
        ]
        assert _sink_lines(events) == "".join(_dumps_line(*e) for e in events)

    @given(
        events=st.lists(
            st.tuples(
                st.integers(),
                _labels,
                _labels,
                st.dictionaries(_labels, _values, max_size=4),
            ),
            max_size=6,
        )
    )
    def test_matches_json_dumps_for_any_record(self, events):
        """Property: every line equals the record through ``json.dumps``."""
        assert _sink_lines(events) == "".join(_dumps_line(*e) for e in events)

    @given(
        component=_labels,
        kind=_labels,
        names=st.lists(_labels, min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_one_shape_with_values_of_every_type(self, component, kind, names, data):
        """Property: a shape's cached encoder holds for any value types."""
        rows = data.draw(
            st.lists(st.tuples(*[_values] * len(names)), min_size=2, max_size=6)
        )
        events = [
            (cycle, component, kind, dict(zip(names, row)))
            for cycle, row in enumerate(rows)
        ]
        assert _sink_lines(events) == "".join(_dumps_line(*e) for e in events)


class _DictJsonSink(TraceSink):
    """The plain JSONL path: each record dict through ``json.dumps``."""

    def __init__(self, path):
        self._file = open(path, "w", encoding="utf-8", newline="\n")

    def emit(self, cycle, component, kind, fields):
        self._file.write(_dumps_line(cycle, component, kind, fields))

    def close(self):
        self._file.close()


#: Two SDQ pushes ahead of their store addresses: a one-entry SDQ
#: deadlocks (the failing point of tests/test_core_parallel.py).
_SDQ_OVERRUN = """
    li r1, 64
    add r7, r0, r0
    add r7, r0, r0
    st r1, 0
    st r1, 4
    halt
"""


class TestWholeRunIdentity:
    """Whole simulations write the same bytes as the ``json.dumps`` path."""

    RUNGS = {
        "reference": {"skip": False, "replay": False, "compiled": False},
        "compiled": {"skip": True, "replay": True, "compiled": True},
    }
    CONFIGS = {
        "pipe": lambda: MachineConfig.pipe("16-16", 128, memory_access_time=6),
        "conventional": lambda: MachineConfig.conventional(128, memory_access_time=6),
        "tib": lambda: MachineConfig.tib(memory_access_time=6),
    }

    @pytest.mark.parametrize("rung", sorted(RUNGS))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_trace_matches_dict_path(self, tmp_path, config, rung):
        program = build_livermore_program(scale=0.05, loops=(3,))
        encoded, oracle = tmp_path / "encoded.jsonl", tmp_path / "oracle.jsonl"
        simulate_traced(
            self.CONFIGS[config](),
            program,
            encoded,
            sinks=(_DictJsonSink(oracle),),
            **self.RUNGS[rung],
        )
        assert encoded.stat().st_size > 0
        assert encoded.read_bytes() == oracle.read_bytes()

    def test_partial_trace_of_a_deadlock_matches(self, tmp_path):
        encoded, oracle = tmp_path / "encoded.jsonl", tmp_path / "oracle.jsonl"
        with pytest.raises(DeadlockError):
            simulate_traced(
                MachineConfig.pipe("16-16", 128, sdq_capacity=1),
                assemble(_SDQ_OVERRUN),
                encoded,
                sinks=(_DictJsonSink(oracle),),
            )
        assert encoded.stat().st_size > 0
        assert encoded.read_bytes() == oracle.read_bytes()


class TestRingBufferSink:
    def test_keeps_only_last_capacity_events(self):
        sink = RingBufferSink(capacity=3)
        for cycle in range(10):
            sink.emit(cycle, "iq", "push", {})
        assert sink.total_events == 10
        assert [e["c"] for e in sink.events] == [7, 8, 9]

    def test_unbounded_capacity(self):
        sink = RingBufferSink(capacity=None)
        for cycle in range(100):
            sink.emit(cycle, "iq", "push", {})
        assert len(sink.events) == sink.total_events == 100

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_nonpositive_capacity(self, capacity):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=capacity)


class TestTraceMetrics:
    def test_from_events_counts_components(self):
        events = [
            {"c": 0, "o": "sim", "k": "begin", "strategy": "pipe", "config": "x"},
            {"c": 0, "o": "icache", "k": "miss", "addr": 0, "seq": 0},
            {"c": 1, "o": "icache", "k": "hit", "addr": 0},
            {"c": 1, "o": "icache", "k": "fill", "addr": 0, "bytes": 16,
             "replaced": 1},
            {"c": 2, "o": "backend", "k": "issue", "pc": 0},
            {"c": 2, "o": "backend", "k": "stall", "reason": "ldq_empty"},
            {"c": 2, "o": "backend", "k": "stall", "reason": "ldq_empty"},
            {"c": 3, "o": "queue", "k": "push", "queue": "LAQ", "depth": 1},
            {"c": 3, "o": "queue", "k": "push", "queue": "SAQ", "depth": 1},
            {"c": 4, "o": "queue", "k": "pop", "queue": "LAQ", "depth": 0},
            {"c": 5, "o": "sim", "k": "end", "cycles": 5, "instructions": 1,
             "halted": True},
        ]
        metrics = TraceMetrics.from_events(events)
        assert metrics.events == len(events)
        assert metrics.cycles == 5 and metrics.halted
        assert metrics.instructions == 1
        assert metrics.cache_hits == 1 and metrics.cache_misses == 1
        assert metrics.cache_fills == 1 and metrics.cache_line_replacements == 1
        assert metrics.cache_miss_rate == 0.5
        assert metrics.stalls == {"ldq_empty": 2}
        assert metrics.loads_issued == 1 and metrics.stores_issued == 1
        assert metrics.queues["LAQ"].pushes == 1
        assert metrics.queues["LAQ"].pops == 1
        assert metrics.queues["LAQ"].max_occupancy == 1

    def test_iq_depth_statistics(self):
        events = [
            {"c": 0, "o": "iq", "k": "push", "pc": 0, "depth": 1, "bytes": 4},
            {"c": 1, "o": "iq", "k": "push", "pc": 4, "depth": 2, "bytes": 8},
            {"c": 2, "o": "iq", "k": "pop", "pc": 0, "depth": 1, "bytes": 4},
        ]
        metrics = TraceMetrics.from_events(events)
        assert metrics.iq_pushes == 2 and metrics.iq_pops == 1
        assert metrics.iq_max_depth == 2 and metrics.iq_max_bytes == 8
        assert metrics.mean_iq_depth == pytest.approx(4 / 3)

    def test_derived_rates_are_zero_on_empty(self):
        metrics = TraceMetrics()
        assert metrics.cache_miss_rate == 0.0
        assert metrics.output_port_utilization == 0.0
        assert metrics.input_port_utilization == 0.0
        assert metrics.mean_iq_depth == 0.0
        assert metrics.ipc == 0.0

    def test_to_dict_round_trip(self):
        events = [
            {"c": 0, "o": "backend", "k": "stall", "reason": "frontend_empty"},
            {"c": 1, "o": "queue", "k": "push", "queue": "LDQ", "depth": 1},
            {"c": 2, "o": "mem", "k": "accept", "kind": "load", "addr": 8,
             "bytes": 4, "demand": True, "fpu": False, "seq": 1},
            {"c": 3, "o": "sim", "k": "end", "cycles": 3, "instructions": 0,
             "halted": True},
        ]
        metrics = TraceMetrics.from_events(events)
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert TraceMetrics.from_dict(payload) == metrics

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        ("icache", "hit", {"addr": 0}),
                        ("icache", "miss", {"addr": 0, "seq": 1}),
                        ("backend", "issue", {"pc": 0}),
                        ("backend", "stall", {"reason": "ldq_empty"}),
                        ("queue", "push", {"queue": "LAQ", "depth": 1}),
                        ("queue", "pop", {"queue": "LAQ", "depth": 0}),
                        ("iq", "push", {"pc": 0, "depth": 1, "bytes": 4}),
                        ("mem", "conflict", {"candidates": 2}),
                        ("engine", "hazard", {"addr": 16}),
                    ]
                ),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=60,
        )
    )
    def test_round_trip_holds_for_any_event_mix(self, stream):
        """Property: serialising the aggregate never loses information."""
        records = [
            {"c": cycle, "o": component, "k": kind, **fields}
            for (component, kind, fields), cycle in stream
        ]
        metrics = TraceMetrics.from_events(records)
        payload = json.loads(json.dumps(metrics.to_dict()))
        restored = TraceMetrics.from_dict(payload)
        assert restored == metrics
        assert restored.events == len(records)


class TestMergeTraceFiles:
    def test_concatenates_in_given_order(self, tmp_path):
        parts = []
        for index in range(3):
            part = tmp_path / f"part-{index}.jsonl"
            part.write_text(f'{{"c":{index},"o":"sim","k":"begin"}}\n')
            parts.append(part)
        destination = tmp_path / "merged.jsonl"
        written = merge_trace_files(parts, destination)
        assert written == destination.stat().st_size
        assert [e["c"] for e in read_trace(destination)] == [0, 1, 2]

    def test_missing_part_raises(self, tmp_path):
        with pytest.raises(OSError):
            merge_trace_files([tmp_path / "absent.jsonl"], tmp_path / "out.jsonl")

    @given(chunks=st.lists(st.binary(max_size=64), max_size=8))
    def test_merge_equals_concatenation(self, tmp_path_factory, chunks):
        """Property: the merged file is exactly the parts joined in order."""
        tmp_path = tmp_path_factory.mktemp("merge")
        parts = []
        for index, chunk in enumerate(chunks):
            part = tmp_path / f"part-{index}"
            part.write_bytes(chunk)
            parts.append(part)
        destination = tmp_path / "merged"
        written = merge_trace_files(parts, destination)
        expected = b"".join(chunks)
        assert destination.read_bytes() == expected
        assert written == len(expected)
