"""Steady-state loop replay: memoize warm loop iterations.

Once a benchmark loop reaches its steady state, every iteration drives
the machine through the *same* cycle-by-cycle evolution: the same
stalls, the same cache hits, the same bus arbitration — only the data
values stride.  This module exploits that by memoizing one iteration's
effect on the machine and then applying it arithmetically, iteration
after iteration, without simulating the cycles in between.

The protocol is **record → verify → engage**, keyed by loop backedge
target:

1. **Record.**  At a backward redirect (a loop backedge) the controller
   fingerprints the whole machine via the components'
   ``state_signature`` hooks (times relative to ``now``, sequence
   numbers relative to the allocator, LRU stamps reduced to rank order;
   data values excluded).  It then records one full iteration: the
   cycle and sequence-number deltas, the delta of *every* simulation
   counter (see :class:`StatsBook`), the issued instruction stream with
   outcomes, the data-engine event stream, and (when tracing) the raw
   trace-event batch.
2. **Verify.**  The next live iteration is recorded the same way and
   must reproduce the first record *exactly* — same cycles, same
   counter deltas, same instruction outcomes, same event shapes — and
   return the machine to the same signature.  Only then is the loop
   **engaged**.
3. **Replay.**  On each further signature match the controller replays
   a *burst* of iterations arithmetically.  Its only functional state is
   the packed *entry key* of the next iteration: the register and
   branch banks, the LDQ value chain, the uncommitted store queues, FPU
   operand A and result queue.  A counter-silent *shadow functional
   pass* re-executes the recorded instruction stream from the key
   against a memory-write overlay; its packed summary ends in the exit
   state in the key's own layout, so the next key is the summary's
   tail.  An iteration is adopted only once it passes every check
   (push counts, chain and store-queue conservation, branch-bank
   equality, FPU-window addresses, store/load ordering-hazard counts):
   its writes land in memory, the carried LAQ/SAQ/SDQ tails advance and
   its trace batch is emitted.  The rest of the live machine is written
   once, when the burst ends (loop exit, divergence, ``max_cycles``):
   the final key is decoded into banks, queues and FPU core, timed
   state is shifted by k iterations' deltas (``replay_shift`` is
   additive) and every counter by k times its recorded delta (through
   a plan of the counters that move, built when the loop engages).  A
   divergence at iteration k+1 thus leaves exactly k iterations committed
   and live simulation resumes there — it never needs a rollback.

   The shadow pass depends on the program, not on the machine config:
   loads read memory and stores commit at issue, so one pass is a pure
   function of its entry state, the base-memory words it reads and the
   recorded instruction stream.  A process-wide **shadow memo** holds
   each completed pass's functional summary, so the configs of a sweep
   after the first mostly skip it:

   * *key* — one table per engaged record, found once at engagement
     from the program's code key (format, entry point, memory size,
     instruction layout; not its data) and ``record.instrs``; within
     it, the entry key;
   * *hit* — every base-memory word in the summary's read set must
     still hold the value read, else it is a miss; the timing-dependent
     checks (branch-bank equality, chain and store-queue conservation,
     ``_check_events``) run on hits and misses alike;
   * *miss* — the pass, seeded from the key alone, runs through the
     shared specialized handlers of :mod:`repro.cpu.dispatch` when the
     compiled kernel dispatches through them, else through ``execute``,
     and its summary is stored;
   * *cap and lifetime* — summaries are packed 32-bit words, charged
     with their table keys against :data:`SHADOW_MEMO_MAX_BYTES`;
     whole programs are evicted, least recently used first, and
     ``compiled.clear_compile_cache()`` empties the memo.

Byte-identity invariants:

* counters are *never* recomputed during replay — the shadow pass is
  counter-silent and the recorded deltas are applied arithmetically,
  so results match the reference engine field for field;
* max-style counters (queue ``max_occupancy``, LDQ wait high-water)
  must show a zero delta over the verified iteration, else the loop
  never engages;
* under tracing, a loop engages only if its recorded and verified
  event batches are byte-identical after cycle normalisation; batches
  containing striding payloads (data addresses, sequence numbers)
  never match, so such loops simply stay live and the JSONL output is
  trivially preserved;
* replay refuses to advance past ``max_cycles``, so timeout and
  deadlock errors report true architectural cycles.

``replay=False``, ``--no-replay`` or ``REPRO_NO_REPLAY=1`` disable the
controller entirely for differential testing; the shadow memo has no
switch of its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading
from array import array
from collections import deque
from struct import pack_into, unpack_from

from ..asm.program import WORD_BYTES
from ..cpu.dispatch import instruction_key, shared_handler
from ..cpu.executor import execute
from ..cpu.state import ArchState
from ..isa.registers import NUM_BRANCH_REGISTERS, NUM_VISIBLE_REGISTERS
from ..memory.fpu import (
    FPU_OPERAND_A,
    FPU_RESULT,
    TRIGGER_OPERATIONS,
    float32_op,
    is_fpu_address,
)

__all__ = [
    "SHADOW_MEMO_MAX_BYTES",
    "ReplayController",
    "StatsBook",
    "clear_shadow_memo",
    "machine_signature",
    "shadow_memo_stats",
]


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def machine_signature(sim, now: int) -> tuple:
    """Fingerprint of everything that determines future *timing*.

    Component signatures make times ``now``-relative and sequence
    numbers allocator-relative, so a steady-state loop produces the
    same tuple at every backedge.  Pure (no component state is
    mutated) and cheap enough to evaluate once per backedge.
    """
    base_seq = sim.seq.value
    return (
        sim.backend.state_signature(now, base_seq),
        sim.frontend.state_signature(now, base_seq),
        sim.engine.state_signature(now, base_seq),
        sim.memory.state_signature(now, base_seq),
        sim.cache.state_signature(),
    )


# ----------------------------------------------------------------------
# The counter ledger
# ----------------------------------------------------------------------
#: counters that track a running maximum rather than a sum; a loop may
#: only engage once these stop moving (delta 0 over an iteration)
MAX_FIELDS = frozenset({"ldq_max_wait_entries", "max_occupancy"})


class StatsBook:
    """Complete ledger of every counter a simulation reports.

    Dataclass-based stats objects are introspected field by field, so a
    newly added counter is picked up automatically — or, if its type is
    not something the replay engine knows how to delta (an ``int``
    instance attribute or a ``str -> int`` dict), :class:`StatsBook`
    raises at construction instead of silently corrupting replayed
    results.  Plain-attribute
    counters (backend, queues, external memory, timed FPU) are listed
    explicitly; ``tests/test_replay_engine.py`` pins those manifests.

    ``engine.fpu_core.operations_started`` is deliberately absent: the
    semantic FPU core is *functional* state, advanced by the shadow
    pass itself.
    """

    #: (owner attribute path, counter names) for non-dataclass counters
    PLAIN_COUNTERS = (
        ("backend", ("instructions", "branches", "branches_taken")),
        ("memory.external", ("total_accepted", "busy_cycles")),
        ("memory.fpu", ("operations_started", "results_delivered")),
    )
    QUEUE_COUNTERS = ("total_pushes", "total_pops", "max_occupancy")

    def __init__(self, sim):
        entries: list[tuple[str, str, object, object]] = []

        def add_attr(obj, name: str, label: str) -> None:
            kind = "max" if name in MAX_FIELDS else "add"
            # instance attributes only: apply_plan updates __dict__
            value = getattr(obj, "__dict__", {}).get(name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise RuntimeError(
                    f"replay cannot account for counter {label!r} of type "
                    f"{type(value).__name__}; teach StatsBook about it"
                )
            entries.append((label, kind, obj, name))

        def add_dict(obj, name: str, label: str) -> None:
            entries.append((label, "dict", obj, name))

        def add_dataclass(obj, label: str) -> None:
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                if isinstance(value, dict):
                    add_dict(obj, field.name, f"{label}.{field.name}")
                else:
                    add_attr(obj, field.name, f"{label}.{field.name}")

        backend = sim.backend
        add_dataclass(sim.frontend.stats, "fetch")
        add_dataclass(sim.cache.stats, "cache")
        add_dataclass(sim.memory.stats, "mem")
        add_dataclass(sim.engine.stats, "engine")
        for path, names in self.PLAIN_COUNTERS:
            obj = sim
            for part in path.split("."):
                obj = getattr(obj, part)
            for name in names:
                add_attr(obj, name, f"{path}.{name}")
        add_dict(backend, "stalls", "backend.stalls")
        for queue in (sim.engine.laq, sim.engine.ldq, sim.engine.saq, sim.engine.sdq):
            for name in self.QUEUE_COUNTERS:
                add_attr(queue, name, f"queue.{queue.name}.{name}")
        self._entries = entries
        self.labels = tuple(entry[0] for entry in entries)

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Current value of every counter (dicts canonicalised)."""
        values = []
        for _label, kind, obj, name in self._entries:
            value = getattr(obj, name)
            if kind == "dict":
                values.append(tuple(sorted(value.items())))
            else:
                values.append(value)
        return tuple(values)

    def diff(self, before: tuple, after: tuple) -> tuple:
        """Per-counter delta between two snapshots."""
        deltas = []
        for (_label, kind, _obj, _name), a, b in zip(self._entries, before, after):
            if kind == "dict":
                prior = dict(a)
                deltas.append(
                    tuple(
                        (key, value - prior.get(key, 0))
                        for key, value in b
                        if value != prior.get(key, 0)
                    )
                )
            else:
                deltas.append(b - a)
        return tuple(deltas)

    def max_deltas_zero(self, delta: tuple) -> bool:
        """True when no max-style counter moved over the iteration."""
        for (_label, kind, _obj, _name), d in zip(self._entries, delta):
            if kind == "max" and d != 0:
                return False
        return True

    def plan(self, delta: tuple) -> tuple:
        """The counters ``delta`` moves, as an :meth:`apply_plan` argument.

        Built once per engaged loop, so every replayed iteration walks
        only the counters that change rather than the whole ledger.
        "max" deltas are zero by the engagement precondition and never
        appear.  Integer counters are plain instance attributes (the
        constructor rejects anything else), so they are updated through
        their owner's ``__dict__``.
        """
        adds = []
        dicts = []
        for (_label, kind, obj, name), d in zip(self._entries, delta):
            if not d:
                continue
            if kind == "add":
                adds.append((vars(obj), name, d))
            elif kind == "dict":
                dicts.append((obj, name, d))
        return tuple(adds), tuple(dicts)

    @staticmethod
    def apply_plan(plan: tuple, k: int = 1) -> None:
        """Advance the planned counters by ``k`` iterations' deltas.

        Deltas are integers, so one call with ``k`` equals ``k`` calls.
        """
        adds, dicts = plan
        for counters, name, d in adds:
            counters[name] += k * d
        for obj, name, d in dicts:
            target = getattr(obj, name)
            for key, dv in d:
                target[key] = target.get(key, 0) + k * dv

    def apply(self, delta: tuple) -> None:
        """Advance every counter by one iteration's recorded delta."""
        self.apply_plan(self.plan(delta))


# ----------------------------------------------------------------------
# Iteration records
# ----------------------------------------------------------------------
class _IterationRecord:
    """One memoized loop iteration (deltas plus replay inputs)."""

    __slots__ = (
        "cycles",
        "seqs",
        "delta",
        "instrs",
        "events",
        "trace",
        "engageable",
        "sd_count",
        "push_counts",
        "plan",
        "handlers",
        "memo",
    )

    def __init__(self, cycles, seqs, delta, instrs, events, trace, engageable):
        self.cycles = cycles
        self.seqs = seqs
        self.delta = delta
        self.instrs = instrs
        self.events = events
        self.trace = trace
        kinds = [event[0] for event in events]
        self.sd_count = kinds.count("sd")
        #: LAQ, SAQ and SDQ pushes the iteration issues
        self.push_counts = (kinds.count("laq"), kinds.count("saq"), kinds.count("sdq"))
        # A burst carries each store queue as its last ``len`` pushes,
        # so pushes must equal departures.  The signature pins every
        # queue's per-entry seqs, so a genuine record always passes.
        self.engageable = engageable and (
            self.push_counts[1] == self.push_counts[2] == self.sd_count
        )
        # Resolved once when the loop engages (ReplayController._engage):
        # the StatsBook plan, the shadow pass's (handler, outcome) pairs
        # (None: run through ``execute``), and the record's functional
        # memo table.
        self.plan = None
        self.handlers = None
        self.memo = None

    def matches(self, other: "_IterationRecord") -> bool:
        return (
            self.cycles == other.cycles
            and self.seqs == other.seqs
            and self.delta == other.delta
            and self.instrs == other.instrs
            and self.events == other.events
            and self.trace == other.trace
        )


#: loop-state phases
_RECORD, _VERIFY, _ENGAGED, _DEAD = range(4)

_PHASE_NAMES = {
    _RECORD: "recording",
    _VERIFY: "verifying",
    _ENGAGED: "engaged",
    _DEAD: "abandoned",
}


class _LoopState:
    """Per-backedge-target replay state machine plus statistics."""

    __slots__ = (
        "phase",
        "sig",
        "candidate",
        "record",
        "fails",
        "restarts",
        "backedges",
        "sig_mismatches",
        "recorded",
        "replayed",
        "replayed_cycles",
        "bursts",
        "divergences",
        "memo_hits",
        "memo_misses",
    )

    def __init__(self):
        self.phase = _RECORD
        self.sig = None
        self.candidate: _IterationRecord | None = None
        self.record: _IterationRecord | None = None
        self.fails = 0
        self.restarts = 0
        self.backedges = 0
        self.sig_mismatches = 0
        self.recorded = 0
        self.replayed = 0
        self.replayed_cycles = 0
        self.bursts = 0
        self.divergences = 0
        self.memo_hits = 0
        self.memo_misses = 0


class _Divergence(Exception):
    """The shadow pass cannot reproduce the recorded iteration."""


# ----------------------------------------------------------------------
# Cross-config functional memo
# ----------------------------------------------------------------------
#: Byte budget of the process-wide shadow memo (its key and summary
#: ``bytes`` objects).  Well above one full-scale Livermore sweep's
#: working set, so a sweep never evicts; it bounds processes that see
#: many programs (fuzzing, a long-lived service worker).
SHADOW_MEMO_MAX_BYTES = 32 << 20

#: words of the packed summary header (see :meth:`_ShadowEnv.pack`)
_HEADER = 7
#: byte slices of an entry key (see :func:`_pack_state`): the value
#: chain and store queue lengths, conserved by every iteration, and the
#: branch bank
_WORD = array("I").itemsize
_CONSERVED = slice(0, 3 * _WORD)
_BRANCH_AT = 5 + 2 * NUM_VISIBLE_REGISTERS
_BRANCH = slice(_BRANCH_AT * _WORD, (_BRANCH_AT + NUM_BRANCH_REGISTERS) * _WORD)
_FPU_KINDS = (None, *sorted(set(TRIGGER_OPERATIONS.values())))
_FPU_CODES = {kind: code for code, kind in enumerate(_FPU_KINDS)}


class _ProgramMemo:
    """One program's tables, keyed by engaged record instruction stream."""

    __slots__ = ("key", "tables", "nbytes")

    def __init__(self, key: str):
        self.key = key
        self.tables: dict[tuple, _Table] = {}
        self.nbytes = 0


class _Table(dict):
    """``{entry key: summary}`` for one record's instruction stream.

    ``owner`` is the program memo charged for it, or ``None`` once
    evicted (or when the budget could not take it): a detached table
    is empty and refuses stores, so its controller simply misses.
    """

    __slots__ = ("owner",)


#: program code key -> its memo, least recently resolved first
_MEMO: dict[str, _ProgramMemo] = {}
_MEMO_BYTES = 0
#: guards the compound updates of the two above: a service in thread
#: mode runs several simulators in one process
_MEMO_LOCK = threading.Lock()


def _program_key(program) -> str:
    """The program identity the memo is keyed by: its code, not its data.

    Format, entry point, memory size (the shadow pass's bounds checks
    depend on it) and instruction layout.  Data words are left out on
    purpose: every base-memory word a shadow pass reads is checked
    again on each hit, so the same code over other arrays shares one
    memo and simply misses where the data differ.
    """
    h = hashlib.sha256()
    h.update(f"{program.fmt.value}:{program.entry_point}:{program.memory_size}".encode())
    for address, instruction in program.layout:
        h.update(f";{address}:{instruction_key(instruction)}".encode())
    return h.hexdigest()


def _evict(memo: _ProgramMemo) -> None:
    """Drop one whole program (caller holds ``_MEMO_LOCK``)."""
    global _MEMO_BYTES
    del _MEMO[memo.key]
    _MEMO_BYTES -= memo.nbytes
    for table in memo.tables.values():
        table.clear()
        table.owner = None
    memo.tables.clear()
    memo.nbytes = 0


def _charge(memo: _ProgramMemo, size: int) -> bool:
    """Account ``size`` more bytes to ``memo``, evicting least recently
    used programs to fit; ``False`` if ``memo`` alone would overflow
    the budget (caller holds ``_MEMO_LOCK``)."""
    global _MEMO_BYTES
    while _MEMO_BYTES + size > SHADOW_MEMO_MAX_BYTES:
        oldest = next(iter(_MEMO.values()))
        if oldest is memo:
            return False
        _evict(oldest)
    memo.nbytes += size
    _MEMO_BYTES += size
    return True


def _memo_table(program_key: str, instrs: tuple) -> _Table:
    """The memo table of one engaged record's instruction stream.

    The stream itself is the table's key, charged to the budget.
    """
    with _MEMO_LOCK:
        memo = _MEMO.pop(program_key, None)
        if memo is None:
            memo = _ProgramMemo(program_key)
        _MEMO[program_key] = memo
        table = memo.tables.get(instrs)
        if table is None:
            table = _Table()
            table.owner = None
            size = sys.getsizeof(instrs) + sum(map(sys.getsizeof, instrs))
            if _charge(memo, size):
                table.owner = memo
                memo.tables[instrs] = table
            elif not memo.tables:
                del _MEMO[program_key]
    return table


def _memo_put(table: _Table, key: bytes, summary: bytes) -> None:
    """Store one summary if the budget allows."""
    size = sys.getsizeof(key) + sys.getsizeof(summary)
    with _MEMO_LOCK:
        memo = table.owner
        if memo is None:
            return
        old = table.get(key)
        if old is not None:
            size -= sys.getsizeof(key) + sys.getsizeof(old)
        if _charge(memo, size):
            table[key] = summary


def clear_shadow_memo() -> None:
    """Forget every memoized shadow iteration (``clear_compile_cache``
    calls this, so a cold sweep pays its own misses)."""
    with _MEMO_LOCK:
        for memo in list(_MEMO.values()):
            _evict(memo)


def shadow_memo_stats() -> dict:
    """Size of the process-wide shadow memo."""
    with _MEMO_LOCK:
        tables = [table for memo in _MEMO.values() for table in memo.tables.values()]
        return {
            "programs": len(_MEMO),
            "tables": len(tables),
            "entries": sum(len(table) for table in tables),
            "bytes": _MEMO_BYTES,
        }


def _pack_state(prefix, arch: ArchState, chain, addrs, data, operand_a, results):
    """``prefix`` followed by one iteration-boundary state, as packed
    32-bit words (every value is one: registers, addresses and store
    data are masked where they are computed, the rest are memory words
    and float32 bit patterns).

    The boundary layout is the memo's entry key: the lengths of the LDQ
    value chain, the uncommitted store addresses and data, and the FPU
    results; FPU operand A; the register and branch banks; then those
    four sequences.
    """
    words = array("I", prefix)
    words.extend((len(chain), len(addrs), len(data), len(results), operand_a))
    words.extend(arch._foreground)
    words.extend(arch._background)
    words.extend(arch._branch)
    words.extend(chain)
    words.extend(addrs)
    words.extend(data)
    words.extend(results)
    return words.tobytes()


def _unpack_state(key: bytes) -> list:
    """Split an entry key into FPU operand A, the three banks, the value
    chain, the uncommitted store addresses and data, and the FPU results
    (each a sequence of ints)."""
    words = memoryview(key).cast("I")
    background = 5 + NUM_VISIBLE_REGISTERS
    i = _BRANCH_AT + NUM_BRANCH_REGISTERS
    sections = [words[4], words[5:background], words[background:_BRANCH_AT]]
    sections.append(words[_BRANCH_AT:i])
    for n in words[:4]:  # the four sequence lengths
        sections.append(words[i : i + n])
        i += n
    return sections


def _entry_key(real: ArchState, engine) -> bytes:
    """Packed iteration-entry state of the live machine: everything a
    shadow pass reads besides base memory (see :func:`_pack_state`).

    The LDQ value chain is the LDQ, then the in-flight loads, then the
    LAQ entries: the order the live machine pops them in.
    """
    chain = list(engine.ldq._items)
    chain.extend([flight.value for flight in engine._in_flight_loads])
    chain.extend([entry.value for entry in engine.laq])
    pending = (engine._uncommitted_addresses, engine._uncommitted_data)
    core = engine.fpu_core
    return _pack_state((), real, chain, *pending, core._operand_a, core._results)


def _read_set_holds(words, memory) -> bool:
    """True when every base-memory word a summary's pass read still
    holds the value it read (``words``: the summary as 32-bit words)."""
    for i in range(_HEADER, _HEADER + 2 * words[0], 2):
        address = words[i]
        if unpack_from("<I", memory, address)[0] != words[i + 1]:
            return False
    return True


# ----------------------------------------------------------------------
# Shadow functional environment
# ----------------------------------------------------------------------
class _ShadowEnv:
    """Executor environment for the counter-silent shadow pass.

    Mirrors :class:`~repro.cpu.data_engine.DataQueueEngine`'s functional
    semantics without touching the real engine, from an entry key alone:
    memory writes land in an overlay, the semantic FPU is a private
    copy, and LDQ pops are served from the FIFO *value chain* (LDQ
    contents, then in-flight load values, then LAQ entry values, then
    loads pushed by this very iteration — exactly the order the live
    machine would pop them in).  ``reads`` logs each base-memory word
    read (address, value), which is all a memo hit must re-check.
    """

    __slots__ = (
        "memory",
        "overlay",
        "reads",
        "chain",
        "unc_addrs",
        "unc_data",
        "fpu_operand_a",
        "fpu_results",
        "fpu_ops",
        "fpu_last",
        "laq_pushes",
        "saq_pushes",
        "sdq_pushes",
    )

    def __init__(self, key: bytes, memory, shadow: ArchState):
        """Seed a pass from entry state ``key``, loading its banks into
        ``shadow``."""
        operand_a, foreground, background, branch, chain, addrs, data, results = (
            _unpack_state(key)
        )
        shadow._foreground[:] = foreground
        shadow._background[:] = background
        shadow._branch[:] = branch
        self.memory = memory
        self.overlay: dict[int, int] = {}
        self.reads: list[int] = []
        self.chain: deque[int] = deque(chain)
        self.unc_addrs = deque(addrs)
        self.unc_data = deque(data)
        self.fpu_operand_a = operand_a
        self.fpu_results = deque(results)
        self.fpu_ops = 0
        self.fpu_last: str | None = None
        self.laq_pushes: list[int] = []
        self.saq_pushes: list[int] = []
        self.sdq_pushes: list[int] = []

    # -- memo summary -----------------------------------------------------
    def pack(self, shadow: ArchState) -> bytes:
        """Functional summary of this completed pass, as 32-bit words.

        A header of counts, then the read set, the overlay writes and
        the LAQ/SAQ/SDQ push streams, then the exit state in the entry
        key's layout: the next iteration's key is the summary's tail.
        """
        laq, saq, sdq = self.laq_pushes, self.saq_pushes, self.sdq_pushes
        words = [len(self.reads) // 2, len(self.overlay), len(laq), len(saq), len(sdq)]
        words += (self.fpu_ops, _FPU_CODES[self.fpu_last], *self.reads)
        for pair in self.overlay.items():
            words += pair
        words += (*laq, *saq, *sdq)
        return _pack_state(
            words,
            shadow,
            self.chain,
            self.unc_addrs,
            self.unc_data,
            self.fpu_operand_a,
            self.fpu_results,
        )

    # -- functional memory ------------------------------------------------
    def _check(self, address: int) -> None:
        if address % WORD_BYTES:
            raise _Divergence
        if not is_fpu_address(address) and address + WORD_BYTES > len(self.memory):
            raise _Divergence

    def _read(self, address: int) -> int:
        self._check(address)
        if is_fpu_address(address):
            if address != FPU_RESULT or not self.fpu_results:
                raise _Divergence
            return self.fpu_results.popleft()
        value = self.overlay.get(address)
        if value is not None:
            return value
        value = int.from_bytes(self.memory[address : address + WORD_BYTES], "little")
        self.reads += (address, value)
        return value

    def _write(self, address: int, value: int) -> None:
        self._check(address)
        if is_fpu_address(address):
            if address == FPU_OPERAND_A:
                self.fpu_operand_a = value & 0xFFFFFFFF
                return
            kind = TRIGGER_OPERATIONS.get(address)
            if kind is None:
                raise _Divergence
            self.fpu_results.append(float32_op(kind, self.fpu_operand_a, value))
            self.fpu_ops += 1
            self.fpu_last = kind
            return
        self.overlay[address] = value & 0xFFFFFFFF

    def _commit_pending(self) -> None:
        while self.unc_addrs and self.unc_data:
            self._write(self.unc_addrs.popleft(), self.unc_data.popleft())

    # -- ExecutionEnv protocol --------------------------------------------
    def pop_ldq(self) -> int:
        if not self.chain:
            raise _Divergence
        return self.chain.popleft()

    def push_laq(self, address: int) -> None:
        for pending in self.unc_addrs:
            if pending == address:
                raise _Divergence  # live execution would raise for real
        value = self._read(address)
        self.chain.append(value)
        self.laq_pushes.append(address)

    def push_saq(self, address: int) -> None:
        self.saq_pushes.append(address)
        self.unc_addrs.append(address)
        self._commit_pending()

    def push_sdq(self, value: int) -> None:
        self.sdq_pushes.append(value)
        self.unc_data.append(value)
        self._commit_pending()


class _Tails:
    """The LAQ/SAQ addresses and SDQ values a burst carries, plus the
    current iteration's push streams.

    Each queue loses as many entries as it gains per iteration, so its
    contents are the last ``len`` pushes: a bounded deque extended by
    each adopted iteration.  ``saq`` is thus also the next iteration's
    entry SAQ, which :meth:`ReplayController._check_events` reads.
    """

    __slots__ = ("laq", "saq", "sdq", "laq_pushes", "saq_pushes", "sdq_pushes")

    def __init__(self, engine):
        laq, saq, sdq = engine.laq, engine.saq, engine.sdq
        self.laq = deque([entry.address for entry in laq], maxlen=len(laq))
        self.saq = deque([entry.address for entry in saq], maxlen=len(saq))
        self.sdq = deque([entry.value for entry in sdq], maxlen=len(sdq))


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------
class ReplayController:
    """Memoizes warm loop iterations for one :class:`Simulator` run."""

    #: verify attempts (matching signature, mismatching record) before a
    #: target is abandoned as unstable
    VERIFY_LIMIT = 4
    #: signature changes at a target before it is abandoned
    RESTART_LIMIT = 64
    #: iterations longer than this are never memoized (outer loops)
    MAX_ITERATION_INSTRUCTIONS = 2048

    def __init__(self, sim):
        self.sim = sim
        self.book = StatsBook(sim)
        self.loops: dict[int, _LoopState] = {}
        self.traced = sim.tracer.enabled
        #: fault-injection hook (``None`` outside injected runs): called
        #: with ``(target, now)`` at every backedge, emulating a replay
        #: fast-path bug for the engine-degradation ladder to absorb
        self.fault_hook = getattr(sim, "replay_fault_hook", None)
        self._recording_target: int | None = None
        self._rec_now = 0
        self._rec_seq = 0
        self._rec_vector: tuple | None = None
        self._issue_buf: list = []
        self._engine_buf: list = []
        self._trace_buf: list = []
        self._shadow_arch = ArchState()
        #: run shadow misses through the shared specialized handlers;
        #: :meth:`Simulator.run` sets it exactly when the compiled
        #: kernel dispatches through them, so ``REPRO_NO_COMPILED``
        #: (and ``REPRO_NO_SPECIALIZE_DISPATCH``) compile nothing here
        self.use_handlers = False
        self._program_key: str | None = None

    # ------------------------------------------------------------------
    # Entry point from the run loop
    # ------------------------------------------------------------------
    def on_backedge(self, target: int, now: int) -> int:
        """Handle a loop backedge at cycle ``now``; returns the new ``now``.

        A return value greater than ``now`` means iterations were
        replayed arithmetically and the machine state already reflects
        the returned cycle.
        """
        if self.fault_hook is not None:
            self.fault_hook(target, now)
        state = self.loops.get(target)
        if state is None:
            state = _LoopState()
            self.loops[target] = state
        state.backedges += 1
        phase = state.phase
        if phase == _DEAD:
            # Dead targets neither record nor disturb an enclosing
            # loop's recording (their backedges are part of it).
            return now
        if phase == _ENGAGED:
            sig = machine_signature(self.sim, now)
            if sig != state.sig:
                state.sig_mismatches += 1
                return now
            self._abort_recording()
            return self._burst(state, now)
        # RECORD / VERIFY
        if self._recording_target == target:
            record, sig = self._finish_recording(now)
            self._advance(state, record, sig)
        else:
            # Innermost wins: a different target's backedge inside the
            # active recording means a nested loop is hotter.
            self._abort_recording()
            sig = machine_signature(self.sim, now)
        if state.phase == _ENGAGED and sig == state.sig:
            return self._burst(state, now)
        if state.phase != _DEAD:
            self._start_recording(target, now, sig)
        return now

    def check_runaway(self) -> None:
        """Abandon a recording that grew past the memoization bound.

        Called from the run loop's periodic snapshot branch so a
        recording for a backedge that never recurs cannot buffer the
        rest of the program.
        """
        target = self._recording_target
        if target is None:
            return
        if len(self._issue_buf) > self.MAX_ITERATION_INSTRUCTIONS:
            self.loops[target].phase = _DEAD
            self._abort_recording()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _start_recording(self, target: int, now: int, sig: tuple) -> None:
        sim = self.sim
        self._recording_target = target
        self._rec_now = now
        self._rec_seq = sim.seq.value
        self._rec_vector = self.book.snapshot()
        self._issue_buf.clear()
        sim.backend.issue_log = self._issue_buf
        self._engine_buf.clear()
        sim.engine.replay_log = self._engine_buf
        if self.traced:
            self._trace_buf.clear()
            sim.tracer.record = self._trace_buf
        self.loops[target].sig = sig

    def _abort_recording(self) -> None:
        if self._recording_target is None:
            return
        sim = self.sim
        self._recording_target = None
        sim.backend.issue_log = None
        sim.engine.replay_log = None
        if self.traced:
            sim.tracer.record = None

    def _finish_recording(self, now: int) -> tuple:
        """Close the active recording; returns ``(record|None, end_sig)``."""
        sim = self.sim
        instrs = tuple(sim.backend.issue_log)
        raw_events = tuple(sim.engine.replay_log)
        raw_trace = tuple(self._trace_buf) if self.traced else None
        self._abort_recording()
        sig_end = machine_signature(sim, now)
        if len(instrs) > self.MAX_ITERATION_INSTRUCTIONS:
            return None, sig_end
        cycles = now - self._rec_now
        seqs = sim.seq.value - self._rec_seq
        base_seq = self._rec_seq
        base_now = self._rec_now
        events = []
        for event in raw_events:
            kind = event[0]
            if kind == "laq":
                _kind, address, seq, hazards = event
                fpu = address if is_fpu_address(address) else None
                events.append(("laq", seq - base_seq, fpu, hazards))
            elif kind == "saq":
                _kind, address, seq = event
                fpu = address if is_fpu_address(address) else None
                events.append(("saq", seq - base_seq, fpu))
            elif kind == "sdq":
                events.append(("sdq", event[2] - base_seq))
            else:
                events.append(("sd",))
        trace = None
        if raw_trace is not None:
            trace = tuple(
                (cycle - base_now, component, kind, fields)
                for cycle, component, kind, fields in raw_trace
            )
        delta = self.book.diff(self._rec_vector, self.book.snapshot())
        record = _IterationRecord(
            cycles=cycles,
            seqs=seqs,
            delta=delta,
            instrs=instrs,
            events=tuple(events),
            trace=trace,
            engageable=cycles > 0 and self.book.max_deltas_zero(delta),
        )
        return record, sig_end

    def _advance(self, state: _LoopState, record, sig_end: tuple) -> None:
        """Move a target's state machine after a recorded iteration."""
        if record is None:
            state.phase = _DEAD
            return
        state.recorded += 1
        if state.phase == _RECORD:
            if sig_end == state.sig:
                state.candidate = record
                state.phase = _VERIFY
            else:
                state.restarts += 1
                if state.restarts > self.RESTART_LIMIT:
                    state.phase = _DEAD
            return
        # _VERIFY
        if sig_end != state.sig:
            state.restarts += 1
            state.candidate = None
            state.phase = _DEAD if state.restarts > self.RESTART_LIMIT else _RECORD
            return
        if state.candidate.matches(record) and record.engageable:
            self._engage(state, record)
            return
        state.fails += 1
        state.candidate = record
        if state.fails >= self.VERIFY_LIMIT:
            state.phase = _DEAD

    def _engage(self, state: _LoopState, record: _IterationRecord) -> None:
        """Engage a verified record, resolving its per-record replay inputs.

        This is the only place ``record.instrs`` is hashed (to find its
        memo table); each replayed iteration then costs one entry-key
        lookup.
        """
        record.plan = self.book.plan(record.delta)
        if self.use_handlers:
            record.handlers = tuple(
                (shared_handler(instruction), outcome)
                for _tag, _pc, instruction, outcome in record.instrs
            )
        if self._program_key is None:
            self._program_key = _program_key(self.sim.program)
        record.memo = _memo_table(self._program_key, record.instrs)
        state.record = record
        state.phase = _ENGAGED

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _burst(self, state: _LoopState, now: int) -> int:
        """Replay as many iterations as the memo and the shadow pass can
        confirm.

        The packed entry key is the burst's only functional state: each
        iteration's summary (from the memo, or from a shadow pass run
        and then memoized) ends in the next iteration's key.  An
        iteration is adopted only after it passes every check: its
        memory writes land, the queue tails advance, and its trace batch
        is emitted.  The rest of the live machine is written once, by
        :meth:`_flush`, so a divergence at iteration k+1 leaves exactly
        k iterations committed, and nothing in between reads live
        timing state.
        """
        record = state.record
        sim = self.sim
        engine = sim.engine
        memory = engine.memory
        table = record.memo
        cycles = record.cycles
        last_start = sim.config.max_cycles - cycles
        traced = self.traced
        state.bursts += 1
        key = _entry_key(sim.backend.state, engine)
        tails = _Tails(engine)
        replayed = fpu_ops = fpu_code = 0
        while now <= last_start:
            summary = table.get(key)
            if summary is not None:
                words = memoryview(summary).cast("I")
                if not _read_set_holds(words, memory):
                    summary = None
            if summary is None:
                state.memo_misses += 1
                summary = self._shadow_pass(record, key, memory)
                if summary is None:
                    state.divergences += 1
                    break
                _memo_put(table, key, summary)
                words = memoryview(summary).cast("I")
            else:
                state.memo_hits += 1
            n_reads, n_writes, n_laq, n_saq, n_sdq, ops, code = words[:_HEADER]
            writes = _HEADER + 2 * n_reads
            i = writes + 2 * n_writes
            tails.laq_pushes = words[i : i + n_laq]
            i += n_laq
            tails.saq_pushes = words[i : i + n_saq]
            i += n_saq
            tails.sdq_pushes = words[i : i + n_sdq]
            next_key = summary[(i + n_sdq) * _WORD :]
            # A data-dependent branch-register write would redirect the
            # next iteration elsewhere; the value chain and store queues
            # must be conserved for their boundary partition to hold.
            if (
                next_key[_CONSERVED] != key[_CONSERVED]
                or next_key[_BRANCH] != key[_BRANCH]
                or not self._check_events(record, tails)
            ):
                state.divergences += 1
                break
            for j in range(writes, writes + 2 * n_writes, 2):
                pack_into("<I", memory, words[j], words[j + 1])
            tails.laq.extend(tails.laq_pushes)
            tails.saq.extend(tails.saq_pushes)
            tails.sdq.extend(tails.sdq_pushes)
            if ops:
                fpu_ops += ops
                fpu_code = code
            if traced:
                self._emit_batch(record.trace, now)
            now += cycles
            replayed += 1
            key = next_key
        if replayed:
            self._flush(record, key, tails, replayed, fpu_ops, fpu_code)
        state.replayed += replayed
        state.replayed_cycles += replayed * cycles
        return now

    def _shadow_pass(self, record: _IterationRecord, key: bytes, memory):
        """Run the recorded instruction stream from entry state ``key``.

        Returns the completed pass's packed summary, ``None`` when an
        outcome differs from the record or the pass diverges.
        """
        shadow = self._shadow_arch
        env = _ShadowEnv(key, memory, shadow)
        try:
            handlers = record.handlers
            if handlers is not None:
                for handler, rec_outcome in handlers:
                    if handler(shadow, env) != rec_outcome:
                        return None
            else:
                for _tag, _pc, instruction, rec_outcome in record.instrs:
                    if execute(instruction, shadow, env) != rec_outcome:
                        return None
        except _Divergence:
            return None
        except (ValueError, IndexError, RuntimeError):
            # Live execution would raise for real; let it.
            return None
        return env.pack(shadow)

    def _check_events(self, record: _IterationRecord, tails: "_Tails") -> bool:
        """Validate one iteration's push streams against the recorded
        event stream.

        Checks the push counts and the timing-relevant data dependences:
        FPU-window addressing (routes to a different unit with different
        latency) and store/load ordering-hazard counts (an exact counter
        in the results).  Store departures are interleaved in recorded
        order, from the entry SAQ, to reconstruct the SAQ contents each
        load saw.
        """
        laq_pushes = tails.laq_pushes
        saq_pushes = tails.saq_pushes
        if (len(laq_pushes), len(saq_pushes), len(tails.sdq_pushes)) != record.push_counts:
            return False
        # Equal counts: each push stream is consumed exactly once below.
        loads = iter(laq_pushes)
        stores = iter(saq_pushes)
        shadow_saq = deque(tails.saq)
        for event in record.events:
            kind = event[0]
            if kind == "laq":
                address = next(loads)
                fpu = event[2]
                if fpu is None:
                    if is_fpu_address(address):
                        return False
                elif address != fpu:
                    return False
                if shadow_saq.count(address) != event[3]:
                    return False
            elif kind == "saq":
                address = next(stores)
                fpu = event[2]
                if fpu is None:
                    if is_fpu_address(address):
                        return False
                elif address != fpu:
                    return False
                shadow_saq.append(address)
            elif kind == "sd":
                if not shadow_saq:
                    return False
                shadow_saq.popleft()
        return True

    def _flush(self, record, key: bytes, tails: "_Tails", k: int, fpu_ops, fpu_code):
        """Write ``k`` adopted iterations into the live machine at once.

        ``key`` is the exit state of the last one.  Every ``replay_shift``
        is additive and every counter delta an integer, so shifting and
        counting by ``k`` iterations equals ``k`` single steps.
        """
        sim = self.sim
        engine = sim.engine
        real = sim.backend.state
        operand_a, foreground, background, _branch, chain, addrs, data, results = (
            _unpack_state(key)
        )
        # Banks copied in place so every live reference stays valid; the
        # branch bank is unchanged (checked every iteration).
        real._foreground[:] = foreground
        real._background[:] = background
        values = iter(chain)
        ldq_items = engine.ldq._items
        for i in range(len(ldq_items)):
            ldq_items[i] = next(values)
        for flight in engine._in_flight_loads:
            flight.value = next(values)
        seqs = k * record.seqs
        for entry, address, value in zip(engine.laq, tails.laq, values):
            entry.address = address
            entry.value = value
            entry.seq += seqs
        for entry, address in zip(engine.saq, tails.saq):
            entry.address = address
            entry.seq += seqs
        for entry, value in zip(engine.sdq, tails.sdq):
            entry.value = value
            entry.seq += seqs
        engine._uncommitted_addresses = deque(addrs)
        engine._uncommitted_data = deque(data)
        core = engine.fpu_core
        core._operand_a = operand_a
        core._results = deque(results)
        if fpu_ops:
            core.operations_started += fpu_ops
            core.last_operation = _FPU_KINDS[fpu_code]
        # Shift every absolute time/seq in the timing skeleton.
        cycles = k * record.cycles
        sim.memory.replay_shift(cycles, seqs)
        sim.frontend.replay_shift(cycles, seqs)
        sim.backend.replay_shift(cycles, seqs)
        sim.seq.value += seqs
        # All counters advance arithmetically by the recorded deltas.
        self.book.apply_plan(record.plan, k)

    def _emit_batch(self, batch: tuple, base: int) -> None:
        """Re-emit a recorded trace batch shifted to this iteration."""
        tracer = self.sim.tracer
        emit = tracer.emit
        for rel_cycle, component, kind, fields in batch:
            tracer.cycle = base + rel_cycle
            emit(component, kind, **fields)

    # ------------------------------------------------------------------
    # Reporting (the ``profile --engine`` surface)
    # ------------------------------------------------------------------
    def loop_reports(self) -> list[dict]:
        """Per-backedge-target replay statistics, hottest first."""
        reports = []
        for target, state in self.loops.items():
            record = state.record
            reports.append(
                {
                    "target": target,
                    "phase": _PHASE_NAMES[state.phase],
                    "backedges": state.backedges,
                    "live_iterations": state.backedges,
                    "replayed_iterations": state.replayed,
                    "iteration_cycles": record.cycles if record else None,
                    "live_cycles": (
                        state.backedges * record.cycles if record else None
                    ),
                    "replayed_cycles": state.replayed_cycles,
                    "bursts": state.bursts,
                    "recorded_iterations": state.recorded,
                    "verify_failures": state.fails,
                    "signature_restarts": state.restarts,
                    "signature_mismatches": state.sig_mismatches,
                    "divergences": state.divergences,
                    "shadow_memo_hits": state.memo_hits,
                    "shadow_memo_misses": state.memo_misses,
                }
            )
        reports.sort(key=lambda r: r["replayed_cycles"], reverse=True)
        return reports

    @property
    def replayed_cycles(self) -> int:
        return sum(state.replayed_cycles for state in self.loops.values())

    @property
    def replayed_iterations(self) -> int:
        return sum(state.replayed for state in self.loops.values())

    @property
    def bursts(self) -> int:
        return sum(state.bursts for state in self.loops.values())

    @property
    def shadow_memo_hits(self) -> int:
        return sum(state.memo_hits for state in self.loops.values())

    @property
    def shadow_memo_misses(self) -> int:
        return sum(state.memo_misses for state in self.loops.values())
