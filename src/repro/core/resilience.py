"""Fault-tolerant execution: supervised sweeps that finish.

A paper-scale design-space sweep is thousands of independent simulation
points across worker processes, a content-addressed result cache, and
three stacked fast-path engines.  Each of those layers can fail — a
worker segfaults, a point wedges, a cache blob is truncated, a replay
fast-path bug raises — and a single-shot sweep dies at 94% with its
completed work discarded.  This module makes the failure modes
survivable while keeping the numbers *exactly* what a clean serial
reference run would produce:

:class:`FaultReport`
    the ledger: every recovery action (retry, timeout, worker crash,
    pool respawn, serial fallback, engine degradation, cache
    quarantine) is recorded as a :class:`FaultEvent` against the point
    it happened to, so a sweep that healed itself says exactly how.

:func:`supervised_map`
    a worker-pool wrapper with per-point timeouts, bounded
    retry-with-backoff, and ``BrokenProcessPool`` recovery: the pool is
    respawned, in-flight points are requeued, and after repeated pool
    failures the remaining points run serially in-process.  Completed
    siblings are never discarded; points that stay broken after the
    whole ladder of recoveries raise :class:`SweepPointError` *after*
    everything recoverable has finished (and been checkpointed).

:func:`ladder_simulate`
    the engine-degradation ladder: a point that fails under the full
    fast path (the compiled step kernel with idle-skip + steady-state
    replay) is re-run with the interpreted engines, then under
    idle-skip alone, then under the reference cycle-by-cycle loop —
    :data:`~repro.core.scheduler.ENGINE_RUNGS` — recording which rung
    finally produced the result (successes included, so the compiled
    rung's engagement rate is visible in ``--fault-report`` JSON).
    Architectural outcomes
    (:class:`~repro.core.simulator.DeadlockError`,
    :class:`~repro.core.simulator.SimulationTimeout`) are identical on
    every rung and therefore never degraded, only reported.

:class:`SweepCheckpoint`
    a periodic atomic manifest of completed sweep points keyed by the
    simulation cache's content address, so ``repro-sim ... --resume``
    restarts a killed sweep from where it died.

:class:`SweepSupervisor` bundles the knobs for
:func:`repro.core.sweep.run_cache_sweep`; the deterministic fault
injectors live in :mod:`repro.core.faults`.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from pickle import PicklingError
from typing import Callable, Sequence

from ..asm.program import Program
from .config import MachineConfig
from .results import SimulationResult
from .scheduler import ENGINE_RUNGS, rung_kwargs

__all__ = [
    "BreakerBoard",
    "CheckpointLockError",
    "CircuitBreaker",
    "FaultEvent",
    "FaultReport",
    "SweepCheckpoint",
    "SweepPointError",
    "SweepSupervisor",
    "ladder_simulate",
    "retry_backoff",
    "supervised_map",
    "supervised_simulate_many",
]


# ----------------------------------------------------------------------
# The recovery ledger
# ----------------------------------------------------------------------
@dataclass
class FaultEvent:
    """One recovery action taken on behalf of one sweep point."""

    point: str  #: point label (content-key prefix or index)
    kind: str  #: retry | timeout | worker_crash | pool_respawn |
    #: serial_fallback | engine_fault | degraded | cache_quarantine |
    #: gave_up | resumed
    detail: str = ""
    attempt: int = 0
    rung: str | None = None

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "detail": self.detail,
            "attempt": self.attempt,
            "rung": self.rung,
        }

    def __str__(self) -> str:
        parts = [f"[{self.kind}] point {self.point}"]
        if self.attempt:
            parts.append(f"attempt {self.attempt}")
        if self.rung:
            parts.append(f"rung {self.rung}")
        if self.detail:
            parts.append(self.detail)
        return " — ".join(parts)


@dataclass
class FaultReport:
    """Every recovery action taken during one supervised sweep."""

    events: list[FaultEvent] = field(default_factory=list)
    #: points served per engine rung (tallied even on full success, so
    #: the fast paths' engagement rate is observable in ``--fault-report``
    #: JSON); never affects :attr:`clean`
    rungs: dict[str, int] = field(default_factory=dict)

    def tally_rung(self, rung: str) -> None:
        """Count one point served by ``rung`` (success path included)."""
        self.rungs[rung] = self.rungs.get(rung, 0) + 1

    def record(
        self,
        point: str,
        kind: str,
        detail: str = "",
        attempt: int = 0,
        rung: str | None = None,
    ) -> FaultEvent:
        event = FaultEvent(
            point=point, kind=kind, detail=detail, attempt=attempt, rung=rung
        )
        self.events.append(event)
        return event

    def extend(self, events: Sequence[FaultEvent]) -> None:
        self.events.extend(events)

    def counts(self) -> dict[str, int]:
        """Event tally by kind, insertion-ordered."""
        tally: dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    @property
    def clean(self) -> bool:
        return not self.events

    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "counts": self.counts(),
            "rungs": dict(self.rungs),
        }

    def summary(self) -> str:
        """Human-readable report (the CLI prints this after a sweep)."""
        if self.clean:
            lines = ["fault report  : clean (no recovery actions)"]
        else:
            lines = [f"fault report  : {len(self.events)} recovery action(s)"]
            for kind, count in self.counts().items():
                lines.append(f"  {kind:<16} {count}")
            for event in self.events:
                lines.append(f"  {event}")
        if self.rungs:
            served = ", ".join(
                f"{rung}={count}" for rung, count in self.rungs.items()
            )
            lines.append(f"  points by rung : {served}")
        return "\n".join(lines)


class SweepPointError(RuntimeError):
    """Points that stayed broken after every recovery was exhausted.

    Raised only after all *recoverable* points have completed (and been
    delivered through ``on_result``), so a partial sweep's progress is
    preserved in the cache/checkpoint for a ``--resume``.
    """

    def __init__(self, failures: list[tuple[str, BaseException]]):
        self.failures = failures
        detail = "; ".join(
            f"{label}: {type(exc).__name__}: {exc}" for label, exc in failures
        )
        super().__init__(
            f"{len(failures)} sweep point(s) failed permanently: {detail}"
        )


# ----------------------------------------------------------------------
# Retry backoff (decorrelated jitter, seeded-deterministic)
# ----------------------------------------------------------------------
#: default ceiling on one jittered retry delay, as a multiple of ``base``
BACKOFF_CAP_FACTOR = 16.0


def retry_backoff(
    base: float,
    attempt: int,
    key: str,
    cap: float | None = None,
    seed: int | None = None,
) -> float:
    """Decorrelated-jitter delay before retry ``attempt`` of point ``key``.

    A pool respawn hands every interrupted point back at the same
    instant; if they all sleep ``base * attempt`` they all return at the
    same instant too and stampede the fresh pool.  Jitter decorrelates
    them — each point walks its own delay sequence
    ``d(i) = min(cap, base + u * (3 * d(i-1) - base))`` with ``u`` drawn
    per ``(seed, key, i)`` — while staying a *pure function* of its
    inputs: the seed comes from the active fault plan
    (``REPRO_FAULT_PLAN``; 0 when disarmed), so an injected rehearsal
    replays byte-identical timing decisions.  ``base <= 0`` disables
    backoff entirely, as before.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    if cap is None:
        cap = base * BACKOFF_CAP_FACTOR
    from .faults import active_plan, seeded_uniform

    if seed is None:
        plan = active_plan()
        seed = plan.seed if plan is not None else 0
    delay = base
    for step in range(1, attempt + 1):
        u = seeded_uniform(seed, "backoff", key, str(step))
        delay = min(cap, base + u * (3.0 * delay - base))
    return delay


# ----------------------------------------------------------------------
# Circuit breakers (graceful degradation for the service's engine rungs)
# ----------------------------------------------------------------------
class CircuitBreaker:
    """A count-based breaker: closed → open → half-open → closed.

    ``threshold`` consecutive failures open the breaker; after
    ``cooldown`` seconds :meth:`allow` admits exactly one half-open
    probe.  A probe success closes the breaker (failure count reset); a
    probe failure re-opens it and restarts the cooldown.  A probe whose
    outcome never arrives (the worker died before reporting) expires
    after another ``cooldown``, so the breaker cannot wedge half-open.

    The clock is injectable for tests; all methods are synchronous and
    expected to run on one event loop (no internal locking).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probe_started: float | None = None
        #: lifetime transition tally (observability)
        self.opened_count = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probe_started is not None:
            return "half-open"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"  # next allow() takes the probe token
        return "open"

    def allow(self) -> bool:
        """May the caller run the protected path right now?

        In the half-open window this hands out a single probe token;
        concurrent callers see ``False`` until the probe settles (or
        expires after ``cooldown``).
        """
        if self._opened_at is None:
            return True
        now = self._clock()
        if self._probe_started is not None:
            if now - self._probe_started >= self.cooldown:
                self._probe_started = now  # lost probe: hand out another
                return True
            return False
        if now - self._opened_at >= self.cooldown:
            self._probe_started = now
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probe_started = None

    def record_failure(self) -> None:
        if self._opened_at is not None:
            # A failed half-open probe (or a straggler from before the
            # open): re-open and restart the cooldown.
            self._opened_at = self._clock()
            self._probe_started = None
            return
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = self._clock()
            self._probe_started = None
            self.opened_count += 1

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._failures,
            "opened_count": self.opened_count,
        }


class BreakerBoard:
    """One :class:`CircuitBreaker` per *degradable* engine rung.

    The last rung (the reference loop) has no breaker: it is the floor
    that produces ground truth and must always be available, so
    :meth:`effective_rungs` never returns an empty ladder.  Feed the
    board with :meth:`observe` after each point: ``engine_fault`` events
    count against their rung, the rung that finally served the point
    counts as its success (closing a half-open breaker).
    """

    def __init__(
        self,
        rungs: Sequence[str] = ENGINE_RUNGS,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rungs = tuple(rungs)
        if not self.rungs:
            raise ValueError("a breaker board needs at least one rung")
        self.breakers = {
            rung: CircuitBreaker(threshold, cooldown, clock)
            for rung in self.rungs[:-1]
        }

    def effective_rungs(self) -> tuple[str, ...]:
        """The ladder a new point should run, open breakers skipped."""
        allowed = [
            rung for rung in self.rungs[:-1] if self.breakers[rung].allow()
        ]
        allowed.append(self.rungs[-1])
        return tuple(allowed)

    def observe(
        self, served_rung: str | None, events: Sequence[FaultEvent] = ()
    ) -> None:
        """Settle one point's outcome into the per-rung breakers."""
        for event in events:
            if event.kind == "engine_fault" and event.rung in self.breakers:
                self.breakers[event.rung].record_failure()
        if served_rung in self.breakers:
            self.breakers[served_rung].record_success()

    def to_dict(self) -> dict:
        return {rung: breaker.to_dict() for rung, breaker in self.breakers.items()}


# ----------------------------------------------------------------------
# The engine-degradation ladder
# ----------------------------------------------------------------------
def ladder_simulate(
    config: MachineConfig,
    program: Program,
    report: FaultReport | None = None,
    point: str = "?",
    traced: bool = False,
    trace_path=None,
    rungs: Sequence[str] | None = None,
) -> tuple[SimulationResult, str]:
    """Simulate one point, degrading engines instead of crashing.

    Tries each rung of ``rungs`` (default: the full
    :data:`~repro.core.scheduler.ENGINE_RUNGS` ladder) in order; any
    exception from a fast-path engine moves one rung down and is
    recorded in ``report``.  Returns ``(result, rung)`` with the rung
    that produced the result — byte-identical across rungs, so a
    degraded point is indistinguishable in the numbers.  A restricted
    ``rungs`` list (the service passes its circuit-breaker board's
    surviving rungs) must be a subset of the ladder in ladder order;
    its last entry is the rung whose failure propagates.

    :class:`~repro.core.simulator.DeadlockError` and
    :class:`~repro.core.simulator.SimulationTimeout` are *architectural*
    outcomes (the same on every rung, with true cycle counts) and
    propagate immediately; so does a last-rung failure, which no
    ladder can fix.
    """
    from .faults import maybe_trip_rung
    from .simulator import (  # late: the simulator is heavy
        DeadlockError,
        SimulationTimeout,
        simulate,
        simulate_traced,
    )

    if rungs is None:
        ladder = ENGINE_RUNGS
    else:
        ladder = tuple(rungs)
        unknown = [rung for rung in ladder if rung not in ENGINE_RUNGS]
        if not ladder or unknown:
            raise ValueError(
                f"invalid engine ladder {ladder!r}; rungs must be a "
                f"non-empty subset of {ENGINE_RUNGS}"
            )
    last_exc: BaseException | None = None
    for index, rung in enumerate(ladder):
        kwargs = rung_kwargs(rung)
        try:
            maybe_trip_rung(rung, point)
            if traced:
                result = simulate_traced(
                    config, program, trace_path=trace_path, **kwargs
                )
            else:
                result = simulate(config, program, **kwargs)
        except (DeadlockError, SimulationTimeout):
            raise  # engine-independent architectural outcome
        except Exception as exc:  # noqa: BLE001 — the ladder exists for these
            last_exc = exc
            if report is not None:
                report.record(
                    point,
                    "engine_fault",
                    detail=f"{type(exc).__name__}: {exc}",
                    rung=rung,
                )
            if index == len(ladder) - 1:
                raise  # the last rung itself failed: nothing below it
            continue
        if index > 0 and report is not None:
            report.record(
                point,
                "degraded",
                detail=f"fast path failed ({type(last_exc).__name__}), "
                f"result produced by the {rung} engine",
                rung=rung,
            )
        if report is not None:
            report.tally_rung(rung)
        return result, rung
    raise AssertionError("unreachable: every rung either returned or raised")


# ----------------------------------------------------------------------
# The supervised worker pool
# ----------------------------------------------------------------------
#: consecutive pool deaths (crash or hang) tolerated before the
#: supervisor abandons worker processes and finishes serially
POOL_FAILURE_LIMIT = 4

#: exceptions that mean "the pool is unusable", not "the point failed"
_POOL_ERRORS = (BrokenExecutor, OSError, ImportError, PicklingError)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are wedged.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    forever; terminating the processes first (a CPython implementation
    detail, guarded accordingly) actually frees the machine.
    """
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # noqa: BLE001 — best effort on internals
        pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001
        pass


def supervised_map(
    fn: Callable,
    items: Sequence,
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
    report: FaultReport | None = None,
    labels: Sequence[str] | None = None,
    no_retry: tuple[type[BaseException], ...] = (),
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """``[fn(item) for item in items]`` under a fault supervisor.

    The one worker pool of batch runs (the job service keeps its own
    async pool).  Results come back in input order, the serial path is
    taken for ``jobs <= 1``, and failures are *handled* instead of
    propagated:

    * an exception from ``fn`` retries the point up to ``max_retries``
      times with decorrelated-jitter backoff (:func:`retry_backoff`:
      per-point delays, so simultaneous retries after a pool respawn
      don't stampede the fresh pool in lockstep; ``no_retry`` types
      fail immediately: deterministic outcomes gain nothing from a
      retry);
    * a worker crash (``BrokenProcessPool``) respawns the pool and
      requeues every in-flight point, charging an attempt only to
      points the crash interrupted;
    * a point running past ``timeout`` seconds is charged an attempt
      and the pool is respawned (a wedged worker cannot be cancelled,
      only killed); other in-flight points are requeued for free;
    * after :data:`POOL_FAILURE_LIMIT` consecutive pool deaths without
      a single completed point in between, the remaining points run
      serially in this process (where a timeout is unenforceable but
      every other recovery still applies).

    Every recovery is recorded in ``report``; ``on_result(index,
    value)`` fires as each point completes (checkpoint hook).  Points
    still failing after all that raise :class:`SweepPointError` at the
    end — after every recoverable point has completed.  An unsupervised
    run is ``max_retries=0, backoff=0`` with no timeout: a failing point
    then raises the same :class:`SweepPointError`, its original
    exception kept in ``failures``.
    """
    from .parallel import resolve_jobs

    items = list(items)
    count = len(items)
    if labels is None:
        labels = [str(index) for index in range(count)]
    if report is None:
        report = FaultReport()
    results: dict[int, object] = {}
    failed: dict[int, BaseException] = {}
    attempts = [0] * count

    def deliver(index: int, value) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def charge(index: int, exc: BaseException, kind: str, detail: str) -> bool:
        """Record a failed attempt; True if the point may retry."""
        attempts[index] += 1
        report.record(
            labels[index], kind, detail=detail, attempt=attempts[index]
        )
        retryable = not isinstance(exc, no_retry)
        if retryable and attempts[index] <= max_retries:
            return True
        failed[index] = exc
        report.record(
            labels[index],
            "gave_up",
            detail=f"{type(exc).__name__}: {exc}",
            attempt=attempts[index],
        )
        return False

    def run_serial(indices) -> None:
        for index in indices:
            if index in results or index in failed:
                continue
            while True:
                try:
                    value = fn(items[index])
                except Exception as exc:  # noqa: BLE001 — supervisor boundary
                    if charge(
                        index,
                        exc,
                        "retry",
                        f"{type(exc).__name__}: {exc}",
                    ):
                        if backoff:
                            time.sleep(
                                retry_backoff(
                                    backoff, attempts[index], labels[index]
                                )
                            )
                        continue
                    break
                else:
                    deliver(index, value)
                    break

    jobs = min(resolve_jobs(jobs), count)
    if jobs <= 1:
        if initializer is not None:
            initializer(*initargs)
        run_serial(range(count))
    else:
        pending: deque[int] = deque(range(count))
        in_flight: dict = {}  # future -> index
        deadlines: dict = {}  # future -> monotonic deadline
        pool: ProcessPoolExecutor | None = None
        pool_failures = 0

        def serial_fallback() -> None:
            # So far the initializer has only run inside pool workers;
            # this process needs it before it can execute points itself.
            if initializer is not None:
                initializer(*initargs)
            run_serial(range(count))

        def respawn(reason: str) -> bool:
            """Kill the pool, requeue in-flight work; False → go serial."""
            nonlocal pool, pool_failures
            for future, index in in_flight.items():
                if (
                    index not in results
                    and index not in failed
                    and index not in pending
                ):
                    pending.append(index)
            in_flight.clear()
            deadlines.clear()
            if pool is not None:
                _kill_pool(pool)
                pool = None
            pool_failures += 1
            if pool_failures >= POOL_FAILURE_LIMIT:
                report.record(
                    "pool",
                    "serial_fallback",
                    detail=f"{pool_failures} pool failures ({reason}); "
                    "finishing the sweep serially",
                )
                return False
            report.record(
                "pool", "pool_respawn", detail=reason, attempt=pool_failures
            )
            return True

        try:
            while pending or in_flight:
                if pool is None:
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=jobs,
                            initializer=initializer,
                            initargs=initargs,
                        )
                    except _POOL_ERRORS as exc:
                        report.record(
                            "pool",
                            "serial_fallback",
                            detail=f"cannot spawn workers "
                            f"({type(exc).__name__}: {exc})",
                        )
                        break
                # Keep at most `jobs` points in flight so submission
                # time approximates start time and per-point deadlines
                # mean what they say.
                while pending and len(in_flight) < jobs:
                    index = pending.popleft()
                    if index in results or index in failed:
                        continue
                    try:
                        future = pool.submit(fn, items[index])
                    except _POOL_ERRORS as exc:
                        pending.appendleft(index)
                        if not respawn(
                            f"submit failed ({type(exc).__name__})"
                        ):
                            raise _GoSerial from None
                        break
                    in_flight[future] = index
                    if timeout is not None:
                        deadlines[future] = time.monotonic() + timeout
                if pool is None or not in_flight:
                    continue
                wait_for = None
                if deadlines:
                    wait_for = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                done, _ = wait(
                    set(in_flight), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Deadline expiry: charge the overdue points, then
                    # kill the pool — a running task cannot be
                    # cancelled, and a wedged worker never returns.
                    now = time.monotonic()
                    expired = [
                        (future, index)
                        for future, index in in_flight.items()
                        if deadlines.get(future, now + 1) <= now
                    ]
                    if not expired:
                        continue  # spurious wakeup
                    for future, index in expired:
                        in_flight.pop(future, None)
                        deadlines.pop(future, None)
                        if charge(
                            index,
                            TimeoutError(f"no result after {timeout:g}s"),
                            "timeout",
                            f"point exceeded --timeout {timeout:g}s",
                        ):
                            pending.append(index)
                    if not respawn("hung worker killed after point timeout"):
                        raise _GoSerial
                    continue
                broken = False
                for future in done:
                    index = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        value = future.result()
                    except _POOL_ERRORS as exc:
                        broken = True
                        if charge(
                            index,
                            exc,
                            "worker_crash",
                            f"worker died ({type(exc).__name__}: {exc})",
                        ):
                            pending.append(index)
                    except Exception as exc:  # noqa: BLE001
                        if charge(
                            index, exc, "retry", f"{type(exc).__name__}: {exc}"
                        ):
                            if backoff:
                                time.sleep(
                                    retry_backoff(
                                        backoff, attempts[index], labels[index]
                                    )
                                )
                            pending.append(index)
                    else:
                        deliver(index, value)
                        # Progress resets the failure budget: the limit
                        # guards against a pool that *cannot* make
                        # progress, not against many recoverable deaths
                        # spread across a long sweep.
                        pool_failures = 0
                if broken and not respawn("worker process died mid-point"):
                    raise _GoSerial
        except _GoSerial:
            serial_fallback()
        finally:
            if pool is not None:
                _kill_pool(pool)
        # Pool path exhausted with a spawn failure: finish serially.
        if len(results) + len(failed) < count:
            serial_fallback()

    if failed:
        raise SweepPointError(
            [(labels[index], exc) for index, exc in sorted(failed.items())]
        )
    return [results[index] for index in range(count)]


class _GoSerial(Exception):
    """Internal: abandon worker pools and finish the map serially."""


# ----------------------------------------------------------------------
# Supervised simulation fan-out (ladder inside every worker)
# ----------------------------------------------------------------------
def _supervised_point(task: tuple[str, MachineConfig]):
    """Worker body: injectors first, then the full degradation ladder."""
    from . import parallel
    from .faults import maybe_hang_point, maybe_kill_worker

    key, config = task
    maybe_kill_worker(key)
    maybe_hang_point(key)
    program = parallel._worker_program
    assert program is not None, "worker initialized without a program"
    report = FaultReport()
    result, rung = ladder_simulate(config, program, report=report, point=key[:12])
    return result, rung, report.events


def _supervised_batch(task: Sequence[tuple[str, dict]]):
    """Worker body for one affinity batch of ``(key, config fields)``.

    Each point runs injectors + the degradation ladder exactly as
    :func:`_supervised_point` does, but outcomes are captured *per
    point*: an in-process exception (a deadlock, a timeout result, a
    reference-rung bug) becomes that point's outcome entry instead of
    failing its batch siblings.  Only process-level faults — a kill
    injector, a hang past the batch deadline, a real crash — surface as
    batch-level failures, which the supervisor retries as a whole
    (the once-only injector markers make that converge).  Returns the
    outcome list plus this worker's pid-tagged codegen-stat delta.
    """
    from . import parallel
    from .compiled import (
        compile_stats,
        compile_stats_delta,
        flush_codegen_artifacts,
    )
    from .faults import maybe_hang_point, maybe_kill_worker

    program = parallel._worker_program
    assert program is not None, "worker initialized without a program"
    baseline = compile_stats()
    outcomes = []
    for key, fields in task:
        config = MachineConfig.from_dict(fields)
        maybe_kill_worker(key)
        maybe_hang_point(key)
        report = FaultReport()
        try:
            result, rung = ladder_simulate(
                config, program, report=report, point=key[:12]
            )
        except Exception as exc:  # noqa: BLE001 — per-point boundary
            outcomes.append((key, None, None, report.events, exc))
        else:
            outcomes.append((key, result, rung, report.events, None))
    flush_codegen_artifacts()
    return outcomes, compile_stats_delta(baseline)


def supervised_simulate_many(
    program: Program,
    configs: Sequence[MachineConfig],
    *,
    keys: Sequence[str] | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
    report: FaultReport | None = None,
    on_result: Callable[[int, SimulationResult], None] | None = None,
) -> list[SimulationResult]:
    """Simulate every config against ``program``: the one fan-out path.

    Every point runs the engine-degradation ladder inside its worker;
    rung degradations recorded there are merged into ``report``.
    Multi-worker runs ship points in config-affinity batches
    (:func:`~repro.core.parallel.affinity_batches`); serial runs take
    them one at a time in this process.  Results come back in
    ``configs`` order, byte-identical to a clean serial reference run.
    Unsupervised callers pass ``max_retries=0, backoff=0``.
    """
    from .parallel import (
        _init_simulation_worker,
        affinity_batches,
        config_affinity_key,
        resolve_jobs,
    )
    from .simcache import sweep_point_keys
    from .simulator import DeadlockError, SimulationTimeout

    configs = list(configs)
    if keys is None:
        keys = sweep_point_keys(program, configs)
    if report is None:
        report = FaultReport()

    delivered: dict[int, SimulationResult] = {}

    def merge_point(index: int, value) -> None:
        result, rung, events = value
        report.extend(events)
        # The worker-local report is discarded, so its rung tally
        # (including the success-path count) is re-recorded here —
        # exactly once per delivered point.
        report.tally_rung(rung)
        delivered[index] = result
        if on_result is not None:
            on_result(index, result)

    effective_jobs = min(resolve_jobs(jobs), len(configs))
    if effective_jobs > 1:
        # Phase 1: affinity batches.  One IPC round carries a batch of
        # points from one kernel family; per-point outcomes come back
        # individually (exceptions included), so retry granularity and
        # the fault ledger stay per-point.  Points a batch could not
        # deliver — a point that raised, a batch whose worker died past
        # the retry budget — fall through to the per-point phase below,
        # which owns the no-retry policy for architectural outcomes.
        from .compiled import record_worker_stats

        batches = affinity_batches(
            [config_affinity_key(config) for config in configs],
            effective_jobs,
        )
        tasks = [
            [(keys[index], configs[index].to_dict()) for index in batch]
            for batch in batches
        ]
        labels = [
            f"{keys[batch[0]][:12]}[x{len(batch)}]" for batch in batches
        ]
        # Fleet warmup: one published kernel artifact per family before
        # the pool spawns (no-op without the persistent store).
        from .compiled import prime_codegen_artifacts

        prime_codegen_artifacts(
            program, [configs[batch[0]] for batch in batches]
        )
        batch_timeout = (
            timeout * max(len(batch) for batch in batches)
            if timeout is not None
            else None
        )

        def merge_batch(position: int, value) -> None:
            outcomes, delta = value
            record_worker_stats(delta)
            for offset, (_key, result, rung, events, exc) in enumerate(outcomes):
                index = batches[position][offset]
                report.extend(events)
                if exc is not None:
                    continue  # re-resolved by the per-point phase
                report.tally_rung(rung)
                delivered[index] = result
                if on_result is not None:
                    on_result(index, result)

        try:
            supervised_map(
                _supervised_batch,
                tasks,
                jobs=jobs,
                timeout=batch_timeout,
                max_retries=max_retries,
                backoff=backoff,
                report=report,
                labels=labels,
                no_retry=(),  # batch failures are process-level: retryable
                initializer=_init_simulation_worker,
                initargs=(program,),
                on_result=merge_batch,
            )
        except SweepPointError:
            # A batch that stayed broken is not a verdict on its points:
            # each one gets an individual hearing below.
            pass

    # Phase 2 (and the whole story for serial runs):
    # every undelivered point as its own supervised task.
    leftovers = [
        index for index in range(len(configs)) if index not in delivered
    ]
    if leftovers:
        supervised_map(
            _supervised_point,
            [(keys[index], configs[index]) for index in leftovers],
            jobs=jobs,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            report=report,
            labels=[keys[index][:12] for index in leftovers],
            no_retry=(DeadlockError, SimulationTimeout),
            initializer=_init_simulation_worker,
            initargs=(program,),
            on_result=lambda position, value: merge_point(
                leftovers[position], value
            ),
        )
    return [delivered[index] for index in range(len(configs))]


# ----------------------------------------------------------------------
# Sweep checkpoint / resume
# ----------------------------------------------------------------------
class CheckpointLockError(RuntimeError):
    """Another live process holds the checkpoint manifest's lock."""


class SweepCheckpoint:
    """Atomic manifest of completed sweep points, for ``--resume``.

    Entries are keyed by the simulation cache's content address (which
    folds in the program image, every config field, the cache format
    and the engine revision), so a stale manifest can never satisfy a
    changed sweep — unmatched entries are simply ignored.  Writes go to
    a temp sibling and are published with ``os.replace``, every
    ``interval`` completions and at :meth:`flush`.

    **Exclusive lock.**  ``os.replace`` makes each individual publish
    atomic, but two ``--resume`` runs writing the same manifest would
    still interleave *whole* publishes and silently drop each other's
    points (last writer wins).  :meth:`acquire` takes an exclusive
    lockfile (``<manifest>.lock``, claimed with ``O_CREAT | O_EXCL``)
    before the manifest is read or written; a second run fails fast
    with :class:`CheckpointLockError` naming the holder instead of
    corrupting progress.  A lock left by a dead process (the pid inside
    no longer exists) is broken automatically — a crashed sweep must
    not brick its own resume.  The supervised sweep path and the job
    service acquire the lock for you; direct users can treat the
    checkpoint as a context manager.
    """

    MANIFEST_VERSION = 1

    def __init__(self, path: str | os.PathLike, interval: int = 8):
        self.path = Path(path)
        self.interval = max(1, int(interval))
        self._points: dict[str, dict] = {}
        self._dirty = 0
        self._lock_fd: int | None = None

    # ------------------------------------------------------------------
    # Exclusive lock (one live writer per manifest)
    # ------------------------------------------------------------------
    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError):
            return True  # exists but isn't ours — still alive
        return True

    def acquire(self) -> "SweepCheckpoint":
        """Take the manifest's exclusive lock (idempotent per instance).

        Raises :class:`CheckpointLockError` if a *live* process holds
        it; a stale lock (dead pid, or unreadable contents) is broken
        and re-claimed.
        """
        if self._lock_fd is not None:
            return self  # already ours
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _attempt in range(16):
            try:
                fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    holder = int(self.lock_path.read_text().strip())
                except (OSError, ValueError):
                    holder = None  # torn write or vanished: treat as stale
                if (
                    holder is not None
                    and holder != os.getpid()  # our own earlier claim
                    and self._pid_alive(holder)
                ):
                    raise CheckpointLockError(
                        f"checkpoint {self.path} is locked by running "
                        f"process {holder} ({self.lock_path})"
                    )
                # Stale: break it and race for the claim again.  Only
                # one of several breakers wins the O_EXCL create.
                try:
                    self.lock_path.unlink()
                except OSError:
                    pass
                continue
            os.write(fd, str(os.getpid()).encode())
            self._lock_fd = fd
            return self
        raise CheckpointLockError(
            f"could not claim {self.lock_path} after repeated stale-lock "
            "breaks (another process keeps re-claiming it)"
        )

    def release(self) -> None:
        """Drop the lock (no-op when not held by this instance)."""
        if self._lock_fd is None:
            return
        try:
            os.close(self._lock_fd)
        except OSError:
            pass
        self._lock_fd = None
        try:
            self.lock_path.unlink()
        except OSError:
            pass

    @property
    def locked(self) -> bool:
        return self._lock_fd is not None

    def __enter__(self) -> "SweepCheckpoint":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def load(self) -> int:
        """Read the manifest; a missing/corrupt one starts empty."""
        try:
            payload = json.loads(self.path.read_text())
            points = payload["points"]
            if payload.get("version") != self.MANIFEST_VERSION or not isinstance(
                points, dict
            ):
                raise ValueError("unrecognized checkpoint manifest")
        except (OSError, ValueError, KeyError, TypeError):
            self._points = {}
            return 0
        self._points = points
        return len(points)

    def get(self, key: str) -> SimulationResult | None:
        """A completed point's result, or ``None`` (bad entries ignored)."""
        payload = self._points.get(key)
        if payload is None:
            return None
        try:
            return SimulationResult.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            self._points.pop(key, None)
            return None

    def add(self, key: str, result: SimulationResult) -> None:
        self._points[key] = result.to_dict()
        self._dirty += 1
        if self._dirty >= self.interval:
            self.flush()

    def flush(self) -> None:
        """Publish the manifest atomically (temp file + ``os.replace``)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": self.MANIFEST_VERSION, "points": self._points}
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        # Canonical key order: manifests written under different point
        # scheduling (affinity batches vs serial) compare
        # byte-identical once they hold the same completed points.
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = 0

    def __len__(self) -> int:
        return len(self._points)


# ----------------------------------------------------------------------
# The bundle run_cache_sweep consumes
# ----------------------------------------------------------------------
@dataclass
class SweepSupervisor:
    """Fault-tolerance knobs for one supervised sweep.

    Passed to :func:`repro.core.sweep.run_cache_sweep` (or
    :func:`~repro.core.sweep.resolve_points`), which routes the misses
    through :func:`supervised_simulate_many`, records
    cache quarantines into :attr:`report`, checkpoints completions into
    :attr:`checkpoint`, and — with :attr:`resume` — pre-resolves points
    the manifest already holds (counted in :attr:`resumed`).
    """

    jobs: int | None = None
    timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.25
    report: FaultReport = field(default_factory=FaultReport)
    checkpoint: SweepCheckpoint | None = None
    resume: bool = False
    resumed: int = 0  #: points satisfied from the manifest this run

    def simulate_points(
        self,
        program: Program,
        configs: Sequence[MachineConfig],
        keys: Sequence[str],
        on_result: Callable[[int, SimulationResult], None] | None = None,
    ) -> list[SimulationResult]:
        return supervised_simulate_many(
            program,
            configs,
            keys=keys,
            jobs=self.jobs,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
            report=self.report,
            on_result=on_result,
        )
