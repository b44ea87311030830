#!/usr/bin/env python3
"""The repository benchmark: host time of sweeps, fuzzing and the job service.

One run, from the root of a checkout::

    python3 perfbench/run.py --workload livermore-sweep --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` gives the reason for each):

``livermore-sweep``
    cold, serial ``run_cache_sweep`` over the paper's five strategies and
    five cache sizes (headline panel), 14-loop program at scale 1.0 with
    seeded array data, empty result cache and empty codegen store.
``fuzz``
    ``run_fuzz`` over seeded generated programs, default budget.
``serve-mixed``
    ``repro-sim serve`` (scale 0.25, two pool workers, result cache
    prefilled during set-up) under a closed loop of two clients.  Every
    point is asked for three times, the duplicate rate of the scripted
    session in ``examples/service_session.py``: one request simulates,
    one joins it while in flight (coalesced), one is a cache hit.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` repeats the
workload with spans and counters recorded around the calls into each
layer and prints the per-layer metrics: counters, self times, the
tracing overhead and, on ``livermore-sweep``, the rung ablation.  The
last line of standard output is the JSON result; the line before it is
the run record (commit, host, workload, seed, and every metric with its
unit and sample count, including the workload's own throughput and
latency figures).

Every result is checked: sweep results and served payloads against the
checksums in ``perfbench/reference.json``, fuzz cases against the fuzz
harness's own differential checks.  Any mismatch makes ``correct`` false
and the exit code 1.

Steadiness report (runs the workload as child processes)::

    python3 perfbench/run.py --workload fuzz --repeat 10
    python3 perfbench/run.py --workload fuzz --repeat 10 --baseline ../parent

The first form prints each metric's median, quartiles and spread.  The
second alternates this checkout with another one (same benchmark code,
the other checkout's ``src``), and also prints the share of pairs won
and whether a gain may be claimed: wins in at least nine tenths of the
pairs and a median difference larger than the baseline's quartile
spread.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import grid  # noqa: E402
from spans import Recorder  # noqa: E402

WORKLOADS = ("livermore-sweep", "fuzz", "serve-mixed")

#: load generation and the service pool use at most two processes or
#: threads, the size of the host the bounds were set on
JOBS = 2
#: set-up is repeated this many times per run and its median reported;
#: a service start with its prefill takes seconds, the other set-ups
#: tenths of a second with quartiles ~25% apart over three repeats
SETUP_REPEATS = {"livermore-sweep": 9, "fuzz": 9, "serve-mixed": 3}
#: serve-mixed: requests per point, so 2 of 3 requests are duplicates as
#: in the scripted session of examples/service_session.py
REPEATS = 3
#: fuzz start seeds are this far apart so that runs never share cases
FUZZ_SEED_STRIDE = 100_000

#: rung ablation: Simulator keyword arguments and escape-hatch variables,
#: slowest variant first
ABLATION = {
    "reference": ({"skip": False, "replay": False, "compiled": False}, {}),
    "no_replay": ({"replay": False}, {}),
    "no_inline_frontend": ({}, {"REPRO_NO_INLINE_FRONTEND": "1"}),
    "no_specialize_dispatch": ({}, {"REPRO_NO_SPECIALIZE_DISPATCH": "1"}),
    "no_compiled": ({"compiled": False}, {}),
    "all_on": ({}, {}),
}

#: fuzz engine tags by (skip, replay, compiled), as in repro.core.fuzz.ENGINES
RUNG_TAGS = {
    (False, False, False): "reference",
    (True, False, False): "idle-skip",
    (True, True, False): "skip-replay",
    (True, True, True): "compiled",
}

#: compile_stats keys summed into each compiled.* counter
COMPILE_COUNTERS = {
    "compiled.codegen_s": ("codegen_seconds",),
    "compiled.kernel_compiles": ("compiles",),
    "compiled.kernel_cache_hits": ("kernel_cache_hits",),
    "compiled.dispatch_handler_compiles": ("dispatch_handler_compiles",),
    "compiled.disk_hits": ("disk_kernel_hits", "disk_handler_hits"),
    "compiled.disk_stores": ("disk_kernel_stores", "disk_handler_stores"),
}

SELF_LAYERS = (
    "sweep",
    "simcache",
    "simulator",
    "compiled",
    "kernels",
    "functional",
    "trace",
    "fuzz",
    "client",
    "service",
)

TAIL_PERCENTILES = (75, 90, 95, 99, 99.9)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    chosen = 50
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            chosen = p
    if chosen == 50:
        return 50, statistics.median(values)
    return chosen, percentile(values, chosen)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run: inputs, checks, metrics, spans."""

    def __init__(self, args: argparse.Namespace, root: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.root = root
        self.work = root / ".bench_work" / f"{self.workload}-{os.getpid()}"
        self.reference = json.loads((HERE / "reference.json").read_text())
        #: set by :meth:`start_tracing` when the traced pass begins; the
        #: untraced pass of a traced run records nothing
        self.recorder: Recorder | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: name -> {"value", "unit", "samples", ...}
        self.metrics: dict[str, dict] = {}

    # environment shared by this process and every child it starts
    def env(self, cache_dir: Path | None = None, **extra: str) -> dict:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return dict(
            os.environ,
            PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}",
            REPRO_CACHE_DIR=str(cache_dir or self.work / "cache"),
            TMPDIR=str(self.work / "tmp"),
            **extra,
        )

    def metric(self, name: str, value: float, unit: str, samples: int = 1, **extra) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples, **extra}

    def latency(self, name: str, seconds: list[float]) -> None:
        """``<name>_p50_ms`` and ``<name>_tail_ms`` from latency samples."""
        ms = [s * 1000 for s in seconds] or [0.0]
        self.metric(f"{name}_p50_ms", statistics.median(ms), "ms", len(seconds))
        p, value = tail(ms)
        self.metric(f"{name}_tail_ms", value, "ms", len(seconds), percentile=p)

    def check(self, table: str, name: str, checksum: str | None) -> None:
        self.attempted += 1
        expected = self.reference[table]["points"][name]["checksum"]
        if checksum != expected:
            self.fail(f"{name}: checksum {str(checksum)[:12]} != reference {expected[:12]}")

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def setup_probe(self, code: str) -> float:
        """Seconds for a fresh interpreter to run ``code`` (the set-up).

        Waits without a timeout: a timed wait polls in steps of up to
        50 ms, which would show in a set-up of a few tenths of a second.
        """
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=self.root, env=self.env()) as child:
            status = child.wait()
        if status != 0:
            raise RuntimeError(f"set-up probe exited with {status}")
        return time.perf_counter() - start

    def throughput(self, instructions: int, elapsed: float, samples: int) -> None:
        """Simulated instructions per host second."""
        self.metric("sim_minstr_per_s", instructions / elapsed / 1e6, "Minstr/s", samples)

    def setup(self, samples: list[float]) -> None:
        self.metric("setup_s", statistics.median(samples), "s", len(samples))

    def start_tracing(self) -> None:
        self.recorder = Recorder()

    def span(self, name: str, **attrs):
        if self.recorder is None:
            return nullcontext({})
        return self.recorder.span(name, **attrs)

    def count(self, name: str, value: float = 1) -> None:
        if self.recorder is not None:
            self.recorder.count(name, value)


def cold_codegen(run: Run, tag: str) -> Path:
    """Point the codegen store at a new empty directory and drop every
    in-process compiled kernel, so the next pass pays codegen afresh."""
    from repro.core.compiled import clear_compile_cache
    from repro.core.simcache import CACHE_DIR_ENV

    root = run.work / tag
    os.environ[CACHE_DIR_ENV] = str(root)
    clear_compile_cache()
    return root


def record_replay(run: Run, controller, cycles: int) -> None:
    """Replay counters of one run, read from ``Simulator.replay_controller``."""
    if controller is None:
        return
    run.count("replay.cycles_seen", cycles)
    run.count("replay.replayed_cycles", controller.replayed_cycles)
    for report in controller.loop_reports():
        run.count("replay.replayed_iterations", report["replayed_iterations"])
        run.count("replay.divergences", report["divergences"])
        run.count("replay.verify_failures", report["verify_failures"])
        run.count("replay.signature_restarts", report["signature_restarts"])


def simulator_spans(run: Run) -> ExitStack:
    """Spans around ``Simulator.run``, the ``SimulationCache`` calls and
    the codegen flush, for whatever public entry point runs inside.

    Each ``Simulator.run`` span records the run's counters, its replay
    counters (from ``Simulator.replay_controller``), the ``compile_stats``
    delta, a ``compiled.codegen`` child span of the codegen seconds, and
    the engine rung the simulator was built for.
    """
    from repro.core import compiled
    from repro.core.simcache import SimulationCache
    from repro.core.simulator import Simulator

    recorder = run.recorder

    def before_run(span, args, kwargs) -> dict:
        sim = args[0]
        span["rung"] = RUNG_TAGS.get((sim.skip, sim.replay_enabled, sim.compiled_enabled), "other")
        return compiled.compile_stats()

    def after_run(span, before: dict, result, args) -> None:
        now = compiled.compile_stats()
        recorder.add_child("compiled.codegen", span["start"], now["codegen_seconds"] - before["codegen_seconds"])
        seconds = time.perf_counter() - span["start"]
        run.count("simulator.runs")
        run.count("simulator.run_s", seconds)
        run.count(f"simulator.rung.{span['rung']}_s", seconds)
        run.count("simulator.sim_cycles", result.cycles)
        run.count("simulator.sim_instructions", result.instructions)
        record_replay(run, args[0].replay_controller, result.cycles)
        for name, keys in COMPILE_COUNTERS.items():
            run.count(name, sum(now.get(k, 0) - before.get(k, 0) for k in keys))

    stack = ExitStack()
    stack.enter_context(recorder.wrapped(Simulator, "run", "simulator.run", before=before_run, after=after_run))
    stack.enter_context(recorder.wrapped(SimulationCache, "lookup", "simcache.lookup"))
    stack.enter_context(recorder.wrapped(SimulationCache, "store", "simcache.store"))
    stack.enter_context(recorder.wrapped(compiled, "flush_codegen_artifacts", "compiled.flush"))
    return stack


# ----------------------------------------------------------------------
# livermore-sweep
# ----------------------------------------------------------------------
def livermore_sweep(run: Run) -> tuple[float, float]:
    """Returns the seconds of one strategy's row, untraced and traced."""
    from repro.core.config import PAPER_CACHE_SIZES
    from repro.core.simcache import SimulationCache
    from repro.core.sweep import run_cache_sweep, standard_strategies
    from repro.kernels.suite import build_livermore_suite

    probe = (
        "from repro.core.sweep import run_cache_sweep\n"
        "from repro.core.simcache import SimulationCache\n"
        "from repro.kernels.suite import build_livermore_suite\n"
        f"build_livermore_suite(scale={grid.LIVERMORE_SCALE}, seed={run.seed})\n"
    )
    run.setup([run.setup_probe(probe) for _ in range(SETUP_REPEATS[run.workload])])
    program = build_livermore_suite(scale=grid.LIVERMORE_SCALE, seed=run.seed).program
    panel = grid.HEADLINE_PANEL

    def cold_cache(tag: str) -> SimulationCache:
        """An empty result cache whose root also holds the codegen store."""
        return SimulationCache(cold_codegen(run, tag))

    def sweep(cache: SimulationCache, labels) -> tuple[list, float]:
        """One serial ``run_cache_sweep`` of the given strategies; returns
        the checked ``(point name, result)`` list and its seconds."""
        strategies = {label: f for label, f in standard_strategies().items() if label in labels}
        start = time.perf_counter()
        with run.span("sweep", strategies=list(labels)):
            series = run_cache_sweep(
                program,
                PAPER_CACHE_SIZES,
                strategies,
                jobs=1,
                cache=cache,
                **grid.panel_overrides(panel),
            )
        seconds = time.perf_counter() - start
        results = [
            (grid.point_name(s.label, size, panel), result)
            for s in series
            for size, result in zip(s.cache_sizes, s.results)
        ]
        for name, result in results:
            run.check("livermore-sweep", name, result.checksum())
        return results, seconds

    labels = list(standard_strategies())
    if not run.traced:
        elapsed = instructions = sweeps = points = 0
        while sweeps == 0 or elapsed < run.seconds:
            results, seconds = sweep(cold_cache(f"sweep-{sweeps}"), labels)
            elapsed += seconds
            sweeps += 1
            points += len(results)
            instructions += sum(result.instructions for _, result in results)
        run.throughput(instructions, elapsed, sweeps)
        run.metric("sweep.points_per_s", points / elapsed, "points/s", sweeps)
        return 0.0, 0.0

    # Traced run: the first strategy's row, swept untraced, is the
    # baseline for the tracing overhead.  The traced pass sweeps the same
    # row and then the other strategies, into one cold cache, through the
    # same run_cache_sweep; then the rung ablation.
    row, rest = labels[:1], labels[1:]
    results, untraced = sweep(cold_cache("row"), row)
    run.metric("sweep.points_per_s", len(results) / untraced, "points/s", len(results))
    run.start_tracing()
    with run.span("kernels.build"):
        program = build_livermore_suite(scale=grid.LIVERMORE_SCALE, seed=run.seed).program
    run.count("kernels.builds")
    cache = cold_cache("traced")
    with simulator_spans(run):
        _, traced = sweep(cache, row)
        sweep(cache, rest)
    for key in ("hits", "misses", "stores", "quarantined"):
        run.count(f"simcache.{key}", getattr(cache.stats, key))
    rung_ablation(run)
    return untraced, traced


def rung_ablation(run: Run) -> None:
    """One full-scale point per strategy under every engine variant.

    Each variant runs in its own child process with an empty codegen
    store, so no variant inherits another's compiled kernels.  Two
    variants run at a time, slowest first, to keep the traced run well
    inside its time limit.
    """

    def child(variant: str) -> list[dict]:
        out = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--root", str(run.root),
                "--ablation-variant", variant,
                "--seed", str(run.seed),
            ],  # fmt: skip
            cwd=run.root,
            env=run.env(run.work / f"ablation-{variant}", **ABLATION[variant][1]),
            capture_output=True,
            text=True,
            timeout=170,
        )
        if out.returncode != 0:
            raise RuntimeError(f"ablation {variant} failed:\n{out.stderr[-2000:]}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    with ThreadPoolExecutor(JOBS) as pool:
        results = dict(zip(ABLATION, pool.map(child, ABLATION)))
    for variant, points in results.items():
        run.metric(f"ablation.{variant}_s", sum(p["seconds"] for p in points), "s", len(points))
        for p in points:
            run.check("livermore-sweep", p["name"], p["checksum"])
    cycles = {variant: [p["cycles"] for p in points] for variant, points in results.items()}
    if len({tuple(c) for c in cycles.values()}) != 1:
        run.fail(f"ablation variants disagree on cycles: {cycles}")


def ablation_child(variant: str, seed: int) -> None:
    from repro.core.simulator import simulate
    from repro.core.sweep import standard_strategies
    from repro.kernels.suite import build_livermore_suite

    kwargs = ABLATION[variant][0]
    program = build_livermore_suite(scale=grid.LIVERMORE_SCALE, seed=seed).program
    out = []
    for label in standard_strategies():
        config = grid.machine_config(label, grid.ABLATION_SIZE, grid.HEADLINE_PANEL)
        start = time.perf_counter()
        result = simulate(config, program, **kwargs)
        out.append(
            {
                "name": grid.point_name(label, grid.ABLATION_SIZE, grid.HEADLINE_PANEL),
                "seconds": time.perf_counter() - start,
                "cycles": result.cycles,
                "checksum": result.checksum(),
            }
        )
    print(json.dumps(out))


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------
def fuzz(run: Run) -> tuple[float, float]:
    """Returns the seconds of the cases both passes ran, untraced and traced."""
    from repro.core import fuzz as fuzz_module
    from repro.cpu.functional import FunctionalSimulator
    from repro.kernels.generate import generate_workload
    from repro.kernels.suite import build_kernel_suite

    probe = "from repro.core.fuzz import run_fuzz\n"
    run.setup([run.setup_probe(probe) for _ in range(SETUP_REPEATS[run.workload])])
    first = run.seed * FUZZ_SEED_STRIDE
    rungs = len(fuzz_module.ENGINES)
    configs = list(fuzz_module.FUZZ_CONFIGS)

    def measure() -> list[float]:
        """Seconds of each case, one ``run_fuzz`` call per case, cycling
        through the fuzz configurations as one long ``run_fuzz`` would."""
        cold_codegen(run, "fuzz-traced" if run.recorder is not None else "fuzz")
        times: list[float] = []
        elapsed = 0.0
        while elapsed < run.seconds:
            case = len(times)
            start = time.perf_counter()
            with run.span("fuzz.case", seed=first + case):
                report = fuzz_module.run_fuzz(
                    start_seed=first + case,
                    count=1,
                    budget="default",
                    configs=[configs[case % len(configs)]],
                )
            times.append(time.perf_counter() - start)
            elapsed += times[-1]
            run.attempted += report.cases
            for failure in report.failures:
                run.fail(f"fuzz seed {failure.seed} [{failure.config_name}]: {failure.problems[:3]}")
        return times

    def program_instructions(seed: int) -> int:
        workload = generate_workload(seed, "default")
        suite = build_kernel_suite([workload.kernel], list(workload.arrays))
        return FunctionalSimulator(suite.program, max_steps=5_000_000).run().instructions

    times = measure()
    per_case = [program_instructions(first + i) * rungs for i in range(len(times))]
    elapsed = sum(times)
    run.throughput(sum(per_case), elapsed, len(times))
    run.metric("fuzz.cases_per_s", len(times) / elapsed, "cases/s", len(times))
    run.latency("fuzz.case", times)
    if not run.traced:
        return 0.0, 0.0

    run.start_tracing()
    with fuzz_spans(run, fuzz_module):
        traced_times = measure()
    # The traced pass repeats the same cases from the first one on; only
    # the cases both passes ran are compared.
    both = min(len(times), len(traced_times))
    return sum(times[:both]), sum(traced_times[:both])


def fuzz_spans(run: Run, fuzz_module) -> ExitStack:
    """:func:`simulator_spans` plus spans around the other calls
    ``run_fuzz`` makes: the generator, the suite build and the traced
    simulation (module functions, wrapped where ``repro.core.fuzz`` looks
    them up; the size of each JSONL trace is counted), and the
    functional check."""
    from repro.cpu.functional import FunctionalSimulator

    recorder = run.recorder

    def count_build(span, state, result, args) -> None:
        run.count("kernels.builds")

    def count_trace_bytes(span, state, result, args) -> None:
        # simulate_traced(config, program, trace_path, ...)
        if len(args) > 2 and args[2] is not None:
            run.count("trace.bytes", os.path.getsize(args[2]))

    stack = simulator_spans(run)
    stack.enter_context(recorder.wrapped(fuzz_module, "generate_workload", "kernels.generate"))
    stack.enter_context(recorder.wrapped(fuzz_module, "build_kernel_suite", "kernels.build", after=count_build))
    stack.enter_context(recorder.wrapped(FunctionalSimulator, "run", "functional.run"))
    stack.enter_context(
        recorder.wrapped(fuzz_module, "simulate_traced", "trace.simulate_traced", after=count_trace_bytes)
    )
    return stack


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Service:
    """One ``repro-sim serve`` process in its own session."""

    READY = re.compile(r"repro-sim service on http://127\.0\.0\.1:(\d+)")

    def __init__(self, run: Run, tag: str, spans_out: Path | None = None):
        from repro.core.service import ServiceClient

        self.cache_dir = run.work / f"service-{tag}"
        self.log_path = run.work / f"service-{tag}.log"
        args = [
            "--host", "127.0.0.1",
            "--port", "0",
            "--jobs", str(JOBS),
            "--scale", str(grid.SERVE_SCALE),
            "--cache-dir", str(self.cache_dir),
        ]  # fmt: skip
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(spans_out), "--", *args]
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            command,
            cwd=run.root,
            env=run.env(self.cache_dir),
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = ServiceClient("127.0.0.1", self._wait_ready(), timeout=120)

    def _wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = self.READY.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"service did not start:\n{self.log_path.read_text()[-2000:]}")

    def stop(self) -> None:
        """SIGINT (the service kills its pool), then reap the whole group."""
        if self.log.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        group = self.proc.pid
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.log.close()


def serve_mixed(run: Run) -> tuple[float, float]:
    """Returns (seconds per request untraced, traced)."""
    rng = random.Random(run.seed)
    points = grid.grid(grid.SERVE_PANELS)
    session = [grid.point_name(label, size, grid.SESSION_PANEL) for label, size in grid.SESSION_POINTS]
    cold = [name for name, *_ in points if name not in session]
    rng.shuffle(cold)
    cold_points = iter(cold)
    fields = {name: grid.machine_config(label, size, panel).to_dict() for name, label, size, panel in points}
    request_ids = itertools.count()

    def send(service: Service, name: str) -> dict:
        # The tenant field carries a unique request id, which the traced
        # service records on its span for this request.
        request = f"r{next(request_ids)}"
        start = time.perf_counter()
        try:
            with run.span("client.request", point=name, request=request):
                status, payload = service.client.simulate(fields[name], tenant=request)
        except OSError as exc:
            status, payload = 0, {"error": {"type": type(exc).__name__}}
        seconds = time.perf_counter() - start
        run.check("serve-mixed", name, payload.get("checksum") if status == 200 else f"HTTP {status}")
        return {"seconds": seconds, "status": status, **payload}

    def start(tag: str, spans_out: Path | None = None) -> tuple[Service, float]:
        """Start a service and prefill its cache with the session's points."""
        begin = time.perf_counter()
        service = Service(run, tag, spans_out)
        services.append(service)
        with ThreadPoolExecutor(JOBS) as pool:
            list(pool.map(lambda name: send(service, name), session))
        return service, time.perf_counter() - begin

    services: list[Service] = []
    try:
        samples = []
        for number in range(SETUP_REPEATS[run.workload]):
            service, seconds = start(f"setup-{number}")
            samples.append(seconds)
            if number < SETUP_REPEATS[run.workload] - 1:
                service.stop()
        run.setup(samples)
        untraced = closed_loop(run, service, cold_points, send)
        service.stop()
        if not run.traced:
            return untraced, 0.0
        run.start_tracing()
        spans_out = run.work / "service-spans.json"
        service, _ = start("traced", spans_out)
        traced = closed_loop(run, service, cold_points, send)
        service.stop()
        links = {span["request"]: span["id"] for span in run.recorder.spans if span["name"] == "client.request"}
        run.recorder.merge(json.loads(spans_out.read_text()), links)
        return untraced, traced
    finally:
        for service in services:
            service.stop()


def closed_loop(run: Run, service: Service, cold_points, send) -> float:
    """Two clients, each sending its next request after the previous reply.

    Both take their requests from one queue in which each cold point
    appears ``REPEATS`` times in a row.  So while one client's request
    simulates a point, the other client's request for it joins the
    simulation in flight (coalesced), and the third request, sent after
    the simulation ended, is a cache hit.  Returns seconds per request.
    """
    queue = (name for name in cold_points for _ in range(REPEATS))
    lock = threading.Lock()
    replies: list[dict] = []
    before = service.client.stats()
    begin = time.perf_counter()
    deadline = begin + run.seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                name = next(queue, None)
            if name is None:
                return  # every cold point has been served
            replies.append(send(service, name))

    with ThreadPoolExecutor(2) as pool:
        for future in [pool.submit(client) for _ in range(2)]:
            future.result()
    elapsed = time.perf_counter() - begin
    after = service.client.stats()
    serve_metrics(run, replies, elapsed, before, after)
    return elapsed / max(1, len(replies))


def serve_metrics(run: Run, replies: list[dict], elapsed: float, before: dict, after: dict) -> None:
    ok = [r for r in replies if r["status"] == 200]
    hits = [r["seconds"] for r in ok if r["rung"] == "cache"]
    misses = [r["seconds"] for r in ok if r["rung"] != "cache"]
    simulated = sum(r["result"]["instructions"] for r in ok if r["rung"] != "cache" and not r["coalesced"])
    if run.recorder is None:  # the workload's own figures come from the untraced pass
        run.throughput(simulated, elapsed, len(misses))
        run.metric("service.requests_per_s", len(replies) / elapsed, "req/s", len(replies))
        run.latency("service.hit", hits)
        run.latency("service.miss", misses)

    def delta(*path: str) -> float:
        new, old = after, before
        for key in path:
            new, old = (new or {}).get(key, 0), (old or {}).get(key, 0)
        return new - old

    for key in ("hits", "misses", "stores", "quarantined"):
        run.count(f"simcache.{key}", delta("cache", key))
    lookups = delta("cache", "hits") + delta("cache", "misses")
    run.count("service.cache_lookups", lookups)
    for key in ("coalesce_hits", "simulations", "deadline_misses", "pool_respawns"):
        run.count(f"service.{key}", delta(key))
    run.count("service.rejected", sum(delta("rejected", k) for k in after["rejected"]))
    for rung in ("compiled", "replay", "idle-skip", "reference"):
        run.count(f"service.rung.{rung}", delta("rungs", rung))
    run.count("resilience.retries", sum(delta("faults", k) for k in ("retry", "worker_crash", "timeout")))
    for name, keys in COMPILE_COUNTERS.items():
        run.count(name, sum(delta("codegen", k) for k in keys))


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(run: Run, untraced: float, traced: float) -> None:
    counters = run.recorder.counters
    recorder = run.recorder

    def c(name: str) -> float:
        return counters.get(name, 0)

    run.metric("bench.trace_overhead_ratio", traced / untraced, "ratio")
    run.metric("simulator.run_s", c("simulator.run_s"), "s")
    for name in ("runs", "sim_cycles", "sim_instructions"):
        run.metric(f"simulator.{name}", c(f"simulator.{name}"), "count")
    instructions = c("simulator.sim_instructions")
    run.metric(
        "simulator.host_ns_per_sim_instr",
        c("simulator.run_s") * 1e9 / instructions if instructions else 0.0,
        "ns",
    )
    seen = c("replay.cycles_seen")
    run.metric("replay.replayed_cycle_ratio", c("replay.replayed_cycles") / seen if seen else 0.0, "ratio")
    for name in ("replayed_iterations", "divergences", "verify_failures", "signature_restarts"):
        run.metric(f"replay.{name}", c(f"replay.{name}"), "count")
    for name in COMPILE_COUNTERS:
        run.metric(name, c(name), "s" if name.endswith("_s") else "count")
    run.metric("kernels.build_s", recorder.total("kernels.build"), "s")
    run.metric("kernels.builds", c("kernels.builds"), "count")
    run.metric("functional.run_s", recorder.total("functional.run"), "s")
    if run.workload == "fuzz":  # the only workload that runs every rung
        for tag in RUNG_TAGS.values():
            run.metric(f"fuzz.rung.{tag}_s", c(f"simulator.rung.{tag}_s"), "s")
    run.metric("trace.bytes", c("trace.bytes"), "bytes")
    run.metric("simcache.lookup_s", recorder.total("simcache.lookup"), "s")
    run.metric("simcache.store_s", recorder.total("simcache.store"), "s")
    for name in ("hits", "misses", "stores", "quarantined"):
        run.metric(f"simcache.{name}", c(f"simcache.{name}"), "count")
    lookups = c("service.cache_lookups")
    run.metric("service.hit_ratio", c("simcache.hits") / lookups if lookups else 0.0, "ratio")
    for name in ("coalesce_hits", "simulations", "rejected", "deadline_misses", "pool_respawns"):
        run.metric(f"service.{name}", c(f"service.{name}"), "count")
    for rung in ("compiled", "replay", "idle-skip", "reference"):
        run.metric(f"service.rung.{rung}", c(f"service.rung.{rung}"), "count")
    run.metric("resilience.retries", c("resilience.retries"), "count")
    self_times = recorder.self_times()
    for layer in SELF_LAYERS:
        run.metric(f"self.{layer}_s", self_times.get(layer, 0.0), "s")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace, root: Path) -> int:
    if not (root / "src" / "repro").is_dir():
        raise SetupError(f"no simulator sources under {root / 'src'}")
    spec = benchmark_spec()
    run = Run(args, root)
    (run.work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(run.env())
    sys.path.insert(0, str(root / "src"))
    tempfile.tempdir = str(run.work / "tmp")
    try:
        workload = {"livermore-sweep": livermore_sweep, "fuzz": fuzz, "serve-mixed": serve_mixed}
        untraced, traced = workload[run.workload](run)
        if run.traced:
            layer_metrics(run, untraced, traced)
            traces = root / ".bench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            run.recorder.dump(traces / f"{run.workload}-{run.seed}-{os.getpid()}.json")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.metric("bench.failed_ratio", run.failed / max(1, run.attempted), "ratio", run.attempted)

    wanted = spec["per_layer" if run.traced else "end_to_end"]
    if run.traced:
        # Layers and figures this workload does not exercise read 0.
        for m in wanted:
            run.metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"], "samples": 0})
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    record = {
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "problems": run.problems,
        "metrics": run.metrics,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------
def child_run(root: Path, args: argparse.Namespace, seed: int) -> dict:
    """One run in a child process; returns {metric: value} incl. the record."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--root", str(root),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    out = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run failed (exit {out.returncode}):\n{out.stderr[-2000:]}")
    record = json.loads(lines[-2])["record"]
    return {name: m["value"] for name, m in record["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args: argparse.Namespace, root: Path) -> int:
    spec = benchmark_spec()
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"candidate": root}
    if args.baseline:
        sides = {"baseline": Path(args.baseline).resolve(), "candidate": root}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.repeat):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(child_run(sides[side], args, args.seed + i))
            print(f"pair {i + 1}/{args.repeat} {side}: done", file=sys.stderr)

    report: dict = {}
    for name in sorted(set().union(*(r.keys() for r in runs["candidate"]))):
        entry: dict = {}
        for side in sides:
            values = [r[name] for r in runs[side] if name in r]
            q1, median, q3 = quartiles(values)
            entry[side] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["steady"] = entry["candidate"]["spread"] < bounds[name] / 3
        if args.baseline and name in direction:
            sign = 1 if direction[name] == "higher" else -1
            pairs = list(zip(entry["baseline"]["values"], entry["candidate"]["values"]))
            wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
            base, cand = entry["baseline"], entry["candidate"]
            entry["wins"] = wins / len(pairs) if pairs else 0.0
            entry["gain"] = entry["wins"] >= 0.9 and sign * (cand["median"] - base["median"]) > base["q3"] - base["q1"]
            if name in bounds:
                worse = -sign * (cand["median"] - base["median"]) / base["median"] if base["median"] else 0.0
                entry["regressed"] = worse > bounds[name]
        report[name] = entry

    for name, entry in report.items():
        line = f"{name:40s}"
        for side in sides:
            s = entry[side]
            line += f"  {side} median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}"
        if "bound" in entry:
            line += f"  bound {entry['bound']} {'steady' if entry['steady'] else 'NOT STEADY'}"
        if "wins" in entry:
            line += f"  wins {entry['wins']:.2f}{'  GAIN' if entry['gain'] else ''}"
            line += "  REGRESSED" if entry.get("regressed") else ""
        print(line)
    print(json.dumps({"workload": args.workload, "repeat": args.repeat, "report": report}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The repository benchmark (see the module docstring).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness report over this many runs (or pairs)")
    parser.add_argument("--baseline", help="steadiness report: alternate with this checkout")
    parser.add_argument("--root", default=str(HERE.parent), help="checkout whose src/ is measured")
    parser.add_argument("--ablation-variant", choices=ABLATION, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if args.ablation_variant:
        sys.path.insert(0, str(root / "src"))
        ablation_child(args.ablation_variant, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.repeat:
            return steadiness(args, root)
        return run_workload(args, root)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
