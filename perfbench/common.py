"""The run harness shared by the four workloads.

A :class:`Run` owns one benchmark run: the seeded per-pass inputs, the
deadline of the timed phase, the per-task-class latency samples, the
attempted/failed tallies and, in a traced run, the :class:`Tracer`.
A workload (see :class:`Workload`) supplies ``setup``, ``run_pass``,
``check`` and the metric formulas; :func:`execute` drives them in the
fixed order set-up, timed passes, output checks, tear-down.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from perfbench import BENCH_DIR, OUT_DIR

#: Set-up samples per run: the run's own set-up plus fresh-interpreter
#: probes; ``setup_s`` is their median.
SETUP_SAMPLES = 5


class Run:
    """State of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.samples = defaultdict(list)
        self.work = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.pass_seconds = []
        self.tracer = None
        self.counters = None
        self.layer = {}
        self.workdir = OUT_DIR / f"run-{os.getpid()}"
        self._current = ""
        self._tasks = 0

    # -------------------------------------------------------------- #
    # Tasks and checks
    # -------------------------------------------------------------- #

    @contextlib.contextmanager
    def task(self, label: str, operations: int = 1):
        """``operations`` attempted operations; an exception inside
        fails one of them."""
        self.attempted += operations
        failed_before = self.failed
        self._current = label
        try:
            yield
        except CheckFailed:
            pass
        except Exception:  # the run must go on and report the failure
            if self.failed == failed_before:
                self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def expect(self, condition, message: str) -> None:
        """Count a failed output check against the current task."""
        if condition:
            return
        self.failed += 1
        print(f"FAILED {self._current}: {message}", file=sys.stderr)
        raise CheckFailed(message)

    def passes_until_deadline(self):
        """Pass indices until the timed phase has used ``seconds``;
        the first pass always runs."""
        start = time.perf_counter()
        deadline = start + self.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            began = time.perf_counter()
            yield index
            self.pass_seconds.append(time.perf_counter() - began)
            index += 1
        self.passes = index

    def tag(self):
        """Group the spans of the next task under a fresh task id
        (traced runs)."""
        self._tasks += 1
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.task(self._tasks)

    @contextlib.contextmanager
    def in_process(self):
        """Count the hot-path tallies of in-process work (traced runs).

        ``perf_scope`` is opened only here, never around a
        process-backend fan-out, where it raises (see
        ``perfbench/notes.json``).
        """
        if self.counters is None:
            yield
            return
        from dataclasses import fields

        from repro.utils.perf import perf_scope

        with perf_scope() as counters:
            try:
                yield
            finally:
                for field in fields(counters):
                    self.counters.add(
                        field.name, getattr(counters, field.name)
                    )

    def pass_rng(self, index: int):
        """Input generator of pass ``index``: the same seed and pass
        give the same inputs, traced or not."""
        return np.random.default_rng([self.seed % 2**64, index])

    # -------------------------------------------------------------- #
    # Aggregates
    # -------------------------------------------------------------- #

    def median(self, label: str) -> float:
        values = self.samples[label]
        return statistics.median(values) if values else math.nan

    def time_to_target(self, labels) -> float:
        """Sum over task classes of each class's mean seconds.

        Every pass repeats statistically identical work, so the mean
        over the run averages the host's timing noise over the whole
        run, where a median reads one or two tasks' timings.
        """
        return sum(
            statistics.fmean(self.samples[label])
            if self.samples[label] else math.nan
            for label in labels
        )


class CheckFailed(Exception):
    """An output check failed; already counted by :meth:`Run.expect`."""


class Workload:
    """One named workload; subclasses fill in the steps."""

    name = ""
    classes = ()

    def setup(self, run: Run):
        """Build what set-up covers; returns the workload's state."""
        raise NotImplementedError

    def install(self, tracer, state) -> None:
        """Wrap the layer entry points (traced runs)."""

    def run_pass(self, run: Run, state, index: int) -> None:
        raise NotImplementedError

    def check(self, run: Run, state) -> None:
        """Output checks after the timed phase."""

    def metrics(self, run: Run, state) -> dict:
        """``{name: (value, unit)}`` for the human-readable report;
        must include ``time_to_target_s`` and ``work_per_s``."""
        raise NotImplementedError

    def layers(self, run: Run, state) -> dict:
        """Per-layer metrics this workload measures directly."""
        return {}

    def teardown(self, state) -> None:
        """Release pools and directories."""


# ------------------------------------------------------------------ #
# Machine facts
# ------------------------------------------------------------------ #


def _vm_hwm_kib(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(children) -> float:
    """Peak resident memory of this process plus the given children."""
    kib = _vm_hwm_kib("self")
    kib += sum(_vm_hwm_kib(child.pid) for child in children)
    return kib / 1024.0


def blas_info() -> dict:
    """Version and thread count of every OpenBLAS loaded here."""
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if any)

    found = {}
    with open("/proc/self/maps") as handle:
        paths = sorted({
            line.split()[-1] for line in handle
            if "openblas" in line.lower() and line.rstrip().endswith(".so")
        })
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(
                    lib, f"{prefix}get_num_threads{suffix}", None
                )
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry = {
                        "config": config().decode(),
                        "threads": int(threads()),
                    }
                    break
            if entry:
                break
        found[os.path.basename(path)] = entry
    return found


def machine_stamp() -> dict:
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ #
# Driving one run
# ------------------------------------------------------------------ #


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (imports included)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--setup-probe", workload, "--seed", str(seed),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=150, check=True
    )
    return float(completed.stdout.strip().splitlines()[-1])


def execute(workload: Workload, run: Run, started: float) -> dict:
    """Set up, time, check and tear down; returns the report."""
    run.workdir.mkdir(parents=True, exist_ok=True)
    state = None
    try:
        state = workload.setup(run)
        setup = [time.perf_counter() - started]
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(setup_probe_seconds(workload.name, run.seed))
        if run.traced:
            _traced_phase(workload, run, state)
        else:
            for index in run.passes_until_deadline():
                workload.run_pass(run, state, index)
        workload.check(run, state)
        named = workload.metrics(run, state)
        named["setup_s"] = (statistics.median(setup), "s")
        named["peak_rss_mb"] = (
            peak_rss_mb(multiprocessing.active_children()), "MB"
        )
        named["failed_ratio"] = (
            run.failed / max(run.attempted, 1), "failed/attempted"
        )
        named["wall_s"] = (statistics.median(run.pass_seconds), "s")
        if run.traced:
            run.layer.update(workload.layers(run, state))
    finally:
        if state is not None:
            workload.teardown(state)
        if run.tracer is not None:
            run.tracer.unwrap_all()
        shutil.rmtree(run.workdir, ignore_errors=True)
    return named


def _traced_phase(workload: Workload, run: Run, state) -> None:
    """Pass 0 untraced, then the same pass and more with tracing on;
    the two copies of pass 0 give the tracing overhead."""
    from perfbench.spans import Tracer
    from repro.utils.perf import PerfCounters

    began = time.perf_counter()
    workload.run_pass(run, state, 0)
    untraced = time.perf_counter() - began
    run.samples.clear()
    run.work.clear()
    run.tracer = Tracer()
    run.counters = PerfCounters()
    workload.install(run.tracer, state)
    for index in run.passes_until_deadline():
        workload.run_pass(run, state, index)
    traced = run.pass_seconds[0]
    run.layer["trace.untraced_pass_s"] = untraced
    run.layer["trace.traced_pass_s"] = traced
    run.layer["trace.overhead_ratio"] = traced / untraced


def write_trace(run: Run) -> str:
    path = OUT_DIR / f"trace-{run.workload}-seed{run.seed}.json"
    run.tracer.write_chrome_trace(path)
    return str(path)


def report(run: Run, named: dict, end_to_end, per_layer) -> dict:
    """Print every metric by name and unit, then the result line."""
    print(f"# workload {run.workload} seed {run.seed} "
          f"seconds {run.seconds} trace {int(run.traced)} "
          f"passes {run.passes}")
    for name, (value, unit) in sorted(named.items()):
        print(f"{name:34s} {value:14.6g} {unit}")
    for label, values in sorted(run.samples.items()):
        print(f"  task class {label:22s} n={len(values):<4d} "
              f"mean {statistics.fmean(values):.6g} s  "
              f"median {run.median(label):.6g} s")
    if run.traced:
        for name in per_layer:
            print(f"{name:44s} {run.layer.get(name, 0.0):14.6g} "
                  f"{per_layer[name]}")
    metrics_source = (
        {name: run.layer.get(name, 0.0) for name in per_layer}
        if run.traced
        else {name: named[name][0] for name in end_to_end}
    )
    units = per_layer if run.traced else end_to_end
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {
                "value": float(value) if math.isfinite(value) else 0.0,
                "unit": units[name],
            }
            for name, value in metrics_source.items()
        },
    }
    print(json.dumps(result))
    return result
