"""The ``sim-fanout`` workload: replicated simulations on 2 processes.

Each pass builds a fresh city-grid 8x8 topology the way the CLI builds
one (``scalable_topology("city-grid", 64, seed=...)``) for every call,
so the parent's topology is cold exactly as a user's is: the benchmark
never touches ``passby`` or ``chord_table`` before fanning out.  It
then runs ``repro.simulate(..., repetitions=R, execution=<process
executor, 2 workers>)`` once for ``kind="single"`` and once for
``kind="team"``, with the default transport.  The output check reruns
pass 0's inputs on the serial backend with one repetition and requires
it to equal pass 0's first pooled replication bit for bit (each
replication draws from its own spawned stream, so replication 0 does
not depend on the repetition count).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from perfbench import layers
from perfbench.common import Run, Workload

SIDE_POIS = 64
SINGLE_REPETITIONS = 2
SINGLE_TRANSITIONS = 20_000
TEAM_REPETITIONS = 4
TEAM_SENSORS = 3
TEAM_HORIZON = 20_000.0
CHECK_REPETITIONS = 1
WORKERS = 2


def support_masked_random(support, rng) -> np.ndarray:
    """Half uniform, half random row distributions over the support."""
    uniform = support / support.sum(axis=1, keepdims=True)
    noise = rng.random(support.shape) * support
    noise /= noise.sum(axis=1, keepdims=True)
    return 0.5 * uniform + 0.5 * noise


def _pid(_):
    time.sleep(0.05)
    import os

    return os.getpid()


def start_pool(executor, workers: int) -> None:
    """Spawn every worker and let it import the library."""
    seen = set()
    for _ in range(10):
        seen.update(executor.map(_pid, range(workers)))
        if len(seen) >= workers:
            return
    raise RuntimeError(f"only {len(seen)} of {workers} workers started")


def same_result(left, right) -> bool:
    """Field-by-field bit identity of two simulation results."""
    for field in dataclasses.fields(left):
        a, b = getattr(left, field.name), getattr(right, field.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b, equal_nan=True):
                return False
        elif a != b and not (a != a and b != b):
            return False
    return True


class SimFanout(Workload):
    name = "sim-fanout"
    classes = ("single", "team")

    def setup(self, run: Run):
        import repro  # noqa: F401
        from perfbench.spans import TracedProcessExecutor

        executor = TracedProcessExecutor(
            tracer=None, install=layers.install_worker, jobs=WORKERS
        )
        try:
            start_pool(executor, WORKERS)
        except BaseException:
            executor.close()
            raise
        return {"executor": executor, "first": {}}

    def install(self, tracer, state) -> None:
        from repro.exec.executor import TaskTimings

        layers.wrap_simulation(tracer)
        layers.wrap_core(tracer)
        state["executor"].tracer = tracer
        state["executor"].timings = TaskTimings()

    def _inputs(self, run: Run, index: int):
        import repro

        rng = run.pass_rng(index)
        topology_seed = int(rng.integers(2**31))
        support = repro.scalable_topology(
            "city-grid", SIDE_POIS, seed=topology_seed
        ).adjacency
        matrix = support_masked_random(support, rng)
        return topology_seed, matrix, [int(s) for s in rng.integers(
            2**31, size=2
        )]

    def _fresh_topology(self, topology_seed: int):
        import repro

        return repro.scalable_topology(
            "city-grid", SIDE_POIS, seed=topology_seed
        )

    def run_pass(self, run: Run, state, index: int) -> None:
        import repro

        topology_seed, matrix, (single_seed, team_seed) = self._inputs(
            run, index
        )
        executor = state["executor"]
        with run.tag(), run.task("single"):
            topology = self._fresh_topology(topology_seed)
            started = time.perf_counter()
            results = repro.simulate(
                topology, matrix, kind="single",
                transitions=SINGLE_TRANSITIONS, seed=single_seed,
                repetitions=SINGLE_REPETITIONS, execution=executor,
            )
            seconds = time.perf_counter() - started
            transitions = sum(result.transitions for result in results)
            run.expect(
                transitions == SINGLE_REPETITIONS * SINGLE_TRANSITIONS,
                f"simulated {transitions} transitions",
            )
            run.samples["single"].append(seconds)
            if index == 0:
                state["first"]["single"] = results
            run.work["single_transitions"] += transitions
            run.work["transitions"] += transitions
            run.work["seconds"] += seconds
        with run.tag(), run.task("team"):
            topology = self._fresh_topology(topology_seed)
            started = time.perf_counter()
            results = repro.simulate(
                topology, matrix, kind="team", horizon=TEAM_HORIZON,
                sensors=TEAM_SENSORS, seed=team_seed,
                repetitions=TEAM_REPETITIONS, execution=executor,
            )
            seconds = time.perf_counter() - started
            run.expect(len(results) == TEAM_REPETITIONS,
                       f"{len(results)} team results")
            run.samples["team"].append(seconds)
            if index == 0:
                state["first"]["team"] = results
            run.work["transitions"] += sum(
                int(np.sum(result.transitions)) for result in results
            )
            run.work["seconds"] += seconds

    def check(self, run: Run, state) -> None:
        """Pass 0's first pooled replication equals a serial run of the
        same inputs, bit for bit."""
        import repro

        topology_seed, matrix, (single_seed, team_seed) = self._inputs(
            run, 0
        )
        calls = {
            "single": dict(kind="single", transitions=SINGLE_TRANSITIONS,
                           seed=single_seed),
            "team": dict(kind="team", horizon=TEAM_HORIZON,
                         sensors=TEAM_SENSORS, seed=team_seed),
        }
        for kind, kwargs in calls.items():
            with run.tag(), run.task(f"check-{kind}-vs-serial"):
                with run.in_process():
                    serial = repro.simulate(
                        self._fresh_topology(topology_seed), matrix,
                        repetitions=CHECK_REPETITIONS, execution="serial",
                        **kwargs,
                    )
                pooled = state["first"][kind]
                run.expect(
                    all(same_result(a, b) for a, b in zip(pooled, serial)),
                    f"{kind} results differ between the process pool and "
                    "the serial backend",
                )

    def metrics(self, run: Run, state) -> dict:
        return {
            "time_to_target_s": (run.time_to_target(self.classes), "s"),
            "work_per_s": (
                run.work["transitions"] / run.work["seconds"],
                "transitions/s",
            ),
            "transitions_per_s": (
                SINGLE_REPETITIONS * SINGLE_TRANSITIONS
                / run.median("single"),
                "transitions/s",
            ),
            "team_runs_per_s": (
                TEAM_REPETITIONS / run.median("team"), "runs/s"
            ),
        }

    def layers(self, run: Run, state) -> dict:
        metrics = layers.span_metrics(run.tracer)
        metrics.update(layers.counter_metrics(run.counters))
        metrics.update(
            layers.exec_metrics(state["executor"].timings, WORKERS)
        )
        return metrics

    def teardown(self, state) -> None:
        state["executor"].close()
