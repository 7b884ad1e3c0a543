"""The ``jobs`` workload: a request stream against ``CoverageService``.

Two closed-loop clients (each waits for its reply before sending the
next request) share one event loop and one service over a fresh store
per pass, computing on a process executor with 2 workers.  A pass:

1. cold: fresh optimize requests on paper topologies 1-4 and two
   simulate requests (compute, checkpoint saves, ``put``);
2. fan-in: both clients submit the same fresh request at once;
3. warm: every request of step 1 again, from both clients (``get`` plus
   the integrity check);
4. a 2-shard ``run_sweep`` over 4 cells, ``import_sweep`` into the
   store, and the 4 cells requested from the imported records.

Checks: warm and imported payloads equal their cold payloads or sweep
records as canonical JSON; optimize payloads are row-stochastic and
their ``best_u_eps`` recomputes; the store and the sweep directory
pass ``tools/check_service_store.py`` and ``tools/check_sweep_schema.py``.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import statistics
import time

import numpy as np

from perfbench import ROOT, layers
from perfbench.common import Run, Workload
from perfbench.optimize_workloads import check_schedule
from perfbench.sim_fanout import start_pool

WORKERS = 2
OPTIMIZE_OPTIONS = {"max_iterations": 30, "stall_limit": 30}
SIMULATE_TRANSITIONS = 20_000
SWEEP_TOPOLOGIES = (1, 3)
SWEEP_ITERATIONS = 20


def _tool(name: str):
    """Load a checker under ``tools/`` as a library."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class Jobs(Workload):
    name = "jobs"
    classes = ("cold", "simulate", "fan-in", "warm", "imported", "sweep")

    def setup(self, run: Run):
        import repro  # noqa: F401
        from repro.service import ResultStore, ServiceStats
        from repro.sweep import run_sweep  # noqa: F401
        from perfbench.spans import TracedProcessExecutor

        executor = TracedProcessExecutor(
            tracer=None, install=layers.install_worker, jobs=WORKERS
        )
        try:
            start_pool(executor, WORKERS)
        except BaseException:
            executor.close()
            raise
        ResultStore(run.workdir / "store-setup")
        return {
            "executor": executor,
            "stores": 0,
            "stats": ServiceStats(),
            "broadcast": [0, 0],
        }

    def install(self, tracer, state) -> None:
        from repro.exec.executor import TaskTimings
        from repro.service import ServiceStats

        layers.wrap_service(tracer)
        state["executor"].tracer = tracer
        state["executor"].timings = TaskTimings()
        state["stats"] = ServiceStats()
        state["broadcast"] = [0, 0]

    # -------------------------------------------------------------- #
    # One pass
    # -------------------------------------------------------------- #

    def _requests(self, rng):
        import repro
        from repro.service import optimize_request, simulation_request

        def seed():
            return int(rng.integers(2**31))

        cold = [
            optimize_request(repro.paper_topology(topology), seed=seed(),
                             options=OPTIMIZE_OPTIONS)
            for topology in (1, 2, 3, 4)
        ]
        simulate = [
            simulation_request(
                repro.paper_topology(topology),
                repro.uniform_matrix(repro.paper_topology(topology).size),
                transitions=SIMULATE_TRANSITIONS, seed=seed(),
            )
            for topology in (1, 2)
        ]
        shared = optimize_request(repro.paper_topology(2), seed=seed(),
                                  options=OPTIMIZE_OPTIONS)
        sweep_seeds = (seed(), seed())
        return cold, simulate, shared, sweep_seeds

    async def _stream(self, service, plans, record):
        barrier = asyncio.Barrier(len(plans))

        async def client(plan):
            for phase in plan:
                for label, request in phase:
                    started = time.perf_counter()
                    payload = await service.submit(request)
                    record(label, request, payload,
                           time.perf_counter() - started)
                await barrier.wait()

        await asyncio.gather(*(client(plan) for plan in plans))

    def run_pass(self, run: Run, state, index: int) -> None:
        from repro.service import CoverageService, ResultStore

        rng = run.pass_rng(index)
        cold, simulate, shared, sweep_seeds = self._requests(rng)
        state["stores"] += 1
        store = ResultStore(run.workdir / f"store-{state['stores']}")
        service = CoverageService(store, executor=state["executor"])
        first = [("cold", r) for r in cold] + [
            ("simulate", r) for r in simulate
        ]
        repeats = [("warm", request) for _, request in first]
        plans = [
            [first[0::2], [("fan-in", shared)], repeats],
            [first[1::2], [("fan-in", shared)], repeats[::-1]],
        ]
        served = []

        def record(label, request, payload, seconds):
            run.samples[label].append(seconds)
            served.append((label, request, payload))

        requests = sum(len(phase) for plan in plans for phase in plan)
        with run.tag(), run.task("stream", operations=requests):
            started = time.perf_counter()
            asyncio.run(self._stream(service, plans, record))
            run.work["requests"] += len(served)
            run.work["seconds"] += time.perf_counter() - started
            self._check_stream(run, served)
        with run.tag(), run.task("sweep"):
            self._sweep(run, state, service, sweep_seeds)
        with run.task("store-check"):
            problems = _tool("check_service_store").check_store(store.root)
            run.expect(not problems, "; ".join(problems[:3]))
        for key, value in service.stats.as_dict().items():
            setattr(state["stats"], key,
                    getattr(state["stats"], key) + value)

    def _check_stream(self, run: Run, served) -> None:
        from repro.service import request_digest
        from repro.service.requests import build_cost

        first = {}
        for label, request, payload in served:
            digest = request_digest(request)
            text = canonical(payload)
            if label == "warm":
                run.expect(first.get(digest) == text,
                           "warm payload differs from its cold payload")
                continue
            if digest in first:
                run.expect(first[digest] == text,
                           "fan-in payloads differ")
                continue
            first[digest] = text
            if request.kind == "optimize":
                cost = build_cost(request)
                matrix = np.asarray(payload["matrix"], dtype=float)
                check_schedule(run, cost, matrix,
                               payload["result"]["best_u_eps"])

    def _sweep(self, run: Run, state, service, seeds) -> None:
        from repro.service import request_from_cell
        from repro.sweep import SweepGrid, cell_from_dict, run_sweep
        from repro.sweep import iter_sweep_records

        grid = SweepGrid(
            topologies=({"family": "paper",
                         "sizes": list(SWEEP_TOPOLOGIES)},),
            weights=({"alpha": 1.0, "beta": 1.0},),
            methods=("perturbed",),
            seeds=seeds,
            iterations=SWEEP_ITERATIONS,
            include_matrix=True,
        )
        out_dir = run.workdir / f"sweep-{state['stores']}"
        started = time.perf_counter()
        report = run_sweep(grid, out_dir, shards=2, backend="process",
                           jobs=WORKERS)
        seconds = time.perf_counter() - started
        cells = len(SWEEP_TOPOLOGIES) * len(seeds)
        run.expect(report.ran_cells == cells,
                   f"sweep ran {report.ran_cells} of {cells} cells")
        run.samples["sweep"].append(seconds)
        run.work["sweep_cells"] += report.ran_cells
        run.work["sweep_seconds"] += seconds
        state["broadcast"][0] += report.broadcast_requests
        state["broadcast"][1] += report.broadcast_hits
        problems = _tool("check_sweep_schema").check_directory(out_dir)
        run.expect(not problems, "; ".join(problems[:3]))

        imported, _ = service.import_sweep(out_dir)
        run.expect(imported == cells, f"imported {imported} of {cells}")
        hits = service.stats.cache_hits
        for record in iter_sweep_records(out_dir):
            request = request_from_cell(cell_from_dict(record["cell"]))
            started = time.perf_counter()
            payload = service.run(request)
            run.samples["imported"].append(time.perf_counter() - started)
            run.expect(
                canonical(payload) == canonical(
                    {"result": record["result"],
                     "matrix": record["matrix"]}
                ),
                "imported payload differs from its sweep record",
            )
        run.expect(service.stats.cache_hits - hits == cells,
                   "imported cells were recomputed")

    # -------------------------------------------------------------- #
    # Metrics
    # -------------------------------------------------------------- #

    def metrics(self, run: Run, state) -> dict:
        warm = sorted(run.samples["warm"])
        requests_per_s = run.work["requests"] / run.work["seconds"]
        return {
            "time_to_target_s": (run.time_to_target(self.classes), "s"),
            "work_per_s": (requests_per_s, "requests/s"),
            "cold_request_s_p50": (run.median("cold"), "s"),
            "warm_request_ms_p50": (1e3 * statistics.median(warm), "ms"),
            "warm_request_ms_p90": (
                1e3 * statistics.quantiles(warm, n=10)[8], "ms"
            ),
            "requests_per_s": (requests_per_s, "requests/s"),
            "sweep_cells_per_s": (
                run.work["sweep_cells"] / run.work["sweep_seconds"],
                "cells/s",
            ),
        }

    def layers(self, run: Run, state) -> dict:
        metrics = layers.span_metrics(run.tracer)
        metrics.update(
            layers.exec_metrics(state["executor"].timings, WORKERS)
        )
        metrics.update(layers.queue_metrics(state["stats"]))
        requests, hits = state["broadcast"]
        metrics["sweep.broadcast_requests"] = requests
        metrics["sweep.broadcast_hit_ratio"] = (
            hits / requests if requests else 0.0
        )
        return metrics

    def teardown(self, state) -> None:
        state["executor"].close()
