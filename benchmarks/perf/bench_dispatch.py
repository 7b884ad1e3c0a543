#!/usr/bin/env python
"""Benchmark process-backend dispatch: pickle vs shared-memory transport.

Three claims are measured (see ``docs/performance.md``):

1. **Bit-identity** — multistart optimization and the simulation
   fan-outs return bit-identical results whichever transport ships the
   task payloads (``transport="pickle"`` vs ``transport="shm"``).
2. **Payload reduction** — with the shm transport a multistart task
   travels as shared-segment handles plus a broadcast digest instead of
   a full pickle of the cost/topology tensors and start matrix.  At the
   largest multistart cell (``M = 576``) the per-task dispatch bytes
   must shrink by at least ``PAYLOAD_FLOOR``x.
3. **Dispatch-bound speedup** — on a fan-out whose per-task compute is
   small next to its payload (repeated short simulations that each ship
   the precomputed chord table), the shm transport must be at least
   ``SPEEDUP_FLOOR``x faster end to end.

The simulation fan-outs run at ``M = 64`` only: the leg coverage
(chord) table is still O(M^3) work, done by the vectorized
``repro.topology.timing.leg_chords`` kernel (on a 2-core host about
17 ms at M=64, 0.8 s at M=256 and 11 s at M=576), a one-time
parent-side cost unrelated to dispatch that grows with M while a
transport's cost does not, so larger cells would increasingly measure
table construction and simulation, not transport.  The cap is recorded
in the results file rather than applied silently.  Multistart
needs no chord table and covers ``M in {64, 256, 576}``.

Results are written to ``benchmarks/results/BENCH_dispatch.json``.

Usage::

    python benchmarks/perf/bench_dispatch.py               # full run
    python benchmarks/perf/bench_dispatch.py --check-only  # CI smoke

``--check-only`` shrinks every size, asserts bit-identity, payload
sanity (shm strictly smaller than pickle), and shm-segment leak
freedom, skips writing the results file, and exits nonzero on any
violation.  The speedup and payload floors are asserted on full runs
only — smoke sizes are too small for stable ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import CostWeights, CoverageCost, scalable_topology  # noqa: E402
from repro.core.initializers import paper_random_matrix  # noqa: E402
from repro.core.multistart import optimize_multistart  # noqa: E402
from repro.core.perturbed import PerturbedOptions  # noqa: E402
from repro.exec import ProcessExecutor  # noqa: E402
from repro.exec import shm  # noqa: E402
from repro.experiments.runner import simulate_repeatedly  # noqa: E402
from repro.multisensor.engine import simulate_team_repeatedly  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_dispatch.json"

#: Multistart grid of the full run; the largest cell carries the
#: payload-reduction acceptance floor.
MULTISTART_SIZES = (64, 256, 576)
SMOKE_MULTISTART_SIZES = (36,)
#: Simulation fan-outs are capped here — see the module docstring.
SIM_SIZE = 64
SMOKE_SIM_SIZE = 36
PAYLOAD_FLOOR = 50.0
SPEEDUP_FLOOR = 2.0
TRANSPORTS = ("pickle", "shm")
JOBS = 2


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _noop(_):
    return None


def _measured_map(transport, run, label):
    """Run ``run(executor)`` on a warmed process pool; return the result
    plus wall-clock and the dispatch deltas for exactly that fan-out."""
    with ProcessExecutor(jobs=JOBS, transport=transport) as executor:
        executor.map(_noop, [0, 1])  # spawn + import cost off the clock
        timings = executor.timings
        tasks0 = timings.tasks
        bytes0 = timings.dispatch_bytes
        seconds0 = timings.dispatch_seconds
        started = time.perf_counter()
        result = run(executor)
        wall = time.perf_counter() - started
        tasks = timings.tasks - tasks0
        _check(tasks > 0, f"{label}/{transport}: fan-out ran no tasks")
        return result, {
            "transport": transport,
            "wall_seconds": wall,
            "tasks": tasks,
            "bytes_per_task": (timings.dispatch_bytes - bytes0) / tasks,
            "dispatch_seconds": timings.dispatch_seconds - seconds0,
        }


def _compare_transports(label, run, identical):
    """Run ``run`` under both transports; assert ``identical`` holds and
    return per-transport measurements plus the derived ratios."""
    results, measured = {}, {}
    for transport in TRANSPORTS:
        results[transport], measured[transport] = _measured_map(
            transport, run, label
        )
    identical(results["pickle"], results["shm"])
    pickle_m, shm_m = measured["pickle"], measured["shm"]
    _check(
        shm_m["bytes_per_task"] < pickle_m["bytes_per_task"],
        f"{label}: shm payload {shm_m['bytes_per_task']:.0f} B/task not "
        f"below pickle's {pickle_m['bytes_per_task']:.0f}",
    )
    return {
        "pickle": pickle_m,
        "shm": shm_m,
        "payload_reduction": (
            pickle_m["bytes_per_task"] / shm_m["bytes_per_task"]
        ),
        "speedup": pickle_m["wall_seconds"] / shm_m["wall_seconds"],
    }


def _multistart_identical(label):
    def identical(a, b):
        _check(a.best.best_u_eps == b.best.best_u_eps,
               f"{label}: best u_eps differs across transports")
        _check(a.start_labels == b.start_labels,
               f"{label}: start labels differ across transports")
        for mine, reference in zip(a.runs, b.runs):
            _check(
                mine.best_matrix.tobytes()
                == reference.best_matrix.tobytes()
                and mine.cost_trace().tobytes()
                == reference.cost_trace().tobytes(),
                f"{label}: per-start trajectories differ across "
                "transports",
            )
    return identical


def _simulation_identical(label):
    def identical(a, b):
        for mine, reference in zip(a, b):
            _check(
                np.array_equal(
                    mine.coverage_shares, reference.coverage_shares
                )
                and mine.delta_c == reference.delta_c
                and mine.total_time == reference.total_time,
                f"{label}: simulation outputs differ across transports",
            )
    return identical


def _team_identical(label):
    def identical(a, b):
        for mine, reference in zip(a, b):
            for field in fields(reference):
                expected = np.asarray(getattr(reference, field.name))
                actual = np.asarray(getattr(mine, field.name))
                _check(
                    np.array_equal(
                        actual, expected,
                        equal_nan=expected.dtype.kind == "f",
                    ),
                    f"{label}: team field {field.name!r} differs "
                    "across transports",
                )
    return identical


def bench_multistart_cell(size: int, seed: int):
    """One-iteration multistart at ``M = size``: every task ships the
    cost (topology tensors) and its start matrix."""
    topology = scalable_topology("city-grid", size, seed=seed)
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1e-3))
    options = PerturbedOptions(
        max_iterations=1, stall_limit=2, record_history=False,
        trisection_rounds=1, geometric_decades=0,
    )

    def run(executor):
        return optimize_multistart(
            cost, random_starts=4, delta_grid=(), seed=seed + 1,
            options=options, executor=executor,
        )

    label = f"multistart/M={size}"
    cell = _compare_transports(label, run, _multistart_identical(label))
    cell.update({"workload": "multistart", "size": size, "seed": seed})
    return cell


def bench_sim_fanout(size: int, seed: int, transitions: int,
                     repetitions: int):
    """The dispatch-bound fan-out: short independent simulations that
    each ship the precomputed chord table but compute for milliseconds."""
    topology = scalable_topology("city-grid", size, seed=seed)
    matrix = paper_random_matrix(
        size, seed=seed + 1, support=topology.adjacency
    )
    # One serial repetition builds every lazy per-topology cache (chord
    # table, pass-by entries) in the parent; the fan-out then ships the
    # warmed state instead of each worker re-deriving it.
    simulate_repeatedly(
        topology, matrix, transitions=transitions, repetitions=1,
        seed=seed + 2, executor="serial",
    )

    def run(executor):
        return simulate_repeatedly(
            topology, matrix, transitions=transitions,
            repetitions=repetitions, seed=seed + 2, executor=executor,
        )

    label = f"simulate/M={size}"
    cell = _compare_transports(label, run, _simulation_identical(label))
    cell.update({
        "workload": "simulate", "size": size, "seed": seed,
        "transitions": transitions, "repetitions": repetitions,
    })
    return cell


def bench_team_fanout(size: int, seed: int, horizon: float,
                      repetitions: int):
    """Team-simulation fan-out: chord table plus one matrix per sensor."""
    topology = scalable_topology("city-grid", size, seed=seed)
    matrices = [
        paper_random_matrix(size, seed=seed + k, support=topology.adjacency)
        for k in (1, 2)
    ]
    simulate_team_repeatedly(  # warm the lazy topology caches, as above
        topology, matrices, horizon=horizon, repetitions=1,
        seed=seed + 3, executor="serial",
    )

    def run(executor):
        return simulate_team_repeatedly(
            topology, matrices, horizon=horizon,
            repetitions=repetitions, seed=seed + 3, executor=executor,
        )

    label = f"team/M={size}"
    cell = _compare_transports(label, run, _team_identical(label))
    cell.update({
        "workload": "team", "size": size, "seed": seed,
        "horizon": horizon, "repetitions": repetitions,
    })
    return cell


def _leaked_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return None
    return sorted(
        name for name in os.listdir("/dev/shm")
        if name.startswith(shm.SEGMENT_PREFIX)
    )


def _print_cell(cell) -> None:
    print(
        f"  pickle {cell['pickle']['bytes_per_task']:,.0f} B/task "
        f"{cell['pickle']['wall_seconds']:.2f}s | shm "
        f"{cell['shm']['bytes_per_task']:,.0f} B/task "
        f"{cell['shm']['wall_seconds']:.2f}s -> payload "
        f"{cell['payload_reduction']:.0f}x, wall "
        f"{cell['speedup']:.2f}x",
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="small sizes, assert bit-identity and leak freedom, "
        "write nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"results file (default: {DEFAULT_OUT})",
    )
    parser.add_argument("--seed", type=int, default=2010)
    args = parser.parse_args(argv)

    if args.check_only:
        multistart_sizes = SMOKE_MULTISTART_SIZES
        sim_size, transitions, sim_reps = SMOKE_SIM_SIZE, 120, 6
        horizon, team_reps = 60.0, 3
    else:
        multistart_sizes = MULTISTART_SIZES
        sim_size, transitions, sim_reps = SIM_SIZE, 300, 24
        horizon, team_reps = 150.0, 8

    cells = []
    try:
        for size in multistart_sizes:
            print(f"multistart M={size} ...", flush=True)
            cell = bench_multistart_cell(size, args.seed)
            cells.append(cell)
            _print_cell(cell)
        print(f"simulate fan-out M={sim_size} ...", flush=True)
        cell = bench_sim_fanout(sim_size, args.seed, transitions, sim_reps)
        cells.append(cell)
        _print_cell(cell)
        print(f"team fan-out M={sim_size} ...", flush=True)
        cell = bench_team_fanout(sim_size, args.seed, horizon, team_reps)
        cells.append(cell)
        _print_cell(cell)

        leaked = _leaked_segments()
        if leaked is not None:
            _check(not leaked,
                   f"leaked shared-memory segments: {leaked}")
            print("no leaked shm segments", flush=True)

        if not args.check_only:
            largest = max(
                (c for c in cells if c["workload"] == "multistart"),
                key=lambda c: c["size"],
            )
            _check(
                largest["payload_reduction"] >= PAYLOAD_FLOOR,
                f"multistart/M={largest['size']}: payload reduction "
                f"{largest['payload_reduction']:.0f}x below the "
                f"{PAYLOAD_FLOOR:.0f}x acceptance floor",
            )
            dispatch_bound = next(
                c for c in cells if c["workload"] == "simulate"
            )
            _check(
                dispatch_bound["speedup"] >= SPEEDUP_FLOOR,
                f"simulate/M={dispatch_bound['size']}: speedup "
                f"{dispatch_bound['speedup']:.2f}x below the "
                f"{SPEEDUP_FLOOR:.1f}x acceptance floor",
            )
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_dispatch",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "pickle vs shm process-backend transport on warmed "
            f"{JOBS}-worker spawn pools; bytes_per_task counts the "
            "submitted task blob (transport payload), wall_seconds the "
            "end-to-end fan-out; bit-identity of results is asserted "
            "per cell; the largest multistart cell carries the >= "
            f"{PAYLOAD_FLOOR:.0f}x payload-reduction floor and the "
            "simulate fan-out (dispatch-bound: per-task compute is "
            "milliseconds next to a chord-table payload) carries the "
            f">= {SPEEDUP_FLOOR:.0f}x end-to-end speedup floor; "
            "simulation fan-outs are capped at M=64 because the chord "
            "table build is O(M^3) geometry — a parent-side "
            "construction cost unrelated to dispatch — not because "
            "transport stops scaling",
        ),
        "floors": {
            "payload_reduction": PAYLOAD_FLOOR,
            "dispatch_bound_speedup": SPEEDUP_FLOOR,
        },
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
