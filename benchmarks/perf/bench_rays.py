#!/usr/bin/env python
"""Benchmark the lockstep multi-ray driver against the serial multi-start.

Two claims are measured (see ``docs/performance.md`` and
``docs/api.md``):

1. **Equivalence** — for every benchmarked configuration
   ``lockstep_multistart`` returns per-start runs that are bit-identical
   to ``optimize_multistart(..., executor=None)``: same best values,
   same matrix bytes, same per-iteration histories, same perf
   accounting.
2. **Speedup** — fusing every active start's line-search stage
   (geometric sweep, speculative trisection trees, fallback probes) into one
   stacked :meth:`CoverageCost.batch_evaluate` beats running the starts
   one after another; the acceptance floor is 1.5x on every cell with
   ``random_starts >= 4``.

Results are written to ``benchmarks/results/BENCH_rays.json``.

Usage::

    python benchmarks/perf/bench_rays.py               # full run
    python benchmarks/perf/bench_rays.py --check-only  # CI smoke

``--check-only`` shrinks the iteration budgets, asserts the equivalence
claim, skips writing the results file, and exits nonzero on any
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import CostWeights, CoverageCost, paper_topology  # noqa: E402
from repro.core.lockstep import lockstep_multistart  # noqa: E402
from repro.core.multistart import optimize_multistart  # noqa: E402
from repro.core.perturbed import PerturbedOptions  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_rays.json"

#: (paper topology id, random_starts, iterations) grid of the full run.
#: Cells with random_starts >= 4 carry the acceptance claim: >= 1.5x.
FULL_GRID = (
    (1, 2, 60),
    (1, 4, 60),
    (2, 6, 40),
)
SMOKE_GRID = ((1, 2, 6), (1, 4, 5))
SPEEDUP_FLOOR = 1.5


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _runs_identical(serial, lockstep) -> list:
    """Descriptions of any per-start mismatches between the drivers."""
    mismatched = []
    if serial.start_labels != lockstep.start_labels:
        mismatched.append("start_labels")
    for index, (run_a, run_b) in enumerate(
        zip(serial.runs, lockstep.runs)
    ):
        label = serial.start_labels[index]
        if run_a.best_u_eps != run_b.best_u_eps:
            mismatched.append(f"{label}: best_u_eps")
        if run_a.best_matrix.tobytes() != run_b.best_matrix.tobytes():
            mismatched.append(f"{label}: best_matrix")
        if run_a.iterations != run_b.iterations:
            mismatched.append(f"{label}: iterations")
        if run_a.history != run_b.history:
            mismatched.append(f"{label}: history")
        perf_a, perf_b = run_a.perf, run_b.perf
        for name in (
            "accepted_steps", "accept_factorizations", "factorizations",
            "state_builds", "states_reused", "batch_calls",
            "batch_matrices", "wasted_probes",
        ):
            if getattr(perf_a, name) != getattr(perf_b, name):
                mismatched.append(f"{label}: perf.{name}")
    return mismatched


def bench_cell(paper_id: int, random_starts: int, iterations: int,
               seed: int, repeats: int = 3):
    """Time both drivers on one (topology, starts, budget) configuration.

    Each driver runs ``repeats`` times and reports the fastest wall
    clock (steady state: the first run additionally pays allocator and
    import costs that are not per-iteration work).
    """
    cost = CoverageCost(
        paper_topology(paper_id), CostWeights(alpha=1.0, beta=1.0)
    )
    options = PerturbedOptions(
        max_iterations=iterations,
        stall_limit=iterations + 1,
        record_history=True,
    )

    timings = {}
    results = {}
    drivers = {
        "serial": lambda: optimize_multistart(
            cost, random_starts=random_starts, seed=seed,
            options=options, executor=None,
        ),
        "lockstep": lambda: lockstep_multistart(
            cost, random_starts=random_starts, seed=seed,
            options=options,
        ),
    }
    for name, run in drivers.items():
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            results[name] = run()
            best = min(best, time.perf_counter() - started)
        timings[name] = best

    mismatched = _runs_identical(results["serial"], results["lockstep"])
    _check(
        not mismatched,
        f"topology {paper_id} / starts={random_starts}: drivers "
        f"disagree on {', '.join(mismatched)}",
    )
    speedup = timings["serial"] / timings["lockstep"]
    return {
        "paper_topology": paper_id,
        "size": results["serial"].best.best_matrix.shape[0],
        "random_starts": random_starts,
        "portfolio_size": len(results["serial"].runs),
        "iterations": iterations,
        "seed": seed,
        "serial_seconds": timings["serial"],
        "lockstep_seconds": timings["lockstep"],
        "speedup": speedup,
        "best_u_eps": float(results["lockstep"].best.best_u_eps),
        "bit_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="tiny budgets, assert the equivalence claim, write nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"results file (default: {DEFAULT_OUT})",
    )
    parser.add_argument("--seed", type=int, default=2010)
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.check_only else FULL_GRID

    cells = []
    try:
        for paper_id, starts, iterations in grid:
            print(
                f"topology {paper_id} x starts={starts} x "
                f"{iterations} iterations ...",
                flush=True,
            )
            cell = bench_cell(paper_id, starts, iterations, args.seed)
            cells.append(cell)
            print(
                f"  serial {cell['serial_seconds']:.2f}s, lockstep "
                f"{cell['lockstep_seconds']:.2f}s -> "
                f"{cell['speedup']:.1f}x, bit-identical "
                f"({cell['portfolio_size']} portfolio starts)"
            )
        if not args.check_only:
            for cell in cells:
                if cell["random_starts"] >= 4:
                    _check(
                        cell["speedup"] >= SPEEDUP_FLOOR,
                        f"starts={cell['random_starts']} speedup "
                        f"{cell['speedup']:.1f}x below the "
                        f"{SPEEDUP_FLOOR:.1f}x acceptance floor",
                    )
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_rays",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "speedup = serial_seconds / lockstep_seconds per cell; the "
            "lockstep driver returns per-start runs bit-identical to "
            "optimize_multistart(executor=None) — histories, matrix "
            "bytes, and perf accounting checked each run; cells with "
            "random_starts >= 4 enforce the 1.5x acceptance floor"
        ),
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
