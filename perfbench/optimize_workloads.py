"""The two time-to-quality workloads: ``paper-opt`` and ``citygrid-opt``.

Each task is one in-process ``repro.optimize`` call, timed from the
call until the first evaluated ``U_eps`` at or below the task's fixed
target.  ``CoverageCost.evaluate`` is called once per iteration by both
optimizers, so wrapping it on the cost instance timestamps every
iteration; the wrapper stops the call at the target, because nothing
after it changes the metric and a run must fit many tasks.  A task that
ends without reaching its target is a failure.  The schedule that hit
the target is checked: row-stochastic on the support, and its evaluated
``U_eps`` equals ``cost.value`` recomputed from the matrix alone.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from perfbench.common import Run, Workload
from perfbench import layers


class TargetReached(Exception):
    """Raised inside the optimizer once its task's target is met."""


@contextmanager
def watch_target(cost, target: float, started: float):
    """Timestamp evaluations of ``cost`` and stop at ``target``."""
    evaluate = type(cost).evaluate
    hit = {"evaluations": 0}

    def watched(matrix_or_state):
        breakdown = evaluate(cost, matrix_or_state)
        hit["evaluations"] += 1
        if breakdown.u_eps <= target:
            hit["seconds"] = time.perf_counter() - started
            hit["matrix"] = np.array(
                getattr(matrix_or_state, "p", matrix_or_state), dtype=float
            )
            hit["u_eps"] = breakdown.u_eps
            raise TargetReached
        return breakdown

    cost.evaluate = watched
    try:
        yield hit
    finally:
        del cost.evaluate


def check_schedule(run: Run, cost, matrix, u_eps: float) -> None:
    """Row-stochastic on the support, and ``U_eps`` recomputes."""
    run.expect(np.all(matrix >= 0.0), "negative transition probability")
    run.expect(
        np.allclose(matrix.sum(axis=1), 1.0, rtol=0.0, atol=1e-9),
        "rows do not sum to 1",
    )
    if cost.support is not None:
        run.expect(not np.any(matrix[~cost.support]),
                   "probability mass off the support")
    recomputed = cost.value(matrix)
    run.expect(
        np.isclose(recomputed, u_eps, rtol=1e-9, atol=0.0),
        f"U_eps {u_eps!r} at the target does not recompute "
        f"({recomputed!r})",
    )


def optimize_to_target(run: Run, label: str, cost, target: float,
                       call):
    """One time-to-target task: ``call()`` runs ``repro.optimize``.

    Returns the seconds to the target, or ``None`` if the task failed.
    """
    seconds = None
    with run.task(label):
        started = time.perf_counter()
        with run.in_process(), watch_target(cost, target, started) as hit:
            try:
                call()
            except TargetReached:
                pass
        run.expect("seconds" in hit,
                   f"U_eps never reached {target:g} before the optimizer "
                   "stopped")
        run.samples[label].append(hit["seconds"])
        run.work["iterations"] += hit["evaluations"]
        run.work["seconds"] += hit["seconds"]
        check_schedule(run, cost, hit["matrix"], hit["u_eps"])
        seconds = hit["seconds"]
    return seconds


class _OptimizeWorkload(Workload):
    def install(self, tracer, state) -> None:
        layers.wrap_core(tracer)

    def metrics(self, run: Run, state) -> dict:
        return {
            "time_to_target_s": (run.time_to_target(self.classes), "s"),
            "work_per_s": (
                run.work["iterations"] / run.work["seconds"],
                "iterations/s",
            ),
        }

    def layers(self, run: Run, state) -> dict:
        metrics = layers.span_metrics(run.tracer)
        metrics.update(layers.counter_metrics(run.counters))
        return metrics


#: Fixed ``U_eps`` targets of the paper topologies: 20% above the worst
#: best-so-far ``U_eps`` of 20 seeds after 200 perturbed iterations.
#: Every seed checked so far reaches them within 50 iterations.
PAPER_TARGETS = {1: 57.0, 2: 165.0, 3: 69.0, 4: 725.0}
#: The multi-start portfolio's uniform and damped starts begin at
#: 56.6; 48 takes 0.2-1.4 s of lockstep descent.
MULTISTART_TARGET = 48.0

#: Optimizer seeds come from a fixed panel of this many passes, shared
#: by every run (common random numbers).  Perturbed descent is
#: stochastic: between optimizer seeds, one task's time-to-target
#: spreads by 40-130% of its median (IQR), so seeds drawn per run put a
#: 30% spread between runs of identical code.  With one panel, runs
#: differ only in timing; ``--seed`` sets where in the panel a run
#: starts, and a run that gets through the panel goes round again.
PANEL_PASSES = 14
PANEL_SEED = 20100621


class PaperOpt(_OptimizeWorkload):
    """Perturbed descent on paper topologies 1-4 (default options) plus
    a 3-random-start lockstep multi-start on topology 1."""

    name = "paper-opt"
    classes = ("paper-1", "paper-2", "paper-3", "paper-4",
               "multistart-1")

    def setup(self, run: Run):
        import repro

        costs = {
            topology: repro.CoverageCost(
                repro.paper_topology(topology), repro.CostWeights()
            )
            for topology in PAPER_TARGETS
        }
        return {"costs": costs, "entries": {}}

    def run_pass(self, run: Run, state, index: int) -> None:
        import repro

        costs = state["costs"]
        entry = (run.seed + index) % PANEL_PASSES
        rng = np.random.default_rng([PANEL_SEED, entry])
        tasks = [
            (f"paper-{topology}", costs[topology], target,
             dict(method="perturbed"))
            for topology, target in PAPER_TARGETS.items()
        ]
        tasks.append((
            "multistart-1", costs[1], MULTISTART_TARGET,
            dict(method="multistart", execution="lockstep",
                 random_starts=3),
        ))
        for label, cost, target, kwargs in tasks:
            seed = int(rng.integers(2**31))
            with run.tag():
                seconds = optimize_to_target(
                    run, label, cost, target,
                    lambda: repro.optimize(cost, seed=seed, **kwargs),
                )
            if seconds is not None:
                state["entries"].setdefault((label, entry), []).append(
                    seconds
                )

    def metrics(self, run: Run, state) -> dict:
        """Per class, the mean over panel entries of each entry's mean
        time-to-target (entries a run repeated count once)."""
        metrics = super().metrics(run, state)
        total = 0.0
        for label in self.classes:
            means = [
                statistics.fmean(values)
                for (name, _), values in state["entries"].items()
                if name == label
            ]
            total += statistics.fmean(means) if means else math.nan
        metrics["time_to_target_s"] = (total, "s")
        return metrics


#: City-grid side -> (``U_eps`` target, iteration cap).  From the
#: support-masked uniform start, adaptive descent crosses 1.78e5 at
#: iteration 7 on 8x8 and 1.29e7 at iteration 9 on 16x16, for every
#: share draw checked (the trajectories agree to 1% that early).
CITYGRID_TARGETS = {8: (1.78e5, 200), 16: (1.29e7, 60)}

#: Dirichlet concentration of the seeded target shares: near uniform
#: (each share within about 10% of 1/M), so every seed's problem has
#: the same difficulty while the inputs still come from the seed.
SHARE_CONCENTRATION = 100.0


class CityGridOpt(_OptimizeWorkload):
    """Adaptive descent on city-grid 8x8 (M=64) and 16x16 (M=256) from
    ``uniform_matrix(M, support=cost.support)``, each to a fixed
    target."""

    name = "citygrid-opt"
    classes = ("citygrid-8x8", "citygrid-16x16")

    @staticmethod
    def build(side: int, seed: int):
        import repro

        topology = repro.city_grid_topology(
            side, side, dirichlet_alpha=SHARE_CONCENTRATION, seed=seed
        )
        return repro.CoverageCost(topology, repro.CostWeights())

    def setup(self, run: Run):
        for side in CITYGRID_TARGETS:
            self.build(side, run.seed)

    def run_pass(self, run: Run, state, index: int) -> None:
        import repro

        rng = run.pass_rng(index)
        for side, (target, cap) in CITYGRID_TARGETS.items():
            cost = self.build(side, int(rng.integers(2**31)))
            start = repro.uniform_matrix(cost.size, support=cost.support)
            with run.tag():
                optimize_to_target(
                    run, f"citygrid-{side}x{side}", cost, target,
                    lambda: repro.optimize(
                        cost, method="adaptive", initial=start,
                        options={"max_iterations": cap},
                    ),
                )
