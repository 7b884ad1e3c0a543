"""Speculative trisection and the fused barrier kernel, bit for bit.

Four layers, each pinned exactly (byte equality, not ``allclose``):

* :meth:`~repro.core.penalty.BarrierPenalty.row_sums` — every row equals
  ``elementwise_value(row).sum()`` at the band edges and under
  hypothesis, and the batch path leaves infeasible rows at 0;
* :meth:`~repro.core.cost.CoverageCost.batch_evaluate` treats stack
  members independently — the property the speculative tree and
  :class:`~repro.core.cost.MultiRayBatch` both rest on;
* :meth:`~repro.core.linesearch.TrisectionState.plan_rounds` /
  :meth:`~repro.core.linesearch.TrisectionState.replay_rounds` at every
  depth reproduce the round-by-round search on adversarial objectives;
* whole optimizer runs at a pinned depth > 1 equal the depth-1 runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CostWeights, CoverageCost, PerturbedOptions
from repro.core import cost as cost_module
from repro.core.initializers import dirichlet_matrix, uniform_matrix
from repro.core.linesearch import (
    TrisectionState,
    feasible_step_bound,
    trisection_search,
)
from repro.core.lockstep import lockstep_multistart
from repro.core.penalty import BarrierPenalty
from repro.utils import perf

from tests.conftest import random_zero_rowsum_direction

EPS = 1e-4
#: Band edges and their neighbours: zero, denormals, both band edges
#: and the ulps around them, the interior, and one.
EDGES = np.array([
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, EPS / 2,
    np.nextafter(EPS, 0.0), EPS, np.nextafter(EPS, 1.0), 0.5,
    np.nextafter(1.0 - EPS, 0.0), 1.0 - EPS, np.nextafter(1.0 - EPS, 1.0),
    1.0 - EPS / 2, np.nextafter(1.0, 0.0), 1.0,
])


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _pin_depth(monkeypatch, depth: int) -> None:
    monkeypatch.setattr(
        cost_module, "_speculation_depth", lambda linalg, size: depth
    )


# ---------------------------------------------------------------------- #
# Fused barrier kernel
# ---------------------------------------------------------------------- #


class TestBarrierRowSums:
    def _assert_rows_match(self, barrier, rows):
        sums = barrier.row_sums(rows)
        assert sums.shape == (len(rows),)
        for row, total in zip(rows, sums):
            assert _bits(total) == _bits(barrier.elementwise_value(row).sum())

    @pytest.mark.parametrize("shape", [(3, 3), (9,), (4, 4), (12,)])
    def test_enumerated_band_edges(self, rng, shape):
        barrier = BarrierPenalty(epsilon=EPS)
        rows = rng.choice(EDGES, size=(200, *shape))
        self._assert_rows_match(barrier, rows)

    def test_every_edge_alone(self):
        barrier = BarrierPenalty(epsilon=EPS)
        rows = np.full((len(EDGES), 5), 0.5)
        rows[:, 2] = EDGES
        self._assert_rows_match(barrier, rows)

    def test_empty_stack(self):
        barrier = BarrierPenalty(epsilon=EPS)
        assert barrier.row_sums(np.zeros((0, 3, 3))).shape == (0,)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1e-4, 1e-2, 0.25]),
        st.data(),
    )
    def test_hypothesis_rows(self, k, n, epsilon, data):
        barrier = BarrierPenalty(epsilon=epsilon)
        entry = st.one_of(
            st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
            st.floats(min_value=0.0, max_value=2.0 * epsilon),
            st.floats(min_value=1.0 - 2.0 * epsilon, max_value=1.0),
            st.sampled_from(list(EDGES)),
        )
        values = data.draw(st.lists(entry, min_size=k * n, max_size=k * n))
        self._assert_rows_match(barrier, np.reshape(values, (k, n)))

    @pytest.mark.parametrize("masked", [False, True])
    def test_batch_penalties_match_and_skip_infeasible_rows(
        self, rng, masked
    ):
        topology = (
            repro.city_grid_topology(3, 3, seed=2) if masked
            else repro.paper_topology(4)
        )
        cost = CoverageCost(topology, CostWeights(epsilon=EPS))
        support = cost.support
        size = cost.size
        stack = rng.choice(EDGES, size=(40, size, size))
        if support is not None:
            stack[:, ~support] = 0.0
        # Rows flagged infeasible carry entries outside [0, 1]: the
        # kernel must never see them, and their penalty stays 0.
        ok = rng.random(40) < 0.6
        stack[~ok, 0, 0] = -0.5
        stack[~ok, -1, -1] = 1.5
        penalty = cost._batch_penalties(stack, ok)
        barrier = BarrierPenalty(epsilon=EPS)
        for index in range(40):
            if not ok[index]:
                assert _bits(penalty[index]) == _bits(0.0)
                continue
            entries = (
                stack[index] if support is None else stack[index][support]
            )
            assert _bits(penalty[index]) == _bits(
                barrier.elementwise_value(entries).sum()
            )


# ---------------------------------------------------------------------- #
# Batch-composition independence
# ---------------------------------------------------------------------- #


def _dense_members(cost, rng):
    """Feasible and infeasible probes for a dense paper topology."""
    size = cost.size
    feasible = [dirichlet_matrix(size, floor=0.02, seed=rng)
                for _ in range(6)]
    near_edge = dirichlet_matrix(size, floor=0.0, seed=rng)
    near_edge[0] = 0.0
    near_edge[0, 1] = 1.0 - EPS / 3
    near_edge[0, 0] = EPS / 3
    negative = dirichlet_matrix(size, floor=0.02, seed=rng)
    negative[0, 1] -= 1.0
    negative[0, 0] += 1.0
    above = dirichlet_matrix(size, floor=0.02, seed=rng)
    above[1, 0] = 1.5
    absorbing = np.eye(size)  # singular stationary system
    return feasible + [near_edge], [negative, above, absorbing]


def _sparse_members(cost, rng):
    """Feasible and infeasible probes on a support-masked topology."""
    base = uniform_matrix(cost.size, support=cost.support)
    feasible = []
    for _ in range(6):
        direction = cost.project(rng.normal(size=base.shape))
        bound = feasible_step_bound(base, direction)
        feasible.append(base + rng.uniform(0.1, 0.9) * bound * direction)
    off_support = base.copy()
    row, col = np.argwhere(~cost.support)[0]
    off_support[row, col] = 0.1
    off_support[row, np.nonzero(cost.support[row])[0][0]] -= 0.1
    negative = base.copy()
    cols = np.nonzero(cost.support[0])[0]
    negative[0, cols[0]] -= 1.0
    negative[0, cols[1]] += 1.0
    return feasible, [off_support, negative]


def _member_bytes(result, index):
    values, pis, zs, ok = result
    parts = [values[index], pis[index], ok[index]]
    if zs is not None:
        parts.append(zs[index])
    return [np.asarray(part).tobytes() for part in parts]


def _stacks(members, target, sizes):
    """``(position, stack)`` with ``members[target]`` at the start,
    middle and end of stacks of each size; the other members, infeasible
    ones included, fill the rest."""
    others = [m for i, m in enumerate(members) if i != target]
    for size in sizes:
        for position in sorted({0, size // 2, size - 1}):
            stack = [others[(position + j) % len(others)]
                     for j in range(size)]
            stack[position] = members[target]
            yield position, np.stack(stack)


class TestBatchCompositionIndependence:
    @pytest.mark.parametrize("topology", [1, 2, 3, 4])
    def test_dense_member_equals_its_solo_result(self, topology):
        cost = CoverageCost(repro.paper_topology(topology), CostWeights())
        assert cost.resolved_linalg == "dense"
        feasible, infeasible = _dense_members(
            cost, np.random.default_rng(7)
        )
        members = feasible + infeasible
        for target, member in enumerate(members):
            solo = _member_bytes(cost.batch_evaluate(member[None]), 0)
            for position, stack in _stacks(
                members, target, (2, 14, 30, 62)
            ):
                fused = cost.batch_evaluate(stack)
                assert _member_bytes(fused, position) == solo, (
                    target, len(stack), position
                )

    def test_sparse_citygrid_fresh_solves_are_independent(self):
        """City-grid 8x8 (sparse): the stationary solve refines each
        probe against the factorization of an earlier feasible probe of
        the same stack (``SparseStationaryTemplate.solve_batch``), so
        only a stack's first feasible member is solved exactly as alone;
        the others agree to the refinement tolerance.  That is why the
        sparse path keeps one trisection round per call."""
        cost = CoverageCost(
            repro.city_grid_topology(8, 8, seed=1), CostWeights()
        )
        assert cost.resolved_linalg == "sparse"
        assert cost_module._speculation_depth(
            cost.resolved_linalg, cost.size
        ) == 1
        feasible, infeasible = _sparse_members(
            cost, np.random.default_rng(7)
        )
        members = feasible + infeasible
        for target, member in enumerate(members):
            values, pis, zs, ok = cost.batch_evaluate(member[None])
            assert zs is None
            for position, stack in _stacks(members, target, (2, 14, 30)):
                fused = cost.batch_evaluate(stack)
                assert fused[3][position] == ok[0]
                first_feasible = not fused[3][:position].any()
                if first_feasible or not ok[0]:
                    assert _member_bytes(fused, position) == (
                        _member_bytes((values, pis, zs, ok), 0)
                    )
                else:
                    np.testing.assert_allclose(
                        fused[0][position], values[0], rtol=1e-9
                    )
        # Behind 61 infeasible neighbours a feasible probe is solved
        # fresh, so it is bit-equal to its solo result.
        stack = np.stack([infeasible[j % 2] for j in range(61)]
                         + [feasible[0]])
        fused = cost.batch_evaluate(stack)
        assert not fused[3][:61].any()
        assert _member_bytes(fused, 61) == _member_bytes(
            cost.batch_evaluate(feasible[0][None]), 0
        )


# ---------------------------------------------------------------------- #
# Tree planning and replay
# ---------------------------------------------------------------------- #


def _sanitized(values) -> np.ndarray:
    with np.errstate(all="ignore"):
        values = np.asarray(values, dtype=float)
    values[~np.isfinite(values)] = np.inf
    return values


def _round_by_round(objective, **kwargs):
    """The reference: one ``round_steps``/``observe_round`` per round."""
    search = TrisectionState(**kwargs)
    pairs = []
    probes = search.sweep_steps()
    if probes is not None:
        search.observe_sweep(_sanitized(objective(probes)))
        while True:
            pair = search.round_steps()
            if pair is None:
                break
            v1, v2 = _sanitized(objective(pair))
            search.observe_round(v1, v2)
            pairs.append(pair.tobytes())
    return search.result(), pairs, search._rounds_left


def _speculative(objective, depth, **kwargs):
    """Plan/replay at ``depth``; also reports every planned tree size."""
    search = TrisectionState(**kwargs)
    pairs, sizes = [], []
    probes = search.sweep_steps()
    if probes is not None:
        search.observe_sweep(_sanitized(objective(probes)))
        while True:
            steps = search.plan_rounds(depth)
            if steps is None:
                break
            sizes.append(steps.size)
            for offset in search.replay_rounds(
                _sanitized(objective(steps))
            ):
                pairs.append(steps[offset:offset + 2].tobytes())
    return search.result(), pairs, search._rounds_left, sizes, search


def _assert_same_search(objective, depth, **kwargs):
    reference, ref_pairs, ref_left = _round_by_round(objective, **kwargs)
    result, pairs, left, sizes, search = _speculative(
        objective, depth, **kwargs
    )
    assert _bits(result.step) == _bits(reference.step)
    assert _bits(result.value) == _bits(reference.value)
    assert result.evaluations == reference.evaluations
    assert _bits(result.step_bound) == _bits(reference.step_bound)
    assert pairs == ref_pairs
    assert left == ref_left
    assert search.wasted_probes == sum(sizes) - 2 * len(pairs)
    return sizes


def _quadratic(steps):
    return (np.asarray(steps) - 0.3) ** 2 + 1.0


def _ties(steps):
    return np.ones_like(np.asarray(steps, dtype=float))


def _plateaus(steps):
    return np.floor(np.asarray(steps) * 8.0) / 8.0 + 0.5


def _inf_holes(steps):
    steps = np.asarray(steps, dtype=float)
    with np.errstate(all="ignore"):
        values = (steps - 0.37) ** 2
        values[np.sin(steps * 977.0) > 0.3] = np.inf
        values[np.cos(steps * 311.0) > 0.8] = np.nan
    return values


def _wiggly(steps):
    steps = np.asarray(steps, dtype=float)
    return np.sin(41.0 * steps) * np.exp(-steps) + steps


OBJECTIVES = {
    "quadratic": _quadratic,
    "ties": _ties,
    "plateaus": _plateaus,
    "inf-holes": _inf_holes,
    "wiggly": _wiggly,
}


class TestTreeReplay:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @pytest.mark.parametrize("rounds", [1, 7, 10, 40])
    def test_matches_round_by_round(self, depth, name, rounds):
        _assert_same_search(
            OBJECTIVES[name], depth, upper=1.0, baseline=2.0,
            rounds=rounds, geometric_decades=6,
        )

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_width_tolerance_inside_a_tree(self, depth):
        """A tiny bound reaches the width tolerance mid-tree: the branch
        ends there, and the truncated tree still replays exactly."""
        truncated = False
        for upper in np.geomspace(1e-14, 1e-11, 13):
            sizes = _assert_same_search(
                _wiggly, depth, upper=upper, baseline=5.0, rounds=40,
                geometric_decades=3,
            )
            full = 2 ** (depth + 1) - 2
            truncated |= any(0 < size < full for size in sizes)
        assert truncated

    def test_full_tree_layout(self):
        search = TrisectionState(upper=1.0, baseline=2.0, rounds=40)
        search.observe_sweep(_quadratic(search.sweep_steps()))
        lo, hi = search._lo, search._hi
        tree = search.plan_rounds(3)
        assert tree.size == 2 ** 4 - 2
        width = hi - lo
        assert tree[0] == lo + width / 3.0
        assert tree[1] == hi - width / 3.0
        # Node 1 keeps [lo, m2]; node 2 keeps [m1, hi].
        left = tree[1] - lo
        assert tree[2] == lo + left / 3.0
        assert tree[3] == tree[1] - left / 3.0
        right = hi - tree[0]
        assert tree[4] == tree[0] + right / 3.0
        assert tree[5] == hi - right / 3.0

    def test_depth_one_plan_is_round_steps(self):
        planned = TrisectionState(upper=1.0, baseline=2.0, rounds=5)
        stepped = TrisectionState(upper=1.0, baseline=2.0, rounds=5)
        for search in (planned, stepped):
            search.observe_sweep(_quadratic(search.sweep_steps()))
        assert planned.plan_rounds(1).tobytes() == (
            stepped.round_steps().tobytes()
        )

    def test_rounds_budget_cuts_the_tree(self):
        search = TrisectionState(upper=1.0, baseline=2.0, rounds=2)
        search.observe_sweep(_quadratic(search.sweep_steps()))
        assert search.plan_rounds(4).size == 2 ** 3 - 2

    def test_rejects_bad_depth(self):
        search = TrisectionState(upper=1.0, baseline=2.0)
        with pytest.raises(ValueError, match="depth"):
            search.plan_rounds(0)

    def test_replay_requires_plan(self):
        search = TrisectionState(upper=1.0, baseline=2.0)
        search.observe_sweep(_quadratic(search.sweep_steps()))
        with pytest.raises(RuntimeError, match="plan_rounds"):
            search.replay_rounds(np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=15),
        st.floats(min_value=1e-14, max_value=1e3),
        st.lists(st.floats(min_value=-3.0, max_value=3.0),
                 min_size=3, max_size=3),
    )
    def test_hypothesis_objectives(self, depth, rounds, upper, coeffs):
        a, b, c = coeffs

        def objective(steps):
            x = np.asarray(steps) / upper
            return a * x * x + b * np.sin(7.0 * x) + c * x

        _assert_same_search(
            objective, depth, upper=upper, baseline=0.1, rounds=rounds,
            geometric_decades=4,
        )

    def test_snapshot_between_plan_and_replay(self):
        search = TrisectionState(upper=1.0, baseline=2.0, rounds=11)
        search.observe_sweep(_wiggly(search.sweep_steps()))
        tree = search.plan_rounds(3)
        restored = TrisectionState.restore(
            json.loads(json.dumps(search.snapshot()))
        )
        values = _wiggly(tree)
        assert search.replay_rounds(values) == (
            restored.replay_rounds(values)
        )
        assert search.snapshot() == restored.snapshot()


class TestTrisectionSearchSpeculation:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_ray_batch_counts(self, monkeypatch, cost_both, rng, depth):
        """Realized probes are the search's ``evaluations``; everything
        else the batch calls covered is ``wasted_probes``."""
        _pin_depth(monkeypatch, depth)
        matrix = dirichlet_matrix(cost_both.size, floor=0.02, seed=rng)
        direction = random_zero_rowsum_direction(rng, cost_both.size)
        bound = feasible_step_bound(matrix, direction)
        ray = cost_both.ray_batch(matrix, direction)
        assert ray.speculation_depth == depth
        with perf.perf_scope() as counters:
            result = trisection_search(
                upper=bound, baseline=cost_both.value(matrix),
                batch_objective=ray,
            )
        assert counters.batch_matrices == (
            result.evaluations + counters.wasted_probes
        )
        rounds = (result.evaluations - 13) // 2
        assert counters.batch_calls == 1 + -(-rounds // depth)
        if depth == 1:
            assert counters.wasted_probes == 0

    def test_plain_callables_run_one_round_per_call(self):
        calls = []

        def batch(steps):
            calls.append(np.asarray(steps).size)
            return _quadratic(steps)

        trisection_search(upper=1.0, baseline=2.0, batch_objective=batch)
        assert calls[0] == 13
        assert set(calls[1:]) == {2}

    def test_default_depth_rule(self):
        depth = cost_module._speculation_depth
        assert depth("sparse", 4) == 1
        assert depth("dense", 4) == 4
        assert depth("dense", 9) == 4
        assert depth("dense", 16) == 3
        assert depth("dense", 30) == 2
        assert depth("dense", 64) == 1


# ---------------------------------------------------------------------- #
# Whole runs: depth > 1 equals depth 1
# ---------------------------------------------------------------------- #


def _run_fingerprint(run):
    perf = run.perf
    return {
        "matrix": run.matrix.tobytes(),
        "best": run.best_matrix.tobytes()
        if run.best_matrix is not None else None,
        "u_eps": _bits(run.u_eps),
        "history": run.history,
        "iterations": run.iterations,
        "stop": run.stop_reason,
        "states_reused": perf.states_reused,
        "accept_factorizations": perf.accept_factorizations,
        "accepted_steps": perf.accepted_steps,
        "factorizations": perf.factorizations,
    }


def _runs(cost, depth, monkeypatch):
    _pin_depth(monkeypatch, depth)
    perturbed = repro.optimize(
        cost, method="perturbed", seed=3,
        options={"max_iterations": 12, "stall_limit": 100},
    )
    adaptive = repro.optimize(
        cost, method="adaptive", seed=3, options={"max_iterations": 12}
    )
    lockstep = lockstep_multistart(
        cost, random_starts=2, seed=4,
        options=PerturbedOptions(max_iterations=6, stall_limit=100),
    )
    return [perturbed, adaptive, *lockstep.runs]


class TestDepthInvariance:
    @pytest.mark.parametrize("topology", [1, 2, 3, 4])
    def test_runs_bit_identical_across_depths(self, monkeypatch, topology):
        cost = CoverageCost(repro.paper_topology(topology), CostWeights())
        reference = _runs(cost, 1, monkeypatch)
        for run in reference:
            assert run.perf.wasted_probes == 0
        for depth in (2, 4):
            runs = _runs(cost, depth, monkeypatch)
            for base, run in zip(reference, runs):
                assert _run_fingerprint(run) == _run_fingerprint(base)
                # Same realized probes; the extra matrices are exactly
                # the speculative ones, in fewer calls.
                assert run.perf.batch_matrices == (
                    base.perf.batch_matrices + run.perf.wasted_probes
                )
                assert run.perf.batch_calls < base.perf.batch_calls
