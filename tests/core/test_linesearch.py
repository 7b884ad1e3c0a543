"""Tests for repro.core.linesearch."""

import numpy as np
import pytest

from repro.core.linesearch import (
    LineSearchResult,
    feasible_step_bound,
    trisection_search,
)


class TestFeasibleStepBound:
    def test_zero_direction(self):
        assert feasible_step_bound(
            np.full((2, 2), 0.5), np.zeros((2, 2))
        ) == 0.0

    def test_bound_keeps_feasible(self, rng):
        matrix = rng.dirichlet(np.ones(4), size=4)
        direction = rng.normal(size=(4, 4))
        direction -= direction.mean(axis=1, keepdims=True)
        bound = feasible_step_bound(matrix, direction)
        stepped = matrix + bound * direction
        assert stepped.min() >= -1e-12
        assert stepped.max() <= 1.0 + 1e-12

    def test_strictly_less_than_boundary_hit(self):
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        direction = np.array([[0.5, -0.5], [0.0, 0.0]])
        bound = feasible_step_bound(matrix, direction)
        assert bound < 1.0
        assert bound == pytest.approx(1.0, rel=1e-6)


class TestTrisectionSearch:
    def test_finds_quadratic_minimum(self):
        result = trisection_search(
            lambda d: (d - 0.3) ** 2, upper=1.0, rounds=50
        )
        assert result.step == pytest.approx(0.3, abs=1e-4)

    def test_reports_zero_when_increasing(self):
        result = trisection_search(lambda d: 1.0 + d, upper=1.0)
        assert result.step == 0.0

    def test_zero_upper_short_circuits(self):
        result = trisection_search(lambda d: d, upper=0.0, baseline=5.0)
        assert result.step == 0.0
        assert result.evaluations == 0

    @pytest.mark.parametrize("upper", [float("nan"), float("inf")])
    def test_nonfinite_upper_short_circuits(self, upper):
        """A NaN or infinite bound finishes at once, like ``upper <= 0``:
        no probe is evaluated and the reported bound is 0."""
        calls = []

        def batch(steps):
            calls.append(np.asarray(steps).size)
            return (np.asarray(steps) - 0.3) ** 2

        result = trisection_search(
            upper=upper, baseline=1.0, batch_objective=batch
        )
        assert result.step == 0.0
        assert result.value == 1.0
        assert result.evaluations == 0
        assert result.step_bound == 0.0
        assert calls == []

    def test_infinite_baseline_short_circuits(self):
        result = trisection_search(
            lambda d: d, upper=1.0, baseline=float("inf")
        )
        assert result.step == 0.0

    def test_geometric_probes_find_tiny_minimum(self):
        """A minimum many decades below the bound is still found."""
        def objective(d):
            return (np.log10(max(d, 1e-300)) + 8.0) ** 2 if d > 0 else 4.0

        result = trisection_search(
            objective, upper=1.0, baseline=4.0, geometric_decades=12
        )
        assert result.step == pytest.approx(1e-8, rel=0.5)

    def test_failures_map_to_inf(self):
        def objective(d):
            if d > 0.5:
                raise ValueError("boom")
            return 1.0 - d

        result = trisection_search(objective, upper=1.0, baseline=1.0)
        assert 0 < result.step <= 0.5

    def test_nan_treated_as_inf(self):
        result = trisection_search(
            lambda d: float("nan") if d > 0 else 1.0,
            upper=1.0, baseline=1.0,
        )
        assert result.step == 0.0

    def test_baseline_computed_when_missing(self):
        calls = []

        def objective(d):
            calls.append(d)
            return (d - 0.2) ** 2

        result = trisection_search(objective, upper=1.0)
        assert 0.0 in calls
        assert result.step == pytest.approx(0.2, abs=1e-3)

    def test_batch_objective_used(self):
        batch_calls = []

        def batch(steps):
            batch_calls.append(len(steps))
            return (np.asarray(steps) - 0.4) ** 2

        result = trisection_search(
            upper=1.0, baseline=0.16, batch_objective=batch
        )
        assert batch_calls, "batch objective was never called"
        assert result.step == pytest.approx(0.4, abs=1e-3)

    def test_requires_some_objective(self):
        with pytest.raises(ValueError, match="objective"):
            trisection_search(upper=1.0, baseline=1.0)

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            trisection_search(lambda d: d, upper=1.0, rounds=0)

    def test_rejects_negative_decades(self):
        with pytest.raises(ValueError, match="geometric_decades"):
            trisection_search(
                lambda d: d, upper=1.0, geometric_decades=-1
            )

    def test_improvement_threshold(self):
        """Improvements below rtol are reported as no step."""
        result = trisection_search(
            lambda d: 1.0 - 1e-15 * d, upper=1.0, baseline=1.0,
            improvement_rtol=1e-9,
        )
        assert result.step == 0.0

    def test_result_dataclass_fields(self):
        result = trisection_search(
            lambda d: (d - 0.5) ** 2, upper=2.0
        )
        assert isinstance(result, LineSearchResult)
        assert result.step_bound == 2.0
        assert result.evaluations > 0
