"""Tests for the pluggable execution backends (repro.exec)."""

import pytest

from repro.exec import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_executor,
    get_executor,
    resolve_executor,
    set_default_executor,
    using_executor,
)
from repro.utils.perf import perf_scope


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("task three failed")
    return x


class TestSerialExecutor:
    def test_map_preserves_order(self):
        with SerialExecutor() as executor:
            assert executor.map(_square, range(6)) == [
                0, 1, 4, 9, 16, 25,
            ]

    def test_map_empty(self):
        with SerialExecutor() as executor:
            assert executor.map(_square, []) == []

    def test_errors_propagate(self):
        with SerialExecutor() as executor:
            with pytest.raises(RuntimeError, match="task three"):
                executor.map(_fail_on_three, range(6))

    def test_timings_recorded(self):
        with SerialExecutor() as executor:
            executor.map(_square, range(4))
            assert executor.timings.tasks == 4
            assert executor.timings.task_seconds >= 0.0
            assert executor.timings.wall_seconds > 0.0


@pytest.mark.parametrize(
    "factory", [ThreadExecutor, ProcessExecutor],
    ids=["thread", "process"],
)
class TestPoolExecutors:
    def test_map_preserves_order(self, factory):
        with factory(jobs=2) as executor:
            assert executor.map(_square, range(8)) == [
                x * x for x in range(8)
            ]

    def test_errors_propagate(self, factory):
        with factory(jobs=2) as executor:
            with pytest.raises(RuntimeError, match="task three"):
                executor.map(_fail_on_three, range(6))

    def test_pool_reused_across_maps(self, factory):
        with factory(jobs=2) as executor:
            executor.map(_square, range(3))
            pool = executor._pool
            executor.map(_square, range(3))
            assert executor._pool is pool
            assert executor.timings.tasks == 6

    def test_close_is_idempotent(self, factory):
        executor = factory(jobs=1)
        executor.map(_square, [1])
        executor.close()
        executor.close()


class TestPerfScope:
    def test_process_map_inside_perf_scope(self):
        """A process fan-out counts result bytes into an open scope."""
        with perf_scope() as counters:
            with ProcessExecutor(jobs=2) as executor:
                assert executor.map(_square, range(4)) == [0, 1, 4, 9]
                collected = executor.timings.result_bytes
        assert collected > 0
        assert counters.result_bytes == collected
        assert counters.dispatch_bytes == executor.timings.dispatch_bytes


class TestFactoryAndDefaults:
    def test_get_executor_backends(self):
        assert BACKENDS == ("serial", "thread", "process")
        for backend, cls in zip(
            BACKENDS, (SerialExecutor, ThreadExecutor, ProcessExecutor)
        ):
            executor = get_executor(backend, jobs=1)
            try:
                assert type(executor) is cls
                assert executor.name == backend
            finally:
                executor.close()

    def test_get_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SerialExecutor(jobs=0)

    def test_default_is_serial(self):
        assert isinstance(default_executor(), SerialExecutor)

    def test_resolve_passthrough_and_names(self):
        with SerialExecutor() as mine:
            assert resolve_executor(mine) is mine
        named = resolve_executor("thread", jobs=1)
        try:
            assert isinstance(named, ThreadExecutor)
        finally:
            named.close()
        assert isinstance(resolve_executor(None), Executor)

    def test_using_executor_scopes_default(self):
        before = default_executor()
        with using_executor("thread", jobs=1) as scoped:
            assert default_executor() is scoped
            assert isinstance(scoped, ThreadExecutor)
        assert default_executor() is before

    def test_using_executor_accepts_instance(self):
        with SerialExecutor() as mine:
            with using_executor(mine) as scoped:
                assert scoped is mine
                assert resolve_executor(None) is mine

    def test_set_default_returns_previous(self):
        previous = set_default_executor(None)
        try:
            with SerialExecutor() as mine:
                assert set_default_executor(mine) is None
                assert default_executor() is mine
        finally:
            set_default_executor(previous)
