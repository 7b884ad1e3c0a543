"""Which layer entry points the traced runs wrap, and the per-layer
metrics computed from the spans they record.

Every metric a workload does not exercise reads 0 (the "bypass"
workloads of ``perfbench/notes.json``).  Ratios are reported next to
their bases: ``core.perturbed.accept_ratio`` with
``core.perturbed.iterations``, ``service.queue.cache_hit_ratio`` with
``service.queue.submitted``, and so on.
"""

from __future__ import annotations


def _stack_size(cost, stack, *args, **kwargs):
    return {"matrices": len(stack)}


def _found_step(attrs, result, *args, **kwargs):
    attrs["found"] = int(result.step > 0.0)


def _accepted(attrs, result, walk, *args, **kwargs):
    attrs["accepted"] = int(walk.history[-1].accepted)


def _transitions(topology, matrix, transitions, *args, **kwargs):
    return {"transitions": int(transitions)}


def wrap_core(tracer) -> None:
    """Cost, state, gradient, line search and perturbed acceptance."""
    tracer.wrap("repro.core.cost:CoverageCost.batch_evaluate",
                "core.cost.batch_evaluate", measure=_stack_size)
    tracer.wrap("repro.core.cost:CoverageCost.build_state",
                "core.state.build_state")
    # Perturbed descent takes the raw gradient and projects it itself;
    # adaptive descent asks for the projected direction.
    tracer.wrap("repro.core.cost:CoverageCost.gradient", "core.gradient")
    tracer.wrap("repro.core.cost:CoverageCost.descent_direction",
                "core.gradient")
    for module in ("repro.core.perturbed", "repro.core.adaptive"):
        tracer.wrap(f"{module}:trisection_search", "core.linesearch",
                    after=_found_step)
    tracer.wrap("repro.core.perturbed:PerturbedWalk.complete_iteration",
                "core.perturbed.iteration", after=_accepted)


def wrap_simulation(tracer) -> None:
    """Topology geometry and the two vectorized simulators."""
    tracer.wrap("repro.topology.model:Topology.passby", "topology.passby")
    tracer.wrap("repro.topology.model:Topology.chord_table",
                "topology.chord_table")
    tracer.wrap(
        "repro.simulation.vectorized:simulate_schedule_vectorized",
        "simulation.single", measure=_transitions,
    )
    tracer.wrap("repro.multisensor.vectorized:simulate_team_vectorized",
                "multisensor.team")


def wrap_service(tracer) -> None:
    """Store reads and writes, request digests, checkpoint saves."""
    tracer.wrap("repro.service.store:ResultStore.get",
                "service.store.get")
    tracer.wrap("repro.service.store:ResultStore.put",
                "service.store.put", after=_record_bytes)
    tracer.wrap("repro.service.runner:request_digest",
                "service.requests.digest")
    tracer.wrap("repro.service.runner:JobCheckpoint.save",
                "service.checkpoint.save")
    tracer.wrap("repro.sweep.stream:ShardWriter.write_record",
                "sweep.write_record")


def _record_bytes(attrs, path, *args, **kwargs):
    attrs["bytes"] = path.stat().st_size


def install_worker(tracer) -> None:
    """What a traced process worker wraps (module-level: pickles by
    reference)."""
    wrap_core(tracer)
    wrap_simulation(tracer)
    wrap_service(tracer)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(tracer) -> dict:
    """Per-layer metrics read from the recorded spans."""
    totals = tracer.layer_totals()

    def count(name):
        return totals.get(name, (0, 0.0, {}))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, {}))[1]

    def attr(name, key):
        return totals.get(name, (0, 0.0, {}))[2].get(key, 0)

    batch_calls = count("core.cost.batch_evaluate")
    search_calls = count("core.linesearch")
    search_batches, search_attrs = tracer.children_of(
        "core.linesearch", "core.cost.batch_evaluate"
    )
    steps_found = attr("core.linesearch", "found")
    iterations = count("core.perturbed.iteration")
    accepted = attr("core.perturbed.iteration", "accepted")
    transitions = attr("simulation.single", "transitions")
    return {
        "core.cost.batch_calls": batch_calls,
        "core.cost.batch_matrices": attr(
            "core.cost.batch_evaluate", "matrices"
        ),
        "core.cost.batch_s": seconds("core.cost.batch_evaluate"),
        "core.cost.us_per_batch_call": 1e6 * _ratio(
            seconds("core.cost.batch_evaluate"), batch_calls
        ),
        "core.linesearch.calls": search_calls,
        "core.linesearch.calls_per_iteration": _ratio(
            search_batches, search_calls
        ),
        "core.linesearch.steps_found": steps_found,
        "core.linesearch.probes_per_accepted_step": _ratio(
            search_attrs.get("matrices", 0), steps_found
        ),
        "core.perturbed.iterations": iterations,
        "core.perturbed.accept_ratio": _ratio(accepted, iterations),
        "core.state.builds": count("core.state.build_state"),
        "core.state.build_s": seconds("core.state.build_state"),
        "core.gradient.calls": count("core.gradient"),
        "core.gradient.s": seconds("core.gradient"),
        "topology.passby_builds": count("topology.passby"),
        "topology.passby_s": seconds("topology.passby"),
        "topology.chord_s": seconds("topology.chord_table"),
        "simulation.transitions": transitions,
        "simulation.s_per_1e5_transitions": 1e5 * _ratio(
            seconds("simulation.single"), transitions
        ),
        "multisensor.team_runs": count("multisensor.team"),
        "multisensor.team_s": seconds("multisensor.team"),
        "service.store.gets": count("service.store.get"),
        "service.store.get_s": seconds("service.store.get"),
        "service.store.puts": count("service.store.put"),
        "service.store.put_s": seconds("service.store.put"),
        "service.store.bytes": attr("service.store.put", "bytes"),
        "service.requests.digest_s": seconds("service.requests.digest"),
        "service.checkpoint.saves": count("service.checkpoint.save"),
        "service.checkpoint.save_s": seconds("service.checkpoint.save"),
        "sweep.records": count("sweep.write_record"),
        "sweep.write_s": seconds("sweep.write_record"),
    }


def counter_metrics(counters) -> dict:
    """In-process :class:`~repro.utils.perf.PerfCounters` tallies.

    Only in-process work lands here: ``perf_scope`` is never open
    around a process-backend fan-out (see ``perfbench/notes.json``).
    """
    return {
        "core.state.factorizations": counters.factorizations,
        "markov.sparse.factorizations": counters.sparse_factorizations,
        "markov.incremental.updates": counters.incremental_updates,
        "markov.incremental.refactorizations":
            counters.incremental_refactorizations,
    }


def exec_metrics(timings, workers: int) -> dict:
    """Pool accounting from the public ``Executor.timings``."""
    return {
        "exec.tasks": timings.tasks,
        "exec.task_s": timings.task_seconds,
        "exec.max_task_s": timings.max_task_seconds,
        "exec.wait_s": max(
            timings.wall_seconds * workers - timings.task_seconds, 0.0
        ),
        "exec.dispatch_bytes": timings.dispatch_bytes,
        "exec.dispatch_s": timings.dispatch_seconds,
        "exec.result_bytes": timings.result_bytes,
    }


def queue_metrics(stats) -> dict:
    """Service counters (``ServiceStats``)."""
    return {
        "service.queue.submitted": stats.submitted,
        "service.queue.cache_hit_ratio": _ratio(
            stats.cache_hits, stats.submitted
        ),
        "service.queue.fan_in_joins": stats.fan_in_joins,
        "service.queue.computed_per_submitted": _ratio(
            stats.computed, stats.submitted
        ),
    }
