#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the metrics.

From the repository root::

    python3 perfbench/run.py --workload paper-opt --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reruns the same inputs with spans recorded around every
layer's entry points and reports the per-layer metrics, writing the
spans to ``perfbench/out/trace-<workload>-seed<seed>.json`` (Chrome
trace-event JSON).  ``--workload all`` runs every workload untraced and
traced in child processes, prints every metric by name and unit, and
writes ``perfbench/out/summary.json`` with the machine stamp.  Every
mode prints one JSON result object as its last line and exits non-zero
when an output check failed.  The workloads, their reasons and the
layer-to-metric predictions are recorded in ``perfbench/notes.json``.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# One BLAS thread in every measured process, set before numpy loads:
# on 2 cores, default BLAS threads inside 2 workers oversubscribe the
# CPU (spawned workers inherit the environment).
for _variable in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

WORKLOADS = {
    "paper-opt": "perfbench.optimize_workloads:PaperOpt",
    "citygrid-opt": "perfbench.optimize_workloads:CityGridOpt",
    "sim-fanout": "perfbench.sim_fanout:SimFanout",
    "jobs": "perfbench.jobs:Jobs",
}


def _load(name: str):
    import importlib

    module_name, _, class_name = WORKLOADS[name].partition(":")
    return getattr(importlib.import_module(module_name), class_name)()


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run_one(args, spec) -> int:
    from perfbench.common import Run, execute, report, write_trace

    workload = _load(args.workload)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    named = execute(workload, run, STARTED)
    if run.traced:
        print(f"# spans written to {write_trace(run)}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = report(run, named, end_to_end, per_layer)
    return 0 if result["correct"] else 1


def _setup_probe(args) -> int:
    from perfbench.common import Run

    workload = _load(args.setup_probe)
    run = Run(args.setup_probe, args.seed, 0.0, False)
    try:
        state = workload.setup(run)
        elapsed = time.perf_counter() - STARTED
        if state is not None:
            workload.teardown(state)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(elapsed)
    return 0


def _run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in a child process."""
    from perfbench import OUT_DIR
    from perfbench.common import machine_stamp

    summary = {"machine": machine_stamp(), "seed": args.seed,
               "seconds": args.seconds, "runs": {}}
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=600
            )
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            summary["runs"][f"{name}/trace{trace}"] = {
                "result": result,
                "report": lines[:-1],
            }
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}.{metric}"] = entry
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2)
    print(f"# machine {json.dumps(summary['machine'])}")
    print(f"# summary written to {OUT_DIR / 'summary.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    from perfbench.procs import adopt_orphans, stop_children

    adopt_orphans()
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=list(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import OUT_DIR

    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT_DIR / "tmp")
    if args.setup_probe:
        return _setup_probe(args)
    if args.workload is None:
        parser.error("--workload is required")
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return _run_all(args, spec)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
