"""End-to-end, layer-by-layer benchmark of the repro package.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and layer predictions are described in
``perfbench/notes.json`` and ``BENCHMARK.json``.
"""

import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Everything a run writes (stores, sweep shards, trace files) lives
#: here, inside the checkout.
OUT_DIR = BENCH_DIR / "out"
