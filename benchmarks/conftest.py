"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures through
:mod:`repro.bench.experiments`, records the wall-clock via pytest-benchmark
(one round — these are experiments, not micro-kernels), prints the
formatted table, and persists JSON + text artifacts under
``$REPRO_RESULTS_DIR`` (a session temp dir unless set).

Scale comes from the ``REPRO_PROFILE`` environment variable (default:
``small`` here so a full ``pytest benchmarks/`` run finishes in minutes;
use ``REPRO_PROFILE=bench`` or ``paper`` for larger runs).
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

# Benches under test write their artifacts (results/*.json, BENCH_*.json
# next to the results dir) to a session temp dir, never the tracked
# copies.  repro.bench.reporting reads REPRO_RESULTS_DIR at import, so
# this runs before any repro.bench import; set it yourself to keep them.
if "REPRO_RESULTS_DIR" not in os.environ:
    _artifacts = tempfile.mkdtemp(prefix="repro-test-artifacts-")
    atexit.register(shutil.rmtree, _artifacts, ignore_errors=True)
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(_artifacts, "results")

import pytest  # noqa: E402

from repro.bench import PROFILES, format_table, save_json  # noqa: E402
from repro.bench.reporting import RESULTS_DIR  # noqa: E402


@pytest.fixture(scope="session")
def profile():
    name = os.environ.get("REPRO_PROFILE", "small").lower()
    return PROFILES[name]


def run_experiment(benchmark, name: str, func, profile):
    """Run ``func(profile)`` once under pytest-benchmark and report it."""
    result = benchmark.pedantic(func, args=(profile,), rounds=1, iterations=1)
    text = format_table(result["rows"], result["columns"],
                        title=result["title"])
    print("\n" + text)
    save_json(name, {k: v for k, v in result.items() if k != "speedups"})
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    return result
