"""Shared pieces: scale settings, seeded inputs, SQL rendering, the run
record (host fingerprint) and small statistics helpers."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run artifacts (span dumps, run records); listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Seed of everything behind the accuracy metrics (training data, models,
#: held-out sets): fixed, so the q-errors repeat exactly on every run and
#: ``--seed`` varies only the measured streams.
ACCURACY_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.  ``FULL`` is the measured setting (the
    repo's ``bench`` profile where it has one); ``TINY`` only proves in a
    smoke test that every metric is printed."""

    name: str
    dmv_rows: int
    census_rows: int
    hidden: int
    num_blocks: int
    est_samples: int
    dps_samples: int
    train_queries: int       # hybrid-training workload (estimate-batch)
    epochs: int
    heldout: int             # seeded q-error set per namespace
    chunk: int               # queries per UAE.estimate_many call
    setup_repeats: int       # set-ups per run; setup_s is their median
    zipf_pool: int           # distinct queries addressable per namespace
    shift_pool: int          # shifted queries read and fed back
    feedback_trigger: int    # /feedback count that starts the refinement
    refine_epochs: int
    n_titles: int            # make_imdb_large size (plan-join)
    join_sample: int
    join_train_queries: int
    join_epochs: int
    plan_pool: int           # first-time join queries available to a run


FULL = Scale(name="full", dmv_rows=12_000, census_rows=8000, hidden=64,
             num_blocks=2, est_samples=128, dps_samples=8, train_queries=200,
             epochs=2, heldout=256, chunk=8, setup_repeats=3,
             zipf_pool=200_000, shift_pool=400, feedback_trigger=96,
             refine_epochs=80, n_titles=1250, join_sample=10_000,
             join_train_queries=120, join_epochs=2, plan_pool=240)

TINY = Scale(name="tiny", dmv_rows=3000, census_rows=2000, hidden=32,
             num_blocks=1, est_samples=32, dps_samples=4, train_queries=48,
             epochs=1, heldout=32, chunk=8, setup_repeats=1,
             zipf_pool=20_000, shift_pool=96, feedback_trigger=24,
             refine_epochs=2, n_titles=600, join_sample=3000,
             join_train_queries=40, join_epochs=1, plan_pool=40)

SCALES = {"full": FULL, "tiny": TINY}


def workload_config():
    """Query shape of every single-table stream: the repo's in-workload
    generator (one bounded attribute + random filters) with 2-5 filters,
    the shape its serving benchmark uses for shifted traffic.  Wider
    conjunctions are mostly empty, and redrawing them for non-empty
    truths would cost more than estimating them."""
    from repro.workload import WorkloadConfig
    return WorkloadConfig(num_filters_min=2, num_filters_max=5)


def shifted_config(table):
    """Shifted traffic of ``refine-under-load``: bounded on the region of
    the sort column that the staged inserted rows fill."""
    from repro.workload import WorkloadConfig
    order, split = split_order(table)
    col0 = table.columns[0]
    c_star = int(table.codes[order[split], 0])
    lo_rel = min(0.95, c_star / max(col0.size - 1, 1) + 0.02)
    return WorkloadConfig(center_range=(lo_rel, 1.0), bounded_volume=0.08,
                          num_filters_min=2, num_filters_max=5)


def split_order(table, fraction: float = 0.6):
    """Rows sorted by the first column and the split index: the first
    ``fraction`` is the served table, the rest arrives as inserts."""
    order = np.argsort(table.codes[:, 0], kind="stable")
    return order, int(fraction * table.num_rows)


def make_uae(table, scale: Scale, seed: int = 0):
    from repro.core import UAE
    return UAE(table, hidden=scale.hidden, num_blocks=scale.num_blocks,
               est_samples=scale.est_samples, dps_samples=scale.dps_samples,
               batch_size=512, query_batch_size=16, seed=seed)


def patch_estimation_layers(tracer) -> None:
    """Spans around mask expansion (``workload``), the batch scheduler
    and the engine (``infer``); the engine span counts its rows."""
    from repro.data.encoding import ColumnFactorization
    from repro.infer.engine import InferenceEngine
    from repro.infer.scheduler import BatchScheduler
    from repro.workload.predicate import Query

    tracer.patch(Query, "masks", "workload.masks")
    tracer.patch(ColumnFactorization, "expand_masks", "workload.expand_masks")
    tracer.patch(BatchScheduler, "estimate_many", "infer.schedule")
    tracer.patch(InferenceEngine, "estimate_batch", "infer.engine",
                 count=lambda _self, lists, num_samples, *a, **k:
                 len(lists) * num_samples)


# ----------------------------------------------------------------------
# SQL rendering
# ----------------------------------------------------------------------
def sql_literal(value) -> str:
    """A predicate literal as the repo's SQL grammar reads it back.

    NumPy scalars become plain Python values first: with numpy 2,
    ``repr(np.int32(5))`` is ``'np.int32(5)'``, which ``parse_query``
    rejects.  Floats are written positionally (the grammar has no
    exponent form) with the fewest digits that read back exactly.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        raise ValueError("boolean literals have no SQL form here")
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError(f"non-finite literal {value!r}")
        return np.format_float_positional(value, unique=True, trim="0")
    raise TypeError(f"unsupported literal type {type(value).__name__}")


def render_sql(query) -> str:
    """A single-table :class:`~repro.workload.Query` as a WHERE fragment
    that ``parse_query`` turns back into an equal query."""
    parts = []
    for pred in query.predicates:
        if pred.op == "IN":
            values = ", ".join(sql_literal(v) for v in pred.value)
            parts.append(f"{pred.column} IN ({values})")
        else:
            parts.append(f"{pred.column} {pred.op} {sql_literal(pred.value)}")
    return " AND ".join(parts)


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                       # numpy < 1.25: prints only
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    keys = ("name", "version", "openblas configuration")
    return {k: blas[k] for k in keys if k in blas}


def _git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_record() -> dict:
    return {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "platform": platform.platform(),
            "git_sha": _git_sha()}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end metrics (untraced run) or the
    per-layer ones (traced run); ``checks`` every correctness check;
    ``attempted``/``failed`` count operations, a failed check counting as
    a failed operation; ``record`` is the run's detail (phases, sample
    counts) for the run record; ``spans`` the traced run's spans, which
    ``run.py`` writes out at the end."""

    metrics: dict
    checks: dict
    attempted: int
    failed: int
    record: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # traced runs only


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentiles(values, qs=(50, 95)) -> dict:
    """``{"p50": ..., "p95": ..., "n": count}`` of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    out = {f"p{q:g}": float(np.percentile(arr, q)) for q in qs}
    out["n"] = int(arr.size)
    return out


def steady_metrics(latencies, elapsed, per_op: int = 1,
                   groups: int = 10) -> dict:
    """``ops_per_s`` and ``op_p95_ms`` as medians over consecutive groups
    of operations, which a burst of load from other processes on a
    shared host moves less than whole-run figures (the median latency
    too, for the run record).

    ``latencies`` are in operation order; ``elapsed(indices)`` is the
    time a group of them took; each operation is ``per_op`` units of
    work.  A group's p95 needs 200 samples (10 beyond it), so p95 uses
    fewer, larger groups when the run is short.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    order = np.arange(lat.size)
    parts = [g for g in np.array_split(order, min(groups, lat.size))
             if g.size]
    rates = [g.size * per_op / elapsed(g) for g in parts]
    n_tail = max(1, min(groups, lat.size // 200))
    tails = [float(np.percentile(lat[g], 95)) * 1e3
             for g in np.array_split(order, n_tail)]
    p50s = [float(np.median(lat[g])) * 1e3 for g in parts]
    return {"ops_per_s": float(np.median(rates)),
            "op_p95_ms": float(np.median(tails)),
            "op_p50_ms": float(np.median(p50s)),
            "operations": int(lat.size), "groups": len(parts),
            "p95_groups": n_tail}


def qerror_summary(estimates, truths) -> dict:
    from repro.workload.metrics import qerrors
    errs = qerrors(np.asarray(estimates, dtype=np.float64),
                   np.asarray(truths, dtype=np.float64))
    return percentiles(errs, (50, 95))


def count_invalid(values, upper: float) -> int:
    """Estimates that are not finite or lie outside ``[0, upper]``."""
    arr = np.asarray(values, dtype=np.float64)
    ok = np.isfinite(arr) & (arr >= 0.0) & (arr <= upper * (1 + 1e-9))
    return int(arr.size - ok.sum())
