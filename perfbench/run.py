"""One command for the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs workload NAME against the unmodified ``src/repro`` with inputs
made from seed N, measures for S seconds, checks every answer, and
prints as its last stdout line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is a separate, traced run
that reports the per-layer metrics.  Workloads and metrics are listed in
``BENCHMARK.json`` and described in ``perfbench/README.md``.

The run record (host fingerprint, git sha, seed, operation and sample
counts, phases, checks) is printed on the line before the result and
written under ``.perfbench_out/``.  Exit status: 0 when every check
passes, 1 when one fails, 2 when the tree has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from dataclasses import asdict

from common import OUT_DIR, ROOT, SCALES, SRC, host_record

WORKLOADS = ("estimate-batch", "serve-zipf", "refine-under-load",
             "plan-join")

#: End-to-end metrics (untraced runs), each reported by every workload.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "ops/s",
    "op_p95_ms": "ms",
    "qerror_p50": "x",
    "qerror_p95": "x",
}

#: Per-layer metrics (traced runs); 0 where a layer does no work.
LAYER_UNITS = {
    "trace.overhead_ratio": "x",
    "trace.self_sum_ratio": "ratio",
    "trace.spans": "count",
    "self_frac.bench": "ratio",
    "self_frac.wire": "ratio",
    "self_frac.workload": "ratio",
    "self_frac.core": "ratio",
    "self_frac.infer": "ratio",
    "self_frac.serve": "ratio",
    "self_frac.joins": "ratio",
    "self_frac.optimizer": "ratio",
    "workload.expand_ms": "ms",
    "workload.parse_ms": "ms",
    "infer.schedule_self_ms": "ms",
    "infer.engine_ms": "ms",
    "infer.engine_calls": "count",
    "infer.rows_per_call": "rows",
    "serve.wire_ms": "ms",
    "serve.service_hit_ms": "ms",
    "serve.service_miss_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.batch_size_mean": "requests",
    "serve.sheds": "count",
    "serve.p99_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.swap_visible_ms": "ms",
    "serve.post_swap_p50_ms": "ms",
    "serve.refine_s": "s",
    "train.ingest_data_s": "s",
    "train.ingest_queries_s": "s",
    "joins.expand_ms": "ms",
    "optimizer.prefetch_ms": "ms",
    "optimizer.fragments_per_plan": "count",
    "optimizer.cache_hit_ratio": "ratio",
    "optimizer.fallback_calls": "count",
    "optimizer.dp_ms": "ms",
    "optimizer.plan_cost_ratio": "x",
    "optimizer.plan_changes": "count",
}

#: A traced run is correct only if layer self times add up to the
#: measured base (wall time, or client busy time over HTTP) within this.
SELF_SUM_TOLERANCE = 0.05


def _workload_module(name: str):
    if name == "estimate-batch":
        import estimate_batch as module
    elif name == "plan-join":
        import plan_join as module
    else:
        import http_load as module
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="'tiny' only for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    # Nothing here calls the repo's artifact writers; should anything
    # try, it writes below the ignored output directory.
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(OUT_DIR, "results")

    scale = SCALES[args.scale]
    module = _workload_module(args.workload)
    started = time.time()
    if args.workload in ("serve-zipf", "refine-under-load"):
        outcome = module.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), scale)
    else:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             scale)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    values = {name: float(outcome.metrics.get(name) or 0.0)
              for name in units}
    checks = dict(outcome.checks)
    if args.trace:
        checks["trace_self_times_add_up"] = \
            abs(values["trace.self_sum_ratio"] - 1.0) <= SELF_SUM_TOLERANCE
    failed = outcome.failed + (0 if checks.get("trace_self_times_add_up",
                                               True) else 1)
    correct = all(checks.values()) and failed == 0

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started_unix": started, "host": host_record(),
              "scale": asdict(scale), "checks": checks,
              "attempted": outcome.attempted, "failed": failed,
              "metrics": values, **outcome.record}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if outcome.spans:
        # (id, parent, name, start, end, request id), perf_counter seconds
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}"
                                        f"-seed{args.seed}.json"), "w") as fh:
            json.dump(outcome.spans, fh)
    print("record " + os.path.relpath(path, ROOT) + " "
          + json.dumps({"host": record["host"], "checks": checks},
                       default=str))
    result = {"correct": correct, "attempted": int(outcome.attempted),
              "failed": int(failed),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
