"""``estimate-batch``: in-process batched estimation on a trained DMV UAE.

One thread sends distinct in-workload queries through
``UAE.estimate_many`` in fixed-size chunks, with no repeats and no cache,
so ``repro.infer`` does almost all the work.  Queries are generated
between chunks, outside the timed calls, and the run ends once the
chunks have been busy for ``--seconds``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import (ACCURACY_SEED, Outcome, Scale, count_invalid, make_uae,
                    patch_estimation_layers, peak_rss_mb, qerror_summary,
                    steady_metrics, workload_config)
from spans import Tracer, by_layer, overhead_ratio, self_times

_BLOCK = 64                  # queries generated per refill of the stream
_CALIBRATION_CHUNKS = 16     # chunks per slice of the overhead calibration


@dataclass
class _State:
    table: object
    uae: object
    seen: set
    heldout: object
    stream_rng: np.random.Generator


def _setup(seed: int, scale: Scale) -> _State:
    from repro.data import load
    from repro.workload import generate_inworkload

    table = load("dmv", rows=scale.dmv_rows, seed=0)
    rng = np.random.default_rng([ACCURACY_SEED, 0])
    cfg = workload_config()
    train = generate_inworkload(table, scale.train_queries, rng, cfg=cfg)
    heldout = generate_inworkload(table, scale.heldout, rng, cfg=cfg)
    uae = make_uae(table, scale)
    uae.fit(epochs=scale.epochs, workload=train, mode="hybrid")
    uae.estimate_many(heldout.queries[:scale.chunk])     # engine warm-up
    return _State(table, uae, set(train.queries) | set(heldout.queries),
                  heldout, np.random.default_rng([seed, 1]))


def _next_chunks(state: _State, scale: Scale, carry: list) -> list:
    """Fresh distinct queries, cut into full chunks (rest carried over)."""
    from repro.workload import generate_inworkload

    block = generate_inworkload(state.table, _BLOCK, state.stream_rng,
                                cfg=workload_config()).queries
    for query in block:
        if query not in state.seen:
            state.seen.add(query)
            carry.append(query)
    n_full = len(carry) // scale.chunk * scale.chunk
    chunks = [carry[i:i + scale.chunk] for i in range(0, n_full, scale.chunk)]
    del carry[:n_full]
    return chunks


def _install(tracer: Tracer) -> None:
    from repro.core.uae import UAE

    tracer.patch(UAE, "estimate_many", "core.estimate_many")
    tracer.patch(UAE, "estimate_constraints_many",
                 "core.estimate_constraints_many")
    patch_estimation_layers(tracer)


def _calibration_chunks(state: _State, scale: Scale) -> list:
    chunks: list = []
    carry: list = []
    while len(chunks) < _CALIBRATION_CHUNKS:
        chunks += _next_chunks(state, scale, carry)
    return chunks[:_CALIBRATION_CHUNKS]


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    setups = []
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        state = _setup(seed, scale)
        setups.append(time.perf_counter() - start)

    rows = state.table.num_rows
    # The model, the held-out set and the sampler's stream position (right
    # after set-up) are the same on every run: the q-errors repeat exactly.
    held = state.uae.estimate_many(state.heldout.queries)
    qerr = qerror_summary(held, state.heldout.cardinalities)
    checks = {"heldout_estimates_valid": count_invalid(held, rows) == 0}

    tracer = Tracer()
    overhead = None
    if trace:
        _install(tracer)
        chunks = _calibration_chunks(state, scale)
        overhead = overhead_ratio(
            tracer, lambda: [state.uae.estimate_many(c) for c in chunks])
        tracer.enabled = True

    latencies: list[float] = []
    invalid = 0
    carry: list = []
    busy = 0.0
    phase_start = time.perf_counter()
    with tracer.span("bench.run"):
        while busy < seconds:
            # generating the stream is the benchmark's own share
            chunks = tracer.call("bench.generate", _next_chunks, state,
                                 scale, carry)
            for chunk in chunks:
                start = time.perf_counter()
                estimates = state.uae.estimate_many(chunk)
                elapsed = time.perf_counter() - start
                latencies.append(elapsed)
                busy += elapsed
                invalid += count_invalid(estimates, rows)
                if busy >= seconds:
                    break
    phase_end = time.perf_counter()
    n_queries = len(latencies) * scale.chunk
    checks["stream_estimates_valid"] = invalid == 0

    lat = np.asarray(latencies)
    steady = steady_metrics(lat, lambda g: float(lat[g].sum()),
                            per_op=scale.chunk)
    record = {"setup_s_each": setups, "queries": n_queries, "busy_s": busy,
              "wall_s": phase_end - phase_start, "steady": steady,
              "qerror": qerr}
    failed = invalid + sum(not ok for ok in checks.values())
    if not trace:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb(),
                   "ops_per_s": steady["ops_per_s"],
                   "op_p95_ms": steady["op_p95_ms"],
                   "qerror_p50": qerr["p50"],
                   "qerror_p95": qerr["p95"]}
        return Outcome(metrics, checks, n_queries, failed, record)

    tracer.enabled = False
    tracer.unpatch_all()
    selfs = self_times(tracer.spans)
    layers = by_layer(selfs)
    wall = tracer.durations("bench.run")[0]
    engine = tracer.durations("infer.engine")
    # mask expansion of the estimates, not of the generator's truths
    generating = {s[0] for s in tracer.spans if s[2] == "bench.generate"}
    expand = sum(e - s for _i, parent, name, s, e, _r in tracer.spans
                 if name.startswith("workload.") and parent not in generating)
    metrics = {
        "trace.overhead_ratio": overhead,
        "trace.self_sum_ratio": sum(layers.values()) / wall,
        "trace.spans": len(tracer.spans),
        **{f"self_frac.{k}": v / wall for k, v in layers.items()},
        "workload.expand_ms": expand / n_queries * 1e3,
        "infer.schedule_self_ms":
            selfs.get("infer.schedule", 0.0) / n_queries * 1e3,
        "infer.engine_ms": float(np.mean(engine)) * 1e3,
        "infer.engine_calls": len(engine),
        "infer.rows_per_call": tracer.counts["infer.engine"] / len(engine),
    }
    return Outcome(metrics, checks, n_queries, failed, record, tracer.spans)
