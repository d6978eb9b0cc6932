"""``plan-join``: the DP planner asking the serving tier for sub-plan
cardinalities.

A ``make_imdb_large`` schema with a ``UAEJoin`` hybrid-trained on
fragment-augmented join queries is served in a join namespace of a
``RoutedEstimateService``.  A stream of six-table join queries is
planned with ``ServingCardinalityProvider`` + ``plan_for_query``: of
every five plans one is a query not seen before and four repeat one
drawn from those seen so far.  The provider's cache starts cold, so
first-time plans are engine-bound and repeated plans are bound by the DP
planner, and every stretch of the stream holds the same mix of the two.
Chosen plans are scored by true cost against ``TrueCardOracle``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import (ACCURACY_SEED, Outcome, Scale, count_invalid,
                    patch_estimation_layers, peak_rss_mb, qerror_summary,
                    steady_metrics)
from spans import Tracer, by_layer, overhead_ratio, self_times

_SUBPLAN_SEED = 1234
# Six tables (the center and every child) is the JOB-M template size;
# a fixed size keeps the DP's work per plan alike across seeds.
_TABLES = 6
# Plan i is first-time when i % 5 == 0: a fifth of the plans, but most
# of the time, is engine-bound, and the p95 falls among them.
_PATTERN = 5
_ACCURACY_QUERIES = 24        # fixed join set behind the q-error
_BIT_IDENTITY_SAMPLE = 8      # pool queries re-checked against reference()
_CALIBRATION_QUERIES = 6      # cold plans per slice of the overhead check


@dataclass
class _State:
    schema: object
    front: object
    space: object
    pool: list
    accuracy: list
    oracle: object


def _augment_with_fragments(schema, train):
    """Training queries plus every multi-table connected fragment that
    contains the center table, each with its true cardinality: the
    planner asks about fragments, so the query loss sees them too."""
    from repro.joins.workload import LabeledJoinWorkload, true_join_cardinality
    from repro.optimizer import JoinGraph
    from repro.workload import extract_fragment, fragment_signature

    graph = JoinGraph.from_schema(schema)
    seen = {fragment_signature(q) for q in train.queries}
    queries = list(train.queries)
    cards = [float(c) for c in train.cardinalities]
    for query in train.queries:
        for subset in graph.connected_subsets(query.tables):
            if len(subset) < 2 or schema.center not in subset:
                continue
            fragment = extract_fragment(query, subset)
            if fragment_signature(fragment) in seen:
                continue
            seen.add(fragment_signature(fragment))
            queries.append(fragment)
            cards.append(float(true_join_cardinality(schema, fragment)))
    return LabeledJoinWorkload(queries, np.asarray(cards))


def _setup(seed: int, scale: Scale) -> _State:
    from repro.data.schema import make_imdb_large
    from repro.joins import UAEJoin
    from repro.joins.workload import generate_job_m_focused
    from repro.optimizer import TrueCardOracle
    from repro.serve import RoutedEstimateService
    from repro.workload import fragment_signature

    def distinct(rng, n):
        drawn = generate_job_m_focused(schema, 2 * n, rng,
                                       min_tables=_TABLES).queries
        return list({fragment_signature(q): q for q in drawn}.values())[:n]

    schema = make_imdb_large(n_titles=scale.n_titles, seed=1)
    fixed = np.random.default_rng([ACCURACY_SEED, 0])
    train = _augment_with_fragments(schema, generate_job_m_focused(
        schema, scale.join_train_queries, fixed))
    accuracy = distinct(fixed, _ACCURACY_QUERIES)
    pool = distinct(np.random.default_rng([seed, 0]), scale.plan_pool)

    uae = UAEJoin(schema, sample_size=scale.join_sample, hidden=scale.hidden,
                  num_blocks=scale.num_blocks, est_samples=scale.est_samples,
                  dps_samples=scale.dps_samples, batch_size=512,
                  query_batch_size=16, lam=10.0, seed=0)
    uae.fit(epochs=scale.join_epochs, workload=train, mode="hybrid")
    front = RoutedEstimateService(seed=0)
    space = front.add_join(uae)
    front.start()
    # engine warm-up on a training query; the provider cache stays cold
    front.estimate_batch(train.queries[:4], seed=0)
    return _State(schema, front, space, pool, accuracy,
                  TrueCardOracle(schema))


def _provider(state: _State):
    from repro.optimizer import ServingCardinalityProvider
    return ServingCardinalityProvider(state.front, state.schema,
                                      seed=_SUBPLAN_SEED)


def _plan(state: _State, provider, query, tracer: Tracer):
    from repro.optimizer import plan_for_query
    card = provider.card_fn(query)
    return tracer.call("optimizer.dp", plan_for_query, state.schema,
                       list(query.tables), card)


def _install(tracer: Tracer, state: _State) -> None:
    import repro.optimizer.subplan as subplan
    from repro.serve.router import RoutedEstimateService
    from repro.serve.service import EstimateService

    provider = subplan.ServingCardinalityProvider
    tracer.patch(provider, "card_fn", "optimizer.card_fn")
    tracer.patch(provider, "prefetch", "optimizer.prefetch")
    tracer.patch(provider, "lookup", "optimizer.lookup")
    tracer.patch(subplan, "extract_fragment", "workload.extract_fragment")
    tracer.patch(subplan, "fragment_signature", "workload.fragment_signature")
    tracer.patch(RoutedEstimateService, "estimate_batch",
                 "serve.estimate_batch")
    tracer.patch(EstimateService, "estimate_batch",
                 "serve.service_estimate_batch")
    patch_estimation_layers(tracer)
    service = state.space.server.service
    service.expander = tracer.wrap(service.expander, "joins.expand")


def _cold_plans(state: _State, tracer: Tracer) -> None:
    """The first pool queries planned through a fresh (cold) provider."""
    provider = _provider(state)
    for query in state.pool[:_CALIBRATION_QUERIES]:
        _plan(state, provider, query, tracer)


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    setups = []
    for i in range(scale.setup_repeats):
        start = time.perf_counter()
        state = _setup(seed, scale)
        setups.append(time.perf_counter() - start)
        if i + 1 < scale.setup_repeats:
            state.front.stop()
    try:
        return _measure(state, seed, seconds, trace, setups)
    finally:
        state.front.stop()


def _measure(state: _State, seed: int, seconds: float, trace: bool,
             setups: list) -> Outcome:
    from repro.optimizer import plan_cost, plan_for_query

    tracer = Tracer()
    overhead = None
    if trace:
        _install(tracer, state)
        overhead = overhead_ratio(tracer, lambda: _cold_plans(state, tracer))
        tracer.enabled = True

    provider = _provider(state)
    stream_rng = np.random.default_rng([seed, 1])
    chosen: dict[int, str] = {}
    latencies: list[float] = []
    ends: list[float] = []
    errors: list[str] = []
    plan_changes = 0
    new = 0                 # first-time queries planned so far
    phase_start = time.perf_counter()
    with tracer.span("bench.run"):
        while time.perf_counter() - phase_start < seconds:
            if len(latencies) % _PATTERN == 0:
                index = new % len(state.pool)
                new += 1
            else:
                index = int(stream_rng.integers(min(new, len(state.pool))))
            start = time.perf_counter()
            try:
                plan = _plan(state, provider, state.pool[index], tracer)
            except Exception as exc:      # counted, and the run fails
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                ends.append(time.perf_counter())
                latencies.append(ends[-1] - start)
            text = str(plan)
            if chosen.setdefault(index, text) != text:
                plan_changes += 1
    wall = time.perf_counter() - phase_start
    plans = len(latencies)
    batched_calls = provider.batched_calls
    fragments = provider.fragments_estimated
    tracer.enabled = False
    tracer.unpatch_all()

    # Plans are scored on each query's own seeded batch (what prefetch
    # returns), not on the provider's fragment cache: lookup() answers a
    # fragment from whichever plan's batch last wrote it, so the stream
    # can see a repeated query's plan change (counted as plan_changes).
    cost_ratios = []
    invalid = 0
    for query in state.pool[:new]:
        subsets = provider.graph.connected_subsets(query.tables)
        values = provider.prefetch(query)
        own = dict(zip(subsets, values))
        tables = list(query.tables)
        plan = plan_for_query(state.schema, tables,
                              lambda subset: max(own[subset], 1.0))
        true_fn = state.oracle.card_fn(query)
        best = plan_for_query(state.schema, tables, true_fn)
        cost_ratios.append(float(plan_cost(plan, true_fn))
                           / float(plan_cost(best, true_fn)))
        invalid += count_invalid(values, state.space.server.scale)
    # Sub-plan q-error on the fixed accuracy set repeats exactly.
    estimates, truths = [], []
    for query in state.accuracy:
        values = provider.prefetch(query)
        invalid += count_invalid(values, state.space.server.scale)
        true_fn = state.oracle.card_fn(query)
        estimates.extend(values)
        truths.extend(true_fn(subset) for subset in
                      provider.graph.connected_subsets(query.tables))
    qerr = qerror_summary(estimates, truths)
    sample = state.pool[:_BIT_IDENTITY_SAMPLE]
    checks = {
        "plans_without_error": not errors,
        "estimates_valid": invalid == 0,
        "prefetch_bit_identical_to_reference": all(
            np.array_equal(provider.prefetch(q), provider.reference(q))
            for q in sample),
        "no_fallback_calls": provider.fallback_calls == 0,
        "no_service_failures": state.space.server.service.failures == 0,
    }
    failed = len(errors) + sum(not ok for ok in checks.values())
    lat = np.asarray(latencies)
    ends = np.asarray(ends)
    steady = steady_metrics(
        lat, lambda g: float(ends[g[-1]] - ends[g[0]] + lat[g[0]]))
    record = {"setup_s_each": setups, "plans": plans, "wall_s": wall,
              "first_time_plans": new, "pool": len(state.pool),
              "pool_wrapped": new > len(state.pool),
              "batched_calls": batched_calls, "steady": steady,
              "qerror": qerr, "fragments_scored": len(estimates),
              "plan_cost_ratio": statistics.median(cost_ratios),
              "plan_changes": plan_changes, "errors": errors[:5]}
    if not trace:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb(),
                   "ops_per_s": steady["ops_per_s"],
                   "op_p95_ms": steady["op_p95_ms"],
                   "qerror_p50": qerr["p50"],
                   "qerror_p95": qerr["p95"]}
        return Outcome(metrics, checks, plans, failed, record)

    selfs = self_times(tracer.spans)
    layers = by_layer(selfs)
    wall = tracer.durations("bench.run")[0]
    engine = tracer.durations("infer.engine")
    metrics = {
        "trace.overhead_ratio": overhead,
        "trace.self_sum_ratio": sum(layers.values()) / wall,
        "trace.spans": len(tracer.spans),
        **{f"self_frac.{k}": v / wall for k, v in layers.items()},
        "infer.schedule_self_ms":
            selfs.get("infer.schedule", 0.0) / max(fragments, 1) * 1e3,
        "infer.engine_ms": _mean_ms(engine),
        "infer.engine_calls": len(engine),
        "infer.rows_per_call": tracer.counts["infer.engine"]
        / max(len(engine), 1),
        "joins.expand_ms": _mean_ms(tracer.durations("joins.expand")),
        "optimizer.prefetch_ms": _mean_ms(
            tracer.durations("optimizer.prefetch")),
        "optimizer.fragments_per_plan": fragments / max(batched_calls, 1),
        "optimizer.cache_hit_ratio": 1.0 - batched_calls / plans,
        "optimizer.fallback_calls": provider.fallback_calls,
        "optimizer.dp_ms": _mean_ms(tracer.durations("optimizer.dp")),
        "optimizer.plan_cost_ratio": statistics.median(cost_ratios),
        "optimizer.plan_changes": plan_changes,
    }
    return Outcome(metrics, checks, plans, failed, record, tracer.spans)


def _mean_ms(durations: list[float]) -> float:
    return float(np.mean(durations)) * 1e3 if durations else 0.0
