"""The serving process of the HTTP workloads.

    python3 perfbench/server.py CONFIG

where CONFIG is a JSON object with ``workload``, ``seed``, ``scale`` and
``trace`` (0 or 1).

Builds the serving stack from the repo's public constructors — one
``UAEServer`` per namespace inside a ``RoutedEstimateService``, behind
``AsyncEstimateService`` and ``HTTPFrontDoor`` — on an ephemeral port,
prints ``READY {"port": ...}`` and then answers commands on stdin, one
per line, each acknowledged by ``ok`` on stdout:

* ``trace on`` / ``trace off`` — start or pause span recording (traced
  runs only; the wrappers are installed at start-up);
* ``stop`` — shut down, print ``STATS {...}`` (peak RSS, refinement
  times, spans) and exit.

``serve-zipf`` serves the ``dmv`` and ``census`` namespaces.
``refine-under-load`` serves ``dmv`` on 60% of its rows with the other
40% staged as inserted rows, and starts one background refinement when
the ``feedback_trigger``-th ``/feedback`` write has been recorded.
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys
import threading
import time

from common import (SCALES, SRC, make_uae, patch_estimation_layers,
                    peak_rss_mb, split_order)
from spans import Tracer

sys.path.insert(0, SRC)

from repro.serve.router import RoutedEstimateService  # noqa: E402


class BenchFront:
    """Proxy front around a ``RoutedEstimateService``.

    Keeps the wrapped signatures (``AsyncEstimateService`` inspects the
    ``submit`` / ``estimate_batch`` parameters), times ``submit`` and the
    wait that follows it per request id, and starts the refinement of
    ``refine_namespace`` once ``refine_at`` feedback writes are recorded.
    """

    def __init__(self, routed: RoutedEstimateService, tracer: Tracer,
                 refine_at: int | None = None,
                 refine_namespace: str | None = None):
        self.routed = routed
        self.metrics = routed.metrics
        self.tracer = tracer
        self.refine_at = refine_at
        self.refine_namespace = refine_namespace
        self.refine_started: float | None = None
        self.refine_job = None
        self.observed = 0
        self._lock = threading.Lock()

    @functools.wraps(RoutedEstimateService.submit)
    def submit(self, query, *, namespace=None, deadline_ms=None, trace=None):
        tracer = self.tracer
        if not tracer.enabled:
            return self.routed.submit(query, namespace=namespace,
                                      deadline_ms=deadline_ms, trace=trace)
        rid = None if trace is None else trace.trace_id
        with tracer.span("serve.submit", rid=rid):
            request = self.routed.submit(query, namespace=namespace,
                                         deadline_ms=deadline_ms,
                                         trace=trace)
        returned = time.perf_counter()

        def waited(req):
            end = req.completed_at or time.perf_counter()
            tracer.record("serve.wait", returned, max(end, returned), rid,
                          parent=0)
        request.add_done_callback(waited)
        return request

    @functools.wraps(RoutedEstimateService.estimate_batch)
    def estimate_batch(self, queries, *, namespace=None, seed=None,
                       use_cache=True):
        return self.routed.estimate_batch(queries, namespace=namespace,
                                          seed=seed, use_cache=use_cache)

    @functools.wraps(RoutedEstimateService.observe)
    def observe(self, query, true_cardinality, estimate=None, *,
                namespace=None):
        err = self.tracer.call("serve.observe", self.routed.observe, query,
                               true_cardinality, estimate=estimate,
                               namespace=namespace)
        with self._lock:
            self.observed += 1
            fire = self.observed == self.refine_at
        if fire:
            self.refine_started = time.perf_counter()
            server = self.routed.namespace(self.refine_namespace).server
            self.refine_job = server.refine(background=True)
        return err

    def stats(self) -> dict:
        return self.routed.stats()


def build(config: dict, tracer: Tracer):
    """The routed service and its proxy front, built and started."""
    from repro.data import Table, load
    from repro.serve import FeedbackCollector

    scale = SCALES[config["scale"]]
    routed = RoutedEstimateService(seed=0, max_batch=32, max_wait_ms=2.0,
                                   refine_epochs=scale.refine_epochs,
                                   data_epochs=1)
    if config["workload"] == "serve-zipf":
        for name, rows in (("dmv", scale.dmv_rows),
                           ("census", scale.census_rows)):
            uae = make_uae(load(name, rows=rows, seed=0), scale)
            uae.fit(epochs=scale.epochs, mode="data")
            routed.add_table(uae, namespace=name)
        front = BenchFront(routed, tracer)
    else:
        full = load("dmv", rows=scale.dmv_rows, seed=0)
        order, split = split_order(full)
        base = Table(full.name, full.columns, full.codes[order[:split]])
        uae = make_uae(base, scale)
        uae.fit(epochs=scale.epochs, mode="data")
        # The drift monitor never fires on its own (auto_refine is off):
        # the refinement starts at a fixed feedback count instead.
        feedback = FeedbackCollector(
            window=4 * scale.feedback_trigger,
            capacity=4 * scale.feedback_trigger)
        space = routed.add_table(uae, namespace="dmv", feedback=feedback)
        space.server.stage_data(full.codes[order[split:]])
        front = BenchFront(routed, tracer,
                           refine_at=scale.feedback_trigger,
                           refine_namespace="dmv")
    routed.start()
    return routed, front


def install(tracer: Tracer) -> None:
    from repro.core.uae import UAE
    from repro.serve.registry import ModelRegistry

    patch_estimation_layers(tracer)
    tracer.patch(ModelRegistry, "publish", "serve.publish")
    tracer.patch(UAE, "ingest_data", "train.ingest_data")
    tracer.patch(UAE, "ingest_queries", "train.ingest_queries")


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


async def _serve(config: dict) -> None:
    from repro.serve.net import AsyncEstimateService, HTTPFrontDoor
    from repro.workload.sqlparse import parse_query

    tracer = Tracer()
    traced = bool(config["trace"])
    routed, front = build(config, tracer)
    parser = parse_query
    if traced:
        install(tracer)
        parser = tracer.wrap(parse_query, "workload.parse")
    door = HTTPFrontDoor(AsyncEstimateService(front), parser=parser)
    await door.start()
    loop = asyncio.get_running_loop()
    try:
        _say("READY " + json.dumps({"port": door.port}))
        while True:
            line = (await loop.run_in_executor(None, sys.stdin.readline))
            command = line.strip()
            if command in ("stop", ""):      # EOF: the client is gone
                break
            if command in ("trace on", "trace off") and traced:
                tracer.enabled = command == "trace on"
            _say("ok")
    finally:
        tracer.enabled = False
        await door.stop()
        routed.stop()
    _say("STATS " + json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "observed": front.observed,
        "refine_started": front.refine_started,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "sheds": door.sheds,
        "status_counts": {str(k): v for k, v in door.status_counts.items()},
    }, default=str))


def main() -> int:
    config = json.loads(sys.argv[1])
    asyncio.run(_serve(config))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
