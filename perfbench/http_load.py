"""``serve-zipf`` and ``refine-under-load``: closed-loop HTTP load.

The server (``server.py``) runs in its own process.  One asyncio
process drives it over ``min(2, nproc)`` keep-alive connections, each
sending its next request only after the previous answer (optimizers
block on each estimate).  Timestamps are ``time.perf_counter()`` on both
sides, so server spans and client requests share one time axis.

``serve-zipf``
    SQL strings routed by column to the ``dmv`` or ``census`` namespace,
    drawn Zipf from a pool far larger than a run: query ``k`` of a
    namespace is generated from ``(seed, namespace, k)`` only when it is
    first drawn, so the result-cache hit share levels off instead of
    climbing to 1.
``refine-under-load``
    Reads of a shifted query stream on both connections plus, on the
    first connection only (so the trainer sees one fixed order),
    ``/feedback`` writes carrying true cardinalities.  The server starts
    one refinement at a fixed feedback count, long enough to outlast the
    measured window, which opens once that feedback is answered and the
    staged rows are ingested: the window is reads and writes beside the
    query-driven training epochs.  Reads continue through
    the hot-swap.

Both end with a seeded ``/estimate_batch`` probe over a held-out set
with true cardinalities, which gives the q-error and must be
bit-identical to the same probe made at the start of the same model
version.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import (ACCURACY_SEED, OUT_DIR, Outcome, Scale, count_invalid,
                    percentiles, qerror_summary, render_sql, shifted_config,
                    steady_metrics, workload_config)
from spans import by_layer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
ZIPF_EXPONENT = 1.2
ENGINE_WARMUP_REQUESTS = 64  # part of every set-up
#: Untimed cache warm-up after the last set-up, per workload.
CACHE_WARMUP_REQUESTS = {"serve-zipf": 2000, "refine-under-load": 1000}
PROBE_SEED = 4321
FEEDBACK_EVERY = 4           # connection 0: one /feedback per 3 reads
_READY_TIMEOUT_S = 300.0
_CALIBRATION_SLICE_S = 0.5   # per slice of the traced/untraced check
_CALIBRATION_PAIRS = 4       # off/on slice pairs
# Caps on waiting for the refinement to start and for its swap, which
# keep a run that never sees them well inside the 180 s a run may take.
_TRIGGER_WAIT_CAP_S = 30.0
_SWAP_WAIT_CAP_S = 60.0
_POST_SWAP_S = 1.0           # reads kept up after the swap is seen
# The refinement ingests the staged rows (about a second) before its
# query epochs; the window opens after that, so it sees one regime.
_INGEST_SETTLE_S = 3.0


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``server.py`` as a child process, driven over stdin/stdout."""

    def __init__(self, config: dict):
        os.makedirs(OUT_DIR, exist_ok=True)
        self._log = open(os.path.join(
            OUT_DIR, f"server-{config['workload']}.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True, cwd=os.path.dirname(HERE))
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _expect(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server: no {prefix!r} within "
                                   f"{timeout:.0f} s") from None
            if line is None:
                raise RuntimeError(f"server exited (code "
                                   f"{self.proc.wait()}) before {prefix!r}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def wait_ready(self) -> int:
        """The server's port, once it is listening."""
        return json.loads(self._expect("READY", _READY_TIMEOUT_S))["port"]

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        self._expect("ok", 30.0)

    def stop(self) -> dict:
        """Stop the server; its final STATS (empty if it died)."""
        stats: dict = {}
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                stats = json.loads(self._expect("STATS", 60.0))
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            self.kill()
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What the generator sends, all made from the seed."""

    requests: list               # (sql, namespace) in send order
    upper: dict                  # namespace -> largest valid estimate
    probe_sql: list
    probe_truths: np.ndarray
    feedback: list = field(default_factory=list)   # (sql, truth)


def _zipf_ranks(rng: np.random.Generator, pool: int, n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return np.searchsorted(np.cumsum(weights / weights.sum()),
                           rng.random(n), side="right").clip(0, pool - 1)


def zipf_inputs(seed: int, scale: Scale, n_requests: int) -> Inputs:
    from repro.data import load
    from repro.workload import generate_inworkload

    cfg = workload_config()
    tables = {"dmv": load("dmv", rows=scale.dmv_rows, seed=0),
              "census": load("census", rows=scale.census_rows, seed=0)}
    names = sorted(tables)
    rng = np.random.default_rng([seed, 0])
    which = rng.integers(len(names), size=n_requests)
    ranks = _zipf_ranks(rng, scale.zipf_pool, n_requests)
    sql_of: dict = {}
    requests = []
    for ns_index, rank in zip(which.tolist(), ranks.tolist()):
        key = (ns_index, rank)
        if key not in sql_of:
            query = generate_inworkload(
                tables[names[ns_index]], 1,
                np.random.default_rng([seed, 1, ns_index, rank]),
                cfg=cfg).queries[0]
            sql_of[key] = render_sql(query)
        requests.append((sql_of[key], names[ns_index]))
    probe_sql, truths = [], []
    for i, name in enumerate(names):
        held = generate_inworkload(
            tables[name], scale.heldout,
            np.random.default_rng([ACCURACY_SEED, 2, i]), cfg=cfg)
        probe_sql += [render_sql(q) for q in held.queries]
        truths += list(held.cardinalities)
    return Inputs(requests, {n: float(t.num_rows) for n, t in tables.items()},
                  probe_sql, np.asarray(truths))


def shifted_inputs(seed: int, scale: Scale, n_requests: int) -> Inputs:
    from repro.data import load
    from repro.workload import generate_inworkload

    full = load("dmv", rows=scale.dmv_rows, seed=0)
    cfg = shifted_config(full)
    bounded = full.columns[0].name
    # the feedback the trainer sees and the held-out set are fixed
    fixed = np.random.default_rng([ACCURACY_SEED, 0])
    pool = generate_inworkload(full, scale.shift_pool, fixed,
                               bounded_column=bounded, cfg=cfg)
    held = generate_inworkload(full, max(200, scale.heldout), fixed,
                               bounded_column=bounded, cfg=cfg)
    sqls = [render_sql(q) for q in pool.queries]
    picks = np.random.default_rng([seed, 0]).integers(len(sqls),
                                                      size=n_requests)
    requests = [(sqls[i], "dmv") for i in picks]
    feedback = [(sqls[i % len(sqls)], float(pool.cardinalities[i % len(sqls)]))
                for i in range(n_requests)]
    return Inputs(requests, {"dmv": float(full.num_rows)},
                  [render_sql(q) for q in held.queries], held.cardinalities,
                  feedback)


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
@dataclass
class Sample:
    conn: int
    kind: str
    phase: str
    start: float
    end: float
    status: int
    body: dict
    namespace: str | None = None


class Generator:
    """Closed-loop driver over ``CONNECTIONS`` keep-alive clients."""

    def __init__(self, port: int, inputs: Inputs, refine: bool,
                 feedback_trigger: int = 0):
        self.port = port
        self.inputs = inputs
        self.refine = refine
        self.feedback_trigger = feedback_trigger
        self.trigger_answered: float | None = None
        self.samples: list[Sample] = []
        self.next_request = 0
        self.next_feedback = 0
        self.phase = "warmup"
        self.base_version: int | None = None
        self.swap_seen: float | None = None
        self.swap_probe: dict | None = None
        self._probe_due = False

    def _take(self):
        item = self.inputs.requests[self.next_request
                                    % len(self.inputs.requests)]
        self.next_request += 1
        return item

    async def _send(self, client, conn: int, kind: str, path: str,
                    payload: dict, namespace=None) -> Sample:
        start = time.perf_counter()
        try:
            status, body, _ = await client.post(path, payload)
        except (OSError, ConnectionError, asyncio.IncompleteReadError,
                ValueError) as exc:
            status, body = 0, {"error": type(exc).__name__}
        sample = Sample(conn, kind, self.phase, start, time.perf_counter(),
                        status, body if isinstance(body, dict) else {},
                        namespace)
        self.samples.append(sample)
        return sample

    async def _loop(self, client, conn: int, until) -> None:
        iteration = 0
        while not until():
            iteration += 1
            if self.refine and conn == 0 and self._probe_due:
                self._probe_due = False
                self.swap_probe = await self.probe(client)
                continue
            if self.refine and conn == 0 and self.phase != "warmup" \
                    and iteration % FEEDBACK_EVERY == 0:
                sql, truth = self.inputs.feedback[
                    self.next_feedback % len(self.inputs.feedback)]
                self.next_feedback += 1
                sample = await self._send(
                    client, conn, "feedback", "/feedback",
                    {"sql": sql, "true_cardinality": truth})
                if self.next_feedback == self.feedback_trigger:
                    self.trigger_answered = sample.end
                continue
            sql, namespace = self._take()
            sample = await self._send(client, conn, "estimate", "/estimate",
                                      {"sql": sql}, namespace)
            version = sample.body.get("version")
            if self.refine and self.swap_seen is None \
                    and self.base_version is not None \
                    and version is not None and version > self.base_version:
                self.swap_seen = sample.end
                self._probe_due = True

    async def drive(self, clients, until) -> None:
        await asyncio.gather(*(self._loop(c, i, until)
                               for i, c in enumerate(clients)))

    async def probe(self, client) -> dict:
        """Seeded, uncached ``/estimate_batch`` over the held-out set."""
        status, body, _ = await client.post("/estimate_batch", {
            "sql": self.inputs.probe_sql, "seed": PROBE_SEED,
            "use_cache": False})
        return {"status": status,
                "estimates": body.get("estimates", []) if status == 200
                else []}


def _versions(status_body: dict) -> dict:
    spaces = status_body.get("service", {}).get("namespaces", {})
    return {name: int(s["service"]["model_version"])
            for name, s in spaces.items()}


def _serve_totals(status_body: dict) -> dict:
    spaces = status_body.get("service", {}).get("namespaces", {})
    out = {"served": 0, "cache_served": 0, "flushes": 0, "budget_sheds": 0,
           "failures": 0}
    for space in spaces.values():
        for key in out:
            out[key] += int(space["service"].get(key, 0))
    out["door_sheds"] = int(status_body.get("front_door", {})
                            .get("sheds", 0))
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _expected_requests(workload: str, seconds: float) -> int:
    """Requests to pre-draw: warm-ups plus the window at up to 800/s.  A
    faster server wraps around to the start of the sequence (recorded
    as ``wrapped``)."""
    return (ENGINE_WARMUP_REQUESTS + CACHE_WARMUP_REQUESTS[workload]
            + int(800 * seconds))


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale) -> Outcome:
    refine = workload == "refine-under-load"
    config = {"workload": workload, "seed": seed, "scale": scale.name,
              "trace": int(trace)}
    make = shifted_inputs if refine else zipf_inputs
    setups: list[float] = []
    server = None
    try:
        for i in range(scale.setup_repeats):
            start = time.perf_counter()
            server = ServerProcess(config)
            # inputs are made while the server trains (another core)
            inputs = make(seed, scale, _expected_requests(workload, seconds))
            port = server.wait_ready()
            gen = Generator(port, inputs, refine, scale.feedback_trigger)
            asyncio.run(_warmup(gen, ENGINE_WARMUP_REQUESTS))
            setups.append(time.perf_counter() - start)
            if i + 1 < scale.setup_repeats:
                server.stop()
                server = None
        asyncio.run(_warmup(gen, ENGINE_WARMUP_REQUESTS
                            + CACHE_WARMUP_REQUESTS[workload]))
        return asyncio.run(_measure(server, gen, seconds, trace, setups,
                                    scale.est_samples))
    finally:
        if server is not None:
            server.kill()


async def _clients(port: int):
    from repro.serve.net import AsyncHTTPClient
    return [AsyncHTTPClient("127.0.0.1", port) for _ in range(CONNECTIONS)]


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _warmup(gen: Generator, until_request: int) -> None:
    """Untimed reads until ``until_request`` requests have been sent."""
    clients = await _clients(gen.port)
    try:
        await gen.drive(clients, lambda: gen.next_request >= until_request)
    finally:
        await _close(clients)


async def _measure(server: ServerProcess, gen: Generator, seconds: float,
                   trace: bool, setups: list, est_samples: int) -> Outcome:
    refine = gen.refine
    clients = await _clients(gen.port)
    try:
        status, body, _ = await clients[0].get("/status")
        start_versions = _versions(body)
        gen.base_version = start_versions.get("dmv")
        probe_start = await gen.probe(clients[0])

        overhead = None
        if trace:
            overhead = await _overhead_ratio(server, gen, clients)
            await asyncio.to_thread(server.command, "trace on")

        if refine:
            # the window opens once the refinement has been started
            gen.phase = "feedback"
            cap = time.perf_counter() + _TRIGGER_WAIT_CAP_S
            await gen.drive(clients, lambda: gen.trigger_answered is not None
                            or time.perf_counter() >= cap)
            gen.phase = "ingest"
            settle = time.perf_counter() + _INGEST_SETTLE_S
            await gen.drive(clients, lambda: time.perf_counter() >= settle)
        gen.phase = "steady"
        phase_start = time.perf_counter()
        window_end = phase_start + seconds
        await gen.drive(clients, lambda: time.perf_counter() >= window_end)
        phase_end = time.perf_counter()
        if refine:
            # reads go on through the swap and a little past it
            gen.phase = "after-window"
            cap = phase_end + _SWAP_WAIT_CAP_S

            def swapped() -> bool:
                now = time.perf_counter()
                return now >= cap or (
                    gen.swap_seen is not None and gen.swap_probe is not None
                    and now >= gen.swap_seen + _POST_SWAP_S)
            await gen.drive(clients, swapped)
        if trace:
            await asyncio.to_thread(server.command, "trace off")
        probe_end = await gen.probe(clients[0])
        status, body, _ = await clients[0].get("/status")
        end_versions = _versions(body)
        totals = _serve_totals(body)
    finally:
        await _close(clients)
    stats = server.stop()
    return _outcome(gen, trace, est_samples, setups, stats, totals,
                    start_versions, end_versions, probe_start, probe_end,
                    phase_start, phase_end, overhead)


async def _overhead_ratio(server: ServerProcess, gen: Generator,
                          clients) -> float:
    """Client throughput with span recording off over on, in alternating
    slices of reads (the server toggles its recording per slice); the
    host's own swings are of the same order, hence several pairs."""
    rates = {False: [], True: []}
    gen.phase = "calibration"
    refine, gen.refine = gen.refine, False     # reads only
    try:
        for enabled in (False, True) * _CALIBRATION_PAIRS:
            await asyncio.to_thread(server.command,
                                    "trace on" if enabled else "trace off")
            before = gen.next_request
            start = time.perf_counter()
            end = start + _CALIBRATION_SLICE_S
            await gen.drive(clients, lambda: time.perf_counter() >= end)
            rates[enabled].append((gen.next_request - before)
                                  / (time.perf_counter() - start))
    finally:
        gen.refine = refine
        await asyncio.to_thread(server.command, "trace off")
    return sum(rates[False]) / sum(rates[True])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _phase_counts(samples: list[Sample]) -> dict:
    out: dict = {}
    for s in samples:
        row = out.setdefault(s.phase, {"sent": 0, "succeeded": 0,
                                       "failed": 0})
        row["sent"] += 1
        row["succeeded" if s.status == 200 else "failed"] += 1
    return out


def _outcome(gen: Generator, trace: bool, est_samples: int, setups, stats,
             totals, start_versions, end_versions, probe_start, probe_end,
             phase_start, phase_end, overhead) -> Outcome:
    inputs, refine = gen.inputs, gen.refine
    window = [s for s in gen.samples if s.phase == "steady"]
    reads = [s for s in window if s.kind == "estimate"]
    if refine and gen.swap_seen is not None:
        for s in gen.samples:
            if s.phase == "after-window":
                s.phase = "post-swap" if s.start >= gen.swap_seen \
                    else "pre-swap"
    bad_status = sum(s.status != 200 for s in gen.samples)
    invalid = sum(count_invalid([s.body.get("estimate", -1.0)],
                                inputs.upper[s.namespace])
                  for s in gen.samples
                  if s.kind == "estimate" and s.status == 200)
    upper = max(inputs.upper.values())
    checks = {
        "all_responses_200": bad_status == 0,
        "estimates_valid": invalid == 0,
        "probe_status_200": probe_start["status"] == 200
        and probe_end["status"] == 200,
        "probe_estimates_valid": count_invalid(
            probe_end["estimates"], upper) == 0
        and len(probe_end["estimates"]) == len(inputs.probe_sql),
        "no_service_failures": totals["failures"] == 0,
    }
    qerr = qerror_summary(probe_end["estimates"] or [np.nan],
                          inputs.probe_truths[:len(probe_end["estimates"])
                                              or 1])
    record = {"setup_s_each": setups,
              "connections": CONNECTIONS,
              "phases": _phase_counts(gen.samples),
              "window_s": phase_end - phase_start,
              "reads": len(reads),
              "wrapped": gen.next_request > len(inputs.requests),
              "start_versions": start_versions,
              "end_versions": end_versions,
              "serve_totals": totals,
              "server_peak_rss_mb": stats.get("peak_rss_mb"),
              "qerror": qerr}
    if refine:
        seen = sorted({s.body.get("version") for s in gen.samples
                       if s.kind == "estimate" and s.status == 200})
        base = start_versions.get("dmv")
        pre = qerror_summary(probe_start["estimates"] or [np.nan],
                             inputs.probe_truths[
                                 :len(probe_start["estimates"]) or 1])
        swap_probe = gen.swap_probe or {"estimates": None}
        checks.update({
            "refinement_started": stats.get("refine_started") is not None,
            "version_advanced_once": end_versions.get("dmv") == base + 1
            and seen[-1] == base + 1,
            "probe_bit_identical_within_version":
                swap_probe["estimates"] == probe_end["estimates"],
            "post_swap_qerror_not_worse": qerr["p50"] <= pre["p50"],
        })
        record.update({"versions_seen": seen, "qerror_pre_swap": pre,
                       "refine_started": stats.get("refine_started"),
                       "swap_seen": gen.swap_seen,
                       "window_within_refinement": gen.swap_seen is None
                       or gen.swap_seen >= phase_end})
    else:
        checks["probe_bit_identical_within_version"] = \
            probe_start["estimates"] == probe_end["estimates"] \
            and start_versions == end_versions
    failed = bad_status + invalid + sum(not ok for ok in checks.values())
    attempted = len(gen.samples)
    reads.sort(key=lambda s: s.start)
    latencies = np.array([s.end - s.start for s in reads])
    starts = np.array([s.start for s in reads])
    ends = np.array([s.end for s in reads])
    steady = steady_metrics(
        latencies, lambda g: float(ends[g].max() - starts[g].min()))
    record["steady"] = steady
    lat = percentiles(latencies, (50, 95, 99))
    record["read_latency_ms"] = {k: (v * 1e3 if k != "n" else v)
                                 for k, v in lat.items()}
    record["reads_per_second"] = np.bincount(
        [int(s.end - phase_start) for s in reads]).tolist()
    if not trace:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": stats.get("peak_rss_mb"),
                   "ops_per_s": steady["ops_per_s"],
                   "op_p95_ms": steady["op_p95_ms"],
                   "qerror_p50": qerr["p50"],
                   "qerror_p95": qerr["p95"]}
        return Outcome(metrics, checks, attempted, failed, record)
    spans = [tuple(s) for s in stats.get("spans", ())]
    tree = request_trees(window, spans)
    metrics = _layer_metrics(gen, stats, totals, window, reads, lat,
                             overhead, refine, est_samples, spans, tree)
    return Outcome(metrics, checks, attempted, failed, record, tree)


def _layer_metrics(gen, stats, totals, window, reads, lat, overhead,
                   refine, est_samples, spans, tree) -> dict:
    busy = sum(s.end - s.start for s in window)
    layers = by_layer(self_times(tree))
    server_selfs = self_times(spans)
    by_name = _durations(spans)
    submits = {s[0] for s in spans if s[2] == "serve.submit"}
    expand = sum(end - start for _i, parent, name, start, end, _r in spans
                 if parent in submits and name.startswith("workload."))
    service = [(s.body.get("from_cache", False), s.body["service_ms"])
               for s in reads if "service_ms" in s.body]
    hits = [ms for cached, ms in service if cached]
    misses = [ms for cached, ms in service if not cached]
    wire = [(s.end - s.start) * 1e3 - s.body["service_ms"]
            for s in reads if "service_ms" in s.body]
    engine = by_name.get("infer.engine", [])
    rows = stats.get("counts", {}).get("infer.engine", 0.0)
    estimated = rows / est_samples
    metrics = {
        "trace.overhead_ratio": overhead,
        "trace.self_sum_ratio": sum(layers.values()) / busy,
        "trace.spans": len(spans) + len(window),
        **{f"self_frac.{k}": v / busy for k, v in layers.items()},
        "workload.parse_ms": _median_ms(by_name.get("workload.parse")),
        "workload.expand_ms": expand / max(len(submits), 1) * 1e3,
        "infer.schedule_self_ms":
            server_selfs.get("infer.schedule", 0.0) / max(estimated, 1) * 1e3,
        "infer.engine_ms": _mean_ms(engine),
        "infer.engine_calls": len(engine),
        "infer.rows_per_call": rows / max(len(engine), 1),
        "serve.wire_ms": statistics.median(wire) if wire else 0.0,
        "serve.service_hit_ms": statistics.median(hits) if hits else 0.0,
        "serve.service_miss_ms": statistics.median(misses) if misses
        else 0.0,
        "serve.submit_ms": _median_ms(by_name.get("serve.submit")),
        "serve.cache_hit_ratio": len(hits) / max(len(service), 1),
        # engine-bound requests per micro-batch flush
        "serve.batch_size_mean": (totals["served"] - totals["cache_served"])
        / max(totals["flushes"], 1),
        "serve.sheds": totals["door_sheds"] + totals["budget_sheds"],
        "serve.p99_ms": lat["p99"] * 1e3,
    }
    if refine:
        publish_end = max((s[4] for s in spans if s[2] == "serve.publish"),
                          default=None)
        refine_started = stats.get("refine_started")
        swap = gen.swap_seen
        post = [s.end - s.start for s in gen.samples
                if s.kind == "estimate" and swap is not None
                and s.start >= swap]
        metrics.update({
            "serve.publish_ms": _mean_ms(by_name.get("serve.publish")),
            "serve.swap_visible_ms": (swap - publish_end) * 1e3
            if swap and publish_end else 0.0,
            "serve.post_swap_p50_ms": _median_ms(post),
            "serve.refine_s": swap - refine_started
            if swap and refine_started else 0.0,
            "train.ingest_data_s": sum(by_name.get("train.ingest_data", ())),
            "train.ingest_queries_s":
                sum(by_name.get("train.ingest_queries", ())),
        })
    return metrics


def request_trees(window: list[Sample], server_spans: list[tuple]):
    """Client request spans with the server spans of each request
    attached: the span list whose self times add up to the time the
    connections were busy.

    Server spans carrying a request id hang under the request with that
    id; parse and feedback spans (no id at that boundary) under the
    latest request that started before them and ended after them; and
    each micro-batch flush is copied, clipped, under every request
    whose wait it overlaps, since each of those requests waited for it.
    """
    offset = max((s[0] for s in server_spans), default=0) + 1
    out: list[tuple] = []
    by_rid: dict = {}
    intervals = []
    for i, s in enumerate(window):
        span_id = offset + i
        rid = s.body.get("trace_id")
        out.append((span_id, 0, "wire.request", s.start, s.end, rid))
        if rid is not None:
            by_rid[rid] = span_id
        intervals.append((s.start, s.end, span_id, s.kind))
    intervals.sort()
    starts = [iv[0] for iv in intervals]
    children: dict[int, list[tuple]] = {}
    for span in server_spans:
        children.setdefault(span[1], []).append(span)

    def container(start: float, end: float, kinds) -> int | None:
        i = bisect.bisect_right(starts, start) - 1
        while i >= 0 and start - intervals[i][0] < 1.0:
            _lo, hi, span_id, kind = intervals[i]
            if kind in kinds and hi >= end:
                return span_id
            i -= 1
        return None

    ids = itertools.count(offset + len(window) + 1)

    def copy(span, parent, lo, hi) -> int | None:
        s_lo, s_hi = max(span[3], lo), min(span[4], hi)
        if s_hi <= s_lo:
            return None
        new_id = next(ids)
        out.append((new_id, parent, span[2], s_lo, s_hi, span[5]))
        for child in children.get(span[0], ()):
            copy(child, new_id, s_lo, s_hi)
        return new_id

    flushes = sorted((s for s in server_spans
                      if s[1] == 0 and s[2] == "infer.schedule"),
                     key=lambda s: s[3])
    flush_starts = [s[3] for s in flushes]
    longest = max((s[4] - s[3] for s in flushes), default=0.0)
    for span in server_spans:
        if span[1] != 0:
            continue
        name = span[2]
        if name in ("serve.submit", "serve.wait"):
            parent = by_rid.get(span[5])
        elif name == "workload.parse":
            parent = container(span[3], span[4], ("estimate", "feedback"))
        elif name == "serve.observe":
            parent = container(span[3], span[4], ("feedback",))
        else:
            continue
        if parent is None:
            continue
        copied = copy(span, parent, span[3], span[4])
        if name != "serve.wait" or copied is None:
            continue
        i = bisect.bisect_left(flush_starts, span[3] - longest)
        while i < len(flushes) and flushes[i][3] < span[4]:
            if flushes[i][4] > span[3]:
                copy(flushes[i], copied, span[3], span[4])
            i += 1
    return out


def _durations(spans: list[tuple]) -> dict:
    out: dict = {}
    for _i, _p, name, start, end, _r in spans:
        out.setdefault(name, []).append(end - start)
    return out


def _mean_ms(durations) -> float:
    return float(np.mean(durations)) * 1e3 if durations else 0.0


def _median_ms(durations) -> float:
    return float(np.median(durations)) * 1e3 if durations else 0.0
