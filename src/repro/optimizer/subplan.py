"""Optimizer-in-the-loop: sub-plan cardinalities from the serving tier.

The DP planner asks for the cardinality of every connected fragment of a
query.  :class:`ServingCardinalityProvider` answers that card function
through a live serving front door (:class:`~repro.serve.router.
RoutedEstimateService` or a single :class:`~repro.serve.server.UAEServer`)
the way the related work's ``CardinalityGenerator`` adapters do — but
instead of up to ``2^N`` per-fragment round trips per plan it collects
the query's connected fragments up front (deterministic order: smallest
subsets first, lexicographic within a size) and issues **one batched,
seeded** ``estimate_batch`` call, so every sub-plan answer is
bit-reproducible against the single-process engine reference
(``estimate_on`` with the same snapshot, fragment order, and seed).

Answers are cached per (namespace version, plan signature) and the
cache invalidates the way the serving tier's ``ResultCache`` does: a
newer published version clears it, so a hot-swap is immediately visible
to the planner.  Because a seeded batch's Monte-Carlo stream is shared
across the batch, a plan's card function answers only from that plan's
own batch — another plan sharing a fragment got a different value for
it from its own stream, and reusing it would silently break the
bit-identity contract.

:class:`UESPessimisticProvider` is the pessimistic baseline: an
UES-style upper bound (Hertzschuch et al., CIDR 2021) propagating
per-edge frequency bounds, never below the true cardinality.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from ..data.schema import Schema
from ..joins.workload import JoinQuery
from ..workload.fragments import extract_fragment, fragment_signature
from .cost import CardFn
from .planner import JoinGraph


class ServingCardinalityProvider:
    """A planner card function answered by the live serving tier.

    ``service`` is a routed front door (anything with ``resolve`` +
    ``estimate_batch``/``estimate_on``) or a bare ``UAEServer``.  The
    provider exposes the adapter API the optimizer study expects
    (``name`` + ``card_fn(query)``), plus counters the plan-quality
    bench gates on: ``batched_calls`` must equal the number of distinct
    plans prefetched (one round trip per plan) and ``fallback_calls``
    stays zero when every DP request was covered by the prefetch.
    """

    name = "UAE-serving"

    def __init__(self, service, schema: Schema, *, seed: int = 1234,
                 namespace: str | None = None):
        self.service = service
        self.schema = schema
        self.graph = JoinGraph.from_schema(schema)
        self.seed = int(seed)
        self.namespace = namespace
        self._lock = threading.Lock()
        self._versions: dict[str, int] = {}
        # plan key -> (fragment values in plan order, {subset: value})
        self._prefetched: dict[tuple, tuple[np.ndarray, dict]] = {}
        self.batched_calls = 0
        self.fragments_estimated = 0
        self.fallback_calls = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Fragment plumbing
    # ------------------------------------------------------------------
    def plan_fragments(self, query: JoinQuery) -> list[JoinQuery]:
        """The query's connected fragments in the (deterministic) order
        the batched call estimates them."""
        return [extract_fragment(query, subset)
                for subset in self.graph.connected_subsets(query.tables)]

    def seed_for(self, query: JoinQuery) -> int:
        """Per-query sampling seed: derived from the provider seed and
        the query's signature via crc32 (stable across processes, unlike
        builtin ``hash``), so reference recomputations agree bit-for-bit
        wherever they run."""
        digest = zlib.crc32(repr(fragment_signature(query)).encode("utf-8"))
        return int((self.seed * 0x9E3779B1 + digest) % (2 ** 31 - 1))

    # ------------------------------------------------------------------
    # Serving-tier access
    # ------------------------------------------------------------------
    def _target(self, query) -> tuple[str, int]:
        """(namespace name, live model version) serving ``query``."""
        resolve = getattr(self.service, "resolve", None)
        if resolve is not None:
            space = resolve(query, namespace=self.namespace)
            return space.name, space.version
        return (getattr(self.service, "namespace", "default"),
                self.service.registry.version)

    def _estimate(self, fragments: list, seed: int) -> np.ndarray:
        if hasattr(self.service, "resolve"):
            return self.service.estimate_batch(
                fragments, namespace=self.namespace, seed=seed)
        return self.service.estimate_batch(fragments, seed=seed)

    def reference(self, query: JoinQuery) -> np.ndarray:
        """Single-process seeded engine answers for the plan's fragments
        — what :meth:`prefetch` must match bit-for-bit."""
        fragments = self.plan_fragments(query)
        seed = self.seed_for(query)
        if hasattr(self.service, "resolve"):
            space = self.service.resolve(query, namespace=self.namespace)
            return self.service.estimate_on(space.name, fragments, seed=seed)
        snap = self.service.registry.active()
        return self.service.service.estimate_on(snap, fragments, seed=seed)

    # ------------------------------------------------------------------
    # Cache (ResultCache-style version sync)
    # ------------------------------------------------------------------
    def _sync_locked(self, name: str, version: int) -> None:
        stored = self._versions.get(name)
        if stored is None or version > stored:
            self._versions[name] = version
            if stored is not None:
                self.invalidations += 1
            self._prefetched = {key: value
                                for key, value in self._prefetched.items()
                                if key[0] != name}

    def _plan(self, query: JoinQuery, name: str,
              version: int) -> tuple[np.ndarray, dict] | None:
        plan_key = (name, fragment_signature(query))
        with self._lock:
            self._sync_locked(name, version)
            return self._prefetched.get(plan_key)

    def prefetch(self, query: JoinQuery) -> np.ndarray:
        """All connected fragment cardinalities of ``query``, via at most
        one batched seeded round trip (cached per model version)."""
        name, version = self._target(query)
        cached = self._plan(query, name, version)
        if cached is not None:
            return cached[0].copy()
        subsets = self.graph.connected_subsets(query.tables)
        fragments = [extract_fragment(query, subset) for subset in subsets]
        values = np.asarray(self._estimate(fragments, self.seed_for(query)),
                            dtype=np.float64)
        self.batched_calls += 1
        self.fragments_estimated += len(fragments)
        with self._lock:
            self._sync_locked(name, version)
            if self._versions.get(name) == version:
                self._prefetched[(name, fragment_signature(query))] = (
                    values.copy(), dict(zip(subsets, values.tolist())))
        return values

    def lookup(self, query: JoinQuery, subset: frozenset) -> float:
        """The served cardinality of one fragment (raw, unfloored), from
        ``query``'s own prefetched batch."""
        subset = frozenset(subset)
        name, version = self._target(query)
        plan = self._plan(query, name, version)
        if plan is None:
            # A hot-swap invalidated the plan's answers (or it was never
            # prefetched): re-batch the whole plan.
            self.prefetch(query)
            plan = self._plan(query, name, version)
        value = None if plan is None else plan[1].get(subset)
        if value is None:
            # The subset is outside the plan's connected fragments (or a
            # swap raced the re-batch): one single-fragment seeded call.
            fragment = extract_fragment(query, subset)
            self.fallback_calls += 1
            value = float(self._estimate([fragment],
                                         self.seed_for(query))[0])
        return value

    # ------------------------------------------------------------------
    # Adapter API
    # ------------------------------------------------------------------
    def card_fn(self, query: JoinQuery) -> CardFn:
        self.prefetch(query)

        def fn(subset: frozenset) -> float:
            return max(self.lookup(query, subset), 1.0)
        return fn


class UESPessimisticProvider:
    """UES-style pessimistic cardinality bounds for the planner.

    Upper-bound propagation (Hertzschuch et al., CIDR 2021): base-table
    cardinalities after filters, and per-edge *global* frequency bounds —
    ``MF(child)`` the maximum rows any key matches in a child, and
    ``U(child)`` the maximum multiplicity of its parent key (1 for a
    unique primary key).  The bound for a fragment is the minimum over
    anchor tables of ``filtered(anchor) * prod(edge bounds)``, which
    never falls below the true cardinality — the defining property the
    plan-quality bench verifies fragment by fragment.
    """

    name = "UES"

    def __init__(self, schema: Schema):
        self.schema = schema
        self.center = schema.center
        self.max_child_fanout: dict[str, float] = {}
        self.max_center_mult: dict[str, float] = {}
        for fk in schema.foreign_keys:
            child_keys = schema.tables[fk.child].raw_column(
                fk.child_col).astype(np.int64)
            self.max_child_fanout[fk.child] = \
                float(np.bincount(child_keys).max()) if child_keys.size \
                else 0.0
            parent_keys = schema.tables[fk.parent].raw_column(
                fk.parent_col).astype(np.int64)
            self.max_center_mult[fk.child] = \
                float(np.bincount(parent_keys).max()) if parent_keys.size \
                else 0.0
        self._filter_cache: dict[tuple, float] = {}

    def _filtered_count(self, query: JoinQuery, name: str) -> float:
        predicates = query.predicates_for(name)
        key = (name, tuple((p.column, p.op, repr(p.value))
                           for p in predicates))
        if key not in self._filter_cache:
            table = self.schema.tables[name]
            keep = np.ones(table.num_rows, dtype=bool)
            for pred in predicates:
                idx = table.column_index(pred.column)
                mask = table.columns[idx].valid_mask(pred.op, pred.value)
                keep &= mask[table.codes[:, idx]]
            self._filter_cache[key] = float(keep.sum())
        return self._filter_cache[key]

    def cardinality(self, query: JoinQuery, subset: frozenset) -> float:
        subset = frozenset(subset)
        counts = {name: self._filtered_count(query, name) for name in subset}
        if len(subset) == 1:
            return max(next(iter(counts.values())), 1e-6)
        bounds = []
        for anchor in sorted(subset):
            bound = counts[anchor]
            for other in sorted(subset):
                if other == anchor:
                    continue
                if other == self.center:
                    # Crossing from a child into the center: each row
                    # matches at most U(anchor) center rows.
                    bound *= self.max_center_mult[anchor]
                else:
                    bound *= self.max_child_fanout[other]
            bounds.append(bound)
        return max(min(bounds), 1e-6)

    def card_fn(self, query: JoinQuery) -> CardFn:
        cache: dict[frozenset, float] = {}

        def fn(subset: frozenset) -> float:
            subset = frozenset(subset)
            if subset not in cache:
                cache[subset] = max(self.cardinality(query, subset), 1.0)
            return cache[subset]
        return fn
