"""Predicates and queries.

A query is a conjunction of predicates (paper Section 3); each predicate is
``<attribute> <op> <literal>`` with ``op`` one of ``=, !=, <, <=, >, >=, IN``.
Internally every predicate reduces to a boolean *validity mask* over the
column's code domain, which is the representation both the executor and the
samplers consume.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..data.table import Table

SUPPORTED_OPS = ("=", "!=", "<", "<=", ">", ">=", "IN")
RANGE_OPS = ("<", "<=", ">", ">=")


def sql_literal(value) -> str:
    """``value`` as the literal :func:`~repro.workload.parse_query` reads
    back as an equal value: numpy scalars as plain numbers, floats in
    positional notation (the grammar has no exponent), strings
    single-quoted with ``''`` escaping, and sequences as a parenthesised
    IN list."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(sql_literal(v) for v in value) + ")"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return np.format_float_positional(float(value), trim="0")
    return repr(value)


@dataclass(frozen=True)
class Predicate:
    """One constraint on one attribute."""

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in SUPPORTED_OPS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if self.op == "IN":
            if not isinstance(self.value, (list, tuple)):
                raise ValueError("IN predicate needs a list/tuple literal")
            # One spelling per IN list: equal and hashable whether built
            # from a list or parsed from SQL.
            object.__setattr__(self, "value", tuple(self.value))

    def __str__(self) -> str:
        return f"{self.column} {self.op} {sql_literal(self.value)}"


@dataclass(frozen=True)
class Query:
    """A conjunction of predicates over one table."""

    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))

    @property
    def columns(self) -> list[str]:
        return [p.column for p in self.predicates]

    def __str__(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(str(p) for p in self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    def masks(self, table: Table) -> dict[int, np.ndarray]:
        """Per-column validity masks over code domains.

        Conjunctions on the same column intersect.  Columns without
        predicates are absent (treated as wildcards downstream).
        """
        out: dict[int, np.ndarray] = {}
        for pred in self.predicates:
            idx = table.column_index(pred.column)
            mask = table.columns[idx].valid_mask(pred.op, pred.value)
            if idx in out:
                out[idx] = out[idx] & mask
            else:
                out[idx] = mask
        return out


def conjunction(*predicates: Predicate) -> Query:
    """Build a conjunctive query from predicates."""
    return Query(tuple(predicates))


def routing_signature(query) -> tuple[str, frozenset[str]]:
    """The (kind, targets) signature the serving router keys on.

    Join-shaped queries (anything carrying a non-empty ``tables``
    attribute, e.g. :class:`repro.joins.JoinQuery`) route by the set of
    tables they touch; single-table queries route by the set of columns
    their predicates constrain.  Duck-typed so the workload layer does
    not import the joins package.
    """
    tables = getattr(query, "tables", None)
    if tables:
        return "join", frozenset(tables)
    return "table", frozenset(p.column for p in query.predicates)


def query_from_ranges(table: Table,
                      ranges: dict[str, tuple[object, object]]) -> Query:
    """Convenience: build ``lo <= col <= hi`` conjunctions from a dict."""
    preds: list[Predicate] = []
    for name, (lo, hi) in ranges.items():
        preds.append(Predicate(name, ">=", lo))
        preds.append(Predicate(name, "<=", hi))
    return Query(tuple(preds))


@dataclass
class LabeledWorkload:
    """Queries with their true cardinalities (the paper's (Q, C))."""

    queries: list[Query]
    cardinalities: np.ndarray

    def __post_init__(self):
        self.cardinalities = np.asarray(self.cardinalities, dtype=np.float64)
        if len(self.queries) != len(self.cardinalities):
            raise ValueError("queries and cardinalities must align")

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, idx) -> tuple[Query, float]:
        return self.queries[idx], float(self.cardinalities[idx])

    def selectivities(self, num_rows: int) -> np.ndarray:
        return self.cardinalities / float(num_rows)

    def split(self, n_first: int) -> tuple["LabeledWorkload", "LabeledWorkload"]:
        return (LabeledWorkload(self.queries[:n_first],
                                self.cardinalities[:n_first]),
                LabeledWorkload(self.queries[n_first:],
                                self.cardinalities[n_first:]))

    def subset(self, indices: Sequence[int]) -> "LabeledWorkload":
        return LabeledWorkload([self.queries[i] for i in indices],
                               self.cardinalities[list(indices)])
