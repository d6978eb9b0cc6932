"""The benchmark's SQL rendering reads back through the repo's parser.

    python3 -m pytest -q perfbench/tests/check_render.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from common import (FULL, SRC, render_sql, shifted_config,  # noqa: E402
                    sql_literal, workload_config)

sys.path.insert(0, SRC)

from repro.data import load  # noqa: E402
from repro.workload import Predicate, Query, generate_inworkload  # noqa: E402
from repro.workload.sqlparse import parse_query  # noqa: E402


def _namespaces():
    """Every namespace the HTTP workloads route to, with the query
    shapes sent to it."""
    dmv = load("dmv", rows=FULL.dmv_rows, seed=0)
    census = load("census", rows=FULL.census_rows, seed=0)
    return [("dmv", dmv, workload_config(), None),
            ("census", census, workload_config(), None),
            ("dmv-shifted", dmv, shifted_config(dmv), dmv.columns[0].name)]


@pytest.mark.parametrize("name,table,cfg,bounded", _namespaces(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_generated_queries_round_trip(name, table, cfg, bounded):
    workload = generate_inworkload(table, 200, np.random.default_rng(7),
                                   bounded_column=bounded, cfg=cfg)
    for query in workload.queries:
        assert parse_query(render_sql(query)) == query


def test_numpy_literals_render_as_plain_values():
    # repr(np.int32(5)) is 'np.int32(5)' under numpy 2: not SQL
    assert sql_literal(np.int32(5)) == "5"
    assert sql_literal(np.int64(-3)) == "-3"
    assert sql_literal(np.str_("BK")) == "'BK'"
    assert sql_literal(np.float64(1e-05)) == "0.00001"


def test_quotes_floats_and_in_lists_round_trip():
    query = Query((Predicate("color_code", "=", "O'Brien"),
                   Predicate("weight", "<=", 2.5e-07),
                   Predicate("county", "IN", (1, 2, 30))))
    assert parse_query(render_sql(query)) == query


def test_non_finite_literals_are_refused():
    with pytest.raises(ValueError):
        sql_literal(float("nan"))
