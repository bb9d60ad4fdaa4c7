"""Flattened-query generation for less-sophisticated optimizers.

Section 6.2, Test 1: MySQL's optimizer "was unable to unnest the nesting
introduced by our query transformation", so for such databases the
transformation layer "must directly generate the flattened queries" —
and, because the optimizer also follows the textual predicate order, the
order in which the flattener emits conjuncts changes the plan (the paper
measured a factor of 5 between orderings).

:func:`flatten_transformed` merges the reconstruction subqueries into a
single select-project-join block; :func:`order_predicates` rewrites the
WHERE conjunct order per the experiment's two orderings.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable

from ...engine.plan.logical import (
    block_to_select,
    build_block,
    conjoin,
    flatten_block,
    qualify_block,
    split_conjuncts,
)
from ...engine.sql import ast

#: Meta-data column names (the gray columns of Figure 4).
META_COLUMNS = {"tenant", "tbl", "chunk", "col", "row", "alive"}


class PredicateOrder(enum.Enum):
    """Conjunct orderings studied in Test 1."""

    #: All meta-data predicates precede the original query's predicates
    #: (the ordering that performed 5x *worse* on MySQL).
    METADATA_FIRST = "metadata-first"
    #: Original-query predicates first — mimicking DB2's evaluation plan.
    ORIGINAL_FIRST = "original-first"


def flatten_transformed(
    select: ast.Select, column_lookup: Callable[[str], list[str]]
) -> ast.Select:
    """Merge reconstruction subqueries into one flat SPJ block.

    ``column_lookup`` resolves *physical* table names (the engine
    catalog).  Non-mergeable subqueries (aggregating) are left nested.
    """
    block = qualify_block(build_block(select), column_lookup)
    return block_to_select(flatten_block(block))


def is_metadata_predicate(conjunct: ast.Expr) -> bool:
    """True when the conjunct only touches meta-data columns (tenant,
    tbl, chunk, col, row, alive) — reconstruction plumbing rather than
    the original query's logic."""
    return all(
        node.column.lower() in META_COLUMNS
        for node in ast.walk(conjunct)
        if isinstance(node, ast.ColumnRef)
    )


def order_predicates(select: ast.Select, order: PredicateOrder) -> ast.Select:
    """Reorder the top-level WHERE conjuncts."""
    if select.where is None:
        return select
    conjuncts = split_conjuncts(select.where)
    metadata = [c for c in conjuncts if is_metadata_predicate(c)]
    original = [c for c in conjuncts if not is_metadata_predicate(c)]
    if order is PredicateOrder.METADATA_FIRST:
        ordered = metadata + original
    else:
        ordered = original + metadata
    return dataclasses.replace(select, where=conjoin(ordered))
