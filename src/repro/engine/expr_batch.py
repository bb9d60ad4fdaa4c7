"""Batch-level compilation of row expressions.

A tuple-at-a-time interpreter pays one Python call *per row per
expression* plus a generator/``tuple()``/``all()`` allocation per row
per operator.  This module turns lists of per-row :data:`Compiled
<repro.engine.expr.Compiled>` closures into **one closure per batch**:
the comprehension body is generated as source text and compiled with
``eval``, so the per-row loop runs inside a single C-level list
comprehension instead of N interpreter dispatches.

Fast paths: closures that :class:`~repro.engine.expr.ExprCompiler`
tagged as plain slot reads (``fn.slot``) vectorize into a single
``operator.itemgetter`` call over the whole batch — no per-row Python
frame at all.

Compiled batch programs are pure functions of the plan node's
expressions, so they are built once per plan node and cached on the
node itself (:func:`node_program`); cached plans keep their programs
across executions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from .columnstore import ColumnBatch
from .expr import _COMPARE, _coerce_pair
from .values import sort_key

#: Comparison closures whose operator can be inlined as source text
#: (identity-keyed: ``.cmp`` tags carry the shared ``_COMPARE`` lambdas).
_CMP_SOURCE = {
    _COMPARE[op]: source
    for op, source in (
        ("=", "=="),
        ("<>", "!="),
        ("<", "<"),
        ("<=", "<="),
        (">", ">"),
        (">=", ">="),
    )
}

#: A compiled batch transform: (rows, params) -> rows.
BatchFn = Callable[[list, Sequence[object]], list]

_MISSING = object()


def _codegen(source: str, namespace: dict):
    """Compile generated comprehension source into a callable."""
    return eval(compile(source, "<expr_batch>", "eval"), namespace)


def node_program(node, key: str, builder):
    """The compiled batch program ``key`` for a plan node, built once.

    Programs depend only on the node's compiled expressions, so they
    stay valid for the node's whole lifetime (plan caches included) and
    are shared by every executor running the plan.
    """
    cache = node.__dict__.get("_batch_programs")
    if cache is None:
        cache = node.__dict__["_batch_programs"] = {}
    program = cache.get(key)
    if program is None:
        program = cache[key] = builder()
    return program


# -- predicates ---------------------------------------------------------------


def _row_filter(predicates: Sequence) -> BatchFn:
    """``[r for r in rows if p0(r) is True and ...]``.  A tagged
    ``slot IN (?, ...)`` is inlined as one set probe per row, its items
    evaluated once per batch; an unhashable item or value (TypeError)
    reruns the batch through the row closures, whose ``==`` test the
    set probe matches for hashable values (``True == 1`` included)."""
    namespace: dict = {}
    closures, conditions, binds = [], [], []
    for i, predicate in enumerate(predicates):
        namespace[f"p{i}"] = predicate
        closures.append(f"p{i}(r, params) is True")
        inlist = getattr(predicate, "inlist", None)
        if inlist is None:
            conditions.append(closures[-1])
            continue
        slot, namespace[f"m{i}"], negated = inlist
        binds.append(
            f"for s{i} in [frozenset([m(None, params) for m in m{i}])] "
        )
        test = "not in" if negated else "in"
        conditions.append(f"((v := r[{slot}]) is not None and v {test} s{i})")
    by_closures = _codegen(
        f"lambda rows, params: [r for r in rows if {' and '.join(closures)}]",
        namespace,
    )
    if not binds:
        return by_closures
    by_sets = _codegen(
        f"lambda rows, params: [r {''.join(binds)}for r in rows "
        f"if {' and '.join(conditions)}]",
        namespace,
    )

    def program(rows, params):
        try:
            return by_sets(rows, params)
        except TypeError:
            return by_closures(rows, params)

    return program


def _member_program(predicate):
    """``(batch, params, sel) -> sel`` for a tagged IN list over a
    :class:`ColumnBatch`, or ``None``.  NULL operands are never True
    (the row closures return None for them).  All-literal lists
    (``.inset``) carry their frozenset; ``.inlist`` items (literals and
    ``?`` parameters) are evaluated once per batch, falling back to the
    row closure's ``==`` test when a value is unhashable."""
    inset = getattr(predicate, "inset", None)
    inlist = getattr(predicate, "inlist", None)
    if inset is None and inlist is None:
        return None
    slot, values, negated = inset or inlist

    def run(batch: ColumnBatch, params, sel):
        column = batch.col(slot)
        rows = range(len(column)) if sel is None else sel
        listed = values if inset else [item(None, params) for item in values]
        try:
            members = values if inset else frozenset(listed)
            return [
                i
                for i in rows
                if (v := column[i]) is not None and (v in members) != negated
            ]
        except TypeError:
            return [
                i
                for i in rows
                if (v := column[i]) is not None
                and any(x == v for x in listed) != negated
            ]

    return run


def _columnar_predicate(predicate):
    """Selection program for one ``.cmp``-tagged comparison or tagged
    IN list, or ``None``.

    The program maps ``(batch, params, sel)`` to the narrowed selection
    (row positions within the batch where the predicate is exactly
    True).  Semantics replicate the tagged row closure: NULL operands
    are never True, date/ISO-string pairs coerce via ``_coerce_pair``,
    and incompatible types compare under ``sort_key`` total order.
    Stored columns are type-homogeneous (``SqlType.check`` enforces
    declared types), so one probe value decides per batch whether
    coercion applies at all, and to which side.
    """
    member = _member_program(predicate)
    if member is not None:
        return member
    cmp = getattr(predicate, "cmp", None)
    if cmp is None:
        return None
    slot, fn, other, swapped = cmp
    # ``.cmp`` tags carry the shared ``_COMPARE`` lambdas, so the
    # operator inlines as source text: no per-value lambda call.
    sym = _CMP_SOURCE[fn]
    cond = f"(c {sym} v)" if swapped else f"(v {sym} c)"
    dense_fast = _codegen(
        "lambda column, c: [i for i, v in enumerate(column) "
        f"if v is not None and {cond} is True]",
        {},
    )
    sparse_fast = _codegen(
        "lambda column, c, sel: [i for i in sel "
        f"if (v := column[i]) is not None and {cond} is True]",
        {},
    )

    def careful(column, c, sel):
        pairs = (
            enumerate(column) if sel is None else ((i, column[i]) for i in sel)
        )
        out = []
        for i, v in pairs:
            if v is None:
                continue
            a, b = (c, v) if swapped else (v, c)
            a, b = _coerce_pair(a, b)
            try:
                ok = fn(a, b)
            except TypeError:
                ok = fn(sort_key(a), sort_key(b))
            if ok is True:
                out.append(i)
        return out

    def run(batch: ColumnBatch, params, sel):
        c = other(None, params)
        if c is None:
            return []  # comparison against NULL is never True
        column = batch.col(slot)
        probe = next(
            (column[i] for i in (range(len(column)) if sel is None else sel)
             if column[i] is not None),
            None,
        )
        if probe is None:
            return []
        a0, b0 = (c, probe) if swapped else (probe, c)
        ca, cb = _coerce_pair(a0, b0)
        fast_c = c
        if ca is not a0 or cb is not b0:
            # Date/string coercion applies to this column/value pair.
            # When the column holds the dates, the ISO constant is what
            # coerces: parse it once for the batch.  When the column
            # holds the strings, every value parses: go per value.
            if (cb if swapped else ca) is not probe:
                return careful(column, c, sel)
            fast_c = ca if swapped else cb
        try:
            if sel is None:
                return dense_fast(column, fast_c)
            return sparse_fast(column, fast_c, sel)
        except TypeError:
            # Mixed incomparable types mid-column (never the case for
            # stored data, but stay exact): redo with the total order.
            return careful(column, c, sel)

    return run


def compile_filter(predicates: Sequence) -> BatchFn | None:
    """``[r for r in rows if p0(r) is True and p1(r) is True ...]``.

    Returns ``None`` for an empty conjunction (the caller passes the
    batch through untouched instead of copying it).  On a
    :class:`~repro.engine.columnstore.ColumnBatch`, predicates tagged by
    the expression compiler as column-vs-constant comparisons evaluate
    against stored columns first — narrowing a selection vector — and
    only the surviving rows are ever assembled into tuples (late
    materialization); untagged predicates then run row-at-a-time over
    the survivors.
    """
    if not predicates:
        return None
    row_program = _row_filter(predicates)
    columnar = [_columnar_predicate(p) for p in predicates]
    tagged = [run for run in columnar if run is not None]
    untagged = [p for p, run in zip(predicates, columnar) if run is None]
    if not tagged:
        return row_program
    residual_program = _row_filter(untagged) if untagged else None

    def program(rows, params):
        if type(rows) is not ColumnBatch:
            return row_program(rows, params)
        sel = None
        for run in tagged:
            sel = run(rows, params, sel)
            if not sel:
                return []
        narrowed = rows.take(sel)
        if residual_program is not None:
            return residual_program(narrowed.rows(), params)
        return narrowed

    return program


# -- projections / key extraction ---------------------------------------------


def _column_program(expr):
    """``(batch, params) -> value list`` straight off stored columns.

    Returns ``None`` when the expression has no columnar evaluation:
    slot reads return the stored column itself, constants replicate,
    and ``.map1``-tagged unary functions (``TO_INT(colN)`` casts and
    friends) map one column through a single C-level comprehension —
    NULLs propagate, matching the row closure.
    """
    slot = getattr(expr, "slot", None)
    if slot is not None:
        return lambda batch, params: batch.col(slot)
    const = getattr(expr, "const", _MISSING)
    if const is not _MISSING:
        return lambda batch, params: [const] * len(batch)
    map1 = getattr(expr, "map1", None)
    if map1 is not None:
        map_slot, fn = map1
        return lambda batch, params: [
            None if v is None else fn(v) for v in batch.col(map_slot)
        ]
    return None


def compile_tuples(exprs: Sequence) -> BatchFn:
    """One output tuple per input row: projections, join keys, group
    keys.  All-slot expression lists become a single ``itemgetter``;
    over a :class:`ColumnBatch`, any list whose members all evaluate
    columnar (:func:`_column_program`) zips value lists instead of
    assembling input row tuples."""
    if not exprs:
        empty = ()
        return lambda rows, params: [empty] * len(rows)
    slots = [getattr(e, "slot", None) for e in exprs]
    if all(s is not None for s in slots):
        if len(slots) == 1:
            getter = itemgetter(slots[0])
            slot0 = slots[0]

            def single(rows, params):
                if type(rows) is ColumnBatch:
                    return [(v,) for v in rows.col(slot0)]
                return [(v,) for v in map(getter, rows)]

            return single
        getter = itemgetter(*slots)

        def multi(rows, params):
            if type(rows) is ColumnBatch:
                # Keys straight off the stored columns — no row tuples.
                return list(zip(*[rows.col(s) for s in slots]))
            return list(map(getter, rows))

        return multi
    namespace: dict = {}
    parts = []
    for i, expr in enumerate(exprs):
        namespace[f"e{i}"] = expr
        parts.append(f"e{i}(r, params)")
    body = ", ".join(parts) + ("," if len(parts) == 1 else "")
    source = f"lambda rows, params: [({body}) for r in rows]"
    row_program = _codegen(source, namespace)
    programs = [_column_program(e) for e in exprs]
    if any(p is None for p in programs):
        return row_program

    def columnar(rows, params):
        if type(rows) is ColumnBatch:
            return list(zip(*[p(rows, params) for p in programs]))
        return row_program(rows, params)

    return columnar


def compile_values(expr) -> BatchFn:
    """One output *value* per input row (aggregate arguments).

    A slot read over a :class:`ColumnBatch` returns the stored column
    itself (callers treat value lists as read-only), so aggregates over
    columnar scans never assemble row tuples at all; ``.map1``-tagged
    casts map the stored column the same way.
    """
    slot = getattr(expr, "slot", None)
    if slot is not None:
        getter = itemgetter(slot)

        def values(rows, params):
            if type(rows) is ColumnBatch:
                return rows.col(slot)
            return list(map(getter, rows))

        return values
    const = getattr(expr, "const", _MISSING)
    if const is not _MISSING:
        return lambda rows, params: [const] * len(rows)
    row_program = _codegen(
        "lambda rows, params: [e0(r, params) for r in rows]", {"e0": expr}
    )
    column_program = _column_program(expr)
    if column_program is None:
        return row_program

    def mapped(rows, params):
        if type(rows) is ColumnBatch:
            return column_program(rows, params)
        return row_program(rows, params)

    return mapped


# -- sorting ------------------------------------------------------------------


class _Desc:
    """Inverts comparisons for one descending component of a composite
    sort key (only needed when ascending and descending keys mix)."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other) -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return other.key == self.key


def compile_sort_keys(keys: Sequence[tuple]) -> tuple[BatchFn, bool]:
    """``(program, reverse)`` for an ORDER BY key list.

    The program maps a batch to one composite decorated key per row
    (``sort_key`` applied to every component, computed exactly once per
    row).  Uniform directions sort with ``reverse``; mixed directions
    wrap the descending components in :class:`_Desc`.
    """
    descending = [d for _, d in keys]
    uniform = all(descending) or not any(descending)
    namespace: dict = {"sort_key": sort_key, "_Desc": _Desc}
    parts = []
    for i, (expr, desc) in enumerate(keys):
        namespace[f"e{i}"] = expr
        part = f"sort_key(e{i}(r, params))"
        if not uniform and desc:
            part = f"_Desc({part})"
        parts.append(part)
    if len(parts) == 1:
        body = parts[0]  # single key: no tuple wrapper needed
    else:
        body = "(" + ", ".join(parts) + ")"
    source = f"lambda rows, params: [{body} for r in rows]"
    return _codegen(source, namespace), (uniform and descending[0])


def sort_rows(node, rows: list, params: Sequence[object]) -> list:
    """Sort a PSort node's input: decorate once (one composite key per
    row), sort once on precomputed keys, undecorate.

    Replaces the historical one-``list.sort``-per-key loop whose key
    lambda re-evaluated the expression and ``sort_key`` for every row in
    every pass.  Stability is preserved (ties keep input order), so both
    executors produce identical orders.
    """
    if not node.keys or len(rows) < 2:
        return rows
    program, reverse = node_program(
        node, "sort", lambda: compile_sort_keys(node.keys)
    )
    decorated = program(rows, params)
    order = sorted(
        range(len(rows)), key=decorated.__getitem__, reverse=reverse
    )
    return [rows[i] for i in order]
