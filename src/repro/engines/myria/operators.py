"""Logical operators and row-level evaluation for miniMyria.

The planner (:mod:`repro.engines.myria.plan`) compiles parsed MyriaL
into chains of these operators; each operator knows how to process one
worker's rows (real compute) and how to price that work (simulated
seconds), mirroring Myria's operator-graph query plans (Section 2).
"""

from repro.engines.base import nominal_bytes_of
from repro.engines.myria.myrial import Column, Literal, UdfCall
from repro.engines.spark.partitioner import stable_hash


class RowContext:
    """Column resolution for a row produced by one or two aliases."""

    def __init__(self, columns_by_ref, row):
        # columns_by_ref: {(alias, column) or ("", column): index}
        self.columns_by_ref = columns_by_ref
        self.row = row

    def value(self, column):
        """The wrapped value."""
        key = (column.alias, column.name)
        if key in self.columns_by_ref:
            return self.row[self.columns_by_ref[key]]
        # Fall back to unqualified lookup.
        fallback = ("", column.name)
        if fallback in self.columns_by_ref:
            return self.row[self.columns_by_ref[fallback]]
        matches = [
            idx for (alias, name), idx in self.columns_by_ref.items()
            if name == column.name
        ]
        if len(matches) == 1:
            return self.row[matches[0]]
        raise KeyError(
            f"cannot resolve column {column.alias}.{column.name};"
            f" known: {sorted(self.columns_by_ref)}"
        )


def build_column_map(alias, columns, offset=0):
    """Reference map for one alias's columns starting at ``offset``."""
    refs = {}
    for i, name in enumerate(columns):
        refs[(alias, name)] = offset + i
        refs.setdefault(("", name), offset + i)
    return refs


def evaluate(expr, ctx, udfs):
    """Evaluate an emit/condition expression against a row context."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        return ctx.value(expr)
    if isinstance(expr, UdfCall):
        fn = udfs[expr.fname]
        args = [evaluate(a, ctx, udfs) for a in expr.args]
        return fn(*args)
    raise TypeError(f"cannot evaluate expression {expr!r}")


def expression_cost(expr, ctx, udfs):
    """Simulated seconds to evaluate ``expr`` on this row."""
    if isinstance(expr, UdfCall):
        fn = udfs[expr.fname]
        args = [evaluate(a, ctx, udfs) for a in expr.args]
        inner = sum(expression_cost(a, ctx, udfs) for a in expr.args)
        return inner + fn.cost(*args)
    return 0.0


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def check_condition(condition, ctx, udfs):
    """Check condition."""
    left = evaluate(condition.left, ctx, udfs)
    right = evaluate(condition.right, ctx, udfs)
    return _COMPARATORS[condition.op](left, right)


def split_conditions(conditions):
    """Separate equi-join conditions from single-table selections."""
    joins, selections = [], []
    for condition in conditions:
        if condition.is_join() and condition.left.alias != condition.right.alias:
            if condition.op != "=":
                raise ValueError(
                    f"only equi-joins are supported, got {condition.op}"
                )
            joins.append(condition)
        else:
            selections.append(condition)
    return joins, selections


def hash_join(left_rows, left_refs, right_rows, right_refs, join_conditions, udfs):
    """In-memory hash join; returns concatenated rows.

    The right side is built into a hash table (the broadcast side in a
    broadcast join); the left side probes.
    """
    # Each condition's side of the join, chosen once per join.
    left_aliases, right_aliases = _aliases(left_refs), _aliases(right_refs)
    left_exprs = [c.left if c.left.alias in left_aliases else c.right
                  for c in join_conditions]
    right_exprs = [c.right if c.right.alias in right_aliases else c.left
                   for c in join_conditions]

    def left_key(row):
        ctx = RowContext(left_refs, row)
        return tuple(evaluate(expr, ctx, udfs) for expr in left_exprs)

    def right_key(row):
        ctx = RowContext(right_refs, row)
        return tuple(evaluate(expr, ctx, udfs) for expr in right_exprs)

    table = {}
    for row in right_rows:
        table.setdefault(right_key(row), []).append(row)
    out = []
    for row in left_rows:
        for match in table.get(left_key(row), ()):
            out.append(tuple(row) + tuple(match))
    return out


def _aliases(refs):
    return {alias for alias, _name in refs if alias}


def group_rows(rows, key_indices):
    """Group rows by the values at ``key_indices`` (insertion order)."""
    groups = {}
    for row in rows:
        key = tuple(row[i] for i in key_indices)
        groups.setdefault(key, []).append(row)
    return groups


def shard_by_key(rows, key_indices, n_workers):
    """Hash-repartition rows by group key across workers."""
    shards = [[] for _worker in range(n_workers)]
    for row in rows:
        key = tuple(row[i] for i in key_indices)
        shards[stable_hash(key) % n_workers].append(row)
    return shards


def rows_bytes(rows):
    """Nominal bytes of a list of rows: the sum of each row's size."""
    return sum(nominal_bytes_of(r) for r in rows)
