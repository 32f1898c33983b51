"""AFL (Array Functional Language) front-end for miniSciDB.

SciDB queries are written in AQL or AFL; the paper's SciDB
implementations are "expressed in 180 LoC of AQL" and AFL one-liners
like Figure 5's.  This module parses an AFL expression subset and
evaluates it against a :class:`~repro.engines.scidb.query.SciDBConnection`:

.. code-block:: text

    aggregate(filter(scan(data), vol < 18), avg(v), x, y, z)
    project(apply(scan(data), w, v * 2), w)
    between(scan(sky), 0, 0, 0, 23, 999, 999)
    subarray(scan(sky), 0, 0, 0, 23, 999, 999)

Grammar::

    expr     := call | name | number
    call     := NAME '(' args ')'
    args     := arg (',' arg)*
    arg      := expr | comparison | arithmetic
    comparison := expr OP expr          (inside filter())
    arithmetic := expr ('*'|'+'|'-'|'/') expr   (inside apply())

Supported operators: ``scan``, ``filter`` (on dimension or attribute),
``between``/``subarray`` (dimension ranges), ``aggregate`` with
``avg``/``sum``/``min``/``max``/``count`` over remaining dimensions,
``apply`` (arithmetic on the attribute), and ``project``.
"""

import re

import numpy as np

from repro.obs.spans import PSEUDO_OVERHEAD

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<arith>[*+\-/])
  | (?P<punct>[(),])
    """,
    re.VERBOSE,
)


class AFLError(Exception):
    """Malformed or unsupported AFL."""


def tokenize(text):
    """Split source text into tokens."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise AFLError(f"unexpected character {text[pos]!r} at {pos}")
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
        pos = match.end()
    return tokens


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------

class Node:
    """Node."""
    __slots__ = ()


class Call(Node):
    """Call."""
    __slots__ = ("fname", "args")

    def __init__(self, fname, args):
        self.fname = fname
        self.args = args


class Name(Node):
    """Name."""
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Number(Node):
    """Number."""
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Comparison(Node):
    """Comparison."""
    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        self.left = left
        self.op = op
        self.right = right


class Arithmetic(Node):
    """Arithmetic."""
    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        self.left = left
        self.op = op
        self.right = right


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            raise AFLError("unexpected end of input")
        self.pos += 1
        return token

    def _expect(self, kind, value=None):
        token = self._next()
        if token[0] != kind or (value is not None and token[1] != value):
            raise AFLError(
                f"expected {value or kind} at offset {token[2]}, got {token[1]!r}"
            )
        return token

    def parse(self):
        """Parse source text into an AST."""
        node = self._argument()
        if self._peek() is not None:
            raise AFLError(f"trailing input at offset {self._peek()[2]}")
        return node

    def _argument(self):
        left = self._atom()
        token = self._peek()
        if token and token[0] == "op":
            self._next()
            right = self._atom()
            return Comparison(left, token[1], right)
        if token and token[0] == "arith":
            self._next()
            right = self._atom()
            return Arithmetic(left, token[1], right)
        return left

    def _atom(self):
        token = self._next()
        if token[0] == "number":
            text = token[1]
            return Number(float(text) if "." in text else int(text))
        if token[0] == "name":
            nxt = self._peek()
            if nxt and nxt[0] == "punct" and nxt[1] == "(":
                self._next()
                args = []
                if not (self._peek() and self._peek()[1] == ")"):
                    args.append(self._argument())
                    while self._peek() and self._peek()[1] == ",":
                        self._next()
                        args.append(self._argument())
                self._expect("punct", ")")
                return Call(token[1].lower(), args)
            return Name(token[1])
        raise AFLError(f"unexpected token {token[1]!r} at offset {token[2]}")


def parse(text):
    """Parse AFL text into an AST."""
    return _Parser(tokenize(text)).parse()


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

_AGGREGATES = {
    "avg": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "count": lambda a, axis: np.full(
        np.delete(np.array(a.shape), axis), a.shape[axis]
    ),
}

_COMPARATORS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<>": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}

_ARITHMETIC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


def execute(sdb, text):
    """Parse and run an AFL expression; returns the result array.

    Execution is compositional over the connection's native operators,
    so every step is charged chunk-at-a-time like hand-written calls.
    AFL text implements no plan op, so its work is ``@overhead``.
    """
    return _Evaluator(sdb).eval(parse(text))


class _Evaluator:
    def __init__(self, sdb):
        self.sdb = sdb
        self._temp = 0

    def _fresh(self, prefix):
        self._temp += 1
        return f"_afl_{prefix}_{self._temp}"

    def eval(self, node):
        """Evaluate an AST node."""
        if isinstance(node, Call):
            handler = getattr(self, f"_op_{node.fname}", None)
            if handler is None:
                raise AFLError(f"unsupported AFL operator {node.fname!r}")
            return handler(node.args)
        raise AFLError(f"top-level AFL must be an operator call, got {node!r}")

    # -- operators -------------------------------------------------------

    def _op_scan(self, args):
        if len(args) != 1 or not isinstance(args[0], Name):
            raise AFLError("scan() takes one array name")
        name = args[0].value
        if name not in self.sdb.arrays:
            raise AFLError(f"unknown array {name!r}")
        return self.sdb.arrays[name]

    def _op_filter(self, args):
        if len(args) != 2 or not isinstance(args[1], Comparison):
            raise AFLError("filter(array, comparison) expected")
        array = self.eval(args[0])
        comparison = args[1]
        subject = comparison.left
        if not isinstance(subject, Name):
            raise AFLError("filter comparisons must start with a name")
        value = self._literal(comparison.right)
        op = _COMPARATORS[comparison.op]

        dim_names = [d.name for d in array.dims]
        if subject.value in dim_names:
            axis = dim_names.index(subject.value)
            positions = np.arange(array.dims[axis].length)
            keep = op(positions, value)
            return self.sdb.compress(
                array, keep, axis=axis, name=self._fresh("filter"),
                op=PSEUDO_OVERHEAD,
            )
        if subject.value == array.attr:
            # Attribute filter: a full elementwise pass; non-matching
            # cells become empty (NaN here).
            def apply_filter(a):
                return np.where(op(a, value), a, np.nan)

            return self.sdb.apply_elementwise(
                array,
                apply_filter,
                self.sdb.cost_model.elementwise_per_element,
                name=self._fresh("filter"),
                op=PSEUDO_OVERHEAD,
            )
        raise AFLError(
            f"unknown dimension or attribute {subject.value!r}"
        )

    def _op_between(self, args):
        return self._range_op(args, "between")

    def _op_subarray(self, args):
        return self._range_op(args, "subarray")

    def _range_op(self, args, label):
        array = self.eval(args[0])
        bounds = [self._literal(a) for a in args[1:]]
        rank = len(array.dims)
        if len(bounds) != 2 * rank:
            raise AFLError(
                f"{label}() needs {2 * rank} bounds for a rank-{rank} array"
            )
        lows, highs = bounds[:rank], bounds[rank:]
        result = array
        for axis in range(rank):
            dim = result.dims[axis]
            lo = max(0, int(lows[axis]))
            hi = min(dim.length - 1, int(highs[axis]))
            keep = np.zeros(dim.length, dtype=bool)
            keep[lo:hi + 1] = True
            if keep.all():
                continue
            result = self.sdb.compress(
                result, keep, axis=axis, name=self._fresh(label),
                op=PSEUDO_OVERHEAD,
            )
        return result

    def _op_aggregate(self, args):
        if len(args) < 2 or not isinstance(args[1], Call):
            raise AFLError("aggregate(array, agg(attr), dims...) expected")
        array = self.eval(args[0])
        agg = args[1]
        if agg.fname not in _AGGREGATES:
            raise AFLError(f"unknown aggregate {agg.fname!r}")
        keep_dims = [a.value for a in args[2:] if isinstance(a, Name)]
        dim_names = [d.name for d in array.dims]
        for name in keep_dims:
            if name not in dim_names:
                raise AFLError(f"unknown dimension {name!r}")
        drop_axes = [
            i for i, name in enumerate(dim_names) if name not in keep_dims
        ]
        if not drop_axes:
            raise AFLError("aggregate() must drop at least one dimension")
        result = array
        # Reduce one axis at a time (axes shift as dimensions drop).
        for axis in sorted(drop_axes, reverse=True):
            if agg.fname == "avg":
                result = self.sdb.mean(
                    result, axis=axis, name=self._fresh("agg"),
                    op=PSEUDO_OVERHEAD,
                )
            else:
                reducer = _AGGREGATES[agg.fname]
                current = result

                def reduce_axis(a, axis=axis, reducer=reducer):
                    return reducer(a, axis=axis)

                reduced_real = reduce_axis(current.real)
                new_dims = tuple(
                    d for i, d in enumerate(current.dims) if i != axis
                )
                from repro.engines.scidb.array import SciDBArray

                # Charge as an elementwise pass over the input.
                self.sdb.apply_elementwise(
                    current, lambda a: a,
                    self.sdb.cost_model.elementwise_per_element,
                    name=self._fresh("aggpass"),
                    op=PSEUDO_OVERHEAD,
                )
                result = SciDBArray(
                    self._fresh("agg"), new_dims, reduced_real,
                    attr=current.attr,
                )
                self.sdb.arrays[result.name] = result
        return result

    def _op_apply(self, args):
        if len(args) != 3 or not isinstance(args[1], Name):
            raise AFLError("apply(array, new_attr, expression) expected")
        array = self.eval(args[0])
        new_attr = args[1].value
        expression = args[2]

        def compute(a):
            return self._eval_cellwise(expression, array, a)

        out = self.sdb.apply_elementwise(
            array, compute,
            self.sdb.cost_model.elementwise_per_element,
            name=self._fresh("apply"),
            op=PSEUDO_OVERHEAD,
        )
        out.attr = new_attr
        return out

    def _op_project(self, args):
        if len(args) != 2 or not isinstance(args[1], Name):
            raise AFLError("project(array, attr) expected")
        array = self.eval(args[0])
        if args[1].value != array.attr:
            raise AFLError(
                f"array has attribute {array.attr!r}, not {args[1].value!r}"
            )
        return array

    # -- helpers -----------------------------------------------------------

    def _literal(self, node):
        if isinstance(node, Number):
            return node.value
        raise AFLError(f"expected a literal, got {node!r}")

    def _eval_cellwise(self, node, array, cells):
        if isinstance(node, Number):
            return node.value
        if isinstance(node, Name):
            if node.value == array.attr:
                return cells
            raise AFLError(f"unknown attribute {node.value!r}")
        if isinstance(node, Arithmetic):
            left = self._eval_cellwise(node.left, array, cells)
            right = self._eval_cellwise(node.right, array, cells)
            return _ARITHMETIC[node.op](left, right)
        raise AFLError(f"unsupported cellwise expression {node!r}")
