"""Expression-tree → vectorized NumPy source generation.

The code generator turns a bound scalar expression tree (or a whole
filter→project pipeline, see :func:`generate_kernel_source`) into the
source text of one Python function that evaluates it with NumPy array
operations.  The generated source is the *complete* description of the
kernel — every literal constant is declared inside the text — so the
source string doubles as the cache key for the
:class:`~repro.db.compile.kernels.CompiledKernelCache`.

Bit-exactness with the interpreted path is the hard invariant.  Three
details matter:

* Literals are materialized as typed NumPy scalars of the literal's
  SQL storage dtype (``k0 = np.dtype('float64').type(0.5)``) and used
  directly as operands: under NEP 50 a typed scalar promotes exactly
  like the full-length ``np.full`` the interpreted
  :meth:`~repro.db.expressions.Literal.evaluate` allocates, with
  neither the allocation nor broadcast machinery (ufuncs fast-path
  scalar operands).  VARCHAR literals stay one-element object arrays.
  Only a *top-level* result that references no columns (a constant
  predicate or output) is explicitly broadcast to the batch length,
  because its consumer needs a ``(n,)`` array.
* Conjuncts are applied with *adaptive short-circuit mask narrowing*:
  after each conjunct, surviving rows are gathered and the columns
  still needed are narrowed when the mask is selective (at most half
  the rows survive); an unselective mask is deferred and ``&``-combined
  into the next conjunct instead, so mostly-true predicates do not pay
  for repeated gathers.  Every operation is elementwise, so either
  order yields the same surviving set as the interpreted full-vector
  ``&`` of all masks.
* Anything whose interpreted semantics cannot be reproduced exactly
  (CAST to VARCHAR's per-value ``str()`` loop, logical operators over
  non-boolean operands, which must keep raising from the interpreted
  operator) raises :class:`NonCompilable` and the lowering keeps the
  interpreted operator for that pipeline.
"""

from __future__ import annotations

import math
import re

import numpy as np

from repro.db.column import resolve_ranges
from repro.db.expressions import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.db.functions import lookup_function
from repro.db.schema import Schema
from repro.db.types import SqlType


class NonCompilable(Exception):
    """Internal signal: the expression has no exact compiled form."""


#: SQL operator -> Python/NumPy operator for direct emission.
_BINARY_OPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "=": "==",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "AND": "&",
    "OR": "|",
}

_LOGICAL = {"AND", "OR"}


def _case_when_default(conditions, values, n):
    """``np.select`` with the interpreted CASE's implicit default.

    Mirrors :meth:`repro.db.expressions.CaseWhen.evaluate` for a CASE
    without an ELSE branch: zeros of the common value dtype, or an
    object array of ``None`` for VARCHAR branches.
    """
    result_dtype = np.result_type(*values) if values else np.float64
    if result_dtype == object:
        default = np.full(n, None, dtype=object)
    else:
        default = np.zeros(n, dtype=result_dtype)
    return np.select(conditions, values, default=default)


class SourceBuilder:
    """Accumulates the constants and name bindings of one kernel."""

    def __init__(self, schema: Schema):
        self.schema = schema
        #: declaration lines hoisted above the generated function
        self.const_lines: list[str] = []
        #: (rendered value, dtype name) -> const variable name
        self._const_names: dict[tuple[str, str], str] = {}
        #: exec() globals for the generated module
        self.bindings: dict[str, object] = {
            "np": np,
            "CASE_WHEN_DEFAULT": _case_when_default,
        }
        #: schema positions read by the generated code
        self.used_positions: set[int] = set()

    def column(self, name: str) -> str:
        position = self.schema.position_of(name)
        self.used_positions.add(position)
        return f"c{position}"

    def constant(self, value: object, sql_type: SqlType) -> str:
        """Declare (or reuse) a typed constant for a literal.

        Numeric and boolean literals become NumPy scalars of the SQL
        storage dtype: a typed scalar promotes exactly like the
        full-length typed array the interpreted
        :meth:`~repro.db.expressions.Literal.evaluate` allocates
        (NEP 50), and ufuncs take the faster scalar operand path.
        VARCHAR literals keep the one-element object array, whose
        elementwise comparison semantics a plain ``str`` would change.
        """
        rendered = render_value(value)
        dtype = sql_type.numpy_dtype
        key = (rendered, dtype.name)
        name = self._const_names.get(key)
        if name is None:
            name = f"k{len(self._const_names)}"
            self._const_names[key] = name
            if dtype == object:
                declaration = (
                    f"{name} = np.full(1, {rendered}, "
                    "dtype=np.dtype('object'))"
                )
            else:
                declaration = (
                    f"{name} = np.dtype({dtype.name!r}).type({rendered})"
                )
            self.const_lines.append(declaration)
        return name

    def function(self, name: str):
        """Bind a registered scalar function, returning its local name."""
        implementation = lookup_function(name).implementation
        local = "F_" + re.sub(r"[^A-Za-z0-9_]", "_", name.upper())
        bound = self.bindings.get(local)
        if bound is not None and bound is not implementation:
            raise NonCompilable(f"function name collision for {name!r}")
        self.bindings[local] = implementation
        return local


def render_value(value: object) -> str:
    """Render a literal value as Python source (non-finite floats too)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "float('nan')"
        if math.isinf(value):
            return "float('inf')" if value > 0 else "float('-inf')"
        return repr(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    raise NonCompilable(f"literal {value!r} has no source rendering")


def emit(expression: Expression, builder: SourceBuilder) -> str:
    """Source text computing *expression* over the current batch.

    The text references column locals ``c<pos>``, the running length
    variable ``n`` and the const/function names declared on *builder*.
    """
    if isinstance(expression, ColumnRef):
        return builder.column(expression.name)
    if isinstance(expression, Literal):
        return builder.constant(expression.value, expression.sql_type)
    if isinstance(expression, BinaryOp):
        operator = _BINARY_OPS.get(expression.operator)
        if operator is None:
            raise NonCompilable(
                f"unknown binary operator {expression.operator!r}"
            )
        if expression.operator in _LOGICAL:
            # The interpreted path raises ExecutionError on non-boolean
            # operands; keep that behavior by refusing to compile.
            for operand in (expression.left, expression.right):
                if operand.output_type(builder.schema) is not SqlType.BOOLEAN:
                    raise NonCompilable(
                        f"{expression.operator} over non-boolean operand"
                    )
        left = emit(expression.left, builder)
        right = emit(expression.right, builder)
        return f"({left} {operator} {right})"
    if isinstance(expression, UnaryOp):
        if expression.operator == "-":
            return f"(-{emit(expression.operand, builder)})"
        if expression.operator == "NOT":
            if expression.operand.output_type(builder.schema) is not (
                SqlType.BOOLEAN
            ):
                raise NonCompilable("NOT over non-boolean operand")
            return f"(~{emit(expression.operand, builder)})"
        raise NonCompilable(f"unknown unary operator {expression.operator!r}")
    if isinstance(expression, FunctionCall):
        local = builder.function(expression.name)
        arguments = ", ".join(
            emit(argument, builder) for argument in expression.arguments
        )
        return f"{local}({arguments})"
    if isinstance(expression, CaseWhen):
        for condition, _ in expression.branches:
            if condition.output_type(builder.schema) is not SqlType.BOOLEAN:
                raise NonCompilable("CASE condition is not boolean")
        conditions = ", ".join(
            emit(condition, builder) for condition, _ in expression.branches
        )
        values = ", ".join(
            emit(value, builder) for _, value in expression.branches
        )
        if expression.otherwise is not None:
            default = emit(expression.otherwise, builder)
            return (
                f"np.select([{conditions}], [{values}], default={default})"
            )
        return f"CASE_WHEN_DEFAULT([{conditions}], [{values}], n)"
    if isinstance(expression, Cast):
        if expression.target is SqlType.VARCHAR:
            # Interpreted CAST..AS VARCHAR runs a per-value str() loop;
            # there is no vectorized form with identical semantics.
            raise NonCompilable("CAST to VARCHAR is not vectorizable")
        operand = emit(expression.operand, builder)
        dtype_name = expression.target.numpy_dtype.name
        return (
            f"({operand}).astype(np.dtype({dtype_name!r}), copy=False)"
        )
    raise NonCompilable(f"no compiled form for {type(expression).__name__}")


def emit_output(
    expression: Expression, builder: SourceBuilder
) -> str:
    """Like :func:`emit`, but for a top-level output position.

    A bare literal output allocates a writable full-length array (the
    one-element const used *inside* expressions has the wrong shape
    for an output, and the interpreted path hands consumers a fresh
    ``np.full``).
    """
    if isinstance(expression, Literal):
        rendered = render_value(expression.value)
        dtype_name = expression.sql_type.numpy_dtype.name
        return f"np.full(n, {rendered}, dtype=np.dtype({dtype_name!r}))"
    return emit(expression, builder)


def aliasing_column(expression: Expression) -> str | None:
    """Name of the input column the expression's result may alias.

    ``ColumnRef`` returns the input array itself, and a numeric
    ``Cast`` chain with ``copy=False`` passes it through whenever the
    dtype already matches.  Every other node allocates a fresh array.
    """
    while isinstance(expression, Cast):
        expression = expression.operand
    if isinstance(expression, ColumnRef):
        return expression.name.lower()
    return None


def compile_range_checker(schema: Schema, ranges) -> object | None:
    """Zone-map predicate checker with column positions pre-resolved.

    The interpreted :func:`repro.db.column.stats_may_match` re-resolves
    each predicate's column name for every block; scans on disk-backed
    tables call it once per block per query.  This compiles the name
    lookups away: the returned ``may_match(stats)`` closure only indexes
    the positionally aligned per-block stats list.

    Returns ``None`` when no predicate applies to *schema* (callers
    then skip the check entirely).
    """
    resolved = resolve_ranges(schema, ranges)
    if not resolved:
        return None

    def may_match(stats) -> bool:
        for position, low, high in resolved:
            stat = stats[position]
            if stat is not None and not stat.may_contain_range(low, high):
                return False
        return True

    return may_match
