"""Turn GSQL ASTs back into GSQL text.

Used by EXPLAIN-style output, the CLI's ``--show-query`` mode, and the
parser round-trip property tests (``parse(unparse(parse(q)))`` must
equal ``parse(q)``).
"""

from __future__ import annotations

from typing import Union

from repro.gsql.ast_nodes import (
    AggCall,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    GroupByItem,
    Literal,
    MergeQuery,
    Param,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
    UnaryOp,
)

_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "|": 5, "&": 5, "^": 5, "<<": 5, ">>": 5,
    "*": 6, "/": 6, "%": 6,
}


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")


def expr_to_gsql(expr: Expr, parent_precedence: int = 0) -> str:
    """Render an expression, parenthesizing only where precedence demands."""
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, bytes):
            return f"'{_escape(value.decode('latin-1'))}'"
        if isinstance(value, str):
            return f"'{_escape(value)}'"
        return repr(value)
    if isinstance(expr, Param):
        return f"${expr.name}"
    if isinstance(expr, Column):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            inner = expr_to_gsql(expr.operand, 3)
            text = f"NOT {inner}"
            return f"({text})" if parent_precedence > 3 else text
        return f"-{expr_to_gsql(expr.operand, 7)}"
    if isinstance(expr, BinaryOp):
        precedence = _PRECEDENCE[expr.op]
        left = expr_to_gsql(expr.left, precedence)
        # Right side binds one tighter: operators are left-associative.
        right = expr_to_gsql(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if precedence < parent_precedence else text
    if isinstance(expr, FuncCall):
        args = ", ".join(expr_to_gsql(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, AggCall):
        inner = "*" if expr.arg is None else expr_to_gsql(expr.arg)
        return f"{expr.name}({inner})"
    raise TypeError(f"cannot unparse {expr!r}")


def conjunction_to_gsql(conjuncts) -> str:
    """Render predicate conjuncts as one ``AND`` chain."""
    return " AND ".join(expr_to_gsql(c, _PRECEDENCE["AND"]) for c in conjuncts)


def _select_item(item: SelectItem) -> str:
    text = expr_to_gsql(item.expr)
    return f"{text} AS {item.alias}" if item.alias else text


def _group_item(item: GroupByItem) -> str:
    text = expr_to_gsql(item.expr)
    return f"{text} AS {item.alias}" if item.alias else text


def _source(ref: TableRef) -> str:
    if ref.subquery is not None:
        text = f"( {query_to_gsql(ref.subquery)} )"
    elif ref.interface:
        text = f"{ref.interface}.{ref.name}"
    else:
        text = ref.name
    return f"{text} {ref.alias}" if ref.alias else text


def query_to_gsql(query: Union[SelectQuery, MergeQuery]) -> str:
    """Render a query AST (including its DEFINE block) as GSQL text."""
    lines = []
    if query.defines:
        entries = "; ".join(f"{k} {v}" for k, v in query.defines.items())
        lines.append(f"DEFINE {{ {entries}; }}")
    if isinstance(query, MergeQuery):
        columns = " : ".join(expr_to_gsql(c) for c in query.columns)
        sources = ", ".join(_source(s) for s in query.sources)
        lines.append(f"MERGE {columns}")
        lines.append(f"FROM {sources}")
        return "\n".join(lines)
    lines.append("SELECT " + ", ".join(_select_item(i) for i in query.select_items))
    lines.append("FROM " + ", ".join(_source(s) for s in query.sources))
    if query.where is not None:
        lines.append("WHERE " + expr_to_gsql(query.where))
    if query.group_by:
        lines.append(
            "GROUP BY " + ", ".join(_group_item(i) for i in query.group_by))
    if query.having is not None:
        lines.append("HAVING " + expr_to_gsql(query.having))
    return "\n".join(lines)
