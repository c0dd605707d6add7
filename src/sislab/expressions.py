"""Parser/evaluator for closed-form coefficient expressions.

Grammar: real literals; symbols ``x`` and ``pi`` (plus caller-supplied named
constants); binary ``+ - * / ^``; unary ``-``; one-argument functions
``sin cos abs exp sqrt`` and two-argument ``min max``; parentheses.
Whitespace is insignificant.  Everything evaluates in double precision,
vectorized over the sample points.

With ``^`` read as ``**`` the grammar is a subset of Python's expression
grammar with the same precedence and associativity, so CPython's parser
builds the tree and a whitelist rejects every node outside the grammar.
"""

from __future__ import annotations

import ast
import operator
import re
import string
import warnings
from typing import Mapping

import numpy as np

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_CHARACTERS = frozenset(string.ascii_letters + string.digits + "_.+-*/^(),")

# each function's arity is its ufunc's ``nin``
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "exp": np.exp, "sqrt": np.sqrt,
              "min": np.minimum, "max": np.maximum}
# the grammar's own symbols, which no named constant may shadow
_RESERVED = ("x", "pi")
# / and ^ carry domain checks of their own in Expression._eval
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: None, ast.Pow: None}
_TOO_DEEP = "expression too long or too deeply nested"


class ExpressionError(ValueError):
    """Malformed expression; ``position`` is a character offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionDomainError(ValueError):
    """Expression is syntactically fine but undefined at a sample point."""


def _python_source(text: str) -> tuple[str, list[int]]:
    """``text`` as one line of ASCII Python source (``^`` as ``**``, any
    whitespace a space, leading whitespace dropped), and the offset into
    ``text`` of every source character plus the end."""
    source: list[str] = []
    offsets: list[int] = []
    for i, ch in enumerate(text):
        if ch.isspace():
            if not source:
                continue
            ch = " "
        elif ch not in _CHARACTERS:
            raise ExpressionError(f"unexpected character {ch!r}", i)
        elif ch == "^":
            ch = "**"
        source.append(ch)
        offsets += [i] * len(ch)
    offsets.append(len(text))
    return "".join(source), offsets


class Expression:
    """A parsed coefficient expression, reusable across grids."""

    def __init__(self, text: str):
        self.text = text
        if "**" in text:
            raise ExpressionError("unexpected '*'", text.index("**") + 1)
        source, self._offsets = _python_source(text)
        try:
            # CPython's tokenizer warns about some inputs, such as "1or 2",
            # before parsing or rejecting them; the ExpressionError is the report
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self._ast = ast.parse(source, mode="eval").body
            self._check(self._ast, source)
        except SyntaxError as exc:
            at = min(max((exc.offset or 1) - 1, 0), len(source))
            raise ExpressionError(exc.msg, self._offsets[at]) from None
        except (RecursionError, MemoryError):
            # CPython's parser, or a walk of its tree, ran out of stack
            raise ExpressionError(_TOO_DEEP, 0) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Expression({self.text!r})"

    def _check(self, node: ast.expr, source: str) -> None:
        """Reject every node outside the grammar; literals become floats."""
        pos = self._offsets[node.col_offset]
        if isinstance(node, ast.Constant):
            literal = source[node.col_offset:node.end_col_offset]
            if not _NUMBER_RE.fullmatch(literal):
                raise ExpressionError(f"unsupported literal {literal!r}", pos)
            node.value = float(literal)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            self._check(node.operand, source)
        elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            self._check(node.left, source)
            self._check(node.right, source)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and source[node.func.end_col_offset:].lstrip().startswith("(")):
            name = node.func.id
            if name not in _FUNCTIONS:
                raise ExpressionError(f"unknown function {name!r}", pos)
            # keyword and ** arguments cannot get here: '=' and '**' are rejected
            if len(node.args) != _FUNCTIONS[name].nin:
                raise ExpressionError(f"{name} takes {_FUNCTIONS[name].nin} argument(s), "
                                      f"got {len(node.args)}", pos)
            if "," in source[node.args[-1].end_col_offset:node.end_col_offset]:
                raise ExpressionError(f"trailing comma in the call of {name}", pos)
            for arg in node.args:
                self._check(arg, source)
        elif not isinstance(node, ast.Name):  # a name is looked up by evaluate
            end = self._offsets[node.end_col_offset]
            raise ExpressionError(f"not part of the grammar: {self.text[pos:end]!r}", pos)

    def evaluate(self, x, params: Mapping[str, float] | None = None) -> np.ndarray:
        """Evaluate at the points ``x`` (scalar or array), returning float64;
        ``params`` may not name a constant ``x`` or ``pi``."""
        params = params or {}
        for name in _RESERVED:
            if name in params:
                raise ValueError(f"constant name {name!r} is reserved by the expression grammar")
        x = np.asarray(x, dtype=float)
        # a value outside a function's domain, or one that is not finite,
        # raises ExpressionDomainError below, so numpy's own warning would
        # only repeat it
        with np.errstate(all="ignore"):
            try:
                out = self._eval(self._ast, x, params)
            except RecursionError:
                raise ExpressionError(_TOO_DEEP, 0) from None
            out = self._require_finite(out, x, "a value that is not finite")
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    def _eval(self, node: ast.expr, x: np.ndarray, params: Mapping[str, float]):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            name = node.id
            if name == "x":
                return x
            if name == "pi":
                return np.pi
            if name in params:
                return float(params[name])
            raise ExpressionError(f"unknown symbol {name!r}", self._offsets[node.col_offset])
        if isinstance(node, ast.UnaryOp):
            return -self._eval(node.operand, x, params)
        if isinstance(node, ast.Call):
            name = node.func.id
            vals = [self._eval(a, x, params) for a in node.args]
            if name == "sqrt":
                if np.any(np.asarray(vals[0]) < 0):
                    raise ExpressionDomainError(
                        self._where(x, np.asarray(vals[0]) < 0, "sqrt of a negative value")
                    )
                return np.sqrt(vals[0])
            result = _FUNCTIONS[name](*vals)
            return self._require_finite(result, x, f"{name}() overflowed")
        a = self._eval(node.left, x, params)
        b = self._eval(node.right, x, params)
        op = type(node.op)
        if op is ast.Div:
            bad = np.asarray(b) == 0
            if np.any(bad):
                raise ExpressionDomainError(self._where(x, bad, "division by zero"))
            return a / b
        if op is ast.Pow:
            result = np.power(np.asarray(a, dtype=float), b)
            return self._require_finite(result, x, "undefined power")
        return _OPERATORS[op](a, b)

    def _require_finite(self, result, x: np.ndarray, what: str):
        bad = ~np.isfinite(np.asarray(result, dtype=float))
        if np.any(bad):
            raise ExpressionDomainError(self._where(x, bad, what))
        return result

    def _where(self, x: np.ndarray, bad, what: str) -> str:
        bad = np.broadcast_to(bad, x.shape) if np.ndim(bad) == 0 else bad
        if np.ndim(x) == 0:
            return f"{what} in {self.text!r} at x={float(x)}"
        idx = int(np.argmax(bad))
        return f"{what} in {self.text!r} at node x={x.flat[idx]}"
