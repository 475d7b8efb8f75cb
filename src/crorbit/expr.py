"""Scalar expression trees with exact derivatives.

Expressions are immutable trees over positional variables x1..xn built from
+, -, *, /, integer powers and sin/cos/exp/log.  They define manifold
defining functions, vector-field coefficients and scalar multipliers.

* ``differentiate`` -- symbolic partial derivatives, closing the tree
  grammar under differentiation (used to build bracket fields).
* ``JetCompiler`` -- the one set of forward-mode rules for values and
  coordinate partials.  Without a point it generates straight-line Python
  source, compiled by ``compile_values`` and ``compile_values_and_jacobian``
  into kernels that take a list or an ndarray and return float64 arrays,
  values of shape (k,) and a Jacobian of shape (k, dim), which callers
  slice and never convert.  Given a point, the same rules return numbers,
  under one folding rule: only constants and folds of constants are
  literals, and a value computed from the point never is, so a rule folds
  exactly what the generated code folds and computes the rest as that code
  does.  ``eval_values_and_jacobian``, the kernel's interpreted twin, thus
  returns the kernel's bits, and the smart constructors fold constants
  with the same rules.
* ``Jet`` -- the one evaluation policy, which every field, defining
  function, chart and multiplier uses: interpreted on first use, compiled
  on reuse.  Its first ``at`` is ``eval_values_and_jacobian`` at the
  point, and the second compiles the one kernel, which answers every later
  call.  Most tuples a check builds are evaluated once, and a compile costs
  far more than one interpreted evaluation.  ``partials=False`` evaluates
  the values only (``compile_values``), for rho's probe and multipliers.
* Column kernels -- ``compile_values_rows`` and
  ``compile_values_and_jacobian_rows`` compile the same rules a second way,
  with ``x[k]`` a float64 column of B points, for ``Jet.rows``.  ``**``
  is ``np.float_power`` (the libm ``pow`` Python calls) and ``math``
  functions are mapped over the column's Python floats, so every operation
  rounds as in the point kernel.  ``evaluate_rows`` sends each row the
  column kernel cannot vouch for back to the point path, which returns
  its numbers or raises its error.  ``Jet.rows`` of one row is ``Jet.at``,
  which costs less than a column kernel's call.

Text is read by Python's parser (``ast.parse``, ``^`` read as ``**``) and
one walker that maps the grammar onto the node classes.  Anything else, a
literal that is not finite, or a tree more than ``MAX_DEPTH`` = 100 nodes
deep is an ``ExprSyntaxError`` at its position in the text.  The bound keeps
the recursive passes (printing and code generation take two frames per
level) inside Python's default recursion limit with room for Lie brackets:
the first shape measured to overflow, a product chain in a frame
coefficient, does so at depth 173.  A constant subexpression whose fold
overflows raises ``ExprDomainError``.
All derivative values come from forward-mode rules, never finite
differences; the test suite keeps a finite-difference oracle.

Where an expression is undefined at the point (a division by zero,
``0^-n``, ``log`` of a value <= 0, an overflow), every kernel and the twin
raise ``ExprDomainError`` with Python's message, so no caller sees
``ZeroDivisionError``, ``ValueError`` or ``OverflowError``.  Python floats
raise there; a kernel given an ndarray computes on numpy scalars, which
return inf in place of all but ``log``'s error, so ``Jet`` passes its
kernels a list.
"""

from __future__ import annotations

import ast
import keyword
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ScalarExpr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse_expr",
    "to_text",
    "differentiate",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "powi",
    "call",
    "JetCompiler",
    "compile_values",
    "compile_values_and_jacobian",
    "eval_values_and_jacobian",
    "compile_values_rows",
    "compile_values_and_jacobian_rows",
    "evaluate_rows",
    "Jet",
    "FUNCTIONS",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ExprError):
    """Evaluation left the expression's domain (division by zero, log <= 0)."""


# what Python raises where an expression is undefined; evaluators raise ExprDomainError
_UNDEFINED = (ZeroDivisionError, ValueError, OverflowError)


class ScalarExpr:
    """Base class for expression nodes.  Nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(ScalarExpr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(ScalarExpr):
    index: int  # 0-based


@dataclass(frozen=True, slots=True)
class Add(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr


@dataclass(frozen=True, slots=True)
class Sub(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr


@dataclass(frozen=True, slots=True)
class Mul(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr


@dataclass(frozen=True, slots=True)
class Div(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr


@dataclass(frozen=True, slots=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int


@dataclass(frozen=True, slots=True)
class Neg(ScalarExpr):
    operand: ScalarExpr


@dataclass(frozen=True, slots=True)
class Call(ScalarExpr):
    func: str  # one of FUNCTIONS
    arg: ScalarExpr


FUNCTIONS = ("sin", "cos", "exp", "log")


# ---------------------------------------------------------------------------
# smart constructors (constant folding keeps iterated brackets small)
# ---------------------------------------------------------------------------

def const(v: float) -> Const:
    return Const(float(v))


def var(i: int) -> Var:
    return Var(i)


def _is_const(e: ScalarExpr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _fold(node: ScalarExpr) -> Const:
    """The all-constant ``node`` as one constant.

    A fold that overflows or is not finite raises :class:`ExprDomainError`
    naming the subexpression, instead of leaving an infinity in the tree.
    """
    return Const(JetCompiler(0, ()).emit(node)[0])  # reads no coordinate


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(a) and _is_const(b):
        return _fold(Add(a, b))
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(a) and _is_const(b):
        return _fold(Sub(a, b))
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(a) and _is_const(b):
        return _fold(Mul(a, b))
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return _fold(Div(a, b))
    return Div(a, b)


def neg(a: ScalarExpr) -> ScalarExpr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def powi(a: ScalarExpr, n: int) -> ScalarExpr:
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    if _is_const(a) and not (a.value == 0.0 and n < 0):
        return _fold(Pow(a, n))
    return Pow(a, n)


def call(func: str, a: ScalarExpr) -> ScalarExpr:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    if _is_const(a) and (func != "log" or a.value > 0.0):
        return _fold(Call(func, a))
    return Call(func, a)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

MAX_DEPTH = 100  # nodes on the longest root-to-leaf path; see the module docstring
_TOO_DEEP = f"expression is nested more than {MAX_DEPTH} levels deep"
_BINOPS = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}


class _Reader:
    """Reads Python's parse of ``text`` as a crorbit expression, or rejects it."""

    def __init__(self, text: str, dim: int, aliases: Mapping[str, int]):
        self.text, self.dim, self.aliases = text, dim, aliases
        # The source Python reads: leading whitespace dropped (it would be an
        # indent), other whitespace as spaces, "^" as "**".  origin[b] is the
        # position in text of source byte b (ast offsets count UTF-8 bytes).
        pieces, self.origin = [], []
        for i, ch in enumerate(text):
            if pieces or not ch.isspace():
                pieces.append(" " if ch.isspace() else "**" if ch == "^" else ch)
                self.origin += [i] * len(pieces[-1].encode())
        self.origin.append(len(text))
        self.source = "".join(pieces)

    def read(self) -> ScalarExpr:
        for bad in ("**", "#", "\0"):  # Python reads these, crorbit does not
            if bad in self.text:
                raise ExprSyntaxError(f"unexpected {bad!r}", self.text.index(bad))
        try:
            tree = ast.parse(self.source, mode="eval")
        except SyntaxError as err:  # its offset counts characters, not bytes
            if not err.offset:  # Python's offset 0: the input ended early
                raise ExprSyntaxError("unexpected end of input", len(self.text)) from None
            byte = len(self.source[: err.offset - 1].encode())
            # the first clause: the hints after it ("Perhaps you forgot a comma?") are Python's
            raise ExprSyntaxError(re.split(r"[.;] ", err.msg)[0], self.origin[byte]) from None
        except (RecursionError, MemoryError):
            raise ExprSyntaxError(_TOO_DEEP, 0) from None
        return self.walk(tree.body, 1)

    def at(self, node: ast.expr) -> int:
        return self.origin[node.col_offset]

    def between(self, start: int, end: int) -> str:  # source byte offsets
        return self.text[self.origin[start] : self.origin[end]]

    def span(self, node: ast.expr) -> str:
        return self.between(node.col_offset, node.end_col_offset)

    def walk(self, node: ast.expr, depth: int) -> ScalarExpr:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, self.at(node))
        depth += 1
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return Pow(self.walk(node.left, depth), self.exponent(node))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = self.walk(node.left, depth), self.walk(node.right, depth)
            return _BINOPS[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            # fold a directly negated literal; "-(...)" stays a Neg node
            operand, gap = node.operand, self.between(node.col_offset, node.operand.col_offset)
            if isinstance(operand, ast.Constant) and "(" not in gap:
                return Const(-self.literal(operand))
            return Neg(self.walk(operand, depth))
        if isinstance(node, ast.Constant):
            return Const(self.literal(node))
        if isinstance(node, ast.Name):
            return self.variable(node)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 1:
            func, (arg,) = self.span(node.func), node.args
            tail = self.between(arg.end_col_offset, node.end_col_offset)  # "," in "sin(x1,)"
            if func in FUNCTIONS and not node.keywords and "," not in tail:
                return Call(func, self.walk(arg, depth))
        raise ExprSyntaxError(f"{self.span(node)!r} is not part of the grammar", self.at(node))

    def literal(self, node: ast.Constant) -> float:
        lit = self.span(node)
        if type(node.value) not in (int, float) or not set(lit) <= set("0123456789.eE+-"):
            raise ExprSyntaxError(f"bad number literal {lit!r}", self.at(node))
        if not math.isfinite(float(lit)):
            raise ExprSyntaxError(f"number literal {lit!r} is not finite", self.at(node))
        return float(lit)

    def exponent(self, power: ast.BinOp) -> int:
        """The right side of ``^``: an integer literal, optionally negated, unparenthesised."""
        node, sign = power.right, 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node, sign = node.operand, -1
        gap = self.between(power.left.end_col_offset, node.col_offset)
        if not (isinstance(node, ast.Constant) and self.span(node).isdigit() and "(" not in gap):
            raise ExprSyntaxError("exponent must be an integer", self.at(power.right))
        return sign * node.value

    def variable(self, node: ast.Name) -> Var:
        # the name as written: Python NFKC-normalises the identifiers it reads
        name, at = self.span(node), self.at(node)
        if name in self.aliases:
            idx = self.aliases[name]
        elif len(name) > 1 and name[0] == "x" and name[1:].isdigit():
            idx = int(name[1:]) - 1
        else:
            raise ExprSyntaxError(f"unknown identifier {name!r}", at)
        if not 0 <= idx < self.dim:
            raise ExprSyntaxError(f"variable {name!r} is out of range for dimension {self.dim}", at)
        return Var(idx)


def parse_expr(text: str, dim: int, aliases: Sequence[str] | None = None) -> ScalarExpr:
    """Parse ``text`` into an expression tree over x1..x{dim}.

    ``aliases`` names the variables in order: ``aliases[i]`` reads as
    x{i+1}.  Raises :class:`ExprSyntaxError` with the offending position on
    bad input.
    """
    aliases = {name: i for i, name in enumerate(aliases or ())}
    for name in aliases:
        if name in FUNCTIONS or keyword.iskeyword(name):
            raise ValueError(f"alias {name!r} shadows a builtin function or keyword")
    return _Reader(text, dim, aliases).read()


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr)
# ---------------------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(e: ScalarExpr) -> int:
    return _PREC.get(type(e), 5)


def to_text(e: ScalarExpr, aliases: Sequence[str] | None = None) -> str:
    """Render the tree; parsing the result yields a structurally equal tree."""

    def name(i: int) -> str:
        if aliases is not None and i < len(aliases):
            return aliases[i]
        return f"x{i + 1}"

    def wrap(child: ScalarExpr, minimum: int) -> str:
        s = rec(child)
        return f"({s})" if _prec(child) < minimum else s

    def rec(node: ScalarExpr) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Var):
            return name(node.index)
        if isinstance(node, Add):
            return f"{wrap(node.left, 1)} + {wrap(node.right, 2)}"
        if isinstance(node, Sub):
            return f"{wrap(node.left, 1)} - {wrap(node.right, 2)}"
        if isinstance(node, Mul):
            return f"{wrap(node.left, 2)}*{wrap(node.right, 3)}"
        if isinstance(node, Div):
            return f"{wrap(node.left, 2)}/{wrap(node.right, 3)}"
        if isinstance(node, Neg):
            # a bare negated literal would re-fold into a constant when parsed
            if isinstance(node.operand, Const):
                return f"-({rec(node.operand)})"
            return f"-{wrap(node.operand, 3)}"
        if isinstance(node, Pow):
            base = rec(node.base)
            if _prec(node.base) < 5 or base.startswith("-"):
                base = f"({base})"
            return f"{base}^{node.exponent}"
        if isinstance(node, Call):
            return f"{node.func}({rec(node.arg)})"
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

def differentiate(e: ScalarExpr, k: int) -> ScalarExpr:
    """Symbolic partial derivative with respect to variable index ``k``."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == k else 0.0)
    if isinstance(e, Add):
        return add(differentiate(e.left, k), differentiate(e.right, k))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, k), differentiate(e.right, k))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.left, k), e.right),
            mul(e.left, differentiate(e.right, k)),
        )
    if isinstance(e, Div):
        num = sub(
            mul(differentiate(e.left, k), e.right),
            mul(e.left, differentiate(e.right, k)),
        )
        return div(num, powi(e.right, 2))
    if isinstance(e, Pow):
        inner = differentiate(e.base, k)
        return mul(mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return neg(differentiate(e.operand, k))
    if isinstance(e, Call):
        da = differentiate(e.arg, k)
        if e.func == "sin":
            return mul(call("cos", e.arg), da)
        if e.func == "cos":
            return neg(mul(call("sin", e.arg), da))
        if e.func == "exp":
            return mul(call("exp", e.arg), da)
        if e.func == "log":
            return div(da, e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: ScalarExpr, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
    """Replace variables by expressions (with constant folding)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Add):
        return add(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Sub):
        return sub(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Mul):
        return mul(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Div):
        return div(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Pow):
        return powi(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Neg):
        return neg(substitute(e.operand, mapping))
    if isinstance(e, Call):
        return call(e.func, substitute(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# forward-mode rules: generated code, or numbers at a point
# ---------------------------------------------------------------------------

Ref = float | str  # a literal, or the code of a value (a name or an expression)


class _Computed(float):
    """A value computed from the point: never a literal, as the code of a value is not."""

    __slots__ = ()


class JetCompiler:
    """Emit straight-line Python for values and coordinate partial derivatives.

    Every distinct subtree is emitted once (structural memoization), and
    tangent terms that are statically zero or one are folded away at
    generation time, so the emitted code does exactly the arithmetic the
    chain and product rules require.  Variable ``k`` reads ``x[k]``; its
    tangents are the first ``tangents`` coordinate axes (none when only
    values are compiled).  A reference is a literal, a ``float`` that is a
    constant or a fold of constants, or the code of a value, a ``str``; a
    literal value has literal zero tangents.  A fold of literals that is not
    finite is an overflow, and :meth:`emit` names its subexpression.

    With ``columns``, the same rules emit column code (see the module
    docstring), and every operation Python can refuse binds a temp listed in
    ``guards``.

    Given ``point``, variable ``k`` is ``point[k]`` as a computed value, a
    ``float`` subclass that never counts as a literal, so every rule folds
    exactly what the generated code folds, and computes the rest as that
    code would: :meth:`emit` returns the kernel's numbers and raises
    :class:`ExprDomainError` where the kernel raises, with its message.  No
    code is emitted and nothing is memoized: this interprets an expression
    evaluated once, such as a vector field on first use.
    """

    def __init__(
        self, tangents: int, point: Sequence[float] | None = None, columns: bool = False
    ):
        self.tangents = tangents
        self.point = point
        self.columns = columns
        self.lines: list[str] = []
        self.guards: list[str] = []  # column mode: values of operations Python can refuse
        self._memo: dict[ScalarExpr, tuple[Ref, tuple[Ref, ...]]] = {}
        self._count = 0

    # -- low-level emission helpers -------------------------------------

    def _tmp(self, code: str) -> str:
        name = f"t{self._count}"
        self._count += 1
        self.lines.append(f"{name} = {code}")
        return name

    def _bind(self, code: Ref) -> Ref:
        """Bind composite code to a temp; pass through bare names and numbers."""
        if isinstance(code, float) or code.isidentifier():
            return code
        return self._tmp(code)

    def _literal(self, value: float) -> float:
        """A fold of literals; one that is not finite is an overflow."""
        if not math.isfinite(value):
            raise OverflowError
        return value

    def _code(self, template: str, fn: Callable, *args: Ref) -> Ref:
        """The code ``template`` of ``args``, or at a point ``fn(*args)`` as a computed value."""
        if self.point is None:
            return template.format(*args)
        try:
            return _Computed(fn(*args))
        except _UNDEFINED as exc:  # where the kernel raises, with its message
            raise ExprDomainError(str(exc)) from None

    def _apply(self, template: str, fn: Callable[[float], float], a: Ref) -> Ref:
        """``fn(a)`` folded for a literal ``a``, else the code ``template`` of ``a``.

        A fold Python refuses (``1.0/0.0``, ``math.log(-1.0)``) is not folded,
        so the kernel raises when it runs, and so does the rule at a point.
        """
        if type(a) is float:
            try:
                return self._literal(fn(a))
            except (ZeroDivisionError, ValueError):
                pass
        name = self._bind(self._code(template, fn, a))
        if self.columns:
            self.guards.append(name)
        return name

    def _pow(self, n: int) -> str:
        """The code template of ``{}**n``; a column's is the same libm ``pow`` call."""
        return f"np.float_power({{}}, {float(n)})" if self.columns else f"{{}}**{n}"

    def _call(self, func: str) -> str:
        """The code template of ``math.func({})``, mapped over a column's Python floats."""
        return f"_map(math.{func}, {{}})" if self.columns else f"math.{func}({{}})"

    def _add(self, a: Ref, b: Ref) -> Ref:
        if type(a) is float:
            if type(b) is float:
                return self._literal(a + b)
            if a == 0.0:
                return b
        elif type(b) is float and b == 0.0:
            return a
        return self._code("({} + {})", operator.add, a, b)

    def _sub(self, a: Ref, b: Ref) -> Ref:
        if type(a) is float:
            if type(b) is float:
                return self._literal(a - b)
            if a == 0.0:
                return self._neg(b)
        elif type(b) is float and b == 0.0:
            return a
        return self._code("({} - {})", operator.sub, a, b)

    def _mul(self, a: Ref, b: Ref) -> Ref:
        if type(a) is float:
            if type(b) is float:
                return self._literal(a * b)
            if a == 0.0:
                return 0.0
            if a == 1.0:
                return b
            if a == -1.0:
                return self._neg(b)
        elif type(b) is float:
            if b == 0.0:
                return 0.0
            if b == 1.0:
                return a
            if b == -1.0:
                return self._neg(a)
        return self._code("{}*{}", operator.mul, a, b)

    def _neg(self, a: Ref) -> Ref:
        if type(a) is float:
            return -a
        return self._code("(-{})", operator.neg, a)

    # -- node emission ----------------------------------------------------

    def emit(self, e: ScalarExpr) -> tuple[Ref, tuple[Ref, ...]]:
        """Return (value_ref, tangent_refs) for node ``e``.

        Raises :class:`ExprDomainError` naming the subexpression whose fold
        of literals overflows or is not finite.
        """
        if self.point is None:  # at a point, a repeat costs less than the memo's hash
            hit = self._memo.get(e)
            if hit is not None:
                return hit
        try:
            out = self._emit(e)
        except OverflowError:  # a literal fold of this node, not of a child
            raise ExprDomainError(
                f"constant subexpression {to_text(e)} is not finite"
            ) from None
        if self.point is None:
            self._memo[e] = out
        return out

    def _emit(self, e: ScalarExpr) -> tuple[Ref, tuple[Ref, ...]]:
        if isinstance(e, Const):
            return (float(e.value), (0.0,) * self.tangents)
        if isinstance(e, Var):
            axes = tuple(1.0 if k == e.index else 0.0 for k in range(self.tangents))
            if self.point is not None:
                return (_Computed(self.point[e.index]), axes)
            return (f"x[{e.index}]", axes)
        if isinstance(e, (Add, Sub)):
            va, da = self.emit(e.left)
            vb, db = self.emit(e.right)
            op = self._add if isinstance(e, Add) else self._sub
            v = self._bind(op(va, vb))
            return (v, tuple(self._bind(op(x, y)) for x, y in zip(da, db)))
        if isinstance(e, Mul):
            va, da = self.emit(e.left)
            vb, db = self.emit(e.right)
            v = self._bind(self._mul(va, vb))
            tangents = tuple(
                self._bind(self._add(self._mul(va, y), self._mul(vb, x)))
                for x, y in zip(da, db)
            )
            return (v, tangents)
        if isinstance(e, Div):
            va, da = self.emit(e.left)
            vb, db = self.emit(e.right)
            r = self._apply("1.0/{}", lambda b: 1.0 / b, vb)
            v = self._bind(self._mul(va, r))
            tangents = tuple(
                self._bind(self._mul(self._sub(x, self._mul(v, y)), r))
                for x, y in zip(da, db)
            )
            return (v, tangents)
        if isinstance(e, Pow):
            va, da = self.emit(e.base)
            n = e.exponent
            if n == 0:  # x**0 is 1 for every x, but its factor 0.0*x**-1 fails at x = 0
                return (1.0, (0.0,) * len(da))
            v = self._apply(self._pow(n), lambda a: a**n, va)
            if all(type(x) is float and x == 0.0 for x in da):  # so for a literal base
                return (v, (0.0,) * len(da))
            if n == 2:
                dfac = self._bind(self._mul(2.0, va))
            else:
                factor = f"{float(n)}*" + self._pow(n - 1)
                dfac = self._apply(factor, lambda a: float(n) * a ** (n - 1), va)
            return (v, tuple(self._bind(self._mul(dfac, x)) for x in da))
        if isinstance(e, Neg):
            va, da = self.emit(e.operand)
            return (self._bind(self._neg(va)), tuple(self._bind(self._neg(x)) for x in da))
        if isinstance(e, Call):
            va, da = self.emit(e.arg)
            v = self._apply(self._call(e.func), getattr(math, e.func), va)
            if all(type(x) is float and x == 0.0 for x in da):  # so for a literal argument
                return (v, (0.0,) * len(da))
            if e.func == "sin":
                dfac = self._apply(self._call("cos"), math.cos, va)
            elif e.func == "cos":
                dfac = self._apply(f"(-{self._call('sin')})", lambda a: -math.sin(a), va)
            elif e.func == "exp":
                dfac = v
            else:  # log
                dfac = self._apply("1.0/{}", lambda a: 1.0 / a, va)
            return (v, tuple(self._bind(self._mul(dfac, x)) for x in da))
        raise TypeError(f"not an expression node: {e!r}")


def _tuple(refs: Sequence) -> str:
    return "(" + ", ".join(map(str, refs)) + ("," if len(refs) == 1 else "") + ")"


def _array(refs: Sequence) -> str:
    """The code of a float64 array of ``refs``: the kernels' output format."""
    return f"np.array({_tuple(refs)}, dtype=float)"


def _compile_source(name: str, body: list[str], result: str) -> Callable:
    """Compile ``body`` into ``name(x)``, which raises ExprDomainError where it is undefined."""
    src = f"def {name}(x):\n    try:\n"
    for line in body:
        src += f"        {line}\n"
    src += f"        return {result}\n"
    src += "    except _UNDEFINED as exc:\n        raise ExprDomainError(str(exc)) from None\n"
    namespace = dict(math=math, np=np, _UNDEFINED=_UNDEFINED, ExprDomainError=ExprDomainError)
    exec(compile(src, f"<crorbit:{name}>", "exec"), namespace)
    return namespace[name]


def compile_values(exprs: Sequence[ScalarExpr]) -> Callable:
    """Compile ``x -> [e_1(x), ..., e_k(x)]``, a float64 array of shape (k,)."""
    comp = JetCompiler(0)
    vals = [comp.emit(e)[0] for e in exprs]
    return _compile_source("field_values", comp.lines, _array(vals))


def _jets(comp: JetCompiler, exprs: Sequence[ScalarExpr]) -> tuple[list[Ref], list[Ref]]:
    """The values of ``exprs`` and their partials, row after row, as one flat list."""
    vals, partials = [], []
    for e in exprs:
        v, tangents = comp.emit(e)
        vals.append(v)
        partials.extend(tangents)
    return vals, partials


def compile_values_and_jacobian(exprs: Sequence[ScalarExpr], dim: int) -> Callable:
    """Compile ``x -> (values, jac)``, arrays (k,) and (k, ``dim``), jac[i, k] = d e_i/d x_k.

    The Jacobian is built from one flat tuple and reshaped: the same values
    as a nested tuple, at a lower cost per call.
    """
    comp = JetCompiler(dim)
    vals, partials = _jets(comp, exprs)
    result = f"{_array(vals)}, {_array(partials)}.reshape({len(vals)}, {dim})"
    return _compile_source("field_jet", comp.lines, result)


# ---------------------------------------------------------------------------
# column kernels: one evaluation for a batch of points
# ---------------------------------------------------------------------------

def _map(f: Callable[[float], float], a) -> np.ndarray:
    """``f`` over a column, on Python floats: numpy's own loops round differently."""
    if isinstance(a, float):  # a literal whose fold Python refused: f raises here
        return f(a)
    return np.array(list(map(f, a.tolist())))


def _compile_rows(
    name: str, comp: JetCompiler, outputs: Sequence[tuple[list[Ref], tuple]]
) -> Callable:
    """Compile ``comp``'s column lines into ``name(x)``, with ``x[k]`` the column of coordinate k.

    ``x`` has shape (dim, B).  Each output ``(refs, shape)`` becomes an array
    (B, *shape): literal entries come from a template, the others are
    assigned column by column.  The kernel also returns the mask of rows
    whose guarded values are finite, and an all-false mask when the batch
    raises.  The guards are the values of every operation Python can refuse
    (a reciprocal, a power, a ``math`` call): where Python raises, numpy
    returns inf or NaN, and ``math`` raises inside ``_map``.  Everything
    else, ``+ - *`` and negation, rounds alike on Python floats and float64
    arrays, infinities and NaN included, and never raises: a kernel without
    guards returns ``None`` for its mask, since every row is its own.
    """
    namespace = dict(math=math, np=np, _map=_map, _UNDEFINED=_UNDEFINED)
    head, fills = [], []
    for o, (refs, shape) in enumerate(outputs):
        template = np.array([r if isinstance(r, float) else 0.0 for r in refs]).reshape(shape)
        namespace[f"_template{o}"] = template
        dims = ", ".join(map(str, shape))
        head += [f"out{o} = np.empty((b, {dims}))", f"out{o}[:] = _template{o}"]
        for j, ref in enumerate(refs):
            if isinstance(ref, str):
                index = ", ".join(map(str, np.unravel_index(j, shape)))
                fills.append(f"out{o}[:, {index}] = {ref}")
    src = f"def {name}(x):\n    b = x.shape[1]\n"
    src += "".join(f"    {line}\n" for line in head)
    if comp.guards:
        checks = ["ok = np.ones(b, dtype=bool)"] + [f"ok &= np.isfinite({g})" for g in comp.guards]
        src += "    try:\n" + "".join(f"        {line}\n" for line in comp.lines + fills + checks)
        src += "    except _UNDEFINED:\n        ok = np.zeros(b, dtype=bool)\n"
    else:  # nothing can fail a row
        src += "".join(f"    {line}\n" for line in comp.lines + fills)
        src += "    ok = None\n"
    src += f"    return {', '.join(f'out{o}' for o in range(len(outputs)))}, ok\n"
    exec(compile(src, f"<crorbit:{name}>", "exec"), namespace)
    return namespace[name]


def compile_values_rows(exprs: Sequence[ScalarExpr]) -> Callable:
    """The column kernel of :func:`compile_values`.

    ``x`` (dim, B) -> (values (B, k), ok or None).
    """
    comp = JetCompiler(0, columns=True)
    vals = [comp.emit(e)[0] for e in exprs]
    return _compile_rows("field_values_rows", comp, [(vals, (len(vals),))])


def compile_values_and_jacobian_rows(exprs: Sequence[ScalarExpr], dim: int) -> Callable:
    """The column kernel of :func:`compile_values_and_jacobian`.

    ``x`` (dim, B) -> (values (B, k), jac (B, k, dim), ok or None).
    """
    comp = JetCompiler(dim, columns=True)
    vals, partials = _jets(comp, exprs)
    return _compile_rows(
        "field_jet_rows", comp, [(vals, (len(vals),)), (partials, (len(vals), dim))]
    )


def evaluate_rows(
    rows_kernel: Callable, point_kernel: Callable, X: np.ndarray
) -> tuple[list[np.ndarray], dict[int, ExprDomainError]]:
    """Evaluate at every row of ``X`` (B, dim): the outputs, and the rows where undefined.

    The column kernel computes every row with the point kernel's operations
    in the point kernel's order, so where it vouches for a row (its guarded
    values are finite, or it has no guards) the numbers are the point
    kernel's, bit for bit.
    Every other row, and every row of a batch that raised, is passed to
    ``point_kernel`` as Python floats, which decides between its numbers
    (an infinity included) and ``ExprDomainError`` with Python's message.
    Raised errors are returned by row index; those rows' outputs are
    meaningless.
    """
    with np.errstate(all="ignore"):
        *outs, ok = rows_kernel(X.T)
    errors: dict[int, ExprDomainError] = {}
    if ok is None or ok.all():
        return outs, errors
    for r in np.flatnonzero(~ok).tolist():
        try:
            res = point_kernel(X[r].tolist())
        except ExprDomainError as exc:
            errors[r] = exc
            continue
        for out, value in zip(outs, res if isinstance(res, tuple) else (res,)):
            out[r] = value
    return outs, errors


def eval_values_and_jacobian(
    exprs: Sequence[ScalarExpr], dim: int, x: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """``compile_values_and_jacobian(exprs, dim)(x)`` interpreted: the same arrays, no compile.

    The rules run at the point ``x``, a list of floats, so the numbers and
    the errors are the kernel's, bit for bit: where an expression is
    undefined at ``x``, both raise :class:`ExprDomainError` with Python's
    message, and a constant subexpression that is not finite raises
    :class:`ExprDomainError` naming it.  With ``dim`` 0 this interprets
    :func:`compile_values`, and the Jacobian has no columns.
    """
    comp = JetCompiler(dim, x)
    try:
        jets = [comp.emit(e) for e in exprs]
    except ExprDomainError:  # the kernel fails to compile first if a later constant is not finite
        _jets(JetCompiler(dim), exprs)
        raise
    vals = np.array([v for v, _ in jets], dtype=float)
    return vals, np.array([tangents for _, tangents in jets], dtype=float)


class Jet:
    """The values of ``exprs`` over ``dim`` coordinates and, with ``partials``, their Jacobian.

    The one evaluation policy for an expression tuple: interpreted on first
    use, compiled on reuse.  The first :meth:`at` runs
    :func:`eval_values_and_jacobian`, and the second compiles the kernel
    (:func:`compile_values_and_jacobian`, or :func:`compile_values` without
    ``partials``), which answers it and every later call with the same
    bits.  Most tuples a check builds are evaluated once, and a compile
    costs far more than one interpreted evaluation.  :meth:`rows` evaluates
    a batch with the column kernel, compiled on its first use.
    """

    __slots__ = ("exprs", "dim", "partials", "_kernel", "_used", "_rows")

    def __init__(self, exprs: Sequence[ScalarExpr], dim: int, partials: bool = True):
        self.exprs, self.dim, self.partials = tuple(exprs), dim, partials
        self._kernel: Callable | None = None
        self._used = False
        self._rows: Callable | None = None

    def at(self, x: Sequence[float]):
        """``(values, jac)`` at ``x``, arrays (k,) and (k, ``dim``); the values without partials.

        The kernel computes on the Python floats of ``x``, so where an
        expression is undefined it raises :class:`ExprDomainError`.
        """
        x = np.asarray(x, dtype=float).tolist()
        if self._kernel is None:
            if not self._used:
                self._used = True
                tangents = self.dim if self.partials else 0
                vals, jac = eval_values_and_jacobian(self.exprs, tangents, x)
                return (vals, jac) if self.partials else vals
            self._kernel = (
                compile_values_and_jacobian(self.exprs, self.dim)
                if self.partials
                else compile_values(self.exprs)
            )
        return self._kernel(x)

    def rows(self, X: np.ndarray) -> tuple:
        """:meth:`at` at every row of ``X`` (B, ``dim``), stacked, and the rows where undefined.

        Each row has the bits :meth:`at` gives it (see :func:`evaluate_rows`);
        the second item maps the rows where an expression is undefined to
        :meth:`at`'s error there, and those rows' outputs are meaningless.
        One row is :meth:`at` itself, which costs less than a column kernel's
        call.
        """
        if len(X) == 1:
            try:
                res = self.at(X[0])
            except ExprDomainError as exc:
                vals = np.full((1, len(self.exprs)), np.nan)
                jac = np.full((1, len(self.exprs), self.dim), np.nan)
                return ((vals, jac) if self.partials else vals), {0: exc}
            return ((res[0][None], res[1][None]) if self.partials else res[None]), {}
        if self._rows is None:
            self._rows = (
                compile_values_and_jacobian_rows(self.exprs, self.dim)
                if self.partials
                else compile_values_rows(self.exprs)
            )
        outs, errors = evaluate_rows(self._rows, self.at, X)
        return (tuple(outs) if self.partials else outs[0]), errors
