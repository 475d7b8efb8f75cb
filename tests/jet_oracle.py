"""The reference forward-mode interpreter that generated kernels are tested against.

A recursive tree walk, written apart from ``crorbit.expr.JetCompiler``: it
divides as ``a/b`` where the compiler multiplies by ``1/b``, so the two agree
to rounding, not bit for bit.  Returns ``(value, gradient)``; the gradient is
``None`` for ``order`` 0.
"""

import math

import numpy as np

from crorbit.expr import (
    Add,
    Call,
    Const,
    Div,
    ExprDomainError,
    Mul,
    Neg,
    Pow,
    ScalarExpr,
    Sub,
    Var,
)


def _jet_rec(e: ScalarExpr, x: np.ndarray, order: int):
    n = x.shape[0]
    first = order >= 1

    if isinstance(e, Const):
        return (e.value, np.zeros(n) if first else None)
    if isinstance(e, Var):
        g = None
        if first:
            g = np.zeros(n)
            g[e.index] = 1.0
        return (float(x[e.index]), g)
    if isinstance(e, (Add, Sub)):
        va, ga = _jet_rec(e.left, x, order)
        vb, gb = _jet_rec(e.right, x, order)
        s = 1.0 if isinstance(e, Add) else -1.0
        return (va + s * vb, ga + s * gb if first else None)
    if isinstance(e, Mul):
        va, ga = _jet_rec(e.left, x, order)
        vb, gb = _jet_rec(e.right, x, order)
        return (va * vb, va * gb + vb * ga if first else None)
    if isinstance(e, Div):
        va, ga = _jet_rec(e.left, x, order)
        vb, gb = _jet_rec(e.right, x, order)
        if vb == 0.0:
            raise ExprDomainError("division by zero")
        v = va / vb
        return (v, (ga - v * gb) / vb if first else None)
    if isinstance(e, Pow):
        va, ga = _jet_rec(e.base, x, order)
        nexp = e.exponent
        if va == 0.0 and nexp < 0:
            raise ExprDomainError("zero raised to a negative power")
        g = None
        if first:
            d1 = nexp * va ** (nexp - 1) if nexp != 0 else 0.0
            g = d1 * ga
        return (va**nexp, g)
    if isinstance(e, Neg):
        va, ga = _jet_rec(e.operand, x, order)
        return (-va, -ga if first else None)
    if isinstance(e, Call):
        va, ga = _jet_rec(e.arg, x, order)
        if e.func == "log" and va <= 0.0:
            raise ExprDomainError("log of a non-positive value")
        v = getattr(math, e.func)(va)
        g = None
        if first:
            if e.func == "sin":
                d1 = math.cos(va)
            elif e.func == "cos":
                d1 = -math.sin(va)
            elif e.func == "exp":
                d1 = v
            else:  # log
                d1 = 1.0 / va
            g = d1 * ga
        return (v, g)
    raise TypeError(f"not an expression node: {e!r}")
