"""Evaluation contexts at primitive (4r+2)-th roots of unity."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .laurent import LaurentPoly


class RootContext(NamedTuple("RootContext", [("r", int)])):
    """Level-r evaluation data: A = exp(i pi / (2r+1)).

    This choice makes A a primitive (4r+2)-th root of unity with
    A**4 = exp(2 pi i / (r + 1/2)), so the skein variable and the
    evaluation point used for norm sums come from one constant.
    """

    __slots__ = ()

    def __new__(cls, r):
        if r < 3:
            raise ValueError("level r must be >= 3")
        return super().__new__(cls, r)

    @property
    def A_value(self) -> complex:
        return cmath.exp(1j * math.pi / (2 * self.r + 1))

    @property
    def t_value(self) -> complex:
        """A**4 = exp(2 pi i / (r + 1/2))."""
        return cmath.exp(4j * math.pi / (2 * self.r + 1))


def quantum_integer(n: int, ctx: RootContext) -> float:
    """[n] = (A**2n - A**-2n) / (A**2 - A**-2) at A = ctx.A_value.

    That is sin(2 pi n/NN) / sin(2 pi/NN), NN = 2r+1, taken in real arithmetic.
    """
    NN = 2 * ctx.r + 1
    return math.sin(2 * math.pi * n / NN) / math.sin(2 * math.pi / NN)


def eval_at_root(p: LaurentPoly, ctx: RootContext) -> complex:
    """Evaluate an exact Laurent polynomial at A = ctx.A_value.

    Summation runs in ascending exponent order for reproducibility.
    """
    return p.eval_at(ctx.A_value)
