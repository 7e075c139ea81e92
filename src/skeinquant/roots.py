"""Evaluation contexts at primitive (4r+2)-th roots of unity, and roots of unity in integers."""

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


def unit_root(M: int, W: int) -> tuple:
    """round(2^W exp(2 pi i/M)) as the Gaussian integer (re, im), for M >= 3.

    In integers at V = W + 20 + bitlen(W) bits: pi = 16 atan(1/5) - 4 atan(1/239)
    (Machin) from truncated series terms, the angle 2 pi/M, the Taylor series of
    exp(i angle), then one rounding shift.  Before the shift each part is within
    1.5 V + 35 units of 2^-V, so each is within 1/2 + 2^-13 units of 2^-W
    (docs/conventions.md).
    """
    if M < 3:
        raise ValueError("unit_root needs M >= 3")
    V = W + 20 + W.bit_length()
    one = 1 << V

    def atan_inv(x):
        total, power, k = 0, one // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        return total

    angle = 2 * (16 * atan_inv(5) - 4 * atan_inv(239)) // M
    part, term, k = [one, 0], one, 0
    while term:   # term k, (i angle)^k/k!, adds to part k mod 2 with sign i^k
        k += 1
        term = term * angle // (k << V)
        part[k % 2] += -term if k % 4 >= 2 else term
    half = 1 << (V - W - 1)
    return tuple((p + half) >> (V - W) for p in part)


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
