"""Exact integer Laurent polynomials in one formal unit variable."""

from __future__ import annotations

from .errors import InexactDivision


class LaurentPoly:
    """Laurent polynomial with arbitrary-precision integer coefficients.

    ``terms`` maps exponent -> coefficient; zero coefficients are never
    stored.  Instances are treated as immutable values: every operation
    returns a new object.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {int(e): int(c) for e, c in dict(terms).items() if int(c) != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def items(self):
        """Terms in ascending exponent order."""
        return sorted(self.terms.items())

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            res = LaurentPoly.__new__(LaurentPoly)
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            # Only units are invertible in this ring.
            if len(self.terms) != 1:
                raise ValueError("negative powers only defined for monomials")
            (e, c), = self.terms.items()
            if c not in (1, -1):
                raise ValueError("negative powers need a unit coefficient")
            return LaurentPoly({e * n: 1 if (c == 1 or n % 2 == 0) else -1})
        result = LaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises InexactDivision on any remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        rem = dict(self.terms)
        d_lead = divisor.max_exp
        d_lead_c = divisor.terms[d_lead]
        quot: dict = {}
        max_steps = (self.max_exp - self.min_exp) + (divisor.max_exp - divisor.min_exp) + 2
        steps = 0
        while rem:
            steps += 1
            if steps > max_steps:
                raise InexactDivision("quotient does not terminate")
            r_lead = max(rem)
            q_c, r_mod = divmod(rem[r_lead], d_lead_c)
            if r_mod != 0:
                raise InexactDivision("leading coefficient not divisible")
            q_e = r_lead - d_lead
            quot[q_e] = q_c
            for e, c in divisor.terms.items():
                target = e + q_e
                s = rem.get(target, 0) - q_c * c
                if s:
                    rem[target] = s
                else:
                    rem.pop(target, None)
        return LaurentPoly(quot)

    def in_variable_power(self, k: int) -> "LaurentPoly":
        """Reinterpret as polynomial in variable**k (all exponents must divide)."""
        out = {}
        for e, c in self.terms.items():
            if e % k != 0:
                raise InexactDivision(f"exponent {e} not a multiple of {k}")
            out[e // k] = c
        return LaurentPoly(out)

    # -- evaluation and printing --------------------------------------

    def eval_at(self, x: complex) -> complex:
        """Evaluate at a complex point, accumulating in ascending-exponent order."""
        if not self.terms:
            return 0j
        total = 0j
        prev_e = None
        power = 1 + 0j
        for e, c in self.items():
            if prev_e is None:
                power = x ** e
            else:
                power = power * x ** (e - prev_e)
            prev_e = e
            total += c * power
        return total

    def format(self, var: str = "A") -> str:
        """Human-readable string, terms in ascending exponent order."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                v = var if e == 1 else f"{var}^{e}"
                body = v if mag == 1 else f"{mag}{v}"
            pieces.append((c < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


def loop_value() -> LaurentPoly:
    """Scalar a single closed loop contributes to a bracket state sum."""
    return LaurentPoly({2: -1, -2: -1})


def quantum_integer_poly(n: int) -> LaurentPoly:
    """[n] as a Laurent polynomial: sum of A**(2(n-1-2k)) for k = 0..n-1."""
    if n < 0:
        return -quantum_integer_poly(-n)
    return LaurentPoly({2 * (n - 1 - 2 * k): 1 for k in range(n)})


def signed_color_norm(n: int) -> LaurentPoly:
    """(-1)**n [n+1], the loop evaluation of the n-th Chebyshev color."""
    p = quantum_integer_poly(n + 1)
    return -p if n % 2 else p
