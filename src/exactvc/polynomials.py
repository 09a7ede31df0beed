"""Exact univariate polynomial arithmetic over the rationals.

Everything in this module is pure: polynomials are immutable value objects
with `fractions.Fraction` coefficients, and no floating point is used
anywhere.

`poly_gcd` proves coprimality cheaply and computes nontrivial gcds exactly.
Both inputs are reduced to primitive integer polynomials and then mod the
prime 2^61 - 1. When the prime divides neither leading coefficient, the gcd
over Q reduces to a divisor of the gcd mod p of the same degree, so a gcd
mod p of degree 0 proves the inputs coprime over Q (Brown 1971). In every
other case (a shared factor mod p, or a leading coefficient divisible by
p) the gcd comes from an exact primitive pseudo-remainder sequence, which
keeps the integer coefficients from exploding on the large inputs of the
likelihood-equation builders. `squarefree_part` inherits the same proof:
p is squarefree when gcd(p, p') mod p has degree 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DivisibilityError, UndefinedInputError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (decimal strings are exact)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to Fraction; pass a string")
    return Fraction(value)


# ----------------------------------------------------------------------
# UniPoly
# ----------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Fraction, ascending coefficients.

    Instances are immutable. The zero polynomial stores an empty coefficient
    tuple and reports degree -1. The variable tag only matters for display
    and for refusing to mix polynomials in different variables.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable, var: str = "theta"):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- basic structure --------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coeff(self) -> Fraction:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    @classmethod
    def zero(cls, var: str = "theta") -> "UniPoly":
        return cls((), var)

    @classmethod
    def constant(cls, c, var: str = "theta") -> "UniPoly":
        return cls((rat(c),), var)

    @classmethod
    def variable(cls, var: str = "theta") -> "UniPoly":
        return cls((ZERO, ONE), var)

    @classmethod
    def linear(cls, c0, c1, var: str = "theta") -> "UniPoly":
        """The polynomial c0 + c1*x."""
        return cls((rat(c0), rat(c1)), var)

    def _check_var(self, other: "UniPoly"):
        if self.var != other.var and self.coeffs and other.coeffs:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self.coeff(k) + other.coeff(k) for k in range(n)),
            self.var if self.coeffs else other.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly((-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return UniPoly((ci * c for ci in self.coeffs), self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var if self.coeffs else other.var)
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = UniPoly.constant(1, self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x = rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*{self.var}")
            else:
                terms.append(f"{c}*{self.var}^{k}")
        return "UniPoly(" + " + ".join(terms) + ")"

    # -- calculus and substitution ----------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(
            (k * c for k, c in enumerate(self.coeffs) if k > 0),
            self.var)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Exact composition self(inner(x)); result uses inner's variable."""
        acc = UniPoly.zero(inner.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c, inner.var)
        return acc

    # -- division ----------------------------------------------------------

    def divmod(self, divisor: "UniPoly"):
        """Euclidean division over Q; returns (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check_var(divisor)
        var = self.var
        rem = list(self.coeffs)
        dd = divisor.degree
        dlc = divisor.leading_coeff()
        if len(rem) - 1 < dd:
            return UniPoly.zero(var), self
        quot = [ZERO] * (len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd] / dlc
            if c != 0:
                quot[k] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quot, var), UniPoly(rem[:dd], var)

    def rem(self, divisor: "UniPoly") -> "UniPoly":
        return self.divmod(divisor)[1]

    def exact_divide(self, divisor: "UniPoly") -> "UniPoly":
        """Quotient when the division is exact; DivisibilityError otherwise."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise DivisibilityError(
                f"{divisor!r} does not divide {self!r}")
        return q

    # -- normal forms -------------------------------------------------------

    def primitive(self) -> "UniPoly":
        """Primitive normal form: coprime integer coefficients, positive
        leading coefficient. Unique representative of the positive-scale
        equivalence class; the zero polynomial maps to itself."""
        if self.is_zero():
            return self
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, v)
        if ints[-1] < 0:
            g = -g
        return UniPoly((Fraction(v, g) for v in ints), self.var)

    def integer_coeffs(self) -> list:
        """Coefficient list as Python ints; requires integer coefficients."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError("polynomial does not have integer coefficients")
            out.append(c.numerator)
        return out


# ----------------------------------------------------------------------
# Integer-level helpers for the remainder sequences
# ----------------------------------------------------------------------

def _int_content(cs: Sequence[int]) -> int:
    g = 0
    for v in cs:
        g = int_gcd(g, v)
    return g if g else 1


def _int_primitive(cs: Sequence[int]) -> list:
    """Divide by the positive content; keeps the sign pattern."""
    g = _int_content(cs)
    return [v // g for v in cs]


def _int_trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _int_pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list:
    """Pseudo-remainder of integer polynomials with a positive multiplier.

    Computes rem(m * a, b) over Z where m = |lc(b)|^(deg a - deg b + 1).
    The positive multiplier keeps the sign of the true rational remainder,
    which the Sturm chain construction relies on.
    """
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    steps = len(a) - len(b) + 1
    m = abs(lb) ** steps
    a = [v * m for v in a]
    for k in range(len(a) - db - 1, -1, -1):
        top = a[k + db]
        if top == 0:
            continue
        # top is divisible by lb at every step because of the premultiplier
        c = top // lb
        a[k + db] = 0
        for j in range(db):
            a[k + j] -= c * b[j]
    return _int_trim(a[:db])


# Modulus of the coprimality test: the Mersenne prime 2^61 - 1.
_PRIME = (1 << 61) - 1


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int], m: int) -> int:
    """Degree of gcd(a mod m, b mod m) over the field Z/m, m prime.

    Both leading coefficients must be nonzero mod m.
    """
    a = [v % m for v in a]
    b = [v % m for v in b]
    while b:
        inv = pow(b[-1], -1, m)
        db = len(b) - 1
        while len(a) > db:
            c = a[-1] * inv % m
            if c:
                off = len(a) - 1 - db
                for j in range(db):
                    a[off + j] = (a[off + j] - c * b[j]) % m
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _int_prs_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """Exact gcd of nonzero integer polynomials by a primitive
    pseudo-remainder sequence; primitive with positive leading entry."""
    a, b = _int_primitive(a), _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_pseudo_rem(a, b)
        if r:
            r = _int_primitive(r)
        a, b = b, r
    if a[-1] < 0:
        a = [-v for v in a]
    return a


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Greatest common divisor in primitive normal form.

    Args:
        p, q: polynomials, not both zero.

    Returns:
        The gcd with coprime integer coefficients and positive leading
        coefficient; divides both inputs exactly. Coprime inputs are
        recognised by a gcd mod 2^61 - 1 of degree 0; the exact remainder
        sequence runs only when that test cannot decide.
    """
    if p.is_zero() and q.is_zero():
        raise UndefinedInputError("gcd(0, 0) is undefined")
    var = p.var if not p.is_zero() else q.var
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
    a = p.primitive().integer_coeffs()
    b = q.primitive().integer_coeffs()
    if (a[-1] % _PRIME and b[-1] % _PRIME
            and _gcd_degree_mod(a, b, _PRIME) == 0):
        return UniPoly.constant(1, var)
    return UniPoly(_int_prs_gcd(a, b), var)


def squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'), normalized primitive; has the same distinct roots
    as p but all simple."""
    if p.is_zero():
        raise UndefinedInputError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return UniPoly.constant(1, p.var)
    g = poly_gcd(p, p.derivative())
    return p.exact_divide(g).primitive()


def strip_factor(poly: UniPoly, factor: UniPoly,
                 cap: Optional[int] = None) -> Tuple[UniPoly, int]:
    """(poly / factor^k, k) for the largest k, at most cap, such that
    factor^k divides poly; factor must have positive degree."""
    if factor.degree < 1:
        raise ValueError("strip_factor needs a factor of positive degree")
    k = 0
    while poly.degree >= factor.degree and (cap is None or k < cap):
        quot, rem = poly.divmod(factor)
        if not rem.is_zero():
            break
        poly, k = quot, k + 1
    return poly, k


def descartes_sign_changes(p: UniPoly) -> int:
    """Number of strict sign alternations in the coefficient sequence.

    Bounds the count of positive real roots from above and matches it
    modulo 2 (Descartes' rule of signs).
    """
    if p.is_zero():
        raise UndefinedInputError("sign changes of the zero polynomial")
    signs = [1 if c > 0 else -1 for c in p.coeffs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def int_linear_product(sizes: Iterable[int]) -> list:
    """Integer coefficients, ascending, of prod (1 + n theta) over sizes."""
    out = [1]
    for n in sizes:
        out = [a + n * b for a, b in zip(out + [0], [0] + out)]
    return out


def interpolate(values: Sequence, var: str = "theta") -> UniPoly:
    """The polynomial of degree at most D taking values[k] at k = 0..D.

    Newton forward differences in integers: with a_k = Delta^k f(0),
    f = sum_k a_k C(theta, k), and the nesting T_D = a_D,
    T_k = (D!/k!) a_k + (theta - k) T_(k+1) gives D! f = T_0 with integer
    coefficients. Rational values are first cleared by their common
    denominator; one exact division by it and D! ends the computation.
    """
    vals = [rat(v) for v in values]
    if not vals:
        raise UndefinedInputError("interpolation needs at least one value")
    den = lcm(*(v.denominator for v in vals))
    a = [v.numerator * (den // v.denominator) for v in vals]
    D = len(a) - 1
    for k in range(1, D + 1):
        for i in range(D, k - 1, -1):
            a[i] -= a[i - 1]
    poly = [a[D]]
    scale = 1                       # D!/k! for the current k
    for k in range(D - 1, -1, -1):
        scale *= k + 1
        nxt = [0] + poly
        for i, c in enumerate(poly):
            nxt[i] -= k * c
        nxt[0] += scale * a[k]
        poly = nxt
    return UniPoly((Fraction(c, scale * den) for c in poly), var)
