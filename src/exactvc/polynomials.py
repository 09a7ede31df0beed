"""Exact univariate polynomial arithmetic over the rationals.

Everything in this module is pure: polynomials are immutable value
objects, and no floating point is used anywhere. A polynomial is stored
as integer coefficients over one positive denominator, coprime to their
content, so each has one unique form and every operation runs on Python
integers. Products use `int_mul`, which multiplies coefficient lists by
Kronecker substitution (Schoenhage 1982), one big-int product per call.
Exact division has one algorithm, `int_strip`: synthetic division by a
primitive integer divisor, whose quotient is integral (Gauss's lemma).

`poly_gcd` proves coprimality cheaply and computes nontrivial gcds exactly.
Both inputs are reduced to primitive integer polynomials and then mod the
prime p = 2^31 - 1. When p divides neither leading coefficient, the gcd
over Q reduces to a divisor of the gcd mod p of the same degree, so a gcd
mod p of degree 0 proves the inputs coprime over Q (Brown 1971). That
Euclid mod p runs on packed rows: each remainder is one int with a slot
per coefficient, so one elimination step is one big-int product. In every
other case (a shared factor mod p, or a leading coefficient divisible by
p) the gcd comes from an exact primitive pseudo-remainder sequence, which
keeps the integer coefficients from exploding on the large inputs of the
likelihood-equation builders. `squarefree_part` inherits the same proof:
p is squarefree when gcd(p, p') mod p has degree 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import ne
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DivisibilityError, UndefinedInputError

ZERO = Fraction(0)


def rat(value) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (decimal strings are exact);
    float and bool are refused with TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing to coerce {type(value).__name__} to "
                        "Fraction; pass a string")
    return Fraction(value)


# ----------------------------------------------------------------------
# UniPoly
# ----------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q: ints / den, ascending.

    ints is a tuple of Python ints with no trailing zero and den a positive
    int coprime to their content (1 for the zero polynomial, whose ints are
    empty and whose degree is -1); == and hash compare this unique form.
    The constructor takes ints with an optional nonzero integer den, or
    rationals (ints, Fractions, strings), which it clears to one
    denominator. coeffs is the Fraction view. Instances are immutable. The
    variable tag only matters for display and for refusing to mix
    polynomials in different variables.
    """

    __slots__ = ("ints", "den", "var")

    def __init__(self, coeffs: Iterable, var: str = "theta", den: int = 1):
        if den == 0:
            raise ZeroDivisionError("polynomial with denominator 0")
        cs = list(coeffs)
        if not all(type(c) is int for c in cs):
            fs = [rat(c) for c in cs]
            scale = lcm(*(c.denominator for c in fs))
            cs = [c.numerator * (scale // c.denominator) for c in fs]
            den *= scale
        while cs and cs[-1] == 0:
            cs.pop()
        if den < 0:
            cs, den = [-c for c in cs], -den
        if not cs:
            den = 1
        elif den != 1:
            g = int_gcd(den, *cs)
            if g > 1:
                cs, den = [c // g for c in cs], den // g
        object.__setattr__(self, "ints", tuple(cs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- basic structure --------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def leading_coeff(self) -> Fraction:
        return Fraction(self.ints[-1], self.den) if self.ints else ZERO

    def integer_coeffs(self) -> List[int]:
        """Coefficient list as Python ints; requires integer coefficients."""
        if self.den != 1:
            raise ValueError("polynomial does not have integer coefficients")
        return list(self.ints)

    @classmethod
    def zero(cls, var: str = "theta") -> "UniPoly":
        return cls((), var)

    @classmethod
    def constant(cls, c, var: str = "theta") -> "UniPoly":
        return cls((c,), var)

    def _check_var(self, other: "UniPoly"):
        if self.var != other.var and self.ints and other.ints:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check_var(other)
        den = lcm(self.den, other.den)
        return UniPoly(int_sum([(den // self.den, self.ints),
                                (den // other.den, other.ints)]),
                       self.var if self.ints else other.var, den)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.ints], self.var, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return UniPoly([v * c.numerator for v in self.ints], self.var,
                           self.den * c.denominator)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var if self.ints else other.var)
        return UniPoly(int_mul(self.ints, self.ints if other is self
                               else other.ints),
                       self.var, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = UniPoly.constant(1, self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    def __call__(self, x) -> Fraction:
        """Exact evaluation: int_eval's Horner sum, one Fraction."""
        acc, scale = int_eval(self.ints, rat(x))
        return Fraction(acc, self.den * scale)

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

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(int_derivative(self.ints), self.var, self.den)

    # -- division and normal forms ------------------------------------------

    def exact_divide(self, divisor: "UniPoly") -> "UniPoly":
        """Quotient when the division is exact; DivisibilityError otherwise.

        With divisor = c f / den, f primitive and c its positive content,
        self / divisor = int_strip(self.ints, f, 1) den / (self.den c); a
        constant divisor only rescales.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check_var(divisor)
        if self.is_zero():
            return self
        if not divisor.degree:
            return UniPoly([v * divisor.den for v in self.ints], self.var,
                           self.den * divisor.ints[0])
        c = _int_content(divisor.ints)
        quot, k = int_strip(self.ints, [v // c for v in divisor.ints], 1)
        if k != 1:
            raise DivisibilityError(
                f"{divisor!r} does not divide {self!r}")
        return UniPoly([v * divisor.den for v in quot], self.var,
                       self.den * c)

    def primitive(self) -> "UniPoly":
        """Primitive normal form: coprime integer coefficients, positive
        leading coefficient. Unique representative of the positive-scale
        equivalence class; the zero polynomial maps to itself."""
        if self.is_zero():
            return self
        g = _int_content(self.ints)
        if self.ints[-1] < 0:
            g = -g
        return UniPoly([v // g for v in self.ints], self.var)


# ----------------------------------------------------------------------
# Integer-level helpers: products, sums, strips and remainder sequences
# ----------------------------------------------------------------------

def _pack(cs: Sequence[int], width: int) -> int:
    """sum cs[i] 2^(8 width i); every |cs[i]| must be below 2^(8 width)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in cs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def int_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of ascending integer lists, len a + len b - 1 entries long.

    When one operand has at most 8 entries the double loop is faster than
    the packing (timed on 40- to 3,000-bit entries) and runs instead.
    Otherwise B = min(len) max|a| max|b| bounds every coefficient in size,
    and each operand's too (a zero maximum counts as 1). With w-byte slots
    and B < 2^(8w - 1), a(2^8w) b(2^8w) is one int product; 2^(8w - 1)
    added to every slot makes each a nonnegative w-byte field, sliced out
    of bytes.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if min(len(a), len(b)) <= 8:
        if len(a) > len(b):
            a, b = b, a
        out = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return out
    bound = ((max(map(abs, a)) or 1) * (max(map(abs, b)) or 1)
             * min(len(a), len(b)))
    w = bound.bit_length() // 8 + 1
    pa = _pack(a, w)
    prod = pa * (pa if b is a else _pack(b, w))
    prod += int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    raw = memoryview(prod.to_bytes(w * n, "little"))
    half = 1 << (8 * w - 1)
    return [int.from_bytes(raw[i:i + w], "little") - half
            for i in range(0, w * n, w)]


def int_sum(terms) -> List[int]:
    """sum c * cs over (c, integer list cs) pairs, trailing zeros trimmed."""
    out = []
    for c, cs in terms:
        out += [0] * (len(cs) - len(out))
        for i, v in enumerate(cs):
            out[i] += c * v
    while out and out[-1] == 0:
        out.pop()
    return out


def int_derivative(cs: Sequence[int]) -> List[int]:
    return [k * c for k, c in enumerate(cs)][1:]


def int_eval(cs: Sequence[int], x: Fraction) -> Tuple[int, int]:
    """(d^deg p(n/d), d^deg) for x = n/d, d > 0, and the polynomial p with
    ascending integer coefficients cs: homogeneous Horner on integers."""
    n, d = x.numerator, x.denominator
    it = reversed(cs)
    acc, dp = next(it, 0), 1
    for c in it:
        dp *= d
        acc = acc * n + c * dp
    return acc, dp


def _common_denominator(x: Fraction, y: Fraction) -> Tuple[int, int, int]:
    """(a, b, d) with x = a / d and y = b / d, d = lcm of the denominators."""
    d = lcm(x.denominator, y.denominator)
    return (x.numerator * (d // x.denominator),
            y.numerator * (d // y.denominator), d)


def int_on_interval(cs: Sequence[int], a: Fraction, b: Fraction) -> List[int]:
    """Integer coefficients of a positive multiple of p(a + (b - a) x), for
    the polynomial p with ascending integer coefficients cs."""
    c0, c1, d = _common_denominator(a, b)
    c1 -= c0
    acc, dp = [cs[-1]], 1
    for c in reversed(cs[:-1]):
        dp *= d
        acc = [x * c0 + y * c1 for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += c * dp
    return acc


def int_strip(cs: Sequence[int], f: Sequence[int],
              cap: Optional[int] = None) -> Tuple[Sequence[int], int]:
    """(cs / f^k, k) on ascending integer lists, k the largest, at most
    cap, with f^k | cs (cs itself when k = 0); f must be primitive, of
    degree m >= 1 or, with a cap, m = 0. The quotient is then integral
    (Gauss's lemma), so each power of f is one synthetic division from
    the top, q_i = (cs_(i+m) - due_(i+m)) / f_m, that stops at the first
    step f_m does not divide; each q_i adds its pending products q_i f_j
    to the window due_(i..i+m-1) below it, and the remainder, cs - due on
    the m low entries, must vanish.
    """
    k = 0
    m, lead, low = len(f) - 1, f[-1], f[:-1]
    window = range(m)
    while len(cs) > m and (cap is None or k < cap):
        q, due = [0] * (len(cs) - m), [0] * len(cs)
        for i in range(len(q) - 1, -1, -1):
            t, rest = divmod(cs[i + m] - due[i + m], lead)
            if rest:
                return cs, k
            q[i] = t
            for j in window:
                due[i + j] += t * low[j]
        if any(map(ne, due[:m], cs)):
            return cs, k
        cs, k = q, k + 1
    return cs, k


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


# Modulus of the coprimality test: the Mersenne prime 2^31 - 1.
_PRIME = (1 << 31) - 1


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int], m: int) -> int:
    """Degree of gcd(a mod m, b mod m) over the field Z/m, for m = _PRIME.

    Both leading coefficients must be nonzero mod m. Each remainder row
    is one int of w-bit slots, the leading coefficient in the lowest, so
    the Euclidean step that cancels the leading slot with c = lead * inv
    is A + (m - c) B, one big-int product, after which the cancelled slot
    is shifted out. A divisor row's slots stay below 2^32, so a step adds
    less than 2^63 to a slot, and w > 64 + log2(n) leaves room for a whole
    remainder pass of at most n steps. After each pass the remainder is
    reduced slotwise: v - (v >> 31) m keeps v's class mod m = 2^31 - 1
    and, applied twice, brings a slot of w <= 93 bits below 2^32. Only the
    leading slot is ever read exactly, modulo m.
    """
    n = max(len(a), len(b))
    w = 8 * ((64 + n.bit_length()) // 8 + 1)
    slot = (1 << w) - 1
    fold = int.from_bytes(((1 << w - 31) - 1).to_bytes(w // 8, "little") * n,
                          "little")

    def row(cs):
        return int.from_bytes(b"".join((v % m).to_bytes(w // 8, "little")
                                       for v in reversed(cs)), "little")

    A, B, la, lb = row(a), row(b), len(a), len(b)
    while lb:
        inv = pow(B & slot, -1, m)
        for _ in range(la - lb + 1):
            A = (A + (m - (A & slot) * inv % m) * B) >> w
        la = min(la, lb - 1)
        A -= ((A >> 31) & fold) * m
        A -= ((A >> 31) & fold) * m
        while la and not (A & slot) % m:
            A >>= w
            la -= 1
        A, B, la, lb = B, A, lb, la
    return la - 1


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
        recognised by a gcd mod 2^31 - 1 of degree 0, computed on packed
        rows (_gcd_degree_mod); the exact remainder sequence runs only
        when that test cannot decide.
    """
    if p.is_zero() and q.is_zero():
        raise UndefinedInputError("gcd(0, 0) is undefined")
    var = p.var if not p.is_zero() else q.var
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
    a, b = _int_primitive(p.ints), _int_primitive(q.ints)
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


def int_sign_changes(cs: Sequence[int]) -> int:
    """Number of strict sign alternations in an integer coefficient list,
    zeros skipped."""
    signs = [c > 0 for c in cs if c]
    return sum(map(ne, signs, signs[1:]))


def descartes_sign_changes(p: UniPoly) -> int:
    """Number of strict sign alternations in the coefficient sequence.

    Bounds the count of positive real roots from above and matches it
    modulo 2 (Descartes' rule of signs).
    """
    if p.is_zero():
        raise UndefinedInputError("sign changes of the zero polynomial")
    return int_sign_changes(p.ints)


def int_linear_product(sizes: Iterable[int]) -> list:
    """Integer coefficients, ascending, of prod (1 + n theta) over sizes."""
    out = [1]
    for n in sizes:
        out = [a + n * b for a, b in zip(out + [0], [0] + out)]
    return out


def interpolate(values: Sequence[int], den: int) -> UniPoly:
    """The polynomial in theta of degree at most D taking values[k] / den
    at k = 0..D, for integer values and a positive integer den.

    Newton forward differences in integers: with a_k = Delta^k f(0),
    f = sum_k a_k C(theta, k), and the nesting T_D = a_D,
    T_k = (D!/k!) a_k + (theta - k) T_(k+1) gives D! den f = T_0 with
    integer coefficients, returned over the denominator D! den.
    """
    a = list(values)
    if not a:
        raise UndefinedInputError("interpolation needs at least one value")
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
    return UniPoly(poly, den=scale * den)
