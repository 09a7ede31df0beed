"""Sparse multivariate polynomials and fraction-free determinants.

bareiss_determinant, the one-step Bareiss scheme whose interior divisions
are always exact, serves covariates (Gram and bordered determinants over
UniPoly). MultiPoly, sylvester_matrix and resultant_eliminate serve no
fit: they are the general Sylvester cascade that the two-way tests check
twoway's one-variable elimination against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import DivisibilityError, UndefinedInputError
from .polynomials import UniPoly, rat

Monomial = Tuple[int, ...]


class MultiPoly:
    """Multivariate polynomial over Fraction with a fixed variable tuple.

    Variables are kept sorted by name; terms map exponent tuples to nonzero
    coefficients. Instances are immutable value objects.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Dict[Monomial, Fraction]):
        vs = tuple(vars)
        if list(vs) != sorted(vs):
            raise ValueError("variables must be sorted by name")
        cleaned = {}
        for mono, c in terms.items():
            c = rat(c)
            if c != 0:
                if len(mono) != len(vs):
                    raise ValueError("exponent tuple has wrong arity")
                cleaned[tuple(mono)] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c, vars: Sequence[str] = ()) -> "MultiPoly":
        c = rat(c)
        vs = tuple(sorted(vars))
        if c == 0:
            return cls(vs, {})
        return cls(vs, {(0,) * len(vs): c})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str] = None) -> "MultiPoly":
        vs = tuple(sorted(vars)) if vars is not None else (name,)
        if name not in vs:
            raise ValueError(f"{name!r} not among {vs}")
        mono = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {mono: Fraction(1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def _embed(self, vs: Tuple[str, ...]) -> "MultiPoly":
        """Re-express over a superset variable tuple."""
        if vs == self.vars:
            return self
        pos = [vs.index(v) for v in self.vars]
        terms = {}
        for mono, c in self.terms.items():
            new = [0] * len(vs)
            for p, e in zip(pos, mono):
                new[p] = e
            terms[tuple(new)] = c
        return MultiPoly(vs, terms)

    @staticmethod
    def _align(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        vs = tuple(sorted(set(a.vars) | set(b.vars)))
        return a._embed(vs), b._embed(vs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._align(self, other)
        terms = dict(a.terms)
        for mono, c in b.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return MultiPoly(self.vars,
                             {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._align(self, other)
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            factors = [str(c)]
            for v, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return "MultiPoly(" + " + ".join(parts) + ")"

    # -- substitution -----------------------------------------------------------

    def substitute(self, assignment: Dict[str, "Fraction | int | str"]) -> "MultiPoly":
        """Replace some variables by rational values; exact throughout."""
        vals = {v: rat(x) for v, x in assignment.items()}
        keep = tuple(v for v in self.vars if v not in vals)
        terms: Dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            factor = c
            new = []
            for v, e in zip(self.vars, mono):
                if v in vals:
                    factor *= vals[v] ** e
                else:
                    new.append(e)
            if factor != 0:
                key = tuple(new)
                terms[key] = terms.get(key, Fraction(0)) + factor
        return MultiPoly(keep, terms)

    def evaluate(self, assignment: Dict[str, "Fraction | int | str"]) -> Fraction:
        out = self.substitute(assignment)
        return out.constant_value()

    # -- views ----------------------------------------------------------------

    def coeff_in(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var**k as a polynomial in the remaining variables."""
        if var not in self.vars:
            if k == 0:
                return self
            return MultiPoly(self.vars, {})
        i = self.vars.index(var)
        keep = tuple(v for j, v in enumerate(self.vars) if j != i)
        terms = {}
        for mono, c in self.terms.items():
            if mono[i] == k:
                terms[mono[:i] + mono[i + 1:]] = c
        return MultiPoly(keep, terms)

    def to_unipoly(self, var: str) -> UniPoly:
        """Convert when no other variable occurs."""
        for mono, _ in self.terms.items():
            for v, e in zip(self.vars, mono):
                if v != var and e != 0:
                    raise ValueError(f"polynomial involves {v!r}, not univariate")
        d = self.degree_in(var)
        if d < 0:
            return UniPoly.zero(var)
        if var in self.vars:
            i = self.vars.index(var)
            coeffs = [Fraction(0)] * (d + 1)
            for mono, c in self.terms.items():
                coeffs[mono[i]] = c
            return UniPoly(coeffs, var)
        return UniPoly.constant(self.constant_value(), var)

    # -- division ---------------------------------------------------------------

    def _lex_leading(self) -> Tuple[Monomial, Fraction]:
        mono = max(self.terms)
        return mono, self.terms[mono]

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient under lex division; DivisibilityError if inexact."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = MultiPoly._align(self, divisor)
        if a.is_zero():
            return MultiPoly(a.vars, {})
        rem = dict(a.terms)
        quot: Dict[Monomial, Fraction] = {}
        b_lead, b_lc = b._lex_leading()
        while rem:
            mono = max(rem)
            c = rem[mono]
            q_mono = tuple(e1 - e2 for e1, e2 in zip(mono, b_lead))
            if any(e < 0 for e in q_mono):
                raise DivisibilityError("division is not exact")
            q_c = c / b_lc
            quot[q_mono] = quot.get(q_mono, Fraction(0)) + q_c
            for m2, c2 in b.terms.items():
                key = tuple(e1 + e2 for e1, e2 in zip(q_mono, m2))
                new = rem.get(key, Fraction(0)) - q_c * c2
                if new == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = new
        return MultiPoly(a.vars, quot)


# ----------------------------------------------------------------------
# Determinants
# ----------------------------------------------------------------------

def bareiss_determinant(rows: List[List], zero, one,
                        exact_div: Callable = None):
    """Fraction-free determinant of a square matrix over an integral domain.

    Works for any entry type supporting +, -, *, == against `zero`, given
    an exact division callable (defaults to the entries' exact_divide).
    Interior divisions in the Bareiss recurrence are exact by construction.
    """
    if exact_div is None:
        exact_div = lambda a, b: a.exact_divide(b)
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    det_sign = 1
    prev = one
    for k in range(n - 1):
        # pivot: prefer the sparsest nonzero entry to limit term growth
        pivot_row = None
        best = None
        for i in range(k, n):
            e = m[i][k]
            if e == zero:
                continue
            size = e.num_terms() if hasattr(e, "num_terms") else 1
            if best is None or size < best:
                best, pivot_row = size, i
        if pivot_row is None:
            return zero
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det_sign = -det_sign
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(pk * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = zero
        prev = pk
    result = m[n - 1][n - 1]
    if det_sign < 0:
        result = -result
    return result


def naive_determinant(rows: List[List], zero, one):
    """Cofactor-expansion determinant; independent cross-check for tests."""
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = zero
    for j in range(n):
        a = rows[0][j]
        if a == zero:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * naive_determinant(minor, zero, one)
        total = total + (term if j % 2 == 0 else -term)
    return total


def sylvester_matrix(p: MultiPoly, q: MultiPoly, var: str) -> List[List[MultiPoly]]:
    """Sylvester matrix of p and q with respect to one variable.

    Entries are polynomials in the remaining variables; the matrix has
    size (deg_var p + deg_var q).
    """
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp < 1 or dq < 1:
        raise UndefinedInputError(
            f"both polynomials need positive degree in {var!r}")
    pc = [p.coeff_in(var, k) for k in range(dp + 1)]
    qc = [q.coeff_in(var, k) for k in range(dq + 1)]
    vs = tuple(sorted((set(p.vars) | set(q.vars)) - {var}))
    zero = MultiPoly(vs, {})
    pc = [c._embed(vs) for c in pc]
    qc = [c._embed(vs) for c in qc]
    n = dp + dq
    rows = []
    for shift in range(dq):
        row = [zero] * n
        for k in range(dp + 1):
            row[shift + dp - k] = pc[k]
        rows.append(row)
    for shift in range(dp):
        row = [zero] * n
        for k in range(dq + 1):
            row[shift + dq - k] = qc[k]
        rows.append(row)
    return rows


def resultant_eliminate(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of p and q with respect to var.

    Args:
        p, q: polynomials, both of positive degree in var.
        var: the variable to eliminate.

    Returns:
        A polynomial in the remaining variables that vanishes at the
        projection of every common solution of p = q = 0.
    """
    rows = sylvester_matrix(p, q, var)
    vs = rows[0][0].vars if rows else ()
    zero = MultiPoly(vs, {})
    one = MultiPoly.constant(1, vs)
    return bareiss_determinant(rows, zero, one)
