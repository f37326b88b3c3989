"""Exact rational linear algebra and univariate real-root counting.

Coefficients are `fractions.Fraction` throughout, so every result is exact;
there are no floating-point code paths anywhere in this module.  Univariate
polynomials store their coefficients lowest degree first, the zero polynomial
being the empty coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotSquare, NotSymmetric, ZeroPolynomial

Q = Fraction


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Dense univariate polynomial over the rationals.

    coefficients[i] is the coefficient of degree i; the leading coefficient is
    nonzero unless the polynomial is zero (empty tuple).
    """

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coefficients(coeffs: Iterable) -> "UnivariatePolynomial":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UnivariatePolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def leading_coefficient(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __add__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UnivariatePolynomial.from_coefficients(out)

    def __neg__(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        return self + (-other)

    def __mul__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        if self.is_zero() or other.is_zero():
            return UnivariatePolynomial(())
        out = [Q(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return UnivariatePolynomial.from_coefficients(out)

    def __pow__(self, n: int) -> "UnivariatePolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = UnivariatePolynomial((Q(1),))
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "UnivariatePolynomial":
        c = _as_fraction(c)
        if c == 0:
            return UnivariatePolynomial(())
        return UnivariatePolynomial(tuple(a * c for a in self.coefficients))

    def monic(self) -> "UnivariatePolynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading_coefficient())

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial.from_coefficients(
            [i * c for i, c in enumerate(self.coefficients)][1:]
        )

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Q(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def divmod(self, other: "UnivariatePolynomial"):
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        q = [Q(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coefficients)
        d = other.degree
        lc = other.leading_coefficient()
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            shift = len(r) - 1 - d
            factor = r[-1] / lc
            q[shift] = factor
            for i, c in enumerate(other.coefficients):
                r[i + shift] -= factor * c
        return (
            UnivariatePolynomial.from_coefficients(q),
            UnivariatePolynomial.from_coefficients(r),
        )

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            term = str(c) if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i > 0 and abs(c) != 1:
                term = f"{c}*{term}"
            elif i > 0 and c == -1:
                term = f"-{term}"
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def upoly(coeffs: Iterable) -> UnivariatePolynomial:
    return UnivariatePolynomial.from_coefficients(coeffs)


def univariate_gcd(
    f: UnivariatePolynomial, g: UnivariatePolynomial
) -> UnivariatePolynomial:
    """Monic gcd by the Euclidean algorithm."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def squarefree_part_univariate(f: UnivariatePolynomial) -> UnivariatePolynomial:
    if f.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    g = univariate_gcd(f, f.derivative())
    if g.degree <= 0:
        return f
    return f.divmod(g)[0]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(signs: Sequence[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def sturm_chain(f: UnivariatePolynomial) -> list[UnivariatePolynomial]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        r = chain[-2].divmod(chain[-1])[1]
        chain.append(-r)
    chain.pop()
    return chain


def _variations_at_infinity(chain: Sequence[UnivariatePolynomial], sign: int) -> int:
    # sign of p at +inf is sign(lc); at -inf it flips with odd degree
    signs = []
    for p in chain:
        if p.is_zero():
            signs.append(0)
        elif sign > 0:
            signs.append(_sign(p.leading_coefficient()))
        else:
            signs.append(_sign(p.leading_coefficient()) * (-1) ** (p.degree % 2))
    return _sign_variations(signs)


def _variations_at(chain: Sequence[UnivariatePolynomial], x: Fraction) -> int:
    return _sign_variations([_sign(p(x)) for p in chain])


def sturm_real_root_count(f: UnivariatePolynomial) -> int:
    """Number of distinct real roots of f, by Sturm's theorem.

    The chain is built from the squarefree part, so multiplicities never
    disturb the count.
    """
    if f.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial")
    g = squarefree_part_univariate(f)
    if g.degree <= 0:
        return 0
    chain = sturm_chain(g)
    return _variations_at_infinity(chain, -1) - _variations_at_infinity(chain, +1)


def sturm_count_interval(
    f: UnivariatePolynomial, a: Fraction | None, b: Fraction | None
) -> int:
    """Distinct real roots of f in (a, b]; None stands for -inf / +inf."""
    if f.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial")
    g = squarefree_part_univariate(f)
    if g.degree <= 0:
        return 0
    chain = sturm_chain(g)
    va = _variations_at_infinity(chain, -1) if a is None else _variations_at(chain, a)
    vb = _variations_at_infinity(chain, +1) if b is None else _variations_at(chain, b)
    return va - vb


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(_as_fraction(x) for x in row)
        return RationalMatrix(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            n, n, tuple(Q(1) if i == j else Q(0) for i in range(n) for j in range(n))
        )

    @staticmethod
    def zero(r: int, c: int) -> "RationalMatrix":
        return RationalMatrix(r, c, (Q(0),) * (r * c))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return RationalMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = [Q(0)] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for t in range(k):
                c = arow[t]
                if c:
                    boff = t * m
                    ooff = i * m
                    for j in range(m):
                        out[ooff + j] += c * b[boff + j]
        return RationalMatrix(n, m, tuple(out))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise NotSquare("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), Q(0))

    def rank(self) -> int:
        """Exact rank by Gaussian elimination."""
        m = [list(self.row(i)) for i in range(self.rows)]
        rank = 0
        col = 0
        while rank < self.rows and col < self.cols:
            pivot = next((r for r in range(rank, self.rows) if m[r][col] != 0), None)
            if pivot is None:
                col += 1
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            pv = m[rank][col]
            for r in range(rank + 1, self.rows):
                if m[r][col]:
                    f = m[r][col] / pv
                    for c in range(col, self.cols):
                        m[r][c] -= f * m[rank][c]
            rank += 1
            col += 1
        return rank

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n = self.rows
        m = [list(self.row(i)) + [Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            pv = m[col][col]
            m[col] = [x / pv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return RationalMatrix.from_rows([row[n:] for row in m])


def characteristic_polynomial(m: RationalMatrix) -> UnivariatePolynomial:
    """det(z*Id - M) by the Faddeev-LeVerrier recurrence, exactly.

    The recurrence only ever divides traces by small integers, which is exact
    over the rationals.
    """
    if not m.is_square():
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return upoly([1])
    coeffs = [Q(0)] * (n + 1)
    coeffs[n] = Q(1)
    a = m
    c = -a.trace()
    coeffs[n - 1] = c
    ident = RationalMatrix.identity(n)
    for k in range(2, n + 1):
        shifted = RationalMatrix(
            n, n, tuple(x + c * e for x, e in zip(a.entries, ident.entries))
        )
        a = m * shifted
        c = -a.trace() / k
        coeffs[n - k] = c
    return UnivariatePolynomial(tuple(coeffs))


def _descartes_variations(coeffs: Sequence[Fraction]) -> int:
    return _sign_variations([_sign(c) for c in coeffs])


def symmetric_signature(m: RationalMatrix) -> tuple[int, int]:
    """(n_plus, n_minus): positive and negative eigenvalue counts.

    All eigenvalues of a symmetric matrix are real, so Descartes' rule applied
    to the characteristic polynomial is exact (multiplicities included).  Zero
    eigenvalues are split off as trailing zero coefficients, never through any
    threshold.
    """
    if not m.is_square():
        raise NotSquare("signature of a non-square matrix")
    if not m.is_symmetric():
        raise NotSymmetric("signature of a non-symmetric matrix")
    p = characteristic_polynomial(m)
    coeffs = list(p.coefficients)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    n_plus = _descartes_variations(coeffs)
    n_minus = _descartes_variations([c * (-1) ** i for i, c in enumerate(coeffs)])
    return n_plus, n_minus
