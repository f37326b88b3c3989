"""Exact rational linear algebra and univariate real-root counting and isolation.

Coefficients are `fractions.Fraction` throughout, so every result is exact;
there are no floating-point code paths anywhere in this module.  Univariate
polynomials are one-variable `Polynomial`s: characteristic polynomials live in
the ring Z_RING, and the Sturm counts and root isolation accept any
one-variable ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import NotSquare, NotSymmetric, VariableSetMismatch, ZeroPolynomial
from .groebner import normal_form
from .polynomials import Polynomial, VariableSet, exact_divide

Q = Fraction

Z_RING = VariableSet.of("z")


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def require_univariate(f: Polynomial) -> None:
    """Raise VariableSetMismatch unless the ring of f has exactly one variable."""
    if len(f.vars) != 1:
        raise VariableSetMismatch(f"expected a one-variable polynomial, got ring ({f.vars})")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(signs: Sequence[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def sturm_chain(f: Polynomial) -> list[Polynomial]:
    chain = [f, f.partial_derivative(0)]
    while not chain[-1].is_zero():
        # in one variable, division by a single divisor is Euclidean division
        chain.append(-normal_form(chain[-2], [chain[-1]]))
    chain.pop()
    return chain


def _sturm_coefficients(f: Polynomial) -> list[list[int]]:
    # the Sturm chain of g = f / gcd(f, f'), whose real roots are those of f,
    # each simple; each member as its primitive integer terms, highest degree
    # first (the content is positive, so the terms carry the signs)
    if f.is_zero():
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    chain = sturm_chain(f)
    if not chain[-1].is_constant():  # the last member is gcd(f, f')
        chain = sturm_chain(exact_divide(f, chain[-1]))
    return [[p.terms.get((k,), 0) for k in range(p.degree_in(0), -1, -1)] for p in chain]


def _sign_at(coeffs: Sequence[int], n: int, d: int) -> int:
    # sign of p(n/d) for d > 0: d^deg * p(n/d) = sum c_k n^k d^(deg-k), by
    # Horner's rule in integers
    acc, scale = 0, 1
    for c in coeffs:
        acc = acc * n + c * scale
        scale *= d
    return _sign(acc)


def _variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    return _sign_variations([_sign_at(c, x.numerator, x.denominator) for c in chain])


def _variations_at_infinity(chain: Sequence[Sequence[int]], sign: int) -> int:
    # p has the sign of its leading coefficient at +inf; at -inf that sign
    # flips when deg p is odd
    return _sign_variations([_sign(c[0]) * sign ** (len(c) - 1) for c in chain])


def sturm_real_root_count(f: Polynomial) -> int:
    """Number of distinct real roots of a one-variable f, by Sturm's theorem.

    The chain is built from f / gcd(f, f'), so multiplicities never disturb
    the count.
    """
    return sturm_count_interval(f, None, None)


def sturm_count_interval(f: Polynomial, a: Fraction | None, b: Fraction | None) -> int:
    """Distinct real roots of a one-variable f in (a, b]; None stands for -inf / +inf."""
    require_univariate(f)
    chain = _sturm_coefficients(f)
    va = _variations_at_infinity(chain, -1) if a is None else _variations_at(chain, a)
    vb = _variations_at_infinity(chain, +1) if b is None else _variations_at(chain, b)
    return va - vb


def isolate_real_roots(f: Polynomial, width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Intervals (a, b], shorter than width, one around each real root of f.

    The roots are those of g = f / gcd(f, f'), where each is simple, and
    the Sturm chain of g counts them.  Bisection starts from (-B, B], with B
    the first power of two above g's Cauchy bound 1 + max|c_k| / |c_n|, and
    splits every interval that holds more than one root.  An interval that
    holds one root then shrinks by the sign of g at its right end b, which is
    the root itself or lies past it; the left end may be the root of the
    interval before.  The intervals come in increasing order.
    """
    require_univariate(f)
    chain = _sturm_coefficients(f)
    coeffs = chain[0]
    if len(coeffs) == 1:
        return []
    lc, rest = abs(coeffs[0]), max(abs(c) for c in coeffs[1:])
    bound = Q(1 << ((lc + rest) // lc).bit_length())
    out = []
    pending = [(-bound, bound, _variations_at(chain, -bound), _variations_at(chain, bound))]
    while pending:
        a, b, va, vb = pending.pop()
        if va - vb == 1:
            out.append(_shrink(coeffs, a, b, width))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = _variations_at(chain, m)
            pending += [(m, b, vm, vb), (a, m, va, vm)]
    return out


def _shrink(
    coeffs: Sequence[int], a: Fraction, b: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    # (a, b] = (lo/den, hi/den] holds exactly one root r of g, a simple one:
    # g changes sign at r and nowhere else in (a, b]; each step halves it
    den = lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    s_hi = _sign_at(coeffs, hi, den)
    for _ in range(int((b - a) / width).bit_length()):
        lo, hi, den, mid = 2 * lo, 2 * hi, 2 * den, lo + hi
        s_mid = _sign_at(coeffs, mid, den)
        if s_mid in (0, s_hi):  # r = mid, or g(mid) has the sign of g(b) != 0 and r < mid
            hi, s_hi = mid, s_mid
        else:
            lo = mid
    return Q(lo, den), Q(hi, den)


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

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """A basis of {v | M v = 0}, by exact Gauss-Jordan elimination.

        One vector per non-pivot column c of the reduced row echelon form:
        1 at c, minus column c of the pivot rows at their pivot columns.
        """
        m = [list(self.row(i)) for i in range(self.rows)]
        pivots: list[int] = []
        for col in range(self.cols):
            r = len(pivots)
            pivot = next((k for k in range(r, self.rows) if m[k][col]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            m[r] = [x / m[r][col] for x in m[r]]
            for k in range(self.rows):
                if k != r and m[k][col]:
                    f = m[k][col]
                    m[k] = [x - f * y for x, y in zip(m[k], m[r])]
            pivots.append(col)
        basis = []
        for col in sorted(set(range(self.cols)) - set(pivots)):
            v = [Q(0)] * self.cols
            v[col] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -m[r][col]
            basis.append(tuple(v))
        return basis

    def rank(self) -> int:
        return self.cols - len(self.kernel())

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        # the kernel of [M | -I] is spanned by the columns (M^-1 e_j, e_j)
        n = self.rows
        augmented = [list(self.row(i)) + [-int(i == j) for j in range(n)] for i in range(n)]
        kernel = RationalMatrix.from_rows(augmented).kernel()
        inverse = RationalMatrix.from_rows([[v[i] for v in kernel] for i in range(n)])
        if self * inverse != RationalMatrix.identity(n):
            raise ValueError("matrix is singular")
        return inverse


def characteristic_polynomial(m: RationalMatrix) -> Polynomial:
    """det(z*Id - M) in the ring Z_RING, by the Faddeev-LeVerrier recurrence.

    The recurrence only ever divides traces by small integers, which is exact
    over the rationals.
    """
    if not m.is_square():
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return Polynomial.one(Z_RING)
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
    return Polynomial.from_terms(Z_RING, {(k,): c for k, c in enumerate(coeffs)})


def symmetric_signature(m: RationalMatrix) -> tuple[int, int]:
    """(n_plus, n_minus): positive and negative eigenvalue counts.

    All eigenvalues of a symmetric matrix are real, so Descartes' rule applied
    to the characteristic polynomial is exact (multiplicities included).  Zero
    eigenvalues show up as missing low-degree terms, which count for neither
    sign; no threshold is involved.
    """
    if not m.is_square():
        raise NotSquare("signature of a non-square matrix")
    if not m.is_symmetric():
        raise NotSymmetric("signature of a non-symmetric matrix")
    # ascending degree; the content is positive, so the integer terms carry
    # the signs of p(z), and flipping the odd degrees gives those of p(-z)
    terms = sorted(characteristic_polynomial(m).terms.items())
    n_plus = _sign_variations([_sign(c) for _, c in terms])
    n_minus = _sign_variations([_sign(c) * (-1) ** e[0] for e, c in terms])
    return n_plus, n_minus
