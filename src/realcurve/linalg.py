"""Exact rational linear algebra and univariate real-root isolation.

Every result is exact; there are no floating-point code paths anywhere in
this module.  A RationalMatrix is one positive denominator times integer
entries, kept in lowest terms like a `Polynomial`'s content times primitive
terms, so its products, kernels, ranks and signatures run on integers and
`fractions.Fraction` appears only in the entry views.  Kernels and ranks,
and zerodim's fiber quotients and minimal polynomials, come from one
fraction-free echelon fed a vector at a time, and signatures from the pivots
of one fraction-free symmetric elimination; each row (each remaining block,
for signatures) is divided by its content after every step, so the integers
stay no larger than Bareiss's minors (Bareiss 1968).
Univariate polynomials are one-variable `Polynomial`s: minimal polynomials
live in the ring Z_RING, and root isolation by Sturm chains accepts any
one-variable ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import NotSquare, NotSymmetric, VariableSetMismatch, ZeroPolynomial
from .groebner import normal_form
from .polynomials import Polynomial, VariableSet, _as_fraction, exact_divide

Q = Fraction

Z_RING = VariableSet.of("z")


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


def integer_product(a: Sequence[int], b: Sequence[int], n: int, k: int, m: int) -> list[int]:
    """Row-major product of the n x k integer matrix a and the k x m matrix b."""
    brows = [b[t * m : (t + 1) * m] for t in range(k)]
    out: list[int] = []
    for i in range(n):
        row = [0] * m
        for c, brow in zip(a[i * k : (i + 1) * k], brows):
            if c:
                row = [x + c * y for x, y in zip(row, brow)]
        out += row
    return out


def _clear(vec: list[int], row: list[int], p: int) -> list[int]:
    # vec with its nonzero entry p cleared by row, whose entry p is positive; kept primitive
    f = vec[p]
    vec = [row[p] * a - f * b for a, b in zip(vec, row)]
    g = gcd(*vec)
    return vec if g <= 1 else [x // g for x in vec]


def echelon_insert(rows: dict[int, list[int]], vec: Sequence[int]) -> int | None:
    """Insert vec into the echelon rows: the pivot of its new row, or None if they span vec.

    rows maps each pivot, the first nonzero index of its row, to a primitive
    integer row with a positive pivot entry and zeros at the other pivots:
    the unique such multiple of a row of the reduced row echelon form of the
    vectors inserted, in any order, no larger than its minors (Bareiss 1968).
    vec is cleared at the pivots, then the rows at vec's pivot.
    """
    vec = list(vec)
    for p, row in rows.items():
        if vec[p]:
            vec = _clear(vec, row, p)
    top = next((k for k, x in enumerate(vec) if x), None)
    if top is not None:
        g = gcd(*vec) if vec[top] > 0 else -gcd(*vec)
        vec = [x // g for x in vec]
        for p, row in rows.items():
            if row[top]:
                rows[p] = _clear(row, vec, top)
        rows[top] = vec
    return top


@dataclass(frozen=True)
class RationalMatrix:
    """Dense rational matrix: row-major integers `ints` over a positive `den`.

    The form is canonical, gcd(den, *ints) == 1, so the zero matrix has
    den 1 and == and hash compare values.  `entries`, `at` and `row` are
    Fraction views made on demand.
    """

    rows: int
    cols: int
    ints: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        ints, den = tuple(self.ints), self.den
        if len(ints) != self.rows * self.cols or den == 0:
            raise ValueError("a matrix needs rows * cols entries and a nonzero denominator")
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints, den = tuple(x // g for x in ints), den // g
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(_as_fraction(x) for x in row)
        den = lcm(*(x.denominator for x in flat))
        return RationalMatrix(r, c, [x.numerator * (den // x.denominator) for x in flat], den)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @staticmethod
    def zero(r: int, c: int) -> "RationalMatrix":
        return RationalMatrix(r, c, (0,) * (r * c))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Q(x, self.den) for x in self.ints)

    def at(self, i: int, j: int) -> Fraction:
        return Q(self.ints[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Q(x, self.den) for x in self.ints[i * self.cols : (i + 1) * self.cols])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        n, a = self.rows, self.ints
        return all(a[i * n + j] == a[j * n + i] for i in range(n) for j in range(i + 1, n))

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        ints = [fa * x + fb * y for x, y in zip(self.ints, other.ints)]
        return RationalMatrix(self.rows, self.cols, ints, den)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-x for x in self.ints], self.den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        product = integer_product(self.ints, other.ints, self.rows, self.cols, other.cols)
        return RationalMatrix(self.rows, other.cols, product, self.den * other.den)

    def echelon(self) -> dict[int, list[int]]:
        """The echelon rows of the matrix's rows (`echelon_insert`)."""
        rows: dict[int, list[int]] = {}
        for i in range(self.rows):
            echelon_insert(rows, self.ints[i * self.cols : (i + 1) * self.cols])
        return rows

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """A basis of {v | M v = 0}, from the echelon rows.

        Each row over its pivot entry is a row of the reduced row echelon
        form, so there is one vector per non-pivot column c: 1 at c, and at
        each pivot column p minus the entry of p's row at c over the pivot.
        """
        rows, n = self.echelon(), self.cols
        return [
            tuple(Q(-rows[p][c], rows[p][p]) if p in rows else Q(int(p == c)) for p in range(n))
            for c in sorted(set(range(n)) - rows.keys())
        ]

    def rank(self) -> int:
        return len(self.echelon())


def symmetric_signature(m: RationalMatrix) -> tuple[int, int]:
    """(n_plus, n_minus): positive and negative eigenvalue counts.

    Read off the pivot signs of one symmetric (congruence) elimination.  Each
    step replaces M by E M E^T with E invertible, so by Sylvester's law of
    inertia the counts stay those of M.  A zero remainder adds to neither
    count.
    """
    if not m.is_square():
        raise NotSquare("signature of a non-square matrix")
    if not m.is_symmetric():
        raise NotSymmetric("signature of a non-symmetric matrix")
    pivots = _congruence_pivots(m)
    n_plus = sum(1 for p in pivots if p > 0)
    return n_plus, len(pivots) - n_plus


def _congruence_pivots(m: RationalMatrix) -> list[int]:
    """The nonzero pivots of a symmetric elimination of m's integer entries.

    Any nonzero diagonal entry of the active block can be the pivot.  When
    the diagonal is all zero and a[p][k] != 0, adding row k and column k to
    row p and column p puts 2 a[p][k] on the diagonal, so no 2x2 pivot
    blocks are needed.  A pivot a[p][p] leaves |a[p][p]| times its Schur
    complement, which stays integral, and the remaining block is then
    divided by the gcd of its entries.  m's denominator and both scalings
    are positive, so the pivot signs are those of m's elimination.
    """
    n, ints = m.rows, m.ints
    a = [list(ints[i * n : (i + 1) * n]) for i in range(n)]
    active = list(range(n))
    pivots = []
    while active:
        p = next((i for i in active if a[i][i]), None)
        if p is None:
            pk = next(((i, k) for i in active for k in active if a[i][k]), None)
            if pk is None:
                break
            p, k = pk
            row = a[p] = [x + y for x, y in zip(a[p], a[k])]
            row[p] += row[k]
            for i in active:
                a[i][p] = row[i]
        pivot = a[p]
        scale = pivot[p]
        pivots.append(scale)
        if scale < 0:
            scale = -scale
            pivot = [-x for x in pivot]
        active.remove(p)
        # |a_pp| (a_ij - a_ip a_pj / a_pp) = |a_pp| a_ij - a_ip sign(a_pp) a_pj
        for i in active:
            row = a[i]
            f = row[p]
            for j in active:
                row[j] = scale * row[j] - f * pivot[j]
        g = gcd(*(a[i][j] for i in active for j in active))
        if g > 1:
            for i in active:
                row = a[i]
                for j in active:
                    row[j] //= g
    return pivots
