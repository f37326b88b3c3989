"""Exact linear algebra and univariate root counting."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from realcurve import Polynomial, VariableSet
from realcurve.errors import NotSquare, NotSymmetric, VariableSetMismatch, ZeroPolynomial
from realcurve.ideals import multivariate_gcd
from realcurve.linalg import (
    RationalMatrix,
    echelon_insert,
    isolate_real_roots,
    symmetric_signature,
)
from realcurve.polynomials import ring_map, squarefree_part
from realcurve.zerodim import rational_roots

from conftest import (
    block_diagonal,
    fraction_matrix,
    make_ideal,
    poly,
    random_elementary_product,
    reference_characteristic_polynomial,
    reference_congruence_signature,
    reference_kernel,
    reference_product,
    reference_signature,
    zpoly,
)

Q = Fraction


def test_sturm_no_real_roots():
    assert len(isolate_real_roots(zpoly([1, 0, 1]), Q(1))) == 0  # z^2 + 1


def test_sturm_one_real_root():
    assert len(isolate_real_roots(zpoly([-5, 0, 0, 1]), Q(1))) == 1  # z^3 - 5


def test_sturm_two_real_roots():
    assert len(isolate_real_roots(zpoly([-2, 0, 1]), Q(1))) == 2  # z^2 - 2


def test_sturm_counts_distinct_roots_only():
    # (z-1)^2 * (z+2)
    f = zpoly([1, -2, 1]) * zpoly([2, 1])
    assert len(isolate_real_roots(f, Q(1))) == 2


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        isolate_real_roots(zpoly([]), Q(1))


def test_signature_identity():
    assert symmetric_signature(RationalMatrix.identity(3)) == (3, 0)


def test_signature_mixed_diagonal():
    m = RationalMatrix.from_rows([[2, 0], [0, -4]])
    assert symmetric_signature(m) == (1, 1)


def test_signature_zero_matrix():
    assert symmetric_signature(RationalMatrix.zero(3, 3)) == (0, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_signature(RationalMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(NotSquare):
        symmetric_signature(RationalMatrix.zero(2, 3))


def test_univariate_gcd_and_squarefree():
    f = zpoly([1, 1]) ** 2 * zpoly([-1, 1])
    assert multivariate_gcd(f, f.partial_derivative(0)) == zpoly([1, 1])
    assert squarefree_part(f) == zpoly([1, 1]) * zpoly([-1, 1])


def test_rational_arithmetic_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = Q(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        b = Q(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert (a + b) - b == a


def _random_symmetric(rng: random.Random, n: int) -> RationalMatrix:
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Q(rng.randint(-5, 5), rng.randint(1, 3))
            rows[i][j] = rows[j][i] = v
    return RationalMatrix.from_rows(rows)


def test_signature_matches_sturm_interval_counts():
    # n_plus equals the positive-root count of the characteristic polynomial
    # (and n_minus the negative count) whenever the spectrum is squarefree
    rng = random.Random(11)
    checked = 0
    while checked < 12:
        m = _random_symmetric(rng, rng.randint(2, 4))
        p = reference_characteristic_polynomial(m)
        if multivariate_gcd(p, p.partial_derivative(0)).degree_in(0) > 0:
            continue  # repeated eigenvalue; Sturm counts distinct roots only
        n_plus, n_minus = symmetric_signature(m)
        # p(z^2) has the real roots ±sqrt(r) for each root r > 0 of p, and 0 if p(0) = 0
        z = Polynomial.variable(p.vars, 0)
        assert n_plus == len(isolate_real_roots(ring_map(p, p.vars, [z * z]), Q(1))) // 2
        assert n_minus == len(isolate_real_roots(ring_map(p, p.vars, [-z * z]), Q(1))) // 2
        assert n_plus + n_minus + (1 if p.constant_term() == 0 else 0) == m.rows
        checked += 1


def _transpose(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix.from_rows([[m.at(i, j) for i in range(m.rows)] for j in range(m.cols)])


def _signature_by_construction(rng: random.Random):
    """P^T D P and its inertia, with P a product of integer elementary matrices.

    D mixes positive, negative and zero entries with blocks [[0, a], [a, 0]],
    whose eigenvalues are a and -a.  A congruence keeps the inertia of D.
    """
    blocks, n_plus, n_minus = [], 0, 0
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.4:
            a = rng.choice((-3, -1, 2, Q(1, 2)))
            blocks.append([[0, a], [a, 0]])
            n_plus, n_minus = n_plus + 1, n_minus + 1
        else:
            d = rng.choice((-2, -1, 0, 0, 1, 3, Q(-1, 3)))
            blocks.append([[d]])
            n_plus, n_minus = n_plus + (d > 0), n_minus + (d < 0)
    n = sum(len(b) for b in blocks)
    # no factors at all keeps D's zero diagonal, so the zero-pivot rule runs
    p, _ = random_elementary_product(rng, n, rng.choice((0, 1, 2 * n)))
    return _transpose(p) * block_diagonal(blocks) * p, (n_plus, n_minus)


def test_signature_by_construction():
    rng = random.Random(17)
    zero_diagonals = 0
    for _ in range(300):
        m, expected = _signature_by_construction(rng)
        assert symmetric_signature(m) == expected
        zero_diagonals += not m.is_zero() and not any(m.at(i, i) for i in range(m.rows))
    assert zero_diagonals >= 10


def test_matrix_sum_difference_and_negation():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[Q(1, 2), 0], [-1, 4]])
    assert a + b == RationalMatrix.from_rows([[Q(3, 2), 2], [2, 8]])
    assert a - a == RationalMatrix.zero(2, 2)
    assert (a - a).is_zero() and not a.is_zero()
    assert -a + a == RationalMatrix.zero(2, 2)
    with pytest.raises(ValueError):
        a + RationalMatrix.zero(2, 3)


def _assert_canonical(m: RationalMatrix) -> None:
    assert m.den > 0 and math.gcd(m.den, *m.ints) == 1
    assert len(m.ints) == m.rows * m.cols


def test_matrix_canonical_form_is_unique():
    # in Q[x]/(2x^2 - x), with basis 1, x, multiplication by x has columns
    # x * 1 = x and x * x = x/2
    from realcurve.zerodim import build

    algebra = build(make_ideal("x", "2x^2 - x"))
    half = RationalMatrix.from_rows([[Q(1, 2), 0], [0, Q(1, 2)]])
    forms = [
        RationalMatrix.from_rows([[0, 0], [1, Q(1, 2)]]),
        RationalMatrix.from_rows([[Q(0, 3), 0], [Q(2, 2), Q(3, 6)]]),
        RationalMatrix.from_rows([[0, 0], [2, 1]]) * half,
        RationalMatrix.from_rows([[0, 0], [Q(1, 3), Q(1, 6)]])
        + RationalMatrix.from_rows([[0, 0], [Q(2, 3), Q(1, 3)]]),
        -RationalMatrix.from_rows([[0, 0], [-1, Q(-1, 2)]]),
        RationalMatrix(2, 2, (0, 0, 4, 2), 4),
        RationalMatrix(2, 2, (0, 0, -2, -1), -2),
        algebra.operator(poly("x", "x")),
        algebra.operator(poly("4x", "x")) * half * half,
        algebra.mult_matrices[0],
    ]
    for m in forms:
        _assert_canonical(m)
        assert m == forms[0] and hash(m) == hash(forms[0])
        assert m.ints == (0, 0, 2, 1) and m.den == 2
    a = forms[0]
    zeros = (
        RationalMatrix.zero(2, 2),
        a - a,
        -a + a,
        RationalMatrix(2, 2, (0, 0, 0, 0), 7),
        RationalMatrix.from_rows([[0, Q(0, 5)], [0, 0]]) * a,
        algebra.operator(poly("2x^2 - x", "x")),
    )
    for zero in zeros:
        _assert_canonical(zero)
        assert zero == zeros[0] and hash(zero) == hash(zeros[0]) and zero.den == 1
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (0, 0, 0, 0), 0)


def test_kernel_of_zero_matrix_is_everything():
    kernel = RationalMatrix.zero(2, 3).kernel()
    assert kernel == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert RationalMatrix.zero(2, 3).rank() == 0


def test_kernel_of_full_rank_matrix_is_trivial():
    m = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert m.kernel() == []
    assert m.rank() == 2


def test_kernel_of_rank_deficient_matrix():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, Q(1, 2)]])
    kernel = m.kernel()
    assert len(kernel) == 1 and m.rank() == 2
    (v,) = kernel
    assert any(v)
    assert all(sum(a * b for a, b in zip(m.row(i), v)) == 0 for i in range(3))


# ---------------------------------------------------------------------------
# the univariate layer against sympy, on polynomials with known factors


def _random_factored(rng: random.Random, height: int = 1):
    # rational roots come from the linear factors, repeated factors from the
    # powers; the total degree is 1 to 6; with height > 1 every nonzero
    # factor coefficient is also scaled by a random integer up to height
    def scaled(c: int) -> int:
        return c * rng.randint(1, height) if c and height > 1 else c

    target = rng.randint(1, 6)
    f = zpoly([rng.choice((-3, -2, -1, 1, 2, 3))])
    while f.degree_in(0) < target:
        room = target - f.degree_in(0)
        if room >= 2 and rng.random() < 0.4:
            coeffs = [rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 3)]
        else:
            coeffs = [rng.randint(-4, 4), rng.randint(1, 3)]
        factor = zpoly([scaled(c) for c in coeffs])
        f = f * factor ** rng.randint(1, room // factor.degree_in(0))
    return f


def _coefficients(f) -> list[Fraction]:
    # lowest degree first
    return [f.content * f.terms.get((k,), 0) for k in range(f.degree_in(0) + 1)]


def _to_sympy(sympy, f):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in _coefficients(f)]
    return sympy.Poly(coeffs[::-1], sympy.Symbol("z"))


def _from_sympy(x) -> Fraction:
    return Q(int(x.p), int(x.q))


def test_sturm_count_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(101)
    for _ in range(40):
        f = _random_factored(rng)
        assert len(isolate_real_roots(f, Q(1))) == _to_sympy(sympy, f).sqf_part().count_roots()


def test_rational_roots_match_sympy(hang_guard):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(103)
    # small factors, then factors with coefficients of 100 to 106 bits
    for height in (1,) * 40 + (2**100,) * 40:
        f = _random_factored(rng, height)
        expected = sympy.roots(_to_sympy(sympy, f), filter="Q")
        assert rational_roots(f) == sorted(_from_sympy(r) for r in expected)


def _rational_roots_by_construction(rng: random.Random):
    """A product of (d z - n)^m and irreducible quadratics, with its rational roots.

    |n| reaches 10^40 and d 10^6.  Each quadratic (D z - N)^2 - s, with
    N / D one of the rational roots r and s no square, has the roots
    r ± sqrt(s) / D: irrational, and within 10^-30 of r when s > 0.
    """
    f = zpoly([rng.randint(1, 9)])
    roots = set()
    for _ in range(rng.randint(1, 3)):
        top = 10 ** rng.randint(0, 40)
        n, d = rng.randint(-top, top), rng.randint(1, 10**6)
        f = f * zpoly([-n, d]) ** rng.randint(1, 3)
        roots.add(Q(n, d))
    for _ in range(rng.randint(0, 2)):
        r = rng.choice(sorted(roots))
        big_n, big_d = r.numerator * 10**31, r.denominator * 10**31
        s = rng.choice((2, 3, 5, -1, -7))
        f = f * zpoly([big_n * big_n - s, -2 * big_n * big_d, big_d * big_d])
    return f, sorted(roots)


def test_rational_roots_by_construction(hang_guard):
    rng = random.Random(109)
    for _ in range(20):
        f, roots = _rational_roots_by_construction(rng)
        assert rational_roots(f) == roots


def test_linear_rational_roots_by_construction(monkeypatch):
    # a z - b, |a| and |b| up to 10^30, has the one root b / a: the linear
    # path agrees with the Sturm path's root of (a z - b)(z^2 + 1) and runs no
    # root isolation
    import realcurve.zerodim

    rng = random.Random(113)
    top = 10**30
    pairs = [(top, top), (-top, 1), (1, -top), (top, 0), (-7, 0), (1, 0)]
    while len(pairs) < 30:
        a, b = rng.randint(-top, top), rng.randint(-top, top)
        if a:
            pairs.append((a, b))
    for a, b in pairs:
        assert rational_roots(zpoly([-b, a]) * zpoly([1, 0, 1])) == [Q(b, a)]

    def isolation(*args):
        raise AssertionError("a linear p needs no root isolation")

    monkeypatch.setattr(realcurve.zerodim, "isolate_real_roots", isolation)
    for a, b in pairs:
        assert rational_roots(zpoly([-b, a])) == [Q(b, a)]
    with pytest.raises(ValueError):
        rational_roots(zpoly([]))


def test_rational_roots_edge_cases():
    # 0 and +-2^k are bisection points of (-B, B], B a power of two, so each
    # is found as the right end of its interval and stays there
    dyadic = [Q(0)] + [Q(s * 2**k) for k in range(4) for s in (1, -1)]
    f = zpoly([1])
    for r in dyadic:
        f = f * zpoly([-r, 1])
    assert rational_roots(f) == sorted(dyadic)
    assert [b for _, b in isolate_real_roots(f, Q(1, 8))] == sorted(dyadic)
    # the root 0 is the left end of the interval that holds 1
    assert rational_roots(zpoly([0, -1, 1])) == [0, 1]
    assert rational_roots(zpoly([-3, 1]) ** 3 * zpoly([1, 2]) ** 2) == [Q(-1, 2), 3]
    assert rational_roots(zpoly([0, 0, 5])) == [0]
    # z (2 z^2 - 4 z - 1): the fraction with denominator at most 2 nearest to
    # the root (2 - sqrt(6)) / 2 is the root 0 of the next interval
    assert rational_roots(zpoly([0, -1, -4, 2])) == [0]
    assert rational_roots(zpoly([7])) == []
    with pytest.raises(ValueError):
        rational_roots(zpoly([]))


def test_isolation_intervals_are_narrow_disjoint_and_exact():
    # z^3 - 2 z has the roots -sqrt(2), 0, sqrt(2); z^2 + 1 has none
    width = Q(1, 1000)
    intervals = isolate_real_roots(zpoly([0, -2, 0, 1]) * zpoly([1, 0, 1]), width)
    assert len(intervals) == 3
    assert all(0 < b - a < width for a, b in intervals)
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))
    assert all((a * a - 2) * (b * b - 2) < 0 for a, b in (intervals[0], intervals[2]))
    assert intervals[1][1] == 0
    assert isolate_real_roots(zpoly([3]), width) == []
    # a repeated root is isolated once; the sign of (z - 1)^2 never changes
    repeated = zpoly([-1, 1]) ** 2 * zpoly([1, 1])
    assert [b for _, b in isolate_real_roots(repeated, width)] == [-1, 1]
    with pytest.raises(ZeroPolynomial):
        isolate_real_roots(zpoly([]), width)


def test_characteristic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        expected = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).charpoly(sympy.Symbol("z"))
        ours = reference_characteristic_polynomial(RationalMatrix.from_rows(rows))
        assert _coefficients(ours) == [_from_sympy(c) for c in reversed(expected.all_coeffs())]


def test_univariate_entry_points_reject_other_rings():
    f = Polynomial.from_terms(VariableSet.of("x", "y"), {(2, 0): 1, (0, 0): -2})
    for call in (
        lambda: rational_roots(f),
        lambda: isolate_real_roots(f, Q(1)),
    ):
        with pytest.raises(VariableSetMismatch):
            call()


# ---------------------------------------------------------------------------
# integer matrices against the Fraction references


def _random_matrix(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    # denominators up to 6, about a third of the entries zero, some rows all zero
    entries = []
    for _ in range(rows):
        zero_row = rng.random() < 0.15
        for _ in range(cols):
            if zero_row or rng.random() < 0.3:
                entries.append(Q(0))
            else:
                entries.append(Q(rng.randint(-9, 9), rng.randint(1, 6)))
    return fraction_matrix(rows, cols, entries)


def test_products_match_the_fraction_reference():
    rng = random.Random(101)
    for _ in range(300):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        a, b = _random_matrix(rng, n, k), _random_matrix(rng, k, m)
        product = a * b
        assert product == reference_product(a, b)
        den, ints = product.den, product.ints
        assert den > 0 and product.entries == tuple(Q(x, den) for x in ints)


def test_kernels_and_ranks_match_the_fraction_reference():
    rng = random.Random(103)
    deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        if rng.random() < 0.4:  # rank at most k < min(rows, cols)
            k = rng.randint(0, 2)
            m = reference_product(_random_matrix(rng, rows, k), _random_matrix(rng, k, cols))
        expected = reference_kernel(m)
        assert m.kernel() == expected
        assert m.rank() == cols - len(expected)
        deficient += 0 < m.rank() < min(rows, cols)
    assert deficient >= 20


def _zero_diagonal_symmetric(rng: random.Random, n: int) -> RationalMatrix:
    m = _random_symmetric(rng, n)
    return fraction_matrix(
        n, n, [Q(0) if i == j else m.at(i, j) for i in range(n) for j in range(n)]
    )


def test_signatures_match_the_fraction_elimination():
    rng = random.Random(107)
    for trial in range(300):
        n = rng.randint(0, 6)
        if trial % 3 == 0:
            m = _zero_diagonal_symmetric(rng, n)
        elif trial % 3 == 1:  # zero rows and columns first
            inner = _random_symmetric(rng, n)
            m = block_diagonal([[[0, 0], [0, 0]], [inner.row(i) for i in range(n)]])
        else:
            m, _ = _signature_by_construction(rng)
        assert symmetric_signature(m) == reference_congruence_signature(m)
        if m.rows <= 5:
            assert symmetric_signature(m) == reference_signature(m)


def _hadamard_bound(m: RationalMatrix) -> int:
    # no minor of an integer matrix exceeds the product of its row lengths
    n = m.cols
    rows = [m.ints[i * n : (i + 1) * n] for i in range(m.rows)]
    return math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in rows)


def test_kernel_elimination_keeps_rows_within_the_hadamard_bound():
    # the fraction-free rows are primitive multiples of Bareiss's rows of
    # minors; without the content division they grow exponentially.  They
    # are the unique primitive reduced echelon form, so inserting the same
    # vectors in another order gives the same rows and pivots
    rng = random.Random(109)
    for _ in range(20):
        m = RationalMatrix.from_rows([[rng.randint(-9, 9) for _ in range(12)] for _ in range(10)])
        bound = _hadamard_bound(m)
        rows = m.echelon()
        assert len(rows) == m.rank()
        assert all(abs(x) <= bound for row in rows.values() for x in row)
        shuffled = [m.ints[i * 12 : (i + 1) * 12] for i in range(10)]
        rng.shuffle(shuffled)
        reordered: dict[int, list[int]] = {}
        for vec in shuffled:
            echelon_insert(reordered, vec)
        assert reordered == rows
        assert all(abs(x) <= bound for row in reordered.values() for x in row)


def test_congruence_pivots_stay_within_the_hadamard_bound():
    # B^T B + I is positive definite, so the pivots follow the leading
    # principal minors, which the scaled pivots never exceed
    from realcurve.linalg import _congruence_pivots

    rng = random.Random(113)
    for sign in (1, -1, 1, -1):
        b = RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(10)] for _ in range(10)])
        m = _transpose(b) * b + RationalMatrix.identity(10)
        m = fraction_matrix(10, 10, [sign * x for x in m.entries])
        pivots = _congruence_pivots(m)
        assert len(pivots) == 10 and all(p * sign > 0 for p in pivots)
        assert all(abs(p) <= _hadamard_bound(m) for p in pivots)
