"""Exact linear algebra and univariate root counting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from realcurve import (
    Polynomial,
    RationalMatrix,
    VariableSet,
    multivariate_gcd,
    squarefree_part,
    sturm_real_root_count,
    symmetric_signature,
)
from realcurve.errors import NotSquare, NotSymmetric, VariableSetMismatch, ZeroPolynomial
from realcurve.linalg import isolate_real_roots, sturm_count_interval
from realcurve.zerodim import rational_roots

from conftest import (
    block_diagonal,
    random_elementary_product,
    reference_characteristic_polynomial,
    zpoly,
)

Q = Fraction


def test_sturm_no_real_roots():
    assert sturm_real_root_count(zpoly([1, 0, 1])) == 0  # z^2 + 1


def test_sturm_one_real_root():
    assert sturm_real_root_count(zpoly([-5, 0, 0, 1])) == 1  # z^3 - 5


def test_sturm_two_real_roots():
    assert sturm_real_root_count(zpoly([-2, 0, 1])) == 2  # z^2 - 2


def test_sturm_counts_distinct_roots_only():
    # (z-1)^2 * (z+2)
    f = zpoly([1, -2, 1]) * zpoly([2, 1])
    assert sturm_real_root_count(f) == 2


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        sturm_real_root_count(zpoly([]))


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
        assert n_plus == sturm_count_interval(p, Q(0), None)
        assert n_minus == sturm_count_interval(p, None, Q(0)) - (
            1 if p.constant_term() == 0 else 0
        )
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
        assert sturm_real_root_count(f) == _to_sympy(sympy, f).sqf_part().count_roots()


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
        lambda: sturm_real_root_count(f),
        lambda: sturm_count_interval(f, Q(0), None),
        lambda: rational_roots(f),
        lambda: isolate_real_roots(f, Q(1)),
    ):
        with pytest.raises(VariableSetMismatch):
            call()
