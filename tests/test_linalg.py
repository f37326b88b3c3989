"""Exact linear algebra and univariate root counting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from realcurve import (
    RationalMatrix,
    characteristic_polynomial,
    sturm_real_root_count,
    symmetric_signature,
    upoly,
)
from realcurve.errors import NotSquare, NotSymmetric, ZeroPolynomial
from realcurve.linalg import (
    squarefree_part_univariate,
    sturm_count_interval,
    univariate_gcd,
)

Q = Fraction


def test_sturm_no_real_roots():
    assert sturm_real_root_count(upoly([1, 0, 1])) == 0  # z^2 + 1


def test_sturm_one_real_root():
    assert sturm_real_root_count(upoly([-5, 0, 0, 1])) == 1  # z^3 - 5


def test_sturm_two_real_roots():
    assert sturm_real_root_count(upoly([-2, 0, 1])) == 2  # z^2 - 2


def test_sturm_counts_distinct_roots_only():
    # (z-1)^2 * (z+2)
    f = upoly([1, -2, 1]) * upoly([2, 1])
    assert sturm_real_root_count(f) == 2


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        sturm_real_root_count(upoly([]))


def test_characteristic_polynomial_zero_matrix():
    assert characteristic_polynomial(RationalMatrix.zero(2, 2)) == upoly([0, 0, 1])


def test_characteristic_polynomial_identity():
    assert characteristic_polynomial(RationalMatrix.identity(2)) == upoly([1, -2, 1])


def test_characteristic_polynomial_diagonal():
    m = RationalMatrix.from_rows([[2, 0], [0, -4]])
    assert characteristic_polynomial(m) == upoly([-8, 2, 1])


def test_characteristic_polynomial_requires_square():
    with pytest.raises(NotSquare):
        characteristic_polynomial(RationalMatrix.zero(2, 3))


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


def test_univariate_gcd_and_squarefree():
    f = upoly([1, 1]) ** 2 * upoly([-1, 1])
    assert univariate_gcd(f, f.derivative()) == upoly([1, 1])
    assert squarefree_part_univariate(f) == upoly([1, 1]) * upoly([-1, 1])


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
        p = characteristic_polynomial(m)
        if univariate_gcd(p, p.derivative()).degree > 0:
            continue  # repeated eigenvalue; Sturm counts distinct roots only
        n_plus, n_minus = symmetric_signature(m)
        assert n_plus == sturm_count_interval(p, Q(0), None)
        assert n_minus == sturm_count_interval(p, None, Q(0)) - (
            1 if p(Q(0)) == 0 else 0
        )
        assert n_plus + n_minus + (1 if p(Q(0)) == 0 else 0) == m.rows
        checked += 1


def test_characteristic_polynomial_similarity_invariant():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(2, 3)
        m = RationalMatrix.from_rows(
            [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        )
        while True:
            p = RationalMatrix.from_rows(
                [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            )
            try:
                p_inv = p.inverse()
                break
            except ValueError:
                continue
        conjugated = p * m * p_inv
        assert characteristic_polynomial(conjugated) == characteristic_polynomial(m)


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


def test_inverse_rejects_singular_matrices():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse()
    inv = RationalMatrix.from_rows([[Q(1, 3), 2], [0, -1]]).inverse()
    assert inv == RationalMatrix.from_rows([[3, 6], [0, -1]])
