"""Jacobian criterion, singular loci, radicality certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve.errors import DimensionUnknown, PointNotOnVariety, RankTooLarge
from realcurve.ideals import is_unit_ideal, krull_dimension
from realcurve.singular import (
    RadicalityReason,
    RadicalityVerdict,
    is_on_variety,
    is_smooth_at,
    jacobian,
    minors_ideal,
    radicality_certificate,
    rank_at,
    singular_locus_ideal,
)

from conftest import make_ideal, poly

Q = Fraction


def test_jacobian_of_node(node):
    j = jacobian(node)
    assert j.entries == ((poly("-2x - 3x^2"), poly("2y")),)


def test_jacobian_of_coordinate_ideal():
    j = jacobian(make_ideal("x,y", "x", "y"))
    assert j.entries[0][0] == poly("1")
    assert j.entries[0][1].is_zero()
    assert j.entries[1][1] == poly("1")


def test_jacobian_fourbar_first_row():
    i = make_ideal(
        "x,y,u,v",
        "x^2 + y^2 - 9/4",
        "(u-2)^2 + v^2 - 1",
        "(u-x)^2 + (v-y)^2 - 9/4",
    )
    j = jacobian(i)
    assert j.rows == 3 and j.cols == 4
    assert j.entries[0][0] == poly("2x", "x,y,u,v")
    assert j.entries[0][1] == poly("2y", "x,y,u,v")
    assert j.entries[0][2].is_zero()
    assert j.entries[0][3].is_zero()


def test_rank_at_node_points(node):
    j = jacobian(node)
    assert rank_at(j, [0, 0]) == 0
    assert rank_at(j, [-1, 0]) == 1


def test_minors_of_node_jacobian(node):
    m = minors_ideal(jacobian(node), 1)
    gens = set(m.generators)
    assert poly("3x^2 + 2x") in gens  # sign-normalized partial
    assert poly("y") in gens


def test_minors_rank_zero_is_unit():
    assert is_unit_ideal(minors_ideal(jacobian(make_ideal("x,y", "x")), 0))


def test_minors_too_large_rejected():
    with pytest.raises(RankTooLarge):
        minors_ideal(jacobian(make_ideal("x,y", "x")), 2)


def test_singular_locus_of_node(node):
    j = singular_locus_ideal(node)
    assert krull_dimension(j) == 0
    assert is_on_variety(j, [0, 0])


def test_singular_locus_of_smooth_line():
    assert is_unit_ideal(singular_locus_ideal(make_ideal("x,y", "x - y")))


def test_singular_locus_requires_certificate():
    with pytest.raises(DimensionUnknown):
        singular_locus_ideal(make_ideal("x,y,z", "(z-1)xy", "z(z-1)"))


def test_smoothness_on_node(node):
    assert not is_smooth_at(node, [0, 0])
    assert is_smooth_at(node, [-1, 0])


def test_smoothness_rejects_off_variety_points(node):
    with pytest.raises(PointNotOnVariety):
        is_smooth_at(node, [1, 1])


def test_smoothness_of_rational_cubic_line():
    i = make_ideal("x,y", "x^3 - 5y^3")
    assert not is_smooth_at(i, [0, 0])


def test_certificate_principal_squarefree():
    cert = radicality_certificate(make_ideal("x,y", "y^3 + 2x^2y - x^4"))
    assert cert.verdict is RadicalityVerdict.RADICAL
    assert cert.reason is RadicalityReason.PRINCIPAL_SQUAREFREE
    assert cert.dimension == 1


def test_certificate_unknown_for_nonradical():
    cert = radicality_certificate(make_ideal("x,y", "x^2", "xy"))
    assert cert.verdict is RadicalityVerdict.UNKNOWN
    assert cert.reason is RadicalityReason.NONE
    assert cert.dimension == 1


def test_certificate_unknown_for_fat_principal(buchberger_inputs, monkeypatch):
    import realcurve.singular as singular

    def no_basis(i):
        raise AssertionError("a principal ideal's dimension needs no basis")

    monkeypatch.setattr(singular, "krull_dimension", no_basis)
    cert = radicality_certificate(make_ideal("x,y", "x^2"))
    assert cert.verdict is RadicalityVerdict.UNKNOWN
    assert cert.dimension == 1
    assert not buchberger_inputs


@pytest.mark.parametrize(
    "names, generator, known",
    [
        ("x,y", "x^2", False),
        ("x,y", "y^3 + 2x^2y - x^4", True),
        ("x,y", "((y - x)^2 - x^4)^2 ((y - 2x)^2 - x^4)", False),
        ("x,y,z", "(x y z - 1) (y - x) (x + z)", True),
        ("x,y,z", "x^2 (y - x) (x y z - 1)", False),
        ("x,y", "7", True),
    ],
)
def test_principal_certificate_runs_no_exact_gcd(
    names, generator, known, buchberger_inputs, monkeypatch
):
    # the modular certificate alone decides a principal ideal
    import realcurve.ideals as ideals
    import realcurve.polynomials as polynomials

    def refuse(*args):
        raise AssertionError("the principal certificate ran an exact gcd")

    monkeypatch.setattr(polynomials, "squarefree_part", refuse)
    monkeypatch.setattr(ideals, "multivariate_gcd", refuse)
    cert = radicality_certificate(make_ideal(names, generator))
    assert cert.known is known
    assert not buchberger_inputs


def test_certificate_of_a_constant_has_dimension_minus_one():
    cert = radicality_certificate(make_ideal("x,y", "3"))
    assert cert.known
    assert cert.dimension == -1


def test_smoothness_reads_the_certificates_dimension(buchberger_inputs):
    # one basis for the curve's dimension and one for its singular locus;
    # the jacobian criterion itself runs none
    i = make_ideal("x,y,z", "y^2 - x^2 - x^3", "z - x*y")
    assert not is_smooth_at(i, [0, 0, 0])
    assert sum(buchberger_inputs.values()) == 2
    assert set(buchberger_inputs.values()) == {1}


def test_principal_squarefree_singular_locus_is_small():
    for gen in ("y^2 - x^2 - x^3", "y^3 + 2x^2y - x^4", "x^3 - 5y^3"):
        i = make_ideal("x,y", gen)
        assert krull_dimension(singular_locus_ideal(i)) < krull_dimension(i)


def test_minors_over_multiplication_matrices_match_polynomial_minors():
    from realcurve.zerodim import build
    from realcurve.singular import minors

    a = build(make_ideal("x,y", "x^2 - 2", "y^2 - 3"))
    entries = [
        [poly("x"), poly("y + 1")],
        [poly("x*y"), poly("2")],
        [poly("x - y"), poly("0")],
    ]
    operators = [[a.operator(p) for p in row] for row in entries]
    for r in (1, 2):
        expanded = [a.operator(m) for m in minors(entries, 2, r)]
        assert expanded == list(minors(operators, 2, r))
    with pytest.raises(RankTooLarge):
        next(minors(operators, 2, 3))
