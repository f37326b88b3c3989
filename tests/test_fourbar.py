"""Four-bar constraint ideals and the degenerate-family analysis."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve import FourBarParams, Verdict, analyze_fourbar
from realcurve.errors import InvalidParams, NotSingularFamily
from realcurve.fourbar import fourbar_ideal, grashof_singular_point
from realcurve.ideals import is_unit_ideal, krull_dimension
from realcurve.singular import is_on_variety, singular_locus_ideal

from conftest import poly

Q = Fraction


def test_ideal_instance_generators():
    i = fourbar_ideal(FourBarParams.of(Q(3, 2), Q(3, 2), Q(1)))
    assert i.generators[0] == poly("x^2 + y^2 - 9/4", "x,y,u,v")
    assert i.generators[1] == poly("(u-2)^2 + v^2 - 1", "x,y,u,v")
    assert i.generators[2] == poly("(u-x)^2 + (v-y)^2 - 9/4", "x,y,u,v")


def test_l2_equal_two_rejected():
    with pytest.raises(InvalidParams):
        fourbar_ideal(FourBarParams.of(Q(2), Q(1), Q(1)))


def test_exclusion_list_reported():
    with pytest.raises(InvalidParams) as err:
        fourbar_ideal(FourBarParams.of(Q(8, 3), Q(4, 3)))
    text = str(err.value)
    assert "l2 = 8/3" in text and "l3 = 2" in text


def test_singular_point_instance():
    params = FourBarParams.of(Q(3, 2), Q(3, 2))
    assert grashof_singular_point(params) == (Q(3, 2), Q(0), Q(3), Q(0))


def test_singular_point_satisfies_constraints():
    params = FourBarParams.of(Q(3, 2), Q(3, 2))
    p = grashof_singular_point(params)
    i = fourbar_ideal(params)
    assert is_on_variety(i, p)
    # third generator by hand: (3 - 3/2)^2 + 0 - 9/4 = 0
    assert i.generators[2].evaluate(p) == 0


def test_l3_exclusion_via_singular_family():
    with pytest.raises(InvalidParams):
        grashof_singular_point(FourBarParams.of(Q(1), Q(3), Q(2)))


def test_non_degenerate_family_rejected():
    with pytest.raises(NotSingularFamily):
        grashof_singular_point(FourBarParams.of(Q(1), Q(1), Q(1)))


def test_jacobian_rank_drops_at_singular_point():
    from realcurve.singular import jacobian, rank_at

    params = FourBarParams.of(Q(3, 2), Q(3, 2))
    i = fourbar_ideal(params)
    p = grashof_singular_point(params)
    assert rank_at(jacobian(i), p) == 2  # below the codimension 3


def test_non_grashof_instance_is_globally_smooth():
    i = fourbar_ideal(FourBarParams.of(Q(1), Q(1), Q(1)))
    assert krull_dimension(i) == 1
    assert is_unit_ideal(singular_locus_ideal(i))


def test_analyze_instance_three_halves():
    analysis = analyze_fourbar(FourBarParams.of(Q(3, 2), Q(3, 2)))
    c = analysis.classification
    assert c.verdict is Verdict.NOT_MANIFOLD_POINT
    assert c.certificate.fiber.real_points == 2
    assert c.certificate.blowup_depth == 1
    assert analysis.ideal_dimension == 1
    assert analysis.singular_locus_dimension == 0


def test_analyze_second_instance():
    # discriminant 8 * 1 * (3/2) * (5/2) = 30 > 0: two real fiber points
    analysis = analyze_fourbar(FourBarParams.of(Q(1), Q(5, 2)))
    assert analysis.params.l3 == Q(3, 2)
    c = analysis.classification
    assert c.verdict is Verdict.NOT_MANIFOLD_POINT
    assert c.certificate.fiber.real_points == 2


@pytest.mark.parametrize("max_depth", [-3, -1, 1.5, True])
def test_analyze_rejects_a_bad_max_depth(monkeypatch, max_depth):
    from realcurve import fourbar

    def no_work(*args):
        raise AssertionError("analyze_fourbar started work before checking max_depth")

    monkeypatch.setattr(fourbar, "fourbar_ideal", no_work)
    with pytest.raises(ValueError, match="max_depth"):
        analyze_fourbar(FourBarParams.of(Q(3, 2), Q(3, 2)), max_depth=max_depth)


def test_analyze_with_zero_max_depth_is_inconclusive():
    analysis = analyze_fourbar(FourBarParams.of(Q(3, 2), Q(3, 2)), max_depth=0)
    assert analysis.classification.verdict is Verdict.INCONCLUSIVE
    assert "depth limit 0" in analysis.classification.certificate.reason_text
