"""The manifold-point decision pipeline."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve import Verdict, classify_point, translate_ideal
from realcurve.decide import decide_from_fiber
from realcurve.errors import PointNotOnVariety

from conftest import make_ideal

Q = Fraction


def test_node_is_not_manifold(node):
    c = classify_point(node, [0, 0])
    assert c.verdict is Verdict.NOT_MANIFOLD_POINT
    assert c.certificate.fiber.real_points == 2


def test_example_vi_is_manifold_at_singularity():
    i = make_ideal("x,y", "y^3 + 2x^2y - x^4")
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.MANIFOLD_POINT_AT_SINGULARITY
    assert c.certificate.fiber.real_points == 1
    assert c.certificate.fiber.nonreduced_real_points == 0


def test_y3_x10_not_analytic_manifold():
    i = make_ideal("x,y", "y^3 - x^10")
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.NOT_MANIFOLD_POINT
    assert c.certificate.fiber.real_points == 1
    assert c.certificate.fiber.nonreduced_real_points >= 1
    assert c.certificate.blowup_depth > 1


def test_rational_cubic_line_is_manifold():
    c = classify_point(make_ideal("x,y", "x^3 - 5y^3"), [0, 0])
    assert c.verdict is Verdict.MANIFOLD_POINT_AT_SINGULARITY


def test_definite_form_gives_isolated_point():
    c = classify_point(make_ideal("x,y", "x^2 + y^2"), [0, 0])
    assert c.verdict is Verdict.ISOLATED_POINT


def test_smooth_point_shortcircuits(node):
    c = classify_point(node, [-1, 0])
    assert c.verdict is Verdict.SMOOTH_MANIFOLD_POINT
    assert c.certificate.smooth_shortcircuit
    assert c.certificate.blowup_depth == 0


def test_off_variety_point_raises(node):
    with pytest.raises(PointNotOnVariety):
        classify_point(node, [2, 1])


def test_unknown_radicality_is_inconclusive():
    i = make_ideal("x,y", "x^2", "xy")
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert "radical" in c.certificate.reason_text


def test_assume_radical_overrides_certificate():
    # the y-axis with a redundant generator: radical but not certified so
    i = make_ideal("x,y", "x", "x(y - 1)")
    c_bare = classify_point(i, [0, 0])
    assert c_bare.verdict is Verdict.INCONCLUSIVE
    c = classify_point(i, [0, 0], assume_radical=True)
    assert c.verdict is Verdict.SMOOTH_MANIFOLD_POINT


def test_non_curves_are_inconclusive():
    c = classify_point(make_ideal("x,y", "x", "y"), [0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert "dimension" in c.certificate.reason_text


def test_decision_table_total_and_single_valued():
    for r in range(0, 5):
        for nr in range(0, r + 1):
            verdict = decide_from_fiber(r, nr)
            if r == 0:
                assert verdict is Verdict.ISOLATED_POINT
            elif r >= 2:
                assert verdict is Verdict.NOT_MANIFOLD_POINT
            elif nr == 0:
                assert verdict is Verdict.MANIFOLD_POINT_AT_SINGULARITY
            else:
                assert verdict is Verdict.NOT_MANIFOLD_POINT


def test_depth_limit_reported_as_inconclusive():
    i = make_ideal("x,y", "y^3 - x^10")  # needs three blow-ups
    c = classify_point(i, [0, 0], max_depth=2)
    assert c.verdict is Verdict.INCONCLUSIVE
    assert "depth" in c.certificate.reason_text


def test_irrational_singular_fiber_point_is_inconclusive():
    # (y^2-2x^2)^2 - x^6 splits into two branches tangent along the
    # irrational directions y = +-sqrt(2) x; the strict transform crosses
    # itself at fiber points with coordinate sqrt(2)
    i = make_ideal("x,y", "(y^2 - 2x^2)^2 - x^6")
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert "non-rational" in c.certificate.reason_text


def test_translation_invariance(node):
    moved = translate_ideal(node, [-1, 0])  # smooth point to origin
    direct = classify_point(node, [-1, 0])
    translated = classify_point(moved, [0, 0])
    assert direct.verdict is translated.verdict

    # and on a singular fixture shifted off the origin
    shifted = translate_ideal(node, [Q(-1, 2), Q(3)])
    # shifted ideal vanishes at (1/2, -3); classifying there equals classifying
    # the original at the origin
    a = classify_point(node, [0, 0])
    b = classify_point(shifted, [Q(1, 2), Q(-3)])
    assert a.verdict is b.verdict
    assert a.certificate.fiber == b.certificate.fiber


@pytest.mark.parametrize("case, most", [("fourbar", 2), ("germ", 1)])
def test_dimension_of_the_moved_ideal_is_computed_once(monkeypatch, case, most):
    # radicality (complete intersections only) and resolve_curve each reduce
    # the ideal at the origin once; nothing else runs Buchberger on it
    import realcurve.ideals as ideals_module
    from realcurve import FourBarParams, fourbar_ideal, grashof_singular_point

    if case == "fourbar":
        params = FourBarParams.of(Q(7, 3), Q(5, 4))
        i, point = fourbar_ideal(params), grashof_singular_point(params)
    else:
        i, point = make_ideal("x,y", "(y^2 - x^3)*((y - x)^2 - x^4)"), [0, 0]
    moved = translate_ideal(i, point).generators
    calls = []
    original = ideals_module.buchberger

    def counting(gens, order):
        calls.append(tuple(gens) == moved)
        return original(gens, order)

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    c = classify_point(i, point)
    assert c.certificate.dimension == 1 and c.certificate.blowup_depth >= 1
    assert 1 <= sum(calls) <= most


def test_non_curves_report_their_dimension():
    c = classify_point(make_ideal("x,y,z", "x", "y", "z"), [0, 0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert c.certificate.dimension == 0
    assert c.certificate.reason_text == "not a curve: the ideal has dimension 0"
