"""The manifold-point decision pipeline."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve import FiberSummary, Verdict, classify_point
from realcurve.decide import decide_from_fiber, translate_ideal
from realcurve.errors import PointNotOnVariety
from realcurve.singular import RadicalityReason

from conftest import SURFACE_WITH_A_SQUARE, make_ideal

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


def test_off_variety_error_names_the_point_once(node):
    # classify_point, is_smooth_at and halfbranch_count share the message
    from realcurve import halfbranch_count
    from realcurve.singular import is_smooth_at

    for check in (classify_point, is_smooth_at, halfbranch_count):
        with pytest.raises(PointNotOnVariety) as err:
            check(node, [Q(2), Q(-1, 2)])
        assert str(err.value) == "point (2, -1/2) is not on the variety"
        assert err.value.point == (2, Q(-1, 2))


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


@pytest.mark.parametrize("max_depth", [-1, -3, 1.5, 2.0, True, False, "2", None])
def test_bad_max_depth_is_rejected_before_any_work(monkeypatch, node, max_depth):
    from realcurve import decide, resolve_curve

    def no_work(*args):
        raise AssertionError("classify_point started work before checking max_depth")

    monkeypatch.setattr(decide, "is_on_variety", no_work)
    with pytest.raises(ValueError, match="max_depth"):
        classify_point(node, [0, 0], max_depth=max_depth)
    with pytest.raises(ValueError, match="max_depth"):
        resolve_curve(node, max_depth)


def test_zero_max_depth_is_allowed(node):
    c = classify_point(node, [0, 0], max_depth=0)
    assert c.verdict is Verdict.INCONCLUSIVE
    assert "depth limit 0" in c.certificate.reason_text
    smooth = classify_point(node, [-1, 0], max_depth=0)
    assert smooth.verdict is Verdict.SMOOTH_MANIFOLD_POINT


def test_irrational_singular_fiber_point_is_inconclusive():
    # (y^2-2x^2)^2 - x^6 splits into two branches tangent along the
    # irrational directions y = +-sqrt(2) x; the strict transform crosses
    # itself at fiber points with coordinate sqrt(2)
    i = make_ideal("x,y", "(y^2 - 2x^2)^2 - x^6")
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert "non-rational" in c.certificate.reason_text


def test_irrational_singular_fiber_point_carries_its_isolating_ideal(monkeypatch):
    # the error carries the restricted fiber plus the minors that enlarged
    # their ideal; an algebra Buchberger builds anew from that ideal has no
    # rational point and the point counts of the singular quotient
    from realcurve import blowup, resolve_curve
    from realcurve.errors import IrrationalSingularFiberPoint
    from realcurve.zerodim import build, count_points, rational_points

    singular = []
    original = blowup._singular_fiber

    def recording(chart, algebra):
        singular.append(original(chart, algebra))
        return singular[-1]

    monkeypatch.setattr(blowup, "_singular_fiber", recording)
    with pytest.raises(IrrationalSingularFiberPoint) as caught:
        resolve_curve(make_ideal("x,y", "(y^2 - 2x^2)^2 - x^6"))
    rebuilt = build(caught.value.ideal)
    assert caught.value.ideal == singular[-1].ideal
    assert rational_points(rebuilt) == ([], False)
    assert count_points(rebuilt) == count_points(singular[-1])


@pytest.mark.parametrize(
    "a, b", [(1000000007, 1000000009), (10**20 + 39, 10**20 + 129)]
)
def test_tacnode_pairs_of_large_slope_height_finish(hang_guard, a, b):
    # two tacnodes tangent to y = a x and y = b x; the blow-up centers sit at
    # slopes a and b, so the root search meets eliminants with roots that large
    i = make_ideal("x,y", f"((y - {a}x)^2 - x^4)*((y - {b}x)^2 - x^4)")
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.NOT_MANIFOLD_POINT
    assert c.certificate.fiber == FiberSummary(
        real_points=4, complex_points=4, nonreduced_real_points=0
    )
    assert c.certificate.blowup_depth == 3


def test_six_tacnode_chain_finishes(hang_guard):
    # degree 24 with coefficients at most 6; the squarefree test once spent
    # minutes on the growing content of its pseudo-remainders
    chain = "*".join(f"((y - {j}x)^2 - x^4)" for j in range(1, 7))
    c = classify_point(make_ideal("x,y", chain), [0, 0], max_depth=7)
    assert c.verdict is Verdict.NOT_MANIFOLD_POINT
    assert c.certificate.fiber == FiberSummary(
        real_points=12, complex_points=12, nonreduced_real_points=0
    )
    assert c.certificate.blowup_depth == 7


def test_surface_with_a_squared_factor_is_inconclusive(hang_guard):
    # the exact squarefree test finds the square, so radicality stays uncertified
    c = classify_point(make_ideal("x,y,z", SURFACE_WITH_A_SQUARE), [0, 0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert not c.certificate.radicality.known


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


@pytest.mark.parametrize("case, expected", [("fourbar", 1), ("germ", 0)])
def test_dimension_of_the_moved_ideal_is_computed_once(monkeypatch, case, expected):
    # the complete-intersection route reduces the ideal at the origin once and
    # hands its dimension to resolve_curve; the principal route needs no
    # reduction at all; nothing else runs Buchberger on it
    import realcurve.ideals as ideals_module
    from realcurve import FourBarParams
    from realcurve.fourbar import fourbar_ideal, grashof_singular_point

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
    assert sum(calls) == expected


def test_asserted_radicality_keeps_the_computed_dimension(buchberger_inputs):
    # the twisted cubic is no complete intersection, so its certificate is
    # Unknown; asserting radicality keeps the dimension that certificate
    # computed from the one basis of the moved ideal
    i = make_ideal("x,y,z", "y - x^2", "z - x*y", "x*z - y^2")
    c = classify_point(i, [0, 0, 0], assume_radical=True)
    assert c.verdict is Verdict.SMOOTH_MANIFOLD_POINT
    assert c.certificate.radicality.reason is RadicalityReason.USER_ASSERTED
    assert c.certificate.radicality.dimension == c.certificate.dimension == 1
    assert sum(buchberger_inputs.values()) == 1


def test_non_curves_report_their_dimension():
    c = classify_point(make_ideal("x,y,z", "x", "y", "z"), [0, 0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert c.certificate.dimension == 0
    assert c.certificate.reason_text == "not a curve: the ideal has dimension 0"
