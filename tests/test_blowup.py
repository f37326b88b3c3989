"""Blow-up charts, strict transforms, fibers, resolution."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve import (
    blowup_origin,
    fiber_ideal,
    fiber_summary,
    ideal_equal,
    ideal_membership,
    is_unit_ideal,
    quotient,
    resolve_curve,
    ring_map,
)
from realcurve.errors import OriginNotOnVariety
from realcurve.ideals import ideal
from realcurve.parsing import parse_polynomial

from conftest import make_ideal, poly

Q = Fraction


def chart_poly(text, chart):
    return parse_polynomial(text, chart.chart_variables)


def test_node_chart_x_strict(node):
    chart = blowup_origin(node)[0]
    assert chart.chart_variables.names == ("x", "y_h")
    expected = ideal(chart.chart_variables, (chart_poly("y_h^2 - 1 - x", chart),))
    assert ideal_equal(chart.strict_ideal, expected)


def test_cusp_chart_x_strict(cusp):
    chart = blowup_origin(cusp)[0]
    expected = ideal(chart.chart_variables, (chart_poly("y_h^2 - x", chart),))
    assert ideal_equal(chart.strict_ideal, expected)


def test_blowup_rejects_missing_origin():
    with pytest.raises(OriginNotOnVariety):
        blowup_origin(make_ideal("x,y", "y^2 - x^2 - x^3 + 1"))


def test_node_chart_x_fiber(node):
    chart = blowup_origin(node)[0]
    fib = fiber_ideal(chart, dedup=True)
    expected = ideal(
        chart.chart_variables,
        (chart_poly("x", chart), chart_poly("y_h^2 - 1", chart)),
    )
    assert ideal_equal(fib, expected)


def test_cusp_chart_x_fiber_nonreduced(cusp):
    chart = blowup_origin(cusp)[0]
    fib = fiber_ideal(chart, dedup=True)
    expected = ideal(
        chart.chart_variables, (chart_poly("x", chart), chart_poly("y_h^2", chart))
    )
    assert ideal_equal(fib, expected)


def test_example_vi_chart_x_fiber():
    i = make_ideal("x,y", "y^3 + 2x^2y - x^4")
    chart = blowup_origin(i)[0]
    fib = fiber_ideal(chart, dedup=True)
    expected = ideal(
        chart.chart_variables,
        (chart_poly("x", chart), chart_poly("y_h^3 + 2y_h", chart)),
    )
    assert ideal_equal(fib, expected)


def test_exceptional_generator_is_nonzerodivisor(node):
    for chart in blowup_origin(node):
        exc = ideal(
            chart.chart_variables,
            (chart_poly(chart.chart_variables.names[chart.chart_index], chart),),
        )
        assert ideal_equal(quotient(chart.strict_ideal, exc), chart.strict_ideal)


def test_pullback_soundness(node):
    for chart in blowup_origin(node):
        for g in node.generators:
            image = ring_map(g, chart.chart_variables, list(chart.pullbacks))
            assert ideal_membership(image, chart.strict_ideal)


def test_pullback_soundness_check_rejects_broken_bookkeeping(node):
    # the check reads the basis saturation left on the chart; it must still fail
    from dataclasses import replace

    from realcurve.blowup import _check_pullback_soundness

    for chart in blowup_origin(node):
        _check_pullback_soundness(chart, node)
        swapped = replace(chart, pullbacks=chart.pullbacks[::-1])
        with pytest.raises(AssertionError):
            _check_pullback_soundness(swapped, node)


def test_root_charts_are_checked_once(monkeypatch, node):
    # blowup_origin checks each root chart against the original ideal itself;
    # the resolution adds a composed check only below the root
    from realcurve import blowup

    calls = []
    original = blowup._check_pullback_soundness

    def counting(chart, ideal_, images=None):
        calls.append(chart.depth)
        original(chart, ideal_, images)

    monkeypatch.setattr(blowup, "_check_pullback_soundness", counting)
    assert resolve_curve(node).depth == 1
    assert calls == [1, 1]


def test_composed_check_below_the_root_catches_broken_composition(monkeypatch):
    from dataclasses import replace

    from realcurve import blowup

    original = blowup._compose_chart

    def reversed_pullbacks(previous, chart):
        composed = original(previous, chart)
        return replace(composed, pullbacks=composed.pullbacks[::-1])

    monkeypatch.setattr(blowup, "_compose_chart", reversed_pullbacks)
    with pytest.raises(AssertionError, match="escapes the strict ideal"):
        resolve_curve(make_ideal("x,y", TACNODE_CHAIN))


def test_dedup_constraints_shape(node):
    charts = blowup_origin(node)
    assert charts[0].dedup_constraints == ()
    assert len(charts[1].dedup_constraints) == 1
    assert charts[1].dedup_constraints[0] == parse_polynomial(
        "x_h", charts[1].chart_variables
    )


def test_node_resolution(node):
    model = resolve_curve(node)
    assert model.depth == 1
    summary = fiber_summary(model)
    assert (summary.real_points, summary.complex_points) == (2, 2)
    assert summary.nonreduced_real_points == 0


def test_cusp_resolution(cusp):
    summary = fiber_summary(resolve_curve(cusp))
    assert (summary.real_points, summary.complex_points, summary.nonreduced_real_points) == (1, 1, 1)


def test_deep_resolution_y3_x10():
    i = make_ideal("x,y", "y^3 - x^10")
    model = resolve_curve(i, max_depth=8)
    assert model.depth > 1
    summary = fiber_summary(model)
    assert (summary.real_points, summary.nonreduced_real_points) == (1, 1)


def test_smooth_input_returns_depth_zero():
    i = make_ideal("x,y", "y - x^2")
    model = resolve_curve(i)
    assert model.depth == 0
    summary = fiber_summary(model)
    assert (summary.real_points, summary.complex_points, summary.nonreduced_real_points) == (1, 1, 0)


def test_definite_form_fiber():
    summary = fiber_summary(resolve_curve(make_ideal("x,y", "x^2 + y^2")))
    assert (summary.real_points, summary.complex_points, summary.nonreduced_real_points) == (0, 2, 0)


def test_chart_partition_counts_each_point_once(node):
    # without dedup, chart y_h=1 re-sees the two node directions
    charts = blowup_origin(node)
    total_dedup = 0
    for chart in charts:
        fib = fiber_ideal(chart, dedup=True)
        if not is_unit_ideal(fib):
            from realcurve import build, count_points

            total_dedup += count_points(build(fib)).complex_distinct
    assert total_dedup == 2


def test_resolve_requires_a_curve():
    from realcurve.errors import NotACurve

    with pytest.raises(NotACurve):
        resolve_curve(make_ideal("x,y", "x", "y"))


def test_blowup_of_smooth_origin_recovers_single_reduced_point(node):
    # regression for the smooth shortcut: forcing the blow-up machinery on a
    # smooth origin still reports one reduced real fiber point
    from realcurve.blowup import SmoothModel, _identity_chart, _resolve_chart
    from realcurve.decide import translate_ideal

    moved = translate_ideal(node, [-1, 0])
    leaves = []
    _resolve_chart(_identity_chart(moved), 6, leaves, moved)
    summary = fiber_summary(SmoothModel(tuple(leaves)))
    assert (summary.real_points, summary.nonreduced_real_points) == (1, 0)


def test_leaf_smoothness_certificate(node):
    from realcurve import ideal_sum
    from realcurve.singular import singular_locus_ideal

    model = resolve_curve(node)
    for chart in model.charts:
        if is_unit_ideal(chart.strict_ideal):
            continue
        sing = singular_locus_ideal(chart.strict_ideal, assume_equidimensional=True)
        assert is_unit_ideal(ideal_sum(sing, fiber_ideal(chart, dedup=True)))


# ---------------------------------------------------------------------------
# leaf certification in the restricted fiber algebra


def _record_leaf_checks(monkeypatch, run):
    """Run `run` and return (chart, singular fiber ideal or None) per visited chart."""
    from realcurve import blowup

    visited = []
    original = blowup._singular_fiber

    def recording(chart, algebra):
        result = original(chart, algebra)
        visited.append((chart, result))
        return result

    with monkeypatch.context() as m:
        m.setattr(blowup, "_singular_fiber", recording)
        run()
    return visited


def _ideal_level_singular_fiber(chart):
    # the certificate in polynomial terms: singular locus plus restricted fiber
    from realcurve import ideal_sum
    from realcurve.singular import singular_locus_ideal

    sing = singular_locus_ideal(chart.strict_ideal, assume_equidimensional=True)
    return ideal_sum(sing, fiber_ideal(chart, dedup=True))


def _golden_run(name):
    import json
    from pathlib import Path

    from realcurve import FourBarParams, analyze_fourbar, classify_point, parse_ideal

    data = json.loads((Path(__file__).parent / "goldens" / f"{name}.json").read_text())
    inp = data["input"]
    opts = inp["options"]
    if "fourbar" in data:
        params = FourBarParams.of(Q(opts["l2"]), Q(opts["l4"]), Q(opts["l3"]))
        return lambda: analyze_fourbar(params, max_depth=opts["max_depth"])
    text = f"vars: {inp['variables']}\n" + "".join(g + "\n" for g in inp["generators"])
    point = [Q(c) for c in inp["point"].split(",")]
    return lambda: classify_point(
        parse_ideal(text), point, assume_radical=opts["assume_radical"], max_depth=opts["max_depth"]
    )


def _seeded_fourbars(count, seed):
    import random

    from realcurve import FourBarParams

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        params = FourBarParams.of(
            Q(rng.randint(1, 24), rng.randint(1, 6)), Q(rng.randint(1, 24), rng.randint(1, 6))
        )
        if params.l3 > 0 and not params.violations():
            out.append(params)
    return out


TACNODE_CHAIN = "((y - x)^2 - x^4)*((y - 2x)^2 - x^4)*((y - 3x)^2 - x^4)"
GOLDENS = (
    "branch_hidden",
    "c3_cusp_chain",
    "definite_form",
    "fourbar_three_halves",
    "irrational_line",
    "node",
)


def _agreement_runs():
    from realcurve import analyze_fourbar, classify_point

    runs = [(f"golden:{name}", _golden_run(name)) for name in GOLDENS]
    for params in _seeded_fourbars(3, seed=7):
        runs.append((f"fourbar:{params.l2},{params.l4}", lambda p=params: analyze_fourbar(p)))
    chain = make_ideal("x,y", TACNODE_CHAIN)
    runs.append(("tacnode-chain", lambda: classify_point(chain, [0, 0])))
    return runs


AGREEMENT_RUNS = _agreement_runs()


@pytest.mark.parametrize("label, run", AGREEMENT_RUNS, ids=[label for label, _ in AGREEMENT_RUNS])
def test_fiber_algebra_leaf_check_agrees_with_ideal_level_check(monkeypatch, label, run):
    visited = _record_leaf_checks(monkeypatch, run)
    assert visited
    for chart, singular in visited:
        old = _ideal_level_singular_fiber(chart)
        assert (singular is None) == is_unit_ideal(old)
        if singular is not None:
            assert ideal_equal(singular, old)
    if label == "tacnode-chain":
        assert any(singular is not None for _, singular in visited)


def test_leaf_check_needs_the_span_of_several_minors():
    # on the circle, d/dx vanishes at (0, 1) and d/dy at (1, 0): neither
    # minor is a unit of the fiber algebra, but together they generate it
    from realcurve import BlowupChart, ideal_sum
    from realcurve.blowup import _fiber_algebra, _singular_fiber
    from realcurve.ideals import groebner_basis
    from realcurve.zerodim import generating_operators

    strict = make_ideal("x,y", "x^2 + y^2 - 1")
    chart = BlowupChart(
        chart_index=0,
        chart_variables=strict.variables,
        strict_ideal=strict,
        pullbacks=(poly("x + y - 1"),),
        depth=1,
        strict_basis=groebner_basis(strict),
    )
    fiber = fiber_ideal(chart, dedup=True)
    assert ideal_equal(fiber, make_ideal("x,y", "x^2 + y^2 - 1", "x + y - 1"))
    algebra = _fiber_algebra(chart)
    assert algebra.dimension == 2
    for partial in ("2x", "2y"):
        assert not is_unit_ideal(ideal_sum(fiber, make_ideal("x,y", partial)))
        assert generating_operators(algebra, [algebra.operator(poly(partial))]) is not None
    assert _singular_fiber(chart, algebra) is None


def test_leaves_hand_their_fiber_algebra_to_fiber_summary(monkeypatch):
    from realcurve import blowup

    model = resolve_curve(make_ideal("x,y", "y^3 - x^10"), max_depth=8)
    assert all(chart.fiber_algebra is not None for chart in model.charts)

    def rebuilt(chart):
        raise AssertionError("a leaf's fiber algebra was built twice")

    monkeypatch.setattr(blowup, "_fiber_algebra", rebuilt)
    summary = fiber_summary(model)
    assert (summary.real_points, summary.nonreduced_real_points) == (1, 1)


def test_strict_transform_basis_comes_from_saturation_only(monkeypatch):
    # the soundness checks, the dimension and the leaf check all reuse the
    # basis that saturation computed; none of them runs Buchberger on it again
    from collections import Counter

    import realcurve.ideals as ideals_module
    from realcurve import blowup

    outside = Counter()
    saturating = []
    original_buchberger = ideals_module.buchberger
    original_saturate = blowup.saturate

    def counting(gens, order):
        if not saturating:
            outside[tuple(gens), str(order)] += 1
        return original_buchberger(gens, order)

    def marked(i, j):
        saturating.append(True)
        try:
            return original_saturate(i, j)
        finally:
            saturating.pop()

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    monkeypatch.setattr(blowup, "saturate", marked)
    visited = _record_leaf_checks(
        monkeypatch, lambda: resolve_curve(make_ideal("x,y", TACNODE_CHAIN))
    )
    assert len(visited) > 2
    for chart, _ in visited:
        assert chart.strict_basis is not None
        assert outside[chart.strict_ideal.generators, "grevlex"] == 0


def test_resolution_without_a_certificate_repeats_no_basis(buchberger_inputs):
    # the certificate computed up front supplies the dimension, so nothing
    # reduces the curve a second time to find it
    resolve_curve(make_ideal("x,y,z", "y^2 - x^2 - x^3", "z - x*y"))
    assert sum(buchberger_inputs.values()) == 11
    assert set(buchberger_inputs.values()) == {1}


# ---------------------------------------------------------------------------
# the non-reduced locus read off the full fiber algebra


def _seidenberg_radical(i):
    # reference radical: adjoin the squarefree part of every coordinate eliminant
    from realcurve import build, eliminant, ideal_sum, rename_variables, squarefree_part

    algebra = build(i)
    extra = [
        rename_variables(squarefree_part(eliminant(algebra, var)), i.variables)
        for var in range(len(i.variables))
    ]
    return ideal_sum(i, ideal(i.variables, extra))


def _summarized_models(monkeypatch, run):
    """Run `run` and return every model handed to fiber_summary."""
    from realcurve import decide

    models = []
    original = decide.fiber_summary

    def recording(model):
        models.append(model)
        return original(model)

    with monkeypatch.context() as m:
        m.setattr(decide, "fiber_summary", recording)
        run()
    return models


def _germ_run(text):
    from realcurve import classify_point

    germ = make_ideal("x,y", text)
    return lambda: classify_point(germ, [0, 0])


# plane germs whose resolutions end on non-reduced fibers
NONREDUCED_GERMS = [
    (f"germ:{text}", _germ_run(text))
    for text in ("y^3 - x^10", "(y^2 - x^3)*((y - x)^2 - x^4)", "(y^2 - x^5)*(y^2 + x^2)")
]
NILRADICAL_RUNS = AGREEMENT_RUNS + NONREDUCED_GERMS


@pytest.mark.parametrize("label, run", NILRADICAL_RUNS, ids=[lbl for lbl, _ in NILRADICAL_RUNS])
def test_nilradical_locus_agrees_with_seidenberg_quotient(monkeypatch, label, run):
    from realcurve import nonreduced_locus, zerodim_radical

    models = _summarized_models(monkeypatch, run)
    fibers = [fiber_ideal(chart, dedup=False) for model in models for chart in model.charts]
    fibers = [full for full in fibers if not is_unit_ideal(full)]
    assert fibers
    nonreduced = 0
    for full in fibers:
        radical = _seidenberg_radical(full)
        assert ideal_equal(zerodim_radical(full), radical)
        locus = nonreduced_locus(full)
        assert ideal_equal(locus, quotient(full, radical))
        nonreduced += not is_unit_ideal(locus)
    if label in ("golden:c3_cusp_chain", "tacnode-chain") or label.startswith("germ:"):
        assert nonreduced


def test_fiber_summary_reduces_each_full_fiber_once(monkeypatch):
    from collections import Counter

    import realcurve.ideals as ideals_module

    model = resolve_curve(make_ideal("x,y", "(y^2 - x^3)*((y - x)^2 - x^4)"))
    calls = Counter()
    original = ideals_module.buchberger

    def counting(gens, order):
        calls[tuple(gens), str(order)] += 1
        return original(gens, order)

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    summary = fiber_summary(model)
    assert summary.nonreduced_real_points >= 1
    assert {order for _, order in calls} == {"grevlex"}
    fulls = Counter(fiber_ideal(chart, dedup=False).generators for chart in model.charts)
    for gens, leaves in fulls.items():
        assert calls[gens, "grevlex"] == leaves
