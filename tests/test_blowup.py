"""Blow-up charts, strict transforms, fibers, resolution."""

from __future__ import annotations

from fractions import Fraction

import pytest

from realcurve import resolve_curve
from realcurve.blowup import blowup_origin, fiber_ideal, fiber_summary
from realcurve.errors import OriginNotOnVariety
from realcurve.groebner import ideal_membership
from realcurve.ideals import groebner_basis, ideal, ideal_equal, is_unit_ideal, quotient
from realcurve.parsing import parse_polynomial
from realcurve.polynomials import ring_map

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
            assert ideal_membership(image, groebner_basis(chart.strict_ideal))


def test_pullback_soundness_check_rejects_broken_bookkeeping(node):
    # the check reads the basis saturation left on the chart; it must still fail
    from dataclasses import replace

    from realcurve.blowup import _check_pullback_soundness

    for chart in blowup_origin(node):
        _check_pullback_soundness(chart, node)
        swapped = replace(chart, pullbacks=chart.pullbacks[::-1])
        with pytest.raises(AssertionError):
            _check_pullback_soundness(swapped, node)


def _record_pullback_checks(monkeypatch):
    """Every chart checked against the original ideal along its composed pullbacks."""
    from realcurve import blowup

    calls = []
    original = blowup._check_pullback_soundness

    def recording(chart, ideal_):
        calls.append(chart)
        original(chart, ideal_)

    monkeypatch.setattr(blowup, "_check_pullback_soundness", recording)
    return calls


def test_root_charts_are_checked_once(monkeypatch, node):
    # saturation checks every kept chart against the ideal it blew up, which
    # at the root is the original one; the composed check runs once on each
    # leaf below the root, and never on a root chart or on an inner chart
    # that is blown up again
    calls = _record_pullback_checks(monkeypatch)
    assert resolve_curve(node).depth == 1
    assert calls == []
    model = resolve_curve(make_ideal("x,y", TACNODE_CHAIN))
    assert [c.depth for c in model.charts] == [2, 3, 4]
    assert calls == [c for c in model.charts if c.depth >= 2]


def test_saturation_checks_the_strict_basis_of_each_kept_chart(monkeypatch):
    from realcurve import ideals

    bases = []
    original = ideals.ideal_membership

    def recording(f, gb):
        bases.append(gb)
        return original(f, gb)

    monkeypatch.setattr(ideals, "ideal_membership", recording)
    model = resolve_curve(make_ideal("x,y", TACNODE_CHAIN))
    # one source generator per kept chart: an inner chart at depths 1 to 3
    # and a leaf at depths 2 to 4
    assert len(bases) == 6
    assert {id(c.strict_basis) for c in model.charts} <= set(map(id, bases))


def test_node_chart_without_fiber_points_gets_no_basis_or_check(
    monkeypatch, node, buchberger_inputs
):
    dropped = blowup_origin(node)[1]
    assert is_unit_ideal(fiber_ideal(dropped, dedup=True))
    buchberger_inputs.clear()
    calls = _record_pullback_checks(monkeypatch)
    model = resolve_curve(node)
    assert [(c.depth, c.chart_index) for c in model.charts] == [(1, 0)]
    assert calls == []
    # saturation checks a chart when it builds its basis, and this one gets none
    assert buchberger_inputs[dropped.strict_ideal.generators, "grevlex"] == 0


# the depth-3 space curve (t, t^2, t^3) ∪ (t, t^2 + t^3, t^3) of test_ground_truth
OSCULATING_BRANCHES = ("y - x^2", "z - x^3"), ("y - x^2 - x^3", "z - x^3")


def test_composed_check_below_the_root_catches_broken_composition(monkeypatch):
    from dataclasses import replace

    from realcurve import blowup, classify_point
    from realcurve.ideals import intersect

    original = blowup._charts

    # a shift by one place of the composed pullbacks of every chart below the
    # root; a reversal would undo itself after two compositions, and the
    # space curve's leaves sit at depth 3
    def rotated_pullbacks(state, center):
        for chart, strict in original(state, center):
            if chart.depth > 1:
                chart = replace(chart, pullbacks=chart.pullbacks[1:] + chart.pullbacks[:1])
            yield chart, strict

    space = intersect(*(make_ideal("x,y,z", *branch) for branch in OSCULATING_BRANCHES))
    monkeypatch.setattr(blowup, "_charts", rotated_pullbacks)
    with pytest.raises(AssertionError, match="escapes the strict ideal"):
        resolve_curve(make_ideal("x,y", TACNODE_CHAIN))
    with pytest.raises(AssertionError, match="escapes the strict ideal"):
        classify_point(space, [0, 0, 0], assume_radical=True)


def _three_step_charts(state, center):
    """The blow-up of state at center in three steps: translate, blow up the origin, compose."""
    from dataclasses import replace

    from realcurve.ideals import IdealPresentation

    moved = IdealPresentation(
        state.chart_variables, tuple(g.translate(center) for g in state.strict_ideal.generators)
    )
    pullbacks = [p.translate(center) for p in state.pullbacks]
    constraints = [q.translate(center) for q in state.dedup_constraints]
    charts = []
    for chart in blowup_origin(moved):
        target, images = chart.chart_variables, list(chart.pullbacks)
        charts.append(
            replace(
                chart,
                pullbacks=tuple(ring_map(p, target, images) for p in pullbacks),
                depth=state.depth + 1,
                dedup_constraints=tuple(ring_map(q, target, images) for q in constraints)
                + chart.dedup_constraints,
            )
        )
    return charts


def _assert_chart_map_matches_three_steps(state, center):
    from realcurve.blowup import _charts

    charts = list(_charts(state, center))
    expected = _three_step_charts(state, center)
    assert [c.chart_index for c, _ in charts] == [c.chart_index for c in expected]
    for (chart, strict), want in zip(charts, expected):
        assert chart.depth == want.depth == state.depth + 1
        assert chart.chart_variables == want.chart_variables
        assert chart.pullbacks == want.pullbacks
        assert chart.dedup_constraints == want.dedup_constraints
        assert ideal_equal(chart.strict_ideal, want.strict_ideal)
        assert strict.basis == want.strict_basis


def _inner_blowups(monkeypatch, run):
    """Run `run` and return the (state, center) of every blow-up below the root."""
    from realcurve import blowup

    calls = []
    original = blowup._charts

    def recording(state, center):
        if state.depth > 0:
            calls.append((state, center))
        return original(state, center)

    with monkeypatch.context() as m:
        m.setattr(blowup, "_charts", recording)
        run()
    return calls


def test_chart_map_matches_translate_blow_up_and_compose(monkeypatch):
    from realcurve import classify_point
    from realcurve.ideals import intersect

    # an inner chart of the tacnode chain at each of its sibling centers
    chain = make_ideal("x,y", TACNODE_CHAIN)
    inner = _inner_blowups(monkeypatch, lambda: resolve_curve(chain))
    assert [state.depth for state, _ in inner] == [1, 2, 3]
    state, center = inner[0]
    assert tuple(center) == (0, 1)
    for slope in (1, 2, 3):
        _assert_chart_map_matches_three_steps(state, [Q(0), Q(slope)])
    for state, center in inner[1:]:
        _assert_chart_map_matches_three_steps(state, center)
    # the osculating space branches: their inner centers are origins, so the
    # depth-1 chart is also blown up at a point of each branch off the origin
    space = intersect(*(make_ideal("x,y,z", *branch) for branch in OSCULATING_BRANCHES))
    run = lambda: classify_point(space, [0, 0, 0], assume_radical=True)  # noqa: E731
    inner = _inner_blowups(monkeypatch, run)
    assert [state.depth for state, _ in inner] == [1, 2]
    for state, center in inner:
        _assert_chart_map_matches_three_steps(state, center)
    for point in ([1, 1, 1], [2, 6, 4]):
        _assert_chart_map_matches_three_steps(inner[0][0], [Q(c) for c in point])
    # a tacnode pair whose centers sit at slopes of height 10^9
    a = 1000000007
    pair = make_ideal("x,y", f"((y - {a}x)^2 - x^4)*((y - {a + 2}x)^2 - x^4)")
    _assert_chart_map_matches_three_steps(blowup_origin(pair)[0], [Q(0), Q(a)])


def test_chart_map_rejects_a_center_off_the_strict_transform():
    from realcurve.blowup import _charts

    chart = blowup_origin(make_ideal("x,y", TACNODE_CHAIN))[0]
    with pytest.raises(OriginNotOnVariety):
        next(_charts(chart, [Q(0), Q(5, 2)]))


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
            from realcurve.zerodim import build, count_points

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
    _resolve_chart(_identity_chart(moved), [0, 0], 6, leaves, moved)
    summary = fiber_summary(SmoothModel(tuple(leaves)))
    assert (summary.real_points, summary.nonreduced_real_points) == (1, 0)


def test_leaf_smoothness_certificate(node):
    model = resolve_curve(node)
    for chart in model.charts:
        if is_unit_ideal(chart.strict_ideal):
            continue
        assert is_unit_ideal(_ideal_level_singular_fiber(chart))


# ---------------------------------------------------------------------------
# leaf certification in the restricted fiber algebra


def _record_leaf_checks(monkeypatch, run):
    """Run `run` and return (chart, singular fiber algebra or None) per visited chart."""
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
    # the certificate in polynomial terms: singular locus (the strict ideal plus
    # its codimension-sized jacobian minors) plus restricted fiber
    from realcurve.ideals import ideal_sum, krull_dimension
    from realcurve.singular import jacobian, minors_ideal

    strict = chart.strict_ideal
    codim = len(strict.variables) - krull_dimension(strict)
    sing = ideal_sum(strict, minors_ideal(jacobian(strict), codim))
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
            assert ideal_equal(singular.ideal, old)
    if label == "tacnode-chain":
        assert any(singular is not None for _, singular in visited)


def test_leaf_check_needs_the_span_of_several_minors():
    # on the circle, d/dx vanishes at (0, 1) and d/dy at (1, 0): neither
    # minor is a unit of the fiber algebra, but together they generate it
    from realcurve.blowup import BlowupChart, _fiber_algebra, _singular_fiber
    from realcurve.ideals import groebner_basis, ideal_sum

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
        assert algebra.quotient([algebra.operator(poly(partial))]).dimension > 0
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


def test_strict_transform_basis_comes_from_saturation_only(monkeypatch, buchberger_inputs):
    # every kept chart carries the basis its saturation builds on first use;
    # the soundness checks, the dimension and the leaf check all reuse it, so
    # Buchberger sees each strict transform exactly once
    visited = _record_leaf_checks(
        monkeypatch, lambda: resolve_curve(make_ideal("x,y", TACNODE_CHAIN))
    )
    assert len(visited) > 2
    for chart, _ in visited:
        assert chart.strict_basis is not None
        assert buchberger_inputs[chart.strict_ideal.generators, "grevlex"] == 1


def test_resolution_without_a_certificate_repeats_no_basis(buchberger_inputs):
    # the certificate computed up front supplies the dimension, so nothing
    # reduces the curve a second time to find it; the chart that holds no
    # fiber point gets no strict basis and no fiber algebra of its full fiber
    resolve_curve(make_ideal("x,y,z", "y^2 - x^2 - x^3", "z - x*y"))
    assert sum(buchberger_inputs.values()) == 9
    assert set(buchberger_inputs.values()) == {1}


def test_fourbar_case_runs_twelve_bases_and_one_leaf(monkeypatch, buchberger_inputs):
    # charts x and u have empty fibers and chart v holds only points that
    # chart y counts: they get no strict basis, no check and no leaf
    from realcurve import FourBarParams, analyze_fourbar

    params = FourBarParams.of(Q(7), Q(3, 2))
    models = _summarized_models(monkeypatch, lambda: analyze_fourbar(params))
    assert sum(buchberger_inputs.values()) == 12
    assert [[(c.depth, c.chart_index) for c in model.charts] for model in models] == [[(1, 1)]]
    fiber = fiber_summary(models[0])
    assert (fiber.real_points, fiber.complex_points, fiber.nonreduced_real_points) == (2, 2, 0)


def test_chart_holding_only_an_earlier_fiber_point_is_kept(monkeypatch):
    # emptiness is decided on the composed restricted fiber over the original
    # point: below the root a chart can miss its own center and still carry
    # a point of an earlier blow-up, here the t = 2 node of the first one
    from realcurve import classify_point
    from realcurve.ideals import ideal_sum

    chain = make_ideal("x,y", "((y - x)^2 - x^4)*((y - 2x)^2 - x^4)")
    results = []
    visited = _record_leaf_checks(
        monkeypatch, lambda: results.append(classify_point(chain, [0, 0]))
    )
    [(chart, singular)] = [(c, s) for c, s in visited if (c.depth, c.chart_index) == (2, 1)]
    assert singular is not None
    names = chart.chart_variables
    own_center = ideal(names, (chart_poly(v, chart) for v in names.names))
    assert is_unit_ideal(ideal_sum(chart.strict_ideal, own_center))
    assert max(c.depth for c, _ in visited) == 3
    [result] = results
    assert result.verdict.label == "not-manifold-point"
    fiber = result.certificate.fiber
    assert (fiber.real_points, fiber.complex_points, fiber.nonreduced_real_points) == (4, 4, 0)
    assert result.certificate.blowup_depth == 3


# ---------------------------------------------------------------------------
# the non-reduced locus read off the full fiber algebra


def _seidenberg_radical(i):
    # reference radical: adjoin the squarefree part of every coordinate eliminant
    from realcurve.ideals import ideal_sum
    from realcurve.polynomials import rename_variables, squarefree_part
    from realcurve.zerodim import build, eliminant

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


def _fibered_charts(monkeypatch, run):
    """Run `run` and return every chart whose restricted fiber algebra it builds."""
    from realcurve import blowup

    charts = []
    original = blowup._fiber_algebra

    def recording(chart):
        charts.append(chart)
        return original(chart)

    with monkeypatch.context() as m:
        m.setattr(blowup, "_fiber_algebra", recording)
        run()
    return charts


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
    from realcurve.zerodim import nonreduced_locus, zerodim_radical

    # every chart of every blow-up, the ones dropped for an empty restricted
    # fiber included: their full fibers can still be non-reduced
    charts = _fibered_charts(monkeypatch, run)
    fibers = dict.fromkeys(fiber_ideal(chart, dedup=False) for chart in charts)
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
    # one basis per leaf, of its full fiber; the non-reduced locus and its
    # restriction are quotients of that fiber's algebra
    fulls = Counter(fiber_ideal(chart, dedup=False).generators for chart in model.charts)
    assert calls == {(gens, "grevlex"): leaves for gens, leaves in fulls.items()}


def test_singular_points_and_nonreduced_counts_build_no_basis(monkeypatch, buchberger_inputs):
    # the singular fibers and the non-reduced loci are quotients of fiber
    # algebras already built, so their rational points and real counts reach
    # no Buchberger call
    from collections import Counter

    import realcurve.ideals as ideals_module
    from realcurve import blowup, classify_point
    from realcurve.blowup import FiberSummary

    entered, inside, escaped = Counter(), [], []

    def guarded(name):
        original = getattr(blowup, name)

        def run(*args):
            entered[name] += 1
            inside.append(name)
            try:
                return original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(blowup, name, run)

    for name in ("rational_points", "nonreduced_quotient"):
        guarded(name)
    counting = ideals_module.buchberger

    def watched(gens, order):
        escaped.extend(inside[-1:])
        return counting(gens, order)

    monkeypatch.setattr(ideals_module, "buchberger", watched)
    c = classify_point(make_ideal("x,y", "(y^2 - x^3)*((y - x)^2 - x^4)"), [0, 0])
    assert c.certificate.fiber == FiberSummary(3, 3, 1)
    assert entered["rational_points"] and entered["nonreduced_quotient"]
    assert not escaped
    assert (sum(buchberger_inputs.values()), len(buchberger_inputs)) == (13, 12)


# ---------------------------------------------------------------------------
# the resolution against the keep-every-chart reference


def _recorded_resolutions(monkeypatch, run):
    """Run `run` and return the (ideal, max_depth) of every resolve_curve call."""
    from realcurve import decide

    calls = []
    original = decide.resolve_curve

    def recording(i, max_depth=6, **kwargs):
        calls.append((i, max_depth))
        return original(i, max_depth, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(decide, "resolve_curve", recording)
        run()
    return calls


def _resolution_outcome(resolve, i, max_depth):
    from realcurve.errors import DepthExceeded, IrrationalSingularFiberPoint

    try:
        model = resolve(i, max_depth)
    except (DepthExceeded, IrrationalSingularFiberPoint) as exc:
        return type(exc).__name__
    return model.depth, fiber_summary(model)


GERM_KINDS = {
    "line": "{L}",
    "tacnode": "({L})^2 - x^4",
    "cusp": "({L})^2 - x^3",
    "conj": "({L})^2 + {k}*x^2",
    "irr2": "({L})^2 - {k}*x^2",
    "irr3": "({L})^3 - {k}*x^3",
}


def _seeded_germ(kinds, rng):
    """A product of factors of these kinds at pairwise distinct rational slopes."""
    slopes = set()
    while len(slopes) < len(kinds):
        slopes.add(Q(rng.randint(-9, 9), rng.randint(1, 4)))
    factors = []
    for kind, slope in zip(kinds, sorted(slopes)):
        line = f"{slope.denominator}*y - ({slope.numerator})*x"
        k = rng.choice((2, 3, 5, 6, 7))
        factors.append("(" + GERM_KINDS[kind].format(L=line, k=k) + ")")
    return "*".join(factors)


def _reference_cases():
    """(label, resolutions) pairs; resolutions(monkeypatch) lists (ideal, max_depth)."""
    import random
    from itertools import combinations_with_replacement

    from realcurve import analyze_fourbar

    def through_decide(run):
        return lambda monkeypatch: _recorded_resolutions(monkeypatch, run)

    cases = [(f"golden:{name}", through_decide(_golden_run(name))) for name in GOLDENS]
    for k in (2, 3, 4):
        chain = make_ideal("x,y", "*".join(f"((y - {j}x)^2 - x^4)" for j in range(1, k + 1)))
        cases.append((f"tacnode-chain:{k}", lambda monkeypatch, c=chain, d=k + 1: [(c, d)]))
    rng = random.Random(15)
    kind_sets = [(kind,) for kind in GERM_KINDS]
    kind_sets += list(combinations_with_replacement(GERM_KINDS, 2))
    for kinds in kind_sets:
        germ = _germ_run(_seeded_germ(kinds, rng))
        cases.append((f"germ:{'+'.join(kinds)}", through_decide(germ)))
    for params in _seeded_fourbars(5, seed=15):
        run = lambda p=params: analyze_fourbar(p)  # noqa: E731
        cases.append((f"fourbar:{params.l2},{params.l4}", through_decide(run)))
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize(
    "label, resolutions", REFERENCE_CASES, ids=[label for label, _ in REFERENCE_CASES]
)
def test_resolution_matches_the_keep_every_chart_reference(monkeypatch, label, resolutions):
    from conftest import reference_resolve_curve

    calls = resolutions(monkeypatch)
    assert calls
    for i, max_depth in calls:
        expected = _resolution_outcome(reference_resolve_curve, i, max_depth)
        assert _resolution_outcome(resolve_curve, i, max_depth) == expected
