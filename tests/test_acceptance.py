"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
Groebner basis computed while this module runs is re-verified against the
Buchberger criterion (all S-polynomials reduce to zero).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from realcurve import (
    FourBarParams,
    Verdict,
    analyze_fourbar,
    classify_point,
    groebner,
    halfbranch_count,
)
from realcurve.decide import translate_ideal
from realcurve.fourbar import fourbar_ideal, grashof_singular_point
from realcurve.groebner import buchberger
from realcurve.ideals import ideal, ideal_equal, krull_dimension, saturate
from realcurve.linalg import isolate_real_roots
from realcurve.polynomials import Polynomial, VariableSet, block_order, rename_variables
from realcurve.singular import singular_locus_ideal
from realcurve.zerodim import build, count_points, zerodim_radical

from conftest import make_ideal, varset, zpoly

Q = Fraction


@pytest.fixture(autouse=True, scope="module")
def _paranoid_groebner():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner, "_SELF_CHECK", True)
        yield


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(
        f"[acceptance] criterion {number} ({description}): PASS"
        f" in {elapsed:.2f}s (budget {budget_seconds:g}s)"
    )
    assert elapsed < budget_seconds


def test_criterion_1_node():
    with criterion(1, "node y^2-x^2-x^3 at the origin", 5):
        c = classify_point(make_ideal("x,y", "y^2 - x^2 - x^3"), [0, 0])
        assert c.verdict is Verdict.NOT_MANIFOLD_POINT
        assert c.certificate.fiber.real_points == 2
        assert c.certificate.blowup_depth == 1


def test_criterion_2_branch_hidden_in_complex():
    with criterion(2, "y^3+2x^2y-x^4 at the origin", 5):
        c = classify_point(make_ideal("x,y", "y^3 + 2x^2y - x^4"), [0, 0])
        assert c.verdict is Verdict.MANIFOLD_POINT_AT_SINGULARITY
        fiber = c.certificate.fiber
        assert fiber.real_points == 1
        assert fiber.complex_points == 3
        assert fiber.nonreduced_real_points == 0
        # the fiber scheme is reduced outright: its radical changes nothing
        from realcurve.blowup import blowup_origin, fiber_ideal
        from realcurve.ideals import is_unit_ideal

        for chart in blowup_origin(make_ideal("x,y", "y^3 + 2x^2y - x^4")):
            fib = fiber_ideal(chart, dedup=True)
            if not is_unit_ideal(fib):
                assert ideal_equal(zerodim_radical(fib), fib)


def test_criterion_3_c3_but_not_analytic():
    with criterion(3, "y^3-x^10 at the origin", 30):
        c = classify_point(make_ideal("x,y", "y^3 - x^10"), [0, 0], max_depth=8)
        assert c.verdict is Verdict.NOT_MANIFOLD_POINT
        assert c.certificate.fiber.real_points == 1
        assert c.certificate.fiber.nonreduced_real_points >= 1
        assert c.certificate.blowup_depth > 1


def test_criterion_4_irrational_line():
    with criterion(4, "x^3-5y^3 at the origin", 5):
        c = classify_point(make_ideal("x,y", "x^3 - 5y^3"), [0, 0])
        assert c.verdict is Verdict.MANIFOLD_POINT_AT_SINGULARITY


def test_criterion_5_isolated_point():
    with criterion(5, "x^2+y^2 at the origin", 5):
        c = classify_point(make_ideal("x,y", "x^2 + y^2"), [0, 0])
        assert c.verdict is Verdict.ISOLATED_POINT


FOURBAR_BLOCK_VARS = VariableSet.of("v", "y", "u", "x")

# leading monomials in enumeration (v, y, u, x): u^2 x, v u, v x^2, y^2, v y, v^2
EXPECTED_MAIN_LMS = {
    (0, 0, 2, 1),
    (1, 0, 1, 0),
    (1, 0, 0, 2),
    (0, 2, 0, 0),
    (1, 1, 0, 0),
    (2, 0, 0, 0),
}

# strict transform on the chart where y scales the other variables, in the
# enumeration (vh, y, uh, xh):
# uh^2 xh^2, y xh^2, y uh^2, vh xh, vh uh, vh y, vh^2
EXPECTED_STRICT_LMS = {
    (0, 0, 2, 2),
    (0, 1, 0, 2),
    (0, 1, 2, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
    (1, 1, 0, 0),
    (2, 0, 0, 0),
}


def test_criterion_6_fourbar_instance():
    with criterion(6, "four-bar l2=l4=3/2, l3=1", 120):
        params = FourBarParams.of(Q(3, 2), Q(3, 2))
        i = fourbar_ideal(params)
        assert krull_dimension(i) == 1

        point = grashof_singular_point(params)
        assert point == (Q(3, 2), Q(0), Q(3), Q(0))

        j = singular_locus_ideal(i)
        assert krull_dimension(j) == 0
        algebra = build(j)
        assert count_points(algebra).complex_distinct == 1
        assert all(g.evaluate(point) == 0 for g in j.generators)

        analysis = analyze_fourbar(params)
        c = analysis.classification
        assert c.certificate.radicality.verdict.value == "RadicalEquidimensional"
        assert c.verdict is Verdict.NOT_MANIFOLD_POINT
        assert c.certificate.fiber.real_points == 2
        assert c.certificate.blowup_depth == 1

        translated = translate_ideal(i, point)
        block_gens = [rename_variables(g, FOURBAR_BLOCK_VARS) for g in translated.generators]
        gb = buchberger(block_gens, block_order(2))
        assert {g.leading_monomial(gb.order) for g in gb.basis} == EXPECTED_MAIN_LMS

        # the saturated strict transform on the y chart has the seven-element
        # reduced basis shape
        from realcurve.blowup import blowup_origin

        chart = blowup_origin(translated)[1]
        strict_vars = VariableSet.of("v_h", "y", "u_h", "x_h")
        strict_gens = [rename_variables(g, strict_vars) for g in chart.strict_ideal.generators]
        strict_gb = buchberger(strict_gens, block_order(2))
        assert len(strict_gb.basis) == 7
        strict_lms = {g.leading_monomial(strict_gb.order) for g in strict_gb.basis}
        assert strict_lms == EXPECTED_STRICT_LMS


def _random_grashof_instances(count: int, seed: int) -> list[FourBarParams]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        l2 = Q(rng.randint(1, 24), rng.randint(1, 6))
        l4 = Q(rng.randint(1, 24), rng.randint(1, 6))
        params = FourBarParams.of(l2, l4)
        if params.l3 <= 0 or params.violations():
            continue
        out.append(params)
    return out


def test_criterion_7_discriminant_family():
    with criterion(7, "10 random degenerate instances have two real fiber points", 300):
        for params in _random_grashof_instances(10, seed=202_408):
            discriminant = 8 * params.l2 * params.l3 * params.l4
            assert discriminant > 0
            analysis = analyze_fourbar(params)
            fiber = analysis.classification.certificate.fiber
            # two distinct real roots of the fiber quadratic
            assert fiber.real_points == 2
            assert fiber.complex_points == 2
            assert analysis.classification.verdict is Verdict.NOT_MANIFOLD_POINT
            radicality = analysis.classification.certificate.radicality
            assert radicality.verdict.value == "RadicalEquidimensional"


def test_criterion_8_property_suites(node):
    with criterion(8, "property suites", 300):
        # Groebner self-checking has been active for this whole module (the
        # autouse fixture); recompute a couple of bases to exercise it here
        buchberger(list(node.generators))

        # saturation idempotence
        i = make_ideal("x,y", "x^2y", "x^3")
        j = make_ideal("x,y", "x")
        once = saturate(i, j)
        twice = saturate(once.ideal, j)
        assert ideal_equal(once.ideal, twice.ideal)
        assert twice.iterations == 0

        # trace form vs Sturm on 25 univariate-in-disguise ideals
        rng = random.Random(97)
        vs = varset("t,y")
        t_poly = Polynomial.variable(vs, 0)
        done = 0
        while done < 25:
            degree = rng.randint(1, 5)
            coeffs = [Q(rng.randint(-6, 6)) for _ in range(degree)]
            coeffs.append(Q(rng.randint(1, 4)))
            f = zpoly(coeffs, "y")
            if f.degree_in(0) < 1:
                continue
            lifted = rename_variables(f, vs)
            counts = count_points(build(ideal(vs, (t_poly, lifted))))
            assert counts.real_distinct == len(isolate_real_roots(f, Q(1)))
            done += 1

        # oracle cross-check on the five fixtures
        fixtures = [
            ("y^2 - x^2 - x^3", 2),
            ("y^3 + 2x^2y - x^4", 1),
            ("y^3 - x^10", 1),
            ("x^3 - 5y^3", 1),
        ]
        for gen, expected_real in fixtures:
            i = make_ideal("x,y", gen)
            c = classify_point(i, [0, 0], max_depth=8)
            assert c.certificate.fiber.real_points == expected_real
            assert halfbranch_count(i, [0, 0]) == 2 * expected_real
        assert halfbranch_count(make_ideal("x,y", "x^2 + y^2"), [0, 0]) == 0
