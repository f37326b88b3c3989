"""Byte-stable machine reports, pinned by golden files."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from realcurve import classify_point, parse_ideal
from realcurve.report import VERDICT_KEYS, build_report, machine_format

Q = Fraction

GOLDEN_DIR = Path(__file__).parent / "goldens"

FIXTURES = {
    "node": "vars: x,y\ny^2 - x^2 - x^3\n",
    "branch_hidden": "vars: x,y\ny^3 + 2x^2y - x^4\n",
    "c3_cusp_chain": "vars: x,y\ny^3 - x^10\n",
    "irrational_line": "vars: x,y\nx^3 - 5y^3\n",
    "definite_form": "vars: x,y\nx^2 + y^2\n",
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_report_matches_golden(name):
    ideal = parse_ideal(FIXTURES[name])
    classification = classify_point(ideal, [0, 0], max_depth=8)
    report = build_report(
        classification,
        ideal,
        [Q(0), Q(0)],
        {"assume_radical": False, "max_depth": 8},
        0.0,
    )
    report["timing_seconds"] = 0.0  # the one run-dependent field
    produced = machine_format(report)
    expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert produced == expected


def test_fourbar_report_matches_golden():
    from realcurve import analyze_fourbar
    from realcurve.fourbar import FourBarParams

    analysis = analyze_fourbar(FourBarParams.of(Q(3, 2), Q(3, 2)))
    report = build_report(
        analysis.classification,
        analysis.ideal,
        analysis.point,
        {"l2": "3/2", "l3": "1", "l4": "3/2", "max_depth": 6},
        0.0,
        extras={
            "fourbar": {
                "ideal_dimension": analysis.ideal_dimension,
                "singular_locus_dimension": analysis.singular_locus_dimension,
                "singular_point": ",".join(str(c) for c in analysis.point),
            }
        },
    )
    report["timing_seconds"] = 0.0
    expected = (GOLDEN_DIR / "fourbar_three_halves.json").read_text(encoding="utf-8")
    assert machine_format(report) == expected


def test_signatures_match_the_reference_on_every_golden_trace_form(monkeypatch):
    import realcurve.zerodim as zerodim
    from realcurve import analyze_fourbar
    from realcurve.fourbar import FourBarParams
    from realcurve.linalg import symmetric_signature

    from conftest import reference_signature

    forms = []

    def recording(m):
        forms.append(m)
        return symmetric_signature(m)

    monkeypatch.setattr(zerodim, "symmetric_signature", recording)
    for text in FIXTURES.values():
        classify_point(parse_ideal(text), [0, 0], max_depth=8)
    analyze_fourbar(FourBarParams.of(Q(3, 2), Q(3, 2)))
    assert forms
    for m in forms:
        assert symmetric_signature(m) == reference_signature(m)


def test_structure_constants_match_normal_forms_on_every_golden_algebra(monkeypatch):
    # trace forms and operators come from integer multiplication matrices;
    # the references take one normal form per basis monomial or product.
    # A quotient's matrices are projected from its parent's, and must be
    # those Buchberger gives for its ideal
    import realcurve.blowup as blowup
    import realcurve.zerodim as zerodim
    from realcurve import Polynomial, analyze_fourbar
    from realcurve.fourbar import FourBarParams

    from conftest import reference_operator, reference_trace_form

    algebras, quotients = [], []
    original, original_quotient = zerodim.algebra_of, zerodim.ZeroDimAlgebra.quotient

    def recording(i):
        algebras.append(original(i))
        return algebras[-1]

    def recording_quotient(algebra, operators):
        quotients.append(original_quotient(algebra, operators))
        return quotients[-1]

    monkeypatch.setattr(zerodim, "algebra_of", recording)
    monkeypatch.setattr(blowup, "algebra_of", recording)
    monkeypatch.setattr(zerodim.ZeroDimAlgebra, "quotient", recording_quotient)
    for text in FIXTURES.values():
        classify_point(parse_ideal(text), [0, 0], max_depth=8)
    analyze_fourbar(FourBarParams.of(Q(3, 2), Q(3, 2)))
    # a reduced full fiber's non-reduced locus is the zero algebra, made with
    # no quotient; this germ adds the quotients of one more non-reduced fiber
    classify_point(parse_ideal("vars: x,y\n(y^2 - x^3)*((y - x)^2 - x^4)\n"), [0, 0])
    assert sum(a.dimension > 2 for a in algebras) >= 5
    assert len(quotients) >= 10 and sum(q.dimension > 0 for q in quotients) >= 3
    for q in quotients:
        reference = original(q.ideal)
        assert (q.basis, q.mult_matrices) == (reference.basis, reference.mult_matrices)
    for a in algebras + [q for q in quotients if q.dimension]:
        assert zerodim.trace_form(a) == reference_trace_form(a)
        vs = a.ideal.variables
        xs = [Polynomial.variable(vs, v) for v in range(len(vs))]
        assert a.mult_matrices == tuple(reference_operator(a, x) for x in xs)
        mixed = sum(xs, Polynomial.constant(vs, Q(-1, 3))) ** 3
        partials = [g.partial_derivative(0) for g in a.ideal.generators]
        for f in (*a.ideal.generators, *partials, mixed):
            assert a.operator(f) == reference_operator(a, f)


def test_goldens_parse_and_cover_all_verdict_fields():
    for name in list(FIXTURES) + ["fourbar_three_halves"]:
        data = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert data["schema_version"] == "1"
        assert data["verdict"] in VERDICT_KEYS
        cert = data["certificate"]
        for key in (
            "radicality_verdict",
            "radicality_reason",
            "dimension",
            "smooth_shortcircuit",
            "blowup_depth",
            "fiber_real_points",
            "fiber_complex_points",
            "fiber_nonreduced_real_points",
            "reason_text",
        ):
            assert key in cert
