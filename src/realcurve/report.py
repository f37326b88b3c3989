"""Structured result reports with a stable machine format.

The machine format is a flat JSON tree with fixed key names, serialized with
sorted keys so byte-level golden tests stay meaningful.  Timing is the one
field that varies between runs; golden tests mask it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from . import __version__
from .decide import Classification
from .ideals import IdealPresentation
from .parsing import polynomial_to_string

SCHEMA_VERSION = "1"

VERDICT_KEYS = (
    "smooth-manifold-point",
    "manifold-point-at-singularity",
    "isolated-point",
    "not-manifold-point",
    "inconclusive",
)


def build_report(
    classification: Classification,
    ideal: IdealPresentation,
    point,
    options: Mapping[str, Any],
    timing_seconds: float,
    extras: Mapping[str, Any] | None = None,
) -> dict:
    cert = classification.certificate
    radicality = cert.radicality
    fiber = cert.fiber
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "realcurve", "version": __version__},
        "input": {
            "variables": ",".join(ideal.variables.names),
            "generators": [polynomial_to_string(g) for g in ideal.generators],
            "point": ",".join(str(Fraction(c)) for c in point),
            "options": dict(options),
        },
        "verdict": classification.verdict.label,
        "certificate": {
            "radicality_verdict": radicality.verdict.value if radicality else None,
            "radicality_reason": radicality.reason.value if radicality else None,
            "singular_locus_dimension": (
                radicality.singular_locus_dimension if radicality else None
            ),
            "dimension": cert.dimension,
            "smooth_shortcircuit": cert.smooth_shortcircuit,
            "blowup_depth": cert.blowup_depth,
            "fiber_real_points": fiber.real_points if fiber else None,
            "fiber_complex_points": fiber.complex_points if fiber else None,
            "fiber_nonreduced_real_points": (
                fiber.nonreduced_real_points if fiber else None
            ),
            "reason_text": cert.reason_text,
        },
        "timing_seconds": round(timing_seconds, 6),
    }
    if extras:
        report.update(extras)
    return report


def machine_format(report: Mapping[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def text_format(report: Mapping[str, Any]) -> str:
    cert = report["certificate"]
    lines = [
        f"verdict: {report['verdict']}",
        f"  dimension:          {cert['dimension']}",
        f"  radicality:         {cert['radicality_verdict']} ({cert['radicality_reason']})",
        f"  smooth shortcut:    {cert['smooth_shortcircuit']}",
        f"  blow-up depth:      {cert['blowup_depth']}",
        f"  fiber (R/C/nonred): {cert['fiber_real_points']}"
        f"/{cert['fiber_complex_points']}/{cert['fiber_nonreduced_real_points']}",
    ]
    if cert.get("singular_locus_dimension") is not None:
        lines.append(f"  singular locus dim: {cert['singular_locus_dimension']}")
    if cert["reason_text"]:
        lines.append(f"  reason: {cert['reason_text']}")
    lines.append(f"  time: {report['timing_seconds']}s")
    return "\n".join(lines) + "\n"
