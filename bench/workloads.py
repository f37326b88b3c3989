"""The benchmark's three workloads: seeded case streams with known answers.

Every case is checked against an answer known by construction (criterion 7
for four-bars, the factor table in `germs` for plane germs) or, for the golden
fixtures, against the byte-exact machine report in `tests/goldens`.  A case
stream starts with the workload's goldens and then repeats one fixed cycle
of case shapes whose parameters come from the seed, so runs with different
seeds differ in their numbers but not in their mix of shapes.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from germs import KINDS, Factor, Germ, make_factor, random_germ, slope_of_height

WORKLOADS = ("fourbar-family", "plane-germs", "coefficient-height")

GERM_MAX_DEPTH = 8
GERM_OPTIONS = {"assume_radical": False, "max_depth": GERM_MAX_DEPTH}

# Slope heights of coefficient-height, as log10 of the numerator: from where
# trial-division root search is negligible to where it is over 90% of a case.
# The repeats put the median case inside the 6.5 rung and the case with ten
# slower ones beyond it inside the 7.0 rung, whether a run holds 4, 5 or 6
# cycles, so neither percentile sits on the edge between two heights.
HEIGHT_LADDER = (5.0, 5.5, 6.0, 6.5, 6.5, 7.0, 7.0, 7.0, 7.5)


@dataclass(frozen=True)
class Case:
    label: str
    kind: str  # "golden-plane", "golden-fourbar", "fourbar" or "germ"
    payload: object


def golden_cases(root: Path, fourbar: bool) -> list[Case]:
    """The golden fixtures of one kind, read-only, in name order."""
    out = []
    for path in sorted((root / "tests" / "goldens").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        is_fourbar = "fourbar" in json.loads(text)
        if is_fourbar == fourbar:
            kind = "golden-fourbar" if fourbar else "golden-plane"
            out.append(Case(f"golden:{path.stem}", kind, text))
    return out


def _fourbar_params(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Criterion 7's instance distribution on the family l2 - l3 + l4 = 2."""
    while True:
        l2 = Fraction(rng.randint(1, 24), rng.randint(1, 6))
        l4 = Fraction(rng.randint(1, 24), rng.randint(1, 6))
        l3 = l2 + l4 - 2
        if l3 > 0 and 2 not in (l2, l3, l4) and l2 != Fraction(8, 3):
            return l2, l4


def _plane_cycle(rng: random.Random) -> list[Germ]:
    germs = [random_germ(rng, (kind,)) for kind in KINDS]
    germs += [random_germ(rng, pair) for pair in itertools.combinations_with_replacement(KINDS, 2)]
    # each other kind with a tacnode once more: the tacnode's resolution is the
    # deepest, and the repeats put the median case inside the group of
    # mid-cost pairs (line-tacnode, cusp-conj, cusp-irr2, conj-irr3, irr2-irr3,
    # cusp-cusp) rather than on the step down to the cheaper group below it,
    # where the median would jump between the two groups from run to run
    germs += [random_germ(rng, ("tacnode", kind)) for kind in KINDS if kind != "tacnode"]
    # multi-center tacnode chains prod_j ((y -+ j*x)^2 - x^4), j = 1..k; two with
    # three centers per cycle keep well over ten of them in a run, so the tail
    # percentile lands inside that group rather than on its edge
    for k in (2, 3, 3):
        germs.append(Germ(tuple(Factor("tacnode", rng.choice((-j, j)), 1) for j in range(1, k + 1))))
    return germs


def _height_cycle(rng: random.Random) -> list[Germ]:
    germs = []
    for e in HEIGHT_LADDER:
        slopes: list[tuple[int, int]] = []
        while len(slopes) < 2:
            s = slope_of_height(rng, e, e + 0.02)
            if s not in slopes:
                slopes.append(s)
        germs.append(Germ(tuple(make_factor(rng, "tacnode", p, q) for p, q in slopes)))
    return germs


def cycles(workload: str, seed: int, root: Path) -> Iterator[list[Case]]:
    """The endless stream of case cycles; the same seed gives the same cases.

    The first cycle holds the workload's goldens.  A run executes whole cycles
    only, so every run has the same mix of case shapes and its percentiles
    fall at the same places in that mix.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fourbar-family":
        yield golden_cases(root, fourbar=True)
        for n in itertools.count():
            l2, l4 = _fourbar_params(rng)
            yield [Case(f"fourbar:{n}:l2={l2},l4={l4}", "fourbar", (l2, l4))]
    elif workload in ("plane-germs", "coefficient-height"):
        if workload == "plane-germs":
            yield golden_cases(root, fourbar=False)
            cycle = _plane_cycle
        else:
            cycle = _height_cycle
        for n in itertools.count():
            yield [Case(f"germ:{n}.{m}", "germ", germ) for m, germ in enumerate(cycle(rng))]
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# execution and checks; each returns None or a description of the mismatch


def execute(rc, case: Case, started: float) -> str | None:
    """Run one case through the public library and check its outputs.

    `rc` is the imported `realcurve` package; every call goes through its
    module attributes so a tracer installed on them sees it.
    """
    if case.kind == "fourbar":
        return _check_fourbar(rc.analyze_fourbar(rc.FourBarParams.of(*case.payload)))
    if case.kind == "germ":
        return _run_germ(rc, case.payload, started)
    if case.kind == "golden-plane":
        return _run_plane_golden(rc, case.payload)
    return _run_fourbar_golden(rc, case.payload)


def _check_fourbar(analysis) -> str | None:
    cert = analysis.classification.certificate
    got = (
        analysis.classification.verdict.value,
        cert.fiber.real_points if cert.fiber else None,
        cert.fiber.complex_points if cert.fiber else None,
        cert.radicality.verdict.value if cert.radicality else None,
    )
    want = ("not-manifold-point", 2, 2, "RadicalEquidimensional")
    return None if got == want else f"expected {want}, got {got}"


def _run_germ(rc, germ: Germ, started: float) -> str | None:
    i = rc.parse_ideal(germ.ideal_text())
    point = [Fraction(0), Fraction(0)]
    classification = rc.classify_point(i, point, max_depth=GERM_MAX_DEPTH)
    elapsed = time.perf_counter() - started
    report = rc.report.build_report(classification, i, point, GERM_OPTIONS, elapsed)
    rc.report.machine_format(report)
    cert = report["certificate"]
    smooth = germ.expected_verdict() == "smooth-manifold-point"
    got = (report["verdict"], cert["fiber_real_points"], cert["fiber_complex_points"])
    want = (
        germ.expected_verdict(),
        germ.expected_real_points(),
        None if smooth else germ.complex_branches,
    )
    if got != want:
        return f"{germ.ideal_text().splitlines()[1]}: expected {want}, got {got}"
    return None


def _masked(rc, report: dict) -> str:
    report["timing_seconds"] = 0.0  # the one run-dependent field
    return rc.report.machine_format(report)


def _run_plane_golden(rc, expected: str) -> str | None:
    inp = json.loads(expected)["input"]
    text = f"vars: {inp['variables']}\n" + "".join(g + "\n" for g in inp["generators"])
    i = rc.parse_ideal(text)
    point = [Fraction(c) for c in inp["point"].split(",")]
    opts = inp["options"]
    classification = rc.classify_point(
        i, point, assume_radical=opts["assume_radical"], max_depth=opts["max_depth"]
    )
    report = rc.report.build_report(classification, i, point, opts, 0.0)
    return None if _masked(rc, report) == expected else "machine report differs from golden"


def _run_fourbar_golden(rc, expected: str) -> str | None:
    opts = json.loads(expected)["input"]["options"]
    params = rc.FourBarParams.of(Fraction(opts["l2"]), Fraction(opts["l4"]), Fraction(opts["l3"]))
    analysis = rc.analyze_fourbar(params, max_depth=opts["max_depth"])
    report = rc.report.build_report(
        analysis.classification,
        analysis.ideal,
        analysis.point,
        opts,
        0.0,
        extras={
            "fourbar": {
                "ideal_dimension": analysis.ideal_dimension,
                "singular_locus_dimension": analysis.singular_locus_dimension,
                "singular_point": ",".join(str(c) for c in analysis.point),
            }
        },
    )
    return None if _masked(rc, report) == expected else "machine report differs from golden"
