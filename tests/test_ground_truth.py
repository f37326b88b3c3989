"""Plane germs whose verdict and fiber counts are known by construction.

A germ is a product of factors through the origin, one per kind, at pairwise
distinct base slopes p/q (the line L = q*y - p*x is the factor's tangent, or
the real part of its tangents), so the branches of different factors separate
after one blow-up.  The local real picture of each kind is classical:

    kind     polynomial                   real branches   complex branches
    line     L                            1 smooth        1
    tacnode  L^2 - x^4                    2 smooth        2
    cusp     L^2 - x^3                    1 cusp          1
    conj     L^2 + c*x^2   (c > 0)        0               2
    irr2     L^2 - d*x^2   (d no square)  2 smooth        2
    irr3     L^3 - d*x^3   (d no cube)    1 smooth        3

Real branches add up over the factors, so the expected verdict and the real
and complex fiber point counts follow from the factors alone.  The grammar is
the benchmark's plane-germ grammar (`bench/germs.py`), copied because
`bench/` is not importable from here.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import pytest

from realcurve import IdealPresentation, Verdict, classify_point, halfbranch_count, parse_ideal
from realcurve.ideals import eliminate, intersect
from realcurve.singular import RadicalityVerdict

from conftest import make_ideal, varset

KINDS = ("line", "tacnode", "cusp", "conj", "irr2", "irr3")

# (real branches, complex branches, real branches are smooth)
_BRANCHES = {
    "line": (1, 1, True),
    "tacnode": (2, 2, True),
    "cusp": (1, 1, False),
    "conj": (0, 2, True),
    "irr2": (2, 2, True),
    "irr3": (1, 3, True),
}


@dataclass(frozen=True)
class Factor:
    kind: str
    p: int
    q: int
    k: int = 0  # c for conj, d for irr2 and irr3; unused otherwise

    def text(self) -> str:
        lin = f"{self.q}*y - {self.p}*x" if self.p >= 0 else f"{self.q}*y + {-self.p}*x"
        if self.kind == "line":
            return lin
        if self.kind == "tacnode":
            return f"({lin})^2 - x^4"
        if self.kind == "cusp":
            return f"({lin})^2 - x^3"
        if self.kind == "conj":
            return f"({lin})^2 + {self.k}*x^2"
        if self.kind == "irr2":
            return f"({lin})^2 - {self.k}*x^2"
        return f"({lin})^3 - {self.k}*x^3"


@dataclass(frozen=True)
class Germ:
    factors: tuple[Factor, ...]

    @property
    def real_branches(self) -> int:
        return sum(_BRANCHES[f.kind][0] for f in self.factors)

    @property
    def complex_branches(self) -> int:
        return sum(_BRANCHES[f.kind][1] for f in self.factors)

    def ideal_text(self) -> str:
        body = " * ".join(f"({f.text()})" for f in self.factors)
        return f"vars: x, y\n{body}\n"

    def expected_verdict(self) -> str:
        real = self.real_branches
        if real == 0:
            return "isolated-point"
        if real >= 2:
            return "not-manifold-point"
        (branch,) = [f for f in self.factors if _BRANCHES[f.kind][0]]
        if not _BRANCHES[branch.kind][2]:
            return "not-manifold-point"
        if len(self.factors) == 1 and branch.kind == "line":
            return "smooth-manifold-point"
        return "manifold-point-at-singularity"

    def expected_real_points(self) -> int | None:
        """Real points on the resolved fiber; None when the decider short-circuits."""
        if self.expected_verdict() == "smooth-manifold-point":
            return None
        return self.real_branches


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _is_cube(n: int) -> bool:
    r = round(n ** (1 / 3))
    return any((r + e) ** 3 == n for e in (-1, 0, 1))


def random_slope(rng: random.Random, height: int) -> tuple[int, int]:
    """A reduced slope p/q with max(|p|, q) <= height, q >= 1."""
    while True:
        q = rng.randint(1, height)
        p = rng.randint(-height, height)
        if Fraction(p, q).denominator == q:
            return p, q


def make_factor(rng: random.Random, kind: str, p: int, q: int) -> Factor:
    if kind == "conj":
        return Factor(kind, p, q, rng.randint(1, 6))
    if kind == "irr2":
        return Factor(kind, p, q, rng.choice([d for d in range(2, 12) if not _is_square(d)]))
    if kind == "irr3":
        return Factor(kind, p, q, rng.choice([d for d in range(2, 12) if not _is_cube(d)]))
    return Factor(kind, p, q)


def random_germ(rng: random.Random, kinds, height: int = 4) -> Germ:
    """One factor of each listed kind, at pairwise distinct small-height base slopes."""
    slopes: list[tuple[int, int]] = []
    while len(slopes) < len(kinds):
        s = random_slope(rng, height)
        if s not in slopes:
            slopes.append(s)
    return Germ(tuple(make_factor(rng, k, p, q) for k, (p, q) in zip(kinds, slopes)))


GERM_KINDS = [(kind,) for kind in KINDS] + list(itertools.combinations_with_replacement(KINDS, 2))


def _check_construction(germ: Germ):
    c = classify_point(parse_ideal(germ.ideal_text()), [0, 0], max_depth=8)
    fiber = c.certificate.fiber
    got = (
        c.verdict.value,
        fiber.real_points if fiber else None,
        fiber.complex_points if fiber else None,
    )
    smooth = germ.expected_verdict() == "smooth-manifold-point"
    want = (
        germ.expected_verdict(),
        germ.expected_real_points(),
        None if smooth else germ.complex_branches,
    )
    assert got == want, germ.ideal_text()


@pytest.mark.parametrize("kinds", GERM_KINDS, ids="-".join)
def test_seeded_germ_matches_its_construction(kinds):
    # a string seed is hashed by random itself, so each germ is the same on every run
    _check_construction(random_germ(random.Random("-".join(kinds)), kinds))


@pytest.mark.parametrize("k", range(2, 8))
def test_fat_tacnode_chain_is_inconclusive_without_a_basis(k, hang_guard, buchberger_inputs):
    # the k-tacnode chain times its first factor, degree 4k + 4: an exact
    # squarefree part of it once ran past 60 s at k = 7
    chain = [Factor("tacnode", j, 1) for j in range(1, k + 1)]
    fat = Germ(tuple(chain) + (chain[0],))
    c = classify_point(parse_ideal(fat.ideal_text()), [0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert c.certificate.radicality.verdict is RadicalityVerdict.UNKNOWN
    assert not buchberger_inputs


def test_drawn_germs_match_their_construction_and_the_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        rng=st.randoms(use_true_random=False),
    )
    def check(kinds, rng):
        germ = random_germ(rng, kinds)
        _check_construction(germ)
        i = parse_ideal(germ.ideal_text())
        assert halfbranch_count(i, [0, 0]) == 2 * germ.real_branches, germ.ideal_text()
        # a repeated factor leaves radicality uncertified: no modular image passes
        squared = Germ(germ.factors + (rng.choice(germ.factors),))
        c = classify_point(parse_ideal(squared.ideal_text()), [0, 0], max_depth=8)
        assert c.verdict is Verdict.INCONCLUSIVE, squared.ideal_text()
        assert not c.certificate.radicality.known, squared.ideal_text()

    check()


# ---------------------------------------------------------------------------
# space curves in Q[x, y, z]
#
# Each curve is a union of irreducible branches through the origin, and its
# ideal the intersection of their prime ideals, so it is radical by
# construction and classify_point may assume so.  A branch is a line, the
# conjugate pair x = y^2 + z^2 = 0, a graph x -> (x, p(x), q(x)) or the image
# of t -> (a(t), b(t), c(t)).  Blow-ups separate two graphs that agree below
# order m and differ at order m after exactly m steps, as in the plane.


def _line(d: tuple[int, int, int]) -> IdealPresentation:
    """The line through the origin with direction d: the 2x2 minors of (x, y, z; d)."""
    a, b, c = d
    return make_ideal("x,y,z", f"({b})*x - ({a})*y", f"({c})*x - ({a})*z", f"({c})*y - ({b})*z")


def _graph(p: str, q: str) -> IdealPresentation:
    return make_ideal("x,y,z", f"y - ({p})", f"z - ({q})")


def _image(a: str, b: str, c: str) -> IdealPresentation:
    """The image of t -> (a, b, c): the kernel of Q[x, y, z] -> Q[t], a prime."""
    graph = make_ideal("t,x,y,z", f"x - ({a})", f"y - ({b})", f"z - ({c})")
    return IdealPresentation(varset("x,y,z"), eliminate(graph, 1).generators)


def _union(*branches: IdealPresentation) -> IdealPresentation:
    return functools.reduce(intersect, branches)


CONJUGATE_LINES = "x", "y^2 + z^2"

# label, ideal, (verdict, blow-up depth, (real, complex, non-reduced real) or None)
SPACE_CURVES = [
    ("two-lines", lambda: _union(_line((1, 0, 0)), _line((0, 1, 0))),
     ("not-manifold-point", 1, (2, 2, 0))),
    ("three-lines", lambda: _union(_line((1, 0, 0)), _line((0, 1, 0)), _line((1, 1, 1))),
     ("not-manifold-point", 1, (3, 3, 0))),
    ("conjugate-lines", lambda: make_ideal("x,y,z", *CONJUGATE_LINES),
     ("isolated-point", 1, (0, 2, 0))),
    ("conjugate-lines-and-a-line",
     lambda: _union(make_ideal("x,y,z", *CONJUGATE_LINES), _line((1, 2, 3))),
     ("manifold-point-at-singularity", 1, (1, 3, 0))),
    ("twisted-cubic", lambda: _graph("x^2", "x^3"), ("smooth-manifold-point", 0, None)),
    ("tangent-branches", lambda: _union(_graph("x^2", "x^3"), _graph("-x^2", "2*x^3")),
     ("not-manifold-point", 2, (2, 2, 0))),
    ("osculating-branches", lambda: _union(_graph("x^2", "x^3"), _graph("x^2 + x^3", "x^3")),
     ("not-manifold-point", 3, (2, 2, 0))),
    ("cusp-t2-t3-t4", lambda: _image("t^2", "t^3", "t^4"), ("not-manifold-point", 1, (1, 1, 1))),
    ("cusp-t2-t3-t5", lambda: _image("t^2", "t^3", "t^5"), ("not-manifold-point", 1, (1, 1, 1))),
    # a strict basis of this pair took about a minute while each blow-up
    # substituted the raw saturation generators of the chart before it
    ("order-3-branches",
     lambda: _union(_graph("-2*x - 3*x^2 - x^4", "-2*x - 3*x^2 + x^3 + 3*x^4"),
                    _graph("-2*x - 3*x^2 + 2*x^3 - 3*x^4", "-2*x - 3*x^2 + 2*x^3 + x^4")),
     ("not-manifold-point", 3, (2, 2, 0))),
]


def _space_outcome(i: IdealPresentation):
    c = classify_point(i, [0, 0, 0], assume_radical=True)
    fiber = c.certificate.fiber
    if fiber is not None:
        fiber = (fiber.real_points, fiber.complex_points, fiber.nonreduced_real_points)
    return c.verdict.value, c.certificate.blowup_depth, fiber


@pytest.mark.parametrize("label, build, want", SPACE_CURVES, ids=[s[0] for s in SPACE_CURVES])
def test_space_curve_matches_its_construction(label, build, want, hang_guard):
    assert _space_outcome(build()) == want


def _random_directions(rng: random.Random, k: int) -> list[tuple[int, int, int]]:
    """k distinct lines: primitive integer directions, first nonzero entry positive."""
    directions: list[tuple[int, int, int]] = []
    while len(directions) < k:
        d = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(d) or math.gcd(*d) != 1:
            continue
        if next(v for v in d if v) < 0:
            d = tuple(-v for v in d)
        if d not in directions:
            directions.append(d)
    return directions


@pytest.mark.parametrize("k", range(2, 5))
def test_seeded_lines_give_one_fiber_point_each(k, hang_guard):
    directions = _random_directions(random.Random(f"lines-{k}"), k)
    i = _union(*map(_line, directions))
    assert _space_outcome(i) == ("not-manifold-point", 1, (k, k, 0)), directions


def _taylor(coefficients: list[int]) -> str:
    return " + ".join(f"({c})*x^{j}" for j, c in enumerate(coefficients, start=1))


def _random_branch_pair(rng: random.Random, m: int, degree: int = 3) -> tuple[str, ...]:
    """p1, q1, p2, q2 of two graphs through 0 that agree below order m and differ at m."""
    def draw():
        return [rng.randint(-3, 3) for _ in range(degree)]

    p1, q1, p2, q2 = draw(), draw(), draw(), draw()
    p2[: m - 1], q2[: m - 1] = p1[: m - 1], q1[: m - 1]
    while (p1[m - 1], q1[m - 1]) == (p2[m - 1], q2[m - 1]):
        p2[m - 1], q2[m - 1] = rng.randint(-3, 3), rng.randint(-3, 3)
    return tuple(map(_taylor, (p1, q1, p2, q2)))


# order-3 pairs are drawn to degree 4, so that each graph goes on past the
# order where the pair separates (degree-3 draws take milliseconds); draw 0
# took 36 s while each blow-up substituted the raw saturation generators of
# the chart before it
@pytest.mark.parametrize("m, draw", [(m, draw) for m in (1, 2, 3) for draw in range(3)])
def test_seeded_branch_pairs_separate_at_their_order(m, draw, hang_guard):
    rng = random.Random(f"branches-{m}-{draw}")
    p1, q1, p2, q2 = _random_branch_pair(rng, m, degree=max(3, m + 1))
    i = _union(_graph(p1, q1), _graph(p2, q2))
    assert _space_outcome(i) == ("not-manifold-point", m, (2, 2, 0)), (p1, q1, p2, q2)
