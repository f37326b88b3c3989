"""Plane curve germs at the origin whose real picture is known by construction.

A germ is a product of factors.  Every factor passes through the origin with a
base slope p/q (the line q*y - p*x = 0 is its tangent, or the real part of its
tangents), and the factors of one germ have pairwise distinct base slopes, so
their tangent directions are pairwise distinct and the branches of different
factors never meet again after one blow-up.  The local real picture of each
kind of factor is classical:

    kind     polynomial (L = q*y - p*x)   real branches   complex branches
    line     L                            1 smooth        1
    tacnode  L^2 - x^4                    2 smooth        2
    cusp     L^2 - x^3                    1 cusp          1
    conj     L^2 + c*x^2   (c > 0)        0               2
    irr2     L^2 - d*x^2   (d no square)  2 smooth        2
    irr3     L^3 - d*x^3   (d no cube)    1 smooth        3

Real branches add up over the factors, and the expected verdict and real
fiber point count follow from that sum alone; the decider is never asked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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


def slope_of_height(rng: random.Random, low: float, high: float) -> tuple[int, int]:
    """A reduced slope whose numerator is drawn log-uniformly from [10^low, 10^high)."""
    while True:
        p = int(10 ** rng.uniform(low, high)) * rng.choice((-1, 1))
        q = rng.randint(1, 9)
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
