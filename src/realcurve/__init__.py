"""Exact decision of manifold points on real algebraic curves over Q.

The library decides, by exact symbolic computation, whether a rational point
of a real algebraic curve is a manifold point, an isolated point, or a
non-manifold point.  The decision resolves the curve by iterated point
blow-ups and inspects the exceptional fiber of the resolved model: the number
of real fiber points and whether the real one is a reduced point of the fiber
scheme determine the verdict.

The package exports the entry points and the types of their arguments and
results; every layer (`realcurve.groebner`, `realcurve.zerodim`, ...) is
imported from its own module.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .blowup import FiberSummary, SmoothModel, resolve_curve
from .decide import Certificate, Classification, Verdict, classify_point
from .errors import RealCurveError
from .fourbar import FourBarAnalysis, FourBarParams, analyze_fourbar
from .ideals import IdealPresentation
from .oracle import halfbranch_count
from .parsing import parse_ideal
from .polynomials import Polynomial, VariableSet
