"""Ideal-level calculus on top of the Groebner engine.

Everything here treats ideals as generator lists; equality is always decided
by two-sided membership against Groebner bases, never by comparing the lists
themselves.  Intersections use the classical t-trick (eliminate t from
t*I + (1-t)*J) and quotients go generator by generator through
intersections.  Saturation by a variable needs neither: it reads the
saturated ideal off one GREVLEX basis of the homogenized generators with that
variable ordered last (Bayer's method).  The gcd of two polynomials f and g
is f divided by the one generator of <f> : <g>, so the package has no
Euclidean gcd of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ZeroPolynomial
from .groebner import GroebnerBasis, buchberger, ideal_membership
from .polynomials import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    VariableSet,
    block_order,
    exact_divide,
)

Q = Fraction


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal given by nonzero generators in a fixed ambient ring."""

    variables: VariableSet
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.vars != self.variables:
                raise ValueError("generator lives in a different ring")


def ideal(variables: VariableSet, gens: Iterable[Polynomial]) -> IdealPresentation:
    """Normalize a generator list: drop zeros, keep everything else."""
    kept = tuple(g for g in gens if not g.is_zero())
    return IdealPresentation(variables, kept)


def groebner_basis(i: IdealPresentation, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    if not i.generators:
        return GroebnerBasis((), order)
    return buchberger(list(i.generators), order)


def is_unit_ideal(i: IdealPresentation) -> bool:
    return groebner_basis(i).is_unit()


def is_subideal(a: IdealPresentation, b: IdealPresentation) -> bool:
    """True when every generator of a lies in b."""
    gb = groebner_basis(b)
    return all(ideal_membership(g, gb) for g in a.generators)


def ideal_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    return is_subideal(a, b) and is_subideal(b, a)


def ideal_sum(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    if a.variables != b.variables:
        raise ValueError("ideal sum across different rings")
    return ideal(a.variables, a.generators + b.generators)


# ---------------------------------------------------------------------------
# variable bookkeeping for the t-trick and homogenization


def _fresh_name(base: str, taken: Sequence[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _prepend_variable(f: Polynomial, extended: VariableSet) -> Polynomial:
    return Polynomial(extended, {(0,) + e: c for e, c in f.terms.items()}, f.content)


def _drop_first_variables(f: Polynomial, k: int, reduced: VariableSet) -> Polynomial:
    return Polynomial(reduced, {e[k:]: c for e, c in f.terms.items()}, f.content)


def eliminate(i: IdealPresentation, k: int) -> IdealPresentation:
    """Generators of the intersection with the subring missing the first k variables.

    Computed from a Groebner basis under a block elimination order; basis
    members free of the first k variables generate the elimination ideal.
    """
    n = len(i.variables)
    if not 0 < k < n:
        raise ValueError(f"elimination count must be strictly between 0 and {n}")
    gb = groebner_basis(i, block_order(k))
    reduced = VariableSet(i.variables.names[k:])
    kept = [
        _drop_first_variables(g, k, reduced)
        for g in gb.basis
        if all(all(x == 0 for x in e[:k]) for e in g.terms)
    ]
    return ideal(reduced, kept)


def intersect(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """a ∩ b via eliminating t from t*a + (1-t)*b."""
    if a.variables != b.variables:
        raise ValueError("intersection across different rings")
    if not a.generators or not b.generators:
        return ideal(a.variables, ())
    t_name = _fresh_name("t", a.variables.names)
    ext = VariableSet((t_name,) + a.variables.names)
    t = Polynomial.variable(ext, 0)
    one_minus_t = Polynomial.one(ext) - t
    gens = [t * _prepend_variable(g, ext) for g in a.generators]
    gens += [one_minus_t * _prepend_variable(g, ext) for g in b.generators]
    eliminated = eliminate(IdealPresentation(ext, tuple(gens)), 1)
    return IdealPresentation(a.variables, eliminated.generators)


def quotient(i: IdealPresentation, j: IdealPresentation) -> IdealPresentation:
    """Ideal quotient (i : j) = {f | f*j ⊆ i}.

    Per generator g of j this is (i ∩ <g>)/g; the results are intersected.
    """
    if i.variables != j.variables:
        raise ValueError("quotient across different rings")
    if not j.generators:
        raise ZeroPolynomial("quotient by the zero ideal")
    result: IdealPresentation | None = None
    for g in j.generators:
        if g.is_constant():
            part = i
        else:
            meet = intersect(i, ideal(i.variables, (g,)))
            part = ideal(i.variables, (exact_divide(f, g) for f in meet.generators))
        result = part if result is None else intersect(result, part)
    return result


def multivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd over Q, read off the ideal quotient <f> : <g>.

    In a UFD, <f> : <g> = <f / gcd(f, g)> (Cox–Little–O'Shea, ch. 4 §3).
    The quotient has one generator: `intersect` keeps the t-free members of
    a reduced basis, and the reduced basis of <lcm(f, g)> is {lcm(f, g)}.
    """
    f._check_same_ring(g)
    if f.is_zero() or g.is_zero():
        return (f + g).primitive()
    if f.is_constant() or g.is_constant():
        return Polynomial.one(f.vars)
    (q,) = quotient(ideal(f.vars, (f,)), ideal(f.vars, (g,))).generators
    return exact_divide(f, q).primitive()


@dataclass(frozen=True)
class SaturationResult:
    """The saturation (i : x_k^∞) of i = `source`, its reduced GREVLEX basis and a diagnostic.

    `iterations` is the largest power of x_k divided out of the homogeneous
    basis: the saturation index of the homogenized ideal.  For a strict
    transform it is the power of the exceptional divisor removed; it can
    exceed the length of the quotient chain i ⊆ i : x_k ⊆ i : x_k^2 ⊆ ...,
    because the ideal of the homogenized generators can carry extra
    components at infinity (h = 0).  `basis` is computed on first use, so a
    caller that only needs the generators of the limit never pays for it;
    that first use also checks that every generator of `source` reduces to
    0 by it, since i ⊆ i : x_k^∞, and raises AssertionError otherwise.
    """

    ideal: IdealPresentation
    iterations: int
    source: IdealPresentation = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> GroebnerBasis:
        gb = groebner_basis(self.ideal)
        if not all(ideal_membership(g, gb) for g in self.source.generators):
            raise AssertionError("a generator of the source escapes its saturation")
        return gb


def saturate(i: IdealPresentation, j: IdealPresentation) -> SaturationResult:
    """(i : j^∞) for j = <c*x_k>; i itself when j has a constant generator.

    Bayer's method: homogenize the generators of i with a new variable h,
    compute one GREVLEX basis with x_k as the last variable, divide each
    element by the largest power of x_k dividing it, and set h = 1.  For a
    homogeneous ideal under revlex with x_k last, in(J : x_k^∞) equals
    in(J) : x_k^∞ (Bayer–Stillman 1987; Eisenbud, Prop. 15.12), and setting
    h = 1 commutes with saturation by x_k (Cox–Little–O'Shea, ch. 8 §4).
    A second GREVLEX basis, in the original variables, comes with the limit
    on first use, checked against the generators of i.  Any other j raises
    ValueError.  The zero ideal is returned as is.
    """
    if i.variables != j.variables:
        raise ValueError("saturation across different rings")
    if any(g.is_constant() for g in j.generators):
        return SaturationResult(i, 0, i)
    monomials = list(j.generators[0].terms) if len(j.generators) == 1 else []
    if len(monomials) != 1 or sum(monomials[0]) != 1:
        raise ValueError(
            "saturate supports only j = <x_k> for one variable x_k, "
            "or a j with a constant generator"
        )
    if not i.generators:
        return SaturationResult(i, 0, i)
    k = monomials[0].index(1)
    names = i.variables.names
    # extended ring: the other variables, then h, then x_k last
    ext = VariableSet(names[:k] + names[k + 1 :] + (_fresh_name("h", names), names[k]))
    homogeneous = []
    for g in i.generators:
        d = max(map(sum, g.terms))
        terms = {e[:k] + e[k + 1 :] + (d - sum(e), e[k]): c for e, c in g.terms.items()}
        homogeneous.append(Polynomial(ext, terms))
    # each basis element is homogeneous, so its x-exponents fix its h-exponent
    # and no two terms merge when h is set to 1
    limit = []
    iterations = 0
    for g in buchberger(homogeneous, GREVLEX).basis:
        m = min(e[-1] for e in g.terms)
        iterations = max(iterations, m)
        terms = {e[:k] + (e[-1] - m,) + e[k:-2]: c for e, c in g.terms.items()}
        limit.append(Polynomial(i.variables, terms))
    saturated = ideal(i.variables, limit)
    return SaturationResult(saturated, iterations, i)


def krull_dimension(i: IdealPresentation) -> int:
    """Dimension of the quotient ring, from leading monomials.

    The dimension is the size of the largest set S of variables such that no
    leading monomial of a Groebner basis is supported entirely inside S; the
    unit ideal reports -1.  The subset search is exponential in the variable
    count, which is fine at the ambient sizes handled here.
    """
    if not i.generators:
        return len(i.variables)
    return basis_dimension(groebner_basis(i), len(i.variables))


def basis_dimension(gb: GroebnerBasis, n: int) -> int:
    """Krull dimension of the ideal a Groebner basis generates in n variables."""
    if gb.is_unit():
        return -1
    if gb.is_zero_ideal():
        return n
    lms = [g.leading_monomial(gb.order) for g in gb.basis]
    supports = [frozenset(idx for idx, x in enumerate(e) if x) for e in lms]
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            s = frozenset(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0
