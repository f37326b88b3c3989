"""Ideal-level calculus on top of the Groebner engine.

Everything here treats ideals as generator lists; equality is always decided
by two-sided membership against Groebner bases, never by comparing the lists
themselves.  Intersections use the classical t-trick (eliminate t from
t*I + (1-t)*J), quotients go generator by generator through intersections,
and saturation iterates quotients so the chain length stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ZeroPolynomial
from .groebner import GroebnerBasis, buchberger, normal_form
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


def contains(i: IdealPresentation, f: Polynomial, gb: GroebnerBasis | None = None) -> bool:
    if f.is_zero():
        return True
    if gb is None:
        gb = groebner_basis(i)
    if gb.is_zero_ideal():
        return False
    return normal_form(f, gb).is_zero()


def is_subideal(
    a: IdealPresentation, b: IdealPresentation, gb: GroebnerBasis | None = None
) -> bool:
    """True when every generator of a lies in b."""
    if gb is None:
        gb = groebner_basis(b)
    return all(contains(b, g, gb) for g in a.generators)


def ideal_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    return is_subideal(a, b) and is_subideal(b, a)


def ideal_sum(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    if a.variables != b.variables:
        raise ValueError("ideal sum across different rings")
    return ideal(a.variables, a.generators + b.generators)


# ---------------------------------------------------------------------------
# variable bookkeeping for the t-trick


def _fresh_name(base: str, taken: Sequence[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _prepend_variable(f: Polynomial, extended: VariableSet) -> Polynomial:
    return Polynomial.from_terms(extended, {(0,) + e: c for e, c in f.terms.items()})


def _drop_first_variables(f: Polynomial, k: int, reduced: VariableSet) -> Polynomial:
    return Polynomial.from_terms(reduced, {e[k:]: c for e, c in f.terms.items()})


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


@dataclass(frozen=True)
class SaturationResult:
    """Stable quotient chain limit plus how many strict growth steps it took.

    The iteration count is the multiplicity diagnostic: for a strict transform
    it equals the power of the exceptional divisor divided out.  The basis is
    the reduced GREVLEX basis of the limit, which the stability test computes.
    """

    ideal: IdealPresentation
    iterations: int
    basis: GroebnerBasis


def saturate(i: IdealPresentation, j: IdealPresentation) -> SaturationResult:
    """(i : j^∞) by iterating quotients until the chain stabilizes.

    Each ideal of the chain is reduced to a basis once; that basis tests
    the next quotient for stability and is returned with the limit.  Since
    current ⊆ (current : j) always holds, stability is the reverse inclusion.
    """
    current = i
    basis = groebner_basis(current)
    steps = 0
    while True:
        nxt = quotient(current, j)
        if is_subideal(nxt, current, basis):
            return SaturationResult(current, steps, basis)
        current = nxt
        basis = groebner_basis(current)
        steps += 1


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
