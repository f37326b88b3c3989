"""Multivariate division and Buchberger's algorithm.

The reduction core works fraction-free on the primitive integer terms every
Polynomial already stores, so no input is rescaled: each reduction step
multiplies the work polynomial by the smallest positive integer that keeps
coefficients integral.  The accumulated multiplier goes into the content of
the normal form, which is therefore exact, while the Buchberger loop simply
strips content (it only cares about ideal membership up to units).

Pair selection follows the normal strategy: the pending pair with the
smallest lcm (by degree, then by the active order, then by generator indices)
is processed first, which makes every run deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable, Sequence

from .errors import ZeroPolynomial
from .polynomials import (
    GREVLEX,
    Exponent,
    MonomialOrder,
    Polynomial,
    VariableSet,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

Q = Fraction

# When enabled, every basis returned by buchberger() is re-verified by
# reducing all S-polynomials of the result to zero.  Used by acceptance and
# property suites; off by default because it roughly doubles the work.
_SELF_CHECK = False


def set_self_check(enabled: bool) -> None:
    global _SELF_CHECK
    _SELF_CHECK = enabled


IPoly = dict  # Exponent -> int, content-free where noted


def _strip_content(p: IPoly) -> IPoly:
    g = int_gcd(*p.values())
    if g > 1:
        return {e: v // g for e, v in p.items()}
    return dict(p)


def _is_constant(p: IPoly) -> bool:
    return len(p) == 1 and monomial_degree(next(iter(p))) == 0


class _Reducer:
    """Divisor table shared by reduction steps; grows during Buchberger."""

    def __init__(self, keyf):
        self.keyf = keyf
        self.lms: list[Exponent] = []
        self.lcs: list[int] = []
        self.tails: list[list[tuple[Exponent, int]]] = []
        self.polys: list[IPoly] = []

    def push(self, p: IPoly) -> None:
        """Store p content-stripped with positive leading coefficient."""
        p = _strip_content(p)
        lm = max(p, key=self.keyf)
        if p[lm] < 0:
            p = {e: -v for e, v in p.items()}
        self.lms.append(lm)
        self.lcs.append(p[lm])
        self.tails.append([(e, v) for e, v in p.items() if e != lm])
        self.polys.append(p)

    def reduce(self, p: IPoly) -> tuple[IPoly, int]:
        """Full fraction-free reduction; returns (remainder, multiplier).

        Invariant: multiplier * input == remainder modulo the ideal spanned by
        the stored divisors, with multiplier a positive integer.
        """
        keyf = self.keyf
        lms = self.lms
        work = dict(p)
        rem: IPoly = {}
        mult = 1
        while work:
            e = max(work, key=keyf)
            c = work.pop(e)
            hit = -1
            for idx, lm in enumerate(lms):
                if monomial_divides(lm, e):
                    hit = idx
                    break
            if hit < 0:
                rem[e] = c
                continue
            lc = self.lcs[hit]
            g = int_gcd(c, lc)
            a = lc // g
            b = c // g
            if a != 1:
                for k in work:
                    work[k] *= a
                for k in rem:
                    rem[k] *= a
                mult *= a
            d = monomial_div(e, lms[hit])
            for te, tc in self.tails[hit]:
                k = monomial_mul(te, d)
                s = work.get(k, 0) - b * tc
                if s:
                    work[k] = s
                else:
                    work.pop(k, None)
        return rem, mult


def _spoly(pa: IPoly, lma: Exponent, pb: IPoly, lmb: Exponent) -> IPoly:
    lca, lcb = pa[lma], pb[lmb]
    g = int_gcd(lca, lcb)
    ca, cb = lcb // g, lca // g
    big = monomial_lcm(lma, lmb)
    da, db = monomial_div(big, lma), monomial_div(big, lmb)
    out: IPoly = {}
    for e, v in pa.items():
        out[monomial_mul(e, da)] = ca * v
    for e, v in pb.items():
        k = monomial_mul(e, db)
        s = out.get(k, 0) - cb * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, inter-reduced, sorted by leading monomial."""

    basis: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = True

    def leading_monomials(self) -> frozenset:
        return frozenset(g.leading_monomial(self.order) for g in self.basis)

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.basis

    def __iter__(self):
        return iter(self.basis)

    def __len__(self) -> int:
        return len(self.basis)


def _unit_basis(vars: VariableSet, order: MonomialOrder) -> GroebnerBasis:
    return GroebnerBasis((Polynomial.one(vars),), order)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by gens.

    Applies the product criterion (coprime leading monomials) and the chain
    criterion; intermediate results are kept primitive to cap coefficient
    growth.  A nonzero constant discovered at any point short-circuits to the
    unit ideal.
    """
    nonzero = [f for f in gens if not f.is_zero()]
    if not nonzero:
        first = next(iter(gens), None)
        if first is None:
            raise ZeroPolynomial("cannot build a basis without a variable set")
        return GroebnerBasis((), order)
    vars = nonzero[0].vars
    keyf = order.key

    red = _Reducer(keyf)
    seeds = sorted((f.terms for f in nonzero), key=lambda p: keyf(max(p, key=keyf)))
    for p in seeds:
        r, _ = red.reduce(p)
        if not r:
            continue
        if _is_constant(r):
            return _unit_basis(vars, order)
        red.push(r)

    heap: list = []
    pending: set[tuple[int, int]] = set()

    def queue_pairs(t: int) -> None:
        lmt = red.lms[t]
        for i in range(t):
            big = monomial_lcm(red.lms[i], lmt)
            heapq.heappush(heap, (monomial_degree(big), keyf(big), i, t))
            pending.add((i, t))

    for t in range(len(red.polys)):
        queue_pairs(t)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, lmj = red.lms[i], red.lms[j]
        big = monomial_lcm(lmi, lmj)
        if big == monomial_mul(lmi, lmj):
            continue  # coprime leading monomials
        chained = False
        for k in range(len(red.polys)):
            if k == i or k == j:
                continue
            if (
                monomial_divides(red.lms[k], big)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                chained = True
                break
        if chained:
            continue
        s = _spoly(red.polys[i], lmi, red.polys[j], lmj)
        if not s:
            continue
        r, _ = red.reduce(s)
        if not r:
            continue
        if _is_constant(r):
            return _unit_basis(vars, order)
        red.push(r)
        queue_pairs(len(red.polys) - 1)

    basis = _reduce_basis(red, vars, order)
    result = GroebnerBasis(tuple(basis), order)
    if _SELF_CHECK and not is_groebner_basis(result.basis, order):
        raise AssertionError("Buchberger self-check failed: an S-polynomial does not reduce to 0")
    return result


def _reduce_basis(red: _Reducer, vars: VariableSet, order: MonomialOrder) -> list[Polynomial]:
    keyf = order.key
    idxs = sorted(range(len(red.polys)), key=lambda t: keyf(red.lms[t]))
    minimal: list[int] = []
    for t in idxs:
        if not any(monomial_divides(red.lms[u], red.lms[t]) for u in minimal):
            minimal.append(t)
    out: list[Polynomial] = []
    for t in minimal:
        others = _Reducer(keyf)
        for u in minimal:
            if u != t:
                others.push(red.polys[u])
        r, _ = others.reduce(red.polys[t]) if others.polys else (dict(red.polys[t]), 1)
        out.append(Polynomial(vars, r, Q(1, r[max(r, key=keyf)])))
    out.sort(key=lambda g: keyf(g.leading_monomial(order)), reverse=True)
    return out


def normal_form(
    f: Polynomial,
    divisors: Iterable[Polynomial] | GroebnerBasis,
    order: MonomialOrder = GREVLEX,
) -> Polynomial:
    """Remainder of f under multivariate division by the given divisors.

    No term of the result is divisible by any divisor leading monomial, and
    f minus the result lies in the ideal the divisors generate.  The result is
    exact; when the divisors form a Groebner basis it is the unique normal
    form.
    """
    if isinstance(divisors, GroebnerBasis):
        order = divisors.order
        divisors = divisors.basis
    ds = [g for g in divisors if not g.is_zero()]
    if f.is_zero() or not ds:
        return f
    red = _Reducer(order.key)
    for g in ds:
        red.push(g.terms)
    rem, mult = red.reduce(f.terms)
    return Polynomial(f.vars, rem, f.content / mult)


def ideal_membership(f: Polynomial, ideal, order: MonomialOrder = GREVLEX) -> bool:
    """True iff f reduces to zero modulo a Groebner basis of the ideal.

    Accepts an IdealPresentation, a GroebnerBasis, or a plain generator
    sequence; with no generators the ideal is zero and only f = 0 lies in it.
    """
    if f.is_zero():
        return True
    gb = ideal
    if not isinstance(gb, GroebnerBasis):
        gens = list(getattr(ideal, "generators", ideal))
        if not gens:
            return False
        gb = buchberger(gens, order)
    return normal_form(f, gb).is_zero()


def is_groebner_basis(basis: Sequence[Polynomial], order: MonomialOrder) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return True
    red = _Reducer(order.key)
    for g in polys:
        red.push(g.terms)
    ints = red.polys
    for i in range(len(ints)):
        for j in range(i + 1, len(ints)):
            s = _spoly(ints[i], red.lms[i], ints[j], red.lms[j])
            if s and red.reduce(s)[0]:
                return False
    return True
