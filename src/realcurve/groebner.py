"""Multivariate division and Buchberger's algorithm.

Packed monomials.  A term enters the reduction core once, as the triple
(key, word, coefficient).  The key is ``MonomialOrder.key``: one int whose
integer order is the monomial order and which adds under multiplication.  The
word packs the exponents and the total degree into fields of FIELD_BITS + 1
bits whose top bit is a guard that stays clear.  Multiplying a term by x^d
then costs two integer additions, key + key(d) and word + word(d), and x^a
divides x^b exactly when word(b) - word(a) leaves every guard bit clear: a
field that would go negative borrows through its own guard.  The degree field
bounds every key field, so one check per reduction step keeps all fields
below 2**FIELD_BITS, and DegreeTooLarge is raised before any sum could spill
over.  Exponent tuples come back only for the terms of a result.

Reduction.  The pending terms of the work polynomial sit in a dict keyed by
order key, and their keys in a max-heap with lazy deletion: a term that
cancels leaves its key in the heap and its word in the words dict, and a
term that comes back finds both still there.  A key is pushed only when it
has no word yet, so each key enters the heap once; a popped key never comes
back, because each step only adds terms below the one it takes.  Each step
takes the largest pending term and divides it by the first stored divisor,
in push order, whose leading monomial divides it.  The core works
fraction-free on the primitive integer terms every Polynomial already
stores, so no input is rescaled: each step multiplies the work polynomial by
the smallest positive integer that keeps coefficients integral.  The
accumulated multiplier goes into the content of the normal form, which is
therefore exact, while the Buchberger loop simply strips content (it only
cares about ideal membership up to units).  A finished GroebnerBasis builds
its divisor table once, on the first normal_form against it, and keeps it as
long as it lives.

Pair selection follows the normal strategy: the pending pair with the
smallest lcm is processed first, ties broken by generator indices, which
makes every run deterministic.  Under grevlex and the block orders the lcm
is ranked by degree, then by order key; block orders need the degree first.
Under lex it is ranked by its order key alone, the normal strategy proper:
ranking by degree first made some small lex inputs run for minutes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd as int_gcd
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .errors import ZeroPolynomial
from .polynomials import (
    FIELD_BITS,
    GREVLEX,
    Exponent,
    MonomialOrder,
    Polynomial,
    VariableSet,
    check_degree,
    monomial_degree,
    monomial_lcm,
)

Q = Fraction

# When enabled, every basis returned by buchberger() is re-verified by
# reducing all S-polynomials of the result to zero.  The acceptance suite
# sets it; off by default because it roughly doubles the work.
_SELF_CHECK = False


_SLOT = FIELD_BITS + 1  # bits per exponent-word field, guard bit on top
_FIELD_MASK = (1 << FIELD_BITS) - 1


class _Reducer:
    """Divisor table of packed terms shared by reduction steps; grows during Buchberger.

    A stored divisor is a list of (key, word, coefficient) triples in
    decreasing key order, content-stripped with a positive leading
    coefficient.
    """

    def __init__(self, order: MonomialOrder, n: int):
        self.key = order.key
        self.shifts = range(0, _SLOT * n, _SLOT)
        self.top = _SLOT * n  # the degree field sits above the n exponents
        self.word_weights = tuple((1 << s) | (1 << self.top) for s in self.shifts)
        self.guard = sum(1 << (s + FIELD_BITS) for s in range(0, self.top + 1, _SLOT))
        self.lms: list[Exponent] = []
        self.lks: list[int] = []
        self.lws: list[int] = []
        self.lcs: list[int] = []
        self.degs: list[int] = []  # largest degree of a term, for the width check
        self.tails: list[list[tuple[int, int, int]]] = []
        self.polys: list[list[tuple[int, int, int]]] = []

    def word(self, e: Exponent) -> int:
        return sum(map(mul, e, self.word_weights))

    def exponent(self, w: int) -> Exponent:
        return tuple((w >> s) & _FIELD_MASK for s in self.shifts)

    def divides(self, a: int, b: int) -> bool:
        """True when the monomial of word a divides the monomial of word b."""
        return not (b - a) & self.guard

    def encode(self, terms: dict) -> tuple[dict[int, int], dict[int, int]]:
        """Coefficients and words, each keyed by order key, of exponent-keyed terms."""
        key = self.key
        work: dict[int, int] = {}
        words: dict[int, int] = {}
        for e, c in terms.items():
            k = key(e)
            work[k] = c
            words[k] = self.word(e)
        return work, words

    def packed_terms(self, terms: dict) -> list[tuple[int, int, int]]:
        work, words = self.encode(terms)
        return sorted(((k, words[k], c) for k, c in work.items()), reverse=True)

    def push(self, terms: list[tuple[int, int, int]]) -> None:
        """Store terms, given in decreasing key order, as the next divisor."""
        g = int_gcd(*(c for _, _, c in terms))
        if terms[0][2] < 0:
            g = -g
        if g != 1:
            terms = [(k, w, c // g) for k, w, c in terms]
        k, w, c = terms[0]
        self.lms.append(self.exponent(w))
        self.lks.append(k)
        self.lws.append(w)
        self.lcs.append(c)
        self.degs.append(max(map(itemgetter(1), terms)) >> self.top)
        self.tails.append(terms[1:])
        self.polys.append(terms)

    def reduce(self, work: dict[int, int], words: dict[int, int]) -> tuple[list, int]:
        """Full fraction-free reduction; returns (remainder, multiplier).

        work maps order keys to coefficients and words maps them, and any
        key whose term has cancelled, to exponent words; both are consumed.
        The remainder is a list of (key, word, coefficient) in decreasing key
        order.  Invariant: multiplier * input == remainder modulo the ideal
        spanned by the stored divisors, with multiplier a positive integer.
        """
        lks, lws, lcs, tails, degs = self.lks, self.lws, self.lcs, self.tails, self.degs
        guard, top = self.guard, self.top
        heap = [-k for k in words]
        heapq.heapify(heap)
        rem: list[tuple[int, int, int, int]] = []  # with the multiplier when appended
        mult = 1
        while heap:
            k = -heapq.heappop(heap)
            c = work.pop(k, 0)
            if not c:
                continue  # cancelled, or a stale copy of a key already taken
            w = words[k]
            for idx, lw in enumerate(lws):
                if not (w - lw) & guard:
                    break
            else:
                rem.append((k, w, c, mult))
                continue
            lc = lcs[idx]
            g = int_gcd(c, lc)
            a = lc // g
            b = c // g
            if a != 1:
                for t in work:
                    work[t] *= a
                mult *= a
            dk = k - lks[idx]
            dw = w - lw
            check_degree(degs[idx] + (dw >> top))
            for tk, tw, tc in tails[idx]:
                nk = tk + dk
                old = work.get(nk)
                if old is None:
                    work[nk] = -b * tc
                    if nk not in words:
                        words[nk] = tw + dw
                        heapq.heappush(heap, -nk)
                else:
                    s = old - b * tc
                    if s:
                        work[nk] = s
                    else:
                        del work[nk]
        return [(k, w, c * (mult // m)) for k, w, c, m in rem], mult

    def spoly(self, i: int, j: int, kbig: int, wbig: int) -> tuple[dict[int, int], dict[int, int]]:
        """S-polynomial of divisors i and j, as work and words; kbig and wbig pack their lcm."""
        lca, lcb = self.lcs[i], self.lcs[j]
        g = int_gcd(lca, lcb)
        work: dict[int, int] = {}
        words: dict[int, int] = {}
        # the leading terms cancel: lcb / g * lca == lca / g * lcb
        for idx, factor in ((i, lcb // g), (j, -(lca // g))):
            dk, dw = kbig - self.lks[idx], wbig - self.lws[idx]
            check_degree(self.degs[idx] + (dw >> self.top))
            for tk, tw, tc in self.tails[idx]:
                nk = tk + dk
                s = work.get(nk, 0) + factor * tc
                if s:
                    work[nk] = s
                    words[nk] = tw + dw
                else:
                    del work[nk]
        return work, words

    def polynomial(self, vars: VariableSet, terms, content) -> Polynomial:
        return Polynomial(vars, {self.exponent(w): c for _, w, c in terms}, content)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, inter-reduced, sorted by leading monomial."""

    basis: tuple[Polynomial, ...]
    order: MonomialOrder

    @cached_property
    def divisor_table(self) -> _Reducer:
        """The basis as packed divisors, built on first use; not part of == or hash."""
        table = _Reducer(self.order, len(self.basis[0].vars))
        for g in self.basis:
            table.push(table.packed_terms(g.terms))
        return table

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.basis


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

    red = _Reducer(order, len(vars))
    seeds = sorted((red.encode(f.terms) for f in nonzero), key=lambda seed: max(seed[0]))
    for work, words in seeds:
        r, _ = red.reduce(work, words)
        if not r:
            continue
        if r[0][0] == 0:  # the leading monomial is 1
            return _unit_basis(vars, order)
        red.push(r)

    heap: list = []
    pending: set[tuple[int, int]] = set()
    degree_first = order.kind != "lex"

    def queue_pairs(t: int) -> None:
        lmt = red.lms[t]
        for i in range(t):
            big = monomial_lcm(red.lms[i], lmt)
            rank = monomial_degree(big) if degree_first else 0
            heapq.heappush(heap, (rank, keyf(big), i, t, big))
            pending.add((i, t))

    for t in range(len(red.polys)):
        queue_pairs(t)

    while heap:
        _, kbig, i, j, big = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        wbig = red.word(big)
        if wbig == red.lws[i] + red.lws[j]:
            continue  # coprime leading monomials
        chained = False
        for k, lw in enumerate(red.lws):
            if k == i or k == j:
                continue
            if (
                red.divides(lw, wbig)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                chained = True
                break
        if chained:
            continue
        work, words = red.spoly(i, j, kbig, wbig)
        if not work:
            continue
        r, _ = red.reduce(work, words)
        if not r:
            continue
        if r[0][0] == 0:
            return _unit_basis(vars, order)
        red.push(r)
        queue_pairs(len(red.polys) - 1)

    basis = _reduce_basis(red, vars, order)
    result = GroebnerBasis(tuple(basis), order)
    if _SELF_CHECK and not is_groebner_basis(result.basis, order):
        raise AssertionError("Buchberger self-check failed: an S-polynomial does not reduce to 0")
    return result


def _reduce_basis(red: _Reducer, vars: VariableSet, order: MonomialOrder) -> list[Polynomial]:
    """Keep the divisors with minimal leading monomials and reduce their tails.

    No term below lm(g) is divisible by lm(g), so g's own tail never reduces
    by g: one table of all minimal divisors serves every tail, with the same
    choices as a table without g.
    """
    idxs = sorted(range(len(red.polys)), key=red.lks.__getitem__)
    minimal: list[int] = []
    for t in idxs:
        if not any(red.divides(red.lws[u], red.lws[t]) for u in minimal):
            minimal.append(t)
    table = _Reducer(order, len(vars))
    for t in minimal:
        table.push(red.polys[t])
    out: list[Polynomial] = []
    for poly, tail in zip(reversed(table.polys), reversed(table.tails)):
        rem, mult = table.reduce({k: c for k, _, c in tail}, {k: w for k, w, _ in tail})
        lk, lw, lc = poly[0]
        lc *= mult
        out.append(table.polynomial(vars, [(lk, lw, lc)] + rem, Q(1, lc)))
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
    form.  A GroebnerBasis lends its divisor table, built once per basis.
    """
    if f.is_zero():
        return f
    if isinstance(divisors, GroebnerBasis):
        if divisors.is_zero_ideal():
            return f
        red = divisors.divisor_table
    else:
        ds = [g for g in divisors if not g.is_zero()]
        if not ds:
            return f
        red = _Reducer(order, len(f.vars))
        for g in ds:
            red.push(red.packed_terms(g.terms))
    rem, mult = red.reduce(*red.encode(f.terms))
    return red.polynomial(f.vars, rem, f.content / mult)


def ideal_membership(f: Polynomial, gb: GroebnerBasis) -> bool:
    """True iff f reduces to zero modulo the Groebner basis gb."""
    return normal_form(f, gb).is_zero()


def is_groebner_basis(basis: Sequence[Polynomial], order: MonomialOrder) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return True
    red = _Reducer(order, len(polys[0].vars))
    for g in polys:
        red.push(red.packed_terms(g.terms))
    lms = red.lms
    for i in range(len(lms)):
        for j in range(i + 1, len(lms)):
            big = monomial_lcm(lms[i], lms[j])
            work, words = red.spoly(i, j, order.key(big), red.word(big))
            if work and red.reduce(work, words)[0]:
                return False
    return True
