"""Multivariate polynomials over the rationals.

Representation: a polynomial is content * (primitive integer polynomial).
The integer part maps exponent tuples to nonzero ints whose gcd is 1 and
carries the signs; the content is one positive Fraction (0 for the zero
polynomial).  Every polynomial is kept in this form, so equal polynomials
have equal terms and content, arithmetic runs on Python ints with a few
rational operations per polynomial instead of one per term, and the
Groebner engine reduces the terms as they are.  A VariableSet fixes which
position of an exponent tuple belongs to which variable.  Exponent tuples
are dense (one entry per variable); at the variable counts handled here
(n <= ~20) this is simpler and faster than sparse pairs and gives
deterministic iteration.

Monomial orders are separate context objects, not baked into polynomial
values, so one polynomial can be ranked under several orders during a single
computation (a block elimination order for a Groebner run, a plain degree
order elsewhere).  An order ranks x^e by one int, ``MonomialOrder.key(e)``,
which packs a list of fields of FIELD_BITS bits each, most significant
first.  grevlex packs (deg, deg - e_n, deg - e_n - e_(n-1), ..., e_1), lex
packs (e_1, ..., e_n), and a block order with split k packs the grevlex
fields of e_1..e_k followed by those of the rest.  Every field is a linear
function of e with values between 0 and the total degree, so comparing keys
as ints compares the field lists lexicographically, which is the monomial
order, and key(a + b) == key(a) + key(b) as long as no field reaches
2**FIELD_BITS.  ``key`` raises DegreeTooLarge once the degree reaches that
bound instead of mis-ordering.

This module has no gcd of its own: ``squarefree_part`` takes its gcds from
``ideals.multivariate_gcd``, which reads them off an ideal quotient.
``certifies_squarefree`` decides modulo a prime alone and may refuse a
squarefree input; ``is_squarefree`` is exact: it runs the same modular test
at one point and falls back to ``squarefree_part`` when that decides nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd as int_gcd
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import DegreeTooLarge, VariableSetMismatch, ZeroPolynomial

Q = Fraction
Exponent = tuple  # tuple[int, ...], one entry per variable


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class VariableSet:
    """Ordered, duplicate-free tuple of variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @staticmethod
    def of(*names: str) -> "VariableSet":
        return VariableSet(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __str__(self) -> str:
        return ",".join(self.names)


# ---------------------------------------------------------------------------
# monomial orders

FIELD_BITS = 16  # W: no packed field may reach 2**W


def _grevlex_fields(lo: int, hi: int) -> list[range]:
    # deg, deg - e_hi, deg - e_hi - e_(hi-1), ... over the variables lo..hi-1
    return [range(lo, hi - j) for j in range(hi - lo)]


@cache
def _key_weights(kind: str, split: int, n: int) -> tuple[int, ...]:
    """Per-variable weights w with key(e) = sum(e_i * w_i), one W-bit field each."""
    if kind == "lex":
        fields = [range(i, i + 1) for i in range(n)]
    elif kind == "grevlex":
        fields = _grevlex_fields(0, n)
    else:
        k = min(split, n)
        fields = _grevlex_fields(0, k) + _grevlex_fields(k, n)
    weights = [0] * n
    for shift, field in enumerate(reversed(fields)):
        for i in field:
            weights[i] += 1 << (FIELD_BITS * shift)
    return tuple(weights)


def check_degree(degree: int) -> None:
    """Raise DegreeTooLarge unless a monomial of this degree fits the packed keys."""
    if degree >> FIELD_BITS:
        raise DegreeTooLarge(
            f"monomial of degree {degree} is too large for packed order keys"
            f" (limit 2^{FIELD_BITS})"
        )


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a two-block elimination order.

    A block order with split k compares the first k exponents by grevlex and
    breaks ties with grevlex on the rest; it eliminates the first k variables.
    """

    kind: str  # "lex" | "grevlex" | "block"
    split: int = 0

    def key(self, e: Exponent) -> int:
        """The packed order key of x^e: ints compare as the monomials do.

        Raises DegreeTooLarge when the degree of e reaches 2**FIELD_BITS.
        """
        check_degree(sum(e))
        return sum(map(mul, e, _key_weights(self.kind, self.split, len(e))))

    def __str__(self) -> str:
        return f"elim:{self.split}" if self.kind == "block" else self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(split: int) -> MonomialOrder:
    if split <= 0:
        raise ValueError("block order needs a positive split")
    return MonomialOrder("block", split)


def monomial_divides(a: Exponent, b: Exponent) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def monomial_div(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def monomial_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def monomial_degree(e: Exponent) -> int:
    return sum(e)


# ---------------------------------------------------------------------------
# polynomials


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two integer term dictionaries."""
    if len(a) > len(b):
        a, b = b, a
    out: dict[Exponent, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q: content * terms.

    terms maps exponent tuples to nonzero ints with gcd 1 (the sign lives in
    the terms) and content is a positive Fraction, 0 for the zero polynomial,
    so equal polynomials have equal terms and content.
    """

    __slots__ = ("vars", "terms", "content")

    def __init__(self, vars: VariableSet, terms: dict[Exponent, int], content=1):
        """Normalise nonzero integer terms times a nonzero rational content.

        The gcd of the terms, signed to make the content positive, moves
        into the content.  The dict is taken over, not copied.
        """
        self.vars = vars
        if not terms:
            self.terms, self.content = terms, Q(0)
            return
        g = int_gcd(*terms.values())
        if content < 0:
            g = -g
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            content *= g
        self.terms, self.content = terms, _as_fraction(content)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(vars: VariableSet) -> "Polynomial":
        return Polynomial(vars, {})

    @staticmethod
    def constant(vars: VariableSet, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial(vars, {(0,) * len(vars): 1} if c else {}, c)

    @staticmethod
    def one(vars: VariableSet) -> "Polynomial":
        return Polynomial.constant(vars, 1)

    @staticmethod
    def variable(vars: VariableSet, which: int | str) -> "Polynomial":
        i = vars.index(which) if isinstance(which, str) else which
        e = [0] * len(vars)
        e[i] = 1
        return Polynomial(vars, {tuple(e): 1})

    @staticmethod
    def from_terms(vars: VariableSet, terms: Mapping[Exponent, object]) -> "Polynomial":
        """The polynomial with these rational coefficients; zeros are dropped."""
        coeffs = {tuple(e): q for e, c in terms.items() if (q := _as_fraction(c))}
        den = 1
        for c in coeffs.values():
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        return Polynomial(vars, ints, Q(1, den))

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(monomial_degree(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.content * self.terms.get((0,) * len(self.vars), 0)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> Exponent:
        if not self.terms:
            raise ZeroPolynomial("leading monomial of the zero polynomial")
        return max(self.terms, key=order.key)

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Exponent, Fraction]]:
        c = self.content
        return sorted(
            ((e, c * k) for e, k in self.terms.items()),
            key=lambda t: order.key(t[0]),
            reverse=True,
        )

    def _check_same_ring(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableSetMismatch(
                f"operands in different rings: ({self.vars}) vs ({other.vars})"
            )

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        # self + sign * other = (content / q) * (q * terms + p * other.terms)
        # with p / q = sign * other.content / self.content in lowest terms
        self._check_same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other if sign > 0 else -other
        ratio = other.content / self.content
        p, q = sign * ratio.numerator, ratio.denominator
        out = {e: q * c for e, c in self.terms.items()} if q != 1 else dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + p * c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.vars, out, self.content / q)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()}, self.content)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.vars)
        return Polynomial(
            self.vars, _mul_terms(self.terms, other.terms), self.content * other.content
        )

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0 or not self.terms:
            return Polynomial.zero(self.vars)
        return Polynomial(self.vars, self.terms, self.content * c)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        content = self.content**n
        result = {(0,) * len(self.vars): 1}
        base = self.terms
        while n:
            if n & 1:
                result = _mul_terms(result, base)
            base = _mul_terms(base, base) if n > 1 else base
            n >>= 1
        return Polynomial(self.vars, result, content)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.content == other.content
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.content, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .parsing import polynomial_to_string

        return f"<{polynomial_to_string(self)}>"

    # -- calculus and translation --------------------------------------------

    def partial_derivative(self, var: int | str) -> "Polynomial":
        i = self.vars.index(var) if isinstance(var, str) else var
        out: dict[Exponent, int] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return Polynomial(self.vars, out, self.content)

    def evaluate(self, point: Sequence) -> Fraction:
        """f(p), summed over the common denominator prod d_i^(deg_i f) of p = n / d."""
        coords = [_as_fraction(x) for x in point]
        if len(coords) != len(self.vars):
            raise VariableSetMismatch("point length does not match variable count")
        if not self.terms:
            return Q(0)
        # scaled[i][k] = n_i^k * d_i^(top_i - k), the scaled power x_i^k
        scaled, den = [], 1
        for i, x in enumerate(coords):
            n, d, top = x.numerator, x.denominator, self.degree_in(i)
            scaled.append([n**k * d ** (top - k) for k in range(top + 1)])
            den *= d**top
        total = 0
        for e, c in self.terms.items():
            for row, k in zip(scaled, e):
                c *= row[k]
            total += c
        return Q(self.content.numerator * total, self.content.denominator * den)

    def translate(self, point: Sequence) -> "Polynomial":
        """Return f(x + p); translating back by -p restores f.

        One Taylor shift per variable: x_i^j goes to sum_m C(j, m) x_i^m s^(j - m)
        with s = n / d, scaled by d^top (top the degree of f in x_i) so that
        every coefficient stays an integer.
        """
        coords = [_as_fraction(x) for x in point]
        if len(coords) != len(self.vars):
            raise VariableSetMismatch("point length does not match variable count")
        if not self.terms or not any(coords):
            return self
        terms, den = self.terms, 1
        for i, x in enumerate(coords):
            if not x:
                continue
            n, d, top = x.numerator, x.denominator, self.degree_in(i)
            # shift[j][m] = C(j, m) * n^(j - m) * d^(top - j + m)
            shift = [
                [comb(j, m) * n ** (j - m) * d ** (top - j + m) for m in range(j + 1)]
                for j in range(top + 1)
            ]
            out: dict[Exponent, int] = {}
            for e, c in terms.items():
                head, tail = e[:i], e[i + 1 :]
                for m, s in enumerate(shift[e[i]]):
                    t = head + (m,) + tail
                    out[t] = out.get(t, 0) + c * s
            terms = {e: c for e, c in out.items() if c}
            den *= d**top
        return Polynomial(self.vars, terms, self.content / den)

    # -- normal forms ----------------------------------------------------------

    def primitive(self) -> "Polynomial":
        """Drop the content and make the grevlex leading coefficient positive."""
        if not self.terms:
            return self
        lc = self.terms[self.leading_monomial(GREVLEX)]
        return Polynomial(self.vars, self.terms, 1 if lc > 0 else -1)


# ---------------------------------------------------------------------------
# ring utilities


def ring_map(
    f: Polynomial, target: VariableSet, images: Sequence[Polynomial]
) -> Polynomial:
    """Apply the ring homomorphism sending variable i of f to images[i].

    All images must live in the target ring.  This is the workhorse behind
    blow-up chart substitutions, pullback composition, and variable
    renaming.  With images[i] = (n_i / d_i) * P_i, scaling by the product of
    d_i^(degree of f in variable i) keeps every coefficient of the expansion
    an integer.  Each P_i^k is built once per call, as P_i^(k-1) * P_i.
    """
    if len(images) != len(f.vars):
        raise VariableSetMismatch("one image per source variable required")
    for g in images:
        if g.vars != target:
            raise VariableSetMismatch("image lives outside the target ring")
    # scales[i][k] = n_i^k * d_i^(top_i - k) and powers[i][k] = P_i^k
    one = {(0,) * len(target): 1}
    scales, powers, den = [], [], 1
    for i, g in enumerate(images):
        top, n, d = max(f.degree_in(i), 0), g.content.numerator, g.content.denominator
        scales.append([n**k * d ** (top - k) for k in range(top + 1)])
        table = [one, g.terms]
        for _ in range(top - 1):
            table.append(_mul_terms(table[-1], g.terms))
        powers.append(table)
        den *= d**top
    out: dict[Exponent, int] = {}
    for e, c in f.terms.items():
        product = one
        for scale, table, k in zip(scales, powers, e):
            c *= scale[k]
            if k:
                product = table[k] if product is one else _mul_terms(product, table[k])
        for te, tc in product.items():
            out[te] = out.get(te, 0) + c * tc
    return Polynomial(target, {e: c for e, c in out.items() if c}, f.content / den)


def rename_variables(f: Polynomial, target: VariableSet) -> Polynomial:
    """Transport f into target by matching variable names (any position)."""
    images = [Polynomial.variable(target, name) for name in f.vars]
    return ring_map(f, target, images)


def exact_divide(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise.

    Divides the primitive integer terms: by Gauss's lemma their exact
    quotient is integral, so a leading coefficient that does not divide
    already proves the division inexact.  Each term is keyed once: keys add
    under multiplication, so the term t * x^d of a step has the key
    key(t) + key(d).  Pending terms sit in a dict keyed by order key and
    their keys in a max-heap; a key popped never comes back, because each
    step only adds terms below the one it takes.
    """
    if g.is_zero():
        raise ZeroPolynomial("division by zero polynomial")
    f._check_same_ring(g)
    key = order.key
    lm = g.leading_monomial(order)
    lc, lk = g.terms[lm], key(lm)
    tail = [(key(e), e, c) for e, c in g.terms.items() if e != lm]
    top = max(map(sum, g.terms))  # the largest degree of a term of g
    exponents = {key(e): e for e in f.terms}
    rest = {k: f.terms[e] for k, e in exponents.items()}
    heap = [-k for k in rest]
    heapq.heapify(heap)
    quotient: dict[Exponent, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rest.pop(k, 0)
        if not c:
            continue
        e = exponents[k]
        c, r = divmod(c, lc)
        if r or not monomial_divides(lm, e):
            raise ValueError("not an exact polynomial division")
        d = monomial_div(e, lm)
        # under lex a tail term of g may outweigh lm in degree, so the step
        # can make a term of larger degree than any pending one
        check_degree(top + sum(d))
        quotient[d] = c
        dk = k - lk
        for tk, te, tc in tail:
            nk = tk + dk
            s = rest.get(nk, 0) - tc * c
            if s:
                rest[nk] = s
            else:
                del rest[nk]
            if nk not in exponents:
                exponents[nk] = monomial_mul(te, d)
                heapq.heappush(heap, -nk)
    return Polynomial(f.vars, quotient, f.content / g.content)


def squarefree_part(f: Polynomial) -> Polynomial:
    """f divided by gcd(f, all partial derivatives), content-normalized.

    For univariate input this is the classical f / gcd(f, f').  The gcd
    comes from the ideal layer, which imports this module.
    """
    from .ideals import multivariate_gcd

    if f.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    if f.is_constant():
        return Polynomial.one(f.vars)
    g = Polynomial.zero(f.vars)
    for i in range(len(f.vars)):
        g = multivariate_gcd(g, f.partial_derivative(i))
        if g.is_constant() and not g.is_zero():
            return f.primitive()
    g = multivariate_gcd(f, g)
    if g.is_constant():
        return f.primitive()
    return exact_divide(f, g).primitive()


# The modular squarefree certificate maps f to F_p[v]: every variable other
# than v takes its coordinate of an evaluation point, and point k sets
# variable i of n to _SQUAREFREE_SEED ** (k * n + i + 1) mod _SQUAREFREE_PRIME.
_SQUAREFREE_PRIME = (1 << 61) - 1
_SQUAREFREE_SEED = 0x9E3779B97F4A7C15 % _SQUAREFREE_PRIME


def _evaluation_point(n: int, k: int = 0) -> list[int]:
    return [pow(_SQUAREFREE_SEED, k * n + i + 1, _SQUAREFREE_PRIME) for i in range(n)]


def _univariate_image(f: Polynomial, var: int, point: Sequence[int]) -> list[int]:
    """The primitive integer terms of f in F_p[var], lowest degree first.

    Every other variable takes its coordinate of the point, modulo p.
    """
    p = _SQUAREFREE_PRIME
    out = [0] * (f.degree_in(var) + 1)
    for e, c in f.terms.items():
        for i, (a, k) in enumerate(zip(point, e)):
            if k and i != var:
                c = c * pow(a, k, p)
        out[e[var]] = (out[e[var]] + c) % p
    return out


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """True when gcd(a, b) = 1 in F_p[v]; both lowest degree first, b[-1] != 0."""
    p = _SQUAREFREE_PRIME
    a = list(a)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _images_pass(f: Polynomial, points: Iterable[Sequence[int]]) -> bool:
    """True when each variable v of positive degree in f passes at one of the points.

    v passes at a point when the image of f in F_p[v] keeps the v-degree of
    f and is coprime to its derivative.  The points are taken in order, each
    only while a variable has not passed.  Raises ZeroPolynomial for f = 0.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefree test of the zero polynomial")
    p = _SQUAREFREE_PRIME

    def passes(var: int, point: Sequence[int]) -> bool:
        g = _univariate_image(f, var, point)
        return bool(g[-1]) and _coprime_mod_p(g, [k * c % p for k, c in enumerate(g)][1:])

    pending = [v for v in range(len(f.vars)) if f.degree_in(v) > 0]
    for point in points:
        pending = [v for v in pending if not passes(v, point)]
        if not pending:
            break
    return not pending


def certifies_squarefree(f: Polynomial) -> bool:
    """True when the modular images prove f squarefree; False decides nothing.

    The test of is_squarefree at the fixed points 0, 1 and 2, with no exact
    fallback: each variable must pass at one of them.  A point is built only
    when a variable has not passed at the points before it.  Its argument holds
    per variable and at any point, so this is sound; a squarefree f unlucky
    at point 0 usually passes at another.  Raises ZeroPolynomial for f = 0.
    """
    return _images_pass(f, (_evaluation_point(len(f.vars), k) for k in range(3)))


def is_squarefree(f: Polynomial) -> bool:
    """True when f has no repeated nonconstant factor over Q.

    Fast path modulo the prime p = 2^61 - 1: for each variable v of
    positive degree in f, let g be the image of f in F_p[v] with every
    other variable set to its coordinate of a fixed evaluation point.  If
    g keeps the v-degree of f and gcd(g, g') = 1, no square q^2 with
    deg_v q > 0 divides f: lc_v(f) does not vanish at the point, so neither
    does lc_v(q), and the image of q, of positive degree, would divide
    gcd(g, g').  A factor of positive degree in no variable is a constant,
    so when every variable passes, f is squarefree.  Otherwise nothing is
    decided and the answer comes from the exact squarefree_part.  The
    radicality certificate uses certifies_squarefree instead: this test at
    more points, without the fallback.  Raises ZeroPolynomial for f = 0.
    """
    return _images_pass(f, [_evaluation_point(len(f.vars))]) or squarefree_part(f) == f.primitive()
