"""Multivariate polynomials over the rationals.

Representation: a polynomial is a mapping from exponent tuples to nonzero
Fraction coefficients, together with the VariableSet that fixes which position
of the tuple belongs to which variable.  Exponent tuples are dense (one entry
per variable); at the variable counts handled here (n <= ~20) this is simpler
and faster than sparse pairs and gives deterministic iteration.

Monomial orders are separate context objects, not baked into polynomial
values, so one polynomial can be ranked under several orders during a single
computation (a block elimination order for a Groebner run, a plain degree
order elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Mapping, Sequence

from .errors import VariableSetMismatch, ZeroPolynomial

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


def _grevlex_key(e: Exponent):
    total = 0
    for v in e:
        total += v
    return (total, tuple(-v for v in reversed(e)))


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a two-block elimination order.

    A block order with split k compares the first k exponents by grevlex and
    breaks ties with grevlex on the rest; it eliminates the first k variables.
    """

    kind: str  # "lex" | "grevlex" | "block"
    split: int = 0

    def key(self, e: Exponent):
        if self.kind == "grevlex":
            return _grevlex_key(e)
        if self.kind == "lex":
            return e
        k = self.split
        return (_grevlex_key(e[:k]), _grevlex_key(e[k:]))

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
    return tuple(x + y for x, y in zip(a, b))


def monomial_div(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(e: Exponent) -> int:
    return sum(e)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet, terms: Mapping[Exponent, Fraction]):
        self.vars = vars
        self.terms = dict(terms)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(vars: VariableSet) -> "Polynomial":
        return Polynomial(vars, {})

    @staticmethod
    def constant(vars: VariableSet, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial(vars, {})
        return Polynomial(vars, {(0,) * len(vars): c})

    @staticmethod
    def one(vars: VariableSet) -> "Polynomial":
        return Polynomial.constant(vars, 1)

    @staticmethod
    def variable(vars: VariableSet, which: int | str) -> "Polynomial":
        i = vars.index(which) if isinstance(which, str) else which
        e = [0] * len(vars)
        e[i] = 1
        return Polynomial(vars, {tuple(e): Q(1)})

    @staticmethod
    def from_terms(vars: VariableSet, terms: Mapping[Exponent, object]) -> "Polynomial":
        out: dict[Exponent, Fraction] = {}
        for e, c in terms.items():
            c = _as_fraction(c)
            if c != 0:
                out[tuple(e)] = c
        return Polynomial(vars, out)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(monomial_degree(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Q(0))

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> Exponent:
        if not self.terms:
            raise ZeroPolynomial("leading monomial of the zero polynomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def _check_same_ring(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableSetMismatch(
                f"operands in different rings: ({self.vars}) vs ({other.vars})"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.vars, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        if not self.terms or not other.terms:
            return Polynomial(self.vars, {})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponent, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.vars, out)

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial(self.vars, {})
        return Polynomial(self.vars, {e: k * c for e, k in self.terms.items()})

    def mul_monomial(self, e: Exponent, c=1) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial(self.vars, {})
        return Polynomial(
            self.vars,
            {tuple(x + y for x, y in zip(t, e)): k * c for t, k in self.terms.items()},
        )

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .parsing import polynomial_to_string

        return f"<{polynomial_to_string(self)}>"

    # -- calculus and substitution -------------------------------------------

    def partial_derivative(self, var: int | str) -> "Polynomial":
        i = self.vars.index(var) if isinstance(var, str) else var
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return Polynomial(self.vars, out)

    def evaluate(self, point: Sequence) -> Fraction:
        coords = [_as_fraction(x) for x in point]
        if len(coords) != len(self.vars):
            raise VariableSetMismatch("point length does not match variable count")
        total = Q(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(coords, e):
                if k:
                    v *= x**k
            total += v
        return total

    def substitute(self, images: Mapping[int | str, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution var -> polynomial.

        Unmentioned variables are kept, which requires every image (and the
        result) to live in the same ring as self.
        """
        imgs: dict[int, Polynomial] = {}
        for which, g in images.items():
            i = self.vars.index(which) if isinstance(which, str) else which
            self._check_same_ring(g)
            imgs[i] = g
        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, k: int) -> Polynomial:
            got = pow_cache.get((i, k))
            if got is None:
                got = imgs[i] ** k
                pow_cache[(i, k)] = got
            return got

        result = Polynomial.zero(self.vars)
        for e, c in self.terms.items():
            passthrough = list(e)
            factor = Polynomial.constant(self.vars, c)
            for i in imgs:
                if e[i]:
                    passthrough[i] = 0
                    factor = factor * power(i, e[i])
            term = factor.mul_monomial(tuple(passthrough))
            result = result + term
        return result

    def translate(self, point: Sequence) -> "Polynomial":
        """Return f(x + p); translating back by -p restores f."""
        coords = [_as_fraction(x) for x in point]
        if len(coords) != len(self.vars):
            raise VariableSetMismatch("point length does not match variable count")
        images = {
            i: Polynomial.variable(self.vars, i)
            + Polynomial.constant(self.vars, coords[i])
            for i in range(len(self.vars))
            if coords[i] != 0
        }
        if not images:
            return self
        return self.substitute(images)

    # -- content and normal forms ---------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coprime; 0 for the zero poly."""
        if not self.terms:
            return Q(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        return Q(num, den)

    def primitive(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        """Strip content and normalize the sign of the leading coefficient."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading_coefficient(order) < 0:
            c = -c
        return self.scale(1 / c)

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(1 / self.leading_coefficient(order))


# ---------------------------------------------------------------------------
# ring utilities


def ring_map(
    f: Polynomial, target: VariableSet, images: Sequence[Polynomial]
) -> Polynomial:
    """Apply the ring homomorphism sending variable i of f to images[i].

    All images must live in the target ring.  This is the workhorse behind
    blow-up chart substitutions, pullback composition, and variable renaming.
    """
    if len(images) != len(f.vars):
        raise VariableSetMismatch("one image per source variable required")
    for g in images:
        if g.vars != target:
            raise VariableSetMismatch("image lives outside the target ring")
    pow_cache: dict[tuple[int, int], Polynomial] = {}

    def power(i: int, k: int) -> Polynomial:
        got = pow_cache.get((i, k))
        if got is None:
            got = images[i] ** k
            pow_cache[(i, k)] = got
        return got

    result = Polynomial.zero(target)
    for e, c in f.terms.items():
        term = Polynomial.constant(target, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        result = result + term
    return result


def rename_variables(f: Polynomial, target: VariableSet) -> Polynomial:
    """Transport f into target by matching variable names (any position)."""
    images = [Polynomial.variable(target, name) for name in f.vars]
    return ring_map(f, target, images)


def exact_divide(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero():
        raise ZeroPolynomial("division by zero polynomial")
    f._check_same_ring(g)
    quotient: dict[Exponent, Fraction] = {}
    rest = dict(f.terms)
    lm = g.leading_monomial(order)
    lc = g.terms[lm]
    while rest:
        e = max(rest, key=order.key)
        if not monomial_divides(lm, e):
            raise ValueError("not an exact polynomial division")
        c = rest[e] / lc
        d = monomial_div(e, lm)
        quotient[d] = c
        for te, tc in g.terms.items():
            k = monomial_mul(te, d)
            s = rest.get(k, 0) - tc * c
            if s:
                rest[k] = s
            else:
                rest.pop(k, None)
    return Polynomial(f.vars, quotient)


def _coefficients_in(f: Polynomial, var: int) -> dict[int, Polynomial]:
    """View f as univariate in var with polynomial coefficients."""
    out: dict[int, dict[Exponent, Fraction]] = {}
    for e, c in f.terms.items():
        d = e[var]
        stripped = list(e)
        stripped[var] = 0
        out.setdefault(d, {})[tuple(stripped)] = c
    return {d: Polynomial(f.vars, t) for d, t in out.items()}


def _active_vars(f: Polynomial) -> set[int]:
    active: set[int] = set()
    for e in f.terms:
        for i, k in enumerate(e):
            if k:
                active.add(i)
    return active


def _pseudo_remainder(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """prem(f, g) with respect to var: lc(g)^(df-dg+1) * f mod g."""
    df, dg = f.degree_in(var), g.degree_in(var)
    gc = _coefficients_in(g, var)
    lc = gc[dg]
    r = f
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        rc = _coefficients_in(r, var)
        lead = rc[dr]
        shift = [0] * len(f.vars)
        shift[var] = dr - dg
        r = r * lc - g * lead.mul_monomial(tuple(shift))
    return r


def multivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd over Q by recursive content / primitive-part reduction.

    Adequate at desk scale; the base case is the Euclidean algorithm hidden in
    the pseudo-remainder loop over the last active variable.
    """
    f._check_same_ring(g)
    vars = f.vars
    if f.is_zero():
        return g.primitive() if not g.is_zero() else g
    if g.is_zero():
        return f.primitive()
    if f.is_constant() or g.is_constant():
        return Polynomial.one(vars)
    active = _active_vars(f) | _active_vars(g)
    var = max(active)

    def content_wrt(p: Polynomial) -> Polynomial:
        coeffs = list(_coefficients_in(p, var).values())
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = multivariate_gcd(acc, c)
            if acc.is_constant():
                return Polynomial.one(vars)
        return acc.primitive()

    cf, cg = content_wrt(f), content_wrt(g)
    fp = exact_divide(f, cf)
    gp = exact_divide(g, cg)
    if fp.degree_in(var) < gp.degree_in(var):
        fp, gp = gp, fp
    while not gp.is_zero():
        r = _pseudo_remainder(fp, gp, var)
        if not r.is_zero():
            r = exact_divide(r, content_wrt(r))
        fp, gp = gp, r
    result = exact_divide(fp, content_wrt(fp)) * multivariate_gcd(cf, cg)
    return result.primitive()


def squarefree_part(f: Polynomial) -> Polynomial:
    """f divided by gcd(f, all partial derivatives), content-normalized.

    For univariate input this is the classical f / gcd(f, f').
    """
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
