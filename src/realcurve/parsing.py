"""Text format for ideals, and polynomial pretty-printing.

An ideal file is a header line

    vars: x, y, u, v

followed by one polynomial per non-empty line.  Polynomials are signed sums
of terms; a term multiplies rational constants (integer or a/b), variables,
and parenthesized subexpressions, with "*" optional between factors and "^"
for positive integer powers.  Whitespace is insignificant and "#" starts a
comment that runs to the end of the line.

Printing is the exact inverse: parse(print(ideal)) reproduces the ideal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import IdealSyntaxError, UnknownVariable, ZeroPolynomialLine
from .ideals import IdealPresentation, ideal
from .polynomials import GREVLEX, MonomialOrder, Polynomial, VariableSet

Q = Fraction

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | one of + - * / ^ ( )
    text: str
    line: int
    col: int


def _split_name(word: str, names: tuple[str, ...]) -> list[str] | None:
    """Split a run of letters into declared variable names (longest first).

    Variables may be juxtaposed without '*', so "xy" means x*y when x and y
    are declared but "xy" is not.  The split is the one a longest-first
    backtracking search finds.  Each suffix is solved once, from the end of
    the word, so a suffix that cannot be split is never tried again.
    """
    ordered = sorted(names, key=len, reverse=True)
    # first[i]: the name a split of word[i:] starts with, None if it has none
    first: list[str | None] = [None] * len(word) + [""]
    for i in range(len(word) - 1, -1, -1):
        first[i] = next(
            (n for n in ordered if word.startswith(n, i) and first[i + len(n)] is not None),
            None,
        )
    if first[0] is None:
        return None
    parts, i = [], 0
    while i < len(word):
        parts.append(first[i])
        i += len(first[i])
    return parts


def _tokenize(text: str, line_no: int, names: tuple[str, ...]) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#":
            return
        col = pos + 1
        if ch in "+-*/^()":
            yield _Token(ch, ch, line_no, col)
            pos += 1
            continue
        m = _INT_RE.match(text, pos)
        if m:
            yield _Token("int", m.group(), line_no, col)
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            word = m.group()
            parts = _split_name(word, names)
            if parts is None:
                raise UnknownVariable(f"unknown variable {word!r}", line_no, col)
            offset = 0
            for part in parts:
                yield _Token("name", part, line_no, col + offset)
                offset += len(part)
            pos = m.end()
            continue
        raise IdealSyntaxError(f"unexpected character {ch!r}", line_no, col)


class _PolynomialParser:
    """Recursive-descent parser for one polynomial line."""

    def __init__(self, tokens: list[_Token], variables: VariableSet, line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.vars = variables
        self.line = line_no

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = last.col + len(last.text) if last else 1
            raise IdealSyntaxError("unexpected end of line", self.line, col)
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expression()
        tok = self.peek()
        if tok is not None:
            raise IdealSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return p

    def expression(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        while tok is not None and tok.kind in "+-":
            self.take()
            if tok.kind == "-":
                sign = -sign
            tok = self.peek()
        acc = self.term().scale(sign)
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in "+-":
                return acc
            sign = 1
            while tok is not None and tok.kind in "+-":
                self.take()
                if tok.kind == "-":
                    sign = -sign
                tok = self.peek()
            acc = acc + self.term().scale(sign)

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return acc
            if tok.kind == "*":
                self.take()
                acc = acc * self.factor()
            elif tok.kind in ("name", "(", "int"):
                # implicit multiplication: 2x^2y, 3(x+y)
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.take()
            exp = self.take()
            if exp.kind != "int":
                raise IdealSyntaxError("exponent must be an integer", exp.line, exp.col)
            power = int(exp.text)
            if power < 1:
                raise IdealSyntaxError("exponent must be positive", exp.line, exp.col)
            return base**power
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok.kind == "int":
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.take()
                den_tok = self.take()
                if den_tok.kind != "int":
                    raise IdealSyntaxError(
                        "denominator must be an integer", den_tok.line, den_tok.col
                    )
                denominator = int(den_tok.text)
                if denominator == 0:
                    raise IdealSyntaxError("zero denominator", den_tok.line, den_tok.col)
                return Polynomial.constant(self.vars, Q(numerator, denominator))
            return Polynomial.constant(self.vars, numerator)
        if tok.kind == "name":
            if tok.text not in self.vars.names:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
            return Polynomial.variable(self.vars, tok.text)
        if tok.kind == "(":
            inner = self.expression()
            closing = self.take()
            if closing.kind != ")":
                raise IdealSyntaxError("expected ')'", closing.line, closing.col)
            return inner
        raise IdealSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)


def parse_polynomial(text: str, variables: VariableSet, line_no: int = 1) -> Polynomial:
    tokens = list(_tokenize(text, line_no, variables.names))
    if not tokens:
        raise IdealSyntaxError("empty polynomial", line_no, 1)
    return _PolynomialParser(tokens, variables, line_no).parse()


def parse_ideal(text: str) -> IdealPresentation:
    """Parse an ideal file (see the module docstring for the grammar)."""
    lines = text.splitlines()
    variables: VariableSet | None = None
    gens: list[Polynomial] = []
    for idx, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if variables is None:
            m = re.match(r"vars\s*:", stripped)
            if not m:
                raise IdealSyntaxError("expected a 'vars:' header line", idx, 1)
            names = [n.strip() for n in stripped[m.end() :].split(",")]
            if names == [""]:
                raise IdealSyntaxError("empty variable list", idx, m.end() + 1)
            for n in names:
                if not _NAME_RE.fullmatch(n):
                    raise IdealSyntaxError(f"bad variable name {n!r}", idx, 1)
            if len(set(names)) != len(names):
                raise IdealSyntaxError("duplicate variable name", idx, 1)
            variables = VariableSet(tuple(names))
            continue
        poly = parse_polynomial(raw.split("#", 1)[0], variables, idx)
        if poly.is_zero():
            raise ZeroPolynomialLine("polynomial simplifies to zero", idx, 1)
        gens.append(poly)
    if variables is None:
        raise IdealSyntaxError("missing 'vars:' header", max(1, len(lines)), 1)
    return ideal(variables, gens)


# ---------------------------------------------------------------------------
# printing


def polynomial_to_string(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for e, c in f.sorted_terms(order):
        factors = []
        for name, k in zip(f.vars.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        abs_c = abs(c)
        if not factors or abs_c != 1:
            factors.insert(0, str(abs_c))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ideal_to_string(i: IdealPresentation, order: MonomialOrder = GREVLEX) -> str:
    lines = [f"vars: {','.join(i.variables.names)}"]
    lines += [polynomial_to_string(g, order) for g in i.generators]
    return "\n".join(lines) + "\n"
