"""Parser and canonical printer for differential-polynomial expressions.

Grammar (a superset of the documented sketch; the printer only emits the
canonical fragment):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := primary ('^' exp)*
    primary := number | jet | generator | '(' expr ')'
    jet     := deriv* var
    deriv   := 'd' nat ('^' exp)? | 'D' ('^' exp)?
    var     := 'x' nat | 'y' nat | 'x' nat '_' nat      (y = block 2, _b = block b)
    number  := nat
    exp     := nat at most MAX_EXPONENT, and at most MAX_EXPANSION_TERMS
               terms in the expansion of the power it raises

Derivation names commute, so 'd1 d2 x1' and 'd2 d1 x1' normalize to the same
multi-index. 'D' jets are only valid in full-alphabet contexts. '/' performs
exact field division and requires a scalar (degree-zero) divisor.

Printing is deterministic: monomials ascending by (total degree, then the
ranking keys of their factors with multiplicity); factors within a monomial
ascending by block-then-ranking; rational coefficients as "p/q" with "/q"
omitted when q = 1. parse(print(f)) == f.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .deltaring import Context, DeltaPoly, DerivOp, Jet
from .exact import MultiPoly, RationalFunction
from .fields import BaseFieldElement, BaseFieldSpec


# Largest exponent after '^' that the parser accepts, so that a short input
# cannot ask for an unbounded number of multiplications.
MAX_EXPONENT = 100

# Most terms that one '^' may expand to. A base of T terms raised to k has at
# most comb(T + k - 1, k) terms, and the parser refuses a power whose bound
# exceeds this before multiplying, so that a short input cannot ask for an
# unbounded expansion.
MAX_EXPANSION_TERMS = 1000


class ParseError(Exception):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)

_DERIV_RE = re.compile(r"^d(\d+)$")
_VAR_RE = re.compile(r"^x(\d+)(?:_(\d+))?$")
_VAR_Y_RE = re.compile(r"^y(\d+)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def accept_op(self, text):
        t = self.peek()
        if t.kind == "op" and t.text == text:
            self.next()
            return True
        return False

    def expect_op(self, text):
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}", t.pos)

    def expect_exponent(self) -> int:
        t = self.next()
        if t.kind != "num":
            raise ParseError("expected a number", t.pos)
        k = int(t.text)
        if k > MAX_EXPONENT:
            raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}", t.pos)
        return k


class _PolySemantics:
    """Builds DeltaPoly values over a Context."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def number(self, n: int):
        return self.ctx.const(Fraction(n))

    def classify(self, name: str):
        if name == "D":
            return "D"
        if _DERIV_RE.match(name):
            return "deriv"
        if _VAR_RE.match(name) or _VAR_Y_RE.match(name):
            return "var"
        return "gen"

    def name(self, token: _Token, stream: _Stream):
        kind = self.classify(token.text)
        if kind == "gen":
            if token.text not in self.ctx.field.generators:
                raise ParseError(f"unknown generator {token.text!r}", token.pos)
            return self.ctx.const(self.ctx.field.gen(token.text))
        return self._jet(token, stream)

    def _deriv_index(self, token: _Token) -> int:
        ctx = self.ctx
        if token.text == "D":
            if ctx.dee is not None or ctx.num_ops != ctx.field.num_derivations:
                raise ParseError(
                    "D-jets are only valid in full-alphabet contexts", token.pos
                )
            return ctx.num_ops - 1
        i = int(_DERIV_RE.match(token.text).group(1))
        limit = ctx.num_ops - 1 if ctx.dee is None else ctx.num_ops
        if not 1 <= i <= limit:
            raise ParseError("derivation index out of range", token.pos)
        return i - 1

    def _jet(self, token: _Token, stream: _Stream):
        ctx = self.ctx
        exps = [0] * ctx.num_ops
        t = token
        while True:
            kind = self.classify(t.text)
            if kind in ("deriv", "D"):
                idx = self._deriv_index(t)
                power = 1
                if stream.accept_op("^"):
                    power = stream.expect_exponent()
                exps[idx] += power
                nxt = stream.next()
                if nxt.kind != "name":
                    raise ParseError("expected a variable after derivations", nxt.pos)
                t = nxt
                continue
            if kind == "var":
                break
            raise ParseError(f"unexpected name {t.text!r} inside a jet", t.pos)
        m = _VAR_RE.match(t.text)
        if m:
            var = int(m.group(1))
            block = int(m.group(2)) if m.group(2) else 1
        else:
            my = _VAR_Y_RE.match(t.text)
            var = int(my.group(1))
            block = 2
        if not 1 <= var <= ctx.n:
            raise ParseError(f"variable index {var} out of range", t.pos)
        if block < 1:
            raise ParseError("block indices start at 1", t.pos)
        return ctx.jet_poly(var - 1, DerivOp(tuple(exps)), block)

    @staticmethod
    def divide(value, divisor, pos):
        if not divisor.is_constant():
            raise ParseError("division only by scalar values", pos)
        c = divisor.constant_part()
        if not c:
            raise ParseError("division by zero", pos)
        return value.scale(c.inverse())


class _ScalarSemantics:
    """Builds RationalFunction values over a generator registry."""

    def __init__(self, generators):
        self.generators = tuple(generators)

    def number(self, n: int):
        return RationalFunction.const(self.generators, Fraction(n))

    def name(self, token: _Token, stream: _Stream):
        if token.text not in self.generators:
            raise ParseError(f"unknown generator {token.text!r}", token.pos)
        return RationalFunction.gen(self.generators, self.generators.index(token.text))

    @staticmethod
    def divide(value, divisor, pos):
        if not divisor:
            raise ParseError("division by zero", pos)
        return value / divisor


def _parse_expr(stream: _Stream, sem):
    negate = stream.accept_op("-")
    value = _parse_term(stream, sem)
    if negate:
        value = -value
    while True:
        if stream.accept_op("+"):
            value = value + _parse_term(stream, sem)
        elif stream.accept_op("-"):
            value = value - _parse_term(stream, sem)
        else:
            return value


def _parse_term(stream: _Stream, sem):
    value = _parse_factor(stream, sem)
    while True:
        if stream.accept_op("*"):
            value = value * _parse_factor(stream, sem)
        elif stream.peek().kind == "op" and stream.peek().text == "/":
            pos = stream.next().pos
            value = sem.divide(value, _parse_factor(stream, sem), pos)
        else:
            return value


def _parse_factor(stream: _Stream, sem):
    value = _parse_primary(stream, sem)
    while stream.accept_op("^"):
        pos = stream.peek().pos
        k = stream.expect_exponent()
        base_terms = (max(len(value.num.terms), len(value.den.terms))
                      if isinstance(value, RationalFunction) else len(value.terms))
        if base_terms > 1 and comb(base_terms + k - 1, k) > MAX_EXPANSION_TERMS:
            raise ParseError(f"a {base_terms}-term base to the power {k} could expand "
                             f"past {MAX_EXPANSION_TERMS} terms", pos)
        value = value ** k
    return value


def _parse_primary(stream: _Stream, sem):
    t = stream.next()
    if t.kind == "num":
        return sem.number(int(t.text))
    if t.kind == "name":
        return sem.name(t, stream)
    if t.kind == "op" and t.text == "(":
        value = _parse_expr(stream, sem)
        stream.expect_op(")")
        return value
    raise ParseError("expected a number, name, or parenthesis", t.pos)


def _run_parser(text: str, sem):
    stream = _Stream(_tokenize(text))
    value = _parse_expr(stream, sem)
    t = stream.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return value


def parse_poly(text: str, ctx: Context) -> DeltaPoly:
    """Parse a differential-polynomial expression in the given context."""
    return _run_parser(text, _PolySemantics(ctx))


def parse_scalar_rf(text: str, generators) -> RationalFunction:
    """Parse a coefficient-level expression (no jets) over generator names."""
    return _run_parser(text, _ScalarSemantics(generators))


def parse_scalar(text: str, field: BaseFieldSpec) -> BaseFieldElement:
    return field.element(parse_scalar_rf(text, field.generators))


def parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


# -- printing -----------------------------------------------------------------


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _mp_text(p: MultiPoly) -> str:
    """Plain polynomial over generator names, ascending canonical order."""
    if not p:
        return "0"
    chunks = []
    for mono, c in p.sorted_terms():
        body = "*".join(
            f"{p.vars[i]}^{e}" if e > 1 else p.vars[i] for i, e in mono
        )
        neg = c < 0
        mag = -c if neg else c
        if not body:
            text = format_fraction(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{format_fraction(mag)}*{body}"
        if not chunks:
            chunks.append(f"-{text}" if neg else text)
        else:
            chunks.append(f"{' - ' if neg else ' + '}{text}")
    return "".join(chunks)


def _scalar_factor(e: BaseFieldElement):
    """(negative, factor_text) where factor_text is None for magnitude one
    and otherwise safe to splice into a '*'-joined product."""
    rf = e.rf
    lead = rf.num.sorted_terms()[-1][1]
    neg = lead < 0
    if neg:
        rf = -rf
    if rf.is_polynomial():
        num = rf.num
        if num.is_constant() and num.constant_value() == 1:
            return neg, None
        if len(num.terms) == 1:
            return neg, _mp_text(num)
        return neg, f"({_mp_text(num)})"
    num, den = rf.num, rf.den
    if len(num.terms) == 1:
        ntxt = _mp_text(num)
    else:
        ntxt = f"({_mp_text(num)})"
    return neg, f"{ntxt}/({_mp_text(den)})"


def scalar_text(e: BaseFieldElement) -> str:
    """Standalone canonical text of a base-field element."""
    if not e:
        return "0"
    if e.rf.is_polynomial():
        return _mp_text(e.rf.num)
    neg, txt = _scalar_factor(e)
    return f"-{txt}" if neg else txt


def jet_text(jet: Jet, ctx: Context) -> str:
    parts = []
    full = ctx.dee is None and ctx.num_ops == ctx.field.num_derivations
    for i, r in enumerate(jet.op.exps):
        if not r:
            continue
        name = "D" if (full and i == ctx.num_ops - 1) else f"d{i + 1}"
        parts.append(name if r == 1 else f"{name}^{r}")
    if jet.block == 1:
        v = f"x{jet.var + 1}"
    elif jet.block == 2:
        v = f"y{jet.var + 1}"
    else:
        v = f"x{jet.var + 1}_{jet.block}"
    parts.append(v)
    return " ".join(parts)


def _factor_text(jet: Jet, power: int, ctx: Context) -> str:
    jt = jet_text(jet, ctx)
    if power == 1:
        return jt
    # the text of a jet has a space exactly when its operator is not the identity
    return f"({jt})^{power}" if " " in jt else f"{jt}^{power}"


def print_poly(f: DeltaPoly) -> str:
    """Deterministic canonical rendering; parse(print(f)) == f."""
    if not f.terms:
        return "0"
    ctx = f.ctx
    chunks = []
    for mono, c in f.sorted_terms():
        neg, coeff_txt = _scalar_factor(c)
        factors = [_factor_text(j, p, ctx) for j, p in mono]
        if not factors:
            body = coeff_txt if coeff_txt is not None else "1"
        elif coeff_txt is None:
            body = "*".join(factors)
        else:
            body = "*".join([coeff_txt] + factors)
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(chunks)
