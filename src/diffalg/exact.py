"""Sparse exact polynomial arithmetic: multivariate polynomials, rational
functions, single-divisor exact division, and a bounded Buchberger engine.

Coefficients default to `fractions.Fraction`, but every algorithm here uses
only field operations (+, -, *, /, ==, truthiness), so polynomials whose
coefficients live in another exact field (e.g. a rational-function field)
work unchanged.

Monomials are stored sparsely as sorted tuples of (variable_index, exponent)
pairs with positive exponents; the empty tuple is the unit monomial.

A term map is a dict from monomials to nonzero coefficients. `accumulate`,
`terms_add` and `terms_mul` are the one set of term-map routines, and
`power` the one power loop: MultiPoly, the jet ring's DeltaPoly (whose
monomials have jets for variables) and RationalFunction all use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd

Monomial = tuple
MONO_ONE: Monomial = ()


def mono_from_pairs(pairs):
    return tuple(sorted((i, e) for i, e in pairs if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return mono_from_pairs(d.items())


def accumulate(terms: dict, mono, c) -> None:
    """Add c to the coefficient of mono in a term map, keeping every stored
    coefficient nonzero."""
    s = terms.get(mono)
    s = c if s is None else s + c
    if s:
        terms[mono] = s
    elif mono in terms:
        del terms[mono]


def terms_add(a: dict, b: dict) -> dict:
    """The sum of two term maps."""
    terms = dict(a)
    for m, c in b.items():
        accumulate(terms, m, c)
    return terms


def terms_mul(a: dict, b: dict) -> dict:
    """The product of two term maps. A constant factor only scales, with the
    coefficients multiplied in operand order."""
    if len(b) == 1 and MONO_ONE in b:
        c = b[MONO_ONE]
        return {m: co * c for m, co in a.items()}
    if len(a) == 1 and MONO_ONE in a:
        c = a[MONO_ONE]
        return {m: c * co for m, co in b.items()}
    terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            accumulate(terms, mono_mul(m1, m2), c1 * c2)
    return terms


def power(x, k: int, one):
    """x**k as the k successive products one*x*...*x."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    out = one
    for _ in range(k):
        out = out * x
    return out


def mono_degree(a: Monomial) -> int:
    return sum(e for _, e in a)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    d = dict(b)
    return all(d.get(i, 0) >= e for i, e in a)


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming mono_divides(a, b)."""
    d = dict(b)
    for i, e in a:
        d[i] -= e
    return mono_from_pairs(d.items())


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for i, e in b:
        d[i] = max(d.get(i, 0), e)
    return mono_from_pairs(d.items())


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    vs = {i for i, _ in a}
    return not any(i in vs for i, _ in b)


@dataclass(frozen=True)
class MonomialOrder:
    """Total, multiplicative, well-founded order on exponent vectors.

    kind is "degrevlex" or "lex"; priority optionally permutes the variables
    (a tuple of variable indices, most significant first).
    """

    kind: str = "degrevlex"
    priority: tuple | None = None

    def key(self, mono: Monomial, nvars: int):
        """Sort key; larger key means larger monomial."""
        perm = self.priority if self.priority is not None else range(nvars)
        d = dict(mono)
        dense = tuple(d.get(i, 0) for i in perm)
        if self.kind == "lex":
            return dense
        if self.kind == "degrevlex":
            return (sum(dense), tuple(-e for e in reversed(dense)))
        raise ValueError(f"unknown monomial order kind {self.kind!r}")


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class MultiPoly:
    """Sparse multivariate polynomial over an ordered variable registry.

    Two polynomials over the same registry compare equal iff their term maps
    are equal; no zero coefficients are ever stored.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def constant(cls, vars, c):
        return cls(vars, {MONO_ONE: c})

    @classmethod
    def variable(cls, vars, index, coeff=Fraction(1)):
        return cls(vars, {((index, 1),): coeff})

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(m == MONO_ONE for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[MONO_ONE]

    def degree(self):
        return max((mono_degree(m) for m in self.terms), default=0)

    def degree_in(self, index):
        return max((dict(m).get(index, 0) for m in self.terms), default=0)

    def support_vars(self):
        out = set()
        for m in self.terms:
            out.update(i for i, _ in m)
        return out

    def leading(self, order: MonomialOrder):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        n = len(self.vars)
        m = max(self.terms, key=lambda mo: order.key(mo, n))
        return m, self.terms[m]

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixed variable registries")

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        return _wrap(self.vars, terms_add(self.terms, other.terms))

    def __neg__(self):
        return _wrap(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return _wrap(self.vars, terms_mul(self.terms, other.terms))

    def scale(self, c):
        if not c:
            return MultiPoly(self.vars)
        return _wrap(self.vars, {m: co * c for m, co in self.terms.items()})

    def mul_term(self, mono, coeff):
        if not coeff:
            return MultiPoly(self.vars)
        return _wrap(self.vars, {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def __pow__(self, k):
        return power(self, k, _unit(self.vars))

    def partial(self, index):
        """Formal partial derivative with respect to variable `index`."""
        terms = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(index, 0)
            if not e:
                continue
            d[index] = e - 1
            terms[mono_from_pairs(d.items())] = c * e
        return _wrap(self.vars, terms)

    # -- printing ----------------------------------------------------------

    def sorted_terms(self):
        """Terms in the deterministic print order: ascending total degree,
        then ascending dense exponent vector."""
        n = len(self.vars)

        def k(item):
            m, _ = item
            d = dict(m)
            return (mono_degree(m), tuple(d.get(i, 0) for i in range(n)))

        return sorted(self.terms.items(), key=k)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = "*".join(
                f"{self.vars[i]}^{e}" if e > 1 else self.vars[i] for i, e in m
            )
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)


def _wrap(vars, terms) -> MultiPoly:
    """A MultiPoly owning `terms`, which must hold no zero coefficient."""
    out = MultiPoly(vars)
    out.terms = terms
    return out


# -- division and Groebner machinery ----------------------------------------


class DivisionFails(Exception):
    """Exact division failed; carries the nonzero division remainder."""

    def __init__(self, remainder: MultiPoly):
        super().__init__("exact division failed with nonzero remainder")
        self.remainder = remainder


class LimitExceeded(Exception):
    """A Buchberger step or degree cap was hit; the answer is inconclusive."""


class Membership(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Limits:
    steps: int = 2000
    degree: int = 60


def division(f: MultiPoly, divisors, order: MonomialOrder = DEGREVLEX):
    """Multivariate division: returns (quotients, remainder) with
    f = sum(q_i * divisors_i) + remainder and no remainder term divisible by
    any divisor's leading monomial.

    The kernel works in place on one term dict. Each monomial's order key is
    built at most once per call. A step pops the leading term, records it in
    a quotient or in the remainder, and subtracts gc*q from the working
    coefficient of every non-leading divisor term; the leading term cancels
    exactly and is never formed. Every coefficient sees the same operations
    in the same order as the textbook loop that subtracts whole polynomials
    (work[m] - gc*q, or -(gc*q) for a new term), so the result is the same
    term by term for any exact coefficient field.
    """
    n = len(f.vars)
    keys = {}

    def keyed(monos):
        for m in monos:
            if m not in keys:
                keys[m] = order.key(m, n)

    leads = []
    tails = []
    for g in divisors:
        keyed(g.terms)
        lm = max(g.terms, key=keys.__getitem__)
        leads.append((lm, g.terms[lm]))
        tails.append([(gm, gc) for gm, gc in g.terms.items() if gm != lm])
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(f.terms)
    keyed(work)
    while work:
        m = max(work, key=keys.__getitem__)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(leads):
            if mono_divides(lm, m):
                t = mono_div(m, lm)
                q = c / lc
                quotients[i][t] = q
                for gm, gc in tails[i]:
                    mm = mono_mul(gm, t)
                    p = gc * q
                    w = work.get(mm)
                    if w is None:
                        work[mm] = -p
                        if mm not in keys:
                            keys[mm] = order.key(mm, n)
                    else:
                        w = w - p
                        if w:
                            work[mm] = w
                        else:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return [_wrap(f.vars, q) for q in quotients], _wrap(f.vars, remainder)


def normal_form(f: MultiPoly, basis, order: MonomialOrder = DEGREVLEX) -> MultiPoly:
    basis = [g for g in basis if g]
    if not basis:
        return f
    _, r = division(f, basis, order)
    return r


def poly_divide_exact(g: MultiPoly, f: MultiPoly, order: MonomialOrder = DEGREVLEX) -> MultiPoly:
    """Exact quotient g/f, or raise DivisionFails carrying the remainder.

    A singleton {f} is a Groebner basis of the principal ideal it generates,
    so a nonzero remainder certifies that g is not a multiple of f.
    """
    if not f:
        raise ZeroDivisionError("division by the zero polynomial")
    quotients, remainder = division(g, [f], order)
    if remainder:
        raise DivisionFails(remainder)
    return quotients[0]


def s_polynomial(f, g, order):
    (mf, cf) = f.leading(order)
    (mg, cg) = g.leading(order)
    l = mono_lcm(mf, mg)
    return f.mul_term(mono_div(l, mf), 1 / cf) - g.mul_term(mono_div(l, mg), 1 / cg)


def groebner_basis(gens, order: MonomialOrder = DEGREVLEX, limits: Limits = Limits()):
    """Bounded Buchberger. Returns an autoreduced, monic Groebner basis, or
    raises LimitExceeded when a step/degree cap is hit (inconclusive, never
    wrong).

    Uses Buchberger's first (coprime leads) and second (chain) criteria and a
    degree-capped S-pair queue.
    """
    if not gens:
        raise ValueError("empty generator list")
    basis = [g for g in gens if g]
    if not basis:
        return []
    if limits.steps <= 0:
        raise LimitExceeded("step budget exhausted")
    n = len(basis[0].vars)

    def lead(i):
        return basis[i].leading(order)[0]

    pairs = {(i, j) for i, j in combinations(range(len(basis)), 2)}
    steps = 0
    while pairs:
        i, j = min(pairs, key=lambda p: (mono_degree(mono_lcm(lead(p[0]), lead(p[1]))), p))
        pairs.discard((i, j))
        if mono_coprime(lead(i), lead(j)):
            continue
        l = mono_lcm(lead(i), lead(j))
        if any(
            k != i and k != j
            and mono_divides(lead(k), l)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        if mono_degree(l) > limits.degree:
            raise LimitExceeded(f"S-pair degree {mono_degree(l)} exceeds cap")
        steps += 1
        if steps > limits.steps:
            raise LimitExceeded("step budget exhausted")
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if r:
            basis.append(r)
            k = len(basis) - 1
            pairs.update((min(i2, k), max(i2, k)) for i2 in range(k))
    return _autoreduce(basis, order)


def _autoreduce(basis, order):
    reduced = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        r = normal_form(g, others, order)
        if r:
            reduced.append(r)
    out = []
    for g in reduced:
        _, lc = g.leading(order)
        out.append(g.scale(1 / lc))
    n = len(basis[0].vars)
    out.sort(key=lambda g: order.key(g.leading(order)[0], n))
    return out


def ideal_member(f: MultiPoly, gens, order: MonomialOrder = DEGREVLEX,
                 limits: Limits = Limits()) -> Membership:
    """Is f in the algebraic ideal generated by gens? Inconclusive when the
    bounded Buchberger run hits a cap."""
    try:
        basis = groebner_basis(gens, order, limits)
    except LimitExceeded:
        return Membership.INCONCLUSIVE
    if not basis:
        return Membership.YES if not f else Membership.NO
    return Membership.YES if not normal_form(f, basis, order) else Membership.NO


# -- gcd machinery for rational-function reduction ---------------------------


def _int_content(p: MultiPoly) -> Fraction:
    """Positive rational c such that p/c has coprime integer coefficients."""
    num = 0
    den = 1
    for c in p.terms.values():
        num = gcd(num, abs(c.numerator))
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den) if num else Fraction(1)


def _as_univariate(p: MultiPoly, v: int):
    """Coefficients of p viewed as a univariate polynomial in variable v."""
    coeffs = {}
    for m, c in p.terms.items():
        e, rest = 0, m
        for k, (i, ei) in enumerate(m):
            if i == v:
                e, rest = ei, m[:k] + m[k + 1:]
                break
        coeffs.setdefault(e, {})[rest] = c
    return {e: _wrap(p.vars, terms) for e, terms in coeffs.items()}


def _pseudo_rem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to variable v."""
    da, db = a.degree_in(v), b.degree_in(v)
    bu = _as_univariate(b, v)
    lb = bu[db]
    work = a
    while work and work.degree_in(v) >= db:
        wu = _as_univariate(work, v)
        dw = work.degree_in(v)
        lw = wu[dw]
        # lb * work - lw * x^(dw-db) * b
        shift = ((v, dw - db),) if dw > db else MONO_ONE
        work = work * lb - b.mul_term(shift, Fraction(1)) * lw
    return work


def _content_in(p: MultiPoly, v: int) -> MultiPoly:
    coeffs = list(_as_univariate(p, v).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
    return g


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """GCD of two polynomials with Fraction coefficients, computed by the
    primitive pseudo-remainder sequence, normalized to positive integer
    content. Desk-scale inputs only."""
    def primitive(p):
        p = p.scale(1 / _int_content(p))
        if p.leading(DEGREVLEX)[1] < 0:
            p = p.scale(Fraction(-1))
        return p

    if not a and not b:
        return MultiPoly.zero(a.vars)
    if not a:
        return primitive(b)
    if not b:
        return primitive(a)
    common = a.support_vars() & b.support_vars()
    if not common:
        return MultiPoly.constant(a.vars, Fraction(1))
    v = max(common)
    ca, cb = _content_in(a, v), _content_in(b, v)
    pa = poly_divide_exact(a, ca)
    pb = poly_divide_exact(b, cb)
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb, v)
        if r:
            r = poly_divide_exact(r, _content_in(r, v))
            r = r.scale(1 / _int_content(r))
        pa, pb = pb, r
    g = pa * poly_gcd(ca, cb)
    g = g.scale(1 / _int_content(g))
    lead_c = g.leading(DEGREVLEX)[1]
    if lead_c < 0:
        g = g.scale(Fraction(-1))
    return g


# -- rational functions ------------------------------------------------------


_ONE = Fraction(1)


def _unit(vars) -> MultiPoly:
    """The constant polynomial 1 over the registry `vars`."""
    return _wrap(vars, {MONO_ONE: _ONE})


class RationalFunction:
    """Quotient of two MultiPolys over the same registry, den != 0.

    Invariant of the stored pair: a constant denominator is exactly 1, so
    every polynomial value is stored as (num, 1); a non-constant denominator
    has a positive leading coefficient and coprime integer coefficients,
    shares no monomial factor with the numerator, and is gcd-reduced against
    it whenever their term-count product reaches REDUCE_THRESHOLD. The
    representation, hence printing, is deterministic.

    Arithmetic and equality use the cross-multiplication formulas with every
    product by a denominator 1 skipped, so values with denominator 1 are
    added, multiplied, compared and differentiated on numerators alone.

    `_normalize` is idempotent on a stored pair, and its result does not
    change when the numerator is scaled by a nonzero rational: the monomial
    content, the gcd and the denominator's content all stay as they are.
    So these operations store their pair as given, without normalising:
    `-r` is (-num, den); `r.scale(q)` with q != 0 is (q*num, den); `r + 0`
    and `0 + r` are r; `r * c` and `c * r` with c a constant in Q are
    `r.scale(c)`. The pairs are the ones the full constructor would store.
    """

    __slots__ = ("num", "den")
    REDUCE_THRESHOLD = 12

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = _unit(num.vars)
        elif len(den.terms) == 1 and MONO_ONE in den.terms:
            c = den.terms[MONO_ONE]
            if c != 1:
                num = num.scale(_ONE / c)
            den = _unit(num.vars)
        elif not den:
            raise ZeroDivisionError("zero denominator")
        elif not num:
            den = _unit(num.vars)
        else:
            num, den = self._normalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalize(num, den):
        # common monomial content
        def mono_content(p):
            its = iter(p.terms)
            first = dict(next(its))
            for m in its:
                d = dict(m)
                for i in list(first):
                    e = min(first[i], d.get(i, 0))
                    if e:
                        first[i] = e
                    else:
                        del first[i]
                if not first:
                    break
            return mono_from_pairs(first.items())

        cn = dict(mono_content(num))
        cd = dict(mono_content(den))
        cm = mono_from_pairs((i, min(e, cd[i])) for i, e in cn.items() if i in cd)
        if cm:
            num = MultiPoly(num.vars, {mono_div(m, cm): c for m, c in num.terms.items()})
            den = MultiPoly(den.vars, {mono_div(m, cm): c for m, c in den.terms.items()})
        if len(num.terms) * len(den.terms) >= RationalFunction.REDUCE_THRESHOLD:
            g = poly_gcd(num, den)
            if g and not g.is_constant():
                num = poly_divide_exact(num, g)
                den = poly_divide_exact(den, g)
        c = _int_content(den)
        if den.leading(DEGREVLEX)[1] < 0:
            c = -c
        num = num.scale(1 / c)
        den = den.scale(1 / c)
        return num, den

    @classmethod
    def _stored(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        """The value with the pair (num, den) stored as given; the pair must
        already be a fixed point of the constructor."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def const(cls, vars, q):
        return cls(MultiPoly.constant(vars, Fraction(q)))

    @classmethod
    def gen(cls, vars, index):
        return cls(MultiPoly.variable(vars, index))

    @property
    def vars(self):
        return self.num.vars

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        d = self.den.terms
        return len(d) == 1 and MONO_ONE in d

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixed variable registries")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(self.vars, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        return _times_den(self.num, other) == _times_den(other.num, self)

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        return RationalFunction(_times_den(self.num, other) + _times_den(other.num, self),
                                _times_den(self.den, other))

    def __neg__(self):
        return RationalFunction._stored(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        c = _rational_value(other)
        if c is not None:
            return self.scale(c)
        c = _rational_value(self)
        if c is not None:
            return other.scale(c)
        return RationalFunction(self.num * other.num, _times_den(self.den, other))

    def __truediv__(self, other):
        self._check(other)
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_times_den(self.num, other), self.den * other.num)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def scale(self, q):
        q = Fraction(q)
        if not q:
            return RationalFunction(MultiPoly(self.vars))
        return RationalFunction._stored(self.num.scale(q), self.den)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, RationalFunction.const(self.vars, 1))

    def partial(self, index):
        """Formal partial derivative with respect to a registry variable."""
        if self.is_polynomial():
            return RationalFunction(self.num.partial(index))
        n = self.num.partial(index) * self.den - self.num * self.den.partial(index)
        return RationalFunction(n, self.den * self.den)

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _rational_value(r: RationalFunction):
    """The value of r as a Fraction when r is a constant in Q, else None."""
    if not r.is_polynomial():
        return None
    terms = r.num.terms
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and MONO_ONE in terms:
        return terms[MONO_ONE]
    return None


def _times_den(p: MultiPoly, r: RationalFunction) -> MultiPoly:
    """p * r.den, skipping the product when r.den is 1."""
    return p if r.is_polynomial() else p * r.den
