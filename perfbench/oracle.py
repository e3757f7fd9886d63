"""Independent expected values, computed in sympy, for the benchmark checks.

Nothing here calls diffalg to compute an answer: polynomial texts are parsed
by the parser below into sympy's sparse ring K[jets] over the fraction field
K = Q(generators), and tau, the tangent part, fibres, jet rewriting and the
block shift are recomputed from their definitions. Importing this module
imports sympy, so the benchmark imports it only after it has read the peak
resident set size.
"""

from __future__ import annotations

import re
from itertools import product
from math import factorial

from sympy import QQ
from sympy.polys.fields import field
from sympy.polys.rings import ring

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^(),]))")
_DERIV = re.compile(r"d(\d+)$")
_VAR = re.compile(r"(?:x(\d+)(?:_(\d+))?|y(\d+))$")


class OracleError(ValueError):
    """Text the oracle cannot read, or a value outside its jet registry."""


def jet_name(var: int, block: int, op) -> str:
    return f"j{var}_{block}_" + "_".join(str(e) for e in op)


class Algebra:
    """K = Q(generators) carrying derivations given by table rows, and the
    ring R = K[jets] over every jet (var, block, op) with var < n, block <=
    max_block and total order <= max_order, op of the given width. With
    polynomial=True, K is the polynomial ring Q[generators] instead, which
    is much faster where no division by a generator is needed.

    rows[k][g] is derivation k applied to generator g, as text; the last row
    is the designated D. Jet names in texts: 'd1^2 x1', 'D x2', 'y1', 'x1_3'.
    Slot i of an op is 'd{i+1}'; slot width-1 is 'D' when d_hat is True."""

    def __init__(self, generators, rows, n, width, max_order, max_block,
                 d_hat=False, polynomial=False):
        self.K, *gens = (ring if polynomial else field)(",".join(generators), QQ)
        self.gen_of = dict(zip(generators, gens))
        self.width, self.d_hat = width, d_hat
        ops = [op for op in product(range(max_order + 1), repeat=width)
               if sum(op) <= max_order]
        self.jets = [(v, b, op) for b in range(1, max_block + 1)
                     for v in range(n) for op in ops]
        self.R, *jet_gens = ring(",".join(jet_name(*j) for j in self.jets), self.K)
        self.jet_of = dict(zip(self.jets, jet_gens))
        self.index_of = {j: i for i, j in enumerate(self.jets)}
        self.rows = [[self.scalar(txt) for txt in row] for row in rows]

    # -- reading texts -------------------------------------------------------

    def scalar(self, text: str):
        """A coefficient expression, as an element of K."""
        value = self.poly(text)
        if not value.is_ground:
            raise OracleError(f"not a scalar: {text!r}")
        return self.K(value.coeff(1))

    def poly(self, text: str):
        """A polynomial expression, as an element of R."""
        tokens = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise OracleError(f"cannot read {text[pos:]!r}")
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        self._tokens, self._i = tokens + [None], 0
        value = self._expr()
        if self._peek() is not None:
            raise OracleError(f"trailing {self._peek()!r} in {text!r}")
        return value

    def _peek(self):
        return self._tokens[self._i]

    def _next(self):
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _accept(self, tok):
        if self._peek() == tok:
            self._i += 1
            return True
        return False

    def _nat(self):
        tok = self._next()
        if tok is None or not tok.isdigit():
            raise OracleError(f"expected a number, got {tok!r}")
        return int(tok)

    def _expr(self):
        negate = self._accept("-")
        value = self._term()
        if negate:
            value = -value
        while True:
            if self._accept("+"):
                value = value + self._term()
            elif self._accept("-"):
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            if self._accept("*"):
                value = value * self._factor()
            elif self._accept("/"):
                divisor = self._factor()
                if not divisor.is_ground or not divisor:
                    raise OracleError("division by a non-scalar or by zero")
                value = value.quo_ground(divisor.coeff(1))
            else:
                return value

    def _factor(self):
        value = self._primary()
        while self._accept("^"):
            value = value ** self._nat()
        return value

    def _primary(self):
        tok = self._next()
        if tok is None:
            raise OracleError("unexpected end of text")
        if tok.isdigit():
            return self.R(int(tok))
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise OracleError("expected ')'")
            return value
        if tok in self.gen_of:
            return self.R(self.gen_of[tok])
        return self._jet(tok)

    def _jet(self, tok):
        op = [0] * self.width
        while True:
            if tok == "D" and self.d_hat:
                slot = self.width - 1
            elif _DERIV.match(tok):
                slot = int(_DERIV.match(tok).group(1)) - 1
            else:
                break
            if not 0 <= slot < self.width:
                raise OracleError(f"derivation {tok!r} out of range")
            op[slot] += self._nat() if self._accept("^") else 1
            tok = self._next()
            if tok is None:
                raise OracleError("expected a variable after derivations")
        m = _VAR.match(tok)
        if not m:
            raise OracleError(f"unknown name {tok!r}")
        if m.group(3):
            var, block = int(m.group(3)), 2
        else:
            var, block = int(m.group(1)), int(m.group(2) or 1)
        key = (var - 1, block, tuple(op))
        if key not in self.jet_of:
            raise OracleError(f"jet {tok!r} outside the registry")
        return self.jet_of[key]

    # -- converting diffalg values (read-only access to their terms) ----------

    def from_delta(self, f):
        """A diffalg DeltaPoly f as (L, L f) in R, with L in K a common
        denominator of its coefficients. Needs polynomial=True."""
        ngens = len(self.gen_of)

        def conv(mp):
            return self.K.from_dict({
                tuple(dict(mono).get(i, 0) for i in range(ngens)):
                    QQ(c.numerator, c.denominator)
                for mono, c in mp.terms.items()
            })

        terms = []
        common = self.K.one
        for mono, c in f.terms.items():
            exps = [0] * len(self.jets)
            for jet, p in mono:
                key = (jet.var, jet.block, tuple(jet.op.exps))
                if key not in self.index_of:
                    raise OracleError(f"jet {key} outside the registry")
                exps[self.index_of[key]] += p
            num, den = conv(c.rf.num), conv(c.rf.den)
            common = common.lcm(den)
            terms.append((tuple(exps), num, den))
        return common, self.R.from_dict({e: num * common.exquo(den) for e, num, den in terms})

    # -- derivations ------------------------------------------------------------

    def derive_scalar(self, c, row):
        """A derivation with row[g] = its value on generator g, applied to
        an element of K by the chain rule."""
        out = self.K.zero
        for g, dg in zip(self.gen_of.values(), row):
            if dg:
                out += c.diff(g) * dg
        return out

    def combine(self, coeffs):
        """The row of the derivation sum_k coeffs[k] * (derivation k)."""
        return [sum((self.K(QQ(c.numerator, c.denominator)) * row[g]
                     for c, row in zip(coeffs, self.rows)), self.K.zero)
                for g in range(len(self.gen_of))]

    def coeff_derive(self, P, row):
        return self.R.from_dict({
            mono: dc for mono, c in P.items() if (dc := self.derive_scalar(c, row))
        })

    def used(self, P):
        """The jets occurring in P."""
        idx = {i for mono in P.keys() for i, e in enumerate(mono) if e}
        return [self.jets[i] for i in sorted(idx)]

    def shift(self, P, row, blocks=None):
        """Each jet of a block in `blocks` (all blocks when None) to the same
        jet one block higher; coefficients through the derivation `row`."""
        out = self.coeff_derive(P, row)
        for v, b, op in self.used(P):
            if blocks is not None and b not in blocks:
                continue
            target = (v, b + 1, op)
            if target not in self.jet_of:
                raise OracleError(f"block {b + 1} outside the registry")
            out += P.diff(self.jet_of[(v, b, op)]) * self.jet_of[target]
        return out

    def tau(self, P, row=None):
        """Jacobian dotted with the block-2 jets, plus the coefficients
        derived by D (or by `row`)."""
        return self.shift(P, self.rows[-1] if row is None else row, blocks=(1,))

    def tangent(self, P):
        return self.tau(P) - self.coeff_derive(P, self.rows[-1])

    def theta(self, op, value):
        """A structural operator (exponents over the first rows) applied to
        an element of K."""
        for slot, e in enumerate(op):
            for _ in range(e):
                value = self.derive_scalar(value, self.rows[slot])
        return value

    def at_blocks(self, P, points):
        """Substitute theta(point[var]) for every jet theta x_var of each
        block given in `points` (block -> tuple of K elements)."""
        pairs = [(self.jet_of[(v, b, op)], self.R(self.theta(op, points[b][v])))
                 for v, b, op in self.used(P) if b in points]
        return P.compose(pairs) if pairs else P

    def rewrite(self, P, matrix):
        """Jet rewriting of a full-alphabet polynomial from the primed basis
        M (d1, ..., D) to the unprimed one, by the multinomial theorem."""
        S, *s = ring(",".join(f"s{i}" for i in range(self.width)), QQ)
        rows = [sum((QQ(c.numerator, c.denominator) * s[j]
                     for j, c in enumerate(row)), S.zero) for row in matrix]
        pairs = []
        for v, b, op in self.used(P):
            expansion = S.one
            for slot, e in enumerate(op):
                expansion *= rows[slot] ** e
            image = self.R.zero
            for vec, c in expansion.items():
                image += self.R(self.K(c)) * self.jet_of[(v, b, vec)]
            pairs.append((self.jet_of[(v, b, op)], image))
        return P.compose(pairs) if pairs else P


def cofactor_identity_holds(alg: Algebra, f, k: int, p) -> bool:
    """shift^k(f^k) - k! (tau f)^k - f p == 0, with the shift over every
    block and coefficients through D. f must have polynomial coefficients;
    the identity is multiplied by a common denominator L of p's, so that it
    is checked over Q[generators]."""
    one, F = alg.from_delta(f)
    if one != 1:
        raise OracleError("f needs polynomial coefficients")
    L, P = alg.from_delta(p)
    acc = F ** k
    for _ in range(k):
        acc = alg.shift(acc, alg.rows[-1])
    return not ((acc - alg.tau(F) ** k * factorial(k)) * L - F * P)
