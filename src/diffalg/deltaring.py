"""The ring of differential polynomials R{x} over a concrete base field:
derivative operators, the orderly ranking, sparse polynomials in derivative
indeterminates, structural derivation, the algebraic (plain-polynomial) view,
and evaluation at points of the base field.

A Context fixes the base field, the number n of differential indeterminates
per block, and how the structural derivations act on coefficients (as
DerivationVectors over the base field's table rows). Standard contexts have m
structural derivations plus a designated D acting only through prolongation;
full-jet contexts (used for derivation-basis changes) make all m+1
derivations structural and have no designated D.

Indeterminates carry a block index (default 1). Higher blocks are the fresh
copies introduced by iterated prolongation; block arithmetic lives in
prolong.py. A jet is the tuple (block, total order, var, r_k, ..., r_1), so
the built-in tuple order is the jet order (block-major, then the orderly
ranking), and monomials over jets are the sorted (jet, power) tuples of
exact.py, built by its monomial routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import itemgetter

from .exact import (MONO_ONE, MultiPoly, accumulate, mono_degree, mono_from_pairs, mono_mul,
                    power, terms_add, terms_mul)
from .fields import BaseFieldElement, BaseFieldSpec, DerivationVector, derive_base


@dataclass(frozen=True)
class DerivOp:
    """Element of the free commutative monoid on the structural derivations:
    an exponent vector (r_1, ..., r_k)."""

    exps: tuple

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(int(e) for e in self.exps))
        if any(e < 0 for e in self.exps):
            raise ValueError("negative derivative exponent")

    @classmethod
    def identity(cls, width: int) -> "DerivOp":
        return cls((0,) * width)

    @property
    def total(self) -> int:
        return sum(self.exps)

    def bump(self, i: int) -> "DerivOp":
        e = list(self.exps)
        e[i] += 1
        return DerivOp(tuple(e))


class Jet(tuple):
    """A derivative indeterminate theta(x_var) in a given block, stored as
    the tuple (block, total order, var, r_k, ..., r_1) of its operator
    theta = (r_1, ..., r_k). Tuple order, equality and hashing are the jet
    order: block-major, then the orderly ranking."""

    __slots__ = ()

    def __new__(cls, op: DerivOp, var: int, block: int = 1):
        return tuple.__new__(cls, (block, op.total, var) + op.exps[::-1])

    def __getnewargs__(self):
        return self.op, self.var, self.block

    block = property(itemgetter(0))
    var = property(itemgetter(2))

    @property
    def op(self) -> DerivOp:
        """The operator theta, rebuilt on every read."""
        return DerivOp(self[:2:-1])

    def __repr__(self):
        return f"Jet({self.op!r}, {self.var}, {self.block})"


def rank_key(u: Jet):
    """Key realizing the orderly ranking: compare by
    (total order, variable index, r_k, ..., r_1) lexicographically."""
    return u[1:]


def rank_compare(u: Jet, v: Jet) -> int:
    """-1, 0, or 1 per the orderly ranking. Both jets must belong to the same
    block and have the same operator width."""
    if len(u) != len(v):
        raise ValueError("jets from different contexts")
    if u.block != v.block:
        raise ValueError("ranking compares jets within a single block")
    return (u > v) - (u < v)


def _ops_of_total(width: int, total: int):
    """All exponent vectors of the given width and total."""
    if width == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _ops_of_total(width - 1, total - first):
            yield (first,) + rest


class ContextError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Context:
    """Differential-polynomial ring context.

    deltas: the structural derivations' action on coefficients, one
    DerivationVector per structural slot of the jet exponent vectors.
    dee: the designated derivation D's coefficient action, or None for
    full-jet contexts where D itself is structural.
    """

    field: BaseFieldSpec
    n: int
    deltas: tuple
    dee: DerivationVector | None

    @property
    def num_ops(self) -> int:
        return len(self.deltas)

    def compatible(self, other: "Context") -> bool:
        """Same ring for all purposes: the same field object, same variable
        count, and identical derivation realizations."""
        return self is other or (
            self.field is other.field
            and self.n == other.n
            and self.deltas == other.deltas
            and self.dee == other.dee
        )

    @classmethod
    def standard(cls, field: BaseFieldSpec, n: int) -> "Context":
        m = field.m
        deltas = tuple(field.basis_vector(i) for i in range(m))
        return cls(field, n, deltas, field.basis_vector(m))

    @classmethod
    def full_jet(cls, field: BaseFieldSpec, n: int, vectors=None) -> "Context":
        """Context whose structural alphabet is all m+1 derivations (the last
        slot is the D slot). vectors optionally reinterprets the slots, e.g.
        as the rows of a basis-change matrix."""
        if vectors is None:
            vectors = tuple(field.basis_vector(i) for i in range(field.num_derivations))
        return cls(field, n, tuple(vectors), None)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "DeltaPoly":
        return DeltaPoly(self, {})

    def const(self, c) -> "DeltaPoly":
        if not isinstance(c, BaseFieldElement):
            c = self.field.rational(c)
        if not c:
            return self.zero()
        return DeltaPoly(self, {MONO_ONE: c})

    def one(self) -> "DeltaPoly":
        return self.const(1)

    def jet(self, var: int, op: DerivOp | None = None, block: int = 1) -> Jet:
        if not 0 <= var < self.n:
            raise ContextError(f"variable index {var} out of range")
        if op is None:
            op = DerivOp.identity(self.num_ops)
        if len(op.exps) != self.num_ops:
            raise ContextError("operator width does not match context")
        if block < 1:
            raise ContextError("block indices start at 1")
        return Jet(op, var, block)

    def jet_poly(self, var: int, op: DerivOp | None = None, block: int = 1) -> "DeltaPoly":
        u = self.jet(var, op, block)
        return DeltaPoly(self, {((u, 1),): self.field.one()})

    def x(self, var: int, block: int = 1) -> "DeltaPoly":
        return self.jet_poly(var, None, block)


def rank_enumerate(ctx: Context, count_: int):
    """The first `count_` derivative indeterminates of block 1 in ranking
    order: the unique order isomorphism with 1, 2, 3, ..."""
    if count_ < 1:
        raise ValueError("count must be positive")
    if ctx.num_ops == 0 and count_ > ctx.n:
        raise ValueError("only n order-zero indeterminates exist when m = 0")
    out = []
    for total in count(0):
        out += sorted(Jet(DerivOp(exps), var) for var in range(ctx.n)
                      for exps in _ops_of_total(ctx.num_ops, total))
        if len(out) >= count_:
            return out[:count_]


# -- monomials over jets -----------------------------------------------------

# A monomial is a tuple of (Jet, power) pairs, sorted by jet, powers > 0:
# an exact.py monomial whose variables are jets, built by exact's routines.


def mono_lower(mono, idx: int):
    """mono with the power of factor idx lowered by one, dropping the factor
    when its power reaches zero."""
    jet, p = mono[idx]
    if p == 1:
        return mono[:idx] + mono[idx + 1:]
    return mono[:idx] + ((jet, p - 1),) + mono[idx + 1:]


def mono_degree_in_block(mono, block: int) -> int:
    return sum(p for j, p in mono if j.block == block)


def mono_flat_key(mono):
    """Lexicographic comparison key: total degree, then the jets with
    multiplicity."""
    flat = tuple(jet for jet, p in mono for _ in range(p))
    return len(flat), flat


class DeltaPoly:
    """Sparse differential polynomial: map from jet monomials to nonzero
    base-field coefficients, tied to a Context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    def _check(self, other):
        if not self.ctx.compatible(other.ctx):
            raise ContextError("mixed polynomial contexts")

    def _coerce(self, other):
        if isinstance(other, DeltaPoly):
            self._check(other)
            return other
        if isinstance(other, BaseFieldElement) or isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None

    def __add__(self, other):
        return DeltaPoly(self.ctx, terms_add(self.terms, self._coerce(other).terms))

    __radd__ = __add__

    def __neg__(self):
        return DeltaPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        return DeltaPoly(self.ctx, terms_mul(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, self.ctx.one())

    def scale(self, c):
        if not isinstance(c, BaseFieldElement):
            c = self.ctx.field.rational(c)
        if not c:
            return self.ctx.zero()
        return DeltaPoly(self.ctx, {m: co * c for m, co in self.terms.items()})

    # -- structure ----------------------------------------------------------

    def support(self):
        """All jets occurring, sorted by block then ranking."""
        jets = set()
        for m in self.terms:
            jets.update(j for j, _ in m)
        return sorted(jets)

    def blocks(self):
        return sorted({j.block for j in self.support()})

    def total_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def degree_in_block(self, block: int) -> int:
        return max((mono_degree_in_block(m, block) for m in self.terms), default=0)

    def constant_part(self) -> BaseFieldElement:
        return self.terms.get(MONO_ONE, self.ctx.field.zero())

    def is_constant(self) -> bool:
        return all(m == MONO_ONE for m in self.terms)

    def map_coeffs(self, fn) -> "DeltaPoly":
        return DeltaPoly(self.ctx, {m: fn(c) for m, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: mono_flat_key(it[0]))

    def __repr__(self):
        from .syntax import print_poly

        return print_poly(self)


# -- structural derivation ---------------------------------------------------


def leibniz(f: DeltaPoly, jet_image, vec: DerivationVector) -> DeltaPoly:
    """The derivation of the jet ring that sends each jet u to the jet
    jet_image(u) and acts on coefficients through vec: Leibniz over each
    monomial, replacing one factor per summand by its image, plus the
    coefficient-derived part."""
    terms = {}
    for mono, c in f.terms.items():
        for idx, (jet, p) in enumerate(mono):
            image = mono_mul(mono_lower(mono, idx), ((jet_image(jet), 1),))
            accumulate(terms, image, c * p)
        dc = derive_base(c, vec)
        if dc:
            accumulate(terms, mono, dc)
    return DeltaPoly(f.ctx, terms)


def apply_delta(i: int, f: DeltaPoly) -> DeltaPoly:
    """Apply the i-th structural derivation (0-based): the Leibniz derivation
    that bumps the i-th operator exponent of a jet and acts on coefficients
    through the context's i-th derivation vector."""
    ctx = f.ctx
    if not 0 <= i < ctx.num_ops:
        raise ContextError(f"derivation index {i} out of range")
    return leibniz(f, lambda jet: Jet(jet.op.bump(i), jet.var, jet.block), ctx.deltas[i])


def apply_op(op: DerivOp, f: DeltaPoly) -> DeltaPoly:
    """Apply a whole derivative operator structurally."""
    out = f
    for i, e in enumerate(op.exps):
        for _ in range(e):
            out = apply_delta(i, out)
    return out


# -- algebraic view -----------------------------------------------------------


def algebraic_view(f: DeltaPoly):
    """The unique plain polynomial f_hat with f = f_hat(support): returns
    (f_hat as a MultiPoly over fresh variables t1, t2, ..., support list
    sorted by ranking)."""
    support = f.support()
    return as_multipoly(f, support), support


def as_multipoly(f: DeltaPoly, support) -> MultiPoly:
    """View f as a MultiPoly over the given jet list (which must cover the
    support of f). Variable i of the registry is support[i]."""
    index = {jet: i for i, jet in enumerate(support)}
    names = tuple(f"t{i + 1}" for i in range(len(support)))
    terms = {}
    for mono, c in f.terms.items():
        key = tuple(sorted((index[j], p) for j, p in mono))
        terms[key] = c
    return MultiPoly(names, terms)


def from_multipoly(ctx: Context, mp: MultiPoly, support) -> DeltaPoly:
    """Inverse of as_multipoly over the same support list."""
    terms = {}
    for mono, c in mp.terms.items():
        key = mono_from_pairs((support[i], p) for i, p in mono)
        terms[key] = c
    return DeltaPoly(ctx, terms)


# -- evaluation ----------------------------------------------------------------


class _OpCache:
    """Memoizes theta-images of assigned block values within one evaluation."""

    def __init__(self, ctx: Context, assignment):
        self.ctx = ctx
        self.assignment = assignment
        self.cache = {}

    def jet_value(self, jet: Jet):
        if jet.block not in self.assignment:
            return None
        if jet not in self.cache:
            value = self.assignment[jet.block][jet.var]
            self.cache[jet] = self._apply_op(jet.op, value)
        return self.cache[jet]

    def _apply_op(self, op: DerivOp, value):
        if isinstance(value, BaseFieldElement):
            for i, e in enumerate(op.exps):
                for _ in range(e):
                    value = derive_base(value, self.ctx.deltas[i])
            return value
        if isinstance(value, DeltaPoly):
            return apply_op(op, value)
        raise TypeError(f"unsupported point entry {value!r}")


def substitute(f: DeltaPoly, image) -> DeltaPoly:
    """The ring homomorphism that fixes coefficients and sends each jet u to
    the DeltaPoly image(u) over the same context."""
    ctx = f.ctx
    terms = {}
    for mono, c in f.terms.items():
        term = ctx.const(c)
        for jet, p in mono:
            term = term * image(jet) ** p
        for m, tc in term.terms.items():
            accumulate(terms, m, tc)
    return DeltaPoly(ctx, terms)


def substitute_blocks(f: DeltaPoly, assignment) -> DeltaPoly:
    """Substitute whole blocks of indeterminates: assignment maps a block
    index to an n-tuple of values (base-field elements or DeltaPolys over the
    same context). Jets of unassigned blocks stay symbolic; jets of assigned
    blocks become the derivative operator applied to the value (via the
    context's coefficient action for field values, structurally for
    polynomial values)."""
    ctx = f.ctx
    for block, point in assignment.items():
        if len(point) != ctx.n:
            raise ValueError(f"point for block {block} must have length {ctx.n}")
    cache = _OpCache(ctx, assignment)

    def image(jet: Jet) -> DeltaPoly:
        v = cache.jet_value(jet)
        if v is None:
            return DeltaPoly(ctx, {((jet, 1),): ctx.field.one()})
        if isinstance(v, BaseFieldElement):
            return ctx.const(v)
        return v

    return substitute(f, image)


def eval_at_blocks(f: DeltaPoly, assignment) -> BaseFieldElement:
    """Fully evaluate f: every block occurring in f must be assigned an
    n-tuple of base-field elements."""
    missing = [b for b in f.blocks() if b not in assignment]
    if missing:
        raise ValueError(f"blocks {missing} not assigned")
    cache = _OpCache(f.ctx, assignment)
    out = f.ctx.field.zero()
    for mono, c in f.terms.items():
        v = c
        for jet, p in mono:
            v = v * cache.jet_value(jet) ** p
        out = out + v
    return out


def evaluate(f: DeltaPoly, point):
    """Evaluate a block-1 polynomial at an n-tuple of points. Field-element
    points give a base-field value; DeltaPoly points give a polynomial (the
    substitution homomorphism into the polynomial ring). Either way the map
    is a ring homomorphism commuting with the structural derivations
    (theta-closure: theta x_j maps to theta applied to a_j)."""
    if any(b != 1 for b in f.blocks()):
        raise ValueError("evaluate() expects a block-1 polynomial; use eval_at_blocks")
    point = tuple(point)
    if any(isinstance(v, DeltaPoly) for v in point):
        return substitute_blocks(f, {1: point})
    return eval_at_blocks(f, {1: point})
