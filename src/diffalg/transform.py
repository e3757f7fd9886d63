"""Rational linear changes of the derivation basis: exact matrices over Q,
the transformed derivations (delta'_1, ..., delta'_m, D') given by the rows
of an invertible matrix, rewriting of jet coordinates under the change, the
block-matrix construction for peeling off one derivation, and commutativity
checks for the transformed family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .deltaring import (
    Context,
    DeltaPoly,
    DerivOp,
    Jet,
    apply_delta,
    rank_enumerate,
    substitute,
)
from .fields import BaseFieldSpec, DerivationVector, derive_base


class SingularMatrix(Exception):
    """The matrix is not invertible over Q."""


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix over Q, stored row-major."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        ))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "RationalMatrix":
        """Elementary matrix interchanging rows i and j (0-based)."""
        rows = [[Fraction(1) if a == b else Fraction(0) for b in range(n)]
                for a in range(n)]
        rows[i], rows[j] = rows[j], rows[i]
        return cls(tuple(tuple(r) for r in rows))

    @property
    def size(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def is_square(self):
        r, c = self.size
        return r == c

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        r1, c1 = self.size
        r2, c2 = other.size
        if c1 != r2:
            raise ValueError("matrix dimension mismatch")
        return RationalMatrix(tuple(
            tuple(sum((self.rows[i][k] * other.rows[k][j] for k in range(c1)),
                      Fraction(0))
                  for j in range(c2))
            for i in range(r1)
        ))

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.size[0]
        a = [list(r) for r in self.rows]
        d = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                d = -d
            d *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] * inv
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return d

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.size[0]
        a = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                raise SingularMatrix("matrix has no inverse")
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            a[col] = [v * inv for v in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        return RationalMatrix(tuple(tuple(row[n:]) for row in a))

    def block_diag(self, other: "RationalMatrix") -> "RationalMatrix":
        n1, n2 = self.size[0], other.size[0]
        rows = []
        for i in range(n1):
            rows.append(tuple(self.rows[i]) + (Fraction(0),) * n2)
        for i in range(n2):
            rows.append((Fraction(0),) * n1 + tuple(other.rows[i]))
        return RationalMatrix(tuple(rows))


def make_transformed(M: RationalMatrix, spec: BaseFieldSpec):
    """(Delta', D') = M (Delta, D): the i-th transformed derivation is the
    i-th row of M as a combination of the base derivations; D' is the last
    row. Requires det M != 0."""
    if not M.is_square() or M.size[0] != spec.num_derivations:
        raise ValueError("matrix size must be m+1 for a field with m+1 derivations")
    if not M.det():
        raise SingularMatrix("derivation transform must be invertible")
    vectors = tuple(DerivationVector(row) for row in M.rows)
    return vectors[:-1], vectors[-1]


def transformed_context(spec: BaseFieldSpec, n: int, M: RationalMatrix) -> Context:
    """Standard-shaped context whose structural derivations are the primed
    family: jets are delta'-jets and coefficients see the primed actions."""
    deltas, dee = make_transformed(M, spec)
    return Context(spec, n, deltas, dee)


def full_jet_context(spec: BaseFieldSpec, n: int, M: RationalMatrix | None = None) -> Context:
    """Context over the full m+1 alphabet (last slot = the D slot). With M,
    the slots act on coefficients as the rows of M (a primed full alphabet)."""
    if M is None:
        return Context.full_jet(spec, n)
    vectors, dee = make_transformed(M, spec)
    return Context.full_jet(spec, n, vectors + (dee,))


def rewrite_jets(f: DeltaPoly, M: RationalMatrix) -> DeltaPoly:
    """Rewrite a full-alphabet jet polynomial expressed in the primed basis
    M(Delta, D) into the unprimed basis: each primed indeterminate expands by
    the multinomial theorem (valid because the derivations commute) into a
    Q-linear combination of unprimed indeterminates of the same total order,
    extended multiplicatively as a ring homomorphism. Coefficients pass
    through unchanged."""
    ctx = f.ctx
    width = ctx.num_ops
    if not M.is_square() or M.size[0] != width:
        raise ValueError("matrix size must match the jet alphabet width")
    if not M.det():
        raise SingularMatrix("jet rewriting needs an invertible matrix")

    expansion_cache = {}

    def op_expansion(op: DerivOp):
        """Map unprimed exponent vector -> Fraction, for the primed operator."""
        if op in expansion_cache:
            return expansion_cache[op]
        acc = {(0,) * width: Fraction(1)}
        for i, e in enumerate(op.exps):
            row = M.rows[i]
            for _ in range(e):
                nxt = {}
                for vec, c in acc.items():
                    for j, mij in enumerate(row):
                        if not mij:
                            continue
                        v2 = list(vec)
                        v2[j] += 1
                        v2 = tuple(v2)
                        nxt[v2] = nxt.get(v2, Fraction(0)) + c * mij
                acc = {v: c for v, c in nxt.items() if c}
        expansion_cache[op] = acc
        return acc

    def jet_image(u: Jet) -> DeltaPoly:
        acc = op_expansion(u.op)
        terms = {}
        for vec, c in acc.items():
            jet = Jet(DerivOp(vec), u.var, u.block)
            terms[((jet, 1),)] = ctx.field.rational(c)
        return DeltaPoly(ctx, terms)

    return substitute(f, jet_image)


def kolchin_matrix(Mp: RationalMatrix, r: int, m: int, N: RationalMatrix) -> RationalMatrix:
    """The composite transform E (Mp (+) I) E N of size m+1, where Mp has size
    r+1, I is the identity of size m-r, and E interchanges rows r+1 and m+1
    (1-based). For r = m this is just Mp @ N."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    if not Mp.is_square() or Mp.size[0] != r + 1:
        raise ValueError("Mp must be square of size r+1")
    if not N.is_square() or N.size[0] != m + 1:
        raise ValueError("N must be square of size m+1")
    if not Mp.det() or not N.det():
        raise SingularMatrix("kolchin_matrix needs invertible blocks")
    middle = Mp.block_diag(RationalMatrix.identity(m - r))
    E = RationalMatrix.swap(m + 1, r, m)
    return E @ middle @ E @ N


@dataclass(frozen=True)
class TransformCommuteReport:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


def check_transformed_commute(M: RationalMatrix, spec: BaseFieldSpec, n: int = 1):
    """Verify that all pairs from the primed family commute, on the base
    generators and on jet indeterminates. Returns None (all pairs commute; the
    contract, by bilinearity of the commutator) or a report naming the first
    failure."""
    deltas, dee = make_transformed(M, spec)
    family = list(deltas) + [dee]

    # on base generators
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            for name in spec.generators:
                g = spec.gen(name)
                lhs = derive_base(derive_base(g, family[j]), family[i])
                rhs = derive_base(derive_base(g, family[i]), family[j])
                if lhs != rhs:
                    return TransformCommuteReport(
                        "base", f"rows {i} and {j} disagree on generator {name}"
                    )

    # on jet indeterminates of the full alphabet
    ctx = Context.full_jet(spec, n)
    width = ctx.num_ops

    def primed_action(k: int, f: DeltaPoly) -> DeltaPoly:
        out = ctx.zero()
        for j, c in enumerate(M.rows[k]):
            if c:
                out = out + apply_delta(j, f).scale(c)
        return out

    samples = [DeltaPoly(ctx, {((u, 1),): ctx.field.one()})
               for u in rank_enumerate(ctx, min(1 + width * n * 2, 6))]
    if spec.generators:
        samples.append(ctx.x(0).scale(spec.gen(spec.generators[0])))
    for i in range(width):
        for j in range(i + 1, width):
            for f in samples:
                lhs = primed_action(i, primed_action(j, f))
                rhs = primed_action(j, primed_action(i, f))
                if lhs != rhs:
                    return TransformCommuteReport(
                        "jet", f"rows {i} and {j} disagree on a jet sample"
                    )
    return None
