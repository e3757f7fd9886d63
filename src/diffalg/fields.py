"""Concrete differential base fields Q(g_1,...,g_p) carrying m+1 commuting
derivations (delta_1, ..., delta_m, D) given by derivative tables on the
generators and extended to all rational functions by the chain rule.

The designated derivation D is always the last table row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .exact import RationalFunction


class CommutativityError(Exception):
    """Raised by base_field() when the derivative tables do not commute."""


class EvaluationSingular(ZeroDivisionError):
    """Division by zero in a concrete field during evaluation."""


@dataclass(frozen=True, eq=False)
class BaseFieldSpec:
    """A rational-function field with named generators and per-derivation
    derivative tables: tables[k][j] = (k-th derivation applied to generator j).

    tables has m+1 rows; the last row is the designated derivation D.
    Commutativity of the rows is a construction-time obligation (checked on
    generators, which suffices: a commutator of derivations is a derivation,
    and a derivation vanishing on all generators vanishes everywhere).
    """

    generators: tuple
    tables: tuple
    # DerivationVector -> its combined_row, filled by derive_base
    _rows: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.tables) - 1

    @property
    def num_derivations(self) -> int:
        return len(self.tables)

    def zero(self) -> "BaseFieldElement":
        return BaseFieldElement(self, RationalFunction.const(self.generators, 0))

    def one(self) -> "BaseFieldElement":
        return BaseFieldElement(self, RationalFunction.const(self.generators, 1))

    def rational(self, q) -> "BaseFieldElement":
        return BaseFieldElement(self, RationalFunction.const(self.generators, q))

    def gen(self, name: str) -> "BaseFieldElement":
        return BaseFieldElement(
            self, RationalFunction.gen(self.generators, self.generators.index(name))
        )

    def element(self, rf: RationalFunction) -> "BaseFieldElement":
        if rf.vars != self.generators:
            raise ValueError("rational function over a different generator registry")
        return BaseFieldElement(self, rf)

    def basis_vector(self, k: int) -> "DerivationVector":
        coeffs = tuple(
            Fraction(1) if i == k else Fraction(0) for i in range(self.num_derivations)
        )
        return DerivationVector(coeffs)


@dataclass(frozen=True)
class DerivationVector:
    """Rational linear combination of the m+1 basis derivations; acts as a
    derivation because the basis derivations commute."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def __len__(self):
        return len(self.coeffs)

    def combined_row(self, spec: BaseFieldSpec):
        """Action on each generator, as rational functions."""
        if len(self.coeffs) != spec.num_derivations:
            raise ValueError("derivation vector length does not match field")
        row = []
        for j in range(len(spec.generators)):
            v = RationalFunction.const(spec.generators, 0)
            for k, c in enumerate(self.coeffs):
                if c:
                    v = v + spec.tables[k][j].scale(c)
            row.append(v)
        return tuple(row)


class BaseFieldElement:
    """An element of a BaseFieldSpec field: a rational function plus the
    field handle. Arithmetic is exact; equality is cross-multiplication."""

    __slots__ = ("field", "rf")

    def __init__(self, field: BaseFieldSpec, rf: RationalFunction):
        self.field = field
        self.rf = rf

    def _coerce(self, other):
        if isinstance(other, BaseFieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different base fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __bool__(self):
        return bool(self.rf)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rf == o.rf

    __hash__ = None

    def __add__(self, other):
        o = self._coerce(other)
        return BaseFieldElement(self.field, self.rf + o.rf)

    __radd__ = __add__

    def __neg__(self):
        return BaseFieldElement(self.field, -self.rf)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        return BaseFieldElement(self.field, self.rf * o.rf)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o.rf:
            raise EvaluationSingular("division by zero in base field")
        return BaseFieldElement(self.field, self.rf / o.rf)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, k):
        return BaseFieldElement(self.field, self.rf ** k)

    def inverse(self):
        if not self.rf:
            raise EvaluationSingular("inverse of zero in base field")
        return BaseFieldElement(self.field, self.rf.inverse())

    def __repr__(self):
        return repr(self.rf)


def derive_base(e: BaseFieldElement, d) -> BaseFieldElement:
    """Apply a derivation to a base-field element by the chain rule.

    d is either a 0-based basis index (row of the table) or a
    DerivationVector. The result is sum_j (de/dg_j) * d(g_j) with the
    quotient rule folded into the rational-function partials.
    """
    spec = e.field
    if isinstance(d, int):
        row = spec.tables[d]
    else:
        row = spec._rows.get(d)
        if row is None:
            row = spec._rows[d] = d.combined_row(spec)
    rf = e.rf
    if rf.is_polynomial() and rf.num.is_constant():
        return spec.zero()
    out = RationalFunction.const(spec.generators, 0)
    for j, dgj in enumerate(row):
        if dgj:
            out = out + rf.partial(j) * dgj
    return BaseFieldElement(spec, out)


def is_D_constant(e: BaseFieldElement) -> bool:
    """True iff the designated derivation D (last table row) kills e."""
    return not derive_base(e, e.field.num_derivations - 1)


@dataclass(frozen=True)
class CommutatorCounterexample:
    i: int
    j: int
    generator: str
    lhs: BaseFieldElement
    rhs: BaseFieldElement

    def __str__(self):
        return (
            f"derivations {self.i} and {self.j} do not commute on generator "
            f"{self.generator}: {self.lhs!r} != {self.rhs!r}"
        )


def check_commutativity(spec: BaseFieldSpec):
    """Verify d_i(d_j g) = d_j(d_i g) for all derivation pairs and every
    generator g. Returns None on success, else a CommutatorCounterexample
    naming the failing triple."""
    for i in range(spec.num_derivations):
        for j in range(i + 1, spec.num_derivations):
            for l, name in enumerate(spec.generators):
                gj = spec.element(spec.tables[j][l])
                gi = spec.element(spec.tables[i][l])
                lhs = derive_base(gj, i)
                rhs = derive_base(gi, j)
                if lhs != rhs:
                    return CommutatorCounterexample(i, j, name, lhs, rhs)
    return None


def base_field(generators, tables) -> BaseFieldSpec:
    """Construct and eagerly validate a base field.

    generators: iterable of names; tables: per-derivation sequence of values,
    each value a RationalFunction over the generators, an int/Fraction, or a
    coefficient expression string. Raises CommutativityError on a failing
    commutator check.
    """
    gens = tuple(generators)
    rows = []
    for row in tables:
        vals = []
        for v in row:
            if isinstance(v, RationalFunction):
                if v.vars != gens:
                    raise ValueError("table entry over a different registry")
                vals.append(v)
            elif isinstance(v, str):
                from .syntax import parse_scalar_rf

                vals.append(parse_scalar_rf(v, gens))
            else:
                vals.append(RationalFunction.const(gens, Fraction(v)))
        if len(vals) != len(gens):
            raise ValueError("table row length does not match generators")
        rows.append(tuple(vals))
    if not rows:
        raise ValueError("a base field needs at least one derivation (the designated D)")
    spec = BaseFieldSpec(gens, tuple(rows))
    bad = check_commutativity(spec)
    if bad is not None:
        raise CommutativityError(str(bad))
    return spec


def rationals_field(num_derivations: int = 1) -> BaseFieldSpec:
    """The constant field Q with the requested number of (zero) derivations."""
    return BaseFieldSpec((), tuple(() for _ in range(num_derivations)))
