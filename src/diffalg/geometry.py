"""Prolongation and tangent systems for zero sets given by generator lists,
fibres at points, the torsor action of the tangent bundle, component-fibre
locality, and the rational section map used for projecting higher-derivative
relations.

All operations are generator-relative: membership in the full vanishing
ideal of a zero set is never computed. Where set-level equality would need a
differentially closed ambient model, the emitted systems record that caveat
as metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltaring import (
    Context,
    DeltaPoly,
    eval_at_blocks,
    substitute_blocks,
)
from .fields import derive_base
from .prolong import (
    PreconditionFailed,
    coeff_derive,
    dee_vector,
    nabla_point,
    shift_tau,
    tau,
    tau_at,
)

DCF_CAVEAT = (
    "generator-relative system; coincidence with the prolongation of the full "
    "vanishing ideal is guaranteed only over a differentially closed ambient model"
)


class PointNotOnV(Exception):
    """The supplied point does not satisfy the generators it should."""


class WitnessMissing(Exception):
    """component_fiber_check needs a nonvanishing witness for every other
    component."""


@dataclass(frozen=True, eq=False)
class VarietySystem:
    """A zero set presented by a nonempty list of nonzero block-1 generators."""

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a variety system needs at least one generator")
        for g in self.generators:
            if not g:
                raise ValueError("zero generator in a variety system")
            if any(b != 1 for b in g.blocks()):
                raise ValueError("generators must live in block 1")

    @property
    def ctx(self) -> Context:
        return self.generators[0].ctx

    def contains(self, point) -> bool:
        return all(not eval_at_blocks(g, {1: tuple(point)}) for g in self.generators)


@dataclass(frozen=True, eq=False)
class PairedSystem:
    """Generators paired with a block-(1, 2) companion each: (f_i, tau f_i)
    for the prolongation system, (f_i, df_i . theta y) for the tangent
    system. note records any caveat on how the system may be read."""

    base: VarietySystem
    pairs: tuple
    note: str = ""


def prolongation_system(V: VarietySystem) -> PairedSystem:
    """Emit the system {f_i = 0, tau f_i = 0}."""
    return PairedSystem(V, tuple((g, tau(g)) for g in V.generators), DCF_CAVEAT)


def tangent_system(V: VarietySystem) -> PairedSystem:
    """Emit the system {f_i = 0, df_i . theta y = 0}: tau with the
    coefficient-derived summand dropped, leaving the Jacobian dotted with the
    block-2 jets. When every generator has D-constant coefficients this
    coincides syntactically with the tau parts of the prolongation system."""
    pairs = []
    for g in V.generators:
        linear = tau(g) - coeff_derive(g, dee_vector(g.ctx))
        pairs.append((g, linear))
    return PairedSystem(V, tuple(pairs))


def fiber_system(V: VarietySystem, point):
    """The fibre of the prolongation over the point: tau parts with block 1
    evaluated, leaving block-2 polynomials. Requires the point to lie on V."""
    if not V.contains(point):
        raise PointNotOnV("point does not satisfy the variety generators")
    return tuple(tau_at(g, point) for g in V.generators)


def section_contains(V: VarietySystem, point) -> bool:
    """Whether (a, Da) satisfies the prolongation system. The point must lie
    on V (PointNotOnV otherwise); given that, a False return is an
    implementation-fault witness, since the first-order expansion identity
    forces the section into the prolongation."""
    if not V.contains(point):
        raise PointNotOnV("point does not satisfy the variety generators")
    blocks = nabla_point(V.ctx, point, 1)
    return all(not eval_at_blocks(tau(g), blocks) for g in V.generators)


def torsor_act(V: VarietySystem, a, b, c):
    """Act by a tangent-fibre point b on a prolongation-fibre point c over a:
    returns ((a, b+c), verdict). Preconditions are checked and named; the
    verdict (membership of b+c in the prolongation fibre) is contractually
    always True because every tau part is affine-linear in the block-2
    variables, which is also asserted syntactically here."""
    ctx = V.ctx
    tangent = tangent_system(V)
    prolong = prolongation_system(V)
    for i, (f, lin) in enumerate(tangent.pairs):
        if eval_at_blocks(f, {1: tuple(a)}):
            raise PreconditionFailed(f"generator {i} does not vanish at the base point")
        if eval_at_blocks(lin, {1: tuple(a), 2: tuple(b)}):
            raise PreconditionFailed(f"tangent generator {i} rejects the first fibre point")
    for i, (_, t) in enumerate(prolong.pairs):
        if t.degree_in_block(2) > 1:
            raise AssertionError("tau part unexpectedly nonlinear in block 2")
        if eval_at_blocks(t, {1: tuple(a), 2: tuple(c)}):
            raise PreconditionFailed(
                f"prolongation generator {i} rejects the second fibre point"
            )
    total = tuple(bb + cc for bb, cc in zip(b, c))
    verdict = all(
        not eval_at_blocks(t, {1: tuple(a), 2: total}) for _, t in prolong.pairs
    )
    return (tuple(a), total), verdict


# -- component-fibre locality ---------------------------------------------------


@dataclass(frozen=True)
class FiberCheckResult:
    agrees: bool
    skipped: bool = False
    diagnostic: str = ""


def _affine_rows(polys, ctx, jets):
    """View block-2-affine polynomials as rows over the given block-2 jet
    registry plus a trailing constant column. Raises if any polynomial is
    nonlinear or strays outside block 2."""
    index = {j: i for i, j in enumerate(jets)}
    rows = []
    for p in polys:
        if p.degree_in_block(2) > 1 or any(j.block != 2 for j in p.support()):
            raise ValueError("fibre system is not affine in the block-2 jets")
        row = [ctx.field.zero() for _ in range(len(jets) + 1)]
        for mono, c in p.terms.items():
            if not mono:
                row[-1] = row[-1] + c
            else:
                (jet, _power), = mono
                row[index[jet]] = row[index[jet]] + c
        rows.append(row)
    return rows


def _row_reduce(rows):
    """Gaussian elimination over the base field; returns independent pivot rows."""
    basis = []
    for row in rows:
        row = list(row)
        for prow, pcol in basis:
            if row[pcol]:
                factor = row[pcol] / prow[pcol]
                row = [r - factor * pr for r, pr in zip(row, prow)]
        pivot = next((i for i, v in enumerate(row) if v), None)
        if pivot is not None:
            basis.append((row, pivot))
    return basis


def _in_span(row, basis):
    row = list(row)
    for prow, pcol in basis:
        if row[pcol]:
            factor = row[pcol] / prow[pcol]
            row = [r - factor * pr for r, pr in zip(row, prow)]
    return not any(row)


def component_fiber_check(
    V: VarietySystem, components, i: int, point, witnesses
) -> FiberCheckResult:
    """Desk-scale check that the prolongation fibre of V at a point on exactly
    one component agrees with that component's fibre.

    The user asserts that `components` are the irreducible components (this is
    NOT verified). witnesses[j] must be a generator-level polynomial vanishing
    on component j with witnesses[j](point) != 0, for every j != i. The check
    verifies the product expansion identity tau(fg)_a = tau(f)_a g(a) +
    f(a) tau(g)_a on the supplied data, then certifies mutual containment of
    the two affine fibre systems by exact row reduction, and cross-evaluates a
    few candidate fibre points."""
    ctx = V.ctx
    if not components[i].contains(point):
        raise PointNotOnV("point does not lie on the selected component")
    on_others = [j for j, W in enumerate(components)
                 if j != i and W.contains(point)]
    if on_others:
        return FiberCheckResult(
            agrees=False,
            skipped=True,
            diagnostic=f"point also lies on component(s) {on_others}; locality "
            "hypothesis fails, check skipped",
        )
    for j in range(len(components)):
        if j == i:
            continue
        w = witnesses.get(j) if hasattr(witnesses, "get") else witnesses[j]
        if w is None:
            raise WitnessMissing(f"no nonvanishing witness supplied for component {j}")
        if not eval_at_blocks(w, {1: tuple(point)}):
            raise WitnessMissing(f"witness for component {j} vanishes at the point")

    # product expansion identity on sample data from the inputs
    f0 = components[i].generators[0]
    g0 = next(
        (witnesses.get(j) if hasattr(witnesses, "get") else witnesses[j]
         for j in range(len(components)) if j != i),
        None,
    )
    if g0 is not None:
        lhs = tau_at(f0 * g0, point)
        ga = eval_at_blocks(g0, {1: tuple(point)})
        fa = eval_at_blocks(f0, {1: tuple(point)})
        rhs = tau_at(f0, point).scale(ga) + tau_at(g0, point).scale(fa)
        if lhs != rhs:
            return FiberCheckResult(False, diagnostic="product expansion identity failed")

    fib_V = fiber_system(V, point)
    fib_i = fiber_system(components[i], point)
    jets = sorted({j for p in fib_V + fib_i for j in p.support()})
    rows_V = _affine_rows(fib_V, ctx, jets)
    rows_i = _affine_rows(fib_i, ctx, jets)
    span_V = _row_reduce(rows_V)
    span_i = _row_reduce(rows_i)
    mutual = all(_in_span(r, span_i) for r in rows_V) and all(
        _in_span(r, span_V) for r in rows_i
    )
    if not mutual:
        return FiberCheckResult(False, diagnostic="affine spans of fibre systems differ")

    # cross-evaluate candidate fibre points: zero and D(point)
    candidates = [tuple(ctx.field.zero() for _ in range(ctx.n)),
                  nabla_point(ctx, point, 1)[2]]
    for cand in candidates:
        in_V = all(not eval_at_blocks(p, {2: cand}) for p in fib_V)
        in_i = all(not eval_at_blocks(p, {2: cand}) for p in fib_i)
        if in_V != in_i:
            return FiberCheckResult(
                False, diagnostic=f"candidate fibre point separates the systems"
            )
    return FiberCheckResult(True)


# -- the rational section map ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SectionMap:
    """Polynomial map with n(k+2) coordinates, in blocks 1..k+2 of the jet
    ring: the first nk coordinates copy blocks 2..k+1, block k+1 of the output
    is f * x_{k+2} coordinatewise, and the final block is
    -x_{k+2}^2 * tau(g) with the fresh copies substituted by the shifted
    blocks and by f * x_{k+2}."""

    coords: tuple
    k: int
    n: int

    def evaluate(self, blocks):
        return tuple(eval_at_blocks(c, blocks) for c in self.coords)


def section_map(f_tuple, g: DeltaPoly, k: int) -> SectionMap:
    """Build the section map from an n-tuple f and a scalar g of jet
    polynomials over blocks 1..k+1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not f_tuple:
        raise ValueError("empty coordinate tuple")
    ctx = g.ctx
    n = ctx.n
    for p in tuple(f_tuple) + (g,):
        if any(b > k + 1 for b in p.blocks()):
            raise ValueError("inputs must live in blocks 1..k+1")

    def block_jet(var, block):
        return ctx.x(var, block=block)

    coords = []
    for blk in range(2, k + 2):
        for var in range(n):
            coords.append(block_jet(var, blk))
    last_block = [f_tuple[var] * block_jet(var, k + 2) for var in range(n)]
    coords.extend(last_block)

    # tau of g over the whole (k+1)-block tuple: fresh copies land in blocks
    # k+2 .. 2k+2, then get substituted.
    tg = shift_tau(g, stride=k + 1)
    assignment = {}
    for j in range(1, k + 1):
        assignment[k + 1 + j] = tuple(block_jet(var, j + 1) for var in range(n))
    assignment[2 * k + 2] = tuple(last_block)
    tg_sub = substitute_blocks(tg, assignment)
    for var in range(n):
        xk2 = block_jet(var, k + 2)
        coords.append(-(xk2 * xk2) * tg_sub)
    return SectionMap(tuple(coords), k, n)


def section_point(f_tuple, g: DeltaPoly, k: int, point):
    """The distinguished point (a, D'a, ..., D'^k a, 1/g(...)) as a block
    assignment for blocks 1..k+2. Raises EvaluationSingular when g vanishes
    there."""
    ctx = g.ctx
    blocks = nabla_point(ctx, point, k)
    gval = eval_at_blocks(g, {b: blocks[b] for b in g.blocks()}) if g.blocks() else g.constant_part()
    inv = gval.inverse()
    blocks[k + 2] = tuple(inv for _ in range(ctx.n))
    return blocks


def section_check(f_tuple, g: DeltaPoly, k: int, point):
    """Verify s(c) = D'(c) at the distinguished point of a concrete model.
    Returns (ok, s(c), D'(c))."""
    ctx = g.ctx
    smap = section_map(f_tuple, g, k)
    blocks = section_point(f_tuple, g, k, point)
    sc = smap.evaluate(blocks)
    dvec = dee_vector(ctx)
    flat = []
    for b in range(1, k + 3):
        flat.extend(blocks[b])
    dc = tuple(derive_base(v, dvec) for v in flat)
    return all(x == y for x, y in zip(sc, dc)), sc, dc
