"""The relative prolongation operator tau and everything built on it:
coefficient derivation, Jacobian, Hessian, first- and second-order expansion
identities, the block-shift derivation on the jet ring, nabla-point
evaluation, power-cofactor extraction, certificate-based radical transfer,
and derivation extension.

Convention: tau and its iterates are one shift derivation on the
block-indexed jet ring, mapping every jet of block i to the same jet of
block i+1 and acting as D on coefficients; tau is that derivation restricted
to block-1 polynomials. The Jacobian form of tau (df . theta y plus the
coefficient derivative) is assembled only in first_order_expand, as the
independent reference the first-order identity compares against. At nabla
points the blocks are evaluated as x_i -> D^(i-1)(a). Under this convention
the power-cofactor identity

    shift^k(f^k) = k! * (tau f)^k + f * p

holds as an exact polynomial identity; under the alternative bookkeeping
where the i-th application shifts blocks by 2^(i-1) it fails already for
f = x, k = 2 (a pinned regression in the test suite documents this).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .deltaring import (
    Context,
    DeltaPoly,
    Jet,
    apply_delta,
    apply_op,
    as_multipoly,
    eval_at_blocks,
    from_multipoly,
    leibniz,
    mono_lower,
    substitute_blocks,
)
from .exact import DEGREVLEX, accumulate, poly_divide_exact
from .fields import BaseFieldElement, DerivationVector, derive_base

# Largest power k that tau_power_cofactor accepts by default.
MAX_COFACTOR_K = 3


class PreconditionFailed(Exception):
    """A checked hypothesis of an operation does not hold; the message names
    the violating generator or point."""


# -- coefficient derivation and partials --------------------------------------


def coeff_derive(f: DeltaPoly, d: DerivationVector | int) -> DeltaPoly:
    """Apply a base-field derivation to every coefficient, leaving the
    indeterminates fixed. This map is itself a derivation on the polynomial
    ring (additive, Leibniz)."""
    return f.map_coeffs(lambda c: derive_base(c, d))


def dee_vector(ctx: Context) -> DerivationVector:
    if ctx.dee is None:
        raise ValueError("context has no designated derivation D")
    return ctx.dee


def direction_vector(ctx: Context, k: int) -> DerivationVector:
    """Coefficient action of direction k, where 0..m-1 are the structural
    derivations and k == m denotes the designated D."""
    if 0 <= k < ctx.num_ops:
        return ctx.deltas[k]
    if k == ctx.num_ops:
        return dee_vector(ctx)
    raise ValueError(f"direction {k} out of range")


def partial_jet(f: DeltaPoly, u: Jet) -> DeltaPoly:
    """Formal partial derivative of the algebraic view with respect to the
    indeterminate u, substituted back at the jets."""
    terms = {}
    for mono, c in f.terms.items():
        for idx, (jet, p) in enumerate(mono):
            if jet == u:
                accumulate(terms, mono_lower(mono, idx), c * p)
                break
    return DeltaPoly(f.ctx, terms)


@dataclass(frozen=True, eq=False)
class Jacobian:
    """Finitely supported map jet -> d f_hat / d t_jet, all entries nonzero."""

    entries: dict


@dataclass(frozen=True, eq=False)
class Hessian:
    """Symmetric finitely supported second partials, keyed by canonical
    (lower, higher) jet pairs."""

    entries: dict

    def entry(self, u: Jet, v: Jet):
        key = (u, v) if u <= v else (v, u)
        return self.entries.get(key)


def jacobian(f: DeltaPoly) -> Jacobian:
    entries = {}
    for u in f.support():
        d = partial_jet(f, u)
        if d:
            entries[u] = d
    return Jacobian(entries)


def hessian(f: DeltaPoly) -> Hessian:
    entries = {}
    support = f.support()
    for i, u in enumerate(support):
        du = partial_jet(f, u)
        if not du:
            continue
        for v in support[i:]:
            d2 = partial_jet(du, v)
            if d2:
                entries[(u, v)] = d2
    return Hessian(entries)


# -- the prolongation operator -------------------------------------------------


def shift_block(u: Jet, stride: int = 1) -> Jet:
    return Jet(u.op, u.var, u.block + stride)


def tau(f: DeltaPoly) -> DeltaPoly:
    """Relative prolongation of a block-1 polynomial: the shift derivation
    restricted to block 1. Sends every jet theta(x) to theta(y) and every
    constant c to Dc; first_order_expand assembles the same value from the
    Jacobian."""
    if any(b != 1 for b in f.blocks()):
        raise ValueError("tau expects a block-1 polynomial; use shift_tau for jets")
    return shift_tau(f)


def tau_at(f: DeltaPoly, point) -> DeltaPoly:
    """tau(f) with the block-1 variables evaluated at a point, leaving the
    block-2 variables symbolic: the fibre polynomial tau(f)_a(y)."""
    return substitute_blocks(tau(f), {1: tuple(point)})


def tau_pair_eval(f: DeltaPoly, a, b) -> BaseFieldElement:
    """tau(f)_a(b): evaluate the prolongation at block-1 = a, block-2 = b."""
    return eval_at_blocks(tau(f), {1: tuple(a), 2: tuple(b)})


def shift_tau(f: DeltaPoly, stride: int = 1) -> DeltaPoly:
    """The shift derivation on the block-indexed jet ring: jets of block i
    map to the same jets of block i+stride, coefficients map through D.
    Restricted to block-1 polynomials (stride 1) it is tau; it commutes with
    every structural derivation.

    stride > 1 exists only to express the rejected nested-pairing bookkeeping
    in regression tests and the whole-tuple prolongation of multi-block
    systems (where the stride is the block count)."""
    return leibniz(f, lambda jet: shift_block(jet, stride), dee_vector(f.ctx))


# -- second-order expansion ----------------------------------------------------


def apply_direction(f: DeltaPoly, k: int) -> DeltaPoly:
    """Apply direction k to a polynomial: structural derivation for k < m,
    the block-shift prolongation for k == m (the designated D)."""
    if 0 <= k < f.ctx.num_ops:
        return apply_delta(k, f)
    if k == f.ctx.num_ops:
        return shift_tau(f)
    raise ValueError(f"direction {k} out of range")


def jet_direction_image(ctx: Context, u: Jet, k: int) -> Jet:
    """Image of a single jet under direction k: exponent bump for structural
    directions, block shift for D."""
    if 0 <= k < ctx.num_ops:
        return Jet(u.op.bump(k), u.var, u.block)
    if k == ctx.num_ops:
        return shift_block(u)
    raise ValueError(f"direction {k} out of range")


def first_order_expand(f: DeltaPoly, k: int) -> DeltaPoly:
    """The assembled right-hand side of the first-order expansion identity:
    df . (k theta x) + f^k, built from the Jacobian and the coefficient
    derivation. Must agree with the structural apply_direction(f, k)."""
    ctx = f.ctx
    out = coeff_derive(f, direction_vector(ctx, k))
    for u, e in jacobian(f).entries.items():
        img = jet_direction_image(ctx, u, k)
        out = out + e * DeltaPoly(ctx, {((img, 1),): ctx.field.one()})
    return out


def check_first_order(f: DeltaPoly, k: int) -> DeltaPoly:
    """apply_direction(f, k) minus the assembled expansion; contractually 0."""
    return apply_direction(f, k) - first_order_expand(f, k)


def second_order_expand(f: DeltaPoly, d: int, z: int) -> DeltaPoly:
    """The five-term expansion of applying direction z then direction d to a
    block-1 polynomial:

        df . (dz theta x) + (d theta x) . Hf . (z theta x)^T
        + f^(dz) + d(f^d) . (z theta x) + d(f^z) . (d theta x)

    encoded in the jet ring (D-images live in block 2). d and z must be
    distinct directions from 0..m (m = the designated D)."""
    ctx = f.ctx
    if d == z:
        raise ValueError("directions must be distinct")
    if any(b != 1 for b in f.blocks()):
        raise ValueError("second_order_expand expects a block-1 polynomial")

    def jet_poly(u: Jet) -> DeltaPoly:
        return DeltaPoly(ctx, {((u, 1),): ctx.field.one()})

    def image(u: Jet, k: int) -> DeltaPoly:
        return jet_poly(jet_direction_image(ctx, u, k))

    out = coeff_derive(coeff_derive(f, direction_vector(ctx, z)),
                       direction_vector(ctx, d))
    jac = jacobian(f)
    for u, e in jac.entries.items():
        du = jet_direction_image(ctx, jet_direction_image(ctx, u, z), d)
        out = out + e * jet_poly(du)
    hess = hessian(f)
    for (u, v), e in hess.entries.items():
        if u == v:
            out = out + e * image(u, d) * image(v, z)
        else:
            out = out + e * (image(u, d) * image(v, z) + image(v, d) * image(u, z))
    for w, k in ((d, z), (z, d)):
        fw = coeff_derive(f, direction_vector(ctx, w))
        for u, e in jacobian(fw).entries.items():
            out = out + e * image(u, k)
    return out


def check_second_order(f: DeltaPoly, d: int, z: int) -> DeltaPoly:
    """Directly computed d(z(f)) minus the five-term expansion; the contract
    is that this is identically zero."""
    direct = apply_direction(apply_direction(f, z), d)
    return direct - second_order_expand(f, d, z)


# -- nabla evaluation and the power cofactor ------------------------------------


def nabla_point(ctx: Context, point, k: int):
    """Block assignment x_i -> D^(i-1)(a) for blocks 1..k+1."""
    dvec = dee_vector(ctx)
    blocks = {1: tuple(point)}
    cur = tuple(point)
    for i in range(2, k + 2):
        cur = tuple(derive_base(a, dvec) for a in cur)
        blocks[i] = cur
    return blocks


def nabla_eval(f: DeltaPoly, point, k: int):
    """Returns (lhs, rhs) where lhs = shift^k(f) evaluated at the nabla
    blocks x_i -> D^(i-1)(a) and rhs = D^k(f(a)). The contract is lhs == rhs."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ctx = f.ctx
    g = f
    for _ in range(k):
        g = shift_tau(g)
    lhs = eval_at_blocks(g, nabla_point(ctx, point, k))
    dvec = dee_vector(ctx)
    rhs = eval_at_blocks(f, {1: tuple(point)})
    for _ in range(k):
        rhs = derive_base(rhs, dvec)
    return lhs, rhs


def tau_power_cofactor(f: DeltaPoly, k: int, max_k: int = MAX_COFACTOR_K) -> DeltaPoly:
    """The cofactor p with shift^k(f^k) = k! * (tau f)^k + f * p, extracted
    by exact division. DivisionFails here is a hard error: it would falsify
    the implementation or the block-shift convention."""
    if not 1 <= k <= max_k:
        raise ValueError(f"k must be within 1..{max_k}")
    if any(b != 1 for b in f.blocks()):
        raise ValueError("tau_power_cofactor expects a block-1 polynomial")
    ctx = f.ctx
    if not f:
        return ctx.zero()
    acc = f ** k
    for _ in range(k):
        acc = shift_tau(acc)
    target = acc - (tau(f) ** k).scale(factorial(k))
    support = sorted(set(target.support()) | set(f.support()))
    quotient = poly_divide_exact(
        as_multipoly(target, support), as_multipoly(f, support), DEGREVLEX
    )
    return from_multipoly(ctx, quotient, support)


# -- certificate-based radical transfer ------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Explicit cofactors witnessing f^k = sum of h * (theta applied to a
    generator): terms are (cofactor, operator, generator index)."""

    k: int
    terms: tuple


class Verified:
    def __repr__(self):
        return "Verified"


@dataclass(frozen=True)
class CertificateInvalid:
    residual: DeltaPoly

    def __repr__(self):
        return f"CertificateInvalid(residual={self.residual!r})"


@dataclass(frozen=True)
class TauNonzero:
    witness: BaseFieldElement

    def __repr__(self):
        return f"TauNonzero(witness={self.witness!r})"


def radical_transfer_check(A, a, b, f: DeltaPoly, cert: Certificate):
    """Check one instance of radical transfer: given generators A vanishing
    at a with tau(g)_a(b) = 0 for all g in A (a checked precondition), and a
    certificate that f^k lies in the differential ideal of A, evaluate
    tau(f)_a(b).

    Returns Verified when it is zero. CertificateInvalid reports a failed
    certificate identity. TauNonzero carries the nonzero witness value; for
    certificates that genuinely place f itself in the differential ideal this
    cannot happen, and the suite treats it as a fault."""
    ctx = f.ctx
    for idx, g in enumerate(A):
        ga = eval_at_blocks(g, {1: tuple(a)})
        if ga:
            raise PreconditionFailed(f"generator {idx} does not vanish at the point")
        tg = tau_pair_eval(g, a, b)
        if tg:
            raise PreconditionFailed(
                f"tau of generator {idx} does not vanish at (a, b)"
            )
    rhs = ctx.zero()
    for h, op, gi in cert.terms:
        rhs = rhs + h * apply_op(op, A[gi])
    residual = f ** cert.k - rhs
    if residual:
        return CertificateInvalid(residual)
    w = tau_pair_eval(f, a, b)
    if w:
        return TauNonzero(w)
    return Verified()


# -- derivation extension ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DerivationExtension:
    """The unique derivation D' on the ring generated by the point, with
    D'(f(a)) := tau(f)_a(b). Extends D on constants and sends a to b."""

    ctx: Context
    generators: tuple
    point: tuple
    companion: tuple

    def __call__(self, f: DeltaPoly) -> BaseFieldElement:
        return tau_pair_eval(f, self.point, self.companion)

    def point_image(self):
        """D' applied to the point coordinates; equals the companion."""
        out = []
        for j in range(self.ctx.n):
            out.append(self(self.ctx.x(j)))
        return tuple(out)


def extend_derivation(A, a, b, ctx: Context | None = None) -> DerivationExtension:
    """Extend the designated derivation D to the ring generated by the point
    a, sending a to b. Requires tau(g)_a(b) = 0 for every generator g in A
    (checked; PreconditionFailed names the violator)."""
    if ctx is None:
        if not A:
            raise ValueError("pass ctx explicitly when A is empty")
        ctx = A[0].ctx
    for idx, g in enumerate(A):
        w = tau_pair_eval(g, a, b)
        if w:
            raise PreconditionFailed(
                f"tau of generator {idx} evaluates to {w!r} at (a, b), not zero"
            )
    return DerivationExtension(ctx, tuple(A), tuple(a), tuple(b))
