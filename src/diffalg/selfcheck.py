"""Randomized identity batteries behind the `check` CLI subcommand and the
acceptance suite. Every battery runs a fixed number of seeded cases and
returns the failures as printable witnesses; an empty failure list is a pass.

The constructions only produce instances whose contracts are mathematically
forced (e.g. radical-transfer certificates are built so that the polynomial
itself lies in the differential ideal), so any failure witnesses an
implementation fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from random import Random

from .deltaring import Context, apply_delta, eval_at_blocks
from .exact import DivisionFails
from .fields import derive_base
from .geometry import VarietySystem, section_contains, torsor_act
from .prolong import (
    MAX_COFACTOR_K,
    Certificate,
    CertificateInvalid,
    PreconditionFailed,
    Verified,
    apply_op,
    check_first_order,
    check_second_order,
    dee_vector,
    extend_derivation,
    nabla_eval,
    radical_transfer_check,
    shift_tau,
    tau,
    tau_power_cofactor,
)
from .sampling import (
    sample_context,
    sample_field,
    sample_fraction,
    sample_invertible_matrix,
    sample_op,
    sample_point,
    sample_poly,
    sample_scalar,
)
from .syntax import parse_poly, print_poly
from .transform import check_transformed_commute, full_jet_context, rewrite_jets


@dataclass
class CheckOutcome:
    name: str
    cases: int
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)} witnesses)"
        return f"{self.name}: {self.cases} cases, {status}"


def check_exten1(seed: int = 0, cases: int = 50) -> CheckOutcome:
    """First- and second-order expansion identities, all direction (pairs)."""
    rng = Random(seed)
    out = CheckOutcome("exten1", cases)
    for case in range(cases):
        ctx = sample_context(rng)
        f = sample_poly(rng, ctx)
        m = ctx.num_ops
        for k in range(m + 1):
            r = check_first_order(f, k)
            if r:
                out.failures.append(
                    f"case {case}: first-order residual {print_poly(r)} "
                    f"for direction {k} on {print_poly(f)}"
                )
        for d in range(m + 1):
            for z in range(m + 1):
                if d == z:
                    continue
                r = check_second_order(f, d, z)
                if r:
                    out.failures.append(
                        f"case {case}: second-order residual {print_poly(r)} "
                        f"for directions ({d},{z}) on {print_poly(f)}"
                    )
    return out


def check_exten3(seed: int = 0, cases: int = 50) -> CheckOutcome:
    """tau is a derivation commuting with the structural derivations."""
    rng = Random(seed)
    out = CheckOutcome("exten3", cases)
    for case in range(cases):
        ctx = sample_context(rng)
        f = sample_poly(rng, ctx)
        g = sample_poly(rng, ctx)
        if tau(f * g) != tau(f) * g + f * tau(g):
            out.failures.append(f"case {case}: Leibniz fails for tau on "
                                f"{print_poly(f)}, {print_poly(g)}")
        for i in range(ctx.num_ops):
            if tau(apply_delta(i, f)) != apply_delta(i, tau(f)):
                out.failures.append(
                    f"case {case}: tau does not commute with d{i + 1} on {print_poly(f)}"
                )
    return out


def _qtt_context(rng: Random, n: int = 1) -> Context:
    """A concrete model over Q(t1, t2) with commuting derivations and a
    nontrivial D for nabla-style evaluations."""
    field = sample_field(rng, rng.randint(1, 3), max_gens=2)
    return Context.standard(field, n)


def check_radic1(seed: int = 0, cases: int = 50, k_max: int = 3) -> CheckOutcome:
    """nabla evaluation: shift^k(f) at the D-iterated blocks equals D^k f(a)."""
    rng = Random(seed)
    out = CheckOutcome("radic1", cases)
    for case in range(cases):
        ctx = _qtt_context(rng, rng.randint(1, 2))
        f = sample_poly(rng, ctx, max_terms=3)
        a = sample_point(rng, ctx)
        k = 1 + case % k_max
        lhs, rhs = nabla_eval(f, a, k)
        if lhs != rhs:
            out.failures.append(
                f"case {case}: nabla k={k} mismatch on {print_poly(f)}"
            )
    return out


def check_radic2(seed: int = 0, cases: int = 50, k_max: int = MAX_COFACTOR_K) -> CheckOutcome:
    """Power cofactor extraction: shift^k(f^k) - k!(tau f)^k divides by f."""
    from math import factorial

    rng = Random(seed)
    out = CheckOutcome("radic2", cases)
    for case in range(cases):
        ctx = sample_context(rng, max_m=1, max_n=2, max_gens=1)
        f = sample_poly(rng, ctx, max_terms=3, max_order=1, max_power=2)
        k = 1 + case % k_max
        try:
            p = tau_power_cofactor(f, k)
        except DivisionFails as e:  # would falsify the block-shift convention
            out.failures.append(f"case {case}: k={k} raised {e!r} on {print_poly(f)}")
            continue
        acc = f ** k
        for _ in range(k):
            acc = shift_tau(acc)
        if acc != (tau(f) ** k).scale(factorial(k)) + f * p:
            out.failures.append(f"case {case}: cofactor identity fails on {print_poly(f)}")
    return out


def check_torsor(seed: int = 0, cases: int = 50) -> CheckOutcome:
    """Sampled tangent/prolongation fibre pairs act into the fibre, and the
    section (a, Da) always lands in the prolongation."""
    rng = Random(seed)
    out = CheckOutcome("torsor", cases)
    for case in range(cases):
        ctx = _qtt_context(rng, n=2)
        K = ctx.field
        dvec = dee_vector(ctx)
        style = case % 3
        if style == 0:
            # graph: x1 = p, second coordinate free
            p = sample_scalar(rng, K)
            V = VarietySystem((ctx.x(0) - ctx.const(p),))
            a = (p, sample_scalar(rng, K))
            b = (K.zero(), sample_scalar(rng, K))
        elif style == 1:
            # product relation x1*x2 = p*q at the point (p, q)
            p = sample_scalar(rng, K, allow_zero=False)
            q = sample_scalar(rng, K, allow_zero=False)
            V = VarietySystem((ctx.x(0) * ctx.x(1) - ctx.const(p * q),))
            a = (p, q)
            lam = sample_fraction(rng, 3)
            b = (p * lam, -(q * lam))
        else:
            # differential relation d1 x1 = c with c := d1(a1), when m >= 1
            if ctx.num_ops == 0:
                p = sample_scalar(rng, K)
                V = VarietySystem((ctx.x(0) - ctx.const(p),))
                a = (p, sample_scalar(rng, K))
                b = (K.zero(), sample_scalar(rng, K))
            else:
                a1 = sample_scalar(rng, K)
                c = derive_base(a1, ctx.deltas[0])
                from .deltaring import DerivOp
                op = DerivOp(tuple(1 if i == 0 else 0 for i in range(ctx.num_ops)))
                V = VarietySystem((ctx.jet_poly(0, op) - ctx.const(c),))
                a = (a1, sample_scalar(rng, K))
                b = (K.rational(sample_fraction(rng, 3)), sample_scalar(rng, K))
        if not section_contains(V, a):
            out.failures.append(f"case {case}: section point not in prolongation")
            continue
        c_pt = tuple(derive_base(x, dvec) for x in a)
        try:
            _, verdict = torsor_act(V, a, b, c_pt)
        except PreconditionFailed as e:
            out.failures.append(f"case {case}: torsor preconditions failed: {e}")
            continue
        if not verdict:
            out.failures.append(f"case {case}: torsor action left the fibre")
    return out


def check_commute(seed: int = 0, cases: int = 50) -> CheckOutcome:
    """Transformed derivations commute; jet rewriting round-trips."""
    rng = Random(seed)
    out = CheckOutcome("commute", cases)
    for case in range(cases):
        field = sample_field(rng, rng.randint(1, 3), max_gens=2)
        M = sample_invertible_matrix(rng, field.num_derivations)
        rep = check_transformed_commute(M, field)
        if rep is not None:
            out.failures.append(f"case {case}: {rep}")
        ctx = full_jet_context(field, 1)
        f = sample_poly(rng, ctx, max_terms=3, max_order=2)
        if rewrite_jets(rewrite_jets(f, M), M.inverse()) != f:
            out.failures.append(f"case {case}: rewrite round trip failed")
    return out


def check_exten5(seed: int = 0, cases: int = 50) -> CheckOutcome:
    """Extension of the designated derivation: additive, Leibniz, commutes
    with the structural derivations, agrees with D on constants, sends the
    point to the companion, and is reproducible."""
    rng = Random(seed)
    out = CheckOutcome("exten5", cases)
    for case in range(cases):
        ctx = _qtt_context(rng, rng.randint(1, 2))
        K = ctx.field
        dvec = dee_vector(ctx)
        a = sample_point(rng, ctx)
        # per coordinate: either free companion (no constraint) or the graph
        # relation x_j - a_j forcing b_j = D a_j
        A = []
        b = []
        for j in range(ctx.n):
            if rng.random() < 0.5:
                A.append(ctx.x(j) - ctx.const(a[j]))
                b.append(derive_base(a[j], dvec))
            else:
                b.append(sample_scalar(rng, K))
        b = tuple(b)
        try:
            ext = extend_derivation(A, a, b, ctx=ctx)
        except PreconditionFailed as e:
            out.failures.append(f"case {case}: preconditions unexpectedly failed: {e}")
            continue
        f = sample_poly(rng, ctx, max_terms=3)
        g = sample_poly(rng, ctx, max_terms=3)
        fa = eval_at_blocks(f, {1: a})
        ga = eval_at_blocks(g, {1: a})
        if ext(f + g) != ext(f) + ext(g):
            out.failures.append(f"case {case}: additivity fails")
        if ext(f * g) != ext(f) * ga + fa * ext(g):
            out.failures.append(f"case {case}: Leibniz fails")
        for i in range(ctx.num_ops):
            if ext(apply_delta(i, f)) != derive_base(ext(f), ctx.deltas[i]):
                out.failures.append(f"case {case}: commutation with d{i + 1} fails")
        c = sample_scalar(rng, K)
        if ext(ctx.const(c)) != derive_base(c, dvec):
            out.failures.append(f"case {case}: does not extend D on constants")
        if ext.point_image() != b:
            out.failures.append(f"case {case}: D'(a) != b")
        ext2 = extend_derivation(A, a, b, ctx=ctx)
        if ext2(f) != ext(f):
            out.failures.append(f"case {case}: two constructions disagree")
    return out


def check_better(seed: int = 0, cases: int = 50) -> CheckOutcome:
    """Certificate-based radical transfer returns Verified on constructed
    instances (the certified polynomial genuinely lies in the differential
    ideal, so the transfer is forced)."""
    rng = Random(seed)
    out = CheckOutcome("better", cases)
    for case in range(cases):
        ctx = _qtt_context(rng, rng.randint(1, 2))
        dvec = dee_vector(ctx)
        a = sample_point(rng, ctx)
        b = tuple(derive_base(x, dvec) for x in a)
        A = []
        for _ in range(rng.randint(1, 2)):
            h = sample_poly(rng, ctx, max_terms=2)
            A.append(h - ctx.const(eval_at_blocks(h, {1: a})))
        terms = []
        f = ctx.zero()
        for _ in range(rng.randint(1, 2)):
            gi = rng.randrange(len(A))
            op = sample_op(rng, ctx.num_ops, 1)
            h = sample_poly(rng, ctx, max_terms=2)
            terms.append((h, op, gi))
            f = f + h * apply_op(op, A[gi])
        k = 1
        if case % 3 == 0 and f:
            # exercise the k = 2 certificate path: f^2 = sum (f h) theta g
            terms = [(f * h, op, gi) for (h, op, gi) in terms]
            k = 2
        cert = Certificate(k, tuple(terms))
        r = radical_transfer_check(A, a, b, f, cert)
        if not isinstance(r, Verified):
            out.failures.append(f"case {case}: got {r!r}")
        if terms:
            h0, op0, gi0 = terms[0]
            bad = Certificate(k, ((h0 + ctx.one(), op0, gi0),) + tuple(terms[1:]))
            rb = radical_transfer_check(A, a, b, f, bad)
            # adding 1 to a cofactor breaks the identity unless theta g is 0
            if not isinstance(rb, (CertificateInvalid, Verified)):
                out.failures.append(f"case {case}: bad certificate gave {rb!r}")
    return out


def check_roundtrip(seed: int = 0, cases: int = 100) -> CheckOutcome:
    """parse(print(f)) == f on randomized polynomials."""
    rng = Random(seed)
    out = CheckOutcome("roundtrip", cases)
    for case in range(cases):
        ctx = sample_context(rng, max_m=3, max_n=3)
        f = sample_poly(rng, ctx, max_terms=5, max_order=3, denominators=True)
        text = print_poly(f)
        g = parse_poly(text, ctx)
        if g != f:
            out.failures.append(f"case {case}: round trip broke on {text!r}")
            continue
        if print_poly(g) != text:
            out.failures.append(f"case {case}: print not idempotent on {text!r}")
    return out


CHECKS = {
    "exten1": check_exten1,
    "exten3": check_exten3,
    "radic1": check_radic1,
    "radic2": check_radic2,
    "torsor": check_torsor,
    "commute": check_commute,
    "exten5": check_exten5,
    "better": check_better,
    "roundtrip": check_roundtrip,
}


def run_check(name: str, seed: int = 0, cases: int = 50, k: int | None = None) -> CheckOutcome:
    fn = CHECKS[name]
    if k is not None and name in ("radic1", "radic2"):
        return fn(seed=seed, cases=cases, k_max=k)
    return fn(seed=seed, cases=cases)
