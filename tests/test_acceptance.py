"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. All equalities are exact (the arithmetic is rational
throughout, so every tolerance is zero).

Randomized regime: m <= 3, n <= 3, operator order <= 3, <= 6 monomials,
coefficient degree <= 2, 200 cases per property, fixed seeds.
"""

from math import factorial
from random import Random

from diffalg import (
    Certificate,
    Context,
    RationalMatrix,
    VarietySystem,
    Verified,
    apply_delta,
    apply_op,
    check_first_order,
    check_second_order,
    check_transformed_commute,
    component_fiber_check,
    derive_base,
    eval_at_blocks,
    extend_derivation,
    is_D_constant,
    kolchin_matrix,
    nabla_eval,
    parse_poly,
    print_poly,
    prolongation_system,
    radical_transfer_check,
    rewrite_jets,
    section_contains,
    shift_tau,
    tangent_system,
    tau,
    tau_power_cofactor,
    torsor_act,
)
from diffalg.deltaring import as_multipoly
from diffalg.exact import DivisionFails, poly_divide_exact
from diffalg.fields import base_field, rationals_field
from diffalg.prolong import dee_vector
from diffalg.sampling import (
    sample_context,
    sample_field,
    sample_fraction,
    sample_invertible_matrix,
    sample_op,
    sample_point,
    sample_poly,
    sample_scalar,
)
from diffalg.transform import full_jet_context

CASES = 200


def report(num, title, cases, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({title}): {status} [{cases} cases]")
    assert not failures, failures[:5]


def regime_poly(rng, ctx):
    return sample_poly(rng, ctx, max_terms=6, max_order=3, max_power=2,
                       coeff_degree=2)


def test_criterion_1_first_order_identity():
    rng = Random(1001)
    failures = []
    for case in range(CASES):
        ctx = sample_context(rng, max_m=3, max_n=3)
        f = regime_poly(rng, ctx)
        for k in range(ctx.num_ops + 1):
            if check_first_order(f, k):
                failures.append(f"case {case}, direction {k}")
    report(1, "first-order expansion identity", CASES, failures)


def test_criterion_2_second_order_identity():
    rng = Random(1002)
    failures = []
    for case in range(CASES):
        ctx = sample_context(rng, max_m=3, max_n=3)
        f = sample_poly(rng, ctx, max_terms=4, max_order=3, max_power=2)
        for d in range(ctx.num_ops + 1):
            for z in range(ctx.num_ops + 1):
                if d != z and check_second_order(f, d, z):
                    failures.append(f"case {case}, pair ({d},{z})")
    report(2, "second-order expansion identity", CASES, failures)


def test_criterion_3_tau_is_a_delta_derivation():
    rng = Random(1003)
    failures = []
    for case in range(CASES):
        ctx = sample_context(rng, max_m=3, max_n=3)
        f = sample_poly(rng, ctx, max_terms=4, max_order=2)
        g = sample_poly(rng, ctx, max_terms=4, max_order=2)
        if tau(f * g) != tau(f) * g + f * tau(g):
            failures.append(f"case {case}: Leibniz")
        for i in range(ctx.num_ops):
            if tau(apply_delta(i, f)) != apply_delta(i, tau(f)):
                failures.append(f"case {case}: commutation with d{i + 1}")
    report(3, "tau Leibniz and Delta-commutation", CASES, failures)


def test_criterion_4_nabla_evaluation():
    rng = Random(1004)
    failures = []
    for case in range(CASES):
        m = rng.randint(0, 2)
        field = sample_field(rng, m + 1, max_gens=2, min_gens=2)
        ctx = Context.standard(field, rng.randint(1, 2))
        f = sample_poly(rng, ctx, max_terms=4, max_order=2)
        a = sample_point(rng, ctx)
        k = 1 + case % 3
        lhs, rhs = nabla_eval(f, a, k)
        if lhs != rhs:
            failures.append(f"case {case}, k={k}")
    report(4, "nabla evaluation over Q(t1,t2) models, k in 1..3", CASES, failures)


def test_criterion_5_power_cofactor():
    rng = Random(1005)
    failures = []
    # pinned value: f = x, k = 2 gives p = 2 x3
    ctx = Context.standard(rationals_field(1), 1)
    if tau_power_cofactor(ctx.x(0), 2) != 2 * ctx.x(0, block=3):
        failures.append("pinned cofactor 2*x1_3")
    # pinned regression: nested-pairing bookkeeping breaks exact division
    x1 = ctx.x(0)
    nested = shift_tau(shift_tau(x1 * x1, 1), 2)
    target = nested - 2 * ctx.x(0, block=2) ** 2
    support = sorted(set(target.support()) | set(x1.support()))
    try:
        poly_divide_exact(as_multipoly(target, support), as_multipoly(x1, support))
        failures.append("nested-pairing division unexpectedly succeeded")
    except DivisionFails:
        pass
    for case in range(CASES):
        cctx = sample_context(rng, max_m=2, max_n=2, max_gens=1)
        f = sample_poly(rng, cctx, max_terms=3, max_order=2, max_power=2)
        k = 1 + case % 3
        try:
            p = tau_power_cofactor(f, k)
        except DivisionFails:
            failures.append(f"case {case}, k={k}: division failed")
            continue
        acc = f ** k
        for _ in range(k):
            acc = shift_tau(acc)
        if acc != (tau(f) ** k).scale(factorial(k)) + f * p:
            failures.append(f"case {case}, k={k}: identity broken")
    report(5, "power cofactor exact division, k in 1..3", CASES, failures)


def test_criterion_6_derivation_extension():
    rng = Random(1006)
    failures = []
    for case in range(CASES):
        m = rng.randint(0, 2)
        field = sample_field(rng, m + 1, max_gens=2, min_gens=1)
        ctx = Context.standard(field, rng.randint(1, 2))
        dvec = dee_vector(ctx)
        a = sample_point(rng, ctx)
        A, b = [], []
        for j in range(ctx.n):
            if rng.random() < 0.5:
                A.append(ctx.x(j) - ctx.const(a[j]))
                b.append(derive_base(a[j], dvec))
            else:
                b.append(sample_scalar(rng, field))
        b = tuple(b)
        ext = extend_derivation(A, a, b, ctx=ctx)
        f = sample_poly(rng, ctx, max_terms=3, max_order=2)
        g = sample_poly(rng, ctx, max_terms=3, max_order=2)
        fa, ga = eval_at_blocks(f, {1: a}), eval_at_blocks(g, {1: a})
        if ext(f + g) != ext(f) + ext(g):
            failures.append(f"case {case}: additivity")
        if ext(f * g) != ext(f) * ga + fa * ext(g):
            failures.append(f"case {case}: Leibniz")
        if any(
            ext(apply_delta(i, f)) != derive_base(ext(f), ctx.deltas[i])
            for i in range(ctx.num_ops)
        ):
            failures.append(f"case {case}: Delta-commutation")
        c = sample_scalar(rng, field)
        if ext(ctx.const(c)) != derive_base(c, dvec):
            failures.append(f"case {case}: base agreement")
        if ext.point_image() != b:
            failures.append(f"case {case}: D'(a) != b")
        if extend_derivation(A, a, b, ctx=ctx)(f) != ext(f):
            failures.append(f"case {case}: uniqueness")
    report(6, "derivation extension properties", CASES, failures)


def test_criterion_7_radical_transfer_certificates():
    rng = Random(1007)
    failures = []
    for case in range(CASES):
        m = rng.randint(0, 2)
        field = sample_field(rng, m + 1, max_gens=2, min_gens=1)
        ctx = Context.standard(field, rng.randint(1, 2))
        dvec = dee_vector(ctx)
        a = sample_point(rng, ctx)
        b = tuple(derive_base(x, dvec) for x in a)
        A = []
        for _ in range(rng.randint(1, 2)):
            h = sample_poly(rng, ctx, max_terms=2, max_order=2)
            A.append(h - ctx.const(eval_at_blocks(h, {1: a})))
        terms = []
        f = ctx.zero()
        for _ in range(rng.randint(1, 2)):
            gi = rng.randrange(len(A))
            op = sample_op(rng, ctx.num_ops, 1)
            h = sample_poly(rng, ctx, max_terms=2, max_order=1)
            terms.append((h, op, gi))
            f = f + h * apply_op(op, A[gi])
        k = 1
        if case % 3 == 0 and f:
            terms = [(f * h, op, gi) for (h, op, gi) in terms]
            k = 2
        result = radical_transfer_check(A, a, b, f, Certificate(k, tuple(terms)))
        if not isinstance(result, Verified):
            failures.append(f"case {case}: {result!r}")
    report(7, "radical transfer on certified instances", CASES, failures)


def test_criterion_8_geometry():
    rng = Random(1008)
    failures = []
    # section points: constructed solutions always land in the prolongation
    for case in range(CASES):
        ctx = sample_context(rng, max_m=2, max_n=3, max_gens=2)
        a = sample_point(rng, ctx)
        gens = []
        for _ in range(rng.randint(1, 2)):
            h = sample_poly(rng, ctx, max_terms=3, max_order=2)
            g = h - ctx.const(eval_at_blocks(h, {1: a}))
            if g:
                gens.append(g)
        if not gens:
            continue
        if not section_contains(VarietySystem(tuple(gens)), a):
            failures.append(f"section case {case}")
    # torsor: sampled tangent/prolongation fibre pairs
    for case in range(CASES):
        m = rng.randint(0, 2)
        field = sample_field(rng, m + 1, max_gens=2, min_gens=1)
        ctx = Context.standard(field, 2)
        dvec = dee_vector(ctx)
        p = sample_scalar(rng, field, allow_zero=False)
        q = sample_scalar(rng, field, allow_zero=False)
        if case % 2:
            V = VarietySystem((ctx.x(0) - ctx.const(p),))
            a = (p, sample_scalar(rng, field))
            b = (field.zero(), sample_scalar(rng, field))
        else:
            V = VarietySystem((ctx.x(0) * ctx.x(1) - ctx.const(p * q),))
            a = (p, q)
            lam = sample_fraction(rng, 3)
            b = (p * lam, -(q * lam))
        c = tuple(derive_base(v, dvec) for v in a)
        try:
            _, verdict = torsor_act(V, a, b, c)
        except Exception as e:
            failures.append(f"torsor case {case}: {e}")
            continue
        if not verdict:
            failures.append(f"torsor case {case}: not a member")
    # tangent = prolongation tau-part over D-constant coefficients
    field = base_field(["t1", "t2"], [[1, 0], [0, 1]])  # D = d/dt2, t1 constant
    ctx = Context.standard(field, 2)
    t1 = field.gen("t1")
    for case in range(CASES):
        f = ctx.zero()
        for _ in range(rng.randint(1, 4)):
            jet = ctx.jet_poly(rng.randrange(2), sample_op(rng, 1, 2))
            coeff = field.rational(sample_fraction(rng, 3, allow_zero=False))
            coeff = coeff * t1 ** rng.randint(0, 2)
            f = f + (jet ** rng.randint(1, 2)).scale(coeff)
        if not f:
            continue
        assert all(is_D_constant(c) for c in f.terms.values())
        V = VarietySystem((f,))
        tg = tangent_system(V).pairs[0][1]
        pr = prolongation_system(V).pairs[0][1]
        if tg != pr:
            failures.append(f"D-constant coincidence case {case}")
    # component-fibre locality on product families
    for case in range(50):
        m = rng.randint(0, 2)
        field = sample_field(rng, m + 1, max_gens=1)
        ctx = Context.standard(field, 1)
        shift = sample_scalar(rng, field)
        values = rng.sample(range(-6, 7), rng.randint(2, 3))
        roots = [ctx.const(shift + field.rational(v)) for v in values]
        product = ctx.one()
        for r in roots:
            product = product * (ctx.x(0) - r)
        V = VarietySystem((product,))
        comps = [VarietySystem((ctx.x(0) - r,)) for r in roots]
        i = rng.randrange(len(roots))
        point = (shift + field.rational(values[i]),)
        witnesses = {j: ctx.x(0) - roots[j] for j in range(len(roots)) if j != i}
        res = component_fiber_check(V, comps, i, point, witnesses)
        if not res.agrees:
            failures.append(f"component case {case}: {res.diagnostic}")
    report(8, "section, torsor, tangent coincidence, component fibres",
           CASES, failures)


def test_criterion_9_transforms():
    rng = Random(1009)
    failures = []
    for case in range(100):
        field = sample_field(rng, rng.randint(1, 4), max_gens=2)
        M = sample_invertible_matrix(rng, field.num_derivations)
        if check_transformed_commute(M, field) is not None:
            failures.append(f"commute case {case}")
    for case in range(100):
        field = sample_field(rng, rng.randint(1, 3), max_gens=1)
        M = sample_invertible_matrix(rng, field.num_derivations)
        ctx = full_jet_context(field, rng.randint(1, 2))
        f = sample_poly(rng, ctx, max_terms=3, max_order=2)
        if rewrite_jets(rewrite_jets(f, M), M.inverse()) != f:
            failures.append(f"round-trip case {case}")
    # three pinned block-matrix products
    pins = [
        (RationalMatrix(((1, 2), (0, 1))), 1, 1, RationalMatrix(((1, 0), (1, 1))),
         RationalMatrix(((1, 2), (0, 1))) @ RationalMatrix(((1, 0), (1, 1)))),
        (RationalMatrix(((2,),)), 0, 1, RationalMatrix.identity(2),
         RationalMatrix(((1, 0), (0, 2)))),
        (RationalMatrix(((1, 1), (0, 1))), 1, 2, RationalMatrix.identity(3),
         RationalMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))),
    ]
    for idx, (Mp, r, m, N, expected) in enumerate(pins):
        if kolchin_matrix(Mp, r, m, N) != expected:
            failures.append(f"kolchin pin {idx}")
    report(9, "transformed commutation, jet round-trip, block matrix",
           100, failures)


def test_criterion_10_frontend():
    rng = Random(1010)
    failures = []
    for case in range(500):
        ctx = sample_context(rng, max_m=3, max_n=3)
        f = sample_poly(rng, ctx, max_terms=6, max_order=3, denominators=True)
        text = print_poly(f)
        try:
            g = parse_poly(text, ctx)
        except Exception as e:
            failures.append(f"case {case}: parse error {e}")
            continue
        if g != f or print_poly(g) != text:
            failures.append(f"case {case}: round trip on {text!r}")
    # byte-identical CLI outputs for the ten pinned inputs
    from test_cli import CASES as CLI_CASES
    from test_cli import GOLDEN, run_cli

    for name, argv in CLI_CASES:
        code, text = run_cli(argv)
        expected = (GOLDEN / f"{name}.txt").read_text()
        if code != 0 or text != expected:
            failures.append(f"golden {name}")
    report(10, "parse/print round trip and CLI golden files", 500, failures)
