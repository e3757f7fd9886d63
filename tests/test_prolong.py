"""The prolongation operator and the identities built on it."""

from random import Random

import pytest

from diffalg import (
    Certificate,
    CertificateInvalid,
    Context,
    DerivOp,
    PreconditionFailed,
    TauNonzero,
    Verified,
    apply_delta,
    check_first_order,
    check_second_order,
    coeff_derive,
    derive_base,
    eval_at_blocks,
    extend_derivation,
    evaluate,
    first_order_expand,
    hessian,
    jacobian,
    nabla_eval,
    radical_transfer_check,
    rationals_field,
    shift_tau,
    tau,
    tau_power_cofactor,
)
from diffalg.deltaring import as_multipoly
from diffalg.exact import DivisionFails, poly_divide_exact
from diffalg.sampling import sample_context, sample_point, sample_poly


class TestCoeffDerive:
    def test_coefficient_wise(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        f = ctx_qt_d.x(0).scale(t)
        assert coeff_derive(f, ctx_qt_d.dee) == ctx_qt_d.x(0)

    def test_rational_coefficients(self, ctx_qd):
        f = ctx_qd.x(0) ** 2 + ctx_qd.const(3)
        assert not coeff_derive(f, ctx_qd.dee)

    def test_chain_rule_on_coefficient(self, qt_d, ctx_qt_d):
        # D t = 1, so D(t^2) = 2t
        t = qt_d.gen("t")
        f = ctx_qt_d.x(0).scale(t * t)
        assert coeff_derive(f, ctx_qt_d.dee) == ctx_qt_d.x(0).scale(2 * t)

    def test_is_a_derivation(self):
        rng = Random(31)
        for _ in range(20):
            ctx = sample_context(rng)
            f = sample_poly(rng, ctx, max_terms=3)
            g = sample_poly(rng, ctx, max_terms=3)
            d = ctx.dee
            assert coeff_derive(f + g, d) == coeff_derive(f, d) + coeff_derive(g, d)
            assert coeff_derive(f * g, d) == coeff_derive(f, d) * g + f * coeff_derive(g, d)


class TestJacobianHessian:
    def test_partials_by_hand(self):
        ctx = Context.standard(rationals_field(2), 1)
        x = ctx.x(0)
        d1x = ctx.jet_poly(0, DerivOp((1,)))
        f = x * x + d1x
        J = jacobian(f)
        assert J.entries[ctx.jet(0)] == 2 * x
        assert J.entries[ctx.jet(0, DerivOp((1,)))] == ctx.one()
        H = hessian(f)
        assert H.entry(ctx.jet(0), ctx.jet(0)) == ctx.const(2)
        assert H.entry(ctx.jet(0), ctx.jet(0, DerivOp((1,)))) is None

    def test_constant_has_empty_support(self, ctx_qt, qt):
        f = ctx_qt.const(qt.gen("t"))
        assert jacobian(f).entries == {}
        assert hessian(f).entries == {}

    def test_hessian_symmetric_mirror(self):
        ctx = Context.standard(rationals_field(2), 1)
        x = ctx.x(0)
        d1x = ctx.jet_poly(0, DerivOp((1,)))
        H = hessian(x * d1x)
        u, v = ctx.jet(0), ctx.jet(0, DerivOp((1,)))
        assert H.entry(u, v) == ctx.one()
        assert H.entry(v, u) == ctx.one()


class TestTau:
    def test_constant_goes_to_D(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        assert tau(ctx_qt_d.const(t)) == ctx_qt_d.const(qt_d.one())

    def test_jet_goes_to_block_two(self, ctx_qt):
        d1x = ctx_qt.jet_poly(0, DerivOp((1,)))
        assert tau(d1x) == ctx_qt.jet_poly(0, DerivOp((1,)), block=2)

    def test_square(self, ctx_qd):
        x = ctx_qd.x(0)
        y = ctx_qd.x(0, block=2)
        assert tau(x * x) == 2 * x * y

    def test_derivation_properties_randomized(self):
        rng = Random(37)
        for _ in range(30):
            ctx = sample_context(rng)
            f = sample_poly(rng, ctx, max_terms=3)
            g = sample_poly(rng, ctx, max_terms=3)
            assert tau(f * g) == tau(f) * g + f * tau(g)
            assert tau(f + g) == tau(f) + tau(g)
            for i in range(ctx.num_ops):
                assert tau(apply_delta(i, f)) == apply_delta(i, tau(f))

    def test_agrees_with_jacobian_form(self, moving_d_polys, stored_terms):
        # the Jacobian assembly is the independent oracle for the shift form
        for ctx, f in moving_d_polys:
            expected = first_order_expand(f, ctx.num_ops)
            assert tau(f) == expected
            assert stored_terms(tau(f)) == stored_terms(expected)


class TestExpansions:
    def test_first_order_all_directions(self):
        rng = Random(41)
        for _ in range(25):
            ctx = sample_context(rng)
            f = sample_poly(rng, ctx)
            for k in range(ctx.num_ops + 1):
                assert not check_first_order(f, k)

    def test_second_order_degree_one(self, ctx_qtu):
        # Hessian vanishes for a degree-one monomial
        f = ctx_qtu.jet_poly(0, DerivOp((1,))).scale(ctx_qtu.field.gen("u"))
        assert not check_second_order(f, 0, 1)

    def test_second_order_square_with_D(self, ctx_qt):
        f = ctx_qt.x(0) ** 2
        assert not check_second_order(f, 0, 1)  # delta1, then D

    def test_second_order_all_ordered_pairs(self):
        rng = Random(43)
        for _ in range(15):
            ctx = sample_context(rng, max_m=2)
            f = sample_poly(rng, ctx, max_terms=3)
            for d in range(ctx.num_ops + 1):
                for z in range(ctx.num_ops + 1):
                    if d != z:
                        assert not check_second_order(f, d, z)

    def test_equal_directions_rejected(self, ctx_qt):
        from diffalg import second_order_expand

        with pytest.raises(ValueError):
            second_order_expand(ctx_qt.x(0), 0, 0)


class TestShiftTau:
    def test_block_bump(self, ctx_qd):
        assert shift_tau(ctx_qd.x(0)) == ctx_qd.x(0, block=2)

    def test_two_passes_by_hand(self, ctx_qd):
        x1, x2, x3 = (ctx_qd.x(0, block=b) for b in (1, 2, 3))
        assert shift_tau(shift_tau(x1 * x1)) == 2 * x2 * x2 + 2 * x1 * x3

    def test_commutes_with_delta(self, ctx_qt):
        d1x = ctx_qt.jet_poly(0, DerivOp((1,)))
        assert shift_tau(d1x) == ctx_qt.jet_poly(0, DerivOp((1,)), block=2)


class TestNablaEval:
    def test_first_derivative(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        lhs, rhs = nabla_eval(ctx_qt_d.x(0) ** 2, (t,), 1)
        assert lhs == rhs == 2 * t

    def test_constant(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        f = ctx_qt_d.const(t ** 3)
        for k in (1, 2, 3):
            lhs, rhs = nabla_eval(f, (t,), k)
            assert lhs == rhs

    def test_second_derivative(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        lhs, rhs = nabla_eval(ctx_qt_d.x(0) ** 2, (t,), 2)
        assert lhs == rhs == qt_d.rational(2)

    def test_randomized(self):
        rng = Random(47)
        for case in range(25):
            ctx = sample_context(rng, max_m=2, max_n=2)
            f = sample_poly(rng, ctx, max_terms=3)
            a = sample_point(rng, ctx)
            lhs, rhs = nabla_eval(f, a, 1 + case % 3)
            assert lhs == rhs


class TestPowerCofactor:
    def test_k1_zero_cofactor(self, ctx_qd):
        assert not tau_power_cofactor(ctx_qd.x(0), 1)

    def test_k2_pinned_value(self, ctx_qd):
        p = tau_power_cofactor(ctx_qd.x(0), 2)
        assert p == 2 * ctx_qd.x(0, block=3)

    def test_constant(self, qt_d, ctx_qt_d):
        assert not tau_power_cofactor(ctx_qt_d.const(qt_d.gen("t")), 1)

    def test_cap(self, ctx_qd):
        with pytest.raises(ValueError):
            tau_power_cofactor(ctx_qd.x(0), 4)

    def test_never_fails_randomized(self):
        from math import factorial

        rng = Random(53)
        for case in range(15):
            ctx = sample_context(rng, max_m=1, max_n=2, max_gens=1)
            f = sample_poly(rng, ctx, max_terms=2, max_order=1)
            k = 1 + case % 3
            p = tau_power_cofactor(f, k)
            acc = f ** k
            for _ in range(k):
                acc = shift_tau(acc)
            assert acc == (tau(f) ** k).scale(factorial(k)) + f * p

    def test_nested_pairing_regression(self, ctx_qd):
        """Under the rejected bookkeeping where the second application shifts
        blocks by two, the cofactor identity fails exact division for f = x,
        k = 2: tau^2(x^2) = 2 x2 x3 + 2 x1 x4 and subtracting 2 x2^2 leaves
        nothing divisible by x1. This pins the block-shift convention."""
        x1 = ctx_qd.x(0)
        x2 = ctx_qd.x(0, block=2)
        nested = shift_tau(shift_tau(x1 * x1, 1), 2)
        assert nested == 2 * x2 * ctx_qd.x(0, block=3) + 2 * x1 * ctx_qd.x(0, block=4)
        target = nested - 2 * x2 * x2
        support = sorted(set(target.support()) | set(x1.support()))
        with pytest.raises(DivisionFails):
            poly_divide_exact(
                as_multipoly(target, support), as_multipoly(x1, support)
            )


class TestRadicalTransfer:
    def test_trivial_instance(self, ctx_qd):
        K = ctx_qd.field
        cert = Certificate(1, ((ctx_qd.one(), DerivOp(()), 0),))
        r = radical_transfer_check(
            [ctx_qd.x(0)], (K.zero(),), (K.zero(),), ctx_qd.x(0), cert
        )
        assert isinstance(r, Verified)

    def test_wrong_cofactors(self, ctx_qd):
        K = ctx_qd.field
        cert = Certificate(1, ((ctx_qd.const(2), DerivOp(()), 0),))
        r = radical_transfer_check(
            [ctx_qd.x(0)], (K.zero(),), (K.zero(),), ctx_qd.x(0), cert
        )
        assert isinstance(r, CertificateInvalid)
        assert r.residual

    def test_square_generator_documented_gap(self, ctx_qd):
        """A = {x^2}, a = 0, b = 1: the preconditions hold (tau(x^2) vanishes
        identically at a = 0) and the k = 2 certificate for f = x is valid,
        yet tau(x)_0(1) = 1. The check reports TauNonzero: the radical
        transfer conclusion is not certifiable from this data, and the suite
        pins that the k >= 2 certificate path alone cannot force it."""
        K = ctx_qd.field
        cert = Certificate(2, ((ctx_qd.one(), DerivOp(()), 0),))
        r = radical_transfer_check(
            [ctx_qd.x(0) ** 2], (K.zero(),), (K.one(),), ctx_qd.x(0), cert
        )
        assert isinstance(r, TauNonzero)
        assert r.witness == K.one()

    def test_precondition_checked(self, ctx_qd):
        K = ctx_qd.field
        cert = Certificate(1, ((ctx_qd.one(), DerivOp(()), 0),))
        with pytest.raises(PreconditionFailed):
            radical_transfer_check(
                [ctx_qd.x(0)], (K.zero(),), (K.one(),), ctx_qd.x(0), cert
            )


class TestExtendDerivation:
    def test_free_extension_by_hand(self, qt, ctx_qt):
        # base D = 0; extend through a = t with companion b = t:
        # D'(a^2) = d(x^2) . theta(b) at (t, t) = 2 t^2
        t = qt.gen("t")
        ext = extend_derivation([], (t,), (t,), ctx=ctx_qt)
        assert ext(ctx_qt.x(0) ** 2) == 2 * t * t

    def test_agrees_with_ambient_D(self, qtu, ctx_qtu):
        # companion = D(a): the extension recomputes the ambient derivative
        rng = Random(59)
        dvec = ctx_qtu.dee
        for _ in range(10):
            a = sample_point(rng, ctx_qtu)
            b = tuple(derive_base(v, dvec) for v in a)
            ext = extend_derivation([], a, b, ctx=ctx_qtu)
            f = sample_poly(rng, ctx_qtu, max_terms=3)
            assert ext(f) == derive_base(evaluate(f, a), dvec)

    def test_precondition_named(self, ctx_qd):
        K = ctx_qd.field
        with pytest.raises(PreconditionFailed) as e:
            extend_derivation([ctx_qd.x(0)], (K.zero(),), (K.one(),))
        assert "generator 0" in str(e.value)

    def test_uniqueness(self, qtu, ctx_qtu):
        rng = Random(61)
        a = sample_point(rng, ctx_qtu)
        b = sample_point(rng, ctx_qtu)
        e1 = extend_derivation([], a, b, ctx=ctx_qtu)
        e2 = extend_derivation([], a, b, ctx=ctx_qtu)
        for _ in range(5):
            f = sample_poly(rng, ctx_qtu, max_terms=3)
            assert e1(f) == e2(f)
        assert e1.point_image() == b

    def test_leibniz_and_commutation(self, ctx_qtu):
        rng = Random(67)
        for _ in range(10):
            a = sample_point(rng, ctx_qtu)
            b = sample_point(rng, ctx_qtu)
            ext = extend_derivation([], a, b, ctx=ctx_qtu)
            f = sample_poly(rng, ctx_qtu, max_terms=2)
            g = sample_poly(rng, ctx_qtu, max_terms=2)
            fa = eval_at_blocks(f, {1: a})
            ga = eval_at_blocks(g, {1: a})
            assert ext(f * g) == ext(f) * ga + fa * ext(g)
            for i in range(ctx_qtu.num_ops):
                assert ext(apply_delta(i, f)) == derive_base(ext(f), ctx_qtu.deltas[i])
