"""Prolongation/tangent systems, fibres, the torsor action, component
locality, and the section map."""

from random import Random

import pytest

from diffalg import (
    DerivOp,
    PointNotOnV,
    PreconditionFailed,
    VarietySystem,
    WitnessMissing,
    coeff_derive,
    component_fiber_check,
    derive_base,
    is_D_constant,
    prolongation_system,
    section_check,
    section_contains,
    section_map,
    tangent_system,
    tau,
    torsor_act,
)
from diffalg.geometry import DCF_CAVEAT
from diffalg.prolong import dee_vector
from diffalg.sampling import sample_point, sample_poly, sample_scalar


class TestSystems:
    def test_trivial_prolongation(self, ctx_qd):
        V = VarietySystem((ctx_qd.x(0),))
        system = prolongation_system(V)
        assert system.pairs[0][1] == ctx_qd.x(0, block=2)
        assert system.note == DCF_CAVEAT

    def test_jacobian_plus_coefficient_part(self, ctx_qtu, qtu):
        # f = d1 x1 - c with D c = nonzero: tau part is d1 y1 - Dc
        c = qtu.gen("u")
        f = ctx_qtu.jet_poly(0, DerivOp((1,))) - ctx_qtu.const(c)
        system = prolongation_system(VarietySystem((f,)))
        expected = ctx_qtu.jet_poly(0, DerivOp((1,)), block=2) - ctx_qtu.const(c)
        assert system.pairs[0][1] == expected  # Dc = u = c here

    def test_square(self, ctx_qd):
        V = VarietySystem((ctx_qd.x(0) ** 2,))
        system = prolongation_system(V)
        assert system.pairs[0][1] == 2 * ctx_qd.x(0) * ctx_qd.x(0, block=2)

    def test_tangent_drops_coefficient_part(self, ctx_qtu, qtu):
        c = qtu.gen("u")
        f = ctx_qtu.x(0).scale(c)
        tg = tangent_system(VarietySystem((f,))).pairs[0][1]
        pr = prolongation_system(VarietySystem((f,))).pairs[0][1]
        y = ctx_qtu.x(0, block=2)
        assert tg == y.scale(c)
        assert pr == y.scale(c) + ctx_qtu.x(0).scale(c)
        assert tg != pr

    def test_tangent_equals_prolongation_over_D_constants(self, ctx_qtu, qtu):
        # coefficients from Q and the D-constant generator t
        t = qtu.gen("t")
        assert is_D_constant(t)
        f = ctx_qtu.x(0) ** 2 - ctx_qtu.x(1).scale(t)
        tg = tangent_system(VarietySystem((f,)))
        pr = prolongation_system(VarietySystem((f,)))
        assert tg.pairs[0][1] == pr.pairs[0][1]

    def test_tangent_part_is_tau_minus_coefficient_part(self, moving_d_polys, stored_terms):
        for ctx, g in moving_d_polys:
            if not g:
                continue
            (_, linear), = tangent_system(VarietySystem((g,))).pairs
            expected = tau(g) - coeff_derive(g, dee_vector(ctx))
            assert linear == expected
            assert stored_terms(linear) == stored_terms(expected)

    def test_generators_validated(self, ctx_qd):
        with pytest.raises(ValueError):
            VarietySystem(())
        with pytest.raises(ValueError):
            VarietySystem((ctx_qd.zero(),))


class TestSectionContains:
    def test_graph(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        V = VarietySystem((ctx_qt_d.x(0) - ctx_qt_d.const(t),))
        assert section_contains(V, (t,))

    def test_origin(self, ctx_qd):
        V = VarietySystem((ctx_qd.x(0),))
        assert section_contains(V, (ctx_qd.field.zero(),))

    def test_point_off_variety(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        V = VarietySystem((ctx_qt_d.x(0) - ctx_qt_d.const(t),))
        with pytest.raises(PointNotOnV):
            section_contains(V, (t * t,))

    def test_constructed_solution_points_randomized(self, ctx_qtu):
        rng = Random(71)
        for _ in range(20):
            a = sample_point(rng, ctx_qtu)
            gens = []
            for _ in range(rng.randint(1, 2)):
                h = sample_poly(rng, ctx_qtu, max_terms=3)
                from diffalg import eval_at_blocks

                gens.append(h - ctx_qtu.const(eval_at_blocks(h, {1: a})))
            gens = [g for g in gens if g]
            if not gens:
                continue
            assert section_contains(VarietySystem(tuple(gens)), a)


class TestTorsor:
    def test_identity_action(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        V = VarietySystem((ctx_qt_d.x(0) - ctx_qt_d.const(t),))
        zero = (qt_d.zero(),)
        one = (qt_d.one(),)
        point, verdict = torsor_act(V, (t,), zero, one)
        assert verdict and point == ((t,), one)

    def test_shifted_action(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        V = VarietySystem((ctx_qt_d.x(0) - ctx_qt_d.const(t),))
        # tangent fibre is {y = 0}; only the zero tangent vector exists here
        point, verdict = torsor_act(V, (t,), (qt_d.zero(),), (qt_d.one(),))
        assert verdict

    def test_precondition_violation_named(self, qt_d, ctx_qt_d):
        t = qt_d.gen("t")
        V = VarietySystem((ctx_qt_d.x(0) - ctx_qt_d.const(t),))
        with pytest.raises(PreconditionFailed):
            torsor_act(V, (t,), (qt_d.one(),), (qt_d.one(),))

    def test_underdetermined_randomized(self, ctx_qtu, qtu):
        rng = Random(73)
        dvec = ctx_qtu.dee
        for _ in range(15):
            p = sample_scalar(rng, qtu)
            V = VarietySystem((ctx_qtu.x(0) - ctx_qtu.const(p),))
            a = (p, sample_scalar(rng, qtu))
            b = (qtu.zero(), sample_scalar(rng, qtu))
            c = tuple(derive_base(v, dvec) for v in a)
            _, verdict = torsor_act(V, a, b, c)
            assert verdict


class TestComponentFiber:
    def test_single_component(self, ctx_qd):
        V = VarietySystem((ctx_qd.x(0),))
        res = component_fiber_check(V, [V], 0, (ctx_qd.field.zero(),), {})
        assert res.agrees

    def test_product_family(self, ctx_qd):
        x = ctx_qd.x(0)
        V = VarietySystem((x * (x - ctx_qd.one()),))
        Ca = VarietySystem((x,))
        Cb = VarietySystem((x - ctx_qd.one(),))
        res = component_fiber_check(
            V, [Ca, Cb], 0, (ctx_qd.field.zero(),), {1: x - ctx_qd.one()}
        )
        assert res.agrees and not res.skipped

    def test_point_on_two_components_skipped(self, ctx_qd):
        x = ctx_qd.x(0)
        V = VarietySystem((x * x,))
        res = component_fiber_check(
            V,
            [VarietySystem((x,)), VarietySystem((x * x,))],
            0,
            (ctx_qd.field.zero(),),
            {1: ctx_qd.one()},
        )
        assert res.skipped

    def test_missing_witness(self, ctx_qd):
        x = ctx_qd.x(0)
        V = VarietySystem((x * (x - ctx_qd.one()),))
        with pytest.raises(WitnessMissing):
            component_fiber_check(
                V,
                [VarietySystem((x,)), VarietySystem((x - ctx_qd.one(),))],
                0,
                (ctx_qd.field.zero(),),
                {},
            )

    def test_three_component_family(self, ctx_qd):
        x = ctx_qd.x(0)
        one = ctx_qd.one()
        two = ctx_qd.const(2)
        V = VarietySystem((x * (x - one) * (x - two),))
        comps = [
            VarietySystem((x,)),
            VarietySystem((x - one,)),
            VarietySystem((x - two,)),
        ]
        res = component_fiber_check(
            V, comps, 1, (ctx_qd.field.one(),), {0: x, 2: x - two}
        )
        assert res.agrees


class TestSectionMap:
    def test_trivial_relation(self, qt_d, ctx_qt_d):
        # D'^2 a = 0 for a = t: f = 0, g = 1, k = 1
        t = qt_d.gen("t")
        ok, sc, dc = section_check((ctx_qt_d.zero(),), ctx_qt_d.one(), 1, (t,))
        assert ok
        assert sc == dc == (qt_d.one(), qt_d.zero(), qt_d.zero())

    def test_shape(self, ctx_qt_d):
        smap = section_map((ctx_qt_d.zero(),), ctx_qt_d.one(), 2)
        assert len(smap.coords) == 1 * (2 + 2)
        # first nk coordinates are copies of the shifted blocks
        assert smap.coords[0] == ctx_qt_d.x(0, block=2)
        assert smap.coords[1] == ctx_qt_d.x(0, block=3)

    def test_nontrivial_relation(self, qt_d, ctx_qt_d):
        # a = t^2 with D = d/dt satisfies D'^2 a = 2, i.e. f = 2*g with g = 1;
        # k = 1, f constant 2
        t = qt_d.gen("t")
        ok, sc, dc = section_check((ctx_qt_d.const(2),), ctx_qt_d.one(), 1, (t * t,))
        assert ok

    def test_rational_relation(self, qt_d, ctx_qt_d):
        # a = 1/t: D a = -1/t^2 = -a^2, so with k = 1 blocks (x1, x2):
        # D'^2 a = D(-a^2) = -2 a (D a): f = -2 x1 x2 * 1, g = 1
        t = qt_d.gen("t")
        a = t.inverse()
        f = -2 * ctx_qt_d.x(0) * ctx_qt_d.x(0, block=2)
        ok, sc, dc = section_check((f,), ctx_qt_d.one(), 1, (a,))
        assert ok

    def test_denominator_relation(self, qt_d, ctx_qt_d):
        # a = log-free model: a = t with relation D'^2 a = 0/g, g = x1
        # c = (t, 1, 1/t); last coord of s must equal D(1/g(a)) = -Da/(a^2)
        t = qt_d.gen("t")
        g = ctx_qt_d.x(0)
        ok, sc, dc = section_check((ctx_qt_d.zero(),), g, 1, (t,))
        assert ok

    def test_vanishing_denominator_is_singular(self, qt_d, ctx_qt_d):
        from diffalg import EvaluationSingular

        t = qt_d.gen("t")
        g = ctx_qt_d.x(0) - ctx_qt_d.const(t)  # vanishes at a = t
        with pytest.raises(EvaluationSingular):
            section_check((ctx_qt_d.zero(),), g, 1, (t,))

    def test_relation_with_structural_jets(self):
        # Q(t, u) with delta1 = d/dt, D = d/du; a = t/u satisfies
        # D^2 a = -2 * (D a) * (delta1 a), a relation using a delta-jet
        from diffalg import Context, base_field, parse_poly

        K = base_field(["t", "u"], [["1", "0"], ["0", "1"]])
        ctx = Context.standard(K, 1)
        a = K.gen("t") / K.gen("u")
        f = parse_poly("-2 * x1_2 * d1 x1", ctx)
        ok, sc, dc = section_check((f,), ctx.one(), 1, (a,))
        assert ok

    def test_relation_with_nontrivial_denominator(self):
        # Q(t, u), D = d/du, a = u^2: D^2 a = 2 = (2 * Da) / Da, so
        # f = 2*x1_2 and g = x1_2; the inverse block is 1/(2u)
        from diffalg import Context, base_field, parse_poly

        K = base_field(["t", "u"], [["1", "0"], ["0", "1"]])
        ctx = Context.standard(K, 1)
        u = K.gen("u")
        f = parse_poly("2*x1_2", ctx)
        g = parse_poly("x1_2", ctx)
        ok, sc, dc = section_check((f,), g, 1, (u * u,))
        assert ok
        # last coordinate is D(1/(2u)) = -1/(2u^2)
        assert sc[-1] == -(2 * u * u).inverse()
