"""Parser and canonical printer."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import (
    Context,
    DerivOp,
    ParseError,
    parse_poly,
    parse_scalar,
    print_poly,
    rationals_field,
    scalar_text,
    tau,
)
from diffalg.sampling import sample_context, sample_poly
from diffalg.syntax import MAX_EXPANSION_TERMS, MAX_EXPONENT, parse_scalar_rf
from diffalg.transform import full_jet_context


@pytest.fixture
def ctx(qt):
    # Q(t), m = 1, n = 2
    return Context.standard(qt, 2)


class TestParse:
    def test_evident_construction(self, ctx, qt):
        f = parse_poly("d1^2 x1 - t*x2", ctx)
        expected = ctx.jet_poly(0, DerivOp((2,))) - ctx.x(1).scale(qt.gen("t"))
        assert f == expected

    def test_order_zero(self, ctx):
        assert parse_poly("x1", ctx) == ctx.x(0)

    def test_derivation_out_of_range(self, ctx):
        with pytest.raises(ParseError, match="out of range"):
            parse_poly("d3 x1", ctx)

    def test_unknown_generator(self, ctx):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_poly("q*x1", ctx)

    def test_variable_out_of_range(self, ctx):
        with pytest.raises(ParseError):
            parse_poly("x3", ctx)

    def test_position_reported(self, ctx):
        with pytest.raises(ParseError) as e:
            parse_poly("x1 + ", ctx)
        assert e.value.position is not None

    def test_commuting_derivations_normalize(self):
        ctx = Context.standard(rationals_field(3), 1)
        assert parse_poly("d1 d2 x1", ctx) == parse_poly("d2 d1 x1", ctx)

    def test_D_only_in_full_contexts(self, ctx, qt):
        with pytest.raises(ParseError, match="full-alphabet"):
            parse_poly("D x1", ctx)
        full = full_jet_context(qt, 1)
        f = parse_poly("D x1", full)
        assert f == full.jet_poly(0, DerivOp((0, 1)))

    def test_division_by_scalar(self, ctx):
        f = parse_poly("x1/2", ctx)
        assert f + f == ctx.x(0)

    def test_division_by_jet_rejected(self, ctx):
        with pytest.raises(ParseError, match="scalar"):
            parse_poly("x1/x2", ctx)

    def test_blocks(self, ctx):
        assert parse_poly("y1", ctx) == ctx.x(0, block=2)
        assert parse_poly("x2_3", ctx) == ctx.x(1, block=3)

    def test_exponent_bound(self, ctx):
        assert parse_poly(f"x1^{MAX_EXPONENT}", ctx) == ctx.x(0) ** MAX_EXPONENT
        for text in (f"x1^{MAX_EXPONENT + 1}", "x1^100000000", "d1^100000000 x1"):
            with pytest.raises(ParseError, match="exceeds"):
                parse_poly(text, ctx)

    def test_expansion_bound(self, ctx):
        assert len(parse_poly("(x1 + t)^100", ctx).terms) == 101
        for text in ("(x1 + x2 + 1)^44", "(x1 + d1 x1 + t)^60", "(x1 + x2 + d1 x2 + t)^17"):
            with pytest.raises(ParseError, match=f"past {MAX_EXPANSION_TERMS} terms"):
                parse_poly(text, ctx)


class TestPrint:
    def test_identity_on_canonical(self, ctx):
        assert print_poly(parse_poly("x1 + d1 x1", ctx)) == "x1 + d1 x1"

    def test_tau_square(self, ctx_qd):
        assert print_poly(tau(ctx_qd.x(0) ** 2)) == "2*x1*y1"

    def test_zero(self, ctx):
        assert print_poly(ctx.zero()) == "0"

    def test_fraction_coefficients(self, ctx):
        assert print_poly(parse_poly("3/4*x1", ctx)) == "3/4*x1"
        assert print_poly(parse_poly("-x1", ctx)) == "-x1"

    def test_jet_power_parenthesized(self, ctx):
        f = parse_poly("(d1 x1)^2", ctx)
        assert print_poly(f) == "(d1 x1)^2"
        assert parse_poly(print_poly(f), ctx) == f

    def test_round_trip_randomized(self):
        rng = Random(103)
        for _ in range(60):
            ctx = sample_context(rng, max_m=3, max_n=3)
            f = sample_poly(rng, ctx, max_terms=5, max_order=3, denominators=True)
            text = print_poly(f)
            assert parse_poly(text, ctx) == f
            assert print_poly(parse_poly(text, ctx)) == text

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_fuzzed(self, seed):
        rng = Random(seed)
        ctx = sample_context(rng, max_m=3, max_n=3)
        f = sample_poly(rng, ctx, max_terms=5, max_order=3, denominators=True)
        text = print_poly(f)
        assert parse_poly(text, ctx) == f
        assert print_poly(parse_poly(text, ctx)) == text


class TestScalars:
    def test_rational_function(self, qt):
        s = parse_scalar("(t^2 - 1)/(t + 1)", qt)
        assert s == parse_scalar("t - 1", qt)

    def test_round_trip(self, qt):
        s = parse_scalar("(t^2 + 1)/(2*t)", qt)
        assert parse_scalar(scalar_text(s), qt) == s

    def test_exponent_bound(self):
        t = parse_scalar_rf("t", ("t",))
        assert parse_scalar_rf(f"t^{MAX_EXPONENT}", ("t",)) == t ** MAX_EXPONENT
        for text in (f"t^{MAX_EXPONENT + 1}", "t^100000000"):
            with pytest.raises(ParseError, match="exceeds"):
                parse_scalar_rf(text, ("t",))

    def test_expansion_bound(self):
        # a T-term base squared may have comb(T + 1, 2) terms: 990 for T = 44
        gens = ("t", "u")
        assert parse_scalar_rf("(" + " + ".join(f"t^{i}" for i in range(44)) + ")^2", gens)
        for text in ("(" + " + ".join(f"t^{i}" for i in range(45)) + ")^2",
                     "(t + u + 1)^44", "(1/(t + u + 1))^44", "((t + u + 1)^2)^30"):
            with pytest.raises(ParseError, match=f"past {MAX_EXPANSION_TERMS} terms"):
                parse_scalar_rf(text, gens)

    def test_no_jets_in_scalars(self):
        with pytest.raises(ParseError):
            parse_scalar_rf("x1", ("t",))
