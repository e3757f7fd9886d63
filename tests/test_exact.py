"""Exact arithmetic: polynomials, division, Groebner bases, rational functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.exact import (
    DEGREVLEX,
    LEX,
    DivisionFails,
    LimitExceeded,
    Limits,
    Membership,
    MultiPoly,
    RationalFunction,
    groebner_basis,
    ideal_member,
    normal_form,
    poly_divide_exact,
    poly_gcd,
)

VARS = ("a", "b")


def mk(terms):
    return MultiPoly(VARS, {m: Fraction(c) for m, c in terms.items()})


A = MultiPoly.variable(VARS, 0)
B = MultiPoly.variable(VARS, 1)
ONE = MultiPoly.constant(VARS, Fraction(1))


@st.composite
def multipolys(draw, max_terms=4, max_exp=3):
    out = MultiPoly.zero(VARS)
    for _ in range(draw(st.integers(0, max_terms))):
        mono = []
        for i in range(len(VARS)):
            e = draw(st.integers(0, max_exp))
            if e:
                mono.append((i, e))
        c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        out += MultiPoly(VARS, {tuple(mono): c})
    return out


class TestDivision:
    def test_hand_factorization(self):
        q = poly_divide_exact(A * A - ONE, A - ONE)
        assert q == A + ONE

    def test_zero_numerator(self):
        assert poly_divide_exact(MultiPoly.zero(VARS), A) == MultiPoly.zero(VARS)

    def test_remainder_certificate(self):
        with pytest.raises(DivisionFails) as e:
            poly_divide_exact(A * B + ONE, A)
        assert e.value.remainder == ONE

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divide_exact(A, MultiPoly.zero(VARS))

    @given(multipolys(), multipolys())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, q, f):
        if not f:
            return
        assert poly_divide_exact(q * f, f) == q

    @given(multipolys(), multipolys())
    @settings(max_examples=60, deadline=None)
    def test_singleton_normal_form_iff_divides(self, g, f):
        if not f:
            return
        try:
            poly_divide_exact(g, f)
            divides = True
        except DivisionFails:
            divides = False
        assert (not normal_form(g, [f])) == divides


class TestRingAxioms:
    @given(multipolys(), multipolys(), multipolys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == MultiPoly.zero(VARS)


class TestGroebner:
    def test_singleton(self):
        assert groebner_basis([A]) == [A]

    def test_two_generator_case(self):
        basis = groebner_basis([A * A, A * B])
        assert not normal_form(A * B * B, basis)
        assert normal_form(B, basis) == B

    def test_back_substitution(self):
        basis = groebner_basis([A - B, B - ONE])
        assert normal_form(A, basis) == ONE

    def test_step_cap(self):
        with pytest.raises(LimitExceeded):
            groebner_basis([A], limits=Limits(steps=0))

    def test_degree_cap(self):
        with pytest.raises(LimitExceeded):
            groebner_basis([A * A - B, A * B - ONE], limits=Limits(degree=1))
        assert ideal_member(A, [A * A - B, A * B - ONE],
                            limits=Limits(degree=1)) == Membership.INCONCLUSIVE

    def test_empty_gens_rejected(self):
        with pytest.raises(ValueError):
            groebner_basis([])

    def test_katsura_like(self):
        # a nontrivial pair where an S-polynomial survives
        f = A * A - B
        g = A * B - ONE
        basis = groebner_basis([f, g])
        for p in (f, g):
            assert not normal_form(p, basis)
        # b^2 - a is in the ideal: a * (ab - 1) - b * (a^2 - b) = b^2 - a
        assert not normal_form(B * B - A, basis)


class TestIdealMember:
    def test_yes(self):
        assert ideal_member(A * A - ONE, [A - ONE]) == Membership.YES

    def test_no(self):
        assert ideal_member(ONE, [A]) == Membership.NO

    def test_inconclusive(self):
        assert ideal_member(A, [A], limits=Limits(steps=0)) == Membership.INCONCLUSIVE


class TestOrders:
    def test_degrevlex_vs_lex(self):
        # x^2 vs x*y: both orders agree here (priority a before b)
        f = A * A + A * B
        assert f.leading(DEGREVLEX)[0] == ((0, 2),)
        g = A + B * B
        assert g.leading(LEX)[0] == ((0, 1),)
        assert g.leading(DEGREVLEX)[0] == ((1, 2),)

    def test_priority(self):
        from diffalg.exact import MonomialOrder

        rev = MonomialOrder("lex", priority=(1, 0))
        assert (A + B).leading(rev)[0] == ((1, 1),)


class TestRationalFunction:
    def test_cross_multiplication_equality(self):
        r = RationalFunction(A * A - ONE, A - ONE)
        assert r == RationalFunction(A + ONE)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(A, MultiPoly.zero(VARS))

    @given(multipolys(), multipolys(), multipolys(), multipolys())
    @settings(max_examples=40, deadline=None)
    def test_equivalence_consistent_with_arithmetic(self, n1, d1, n2, d2):
        if not d1 or not d2:
            return
        r1 = RationalFunction(n1, d1)
        r2 = RationalFunction(n2, d2)
        s = r1 + r2
        p = r1 * r2
        assert s == RationalFunction(n1 * d2 + n2 * d1, d1 * d2)
        assert p == RationalFunction(n1 * n2, d1 * d2)
        assert r1 - r1 == RationalFunction.const(VARS, 0)
        assert r1 == r1

    @given(multipolys(), multipolys())
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance_and_transitivity(self, n, d):
        if not d or not n:
            return
        r1 = RationalFunction(n, d)
        r2 = RationalFunction(n * d, d * d)
        r3 = RationalFunction(n * d * d, d * d * d)
        assert r1 == r2 and r2 == r3 and r1 == r3

    def test_partial_quotient_rule(self):
        r = RationalFunction(ONE, A)
        assert r.partial(0) == RationalFunction(-ONE, A * A)

    def test_constant_denominator_is_one(self):
        r = RationalFunction(A + ONE, ONE.scale(Fraction(-2, 3)))
        assert r.is_polynomial()
        assert r.den.terms == {(): 1}
        assert r.num == (A + ONE).scale(Fraction(-3, 2))


def stored(r):
    return r.num.terms, r.den.terms


constants = st.builds(
    lambda p, q: MultiPoly.constant(VARS, Fraction(p, q)),
    st.integers(-6, 6).filter(bool), st.integers(1, 5))
denominators = st.one_of(constants, multipolys(max_terms=3).filter(bool))


class TestPolynomialFastPath:
    """Values with denominator 1 skip normalisation and denominator
    products; their stored pairs must equal those of the general path."""

    @given(multipolys(max_terms=6).filter(bool), constants)
    @settings(max_examples=80, deadline=None)
    def test_constant_denominator_matches_normalize(self, num, d):
        r = RationalFunction(num, d)
        assert stored(r) == tuple(p.terms for p in RationalFunction._normalize(num, d))

    @given(multipolys(), denominators, multipolys(), denominators)
    @settings(max_examples=80, deadline=None)
    def test_mixed_arithmetic_matches_cross_multiplication(self, n1, d1, n2, d2):
        r1, r2 = RationalFunction(n1, d1), RationalFunction(n2, d2)
        a, b, c, d = r1.num, r1.den, r2.num, r2.den
        assert stored(r1 + r2) == stored(RationalFunction(a * d + c * b, b * d))
        assert stored(r1 * r2) == stored(RationalFunction(a * c, b * d))
        assert (r1 == r2) == (a * d == c * b)
        for i in range(len(VARS)):
            expected = RationalFunction(a.partial(i) * b - a * b.partial(i), b * b)
            assert stored(r1.partial(i)) == stored(expected)


class TestGcd:
    def test_common_factor(self):
        g = poly_gcd((A + ONE) * (A * B + ONE), (A + ONE) * B)
        assert g == A + ONE

    def test_coprime(self):
        assert poly_gcd(A, B) == ONE

    def test_zero_cases(self):
        assert poly_gcd(MultiPoly.zero(VARS), A.scale(Fraction(-2))) == A
