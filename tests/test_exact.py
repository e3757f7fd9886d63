"""Exact arithmetic: polynomials, division, Groebner bases, rational functions."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.exact import (
    DEGREVLEX,
    LEX,
    DivisionFails,
    MonomialOrder,
    LimitExceeded,
    Limits,
    Membership,
    MultiPoly,
    RationalFunction,
    division,
    groebner_basis,
    ideal_member,
    normal_form,
    poly_divide_exact,
    poly_gcd,
)
from diffalg.exact import MONO_ONE, mono_div, mono_divides, mono_mul
from diffalg.sampling import sample_scalar

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


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


class TestStoredShortcuts:
    """Negation, scaling by a rational, adding 0 and multiplying by a
    constant in Q store their pair without normalising; the pair must be the
    one the full constructor stores."""

    @given(multipolys(), denominators, rationals)
    @settings(max_examples=80, deadline=None)
    def test_shortcuts_are_fixed_points(self, n, d, q):
        r = RationalFunction(n, d)
        zero, c = RationalFunction.const(VARS, 0), RationalFunction.const(VARS, q)
        same = stored(RationalFunction(r.num, r.den))
        scaled = stored(RationalFunction(r.num.scale(q), r.den))
        assert stored(-r) == stored(RationalFunction(-r.num, r.den))
        assert stored(r.scale(q)) == scaled
        assert stored(r + zero) == same
        assert stored(zero + r) == same
        assert stored(r * c) == scaled
        assert stored(c * r) == scaled


def _reference_division(f, divisors, order=DEGREVLEX):
    """The textbook division loop on whole polynomials, as an oracle for the
    in-place kernel."""
    leads = [g.leading(order) for g in divisors]
    quotients = [MultiPoly.zero(f.vars) for _ in divisors]
    remainder = MultiPoly.zero(f.vars)
    work = f
    while work:
        m, c = work.leading(order)
        for i, (lm, lc) in enumerate(leads):
            if mono_divides(lm, m):
                t = mono_div(m, lm)
                q = c / lc
                quotients[i] += MultiPoly(f.vars, {t: q})
                work = work - divisors[i].mul_term(t, q)
                break
        else:
            remainder += MultiPoly(f.vars, {m: c})
            work = work - MultiPoly(f.vars, {m: c})
    return quotients, remainder


ORDERS = [DEGREVLEX, LEX, MonomialOrder("lex", priority=(1, 0)),
          MonomialOrder("degrevlex", priority=(1, 0))]


class TestDivisionOracle:
    @given(multipolys(max_terms=6), st.lists(multipolys().filter(bool), min_size=1, max_size=2),
           st.sampled_from(ORDERS))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_over_q(self, f, divisors, order):
        quotients, remainder = division(f, divisors, order)
        ref_quotients, ref_remainder = _reference_division(f, divisors, order)
        assert [q.terms for q in quotients] == [q.terms for q in ref_quotients]
        assert remainder.terms == ref_remainder.terms

    @given(multipolys(), multipolys().filter(bool), multipolys().filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_division_fails_carries_reference_remainder(self, f, g, h):
        _, ref_remainder = _reference_division(f * h + g, [h])
        try:
            poly_divide_exact(f * h + g, h)
        except DivisionFails as e:
            assert e.remainder.terms == ref_remainder.terms
        else:
            assert not ref_remainder

    def test_matches_reference_over_moving_field(self, qtu, stored_terms):
        rng = Random(17)

        def poly(max_terms):
            terms = {}
            for _ in range(rng.randint(1, max_terms)):
                mono = tuple((i, e) for i in range(len(VARS)) if (e := rng.randint(0, 2)))
                terms[mono] = sample_scalar(rng, qtu, degree=1, allow_zero=False,
                                            denominators=True)
            return MultiPoly(VARS, terms)

        for case in range(40):
            order = ORDERS[case % len(ORDERS)]
            divisors = [poly(3) for _ in range(1 + case % 2)]
            f = poly(3) * divisors[0] + (poly(2) if case % 3 else MultiPoly.zero(VARS))
            quotients, remainder = division(f, divisors, order)
            ref_quotients, ref_remainder = _reference_division(f, divisors, order)
            for q, ref in zip(quotients, ref_quotients):
                assert stored_terms(q) == stored_terms(ref)
            assert stored_terms(remainder) == stored_terms(ref_remainder)
            if len(divisors) == 1 and remainder:
                with pytest.raises(DivisionFails) as e:
                    poly_divide_exact(f, divisors[0], order)
                assert stored_terms(e.value.remainder) == stored_terms(ref_remainder)


def _reference_add(f, g):
    """The polynomial sum loop that the term-map kernel replaced."""
    terms = dict(f.terms)
    for m, c in g.terms.items():
        s = terms.get(m, 0) + c
        if s:
            terms[m] = s
        elif m in terms:
            del terms[m]
    return MultiPoly(f.vars, terms)


def _reference_mul(f, g):
    """The polynomial product loop that the term-map kernel replaced."""
    if len(g.terms) == 1 and MONO_ONE in g.terms:
        return f.scale(g.terms[MONO_ONE])
    if len(f.terms) == 1 and MONO_ONE in f.terms:
        return g.scale(f.terms[MONO_ONE])
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = mono_mul(m1, m2)
            s = terms.get(m, 0) + c1 * c2
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
    return MultiPoly(f.vars, terms)


def _reference_pow(f, k):
    out = MultiPoly.constant(f.vars, Fraction(1))
    for _ in range(k):
        out = _reference_mul(out, f)
    return out


def _reference_rf_pow(r, k):
    out = RationalFunction.const(r.vars, 1)
    for _ in range(k):
        out = out * r
    return out


def stored_in_order(r):
    return list(r.num.terms.items()), list(r.den.terms.items())


def in_order(p):
    """The stored terms of p in dict order, with each coefficient's stored
    pair when the coefficients are base-field elements."""
    return [(m, stored_in_order(c.rf) if hasattr(c, "rf") else c)
            for m, c in p.terms.items()]


operands = st.one_of(multipolys(max_terms=5), constants)


class TestTermMapKernel:
    """The shared add, product and power loops store the same terms, in the
    same dict order, as the polynomial loops they replaced."""

    @given(operands, operands)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_over_q(self, f, g):
        assert in_order(f + g) == in_order(_reference_add(f, g))
        assert in_order(f * g) == in_order(_reference_mul(f, g))
        assert in_order(f - g * f) == in_order(_reference_add(f, -_reference_mul(g, f)))

    @given(multipolys(max_terms=3, max_exp=2), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_power_matches_reference(self, f, k):
        assert in_order(f ** k) == in_order(_reference_pow(f, k))
        r = RationalFunction(f + ONE, A + ONE)
        assert stored_in_order(r ** k) == stored_in_order(_reference_rf_pow(r, k))

    def test_matches_reference_over_moving_field(self, qtu):
        # A constant left factor scales in operand order, c * co, where the
        # replaced loop scaled by co * c; over a base field those two pairs
        # may list their terms in different orders, so that case is
        # compared by value.
        rng = Random(23)

        def poly(max_terms):
            terms = {}
            for _ in range(rng.randint(1, max_terms)):
                mono = tuple((i, e) for i in range(len(VARS)) if (e := rng.randint(0, 2)))
                terms[mono] = sample_scalar(rng, qtu, degree=1, allow_zero=False,
                                            denominators=True)
            return MultiPoly(VARS, terms)

        for case in range(30):
            f, g = poly(3), poly(3)
            c = MultiPoly.constant(VARS, g.terms[next(iter(g.terms))])
            assert in_order(f + g) == in_order(_reference_add(f, g))
            assert in_order(f * g) == in_order(_reference_mul(f, g))
            assert in_order(f * c) == in_order(_reference_mul(f, c))
            assert c * f == _reference_mul(c, f)
            if case < 10:
                assert in_order(f ** 2) == in_order(_reference_pow(f, 2))


class TestWorkCounts:
    """Deterministic counts of the work the exact layer does."""

    def test_shortcuts_never_normalise(self, monkeypatch):
        r = RationalFunction(A * A + B, A * B + ONE + ONE)
        zero, c = RationalFunction.const(VARS, 0), RationalFunction.const(VARS, Fraction(-3, 2))
        calls = []
        normalize = RationalFunction._normalize

        def counted(num, den):
            calls.append(1)
            return normalize(num, den)

        monkeypatch.setattr(RationalFunction, "_normalize", staticmethod(counted))
        results = [-r, r.scale(Fraction(5, 7)), r + zero, zero + r, r * c, c * r]
        assert not calls
        RationalFunction(r.num, r.den)
        assert len(calls) == 1
        assert all(not x.is_polynomial() for x in results)

    def test_division_builds_one_key_per_monomial(self, monkeypatch):
        g = A * A * B + A * B * B - B + ONE
        f = g * (A * A * A + B * B - A * B + ONE) * (A + B)
        calls = []
        key = MonomialOrder.key

        def counted(self, mono, nvars):
            calls.append(mono)
            return key(self, mono, nvars)

        monkeypatch.setattr(MonomialOrder, "key", counted)
        q = poly_divide_exact(f, g)
        met = set(f.terms) | set(g.terms)
        met |= {mono_mul(gm, t) for t in q.terms for gm in g.terms}
        assert len(calls) == len(set(calls))
        assert set(calls) <= met


class TestGcd:
    def test_common_factor(self):
        g = poly_gcd((A + ONE) * (A * B + ONE), (A + ONE) * B)
        assert g == A + ONE

    def test_coprime(self):
        assert poly_gcd(A, B) == ONE

    def test_zero_cases(self):
        assert poly_gcd(MultiPoly.zero(VARS), A.scale(Fraction(-2))) == A
