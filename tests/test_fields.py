"""Base differential fields: chain rule, commutativity, D-constants."""

from fractions import Fraction
from random import Random

import pytest

from diffalg import (
    BaseFieldSpec,
    CommutativityError,
    DerivationVector,
    EvaluationSingular,
    RationalFunction,
    base_field,
    check_commutativity,
    derive_base,
    is_D_constant,
    rationals_field,
)
from diffalg.sampling import sample_field, sample_scalar


class TestDeriveBase:
    def test_generator_rule(self, qt):
        t = qt.gen("t")
        assert derive_base(t, 0) == qt.one()

    def test_chain_rule(self, qt):
        t = qt.gen("t")
        assert derive_base(t * t, 0) == 2 * t

    def test_quotient_rule(self, qt):
        t = qt.gen("t")
        assert derive_base(t.inverse(), 0) == -((t * t).inverse())

    def test_division_by_zero(self, qt):
        with pytest.raises(EvaluationSingular):
            qt.one() / qt.zero()

    def test_vector_action_is_linear_combination(self, q2_partials):
        K = q2_partials
        rng = Random(7)
        d = DerivationVector((Fraction(2), Fraction(-1, 3)))
        for _ in range(20):
            e = sample_scalar(rng, K, denominators=True)
            expected = 2 * derive_base(e, 0) - derive_base(e, 1) / 3
            assert derive_base(e, d) == expected

    def test_linear_and_leibniz(self):
        rng = Random(3)
        for _ in range(25):
            K = sample_field(rng, rng.randint(1, 3))
            i = rng.randrange(K.num_derivations)
            e = sample_scalar(rng, K, denominators=True)
            f = sample_scalar(rng, K, denominators=True)
            assert derive_base(e + f, i) == derive_base(e, i) + derive_base(f, i)
            assert derive_base(e * f, i) == derive_base(e, i) * f + e * derive_base(f, i)

    def test_commuting_on_elements(self):
        rng = Random(11)
        for _ in range(25):
            K = sample_field(rng, rng.randint(2, 3))
            e = sample_scalar(rng, K, denominators=True)
            i = rng.randrange(K.num_derivations)
            j = rng.randrange(K.num_derivations)
            lhs = derive_base(derive_base(e, i), j)
            rhs = derive_base(derive_base(e, j), i)
            assert lhs == rhs


class TestDerivationRows:
    def test_wrong_length_vector_rejected_on_constant(self, qt):
        with pytest.raises(ValueError):
            derive_base(qt.rational(3), DerivationVector((Fraction(1),)))

    def test_fields_do_not_share_rows(self):
        K1 = base_field(["t"], [[1], [0]])
        K2 = base_field(["t"], [[2], [0]])
        d = DerivationVector((Fraction(1), Fraction(0)))
        assert derive_base(K1.gen("t"), d) == K1.one()
        assert derive_base(K2.gen("t"), d) == K2.rational(2)
        # an equal vector built afresh reuses the memoised row of its field
        again = DerivationVector((Fraction(1), Fraction(0)))
        assert derive_base(K1.gen("t") ** 2, again) == 2 * K1.gen("t")
        assert derive_base(K2.gen("t") ** 2, again) == 4 * K2.gen("t")

    def test_constant_derives_to_zero(self, qtu):
        d = DerivationVector((Fraction(1), Fraction(1)))
        assert derive_base(qtu.rational(Fraction(5, 3)), d) == qtu.zero()
        assert derive_base(qtu.gen("u"), d) == qtu.gen("u")


class TestCommutativity:
    def test_partials_commute(self, q2_partials):
        assert check_commutativity(q2_partials) is None

    def test_counterexample(self):
        gens = ("t1", "t2")
        t1 = RationalFunction.gen(gens, 0)
        t2 = RationalFunction.gen(gens, 1)
        zero = RationalFunction.const(gens, 0)
        spec = BaseFieldSpec(gens, ((t2, zero), (zero, t1)))
        report = check_commutativity(spec)
        assert report is not None
        assert report.generator == "t1"
        # delta2 delta1 t1 = t1 while delta1 delta2 t1 = 0
        assert report.lhs != report.rhs
        with pytest.raises(CommutativityError):
            base_field(gens, [[t2, zero], [zero, t1]])

    def test_single_derivation_vacuous(self, qt_d):
        assert check_commutativity(qt_d) is None


class TestDConstant:
    def test_rationals(self, qtu):
        assert is_D_constant(qtu.rational(Fraction(5, 3)))

    def test_generator_moved_by_D(self, qt_d):
        assert not is_D_constant(qt_d.gen("t"))

    def test_constant_generator(self, q2_partials):
        # D = d/dt2 kills t1
        assert is_D_constant(q2_partials.gen("t1"))
        assert not is_D_constant(q2_partials.gen("t2"))


def test_rationals_field():
    K = rationals_field(2)
    assert K.m == 1
    assert derive_base(K.rational(3), 0) == K.zero()
