"""The differential polynomial ring: ranking, structural derivation, the
algebraic view, and evaluation."""

import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import (
    Context,
    DerivOp,
    Jet,
    algebraic_view,
    apply_delta,
    derive_base,
    evaluate,
    rank_compare,
    rank_enumerate,
    print_poly,
    rationals_field,
)
from diffalg import deltaring
from diffalg.deltaring import DeltaPoly, from_multipoly, rank_key, substitute_blocks
from diffalg.exact import mono_mul
from diffalg.sampling import sample_context, sample_point, sample_poly


@st.composite
def jet_triples(draw):
    """A width and a list of (exps, var, block) triples of that width."""
    width = draw(st.integers(0, 3))
    triple = st.tuples(st.tuples(*[st.integers(0, 3)] * width),
                       st.integers(0, 2), st.integers(1, 3))
    return width, draw(st.lists(triple, min_size=1, max_size=10))


def old_sort_key(exps, var, block):
    """Block-major, then the orderly ranking: (total, var, r_k, ..., r_1)."""
    return (block, sum(exps), var) + tuple(reversed(exps))


class TestJetTuple:
    @given(jet_triples())
    @settings(max_examples=80, deadline=None)
    def test_order_is_block_then_ranking(self, case):
        _, triples = case
        jets = [Jet(DerivOp(e), v, b) for e, v, b in triples]
        got = [(u.op.exps, u.var, u.block) for u in sorted(jets)]
        assert got == sorted(triples, key=lambda t: old_sort_key(*t))

    @given(jet_triples())
    @settings(max_examples=80, deadline=None)
    def test_identity_equality_and_hash(self, case):
        _, triples = case
        jets = [Jet(DerivOp(e), v, b) for e, v, b in triples]
        for u, (e, v, b) in zip(jets, triples):
            assert (u.op, u.var, u.block) == (DerivOp(e), v, b)
        for u, s in zip(jets, triples):
            for w, t in zip(jets, triples):
                assert (u == w) == (s == t)
                if s == t:
                    assert hash(u) == hash(w)

    @given(jet_triples(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip(self, case, c):
        width, triples = case
        ctx = Context.standard(rationals_field(width + 1), 3)
        f = ctx.const(Fraction(1, c))
        for e, v, b in triples:
            f = f + ctx.jet_poly(v, DerivOp(e), b) * ctx.jet_poly(v, DerivOp(e), 1)
        g = pickle.loads(pickle.dumps(f))
        assert list(g.terms) == list(f.terms)
        assert all(type(u) is Jet for mono in g.terms for u, _ in mono)
        assert [c.rf.num.terms for c in g.terms.values()] == [
            c.rf.num.terms for c in f.terms.values()]
        assert print_poly(g) == print_poly(f)


@pytest.fixture
def ctx22():
    # m = 2 structural derivations (plus D), n = 2
    return Context.standard(rationals_field(3), 2)


class TestRanking:
    def test_order_one_tie_break(self, ctx22):
        u = ctx22.jet(0, DerivOp((1, 0)))
        v = ctx22.jet(0, DerivOp((0, 1)))
        assert rank_compare(u, v) == -1

    def test_variable_index_breaks_ties(self, ctx22):
        assert rank_compare(ctx22.jet(0), ctx22.jet(1)) == -1

    def test_reflexive(self, ctx22):
        u = ctx22.jet(1, DerivOp((2, 1)))
        assert rank_compare(u, u) == 0

    def test_block_mismatch_rejected(self, ctx22):
        with pytest.raises(ValueError):
            rank_compare(ctx22.jet(0), ctx22.jet(0, block=2))

    def test_orderly(self, ctx22):
        # lower total operator order always ranks lower
        rng = Random(5)
        jets = rank_enumerate(ctx22, 30)
        for i, u in enumerate(jets):
            for v in jets[i + 1:]:
                assert u.op.total <= v.op.total


class TestEnumerate:
    def test_single_derivation(self):
        ctx = Context.standard(rationals_field(2), 1)
        jets = rank_enumerate(ctx, 3)
        assert [j.op.exps for j in jets] == [(0,), (1,), (2,)]

    def test_two_derivations(self):
        ctx = Context.standard(rationals_field(3), 1)
        jets = rank_enumerate(ctx, 4)
        assert [j.op.exps for j in jets] == [(0, 0), (1, 0), (0, 1), (2, 0)]

    def test_least_element(self, ctx22):
        assert rank_enumerate(ctx22, 1) == [ctx22.jet(0)]

    def test_strictly_increasing_and_exhaustive(self, ctx22):
        jets = rank_enumerate(ctx22, 25)
        for u, v in zip(jets, jets[1:]):
            assert (u.block,) + rank_key(u) < (v.block,) + rank_key(v)
        # exhaustive: every jet ranked below the last one appears
        last = jets[-1]
        seen = set(jets)
        for var in range(ctx22.n):
            for t in range(last.op.total + 1):

                def vecs(width, tot):
                    if width == 0:
                        if tot == 0:
                            yield ()
                        return
                    for f in range(tot + 1):
                        for rest in vecs(width - 1, tot - f):
                            yield (f,) + rest

                for e in vecs(2, t):
                    j = ctx22.jet(var, DerivOp(e))
                    if rank_key(j) < rank_key(last):
                        assert j in seen

    def test_count_validation(self, ctx22):
        with pytest.raises(ValueError):
            rank_enumerate(ctx22, 0)


class TestApplyDelta:
    def test_generator(self, ctx22):
        assert apply_delta(0, ctx22.x(0)) == ctx22.jet_poly(0, DerivOp((1, 0)))

    def test_leibniz_by_hand(self):
        ctx = Context.standard(rationals_field(2), 1)
        x = ctx.x(0)
        d1x = ctx.jet_poly(0, DerivOp((1,)))
        d1d1x = ctx.jet_poly(0, DerivOp((2,)))
        assert apply_delta(0, x * d1x) == d1x * d1x + x * d1d1x

    def test_coefficient_part(self, qt, ctx_qt):
        t = qt.gen("t")
        f = ctx_qt.x(0).scale(t)
        d1x = ctx_qt.jet_poly(0, DerivOp((1,)))
        assert apply_delta(0, f) == d1x.scale(t) + ctx_qt.x(0)

    def test_commuting_randomized(self):
        rng = Random(17)
        for _ in range(30):
            ctx = sample_context(rng, max_m=2)
            if ctx.num_ops < 2:
                continue
            f = sample_poly(rng, ctx)
            assert apply_delta(0, apply_delta(1, f)) == apply_delta(1, apply_delta(0, f))

    def test_leibniz_randomized(self):
        rng = Random(19)
        for _ in range(30):
            ctx = sample_context(rng, max_m=2)
            if ctx.num_ops == 0:
                continue
            f = sample_poly(rng, ctx)
            g = sample_poly(rng, ctx)
            i = rng.randrange(ctx.num_ops)
            assert apply_delta(i, f * g) == apply_delta(i, f) * g + f * apply_delta(i, g)


class TestAlgebraicView:
    def test_read_off_monomials(self):
        ctx = Context.standard(rationals_field(2), 1)
        f = ctx.x(0) ** 2 + ctx.jet_poly(0, DerivOp((1,)))
        mp, support = algebraic_view(f)
        assert [j.op.exps for j in support] == [(0,), (1,)]
        assert mp.vars == ("t1", "t2")
        assert mp.terms == {((0, 2),): ctx.field.one(), ((1, 1),): ctx.field.one()}

    def test_constant(self, ctx_qt, qt):
        f = ctx_qt.const(qt.gen("t"))
        mp, support = algebraic_view(f)
        assert support == []
        assert mp.is_constant()

    def test_round_trip_randomized(self):
        rng = Random(23)
        for _ in range(40):
            ctx = sample_context(rng)
            f = sample_poly(rng, ctx)
            mp, support = algebraic_view(f)
            assert from_multipoly(ctx, mp, support) == f


class TestEvaluate:
    def test_differentiates_the_point(self, qt, ctx_qt):
        t = qt.gen("t")
        f = ctx_qt.jet_poly(0, DerivOp((1,)))
        assert evaluate(f, (t * t,)) == 2 * t

    def test_zero(self, qt, ctx_qt):
        t = qt.gen("t")
        f = ctx_qt.x(0) - ctx_qt.x(0)
        assert evaluate(f, (t,)) == qt.zero()

    def test_constant_point(self, qt, ctx_qt):
        t = qt.gen("t")
        f = ctx_qt.x(0).scale(t)
        assert evaluate(f, (qt.one(),)) == t

    def test_homomorphism_randomized(self):
        rng = Random(29)
        for _ in range(25):
            ctx = sample_context(rng, max_m=2, max_n=2, max_gens=2)
            f = sample_poly(rng, ctx, max_terms=3)
            g = sample_poly(rng, ctx, max_terms=3)
            a = sample_point(rng, ctx)
            assert evaluate(f + g, a) == evaluate(f, a) + evaluate(g, a)
            assert evaluate(f * g, a) == evaluate(f, a) * evaluate(g, a)
            for i in range(ctx.num_ops):
                assert evaluate(apply_delta(i, f), a) == derive_base(
                    evaluate(f, a), ctx.deltas[i]
                )

    def test_polynomial_target_homomorphism(self):
        # substituting polynomials for the variables commutes with the
        # structural derivations and with multiplication
        rng = Random(31)
        for _ in range(15):
            ctx = sample_context(rng, max_m=2, max_n=2, max_gens=1)
            f = sample_poly(rng, ctx, max_terms=2)
            g = sample_poly(rng, ctx, max_terms=2)
            subs = tuple(sample_poly(rng, ctx, max_terms=2) for _ in range(ctx.n))
            assert evaluate(f * g, subs) == evaluate(f, subs) * evaluate(g, subs)
            for i in range(ctx.num_ops):
                assert evaluate(apply_delta(i, f), subs) == apply_delta(
                    i, evaluate(f, subs)
                )


def _reference_accumulate(terms, mono, c):
    s = terms.get(mono)
    s = c if s is None else s + c
    if s:
        terms[mono] = s
    elif mono in terms:
        del terms[mono]


def _reference_add(f, g):
    """The jet-ring sum loop that the term-map kernel replaced."""
    terms = dict(f.terms)
    for m, c in g.terms.items():
        _reference_accumulate(terms, m, c)
    return DeltaPoly(f.ctx, terms)


def _reference_mul(f, g):
    """The jet-ring product loop that the term-map kernel replaced: no
    shortcut for constant factors."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            _reference_accumulate(terms, mono_mul(m1, m2), c1 * c2)
    return DeltaPoly(f.ctx, terms)


def _reference_pow(f, k):
    out = f.ctx.one()
    for _ in range(k):
        out = _reference_mul(out, f)
    return out


def _reference_substitute(f, image):
    """The substitution that added each term into a fresh copy of the sum."""
    ctx = f.ctx
    out = ctx.zero()
    for mono, c in f.terms.items():
        term = ctx.const(c)
        for jet, p in mono:
            term = _reference_mul(term, _reference_pow(image(jet), p))
        out = _reference_add(out, term)
    return out


def _old_eq(f, g):
    if set(f.terms) != set(g.terms):
        return False
    return all(f.terms[m] == g.terms[m] for m in f.terms)


def in_order(f):
    """The stored terms of f in dict order, each coefficient as its stored
    (numerator, denominator) term lists."""
    return [(m, list(c.rf.num.terms.items()), list(c.rf.den.terms.items()))
            for m, c in f.terms.items()]


CTX_Q = Context.standard(rationals_field(2), 2)


class TestTermMapKernel:
    """Sums, products, powers and substitutions store the same terms, in the
    same dict order, as the jet-ring loops they replaced."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_over_q(self, seed):
        rng = Random(seed)
        f = sample_poly(rng, CTX_Q, max_terms=3, max_order=1)
        g = sample_poly(rng, CTX_Q, max_terms=3, max_order=1)
        c = CTX_Q.const(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
        for a, b in ((f, g), (c, f), (f, c), (c, c)):
            assert in_order(a + b) == in_order(_reference_add(a, b))
            assert in_order(a * b) == in_order(_reference_mul(a, b))
        k = rng.randint(0, 4)
        assert in_order(f ** k) == in_order(_reference_pow(f, k))

    def test_matches_reference_over_moving_fields(self, moving_d_polys, monkeypatch):
        rng = Random(43)
        cases = []
        for i, (ctx, f) in enumerate(moving_d_polys):
            g = moving_d_polys[i - i % 15 + (i + 1) % 15][1]
            c = ctx.const(g.terms[next(iter(g.terms))])
            for a, b in ((f, g), (c, f), (f, c)):
                assert in_order(a + b) == in_order(_reference_add(a, b))
                assert in_order(a * b) == in_order(_reference_mul(a, b))
            h = sample_poly(rng, ctx, max_terms=2, max_order=1, denominators=True)
            k = i % 3
            assert in_order(h ** k) == in_order(_reference_pow(h, k))
            point = tuple(sample_poly(rng, ctx, max_terms=2, max_order=1)
                          for _ in range(ctx.n))
            cases.append((f, {1: point}))
            cases.append((f, {1: sample_point(rng, ctx)}))
        got = [in_order(substitute_blocks(f, a)) for f, a in cases]
        monkeypatch.setattr(deltaring, "substitute", _reference_substitute)
        assert got == [in_order(substitute_blocks(f, a)) for f, a in cases]

    def test_equality_matches_old_form(self, moving_d_polys):
        for i, (ctx, f) in enumerate(moving_d_polys):
            g = moving_d_polys[i - i % 15 + (i + 1) % 15][1]
            for a, b in ((f, f), (f, g), ((f + g) - g, f), (f, f.scale(2)),
                         (f - f, ctx.zero())):
                assert (a == b) == _old_eq(a, b)
            assert (f + g) - g == f
