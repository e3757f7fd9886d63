"""Shared concrete models for the test suite."""

from random import Random

import pytest

from diffalg import Context, base_field, rationals_field
from diffalg.sampling import sample_poly

# (generators, tables) of fields whose D moves a generator
MOVING_D_TABLES = (
    (["t"], [["t"]]),
    (["t", "u"], [["1", "0"], ["0", "u"]]),
    (["t1", "t2"], [["1", "0"], ["0", "t2"]]),
)


@pytest.fixture
def qd():
    """Q with a single derivation D (m = 0)."""
    return rationals_field(1)


@pytest.fixture
def qt_d():
    """Q(t), m = 0, D = d/dt."""
    return base_field(["t"], [[1]])


@pytest.fixture
def qt():
    """Q(t), m = 1 with delta1 = d/dt, D = 0."""
    return base_field(["t"], [[1], [0]])


@pytest.fixture
def qtu():
    """Q(t, u), m = 1 with delta1 = d/dt and a nontrivial D: Du = u."""
    return base_field(["t", "u"], [["1", "0"], ["0", "u"]])


@pytest.fixture
def q2_partials():
    """Q(t1, t2), m = 1 with delta1 = d/dt1, D = d/dt2."""
    return base_field(["t1", "t2"], [[1, 0], [0, 1]])


@pytest.fixture
def ctx_qd(qd):
    return Context.standard(qd, 1)


@pytest.fixture
def ctx_qt_d(qt_d):
    return Context.standard(qt_d, 1)


@pytest.fixture
def ctx_qt(qt):
    return Context.standard(qt, 1)


@pytest.fixture
def ctx_qtu(qtu):
    return Context.standard(qtu, 2)


@pytest.fixture
def moving_d_polys():
    """(context, f) pairs: seeded block-1 polynomials with rational-function
    coefficients, over fields whose D moves a generator."""
    rng = Random(41)
    out = []
    for gens, tables in MOVING_D_TABLES:
        ctx = Context.standard(base_field(gens, tables), 2)
        for _ in range(15):
            out.append((ctx, sample_poly(rng, ctx, max_terms=4, denominators=True)))
    return out


@pytest.fixture
def stored_terms():
    """Maps a DeltaPoly to its coefficients as stored: monomial -> (numerator
    terms, denominator terms)."""
    return lambda f: {m: (c.rf.num.terms, c.rf.den.terms) for m, c in f.terms.items()}
