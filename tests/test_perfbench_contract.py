"""The benchmark's contract with the package: one round of the cofactor and
batteries workloads runs, survives the pickle round trip the benchmark
runner makes between rounds, and passes the benchmark's own checks."""

import pathlib
import pickle
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    pytest.importorskip("sympy")
    # the checks import perfbench/oracle.py; leave no bytecode under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["Cofactor", "Batteries"])
def test_one_round_checks(workloads, tmp_path, name):
    wl = getattr(workloads, name)(1)
    ops = wl.make_round(0)
    results = [wl.run(op) for op in ops]
    path = tmp_path / "0.pickle"
    with open(path, "wb") as fh:
        pickle.dump((ops, results), fh)
    with open(path, "rb") as fh:
        verdicts = wl.check(*pickle.load(fh))
    assert len(verdicts) == len(ops) and all(verdicts)


def test_tracer_wraps_the_traced_layers(workloads):
    """The tracer finds every traced method in its own class body, counts
    calls through the wrappers, and puts the original methods back."""
    import tracing

    from diffalg import deltaring, exact, prolong

    def bindings():
        return (exact.MultiPoly.__dict__["__mul__"], deltaring.DeltaPoly.__dict__["__mul__"],
                deltaring.DeltaPoly.__dict__["__add__"], prolong.tau_power_cofactor)

    originals = bindings()
    wl = workloads.Cofactor(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(wl.make_round(0)):
            tracer.run_op(i, wl.run, op)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("exact.MultiPoly.mul", "deltaring.DeltaPoly.mul", "prolong.tau_power_cofactor"):
        assert metrics[f"{name}.calls"] > 0
    assert all(a is b for a, b in zip(bindings(), originals))
