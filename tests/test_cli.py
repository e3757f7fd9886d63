"""CLI behaviour: golden outputs, determinism, and exit codes."""

import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from diffalg.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = [
    ("01_tau_text", ["tau", "--input", str(INPUTS / "ode.json")]),
    ("02_tau_json", ["tau", "--input", str(INPUTS / "ode.json"), "--format", "json"]),
    ("03_prolong_square", ["prolong", "--input", str(INPUTS / "square.json")]),
    ("04_tangent_moving", ["tangent", "--input", str(INPUTS / "moving_coeff.json")]),
    ("05_prolong_moving", ["prolong", "--input", str(INPUTS / "moving_coeff.json")]),
    ("06_fiber_graph", ["fiber", "--input", str(INPUTS / "graph.json"), "--point", "a"]),
    ("07_transform_shear", ["transform", "--input", str(INPUTS / "fulljet.json")]),
    ("08_extend_ok", ["extend", "--input", str(INPUTS / "extend_ok.json"),
                      "--point", "a", "--companion", "b"]),
    ("09_check_exten3", ["check", "exten3", "--seed", "3", "--cases", "5"]),
    ("10_axiom_instance", ["axiom-instance", "--input", str(INPUTS / "axiom.json"),
                           "--format", "json"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv):
    code, text = run_cli(argv)
    assert code == 0
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert text == expected


@pytest.mark.parametrize("name,argv", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_byte_identical_across_runs(name, argv):
    assert run_cli(argv) == run_cli(argv)


def test_json_outputs_parse(tmp_path):
    code, text = run_cli(["prolong", "--input", str(INPUTS / "ode.json"),
                          "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["pairs"]


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tau", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_poly(tmp_path, capsys):
    doc = {
        "m": 1, "n": 1,
        "base": {"generators": ["t"], "tables": [["1"], ["0"]]},
        "polys": ["d9 x1"],
    }
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    assert main(["tau", "--input", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_noncommuting_field(tmp_path, capsys):
    doc = {
        "m": 1, "n": 1,
        "base": {"generators": ["t"], "tables": [["1"], ["t"]]},
        "polys": ["x1"],
    }
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    assert main(["tau", "--input", str(p)]) == 2
    assert "commute" in capsys.readouterr().err


def test_exit_code_failed_extension(capsys):
    code = main(["extend", "--input", str(INPUTS / "graph.json"),
                 "--point", "a", "--companion", "1"])
    assert code == 1
    assert "rejected" in capsys.readouterr().out


def test_empty_w_rejected(capsys):
    code = main(["axiom-instance", "--input", str(INPUTS / "square.json"),
                 "--matrix", "[[\"1\"]]"])
    assert code == 2
    assert "nonempty W" in capsys.readouterr().err


def test_singular_matrix_rejected(capsys):
    code = main(["transform", "--input", str(INPUTS / "fulljet.json"),
                 "--matrix", '[["1","1"],["1","1"]]'])
    assert code == 2


def test_zero_denominator_matrix_entry(capsys):
    code = main(["transform", "--input", str(INPUTS / "fulljet.json"),
                 "--matrix", '[["1/0","0"],["0","1"]]'])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_point_inline_coordinates():
    code, text = run_cli(["fiber", "--input", str(INPUTS / "graph.json"),
                          "--point", "u"])
    assert code == 0
    assert "fiber 1" in text


class TestEmitAxiomInstance:
    def test_pairs_reproduce_prolongation_system(self, qt):
        from diffalg import (
            RationalMatrix,
            VarietySystem,
            emit_axiom_instance,
            parse_poly,
            prolongation_system,
        )
        from diffalg.transform import transformed_context

        M = RationalMatrix(((0, 1), (1, 0)))
        inst = emit_axiom_instance(qt, 1, M, ["x1^2 - t"], ["x1^2 - t", "y1"])
        ctx = transformed_context(qt, 1, M)
        system = prolongation_system(
            VarietySystem((parse_poly("x1^2 - t", ctx),))
        )
        assert len(inst.pairs) == len(system.pairs)
        for (f1, t1), (f2, t2) in zip(inst.pairs, system.pairs):
            assert f1 == f2 and t1 == t2

    def test_swap_matrix_exchanges_roles(self, qt):
        from diffalg import RationalMatrix, emit_axiom_instance, print_poly

        swapped = emit_axiom_instance(
            qt, 1, RationalMatrix(((0, 1), (1, 0))), ["x1^2 - t"], ["y1"]
        )
        plain = emit_axiom_instance(
            qt, 1, RationalMatrix.identity(2), ["x1^2 - t"], ["y1"]
        )
        # D' = d/dt under the swap, so the coefficient part of tau changes
        assert print_poly(swapped.pairs[0][1]) == "-1 + 2*x1*y1"
        assert print_poly(plain.pairs[0][1]) == "2*x1*y1"

    def test_empty_w_raises(self, qt):
        from diffalg import EmptySystem, RationalMatrix, emit_axiom_instance

        with pytest.raises(EmptySystem):
            emit_axiom_instance(qt, 1, RationalMatrix.identity(2), ["x1"], [])


def test_check_k_flag():
    code, text = run_cli(["check", "radic2", "--seed", "5", "--cases", "4", "--k", "2"])
    assert code == 0
    assert "radic2: 4 cases, ok" in text


def test_check_failure_exit_code(monkeypatch):
    from diffalg import selfcheck

    def rigged(seed=0, cases=1):
        out = selfcheck.CheckOutcome("exten3", cases)
        out.failures.append("rigged witness")
        return out

    monkeypatch.setitem(selfcheck.CHECKS, "exten3", rigged)
    code, text = run_cli(["check", "exten3", "--cases", "1"])
    assert code == 1
    assert "witness" in text


BASE = {"m": 1, "n": 1, "base": {"generators": ["t"], "tables": [["1"], ["0"]]}}
BAD_DOCUMENTS = [
    ("zero_poly", ["prolong"], {**BASE, "polys": ["0"]}),
    ("zero_poly_tangent", ["tangent"], {**BASE, "polys": ["0"]}),
    ("zero_poly_fiber", ["fiber", "--point", "t"], {**BASE, "polys": ["0"]}),
    ("zero_poly_axiom", ["axiom-instance", "--matrix", '[["1","0"],["0","1"]]',
                         "--w", "x1"], {**BASE, "polys": ["0"]}),
    ("block2_generator", ["tau"], {**BASE, "polys": ["y1 - t"]}),
    ("block2_extend", ["extend", "--point", "t", "--companion", "1"],
     {**BASE, "polys": ["y1 - t"]}),
    ("negative_m", ["tau"], {"m": -1, "n": 1, "base": {"generators": ["t"], "tables": []},
                             "polys": ["x1"]}),
    ("polys_string", ["tau"], {**BASE, "polys": "x1 - t"}),
    ("polys_numbers", ["tau"], {**BASE, "polys": [1]}),
    ("w_string", ["axiom-instance", "--matrix", '[["1","0"],["0","1"]]'],
     {**BASE, "polys": ["x1"], "w": "x1"}),
    ("point_string", ["fiber", "--point", "a"],
     {**BASE, "polys": ["x1 - t"], "points": {"a": "tt"}}),
    ("points_list", ["tau"], {**BASE, "polys": ["x1 - t"], "points": ["t"]}),
    ("base_list", ["tau"], {"m": 1, "n": 1, "base": [], "polys": ["x1"]}),
    ("table_row_number", ["tau"],
     {"m": 0, "n": 1, "base": {"generators": ["t"], "tables": [5]}, "polys": ["x1"]}),
    ("table_row_string", ["tau"],
     {"m": 0, "n": 1, "base": {"generators": ["t"], "tables": ["1"]}, "polys": ["x1"]}),
    ("tables_string", ["tau"],
     {"m": 1, "n": 1, "base": {"generators": ["t"], "tables": "10"}, "polys": ["x1"]}),
    ("generators_string", ["tau"],
     {"m": 1, "n": 1, "base": {"generators": "tu", "tables": [["1", "0"], ["0", "u"]]},
      "polys": ["x1"]}),
    ("generators_numbers", ["tau"],
     {"m": 1, "n": 1, "base": {"generators": [1], "tables": [["1"], ["0"]]},
      "polys": ["x1"]}),
    ("duplicate_generators", ["tau"],
     {"m": 1, "n": 1, "base": {"generators": ["t", "t"], "tables": [["1", "0"], ["0", "1"]]},
      "polys": ["x1"]}),
    ("m_float", ["tau"], {**BASE, "m": 1.9, "polys": ["x1 - t"]}),
    ("m_bool", ["tau"], {**BASE, "m": True, "polys": ["x1 - t"]}),
    ("m_string", ["tau"], {**BASE, "m": "1", "polys": ["x1 - t"]}),
    ("matrix_string", ["transform"], {**BASE, "polys": ["x1"], "matrix": "12"}),
    ("matrix_rows_strings", ["transform"], {**BASE, "polys": ["x1"], "matrix": ["12", "34"]}),
    ("matrix_wrong_size", ["axiom-instance"],
     {**BASE, "polys": ["x1"], "matrix": [["1"]], "w": ["x1"]}),
    ("matrix_arg_wrong_size", ["transform", "--matrix", '[["1"]]'], {**BASE, "polys": ["x1"]}),
    ("matrix_bools", ["transform"],
     {**BASE, "polys": ["x1"], "matrix": [[True, False], [False, True]]}),
    ("matrix_floats", ["transform"], {**BASE, "polys": ["x1"], "matrix": [[0.1, 0], [0, 1]]}),
    ("huge_exponent", ["tau"], {**BASE, "polys": ["x1^100000000"]}),
    ("huge_table_exponent", ["tau"],
     {"m": 1, "n": 1, "base": {"generators": ["t"], "tables": [["1"], ["t^100000000"]]},
      "polys": ["x1"]}),
    ("five_summand_power", ["tau"], {**BASE, "n": 2, "polys": ["(x1 + x2 + d1 x1 + d1 x2 + t)^100"]}),
    ("three_summand_power", ["tau"], {**BASE, "polys": ["(x1 + d1 x1 + t)^60"]}),
]
BAD_ARGVS = [
    ["check", "radic1", "--k", "0", "--cases", "3"],
    ["check", "radic2", "--k", "5", "--cases", "5"],
    ["check", "radic2", "--k", "-1"],
    ["check", "exten1", "--cases", "-3"],
    ["check", "exten1", "--cases", "0"],
]
BAD_W_ARGS = ['["x1", 3]', "[true]"]
BAD_MATRIX_ARGS = [
    ("transform", "fulljet.json", '[["1"]]'),
    ("transform", "fulljet.json", '[["1","0"]]'),
    ("axiom-instance", "axiom.json", "[]"),
    ("axiom-instance", "axiom.json", '["10","01"]'),
    ("transform", "fulljet.json", "[[true,false],[false,true]]"),
]


def assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("name,command,doc", BAD_DOCUMENTS,
                         ids=[d[0] for d in BAD_DOCUMENTS])
def test_bad_document_exits_2(tmp_path, capsys, name, command, doc):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    code = main([command[0], "--input", str(p)] + command[1:])
    assert_one_error_line(capsys, code)


@pytest.mark.parametrize("argv", BAD_ARGVS, ids=[" ".join(a) for a in BAD_ARGVS])
def test_bad_check_argument_exits_2(capsys, argv):
    assert_one_error_line(capsys, main(argv))


@pytest.mark.parametrize("command,doc,matrix", BAD_MATRIX_ARGS,
                         ids=[" ".join(a) for a in BAD_MATRIX_ARGS])
def test_bad_matrix_argument_exits_2(capsys, command, doc, matrix):
    code = main([command, "--input", str(INPUTS / doc), "--matrix", matrix])
    assert_one_error_line(capsys, code)


@pytest.mark.parametrize("w", BAD_W_ARGS)
def test_bad_w_argument_exits_2(capsys, w):
    code = main(["axiom-instance", "--input", str(INPUTS / "axiom.json"), "--w", w])
    assert_one_error_line(capsys, code)


def test_powers_within_the_expansion_bound_run(tmp_path, capsys):
    p = tmp_path / "powers.json"
    base = {"generators": ["t", "u"], "tables": [["0", "1"], ["(t + 1)^100", "0"]]}
    p.write_text(json.dumps({"m": 1, "n": 1, "polys": ["x1^100", "(d1 x1)^2"], "base": base}))
    assert main(["tau", "--input", str(p)]) == 0
    assert capsys.readouterr().err == ""


def test_radic2_fault_is_not_a_witness():
    from diffalg.selfcheck import check_radic2

    with pytest.raises(ValueError):
        check_radic2(seed=0, cases=4, k_max=4)


GUARDED_CALLS = [("torsor", "torsor_act"), ("exten5", "extend_derivation")]


@pytest.mark.parametrize("battery,target", GUARDED_CALLS, ids=[g[0] for g in GUARDED_CALLS])
def test_battery_fault_is_not_a_witness(monkeypatch, battery, target):
    from diffalg import selfcheck

    def broken(*args, **kwargs):
        raise RuntimeError("implementation fault")

    monkeypatch.setattr(selfcheck, target, broken)
    with pytest.raises(RuntimeError):
        selfcheck.CHECKS[battery](seed=0, cases=2)


@pytest.mark.parametrize("battery,target", GUARDED_CALLS, ids=[g[0] for g in GUARDED_CALLS])
def test_battery_precondition_is_a_witness(monkeypatch, battery, target):
    from diffalg import PreconditionFailed, selfcheck

    def refuses(*args, **kwargs):
        raise PreconditionFailed("refused")

    monkeypatch.setattr(selfcheck, target, refuses)
    outcome = selfcheck.CHECKS[battery](seed=0, cases=2)
    assert len(outcome.failures) == 2
    assert all("refused" in fail for fail in outcome.failures)
