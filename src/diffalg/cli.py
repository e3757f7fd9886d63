"""Command-line front end.

Systems are JSON documents:

    {
      "m": 1,
      "n": 1,
      "base": {"generators": ["t"], "tables": [["1"], ["0"]]},
      "polys": ["d1 x1 - t"],
      "matrix": [["0", "1"], ["1", "0"]],
      "points": {"a": ["t"]}
    }

base.tables has m+1 rows (delta_1 .. delta_m, then the designated D), one
entry per generator, each a coefficient expression over the generators. All
numbers are strings "p/q" so that nothing ever passes through floats.

Exit codes: 0 ok, 1 a check failed (witnesses printed), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .deltaring import Context
from .fields import BaseFieldSpec, CommutativityError, base_field
from .geometry import (
    PointNotOnV,
    VarietySystem,
    fiber_system,
    prolongation_system,
    tangent_system,
)
from .prolong import MAX_COFACTOR_K, extend_derivation, tau, tau_pair_eval
from .selfcheck import CHECKS, run_check
from .syntax import (
    ParseError,
    format_fraction,
    parse_fraction,
    parse_poly,
    parse_scalar,
    parse_scalar_rf,
    print_poly,
    scalar_text,
)
from .transform import (
    RationalMatrix,
    SingularMatrix,
    full_jet_context,
    make_transformed,
    rewrite_jets,
    transformed_context,
)


class InputError(Exception):
    pass


class EmptySystem(InputError):
    pass


@dataclass
class SystemDocument:
    m: int
    n: int
    field: BaseFieldSpec
    poly_texts: tuple
    matrix: RationalMatrix | None
    points: dict
    w_texts: tuple

    def context(self) -> Context:
        return Context.standard(self.field, self.n)


def load_document(path: str) -> SystemDocument:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from e
    try:
        m, n, base = raw["m"], raw["n"], raw["base"]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed system document: {e}") from e
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (m, n)):
        raise InputError("m and n must be JSON integers")
    if m < 0 or n < 0:
        raise InputError("m and n must be non-negative")
    if not isinstance(base, dict):
        raise InputError("'base' must be an object")
    generators = _string_list(base.get("generators", []), "base.generators")
    if len(set(generators)) != len(generators):
        raise InputError("base.generators must be distinct")
    tables = base.get("tables", [])
    if not isinstance(tables, list) or not all(isinstance(row, list) for row in tables):
        raise InputError("base.tables must be a list of rows, each a list")
    if len(tables) != m + 1:
        raise InputError(f"base.tables must have m+1 = {m + 1} rows")
    rows = []
    for row in tables:
        if len(row) != len(generators):
            raise InputError("table row length does not match generators")
        rows.append([parse_scalar_rf(str(v), generators) for v in row])
    try:
        field = base_field(generators, rows)
    except CommutativityError as e:
        raise InputError(f"derivations do not commute: {e}") from e
    matrix = None
    if "matrix" in raw and raw["matrix"] is not None:
        matrix = parse_matrix_data(raw["matrix"])
    raw_points = raw.get("points") or {}
    if not isinstance(raw_points, dict):
        raise InputError("'points' must map names to lists of strings")
    points = {name: _string_list(entries, f"point {name!r}")
              for name, entries in raw_points.items()}
    polys = _string_list(raw.get("polys", []), "'polys'")
    w = _string_list(raw.get("w", []), "'w'")
    return SystemDocument(m, n, field, polys, matrix, points, w)


def _string_list(value, what: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of strings")
    return tuple(value)


def parse_matrix_data(data) -> RationalMatrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise InputError("a matrix must be a list of rows, each a list")
    if not all(isinstance(v, str) for row in data for v in row):
        raise InputError('matrix entries must be strings "p/q"')
    try:
        return RationalMatrix(tuple(
            tuple(parse_fraction(v) for v in row) for row in data
        ))
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"malformed matrix: {e}") from e


def parse_matrix_arg(text: str | None, doc: SystemDocument) -> RationalMatrix:
    """The --matrix argument (inline JSON rows or a JSON file path), or the
    document's matrix when it is absent; either must be square of size m+1."""
    M = doc.matrix if text is None else _read_matrix(text.strip())
    if M is None:
        raise InputError("no matrix given (use --matrix or a 'matrix' field)")
    size = doc.m + 1
    if M.size != (size, size):
        raise InputError(f"the matrix must be square of size m+1 = {size}, "
                         f"not {M.size[0]}x{M.size[1]}")
    return M


def _read_matrix(text: str) -> RationalMatrix:
    if text.startswith("["):
        try:
            return parse_matrix_data(json.loads(text))
        except json.JSONDecodeError as e:
            raise InputError(f"malformed inline matrix: {e}") from e
    try:
        with open(text) as fh:
            return parse_matrix_data(json.load(fh))
    except OSError as e:
        raise InputError(f"cannot read matrix file {text}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"malformed matrix file {text}: {e}") from e


def parse_point_arg(text: str, doc: SystemDocument):
    """A point is a name from the document's points table or a comma-separated
    list of coefficient expressions."""
    if text in doc.points:
        entries = doc.points[text]
    else:
        entries = [s for s in text.split(",")]
    if len(entries) != doc.n:
        raise InputError(f"point needs {doc.n} coordinates, got {len(entries)}")
    try:
        return tuple(parse_scalar(e, doc.field) for e in entries)
    except ParseError as e:
        raise InputError(f"bad point coordinate: {e}") from e


def point_text(point) -> str:
    return "(" + ", ".join(scalar_text(v) for v in point) + ")"


def vector_text(vec) -> str:
    return "[" + ", ".join(format_fraction(c) for c in vec.coeffs) + "]"


def matrix_json(M: RationalMatrix):
    return [[format_fraction(v) for v in row] for row in M.rows]


def _parse_system_polys(doc: SystemDocument, ctx: Context):
    """The document's polys, which must be jets of x (block 1) only."""
    if not doc.poly_texts:
        raise EmptySystem("the document has no polys")
    try:
        polys = [parse_poly(t, ctx) for t in doc.poly_texts]
    except ParseError as e:
        raise InputError(f"bad polynomial: {e}") from e
    for text, f in zip(doc.poly_texts, polys):
        if any(b != 1 for b in f.blocks()):
            raise InputError(f"polynomial {text!r} uses jets outside block 1 (x)")
    return polys


def _variety(polys) -> VarietySystem:
    try:
        return VarietySystem(tuple(polys))
    except ValueError as e:
        raise InputError(str(e)) from e


def _emit(payload, lines, fmt, out):
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=False))
        out.write("\n")
    else:
        for line in lines:
            out.write(line + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_tau(args, out) -> int:
    doc = load_document(args.input)
    ctx = doc.context()
    polys = _parse_system_polys(doc, ctx)
    pairs = [(print_poly(f), print_poly(tau(f))) for f in polys]
    lines = []
    for i, (ftxt, ttxt) in enumerate(pairs, 1):
        lines.append(f"f{i}: {ftxt}")
        lines.append(f"tau f{i}: {ttxt}")
    payload = {"pairs": [{"f": f, "tau": t} for f, t in pairs]}
    _emit(payload, lines, args.format, out)
    return 0


def cmd_prolong(args, out) -> int:
    doc = load_document(args.input)
    ctx = doc.context()
    V = _variety(_parse_system_polys(doc, ctx))
    system = prolongation_system(V)
    lines = []
    pairs = []
    for i, (f, t) in enumerate(system.pairs, 1):
        ftxt, ttxt = print_poly(f), print_poly(t)
        pairs.append({"f": ftxt, "tau": ttxt})
        lines.append(f"generator {i}: {ftxt}")
        lines.append(f"tau part {i}: {ttxt}")
    lines.append(f"note: {system.note}")
    _emit({"pairs": pairs, "note": system.note}, lines, args.format, out)
    return 0


def cmd_tangent(args, out) -> int:
    doc = load_document(args.input)
    ctx = doc.context()
    V = _variety(_parse_system_polys(doc, ctx))
    system = tangent_system(V)
    lines = []
    pairs = []
    for i, (f, t) in enumerate(system.pairs, 1):
        ftxt, ttxt = print_poly(f), print_poly(t)
        pairs.append({"f": ftxt, "tangent": ttxt})
        lines.append(f"generator {i}: {ftxt}")
        lines.append(f"tangent part {i}: {ttxt}")
    _emit({"pairs": pairs}, lines, args.format, out)
    return 0


def cmd_fiber(args, out) -> int:
    doc = load_document(args.input)
    ctx = doc.context()
    V = _variety(_parse_system_polys(doc, ctx))
    point = parse_point_arg(args.point, doc)
    try:
        fib = fiber_system(V, point)
    except PointNotOnV as e:
        raise InputError(str(e)) from e
    lines = [f"point: {point_text(point)}"]
    entries = []
    for i, p in enumerate(fib, 1):
        txt = print_poly(p)
        entries.append(txt)
        lines.append(f"fiber {i}: {txt}")
    payload = {"point": [scalar_text(v) for v in point], "fiber": entries}
    _emit(payload, lines, args.format, out)
    return 0


def cmd_transform(args, out) -> int:
    doc = load_document(args.input)
    M = parse_matrix_arg(args.matrix, doc)
    deltas, dee = make_transformed(M, doc.field)
    ctx = full_jet_context(doc.field, doc.n, M)
    try:
        polys = [parse_poly(t, ctx) for t in doc.poly_texts]
    except ParseError as e:
        raise InputError(f"bad polynomial: {e}") from e
    lines = [f"matrix: {json.dumps(matrix_json(M))}"]
    for i, v in enumerate(deltas, 1):
        lines.append(f"delta'{i} = {vector_text(v)}")
    lines.append(f"D' = {vector_text(dee)}")
    rewrites = []
    for i, f in enumerate(polys, 1):
        g = rewrite_jets(f, M)
        orig, new = print_poly(f), print_poly(g)
        rewrites.append({"primed": orig, "unprimed": new})
        lines.append(f"primed {i}: {orig}")
        lines.append(f"unprimed {i}: {new}")
    payload = {
        "matrix": matrix_json(M),
        "deltas": [[format_fraction(c) for c in v.coeffs] for v in deltas],
        "D": [format_fraction(c) for c in dee.coeffs],
        "rewrites": rewrites,
    }
    _emit(payload, lines, args.format, out)
    return 0


def cmd_extend(args, out) -> int:
    doc = load_document(args.input)
    ctx = doc.context()
    A = _parse_system_polys(doc, ctx) if doc.poly_texts else []
    point = parse_point_arg(args.point, doc)
    companion = parse_point_arg(args.companion, doc)
    lines = [f"point: {point_text(point)}", f"companion: {point_text(companion)}"]
    values = []
    ok = True
    for i, g in enumerate(A, 1):
        w = tau_pair_eval(g, point, companion)
        values.append(scalar_text(w))
        lines.append(f"tau(g{i}) at (a, b) = {scalar_text(w)}")
        if w:
            ok = False
    if not ok:
        lines.append("extension rejected: precondition fails")
        _emit({"tau_values": values, "ok": False}, lines, args.format, out)
        return 1
    ext = extend_derivation(A, point, companion, ctx=ctx)
    image = ext.point_image()
    lines.append(f"extension ok; D'(a) = {point_text(image)}")
    payload = {
        "tau_values": values,
        "ok": True,
        "derivative_of_point": [scalar_text(v) for v in image],
    }
    _emit(payload, lines, args.format, out)
    return 0


def cmd_check(args, out) -> int:
    name = args.name
    if args.cases < 1:
        raise InputError("--cases must be at least 1")
    if args.k is not None:
        if args.k < 1:
            raise InputError("--k must be at least 1")
        if name == "radic2" and args.k > MAX_COFACTOR_K:
            raise InputError(f"--k must be at most {MAX_COFACTOR_K} for radic2")
    outcome = run_check(name, seed=args.seed, cases=args.cases, k=args.k)
    out.write(outcome.summary() + "\n")
    for fail in outcome.failures:
        out.write("witness: " + fail + "\n")
    return 0 if outcome.ok else 1


@dataclass(frozen=True, eq=False)
class AxiomInstanceDocument:
    """One emitted condition instance: the transformed derivations, the
    prolongation pairs computed under them, the embedded W generators, and a
    first-order sentence skeleton. Emission only; nothing is evaluated for
    truth."""

    matrix: RationalMatrix
    deltas: tuple
    dee: object
    pairs: tuple  # ((f, tau f) DeltaPoly pairs)
    w_generators: tuple
    sentence: str


def emit_axiom_instance(field: BaseFieldSpec, n: int, M: RationalMatrix,
                        v_texts, w_texts) -> AxiomInstanceDocument:
    """Build the condition instance for the transformed derivations
    (Delta', D') = M(Delta, D): parse the V and W generators as jets of the
    primed alphabet, pair each V generator with its prolongation under the
    primed derivations, and render the sentence skeleton."""
    if not v_texts:
        raise EmptySystem("the axiom instance needs a nonempty V system")
    if not w_texts:
        raise EmptySystem("the axiom instance needs a nonempty W system")
    ctx = transformed_context(field, n, M)
    try:
        v_polys = [parse_poly(t, ctx) for t in v_texts]
        w_polys = [parse_poly(t, ctx) for t in w_texts]
    except ParseError as e:
        raise InputError(f"bad polynomial: {e}") from e
    for w in w_polys:
        if any(b > 2 for b in w.blocks()):
            raise InputError("W generators must live in blocks (x, y)")
    system = prolongation_system(_variety(v_polys))
    deltas, dee = make_transformed(M, field)
    v_txt = [print_poly(f) for f, _ in system.pairs]
    tau_txt = [print_poly(t) for _, t in system.pairs]
    w_txt = [print_poly(w) for w in w_polys]
    conjuncts = [f"{p} = 0" for p in v_txt] + [
        f"({w})[y := D'x] = 0" for w in w_txt
    ]
    xs = "x1" if n == 1 else f"x1..x{n}"
    sentence = (
        "for all parameter values: if W := Z(" + "; ".join(w_txt) + ") is contained in Z("
        + "; ".join(v_txt + tau_txt) + ") and W projects onto V := Z("
        + "; ".join(v_txt) + "), then there exists " + xs
        + " with " + " & ".join(conjuncts)
    )
    return AxiomInstanceDocument(M, deltas, dee, system.pairs,
                                 tuple(w_polys), sentence)


def cmd_axiom_instance(args, out) -> int:
    doc = load_document(args.input)
    M = parse_matrix_arg(args.matrix, doc)
    if args.w is not None:
        text = args.w.strip()
        if text.startswith("["):
            try:
                w_texts = _string_list(json.loads(text), "--w")
            except json.JSONDecodeError as e:
                raise InputError(f"malformed --w list: {e}") from e
        else:
            w_texts = tuple(s.strip() for s in text.split(";") if s.strip())
    else:
        w_texts = doc.w_texts
    inst = emit_axiom_instance(doc.field, doc.n, M, doc.poly_texts, w_texts)
    pairs = [(print_poly(f), print_poly(t)) for f, t in inst.pairs]
    w_txt = [print_poly(w) for w in inst.w_generators]
    payload = {
        "matrix": matrix_json(M),
        "deltas": [[format_fraction(c) for c in v.coeffs] for v in inst.deltas],
        "D": [format_fraction(c) for c in inst.dee.coeffs],
        "v_generators": [f for f, _ in pairs],
        "pairs": [{"f": f, "tau": t} for f, t in pairs],
        "w_generators": w_txt,
        "sentence": inst.sentence,
    }
    lines = [f"matrix: {json.dumps(matrix_json(M))}"]
    for i, v in enumerate(inst.deltas, 1):
        lines.append(f"delta'{i} = {vector_text(v)}")
    lines.append(f"D' = {vector_text(inst.dee)}")
    for i, (f, t) in enumerate(pairs, 1):
        lines.append(f"pair {i}: ({f}, {t})")
    for i, w in enumerate(w_txt, 1):
        lines.append(f"w {i}: {w}")
    lines.append(f"sentence: {inst.sentence}")
    _emit(payload, lines, args.format, out)
    return 0


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Exact kernel for differential polynomial algebra with "
        "several commuting derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="system JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tau", help="print tau of each polynomial")
    add_common(p)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("prolong", help="emit the prolongation system")
    add_common(p)
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("tangent", help="emit the tangent system")
    add_common(p)
    p.set_defaults(fn=cmd_tangent)

    p = sub.add_parser("fiber", help="fibre of the prolongation over a point")
    add_common(p)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("transform", help="derivation basis change and jet rewriting")
    add_common(p)
    p.add_argument("--matrix", help="inline JSON rows or a JSON file path")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("extend", help="extend D through a point/companion pair")
    add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--companion", required=True)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("check", help="run a randomized identity battery")
    p.add_argument("name", choices=sorted(CHECKS))
    p.add_argument("--k", type=int, default=None, help="iteration cap for radic checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=25)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("axiom-instance", help="emit one transformed axiom instance")
    add_common(p)
    p.add_argument("--matrix", help="inline JSON rows or a JSON file path")
    p.add_argument("--w", help="W generators: inline JSON list or ';'-separated")
    p.set_defaults(fn=cmd_axiom_instance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (InputError, ParseError, SingularMatrix, CommutativityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
