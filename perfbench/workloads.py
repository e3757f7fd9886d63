"""The three workloads: their inputs, one operation, and the output checks.

Each workload makes rounds of operations. A round is the same fixed list of
operations every time, filled with fresh inputs drawn from
Random(f"<workload>/<seed>/<round>"), so no generated input repeats within a
run and every run has the same mix. `run` is the timed part; `check` runs
after timing and may import sympy (through oracle.py).
"""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from random import Random

from diffalg import cli, deltaring, fields, prolong, sampling, selfcheck, transform

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


@dataclass(frozen=True)
class Op:
    label: str
    payload: tuple
    fault: bool = False  # fails today because of a known program fault


def round_rng(workload: str, seed: int, round_key) -> Random:
    return Random(f"{workload}/{seed}/{round_key}")


# -- batteries --------------------------------------------------------------------


class Batteries:
    """Each round calls the nine identity batteries once, in a fixed order,
    each on a fresh battery seed, with CASES cases per call."""

    NAMES = ("exten1", "exten3", "radic1", "radic2", "torsor", "commute",
             "exten5", "better", "roundtrip")
    # A multiple of 3: every call covers k = 1..3 in radic1/radic2, the three
    # torsor styles and the k = 2 certificate in better.
    CASES = 6
    # commute's rewrite round trip grows like the multinomial expansion of
    # its sampled polynomial: near 100 expanded jet products one call takes
    # about a second and the tail reaches 10 s, so battery seeds above this
    # cap are skipped (see README).
    COMMUTE_EXPANSION_CAP = 40

    def __init__(self, seed: int):
        self.seed = seed

    def make_round(self, round_key):
        rng = round_rng("batteries", self.seed, round_key)
        return [Op(name, (name, self._battery_seed(rng, name))) for name in self.NAMES]

    def warmup_op(self):
        # torsor's call time varies least with its seed, so set-up time
        # does not depend on which seed the warm-up draws.
        rng = round_rng("batteries", self.seed, "warmup")
        return Op("torsor", ("torsor", rng.randrange(2**31)))

    def _battery_seed(self, rng: Random, name: str) -> int:
        while True:
            s = rng.randrange(2**31)
            if name != "commute" or commute_expansion(s, self.CASES) <= self.COMMUTE_EXPANSION_CAP:
                return s

    def run(self, op: Op):
        name, s = op.payload
        return selfcheck.run_check(name, seed=s, cases=self.CASES)

    def check(self, ops, results):
        return [r.ok and r.cases == self.CASES for r in results]


def commute_expansion(seed: int, cases: int) -> int:
    """Largest number of jet products the commute battery's rewrite expands
    one sampled polynomial into, over its cases. Replays the battery's own
    draws from Random(seed)."""
    rng = Random(seed)
    worst = 0
    for _ in range(cases):
        field = sampling.sample_field(rng, rng.randint(1, 3), max_gens=2)
        sampling.sample_invertible_matrix(rng, field.num_derivations)
        ctx = transform.full_jet_context(field, 1)
        f = sampling.sample_poly(rng, ctx, max_terms=3, max_order=2)
        width = ctx.num_ops
        size = 0
        for mono in f.terms:
            s = 1
            for jet, p in mono:
                s *= comb(width - 1 + jet.op.total, jet.op.total) ** p
            size += s
        worst = max(worst, size)
    return worst


# -- cofactor -----------------------------------------------------------------------


class Cofactor:
    """tau_power_cofactor(f, k), eight times with k = 2 and twice with k = 3
    per round, over Q(t1, t2) with a moving D. f is drawn by sample_poly and
    kept only at a pinned size, which bounds one operation to a few percent
    of a run. With k = 3 a fifth of the operations, op_p90_ms falls near the
    middle of the k = 3 times rather than in their tail."""

    TABLES = [["1", "0"], ["0", "t2"]]
    OPS_PER_ROUND = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.field = fields.base_field(["t1", "t2"], self.TABLES)
        self.ctx = deltaring.Context.standard(self.field, 2)

    def make_round(self, round_key):
        rng = round_rng("cofactor", self.seed, round_key)
        ks = [3 if i % 5 == 4 else 2 for i in range(self.OPS_PER_ROUND)]
        return [Op(f"k={k}", (self._pinned_poly(rng), k)) for k in ks]

    def warmup_op(self):
        return Op("k=2", (self._pinned_poly(round_rng("cofactor", self.seed, "warmup")), 2))

    def _pinned_poly(self, rng: Random):
        """Two terms in two distinct jets, of total degree 2 or 3."""
        while True:
            f = sampling.sample_poly(rng, self.ctx, max_terms=3, max_order=3,
                                     max_power=2, coeff_degree=1)
            if len(f.terms) == 2 and 2 <= f.total_degree() <= 3 and len(f.support()) == 2:
                return f

    def run(self, op: Op):
        f, k = op.payload
        return prolong.tau_power_cofactor(f, k)

    def check(self, ops, results):
        from oracle import Algebra, cofactor_identity_holds

        alg = Algebra(["t1", "t2"], self.TABLES, n=2, width=1, max_order=3, max_block=4,
                      polynomial=True)
        return [cofactor_identity_holds(alg, op.payload[0], op.payload[1], p)
                for op, p in zip(ops, results)]


# -- cli ------------------------------------------------------------------------------

COMMANDS = ("tau", "prolong", "tangent", "fiber", "transform", "extend", "axiom-instance")
FORMATS = ("text", "json")

# Each fails today: ValueError escapes main() (a traceback and exit 1 in a
# real invocation) where an input error should exit 2 with one 'error:' line.
ERROR_DOCUMENTS = (
    ("zero_poly", "prolong", {"m": 1, "n": 1,
                              "base": {"generators": ["t"], "tables": [["1"], ["0"]]},
                              "polys": ["0"]}),
    ("block2_generator", "tau", {"m": 1, "n": 1,
                                 "base": {"generators": ["t"], "tables": [["1"], ["0"]]},
                                 "polys": ["y1 - t"]}),
    ("negative_m", "tau", {"m": -1, "n": 1, "base": {"generators": ["t"], "tables": []},
                           "polys": ["x1"]}),
)


def load_golden_cases():
    """(name, argv) of the golden CLI runs, from the script that makes them."""
    path = ROOT / "tests" / "golden" / "regen.py"
    spec = importlib.util.spec_from_file_location("golden_regen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


class Cli:
    """diffalg.cli.main(argv) in-process with stdout and stderr captured. A
    round is the ten golden argvs, the three error documents, and every
    command in both formats on DOCS_PER_ROUND generated documents."""

    # With three documents the median operation falls inside the tau and
    # prolong times rather than on the edge of the cheaper transform ones.
    DOCS_PER_ROUND = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.docs_dir = OUT / f"docs-{seed}"
        self.docs_dir.mkdir(parents=True, exist_ok=True)
        self.golden = []
        for name, argv in load_golden_cases():
            expected = (ROOT / "tests" / "golden" / f"{name}.txt").read_text()
            self.golden.append(Op(f"golden-{name}", ("golden", argv, expected)))
        self.errors = []
        for name, command, doc in ERROR_DOCUMENTS:
            path = self.docs_dir / f"error-{name}.json"
            path.write_text(json.dumps(doc))
            self.errors.append(Op(f"error-{name}", ("error", [command, "--input", str(path)]),
                                  fault=True))

    def make_round(self, round_key):
        rng = round_rng("cli", self.seed, round_key)
        ops = list(self.golden) + list(self.errors)
        for d in range(self.DOCS_PER_ROUND):
            doc = make_document(rng)
            path = self.docs_dir / f"doc-{round_key}-{d}.json"
            path.write_text(json.dumps(doc))
            for command in COMMANDS:
                for fmt in FORMATS:
                    argv = [command, "--input", str(path), "--format", fmt]
                    if command in ("fiber", "extend"):
                        argv += ["--point", "a"]
                    if command == "extend":
                        argv += ["--companion", "b"]
                    ops.append(Op(f"{command}-{fmt}", ("doc", argv, doc, command, fmt)))
        return ops

    def warmup_op(self):
        return self.golden[0]

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(op.payload[1])
        except (Exception, SystemExit) as e:  # a crash is this operation's outcome
            return None, out.getvalue(), err.getvalue(), repr(e)
        return code, out.getvalue(), err.getvalue(), None

    def check(self, ops, results):
        expected = {}
        verdicts = []
        for op, (code, out, err, exc) in zip(ops, results):
            kind = op.payload[0]
            if kind == "golden":
                verdicts.append(code == 0 and err == "" and out == op.payload[2])
            elif kind == "error":
                lines = err.splitlines()
                verdicts.append(exc is None and code == 2 and len(lines) == 1
                                and lines[0].startswith("error:"))
            else:
                _, _, doc, command, fmt = op.payload
                key = id(doc)
                if key not in expected:
                    expected[key] = DocumentOracle(doc)
                verdicts.append(code == 0 and err == "" and exc is None
                                and expected[key].matches(command, fmt, out))
        return verdicts

    def close(self):
        for path in self.docs_dir.glob("*.json"):
            path.unlink()
        self.docs_dir.rmdir()


# -- generated documents ----------------------------------------------------------------

D_ROWS = ("u", "1", "u + 1", "2*u - 1", "1/2*u + 3")


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _sum_text(terms) -> str:
    """' + '-joined text of (coefficient, monomial text) pairs."""
    out = ""
    for c, body in terms:
        mag = _fraction_text(abs(c))
        text = mag if not body else (body if abs(c) == 1 else f"{mag}*{body}")
        out += (("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")) + text
    return out


def _coefficient(rng: Random, denominator: bool = False) -> str:
    """A polynomial in t and u, optionally over a linear denominator."""
    terms = {}
    for _ in range(2):
        i, j = rng.randint(0, 2), rng.randint(0, 1)
        body = "*".join(([f"t^{i}" if i > 1 else "t"] if i else []) + (["u"] if j else []))
        terms[body] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    num = _sum_text((c, body) for body, c in terms.items())
    if not denominator:
        return f"({num})"
    den = rng.choice(("t + {}", "u + {}", "t - u + {}")).format(rng.randint(1, 3))
    return f"({num})/({den})"


def _jet(var: int, order: int) -> str:
    return (f"d1^{order} " if order > 1 else "d1 " if order else "") + f"x{var}"


def _polynomial(rng: Random, point) -> str:
    """Four summands of a fixed shape, each with a factor that vanishes at
    the point (x_v - a_v, or a d1-jet, since a depends on u only); about six
    terms once expanded. The shape is pinned because free shapes and sizes
    give documents whose seven commands take from 0.3 s to 12 s."""

    def var():
        return rng.randint(1, 2)

    def linear():
        v = var()
        return f"(x{v} - ({point[v - 1]}))"

    power = rng.randint(1, 2)
    jet = _jet(var(), rng.randint(0, 2))
    summands = [
        [_coefficient(rng), linear()],
        [_coefficient(rng), _jet(var(), rng.randint(0, 2)), linear()],
        [_coefficient(rng), jet if power == 1 else f"({jet})^{power}",
         _jet(var(), rng.randint(1, 2))],
        [_coefficient(rng, denominator=True), _jet(var(), rng.randint(1, 2))],
    ]
    return " + ".join("*".join(s) for s in summands)


def make_document(rng: Random) -> dict:
    """A system over Q(t, u) with d1 = d/dt and D = r(u) d/du, two unknowns,
    three polynomials that vanish at the point a, whose coordinates are
    linear in u, and b = D(a), so extension through (a, b) succeeds. Also a
    basis-change matrix and W generators."""
    d_row = rng.choice(D_ROWS)
    point, companion = [], []
    for _ in range(2):
        p0, p1 = Fraction(rng.randint(-3, 3)), Fraction(rng.choice((-2, -1, 1, 2, 3)))
        point.append(_sum_text([(p1, "u"), (p0, "")] if p0 else [(p1, "u")]))
        companion.append(f"{_fraction_text(p1)}*({d_row})")
    polys = [_polynomial(rng, point) for _ in range(3)]
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]:
            break
    return {
        "m": 1,
        "n": 2,
        "base": {"generators": ["t", "u"], "tables": [["1", "0"], ["0", d_row]]},
        "polys": polys,
        "matrix": [[str(v) for v in row] for row in matrix],
        "points": {"a": point, "b": companion},
        "w": [polys[0], f"y1 - {_coefficient(rng, True)}*x2"],
    }


# -- reading CLI output ----------------------------------------------------------------

_TEXT_LINES = {
    "tau": [(r"f\d+: (.*)", "f"), (r"tau f\d+: (.*)", "tau")],
    "prolong": [(r"generator \d+: (.*)", "f"), (r"tau part \d+: (.*)", "tau"),
                (r"note: (.*)", "note")],
    "tangent": [(r"generator \d+: (.*)", "f"), (r"tangent part \d+: (.*)", "tangent")],
    "fiber": [(r"point: \((.*)\)", "point"), (r"fiber \d+: (.*)", "fiber")],
    "transform": [(r"matrix: (.*)", "matrix"), (r"delta'\d+ = \[(.*)\]", "deltas"),
                  (r"D' = \[(.*)\]", "D"), (r"primed \d+: (.*)", "f"),
                  (r"unprimed \d+: (.*)", "rewrite")],
    "extend": [(r"point: \((.*)\)", "point"), (r"companion: \((.*)\)", "companion"),
               (r"tau\(g\d+\) at \(a, b\) = (.*)", "tau_values"),
               (r"extension ok; D'\(a\) = \((.*)\)", "image")],
    "axiom-instance": [(r"matrix: (.*)", "matrix"), (r"delta'\d+ = \[(.*)\]", "deltas"),
                       (r"D' = \[(.*)\]", "D"), (r"pair \d+: \((.*), (.*)\)", "f", "tau"),
                       (r"w \d+: (.*)", "w"), (r"sentence: (.*)", "sentence")],
}

_LISTS = ("point", "companion", "image", "deltas", "D")
# Fields that only the text format prints.
_TEXT_ONLY = {("extend", "point"), ("extend", "companion")}


def read_output(command: str, fmt: str, out: str) -> dict:
    """The fields of one CLI output, as lists of texts, from either format.
    Raises ValueError on a line or key it does not expect."""
    rec = {}
    if fmt == "text":
        for line in out.splitlines():
            for pattern, *keys in _TEXT_LINES[command]:
                m = re.fullmatch(pattern, line)
                if m:
                    for key, value in zip(keys, m.groups()):
                        rec.setdefault(key, []).append(value)
                    break
            else:
                raise ValueError(f"unexpected line {line!r}")
        for key in _LISTS:
            if key in rec:
                rec[key] = [v.split(", ") for v in rec[key]]
        return rec
    data = json.loads(out)
    pairs = data.get("pairs", [])
    if command in ("tau", "prolong", "axiom-instance"):
        rec["f"] = [p["f"] for p in pairs]
        rec["tau"] = [p["tau"] for p in pairs]
    if command == "tangent":
        rec["f"] = [p["f"] for p in pairs]
        rec["tangent"] = [p["tangent"] for p in pairs]
    if command == "prolong":
        rec["note"] = [data["note"]]
    if command == "fiber":
        rec["point"] = [data["point"]]
        rec["fiber"] = data["fiber"]
    if command in ("transform", "axiom-instance"):
        rec["deltas"] = data["deltas"]
        rec["D"] = [data["D"]]
    if command == "transform":
        rec["f"] = [r["primed"] for r in data["rewrites"]]
        rec["rewrite"] = [r["unprimed"] for r in data["rewrites"]]
    if command == "extend":
        if data["ok"] is not True:
            raise ValueError("extension rejected")
        rec["tau_values"] = data["tau_values"]
        rec["image"] = [data["derivative_of_point"]]
    if command == "axiom-instance":
        if data["v_generators"] != rec["f"]:
            raise ValueError("v_generators differ from the pairs")
        rec["w"] = data["w_generators"]
        rec["sentence"] = [data["sentence"]]
    return rec


class DocumentOracle:
    """Expected values for one generated document, computed in sympy from
    the document's own texts."""

    def __init__(self, doc: dict):
        from oracle import Algebra

        rows = doc["base"]["tables"]
        self.alg = alg = Algebra(doc["base"]["generators"], rows, n=doc["n"], width=2,
                                 max_order=2, max_block=2, d_hat=True)
        self.doc = doc
        self.f = [alg.poly(t) for t in doc["polys"]]
        self.tau = [alg.tau(f) for f in self.f]
        self.a = tuple(alg.scalar(t) for t in doc["points"]["a"])
        self.b = tuple(alg.scalar(t) for t in doc["points"]["b"])
        self.matrix = [[Fraction(v) for v in row] for row in doc["matrix"]]
        self._cache = {}

    def _expected(self, command: str) -> dict:
        alg, f = self.alg, self.f
        if command in ("tau", "prolong"):
            return {"f": f, "tau": self.tau}
        if command == "tangent":
            return {"f": f, "tangent": [alg.tangent(p) for p in f]}
        if command == "fiber":
            return {"point": [self.a], "fiber": [alg.at_blocks(t, {1: self.a}) for t in self.tau]}
        if command == "extend":
            values = [alg.at_blocks(t, {1: self.a, 2: self.b}) for t in self.tau]
            return {"point": [self.a], "companion": [self.b], "image": [self.b],
                    "tau_values": values}
        M = self.matrix
        if command == "transform":
            return {"f": f, "rewrite": [alg.rewrite(p, M) for p in f]}
        # axiom-instance: tau under the primed D' = M[-1] . (d1, D)
        dee = alg.combine(M[-1])
        return {"f": f, "tau": [alg.tau(p, dee) for p in f],
                "w": [alg.poly(t) for t in self.doc["w"]]}

    def matches(self, command: str, fmt: str, out: str) -> bool:
        if command not in self._cache:
            self._cache[command] = self._expected(command)
        want = self._cache[command]
        try:
            rec = read_output(command, fmt, out)
            for key, values in want.items():
                if fmt == "json" and (command, key) in _TEXT_ONLY:
                    continue
                got = rec.get(key, [])
                if len(got) != len(values):
                    return False
                for text, value in zip(got, values):
                    if isinstance(value, tuple):
                        if tuple(self.alg.scalar(s) for s in text) != value:
                            return False
                    elif self.alg.poly(text) != value:
                        return False
            return self._matrix_fields_match(command, rec) and self._note_matches(command, rec)
        except (ValueError, KeyError, TypeError):
            return False

    def _matrix_fields_match(self, command: str, rec: dict) -> bool:
        if command not in ("transform", "axiom-instance"):
            return True
        rows = [[Fraction(v) for v in row] for row in rec["deltas"] + rec["D"]]
        return rows == self.matrix

    def _note_matches(self, command: str, rec: dict) -> bool:
        if command == "prolong":
            return len(rec["note"]) == 1 and "generator-relative" in rec["note"][0]
        if command == "axiom-instance":
            return len(rec["sentence"]) == 1 and rec["sentence"][0].startswith("for all")
        return True
