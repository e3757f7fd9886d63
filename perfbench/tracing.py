"""Layer tracing from outside the package: wrappers installed on diffalg's
public functions for the traced run only, never for the timed run.

Every binding of a wrapped function is replaced, including the copies made
by `from .x import y` in other diffalg modules, so no caller is missed.
Methods are patched on their class (under every attribute name that holds
them, e.g. DeltaPoly.__radd__ as well as __add__), which covers every caller.

Each timed wrapper records a span (name, start, end, parent span, operation)
in memory and adds to its layer's calls and self time, which is the time in
the wrapper minus the time in wrapped calls nested inside it. Calls-only
wrappers count and record nothing else, so their time stays in the caller.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from array import array
from time import perf_counter

# (module, class or None, attribute, metric prefix, timed)
TARGETS = (
    ("exact", "RationalFunction", "__init__", "exact.RationalFunction", True),
    ("exact", "MultiPoly", "__mul__", "exact.MultiPoly.mul", True),
    ("exact", None, "division", "exact.division", True),
    ("exact", "MonomialOrder", "key", "exact.MonomialOrder.key", False),
    ("exact", None, "poly_gcd", "exact.poly_gcd", True),
    ("fields", None, "derive_base", "fields.derive_base", True),
    ("fields", "DerivationVector", "combined_row", "fields.combined_row", False),
    ("fields", None, "base_field", "fields.base_field", True),
    ("deltaring", "DeltaPoly", "__mul__", "deltaring.DeltaPoly.mul", True),
    ("deltaring", "DeltaPoly", "__add__", "deltaring.DeltaPoly.add", True),
    ("deltaring", None, "apply_delta", "deltaring.apply_delta", True),
    ("deltaring", None, "eval_at_blocks", "deltaring.eval_at_blocks", True),
    ("prolong", None, "tau", "prolong.tau", True),
    ("prolong", None, "shift_tau", "prolong.shift_tau", True),
    ("prolong", None, "tau_power_cofactor", "prolong.tau_power_cofactor", True),
    ("geometry", None, "prolongation_system", "geometry.prolongation_system", True),
    ("geometry", None, "tangent_system", "geometry.tangent_system", True),
    ("geometry", None, "fiber_system", "geometry.fiber_system", True),
    ("transform", None, "rewrite_jets", "transform.rewrite_jets", True),
    ("syntax", None, "parse_poly", "syntax.parse_poly", True),
    ("syntax", None, "parse_scalar_rf", "syntax.parse_scalar_rf", True),
    ("syntax", None, "print_poly", "syntax.print_poly", True),
    ("cli", None, "load_document", "cli.load_document", True),
    ("cli", None, "build_parser", "cli.build_parser", True),
    ("cli", None, "main", "cli.main", True),
)
GCD = "exact.poly_gcd"


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for _, _, _, prefix, timed in TARGETS:
        out.append((f"{prefix}.calls", "count", "lower"))
        if timed:
            out.append((f"{prefix}.self_s", "s", "lower"))
        if prefix == GCD:
            out.append((f"{GCD}.useful_ratio", "ratio", "higher"))
    return out


class Tracer:
    """Spans kept in flat arrays; `op` is the identifier of the operation
    that the next spans belong to."""

    def __init__(self):
        self.names = ["op"] + [t[3] for t in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.gcd_useful = 0
        self.op = -1
        self._stack = []  # [span id, time in nested wrapped calls]
        self._patches = []

    def _open(self, name_id):
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name_id, t0, t1):
        self._stack.pop()
        sid, nested = frame
        self.span_start[sid] = t0
        self.span_end[sid] = t1
        self.calls[name_id] += 1
        self.self_s[name_id] += (t1 - t0) - nested
        if self._stack:
            self._stack[-1][1] += t1 - t0

    def timed(self, fn, name_id, useful=None):
        def wrapper(*args, **kwargs):
            frame = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name_id, t0, perf_counter())
            if useful is not None and useful(result):
                self.gcd_useful += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name_id):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name_id] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation under its root span."""
        self.op = op_id
        frame = self._open(0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, 0, t0, perf_counter())

    # -- installing ------------------------------------------------------------

    def install(self):
        package = importlib.import_module("diffalg")
        for info in pkgutil.iter_modules(package.__path__):
            if info.name != "__main__":  # importing it runs the CLI
                importlib.import_module(f"diffalg.{info.name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "diffalg" or name.startswith("diffalg.")]
        for i, (mod_name, cls_name, attr, prefix, timed) in enumerate(TARGETS, start=1):
            mod = sys.modules[f"diffalg.{mod_name}"]
            if cls_name is None:
                original = getattr(mod, attr)
                owners = modules
            else:
                owners = [getattr(mod, cls_name)]
                original = owners[0].__dict__[attr]
            if not timed:
                wrapper = self.counted(original, i)
            elif prefix == GCD:
                wrapper = self.timed(original, i, useful=lambda g: not g.is_constant())
            else:
                wrapper = self.timed(original, i)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for i, (_, _, _, prefix, timed) in enumerate(TARGETS, start=1):
            out[f"{prefix}.calls"] = self.calls[i]
            if timed:
                out[f"{prefix}.self_s"] = self.self_s[i]
            if prefix == GCD:
                out[f"{GCD}.useful_ratio"] = (self.gcd_useful / self.calls[i]
                                              if self.calls[i] else 0.0)
        return out

    def write(self, path, extra: dict):
        """Per-layer totals, `extra` and every span, as one JSON object. Span
        times are seconds from the first span's start."""
        base = self.span_start[0] if self.span_start else 0.0
        doc = dict(extra)
        doc["per_layer"] = self.metrics()
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "op": list(self.span_op),
            "start": [round(t - base, 7) for t in self.span_start],
            "end": [round(t - base, 7) for t in self.span_end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
