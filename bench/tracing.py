"""Per-layer spans, recorded by wrapping the library from outside.

The library is not edited.  Public functions are replaced on their module,
because calls inside the package go through module globals
(``nodes.vanishing_basis`` calls ``linalg.nullspace``, ``verify`` calls
``_nodes.is_independent`` and so on).  ``RankTracker`` methods are replaced
on the class, because ``nodes``, ``curves`` and ``generators`` import the
class by name.  The package root re-exports functions by name, so the
benchmark calls through the modules, never through the root.

Spans stay in memory (name, start, end, parent, op id) and are written out
once the run ends.  A span's self time is its duration minus the time its
direct children cover; a child covers its own interval plus the time its
wrapper spent scanning arguments, so that cost is charged to nobody.
"""

from __future__ import annotations

import contextlib
import functools
import json
from fractions import Fraction
from time import perf_counter_ns

# layer -> functions wrapped on that module; svg is floats-only rendering
# on no performance path, so it is not measured
WRAPPED = {
    "linalg": ("rank", "nullspace", "solve", "solve_columns"),
    "poly": ("multiplication_matrix",),
    "nodes": ("hilbert_function", "is_independent", "is_poised",
              "collocation_matrix", "vanishing_basis",
              "fundamental_polynomial", "fundamental_polynomials",
              "next_independent_node", "extend_to_poised"),
    "curves": ("extend_on_curve", "space_divisible_by", "same_curve"),
    "generators": ("random_poised", "berzolari_radon", "defect_config"),
    "verify": ("characterize_defect", "verify_uniqueness",
               "curve_through_extra_node", "line_usage_reports",
               "curves_through"),
    "cli": ("main",),
}
RANK_TRACKER_METHODS = ("add", "would_grow")
LAYERS = tuple(WRAPPED)
FUNCTIONS = tuple(
    [f"linalg.RankTracker.{m}" for m in RANK_TRACKER_METHODS]
    + [f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns])

_ADD = "linalg.RankTracker.add"

# span fields, kept as lists for speed
NAME, OUTER, START, END, PARENT, OP, GREW = range(7)


def _max_bits(obj) -> int:
    """Largest numerator or denominator bit-length inside an argument."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, (int, Fraction)):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    entries = getattr(obj, "entries", None)
    if entries is not None:
        obj = entries
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(v) for v in obj), default=0)
    return 0


class Tracer:
    """Span recorder; spans are recorded while install() is active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.input_max_bits = 0

    def _wrap(self, name: str, fn):
        tracer = self
        scans = name.startswith("linalg.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = perf_counter_ns()
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if scans and (parent < 0 or not tracer.spans[parent][NAME]
                          .startswith("linalg.")):
                # only arguments entering linalg from another layer count
                bits = _max_bits(args)
                if bits > tracer.input_max_bits:
                    tracer.input_max_bits = bits
            span = [name, outer, 0, 0, parent, tracer.op_id, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if name == _ADD:
                span[GREW] = bool(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self, lib):
        """Wraps the public functions for the duration of the block."""
        targets = [(lib.linalg.RankTracker, m, f"linalg.RankTracker.{m}")
                   for m in RANK_TRACKER_METHODS]
        targets += [(getattr(lib, layer), fn, f"{layer}.{fn}")
                    for layer, fns in WRAPPED.items() for fn in fns]
        saved = []
        try:
            for owner, attr, name in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self, rounds: int) -> dict:
        """Calls and self seconds per function and per layer, per round."""
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[OUTER]
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_ns = dict.fromkeys(FUNCTIONS, 0)
        adds = grew = 0
        for span, cover in zip(spans, covered):
            name = span[NAME]
            calls[name] += 1
            self_ns[name] += span[END] - span[START] - cover
            if name == _ADD:
                adds += 1
                grew += span[GREW] is True
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, ns in self_ns.items():
            layer_ns[name.split(".")[0]] += ns
        return {
            "functions": {name: {"calls": calls[name] / rounds,
                                 "self_s": self_ns[name] / 1e9 / rounds}
                          for name in FUNCTIONS},
            "layers": {layer: ns / 1e9 / rounds
                       for layer, ns in layer_ns.items()},
            "grew_ratio": grew / adds if adds else 0.0,
        }

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME], "start_ns": span[START],
                    "end_ns": span[END], "parent": span[PARENT],
                    "op": span[OP]}) + "\n")

