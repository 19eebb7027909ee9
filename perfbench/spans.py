"""Spans around nambu's public functions, installed from outside the program.

`Tracer.prepare` wraps every public function and method of each nambu
module (the modules are the layers) and finds every name that refers to a
wrapped function, including names brought in with `from .x import f`.
`begin_item` rebinds them all to the wrappers and `end_item` puts every
original back, so code outside a traced item never runs a wrapper.
Each call becomes a span: name, parent span, start and end; spans stay in
flat arrays in memory and `write` saves them when the run ends. The item a
span belongs to follows from `item_first`, the first span id of each item.

A layer's self time is the time its spans cover minus the time covered by
their child spans of other layers; a span nested in a span of its own layer
counts once. `self_times` does that arithmetic.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = (
    "ratpoly", "exterior", "cartan", "structures", "geomaps",
    "groupoids", "formsbialg", "parser", "session", "cli",
)

# Arithmetic and construction dunders are part of the public API of the
# kernel classes; comparison and hashing are left alone because dicts and
# sets call them implicitly.
_DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__sub__", "__neg__",
    "__mul__", "__rmul__", "__pow__",
})


_INCLUSIVE = ("groupoids.GroupLaw.__post_init__", "parser.parse")


def self_times(parent, name, start, end):
    """Self time per span name: duration minus the durations of direct children."""
    child = [0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict = defaultdict(int)
    for i, nid in enumerate(name):
        out[nid] += end[i] - start[i] - child[i]
    return out


def inclusive_times(parent, name, start, end, wanted):
    """Inclusive time per span name in `wanted`; a span nested in one of its own name counts once."""
    out: dict = defaultdict(int)
    for i, nid in enumerate(name):
        if nid not in wanted:
            continue
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:
            out[nid] += end[i] - start[i]
    return out


def _dist_key(x):
    """An exact, hashable key for a Poly or a graded tensor."""
    if hasattr(x, "terms"):
        return (x.chart.coords, frozenset(x.terms.items()))
    return (type(x).__name__, x.grade, x.chart.coords,
            frozenset((i, frozenset(p.terms.items())) for i, p in x.comps.items()))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.item_first: list[int] = []
        self.cur = -1
        self.patches: list = []
        self.mul_terms = 0
        self.coeff_int = 0
        self.coeff_bits = 0
        self.d_keys: set = set()
        self.fi_tuples = 0
        self.lie_calls = 0
        self.lie_nonzero = 0

    # hooks that read results where the work happens

    def _on_mul(self, args, r) -> None:
        terms = r.terms
        self.mul_terms += len(terms)
        bits = self.coeff_bits
        for c in terms.values():
            if c.denominator == 1:
                self.coeff_int += 1
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
        self.coeff_bits = bits

    def _on_d(self, args, r) -> None:
        self.d_keys.add(_dist_key(args[0]))

    def _on_fi(self, args, r) -> None:
        self.fi_tuples += r.family_size[0]

    def _on_lie(self, args, r) -> None:
        self.lie_calls += 1
        if not r.is_zero:
            self.lie_nonzero += 1

    def _hooks(self) -> dict:
        return {
            "ratpoly.Poly.__mul__": self._on_mul,
            "cartan.de_rham_d": self._on_d,
            "structures.fi_check": self._on_fi,
            "structures.lie_preservation_defect": self._on_lie,
        }

    def _wrap(self, fn, span_name: str, layer: str, hook):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        tr = self
        parent, name, start, end = self.parent, self.name, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(tr.cur)
            name.append(nid)
            end.append(0)
            tr.cur = i
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                tr.cur = parent[i]
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def prepare(self, package) -> None:
        """Build wrappers for the public functions and methods of every layer module.

        Nothing is patched until `begin_item`; `end_item` puts the originals back.
        """
        if self.patches:
            raise RuntimeError("tracer already prepared")
        hooks = self._hooks()
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced: dict = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    span = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self._wrap(obj, span, layer, hooks.get(span)))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._prepare_class(obj, layer, mod.__file__, hooks)
        for owner in [package] + list(modules.values()):
            for attr, obj in list(vars(owner).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((owner, attr, obj, hit[1]))

    def _prepare_class(self, cls, layer: str, filename: str, hooks) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn) or fn.__code__.co_filename != filename:
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            wrapper = self._wrap(fn, span, layer, hooks.get(span))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(wrapper)
            self.patches.append((cls, attr, raw, wrapper))

    def begin_item(self) -> None:
        """Patch every binding and start the next item's spans."""
        self.item_first.append(len(self.start))
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def end_item(self) -> None:
        """Put every original binding back."""
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    # results

    def metrics(self, traced_s: float) -> dict:
        """Per-layer metrics; `traced_s` is the summed wall time of the traced items."""
        names, layer_of = self.names, self.layer_of
        selfs = self_times(self.parent, self.name, self.start, self.end)
        by_name = {names[nid]: nid for nid in range(len(names))}
        wanted = {by_name[s] for s in _INCLUSIVE if s in by_name}
        incl = inclusive_times(self.parent, self.name, self.start, self.end, wanted)
        calls: dict = defaultdict(int)
        for nid in self.name:
            calls[nid] += 1

        def s_of(table, span):
            nid = by_name.get(span)
            return table.get(nid, 0) / 1e9 if nid is not None else 0.0

        def calls_of(span):
            nid = by_name.get(span)
            return calls.get(nid, 0) if nid is not None else 0

        out: dict = {}
        for layer in LAYERS:
            ids = [nid for nid in range(len(names)) if layer_of[nid] == layer]
            self_s = sum(selfs.get(nid, 0) for nid in ids) / 1e9
            out[f"{layer}.calls"] = (sum(calls.get(nid, 0) for nid in ids), "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.self_frac"] = (self_s / traced_s if traced_s else 0.0, "ratio")
        d_calls = calls_of("cartan.de_rham_d")
        out.update({
            "ratpoly.mul.calls": (calls_of("ratpoly.Poly.__mul__"), "count"),
            "ratpoly.mul.terms_out": (self.mul_terms, "count"),
            "ratpoly.mul.self_s": (s_of(selfs, "ratpoly.Poly.__mul__"), "s"),
            "ratpoly.partial.calls": (calls_of("ratpoly.Poly.partial"), "count"),
            "ratpoly.add.calls": (calls_of("ratpoly.Poly.__add__"), "count"),
            "ratpoly.substitute.calls": (calls_of("ratpoly.Poly.substitute"), "count"),
            "ratpoly.substitute.self_s": (s_of(selfs, "ratpoly.Poly.substitute"), "s"),
            "ratpoly.poly_new.calls": (calls_of("ratpoly.Poly.__init__"), "count"),
            "ratpoly.coeff.int_frac": (
                self.coeff_int / self.mul_terms if self.mul_terms else 0.0, "ratio"),
            "ratpoly.coeff.max_bits": (self.coeff_bits, "bits"),
            "exterior.tensor_new.calls": (calls_of("exterior.GradedTensor.__init__"), "count"),
            "exterior.evaluate.calls": (calls_of("exterior.evaluate"), "count"),
            "exterior.evaluate.self_s": (s_of(selfs, "exterior.evaluate"), "s"),
            "cartan.de_rham_d.calls": (d_calls, "count"),
            "cartan.de_rham_d.distinct": (len(self.d_keys), "count"),
            "cartan.de_rham_d.repeat_frac": (
                1 - len(self.d_keys) / d_calls if d_calls else 0.0, "ratio"),
            "cartan.schouten.calls": (calls_of("cartan.schouten"), "count"),
            "structures.fi.f_tuples": (self.fi_tuples, "count"),
            "structures.fi.lie_nonzero_frac": (
                self.lie_nonzero / self.lie_calls if self.lie_calls else 0.0, "ratio"),
            "geomaps.reduce.calls": (calls_of("geomaps.SolvedSubmanifold.reduce"), "count"),
            "groupoids.grouplaw_validate_s": (
                s_of(incl, "groupoids.GroupLaw.__post_init__"), "s"),
            "formsbialg.form_bracket.calls": (calls_of("formsbialg.form_bracket"), "count"),
            "parser.parse_s": (s_of(incl, "parser.parse"), "s"),
            "trace.spans": (len(self.start), "count"),
        })
        return out

    def write(self, path) -> None:
        """Save the spans: a JSON header, then the four int64 arrays in order."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "item_first": self.item_first,
            "spans": len(self.start),
            "arrays": ["parent", "name", "start_ns", "end_ns"],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(f)
