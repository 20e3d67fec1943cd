"""Spans and counters for the layers of ``diagcx``, recorded from outside the package.

``Tracer.install`` replaces the entry points listed in ``TRACED`` with
wrappers that record one span per call (name, start, end, parent span, job
id) and update work counters.  Inner helpers called millions of times
(normal forms, group multiplication, Prüfer decoding of a single word) are
not wrapped; their time falls into the entry point that calls them.
"""

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# Layer module -> traced entry points ("Class.method" for methods).  A span is
# named "<layer>.<function>", e.g. "complexes.validate".
TRACED = {
    "cli": ("main",),
    "forests": ("enumerate_forests", "build_gamma_Fn", "orbit_decomposition", "decomposition_report"),
    "complexes": (
        "DiagonalComplex.from_json",
        "DiagonalComplex.validate",
        "DiagonalComplex.is_proper",
        "DiagonalComplex.category_objects",
    ),
    "partitions": ("meet",),
    "series": (
        "hilbert_polynomial",
        "substitute",
        "series_Wh_Zp",
        "GradedModuleSeries.render",
        "GradedModuleSeries.to_json",
    ),
    "present": ("fr_presentation", "forest_dc_presentation", "verify_relations", "probe_words"),
    "homology": (
        "integer_rank",
        "smith_normal_form",
        "simplicial_homology",
        "torus_model_generators",
        "torus_model_betti",
        "coset_nerve",
    ),
    "groups": ("group_from_descriptor",),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: object  # index of the enclosing span, or None
    job: str


def self_times(spans):
    """Total self time per span name: each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
            cursor = max(cursor, end)
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def _torsion_entries(result):
    return sum(len(coeff.torsion) for coeff in result.coeffs)


def _count(counters, name, args, result):
    """Work counters, computed from a traced call's arguments and result."""
    from diagcx.partitions import EMPTY_MEET

    if name == "forests.enumerate_forests":
        counters["forests.words"] += (args[0] + 1) ** (args[0] - 1)
    elif name == "complexes.validate":
        counters["complexes.simplices"] += len(args[0].gamma)
    elif name == "complexes.category_objects":
        counters["complexes.objects"] += len(result)
        counters["complexes.new_objects"] += len(result) - len(set(args[0].gamma.values()))
    elif name == "partitions.meet":
        counters["partitions.meet.calls"] += 1
        counters["partitions.meet.empty"] += result is EMPTY_MEET
    elif name in ("series.substitute", "series.series_Wh_Zp"):
        counters["series.torsion_entries"] += _torsion_entries(result)
    elif name == "present.verify_relations":
        counters["present.relations"] += len(args[0].relations)
    elif name == "present.probe_words":
        counters["present.probe_words"] += len(result)
    elif name == "homology.integer_rank":
        rows = args[0]
        counters["homology.integer_rank.entries"] += len(rows) * (len(rows[0]) if rows else 0)
        counters["homology.integer_rank.nnz"] += sum(1 for row in rows for x in row if x)
    elif name == "homology.coset_nerve":
        counters["homology.faces"] += len(result[0].faces)


class Tracer:
    """Records spans and counters while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.job)
            _count(counters, name, args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced entry point, in each ``diagcx`` module that holds it by name."""
        modules = [importlib.import_module(f"diagcx.{layer}") for layer in TRACED]
        loaded = [m for key, m in sys.modules.items() if key == "diagcx" or key.startswith("diagcx.")]
        for layer, module in zip(TRACED, modules):
            for path in TRACED[layer]:
                name = f"{layer}.{path.split('.')[-1]}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, attr, self._wrap(name, raw))
                    continue
                original = getattr(module, path)
                traced = self._wrap(name, original)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, attr, traced)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
