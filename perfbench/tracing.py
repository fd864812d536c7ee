"""Run-time wrappers around the library functions each workload calls.

The benchmark never edits the library.  It rebinds names at run time: a
wrapped function replaces the module attribute through which a caller finds
it, e.g. ``annigraph.verify.genus_exact`` for the calls ``run_suite`` makes
and ``annigraph.genus.genus_exact`` for the calls the benchmark makes.

Every run binds counting wrappers, untraced runs too, because the genus
nodes and the genus calls made inside ``run_suite`` cannot be read from what
it returns.  They read the result of each call (ideal counts, AG sizes,
genus answers) and read no clock.  A traced run also
records a span per call: name, start, end, parent span and op id.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (span name, modules whose attribute is rebound, attribute)
TARGETS = (
    ("rings.validate", ("annigraph.rings", "annigraph.verify"), "validate_ring"),
    ("ideals.all_ideals", ("annigraph.ideals", "annigraph.verify"), "all_ideals"),
    ("classify", ("annigraph.classify", "annigraph.verify"), "classify"),
    ("graphs.build_ag", ("annigraph.graphs", "annigraph.verify"), "build_ag"),
    ("genus.genus_exact", ("annigraph.genus", "annigraph.verify"), "genus_exact"),
    ("verify.run_suite", ("annigraph.verify",), "run_suite"),
)
# The benchmark's own ring-building helper is wrapped under this name.
BUILD_SPAN = "rings.build"


@dataclass
class GenusAnswer:
    """One genus_exact call: its graph, and its result or exception type."""

    graph: object
    result: object = None
    error: str | None = None
    in_suite: bool = False


@dataclass
class OpRecord:
    """What the wrappers saw during one op."""

    ideal_counts: list = field(default_factory=list)
    ag_sizes: list = field(default_factory=list)
    ring_elements: int = 0
    genus: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)


class Recorder:
    """Binds the wrappers, collects per-op records and, when tracing, spans."""

    def __init__(self):
        self.op = OpRecord()
        self.op_id = "setup"
        self.tracing = False
        self.spans = []  # (name, start, end, parent index, op id)
        self._stack = []
        self._suite_depth = 0
        self._saved = []

    def begin_op(self, op_id: str) -> OpRecord:
        self.op_id = op_id
        self.op = OpRecord()
        return self.op

    def install(self, tracing: bool, build_module, build_attr: str):
        """Rebind every target; ``build_module.build_attr`` is the
        benchmark's own ring builder, traced as rings.build."""
        self.tracing = tracing
        for name, modules, attr in TARGETS:
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        original = getattr(build_module, build_attr)
        self._saved.append((build_module, build_attr, original))
        setattr(build_module, build_attr, self._wrap(BUILD_SPAN, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if name == "verify.run_suite":
                self._suite_depth += 1
            span = None
            if self.tracing:
                span = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
                self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "genus.genus_exact":
                    self.op.genus.append(GenusAnswer(args[0], error=type(exc).__name__,
                                                     in_suite=self._suite_depth > 0))
                raise
            finally:
                if span is not None:
                    self.spans[span][2] = time.perf_counter()
                    self._stack.pop()
                if name == "verify.run_suite":
                    self._suite_depth -= 1
            self._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result):
        op = self.op
        if name == "rings.validate":
            op.ring_elements += args[0].size
        elif name == "ideals.all_ideals":
            op.ideal_counts.append(len(result))
        elif name == "graphs.build_ag":
            op.ag_sizes.append((result.n_vertices, result.n_edges))
        elif name == "genus.genus_exact":
            op.genus.append(GenusAnswer(args[0], result, in_suite=self._suite_depth > 0))
        elif name == "verify.run_suite":
            for key, n in result.counts.items():
                op.checks[key] = op.checks.get(key, 0) + n


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
