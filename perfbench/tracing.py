"""Span tracing installed from outside the package, for the traced run only.

`Tracer.install()` replaces the public functions named in the `__all__`
of the six layer modules with a timing wrapper (all but two scalar
helpers).  It also rebinds the names that other modules imported with
`from ... import`, such as `cli.optimize_threshold` or
`mse_model.scheme_constants`, so that a call from one layer into another
becomes a child span.  `uninstall()` puts the original objects back.  No
file of the package is changed.

Spans are kept in memory as (name, start, end, parent, workload, error) and
written out once, when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import re
import time
from dataclasses import dataclass, field

PACKAGE = "wiener_coding"
LAYERS = ("cli", "gauss_stats", "mse_model", "code_optimizer", "simulator", "hitting_times")

# Scalar helpers called tens of thousands of times per design iteration,
# inside scheme_constants and the MSE formulas.  A wrapper costs about as
# much as one call, so wrapping them would double the spans of their callers.
UNWRAPPED = frozenset({"gauss_stats.gauss_pdf", "gauss_stats.gauss_tail"})

# Methods that are not module-level functions but are the simulator's output
# layer; the CLI reaches them through the report object.
METHODS = (
    ("simulator", "SimulationReport", "to_json", "simulator.to_json"),
    ("simulator", "CycleLog", "to_csv", "simulator.cycles_to_csv"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    workload: str
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while `active` is set; `annotate` maps a span name to a
    function of (args, result) that returns counts stored on the span."""

    def __init__(self, workload: str, annotate: dict):
        self.workload = workload
        self.annotate = annotate
        self.active = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, annotate = self.spans, self._stack, self.annotate.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.workload)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        wrappers = {}  # id of the original function -> its wrapper
        for short, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and f"{short}.{name}" not in UNWRAPPED:
                    wrappers[id(obj)] = self.wrap(f"{short}.{name}", obj)
        for mod in (*modules.values(), importlib.import_module(PACKAGE)):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
        for short, cls, meth, span_name in METHODS:
            owner = getattr(modules[short], cls)
            self._patch(owner, meth, self.wrap(span_name, vars(owner)[meth]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start", "end", "parent", "workload", "error"))
            for i, s in enumerate(self.spans):
                w.writerow((i, s.name, repr(s.start), repr(s.end), s.parent, s.workload, s.error))


def self_times(spans: list[Span], name: str) -> list[float]:
    """Self time of each span called `name`: its duration minus the time its
    direct children cover.  Code is single-threaded, so children never
    overlap and their coverage is the sum of their durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - child[i] for i, s in enumerate(spans) if s.name == name]


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S.*)$")


def _within(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


def import_shares(importtime_stderr: str, modules: tuple[str, ...]) -> dict:
    """Milliseconds each module adds to an import, from `-X importtime`.

    A module's share is the cumulative time of its outermost lines: the line
    named after it and lines of its submodules not nested in such a line.
    Submodule lines count because a lazily loaded module, such as
    `from scipy import stats`, prints no line of its own.
    """
    rows = [(len(m.group(2)), m.group(3).strip(), int(m.group(1)))
            for m in map(_IMPORTTIME.match, importtime_stderr.splitlines()) if m]
    share = dict.fromkeys(modules, 0.0)
    ancestors: list[tuple[int, str]] = []  # lines enclosing the current one
    for indent, name, cumulative_us in reversed(rows):  # a parent prints after its children
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        for mod in modules:
            if _within(name, mod) and not any(_within(a, mod) for _, a in ancestors):
                share[mod] += cumulative_us / 1000.0
        ancestors.append((indent, name))
    return share
