"""Per-layer spans recorded from outside provfact.

`Tracer.install` replaces each traced public function of the measured
modules, in every ``provfact`` module namespace that holds it, with a
wrapper that records one span: name, start, end, parent span and instance
id.  `uninstall` puts the originals back.  Spans stay in memory until the
run writes them out.  Nothing inside the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from dataclasses import dataclass, field

# Measured layers, by module name.  `flow` includes the `_mincut` kernel,
# which `flow.min_cut` calls; `gen` only builds inputs.
LAYERS = ("cq", "veo", "provenance", "special", "exact", "flow")

# Helpers called once per witness or per plan node.  A span there would cost
# more than the work it times; their time counts as the caller's self time.
UNTRACED = frozenset(
    {"provenance.instantiate", "veo.prefix_path", "veo.veo_node", "veo.dissociation_of"}
)

# Counts read off a span's return value, where the work happened.
COUNTS = {
    "provenance.compute_witnesses": lambda W: {"witnesses": len(W.witnesses)},
    "flow.build_flow_graph": lambda g: {"nodes": g.node_count, "arcs": len(g.arcs)},
    "flow.min_cut": lambda res: {"cut": res.value},
    "flow.extract_factorization": lambda out: {"length": out[0].length},
    "exact.solve_exact": lambda res: {
        "nodes": res.nodes, "optimal": res.optimal, "length": res.length,
    },
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    instance: int  # -1 during set-up
    start: int = 0  # perf_counter_ns
    end: int = 0
    error: str | None = None  # exception class that left the span
    counts: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    instance: int = -1
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[types.ModuleType, str, object]] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; the benchmark opens set-up and
        instance spans with it, the wrappers open the rest."""
        span = Span(name, self._stack[-1] if self._stack else -1, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if count is not None:
                span.counts = count(out)
            return out

        return traced

    def install(self) -> None:
        """Patch every traced function at all of its import sites."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "provfact" or name.startswith("provfact."))
        ]
        for layer in LAYERS:
            mod = sys.modules[f"provfact.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (
                    not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                    or name in UNTRACED
                ):
                    continue
                wrapper = self.wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the time its direct children cover (ns)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
