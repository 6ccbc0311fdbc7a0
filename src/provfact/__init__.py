"""provfact: minimal-length factorizations of Boolean provenance for
self-join-free conjunctive queries.

Pipeline: parse a query (`cq`), enumerate its minimal variable elimination
orders (`veo`), compute witnesses over a database (`provenance`), intern
its prefix instances and assemble expressions (`assembly`), then minimize
factorization length exactly (`exact`), by min-cut (`flow`), or with
shape-specific algorithms (`special`, whose `dispatch` runs the whole
pipeline).  Importing the package runs none of those seven: each runs on
the first read of one of its names (``provfact.special.dispatch``), so
reading inputs runs `cq`, `provenance` and `gen` only.  That first read
takes no lock; do not race it across threads.  The covering model (`ilp`),
the generators (`gen`), the benchmarks (`bench`) and the command line
(`cli`) run when imported.
"""

import importlib.util
import sys

__version__ = "0.1.0"
_POLICIES = ("auto", "exact", "flow", "single-plan")  # the routes of `special.dispatch`
_BUDGET = 500_000  # the default node cap of the exact search


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defers the module's code to its first attribute read
    return module


cq, veo, provenance, assembly, exact, flow, special = map(
    _lazy, "cq veo provenance assembly exact flow special".split()
)
