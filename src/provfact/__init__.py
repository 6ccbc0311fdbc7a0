"""provfact: minimal-length factorizations of Boolean provenance for
self-join-free conjunctive queries.

Pipeline: parse a query (`cq`), enumerate its minimal variable elimination
orders (`veo`), compute witnesses over a database (`provenance`), then
minimize factorization length exactly (`exact`), by min-cut (`flow`), or
with shape-specific algorithms (`special`, whose `dispatch` runs the whole
pipeline).  Importing the package loads those six modules; names are
imported from their submodules (``from provfact.special import dispatch``).
The covering model (`ilp`), the generators (`gen`), the benchmarks
(`bench`) and the command line (`cli`) load on first import.
"""

__version__ = "0.1.0"

from . import cq, veo, provenance, exact, flow, special  # noqa: E402,F401
