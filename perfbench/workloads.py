"""Workload definitions: which seeded instances each workload runs, and the
set-up that turns them into parsed inputs.

An instance is one (query text, database text) pair, the two inputs a user
hands to ``provfact factorize``.  The benchmark seed only picks the data
seeds handed to ``gen.gen_random``; the shapes, sizes and counts below are
fixed, so every seed exercises the same code paths at the same scale.

This module imports nothing from provfact at import time: the set-up probe
times the package import itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# One stated branch-and-bound budget for every workload.  Only exact-mix
# reaches the exact engine; there it makes the large instances exhaust the
# search and fall back to flow.
BUDGET = 50_000

# The two-star fixture R(x), S(x,y), T(y) with its atoms in another order,
# as a user may write it.  Joining in source order then builds the x*y cross
# product before S filters it.
Q2STAR_REORDERED = "q2star :- R(x), T(y), S(x,y)"

# (shape, domain size d, tuples per relation, instance count).  A shape is
# a fixture name from provfact.gen.FIXTURE_QUERIES or "q2star-reordered".
# A shape listed at exactly two sizes gives the `*.growth` metrics.
WORKLOADS: dict[str, dict[str, list[tuple[str, int, int, int]]]] = {
    # Two-plan queries that dispatch routes to min-cut: graph build, cut and
    # extraction dominate; exact and the closed forms never run.
    "flow-large": {
        "full": [("3chain", 20, 100, 1), ("3chain", 30, 200, 1), ("2chain", 60, 400, 1)],
        "tiny": [("3chain", 8, 20, 1), ("3chain", 10, 40, 1), ("2chain", 20, 60, 1)],
    },
    # The closed-form bipartite solvers and the witness join; flow sees
    # only the two-chain-we remainder.
    "special-bipartite": {
        "full": [
            ("triangle-u", 25, 600, 1),
            ("triangle-u", 28, 900, 1),
            ("2chain-we", 300, 1500, 1),
            ("q2star-reordered", 500, 1500, 1),
            ("q2star-reordered", 700, 2500, 1),
        ],
        "tiny": [
            ("triangle-u", 6, 20, 1),
            ("triangle-u", 8, 40, 1),
            ("2chain-we", 20, 60, 1),
            ("q2star-reordered", 40, 60, 1),
            ("q2star-reordered", 60, 120, 1),
        ],
    },
    # Many small instances: exact branch-and-bound, per-call overhead
    # (classify, enumerate_mveo, assemble on tiny inputs), and flow fallback
    # on many tiny graphs.  The small sizes finish within the budget; the
    # large ones always exhaust it and fall back to flow over 3- and 6-plan
    # orderings.  The 4chain instances keep the known cost-model defect
    # visible as failures.
    "exact-mix": {
        "full": [
            ("triangle", 6, 20, 33),
            ("triangle", 12, 60, 3),
            ("q3star", 5, 12, 38),
            ("q3star", 10, 50, 2),
            ("4chain", 6, 8, 24),
        ],
        "tiny": [
            ("triangle", 6, 20, 3),
            ("triangle", 12, 60, 1),
            ("q3star", 5, 12, 3),
            ("4chain", 6, 8, 6),
        ],
    },
}

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Spec:
    """Recipe for one instance; `data_seed` is derived from the benchmark seed."""

    shape: str
    d: int
    tuples: int
    data_seed: int

    @property
    def label(self) -> str:
        return f"{self.shape} d={self.d} t={self.tuples} seed={self.data_seed}"


@dataclass(frozen=True)
class Instance:
    """One parsed input pair, ready to time."""

    spec: Spec
    query: object  # provfact.cq.Query
    database: object  # provfact.provenance.Database


def specs(workload: str, seed: int, scale: str = "full") -> list[Spec]:
    """The workload's instances for `seed`, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    return [
        Spec(shape, d, tuples, rng.randrange(2**32))
        for shape, d, tuples, count in WORKLOADS[workload][scale]
        for _ in range(count)
    ]


def build(workload: str, seed: int, scale: str = "full") -> list[Instance]:
    """Generate every instance as text, then parse it as the CLI would."""
    from provfact import cq, gen, provenance

    out = []
    for spec in specs(workload, seed, scale):
        text = Q2STAR_REORDERED if spec.shape == "q2star-reordered" else gen.FIXTURE_QUERIES[spec.shape]
        q = cq.parse_query(text)
        generated = gen.gen_random(
            gen.GenSpec(query=q, d=spec.d, tuples=spec.tuples, seed=spec.data_seed)
        )
        out.append(Instance(spec, q, provenance.parse_database(generated.text())))
    return out
