"""Golden outputs: one digest over what every solver front end prints.

Each of the 8 fixture queries runs on seeded random databases (seeds 0-9,
(d, tuples) in {(4, 6), (5, 8)}).  Per instance the digest takes
`dispatch(auto)`'s method, length, optimal flag, lower bound and ASCII
expression (or the exception class it raised), the reduced LP text when
there are fewer than 40 witnesses, and the flow network's DOT text for the
two-plan fixtures.  The 4chain cost-model defect raises on some of these
instances; those exception classes are part of the digest.

A change that moves any of these outputs changes the digest.  Update
`DIGEST` only for a change meant to move them, and say which outputs moved.
"""

import hashlib

from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.flow import build_flow_graph
from provfact.ilp import build_ilp, export_lp
from provfact.provenance import compute_witnesses
from provfact.special import dispatch
from provfact.veo import build_ordering, enumerate_mveo

DIGEST = "e86099849cd733295d4bdab4e7fb145a1b9e0f6b1d98ca2cd57aaee122c2aff7"


def _outcome(fn) -> str:
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001
        return f"raised {type(exc).__name__}"


def _dispatch_text(q, W) -> str:
    rep = dispatch(q, W, policy="auto", budget=50_000)
    return "\n".join([
        rep.method, str(rep.length), str(rep.optimal), str(rep.lower_bound),
        rep.factorization.pretty(ascii_only=True),
    ])


def golden_lines():
    for name in FIXTURE_QUERIES:
        q = fixture_query(name)
        two_plan = len(enumerate_mveo(q)) == 2
        for seed in range(10):
            for d, t in ((4, 6), (5, 8)):
                W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
                yield f"{name} seed={seed} d={d} t={t} n={len(W)}"
                yield _outcome(lambda: _dispatch_text(q, W))
                if len(W) < 40:
                    yield _outcome(lambda: export_lp(build_ilp(q, W, reduce=True)))
                if two_plan:
                    yield _outcome(lambda: build_flow_graph(q, W, build_ordering(q)).dot())


def test_golden_digest():
    h = hashlib.sha256()
    for line in golden_lines():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST
