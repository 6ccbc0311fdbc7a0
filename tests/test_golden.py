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
The outputs must not depend on which calls ran before in the process, since
each query's `TemplateTable` is shared by every call with that query.
"""

import hashlib

import pytest

from provfact.exact import solve_exact
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.flow import build_flow_graph
from provfact.ilp import build_ilp, export_lp
from provfact.assembly import TemplateTable, assemble
from provfact.provenance import WitnessSet, compute_witnesses
from provfact.special import _POLICIES, dispatch
from provfact.veo import build_ordering, enumerate_mveo, enumerate_veos

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
        rep.expression.pretty(ascii_only=True),
    ])


def golden_lines(names=tuple(FIXTURE_QUERIES)):
    for name in names:
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


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_digest():
    assert _digest(golden_lines()) == DIGEST


def test_golden_digest_does_not_depend_on_call_history():
    """Assembling every legal plan of every fixture first, and adding the
    paths outside the minimal plans to the shared tables, does not change
    the outputs; the fixtures then run in reverse order and, taken back in
    fixture order, hash to the same digest."""
    for name in FIXTURE_QUERIES:
        q = fixture_query(name)
        W = compute_witnesses(q, gen_random(GenSpec(query=q, d=2, tuples=4, seed=0)))
        assert W.witnesses, name
        shared = TemplateTable.of(q)
        for v in enumerate_veos(q):
            assemble(W, [v] * len(W))
            for path in v.root_paths:
                shared.path_id(path)
    lines = {name: list(golden_lines([name])) for name in reversed(FIXTURE_QUERIES)}
    assert _digest(line for name in FIXTURE_QUERIES for line in lines[name]) == DIGEST


def _history_outputs(q, W_of):
    """Every output that lists prefix instances, each computed on the
    witness set `W_of()` gives: `dispatch` under every policy, the LP text
    plain and reduced, and the flow network's DOT text."""
    def report(policy):
        rep = dispatch(q, W_of(), policy=policy, budget=20_000)
        return (rep.method, rep.expression.pretty(), rep.length, rep.optimal,
                rep.lower_bound, rep.notes, rep.nodes)

    out = [_outcome(lambda: report(policy)) for policy in _POLICIES]
    out += [_outcome(lambda: export_lp(build_ilp(q, W_of(), reduce=r))) for r in (False, True)]
    out.append(_outcome(lambda: build_flow_graph(q, W_of(), build_ordering(q)).dot()))
    return out


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_outputs_do_not_depend_on_call_history_within_a_witness_set(name):
    """A witness set keeps one instance table for its life, so every layer
    that ran on it before leaves its instances there.  After assembly under
    every legal plan, the flow graph, the exact search and the ILP ran on
    one witness set, each output on it equals the output on a fresh copy."""
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=8, seed=1)))
    assert len(W) > 1
    for v in reversed(enumerate_veos(q)):  # the trie's rows first, in its own order
        _outcome(lambda: assemble(W, [v] * len(W)))
    build_flow_graph(q, W, build_ordering(q))
    _outcome(lambda: solve_exact(q, W, budget=20_000))
    build_ilp(q, W)
    warm = len(W.instances)
    fresh = _history_outputs(q, lambda: WitnessSet(q, W.witnesses))
    assert _history_outputs(q, lambda: W) == fresh
    assert len(W.instances) == warm
