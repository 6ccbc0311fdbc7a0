"""The max-flow kernel `_mincut.max_flow` against a brute-force minimum cut
and the earlier list-based Dinic, on value and cut."""

import gc
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_min_cut, reference_max_flow
from provfact._mincut import max_flow
from provfact.flow import build_flow_graph
from provfact.gen import GenSpec, fixture_query, gen_random
from provfact.provenance import compute_witnesses
from provfact.veo import build_ordering


@st.composite
def digraphs(draw):
    """Small digraphs with parallel arcs, self-loops, zero capacities, arcs
    into s and out of t, and nodes s cannot reach."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 4)), max_size=16))
    s, t = draw(st.permutations(range(n)))[:2]
    return n, arcs, s, t


@settings(max_examples=300)
@given(graph=digraphs())
def test_max_flow_matches_brute_force_cut(graph):
    n, arcs, s, t = graph
    value, reachable = max_flow(n, arcs, s, t)
    # the reachable set is the smallest source side of a minimum cut
    assert (value, reachable) == brute_min_cut(n, arcs, s, t)


@given(graph=digraphs())
def test_max_flow_with_capacities_past_32_bits(graph):
    """Scaling every capacity by 2**31 scales the cut value and keeps the
    source side; the kernel then keeps 64-bit residuals."""
    n, arcs, s, t = graph
    value, reachable = brute_min_cut(n, arcs, s, t)
    wide = [(u, v, c << 31) for u, v, c in arcs]
    assert max_flow(n, wide, s, t) == (value << 31, reachable)


@pytest.mark.parametrize("name,d,t", [("q2star", 6, 10), ("3chain", 5, 9), ("triangle", 6, 14)])
def test_max_flow_matches_reference_on_seeded_batch(name, d, t):
    q = fixture_query(name)
    ordering = build_ordering(q)
    checked = 0
    for seed in range(40):
        W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
        if not W.witnesses:
            continue
        g = build_flow_graph(q, W, ordering)
        expected = reference_max_flow(g.node_count, list(g.arcs), g.source, g.sink)
        assert max_flow(g.node_count, g.arcs, g.source, g.sink) == expected
        checked += 1
    assert checked >= 20


def test_flow_network_and_kernel_stay_flat():
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=30, tuples=200, seed=1)))
    g = build_flow_graph(q, W, build_ordering(q))
    assert all(isinstance(buf, array) for buf in (g.arcs.tail, g.arcs.head, g.arcs.cap))
    assert all(isinstance(col, array) for col in g.columns)
    arcs = len(g.arcs)
    assert arcs == sum(1 for _ in g.arcs) > 10_000
    gc.collect()
    tracemalloc.start()
    try:
        max_flow(g.node_count, g.arcs, g.source, g.sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the list-based kernel, one list per node and an int per arc end, took
    # about 142 B/arc
    assert peak < 100 * arcs, f"{peak / arcs:.0f} B/arc"
