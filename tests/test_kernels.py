"""Max-flow kernels: every available kernel (the pure one, and the compiled
one when built) against a brute-force minimum cut and the earlier list-based
Dinic, so the kernels also agree with each other on value and cut."""

import gc
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_min_cut, reference_max_flow
from provfact.bench import kernel_compare
from provfact.flow import _load_kernel, build_flow_graph, kernel_name, min_cut
from provfact.gen import GenSpec, fixture_query, gen_random
from provfact.provenance import compute_witnesses
from provfact.veo import build_ordering

HAVE_C = kernel_name("auto") == "c"
KERNELS = ["py", "c"] if HAVE_C else ["py"]


def test_compiled_kernel_present():
    # the build ships the compiled kernel; the pure fallback stays importable
    from provfact import _mincut

    assert callable(_mincut.max_flow)
    if HAVE_C:
        from provfact import _mincut_c  # noqa: F401


@st.composite
def digraphs(draw):
    """Small digraphs with parallel arcs, self-loops, zero capacities, arcs
    into s and out of t, and nodes s cannot reach."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 4)), max_size=16))
    s, t = draw(st.permutations(range(n)))[:2]
    return n, arcs, s, t


@pytest.mark.parametrize("kind", KERNELS)
@settings(max_examples=300)
@given(graph=digraphs())
def test_max_flow_matches_brute_force_cut(kind, graph):
    n, arcs, s, t = graph
    value, reachable = _load_kernel(kind)[0](n, arcs, s, t)
    # the reachable set is the smallest source side of a minimum cut
    assert (value, reachable) == brute_min_cut(n, arcs, s, t)


@pytest.mark.parametrize("kind", KERNELS)
@given(graph=digraphs())
def test_max_flow_with_capacities_past_32_bits(kind, graph):
    """Scaling every capacity by 2**31 scales the cut value and keeps the
    source side; the pure kernel then keeps 64-bit residuals."""
    n, arcs, s, t = graph
    value, reachable = brute_min_cut(n, arcs, s, t)
    wide = [(u, v, c << 31) for u, v, c in arcs]
    assert _load_kernel(kind)[0](n, wide, s, t) == (value << 31, reachable)


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("name,d,t", [("q2star", 6, 10), ("3chain", 5, 9), ("triangle", 6, 14)])
def test_max_flow_matches_reference_on_seeded_batch(kind, name, d, t):
    q = fixture_query(name)
    ordering = build_ordering(q)
    fn = _load_kernel(kind)[0]
    checked = 0
    for seed in range(40):
        W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
        if not W.witnesses:
            continue
        g = build_flow_graph(q, W, ordering)
        expected = reference_max_flow(g.node_count, list(g.arcs), g.source, g.sink)
        assert fn(g.node_count, g.arcs, g.source, g.sink) == expected
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("kind", KERNELS)
def test_flow_network_and_kernel_stay_flat(kind):
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=30, tuples=200, seed=1)))
    g = build_flow_graph(q, W, build_ordering(q))
    assert all(isinstance(buf, array) for buf in (g.arcs.tail, g.arcs.head, g.arcs.cap))
    assert isinstance(g.slots, array)
    arcs = len(g.arcs)
    assert arcs == sum(1 for _ in g.arcs) > 10_000
    fn = _load_kernel(kind)[0]
    gc.collect()
    tracemalloc.start()
    try:
        fn(g.node_count, g.arcs, g.source, g.sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the list-based kernel, one list per node and an int per arc end, took
    # about 142 B/arc
    assert peak < 100 * arcs, f"{peak / arcs:.0f} B/arc"


def test_kernel_compare_rows():
    rows = kernel_compare(sizes=(6, 10), d=6, seed=0, reps=1)
    assert rows
    for row in rows:
        assert set(row) == {"tuples", "witnesses", "kernel", "cut", "ms"}
        assert row["kernel"] in {"py", "c"}
        assert row["cut"] >= 0 and row["ms"] >= 0
    # per size, every kernel reports the same cut value
    by_size = {}
    for row in rows:
        by_size.setdefault(row["tuples"], set()).add(row["cut"])
    assert all(len(cuts) == 1 for cuts in by_size.values())


def test_kernel_compare_checks_the_cut_sets(monkeypatch):
    import provfact.bench as bench

    def other_side(g, kernel="auto"):
        res = min_cut(g, kernel="py")
        if kernel == "c":  # the same value, another source side
            res.reachable = res.reachable[:]
            res.reachable[g.sink] = True
        return res

    monkeypatch.setattr(bench, "kernel_name", lambda kind="auto": "c")
    monkeypatch.setattr(bench, "min_cut", other_side)
    with pytest.raises(AssertionError, match="different node sets"):
        kernel_compare(sizes=(6,), d=6, seed=0, reps=1)
