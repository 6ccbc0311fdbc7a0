"""Flow-graph heuristic: graph construction, min cut, extraction."""

import gc
import itertools
import random
import re
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from provfact._mincut import max_flow
from provfact.cq import parse_query
from provfact.exact import solve_exact
from provfact.flow import (
    Arcs,
    ExtractionFailure,
    FlowResult,
    build_flow_graph,
    extract_factorization,
    kernel_name,
    min_cut,
)
import dbs
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.assembly import TemplateTable, verify_equivalence
from provfact.provenance import WitnessSet, compute_witnesses, parse_database
from provfact.veo import Veo, build_ordering, enumerate_mveo


def _flow(q, W, ordering=None, **kw):
    g = build_flow_graph(q, W, ordering or build_ordering(q), **kw)
    res = min_cut(g)
    fact, plans = extract_factorization(g, res)
    return g, res, fact, plans


def test_fig7d_golden(fig7d_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, fig7d_db)
    g, res, fact, plans = _flow(q, W)
    assert res.value == 5
    assert fact.length == 5
    assert verify_equivalence(fact, W)
    assert oracles.leaf_multiset(fact.expression) == (
        ("R", ("0", "0")),
        ("R", ("0", "1")),
        ("S", ("0", "0")),
        ("S", ("1", "0")),
        ("T", ("0", "0")),
    )
    assert len(plans) == len(W) and plans == fact.plans


def test_fig2a_flow_equals_exact(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    _, res, fact, _ = _flow(q, W)
    assert res.value == 10 == fact.length
    assert verify_equivalence(fact, W)


def test_leakage_values_per_permutation(leakage_db):
    """Regression of the leakage behavior: the cut value depends on the plan
    permutation.  The pinned ordering-sensitive values are 10 on four of the
    six permutations (matching the true optimum) and 11 on the two orderings
    that place the branching plan mid-ordering, where the spurious path
    excluding the optimum exists; a uniform value of 11 on all permutations is
    not achievable with this graph construction (see also the acceptance
    battery, criterion 3).  Every extracted factorization must still be valid
    and match its cut."""
    q = fixture_query("triangle")
    W = compute_witnesses(q, leakage_db)
    values = {}
    for perm in itertools.permutations(range(3)):
        ordering = build_ordering(q, mode="flat", perm=list(perm))
        g, res, fact, _ = _flow(q, W, ordering)
        assert verify_equivalence(fact, W)
        assert fact.length == res.value
        values[perm] = res.value
    assert values == {
        (0, 1, 2): 10,
        (0, 2, 1): 11,
        (1, 0, 2): 10,
        (1, 2, 0): 11,
        (2, 0, 1): 10,
        (2, 1, 0): 10,
    }
    exact = solve_exact(q, W)
    assert exact.length == 10
    assert min(values.values()) == exact.length


def test_single_witness_cut_is_atom_count(fig7d_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, fig7d_db)
    single = WitnessSet(q, W.witnesses[:1])
    _, res, fact, _ = _flow(q, single)
    assert res.value == len(q.atoms) == fact.length


@given(st.integers(0, 200), st.integers(0, 1))
def test_flow_equals_exact_on_two_plan_queries(seed, variant):
    """For queries with exactly two minimal plans the cut is provably exact."""
    name, d, t = [("2chain", 6, 10), ("3chain", 4, 8)][variant]
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
    if not (2 <= len(W.witnesses) <= 12):
        return
    _, res, fact, _ = _flow(q, W)
    exact = solve_exact(q, W)
    assert exact.optimal
    assert res.value == exact.length == fact.length
    assert verify_equivalence(fact, W)


@given(st.integers(0, 60))
def test_cut_value_matches_brute_force(seed):
    """The max-flow value equals a subset-enumeration minimum node cut."""
    q = fixture_query("q2star")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=5, seed=seed)))
    if not (1 <= len(W.witnesses) <= 4):
        return
    g = build_flow_graph(q, W, build_ordering(q))
    if len(g.cap_arc) > 14:
        return
    assert min_cut(g).value == oracles.brute_min_node_cut(g)


def test_brute_force_cut_on_goldens(fig7d_db, appb1_db):
    for name, db in (("triangle", fig7d_db), ("3chain", appb1_db)):
        q = fixture_query(name)
        W = compute_witnesses(q, db)
        g = build_flow_graph(q, W, build_ordering(q))
        assert min_cut(g).value == oracles.brute_min_node_cut(g)


@pytest.mark.parametrize("mode", ["nested-rp", "flat"])
@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_cut_value_matches_brute_force_on_every_fixture(name, mode):
    """The contracted network keeps the minimum node cut of every fixture.

    Each fixture runs over its full ordering and over the ordering of every
    pair of its plans (as the two-chain-we remainder does); one 4chain
    witness over all five plans already needs 23 cap nodes, beyond the
    brute-force oracle, so 4chain is checked over plan pairs only."""
    q = fixture_query(name)
    plans = enumerate_mveo(q)
    orderings = [build_ordering(q, mode=mode)] + [
        build_ordering(q, mode=mode, mveo=pair)
        for pair in itertools.combinations(plans, 2)
        if len(plans) > 2
    ]
    checked = [0] * len(orderings)
    for seed in range(20):
        W = compute_witnesses(q, gen_random(GenSpec(query=q, d=3, tuples=4, seed=seed)))
        if not W.witnesses:
            continue
        for i, ordering in enumerate(orderings):
            g = build_flow_graph(q, W, ordering)
            if len(g.cap_arc) > 14:
                continue
            assert min_cut(g).value == oracles.brute_min_node_cut(g)
            checked[i] += 1
    assert sum(checked) >= 5
    assert checked[0] >= 1 or name == "4chain"


def test_strict_rp_rejects_non_rp_ordering():
    """The library takes an ordering without running prefixes: it builds,
    cuts, extracts and verifies.  Refusing one is the CLI's `--strict-rp`
    (`test_cli`)."""
    q = fixture_query("2chain-we")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=10, seed=5)))
    assert len(W.witnesses) >= 2
    bad = build_ordering(q, mode="flat", perm=[0, 1, 3, 2, 4])
    assert bad.rp is False
    g = build_flow_graph(q, W, bad)
    res = min_cut(g)
    fact, _ = extract_factorization(g, res)
    assert verify_equivalence(fact, W)


def test_flow_result_invariants(fig7d_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, fig7d_db)
    g = build_flow_graph(q, W, build_ordering(q))
    res = min_cut(g)
    tail, head, cap = g.arcs.tail, g.arcs.head, g.arcs.cap
    # the mask is the cut by cap-node index, one entry per cap node
    assert isinstance(res.cut_mask, bytearray) and len(res.cut_mask) == len(g.cap_arc)
    cut = [i for c, i in enumerate(g.cap_arc) if res.cut_mask[c]]
    assert sum(cap[i] for i in cut) == res.value
    # the kernel's reachable set is indexed by node id over the residual graph
    value, reachable = max_flow(g.node_count, g.arcs, g.source, g.sink)
    assert value == res.value and reachable[g.source] and not reachable[g.sink]
    # a cap node is cut exactly when its arc's tail is reachable and its head is not
    for c, i in enumerate(g.cap_arc):
        assert res.cut_mask[c] == (reachable[tail[i]] and not reachable[head[i]])
    # each cap node is one finite arc; leaf nodes come first, then instances
    assert list(g.cap_arc) == sorted(set(g.cap_arc))
    assert all(cap[i] < g.inf for i in g.cap_arc)
    nq = len(g.cap_arc) - len(g.p_instance)
    assert nq == len(W) * len(g.skeleton.leaves)
    assert all(g.payer[iid] == nq + k for k, iid in enumerate(g.p_instance))


def test_flow_graph_memory_per_witness():
    """Cap nodes live in typed arrays addressed by index: the network of
    3chain d=30 t=200 seed 1 (6,090 witnesses) retains at most 400 B per
    witness (tracemalloc; about 290 B, and about 850 B when the cap nodes
    were a dict keyed by label tuples)."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=30, tuples=200, seed=1)))
    ordering = build_ordering(q)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_flow_graph(q, W, ordering)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    bufs = (g.cap_arc, g.p_instance, g.payer, *g.columns)
    assert all(isinstance(buf, array) for buf in bufs)
    assert len(W) > 5000
    assert held / len(W) <= 400, f"{held / len(W):.0f} B/witness"


def test_capacities_are_32_bit():
    """Every capacity is an instance weight or `inf`, far below 2**31, so the
    capacity column is ``array("i")``; a larger capacity raises."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=20, seed=1)))
    g = build_flow_graph(q, W, build_ordering(q))
    assert g.arcs.cap.typecode == "i" and max(g.arcs.cap) == g.inf
    arcs = Arcs()
    arcs.extend([0], [1], [2**31 - 1])
    with pytest.raises(OverflowError):
        arcs.extend([0], [1], [2**31])


def test_kernel_name():
    assert kernel_name("auto") == "py"


def test_dot_output(fig7d_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, fig7d_db)
    g = build_flow_graph(q, W, build_ordering(q))
    dot = g.dot()
    assert dot.startswith("digraph")
    assert "->" in dot


def test_dot_names_source_sink_and_every_cap_node(leakage_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, leakage_db)
    g = build_flow_graph(q, W, build_ordering(q))
    dot = g.dot()
    assert '[label="S"]' in dot and '[label="T"]' in dot
    assert dot.count(" [label=") == g.node_count + len(g.arcs)
    texts = {g.cap_text(c) for c in range(len(g.cap_arc))}
    assert {"q0.0", "q3.2", "p[x0z0]", "p[x2y1]"} <= texts
    for text in texts:
        assert f'[label="{text}"]' in dot or f'[label="{text}.out"]' in dot


def test_dot_keeps_its_names_when_the_shared_table_is_dropped():
    """A graph names its instance nodes from its witness set's instance
    table, which holds its own template table: dropping the shared tables
    between build and `dot()` changes nothing, even past the enumeration
    cap, where the paths exist only in the dropped table (this raised
    `IndexError` when `dot()` looked the query's table up again)."""
    q = parse_query("Q :- " + ", ".join(f"R{i}(x{i},x{i + 1})" for i in range(8)))
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=2, tuples=4, seed=0)))
    plan = None
    for i in reversed(range(9)):  # x0 <- x1 <- ... <- x8
        plan = Veo((f"x{i}",), (plan,) if plan else ())
    g = build_flow_graph(q, W, build_ordering(q, mveo=(plan,)))
    before = g.dot()
    assert "p[x0" in before
    TemplateTable.of.__func__.cache_clear()
    assert g.dot() == before
    assert TemplateTable.of(q) is not W.instances.table


def test_dot_labels_are_quoted_strings():
    """Constants holding a quote and a backslash, each shared by two
    witnesses, stay inside their labels' quotes, escaped."""
    q = fixture_query("q2star")
    db = parse_database('[R]\na"1\nb\\2\n[S]\na"1,1\na"1,2\nb\\2,1\nb\\2,2\n[T]\n1\n2\n')
    W = compute_witnesses(q, db)
    g = build_flow_graph(q, W, build_ordering(q))
    quoted = r'"((?:[^"\\]|\\.)*)"'
    node_line = re.compile(rf"  n\d+ \[label={quoted}\];")
    arc_line = re.compile(rf"  n\d+ -> n\d+ \[label={quoted}\]( \[style=dashed\])?;")
    names = []
    for line in g.dot().splitlines()[2:-1]:
        m = node_line.fullmatch(line) or arc_line.fullmatch(line)
        assert m, line
        names.append(re.sub(r"\\(.)", r"\1", m.group(1)))
    texts = {g.cap_text(c) for c in range(len(g.cap_arc))}
    assert {'p[xa"1]', "p[xb\\2]"} <= texts
    assert all(t in names or f"{t}.out" in names for t in texts)


def _has_parallel(alts) -> bool:
    return any(alt.par or _has_parallel(alt.seq) for alt in alts)


def _plan_orderings(q):
    """The nested-rp and flat orderings of q and, past two plans, of each plan pair."""
    plans = enumerate_mveo(q)
    out = [build_ordering(q), build_ordering(q, mode="flat")]
    if len(plans) > 2:
        for pair in itertools.combinations(plans, 2):
            out += [build_ordering(q, mveo=pair), build_ordering(q, mode="flat", mveo=pair)]
    return out


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_flow_tail_matches_the_reference(name):
    """Leaf sites come from the template table, and each witness gets the
    first plan of `ordering.veos` whose needs hold.  Both agree with the
    per-atom derivation and the recursive selector of `oracles`.

    The cases cover every fixture, under the real cut and random masks; the
    masks reach the parallel choices of 4chain that real cuts may not.  The
    cut value is lifted, so a mask's longer extraction is read, not rejected."""
    q = fixture_query(name)
    rng = random.Random(name)
    for ordering in _plan_orderings(q):
        sites, leaves, connectors, alts = oracles.reference_flow_skeleton(q, ordering)
        index = {id(v): i for i, v in enumerate(ordering.veos)}
        chosen = set()
        for seed, (d, t) in itertools.product(range(8), ((3, 5), (4, 8))):
            W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
            if not W.witnesses:
                continue
            g = build_flow_graph(q, W, ordering)
            sk = g.skeleton
            assert (sk.sites, sk.leaves, sk.connectors) == (sites, leaves, connectors)
            res = min_cut(g)
            masks = [res.cut_mask] + [
                bytearray(rng.random() < p for _ in res.cut_mask) for p in (0.6, 0.8, 0.9)
            ]
            for mask in masks:
                expected = oracles.reference_select(g, mask, alts)
                trial = FlowResult(sys.maxsize, mask)
                if isinstance(expected, str):
                    with pytest.raises(ExtractionFailure) as err:
                        extract_factorization(g, trial)
                    assert str(err.value) == expected
                    continue
                _, plans = extract_factorization(g, trial)
                assert list(plans) == expected
                # every witness holds one of the ordering's own plan objects
                chosen.update(index[id(v)] for v in plans)
        if _has_parallel(ordering.alts):
            assert chosen == set(range(len(ordering.veos)))
