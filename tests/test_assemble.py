"""Assembly: byte identity with the reference assembler, and memory shape."""

import gc
import random

import pytest

import dbs
import oracles
from provfact.exact import solve_exact
from provfact.flow import ExtractionFailure, build_flow_graph, extract_factorization, min_cut
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.assembly import Expr, IllegalAssignment, TemplateTable, assemble
from provfact.provenance import Witness, WitnessSet, compute_witnesses, parse_database
from provfact.veo import Veo, build_ordering, enumerate_mveo, enumerate_veos


def outcome(fn, W, plans):
    """What an assembler makes of one plan per witness: its expression's
    text, length, leaves counted one by one and distinct leaves, or its
    exception class and message."""
    try:
        e = fn(W, plans)
    except Exception as exc:  # noqa: BLE001
        return type(exc).__name__, str(exc)
    return e.pretty(), e.length, oracles.count_leaves(e), len(set(oracles.leaf_multiset(e)))


def instances(name, seeds=range(8), sizes=((3, 5), (4, 7))):
    q = fixture_query(name)
    for seed in seeds:
        for d, t in sizes:
            yield q, compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))


def assignments(q, W, seed):
    """Random plans per witness (minimal plans, then any legal plan), the
    exact optimum's plans and the flow cut's plans, each in witness order."""
    rng = random.Random(seed)
    for plans in (enumerate_mveo(q), enumerate_veos(q)):
        yield [rng.choice(plans) for _ in W.witnesses]
    if not W.witnesses:
        return
    try:
        yield solve_exact(q, W).plans
    except AssertionError:  # the known 4chain cost-model defect
        pass
    g = build_flow_graph(q, W, build_ordering(q))
    try:
        yield extract_factorization(g, min_cut(g))[1]
    except (ExtractionFailure, AssertionError):  # no cut assignment then
        pass


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_assemble_matches_reference(name):
    checked = 0
    for i, (q, W) in enumerate(instances(name)):
        for asg in assignments(q, W, i):
            want = outcome(oracles.reference_assemble, W, asg)
            assert outcome(assemble, W, asg) == want
            checked += 1
    assert checked >= 24


def test_assemble_matches_reference_on_illegal_assignments():
    q = fixture_query("2chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=10, seed=3)))
    y, x, z = Veo(("y",)), Veo(("x",)), Veo(("z",))
    fork = Veo(("y",), (x, z))  # y <- (x, z)
    chain = Veo(("y",), (Veo(("x",), (z,)),))  # y <- x <- z
    n = len(W)
    cases = [
        [fork] * (n - 1),  # one plan short
        [fork] * (n + 1),  # one plan over
        [Veo(("x",), (y,))] * n,  # misses z
        # y <- x ends where y <- x <- z continues: mixed terminal node
        [(fork, chain)[i % 2] for i in range(n)],
    ]
    seen = set()
    for asg in cases:
        want = outcome(oracles.reference_assemble, W, asg)
        assert outcome(assemble, W, asg) == want
        seen.add(want)
    # witnesses binding only (x, y), or only y: the first unbound variable
    # met in preorder is named
    for keep, plan in ((slice(0, 2), chain), (slice(1, 2), fork)):
        short = WitnessSet(q, tuple(Witness(w.binding[keep], w.tuples) for w in W.witnesses))
        asg = [plan] * len(short)
        want = outcome(oracles.reference_assemble, short, asg)
        assert outcome(assemble, short, asg) == want
        seen.add(want)
    assert all(s[0] == IllegalAssignment.__name__ for s in seen)
    assert {s[1].split()[-1] for s in seen} == {"set", "two_chain", "plans", "z", "x"}


def test_assembly_walks_each_distinct_plan_once(monkeypatch):
    """One `assemble` call asks the template table for each node of each
    distinct plan object once, however many witnesses use the plan; a
    plan list that is not one plan per witness is refused."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=30, tuples=200, seed=1)))
    assert len(W) >= 1000
    W.instances  # the shared table and the witness check, before counting
    v1, v2 = enumerate_mveo(q)
    calls = []
    child = TemplateTable.child
    monkeypatch.setattr(
        TemplateTable, "child", lambda table, *args: calls.append(args) or child(table, *args)
    )

    def size(v):
        return 1 + sum(map(size, v.children))

    for plans, want in (
        ([v1] * len(W), size(v1)),
        ([(v1, v2)[i % 2] for i in range(len(W))], size(v1) + size(v2)),
    ):
        calls.clear()
        assert assemble(W, plans).length > 0
        assert len(calls) == want
    for n in (len(W) - 1, len(W) + 1):
        with pytest.raises(IllegalAssignment) as err:
            assemble(W, [v1] * n)
        assert str(err.value) == "assignment must cover exactly the witness set"


def _occurrences(expr):
    """Every node occurrence of `expr`, walked as a tree."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(e.children)


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_assembled_leaves_are_one_node_per_tuple(name):
    """Every `var` occurrence of one tuple key is one object, and `length`
    still counts the occurrences."""
    for i, (q, W) in enumerate(instances(name, seeds=range(3))):
        for asg in assignments(q, W, i):
            try:
                expr = assemble(W, asg)
            except IllegalAssignment:
                continue
            leaves = [e for e in _occurrences(expr) if e.op == "var"]
            assert len({id(e) for e in leaves}) == len({e.key for e in leaves})
            assert expr.length == len(leaves) == oracles.count_leaves(expr)


def test_branching_rows_are_shared_and_match_the_reference():
    """4chain under random legal plans: a trie row that sits in several
    branch-signature groups is built once and occurs as one object, and the
    expression still matches the reference assembler's.  Where both raise,
    the class and the message match too: when nodes that mix terminal and
    continuing plans nest, both name the innermost."""
    q = fixture_query("4chain")
    plans = enumerate_veos(q)
    shared = built = 0
    for i, (_, W) in enumerate(instances("4chain")):
        rng = random.Random(i)
        for _ in range(3):
            asg = [rng.choice(plans) for _ in W.witnesses]
            got = outcome(assemble, W, asg)
            want = outcome(oracles.reference_assemble, W, asg)
            assert got == want
            if want[0] == IllegalAssignment.__name__:
                continue
            inner = [e for e in _occurrences(assemble(W, asg)) if e.children]
            shared += len(inner) - len({id(e) for e in inner})
            built += 1
    assert built >= 24 and shared > 0


def test_assemble_leaves_no_reference_cycles():
    q = fixture_query("triangle-u")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=8, tuples=40, seed=2)))
    assert len(W) > 20
    asgs = [[v] * len(W) for v in enumerate_mveo(q)]
    asgs.append(solve_exact(q, W).plans)
    gc.collect()
    gc.disable()
    try:
        for asg in asgs:
            expr = assemble(W, asg)
            assert gc.collect() == 0
            assert expr.length > 0
    finally:
        gc.enable()


GOLDENS = [
    ("q2star", dbs.FIG2A, "exact"),
    ("q2star", dbs.FIG2A_S13, "exact"),
    ("3chain", dbs.APPB1, "exact"),
    ("triangle", dbs.LEAKAGE, "exact"),
    ("triangle", dbs.FIG7D, "flow"),
]


@pytest.mark.parametrize("name,db,method", GOLDENS)
def test_expression_counts_match_leaves(name, db, method):
    q = fixture_query(name)
    W = compute_witnesses(q, parse_database(db))
    if method == "exact":
        expr = solve_exact(q, W).expression
    else:
        g = build_flow_graph(q, W, build_ordering(q))
        expr = extract_factorization(g, min_cut(g))[0]
    assert expr.length == oracles.count_leaves(expr)
    # one leaf per distinct tuple key of the witnesses: the repeats that the
    # CLI reports, length less `len(W.distinct_tuples)`, are the other leaves
    assert len(set(oracles.leaf_multiset(expr))) == len(W.distinct_tuples)
    nodes = [expr]
    while nodes:
        e = nodes.pop()
        assert not hasattr(e, "__dict__")
        assert e.length == oracles.count_leaves(e)
        nodes.extend(e.children)


def test_expr_is_slotted_and_length_is_not_compared():
    leaf = Expr("var", key=("R", ("1",)))
    assert not hasattr(leaf, "__dict__") and "length" in Expr.__slots__
    both = Expr("and", children=(leaf, Expr("var", key=("S", ("1", "2")))))
    assert (leaf.length, both.length, Expr("false").length) == (1, 2, 0)
