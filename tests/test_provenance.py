"""Databases, witnesses, assembly, equivalence checking, read-once detection."""

import gc
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbs
import oracles
from oracles import detect_p4
from provfact.cq import Query, connected_components, parse_query
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.assembly import (
    ExpansionTooLarge,
    IllegalAssignment,
    TemplateTable,
    UnboundVariable,
    assemble,
    e_and,
    e_or,
    e_var,
    expand,
    Expr,
    verify_equivalence,
)
from provfact.provenance import (
    ArityMismatch,
    Database,
    FormatError,
    Witness,
    WitnessSet,
    compute_witnesses,
    join_order,
    load_database,
    parse_database,
    tuple_id,
)
from provfact import exact
from provfact.exact import solve_exact
from provfact.flow import build_flow_graph, extract_factorization, min_cut
from provfact.ilp import build_ilp
from provfact.special import dispatch, solve_triangle_unary
from provfact.veo import (
    TooManyVariables,
    Veo,
    build_ordering,
    enumerate_mveo,
    enumerate_veos,
)


def test_parse_database(fig2a_db):
    assert set(fig2a_db.relations) == {"R", "S", "T"}
    assert fig2a_db.relations["R"] == (("1",), ("2",), ("3",))
    assert fig2a_db.relations["S"] == (("1", "1"), ("1", "2"), ("2", "3"), ("3", "3"))
    assert fig2a_db.size() == 10


def test_parse_database_merges_repeated_sections(fig2a_s13_db):
    # FIG2A_S13 re-opens [S]; rows merge and deduplicate.
    assert ("1", "3") in fig2a_s13_db.relations["S"]
    assert fig2a_s13_db.size() == 11


def test_parse_database_comments_and_blanks():
    db = parse_database("# header\n\n[R]\n1,2\n# mid\n1,2\n")
    assert db.relations == {"R": (("1", "2"),)}


@pytest.mark.parametrize(
    "text",
    ["1,2\n[R]\n", "[]\n1\n", "[R]\n1,,2\n"],
)
def test_parse_database_errors(text):
    with pytest.raises(FormatError):
        parse_database(text)


def test_text_round_trip(fig2a_db, leakage_db):
    for db in (fig2a_db, leakage_db):
        assert parse_database(db.text()) == db


@pytest.mark.parametrize(
    "rels,named",
    [
        ({"R": [("#1", "2")]}, "'R': row ('#1', '2')"),  # a comment
        ({"R": [("[x]",)]}, "'R': row ('[x]',)"),  # a header
        ({"R": [("[x", "y]")]}, "'R': row ('[x', 'y]')"),
        ({"R": [(" a", "b")]}, "'R': row (' a', 'b')"),  # stripped
        ({"R": [("a,b", "c")]}, "'R': row ('a,b', 'c')"),  # a 3-tuple
        ({"R": [("a\rb",)]}, "'R': row ('a\\rb',)"),  # two lines
        ({"R": [("",)]}, "'R': row ('',)"),
        ({"R": [()]}, "'R': row ()"),  # a blank line
        ({"": [("1",)]}, "name ''"),
        ({"R]": [("1",)]}, "name 'R]'"),
        ({"R ": [("1",)]}, "name 'R '"),
        ({"R\nS": [("1",)]}, "name 'R\\nS'"),
    ],
)
def test_text_rejects_what_would_not_read_back(rels, named):
    with pytest.raises(FormatError, match=re.escape(named)):
        Database.from_dict(rels).text()


_TRICKY = st.text(alphabet="a1#[], \t\n\r\x0b\x1c\x85", max_size=4)


@settings(max_examples=300)
@given(st.dictionaries(_TRICKY, st.lists(st.lists(_TRICKY, max_size=3).map(tuple), max_size=3)))
def test_text_raises_or_round_trips(rels):
    db = Database.from_dict(rels)
    try:
        text = db.text()
    except FormatError:
        return
    assert parse_database(text) == db


def test_load_database_file_and_dir(tmp_path, fig2a_db):
    f = tmp_path / "db.txt"
    f.write_text(dbs.FIG2A)
    assert load_database(f) == fig2a_db
    d = tmp_path / "csvdir"
    d.mkdir()
    (d / "R.csv").write_text("1\n2\n3\n")
    (d / "S.csv").write_text("1,1\n1,2\n2,3\n3,3\n")
    (d / "T.csv").write_text("1\n2\n3\n")
    assert load_database(d) == fig2a_db
    with pytest.raises(FormatError):
        load_database(tmp_path / "missing.txt")
    empty = tmp_path / "emptydir"
    empty.mkdir()
    with pytest.raises(FormatError):
        load_database(empty)


def test_tuple_id():
    assert tuple_id("R", ("1",)) == "r_1"
    assert tuple_id("S", ("1", "1")) == "s_11"
    assert tuple_id("S", ("10", "2")) == "s_10_2"


def test_compute_witnesses_fig2a(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    assert {w.key for w in W.witnesses} == {"x1_y1", "x1_y2", "x2_y3", "x3_y3"}
    w = next(w for w in W.witnesses if w.key == "x1_y2")
    # tuples align with the query's atom order R, S, T
    assert w.tuples == (("R", ("1",)), ("S", ("1", "2")), ("T", ("2",)))
    assert w.values == {"x": "1", "y": "2"}
    assert len(W.distinct_tuples) == 10


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_compute_witnesses_independent_of_atom_order(name):
    """Every atom permutation gives the same sorted witnesses (tuples
    realigned to the permuted atoms), and they are exactly the brute-force
    consistent row choices."""
    q = fixture_query(name)
    db = gen_random(GenSpec(query=q, d=4, tuples=10, seed=3))
    W = compute_witnesses(q, db)
    assert W.witnesses
    assert {w.binding for w in W.witnesses} == oracles.brute_bindings(q, db)
    for perm in itertools.permutations(range(len(q.atoms))):
        qp = Query(q.name, tuple(q.atoms[i] for i in perm))
        Wp = compute_witnesses(qp, db)
        assert [w.binding for w in Wp.witnesses] == [w.binding for w in W.witnesses]
        assert [w.tuples for w in Wp.witnesses] == [
            tuple(w.tuples[i] for i in perm) for w in W.witnesses
        ]


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_witness_views_match_brute_force(name):
    """Every derived view of every witness, in witness order, equals the one
    worked out from the brute-force bindings; equality and hash go by
    binding and tuples only."""
    q = fixture_query(name)
    db = gen_random(GenSpec(query=q, d=4, tuples=10, seed=3))
    W = compute_witnesses(q, db)
    want = []
    for binding in oracles.brute_bindings(q, db):
        vals = dict(binding)
        tuples = tuple((a.relation, tuple(vals[v] for v in a.vars)) for a in q.atoms)
        ids = tuple(tuple_id(rel, row) for rel, row in tuples)
        key = "_".join(var + val for var, val in binding)
        want.append((key, binding, vals, tuples, ids))
    want.sort()
    assert len(W.witnesses) == len(want)
    for w, (key, binding, vals, tuples, ids) in zip(W.witnesses, want):
        assert (w.key, w.binding, w.values, w.tuples) == (key, binding, vals, tuples)
        assert w.tuple_ids == ids
        assert str(w) == " ".join(sorted(ids))
        twin = Witness(binding, tuples)
        assert w == twin and hash(w) == hash(twin) and w.key == twin.key


def _assert_interned(W):
    """Equal tuple keys and equal binding pairs are one object across W."""
    first: dict = {}
    for w in W.witnesses:
        for item in w.tuples + w.binding:
            assert first.setdefault(item, item) is item


def test_witnesses_are_slotted_and_interned():
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=20, seed=1)))
    assert len(W.distinct_tuples) < 3 * len(W.witnesses)  # keys repeat
    w = W.witnesses[0]
    # no stored `key`: it is read off the binding (see the brute-force views)
    assert not hasattr(w, "__dict__") and Witness.__slots__ == ("binding", "tuples")
    _assert_interned(W)


def test_projected_witnesses_are_interned():
    q = parse_query("Q :- R(x), S(y,z)")
    db = gen_random(GenSpec(query=q, d=3, tuples=4, seed=2))
    W = compute_witnesses(q, db)
    for i, (atom, P) in enumerate(zip(q.atoms, W.parts, strict=True), 1):
        sub = Query(f"Q.{i}", (atom,))
        assert P.query == sub
        assert P.witnesses == compute_witnesses(sub, db).witnesses
        assert len(P.witnesses) < len(W)
        _assert_interned(P)


def test_witness_set_memory_per_witness():
    """A 3chain witness set of 6,090 witnesses, as held after the join, takes
    at most 275 B per witness (tracemalloc; about 240 B with slotted
    witnesses, interned keys and no stored `key` string, about 310 B with
    one, about 940 B with per-witness dicts)."""
    q = fixture_query("3chain")
    db = gen_random(GenSpec(query=q, d=30, tuples=200, seed=1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        W = compute_witnesses(q, db)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(W.witnesses) >= 5000
    assert held / len(W.witnesses) <= 275, f"{held / len(W.witnesses):.0f} B/witness"


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_join_order_is_connected(name):
    q = fixture_query(name)
    db = gen_random(GenSpec(query=q, d=5, tuples=12, seed=1))
    for perm in itertools.permutations(q.atoms):
        order = join_order(Query(q.name, perm), db)
        assert sorted(order) == sorted(q.atoms)
        for i in range(1, len(order)):
            assert order[i].varset & set().union(*(a.varset for a in order[:i]))


def test_join_order_tie_breaks():
    # R first (smallest relation, then source position), then the atom that
    # shares x rather than the cross product with T
    q = parse_query("Q :- R(x), T(y), S(x,y)")
    s = [("1", "1"), ("1", "2"), ("2", "1")]
    db = Database.from_dict({"R": [("1",), ("2",)], "T": [("1",), ("2",)], "S": s})
    assert [a.relation for a in join_order(q, db)] == ["R", "S", "T"]
    db2 = Database.from_dict({"R": [("1",), ("2",)], "T": [("1",)], "S": s})
    assert [a.relation for a in join_order(q, db2)] == ["T", "S", "R"]


def test_compute_witnesses_arity_mismatch():
    q = fixture_query("q2star")
    with pytest.raises(ArityMismatch):
        compute_witnesses(q, Database.from_dict({"R": [("1", "2")], "S": [("1", "1")], "T": [("1",)]}))


def test_assemble_matches_oracle_on_fig2a(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    v1, v2 = enumerate_mveo(q)
    # the hand-solved read-once split: x=1 witnesses on the x-rooted plan,
    # y=3 witnesses on the y-rooted plan
    plans = [v1 if w.values["x"] == "1" else v2 for w in W.witnesses]
    expr = assemble(W, plans)
    assert expr.length == 10 == oracles.oracle_length(q, W, dict(zip(W.witnesses, plans)))
    assert expr.length == len(W.distinct_tuples)  # no repeats
    assert verify_equivalence(expr, W)
    assert oracles.count_leaves(expr) == 10


def test_assemble_rejects_partial_assignment(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    v1 = enumerate_mveo(q)[0]
    with pytest.raises(IllegalAssignment):
        assemble(W, [v1] * (len(W) - 1))


def test_assemble_rejects_non_covering_plan(fig2a_db):
    from provfact.veo import veo_node

    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    bad = veo_node(("x",))  # misses y
    with pytest.raises(IllegalAssignment):
        assemble(W, [bad] * len(W))


@given(st.integers(0, 400), st.integers(0, 3))
def test_assemble_length_matches_oracle(seed, variant):
    """Property: assembled length equals the independently counted number of
    distinct instantiated anchors, for arbitrary plan assignments."""
    name, d, t = [("q2star", 5, 7), ("2chain", 5, 8), ("3chain", 4, 7), ("triangle", 4, 8)][variant]
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
    if not (1 <= len(W.witnesses) <= 10):
        return
    plans = enumerate_mveo(q)
    # deterministic but seed-dependent assignment mixing the plans
    chosen = [plans[(i * 7 + seed) % len(plans)] for i in range(len(W))]
    expr = assemble(W, chosen)
    assert expr.length == oracles.oracle_length(q, W, dict(zip(W.witnesses, chosen)))
    # the repeats the CLI reports, length less the distinct tuples, are the
    # leaves past the first of each tuple key
    assert len(set(oracles.leaf_multiset(expr))) == len(W.distinct_tuples)
    assert verify_equivalence(expr, W)
    assert oracles.count_leaves(expr) == expr.length


def test_verify_equivalence_rejects_wrong_expression(fig2a_db, fig2a_s13_db):
    q = fixture_query("q2star")
    W_small = compute_witnesses(q, fig2a_db)
    W_full = compute_witnesses(q, fig2a_s13_db)
    v1 = enumerate_mveo(q)[0]
    expr = assemble(W_small, [v1] * len(W_small))
    assert verify_equivalence(expr, W_small)
    assert not verify_equivalence(expr, W_full)


def test_expansion_cap(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    v1 = enumerate_mveo(q)[0]
    expr = assemble(W, [v1] * len(W))
    with pytest.raises(ExpansionTooLarge):
        verify_equivalence(expr, W, max_terms=1)


def _dnf(terms) -> Expr:
    return e_or([e_and([e_var(key) for key in term]) for term in terms])


def test_verify_equivalence_checks_every_term(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    terms = [w.tuples for w in W.witnesses]
    r1, r2, s11 = ("R", ("1",)), ("R", ("2",)), ("S", ("1", "1"))

    def verified(expr):
        return verify_equivalence(expr, W)

    assert verified(_dnf(terms))
    assert verified(_dnf(reversed(terms)))
    expr = assemble(W, [enumerate_mveo(q)[0]] * len(W))
    assert verified(e_or([expr, expr]))  # repeated terms
    assert not verified(_dnf(terms[1:]))  # a witness term missing
    assert not verified(_dnf(terms + [terms[0] + (r2,)]))  # a strict superset
    assert not verified(_dnf(terms + [(r1, r2, terms[0][2])]))  # two R tuples
    assert not verified(_dnf(terms + [(r1, s11)]))  # no T tuple
    assert not verified(Expr("false"))
    assert verify_equivalence(Expr("false"), WitnessSet(q, ()))


def test_verify_equivalence_rejects_an_over_deep_expression():
    e = e_var(("R", ("1",)))
    for i in range(5_000):  # the first term lies at the bottom
        e = Expr("and" if i % 2 else "or", children=(e, e_var(("S", (str(i),)))))
    with pytest.raises(ExpansionTooLarge, match="too deep"):
        verify_equivalence(e, WitnessSet(fixture_query("q2star"), ()))
    with pytest.raises(ExpansionTooLarge):
        expand(e)


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_expand_matches_reference_on_dispatch_expressions(name):
    """The streamed expansion gives the set-based expansion's term set, and
    verification agrees with comparing it to the witness terms."""
    q = fixture_query(name)
    checked = 0
    for seed in range(10):
        W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=8, seed=seed)))
        try:
            expr = dispatch(q, W, budget=50_000, verify=False).expression
        except AssertionError:
            assert name == "4chain"  # the known cost-model defect
            continue
        reference = oracles.reference_expand(expr)
        assert expand(expr) == reference
        assert verify_equivalence(expr, W)
        assert reference == {frozenset(w.tuples) for w in W.witnesses}
        checked += 1
    assert checked >= 7


def _traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_equivalence_memory():
    """Verification holds neither the expansion nor the witness terms whole:
    on 3chain d=30 t=200 seed 1 (6,090 witnesses) its transient peak stays
    below half the witness set's traced size (about 0.3x; about 1.8x when
    it built both term sets)."""
    q = fixture_query("3chain")
    db = gen_random(GenSpec(query=q, d=30, tuples=200, seed=1))
    W, held = _traced_peak(lambda: compute_witnesses(q, db))
    expr = dispatch(q, W, verify=False).expression
    verified, peak = _traced_peak(lambda: verify_equivalence(expr, W))
    assert verified
    assert peak < held / 2, f"{peak / held:.2f}x the witness set"


def test_assemble_memory_per_witness():
    """The columnar trie: assembling triangle-u d=28 t=900 seed 1 (6,929
    witnesses) peaks at most 560 B per witness, expression and the witness
    set's instance table included (about 500 B with the table, whose rows
    the trie's are; about 420 B with shared leaves and rows and a trie of
    its own; about 640 B with a tree; about 1,030 B with a tuple and a dict
    per trie row).  The witness set is a fresh copy, so that its table is
    built inside the measured call."""
    q = fixture_query("triangle-u")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=28, tuples=900, seed=1)))
    plans = solve_triangle_unary(W).plans
    W = WitnessSet(q, W.witnesses)
    expr, peak = _traced_peak(lambda: assemble(W, plans))
    assert len(W) > 5000 and expr.length > 0
    assert peak / len(W) <= 560, f"{peak / len(W):.0f} B/witness"


def test_detect_p4_goldens(fig2a_db, fig2a_s13_db):
    q = fixture_query("q2star")
    assert detect_p4(compute_witnesses(q, fig2a_db)) is None
    pat = detect_p4(compute_witnesses(q, fig2a_s13_db))
    assert pat is not None
    w1, r, w2, s, w3 = pat
    t1, t2, t3 = (frozenset(w.tuples) for w in (w1, w2, w3))
    assert r in t1 and r in t2
    assert s in t2 and s in t3
    assert s not in t1 and r not in t3


@given(st.integers(0, 120))
def test_detect_p4_matches_brute_force(seed):
    """P4 absence must coincide with a brute-force read-once check."""
    q = fixture_query("q2star")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=7, seed=seed)))
    if not (2 <= len(W.witnesses) <= 8):
        return
    read_once = oracles.brute_read_once(q, W, enumerate_mveo(q))
    assert (detect_p4(W) is None) == read_once


def test_repeats_of_the_exact_optimum(fig2a_db, fig2a_s13_db):
    """The repeats of a proven optimum are its length, and its bound, less
    the distinct tuples."""
    q = fixture_query("q2star")
    empty = Database.from_dict({"R": [], "S": [], "T": []})
    for db, repeats in ((fig2a_db, 0), (fig2a_s13_db, 1), (empty, 0)):  # read-once, one repeat
        W = compute_witnesses(q, db)
        res, distinct = solve_exact(q, W), len(W.distinct_tuples)
        assert res.optimal and res.length - distinct == res.lower_bound - distinct == repeats


def test_a_truncated_search_leaves_the_repeats_open():
    """A read-once instance whose truncated incumbent has two repeats: its
    certified bound leaves zero to two repeats open."""
    q = fixture_query("q2star")
    db = gen_random(GenSpec(query=q, d=4, tuples=6, seed=7))
    W = compute_witnesses(q, db)
    distinct = len(W.distinct_tuples)
    truncated = solve_exact(q, W, budget=1)
    assert not truncated.optimal and truncated.length - distinct == 2
    assert truncated.lower_bound - distinct == 0
    full = solve_exact(q, W)
    assert full.optimal and full.length == full.lower_bound == distinct


# --- the template table --------------------------------------------------

def _random_queries(count, seed=0):
    """`count` seeded random connected self-join-free queries with 2-5
    variables, 2-5 atoms and arity 1-3 (repeats and renamings included)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        atoms = [
            rng.sample(names, rng.randint(1, min(3, len(names))))
            for _ in range(rng.randint(2, 5))
        ]
        q = parse_query("Q :- " + ", ".join(
            f"R{i}({','.join(vs)})" for i, vs in enumerate(atoms)
        ))
        if len(connected_components(q)) > 1:
            continue
        if len(q.variables) >= 2:
            out.append(q)
    return out


@pytest.mark.parametrize(
    "queries",
    [[fixture_query(name)] for name in sorted(FIXTURE_QUERIES)] + [_random_queries(300)],
    ids=sorted(FIXTURE_QUERIES) + ["random-300"],
)
def test_template_weight_is_the_table_prefix_weight(queries):
    """On every root path of every minimal plan, the atoms anchored at the
    path's last node are those whose `oracles.anchor_path` the path is (none
    when it is no table prefix), and `prefix_ids` lists the plan's table
    prefixes in the reference's order."""
    for q in queries:
        table = TemplateTable(q)
        checked = 0
        for v, ids in zip(enumerate_mveo(q), table.prefix_ids, strict=True):
            ref = oracles.reference_table_prefixes(v, q)
            relations = dict(ref)
            for path in sorted(v.root_paths):
                tid = table.path_id(path)
                assert table.paths[tid] == path
                anchored = tuple(q.atoms[i].relation for i in table.atoms[tid])
                assert anchored == relations.get(path, ())
                assert table.weights[tid] == len(anchored)
                checked += 1
            assert [table.paths[t] for t in ids] == [path for path, _ in ref]
        assert checked >= len(table.plans) > 0, q


def test_template_ids_are_first_seen_and_shared_by_plans():
    q = fixture_query("3chain")
    table = TemplateTable(q)
    y = table.child(-1, ("y",))
    assert (y, table.child(y, ("z",))) == (0, 1)
    assert table.path_id((("y",), ("z",))) == 1 and len(table.paths) == 2
    for v in enumerate_veos(q):
        for path in v.root_paths:
            tid = table.path_id(path)
            relations = [q.atoms[i].relation for i in table.atoms[tid]]
            assert relations == sorted(relations)


def test_shared_table_ids_follow_the_plans():
    """The shared table sees the minimal plans' root paths first, plan by
    plan and sorted within a plan, whatever was asked of other tables."""
    q = fixture_query("3chain")  # y <- (x, z <- u), z <- (u, y <- x)
    table = TemplateTable.of(q)
    y = table.child(-1, ("y",))
    assert (y, table.child(y, ("x",)), table.child(y, ("z",))) == (0, 1, 2)
    assert table.path_id((("y",), ("z",), ("u",))) == 3
    assert table.path_id((("z",),)) == 4


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_cached_table_ids_equal_a_fresh_tables(name):
    """The shared table of a query, after paths outside the minimal plans
    were added to it, reads the ids a fresh table gives every minimal-plan
    root path once its plans are read; both hold the minimal plans, their
    prefixes and ordering."""
    q = fixture_query(name)
    cached = TemplateTable.of(q)
    for v in enumerate_veos(q):
        cached.path_id(max(v.root_paths, key=len))
    assert TemplateTable.of(fixture_query(name)) is cached
    fresh = TemplateTable(q)
    assert fresh.plans == cached.plans == enumerate_mveo(q)
    size = len(fresh.paths)
    for v in fresh.plans:
        for path in v.root_paths:
            assert fresh.path_id(path) == cached.path_id(path) < size
    assert len(fresh.paths) == size
    assert fresh.prefix_ids == cached.prefix_ids
    assert fresh.ordering == cached.ordering == build_ordering(q)


def test_a_given_plan_needs_no_plan_enumeration():
    """Assembly and the flow graph take the caller's plans, so they work on
    a query past the enumeration cap, as they did before plans were shared."""
    q = parse_query("Q :- " + ", ".join(f"R{i}(x{i},x{i + 1})" for i in range(8)))
    assert len(q.variables) == 9
    with pytest.raises(TooManyVariables):
        enumerate_mveo(q)
    db = gen_random(GenSpec(query=q, d=2, tuples=4, seed=0))
    W = compute_witnesses(q, db)
    assert W.witnesses
    plan = None
    for i in reversed(range(9)):  # x0 <- x1 <- ... <- x8
        plan = Veo((f"x{i}",), (plan,) if plan else ())
    expr = assemble(W, [plan] * len(W))
    assert verify_equivalence(expr, W)
    g = build_flow_graph(q, W, build_ordering(q, mveo=(plan,)))
    flow_expr, plans = extract_factorization(g, min_cut(g))
    assert set(plans) == {plan}
    assert flow_expr == expr


def test_one_instance_table_per_witness_set():
    """Exact, the ILP, flow and assembly intern into `W.instances`: one
    dense id per ``(template id, binding pairs)``, in first-seen order, over
    the table the witness set took when it was first asked."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=10, seed=1)))
    inst = W.instances
    assert W.instances is inst and inst.table is TemplateTable.of(q) and len(inst) == 0
    _, lists, _ = exact._prepare(W)
    exact_ids = len(inst)
    assert exact_ids > 0
    build_ilp(q, W, reduce=True)
    build_flow_graph(q, W, build_ordering(q))
    assert len(inst) == exact_ids  # table prefixes of the same plans
    solve_exact(q, W)
    assert len(inst) > exact_ids  # the trie's rows of weight 0, such as y
    assert list(inst.values()) == list(range(len(inst)))
    paths = {inst.table.paths[tid] for tid, _ in inst}
    assert (("y",),) in paths and inst.keys == list(inst)
    for w, per_plan in zip(W.witnesses, lists):
        for ids in per_plan:
            for iid in ids:
                tid, pairs = inst.keys[iid]
                names = [v for node in inst.table.paths[tid] for v in node]
                assert pairs == tuple((v, dict(w.binding)[v]) for v in names)
                assert inst.table.weights[tid]
    size = len(inst)
    assert inst.get((0, ())) is None and len(inst) == size  # `get` does not intern
    # `ids` gives one id per witness, in the order given; these instances
    # are all in already, so it interns nothing
    tid = inst.keys[lists[0][0][0]][0]
    column = [per_plan[0][0] for per_plan in lists]
    assert inst.ids(tid, W.witnesses[::-1]) == column[::-1]
    assert len(inst) == size and inst.ids(tid, ()) == []


def test_instance_table_refuses_a_witness_without_a_query_variable():
    """Taking the table raises `UnboundVariable` on a witness without a
    query variable, each time it is asked; nothing is cached then."""
    q = fixture_query("2chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=10, seed=3)))
    w0 = W.witnesses[0]
    bad = WitnessSet(q, (Witness(w0.binding[1:], w0.tuples),) + W.witnesses[1:])
    for _ in range(2):
        with pytest.raises(UnboundVariable, match=w0.binding[0][0]):
            bad.instances
    assert "instances" not in vars(bad)


def test_instance_table_names_a_variable_outside_the_query():
    """A witness that binds a variable the query does not have is refused,
    and the message names that variable."""
    q = fixture_query("2chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=10, seed=3)))
    w0 = W.witnesses[0]
    extra = Witness(w0.binding + (("zz", "1"),), w0.tuples)
    bad = WitnessSet(q, (extra,) + W.witnesses[1:])
    with pytest.raises(UnboundVariable) as info:
        solve_exact(q, bad)
    # the witness key holds "zz1" too; the message must list the variable
    assert "['zz']" in str(info.value)


def test_template_getter_reads_path_pairs(fig2a_db):
    """`Instances.ids` reads a witness's pairs in path order, not name order,
    and interns one instance per distinct ``(y, x)`` binding."""
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    inst = W.instances
    tid = inst.table.path_id((("y",), ("x",)))
    ids = inst.ids(tid, W.witnesses)
    assert len(set(ids)) == len(W)
    for w, iid in zip(W.witnesses, ids):
        assert inst.keys[iid] == (tid, (("y", w.values["y"]), ("x", w.values["x"])))
        assert inst.table.serial(*inst.keys[iid]) == f"y{w.values['y']} <- x{w.values['x']}"


@pytest.mark.parametrize("name", ["2chain", "triangle", "4chain"])
def test_witness_missing_a_variable_is_unbound(name):
    """A hand-made witness without one query variable raises UnboundVariable
    from the exact search, the ILP and the flow graph alike."""
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=10, seed=3)))
    assert len(W) >= 2
    w0 = W.witnesses[0]
    short = Witness(w0.binding[1:], w0.tuples)
    for bad in (
        WitnessSet(q, (short,) + W.witnesses[1:]),
        WitnessSet(q, W.witnesses[1:] + (short,)),
    ):
        with pytest.raises(UnboundVariable, match=w0.binding[0][0]):
            solve_exact(q, bad)
        with pytest.raises(UnboundVariable):
            build_ilp(q, bad)
        with pytest.raises(UnboundVariable):
            build_flow_graph(q, bad, build_ordering(q))
