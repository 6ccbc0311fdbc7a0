"""Query classification, closed-form specials, and the dispatch front door."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dbs
import oracles
from provfact import assembly, exact, provenance, special, veo
from provfact.cq import Atom, DisconnectedQueryError, Query, connected_components, parse_query
from provfact.exact import fact_decision, solve_exact
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.ilp import EmptyWitnessSet, build_ilp
from provfact.assembly import verify_equivalence
from provfact.provenance import WitnessSet, compute_witnesses, parse_database
from provfact.special import (
    _POLICIES,
    ShapeMismatch,
    _min_cover,
    classify,
    dispatch,
    solve_q2star,
    solve_triangle_unary,
    solve_two_chain_we,
)
from provfact.veo import build_ordering

CLASSIFY_GOLDENS = {
    "q2star": ({"two-mveo", "linear", "q2star"}, 2),
    "2chain": ({"linear", "two-mveo"}, 2),
    "2chain-we": ({"two-chain-we", "linear"}, 5),
    "3chain": ({"linear", "two-mveo"}, 2),
    "4chain": ({"linear"}, 5),
    "q3star": ({"triad"}, 6),
    "triangle": ({"triad"}, 3),
    "triangle-u": ({"triangle-unary", "linear"}, 3),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDENS))
def test_classify_fixtures(name):
    tags, k = CLASSIFY_GOLDENS[name]
    cls = classify(fixture_query(name))
    assert cls.tags == frozenset(tags)
    assert cls.k == k


def test_classify_hierarchical_and_disconnected():
    cls = classify(parse_query("Q :- R(x), S(x,y)"))
    assert cls.tags == frozenset({"linear", "hierarchical"})
    assert cls.k == 1
    cls2 = classify(parse_query("Q :- R(x), S(y)"))
    assert "disconnected" in cls2.tags


@pytest.mark.parametrize("text", [
    "classify_split :- R(x), S(y)",
    "classify_split :- R(x,y), S(y,z), T(z,x), A(u), B(u,v), C(v,w)",
])
def test_classify_lists_no_plans_of_a_disconnected_query(monkeypatch, text):
    """`dispatch` solves each part with its own plans, so `classify` lists
    none of the whole query's: no plan count and no `two-mveo` tag."""
    def refuse(q):
        raise AssertionError(f"listed the plans of {q}")

    monkeypatch.setattr(assembly, "enumerate_mveo", refuse)
    monkeypatch.setattr(veo, "enumerate_mveo", refuse)
    cls = classify(parse_query(text))
    assert "disconnected" in cls.tags and "two-mveo" not in cls.tags
    assert cls.k is None


SHAPES = {
    "q2star": "Q :- A(x), B(x,y), C(y)",
    "triangle-unary": "Q :- U(x), R(x,y), S(y,z), T(z,x)",
    "two-chain-we": "Q :- A(x), R(x,y), S(y,z), B(z)",
}


def test_classify_tags_a_shape_exactly_on_its_isomorphic_queries():
    """Every query over {x, y, z} with 3 or 4 atoms of arity 1 or 2, each
    atom order included (relations named A, B, C, D by position)."""
    shapes = {tag: parse_query(text) for tag, text in SHAPES.items()}
    atoms = [(v,) for v in "xyz"] + list(itertools.permutations("xyz", 2))
    matched = dict.fromkeys(shapes, 0)
    for m in (3, 4):
        for combo in itertools.product(atoms, repeat=m):
            q = Query("Q", tuple(Atom("ABCD"[i], vs) for i, vs in enumerate(combo)))
            tags = classify(q).tags
            for tag, shape in shapes.items():
                assert (tag in tags) == oracles.isomorphic(q, shape), (tag, str(q))
                matched[tag] += tag in tags
    # variable roles x atom argument orders x atom orders
    assert matched == {"q2star": 6 * 6, "triangle-unary": 3 * 8 * 24, "two-chain-we": 3 * 4 * 24}


# (fixture, tag, d, tuples, seed): each instance has witnesses of both
# kinds its closed form tells apart (conflicted or not, branching or not)
RENAMED_SHAPES = [
    ("q2star", "q2star", 4, 8, 1),
    ("triangle-u", "triangle-unary", 3, 6, 1),
    ("2chain-we", "two-chain-we", 3, 5, 1),
]
RENAMED_DIGEST = "14ea7e9a43bbefb9785621b8ee92529d3f2915d82668844f61231253ebb4823b"


def test_shape_roles_are_fixed_under_every_atom_order_and_renaming():
    """Each shape's instance under every atom order x permutation of its
    relation names (36 + 576 + 576 queries): `classify` tags the shape,
    `dispatch` routes to it, and the method, length and expression text of
    all 1,188 runs hash to a pinned digest, so a changed role tie-break
    shows."""
    digest = hashlib.sha256()
    runs = 0
    for name, tag, d, t, seed in RENAMED_SHAPES:
        q = fixture_query(name)
        db = gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed))
        rels = [a.relation for a in q.atoms]
        for order in itertools.permutations(q.atoms):
            for names in itertools.permutations(rels):
                rename = dict(zip(rels, names))
                renamed = Query(q.name, tuple(Atom(rename[a.relation], a.vars) for a in order))
                assert tag in classify(renamed), str(renamed)
                W = compute_witnesses(
                    renamed, provenance.Database({rename[r]: rows for r, rows in db.relations.items()})
                )
                rep = dispatch(renamed, W)
                assert rep.method == tag and rep.optimal and rep.verified
                text = rep.factorization.pretty(ascii_only=True)
                digest.update(f"{renamed}|{rep.method}|{rep.length}|{text}\n".encode())
                runs += 1
    assert runs == 36 + 576 + 576
    assert digest.hexdigest() == RENAMED_DIGEST


@pytest.mark.parametrize("text", [
    "Q :- A(x), B(x,y), C(x)",  # two unary atoms on one variable
    "Q :- A(x), R(x,y), S(y,z), B(x)",
    "Q :- A(x), B(x,y), C(y), D(y)",  # an extra atom
    "Q :- A(x), R(x,y), S(y,z), B(z), C(x,z)",
    "Q :- U(x), R(x,y), S(y,z), T(z,x), V(y)",
    "Q :- A(x), R(x,y), S(y,x), B(y)",  # two atoms with one variable set
    "Q :- U(x), R(x,y), S(x,z), T(z,x)",
    "Q :- A(x), B(x,y), C(x,y)",
])
def test_near_misses_of_the_shapes_are_not_tagged(text):
    """Queries one step off a shape get no shape tag, and each closed form
    refuses them before it reads a witness."""
    q = parse_query(text)
    assert not classify(q).tags & set(SHAPES)
    for solve in (solve_q2star, solve_triangle_unary, solve_two_chain_we):
        with pytest.raises(ShapeMismatch):
            solve(WitnessSet(q))


@pytest.mark.parametrize(
    "renamed, canonical, method",
    [
        # each canonical query swaps two variables of the renamed one
        ("Q :- A(x), B(x,z), C(y,z), D(y)", "Q :- A(x), B(x,y), C(z,y), D(z)", "two-chain-we"),
        ("Q :- A(y), B(x,y), C(z,y), D(x,z)", "Q :- A(x), B(y,x), C(z,x), D(y,z)", "triangle-unary"),
    ],
    ids=["two-chain-we", "triangle-unary"],
)
def test_renamed_shapes_route_to_their_closed_forms(renamed, canonical, method):
    renamed, canonical = parse_query(renamed), parse_query(canonical)
    db = gen_random(GenSpec(query=renamed, d=8, tuples=30, seed=1))
    rep = dispatch(renamed, compute_witnesses(renamed, db), policy="auto")
    assert (rep.method, rep.optimal) == (method, True)
    assert rep.length == dispatch(canonical, compute_witnesses(canonical, db)).length


@pytest.mark.parametrize(
    "name, solver, method",
    [
        ("q2star", "solve_q2star", "q2star"),
        ("triangle-u", "solve_triangle_unary", "triangle-unary"),
        ("2chain-we", "solve_two_chain_we", "two-chain-we"),
    ],
)
def test_dispatch_calls_each_solver_through_its_module_name(monkeypatch, name, solver, method):
    """A wrapper set on `special.<solver>` sees `dispatch`'s call, as the
    benchmark's per-layer tracer needs."""
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=12, seed=1)))
    real, calls = getattr(special, solver), []
    monkeypatch.setattr(special, solver, lambda W: calls.append(W) or real(W))
    assert dispatch(q, W).method == method
    assert calls == [W]


def test_solve_q2star_golden(fig2a_db, fig2a_s13_db):
    q = fixture_query("q2star")
    for db, want in ((fig2a_db, 10), (fig2a_s13_db, 12)):
        W = compute_witnesses(q, db)
        fact = solve_q2star(W)
        assert fact.length == want
        assert verify_equivalence(fact, W)
        assert len(fact.plans) == len(W)


def test_specials_reject_wrong_shape(fig2a_db, fig7d_db):
    W_star = compute_witnesses(fixture_query("q2star"), fig2a_db)
    W_tri = compute_witnesses(fixture_query("triangle"), fig7d_db)
    with pytest.raises(ShapeMismatch):
        solve_q2star(W_tri)
    with pytest.raises(ShapeMismatch):
        solve_triangle_unary(W_star)
    with pytest.raises(ShapeMismatch):
        solve_two_chain_we(W_star)


@given(st.integers(0, 200))
def test_solve_q2star_matches_exact(seed):
    q = fixture_query("q2star")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=10, seed=seed)))
    if not (2 <= len(W.witnesses) <= 12):
        return
    fact = solve_q2star(W)
    assert fact.length == solve_exact(q, W).length
    assert verify_equivalence(fact, W)


@given(st.integers(0, 200))
def test_solve_triangle_unary_matches_exact(seed):
    q = fixture_query("triangle-u")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=10, seed=seed)))
    if not (2 <= len(W.witnesses) <= 10):
        return
    fact = solve_triangle_unary(W)
    assert fact.length == solve_exact(q, W).length
    assert verify_equivalence(fact, W)


@given(st.integers(0, 300))
def test_solve_two_chain_we_matches_exact(seed):
    q = fixture_query("2chain-we")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=10, seed=seed)))
    if not (2 <= len(W.witnesses) <= 10):
        return
    fact = solve_two_chain_we(W)
    assert fact.length == solve_exact(q, W).length
    assert verify_equivalence(fact, W)


# (fixture, d, tuples, seed, method, shortest formula length, distinct
# tuples): each repeats a tuple, but the read-once ones at the end
FORMULA_ORACLE = [
    ("q2star", 2, 3, 1, "q2star", 8, 7),
    ("q2star", 3, 3, 5, "q2star", 8, 7),
    ("triangle-u", 3, 4, 28, "triangle-unary", 9, 8),
    ("2chain-we", 2, 3, 5, "two-chain-we", 9, 8),
    ("2chain-we", 3, 4, 19, "two-chain-we", 9, 8),
    ("3chain", 2, 3, 2, "flow", 9, 8),
    ("3chain", 2, 3, 4, "flow", 8, 7),
    ("q2star", 2, 2, 7, "q2star", 5, 5),
    ("2chain-we", 2, 2, 0, "two-chain-we", 6, 6),
    ("3chain", 2, 3, 0, "flow", 6, 6),
]


@pytest.mark.parametrize("name, d, t, seed, method, length, distinct", FORMULA_ORACLE)
def test_closed_forms_and_exact_reach_the_shortest_formula(name, d, t, seed, method, length, distinct):
    """The shortest formula, found with no plan model
    (`oracles.min_formula_length`), is what `dispatch` (a closed form, or
    flow on the two-plan 3chain) and `solve_exact` reach."""
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
    assert (oracles.min_formula_length(W), len(W.distinct_tuples)) == (length, distinct)
    rep = dispatch(q, W)
    assert (rep.method, rep.length, rep.optimal) == (method, length, True)
    assert solve_exact(q, W).length == length


# --- bipartite vertex covers and deep instances ---------------------------


def _assert_canonical_min_cover(edges):
    """`_min_cover` covers every edge, has the brute-force minimum size, and
    is the canonical cover the textbook Kőnig construction gives."""
    cover_l, cover_r = _min_cover(edges)
    assert all(l in cover_l or r in cover_r for l, r in edges)
    vertices = sorted({v for e in edges for v in e})
    brute = next(
        k
        for k in range(len(vertices) + 1)
        for c in itertools.combinations(vertices, k)
        if all(l in c or r in c for l, r in edges)
    )
    assert len(cover_l) + len(cover_r) == brute
    assert (cover_l, cover_r) == oracles.koenig_cover(edges)


@given(st.integers(0, 10_000))
def test_min_cover_is_the_canonical_minimum_cover(seed):
    """A random bipartite graph's cover from the max-flow kernel against a
    brute-force minimum size and the alternating-path construction."""
    rng = random.Random(seed)
    nl, nr = rng.randint(1, 6), rng.randint(1, 6)
    edges = [
        (("L", i), ("R", j)) for i in range(nl) for j in range(nr) if rng.random() < 0.4
    ] or [(("L", 0), ("R", 0))]
    _assert_canonical_min_cover(edges)


@pytest.mark.parametrize(
    "edges, cover",
    [
        # one edge: either endpoint is a minimum cover; the canonical one is
        # the left endpoint
        ([("a", "r1")], ({"a"}, set())),
        # a 4-cycle: either side is a minimum cover; the canonical one is the
        # left side
        ([("a", "r1"), ("a", "r2"), ("b", "r1"), ("b", "r2")], ({"a", "b"}, set())),
        # a path a-r1-b-r2: {a, b}, {b, r1} and {r1, r2} are all minimum
        ([("a", "r1"), ("b", "r1"), ("b", "r2")], ({"a", "b"}, set())),
        # a right star: only its centre, reached from an unmatched left leaf
        ([("a", "r1"), ("b", "r1"), ("c", "r1")], (set(), {"r1"})),
        # a right star beside one edge: the star's centre, and the edge's
        # left end (its right end would do as well)
        ([("a", "r1"), ("b", "r1"), ("c", "r2")], ({"c"}, {"r1"})),
    ],
)
def test_min_cover_picks_the_canonical_one_of_several_minimum_covers(edges, cover):
    assert _min_cover(edges) == cover
    _assert_canonical_min_cover(edges)


PATH_SHAPES = {
    # fixture, database builder, method, optimal length for n
    "q2star": (dbs.path_q2star, "q2star", lambda n: 5 * n - 2),
    "triangle-u": (dbs.path_triangle_unary, "triangle-unary", lambda n: 7 * n - 3),
}


@pytest.mark.parametrize("name", sorted(PATH_SHAPES))
def test_path_instances_small_match_exact(name):
    build, _, length = PATH_SHAPES[name]
    q = fixture_query(name)
    for n in (2, 3, 4):
        W = compute_witnesses(q, build(n))
        assert len(W) == 2 * n - 1
        assert solve_exact(q, W).length == length(n)


@pytest.mark.parametrize("name", sorted(PATH_SHAPES))
def test_path_instances_deep_no_recursion(name):
    """Augmenting paths of length 1500 exceed Python's default recursion
    limit; the iterative matching must not care."""
    build, method, length = PATH_SHAPES[name]
    q = fixture_query(name)
    W = compute_witnesses(q, build(1500))
    assert len(W) == 2999
    rep = dispatch(q, W)
    assert rep.method == method
    assert rep.length == length(1500)
    assert rep.optimal and rep.verified


# --- dispatch routing ---------------------------------------------------


def test_dispatch_routes_q2star(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    rep = dispatch(q, W)
    assert rep.method == "q2star"
    assert rep.length == 10 and rep.optimal and rep.verified
    assert rep.repeats == 0


def test_dispatch_routes_two_mveo_to_flow(appb1_db):
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    rep = dispatch(q, W)
    assert rep.method == "flow"
    assert rep.length == 4 and rep.optimal and rep.verified


def test_dispatch_routes_triad_to_exact(leakage_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, leakage_db)
    rep = dispatch(q, W)
    assert rep.method == "exact"
    assert rep.length == 10 and rep.optimal and rep.verified


def test_dispatch_hierarchical_single_plan():
    q = parse_query("Q :- R(x), S(x,y)")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=6, seed=1)))
    assert W.witnesses
    rep = dispatch(q, W)
    assert rep.method == "single-plan"
    assert rep.optimal and rep.verified
    assert rep.repeats == 0  # hierarchical provenance is read-once


def test_dispatch_specials():
    qtu = fixture_query("triangle-u")
    W = compute_witnesses(qtu, gen_random(GenSpec(query=qtu, d=5, tuples=10, seed=3)))
    rep = dispatch(qtu, W)
    assert rep.method == "triangle-unary" and rep.optimal and rep.verified
    qwe = fixture_query("2chain-we")
    W2 = compute_witnesses(qwe, gen_random(GenSpec(query=qwe, d=6, tuples=10, seed=5)))
    rep2 = dispatch(qwe, W2)
    assert rep2.method == "two-chain-we" and rep2.optimal and rep2.verified


def test_dispatch_general_linear_uses_exact():
    q = fixture_query("4chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=8, seed=7)))
    rep = dispatch(q, W)
    assert rep.method == "exact" and rep.optimal and rep.verified


def test_dispatch_disconnected_components():
    q = parse_query("Q :- R(x), S(y)")
    db = gen_random(GenSpec(query=q, d=3, tuples=3, seed=2))
    W = compute_witnesses(q, db)
    assert W.witnesses
    rep = dispatch(q, W)
    assert rep.method == "components"
    assert rep.optimal
    assert len(rep.notes) == 2
    # the witnesses are the full cross product, so the optimal factorization
    # is (r ∨ …)(s ∨ …): one literal per participating tuple
    assert rep.length == len(db.relations["R"]) + len(db.relations["S"])
    assert verify_equivalence(rep.factorization, W)


# Disconnected queries on which the plan model, run on the whole query,
# writes one component once per value of the other: (query, d, tuples,
# seed, optimum).  Run whole, exact, flow and single-plan gave 23 with
# `optimal` on the first, and exact gave 118 with a lower bound of 42 on
# the second.
DISCONNECTED = [
    ("Q :- A(x), B(x,y), C(u), D(u,v)", 4, 6, 2, 15),
    ("Q :- R(x,y), S(y,z), T(z,x), A(u), B(u,v)", 6, 14, 3, 37),
]


def _disconnected(i):
    text, d, t, seed, best = DISCONNECTED[i]
    q = parse_query(text)
    db = gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed))
    return q, db, compute_witnesses(q, db), best


@pytest.mark.parametrize("i", range(len(DISCONNECTED)))
@pytest.mark.parametrize("policy", ["auto", "exact", "flow", "single-plan"])
def test_disconnected_queries_split_under_every_policy(i, policy):
    """Every policy solves each connected component alone and ANDs the
    parts; the report is verified part by part, and its bound is the sum of
    the parts' bounds."""
    q, _, W, best = _disconnected(i)
    rep = dispatch(q, W, policy=policy)
    assert rep.method == "components"
    assert rep.length == rep.factorization.length == best
    assert rep.verified and verify_equivalence(rep.factorization, W)
    assert rep.lower_bound is None or rep.lower_bound <= best
    if rep.optimal:
        assert rep.lower_bound == best
    # Q.1 is A(u), B(u,v) or A(x), B(x,y): hierarchical, so auto's pick
    assert rep.notes[0] == "Q.1: " + ("single-plan" if policy == "auto" else policy)


def test_disconnected_report_carries_the_parts_bounds_and_notes():
    q, _, W, best = _disconnected(1)
    rep = dispatch(q, W, budget=5)
    # Q.1 is A, B (single-plan, 16); Q.2 the triangle, whose search stops
    # after 5 nodes with a lower bound of 20
    assert not rep.optimal and rep.verified and rep.length == best
    assert rep.lower_bound == 16 + 20
    assert any(note.startswith("Q.2: exact budget exhausted") for note in rep.notes)
    assert dispatch(q, W, budget=5, verify=False).verified is None


def test_disconnected_queries_are_not_solved_whole():
    q, db, W, _ = _disconnected(0)
    with pytest.raises(ValueError, match="ordering"):
        dispatch(q, W, policy="flow", ordering=build_ordering(q))
    with pytest.raises(ValueError, match="product"):
        dispatch(q, WitnessSet(q, W.witnesses[1:]))
    with pytest.raises(DisconnectedQueryError):
        solve_exact(q, W)
    with pytest.raises(DisconnectedQueryError):
        build_ilp(q, W)
    with pytest.raises(DisconnectedQueryError):
        fact_decision(q, db, 0)


@pytest.mark.parametrize("text, d, t, seed", [
    *((text, d, t, seed) for text, d, t, seed, _ in DISCONNECTED),
    *(("Q :- R(b,z), S(a), T(y,c)", 3, 4, seed) for seed in range(4)),
    *(("Q :- A(x), B(x,y), C(u), D(w,z), E(z)", 3, 4, seed) for seed in range(4)),
])
def test_the_product_of_the_parts_is_the_joined_witness_set(text, d, t, seed):
    """A disconnected query's witnesses, read off its parts, are every
    consistent binding (the brute-force reference) in `Witness.key` order,
    with the query's atom order and sorted variables, and share the parts'
    binding pairs and tuple keys."""
    q = parse_query(text)
    db = gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed))
    W = compute_witnesses(q, db)
    assert len(W.parts) == len(connected_components(q)) > 1
    assert "witnesses" not in vars(W)
    reference = []
    for binding in sorted(oracles.brute_bindings(q, db), key=lambda b: "_".join(v + c for v, c in b)):
        values = dict(binding)
        reference.append((binding, tuple((a.relation, tuple(map(values.get, a.vars))) for a in q.atoms)))
    assert reference
    assert [(w.binding, w.tuples) for w in W.witnesses] == reference
    assert len(W) == len(W.witnesses) and W.witnesses is W.witnesses
    first: dict = {}  # equal pairs and tuple keys are one object, the parts' own
    assert all(first.setdefault(x, x) is x for w in W.witnesses for x in w.binding + w.tuples)
    owned = {id(item) for part in W.parts for w in part.witnesses for item in w.binding + w.tuples}
    assert all(id(item) in owned for w in W.witnesses for item in w.binding + w.tuples)


def test_disconnected_refusals_build_no_product(monkeypatch):
    """The plan model refuses a disconnected query before it reads the
    product of the parts; an empty one still gives the empty results."""
    q, db, W, _ = _disconnected(0)
    with pytest.raises(DisconnectedQueryError):
        solve_exact(q, W)
    with pytest.raises(DisconnectedQueryError):
        build_ilp(q, W)
    made = []

    def witnesses_of(q, db):
        made.append(compute_witnesses(q, db))
        return made[-1]

    monkeypatch.setattr(exact, "compute_witnesses", witnesses_of)
    with pytest.raises(DisconnectedQueryError):
        fact_decision(q, db, 0)
    for seen in (W, *made):
        assert seen.parts and "witnesses" not in vars(seen)
    empty = compute_witnesses(q, parse_database("[A]\n1\n[B]\n1,2\n[C]\n1\n[D]\n"))
    assert len(empty.parts) == 2 and len(empty.parts[0]) == 1 and len(empty) == 0
    res = solve_exact(q, empty)
    assert (res.length, res.optimal, res.nodes, res.lower_bound) == (0, True, 0, 0)
    with pytest.raises(EmptyWitnessSet):
        build_ilp(q, empty)
    rep = dispatch(q, empty)
    assert (rep.method, rep.n, rep.length, rep.optimal) == ("empty", 0, 0, True)


def test_dispatch_solves_the_parts_without_their_product():
    """84,091 witnesses, the product of parts of 287 and 293: the parts are
    solved and verified, and the product is never built."""
    q = parse_query("Q :- A(x), B(x,y), C(u), D(u,v)")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=60, tuples=300, seed=1)))
    assert [len(part) for part in W.parts] == [287, 293] and len(W) == 84_091
    rep = dispatch(q, W, verify=True)
    assert "witnesses" not in vars(W)
    assert (rep.method, rep.n, rep.length, rep.optimal, rep.verified) == (
        "components", 84_091, 700, True, True
    )
    assert rep.notes == ("Q.1: single-plan", "Q.2: single-plan")
    assert hashlib.sha256(rep.factorization.pretty().encode()).hexdigest()[:12] == "c1f8bfac5cec"


def test_every_report_keeps_its_invariants(monkeypatch):
    """Every fixture under every policy on seeded instances (d=4, t=6, seeds
    0-2), at a budget that cuts exact search short and at the default one;
    then two disconnected queries, an empty witness set, and the triangle
    whose search is proven after 20 of its 24 nodes.  Each report's length
    is its expression's, its lower bound is at most its length and proves
    it where the two meet, and it counts no nodes unless exact ran.  The
    only run that returns no report is the 4chain cost-model defect's."""
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return solve_exact(*args, **kwargs)

    monkeypatch.setattr(special, "solve_exact", counted)
    runs = [
        (q, W, policy, budget)
        for q in map(fixture_query, FIXTURE_QUERIES)
        for seed in range(3)
        for W in [compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=6, seed=seed)))]
        for policy in _POLICIES
        for budget in (10, 500_000)
    ]
    runs += [(q, W, policy, 5) for q, _, W, _ in map(_disconnected, range(2)) for policy in _POLICIES]
    q = fixture_query("triangle")
    runs += [(q, WitnessSet(q, ()), policy, 10) for policy in _POLICIES]
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=12, seed=2)))
    runs += [(q, W, policy, 20) for policy in _POLICIES]
    defects = 0
    for q, W, policy, budget in runs:
        searches.clear()
        try:
            rep = dispatch(q, W, policy=policy, budget=budget)
        except AssertionError as exc:  # ROADMAP item 1
            assert q.name == "four_chain" and "length" in str(exc), (q.name, policy, exc)
            defects += 1
            continue
        assert rep.length == rep.factorization.length == rep.expression.length
        assert rep.lower_bound is None or rep.lower_bound <= rep.length
        assert rep.optimal or rep.lower_bound != rep.length, (q.name, policy, budget)
        assert searches or rep.nodes == 0
    assert 0 < defects < len(runs) // 10


def test_dispatch_budget_exhaustion_falls_back_to_flow():
    q = fixture_query("triangle")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=10, tuples=45, seed=0)))
    rep = dispatch(q, W, budget=200)
    assert rep.method == "flow"
    assert not rep.optimal
    assert rep.verified
    assert rep.lower_bound is not None and rep.lower_bound <= rep.length
    assert any(note.startswith("exact budget exhausted") for note in rep.notes)


def test_dispatch_forced_policies(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    for policy, method, want in (
        ("exact", "exact", 10),
        ("flow", "flow", 10),
        ("single-plan", "single-plan", 11),
    ):
        rep = dispatch(q, W, policy=policy)
        assert rep.method == method
        assert rep.length == want
        assert rep.verified


@pytest.mark.parametrize("policy", ["exact", "flow", "single-plan", "auto"])
def test_dispatch_tells_apart_instances_with_equal_serials(policy):
    """Two distinct (y,z) instances that both serialize as `y1zz2` stay two
    prefix instances in exact, flow and assembly."""
    q = parse_query("Q :- R(x,y), S(y,z), T(z,x)")
    W = compute_witnesses(q, parse_database(dbs.SERIAL_COLLISION))
    assert len(W) == 2
    rep = dispatch(q, W, policy=policy)
    assert rep.verified
    assert rep.length == 6
    assert rep.factorization.pretty() == "r_11 s_1_z2 t_z2_1 ∨ r_1_1z s_1z_2 t_21"


def test_dispatch_rejects_an_unknown_policy():
    q = fixture_query("2chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=8, seed=1)))
    with pytest.raises(ValueError, match="exatc.*options: auto, exact, flow, single-plan$"):
        dispatch(q, W, policy="exatc")
    with pytest.raises(ValueError):  # checked before the empty-set shortcut
        dispatch(q, WitnessSet(q, ()), policy="")


def test_dispatch_reports_exact_search_nodes(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    assert dispatch(q, W, policy="exact").nodes == solve_exact(q, W).nodes > 0
    assert dispatch(q, W, policy="flow").nodes == 0
    assert dispatch(q, W, policy="single-plan").nodes == 0
