"""Plan enumeration: VEOs, dissociations, minimal plans, prefixes, orderings."""

import itertools

import pytest

import oracles
from provfact.cq import is_hierarchical, parse_query
from provfact.gen import FIXTURE_QUERIES, fixture_query
from provfact.assembly import TemplateTable
from provfact.veo import (
    InvalidPermutation,
    TooManyVariables,
    Veo,
    build_ordering,
    dissociation_of,
    enumerate_mveo,
    enumerate_veos,
    veo_node,
)

# Hand-verified minimal-plan sets per fixture (canonical serializations).
MVEO_SETS = {
    "q2star": ["x <- y", "y <- x"],
    "2chain": ["y <- (x, z)", "z <- y <- x"],
    "3chain": ["y <- (x, z <- u)", "z <- (u, y <- x)"],
    "q3star": [
        "x <- y <- z",
        "x <- z <- y",
        "y <- x <- z",
        "y <- z <- x",
        "z <- x <- y",
        "z <- y <- x",
    ],
    "triangle": ["(xy) <- z", "(xz) <- y", "(yz) <- x"],
    "triangle-u": ["(yz) <- x", "x <- y <- z", "x <- z <- y"],
    "2chain-we": [
        "x <- y <- z",
        "x <- z <- y",
        "y <- (x, z)",
        "z <- x <- y",
        "z <- y <- x",
    ],
}


@pytest.mark.parametrize("name", sorted(MVEO_SETS))
def test_mveo_sets(name):
    q = fixture_query(name)
    assert [v.serial for v in enumerate_mveo(q)] == MVEO_SETS[name]


def test_a_connected_query_is_hierarchical_exactly_when_it_has_one_plan():
    """A hierarchical query's safe plan has no dissociation, so it dominates
    every other plan (Dalvi & Suciu); any other connected query has at
    least two minimal plans.  `dispatch`'s flow policy proves optimality
    from the plan count alone because of this.  The space: every connected
    query with at most 4 variables, 4 atoms and arity 3, up to renaming."""
    queries = list(oracles.connected_queries(4, 4, 3))
    assert (len(queries), sum(map(is_hierarchical, queries))) == (173, 70)
    for q in queries:
        assert is_hierarchical(q) == (len(enumerate_mveo(q)) == 1), q


def test_mveo_are_pareto_minimal():
    """No minimal plan's dissociation dominates another's, and every legal
    plan is dominated by some minimal plan."""
    for name in ("q2star", "2chain", "3chain", "triangle", "triangle-u"):
        q = fixture_query(name)
        all_veos = enumerate_veos(q)
        minimal = enumerate_mveo(q)
        assert set(minimal) <= set(all_veos)
        diss = {v: dissociation_of(v, q) for v in all_veos}

        def dominates(a, b):
            return all(x <= y for x, y in zip(diss[a], diss[b]))

        for v1, v2 in itertools.combinations(minimal, 2):
            assert not (dominates(v1, v2) and diss[v1] != diss[v2])
            assert not (dominates(v2, v1) and diss[v2] != diss[v1])
        for v in all_veos:
            assert any(dominates(m, v) for m in minimal)


def test_enumerate_veos_q2star():
    q = fixture_query("q2star")
    assert [v.serial for v in enumerate_veos(q)] == ["(xy)", "x <- y", "y <- x"]


def test_veo_node_canonicalizes():
    a = veo_node(("y", "x"))
    assert a.node == ("x", "y")
    child1 = veo_node(("z",))
    child2 = veo_node(("w",))
    v = veo_node(("a",), (child1, child2))
    assert v.children == (child2, child1)  # sorted by serialization
    assert v.serial == "a <- (w, z)"


def test_serial_formats():
    leaf = veo_node(("u",))
    chain = veo_node(("y",), (leaf,))
    assert chain.serial == "y <- u"
    multi = veo_node(("x", "y"), (veo_node(("z",)),))
    assert multi.serial == "(xy) <- z"


def test_vars_below_and_root_paths():
    q = fixture_query("3chain")
    v = enumerate_mveo(q)[0]  # y <- (x, z <- u)
    assert v.vars_below == frozenset("xyzu")
    assert (("y",),) in v.root_paths
    assert (("y",), ("z",), ("u",)) in v.root_paths
    assert (("y",), ("x",)) in v.root_paths
    assert (("x",),) not in v.root_paths


def test_table_prefixes_3chain():
    """The two minimal 3-chain plans have exactly the six documented table
    prefixes, all of weight 1, and the shared template table lists them in
    the reference's order."""
    q = fixture_query("3chain")
    v1, v2 = enumerate_mveo(q)
    ref1 = oracles.reference_table_prefixes(v1, q)
    assert {frozenset(rels): path for path, rels in ref1} == {
        frozenset({"R"}): (("y",), ("x",)),
        frozenset({"S"}): (("y",), ("z",)),
        frozenset({"T"}): (("y",), ("z",), ("u",)),
    }
    ref2 = oracles.reference_table_prefixes(v2, q)
    assert {frozenset(rels): path for path, rels in ref2} == {
        frozenset({"T"}): (("z",), ("u",)),
        frozenset({"S"}): (("z",), ("y",)),
        frozenset({"R"}): (("z",), ("y",), ("x",)),
    }
    assert all(len(rels) == 1 for _, rels in ref1)
    table = TemplateTable.of(q)
    assert [[table.paths[t] for t in ids] for ids in table.prefix_ids] == [
        [path for path, _ in ref] for ref in (ref1, ref2)
    ]
    assert all(table.weights[t] == 1 for ids in table.prefix_ids for t in ids)


def test_dissociation_matches_oracle():
    """Each atom's dissociation in every legal plan of every fixture is the
    variables of its independently computed minimal covering root path
    minus its own."""
    for name in FIXTURE_QUERIES:
        q = fixture_query(name)
        for v in enumerate_veos(q):
            assert dissociation_of(v, q) == tuple(
                frozenset(x for node in oracles.anchor_path(v, a.varset) for x in node) - a.varset
                for a in q.atoms
            )


def test_too_many_variables():
    text = "Q :- " + ", ".join(f"R{i}(x{i}, x{i + 1})" for i in range(9))
    q = parse_query(text)
    with pytest.raises(TooManyVariables):
        enumerate_mveo(q)


def test_build_ordering_default_nested():
    for name in MVEO_SETS:
        q = fixture_query(name)
        o = build_ordering(q)
        assert o.mode == "nested-rp"
        assert o.rp is True
        assert sorted(v.serial for v in o.veos) == MVEO_SETS[name]


def test_nested_ordering_groups_by_root():
    # The unary-triangle grouping puts both x-rooted chains first, then the
    # (yz)-rooted plan; the endpoint-chain grouping is x-pair, y, z-pair.
    o = build_ordering(fixture_query("triangle-u"))
    assert [v.serial for v in o.veos] == ["x <- y <- z", "x <- z <- y", "(yz) <- x"]
    o2 = build_ordering(fixture_query("2chain-we"))
    assert [v.serial for v in o2.veos] == [
        "x <- y <- z",
        "x <- z <- y",
        "y <- (x, z)",
        "z <- x <- y",
        "z <- y <- x",
    ]


def test_flat_ordering_and_permutations():
    q = fixture_query("triangle")
    o = build_ordering(q, mode="flat", perm=[2, 0, 1])
    assert [v.serial for v in o.veos] == ["(yz) <- x", "(xy) <- z", "(xz) <- y"]
    assert o.mode == "flat"
    assert o.rp is True  # any triangle permutation has running prefixes


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 3], [1, 2, 3]])
def test_invalid_permutations(perm):
    q = fixture_query("triangle")
    with pytest.raises(InvalidPermutation):
        build_ordering(q, mode="flat", perm=perm)


def test_non_rp_flat_ordering_detected():
    """Splitting the two x-rooted endpoint-chain plans breaks the
    running-prefixes property; the ordering records that."""
    q = fixture_query("2chain-we")
    o = build_ordering(q, mode="flat", perm=[0, 1, 3, 2, 4])
    assert o.rp is False
    ok = build_ordering(q, mode="flat", perm=[0, 1, 2, 3, 4])
    assert ok.rp is True


def test_check_rp():
    q = fixture_query("2chain-we")
    assert build_ordering(q, mode="flat", perm=[0, 1, 2, 3, 4]).rp is True
    assert build_ordering(q, mode="flat", perm=[0, 2, 1, 3, 4]).rp is False


@pytest.mark.parametrize("name", ["2chain-we", "q3star", "4chain"])
def test_flat_rp_matches_the_reference(name):
    """On every flat permutation of the minimal plans, `Ordering.rp` is the
    reference's contiguity check over the plan sequence."""
    q = fixture_query(name)
    plans = enumerate_mveo(q)
    seen = set()
    for perm in itertools.permutations(range(len(plans))):
        o = build_ordering(q, mode="flat", perm=list(perm), mveo=plans)
        assert o.rp is oracles.reference_rp(o.veos)
        seen.add(o.rp)
    assert seen == {True, False}
