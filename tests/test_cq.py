"""Query parsing and structural classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from provfact.cq import (
    Atom,
    HeadVarError,
    Query,
    QuerySyntaxError,
    SelfJoinError,
    UnknownVariable,
    _linked,
    atoms_of,
    connected_components,
    has_triad,
    independent_atoms,
    is_hierarchical,
    parse_query,
)
from provfact.gen import fixture_query


def test_parse_basic():
    q = parse_query("Q :- R(x), S(x,y), T(y)")
    assert q.name == "Q"
    assert q.atoms == (
        Atom("R", ("x",)),
        Atom("S", ("x", "y")),
        Atom("T", ("y",)),
    )
    assert q.variables == frozenset({"x", "y"})


def test_parse_whitespace_and_case():
    q = parse_query("  MyQuery :-  R( x , y ),S(y,z)  ")
    assert q.name == "MyQuery"
    assert [a.relation for a in q.atoms] == ["R", "S"]
    assert q.atoms[0].vars == ("x", "y")


@pytest.mark.parametrize(
    "text, err",
    [
        ("no arrow here", QuerySyntaxError),
        ("Q :- ", QuerySyntaxError),
        ("Q :- R(x), R(y)", SelfJoinError),
        ("Q(x) :- R(x,y)", HeadVarError),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_query(text)


def test_allow_disconnected():
    q = parse_query("Q :- R(x), S(y)")
    assert len(q.atoms) == 2


def test_atoms_of():
    q = fixture_query("q2star")
    assert {a.relation for a in atoms_of(q, "x")} == {"R", "S"}
    assert {a.relation for a in atoms_of(q, "y")} == {"S", "T"}
    with pytest.raises(UnknownVariable):
        atoms_of(q, "nope")


# Hand-checked structural facts per fixture query: hierarchical means every
# variable pair has nested-or-disjoint atom sets; a triad is three
# independent atoms pairwise connected avoiding the third.
STRUCTURE = {
    "q2star": (False, False),
    "2chain": (False, False),
    "2chain-we": (False, False),
    "3chain": (False, False),
    "4chain": (False, False),
    "q3star": (False, True),
    "triangle": (False, True),
    "triangle-u": (False, False),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE))
def test_structure_flags(name):
    hier, triad = STRUCTURE[name]
    q = fixture_query(name)
    assert is_hierarchical(q) == hier
    assert (has_triad(q) is not None) == triad


def test_hierarchical_example():
    q = parse_query("Q :- R(x), S(x,y)")
    assert is_hierarchical(q)
    assert has_triad(q) is None  # linear


def test_triad_atoms_are_independent():
    q = fixture_query("triangle")
    triad = has_triad(q)
    assert triad is not None and len(triad) == 3
    indep = independent_atoms(q)
    assert all(a in indep for a in triad)


def test_components_and_triads_match_the_references():
    """`connected_components` and `has_triad`, the triple it returns
    included, equal the searches they replaced on every query with at most
    4 variables, 4 atoms and arity 3, connected or not, up to renaming;
    each also with its relations named backwards, so that sorting the
    atoms reverses them."""
    queries = list(oracles.small_queries(4, 4, 3))
    connected = sum(len(oracles.reference_components(q)) == 1 for q in queries)
    triads = sum(oracles.reference_triad(q) is not None for q in queries)
    assert (len(queries), connected, triads) == (229, 173, 24)
    for q in queries:
        renamed = (Atom(f"R{q.m - 1 - i}", a.vars) for i, a in enumerate(q.atoms))
        backwards = Query(q.name, tuple(renamed))
        for query in (q, backwards):
            assert connected_components(query) == oracles.reference_components(query), query
            assert has_triad(query) == oracles.reference_triad(query), query


@settings(max_examples=300)
@given(st.data())
def test_linked_is_the_transitive_closure(data):
    """`_linked` gives the classes of the transitive closure of its groups,
    each ascending, ordered by their smallest member; a group may be empty
    and may be read only once."""
    n = data.draw(st.integers(0, 9))
    group = st.lists(st.integers(0, n - 1), max_size=4) if n else st.just([])
    groups = data.draw(st.lists(group, max_size=6))
    reach = [[a == b for b in range(n)] for a in range(n)]
    for group in groups:
        for a in group:
            for b in group:
                reach[a][b] = True
    for k in range(n):  # Warshall
        for a in range(n):
            if reach[a][k]:
                reach[a] = [x or y for x, y in zip(reach[a], reach[k])]
    want = [[b for b in range(n) if reach[a][b]] for a in range(n)]
    want = [cls for a, cls in enumerate(want) if cls[0] == a]
    assert _linked(n, (iter(g) for g in groups)) == want


def test_independent_atoms_definition():
    # No atom whose variable set strictly contains another atom's is independent.
    q = fixture_query("q2star")
    assert {a.relation for a in independent_atoms(q)} == {"R", "T"}
    qtu = fixture_query("triangle-u")
    assert {a.relation for a in independent_atoms(qtu)} == {"U", "S"}


def test_query_equality_and_hash():
    q1 = parse_query("Q :- R(x), S(x,y), T(y)")
    q2 = parse_query("Q :- R(x), S(x,y), T(y)")
    assert q1 == q2 and hash(q1) == hash(q2)
    assert q1 != parse_query("Q :- R(x), S(x,y)")


def test_atom_varset_is_made_once():
    a = Atom("S", ("x", "y"))
    assert a.varset == frozenset({"x", "y"})
    assert a.varset is a.varset
