"""Instance generators: named fixture queries, seeded random databases, and
the hardness-reduction gadgets that tie factorization length to maximum
independent set.

The 3-star gadget targets the star query R(x), S(y), T(z), W(x,y,z): each
graph edge becomes three witnesses sharing constants so that the exact
factorization length exceeds the distinct-tuple count by exactly
2|E| - alpha(G).  The general triad gadget plays the same three-witness
pattern through any triad's atoms.
"""

from __future__ import annotations

import random
from itertools import islice, repeat
from operator import add, attrgetter, floordiv, mod, mul

from .cq import Query, _Value, has_triad, parse_query
from .provenance import Database

__all__ = [
    "GenSpec",
    "GraphInput",
    "NoTriad",
    "FIXTURE_QUERIES",
    "fixture_query",
    "gen_random",
    "gen_3star_gadget",
    "gen_triad_gadget",
    "random_graph",
]


class NoTriad(ValueError):
    """The query has no triad, so the gadget reduction does not apply."""


FIXTURE_QUERIES: dict[str, str] = {
    "q2star": "q2star :- R(x), S(x,y), T(y)",
    "2chain": "two_chain :- R(x,y), S(y,z), T(z)",
    "3chain": "three_chain :- R(x,y), S(y,z), T(z,u)",
    "q3star": "q3star :- R(x), S(y), T(z), W(x,y,z)",
    "triangle": "triangle :- R(x,y), S(y,z), T(z,x)",
    "triangle-u": "triangle_u :- U(x), R(x,y), S(y,z), T(z,x)",
    "2chain-we": "two_chain_we :- A(x), R(x,y), S(y,z), B(z)",
    "4chain": "four_chain :- R(x,y), S(y,z), T(z,u), U(u,w)",
}


def fixture_query(name: str) -> Query:
    try:
        return parse_query(FIXTURE_QUERIES[name])
    except KeyError:
        raise KeyError(
            f"unknown fixture query {name!r}; options: {sorted(FIXTURE_QUERIES)}"
        ) from None


class GenSpec:
    """Recipe for a seeded random database."""

    __slots__ = ("query", "d", "tuples", "seed")

    def __init__(
        self,
        query: Query,
        d: int,  # domain size per variable
        tuples: int,  # rows drawn per relation (before dedupe)
        seed: int = 0,
    ) -> None:
        self.query, self.d, self.tuples, self.seed = query, d, tuples, seed


def gen_random(spec: GenSpec) -> Database:
    """Sample `tuples` rows per relation uniformly from [0, d)^arity.

    Draws are with replacement and deduplicated, so relations may end up
    slightly smaller than requested; identical specs yield identical data.
    Equal constants are one object.

    The draws are `Random.choice`'s, read as one stream.  A constant is
    kept as its rank in string order, so that a row is one base-d int.
    """
    if spec.tuples < 0:
        raise ValueError(f"cannot draw a negative number of rows (tuples={spec.tuples})")
    if spec.d < 1 and spec.tuples > 0:
        raise ValueError(f"cannot draw rows from an empty domain (d={spec.d})")
    d = spec.d
    names = sorted(map(str, range(d)))
    rank = dict(zip(map(int, names), range(d)))
    getrandbits = random.Random(spec.seed).getrandbits
    draws = map(rank.__getitem__, filter(d.__gt__, map(getrandbits, repeat(d.bit_length()))))
    rels: dict[str, tuple[tuple[str, ...], ...]] = {}
    for atom in spec.query.atoms:
        arity = len(atom.vars)
        ranks = list(islice(draws, arity * spec.tuples))  # row i is ranks[i*arity:(i+1)*arity]
        keys = ranks[::arity]
        for i in range(1, arity):
            keys = map(add, map(mul, keys, repeat(d)), ranks[i::arity])
        keys = sorted(set(keys))
        columns = [map(mod, map(floordiv, keys, repeat(d**e)), repeat(d))
                   for e in reversed(range(arity))]
        rels[atom.relation] = tuple(zip(*[map(names.__getitem__, c) for c in columns]))
    return Database(rels)


class GraphInput(_Value):
    """A simple undirected graph; edges are vertex pairs without self-loops."""

    __slots__ = ("vertices", "edges")
    _key = attrgetter("vertices", "edges")

    def __init__(self, vertices: tuple[int, ...], edges: tuple[tuple[int, int], ...]) -> None:
        self.vertices, self.edges = vertices, edges
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
        seen = set()
        for u, v in edges:
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @staticmethod
    def from_edges(edges) -> "GraphInput":
        vertices = sorted({v for e in edges for v in e})
        return GraphInput(tuple(vertices), tuple(tuple(e) for e in edges))


def random_graph(n: int, p: float, seed: int = 0) -> GraphInput:
    """Erdos-Renyi G(n, p) on vertices 1..n (deterministic per seed)."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return GraphInput(tuple(range(1, n + 1)), tuple(edges))


def gen_3star_gadget(g: GraphInput) -> Database:
    """Database over the 3-star query whose minimal factorization length is
    (distinct tuples) + 2|E| - alpha(G).

    Per edge (a, b) with fresh constants e1..e5: witnesses (va, e1, e2),
    (e3, e4, e2), (vb, e4, e5).  One R-tuple per vertex carries all the
    cross-edge sharing; a vertex's witnesses can root at that tuple for free
    exactly when the vertex is chosen into an independent set.
    """
    R = [(f"v{a}",) for a in g.vertices]
    S: list[tuple[str, ...]] = []
    T: list[tuple[str, ...]] = []
    Wrel: list[tuple[str, ...]] = []
    for i, (a, b) in enumerate(g.edges):
        e = [f"e{i}_{j}" for j in range(1, 6)]
        R.append((e[2],))
        S.extend([(e[0],), (e[3],)])
        T.extend([(e[1],), (e[4],)])
        Wrel.extend(
            [
                (f"v{a}", e[0], e[1]),
                (e[2], e[3], e[1]),
                (f"v{b}", e[3], e[4]),
            ]
        )
    return Database.from_dict({"R": R, "S": S, "T": T, "W": Wrel})


def gen_triad_gadget(q: Query, g: GraphInput) -> Database:
    """Reduction database for any query with a triad.

    The triad atoms play fixed roles (sorted by relation name): the first
    carries per-vertex constants, the third is shared between the first two
    witnesses of an edge, the second between the last two.  Variables in
    several triad atoms get edge constants so the shared tuples agree;
    variables in no triad atom get per-witness fresh constants.
    """
    triad = has_triad(q)
    if triad is None:
        raise NoTriad(f"query {q.name} has no triad")
    r_atom, s_atom, t_atom = sorted(triad, key=lambda a: a.relation)
    in_r, in_s, in_t = r_atom.varset, s_atom.varset, t_atom.varset

    def values_for(edge_idx: int, a: int, b: int, wit: int) -> dict[str, str]:
        out: dict[str, str] = {}
        for v in sorted(q.variables):
            if v in in_r and v in in_s and v in in_t:
                out[v] = f"c{edge_idx}_{v}"
            elif wit == 1:
                if v in in_r:
                    out[v] = f"v{a}_{v}"
                elif v in in_t and v in in_s:
                    out[v] = f"c{edge_idx}_{v}"
                elif v in in_t:
                    out[v] = f"t{edge_idx}_{v}"
                else:  # private to S, or filler
                    out[v] = f"f{edge_idx}_1{v}"
            elif wit == 2:
                if v in in_t and v in in_s:
                    out[v] = f"c{edge_idx}_{v}"
                elif v in in_t:
                    out[v] = f"v{a}_{v}" if v in in_r else f"t{edge_idx}_{v}"
                elif v in in_s:
                    out[v] = f"v{b}_{v}" if v in in_r else f"s{edge_idx}_{v}"
                else:
                    out[v] = f"f{edge_idx}_2{v}"
            else:
                if v in in_r:
                    out[v] = f"v{b}_{v}"
                elif v in in_s and v in in_t:
                    out[v] = f"c{edge_idx}_{v}"
                elif v in in_s:
                    out[v] = f"s{edge_idx}_{v}"
                else:
                    out[v] = f"f{edge_idx}_3{v}"
        return out

    rels: dict[str, set[tuple[str, ...]]] = {a.relation: set() for a in q.atoms}
    # one vertex tuple per vertex in the vertex atom, shared across edges
    for a in g.vertices:
        rels[r_atom.relation].add(tuple(f"v{a}_{v}" for v in r_atom.vars))
    for i, (a, b) in enumerate(g.edges):
        for wit in (1, 2, 3):
            vals = values_for(i, a, b, wit)
            for atom in q.atoms:
                rels[atom.relation].add(tuple(vals[v] for v in atom.vars))
    return Database.from_dict({rel: sorted(rows) for rel, rows in rels.items()})
