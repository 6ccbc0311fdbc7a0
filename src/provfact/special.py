"""Query classification and special-case solvers.

Three query shapes admit dedicated polynomial algorithms (matched up to
renaming of relations and variables):

* two-star   A(x), B(x,y), C(y)        — orient witness edges away from a
  maximum independent set of the bipartite value graph;
* unary triangle  U(x), R(x,y), S(y,z), T(z,x) — a two-level vertex-cover
  instance over prefix-instance nodes with forcing;
* endpoint two-chain  A(x), R(x,y), S(y,z), B(z) — pre-assign the branching
  plan to doubly-shared witnesses, then run the flow solver over a fixed
  four-plan ordering.

`dispatch` routes a (query, witness set) to the cheapest method that is
still exact where exactness is known, falling back to exact search plus the
flow heuristic elsewhere.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

from .cq import Query, connected_components, is_hierarchical, has_triad
from .exact import solve_exact
from .flow import ExtractionFailure, build_flow_graph, extract_factorization, min_cut
from .provenance import (
    Expr,
    Factorization,
    TupleKey,
    Witness,
    WitnessSet,
    _interned,
    assemble,
    e_and,
    verify_equivalence,
    ExpansionTooLarge,
)
from .veo import Veo, build_ordering, enumerate_mveo, veo_node, TooManyVariables

log = logging.getLogger(__name__)

__all__ = [
    "QueryClass",
    "RunReport",
    "ShapeMismatch",
    "classify",
    "solve_q2star",
    "solve_triangle_unary",
    "solve_two_chain_we",
    "single_plan_baseline",
    "dispatch",
]


class ShapeMismatch(ValueError):
    """The witness set's query does not have the needed special shape."""


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_SHAPES = {
    "q2star": (frozenset([0]), frozenset([0, 1]), frozenset([1])),
    "triangle-unary": (
        frozenset([0]),
        frozenset([0, 1]),
        frozenset([1, 2]),
        frozenset([2, 0]),
    ),
    "two-chain-we": (
        frozenset([0]),
        frozenset([0, 1]),
        frozenset([1, 2]),
        frozenset([2]),
    ),
}


def _shape_signature(q: Query) -> tuple | None:
    """Canonical atom-varset multiset under variable renaming (small queries)."""
    variables = sorted(q.variables)
    if len(variables) > 6:
        return None
    best = None
    for perm in itertools.permutations(range(len(variables))):
        idx = {v: perm[i] for i, v in enumerate(variables)}
        sig = tuple(
            sorted(
                (frozenset(idx[v] for v in a.vars) for a in q.atoms),
                key=lambda s: (len(s), sorted(s)),
            )
        )
        if best is None or sig < best:
            best = sig
    return best


@dataclass(frozen=True)
class QueryClass:
    """Structural tags steering method selection."""

    tags: frozenset[str]
    k: int | None  # |mveo|, when enumerable

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags


def classify(q: Query) -> QueryClass:
    tags = set()
    if is_hierarchical(q):
        tags.add("hierarchical")
    if has_triad(q) is not None:
        tags.add("triad")
    else:
        tags.add("linear")
    sig = _shape_signature(q)
    for name, shape in _SHAPES.items():
        if sig is not None and sig == tuple(
            sorted(shape, key=lambda s: (len(s), sorted(s)))
        ):
            tags.add(name)
    k = None
    try:
        k = len(enumerate_mveo(q))
        if k == 2:
            tags.add("two-mveo")
    except TooManyVariables:
        pass
    if len(connected_components(q)) > 1:
        tags.add("disconnected")
    return QueryClass(tags=frozenset(tags), k=k)


def _tuple_counts(W: WitnessSet) -> dict[TupleKey, int]:
    counts: dict[TupleKey, int] = {}
    for w in W.witnesses:
        for t in w.tuples:
            counts[t] = counts.get(t, 0) + 1
    return counts


def _find_plan(mveo: tuple[Veo, ...], plan: Veo) -> Veo:
    for v in mveo:
        if v == plan:
            return v
    raise AssertionError(f"constructed plan {plan} not among minimal plans")


# ---------------------------------------------------------------------------
# two-star: A(x), B(x,y), C(y)
# ---------------------------------------------------------------------------

def _adjacency(edges) -> dict:
    """Left vertex -> right neighbours, in one pass over the edges."""
    adj: dict = {}
    for l, r in edges:
        adj.setdefault(l, []).append(r)
    return adj


def _max_matching(adj: dict) -> dict:
    """Maximum bipartite matching by Hopcroft–Karp; returns right->left.

    Each phase layers the left vertices by breadth-first search from the
    unmatched ones, then augments along shortest paths of that layering,
    found with an explicit stack: no path length reaches Python's recursion
    limit.  O(E·√V).
    """
    match_l: dict = {}
    match_r: dict = {}
    while True:
        free = [u for u in adj if u not in match_l]
        dist = dict.fromkeys(free, 0)
        layer, limit = free, None
        while layer and limit is None:
            nxt = []
            for u in layer:
                for v in adj[u]:
                    w = match_r.get(v)
                    if w is None:
                        limit = dist[u]
                    elif w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            layer = nxt
        if limit is None:
            return match_r
        pos = dict.fromkeys(dist, 0)
        for root in free:
            stack, via = [root], []
            while stack:
                u = stack[-1]
                nbrs, i = adj[u], pos[u]
                step = None
                while i < len(nbrs):
                    v = nbrs[i]
                    i += 1
                    w = match_r.get(v)
                    if w is None or (dist[u] < limit and dist.get(w) == dist[u] + 1):
                        step = v, w
                        break
                pos[u] = i
                if step is None:  # dead end for the rest of this phase
                    dist[u] = -1
                    stack.pop()
                    if via:
                        via.pop()
                elif step[1] is None:  # free right vertex: flip the path
                    via.append(step[0])
                    for u, v in zip(stack, via):
                        match_l[u], match_r[v] = v, u
                    break
                else:
                    via.append(step[0])
                    stack.append(step[1])


def _koenig_cover(adj: dict, match_r: dict) -> tuple[set, set]:
    """Minimum vertex cover (cover_l, cover_r) from a maximum matching.

    Z is what alternating paths reach from the unmatched left vertices; the
    cover is (left - Z) | (right & Z).  By Dulmage–Mendelsohn, Z is the same
    for every maximum matching, so the cover does not depend on which one
    `_max_matching` returns.
    """
    match_l = {u: v for v, u in match_r.items()}
    left = list(adj)
    z_l = {u for u in left if u not in match_l}
    z_r: set = set()
    queue = list(z_l)
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in z_r:
                z_r.add(v)
                if v in match_r and match_r[v] not in z_l:
                    z_l.add(match_r[v])
                    queue.append(match_r[v])
    cover_l = {u for u in left if u not in z_l}
    cover_r = z_r
    return cover_l, cover_r


def _q2star_roles(q: Query) -> tuple[str, str]:
    unary = sorted((a for a in q.atoms if len(a.vars) == 1), key=lambda a: a.relation)
    binary = [a for a in q.atoms if len(a.vars) == 2]
    if len(unary) != 2 or len(binary) != 1:
        raise ShapeMismatch(f"{q.name} is not a two-star query")
    x, y = unary[0].vars[0], unary[1].vars[0]
    if binary[0].varset != frozenset((x, y)):
        raise ShapeMismatch(f"{q.name} is not a two-star query")
    return x, y


def solve_q2star(W: WitnessSet) -> Factorization:
    """Optimal factorization for the two-star query.

    Witnesses are edges of a bipartite value graph; rooting a witness at one
    side shares that side's prefix.  Every orientation's sink set is an
    independent set, so a maximum independent set (complement of a minimum
    vertex cover) gives the minimum number of distinct roots.
    """
    q = W.query
    x, y = _q2star_roles(q)
    mveo = enumerate_mveo(q)
    plan_x = _find_plan(mveo, veo_node((x,), (veo_node((y,)),)))
    plan_y = _find_plan(mveo, veo_node((y,), (veo_node((x,)),)))

    edges = []
    for w in W.witnesses:
        vals = w.values
        edges.append((("L", vals[x]), ("R", vals[y])))
    adj = _adjacency(edges)
    cover_l, cover_r = _koenig_cover(adj, _max_matching(adj))

    assignment: dict[Witness, Veo] = {}
    for w, (l, r) in zip(W.witnesses, edges):
        if r not in cover_r:  # right endpoint independent: orient into it
            assignment[w] = plan_x
        elif l not in cover_l:  # left endpoint independent
            assignment[w] = plan_y
        else:  # both covered: orientation free, keep the x-rooted plan
            assignment[w] = plan_x
    del edges, adj, cover_l, cover_r  # freed before assembly builds its trie
    return assemble(q, W, assignment)


# ---------------------------------------------------------------------------
# unary triangle: U(x), R(x,y), S(y,z), T(z,x)
# ---------------------------------------------------------------------------

def _triangle_roles(q: Query) -> tuple[str, str, str]:
    unary = [a for a in q.atoms if len(a.vars) == 1]
    binary = sorted((a for a in q.atoms if len(a.vars) == 2), key=lambda a: a.relation)
    if len(unary) != 1 or len(binary) != 3:
        raise ShapeMismatch(f"{q.name} is not a unary-triangle query")
    x = unary[0].vars[0]
    with_x = [a for a in binary if x in a.varset]
    rest = [a for a in binary if x not in a.varset]
    if len(with_x) != 2 or len(rest) != 1:
        raise ShapeMismatch(f"{q.name} is not a unary-triangle query")
    y = next(v for v in with_x[0].vars if v != x)
    z = next(v for v in with_x[1].vars if v != x)
    if rest[0].varset != frozenset((y, z)):
        raise ShapeMismatch(f"{q.name} is not a unary-triangle query")
    return x, y, z


def solve_triangle_unary(W: WitnessSet) -> Factorization:
    """Optimal factorization for the unary triangle.

    A witness whose x-y or x-z binary tuple repeats must take a linear plan
    (conflict graph on the two second-level prefix instances); the rest trade
    the shared x prefix against the shared (yz) root.  Both graphs are
    bipartite, solved together by one vertex cover with the x nodes of
    conflicted values forced into the cover.
    """
    q = W.query
    x, y, z = _triangle_roles(q)
    mveo = enumerate_mveo(q)
    plan_xy = _find_plan(
        mveo, veo_node((x,), (veo_node((y,), (veo_node((z,)),)),))
    )
    plan_xz = _find_plan(
        mveo, veo_node((x,), (veo_node((z,), (veo_node((y,)),)),))
    )
    plan_yz = _find_plan(mveo, veo_node((y, z), (veo_node((x,)),)))

    counts = _tuple_counts(W)
    ridx = next(i for i, a in enumerate(q.atoms) if a.varset == frozenset((x, y)))
    tidx = next(i for i, a in enumerate(q.atoms) if a.varset == frozenset((x, z)))

    # node spaces: left = xy-instances and x-instances, right = xz and yz;
    # the first-type witnesses' edges come first, then the second type's
    edges: list[tuple[tuple, tuple, Witness]] = []
    second_type: list[tuple[tuple, tuple, Witness]] = []
    for w in W.witnesses:
        vals = w.values
        vx, vy, vz = vals[x], vals[y], vals[z]
        if counts[w.tuples[ridx]] > 1 or counts[w.tuples[tidx]] > 1:
            edges.append((("xy", vx, vy), ("xz", vx, vz), w))
        else:
            second_type.append((("x", vx), ("yz", vy, vz), w))
    forced = {("x", l[1]) for l, _, _ in edges}
    edges += second_type
    del second_type

    adj = _adjacency((l, r) for l, r, _ in edges if l not in forced)
    cover_l, cover_r = _koenig_cover(adj, _max_matching(adj))
    cover = cover_l | cover_r | forced

    assignment: dict[Witness, Veo] = {}
    for l, r, w in edges:
        if l[0] == "xy":
            assignment[w] = plan_xy if l in cover else plan_xz
        else:
            assignment[w] = plan_xy if l in cover else plan_yz
    del counts, edges, adj, forced, cover, cover_l, cover_r  # freed before assembly
    return assemble(q, W, assignment)


# ---------------------------------------------------------------------------
# endpoint two-chain: A(x), R(x,y), S(y,z), B(z)
# ---------------------------------------------------------------------------

def _two_chain_roles(q: Query) -> tuple[str, str, str]:
    unary = sorted((a for a in q.atoms if len(a.vars) == 1), key=lambda a: a.relation)
    binary = [a for a in q.atoms if len(a.vars) == 2]
    if len(unary) != 2 or len(binary) != 2:
        raise ShapeMismatch(f"{q.name} is not an endpoint two-chain")
    x, z = unary[0].vars[0], unary[1].vars[0]
    r_atom = next((a for a in binary if x in a.varset), None)
    s_atom = next((a for a in binary if z in a.varset), None)
    if r_atom is None or s_atom is None or r_atom is s_atom:
        raise ShapeMismatch(f"{q.name} is not an endpoint two-chain")
    y = next(v for v in r_atom.vars if v != x)
    if s_atom.varset != frozenset((y, z)):
        raise ShapeMismatch(f"{q.name} is not an endpoint two-chain")
    return x, y, z


def solve_two_chain_we(W: WitnessSet) -> Factorization:
    """Optimal factorization for the endpoint two-chain.

    Witnesses whose x-y tuple and y-z tuple both repeat take the branching
    plan y <- (x, z); the remainder is solved exactly by the flow cut over
    the fixed linear-plan ordering [x<-z<-y, x<-y<-z, z<-y<-x, z<-x<-y].
    """
    q = W.query
    x, y, z = _two_chain_roles(q)
    mveo = enumerate_mveo(q)
    plan_branch = _find_plan(
        mveo, veo_node((y,), (veo_node((x,)), veo_node((z,))))
    )
    chain = lambda a, b, c: veo_node((a,), (veo_node((b,), (veo_node((c,)),)),))
    omega = (
        _find_plan(mveo, chain(x, z, y)),
        _find_plan(mveo, chain(x, y, z)),
        _find_plan(mveo, chain(z, y, x)),
        _find_plan(mveo, chain(z, x, y)),
    )

    counts = _tuple_counts(W)
    ridx = next(i for i, a in enumerate(q.atoms) if a.varset == frozenset((x, y)))
    sidx = next(i for i, a in enumerate(q.atoms) if a.varset == frozenset((y, z)))

    assignment: dict[Witness, Veo] = {}
    rest: list[Witness] = []
    for w in W.witnesses:
        if counts[w.tuples[ridx]] > 1 and counts[w.tuples[sidx]] > 1:
            assignment[w] = plan_branch
        else:
            rest.append(w)

    if rest:
        sub = WitnessSet(q, tuple(rest))
        ordering = build_ordering(q, mode="flat", mveo=omega)
        g = build_flow_graph(q, sub, ordering)
        assignment.update(extract_factorization(g, min_cut(g))[1])
        # the flow network and the remainder's own factorization are freed
        # before assembly builds its trie
        del sub, g
    del counts, rest
    return assemble(q, W, assignment)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Outcome of one factorization run."""

    query: str
    method: str
    n: int
    length: int
    repeats: int
    optimal: bool
    factorization: Factorization | None
    lower_bound: int | None = None
    elapsed_ms: float = 0.0
    notes: tuple[str, ...] = ()
    verified: bool | None = None
    nodes: int = 0  # exact search nodes; 0 when the exact search did not run

    @property
    def expression(self) -> Expr | None:
        return self.factorization.expression if self.factorization else None


def single_plan_baseline(q: Query, W: WitnessSet) -> Factorization:
    """Best factorization that uses one plan for every witness."""
    best = None
    for v in enumerate_mveo(q):
        f = assemble(q, W, {w: v for w in W.witnesses})
        if best is None or f.length < best.length:
            best = f
    if best is None:
        raise ValueError("query has no plans")
    return best


def _project_witnesses(q: Query, W: WitnessSet, sub: Query) -> WitnessSet:
    """The distinct restrictions of `W`'s witnesses to the atoms and
    variables of `sub`, sorted by key, with tuple keys and binding pairs
    interned per set as in `compute_witnesses`."""
    keep_vars = sorted(sub.variables)
    idx = [i for i, a in enumerate(q.atoms) if a in sub.atoms]
    table: dict = {}
    seen: dict[tuple, Witness] = {}
    for w in W.witnesses:
        vals = w.values
        binding = _interned(table, [(v, vals[v]) for v in keep_vars])
        if binding not in seen:
            seen[binding] = Witness(binding, _interned(table, [w.tuples[i] for i in idx]))
    witnesses = tuple(sorted(seen.values(), key=lambda w: w.key))
    return WitnessSet(sub, witnesses)


def _flow_run(q, W, strict_rp, ordering=None) -> tuple[Factorization, int]:
    """(factorization, cut value); the graph and the cut are freed on return."""
    ordering = ordering or build_ordering(q, mode="nested-rp")
    g = build_flow_graph(q, W, ordering, strict_rp=strict_rp)
    res = min_cut(g)
    return extract_factorization(g, res)[0], res.value


def _special_solve(cls: QueryClass, W: WitnessSet) -> tuple[Factorization, str] | None:
    """Run the closed-form solver for the first special shape `cls` has,
    as (factorization, method); None when it has none."""
    if "q2star" in cls:
        return solve_q2star(W), "q2star"
    if "triangle-unary" in cls:
        return solve_triangle_unary(W), "triangle-unary"
    if "two-chain-we" in cls:
        return solve_two_chain_we(W), "two-chain-we"
    return None


_POLICIES = ("auto", "exact", "flow", "single-plan", "special")


def dispatch(
    q: Query,
    W: WitnessSet,
    policy: str = "auto",
    budget: int = 500_000,
    strict_rp: bool = False,
    ordering=None,
    verify: bool = True,
) -> RunReport:
    """Route to a solving method and return a uniform report.

    policy: auto | exact | flow | single-plan | special; any other value
    raises `ValueError`.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; options: {', '.join(_POLICIES)}")
    start = time.perf_counter()
    notes: list[str] = []
    lower = None
    nodes = 0

    if not W.witnesses:
        fact = assemble(q, W, {})
        return RunReport(
            query=q.name, method="empty", n=0, length=0, repeats=0,
            optimal=True, factorization=fact,
            elapsed_ms=(time.perf_counter() - start) * 1000,
        )

    cls = classify(q)
    method = policy
    optimal = True
    fact: Factorization | None = None

    if policy == "auto" and "disconnected" in cls:
        parts = []
        for i, comp in enumerate(connected_components(q)):
            sub = Query(f"{q.name}.{i + 1}", tuple(a for a in q.atoms if a in comp))
            sub_W = _project_witnesses(q, W, sub)
            rep = dispatch(
                sub, sub_W, policy="auto", budget=budget,
                strict_rp=strict_rp, verify=False,
            )
            parts.append(rep)
        expr = e_and([p.factorization.expression for p in parts])
        length = sum(p.length for p in parts)
        fact = Factorization(
            assignment=(), expression=expr, length=length,
            repeats=sum(p.repeats for p in parts),
        )
        return RunReport(
            query=q.name, method="components", n=len(W.witnesses),
            length=length, repeats=fact.repeats,
            optimal=all(p.optimal for p in parts), factorization=fact,
            elapsed_ms=(time.perf_counter() - start) * 1000,
            notes=tuple(f"{p.query}: {p.method}" for p in parts),
            nodes=sum(p.nodes for p in parts),
        )

    if policy == "exact":
        res = solve_exact(q, W, budget=budget)
        fact, optimal, lower, nodes = res.factorization, res.optimal, res.lower_bound, res.nodes
        if not res.optimal:
            notes.append(f"budget exhausted after {res.nodes} nodes")
    elif policy == "flow":
        fact, cut_value = _flow_run(q, W, strict_rp, ordering)
        optimal = cls.k is not None and (cls.k <= 2 or "hierarchical" in cls)
        if not optimal:
            notes.append(f"cut value {cut_value}; optimality not guaranteed")
    elif policy == "single-plan":
        fact = single_plan_baseline(q, W)
        optimal = "hierarchical" in cls
    elif policy == "special":
        routed = _special_solve(cls, W)
        if routed is None:
            raise ShapeMismatch(f"{q.name} matches no special-case solver")
        fact, method = routed
    else:  # auto
        if "hierarchical" in cls:
            fact, method = single_plan_baseline(q, W), "single-plan"
        elif (routed := _special_solve(cls, W)) is not None:
            fact, method = routed
        elif cls.k == 2:
            fact = _flow_run(q, W, strict_rp, ordering)[0]
            method = "flow"
        else:
            res = solve_exact(q, W, budget=budget)
            nodes = res.nodes
            if res.optimal:
                fact, method, lower = res.factorization, "exact", res.lower_bound
            else:
                optimal = False
                lower = res.lower_bound
                notes.append(
                    f"exact budget exhausted after {res.nodes} nodes;"
                    f" lower bound {res.lower_bound}"
                )
                try:
                    flow_fact = _flow_run(q, W, strict_rp, ordering)[0]
                except ExtractionFailure:
                    flow_fact = None
                    notes.append("flow extraction failed")
                if flow_fact is not None and flow_fact.length < res.length:
                    fact, method = flow_fact, "flow"
                else:
                    fact, method = res.factorization, "exact"

    assert fact is not None
    verified = None
    if verify:
        try:
            verified = verify_equivalence(fact, W)
        except ExpansionTooLarge:
            notes.append("equivalence verification skipped (expansion too large)")
        else:
            if not verified:
                raise AssertionError(
                    f"{method} produced a non-equivalent factorization"
                )
    return RunReport(
        query=q.name,
        method=method,
        n=len(W.witnesses),
        length=fact.length,
        repeats=fact.repeats,
        optimal=optimal,
        factorization=fact,
        lower_bound=lower,
        elapsed_ms=(time.perf_counter() - start) * 1000,
        notes=tuple(notes),
        verified=verified,
        nodes=nodes,
    )
