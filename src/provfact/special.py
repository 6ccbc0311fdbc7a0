"""Query classification and special-case solvers.

Three query shapes admit dedicated polynomial algorithms (matched up to
renaming of relations and variables and reordering of atoms by one pattern
matcher, `_match`):

* two-star   A(x), B(x,y), C(y)        — orient witness edges away from a
  maximum independent set of the bipartite value graph;
* unary triangle  U(x), R(x,y), S(y,z), T(z,x) — a two-level vertex-cover
  instance with forcing;
* endpoint two-chain  A(x), R(x,y), S(y,z), B(z) — pre-assign the branching
  plan to doubly-shared witnesses, then run the flow solver over a fixed
  four-plan ordering.

The value graphs' vertices are the witnesses' own tuple keys.  Both vertex
covers are minimum cuts of a unit bipartite network (`_min_cover`), found
by the one max-flow kernel, `_mincut.max_flow`.

`dispatch` routes a (query, witness set) to the cheapest method that is
still exact where exactness is known, falling back to exact search plus the
flow heuristic elsewhere.  Every run yields one record, `exact.RunReport`
(re-exported here): `_solve` builds it once per route, and `dispatch`
verifies it and sets its time in one place, for every route.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import permutations
from operator import itemgetter

from . import _POLICIES
from .cq import Query, connected_components, is_hierarchical, has_triad
from .exact import RunReport, solve_exact
from ._mincut import max_flow
from .flow import Arcs, ExtractionFailure, build_flow_graph, extract_factorization, min_cut
from .assembly import (
    ExpansionTooLarge, Factorization, TemplateTable, assemble, e_and, verify_equivalence,
)
from .provenance import WitnessSet
from .veo import Veo, build_ordering, veo_node, TooManyVariables

__all__ = [
    "QueryClass",
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

class QueryClass:
    """Structural tags steering method selection."""

    __slots__ = ("tags", "k")

    def __init__(self, tags: frozenset[str], k: int | None) -> None:
        self.tags, self.k = tags, k  # k: |mveo|, when listed (see `classify`)

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags


def classify(q: Query) -> QueryClass:
    """Structural tags of `q`; a special shape's tag is set exactly when
    `_match` finds its pattern in `q`.  `k` is None past the enumeration
    cap and on a disconnected query, whose parts `dispatch` solves apart,
    each with its own plans; the whole query's plans are never listed."""
    tags = set()
    if is_hierarchical(q):
        tags.add("hierarchical")
    if has_triad(q) is not None:
        tags.add("triad")
    else:
        tags.add("linear")
    tags.update(tag for tag, pattern, _ in _SHAPES if _match(q, pattern) is not None)
    k = None
    if len(connected_components(q)) > 1:
        tags.add("disconnected")
    else:
        try:
            k = len(TemplateTable.of(q).plans)
        except TooManyVariables:
            pass
        if k == 2:
            tags.add("two-mveo")
    return QueryClass(tags=frozenset(tags), k=k)


def _find_plan(q: Query, plan: Veo) -> Veo:
    for v in TemplateTable.of(q).plans:
        if v == plan:
            return v
    raise AssertionError(f"constructed plan {plan} not among minimal plans")


# The special shapes' variable patterns, one variable tuple per atom.
_Q2STAR = (("x",), ("x", "y"), ("y",))  # A(x), B(x,y), C(y)
_TRIANGLE = (("x",), ("x", "y"), ("y", "z"), ("z", "x"))  # U(x), R(x,y), S(y,z), T(z,x)
_TWO_CHAIN = (("x",), ("x", "y"), ("y", "z"), ("z",))  # A(x), R(x,y), S(y,z), B(z)


def _incidence(atom_vars) -> dict[frozenset[int], str]:
    """Each variable, keyed by the positions of the atoms it occurs in."""
    at: dict[str, set[int]] = {}
    for i, vs in enumerate(atom_vars):
        for v in vs:
            at.setdefault(v, set()).add(i)
    return {frozenset(s): v for v, s in at.items()}


def _match(q: Query, pattern) -> tuple[tuple[str, ...], tuple[int, ...]] | None:
    """`q` as `pattern` up to renaming of variables and order of atoms:
    (renaming, the query variable of each pattern variable in name order;
    per pattern atom, the index of the query atom it becomes), else None.
    Of several matches, the one whose relation names, in pattern order,
    sort first.  Each pattern variable lies in its own set of atoms, so an
    atom order fixes the renaming."""
    atoms = q.atoms
    want = _incidence(pattern)
    arities = sorted(len(a.vars) for a in atoms)
    if len(want) != len(q.variables) or arities != sorted(map(len, pattern)):
        return None
    for perm in permutations(sorted(range(len(atoms)), key=lambda i: atoms[i].relation)):
        got = _incidence(atoms[i].vars for i in perm)
        if got.keys() == want.keys():
            return tuple(got[s] for s in sorted(want, key=want.__getitem__)), perm
    return None


def _roles(q: Query, pattern, shape: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """`_match`, raising `ShapeMismatch` where `q` is not `shape`."""
    match = _match(q, pattern)
    if match is None:
        raise ShapeMismatch(f"{q.name} is not {shape}")
    return match


# ---------------------------------------------------------------------------
# two-star: A(x), B(x,y), C(y)
# ---------------------------------------------------------------------------

def _min_cover(edges) -> tuple[set, set]:
    """Minimum vertex cover (cover_l, cover_r) of the bipartite graph with
    (left, right) edges `edges`: by Kőnig's theorem, a minimum cut of the unit
    network S -> left -> right -> T, middle arcs uncuttable (S = 0, T = 1,
    vertices in first-seen order).  `max_flow`'s source side Z is the same
    for every maximum flow (Picard & Queyranne 1980): S and what alternating
    paths reach from the unmatched left vertices, so the cover
    (left - Z) | (right & Z) is the canonical one (Dulmage–Mendelsohn).
    """
    left: dict = {}
    right: dict = {}
    arcs = Arcs()
    for l, r in edges:
        arcs.tail.append(left.setdefault(l, 2 + len(left) + len(right)))
        arcs.head.append(right.setdefault(r, 2 + len(left) + len(right)))
    nl, nr = len(left), len(right)
    arcs.cap.extend([nl + 1] * len(arcs))
    arcs.extend([0] * nl, left.values(), [1] * nl)
    arcs.extend(right.values(), [1] * nr, [1] * nr)
    reachable = max_flow(2 + nl + nr, arcs, 0, 1)[1]
    return (
        {l for l, i in left.items() if not reachable[i]},
        {r for r, i in right.items() if reachable[i]},
    )


def solve_q2star(W: WitnessSet) -> Factorization:
    """Optimal factorization for the two-star query.

    Witnesses are edges (A tuple, C tuple) of a bipartite value graph;
    rooting a witness at one side shares that side's prefix.  Every
    orientation's sink set is an independent set, so a maximum independent
    set (complement of a minimum vertex cover) gives the minimum number of
    distinct roots.  The cover is `_min_cover`'s canonical one, a minimum
    cut found by `_mincut.max_flow`.
    """
    q = W.query
    (x, y), (a, _, c) = _roles(q, _Q2STAR, "a two-star query")
    plan_x = _find_plan(q, veo_node((x,), (veo_node((y,)),)))
    plan_y = _find_plan(q, veo_node((y,), (veo_node((x,)),)))

    edges = [(w.tuples[a], w.tuples[c]) for w in W.witnesses]
    cover_l, cover_r = _min_cover(edges)

    # orient into an independent endpoint, the right one first; with both
    # endpoints covered the orientation is free: keep the x-rooted plan
    plans = [plan_y if r in cover_r and l not in cover_l else plan_x for l, r in edges]
    del edges, cover_l, cover_r  # freed before assembly builds its trie
    return assemble(W, plans)


# ---------------------------------------------------------------------------
# unary triangle: U(x), R(x,y), S(y,z), T(z,x)
# ---------------------------------------------------------------------------

def solve_triangle_unary(W: WitnessSet) -> Factorization:
    """Optimal factorization for the unary triangle.

    A witness whose R or T tuple repeats must take a linear plan (conflict
    graph on its R and T tuples, the two second-level prefixes); the rest
    trade the shared U tuple (the x prefix) against the shared S tuple (the
    yz root).  Both graphs are bipartite, solved together by one vertex
    cover with the U tuples of conflicted witnesses forced into the cover;
    the rest of the cover is `_min_cover`'s canonical one, a minimum cut
    found by `_mincut.max_flow`.
    """
    q = W.query
    (x, y, z), (u, r, s, t) = _roles(q, _TRIANGLE, "a unary-triangle query")
    plan_xy = _find_plan(q, veo_node((x,), (veo_node((y,), (veo_node((z,)),)),)))
    plan_xz = _find_plan(q, veo_node((x,), (veo_node((z,), (veo_node((y,)),)),)))
    plan_yz = _find_plan(q, veo_node((y, z), (veo_node((x,)),)))

    tuples = [w.tuples for w in W.witnesses]
    repeats = Counter(map(itemgetter(r), tuples))
    repeats.update(map(itemgetter(t), tuples))
    conflicted = [repeats[ts[r]] > 1 or repeats[ts[t]] > 1 for ts in tuples]
    # one edge per witness: left = R and U tuples, right = T and S tuples
    edges = [(ts[r], ts[t]) if c else (ts[u], ts[s]) for ts, c in zip(tuples, conflicted)]
    forced = {ts[u] for ts, c in zip(tuples, conflicted) if c}

    cover_l, cover_r = _min_cover((l, rt) for l, rt in edges if l not in forced)
    cover = cover_l | cover_r | forced

    plans = [
        plan_xy if l in cover else plan_xz if c else plan_yz
        for (l, _), c in zip(edges, conflicted)
    ]
    del tuples, repeats, conflicted, edges, forced, cover, cover_l, cover_r  # freed before assembly
    return assemble(W, plans)


# ---------------------------------------------------------------------------
# endpoint two-chain: A(x), R(x,y), S(y,z), B(z)
# ---------------------------------------------------------------------------

def solve_two_chain_we(W: WitnessSet) -> Factorization:
    """Optimal factorization for the endpoint two-chain.

    Witnesses whose R tuple and S tuple both repeat take the branching
    plan y <- (x, z); the remainder is solved exactly by the flow cut over
    the fixed linear-plan ordering [x<-z<-y, x<-y<-z, z<-y<-x, z<-x<-y].
    """
    q = W.query
    (x, y, z), (_, r, s, _) = _roles(q, _TWO_CHAIN, "an endpoint two-chain")
    plan_branch = _find_plan(q, veo_node((y,), (veo_node((x,)), veo_node((z,)))))
    chain = lambda a, b, c: veo_node((a,), (veo_node((b,), (veo_node((c,)),)),))
    orders = ((x, z, y), (x, y, z), (z, y, x), (z, x, y))
    omega = tuple(_find_plan(q, chain(a, b, c)) for a, b, c in orders)

    tuples = [w.tuples for w in W.witnesses]
    repeats = Counter(map(itemgetter(r), tuples))
    repeats.update(map(itemgetter(s), tuples))
    branch = [repeats[ts[r]] > 1 and repeats[ts[s]] > 1 for ts in tuples]
    del tuples, repeats
    cut = iter(())  # the remainder's plans, in witness order
    if not all(branch):
        sub = WitnessSet(q, tuple(w for w, b in zip(W.witnesses, branch) if not b))
        g = build_flow_graph(q, sub, build_ordering(q, mode="flat", mveo=omega))
        cut = iter(extract_factorization(g, min_cut(g))[1])
        del sub, g  # the flow network and the remainder's own factorization
    plans = [plan_branch if b else next(cut) for b in branch]
    del branch, cut  # freed before assembly builds its trie
    return assemble(W, plans)


# The special shapes as (tag, pattern, solver), in the order `dispatch`
# tries them; the tag is also the method a run reports.  Each solver is
# looked up when called, so a wrapper set on its module name sees the call.
_SHAPES = (
    ("q2star", _Q2STAR, lambda W: solve_q2star(W)),
    ("triangle-unary", _TRIANGLE, lambda W: solve_triangle_unary(W)),
    ("two-chain-we", _TWO_CHAIN, lambda W: solve_two_chain_we(W)),
)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def single_plan_baseline(q: Query, W: WitnessSet) -> Factorization:
    """Best factorization that uses one plan for every witness."""
    best = None
    for v in TemplateTable.of(q).plans:
        f = assemble(W, (v,) * len(W))
        if best is None or f.length < best.length:
            best = f
    if best is None:
        raise ValueError("query has no plans")
    return best


def _flow_run(q, W, ordering=None) -> tuple[Factorization, int]:
    """(factorization, cut value); the graph and the cut are freed on return."""
    ordering = ordering or TemplateTable.of(q).ordering
    g = build_flow_graph(q, W, ordering)
    res = min_cut(g)
    return extract_factorization(g, res)[0], res.value


def _solve(q, W, policy, budget, ordering) -> RunReport:
    """The unverified report of connected `q` on its witnesses `W`, at
    least one, under `policy`.  Flow is proven optimal on queries with at
    most two minimal plans; one plan for all on hierarchical queries, which
    are exactly those with one minimal plan."""
    cls = classify(q)
    if policy == "exact":
        rep = solve_exact(q, W, budget=budget)
        if not rep.optimal:
            rep.notes = (f"budget exhausted after {rep.nodes} nodes",)
        return rep
    if policy == "flow":
        fact, cut_value = _flow_run(q, W, ordering)
        if cls.k is not None and cls.k <= 2:
            return RunReport(q.name, "flow", len(W), True, fact)
        note = f"cut value {cut_value}; optimality not guaranteed"
        return RunReport(q.name, "flow", len(W), False, fact, notes=(note,))
    # single-plan, and auto on a hierarchical query, whose one plan is optimal
    if policy == "single-plan" or "hierarchical" in cls:
        fact = single_plan_baseline(q, W)
        return RunReport(q.name, "single-plan", len(W), "hierarchical" in cls, fact)
    # the rest of auto: a closed form, two-plan flow, else exact search
    for tag, _, solve in _SHAPES:
        if tag in cls:
            return RunReport(q.name, tag, len(W), True, solve(W))
    if cls.k == 2:
        return RunReport(q.name, "flow", len(W), True, _flow_run(q, W, ordering)[0])
    rep = solve_exact(q, W, budget=budget)
    if rep.optimal:
        return rep
    # the budget ran out: flow's result replaces a longer incumbent, and is
    # proven where it meets the search's bound
    rep.notes = (f"exact budget exhausted after {rep.nodes} nodes; lower bound {rep.lower_bound}",)
    try:
        fact = _flow_run(q, W, ordering)[0]
    except ExtractionFailure:
        rep.notes += ("flow extraction failed",)
    else:
        if fact.length < rep.length:
            rep.method, rep.factorization = "flow", fact
            rep.optimal = fact.length == rep.lower_bound
    return rep


def _dispatch_components(q, W, policy, budget, ordering, verify) -> RunReport:
    """`dispatch` on a disconnected query: each connected component runs
    alone, with the caller's settings, on its part of `W` (`W.parts`, which
    `compute_witnesses` makes), and the report ANDs the parts.  Length and
    bounds add over disjoint variables, so the sum of the parts' optima is
    the optimum and the sum of their bounds (a part's length where it is
    optimal) a bound.  `W` is the product of its parts, so verifying each
    part against its own witnesses verifies the whole; the product itself
    is never built."""
    if ordering is not None:
        raise ValueError(f"{q.name} is disconnected; an ordering needs a connected query")
    if not W.parts:  # a hand-built product: its parts are not known
        raise ValueError(f"{q.name} is disconnected; pass its parts, not their product")
    reps = [
        dispatch(part.query, part, policy=policy, budget=budget, verify=verify)
        for part in W.parts
    ]
    bounds = [p.length if p.optimal else p.lower_bound for p in reps]
    fact = Factorization(
        plans=(), expression=e_and([p.expression for p in reps]),
        length=sum(p.length for p in reps), repeats=sum(p.repeats for p in reps),
    )
    return RunReport(
        q.name, "components", len(W), all(p.optimal for p in reps), fact,
        lower_bound=None if None in bounds else sum(bounds),
        notes=tuple(
            note for p in reps
            for note in (f"{p.query}: {p.method}", *(f"{p.query}: {n}" for n in p.notes))
        ),
        verified=True if all(p.verified for p in reps) else None,
        nodes=sum(p.nodes for p in reps),
    )


def dispatch(
    q: Query,
    W: WitnessSet,
    policy: str = "auto",
    budget: int = 500_000,
    ordering=None,
    verify: bool = True,
) -> RunReport:
    """Route to a solving method and return its report, verified when
    `verify` asks and expansion is feasible, and timed.

    policy: auto | exact | flow | single-plan; any other value, or a
    negative `budget`, raises `ValueError`.  A disconnected query runs one connected component
    at a time under `policy`, on the parts of `W` (see
    `_dispatch_components`); a part with no witnesses makes the whole
    empty.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; options: {', '.join(_POLICIES)}")
    if budget < 0:
        raise ValueError(f"the exact search budget cannot be negative (budget={budget})")
    start = time.perf_counter()
    if not len(W):
        rep = RunReport(q.name, "empty", 0, True, assemble(W, ()))
    elif len(connected_components(q)) > 1:
        rep = _dispatch_components(q, W, policy, budget, ordering, verify)
    else:
        rep = _solve(q, W, policy, budget, ordering)
        if verify:
            try:
                rep.verified = verify_equivalence(rep.factorization, W)
            except ExpansionTooLarge:
                rep.notes += ("equivalence verification skipped (expansion too large)",)
            else:
                if not rep.verified:
                    raise AssertionError(f"{rep.method} produced a non-equivalent factorization")
    rep.elapsed_ms = (time.perf_counter() - start) * 1000
    return rep
