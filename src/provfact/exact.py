"""Exact minimal-factorization search over plan assignments.

Depth-first branch-and-bound: one decision per witness (which minimal plan
it uses), cost counted over distinct prefix instances via reference counts.
`_prepare` reads each witness's instances, ``(template id, binding pairs)``,
as ids of the witness set's one table (`WitnessSet.instances`).
Witnesses are ordered by decreasing sharing opportunity so conflicts surface
early, and independent sharing components are solved separately.  Pruning
uses an admissible sharing-aware bound: private prefix instances count at
full weight, shareable ones at weight divided by the number of undecided
witnesses that could still use them.

`_search` sees only integer id lists (one list per choice per item), so the
covering model of `ilp` is solved by the same search over its choice
variables' implication closures.  A search cut short by its node budget
still proves its incumbent when the bound of its open frontier meets it,
so `solve_exact` and `ilp.solve_model` agree on what is proven.

`RunReport` is the one result record of a run, from every solver to the
CLI: `solve_exact` returns its own, method ``exact``, with the plans it
chose and their assembled expression, whose length must be the searched
cost; `special.dispatch` returns one for every method.
"""

from __future__ import annotations

import math
import sys

from . import _BUDGET
from .assembly import Expr, TemplateTable, assemble
from .cq import Query, _linked
from .provenance import WitnessSet
from .veo import Veo

__all__ = ["RunReport", "solve_exact", "lower_bound"]

_EPS = 1e-6


class RunReport:
    """Outcome of one factorization run: the expression found, the plans
    it was assembled from (one per witness, in witness order; () for an AND
    of parts or an empty set), whether it is proven optimal, and a certified
    lower bound where one is known.  Its length is the expression's, and
    its repeats are that length less ``len(W.distinct_tuples)``.  Each
    solver builds its own report, by the rule that proves it; `nodes`
    counts exact search nodes, 0 when the exact search did not run;
    `special.dispatch` sets `verified` and `elapsed_ms`."""

    __slots__ = (
        "query", "method", "n", "optimal", "expression", "plans", "lower_bound",
        "elapsed_ms", "notes", "verified", "nodes",
    )

    def __init__(
        self, query: str, method: str, n: int, optimal: bool, expression: Expr,
        plans: tuple[Veo, ...] = (), lower_bound: int | None = None,
        notes: tuple[str, ...] = (), verified: bool | None = None, nodes: int = 0,
    ) -> None:
        self.query, self.method, self.n, self.optimal = query, method, n, optimal
        self.expression, self.plans, self.lower_bound = expression, plans, lower_bound
        self.notes, self.verified, self.nodes = notes, verified, nodes
        self.elapsed_ms = 0.0

    @property
    def length(self) -> int:
        return self.expression.length


def lower_bound(q: Query, witnesses) -> int:
    """Admissible bound: per witness, the cheapest full-variable prefix load
    over its plans, whose instances no other witness shares.  Connected
    queries only: `TemplateTable.prefix_ids` raises `DisconnectedQueryError`."""
    table = TemplateTable.of(q)
    nvars = len(table.names)
    full = [
        sum(table.weights[t] for t in ids if sum(map(len, table.paths[t])) == nvars)
        for ids in table.prefix_ids
    ]
    return sum(min(full) for _ in witnesses) if witnesses else 0


def _prepare(W: WitnessSet):
    """Every (witness, plan) prefix-instance list, as ids of `W.instances`
    read one column per table-prefix template (`Instances.ids`).

    Returns the instance table, the id lists per witness and plan (in
    ``table.plans`` order) and the weight of each id.  Raises
    `DisconnectedQueryError` on a disconnected query (`TemplateTable.prefix_ids`),
    before `W.instances` reads its witnesses, a product not built yet.
    """
    prefix_ids = TemplateTable.of(W.query).prefix_ids
    inst = W.instances  # the shared table's plan paths have the same ids in every copy
    tids = dict.fromkeys(tid for ids in prefix_ids for tid in ids)
    column = {tid: inst.ids(tid, W.witnesses) for tid in tids}
    # [witness][plan] -> instance ids
    inst_lists = list(zip(*[zip(*map(column.__getitem__, ids)) for ids in prefix_ids]))
    return inst, inst_lists, [inst.table.weights[tid] for tid, _ in inst]


def _reduce_plans(inst_lists, weights):
    """Per-witness plan dominance, iterated to a fixpoint.

    Two plans whose shareable-instance sets coincide differ only in private
    cost, so only the cheapest (lex-first on ties) can appear in a
    lexicographically-first optimum.  A plan is likewise dominated when
    another plan's shareable set is a subset and its worst-case cost
    (private + all its shareable weights) does not exceed the private cost.
    Dropping plans shrinks the potential-user sets, which may privatize more
    instances, hence the fixpoint loop.

    Returns per witness its kept plans and, aligned, their private costs and
    shared ids (used by more than one witness) as the last pass split them,
    in `inst_lists` order, which fixes the float order of the search bound;
    and per id the witnesses whose kept plans use it, which the last pass,
    changing nothing, counted over the final kept plans.
    """
    n = len(inst_lists)
    kept = [list(range(len(choices))) for choices in inst_lists]
    while True:
        pb: dict[int, set[int]] = {}
        for wi in range(n):
            for vi in kept[wi]:
                for i in inst_lists[wi][vi]:
                    pb.setdefault(i, set()).add(wi)
        changed = False
        privc, shares = [], []
        for wi in range(n):
            priv, share = [], []
            for vi in kept[wi]:
                pc, sh = 0, []
                for i in inst_lists[wi][vi]:
                    if len(pb[i]) > 1:
                        sh.append(i)
                    else:
                        pc += weights[i]
                priv.append(pc)
                share.append(sh)
            privc.append(priv)
            shares.append(share)
            sets = list(map(frozenset, share))
            worst = [pc + sum(weights[i] for i in ids) for pc, ids in zip(priv, sets)]
            new = [
                vi for a, vi in enumerate(kept[wi])
                if not any(
                    (priv[b] if sets[b] == sets[a] else worst[b], vj) < (priv[a], vi)
                    for b, vj in enumerate(kept[wi])
                    if b != a and sets[b] <= sets[a]
                )
            ]
            if new != kept[wi]:
                kept[wi] = new
                changed = True
        if not changed:
            return kept, privc, shares, pb


def _solve_component(wits, kept, priv, share, weights, order_key, budget):
    """Lex-first DFS over one sharing component.

    Returns (cost, (wi, vi) pairs in search order, nodes, frontier); the
    frontier bound is the cost unless the budget ran out.
    The greedy incumbent only seeds the bound (exclusive, +1), so the first
    complete assignment the DFS accepts is the lexicographically first
    optimum in search order.
    """
    order = sorted(wits, key=order_key)
    n = len(order)

    # per-position kept plans, with their private costs and shared ids
    plans = [kept[wi] for wi in order]
    privc = [priv[wi] for wi in order]
    shares = [share[wi] for wi in order]

    # shared-instance bookkeeping local to the component
    users: dict[int, list[tuple[int, int]]] = {}
    for p in range(n):
        for ci, ids in enumerate(shares[p]):
            for i in ids:
                users.setdefault(i, []).append((p, ci))
    und = {i: len({p for p, _ in us}) for i, us in users.items()}
    refcount = dict.fromkeys(users, 0)

    rem = [[0.0] * len(plans[p]) for p in range(n)]
    for i, us in users.items():
        c = weights[i] / und[i]
        for p, ci in us:
            rem[p][ci] += c
    minrem = [min(privc[p][ci] + rem[p][ci] for ci in range(len(plans[p]))) for p in range(n)]
    undecided_total = sum(minrem)

    def greedy():
        used: set[int] = set()
        total = 0
        asg = []
        for p, wi in enumerate(order):
            best = None
            for ci, vi in enumerate(plans[p]):
                add = privc[p][ci] + sum(
                    weights[i] for i in shares[p][ci] if i not in used
                )
                if best is None or add < best[0]:
                    best = (add, ci)
            total += best[0]
            asg.append(best[1])
            used.update(shares[p][best[1]])
        return total, asg

    greedy_cost, greedy_asg = greedy()
    best_cost = greedy_cost + 1  # exclusive: lets DFS re-find a tying optimum
    best_from_dfs = None

    nodes = 0
    exhausted = False
    level = 0
    choice = [0] * n
    assign_cur = [0] * n
    cost_at = [0] * (n + 1)
    entry_lb = [0.0] * n  # admissible bound for the whole subtree at a level

    # each position's distinct shareable ids, in first-use order
    distinct = [list(dict.fromkeys(i for ids in shares[p] for i in ids)) for p in range(n)]

    def shift(i, p, c, dirty):
        # add c to the share of id i that every later user carries
        for p2, ci in users[i]:
            if p2 > p:
                rem[p2][ci] += c
                dirty.add(p2)

    def retouch(dirty):
        nonlocal undecided_total
        for p in dirty:
            m = min(privc[p][ci] + rem[p][ci] for ci in range(len(plans[p])))
            if m != minrem[p]:
                undecided_total += m - minrem[p]
                minrem[p] = m

    def enter(p):
        # witness at p becomes decided: shrink denominators of its instances
        nonlocal undecided_total
        entry_lb[p] = cost_at[p] + undecided_total
        undecided_total -= minrem[p]
        dirty = set()
        for i in distinct[p]:
            und[i] -= 1
            if refcount[i] == 0 and und[i] > 0:
                shift(i, p, weights[i] * (1.0 / und[i] - 1.0 / (und[i] + 1)), dirty)
        retouch(dirty)

    def leave(p):
        nonlocal undecided_total
        dirty = set()
        for i in distinct[p]:
            if refcount[i] == 0 and und[i] > 0:
                shift(i, p, -(weights[i] * (1.0 / und[i] - 1.0 / (und[i] + 1))), dirty)
            und[i] += 1
        retouch(dirty)
        undecided_total += minrem[p]

    def apply(p, ci):
        added = privc[p][ci]
        dirty = set()
        for i in shares[p][ci]:
            if refcount[i] == 0:
                added += weights[i]
                if und[i] > 0:
                    shift(i, p, -(weights[i] / und[i]), dirty)
            refcount[i] += 1
        retouch(dirty)
        return added

    def undo(p, ci):
        dirty = set()
        for i in shares[p][ci]:
            refcount[i] -= 1
            if refcount[i] == 0 and und[i] > 0:
                shift(i, p, weights[i] / und[i], dirty)
        retouch(dirty)

    enter(0)
    while level >= 0:
        if level == n:
            if cost_at[n] < best_cost:
                # strict improvement keeps the first optimum in search order
                best_cost = cost_at[n]
                best_from_dfs = assign_cur.copy()
            level -= 1
            undo(level, assign_cur[level])
            continue
        if choice[level] == len(plans[level]):
            choice[level] = 0
            leave(level)
            level -= 1
            if level >= 0:
                undo(level, assign_cur[level])
            continue
        if nodes >= budget:
            exhausted = True
            break
        ci = choice[level]
        choice[level] += 1
        nodes += 1
        added = apply(level, ci)
        newcost = cost_at[level] + added
        if newcost + math.ceil(undecided_total - _EPS) < best_cost:
            assign_cur[level] = ci
            cost_at[level + 1] = newcost
            level += 1
            if level < n:
                enter(level)
        else:
            undo(level, ci)

    if best_from_dfs is not None:
        cost, chosen = best_cost, best_from_dfs
    else:
        cost, chosen = greedy_cost, greedy_asg

    frontier = cost
    if exhausted:
        # the open frontier bounds any optimum the truncated search missed
        open_bounds = [
            int(math.ceil(entry_lb[lv] - _EPS))
            for lv in range(level + 1)
            if lv < n and choice[lv] < len(plans[lv])
        ]
        frontier = min([cost] + open_bounds)

    picks = [(wi, plans[p][chosen[p]]) for p, wi in enumerate(order)]
    return cost, picks, nodes, frontier


def _search(inst_lists, weights, tiebreak, budget):
    """Minimize the weighted count of distinct ids over one choice per item.

    `inst_lists[i][c]` lists the ids that choice c of item i uses; `tiebreak[i]`
    orders items that share equally.  Returns (cost, the choice per item,
    nodes, lower bound).  The bound is the cost unless `budget` cut the
    search short of a proof: a truncated search whose open frontier meets
    its incumbent has proven it optimal all the same.
    """
    kept, privc, shares, pb = _reduce_plans(inst_lists, weights)

    # search order: most shared-id candidates first, then the tie-break
    shared_count = [sum(map(len, share)) for share in shares]

    def order_key(wi):
        return (-shared_count[wi], tiebreak[wi])

    comps = _linked(len(inst_lists), pb.values())  # the sharing components
    comps.sort(key=lambda ws: min(order_key(wi) for wi in ws))

    total_cost = 0
    total_nodes = 0
    total_frontier = 0  # a component searched to the end adds its cost
    chosen = [0] * len(inst_lists)
    for wits in comps:
        left = max(budget - total_nodes, 0)
        cost, picks, nodes, frontier = _solve_component(
            wits, kept, privc, shares, weights, order_key, left
        )
        total_cost += cost
        total_nodes += nodes
        total_frontier += frontier
        for wi, vi in picks:
            chosen[wi] = vi
    return total_cost, chosen, total_nodes, total_frontier


def solve_exact(q: Query, W: WitnessSet, budget: int = _BUDGET) -> RunReport:
    """Search all plan assignments for a minimum-length factorization.

    Returns the report of method ``exact``.  `budget` caps the number of
    search nodes; when it runs out before a proof, the incumbent is
    reported with optimal=False and a frontier-derived lower bound.
    """
    if not len(W):
        return RunReport(q.name, "exact", 0, True, assemble(W, ()), lower_bound=0)

    inst, inst_lists, weights = _prepare(W)
    total_cost, chosen, total_nodes, bound = _search(
        inst_lists, weights, [w.key for w in W.witnesses], budget
    )

    plans = tuple(inst.table.plans[vi] for vi in chosen)
    expr = assemble(W, plans)
    if expr.length != total_cost:
        raise AssertionError(
            f"assembled length {expr.length} != searched cost {total_cost}"
        )
    optimal = bound == total_cost
    if "logging" in sys.modules:  # a process that never imported it shows no record
        sys.modules["logging"].getLogger(__name__).debug(
            "exact search: %d nodes, length %d, optimal=%s", total_nodes, total_cost, optimal
        )
    return RunReport(
        q.name, "exact", len(W), optimal, expr, plans, lower_bound=bound, nodes=total_nodes
    )

