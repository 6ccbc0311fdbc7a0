"""Integer-program construction for minimal factorization.

The model has a binary q(v_w) per (witness, minimal plan) pair and a binary
p per table-prefix instance, shared across witnesses.  Objective: minimize
the weighted sum of selected prefix instances.  Constraints: every witness
selects at least one plan; selecting a plan selects all its prefix
instances.  The module also exports LP text and can solve its own models
with a small branch-and-bound (no external solver), which doubles as an
independent cross-check of the assignment-space solver.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from .cq import Query
from .provenance import WitnessSet, instantiate
from .veo import Veo, enumerate_mveo, table_prefixes

log = logging.getLogger(__name__)

__all__ = [
    "IlpModel",
    "EmptyWitnessSet",
    "ModelBudgetExhausted",
    "build_ilp",
    "export_lp",
    "model_stats",
    "solve_model",
]


class EmptyWitnessSet(ValueError):
    """The model requires at least one witness."""


class ModelBudgetExhausted(RuntimeError):
    """`solve_model` ran out of node budget before proving an optimum.

    Carries the incumbent: its objective value (folded constant included;
    None when no solution was reached), its 1-variables and the number of
    search nodes spent.
    """

    def __init__(self, value: int | None, solution: dict[str, int], nodes: int):
        found = "no solution" if value is None else f"best found {value}"
        super().__init__(f"model search exhausted its budget after {nodes} nodes; {found}")
        self.value = value
        self.solution = solution
        self.nodes = nodes


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "-", token)


@dataclass
class IlpModel:
    """Binary covering model for minimal factorization."""

    query: Query
    n: int  # witnesses
    k: int  # minimal plans
    m: int  # atoms
    objective: dict[str, int]  # variable name -> weight
    constant: int  # folded objective offset
    plan_constraints: list[tuple[str, list[str]]]  # (label, choice vars): sum >= 1
    prefix_constraints: list[tuple[str, str]]  # (p, q): p - q >= 0
    binaries: list[str]
    reduced: bool = False
    # provenance: choice variable -> (witness key, veo index)
    choice_info: dict[str, tuple[str, int]] = field(default_factory=dict)

    @property
    def var_count(self) -> int:
        return len(self.binaries)

    @property
    def constraint_count(self) -> int:
        return len(self.plan_constraints) + len(self.prefix_constraints)


def _name_registry():
    taken: dict[str, object] = {}

    def register(base: str, key) -> str:
        name = base
        i = 2
        while name in taken and taken[name] != key:
            name = f"{base}_{i}"
            i += 1
        taken[name] = key
        return name

    return register


def build_ilp(q: Query, W: WitnessSet, reduce: bool = False) -> IlpModel:
    """Construct the covering model; with reduce=True, fold full-variable
    prefixes into a constant and merge plan variables into their identifying
    two-node prefixes where the plan set is a family of linear chains."""
    if not W.witnesses:
        raise EmptyWitnessSet("cannot build a model over zero witnesses")
    mveo = enumerate_mveo(q)
    prefixes = [table_prefixes(v, q) for v in mveo]
    register = _name_registry()

    objective: dict[str, int] = {}
    plan_constraints: list[tuple[str, list[str]]] = []
    prefix_constraints: list[tuple[str, str]] = []
    choice_info: dict[str, tuple[str, int]] = {}
    q_names: dict[tuple[int, int], str] = {}
    p_names: dict = {}  # instance path -> variable name
    p_weight: dict[str, int] = {}
    p_is_full: dict[str, bool] = {}
    p_of_choice: dict[str, list[str]] = {}

    allvars = q.variables
    for wi, w in enumerate(W.witnesses):
        choices = []
        for vi, v in enumerate(mveo):
            qn = register(f"q_v{vi + 1}__{_sanitize(w.key)}", f"q:{vi}:{w.key}")
            q_names[(wi, vi)] = qn
            choice_info[qn] = (w.key, vi)
            choices.append(qn)
            implied = []
            for tp in prefixes[vi]:
                inst = instantiate(tp, w)
                pn = p_names.get(inst.path)
                if pn is None:
                    token = "__".join(
                        "".join(f"{var}{_sanitize(val)}" for var, val in zip(node, vals))
                        for node, vals in inst.path
                    )
                    pn = register(f"p_{token}", ("p", inst.path))
                    p_names[inst.path] = pn
                    p_weight[pn] = tp.weight
                    p_is_full[pn] = inst.varset == allvars
                    objective[pn] = tp.weight
                elif p_weight[pn] != tp.weight:
                    raise AssertionError(
                        f"inconsistent weight for shared prefix {inst.serial}"
                    )
                prefix_constraints.append((pn, qn))
                implied.append(pn)
            p_of_choice[qn] = implied
        plan_constraints.append((f"plan_w{wi + 1}", choices))

    constant = 0
    if reduce:
        # fold full-variable prefixes (never shared across witnesses) into
        # their choice variables
        fold: dict[str, int] = {}
        for pn, qn in list(prefix_constraints):
            if p_is_full[pn]:
                fold[qn] = fold.get(qn, 0) + p_weight[pn]
        dropped = {pn for pn in p_weight if p_is_full[pn]}
        prefix_constraints = [
            (pn, qn) for pn, qn in prefix_constraints if pn not in dropped
        ]
        for pn in dropped:
            objective.pop(pn, None)
        for qn, impl in p_of_choice.items():
            p_of_choice[qn] = [pn for pn in impl if pn not in dropped]
        uniform = len(set(fold.values())) == 1 and len(fold) == len(choice_info)
        if uniform:
            constant = next(iter(fold.values())) * len(W.witnesses)
        else:
            for qn, wgt in fold.items():
                objective[qn] = objective.get(qn, 0) + wgt

        # linear-chain shorthand: a plan is identified by its first two nodes
        linear = all(
            len(v.root_paths) == len(v.vars_below) and all(len(n) == 1 for n in v.node)
            and _is_chain(v)
            for v in mveo
        )
        head2 = {v: _head_path(v, 2) for v in mveo}
        injective = len(set(head2.values())) == len(mveo)
        if uniform and linear and injective and len(q.variables) >= 3:
            merged_ok = True
            merge_map: dict[str, str] = {}
            for (wi, vi), qn in q_names.items():
                w = W.witnesses[wi]
                pair = instantiate(head2[mveo[vi]], w)
                pn = p_names.get(pair.path)
                if pn is None or pn not in objective:
                    merged_ok = False
                    break
                merge_map[qn] = pn
            if merged_ok:
                plan_constraints = [
                    (label, [merge_map[qn] for qn in choices])
                    for label, choices in plan_constraints
                ]
                prefix_constraints = [
                    (pn, merge_map.get(qn, qn)) for pn, qn in prefix_constraints
                ]
                prefix_constraints = [
                    (pn, cn) for pn, cn in prefix_constraints if pn != cn
                ]
                choice_info = {
                    merge_map[qn]: info for qn, info in choice_info.items()
                }
                q_names = {}

    q_name_list = [q_names[key] for key in sorted(q_names)] if q_names else []
    binaries = sorted(set(q_name_list) | set(objective)) if reduce else sorted(
        set(q_name_list) | set(p_names.values())
    )
    model = IlpModel(
        query=q,
        n=len(W.witnesses),
        k=len(mveo),
        m=q.m,
        objective=objective,
        constant=constant,
        plan_constraints=plan_constraints,
        prefix_constraints=prefix_constraints,
        binaries=binaries,
        reduced=reduce,
        choice_info=choice_info,
    )
    log.debug(
        "built %s model: %d vars, %d constraints",
        "reduced" if reduce else "full",
        model.var_count,
        model.constraint_count,
    )
    return model


def _is_chain(v: Veo) -> bool:
    cur = v
    while cur.children:
        if len(cur.children) > 1:
            return False
        cur = cur.children[0]
    return True


def _head_path(v: Veo, depth: int) -> tuple:
    path = []
    cur: Veo | None = v
    while cur is not None and len(path) < depth:
        path.append(cur.node)
        cur = cur.children[0] if cur.children else None
    return tuple(path)


def export_lp(m: IlpModel, sink=None) -> str:
    """Serialize to LP text (minimize / subject-to / binaries).  Deterministic:
    objective terms sorted by name, constraints in construction order.
    `sink` may be a path or a file-like object; the text is also returned."""
    lines = [
        f"\\ minimal factorization model for {m.query.name}"
        f" (n={m.n}, k={m.k}, m={m.m})",
    ]
    if m.constant:
        lines.append(f"\\ objective constant offset: {m.constant}")
    lines.append("Minimize")
    terms = " + ".join(
        f"{w} {name}" if w != 1 else name
        for name, w in sorted(m.objective.items())
    )
    lines.append(f" obj: {terms}")
    lines.append("Subject To")
    for label, choices in m.plan_constraints:
        lines.append(f" {label}: " + " + ".join(choices) + " >= 1")
    for i, (pn, qn) in enumerate(m.prefix_constraints, start=1):
        lines.append(f" pre_{i}: {pn} - {qn} >= 0")
    lines.append("Binaries")
    for name in m.binaries:
        lines.append(f" {name}")
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if sink is not None:
        if hasattr(sink, "write"):
            sink.write(text)
        else:
            with open(sink, "w") as fh:
                fh.write(text)
    return text


def model_stats(m: IlpModel) -> dict[str, int]:
    """Counts plus the size guarantee: constraints never exceed n(1+km)."""
    stats = {
        "vars": m.var_count,
        "constraints": m.constraint_count,
        "n": m.n,
        "k": m.k,
        "m": m.m,
    }
    bound = m.n * (1 + m.k * m.m)
    if m.constraint_count > bound:
        raise AssertionError(
            f"constraint count {m.constraint_count} exceeds n(1+km) = {bound}"
        )
    return stats


def solve_model(m: IlpModel, budget: int = 2_000_000) -> tuple[int, dict[str, int]]:
    """Solve the model exactly by depth-first branch-and-bound over the plan
    constraints (one choice variable per witness; implications propagated).

    Returns (optimal objective including the folded constant, assignment of
    1-variables).  Intended for fixture-scale models.  Raises
    `ModelBudgetExhausted`, carrying the incumbent, when the search is cut
    off by `budget` before it is complete.
    """
    implied_by: dict[str, list[str]] = {}
    for pn, qn in m.prefix_constraints:
        implied_by.setdefault(qn, []).append(pn)

    def closure(var: str) -> tuple[str, ...]:
        out: list[str] = []
        seen = {var}
        stack = [var]
        while stack:
            cur = stack.pop()
            out.append(cur)
            for nxt in implied_by.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return tuple(sorted(out))

    choice_closure: dict[str, tuple[str, ...]] = {}
    for _, choices in m.plan_constraints:
        for c in choices:
            if c not in choice_closure:
                choice_closure[c] = closure(c)

    best = [float("inf"), {}]
    count = {v: 0 for v in m.binaries}
    nodes = 0
    truncated = False

    def dfs(level: int, cost: int):
        nonlocal nodes, truncated
        if cost >= best[0]:
            return
        if level == len(m.plan_constraints):
            best[0] = cost
            best[1] = {v: 1 for v, c in count.items() if c > 0}
            return
        _, choices = m.plan_constraints[level]
        for c in choices:
            if nodes >= budget:
                truncated = True
                return
            nodes += 1
            added = 0
            for v in choice_closure[c]:
                if count[v] == 0:
                    added += m.objective.get(v, 0)
                count[v] += 1
            dfs(level + 1, cost + added)
            for v in choice_closure[c]:
                count[v] -= 1

    dfs(0, 0)
    if truncated:
        value = None if best[0] == float("inf") else best[0] + m.constant
        raise ModelBudgetExhausted(value, best[1], nodes)
    if best[0] == float("inf"):
        raise RuntimeError("model has no feasible solution")
    return best[0] + m.constant, best[1]
