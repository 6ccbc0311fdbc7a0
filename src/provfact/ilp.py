"""Integer-program construction for minimal factorization.

The model has a binary q(v_w) per (witness, minimal plan) pair and a binary
p per table-prefix instance, shared across witnesses.  Objective: minimize
the weighted sum of selected prefix instances.  Constraints: every witness
selects at least one plan; selecting a plan selects all its prefix
instances.  The p variables are the prefix instances `exact._prepare`
reads from the witness set's table (`WitnessSet.instances`), named in the
model's own first-use order, so both count the same instances.  The module
also exports LP text and solves its own models (no external solver) with
the exact engine's branch-and-bound, `exact._search`, run over the choice
variables' implication closures.
"""

from __future__ import annotations

import logging
import re

from .cq import Query
from .exact import _prepare, _search
from .provenance import WitnessSet

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

    Carries the incumbent: its objective value (folded constant included),
    its 1-variables and the number of search nodes spent.
    """

    def __init__(self, value: int, solution: dict[str, int], nodes: int):
        super().__init__(
            f"model search exhausted its budget after {nodes} nodes; best found {value}"
        )
        self.value = value
        self.solution = solution
        self.nodes = nodes


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "-", token)


class IlpModel:
    """Binary covering model for minimal factorization."""

    __slots__ = (
        "query", "n", "k", "m", "objective", "constant", "plan_constraints",
        "prefix_constraints", "binaries",
    )

    def __init__(
        self,
        query: Query,
        n: int,  # witnesses
        k: int,  # minimal plans
        m: int,  # atoms
        objective: dict[str, int],  # variable name -> weight
        constant: int,  # folded objective offset
        plan_constraints: list[tuple[str, list[str]]],  # (label, choice vars): sum >= 1
        prefix_constraints: list[tuple[str, str]],  # (p, q): p - q >= 0
        binaries: list[str],
    ) -> None:
        self.query, self.n, self.k, self.m = query, n, k, m
        self.objective, self.constant = objective, constant
        self.plan_constraints, self.prefix_constraints = plan_constraints, prefix_constraints
        self.binaries = binaries

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
    if not len(W):
        raise EmptyWitnessSet("cannot build a model over zero witnesses")
    inst, inst_lists, weights = _prepare(W)
    table = inst.table
    register = _name_registry()

    # one p variable per prefix instance, named in first-use order
    objective: dict[str, int] = {}
    p_names: dict[int, str] = {}  # instance id -> p variable
    full: set[str] = set()  # p variables of full-variable prefixes

    def p_name(iid: int) -> str:
        pn = p_names.get(iid)
        if pn is None:
            tid, pairs = inst.keys[iid]
            token = "__".join(
                "".join(f"{var}{_sanitize(val)}" for var, val in part)
                for part in table.split(tid, pairs)
            )
            pn = p_names[iid] = register(f"p_{token}", iid)
            objective[pn] = weights[iid]
            if len(pairs) == len(table.names):
                full.add(pn)
        return pn

    plan_constraints: list[tuple[str, list[str]]] = []
    prefix_constraints: list[tuple[str, str]] = []
    q_names: dict[tuple[int, int], str] = {}
    for wi, w in enumerate(W.witnesses):
        choices = []
        for vi, ids in enumerate(inst_lists[wi]):
            qn = register(f"q_v{vi + 1}__{_sanitize(w.key)}", ("q", wi, vi))
            q_names[(wi, vi)] = qn
            choices.append(qn)
            prefix_constraints.extend((p_name(i), qn) for i in ids)
        plan_constraints.append((f"plan_w{wi + 1}", choices))

    constant = 0
    if reduce:
        # fold full-variable prefixes (never shared across witnesses) into
        # their choice variables
        fold: dict[str, int] = {}
        for pn, qn in prefix_constraints:
            if pn in full:
                fold[qn] = fold.get(qn, 0) + objective[pn]
        prefix_constraints = [(pn, qn) for pn, qn in prefix_constraints if pn not in full]
        for pn in full:
            del objective[pn]
        uniform = len(set(fold.values())) == 1 and len(fold) == len(q_names)
        if uniform:
            constant = next(iter(fold.values())) * len(W.witnesses)
        else:
            for qn, wgt in fold.items():
                objective[qn] = objective.get(qn, 0) + wgt

        # linear-chain shorthand: where every plan is a chain of one-variable
        # nodes (its deepest root path holds every variable), a plan is
        # identified by its first two nodes
        deepest = [max(v.root_paths, key=len) for v in table.plans]
        head2 = [table.path_id(path[:2]) for path in deepest]
        # a head of weight > 0 is a table prefix of its plan, so each
        # witness's instance of it has a p variable, never a folded one
        if (uniform and len(q.variables) >= 3 and len(set(head2)) == len(head2)
                and all(len(path) == len(q.variables) for path in deepest)
                and all(table.weights[tid] for tid in head2)):
            heads = [inst.ids(tid, W.witnesses) for tid in head2]
            merge_map = {qn: p_names[heads[vi][wi]] for (wi, vi), qn in q_names.items()}
            plan_constraints = [
                (label, [merge_map[qn] for qn in choices])
                for label, choices in plan_constraints
            ]
            prefix_constraints = [
                (pn, cn) for pn, qn in prefix_constraints
                if (cn := merge_map.get(qn, qn)) != pn
            ]
            q_names = {}

    binaries = sorted(set(q_names.values()) | set(objective if reduce else p_names.values()))
    model = IlpModel(
        query=q,
        n=len(W.witnesses),
        k=len(table.plans),
        m=q.m,
        objective=objective,
        constant=constant,
        plan_constraints=plan_constraints,
        prefix_constraints=prefix_constraints,
        binaries=binaries,
    )
    log.debug(
        "built %s model: %d vars, %d constraints",
        "reduced" if reduce else "full",
        model.var_count,
        model.constraint_count,
    )
    return model


def export_lp(m: IlpModel) -> str:
    """Serialize to LP text (minimize / subject-to / binaries).  Deterministic:
    objective terms sorted by name, constraints in construction order."""
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
    return "\n".join(lines) + "\n"


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
    """Solve the model exactly with the exact engine's branch-and-bound.

    Each plan constraint is one item of `exact._search`, each of its choice
    variables one choice, which uses every variable of its implication
    closure at that variable's objective weight.  Returns (optimal
    objective including the folded constant, assignment of 1-variables).
    Raises `ModelBudgetExhausted`, carrying the incumbent, when `budget`
    cuts the search off before it proves the incumbent optimal.
    """
    implied_by: dict[str, list[str]] = {}
    for pn, qn in m.prefix_constraints:
        implied_by.setdefault(qn, []).append(pn)
    var_ids: dict[str, int] = {}

    def closure(var: str) -> list[int]:
        seen = {var}
        stack = [var]
        while stack:
            for nxt in implied_by.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return [var_ids.setdefault(v, len(var_ids)) for v in sorted(seen)]

    inst_lists = [[closure(c) for c in choices] for _, choices in m.plan_constraints]
    names = list(var_ids)
    weights = [m.objective.get(v, 0) for v in names]
    cost, chosen, nodes, bound = _search(inst_lists, weights, range(len(inst_lists)), budget)
    used = {i for choices, c in zip(inst_lists, chosen) for i in choices[c]}
    solution = {v: 1 for v in sorted(names[i] for i in used)}
    if bound < cost:
        raise ModelBudgetExhausted(cost + m.constant, solution, nodes)
    return cost + m.constant, solution
