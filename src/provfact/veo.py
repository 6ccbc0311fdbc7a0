"""Variable elimination orders (VEOs) for sj-free Boolean CQs.

A VEO is a rooted tree over a partition of the query variables such that
every atom's variables lie on a single root-to-node path.  Each VEO encodes
a query plan; its per-atom *table prefixes* (minimal root paths covering the
atom) are the sharable units of a factorization.  This module enumerates all
legal VEOs, computes dissociations and the Pareto-minimal set (mveo), and
the run orderings (flat and nested) consumed by the flow heuristic, with
their running-prefixes check.  `anchored` is the one rule for which atoms a
root path anchors: `dissociation_of` reads it, and so does
`assembly.TemplateTable`, which interns the paths and their weights.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import attrgetter

from .cq import Query, _Value

__all__ = [
    "Veo",
    "Ordering",
    "OmegaNode",
    "TooManyVariables",
    "InvalidPermutation",
    "NonRpOrdering",
    "veo_node",
    "enumerate_veos",
    "dissociation_of",
    "enumerate_mveo",
    "build_ordering",
]

Node = tuple[str, ...]

# Queries with more variables are rejected: enumeration lists every legal VEO.
_MAX_VARS = 8


class TooManyVariables(ValueError):
    """Query exceeds the variable cap for brute-force VEO enumeration."""


class InvalidPermutation(ValueError):
    """A flat ordering permutation does not cover mveo(Q) exactly once."""


class NonRpOrdering(ValueError):
    """An ordering lacks the running-prefixes property that strict mode
    (``provfact --strict-rp``) asks for."""


def _node_str(node: Node) -> str:
    return node[0] if len(node) == 1 else "(" + "".join(node) + ")"


class Veo(_Value):
    """A rooted tree of disjoint variable sets; immutable and canonically ordered."""

    _key = attrgetter("node", "children")

    def __init__(self, node: Node, children: tuple[Veo, ...] = ()) -> None:
        self.node, self.children = node, children

    @cached_property
    def serial(self) -> str:
        ns = _node_str(self.node)
        if not self.children:
            return ns
        if len(self.children) == 1:
            return f"{ns} <- {self.children[0].serial}"
        return f"{ns} <- (" + ", ".join(c.serial for c in self.children) + ")"

    @cached_property
    def vars_below(self) -> frozenset[str]:
        out = set(self.node)
        for c in self.children:
            out |= c.vars_below
        return frozenset(out)

    @cached_property
    def root_paths(self) -> frozenset[tuple[Node, ...]]:
        """All root paths of the tree (every prefix of every root-to-node path)."""
        out: set[tuple[Node, ...]] = set()
        stack: list[tuple[tuple[Node, ...], Veo]] = [((self.node,), self)]
        while stack:
            path, t = stack.pop()
            out.add(path)
            for c in t.children:
                stack.append((path + (c.node,), c))
        return frozenset(out)

    def __str__(self) -> str:
        return self.serial

    def __repr__(self) -> str:
        return f"Veo({self.serial!r})"


def veo_node(vars_: tuple[str, ...] | frozenset[str], children: tuple[Veo, ...] = ()) -> Veo:
    """Canonicalizing constructor: sorts node variables and children."""
    return Veo(tuple(sorted(vars_)), tuple(sorted(children, key=lambda c: c.serial)))


def _set_partitions(items: list) -> list[list[list]]:
    """All partitions of `items` into unordered nonempty blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1:])
        out.append([[first]] + part)
    return out


def enumerate_veos(q: Query) -> tuple[Veo, ...]:
    """All legal VEOs of q, sorted by canonical serialization.

    Brute force over rooted trees of variable-set partitions, pruning any
    branch that would split an atom's variables across subtrees.
    """
    variables = frozenset(q.variables)
    if len(variables) > _MAX_VARS:
        raise TooManyVariables(
            f"{len(variables)} variables exceeds the enumeration cap {_MAX_VARS}"
        )
    constraints = frozenset(a.varset for a in q.atoms)
    memo: dict[tuple[frozenset[str], frozenset[frozenset[str]]], tuple[Veo, ...]] = {}

    def trees(vs: frozenset[str], cons: frozenset[frozenset[str]]) -> tuple[Veo, ...]:
        key = (vs, cons)
        if key in memo:
            return memo[key]
        out: list[Veo] = []
        ordered = sorted(vs)
        for r in range(1, len(ordered) + 1):
            for root in itertools.combinations(ordered, r):
                root_set = frozenset(root)
                remaining = vs - root_set
                residual = [c - root_set for c in cons if c - root_set]
                if not remaining:
                    out.append(Veo(tuple(root)))
                    continue
                # variables bound together by a residual constraint must share a subtree
                parent = {v: v for v in remaining}

                def find(v):
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                    return v

                for c in residual:
                    it = iter(c)
                    head = find(next(it))
                    for v in it:
                        parent[find(v)] = head
                groups: dict[str, set[str]] = {}
                for v in remaining:
                    groups.setdefault(find(v), set()).add(v)
                group_list = [frozenset(g) for g in groups.values()]
                for part in _set_partitions(group_list):
                    block_trees = []
                    for block in part:
                        block_vars = frozenset().union(*block)
                        block_cons = frozenset(c for c in residual if c <= block_vars)
                        sub = trees(block_vars, block_cons)
                        if not sub:
                            break
                        block_trees.append(sub)
                    else:
                        for combo in itertools.product(*block_trees):
                            out.append(veo_node(root, tuple(combo)))
        result = tuple(sorted(out, key=lambda v: v.serial))
        memo[key] = result
        return result

    return trees(variables, constraints)


def anchored(q: Query, pathvars: set[str] | frozenset[str], node: Node) -> list[int]:
    """The indices of q's atoms anchored at `node`, the last node of a root
    path whose variables are `pathvars`: the atoms whose variables lie on
    the path and meet `node`.  In a legal plan each atom is anchored at
    exactly one node, and the path to it is the atom's table prefix."""
    return [
        i for i, a in enumerate(q.atoms) if a.varset <= pathvars and not a.varset.isdisjoint(node)
    ]


def dissociation_of(v: Veo, q: Query) -> tuple[frozenset[str], ...]:
    """Per-atom added-variable sets: vars on the atom's table prefix minus its own."""
    out = [frozenset()] * len(q.atoms)
    stack = [(v, frozenset(v.node))]
    while stack:
        t, pathvars = stack.pop()
        for i in anchored(q, pathvars, t.node):
            out[i] = pathvars - q.atoms[i].varset
        stack.extend((c, pathvars.union(c.node)) for c in t.children)
    return tuple(out)


def enumerate_mveo(q: Query) -> tuple[Veo, ...]:
    """The Pareto-minimal VEOs under componentwise subset order of dissociations.

    VEOs with identical dissociations collapse to the lexicographically
    smallest serialization; the result is sorted by serialization.  A
    dominator is strictly smaller in total size, so visiting the
    dissociations by size and comparing each only with the minimal ones
    kept so far finds them all (dominance is transitive).
    """
    first: dict[tuple[frozenset[str], ...], Veo] = {}
    for v in enumerate_veos(q):  # in serial order, so the first of each is the smallest
        first.setdefault(dissociation_of(v, q), v)
    minimal: list[tuple[frozenset[str], ...]] = []
    for d in sorted(first, key=lambda d: sum(map(len, d))):
        if not any(all(map(frozenset.__le__, m, d)) for m in minimal):
            minimal.append(d)
    keep = set(minimal)
    return tuple(v for d, v in first.items() if d in keep)


# --------------------------------------------------------------------------
# Run orderings for the flow construction
# --------------------------------------------------------------------------

class OmegaNode(_Value):
    """One segment of a nested ordering.

    Exactly one of the following holds: `sub` is set (a whole plan fragment,
    with no `ext`), `seq` is nonempty (sequential alternatives below the
    shared `ext` path), or `par` is nonempty (independent parallel
    components below `ext`, combined by Cartesian product).
    """

    __slots__ = ("ext", "sub", "seq", "par")
    _key = attrgetter("ext", "sub", "seq", "par")

    def __init__(
        self,
        ext: tuple[Node, ...] = (),
        sub: Veo | None = None,
        seq: tuple[OmegaNode, ...] = (),
        par: tuple[tuple[OmegaNode, ...], ...] = (),
    ) -> None:
        self.ext, self.sub, self.seq, self.par = ext, sub, seq, par

    def fragments(self) -> list[Veo]:
        """All plan fragments represented by this segment."""
        if self.sub is not None:
            return [self.sub]
        if self.seq:
            return [_chain(self.ext, (f,)) for alt in self.seq for f in alt.fragments()]
        comps = [[f for alt in comp for f in alt.fragments()] for comp in self.par]
        return [_chain(self.ext, combo) for combo in itertools.product(*comps)]


def _chain(ext: tuple[Node, ...], tails: tuple[Veo, ...]) -> Veo:
    cur = veo_node(ext[-1], tails)
    for nd in reversed(ext[:-1]):
        cur = veo_node(nd, (cur,))
    return cur


class Ordering(_Value):
    """An ordering of mveo(Q) for the flow graph: flat columns or nested
    segments.  `veos` lists the plans of the segments in order, and `rp` says
    whether the ordering has the running-prefixes property."""

    __slots__ = ("mode", "alts", "veos", "rp")
    _key = attrgetter("mode", "alts", "veos", "rp")

    def __init__(self, mode: str, alts: tuple[OmegaNode, ...]) -> None:
        self.mode, self.alts = mode, alts  # mode: "flat" | "nested-rp"
        self.veos = tuple(f for alt in alts for f in alt.fragments())
        self.rp = _running_prefixes(alts)


def _running_prefixes(alts: tuple[OmegaNode, ...]) -> bool:
    """Whether each root path of the fragments of `alts` lies in one
    contiguous run of them, and so on along every sequence and parallel
    component below them (whose fragments hang below the segment's `ext`)."""
    last: dict[tuple[Node, ...], int] = {}
    for i, alt in enumerate(alts):
        for p in {p for f in alt.fragments() for p in f.root_paths}:
            if last.setdefault(p, i) < i - 1:
                return False
            last[p] = i
    return all(_running_prefixes(alt.seq) and all(map(_running_prefixes, alt.par)) for alt in alts)


def _nest(fragments: list[Veo]) -> tuple[OmegaNode, ...]:
    """Group plan fragments into nested segments by shared root nodes."""
    groups: dict[Node, list[Veo]] = {}
    for f in fragments:
        groups.setdefault(f.node, []).append(f)
    out: list[OmegaNode] = []
    for node_key in sorted(groups):
        members = sorted(groups[node_key], key=lambda v: v.serial)
        if len(members) == 1:
            out.append(OmegaNode(sub=members[0]))
            continue
        forests = [m.children for m in members]
        if all(len(fr) == 1 for fr in forests):
            out.append(OmegaNode(ext=(node_key,), seq=_nest([fr[0] for fr in forests])))
            continue
        par = _try_parallel(node_key, members)
        if par is not None:
            out.append(par)
        else:
            # mixed shapes: keep the group's members adjacent as plain leaves
            out.extend(OmegaNode(sub=m) for m in members)
    return tuple(out)


def _try_parallel(node_key: Node, members: list[Veo]) -> OmegaNode | None:
    """Detect a Cartesian-product group: identical component variable-set
    signatures across members and a full product of per-component options."""
    sigs = {
        tuple(sorted((c.vars_below for c in m.children), key=sorted))
        for m in members
    }
    if len(sigs) != 1:
        return None
    comp_varsets = sorted(next(iter(sigs)), key=sorted)
    if len(comp_varsets) < 2:
        return None
    options: list[list[Veo]] = []
    for cv in comp_varsets:
        opts = sorted(
            {c for m in members for c in m.children if c.vars_below == cv},
            key=lambda v: v.serial,
        )
        options.append(opts)
    if math.prod(len(o) for o in options) != len(members):
        return None
    combos = {
        tuple(sorted(combo, key=lambda v: v.serial))
        for combo in itertools.product(*options)
    }
    have = {tuple(sorted(m.children, key=lambda v: v.serial)) for m in members}
    if combos != have:
        return None
    return OmegaNode(
        ext=(node_key,), par=tuple(_nest(list(opts)) for opts in options)
    )


def build_ordering(
    q: Query,
    mode: str = "nested-rp",
    perm: list[int] | None = None,
    mveo: tuple[Veo, ...] | None = None,
) -> Ordering:
    """Build a run ordering over mveo(q).

    nested-rp: group plans by root node, order groups by their variable
    tuples, recurse below shared roots, and split independent components
    into parallel segments.  flat: use the canonical mveo order or an
    explicit 0-based permutation of it.
    """
    plans = mveo if mveo is not None else enumerate_mveo(q)
    if mode == "nested-rp":
        return Ordering(mode="nested-rp", alts=_nest(list(plans)))
    if mode == "flat":
        if perm is None:
            perm = list(range(len(plans)))
        if sorted(perm) != list(range(len(plans))):
            raise InvalidPermutation(
                f"{perm} is not a permutation of 0..{len(plans) - 1}"
            )
        ordered = tuple(plans[i] for i in perm)
        return Ordering(mode="flat", alts=tuple(OmegaNode(sub=v) for v in ordered))
    raise ValueError(f"unknown ordering mode: {mode!r}")
