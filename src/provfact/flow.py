"""Flow/min-cut heuristic for minimal factorization.

Each witness contributes a source-to-sink chain of plan alternatives (one
per ordering leaf); every prefix instance becomes a weighted node that
bypasses the chain segment its plan positions span, shared across witnesses.
A minimum s-t node cut then selects one plan per witness plus the prefix
instances those plans need; cross-witness paths through shared instance
nodes are what can push the cut above the true optimum on non-amenable
queries (leakage).

Parallel segments of a nested ordering become parallel sub-chains between
shared connectors, so a cut chooses one alternative per independent
component.

The network is stored contracted.  A witness chain starts at the source
and ends at the sink themselves, so only the connectors between its
alternatives are nodes.  A capacity node whose entries all leave one
connector (every leaf node, and most instance nodes) is the single arc
``connector -> out``; only the others keep a separate entry node.  Both
contractions keep every finite cut, so the cut `min_cut` returns (the
smallest minimum-cut source side, which is unique) is the same as on the
uncontracted network.  Prefix instances are interned as integer ids keyed
by ``(template id, binding pairs)`` in the query's `TemplateTable`, which
also gives their weights; the ordering's shape is walked once, and each
witness keeps only its instance ids.  A capacity node is addressed only by
its index and stored only as its arc.  Extraction hands each witness one of
the ordering's own plan objects: the first whose needs the cut meets.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from itertools import compress, product, repeat

from ._mincut import max_flow
from .cq import Query
from .provenance import Factorization, TemplateTable, Witness, WitnessSet, assemble
from .veo import Ordering, Veo

log = logging.getLogger(__name__)

__all__ = [
    "Arcs",
    "FlowGraph",
    "FlowResult",
    "NonRpOrdering",
    "ExtractionFailure",
    "build_flow_graph",
    "min_cut",
    "extract_factorization",
    "kernel_name",
]


class NonRpOrdering(ValueError):
    """strict running-prefixes mode rejected a non-RP ordering."""


class ExtractionFailure(RuntimeError):
    """No plan assignment could be read off the minimum cut."""


def kernel_name(kind: str = "auto") -> str:
    """The max-flow kernel's name for benchmark records: always "py", the
    pure-Python `_mincut`, which is the only one."""
    return "py"


# Node ids: 0 is the source S, 1 the sink T, then every witness's own
# connectors, then the capacity nodes.  Within the skeleton a connector is
# witness-local: 0 and 1 stand for S and T, and c >= 2 is node c + wi * K
# of witness wi, K being the skeleton's connector count.
_S, _T = 0, 1


@dataclass
class _Skeleton:
    """The witness-independent shape of the network for one ordering.

    A slot is one prefix instance a witness attaches to the network: slot j
    of every witness is ``sites[j] = (template id, left, right, leaf)``, an
    instance of that template of the query's `TemplateTable` between
    connectors left and right, at a leaf site when `leaf` is a leaf index.
    ``needs[i] = (slots, leaves)`` says when a witness may take plan i of
    ``ordering.veos``: the cut pays the instances of those slots and cuts
    those leaves.
    """

    sites: list[tuple[int, int, int, int | None]] = field(default_factory=list)
    leaves: list[tuple[int, int]] = field(default_factory=list)  # leaf -> (left, right)
    needs: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    connectors: int = 0  # own connectors per witness


def _skeleton(table: TemplateTable, ordering: Ordering) -> _Skeleton:
    """Walk the ordering once: connectors, slots, leaf groups and needs."""
    sk = _Skeleton()

    def walk_seq(alts, a: int, b: int, cum) -> list[tuple[tuple, tuple]]:
        conns = [a]
        for _ in range(len(alts) - 1):
            conns.append(2 + sk.connectors)
            sk.connectors += 1
        conns.append(b)
        return [
            need for i, alt in enumerate(alts) for need in walk_alt(alt, conns[i], conns[i + 1], cum)
        ]

    def walk_alt(alt, a: int, b: int, cum) -> list[tuple[tuple, tuple]]:
        """The needs of ``alt.fragments()``, in that order."""
        new_cum = cum + alt.ext
        start = len(sk.sites)
        for d in range(len(cum) + 1, len(new_cum) + 1):
            tid = table.path_id(new_cum[:d])
            if table.weights[tid]:
                sk.sites.append((tid, a, b, None))
        if alt.sub is not None:
            # the plan's root paths below new_cum are new_cum + the sub's
            leaf = len(sk.leaves)
            sk.leaves.append((a, b))
            for p in sorted(alt.sub.root_paths):
                tid = table.path_id(new_cum + p)
                if table.weights[tid]:
                    sk.sites.append((tid, a, b, leaf))
            return [(tuple(range(start, len(sk.sites))), (leaf,))]
        own = tuple(range(start, len(sk.sites)))
        if alt.seq:
            return [(own + slots, leaves) for slots, leaves in walk_seq(alt.seq, a, b, new_cum)]
        # a par segment takes one plan per component, in `fragments` order
        comps = [walk_seq(comp, a, b, new_cum) for comp in alt.par]
        return [
            (own + sum((c[0] for c in combo), ()), sum((c[1] for c in combo), ()))
            for combo in product(*comps)
        ]

    sk.needs = walk_seq(ordering.alts, _S, _T, ())
    if len(sk.needs) != len(ordering.veos):
        raise AssertionError(f"{len(sk.needs)} needs for {len(ordering.veos)} plans")
    return sk


class Arcs:
    """The arcs of a flow network in three typed buffers, indexed by arc:
    `tail` and `head` node ids (``array("i")``) and `cap` (``array("q")``).

    Sized, and iterates as ``(tail, head, cap)`` triples in insertion order,
    the form `_mincut.max_flow` takes.
    """

    __slots__ = ("tail", "head", "cap")

    def __init__(self) -> None:
        self.tail = array("i")
        self.head = array("i")
        self.cap = array("q")

    def __len__(self) -> int:
        return len(self.tail)

    def __iter__(self):
        return zip(self.tail, self.head, self.cap)

    def extend(self, tails, heads, caps) -> None:
        """Append the arcs ``zip(tails, heads, caps)``."""
        self.tail.extend(tails)
        self.head.extend(heads)
        self.cap.extend(caps)


@dataclass
class FlowGraph:
    """The contracted flow network of one (query, witnesses, ordering).

    `arcs` holds every arc as ``(tail, head, cap)`` in flat buffers (see
    `Arcs`); an uncuttable arc has capacity `inf`.  Capacity nodes are
    addressed by index only: cap node c is arc ``cap_arc[c]`` of `arcs`
    ``(in, out, cap)``, cut when `in` is on the source side and `out` is not
    (`in` is the connector when the node has one entry): leaf node
    ``wi * nleaves + leaf`` of witness wi, then one node per unfolded prefix
    instance, whose id `p_instance` gives.  Instance ids index `instances`
    (``(template id, binding pairs)`` in the query's `TemplateTable`
    `templates`) and `payer` (the cap node that carries the instance's
    weight: its own, or the leaf it was folded into).  `slots` holds each
    witness's instance ids, ``len(skeleton.sites)`` per witness.
    """

    query: Query
    witnesses: WitnessSet
    ordering: Ordering
    node_count: int
    arcs: Arcs
    source: int
    sink: int
    cap_arc: array
    p_instance: array
    inf: int
    skeleton: _Skeleton
    templates: TemplateTable
    instances: list[tuple[int, tuple]]
    payer: array
    slots: array

    def cap_text(self, c: int) -> str:
        """Readable name of cap node `c`, e.g. ``q3.1`` or ``p[x1 <- y2]``."""
        nq = len(self.cap_arc) - len(self.p_instance)
        if c < nq:
            return "q{}.{}".format(*divmod(c, len(self.skeleton.leaves)))
        return f"p[{self.templates.serial(*self.instances[self.p_instance[c - nq]])}]"

    def dot(self) -> str:
        """GraphViz rendering of the contracted network (for --dump-graph)."""
        k = self.skeleton.connectors
        first_cap = 2 + len(self.witnesses) * k
        names = {self.source: "S", self.sink: "T"}
        for nid in range(2, first_cap):
            names[nid] = f"c{(nid - 2) // k}.{(nid - 2) % k}"
        tail, head = self.arcs.tail, self.arcs.head
        for c, i in enumerate(self.cap_arc):
            text = self.cap_text(c)
            if tail[i] >= first_cap:  # a separate entry node
                names[tail[i]] = f"{text}.in"
                text += ".out"
            names[head[i]] = text
        lines = ["digraph flow {", "  rankdir=LR;"]
        for nid in range(self.node_count):
            name = names[nid].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{nid} [label="{name}"];')
        for u, v, c in self.arcs:
            style = "" if c < self.inf else " [style=dashed]"
            cap = str(c) if c < self.inf else "inf"
            lines.append(f'  n{u} -> n{v} [label="{cap}"]{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class FlowResult:
    """A maximum flow's value and canonical cut: `reachable` marks the source
    side, and `cut_mask` holds a 1 per cut cap node, by index."""

    value: int
    cut_mask: bytearray
    reachable: list[bool]


def build_flow_graph(
    q: Query, W: WitnessSet, ordering: Ordering, strict_rp: bool = False
) -> FlowGraph:
    """Construct the witness-chain / instance-bypass graph for `ordering`."""
    if strict_rp and not ordering.rp:
        raise NonRpOrdering(
            "ordering violates the running-prefixes property in strict mode"
        )
    table = TemplateTable(q)
    sk = _skeleton(table, ordering)
    table.check(W)
    k = sk.connectors
    plan = [(tid, table.getters[tid], a, b, leaf) for tid, a, b, leaf in sk.sites]

    # pass 1: intern every witness's instances and merge their sites into
    # runs.  A run spans connectors run_left -> run_right; run_leaf is the
    # index ``wi * len(sk.leaves) + leaf`` of its leaf node, or -1 when it is
    # no leaf site or was extended.  An instance's runs are chained from
    # first[iid] to last[iid] through run_next (-1 ends the chain).
    nleaves = len(sk.leaves)
    ids: dict[tuple[int, tuple], int] = {}
    weights: list[int] = []
    first, last = array("i"), array("i")
    run_left, run_right = array("i"), array("i")
    run_leaf, run_next = array("i"), array("i")
    slots = array("i")
    for wi, w in enumerate(W.witnesses):
        binding = w.binding
        off = wi * k
        qoff = wi * nleaves
        for tid, get, a, b, leaf in plan:
            if a > _T:
                a += off
            if b > _T:
                b += off
            key = (tid, get(binding))
            iid = ids.get(key)
            if iid is None:
                iid = ids[key] = len(weights)
                weights.append(table.weights[tid])
                first.append(len(run_left))
                last.append(len(run_left))
            else:
                r = last[iid]
                if run_right[r] == a:  # adjacent to the previous run: extend it
                    run_right[r] = b
                    run_leaf[r] = -1
                    slots.append(iid)
                    continue
                run_next[r] = last[iid] = len(run_left)
            slots.append(iid)
            run_left.append(a)
            run_right.append(b)
            run_leaf.append(-1 if leaf is None else qoff + leaf)
            run_next.append(-1)

    # fold instances touched by exactly one leaf globally into that leaf's node
    q_caps = array("q", [0]) * (len(W.witnesses) * nleaves)
    payer = array("i", [-1]) * len(weights)
    for iid, r in enumerate(first):
        if r == last[iid] and run_leaf[r] >= 0:
            payer[iid] = run_leaf[r]
            q_caps[run_leaf[r]] += weights[iid]

    inf = sum(weights) + 1
    next_id = 2 + len(W.witnesses) * k
    arcs, cap_arc, p_instance = Arcs(), array("i"), array("i")
    for c, cap in enumerate(q_caps):
        wi, li = divmod(c, nleaves)
        a, b = (x if x <= _T else x + wi * k for x in sk.leaves[li])
        cap_arc.append(len(arcs))
        arcs.extend((a, next_id), (next_id, b), (cap, inf))
        next_id += 1

    for iid, r in enumerate(first):
        if payer[iid] >= 0:
            continue
        payer[iid] = len(cap_arc)
        p_instance.append(iid)
        lefts: dict[int, None] = {}
        rights: dict[int, None] = {}
        while r >= 0:
            lefts[run_left[r]] = None
            rights[run_right[r]] = None
            r = run_next[r]
        if len(lefts) == 1:
            (nin,) = lefts
        else:
            nin = next_id
            next_id += 1
            arcs.extend(lefts, repeat(nin, len(lefts)), repeat(inf, len(lefts)))
        nout = next_id
        next_id += 1
        cap_arc.append(len(arcs))
        arcs.extend((nin,), (nout,), (weights[iid],))
        arcs.extend(repeat(nout, len(rights)), rights, repeat(inf, len(rights)))

    g = FlowGraph(
        query=q,
        witnesses=W,
        ordering=ordering,
        node_count=next_id,
        arcs=arcs,
        source=_S,
        sink=_T,
        cap_arc=cap_arc,
        p_instance=p_instance,
        inf=inf,
        skeleton=sk,
        templates=table,
        instances=list(ids),
        payer=payer,
        slots=slots,
    )
    log.debug(
        "flow graph: %d nodes, %d arcs, %d instance nodes, %d folded",
        g.node_count,
        len(arcs),
        len(p_instance),
        len(weights) - len(p_instance),
    )
    return g


def min_cut(g: FlowGraph) -> FlowResult:
    """Max-flow / min-cut over the graph; the cut is the canonical residual
    frontier (cap nodes whose entry is reachable from S but whose exit is not).
    """
    value, reachable = max_flow(g.node_count, g.arcs, g.source, g.sink)
    tail, head, cap = g.arcs.tail, g.arcs.head, g.arcs.cap
    mask = bytearray([reachable[tail[i]] and not reachable[head[i]] for i in g.cap_arc])
    cut_weight = sum(map(cap.__getitem__, compress(g.cap_arc, mask)))
    if cut_weight != value:
        raise AssertionError(
            f"cut frontier weight {cut_weight} != flow value {value}"
        )
    return FlowResult(int(value), mask, reachable)


def extract_factorization(
    g: FlowGraph, res: FlowResult
) -> tuple[Factorization, dict[Witness, Veo]]:
    """Give each witness the first plan of the ordering whose needs the cut
    meets (the leftmost selected alternative) and assemble the assignment;
    guaranteed no longer than the cut value."""
    cut = res.cut_mask
    paid = bytearray(map(cut.__getitem__, g.payer))  # per instance id
    width = len(g.skeleton.sites)
    nleaves = len(g.skeleton.leaves)
    plans = list(zip(g.ordering.veos, g.skeleton.needs))
    assignment: dict[Witness, Veo] = {}
    for wi, w in enumerate(g.witnesses.witnesses):
        ids = g.slots[wi * width:(wi + 1) * width]
        qoff = wi * nleaves
        for plan, (slots, leaves) in plans:
            if all(paid[ids[j]] for j in slots) and all(cut[qoff + leaf] for leaf in leaves):
                assignment[w] = plan
                break
        else:
            raise ExtractionFailure(
                f"no plan for witness {w.key} is fully covered by the cut"
            )
    fact = assemble(g.query, g.witnesses, assignment)
    if fact.length > res.value:
        raise AssertionError(
            f"extracted length {fact.length} exceeds cut value {res.value}"
        )
    return fact, assignment
