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
uncontracted network.  Prefix instances are the ids of the witness set's
one table (`WitnessSet.instances`, keyed by ``(template id, binding
pairs)``), whose `TemplateTable` gives their weights; the graph numbers
their nodes in the order it meets them.  The ordering's shape is walked
once, and the graph keeps one column of instance ids per site.  A capacity
node is addressed only by its index and stored only as its arc, and the cut
only as a mask over them.  Extraction hands each witness one of the
ordering's own plan objects, the first whose needs the cut meets, choosing
for all witnesses a plan at a time.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import compress, product, repeat
from operator import and_, or_

from ._mincut import max_flow
from .assembly import Factorization, TemplateTable, assemble
from .cq import Query
from .provenance import WitnessSet
from .veo import Ordering, Veo

__all__ = [
    "Arcs",
    "FlowGraph",
    "FlowResult",
    "ExtractionFailure",
    "build_flow_graph",
    "min_cut",
    "extract_factorization",
    "kernel_name",
]


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

    __slots__ = ("sites", "leaves", "needs", "connectors")

    def __init__(self) -> None:
        self.sites: list[tuple[int, int, int, int | None]] = []
        self.leaves: list[tuple[int, int]] = []  # leaf -> (left, right)
        self.needs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.connectors = 0  # own connectors per witness


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
    `tail` and `head` node ids and `cap`, all ``array("i")``.  Every
    capacity is an instance weight or `inf` (total weight + 1), far below
    2**31 for any network that fits in memory; a larger one raises
    `OverflowError`.

    Sized, and iterates as ``(tail, head, cap)`` triples in insertion order,
    the form `_mincut.max_flow` takes.
    """

    __slots__ = ("tail", "head", "cap")

    def __init__(self) -> None:
        self.tail = array("i")
        self.head = array("i")
        self.cap = array("i")

    def __len__(self) -> int:
        return len(self.tail)

    def __iter__(self):
        return zip(self.tail, self.head, self.cap)

    def extend(self, tails, heads, caps) -> None:
        """Append the arcs ``zip(tails, heads, caps)``."""
        self.tail.extend(tails)
        self.head.extend(heads)
        self.cap.extend(caps)


class FlowGraph:
    """The contracted flow network of one (query, witnesses, ordering).

    `arcs` holds every arc as ``(tail, head, cap)`` in flat buffers (see
    `Arcs`); an uncuttable arc has capacity `inf`.  Capacity nodes are
    addressed by index only: cap node c is arc ``cap_arc[c]`` of `arcs`
    ``(in, out, cap)``, cut when `in` is on the source side and `out` is not
    (`in` is the connector when the node has one entry): leaf node
    ``wi * nleaves + leaf`` of witness wi, then one node per unfolded prefix
    instance, in the order the build met them, whose id `p_instance` gives.
    Instance ids are those of ``witnesses.instances``, which names them, and
    index `payer` (the cap node that carries the instance's weight: its
    own, or the leaf it was folded into; -1 on an instance the graph lacks).
    `columns` holds one ``array("i")`` per skeleton site: the id of each
    witness's instance there, in witness order.
    """

    __slots__ = (
        "query", "witnesses", "ordering", "node_count", "arcs", "source", "sink",
        "cap_arc", "p_instance", "inf", "skeleton", "payer", "columns",
    )

    def __init__(
        self, query: Query, witnesses: WitnessSet, ordering: Ordering, node_count: int,
        arcs: Arcs, source: int, sink: int, cap_arc: array, p_instance: array, inf: int,
        skeleton: _Skeleton, payer: array, columns: list[array],
    ) -> None:
        self.query, self.witnesses, self.ordering = query, witnesses, ordering
        self.node_count, self.arcs, self.source, self.sink = node_count, arcs, source, sink
        self.cap_arc, self.p_instance, self.inf = cap_arc, p_instance, inf
        self.skeleton, self.payer, self.columns = skeleton, payer, columns

    def cap_text(self, c: int) -> str:
        """Readable name of cap node `c`, e.g. ``q3.1`` or ``p[x1 <- y2]``."""
        nq = len(self.cap_arc) - len(self.p_instance)
        if c < nq:
            return "q{}.{}".format(*divmod(c, len(self.skeleton.leaves)))
        inst = self.witnesses.instances
        return f"p[{inst.table.serial(*inst.keys[self.p_instance[c - nq]])}]"

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


class FlowResult:
    """A maximum flow's value and its canonical cut: `cut_mask` holds a 1 per
    cut cap node, by index."""

    __slots__ = ("value", "cut_mask")

    def __init__(self, value: int, cut_mask: bytearray) -> None:
        self.value, self.cut_mask = value, cut_mask


def build_flow_graph(q: Query, W: WitnessSet, ordering: Ordering) -> FlowGraph:
    """Construct the witness-chain / instance-bypass graph for `ordering`."""
    inst = W.instances
    table = inst.table
    sk = _skeleton(table, ordering)
    k = sk.connectors
    columns = [array("i", inst.ids(tid, W.witnesses)) for tid, _, _, _ in sk.sites]

    # pass 1: merge every witness's sites into runs.  A run spans connectors
    # run_left -> run_right; run_leaf is the index ``wi * len(sk.leaves) +
    # leaf`` of its leaf node, or -1 when it is no leaf site or was extended.
    # An instance's runs are chained from first[iid] to last[iid] through
    # run_next (-1 ends the chain); last is -1 on an instance of `W` that
    # this graph has not met; `seen` holds the graph's own instances in the
    # order it met them, and `weight` theirs.
    nleaves = len(sk.leaves)
    first, last = array("i", [-1]) * len(inst), array("i", [-1]) * len(inst)
    seen, weight = array("i"), []
    run_left, run_right = array("i"), array("i")
    run_leaf, run_next = array("i"), array("i")
    for wi, ids in enumerate(zip(*columns)):
        off = wi * k
        qoff = wi * nleaves
        for (tid, a, b, leaf), iid in zip(sk.sites, ids):
            if a > _T:
                a += off
            if b > _T:
                b += off
            r = last[iid]
            if r < 0:
                seen.append(iid)
                weight.append(table.weights[tid])
                first[iid] = last[iid] = len(run_left)
            elif run_right[r] == a:  # adjacent to the previous run: extend it
                run_right[r] = b
                run_leaf[r] = -1
                continue
            else:
                run_next[r] = last[iid] = len(run_left)
            run_left.append(a)
            run_right.append(b)
            run_leaf.append(-1 if leaf is None else qoff + leaf)
            run_next.append(-1)

    # fold instances touched by exactly one leaf globally into that leaf's node
    q_caps = array("i", [0]) * (len(W.witnesses) * nleaves)
    payer = array("i", [-1]) * len(last)
    for iid, wgt in zip(seen, weight):
        r = first[iid]
        if r == last[iid] and run_leaf[r] >= 0:
            payer[iid] = run_leaf[r]
            q_caps[run_leaf[r]] += wgt

    inf = sum(weight) + 1
    next_id = 2 + len(W.witnesses) * k
    arcs, cap_arc, p_instance = Arcs(), array("i"), array("i")
    for c, cap in enumerate(q_caps):
        wi, li = divmod(c, nleaves)
        a, b = (x if x <= _T else x + wi * k for x in sk.leaves[li])
        cap_arc.append(len(arcs))
        arcs.extend((a, next_id), (next_id, b), (cap, inf))
        next_id += 1

    for iid, wgt in zip(seen, weight):
        if payer[iid] >= 0:
            continue
        payer[iid] = len(cap_arc)
        p_instance.append(iid)
        lefts: dict[int, None] = {}
        rights: dict[int, None] = {}
        r = first[iid]
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
        arcs.extend((nin,), (nout,), (wgt,))
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
        payer=payer,
        columns=columns,
    )
    if "logging" in sys.modules:  # a process that never imported it shows no record
        sys.modules["logging"].getLogger(__name__).debug(
            "flow graph: %d nodes, %d arcs, %d instance nodes, %d folded",
            g.node_count,
            len(arcs),
            len(p_instance),
            len(seen) - len(p_instance),
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
    return FlowResult(int(value), mask)


def extract_factorization(
    g: FlowGraph, res: FlowResult
) -> tuple[Factorization, tuple[Veo, ...]]:
    """Give each witness the first plan of the ordering whose needs the cut
    meets (the leftmost selected alternative) and assemble those plans, one
    per witness in witness order; guaranteed no longer than the cut value.
    Plans are chosen a column at a time, with no loop per witness: per
    plan, one 0/1 byte per witness ANDs its sites' paid bytes and its
    leaves' cut bytes, each column read as one int so that ``&`` is bytewise."""
    cut, n, nleaves = res.cut_mask, len(g.witnesses), len(g.skeleton.leaves)
    paid = bytearray(map(cut.__getitem__, g.payer))  # per instance id; unread at payer -1
    sites = [int.from_bytes(bytes(map(paid.__getitem__, col)), "big") for col in g.columns]
    leaves = [int.from_bytes(cut[leaf:n * nleaves:nleaves], "big") for leaf in range(nleaves)]
    every = int.from_bytes(b"\x01" * n, "big")
    met = [
        reduce(and_, [sites[j] for j in slots] + [leaves[f] for f in lvs], every)
        for slots, lvs in g.skeleton.needs
    ]
    wi = reduce(or_, met, 0).to_bytes(n, "big").find(0)
    if wi >= 0:
        raise ExtractionFailure(
            f"no plan for witness {g.witnesses.witnesses[wi].key} is fully covered by the cut"
        )
    first = map(tuple.index, zip(*(m.to_bytes(n, "big") for m in met)), repeat(1))
    fact = assemble(g.witnesses, list(map(g.ordering.veos.__getitem__, first)))
    if fact.length > res.value:
        raise AssertionError(f"extracted length {fact.length} exceeds cut value {res.value}")
    return fact, fact.plans
