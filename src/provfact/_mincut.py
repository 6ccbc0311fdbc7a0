"""The max-flow kernel: Dinic's algorithm over a CSR residual graph.

The residual graph is stored compressed by row in flat ``array`` buffers:
the residual arcs leaving node u are ``start[u]`` to ``start[u + 1] - 1``,
and residual arc e has head ``to[e]``, capacity ``cap[e]`` and reverse arc
``rev[e]``.  Each node's arcs keep the order of the input (an arc's forward
copy sits at its tail, its reverse copy at its head), so the kernel needs no
per-node lists and no per-arc-end int objects.  No residual capacity exceeds
its arc's, so below 2**31 they are kept as 32-bit ints.

Each phase levels the residual graph by BFS, stopping once the sink's level
is set: nodes further away cannot lie on a shortest augmenting path.  A
blocking flow then follows only arcs one level up.  The last BFS, which
misses the sink, runs to completion, and its levels mark the source side of
the cut.

The nodes reachable from s after any maximum flow are the same set, the
smallest source side of a minimum cut (Picard & Queyranne, 1980).  So
`reachable` depends on the graph alone, not on the order in which the
augmenting paths are found, and any other maximum-flow algorithm must return
the same value and the same `reachable`.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import itemgetter

__all__ = ["max_flow"]


def max_flow(n: int, arcs, s: int, t: int) -> tuple[int, list[bool]]:
    """Run Dinic on `arcs`, an iterable of (u, v, cap) (directed, cap >= 0)
    with a length, over nodes 0..n-1.

    Returns (flow value, reachable) where reachable marks the source side of
    the canonical minimum cut: nodes reachable from s in the final residual
    graph.
    """
    m2 = 2 * len(arcs)
    degree = array("i", [0]) * n
    for u, v, _c in arcs:
        degree[u] += 1
        degree[v] += 1
    start = array("i", accumulate(degree, initial=0))
    del degree
    to = array("i", [0]) * m2
    rev = array("i", [0]) * m2
    wide = max(map(itemgetter(2), arcs), default=0) >= 2**31
    cap = array("q" if wide else "i", [0]) * m2
    fill = start[:]
    for u, v, c in arcs:
        a = fill[u]
        fill[u] = a + 1
        b = fill[v]
        fill[v] = b + 1
        to[a] = v
        cap[a] = c
        rev[a] = b
        to[b] = u
        rev[b] = a
    del fill

    unset = array("i", [-1]) * n
    level = array("i", unset)
    queue = array("i", [0]) * n
    flow = 0
    while True:
        level[:] = unset
        level[s] = 0
        queue[0] = s
        qh, qt = 0, 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            lv = level[u] + 1
            for e in range(start[u], start[u + 1]):
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = lv
                        if v == t:
                            break
                        queue[qt] = v
                        qt += 1
            else:
                continue
            break
        if level[t] < 0:
            break

        # blocking flow by iterative DFS; it[u] is u's next untried arc
        it = start[:]
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(map(cap.__getitem__, path))
                for e in path:
                    cap[e] -= pushed
                    cap[rev[e]] += pushed
                flow += pushed
                # resume from the tail of the first saturated arc; the arcs
                # before it still lead here with capacity left
                for i, e in enumerate(path):
                    if not cap[e]:
                        break
                del path[i:]
                u = to[rev[e]]
                continue
            e = it[u]
            end = start[u + 1]
            lv = level[u] + 1
            while e < end and not (cap[e] > 0 and level[to[e]] == lv):
                e += 1
            it[u] = e
            if e < end:
                path.append(e)
                u = to[e]
                continue
            level[u] = -1  # dead end for the rest of the phase
            if u == s:
                break
            e = path.pop()
            u = to[rev[e]]
            it[u] += 1

    # the BFS that missed t ran to completion: its levels mark the source side
    return flow, [lv >= 0 for lv in level]
