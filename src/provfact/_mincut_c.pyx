# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled max-flow kernel (Dinic's algorithm).

Dinic over typed buffers, with each node's arcs in input order like the
pure kernel in _mincut.py.  The two find their flows in different orders,
but the nodes reachable from s after any maximum flow are the same set
(Picard & Queyranne, 1980), so both return the same value and the same
reachable list.
"""

from cpython.mem cimport PyMem_Malloc, PyMem_Free

__all__ = ["max_flow"]


def max_flow(int n, arcs, int s, int t):
    """Dinic over arcs = [(u, v, cap), ...]; returns (value, reachable list)."""
    cdef int m = len(arcs)
    cdef int e2 = 2 * m
    cdef int *eto = <int *> PyMem_Malloc(e2 * sizeof(int))
    cdef long long *ecap = <long long *> PyMem_Malloc(e2 * sizeof(long long))
    cdef int *enext = <int *> PyMem_Malloc(e2 * sizeof(int))
    cdef int *ehead = <int *> PyMem_Malloc(n * sizeof(int))
    cdef int *level = <int *> PyMem_Malloc(n * sizeof(int))
    cdef int *it = <int *> PyMem_Malloc(n * sizeof(int))
    cdef int *queue = <int *> PyMem_Malloc(n * sizeof(int))
    cdef int *path = <int *> PyMem_Malloc((e2 + 1) * sizeof(int))
    cdef int i, u, v, eid, qh, qt, plen, advanced
    cdef long long c, flow, bottleneck

    if not (eto and ecap and enext and ehead and level and it and queue and path):
        raise MemoryError()

    try:
        # adjacency as head/next chains built in reverse so traversal order
        # matches the python kernel's append order
        for i in range(n):
            ehead[i] = -1
        i = 0
        for (pu, pv, pc) in arcs:
            u = pu
            v = pv
            c = pc
            eto[2 * i] = v
            ecap[2 * i] = c
            eto[2 * i + 1] = u
            ecap[2 * i + 1] = 0
            i += 1
        # build next-lists preserving insertion order: chain indices ascending
        # (store reversed, then the walk below goes ascending)
        for i in range(e2 - 1, -1, -1):
            u = eto[i ^ 1]
            enext[i] = ehead[u]
            ehead[u] = i

        flow = 0
        while True:
            for i in range(n):
                level[i] = -1
            level[s] = 0
            qh = 0
            qt = 0
            queue[qt] = s
            qt += 1
            while qh < qt:
                u = queue[qh]
                qh += 1
                eid = ehead[u]
                while eid != -1:
                    v = eto[eid]
                    if ecap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue[qt] = v
                        qt += 1
                    eid = enext[eid]
            if level[t] < 0:
                break
            for i in range(n):
                it[i] = ehead[i]

            while True:
                plen = 0
                u = s
                bottleneck = 0
                while True:
                    if u == t:
                        bottleneck = ecap[path[0]]
                        for i in range(1, plen):
                            if ecap[path[i]] < bottleneck:
                                bottleneck = ecap[path[i]]
                        for i in range(plen):
                            ecap[path[i]] -= bottleneck
                            ecap[path[i] ^ 1] += bottleneck
                        break
                    advanced = 0
                    eid = it[u]
                    while eid != -1:
                        v = eto[eid]
                        if ecap[eid] > 0 and level[v] == level[u] + 1:
                            path[plen] = eid
                            plen += 1
                            u = v
                            advanced = 1
                            break
                        eid = enext[eid]
                        it[u] = eid
                    if not advanced:
                        level[u] = -1
                        if u == s:
                            break
                        plen -= 1
                        eid = path[plen]
                        u = eto[eid ^ 1]
                        it[u] = enext[it[u]]
                if bottleneck == 0:
                    break
                flow += bottleneck

        reachable = [False] * n
        reachable[s] = True
        qh = 0
        qt = 0
        queue[qt] = s
        qt += 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            eid = ehead[u]
            while eid != -1:
                v = eto[eid]
                if ecap[eid] > 0 and not reachable[v]:
                    reachable[v] = True
                    queue[qt] = v
                    qt += 1
                eid = enext[eid]
        return flow, reachable
    finally:
        PyMem_Free(eto)
        PyMem_Free(ecap)
        PyMem_Free(enext)
        PyMem_Free(ehead)
        PyMem_Free(level)
        PyMem_Free(it)
        PyMem_Free(queue)
        PyMem_Free(path)
