"""Independent oracles used by the test suite.

Every function here recomputes a quantity from first principles — brute
force over the definition — without calling the library's optimized code
paths.  Implementation tests compare library output against these, so a
shared bug would have to be implemented twice, from two different readings
of the definitions, to slip through.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def reference_gen_random(spec):
    """The two-pass generator, the reference for ``gen.gen_random``: draw
    each constant with ``randrange(d)`` into a set, sort, and normalise the
    rows again through ``Database.from_dict``."""
    import random

    from provfact.provenance import Database

    rng = random.Random(spec.seed)
    rels = {}
    for atom in spec.query.atoms:
        rows = {
            tuple(str(rng.randrange(spec.d)) for _ in atom.vars)
            for _ in range(spec.tuples)
        }
        rels[atom.relation] = sorted(rows)
    return Database.from_dict(rels)


def _reference_read_row(line: str, intern) -> tuple[str, ...] | None:
    row = tuple(map(str.strip, line.split(",")))
    return None if "" in row else tuple(map(intern, row, row))


def reference_parse_database(text: str):
    """The line-at-a-time parser, the reference for
    ``provenance.parse_database``: one row read per line into a set, each
    set sorted at the end."""
    from provfact.provenance import Database, FormatError

    intern = {}.setdefault
    rels: dict[str, set[tuple[str, ...]]] = {}
    rows: set[tuple[str, ...]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if not name:
                raise FormatError(f"line {lineno}: empty relation name")
            rows = rels.setdefault(name, set())
            continue
        if rows is None:
            raise FormatError(f"line {lineno}: row before any [Relation] header")
        row = _reference_read_row(line, intern)
        if row is None:
            raise FormatError(f"line {lineno}: empty constant in row {line!r}")
        rows.add(row)
    return Database({name: tuple(sorted(rows)) for name, rows in rels.items()})


def reference_load_csv_dir(path):
    """The line-at-a-time CSV directory reader, the reference for the
    directory branch of ``provenance.load_database``."""
    from pathlib import Path

    from provfact.provenance import Database, FormatError

    p = Path(path)
    intern = {}.setdefault
    rels: dict[str, set[tuple[str, ...]]] = {}
    for csv_path in sorted(p.glob("*.csv")):
        rows = rels[csv_path.stem] = set()
        for lineno, raw in enumerate(csv_path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            row = _reference_read_row(line, intern)
            if row is None:
                raise FormatError(f"{csv_path.name}:{lineno}: empty constant")
            rows.add(row)
    if not rels:
        raise FormatError(f"{p}: no .csv files found")
    return Database({name: tuple(sorted(rows)) for name, rows in rels.items()})


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def small_queries(max_vars: int, max_atoms: int, max_arity: int):
    """Every self-join-free query, connected or not, with at most these
    variables, atoms and atom arities, once up to renaming of variables and
    order of atoms.  An atom is a set of variables (two atoms may hold the
    same set); relations are named R0, R1, ... in the canonical atom order."""
    from provfact.cq import Atom, Query

    seen = set()
    for nv in range(1, max_vars + 1):
        names = "abcdefgh"[:nv]
        scopes = [c for r in range(1, max_arity + 1) for c in itertools.combinations(names, r)]
        for m in range(1, max_atoms + 1):
            for atoms in itertools.combinations_with_replacement(scopes, m):
                if set().union(*atoms) != set(names):
                    continue
                canon = min(
                    tuple(sorted(tuple(sorted(perm[names.index(v)] for v in a)) for a in atoms))
                    for perm in itertools.permutations(names)
                )
                if canon in seen:
                    continue
                seen.add(canon)
                yield Query("Q", tuple(Atom(f"R{i}", a) for i, a in enumerate(canon)))


def connected_queries(max_vars: int, max_atoms: int, max_arity: int):
    """The connected queries of `small_queries`."""
    for q in small_queries(max_vars, max_atoms, max_arity):
        if len(reference_components(q)) == 1:
            yield q


def reference_components(q):
    """Breadth-first search over the atom graph, the reference for
    ``cq.connected_components``: ``(q,)`` if connected, else sub-queries
    ``Q.1``, ``Q.2``, ... ordered by their sorted relation names."""
    from provfact.cq import Query

    remaining = set(q.atoms)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp, frontier = {seed}, [seed]
        while frontier:
            cur = frontier.pop()
            linked = [a for a in remaining if a.varset & cur.varset]
            for a in linked:
                remaining.discard(a)
                comp.add(a)
                frontier.append(a)
        comps.append(comp)
    if len(comps) == 1:
        return (q,)
    comps.sort(key=lambda c: sorted(a.relation for a in c))
    return tuple(
        Query(f"{q.name}.{i}", tuple(a for a in q.atoms if a in comp))
        for i, comp in enumerate(comps, 1)
    )


def _connected_avoiding(q, g1, g2, banned: frozenset[str]) -> bool:
    """Is there a path g1 -> g2 in the atom-variable incidence graph after
    deleting the variables in `banned`?"""
    if not (g1.varset - banned) or not (g2.varset - banned):
        # an endpoint with no usable variable cannot join any path
        return False
    seen = {g1}
    frontier = [g1]
    while frontier:
        cur = frontier.pop()
        usable = cur.varset - banned
        if usable & (g2.varset - banned):
            return True
        for a in q.atoms:
            if a not in seen and (a.varset - banned) & usable:
                seen.add(a)
                frontier.append(a)
    return False


def reference_triad(q):
    """Three searches per atom triple, the reference for ``cq.has_triad``:
    the first triple of sorted independent atoms, each pair connected by a
    path avoiding the third atom's variables, or None."""
    from provfact.cq import independent_atoms

    indep = sorted(independent_atoms(q))
    for g1, g2, g3 in itertools.combinations(indep, 3):
        if (
            _connected_avoiding(q, g1, g2, g3.varset)
            and _connected_avoiding(q, g1, g3, g2.varset)
            and _connected_avoiding(q, g2, g3, g1.varset)
        ):
            return (g1, g2, g3)
    return None


def isomorphic(q1, q2) -> bool:
    """Whether a bijection of the variables maps q1's atom variable sets
    onto q2's, as multisets; relation names and atom order play no part.
    Tries every bijection."""
    v1, v2 = sorted(q1.variables), sorted(q2.variables)
    if len(v1) != len(v2) or len(q1.atoms) != len(q2.atoms):
        return False
    target = Counter(a.varset for a in q2.atoms)
    for image in itertools.permutations(v2):
        rename = dict(zip(v1, image))
        if Counter(frozenset(rename[v] for v in a.vars) for a in q1.atoms) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

def brute_bindings(q, db):
    """Every consistent choice of one row per atom, as a sorted binding.

    Enumerates the product of the relations, so keep databases tiny.
    """
    out = set()
    for rows in itertools.product(*(db.relations.get(a.relation, ()) for a in q.atoms)):
        binding = {}
        if all(
            binding.setdefault(v, c) == c
            for a, row in zip(q.atoms, rows)
            for v, c in zip(a.vars, row)
        ):
            out.add(tuple(sorted(binding.items())))
    return out


# ---------------------------------------------------------------------------
# The length of a factorization
# ---------------------------------------------------------------------------

def anchor_path(veo, avars):
    """Shortest root path of ``veo`` whose variables cover ``avars``.

    Walks every root-to-node path of the tree and keeps the shortest
    covering prefix.  For a legal plan every atom's variables lie on one
    root path, so the minimum is unique; ties (identical coverage reached
    along different branches) collapse because the covering *prefix* is
    shared.
    """
    avars = frozenset(avars)
    best = None
    stack = [((veo.node,), veo)]
    while stack:
        path, t = stack.pop()
        covered = set()
        prefix = None
        run = ()
        for node in path:
            run = run + (node,)
            covered.update(node)
            if avars <= covered:
                prefix = run
                break
        if prefix is not None:
            if best is None or len(prefix) < len(best):
                best = prefix
            continue
        for c in t.children:
            stack.append((path + (c.node,), c))
    if best is None:
        raise ValueError(f"{sorted(avars)} not on any root path of {veo!r}")
    return best


def reference_table_prefixes(veo, q):
    """The table prefixes of plan ``veo``: each distinct `anchor_path` of
    q's atoms with the sorted relations anchored there, in the order of the
    path's text (``y <- (xz) <- u``)."""
    groups = {}
    for atom in q.atoms:
        groups.setdefault(anchor_path(veo, atom.varset), []).append(atom.relation)

    def text(path):
        return " <- ".join(n[0] if len(n) == 1 else "(" + "".join(n) + ")" for n in path)

    return [(path, tuple(sorted(groups[path]))) for path in sorted(groups, key=text)]


def oracle_length(q, witness_set, assignment):
    """Length of the factorization induced by ``assignment`` (witness → plan).

    Counted from the definition: each atom of each witness contributes the
    literal anchored at its minimal covering root path; literals with the
    same atom and the same *instantiated* path are shared and counted once.
    """
    seen = set()
    for w in witness_set.witnesses:
        v = assignment[w]
        vals = w.values
        for atom in q.atoms:
            path = anchor_path(v, atom.varset)
            inst = tuple((node, tuple(vals[x] for x in node)) for node in path)
            seen.add((atom.relation, inst))
    return len(seen)


def brute_minfact(q, witness_set, plans):
    """Minimum factorization length by exhausting every plan assignment."""
    wits = witness_set.witnesses
    if not wits:
        return 0
    assert len(plans) ** len(wits) <= 2_000_000, "brute-force blowup; shrink the instance"
    best = None
    for combo in itertools.product(plans, repeat=len(wits)):
        length = oracle_length(q, witness_set, dict(zip(wits, combo)))
        if best is None or length < best:
            best = length
    return best


def reference_assemble(witness_set, plans):
    """A direct path-keyed trie assembler: the byte-identity reference for
    ``assembly.assemble`` (the same expression text and leaves, or the same
    exception), given one plan per witness in witness order.

    Nodes are keyed by their full instantiated path; a node's tuples are
    found by scanning the atoms against the path's variables; siblings and
    roots sort by (serialization, path).  Each leaf is a node of its own.
    """
    from provfact.assembly import (
        Expr,
        IllegalAssignment,
        e_and,
        e_or,
        e_var,
    )

    def serial(path):
        return " <- ".join(
            "".join(f"{var}{val}" for var, val in zip(node, vals)) for node, vals in path
        )

    def path_order(path):
        return serial(path), path

    def anchored_tuples(path):
        last_node = path[-1][0]
        vals = {var: val for node, vs in path for var, val in zip(node, vs)}
        pathvars = frozenset(v for node, _ in path for v in node)
        out = []
        for a in q.atoms:
            if a.varset <= pathvars and a.varset & frozenset(last_node):
                out.append((a.relation, tuple(vals[v] for v in a.vars)))
        return tuple(sorted(set(out)))

    q = witness_set.query
    if len(plans) != len(witness_set.witnesses):
        raise IllegalAssignment("assignment must cover exactly the witness set")
    if not witness_set.witnesses:
        return Expr("false")

    # path -> (anchored tuples, {branch signature: {child node: {child paths}}})
    trie = {}
    roots = set()

    def walk(w, t, path):
        try:
            step = path + ((t.node, tuple(w.values[x] for x in t.node)),)
        except KeyError as exc:
            raise IllegalAssignment(f"witness {w.key} does not bind {exc.args[0]}")
        if step not in trie:
            trie[step] = (anchored_tuples(step), {})
        groups = trie[step][1]
        sig = tuple(sorted(c.node for c in t.children))
        if sig:
            branches = groups.setdefault(sig, {})
            for c in t.children:
                branches.setdefault(c.node, set()).add(walk(w, c, step))
        else:
            groups.setdefault((), {})
        return step

    items = sorted(zip(witness_set.witnesses, plans), key=lambda kv: kv[0].key)
    for w, v in items:
        if v.vars_below != q.variables:
            raise IllegalAssignment(f"plan {v} does not cover the variables of {q.name}")
        roots.add(walk(w, v, ()))

    def build(path):
        tuples, groups = trie[path]
        parts = [e_var(t) for t in tuples]
        group_exprs = []
        for sig in sorted(groups):
            if not sig:
                continue
            branches = groups[sig]
            group_exprs.append(e_and([
                e_or([build(cp) for cp in sorted(branches[bn], key=path_order)])
                for bn in sorted(branches)
            ]))
        if group_exprs:
            if () in groups:
                raise IllegalAssignment(
                    f"node {serial(path)} mixes terminal and continuing plans"
                )
            parts.append(e_or(group_exprs))
        return e_and(parts) if parts else Expr("false")

    return e_or([build(r) for r in sorted(roots, key=path_order)])


def min_formula_length(witness_set) -> int:
    """Length of the shortest monotone AND/OR formula over the witness set's
    tuples that is equivalent to its provenance DNF, found with no plan
    model: formulas are built bottom-up by length, the two parts of a
    length-L formula having lengths a and L - a, and one formula is kept per
    truth table, at the first length that makes it.

    A table is read only at the points that decide a monotone function:
    the DNF's minimal true points (the witnesses' tuple sets) and its
    maximal false points.  A monotone formula true on the first and false
    on the second is equivalent to the DNF, and AND and OR act point by
    point, so keeping one formula per such table loses no optimum: a
    function's shortest formula is an AND or OR of two parts whose shortest
    lengths add up to its own."""
    keys = sorted({t for w in witness_set.witnesses for t in w.tuples})
    if len(keys) > 8:
        raise ValueError(f"{len(keys)} distinct tuples; the oracle takes at most 8")
    if not keys:
        return 0
    bit = {k: 1 << i for i, k in enumerate(keys)}
    terms = {sum(map(bit.get, w.tuples)) for w in witness_set.witnesses}
    truth = {p for p in range(1 << len(keys)) if any(t & p == t for t in terms)}
    maximal_false = [
        p for p in range(1 << len(keys))
        if p not in truth and all(p | b in truth for b in bit.values() if not p & b)
    ]
    points = sorted(terms) + maximal_false
    literal = [sum(1 << j for j, p in enumerate(points) if p & b) for b in bit.values()]
    target = (1 << len(terms)) - 1  # true on the terms, false elsewhere
    by_length = [set(), set(literal)]
    seen = set(literal)
    while target not in seen:
        length = len(by_length)
        made = set()
        for a in range(1, length // 2 + 1):
            right = by_length[length - a]
            for f in by_length[a]:
                made.update([f & g for g in right])
                made.update([f | g for g in right])
        made -= seen
        seen |= made
        by_length.append(made)
    return len(by_length) - 1


def distinct_tuple_count(witness_set):
    return len({t for w in witness_set.witnesses for t in w.tuples})


def brute_read_once(q, witness_set, plans):
    """Read-once ⟺ some assignment reaches length = number of distinct tuples."""
    return brute_minfact(q, witness_set, plans) == distinct_tuple_count(witness_set)


def detect_p4(W: WitnessSet):
    """Find a P4 pattern (w1, r, w2, s, w3): w2 shares r with w1 and s with w3,
    while w1 lacks s and w3 lacks r.  Returns the pattern or None (read-once)."""
    ws = [(w, frozenset(w.tuples)) for w in W.witnesses]  # each set made once
    for w2, t2 in ws:
        for w1, t1 in ws:
            if w1 is w2:
                continue
            shared_r = t1 & t2
            if not shared_r:
                continue
            for w3, t3 in ws:
                if w3 is w2 or w3 is w1:
                    continue
                shared_s = (t3 & t2) - t1
                if not shared_s:
                    continue
                for r in sorted(shared_r - t3):
                    s = min(shared_s)
                    return (w1, r, w2, s, w3)
    return None


# ---------------------------------------------------------------------------
# Covering model
# ---------------------------------------------------------------------------

def brute_model_optimum(m):
    """Optimum of an ``ilp`` covering model by trying every choice per plan
    constraint.

    A choice sets its variable to 1 and, through the prefix constraints
    ``p - q >= 0`` followed transitively, every variable it implies; nothing
    else need be 1, as no weight is negative.  The value is the objective
    over the union of those variables, plus the folded constant.
    """
    implied = {}
    for p, q in m.prefix_constraints:
        implied.setdefault(q, []).append(p)

    def ones(var):
        seen = {var}
        todo = deque([var])
        while todo:
            for p in implied.get(todo.popleft(), ()):
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        return seen

    constraints = [choices for _, choices in m.plan_constraints]
    closure = {c: ones(c) for choices in constraints for c in choices}
    best = None
    for pick in itertools.product(*constraints):
        value = sum(m.objective.get(v, 0) for v in set().union(*(closure[c] for c in pick)))
        if best is None or value < best:
            best = value
    return best + m.constant


# ---------------------------------------------------------------------------
# Expression leaves
# ---------------------------------------------------------------------------

def count_leaves(expr) -> int:
    """Literal count of an expression tree, by direct recursion."""
    if expr.op == "var":
        return 1
    if expr.op == "false":
        return 0
    return sum(count_leaves(c) for c in expr.children)


def leaf_multiset(expr):
    """Multiset of tuple keys at the leaves, as a sorted tuple."""
    out = []

    def rec(e):
        if e.op == "var":
            out.append(e.key)
            return
        for c in e.children:
            rec(c)

    rec(expr)
    return tuple(sorted(out))


def reference_expand(e, max_terms: int = 200_000):
    """Set-based DNF expansion, the reference for ``assembly.expand``:
    each node's whole term set, built bottom-up by set union and cross
    product, capped at `max_terms` distinct terms per intermediate set."""
    from provfact.assembly import ExpansionTooLarge

    if e.op == "false":
        return set()
    if e.op == "var":
        return {frozenset([e.key])}
    child_terms = [reference_expand(c, max_terms) for c in e.children]
    if e.op == "or":
        out = set()
        for ts in child_terms:
            out |= ts
            if len(out) > max_terms:
                raise ExpansionTooLarge(f"more than {max_terms} product terms")
        return out
    terms = {frozenset()}
    for ts in child_terms:
        nxt = set()
        for a in terms:
            for b in ts:
                nxt.add(a | b)
                if len(nxt) > max_terms:
                    raise ExpansionTooLarge(f"more than {max_terms} product terms")
        terms = nxt
    return terms


# ---------------------------------------------------------------------------
# Minimum node cut (for the flow heuristic)
# ---------------------------------------------------------------------------

def brute_min_node_cut(g) -> int:
    """Minimum-weight set of capacitated nodes disconnecting source → sink.

    Enumerates subsets of the finite-capacity internal arcs; all structural
    arcs are uncuttable.  Exponential — keep the instance tiny.
    """
    arcs = g.arcs
    caps = range(len(g.cap_arc))
    assert len(caps) <= 18, "brute-force cut blowup; shrink the instance"
    internal = {}
    for c, i in enumerate(g.cap_arc):
        internal[c] = ((arcs.tail[i], arcs.head[i]), arcs.cap[i])
    adjacency = {}
    for u, v, _cap in g.arcs:
        adjacency.setdefault(u, []).append(v)

    def disconnected(removed_pairs) -> bool:
        seen = {g.source}
        dq = deque([g.source])
        while dq:
            u = dq.popleft()
            if u == g.sink:
                return False
            for v in adjacency.get(u, ()):
                if (u, v) in removed_pairs or v in seen:
                    continue
                seen.add(v)
                dq.append(v)
        return True

    best = None
    for size in range(len(caps) + 1):
        for subset in itertools.combinations(caps, size):
            weight = sum(internal[c][1] for c in subset)
            if best is not None and weight >= best:
                continue
            if disconnected({internal[c][0] for c in subset}):
                best = weight
    assert best is not None, "sink not disconnectable by capacitated nodes"
    return best


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------

def reference_rp(veos):
    """Running-prefixes check for a flat sequence of plans: every root path
    shared by the plans must occupy a contiguous range of positions."""
    cols = {}
    for i, v in enumerate(veos):
        for p in v.root_paths:
            cols.setdefault(p, []).append(i)
    return all(c[-1] - c[0] + 1 == len(c) for c in cols.values())


# ---------------------------------------------------------------------------
# Flow extraction (the per-witness recursive selector)
# ---------------------------------------------------------------------------

def _hang(ext, tails):
    """The plan that hangs the plans `tails` below the node path `ext`."""
    from provfact.veo import veo_node

    if not ext:
        (only,) = tails
        return only
    cur = veo_node(ext[-1], tails)
    for node in reversed(ext[:-1]):
        cur = veo_node(node, (cur,))
    return cur


def reference_flow_skeleton(q, ordering):
    """Sites, leaf groups, connector count and alternative tree of the flow
    network of `ordering`, walked as `flow._skeleton` documents it.

    A leaf's sites are the distinct `anchor_path`s of the atoms under its
    full plan that are longer than its cumulative path, sorted.  Each
    alternative is a dict: its `ext`, its `slots` (a range of site indices),
    its `leaf` index and the plan `fragment` below its parent for a leaf,
    its `children` for a sequence and its `comps` for parallel components.
    """
    from provfact.assembly import TemplateTable

    table = TemplateTable.of(q)  # the ids `build_flow_graph` reads
    sites, leaves = [], []
    connectors = 0

    def walk_seq(alts, a, b, cum):
        nonlocal connectors
        conns = [a] + [2 + connectors + i for i in range(len(alts) - 1)] + [b]
        connectors += len(alts) - 1
        return [walk_alt(alt, conns[i], conns[i + 1], cum) for i, alt in enumerate(alts)]

    def walk_alt(alt, a, b, cum):
        new_cum = cum + alt.ext
        start = len(sites)
        for d in range(len(cum) + 1, len(new_cum) + 1):
            tid = table.path_id(new_cum[:d])
            if table.weights[tid]:
                sites.append((tid, a, b, None))
        node = {"ext": alt.ext, "leaf": None, "children": [], "comps": []}
        if alt.sub is not None:
            node["leaf"] = leaf = len(leaves)
            leaves.append((a, b))
            plan = _hang(new_cum, (alt.sub,))
            paths = {
                anchor_path(plan, atom.varset)
                for atom in q.atoms
                if atom.varset <= plan.vars_below
            }
            for p in sorted(paths):
                if len(p) > len(new_cum):
                    sites.append((table.path_id(p), a, b, leaf))
            node["fragment"] = _hang(alt.ext, (alt.sub,))
        node["slots"] = range(start, len(sites))
        if alt.seq:
            node["children"] = walk_seq(alt.seq, a, b, new_cum)
        elif alt.sub is None:
            node["comps"] = [walk_seq(comp, a, b, new_cum) for comp in alt.par]
        return node

    alts = walk_seq(ordering.alts, 0, 1, ())
    return sites, leaves, connectors, alts


def reference_select(g, cut_mask, alts):
    """Each witness's plan under `cut_mask`, picked recursively: the first
    alternative whose slots are all paid and, at a leaf, whose leaf node is
    cut; one such alternative per parallel component.  Returns the plans
    in witness order, or the message of the first witness left without one.
    """
    paid = [cut_mask[c] for c in g.payer]
    nleaves = len(g.skeleton.leaves)

    def select(alt, wi, ids):
        if not all(paid[ids[j]] for j in alt["slots"]):
            return None
        if alt["leaf"] is not None:
            return alt["fragment"] if cut_mask[wi * nleaves + alt["leaf"]] else None
        if alt["children"]:
            for child in alt["children"]:
                frag = select(child, wi, ids)
                if frag is not None:
                    return _hang(alt["ext"], (frag,))
            return None
        tails = []
        for comp in alt["comps"]:
            frag = next(filter(None, (select(child, wi, ids) for child in comp)), None)
            if frag is None:
                return None
            tails.append(frag)
        return _hang(alt["ext"], tuple(tails))

    plans = []
    for wi, (w, ids) in enumerate(zip(g.witnesses.witnesses, zip(*g.columns))):
        plan = next(filter(None, (select(alt, wi, ids) for alt in alts)), None)
        if plan is None:
            return f"no plan for witness {w.key} is fully covered by the cut"
        plans.append(plan)
    return plans


def brute_min_cut(n: int, arcs, s: int, t: int) -> tuple[int, list[bool]]:
    """Minimum s-t cut by enumerating every source side (2^(n-2) of them).

    Returns (cut value, smallest minimum-cut source side as a bool list).
    The source sides of minimum cuts are closed under intersection, so the
    intersection of all of them is the unique smallest one.
    """
    assert n <= 16, "brute-force cut blowup; shrink the graph"
    others = [v for v in range(n) if v not in (s, t)]
    best, smallest = None, None
    for size in range(len(others) + 1):
        for chosen in itertools.combinations(others, size):
            side = set(chosen) | {s}
            value = sum(c for u, v, c in arcs if u in side and v not in side)
            if best is None or value < best:
                best, smallest = value, side
            elif value == best:
                smallest = smallest & side
    return best, [v in smallest for v in range(n)]


def reference_max_flow(n: int, arcs, s: int, t: int) -> tuple[int, list[bool]]:
    """List-based Dinic, one Python list per node (the earlier py kernel).

    Run Dinic on `arcs` = [(u, v, cap), ...] (directed, cap >= 0).

    Returns (flow value, reachable) where reachable marks the source side of
    the canonical minimum cut: nodes reachable from s in the final residual
    graph.
    """
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []

    for u, v, c in arcs:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    level = [0] * n
    it = [0] * n
    flow = 0

    while True:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        if level[t] < 0:
            break
        for i in range(n):
            it[i] = 0

        # iterative blocking-flow DFS
        while True:
            path: list[int] = []
            u = s
            pushed = 0
            while True:
                if u == t:
                    bottleneck = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= bottleneck
                        cap[eid ^ 1] += bottleneck
                    pushed = bottleneck
                    break
                advanced = False
                while it[u] < len(head[u]):
                    eid = head[u][it[u]]
                    v = to[eid]
                    if cap[eid] > 0 and level[v] == level[u] + 1:
                        path.append(eid)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    level[u] = -1
                    if u == s:
                        break
                    eid = path.pop()
                    u = to[eid ^ 1]
                    it[u] += 1
            if pushed == 0:
                break
            flow += pushed

    reachable = [False] * n
    reachable[s] = True
    dq = deque([s])
    while dq:
        u = dq.popleft()
        for eid in head[u]:
            v = to[eid]
            if cap[eid] > 0 and not reachable[v]:
                reachable[v] = True
                dq.append(v)
    return flow, reachable


def koenig_cover(edges) -> tuple[set, set]:
    """The canonical minimum vertex cover (cover_l, cover_r) of a bipartite
    graph given as (left, right) edges, by the textbook construction.

    A maximum matching grows by one plain augmenting path (depth-first, from
    one free left vertex) at a time.  Z is then what alternating paths reach
    from the unmatched left vertices: any edge out of a left vertex, the
    matched edge back out of a right one.  The cover is (L - Z) | (R & Z),
    the same for every maximum matching (Dulmage–Mendelsohn).
    """
    adj: dict = {}
    for l, r in edges:
        adj.setdefault(l, []).append(r)
    mate_r: dict = {}

    def augment(l, seen) -> bool:
        for r in adj[l]:
            if r not in seen:
                seen.add(r)
                if r not in mate_r or augment(mate_r[r], seen):
                    mate_r[r] = l
                    return True
        return False

    for l in adj:
        augment(l, set())
    matched_l = set(mate_r.values())
    z_l = {l for l in adj if l not in matched_l}
    z_r: set = set()
    stack = list(z_l)
    while stack:
        for r in adj[stack.pop()]:
            if r not in z_r:
                z_r.add(r)
                if r in mate_r and mate_r[r] not in z_l:
                    z_l.add(mate_r[r])
                    stack.append(mate_r[r])
    return set(adj) - z_l, z_r


# ---------------------------------------------------------------------------
# Graphs (for the hardness-gadget identity)
# ---------------------------------------------------------------------------

def covered_subgraph(graph_input):
    """(vertices, edges) keeping only vertices incident to at least one edge."""
    covered = sorted({v for e in graph_input.edges for v in e})
    return tuple(covered), tuple(graph_input.edges)


def brute_alpha(graph_input) -> int:
    """Independence number of the covered subgraph, by subset enumeration."""
    vertices, edges = covered_subgraph(graph_input)
    assert len(vertices) <= 20, "brute-force alpha blowup; shrink the graph"
    edge_set = {frozenset(e) for e in edges}
    best = 0
    for size in range(len(vertices), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(vertices, size):
            if not any(frozenset(p) in edge_set for p in itertools.combinations(subset, 2)):
                best = size
                break
    return best
