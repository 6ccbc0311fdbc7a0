"""Prefix templates and instances, expressions, and factorization assembly.

A factorization of a witness set's provenance DNF is an equivalent nested
AND/OR expression (`Expr`); its length counts literal leaves only and is
fixed when each node is made.  Its cost model is the weighted count of
distinct prefix instances.  `TemplateTable` is the one place that says what
a template is and what it weighs: it interns each plan root path as a
template id with its anchored atoms and their count.  `Instances`, one per
witness set, is the one place that interns an instance, ``(template id,
binding pairs)``, as an id; exact, the ILP, flow and assembly all read it,
one column of ids per template (`Instances.ids`).
Assembly builds the expression for one plan per witness by merging
shared instances in a trie, so that equal instances — even across
different plans — are written once; `assemble` returns that `Expr`, and a
run's one record, `exact.RunReport`, holds it with the plans.  The trie's rows are instance ids,
kept in columns; it makes one leaf per tuple key and one node per row,
shared wherever they occur, and is freed when `assemble` returns: it forms
no reference cycle.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice, repeat
from operator import attrgetter, itemgetter

from .cq import DisconnectedQueryError, Query, _Value, connected_components
from .provenance import TupleKey, WitnessSet, _tuple_getter, tuple_id
from .veo import (
    Node, Ordering, TooManyVariables, Veo, _node_str, anchored, build_ordering, enumerate_mveo,
)

__all__ = [
    "TemplateTable", "Instances", "Expr", "UnboundVariable",
    "IllegalAssignment", "ExpansionTooLarge", "assemble", "verify_equivalence",
]


class UnboundVariable(KeyError):
    """A witness does not bind a variable required by the path."""


class IllegalAssignment(ValueError):
    """A witness was assigned a plan that is not legal for the query."""


class ExpansionTooLarge(RuntimeError):
    """DNF expansion exceeded the term guard."""


class TemplateTable:
    """The plan root paths of one query, interned as template ids, and its
    minimal `plans` (the `enumerate_mveo` tuple), each plan's table-prefix
    ids `prefix_ids` and the nested-rp `ordering`, derived on first read.

    Ids are given in first-seen order; reading `plans` gives every plan
    root path its id, plan by plan, and `of` does so first, so the shared
    table's ids of those paths depend on the query alone; other paths (a
    caller's own plans) get theirs when first asked.  Every layer reads the
    shared table (exact, the ILP, flow and assembly through a witness set's
    `Instances`); no id reaches an output.  `child(parent, node)` is the id
    of the parent's path extended by `node` (parent -1 is the empty path
    above a root).  Per id the table keeps the node path, the indices of the
    atoms anchored at its last node (`veo.anchored`: those whose variables
    lie on the path and meet that node) in relation-name order, their count
    as the template's weight, and a getter that reads the path's binding
    pairs, in path order, off a `Witness.binding`; only `Instances.ids`
    applies it.  A prefix instance is ``(template id, pairs)``, interned per
    witness set by `Instances`.

    `prefix_ids` lists, per plan, the ids of its root paths that anchor at
    least one atom, in the order of their text (``y <- (xz)``); on a
    disconnected query, whose optimum the plan model cannot express, it
    raises `DisconnectedQueryError`.  These are
    the plan's table prefixes: an atom is anchored at a root path's last
    node exactly when the path is the atom's minimal covering root path in
    a legal plan the path lies on, so a template's weight is the number of
    atoms whose table prefix it is, or 0 on a path that is no table prefix.
    The test suite checks this against a direct reference.
    """

    def __init__(self, q: Query) -> None:
        self.query = q
        self.names = tuple(sorted(q.variables))
        self._slot = {v: i for i, v in enumerate(self.names)}
        self.paths: list[tuple[Node, ...]] = []
        self.atoms: list[tuple[int, ...]] = []
        self.weights: list[int] = []
        self.getters: list = []
        self._ids: dict[tuple[int, Node], int] = {}

    @classmethod
    @lru_cache(maxsize=512)
    def of(cls, q: Query) -> "TemplateTable":
        """The table every call with `q` shares (512 kept: all 309 connected
        self-join-free queries with 2-5 variables, 2-4 atoms and arity 1-3
        fit, in 3.2 MB of tables).  Past the enumeration cap it holds no
        plans, and the paths of a caller's own plans get ids on demand."""
        table = cls(q)
        try:
            table.plans
        except TooManyVariables:
            pass
        return table

    @cached_property
    def plans(self) -> tuple[Veo, ...]:
        plans = enumerate_mveo(self.query)
        for v in plans:
            for path in sorted(v.root_paths):
                self.path_id(path)
        return plans

    @cached_property
    def prefix_ids(self) -> tuple[tuple[int, ...], ...]:
        if len(connected_components(self.query)) > 1:
            raise DisconnectedQueryError(
                f"{self.query.name} is disconnected; solve its connected components apart"
            )

        def text(tid: int) -> str:
            return " <- ".join(map(_node_str, self.paths[tid]))

        return tuple(
            tuple(sorted(
                (t for t in map(self.path_id, sorted(v.root_paths)) if self.weights[t]), key=text
            ))
            for v in self.plans
        )

    @cached_property
    def ordering(self) -> Ordering:
        return build_ordering(self.query, mveo=self.plans)

    def child(self, parent: int, node: Node) -> int:
        """The id of the path of `parent` (-1: the empty path) plus `node`."""
        tid = self._ids.get((parent, node))
        if tid is None:
            path = (self.paths[parent] if parent >= 0 else ()) + (node,)
            hits = anchored(self.query, {v for nd in path for v in nd}, node)
            atoms = self.query.atoms
            tid = self._ids[parent, node] = len(self.paths)
            self.paths.append(path)
            self.atoms.append(tuple(sorted(hits, key=lambda i: atoms[i].relation)))
            self.weights.append(len(hits))
            self.getters.append(_tuple_getter([self._slot[v] for nd in path for v in nd]))
        return tid

    def path_id(self, path: tuple[Node, ...]) -> int:
        """The id of a whole root path."""
        tid = -1
        for node in path:
            tid = self.child(tid, node)
        return tid

    def split(self, tid: int, pairs: tuple) -> list[tuple]:
        """An instance's pairs, one tuple per node of its path."""
        out, i = [], 0
        for node in self.paths[tid]:
            out.append(pairs[i:i + len(node)])
            i += len(node)
        return out

    def serial(self, tid: int, pairs: tuple) -> str:
        """Display text of an instance, e.g. ``x1 <- y2``; it concatenates
        variables and constants without an escape, so distinct instances
        can share it."""
        return " <- ".join(
            "".join(f"{var}{val}" for var, val in part) for part in self.split(tid, pairs)
        )


class Instances(dict):
    """The prefix instances of one witness set (`WitnessSet.instances`), the
    one table exact, the ILP, flow and assembly intern in: ``(template id,
    binding pairs)`` -> a dense id, which reading an unseen key gives in
    first-seen order (`get` reads without interning); `keys` lists the keys
    by id.  Each layer reads its witnesses' ids a template at a time, with
    `ids`.  No id reaches an output: a layer lists instances in its own
    first-use order.  `table` is ``TemplateTable.of(W.query)``, taken once,
    so an instance keeps its path whatever the shared cache holds later;
    taking it raises `UnboundVariable`, naming missing and extra variables,
    unless every witness binds exactly the query's variables, in the binding
    layout its getters read.
    """

    __slots__ = ("table", "keys")

    def __init__(self, W: WitnessSet) -> None:
        super().__init__()
        table = self.table = TemplateTable.of(W.query)
        names, var_of = table.names, itemgetter(0)
        for w in W.witnesses:
            bound = tuple(map(var_of, w.binding))
            if bound != names:
                missing = sorted(set(names) - set(bound))
                extra = sorted(set(bound) - set(names))
                raise UnboundVariable(
                    f"witness {w.key} binds {list(bound)}, not {list(names)}:"
                    f" missing {missing}, outside the query {extra}"
                )
        self.keys: list[tuple[int, tuple]] = []

    def __missing__(self, key: tuple[int, tuple]) -> int:
        iid = self[key] = len(self.keys)
        self.keys.append(key)
        return iid

    def ids(self, tid: int, witnesses) -> list[int]:
        """The id of each witness's instance of template `tid`, in the order
        given, interning unseen ones: the one reader of the table's getters."""
        pairs = map(self.table.getters[tid], map(attrgetter("binding"), witnesses))
        return list(map(self.__getitem__, zip(repeat(tid), pairs)))


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expr(_Value):
    """Monotone Boolean expression tree over tuple literals.

    Slotted, so a node carries no ``__dict__``.  Nodes are immutable, so
    one node may occur at several places (`assemble` shares its leaves and
    rows); every reader walks occurrences, as in a tree.  `length` (the
    literal count) is set when the node is made, from its children's
    lengths.  A node keeps no other derived fact.
    """

    __slots__ = ("op", "key", "children", "length")
    _key = attrgetter("op", "key", "children")

    def __init__(
        self,
        op: str,  # "var" | "and" | "or" | "false"
        key: TupleKey | None = None,
        children: tuple[Expr, ...] = (),
    ) -> None:
        self.op, self.key, self.children = op, key, children
        self.length = 1 if op == "var" else sum(c.length for c in children)

    def __repr__(self) -> str:
        return f"Expr(op={self.op!r}, key={self.key!r}, children={self.children!r})"

    def pretty(self, ascii_only: bool = False) -> str:
        return _pretty(self, " v " if ascii_only else " ∨ ")

    def __str__(self) -> str:
        return self.pretty()


def _pretty(e: Expr, orsep: str) -> str:
    if e.op == "var":
        return tuple_id(e.key[0], e.key[1])
    if e.op == "false":
        return "false"
    if e.op == "or":
        return orsep.join(_pretty(c, orsep) for c in e.children)
    parts = []
    for c in e.children:
        s = _pretty(c, orsep)
        if c.op == "or" and len(c.children) > 1:
            s = f"({s})"
        parts.append(s)
    return " ".join(parts)


def e_var(key: TupleKey) -> Expr:
    return Expr("var", key=key)


def e_and(children: list[Expr]) -> Expr:
    flat: list[Expr] = []
    for c in children:
        if c.op == "and":
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return Expr("and", children=tuple(flat))


def e_or(children: list[Expr]) -> Expr:
    flat: list[Expr] = []
    for c in children:
        if c.op == "or":
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return Expr("or", children=tuple(flat))


def _product_terms(e: Expr, max_terms: int):
    """Yield `e`'s DNF product terms as frozensets, repeats included.  An AND
    node expands every child but its last in full (at most `max_terms`
    partial products, else `ExpansionTooLarge`) and streams the last."""
    if e.op == "var":
        yield frozenset([e.key])
    elif e.op == "or":
        for c in e.children:
            yield from _product_terms(c, max_terms)
    elif e.op == "and":
        head = [frozenset()]
        for c in e.children[:-1]:
            terms = (a | b for b in _product_terms(c, max_terms) for a in head)
            head = list(islice(terms, max_terms + 1))
            if len(head) > max_terms:
                raise ExpansionTooLarge(f"more than {max_terms} product terms")
        for b in _product_terms(e.children[-1], max_terms):
            for a in head:
                yield a | b


def _stream(e: Expr, max_terms: int):
    """`_product_terms`, raising `ExpansionTooLarge` past `max_terms` terms
    (repeats counted) or on an expression too deep to expand."""
    try:
        for n, term in enumerate(_product_terms(e, max_terms), 1):
            if n > max_terms:
                raise ExpansionTooLarge(f"more than {max_terms} product terms")
            yield term
    except RecursionError:
        raise ExpansionTooLarge("expression too deep to expand") from None


def expand(e: Expr, max_terms: int = 200_000) -> set[frozenset[TupleKey]]:
    """Distribute into DNF product terms, guarded by a term-count cap."""
    return set(_stream(e, max_terms))


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------

def _plan_steps(table: TemplateTable, v: Veo) -> list[tuple]:
    """`v`'s nodes in preorder, each as ``(template id, parent step or -1,
    node, branch signature)``, the signature being the sorted child nodes,
    () at a leaf.  Raises `IllegalAssignment` unless `v` covers exactly the
    query's variables."""
    q = table.query
    if v.vars_below != q.variables:
        raise IllegalAssignment(f"plan {v} does not cover the variables of {q.name}")
    steps: list[tuple] = []
    stack = [(v, -1, -1)]  # (subtree, parent step, parent template id)
    while stack:
        t, parent, ptid = stack.pop()
        tid = table.child(ptid, t.node)
        stack.extend((c, len(steps), tid) for c in reversed(t.children))
        steps.append((tid, parent, t.node, tuple(sorted(c.node for c in t.children))))
    return steps


class _Trie:
    """The assembly trie of one plan per witness, in columns.

    Each distinct plan object's preorder steps (`_plan_steps`) run over its
    witnesses a step at a time.  A row is an instance of the witness set
    (`WitnessSet.instances`), which fixes its parent, and is addressed by
    its id.  Per id, `tuples` holds the tuple keys of a witness on the row
    (None off the trie), off which its template's anchored atoms read, and
    `ends` a 1 where a plan ends.  `groups` has the inner rows only: row ->
    {branch signature: {child node: rows}}.  `build` makes one `Expr("var")`
    per tuple key in `leaves` and one expression per row in `built`,
    dropping the row's groups once it is built, so a row in several groups
    is one shared node.
    """

    __slots__ = ("inst", "tuples", "ends", "groups", "roots", "leaves", "built")

    def __init__(self, W: WitnessSet, plans: tuple[Veo, ...] | list[Veo]) -> None:
        witnesses = W.witnesses
        try:
            inst = self.inst = W.instances
        except UnboundVariable:  # name the first variable the plans meet unbound, in preorder
            table = TemplateTable.of(W.query)
            for w, v in zip(witnesses, plans):
                vals = w.values
                if unbound := [x for s in _plan_steps(table, v) for x in s[2] if x not in vals]:
                    raise IllegalAssignment(f"witness {w.key} does not bind {unbound[0]}")
            raise
        tuples, ends = self.tuples, self.ends = [], bytearray()
        groups: dict[int, dict] = {}
        roots = self.roots = set()
        for v in dict(zip(map(id, plans), plans)).values():  # each plan once, first seen first
            steps = _plan_steps(inst.table, v)
            on = [w for w, p in zip(witnesses, plans) if p is v]
            rows_at: list[list[int]] = []  # per step, its rows, aligned with `on`
            for tid, parent, node, sig in steps:
                rows = inst.ids(tid, on)
                rows_at.append(rows)
                grow = len(inst) - len(tuples)
                tuples.extend(repeat(None, grow))
                ends.extend(bytes(grow))
                made = dict(zip(rows, on))  # each row once, with a witness on it
                for r, w in made.items():
                    tuples[r] = w.tuples
                    if sig:
                        groups.setdefault(r, {}).setdefault(sig, {n: set() for n in sig})
                    else:
                        ends[r] = 1
                if parent < 0:
                    roots.update(made)
                else:
                    for rp, r in set(zip(rows_at[parent], rows)):
                        groups[rp][steps[parent][3]][node].add(r)
        self.groups = groups
        self.leaves: dict[TupleKey, Expr] = {}
        self.built: list[Expr | None] = [None] * len(tuples)

    def order(self, r: int) -> tuple:
        """Sort key of sibling (or root) rows: the last node's serialization,
        then the node and its pairs.  Siblings share the parent path, so
        this is the order of the whole paths by serialization, then by path."""
        tid, pairs = self.inst.keys[r]
        last = self.inst.table.split(tid, pairs)[-1]
        return "".join(f"{var}{val}" for var, val in last), self.inst.table.paths[tid][-1], last

    def build(self, r: int) -> Expr:
        """Row `r`'s tuples AND the OR over its branch signatures, each an AND
        over branches of the OR over the child rows; made once per row.
        Recursion depth is the plan depth."""
        e = self.built[r]
        if e is not None:
            return e
        tuples, leaves = self.tuples[r], self.leaves
        parts: list[Expr] = []
        for key in map(tuples.__getitem__, self.inst.table.atoms[self.inst.keys[r][0]]):
            parts.append(leaves.get(key) or leaves.setdefault(key, e_var(key)))
        groups = self.groups.pop(r, None)
        if groups:
            below = e_or([
                e_and([
                    e_or([self.build(c) for c in sorted(branches[bn], key=self.order)])
                    for bn in sorted(branches)
                ])
                for _, branches in sorted(groups.items())
            ])
            if self.ends[r]:
                # a plan ends here while others continue below, as legal plans
                # y <- (x, z) and y <- x <- z do at an instance of y <- x; the
                # trie has no expression for that, so it is rejected, after
                # the rows below, so that nested such rows name the innermost.
                raise IllegalAssignment(
                    f"node {self.inst.table.serial(*self.inst.keys[r])} mixes terminal and"
                    " continuing plans"
                )
            parts.append(below)
        e = self.built[r] = e_and(parts) if parts else Expr("false")
        return e


def assemble(W: WitnessSet, plans: tuple[Veo, ...] | list[Veo]) -> Expr:
    """The factorization expression for one plan per witness of `W`,
    aligned with `W.witnesses`.

    The expression is a trie over prefix instances: at each node, AND the
    tuples anchored there with, per branch signature, an AND over branches
    of ORs over child instances.  Instances shared across witnesses (and
    across different plans) merge.  The trie (see `_Trie`) is stored in
    columns, one row per instance node, and is freed on return.  The result
    is a DAG: each tuple key is one leaf object and each row one node,
    however often they occur; `length` counts the occurrences, and those
    past the first of each of ``W.distinct_tuples`` are its repeats.
    """
    if len(plans) != len(W):
        raise IllegalAssignment("assignment must cover exactly the witness set")
    if not plans:
        return Expr("false")
    trie = _Trie(W, plans)
    return e_or([trie.build(r) for r in sorted(trie.roots, key=trie.order)])


def verify_equivalence(e: Expr, W: WitnessSet, max_terms: int = 200_000) -> bool:
    """Whether the expression's DNF terms are exactly the witness terms.

    The product terms are streamed (see `expand`); each, in relation order,
    must be found in an index of the witnesses' `tuples`, and one byte per
    witness term records that it was produced.  Neither the expansion nor
    the set of witness terms is held whole.  Raises `ExpansionTooLarge` as `expand`.
    """
    rank = {a.relation: i for i, a in enumerate(W.query.atoms)}.get
    index = {t: i for i, t in enumerate(dict.fromkeys(w.tuples for w in W.witnesses))}
    hit = bytearray(len(index))
    for term in _stream(e, max_terms):
        wi = index.get(tuple(sorted(term, key=lambda key: rank(key[0], -1))))
        if wi is None:
            return False
        hit[wi] = 1
    return 0 not in hit
