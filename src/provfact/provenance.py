"""Databases, witnesses, prefix templates and instances, and factorization assembly.

The provenance of a Boolean CQ over a database is a DNF with one product
term per witness.  A factorization is an equivalent nested AND/OR
expression (`Expr`); its length counts literal leaves only and is fixed
when each node is made.  Its cost model is the weighted count of distinct
prefix instances.  `TemplateTable` is the one place that says what a
template is and what it weighs: it interns each plan root path as a
template id with its anchored atoms and their count.  `Instances`, one per
witness set, is the one place that interns an instance, ``(template id,
binding pairs)``, as an id; exact, the ILP, flow and assembly all read it,
one column of ids per template (`Instances.ids`).
Assembly builds the expression for one plan per witness by merging
shared instances in a trie, so that equal instances — even across
different plans — are written once.  The trie's rows are instance ids,
kept in columns; it makes one leaf per tuple key and one node per row,
shared wherever they occur, and is freed when `assemble` returns: it forms
no reference cycle.
"""

from __future__ import annotations

import math
import os
import re
from functools import cached_property, lru_cache
from itertools import chain, islice, product, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

from .cq import Atom, DisconnectedQueryError, Query, _Value, connected_components
from .veo import (
    Node, Ordering, TooManyVariables, Veo, _node_str, anchored, build_ordering, enumerate_mveo,
)

__all__ = [
    "Database",
    "Witness",
    "WitnessSet",
    "TemplateTable",
    "Instances",
    "Expr",
    "Factorization",
    "FormatError",
    "ArityMismatch",
    "UnboundVariable",
    "IllegalAssignment",
    "ExpansionTooLarge",
    "tuple_id",
    "parse_database",
    "load_database",
    "join_order",
    "compute_witnesses",
    "assemble",
    "verify_equivalence",
]

TupleKey = tuple[str, tuple[str, ...]]


class FormatError(ValueError):
    """Malformed database text or CSV directory."""


class ArityMismatch(ValueError):
    """A stored tuple's width disagrees with the query atom's arity."""


class UnboundVariable(KeyError):
    """A witness does not bind a variable required by the path."""


class IllegalAssignment(ValueError):
    """A witness was assigned a plan that is not legal for the query."""


class ExpansionTooLarge(RuntimeError):
    """DNF expansion exceeded the term guard."""


def tuple_id(rel: str, values: tuple[str, ...]) -> str:
    """Render a tuple id like ``r_1`` or ``s_11`` (separators for wide constants)."""
    if all(len(v) == 1 for v in values):
        return f"{rel.lower()}_{''.join(values)}"
    return f"{rel.lower()}_{'_'.join(values)}"


class Database(_Value):
    """Relation name → sorted, deduplicated tuples of string constants.
    Equal when the relations are; a database holds a dict, so it is not
    hashable."""

    __slots__ = ("relations",)
    _key = attrgetter("relations")

    def __init__(self, relations: dict[str, tuple[tuple[str, ...], ...]]) -> None:
        self.relations = relations

    @staticmethod
    def from_dict(rels: dict[str, list[tuple[str, ...]] | set[tuple[str, ...]]]) -> "Database":
        """Normalise rows of any constants: each through `str`, deduplicated
        and sorted.  The parser and `gen.gen_random` build theirs directly."""
        clean = {
            name: tuple(sorted({tuple(str(c) for c in row) for row in rows}))
            for name, rows in rels.items()
        }
        return Database(clean)

    def size(self) -> int:
        return sum(len(rows) for rows in self.relations.values())

    def text(self) -> str:
        """Serialize to the sectioned text format.  Raises `FormatError` on a
        name or row that `parse_database` would not read back as itself."""
        lines = []
        for name in sorted(self.relations):
            if name.strip().splitlines() != [name] or "]" in name:
                raise FormatError(f"relation name {name!r} cannot be written")
            lines.append(f"[{name}]")
            rows = self.relations[name]
            consts = set().union(*rows)  # rows are checked only if a constant is suspect
            if not all(rows) or "" in consts or _SUSPECT.search("".join(consts)):
                for row, line in zip(rows, map(",".join, rows)):
                    if (line.strip().splitlines() != [line] or line[0] == "#"
                            or line[0] + line[-1] == "[]" or _read_row(line, {}.setdefault) != row):
                        raise FormatError(f"relation {name!r}: row {row!r} cannot be written")
            lines.extend(map(",".join, rows))
        return "\n".join(lines) + "\n"


_SUSPECT = re.compile(r"[\s,#\[]")  # \s is `str.isspace`, so every line break too


def _read_row(line: str, intern) -> tuple[str, ...] | None:
    """Split a stripped line into its stripped constants, each passed through
    `intern` (a dict's ``setdefault``, one per database, so that equal
    constants are one object); None when a constant is empty."""
    row = tuple(map(str.strip, line.split(",")))
    return None if "" in row else tuple(map(intern, row, row))


def _read_block(lines: list[str], rows: dict, intern) -> int | None:
    """Add the rows of `lines` (stripped, nonempty) to the keys of `rows`;
    the index of the first line with an empty constant, else None.  Rows
    of one width and no empty constant are read whole, others row by row."""
    commas = set(map(str.count, lines, repeat(",")))
    cells = list(map(str.strip, ",".join(lines).split(",")))
    if len(commas) == 1 and "" not in cells:
        rows.update(zip(zip(*[map(intern, cells, cells)] * (commas.pop() + 1)), repeat(None)))
        return None
    for i, line in enumerate(lines):
        row = _read_row(line, intern)
        if row is None:
            return i
        rows[row] = None
    return None


def parse_database(text: str) -> Database:
    """Parse the sectioned text format: ``[Rel]`` headers, one comma-separated
    row per line; ``#`` starts a comment.  Rows keep their first-seen
    order, so rows written sorted are sorted again in linear time."""
    intern = {}.setdefault
    rels: dict[str, dict[tuple[str, ...], None]] = {}
    rows: dict[tuple[str, ...], None] | None = None
    lines = [*map(str.strip, text.splitlines()), ""]  # the blank line ends the last block
    start = 0  # the first line of the current block of rows
    for i, line in enumerate(lines):
        if line and line[0] != "#" and not (line[0] == "[" and line[-1] == "]"):
            continue
        if start < i:
            if rows is None:
                raise FormatError(f"line {start + 1}: row before any [Relation] header")
            bad = _read_block(lines[start:i], rows, intern)
            if bad is not None:
                bad += start
                raise FormatError(f"line {bad + 1}: empty constant in row {lines[bad]!r}")
        start = i + 1
        if line[:1] == "[":
            name = line[1:-1].strip()
            if not name:
                raise FormatError(f"line {i + 1}: empty relation name")
            rows = rels.setdefault(name, {})
    return Database({name: tuple(sorted(rows)) for name, rows in rels.items()})


def load_database(source: str | os.PathLike) -> Database:
    """Load a database from a sectioned text file or a directory of
    ``Rel.csv`` files (headerless, comma-separated rows, blank lines skipped)."""
    p = Path(source)
    if p.is_dir():
        intern = {}.setdefault
        rels: dict[str, dict[tuple[str, ...], None]] = {}
        for csv_path in sorted(p.glob("*.csv")):
            lines = list(map(str.strip, csv_path.read_text().splitlines()))
            block = list(filter(None, lines))
            bad = _read_block(block, rels.setdefault(csv_path.stem, {}), intern)
            if bad is not None:  # an earlier equal line would have been bad too
                raise FormatError(f"{csv_path.name}:{lines.index(block[bad]) + 1}: empty constant")
        if not rels:
            raise FormatError(f"{p}: no .csv files found")
        return Database({name: tuple(sorted(rows)) for name, rows in rels.items()})
    if not p.exists():
        raise FormatError(f"{p}: no such file or directory")
    return parse_database(p.read_text())


class Witness(_Value):
    """One satisfying valuation: a variable binding plus its matched tuples.

    Slotted, so a witness holds its binding and tuple keys only (about
    240 B in a witness set, whose pairs and keys are shared).  `key`, the
    binding's serialization (``x1_y2``), `values`, `tuple_set` and
    `tuple_ids` are computed on each access and cache nothing, so a loop
    that reads one of them often binds it once per witness.
    """

    __slots__ = ("binding", "tuples")
    _key = attrgetter("binding", "tuples")

    def __init__(
        self,
        binding: tuple[tuple[str, str], ...],  # sorted (variable, constant)
        tuples: tuple[TupleKey, ...],  # aligned with the query's atoms
    ) -> None:
        self.binding, self.tuples = binding, tuples

    @property
    def key(self) -> str:
        return "_".join(f"{var}{val}" for var, val in self.binding)

    @property
    def values(self) -> dict[str, str]:
        return dict(self.binding)

    @property
    def tuple_set(self) -> frozenset[TupleKey]:
        return frozenset(self.tuples)

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        return tuple(tuple_id(rel, vals) for rel, vals in self.tuples)

    def __str__(self) -> str:
        return " ".join(sorted(self.tuple_ids))


def _interned(table: dict, items) -> tuple:
    """`items` as a tuple of `table`'s copies of them; an item the table
    lacks becomes its own copy.  Sharing one table across a witness set
    makes equal tuple keys and binding pairs one object."""
    items = tuple(items)
    return tuple(map(table.setdefault, items, items))


class WitnessSet:
    """The provenance DNF: all witnesses of a query over a database.

    A disconnected query's set has `parts`, its components' witness sets
    (see `compute_witnesses`); `len` is the product of their sizes, and
    `witnesses`, their product, is built when first read: the parts'
    binding pairs and tuple keys in the query's order, sorted by key.
    """

    def __init__(
        self, query: Query, witnesses: tuple[Witness, ...] = (), parts: tuple[WitnessSet, ...] = ()
    ) -> None:
        self.query, self.parts = query, parts
        if not parts:
            self.witnesses = witnesses

    def __len__(self) -> int:
        return math.prod(map(len, self.parts)) if self.parts else len(self.witnesses)

    def __iter__(self):
        return iter(self.witnesses)

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        rank = {a.relation: i for i, a in enumerate(self.query.atoms)}.__getitem__
        witnesses = [
            Witness(
                tuple(sorted(chain.from_iterable(w.binding for w in ws))),
                tuple(sorted(chain.from_iterable(w.tuples for w in ws), key=lambda t: rank(t[0]))),
            )
            for ws in product(*(part.witnesses for part in self.parts))
        ]
        witnesses.sort(key=lambda w: w.key)
        return tuple(witnesses)

    @cached_property
    def distinct_tuples(self) -> frozenset[TupleKey]:
        return frozenset(t for w in self.witnesses for t in w.tuples)

    @cached_property
    def instances(self) -> "Instances":
        """The one prefix-instance table of this witness set (`Instances`)."""
        return Instances(self)

    def dnf_terms(self) -> set[frozenset[TupleKey]]:
        return {w.tuple_set for w in self.witnesses}


def join_order(q: Query, d: Database) -> tuple[Atom, ...]:
    """The order in which `compute_witnesses` joins the atoms of a connected
    query (it joins a disconnected one component by component).

    Next comes the atom sharing the most variables with the atoms already
    joined, ties broken by the smaller relation, then by source position.
    On a connected query every atom after the first thus shares a variable
    with an earlier one, so no intermediate result is a cross product.
    """
    remaining = list(q.atoms)  # source order, for the last tie-break
    bound: set[str] = set()
    order = []
    while remaining:
        atom = min(
            remaining,
            key=lambda a: (-len(bound & a.varset), len(d.relations.get(a.relation, ()))),
        )
        remaining.remove(atom)
        order.append(atom)
        bound |= atom.varset
    return tuple(order)


def _tuple_getter(positions: list[int]):
    """b -> tuple(b[i] for i in positions), without a per-call generator."""
    if not positions:
        return lambda b: ()
    if len(positions) == 1:  # itemgetter of one index returns a bare item
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def compute_witnesses(q: Query, d: Database) -> WitnessSet:
    """All witnesses via hash join over the atoms in `join_order`; the result
    is sorted by binding serialization (`Witness.key`) for determinism.

    A disconnected query is joined one connected component at a time: the
    result's `parts` are the witness sets of `connected_components(q)`, and
    their product, the query's witnesses, is built only if it is read.

    Each distinct ``(relation, values)`` tuple key and ``(variable,
    constant)`` pair is made once per result and shared by every witness
    that holds it, and through them by the `Expr` leaves and assembly rows
    built from it; the constants are the database's own strings.
    """
    for atom in q.atoms:
        for row in d.relations.get(atom.relation, ()):
            if len(row) != len(atom.vars):
                raise ArityMismatch(
                    f"{atom.relation} row {row} has arity {len(row)}, "
                    f"atom {atom} expects {len(atom.vars)}"
                )
    parts = connected_components(q)
    if len(parts) > 1:
        return WitnessSet(q, parts=tuple(compute_witnesses(sub, d) for sub in parts))
    # A partial binding is a tuple of constants; slot[v] is v's position.
    bindings: list[tuple[str, ...]] = [()]
    slot: dict[str, int] = {}
    for atom in join_order(q, d):
        shared = [i for i, v in enumerate(atom.vars) if v in slot]
        key_of = _tuple_getter([slot[atom.vars[i]] for i in shared])
        fresh: list[int] = []
        for i, v in enumerate(atom.vars):
            if v not in slot:
                slot[v] = len(slot)
                fresh.append(i)
        row_key, row_ext = _tuple_getter(shared), _tuple_getter(fresh)
        index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for row in d.relations.get(atom.relation, ()):
            index.setdefault(row_key(row), []).append(row_ext(row))
        bindings = [b + ext for b in bindings for ext in index.get(key_of(b), ())]
        if not bindings:
            return WitnessSet(q, ())

    names = sorted(slot)
    name_values = _tuple_getter([slot[v] for v in names])
    atom_values = [(a.relation, _tuple_getter([slot[v] for v in a.vars])) for a in q.atoms]
    table: dict = {}  # pairs and tuple keys never compare equal
    witnesses = [
        Witness(
            _interned(table, zip(names, name_values(b))),
            _interned(table, [(rel, values(b)) for rel, values in atom_values]),
        )
        for b in bindings
    ]
    witnesses.sort(key=lambda w: w.key)
    return WitnessSet(q, tuple(witnesses))


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


class Factorization:
    """One plan per witness, in witness order (`WitnessSet.witnesses`),
    together with its assembled expression."""

    __slots__ = ("plans", "expression", "length", "repeats")

    def __init__(self, plans: tuple[Veo, ...], expression: Expr, length: int, repeats: int) -> None:
        self.plans, self.expression, self.length, self.repeats = plans, expression, length, repeats

    def pretty(self, ascii_only: bool = False) -> str:
        return self.expression.pretty(ascii_only)


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


def assemble(W: WitnessSet, plans: tuple[Veo, ...] | list[Veo]) -> Factorization:
    """Build the factorization expression for one plan per witness of `W`,
    aligned with `W.witnesses`.

    The expression is a trie over prefix instances: at each node, AND the
    tuples anchored there with, per branch signature, an AND over branches
    of ORs over child instances.  Instances shared across witnesses (and
    across different plans) merge.  The trie (see `_Trie`) is stored in
    columns, one row per instance node, and is freed on return.  The result
    is a DAG: each tuple key is one leaf object and each row one node,
    however often they occur; `length` counts the occurrences.
    """
    if len(plans) != len(W):
        raise IllegalAssignment("assignment must cover exactly the witness set")
    if not plans:
        return Factorization((), Expr("false"), 0, 0)
    trie = _Trie(W, plans)
    expr = e_or([trie.build(r) for r in sorted(trie.roots, key=trie.order)])
    # one leaf per distinct tuple key: the occurrences past it are repeats
    return Factorization(tuple(plans), expr, expr.length, expr.length - len(trie.leaves))


def verify_equivalence(f: Factorization, W: WitnessSet, max_terms: int = 200_000) -> bool:
    """Whether the expression's DNF terms are exactly the witness terms.

    The product terms are streamed (see `expand`); each, in relation order,
    must be found in an index of the witnesses' `tuples`, and one byte per
    witness term records that it was produced.  Neither the expansion nor
    `W.dnf_terms()` is held whole.  Raises `ExpansionTooLarge` as `expand`.
    """
    rank = {a.relation: i for i, a in enumerate(W.query.atoms)}.get
    index = {t: i for i, t in enumerate(dict.fromkeys(w.tuples for w in W.witnesses))}
    hit = bytearray(len(index))
    for term in _stream(f.expression, max_terms):
        wi = index.get(tuple(sorted(term, key=lambda key: rank(key[0], -1))))
        if wi is None:
            return False
        hit[wi] = 1
    return 0 not in hit

