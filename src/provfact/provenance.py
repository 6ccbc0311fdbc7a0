"""Databases and witnesses.

The provenance of a Boolean CQ over a database is a DNF with one product
term per witness.  A `Database` is read from text or a CSV directory, and
`compute_witnesses` joins the query's atoms over it into a `WitnessSet`.
Factorizing that DNF (templates, instances, expressions and assembly) is
`assembly`'s work; `WitnessSet.instances` reads it when first asked.
"""

from __future__ import annotations

import math
import os
import re
from functools import cached_property
from itertools import chain, product, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

from . import assembly
from .cq import Atom, Query, _Value, connected_components

__all__ = [
    "Database", "Witness", "WitnessSet", "FormatError", "ArityMismatch", "tuple_id",
    "parse_database", "load_database", "join_order", "compute_witnesses",
]

TupleKey = tuple[str, tuple[str, ...]]


class FormatError(ValueError):
    """Malformed database text or CSV directory."""


class ArityMismatch(ValueError):
    """A stored tuple's width disagrees with the query atom's arity."""


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
    binding's serialization (``x1_y2``), `values` and `tuple_ids` are
    computed on each access and cache nothing, so a loop that reads one of
    them often binds it once per witness.
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
        """The tuple keys the witnesses hold; a disconnected set's are its
        parts' (none if a part is empty), read without their product."""
        if not self.parts:
            return frozenset(t for w in self.witnesses for t in w.tuples)
        if not len(self):  # an empty part leaves the product empty
            return frozenset()
        return frozenset().union(*(part.distinct_tuples for part in self.parts))

    @cached_property
    def instances(self) -> assembly.Instances:
        """The one prefix-instance table of this witness set (`assembly.Instances`)."""
        return assembly.Instances(self)


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
