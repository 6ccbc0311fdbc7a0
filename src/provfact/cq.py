"""Self-join-free Boolean conjunctive queries: parsing and structural tests.

A query is a list of atoms over distinct relation names, e.g.
``Q :- R(x,y), S(y,z)``.  This module answers the structural questions the
rest of the package routes on: hierarchy (nested/disjoint variable atom
sets), atom independence, connected components and triads (a query is
linear when `has_triad` finds none).  One union-find, `_linked`, answers
which pieces are linked, here and for `veo`'s plans and `exact`'s search.
"""

from __future__ import annotations

import itertools
import re
from operator import attrgetter

__all__ = [
    "Atom",
    "Query",
    "QuerySyntaxError",
    "SelfJoinError",
    "HeadVarError",
    "UnknownVariable",
    "DisconnectedQueryError",
    "parse_query",
    "atoms_of",
    "is_hierarchical",
    "independent_atoms",
    "has_triad",
]


class QuerySyntaxError(ValueError):
    """The query text does not match the grammar ``Name :- R(x,y), ...``."""


class SelfJoinError(ValueError):
    """A relation name occurs in more than one atom."""


class HeadVarError(ValueError):
    """The query head carries variables; only Boolean queries are supported."""


class UnknownVariable(KeyError):
    """A variable was requested that does not occur in the query."""


class DisconnectedQueryError(ValueError):
    """The plan model was asked to solve a query whose hypergraph is not
    connected; its connected components are solved apart instead."""


class _Value:
    """Equality and hashing over the fields that `_key` reads: the base of
    the immutable classes that compare by content.  Nothing assigns to a
    value's fields once it is made."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class Atom(_Value):
    """One subgoal ``R(x, y, ...)``: a relation name and its variable list.
    Atoms order by relation, then variables."""

    __slots__ = ("relation", "vars", "varset")
    _key = attrgetter("relation", "vars")

    def __init__(self, relation: str, vars: tuple[str, ...]) -> None:
        self.relation, self.vars = relation, vars
        self.varset = frozenset(vars)

    def __lt__(self, other: Atom) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) < other._key(other)

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.vars)})"


class Query(_Value):
    """A self-join-free Boolean conjunctive query."""

    __slots__ = ("name", "atoms", "variables")
    _key = attrgetter("name", "atoms", "variables")

    def __init__(self, name: str, atoms: tuple[Atom, ...]) -> None:
        self.name, self.atoms = name, atoms
        self.variables = frozenset(v for a in atoms for v in a.vars)

    def __str__(self) -> str:
        return f"{self.name} :- " + ", ".join(str(a) for a in self.atoms)

    @property
    def m(self) -> int:
        return len(self.atoms)


_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)")
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*$")


def parse_query(text: str) -> Query:
    """Parse ``Name :- R(x,y), S(y,z)`` (the head is optional) into a Query.

    Lowercase identifiers are variables; anything else in an argument
    position (constants, capitalized tokens) is rejected.  Raises
    QuerySyntaxError / SelfJoinError / HeadVarError accordingly.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    src = " ".join(lines).strip()
    if not src:
        raise QuerySyntaxError("empty query text")

    name = "Q"
    if ":-" in src:
        head, _, body = src.partition(":-")
        head = head.strip()
        m = _ATOM_RE.fullmatch(head)
        if m:
            if m.group(2).strip():
                raise HeadVarError(f"query head {head!r} must not carry variables")
            name = m.group(1)
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", head):
            name = head
        else:
            raise QuerySyntaxError(f"malformed query head: {head!r}")
    else:
        body = src

    atoms: list[Atom] = []
    rest = body.strip()
    while rest:
        m = _ATOM_RE.match(rest)
        if not m:
            raise QuerySyntaxError(f"malformed atom list near: {rest!r}")
        rel, args = m.group(1), m.group(2)
        varlist = [v.strip() for v in args.split(",")] if args.strip() else []
        if not varlist:
            raise QuerySyntaxError(f"atom {rel} has no variables")
        for v in varlist:
            if not _VAR_RE.match(v):
                raise QuerySyntaxError(
                    f"argument {v!r} of {rel} is not a lowercase variable "
                    "(constants are not supported)"
                )
        if len(set(varlist)) != len(varlist):
            raise QuerySyntaxError(f"atom {rel} repeats a variable: {args!r}")
        atoms.append(Atom(rel, tuple(varlist)))
        rest = rest[m.end():].lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
        elif rest:
            raise QuerySyntaxError(f"expected ',' between atoms near: {rest!r}")

    if not atoms:
        raise QuerySyntaxError("query has no atoms")

    rels = [a.relation for a in atoms]
    for rel, cnt in ((r, rels.count(r)) for r in set(rels)):
        if cnt > 1:
            raise SelfJoinError(f"relation {rel} occurs {cnt} times (self-joins unsupported)")

    return Query(name, tuple(atoms))


def atoms_of(q: Query, x: str) -> frozenset[Atom]:
    """The set at(x) of atoms whose variable list contains x."""
    if x not in q.variables:
        raise UnknownVariable(x)
    return frozenset(a for a in q.atoms if x in a.vars)


def is_hierarchical(q: Query) -> bool:
    """True iff for every variable pair the atom sets are nested or disjoint."""
    at = {v: atoms_of(q, v) for v in q.variables}
    for x, y in itertools.combinations(sorted(q.variables), 2):
        ax, ay = at[x], at[y]
        if not (ax <= ay or ay <= ax or not (ax & ay)):
            return False
    return True


def independent_atoms(q: Query) -> frozenset[Atom]:
    """Atoms g with no other atom whose variable set is a strict subset of var(g)."""
    out = []
    for g in q.atoms:
        if not any(h is not g and h.varset < g.varset for h in q.atoms):
            out.append(g)
    return frozenset(out)


def _linked(n: int, groups) -> list[list[int]]:
    """The classes of ``0..n-1`` once the members of each group are linked,
    each in ascending order, ordered by their smallest member."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for group in groups:
        it = iter(group)
        for first in it:  # runs once, on a nonempty group
            head = find(first)
            for a in it:
                parent[find(a)] = head
    classes: dict[int, list[int]] = {}
    for a in range(n):
        classes.setdefault(find(a), []).append(a)
    return list(classes.values())


def _holders(q: Query, banned: frozenset[str] = frozenset()) -> list[list[int]]:
    """Per variable not in `banned`, the indices of the atoms that hold it."""
    return [[i for i, a in enumerate(q.atoms) if v in a.varset] for v in q.variables - banned]


def connected_components(q: Query) -> tuple[Query, ...]:
    """The components of the atom graph (atoms adjacent iff they share a
    variable): ``(q,)`` if connected, else sub-queries ``Q.1``, ``Q.2``, ...
    ordered by their sorted relation names, their atoms in `q`'s order."""
    comps = _linked(q.m, _holders(q))
    if len(comps) == 1:
        return (q,)
    comps.sort(key=lambda c: sorted(q.atoms[i].relation for i in c))
    return tuple(
        Query(f"{q.name}.{i}", tuple(q.atoms[j] for j in comp))
        for i, comp in enumerate(comps, 1)
    )


def has_triad(q: Query) -> tuple[Atom, Atom, Atom] | None:
    """Find a triad: three independent atoms, each pair connected by a path
    avoiding the third atom's variables.  Returns the triple or None."""
    indep = sorted(independent_atoms(q))
    at = [q.atoms.index(g) for g in indep]
    part = []  # part[g][a]: independent atom a's class once g's variables are deleted
    for g in indep:  # an atom left with no variable is a class of its own
        classes = _linked(q.m, _holders(q, g.varset))
        cls = {i: c for c, members in enumerate(classes) for i in members}
        part.append([cls[i] for i in at])
    for x, y, z in itertools.combinations(range(len(indep)), 3):
        if part[z][x] == part[z][y] and part[y][x] == part[y][z] and part[x][y] == part[x][z]:
            return indep[x], indep[y], indep[z]
    return None
