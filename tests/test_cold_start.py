"""Cold start: the one-pass input path and the package import footprint."""

import ast
import importlib
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import oracles
import provfact
from provfact.cq import Atom, independent_atoms, parse_query
from provfact.exact import solve_exact
from provfact.gen import FIXTURE_QUERIES, GenSpec, gen_random
from provfact.assembly import Expr
from provfact.provenance import (
    Database, FormatError, Witness, compute_witnesses, load_database, parse_database,
)
from provfact.veo import Veo, enumerate_mveo

QUERIES = {**FIXTURE_QUERIES, "ternary": "ternary :- R(x,y,z)"}


def assert_interned(db: Database) -> None:
    """Equal constants within the database are one object."""
    seen: dict[str, str] = {}
    for rows in db.relations.values():
        for row in rows:
            for c in row:
                assert seen.setdefault(c, c) is c, c


# d = 2, 8, 9, 1024 and 1025 sit where `bit_length` steps, so a draw is
# redrawn most often; from d = 11 on, string order is not numeric order.
@pytest.mark.parametrize(
    "d, tuples",
    [(1, 3), (2, 5), (4, 6), (8, 30), (9, 30), (12, 400), (30, 200), (1024, 300), (1025, 300)],
)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_gen_random_matches_the_reference_and_parses_back(name, d, tuples):
    q = parse_query(QUERIES[name])
    for seed in range(20):
        spec = GenSpec(query=q, d=d, tuples=tuples, seed=seed)
        db = gen_random(spec)
        assert db == oracles.reference_gen_random(spec), seed
        parsed = parse_database(db.text())
        assert parsed == db, seed
        assert_interned(db)
        assert_interned(parsed)


def test_gen_random_rejects_an_empty_domain():
    q = parse_query(QUERIES["ternary"])
    with pytest.raises(ValueError):
        gen_random(GenSpec(query=q, d=0, tuples=1))
    assert gen_random(GenSpec(query=q, d=0, tuples=0)).relations == {"R": ()}


def test_gen_random_rejects_a_negative_row_count():
    q = parse_query(QUERIES["ternary"])
    for d in (0, 3):
        with pytest.raises(ValueError, match=r"negative number of rows \(tuples=-3\)"):
            gen_random(GenSpec(query=q, d=d, tuples=-3))


def test_whitespace_around_constants_and_names_is_stripped():
    db = parse_database("  [ R ]  \n 1 ,\t2 \n1,2\n[S]\n  x\n# 1,,2\n")
    assert db.relations == {"R": (("1", "2"),), "S": (("x",),)}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]\n", "line 1: empty relation name"),
        ("# c\n\n[ ]\n", "line 3: empty relation name"),
        ("1,2\n[R]\n", "line 1: row before any [Relation] header"),
        ("[R]\n1,,2\n", "line 2: empty constant in row '1,,2'"),
        ("[R]\n1\n  1 , \n", "line 3: empty constant in row '1 ,'"),
    ],
)
def test_format_error_messages(text, message):
    with pytest.raises(FormatError) as exc:
        parse_database(text)
    assert str(exc.value) == message


_BREAKS = ["\n", "\n", "\r\n", "\x0b", "\x85", "\u2028"]
_CELLS = ["1", "2", "10", "a", "a b", "[x", "x]", "#"]


def _fuzz_lines(rng: random.Random, sections: bool) -> list[str]:
    """Lines of a database text (`sections`) or of one CSV file: runs of rows
    of one width or of mixed widths, with padded, empty and bracketed cells,
    among comments, blank lines and well- and ill-formed headers."""
    def pad(s: str) -> str:
        return rng.choice(["", "", "", " ", "\t"]) + s + rng.choice(["", "", "", " ", "\t "])

    lines: list[str] = []
    for _ in range(rng.randrange(1, 6)):
        r = rng.random()
        if r < 0.25 and sections:
            name = rng.choice(["R", "S", " R ", "S", "", " "])
            lines.append(pad("[" + name + rng.choice(["]", "]", "]", ""])))
        elif r < 0.35:
            lines.append(pad(rng.choice(["", "# c", "#1,,2", "[R]", "[x"])))
        else:
            width = rng.randrange(1, 4)
            for _ in range(rng.randrange(1, 9)):
                cells = [rng.choice(_CELLS) for _ in range(width + (rng.random() < 0.1))]
                if rng.random() < 0.15:
                    cells = [pad(c) for c in cells]
                if rng.random() < 0.03:
                    cells[rng.randrange(len(cells))] = rng.choice(["", " "])
                lines.append(pad(",".join(cells)) if rng.random() < 0.2 else ",".join(cells))
    return lines


def _join(rng: random.Random, lines: list[str]) -> str:
    """`lines`, each ended by a random line break, the last one sometimes not."""
    ends = [rng.choice(_BREAKS) for _ in lines]
    if rng.random() < 0.2:
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


def _outcome(read, source):
    """What `read` returns for `source`, or its `FormatError` message."""
    try:
        db = read(source)
    except FormatError as exc:
        return str(exc)
    assert_interned(db)
    return db


def test_parse_database_matches_the_reference_on_fuzzed_text():
    rng = random.Random(23)
    read = 0
    for _ in range(3000):
        text = _join(rng, ([] if rng.random() < 0.1 else ["[R]"]) + _fuzz_lines(rng, True))
        got = _outcome(parse_database, text)
        assert got == _outcome(oracles.reference_parse_database, text), text
        read += isinstance(got, Database)
    assert 1000 < read < 2900  # both outcomes are exercised


def test_csv_directory_matches_the_reference_on_fuzzed_files(tmp_path):
    rng = random.Random(23)
    read = 0
    for i in range(300):
        d = tmp_path / str(i)
        d.mkdir()
        for name in rng.sample(["R", "S", "T"], rng.randrange(1, 4)):
            (d / f"{name}.csv").write_text(_join(rng, _fuzz_lines(rng, False)))
        got = _outcome(load_database, d)
        assert got == _outcome(oracles.reference_load_csv_dir, d), i
        read += isinstance(got, Database)
    assert 100 < read < 290


def test_csv_format_error_messages(tmp_path):
    (tmp_path / "R.csv").write_text("1\n\n 2, \n")
    with pytest.raises(FormatError) as exc:
        load_database(tmp_path)
    assert str(exc.value) == "R.csv:3: empty constant"
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FormatError) as exc:
        load_database(empty)
    assert str(exc.value) == f"{empty}: no .csv files found"
    with pytest.raises(FormatError) as exc:
        load_database(tmp_path / "missing.db")
    assert str(exc.value) == f"{tmp_path / 'missing.db'}: no such file or directory"


def test_csv_directory_equals_the_same_text(tmp_path):
    q = parse_query(FIXTURE_QUERIES["triangle-u"])
    db = gen_random(GenSpec(query=q, d=6, tuples=20, seed=3))
    for name, rows in db.relations.items():
        lines = [" , ".join(row) for row in reversed(rows)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines + ["", lines[0]]) + "\n")
    loaded = load_database(tmp_path)
    assert loaded == parse_database(db.text()) == db
    assert_interned(loaded)


SRC = Path(provfact.__file__).resolve().parent


def _fresh(code: str) -> list[str]:
    """Run `code` in a fresh interpreter that imports from this source tree;
    its stdout lines."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


SOLVERS = {f"provfact.{m}" for m in ("exact", "flow", "special", "_mincut")}
_RUN = (  # the provfact.* modules whose code has run; a module not yet run has another type
    "print(' '.join(sorted(m for m, v in list(sys.modules.items())"
    " if m.startswith('provfact.') and type(v) is types.ModuleType)))\n"
)


PIPELINE = ("cq", "veo", "provenance", "assembly", "exact", "flow", "special")
_INPUTS = (  # parse a 3chain query and its database, then join them
    "from provfact.cq import parse_query\n"
    "from provfact.gen import GenSpec, gen_random\n"
    "from provfact.provenance import compute_witnesses, parse_database\n"
    "q = parse_query('Q :- R(x,y), S(y,z), T(z,u)')\n"
    "db = parse_database(gen_random(GenSpec(query=q, d=6, tuples=14, seed=1)).text())\n"
    "W = compute_witnesses(q, db)\n"
)


def test_import_loads_only_the_pipeline():
    """`import provfact` registers the seven pipeline modules and runs none;
    reading inputs runs the input modules only; a witness set's instance
    table runs the plans and assembly; the first read of `dispatch` runs
    the solvers."""
    lines = _fresh(
        "import sys, types, provfact\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('provfact.'))))\n"
        + _RUN
        + _INPUTS
        + _RUN
        + "W.instances\n"
        + _RUN
        + "dispatch = provfact.special.dispatch\n"
        + _RUN
        + "print(dispatch.__module__)\n"
    )
    registered, at_import, after_inputs, after_instances, after_dispatch, dispatch_line = lines[:6]
    pipeline = {f"provfact.{m}" for m in PIPELINE}
    assert set(registered.split()) == pipeline
    assert at_import == ""
    inputs = {f"provfact.{m}" for m in ("cq", "provenance", "gen")}
    assert set(after_inputs.split()) == inputs
    assert set(after_instances.split()) == inputs | {"provfact.veo", "provfact.assembly"}
    assert set(after_dispatch.split()) == pipeline | SOLVERS | inputs
    assert dispatch_line == "provfact.special"


def test_assembly_imported_first_runs_the_pipeline():
    """`assembly` imports from `provenance`, which holds a reference to
    `assembly`: imported first, before any other provfact name, it still
    joins and dispatches."""
    lines = _fresh(
        "from provfact.assembly import assemble\n"
        + _INPUTS
        + "from provfact.special import dispatch\n"
        "print(dispatch(q, W).length, len(W.instances) > 0, assemble.__module__)\n"
    )
    assert lines[0] == "45 True provfact.assembly"


def test_each_public_name_has_one_home():
    """Each name in a pipeline module's `__all__` is in no other module's,
    and a function or class listed there is defined there: no module
    re-exports another's names, and the moved assembly names are not
    reachable through `provenance`."""
    modules = {m: importlib.import_module(f"provfact.{m}") for m in PIPELINE}
    home: dict[str, str] = {}
    for name, module in modules.items():
        for attr in module.__all__:
            assert home.setdefault(attr, name) == name, (attr, home[attr], name)
            value = getattr(module, attr)
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, (name, attr)
    assert not [a for a in modules["assembly"].__all__ if hasattr(modules["provenance"], a)]


def test_cli_import_loads_neither_ilp_nor_bench(tmp_path):
    """`import provfact.cli` runs neither `ilp` nor `bench`, which their
    subcommands import when they run; `gen`, `mveo` and `witnesses`, each
    in a fresh interpreter, run no solver module, and `gen` and
    `witnesses` run neither the plans nor assembly."""
    (tmp_path / "q.q").write_text("Q :- R(x,y), S(y,z), T(z,u)\n")
    (tmp_path / "db.txt").write_text("[R]\n1,2\n[S]\n2,3\n[T]\n3,4\n")
    for argv in (
        "gen --fixture 3chain --d 6 --tuples 14 --seed 1 --out out.txt",
        "mveo q.q",
        "witnesses q.q db.txt",
    ):
        lines = _fresh(
            "import contextlib, io, os, sys, types\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "import provfact.cli\n"
            + _RUN
            + "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert provfact.cli.main({argv.split()!r}) == 0\n"
            + _RUN
        )
        at_import, after_run = (set(line.split()) for line in lines[:2])
        assert {"provfact.cli", "provfact.gen"} <= at_import, argv
        assert not at_import & {"provfact.ilp", "provfact.bench"}, argv
        assert not after_run & (SOLVERS | {"provfact.ilp", "provfact.bench"}), argv
        assert "provfact.provenance" in after_run, argv
        planned = {"provfact.veo", "provfact.assembly"}  # `mveo` lists the plans
        assert after_run & planned == (planned if argv.startswith("mveo") else set()), argv


def test_import_loads_neither_dataclasses_nor_logging():
    """`import provfact` creates no generated methods and loads no logging;
    `site` may have loaded either before, so only what the import adds counts."""
    added = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import provfact\n"
        "print(' '.join(sorted({'dataclasses', 'logging'} & (set(sys.modules) - before))))\n"
    )[0]
    assert added == ""


def test_no_module_imports_dataclasses_and_only_cli_and_ilp_import_logging():
    for path in sorted(SRC.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
        assert "dataclasses" not in imported, path.name
        if path.stem not in ("cli", "ilp"):
            assert "logging" not in imported, path.name


def test_values_compare_and_hash_over_their_fields():
    """The plain value classes order, compare and hash as the frozen
    dataclasses they replace did: over their fields, as a tuple."""
    def twice(make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        return a, b

    for name in ("triangle-u", "q3star", "2chain-we"):
        q = parse_query(QUERIES[name])
        assert sorted(independent_atoms(q)) == sorted(
            independent_atoms(q), key=lambda a: (a.relation, a.vars)
        )
    assert Atom("R", ("x", "y")) < Atom("R", ("y",)) < Atom("S", ("x",))
    with pytest.raises(TypeError):
        Atom("R", ("x",)) < ("R", ("x",))

    q, q2 = twice(lambda: parse_query(QUERIES["triangle-u"]))
    assert hash(q) == hash(q2) == hash((q.name, q.atoms, q.variables))
    assert q != parse_query(QUERIES["triangle-u"].replace("triangle_u", "t"))
    db, db2 = twice(lambda: gen_random(GenSpec(query=q, d=4, tuples=8, seed=1)))
    with pytest.raises(TypeError):  # a database holds a dict, as it always did
        hash(db)
    W = compute_witnesses(q, db)
    w, w2 = twice(lambda: compute_witnesses(q, db2).witnesses[0])
    assert hash(w) == hash(w2) == hash((w.binding, w.tuples))
    v, v2 = twice(lambda: enumerate_mveo(q)[0])
    assert hash(v) == hash(v2) == hash((v.node, v.children))
    e, e2 = twice(lambda: solve_exact(q, W).expression)
    assert hash(e) == hash(e2) == hash((e.op, e.key, e.children))
    assert Expr("var", key=w.tuples[0]) != Expr("var", key=w.tuples[1])

    for value, other in (
        (q.atoms[0], (q.atoms[0].relation, q.atoms[0].vars)),
        (q, q.atoms),
        (w, Witness(w.binding, w.tuples[:-1])),
        (w, Expr("var", key=w.tuples[0])),
        (v, Veo(v.node)),
        (e, e.children),
        (db, db.relations),
    ):
        assert value != other and other != value
