"""Cold start: the one-pass input path and the package import footprint."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import provfact
from provfact.cq import parse_query
from provfact.gen import FIXTURE_QUERIES, GenSpec, gen_random
from provfact.provenance import Database, FormatError, load_database, parse_database

QUERIES = {**FIXTURE_QUERIES, "ternary": "ternary :- R(x,y,z)"}


def assert_interned(db: Database) -> None:
    """Equal constants within the database are one object."""
    seen: dict[str, str] = {}
    for rows in db.relations.values():
        for row in rows:
            for c in row:
                assert seen.setdefault(c, c) is c, c


@pytest.mark.parametrize("d, tuples", [(1, 3), (4, 6), (30, 200)])
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


def _fresh_import(module: str) -> list[str]:
    """Import `module` in a fresh interpreter; its stdout lines are the
    loaded ``provfact.*`` modules and then `dispatch`'s module."""
    src = str(Path(provfact.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        f"import sys, provfact, {module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('provfact.'))))\n"
        "print(provfact.special.dispatch.__module__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


def test_import_loads_only_the_pipeline():
    loaded, dispatch_module = _fresh_import("provfact")[:2]
    loaded = set(loaded.split())
    pipeline = {f"provfact.{m}" for m in ("cq", "veo", "provenance", "exact", "flow", "special")}
    assert pipeline <= loaded
    assert not loaded & {f"provfact.{m}" for m in ("ilp", "bench", "gen", "cli")}
    assert dispatch_module == "provfact.special"


def test_cli_import_loads_neither_ilp_nor_bench():
    """The `ilp` and `bench` subcommands import their modules when they run."""
    loaded = set(_fresh_import("provfact.cli")[0].split())
    assert {"provfact.cli", "provfact.gen"} <= loaded
    assert not loaded & {"provfact.ilp", "provfact.bench"}
