"""Command-line interface: subcommand outputs, exit codes, error handling."""

import json
import logging
import subprocess
import sys
from functools import partial

import pytest

import dbs
from provfact import cli, ilp
from provfact.cli import main
from provfact.gen import GenSpec, fixture_query, gen_random

Q2STAR = "Q :- R(x), S(x,y), T(y)\n"
TRIANGLE = "Q :- R(x,y), S(y,z), T(z,x)\n"
CHAIN3 = "Q :- R(x,y), S(y,z), T(z,u)\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("q2star.q", Q2STAR),
        ("triangle.q", TRIANGLE),
        ("3chain.q", CHAIN3),
        ("fig2a.db", dbs.FIG2A),
        ("fig2a_s13.db", dbs.FIG2A_S13),
        ("appb1.db", dbs.APPB1),
        ("fig7d.db", dbs.FIG7D),
        ("leakage.db", dbs.LEAKAGE),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_version_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "provfact.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "provfact 0.1.0"


def test_mveo(capsys, files):
    rc, out, _ = run(capsys, ["mveo", files["q2star.q"]])
    assert rc == 0
    assert out.splitlines() == ["v1: x <- y", "v2: y <- x"]


def test_classify(capsys, files):
    rc, out, _ = run(capsys, ["classify", files["triangle.q"]])
    assert rc == 0
    assert out.splitlines() == ["tags: triad", "plans: 3"]


def test_witnesses(capsys, files):
    rc, out, _ = run(capsys, ["witnesses", files["q2star.q"], files["fig2a.db"]])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "witnesses: 4"
    assert "x1_y1: r_1 s_11 t_1" in lines


def test_factorize_auto(capsys, files):
    rc, out, _ = run(capsys, ["factorize", files["q2star.q"], files["fig2a.db"]])
    assert rc == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["query"] == "Q"
    assert lines["witnesses"] == "4"
    assert lines["method"] == "q2star"
    assert lines["length"] == "10"
    assert lines["repeats"] == "0"
    assert lines["optimal"] == "true"
    assert "expression" in lines


def test_factorize_ascii_and_unicode(capsys, files):
    rc, out, _ = run(capsys, ["--ascii", "factorize", files["q2star.q"], files["fig2a.db"]])
    assert rc == 0
    expr = [l for l in out.splitlines() if l.startswith("expression: ")][0]
    assert " v " in expr and "∨" not in expr
    rc, out, _ = run(capsys, ["factorize", files["q2star.q"], files["fig2a.db"]])
    expr = [l for l in out.splitlines() if l.startswith("expression: ")][0]
    assert "∨" in expr


def test_factorize_methods_and_exit_codes(capsys, files):
    rc, out, _ = run(
        capsys, ["factorize", files["q2star.q"], files["fig2a_s13.db"], "--method", "exact"]
    )
    assert rc == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["method"] == "exact" and lines["length"] == "12" and lines["repeats"] == "1"
    rc, out, _ = run(
        capsys,
        ["factorize", files["q2star.q"], files["fig2a_s13.db"], "--method", "single-plan"],
    )
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["length"] == "13"


def test_factorize_flat_order(capsys, files):
    rc, out, _ = run(
        capsys,
        [
            "factorize",
            files["triangle.q"],
            files["leakage.db"],
            "--method",
            "flow",
            "--order",
            "flat:1,3,2",
        ],
    )
    # the v1,v3,v2 ordering leaks: cut 11 > optimum 10, reported non-optimal
    assert rc == 2
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["method"] == "flow"
    assert lines["length"] == "11"
    assert lines["optimal"] == "false"


def test_factorize_dump_graph(capsys, files, tmp_path):
    dot_path = tmp_path / "graph.dot"
    rc, out, _ = run(
        capsys,
        [
            "factorize",
            files["triangle.q"],
            files["fig7d.db"],
            "--method",
            "flow",
            "--dump-graph",
            str(dot_path),
        ],
    )
    # forced flow on a 3-plan query is heuristic, hence reported non-optimal
    assert rc == 2
    text = dot_path.read_text()
    assert text.startswith("digraph")


def test_ilp_stats_solve_and_lp(capsys, files, tmp_path):
    lp_path = tmp_path / "model.lp"
    rc, out, _ = run(
        capsys,
        ["ilp", files["3chain.q"], files["appb1.db"], "--solve", "--lp", str(lp_path)],
    )
    assert rc == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["vars"] == "12"
    assert lines["constraints"] == "14"
    assert lines["n"] == "2" and lines["k"] == "2" and lines["m"] == "3"
    assert lines["optimum"] == "4"
    lp = lp_path.read_text()
    assert "Minimize" in lp and lp.rstrip().endswith("End")


def test_ilp_reduce(capsys, files):
    rc, out, _ = run(capsys, ["ilp", files["3chain.q"], files["appb1.db"], "--reduce", "--solve"])
    assert rc == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["optimum"] == "4"
    assert int(lines["vars"]) <= 12


def test_ilp_solve_reports_a_truncated_search(capsys, files, monkeypatch):
    """A search cut off by its budget prints its incumbent as the best found,
    not as the optimum."""
    db = gen_random(GenSpec(query=fixture_query("3chain"), d=6, tuples=14, seed=1))
    db_path = files["dir"] / "chain60.db"
    db_path.write_text(db.text())
    monkeypatch.setattr(cli, "solve_model", partial(ilp.solve_model, budget=200))
    rc, out, _ = run(capsys, ["ilp", files["3chain.q"], str(db_path), "--solve"])
    assert rc == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert "optimum" not in lines
    assert lines["best found"] == "45 (budget exhausted; not proven optimal)"


def test_gen_fixture_roundtrip(capsys, tmp_path):
    rc, out, _ = run(capsys, ["gen", "--fixture", "q2star", "--d", "4", "--tuples", "5", "--seed", "1"])
    assert rc == 0
    assert out.startswith("[R]")
    rc2, out2, _ = run(
        capsys, ["gen", "--fixture", "q2star", "--d", "4", "--tuples", "5", "--seed", "1"]
    )
    assert out2 == out
    out_path = tmp_path / "db.txt"
    rc3, _, _ = run(
        capsys,
        ["gen", "--fixture", "q2star", "--d", "4", "--tuples", "5", "--seed", "1", "--out", str(out_path)],
    )
    assert rc3 == 0
    assert out_path.read_text() == out


def test_gen_gadget(capsys, files, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("# one edge\n1 2\n")
    rc, out, _ = run(capsys, ["gen", "--gadget", "3star", "--graph", str(graph)])
    assert rc == 0
    assert out.startswith("[")
    rc2, out2, _ = run(
        capsys,
        ["gen", "--gadget", "triad", "--query", files["triangle.q"], "--graph", str(graph)],
    )
    assert rc2 == 0
    assert out2.startswith("[")


def test_gen_errors(capsys, tmp_path):
    rc, _, err = run(capsys, ["gen", "--gadget", "3star"])
    assert rc == 1
    assert "error:" in err
    rc2, _, err2 = run(capsys, ["gen"])
    assert rc2 == 1 and "error:" in err2


def test_bench_set_overrides(capsys):
    rc, out, _ = run(
        capsys,
        [
            "bench",
            "--set",
            'queries=["q2star"]',
            "--set",
            "tuples=[6]",
            "--set",
            "reps=1",
            "--set",
            'methods=["flow"]',
            "--set",
            "d=5",
        ],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "query,d,tuples,witnesses,method,length,optimal,penalty_pct,solve_ms,seed,nodes"
    assert len(lines) >= 2
    assert lines[1].startswith("q2star,5,6,")


def test_bench_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"queries": ["q2star"], "tuples": [6], "reps": 1, "methods": ["flow"], "d": 5}))
    rc, out, _ = run(capsys, ["bench", "--config", str(cfg)])
    assert rc == 0
    assert out.splitlines()[0].startswith("query,d,")


def test_error_exit_codes(capsys, files, tmp_path):
    bad_q = tmp_path / "bad.q"
    bad_q.write_text("Q :- R(x), R(y)\n")
    rc, _, err = run(capsys, ["mveo", str(bad_q)])
    assert rc == 1
    assert "error:" in err
    rc2, _, err2 = run(capsys, ["witnesses", files["q2star.q"], str(tmp_path / "missing.db")])
    assert rc2 == 1 and "error:" in err2


def test_invariant_failure_is_reported_as_error(capsys, files, monkeypatch):
    """An internal AssertionError (e.g. flow's "extracted length exceeds cut
    value" on 4chain) exits 1 with an `error:` line; --verbose re-raises."""
    import provfact.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("extracted length 164 exceeds cut value 160")

    monkeypatch.setattr(cli, "dispatch", broken)
    argv = ["factorize", files["q2star.q"], files["fig2a.db"], "--method", "flow"]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert err.strip() == "error: extracted length 164 exceeds cut value 160"
    assert "Traceback" not in err and out == ""
    with pytest.raises(AssertionError):
        main(["--verbose"] + argv)


def test_verbose_shows_debug_lines(files):
    proc = subprocess.run(
        [
            sys.executable, "-m", "provfact.cli", "--verbose",
            "factorize", files["triangle.q"], files["fig7d.db"], "--method", "flow",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "DEBUG provfact.flow: flow graph: " in proc.stderr


def test_verbose_shows_debug_lines_in_process(caplog, files):
    """--verbose reaches the package's DEBUG lines also when the root logger
    already has a handler, as under pytest, where basicConfig does nothing."""
    argv = ["factorize", files["triangle.q"], files["fig7d.db"], "--method", "flow"]
    try:
        main(["--verbose"] + argv)
        assert any(
            r.name == "provfact.flow" and r.levelno == logging.DEBUG
            and r.getMessage().startswith("flow graph: ")
            for r in caplog.records
        )
        main(argv)  # without --verbose the package logger inherits again
        assert logging.getLogger("provfact").level == logging.NOTSET
    finally:
        logging.getLogger("provfact").setLevel(logging.NOTSET)


def test_global_flags_must_precede_subcommand(files):
    with pytest.raises(SystemExit) as exc:
        main(["factorize", files["q2star.q"], files["fig2a.db"], "--ascii"])
    assert exc.value.code == 2


def test_there_is_no_kernel_option(capsys, files):
    # one max-flow kernel, so neither subcommand takes a kernel option
    for argv in (
        ["factorize", files["q2star.q"], files["fig2a.db"], "--kernel", "py"],
        ["bench", "--kernels"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
