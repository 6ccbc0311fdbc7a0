"""Command-line interface: subcommand outputs, exit codes, error handling."""

import json
import logging
import re
import subprocess
import sys
from functools import partial

import pytest

import dbs
import oracles
from provfact import cli, ilp
from provfact.cli import main
from provfact.cq import parse_query
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random

Q2STAR = "Q :- R(x), S(x,y), T(y)\n"
TRIANGLE = "Q :- R(x,y), S(y,z), T(z,x)\n"
CHAIN3 = "Q :- R(x,y), S(y,z), T(z,u)\n"
SPLIT = "Q :- A(x), B(x,y), C(u), D(u,v)\n"


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


def test_mveo_lists_each_component_of_a_disconnected_query(capsys, tmp_path):
    """A disconnected query's plans are its components' own, each under its
    name, as `dispatch` solves them; no whole-query plan is listed."""
    (tmp_path / "disc.q").write_text("Q :- R(x), S(y)\n")
    rc, out, err = run(capsys, ["--verbose", "mveo", str(tmp_path / "disc.q")])
    assert rc == 0
    assert out.splitlines() == ["Q.1:", "v1: x", "Q.2:", "v1: y"]
    assert err.count("    dissociation: -\n") == 2


def test_mveo_runs_on_components_past_the_enumeration_cap_together(capsys, tmp_path):
    """Two 5-variable chains make a 10-variable query, over the cap of 8 that
    a whole-query plan list would hit; each chain lists its 5 plans, and
    `factorize` solves the query."""
    chain = "R{0}(a{0},b{0}), S{0}(b{0},c{0}), T{0}(c{0},d{0}), U{0}(d{0},e{0})"
    text = f"Q :- {chain.format(1)}, {chain.format(2)}\n"
    (tmp_path / "two.q").write_text(text)
    rc, out, err = run(capsys, ["mveo", str(tmp_path / "two.q")])
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[:6] == [
        "Q.1:", "v1: b1 <- (a1, c1 <- d1 <- e1)", "v2: b1 <- (a1, d1 <- (c1, e1))",
        "v3: c1 <- (b1 <- a1, d1 <- e1)", "v4: d1 <- (b1 <- (a1, c1), e1)",
        "v5: d1 <- (c1 <- b1 <- a1, e1)",
    ]
    assert lines[6:] == ["Q.2:"] + [re.sub(r"([a-e])1", r"\g<1>2", l) for l in lines[1:6]]
    db = gen_random(GenSpec(query=parse_query(text), d=2, tuples=3, seed=1))
    (tmp_path / "two.db").write_text(db.text())
    rc, out, _ = run(capsys, ["factorize", str(tmp_path / "two.q"), str(tmp_path / "two.db")])
    assert rc == 0 and "method: components" in out.splitlines()


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


def test_factorize_proves_a_truncated_search_that_meets_its_bound(capsys, files):
    """Triangle d=5 t=12 seed 2: 20 nodes leave the search open, but its
    bound meets the incumbent, 15, so the run is proven and exits 0."""
    db = gen_random(GenSpec(query=fixture_query("triangle"), d=5, tuples=12, seed=2))
    db_path = files["dir"] / "tri.db"
    db_path.write_text(db.text())
    for method in ("exact", "auto"):
        rc, out, err = run(
            capsys, ["factorize", files["triangle.q"], str(db_path), "--method", method, "--budget", "20"]
        )
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert (rc, lines["length"], lines["optimal"], err) == (0, "15", "true", "")
        assert "lower-bound" not in lines


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


@pytest.fixture
def split(tmp_path):
    """A disconnected query, its database and the product count."""
    q = parse_query(SPLIT)
    db = gen_random(GenSpec(query=q, d=4, tuples=6, seed=2))
    (tmp_path / "split.q").write_text(SPLIT)
    (tmp_path / "split.db").write_text(db.text())
    return str(tmp_path / "split.q"), str(tmp_path / "split.db"), len(oracles.brute_bindings(q, db))


def test_disconnected_query_runs_from_the_cli(capsys, split):
    query, database, n = split
    rc, out, _ = run(capsys, ["factorize", query, database])
    assert rc == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert (lines["method"], lines["witnesses"], lines["length"]) == ("components", str(n), "15")
    assert lines["optimal"] == "true"
    rc, out, _ = run(capsys, ["classify", query])
    assert rc == 0 and "disconnected" in out.splitlines()[0].removeprefix("tags: ").split(", ")
    rc, out, _ = run(capsys, ["witnesses", query, database])
    assert rc == 0
    assert out.splitlines()[0] == f"witnesses: {n}" and len(out.splitlines()) == n + 1


@pytest.mark.parametrize("extra", [
    ["--order", "flat"],
    ["--method", "flow", "--order", "flat:2,1"],
    ["--dump-graph", "split.dot"],
    ["--order", "nested-rp", "--dump-graph", "split.dot"],
])
def test_disconnected_query_refuses_an_ordering(capsys, split, tmp_path, monkeypatch, extra):
    """An ordering or a graph dump is refused as `dispatch` refuses it,
    before any plan list, ordering or graph is made or a file written."""
    monkeypatch.chdir(tmp_path)
    for name in ("assembly.TemplateTable", "veo.build_ordering", "flow.build_flow_graph"):
        monkeypatch.setattr(f"provfact.{name}", None)
    rc, out, err = run(capsys, ["factorize", *split[:2], *extra])
    assert (rc, out) == (1, "")
    assert err == "error: Q is disconnected; an ordering needs a connected query\n"
    assert not (tmp_path / "split.dot").exists()


@pytest.mark.parametrize("extra", [[], ["--method", "exact"], ["--dump-graph", "g.dot"]])
def test_strict_rp_refuses_a_non_rp_ordering(capsys, tmp_path, monkeypatch, extra):
    """Under `--strict-rp` an ordering built from `--order` without running
    prefixes is refused, whatever the method, before a graph is written;
    one with them runs."""
    monkeypatch.chdir(tmp_path)
    q = fixture_query("2chain-we")
    (tmp_path / "q.q").write_text(str(q))
    (tmp_path / "q.db").write_text(gen_random(GenSpec(query=q, d=5, tuples=8, seed=1)).text())
    argv = ["--strict-rp", "factorize", "q.q", "q.db", *extra, "--order"]
    rc, out, err = run(capsys, [*argv, "flat:1,2,4,3,5"])
    assert (rc, out) == (1, "")
    assert err == "error: ordering violates the running-prefixes property in strict mode\n"
    assert not (tmp_path / "g.dot").exists()
    rc, out, _ = run(capsys, [*argv, "flat"])
    assert rc == 0 and "length" in dict(l.split(": ", 1) for l in out.splitlines())


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
    # `ilp` subcommand imports the solver when it runs, so patch it at its home
    monkeypatch.setattr(ilp, "solve_model", partial(ilp.solve_model, budget=200))
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


@pytest.mark.parametrize("text,line,bad", [
    ("1 2\n3\n", 2, "'3'"),
    ("# header\n\n2 x  # comment\n", 3, "'2 x'"),
    ("1 2 3\n", 1, "'1 2 3'"),
])
def test_gen_names_a_malformed_edge_line(capsys, tmp_path, monkeypatch, text, line, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(text)
    rc, out, err = run(capsys, ["gen", "--gadget", "3star", "--graph", "g.txt"])
    assert (rc, out) == (1, "")
    assert err.strip() == f"error: g.txt:{line}: expected two integer vertices, got {bad}"


@pytest.mark.parametrize("gadget", ["3star", "triad"])
@pytest.mark.parametrize("text,message", [
    ("1 2\n1 1\n", "g.txt:2: self-loop at vertex 1"),
    ("1 2\n# comment\n\n2 1\n", "g.txt:4: duplicate edge (2,1), first on line 1"),
    ("1 2\n2 3\n2  3  # again\n", "g.txt:3: duplicate edge (2,3), first on line 2"),
])
def test_gen_names_the_line_of_a_bad_edge(capsys, tmp_path, monkeypatch, gadget, text, message):
    """Self-loops and repeated edges are found while the lines are read, so
    the error names the file and line, under either gadget."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(text)
    (tmp_path / "t.q").write_text("triangle :- R(x,y), S(y,z), T(z,x)\n")
    args = ["gen", "--gadget", gadget, "--graph", "g.txt"]
    rc, out, err = run(capsys, args + (["--query", "t.q"] if gadget == "triad" else []))
    assert (rc, out) == (1, "")
    assert err.strip() == f"error: {message}"


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


def test_bench_rejects_an_unknown_config_key(capsys):
    rc, out, err = run(capsys, ["bench", "--set", "kernal=1"])
    assert rc == 1 and out == ""
    assert err.strip() == (
        "error: unknown config key 'kernal'; keys: queries, d, tuples, reps, methods, seed, budget"
    )


@pytest.mark.parametrize("method", cli._POLICIES)
def test_factorize_refuses_a_negative_budget(capsys, files, method):
    """Every policy refuses a negative budget, rather than running as budget
    0, and the refused run writes no graph: it is written only once
    `dispatch` has accepted the run."""
    dot = files["dir"] / "neg.dot"
    argv = ["factorize", files["q2star.q"], files["fig2a.db"], "--method", method, "--budget", "-5"]
    rc, out, err = run(capsys, [*argv, "--dump-graph", str(dot)])
    assert (rc, out) == (1, "")
    assert err == "error: the exact search budget cannot be negative (budget=-5)\n"
    assert not dot.exists()


@pytest.mark.parametrize("pair,message", [
    ("reps=-1", "cannot run a negative number of repetitions (reps=-1)"),
    ("budget=-3", "the exact search budget cannot be negative (budget=-3)"),
])
def test_bench_refuses_negative_counts(capsys, pair, message):
    argv = ["bench", "--set", 'queries=["q2star"]', "--set", "tuples=[6]", "--set", "d=5"]
    rc, out, err = run(capsys, [*argv, "--set", "reps=1", "--set", pair])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_bench_names_an_unknown_query_without_quotes(capsys):
    rc, out, err = run(capsys, ["bench", "--set", 'queries=["nope"]'])
    assert (rc, out) == (1, "")
    assert err == f"error: unknown fixture query 'nope'; options: {sorted(FIXTURE_QUERIES)}\n"


@pytest.mark.parametrize("order", ["flat:v1,v1", "flat:v0", "flat:v2,v1", "flat:2"])
def test_order_errors_name_plans_as_written(capsys, tmp_path, order):
    """A bad permutation is named in the `v` numbers `mveo` prints, not 0-based."""
    (tmp_path / "h.q").write_text("Q :- R(x), S(x,y)\n")  # one plan: x <- y
    (tmp_path / "h.db").write_text("[R]\n1\n[S]\n1,2\n")
    rc, out, err = run(capsys, ["factorize", str(tmp_path / "h.q"), str(tmp_path / "h.db"), "--order", order])
    assert (rc, out) == (1, "")
    assert err == f"error: {order} is not a permutation of v1..v1\n"


def test_bench_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"queries": ["q2star"], "tuples": [6], "reps": 1, "methods": ["flow"], "d": 5}))
    rc, out, _ = run(capsys, ["bench", "--config", str(cfg)])
    assert rc == 0
    assert out.splitlines()[0].startswith("query,d,")


@pytest.mark.parametrize("pair,message", [
    ('reps="2"', "reps must be an integer, got '2'"),
    ("tuples=5", "tuples must be a list of integers, got 5"),
    ('tuples=[6, "8"]', "tuples must be a list of integers, got [6, '8']"),
    ("d=2.5", "d must be an integer, got 2.5"),
    ("seed=null", "seed must be an integer, got None"),
    ("budget=true", "budget must be an integer, got True"),
    ('queries="q2star"', "queries must be a list of fixture names or queries, got 'q2star'"),
    ('methods="flow"', "methods must be a list of method names, got 'flow'"),
])
def test_bench_names_a_mistyped_config_value(capsys, pair, message):
    rc, out, err = run(capsys, ["bench", "--set", pair])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("extra", [[], ["--set", "reps=1"]])
def test_bench_refuses_a_config_that_is_not_an_object(capsys, tmp_path, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[]")
    rc, out, err = run(capsys, ["bench", "--config", str(cfg), *extra])
    assert (rc, out, err) == (1, "", "error: a sweep config must be an object (a dict), got []\n")


@pytest.mark.parametrize("pair", ["reps=x", "reps"])
def test_bench_names_a_malformed_set_pair(capsys, pair):
    rc, out, err = run(capsys, ["bench", "--set", "d=5", "--set", pair])
    assert (rc, out) == (1, "")
    assert err == f"error: --set {pair}: Expecting value: line 1 column 1 (char 0)\n"


def test_bench_names_a_malformed_or_missing_config_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"queries": ["q2star"], }')
    rc, out, err = run(capsys, ["bench", "--config", "cfg.json"])
    assert (rc, out) == (1, "")
    assert err == "error: cfg.json:1:25: Expecting property name enclosed in double quotes\n"
    rc, out, err = run(capsys, ["bench", "--config", "nosuch.json"])
    assert (rc, out, err) == (1, "", "error: nosuch.json: no such file or directory\n")


def test_gen_rejects_a_negative_row_count(capsys):
    rc, out, err = run(capsys, ["gen", "--fixture", "3chain", "--d", "3", "--tuples", "-3"])
    assert (rc, out) == (1, "")
    assert err.strip() == "error: cannot draw a negative number of rows (tuples=-3)"


def test_missing_inputs_are_named_alike(capsys, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run(capsys, ["mveo", "nosuch.q"])
    assert rc == 1 and err.strip() == "error: nosuch.q: no such file or directory"
    rc, _, err = run(capsys, ["witnesses", files["q2star.q"], "nosuch.txt"])
    assert rc == 1 and err.strip() == "error: nosuch.txt: no such file or directory"
    rc, _, err = run(capsys, ["gen", "--gadget", "3star", "--graph", "nosuch.txt"])
    assert rc == 1 and err.strip() == "error: nosuch.txt: no such file or directory"


@pytest.mark.parametrize("command, work, option", [
    ("bench --set reps=1", "bench.run_sweep", "--out"),
    ("ilp 3chain.q appb1.db", "cli.load_database", "--lp"),
    ("gen --fixture 3chain", "cli.gen_random", "--out"),
    ("factorize 3chain.q appb1.db", "cli.load_database", "--dump-graph"),
])
def test_an_output_path_in_a_missing_directory_is_refused_first(
    capsys, files, monkeypatch, command, work, option
):
    """An output path whose directory is missing is named as a missing
    input is, before the command reads its inputs or runs."""
    monkeypatch.chdir(files["dir"])
    monkeypatch.setattr(f"provfact.{work}", None)  # the command's work, unreachable
    rc, out, err = run(capsys, [*command.split(), option, "sub/x.txt"])
    assert (rc, out) == (1, "")
    assert err == "error: sub/x.txt: no such file or directory\n"
    assert not (files["dir"] / "sub").exists()


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

    monkeypatch.setattr("provfact.special.dispatch", broken)
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
