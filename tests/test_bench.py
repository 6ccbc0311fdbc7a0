"""Benchmark harness: baseline, sweeps, CSV output."""

import json

import oracles
from provfact import cli
from provfact.bench import SWEEP_FIELDS, run_sweep
from provfact.exact import solve_exact
from provfact.gen import GenSpec, fixture_query, gen_random
from provfact.assembly import verify_equivalence
from provfact.provenance import compute_witnesses
from provfact.special import single_plan_baseline
from provfact.veo import enumerate_mveo


def test_single_plan_baseline_golden(fig2a_s13_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_s13_db)
    fact = single_plan_baseline(q, W)
    assert fact.length == 13
    assert verify_equivalence(fact, W)


def test_single_plan_baseline_is_best_uniform_plan():
    q = fixture_query("2chain")
    for seed in range(12):
        W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=8, seed=seed)))
        if not W.witnesses:
            continue
        fact = single_plan_baseline(q, W)
        best_uniform = min(
            oracles.oracle_length(q, W, {w: v for w in W.witnesses})
            for v in enumerate_mveo(q)
        )
        assert fact.length == best_uniform
        assert fact.length >= solve_exact(q, W).length


def test_run_sweep_rows():
    config = {
        "queries": ["q2star"],
        "d": 5,
        "tuples": [6, 8],
        "reps": 2,
        "methods": ["exact", "flow", "single-plan"],
        "seed": 3,
        "budget": 200_000,
    }
    rows = run_sweep(config)
    assert rows
    assert all(list(r) == SWEEP_FIELDS for r in rows)
    assert {r["query"] for r in rows} == {"q2star"}
    assert {r["tuples"] for r in rows} == {6, 8}
    assert {r["method"] for r in rows} == {"exact", "flow", "single-plan"}
    by_key = {}
    for r in rows:
        assert r["length"] >= r["witnesses"] and r["witnesses"] >= 1
        assert r["penalty_pct"] >= 0
        assert r["solve_ms"] >= 0
        if r["method"] == "exact":
            assert r["optimal"]
            assert r["nodes"] >= 0
        else:
            assert r["nodes"] == 0
        by_key.setdefault((r["tuples"], r["seed"]), {})[r["method"]] = r
    for group in by_key.values():
        if {"exact", "flow", "single-plan"} <= set(group):
            assert group["exact"]["length"] <= group["flow"]["length"]
            assert group["exact"]["length"] <= group["single-plan"]["length"]
            assert group["exact"]["witnesses"] == group["flow"]["witnesses"]


CONFIG = {"queries": ["q2star"], "d": 5, "tuples": [6], "reps": 1, "methods": ["flow"], "seed": 3}


def bench_csv(capsys, *argv):
    """`provfact bench` run in process; its stdout."""
    assert cli.main(["bench", *argv]) == 0
    return capsys.readouterr().out


def untimed(text):
    """CSV text as cells per line, without the timing column."""
    return [l.split(",")[:8] + l.split(",")[9:] for l in text.split("\r\n")]


def test_bench_csv_header_on_stdout_and_config_file(capsys, tmp_path):
    """The CLI writes one header line and one line per row; a `--config`
    file loads as the same sweep given by `--set`."""
    pairs = [arg for key, val in CONFIG.items() for arg in ("--set", f"{key}={json.dumps(val)}")]
    stdout = bench_csv(capsys, *pairs)
    lines = stdout.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_FIELDS)
    assert (
        lines[0]
        == "query,d,tuples,witnesses,method,length,optimal,penalty_pct,solve_ms,seed,nodes"
    )
    assert len(lines) == 1 + len(run_sweep(CONFIG))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    loaded = bench_csv(capsys, "--config", str(cfg_path))
    assert untimed(loaded) == untimed(stdout)


def test_bench_out_writes_the_stdout_csv(capsys, tmp_path):
    """`--out` writes the bytes stdout gets, the timing column aside, and
    an empty cell where no proven reference gives a penalty."""
    config = {"queries": ["triangle"], "reps": 1, "methods": ["exact", "flow"], "budget": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    assert bench_csv(capsys, "--config", str(cfg_path), "--out", str(out)) == ""
    stdout = bench_csv(capsys, "--config", str(cfg_path))
    text = out.read_bytes().decode()
    assert text.endswith("\r\n") and untimed(text) == untimed(stdout)
    rows = run_sweep(config)
    assert len(text.splitlines()) == 1 + len(rows)
    assert [r["penalty_pct"] for r in rows] == [None, None]
    assert [l.split(",")[7] for l in text.splitlines()[1:]] == ["", ""]
