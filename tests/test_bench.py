"""Benchmark harness: baseline, sweeps, CSV output."""

import io

import oracles
from provfact.bench import SWEEP_FIELDS, load_config, rows_to_csv, run_sweep, single_plan_baseline
from provfact.exact import solve_exact
from provfact.gen import GenSpec, fixture_query, gen_random
from provfact.provenance import compute_witnesses, verify_equivalence
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
    assert {r.query for r in rows} == {"q2star"}
    assert {r.tuples for r in rows} == {6, 8}
    assert {r.method for r in rows} == {"exact", "flow", "single-plan"}
    by_key = {}
    for r in rows:
        assert r.length >= r.witnesses and r.witnesses >= 1
        assert r.penalty_pct >= 0
        assert r.solve_ms >= 0
        if r.method == "exact":
            assert r.optimal
            assert r.nodes >= 0
        else:
            assert r.nodes == 0
        by_key.setdefault((r.tuples, r.seed), {})[r.method] = r
    for group in by_key.values():
        if {"exact", "flow", "single-plan"} <= set(group):
            assert group["exact"].length <= group["flow"].length
            assert group["exact"].length <= group["single-plan"].length
            assert group["exact"].witnesses == group["flow"].witnesses


def test_rows_to_csv_header_and_load_config(tmp_path):
    config = {
        "queries": ["q2star"],
        "d": 5,
        "tuples": [6],
        "reps": 1,
        "methods": ["flow"],
        "seed": 3,
    }
    rows = run_sweep(config)
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_FIELDS)
    assert (
        lines[0]
        == "query,d,tuples,witnesses,method,length,optimal,penalty_pct,solve_ms,seed,nodes"
    )
    assert len(lines) == 1 + len(rows)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"queries": ["q2star"], "tuples": [6]}')
    loaded = load_config(cfg_path)
    assert loaded["queries"] == ["q2star"] and loaded["tuples"] == [6]


def test_run_sweep_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    config = {
        "queries": ["q2star"],
        "d": 5,
        "tuples": [6],
        "reps": 1,
        "methods": ["flow"],
        "seed": 3,
    }
    rows = run_sweep(config, out=str(out))
    text = out.read_text()
    assert text.splitlines()[0].startswith("query,d,tuples")
    assert len(text.strip().splitlines()) == 1 + len(rows)
