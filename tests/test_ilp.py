"""Covering-model construction, LP export, reductions, exact solving."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dbs
import oracles
from provfact import cli
from provfact.cq import parse_query
from provfact.exact import solve_exact
from provfact.gen import FIXTURE_QUERIES, GenSpec, fixture_query, gen_random
from provfact.ilp import (
    EmptyWitnessSet,
    ModelBudgetExhausted,
    build_ilp,
    export_lp,
    model_stats,
    solve_model,
)
from provfact.provenance import WitnessSet, compute_witnesses, parse_database


def test_appb1_structure(appb1_db):
    """The 2-witness 3-chain model: 2 plan constraints, 12 prefix
    constraints, 12 variables of which 8 are distinct prefix variables."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    m = build_ilp(q, W)
    stats = model_stats(m)
    assert stats["n"] == 2 and stats["k"] == 2 and stats["m"] == 3
    assert len(m.plan_constraints) == 2
    assert len(m.prefix_constraints) == 12
    assert stats["vars"] == 12
    assert stats["constraints"] == 14
    prefix_vars = {v for v in m.binaries if v.startswith("p_")}
    plan_vars = {v for v in m.binaries if v.startswith("q_")}
    assert len(prefix_vars) == 8
    assert len(plan_vars) == 4
    # every objective weight is 1 on this instance
    assert sorted(m.objective) == sorted(prefix_vars)
    assert all(w == 1 for w in m.objective.values())


def test_appb1_solve(appb1_db):
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    value, solution = solve_model(build_ilp(q, W))
    assert value == 4
    assert all(val in (0, 1) for val in solution.values())
    reduced_value, _ = solve_model(build_ilp(q, W, reduce=True))
    assert reduced_value == 4


def test_instances_with_equal_serials_get_two_variables():
    """The (y,z) instances y=1z,z=2 and y=1,z=z2 both serialize as `y1zz2`;
    each needs its own prefix variable, so the optimum is 6, not 3."""
    q = parse_query("Q :- R(x,y), S(y,z), T(z,x)")
    W = compute_witnesses(q, parse_database(dbs.SERIAL_COLLISION))
    value, _ = solve_model(build_ilp(q, W))
    assert value == 6 == solve_exact(q, W).length


@pytest.mark.parametrize("reduce", [False, True])
def test_witnesses_with_equal_keys_get_their_own_choices(reduce):
    """Two witnesses share the key `x1_y2_y3`; merging their choice
    variables would merge their plan constraints (optimum 11, not 10)."""
    q = parse_query("Q :- R(x), S(x,y), T(y)")
    W = compute_witnesses(q, parse_database(dbs.WITNESS_KEY_COLLISION))
    assert len({w.key for w in W.witnesses}) < len(W.witnesses)
    value, _ = solve_model(build_ilp(q, W, reduce=reduce))
    assert value == 10 == solve_exact(q, W).length


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES))
def test_reduction_does_not_depend_on_variable_names(name):
    """Renaming every variable (x -> xv) keeps the reduced model's size,
    constant and optimum: the linear-chain shorthand looks at the plans'
    nodes, not at the length of a variable's name (q3star reduced to 95
    variables and 104 constraints instead of 47 and 56 once renamed)."""
    q = fixture_query(name)
    renamed = parse_query(re.sub(r"\b([a-z])\b", r"\1v", FIXTURE_QUERIES[name]))
    assert renamed.variables == {f"{v}v" for v in q.variables}
    db = gen_random(GenSpec(query=q, d=5, tuples=10, seed=2))
    models = [build_ilp(p, compute_witnesses(p, db), reduce=True) for p in (q, renamed)]
    assert models[0].n > 0
    assert model_stats(models[0]) == model_stats(models[1])
    assert models[0].constant == models[1].constant
    assert solve_model(models[0])[0] == solve_model(models[1])[0]


def test_truncated_search_is_not_reported_as_optimum():
    """On this 60-witness 3chain instance a 200-node search holds the
    optimum 45 but has not proven it; it must say so instead of returning
    45 as the optimum."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=14, seed=1)))
    assert len(W) == 60
    m = build_ilp(q, W)
    with pytest.raises(ModelBudgetExhausted) as info:
        solve_model(m, budget=200)
    exc = info.value
    assert isinstance(exc, RuntimeError)
    assert (exc.value, exc.nodes) == (45, 200)
    assert exc.value >= solve_exact(q, W).length == 45
    assert all(val == 1 for val in exc.solution.values())
    assert sum(m.objective.get(v, 0) for v in exc.solution) + m.constant == 45


def test_model_optimum_matches_brute_force():
    """`solve_model` equals trying every choice of every plan constraint, on
    each fixture's models (full and reduced) of at most 20,000 choices."""
    checked = 0
    for name in FIXTURE_QUERIES:
        q = fixture_query(name)
        for seed in range(10):
            W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=7, seed=seed)))
            if not W.witnesses:
                continue
            for reduce in (False, True):
                m = build_ilp(q, W, reduce=reduce)
                if math.prod(len(c) for _, c in m.plan_constraints) > 20_000:
                    continue
                value, solution = solve_model(m)
                assert value == oracles.brute_model_optimum(m), (name, seed, reduce)
                assert sum(m.objective.get(v, 0) for v in solution) + m.constant == value
                checked += 1
    assert checked >= 100


def test_model_solve_needs_no_recursion():
    """The 2,999-witness two-star path: one search level per witness lies
    far beyond Python's recursion limit."""
    q = fixture_query("q2star")
    W = compute_witnesses(q, dbs.path_q2star(1500))
    assert len(W) == 2999
    value, _ = solve_model(build_ilp(q, W))
    assert value == 7498 == 5 * 1500 - 2


def test_model_solve_proves_the_3chain_optimum():
    """On this 68-witness 3chain model the search proves the optimum 53
    within the default budget."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=8, tuples=20, seed=3)))
    assert len(W) == 68
    value, _ = solve_model(build_ilp(q, W))
    assert value == 53 == solve_exact(q, W).length


def test_export_lp_format(appb1_db):
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    m = build_ilp(q, W)
    text = export_lp(m)
    assert text.startswith("\\ minimal factorization model for three_chain (n=2, k=2, m=3)")
    assert "Minimize" in text and "obj:" in text
    assert "Subject To" in text
    assert "plan_w1:" in text and "plan_w2:" in text
    assert ">= 1" in text
    assert "Binaries" in text.split("Subject To")[1]
    assert text.rstrip().endswith("End")


def test_export_lp_to_path(capsys, tmp_path, appb1_db):
    """`provfact ilp --lp PATH` writes exactly `export_lp` of its model,
    plain and reduced."""
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    (tmp_path / "q.q").write_text(str(q))
    (tmp_path / "db.txt").write_text(appb1_db.text())
    p = tmp_path / "model.lp"
    argv = ["ilp", str(tmp_path / "q.q"), str(tmp_path / "db.txt"), "--lp", str(p)]
    for reduce in (False, True):
        assert cli.main(argv + ["--reduce"] * reduce) == 0
        assert "vars: " in capsys.readouterr().out
        assert p.read_bytes() == export_lp(build_ilp(q, W, reduce=reduce)).encode()


def test_empty_witness_set():
    q = fixture_query("3chain")
    with pytest.raises(EmptyWitnessSet):
        build_ilp(q, WitnessSet(q, ()))


@given(st.integers(0, 200), st.integers(0, 2))
def test_model_optimum_matches_exact_search(seed, variant):
    """Solving the covering model equals the dedicated search."""
    name, d, t = [("q2star", 5, 7), ("2chain", 5, 8), ("triangle", 4, 8)][variant]
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
    if not (1 <= len(W.witnesses) <= 8):
        return
    m = build_ilp(q, W)
    value, _ = solve_model(m)
    exact = solve_exact(q, W)
    assert exact.optimal
    assert value == exact.length
    reduced = build_ilp(q, W, reduce=True)
    rvalue, _ = solve_model(reduced)
    assert rvalue == value
    assert model_stats(reduced)["vars"] <= model_stats(m)["vars"]


@given(st.integers(0, 200), st.integers(0, 2))
def test_model_size_bound(seed, variant):
    """vars ≤ n(1+km): one plan variable per witness-plan pair and at most
    one prefix variable per witness-plan-atom triple."""
    name, d, t = [("q2star", 5, 7), ("3chain", 4, 7), ("triangle", 4, 8)][variant]
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
    if not W.witnesses:
        return
    for reduce in (False, True):
        m = build_ilp(q, W, reduce=reduce)
        stats = model_stats(m)
        n, k, mm = stats["n"], stats["k"], stats["m"]
        assert stats["vars"] <= n * (1 + k * mm)
        assert stats["constraints"] <= n + n * k * mm
