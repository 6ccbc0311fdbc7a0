"""Exact minimum-factorization search: goldens, brute-force agreement, budget."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from provfact.cq import DisconnectedQueryError, parse_query
from provfact.exact import fact_decision, lower_bound, solve_exact
from provfact.gen import GenSpec, fixture_query, gen_random
from provfact.ilp import ModelBudgetExhausted, build_ilp, solve_model
from provfact.assembly import verify_equivalence
from provfact.provenance import WitnessSet, compute_witnesses
from provfact.special import dispatch
from provfact.veo import enumerate_mveo


def test_fig2a_read_once(fig2a_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_db)
    res = solve_exact(q, W)
    assert res.length == 10
    assert res.optimal
    assert res.lower_bound == 10
    assert res.factorization.repeats == 0
    assert verify_equivalence(res.factorization, W)


def test_fig2a_with_s13(fig2a_s13_db):
    q = fixture_query("q2star")
    W = compute_witnesses(q, fig2a_s13_db)
    res = solve_exact(q, W)
    assert res.length == 12
    assert res.factorization.repeats == 1
    assert res.optimal


def test_appb1_golden(appb1_db):
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    res = solve_exact(q, W)
    assert res.length == 4
    assert res.expression.pretty(ascii_only=True) == "r_11 s_11 (t_11 v t_12)"


def test_leakage_golden(leakage_db):
    """The 4-witness triangle instance whose minimum (length 10, one repeated
    literal) no flow cut can reach on some orderings."""
    q = fixture_query("triangle")
    W = compute_witnesses(q, leakage_db)
    res = solve_exact(q, W)
    assert res.length == 10
    assert res.optimal
    assert (
        res.expression.pretty(ascii_only=True)
        == "t_00 (r_00 s_00 v r_01 s_10) v r_21 (s_10 t_02 v s_12 t_22)"
    )
    assert oracles.leaf_multiset(res.expression).count(("S", ("1", "0"))) == 2


def test_empty_and_single_witness(fig7d_db):
    q = fixture_query("triangle")
    empty = solve_exact(q, WitnessSet(q, ()))
    assert empty.length == 0 and empty.optimal
    W = compute_witnesses(q, fig7d_db)
    single = WitnessSet(q, W.witnesses[:1])
    res = solve_exact(q, single)
    assert res.length == len(q.atoms)
    assert res.factorization.repeats == 0


def test_lower_bound_full_prefixes(fig2a_db, leakage_db):
    # Every witness needs at least its two full-variable prefix instances
    # for these queries; the instances here are pairwise distinct enough
    # that the bound is exactly 2 per witness.
    q2 = fixture_query("q2star")
    W2 = compute_witnesses(q2, fig2a_db)
    assert lower_bound(q2, W2.witnesses) == 8
    qt = fixture_query("triangle")
    Wl = compute_witnesses(qt, leakage_db)
    assert lower_bound(qt, Wl.witnesses) == 8


def test_lower_bound_refuses_a_disconnected_query():
    """The whole-query plan model charges every witness of A(x), B(y) a
    full-variable prefix, so its bound (8 here) exceeds the optimum (6, which
    `dispatch` proves component by component); the plan model refuses the
    query instead, as `solve_exact` does."""
    q = parse_query("Q :- A(x), B(y)")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=6, tuples=4, seed=1)))
    assert len(W) == 8
    rep = dispatch(q, W)
    assert (rep.length, rep.optimal, rep.lower_bound) == (6, True, 6)
    with pytest.raises(DisconnectedQueryError):
        lower_bound(q, W.witnesses)
    with pytest.raises(DisconnectedQueryError):
        solve_exact(q, W)


@given(st.integers(0, 300), st.integers(0, 3))
def test_exact_matches_brute_force(seed, variant):
    """The search must equal a full enumeration over plan assignments."""
    name, d, t, cap = [
        ("q2star", 5, 7, 10),
        ("2chain", 5, 8, 10),
        ("3chain", 4, 7, 8),
        ("triangle", 4, 8, 6),
    ][variant]
    q = fixture_query(name)
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=d, tuples=t, seed=seed)))
    if not (2 <= len(W.witnesses) <= cap):
        return
    res = solve_exact(q, W)
    assert res.optimal
    assert res.length == oracles.brute_minfact(q, W, enumerate_mveo(q))
    assert verify_equivalence(res.factorization, W)
    assert oracles.count_leaves(res.expression) == res.length


def test_determinism_and_input_order_independence(leakage_db):
    q = fixture_query("triangle")
    W = compute_witnesses(q, leakage_db)
    r1 = solve_exact(q, W)
    r2 = solve_exact(q, W)
    def chosen(W, r):
        return {w.key: v.serial for w, v in zip(W.witnesses, r.factorization.plans, strict=True)}

    assert chosen(W, r1) == chosen(W, r2)
    reversed_W = WitnessSet(q, tuple(reversed(W.witnesses)))
    r3 = solve_exact(q, reversed_W)
    assert r3.length == r1.length
    assert chosen(reversed_W, r3) == chosen(W, r1)


def test_budget_exhaustion():
    q = fixture_query("triangle")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=10, tuples=45, seed=0)))
    assert len(W.witnesses) >= 20
    full = solve_exact(q, W, budget=400_000)
    capped = solve_exact(q, W, budget=200)
    assert not capped.optimal
    assert capped.nodes <= 200
    # the incumbent is still a valid factorization and the reported bound
    # brackets the true optimum
    assert verify_equivalence(capped.factorization, W)
    assert capped.lower_bound <= full.length <= capped.length
    if full.optimal:
        assert full.length <= capped.length


def test_a_truncated_search_whose_bound_meets_its_incumbent_is_proven():
    """Triangle d=5 t=12 seed 2: the whole search takes 24 nodes, and after
    18 its open frontier's bound, 15, meets its incumbent.  A budget of 20
    cuts the search short, yet every front end reports 15 as proven."""
    q = fixture_query("triangle")
    db = gen_random(GenSpec(query=q, d=5, tuples=12, seed=2))
    W = compute_witnesses(q, db)
    assert solve_exact(q, W).nodes == 24
    res = solve_exact(q, W, budget=20)
    assert (res.length, res.optimal, res.lower_bound, res.nodes) == (15, True, 15, 20)
    for policy in ("exact", "auto"):
        rep = dispatch(q, W, policy=policy, budget=20)
        assert (rep.method, rep.length, rep.optimal, rep.lower_bound, rep.notes) == (
            "exact", 15, True, 15, ()
        )
    model = build_ilp(q, W)
    with pytest.raises(ModelBudgetExhausted):  # before the bound meets the incumbent
        solve_model(model, budget=17)
    assert solve_model(model, budget=20)[0] == 15
    distinct = len(W.distinct_tuples)
    assert fact_decision(q, db, 15 - distinct, budget=20) is True
    assert fact_decision(q, db, 14 - distinct, budget=20) is False


def test_auto_proves_a_flow_result_that_meets_the_search_bound():
    """Triangle d=4 t=8 seed 2: 5 nodes leave exact at 16 with bound 15, and
    flow's 15 replaces the incumbent as a proven optimum."""
    q = fixture_query("triangle")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=4, tuples=8, seed=2)))
    capped = solve_exact(q, W, budget=5)
    assert (capped.length, capped.optimal, capped.lower_bound) == (16, False, 15)
    rep = dispatch(q, W, budget=5)
    assert (rep.method, rep.length, rep.optimal, rep.lower_bound, rep.nodes) == (
        "flow", 15, True, 15, 5
    )
    assert rep.notes == ("exact budget exhausted after 5 nodes; lower bound 15",)
    assert rep.verified and solve_exact(q, W).length == 15


def test_budget_flag_consistency(appb1_db):
    # tiny instance: even a minimal budget closes it
    q = fixture_query("3chain")
    W = compute_witnesses(q, appb1_db)
    res = solve_exact(q, W, budget=10)
    assert res.optimal and res.length == 4


@given(st.integers(0, 150))
def test_lower_bound_is_a_lower_bound(seed):
    q = fixture_query("2chain")
    W = compute_witnesses(q, gen_random(GenSpec(query=q, d=5, tuples=8, seed=seed)))
    if not W.witnesses:
        return
    res = solve_exact(q, W)
    assert lower_bound(q, W.witnesses) <= res.length
