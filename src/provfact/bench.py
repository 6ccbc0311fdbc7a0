"""Benchmarks: method sweeps over seeded random instances.

A sweep is one row per (instance, method) run, a dict keyed by
`SWEEP_FIELDS`; `provfact bench` writes the rows as CSV.  The timing
column obviously varies between machines; everything else is
deterministic for a fixed config.
"""

from __future__ import annotations

from . import _BUDGET
from .cq import Query
from .gen import GenSpec, fixture_query, gen_random
from .provenance import compute_witnesses
from .special import dispatch

__all__ = ["run_sweep", "SWEEP_FIELDS"]

SWEEP_FIELDS = [
    "query", "d", "tuples", "witnesses", "method", "length", "optimal",
    "penalty_pct", "solve_ms", "seed", "nodes",
]

# key -> (default, the type of a list's items or None for an integer, what it must be)
_CONFIG = {
    "queries": (["3chain"], (str, Query), "a list of fixture names or queries"),
    "d": (10, None, "an integer"),
    "tuples": ([20], int, "a list of integers"),
    "reps": (3, None, "an integer"),
    "methods": (["exact", "flow", "single-plan"], str, "a list of method names"),
    "seed": (0, None, "an integer"),
    "budget": (_BUDGET, None, "an integer"),
}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def run_sweep(config: dict) -> list[dict]:
    """Run a sweep from a config dict and return its rows.

    Keys: queries (fixture names or `Query` objects), d, tuples (list of
    sizes), reps, methods, seed, budget.  Each method is a `dispatch`
    policy, run without verification; a row's `method` is the policy and
    `solve_ms` the dispatch call's time.  penalty_pct compares each method
    to the best exact length seen for the same instance (None when exact
    didn't finish optimally).  A config that is not a dict, an unknown key
    or a value of the wrong type raises `ValueError`.
    """
    if not isinstance(config, dict):
        raise ValueError(f"a sweep config must be an object (a dict), got {config!r}")
    for key in config:
        if key not in _CONFIG:
            raise ValueError(f"unknown config key {key!r}; keys: {', '.join(_CONFIG)}")
    values = []
    for key, (default, item, what) in _CONFIG.items():
        value = config.get(key, default)
        if not (_is(value, int) if item is None
                else isinstance(value, list) and all(_is(v, item) for v in value)):
            raise ValueError(f"{key} must be {what}, got {value!r}")
        values.append(value)
    queries, d, sizes, reps, methods, base_seed, budget = values
    if reps < 0:
        raise ValueError(f"cannot run a negative number of repetitions (reps={reps})")

    rows: list[dict] = []
    for qname in queries:
        q = fixture_query(qname) if isinstance(qname, str) else qname
        for size in sizes:
            for rep in range(reps):
                seed = base_seed + 1000 * rep + size
                db = gen_random(GenSpec(query=q, d=d, tuples=size, seed=seed))
                W = compute_witnesses(q, db)
                reports = [
                    dispatch(q, W, policy=method, budget=budget, verify=False)
                    for method in methods
                ]
                exact_len = next(
                    (r.length for method, r in zip(methods, reports)
                     if method == "exact" and r.optimal), None)
                for method, r in zip(methods, reports):
                    penalty = (round(100.0 * (r.length - exact_len) / exact_len, 3)
                               if exact_len else None)  # None for an unproven or empty reference
                    rows.append(dict(zip(SWEEP_FIELDS, (
                        q.name, d, size, len(W.witnesses), method, r.length, r.optimal,
                        penalty, round(r.elapsed_ms, 3), seed, r.nodes,
                    ))))
    return rows
